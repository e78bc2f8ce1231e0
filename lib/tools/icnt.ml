(** The instruction-counter tools from Table 2.

    [ICntI] increments a memory counter with {e inline} code at every
    guest instruction; [ICntC] calls a C (OCaml) helper instead.  The
    pair exists to measure the cost of inline analysis code versus
    helper calls ("the difference between ICntI and ICntC shows the
    advantage of inline code over C calls", §5.4). *)

open Vex_ir.Ir

(* a tool-private 8-byte counter cell in the core's region *)
let counter_addr = 0x3A80_0000L

let count_of (mem : Aspace.t) : int64 =
  try Aspace.read mem counter_addr 8 with Aspace.Fault _ -> 0L

(** ICntI: inline load/add/store per instruction executed. *)
let icnt_inline : Vg_core.Tool.t =
  {
    name = "icnti";
    description = "instruction counter (inline code)";
    shadow_ranges = [];
    create =
      (fun caps ->
        Aspace.map caps.mem ~addr:counter_addr ~len:4096 ~perm:Aspace.perm_rw;
        let instrument (b : block) : block =
          let nb = empty_like b in
          Support.Vec.iter
            (fun s ->
              add_stmt nb s;
              match s with
              | IMark _ ->
                  let t = new_tmp nb I64 in
                  add_stmt nb (WrTmp (t, Load (I64, i32 counter_addr)));
                  let t2 = new_tmp nb I64 in
                  add_stmt nb (WrTmp (t2, Binop (Add64, RdTmp t, i64 1L)));
                  add_stmt nb (Store (i32 counter_addr, RdTmp t2))
              | _ -> ())
            b.stmts;
          nb
        in
        {
          instrument;
          fini =
            (fun ~exit_code:_ ->
              caps.output
                (Printf.sprintf "==icnti== instructions executed: %Ld\n"
                   (count_of caps.mem)));
          client_request = (fun ~code:_ ~args:_ -> None);
        });
  }

(** ICntC: helper call per instruction executed. *)
let icnt_call : Vg_core.Tool.t =
  {
    name = "icntc";
    description = "instruction counter (C call)";
    shadow_ranges = [];
    create =
      (fun caps ->
        let counter = ref 0L in
        let helper =
          caps.register_helper ~name:"icnt_increment" ~cost:3 ~nargs:0
            (fun _args ->
              counter := Int64.add !counter 1L;
              0L)
        in
        let instrument (b : block) : block =
          let nb = empty_like b in
          Support.Vec.iter
            (fun s ->
              add_stmt nb s;
              match s with
              | IMark _ -> add_stmt nb (dirty helper [])
              | _ -> ())
            b.stmts;
          nb
        in
        {
          instrument;
          fini =
            (fun ~exit_code:_ ->
              caps.output
                (Printf.sprintf "==icntc== instructions executed: %Ld\n"
                   !counter));
          client_request = (fun ~code:_ ~args:_ -> None);
        });
  }
