(** Lackey: the classic memory-access tracer example tool.

    The paper uses this tool shape for the tool-writing-effort
    comparison ("a tool that traces memory accesses would be about 30
    lines of code in Pin, and about 100 in Valgrind", §5.1) — and indeed
    the instrumentation below must walk the flat IR looking for [Load]
    and [Store], where a C&A framework hands you ready-made "this
    instruction reads memory" callbacks (see {!Caa} for the 30-line
    version of the same tool). *)

open Vex_ir.Ir

type record = { acc_write : bool; acc_addr : int64; acc_size : int }

type tstate = {
  mutable trace : record list;  (** newest first *)
  mutable n_loads : int64;
  mutable n_stores : int64;
  mutable n_instrs : int64;
  keep_trace : bool;  (** record individual accesses (memory!) *)
  limit : int;
}

(** Lackey, handing each session's state to [on_state] at start-up. *)
let with_state (on_state : tstate -> unit) : Vg_core.Tool.t =
  {
    name = "lackey";
    description = "an example memory-access tracer";
    shadow_ranges = [];
    create =
      (fun caps ->
        let st =
          { trace = []; n_loads = 0L; n_stores = 0L; n_instrs = 0L;
            keep_trace = false; limit = 100_000 }
        in
        on_state st;
        let note ~write addr size =
          if write then st.n_stores <- Int64.add st.n_stores 1L
          else st.n_loads <- Int64.add st.n_loads 1L;
          if st.keep_trace && List.length st.trace < st.limit then
            st.trace <-
              { acc_write = write; acc_addr = addr; acc_size = size } :: st.trace
        in
        let h_load =
          caps.register_helper ~name:"lk_load" ~cost:4 ~nargs:2 (fun args ->
              note ~write:false args.(0) (Int64.to_int args.(1));
              0L)
        in
        let h_store =
          caps.register_helper ~name:"lk_store" ~cost:4 ~nargs:2 (fun args ->
              note ~write:true args.(0) (Int64.to_int args.(1));
              0L)
        in
        let h_instr =
          caps.register_helper ~name:"lk_instr" ~cost:2 ~nargs:0 (fun _ ->
              st.n_instrs <- Int64.add st.n_instrs 1L;
              0L)
        in
        let instrument (b : block) : block =
          let nb = empty_like b in
          let call callee args = add_stmt nb (dirty callee args) in
          Support.Vec.iter
            (fun s ->
              (match s with
              | IMark _ -> ()
              | WrTmp (_, Load (ty, addr)) ->
                  call h_load [ addr; i32 (Int64.of_int (size_of_ty ty)) ]
              | Store (addr, d) ->
                  call h_store
                    [ addr; i32 (Int64.of_int (size_of_ty (type_of nb d))) ]
              | _ -> ());
              add_stmt nb s;
              match s with
              | IMark _ -> call h_instr []
              | _ -> ())
            b.stmts;
          nb
        in
        {
          instrument;
          fini =
            (fun ~exit_code:_ ->
              caps.output
                (Printf.sprintf
                   "==lackey== instructions: %Ld  loads: %Ld  stores: %Ld\n"
                   st.n_instrs st.n_loads st.n_stores));
          client_request = (fun ~code:_ ~args:_ -> None);
        });
  }

let tool = with_state ignore
