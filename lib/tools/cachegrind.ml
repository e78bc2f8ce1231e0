(** Cachegrind: the cache profiler distributed with Valgrind (§5.1 gives
    its size, 2,431 lines of C, as a "medium" tool data point).

    Instruments every instruction with an I1 fetch and every load/store
    with a D1 access, feeding the {!Cachesim} hierarchy.  Per-PC counters
    give a hot-spot report, like cg_annotate's. *)

open Vex_ir.Ir

type pc_counts = {
  mutable c_ir : int64;
  mutable c_i1m : int64;
  mutable c_dr : int64;
  mutable c_d1mr : int64;
  mutable c_dw : int64;
  mutable c_d1mw : int64;
}

type state = {
  caps : Vg_core.Tool.caps;
  h : Cachesim.hierarchy;
  per_pc : (int64, pc_counts) Hashtbl.t;
  track_per_pc : bool;
}

let counts_for (st : state) (pc : int64) : pc_counts =
  match Hashtbl.find_opt st.per_pc pc with
  | Some c -> c
  | None ->
      let c =
        { c_ir = 0L; c_i1m = 0L; c_dr = 0L; c_d1mr = 0L; c_dw = 0L; c_d1mw = 0L }
      in
      Hashtbl.replace st.per_pc pc c;
      c

(** Top-N hottest PCs by instruction count (for the annotate-style
    report). *)
let hottest (st : state) (n : int) : (int64 * pc_counts) list =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.per_pc []
  |> List.sort (fun (_, a) (_, b) -> compare b.c_ir a.c_ir)
  |> List.filteri (fun i _ -> i < n)

(** Cachegrind, handing each session's state to [on_state] at
    start-up. *)
let with_state (on_state : state -> unit) : Vg_core.Tool.t =
  {
    name = "cachegrind";
    description = "a cache profiler (I1/D1/L2 simulation)";
    shadow_ranges = [];
    create =
      (fun caps ->
        let st =
          {
            caps;
            h = Cachesim.create_hierarchy ();
            per_pc = Hashtbl.create 1024;
            track_per_pc = true;
          }
        in
        on_state st;
        let h_instr =
          caps.register_helper ~name:"cg_instr" ~cost:12 ~nargs:2 (fun args ->
              Cachesim.instr_fetch st.h args.(0) (Int64.to_int args.(1));
              if st.track_per_pc then begin
                let c = counts_for st args.(0) in
                c.c_ir <- Int64.add c.c_ir 1L
              end;
              0L)
        in
        let h_read =
          caps.register_helper ~name:"cg_data_read" ~cost:12 ~nargs:3
            (fun args ->
              Cachesim.data_read st.h args.(0) (Int64.to_int args.(1));
              if st.track_per_pc then begin
                let c = counts_for st args.(2) in
                c.c_dr <- Int64.add c.c_dr 1L
              end;
              0L)
        in
        let h_write =
          caps.register_helper ~name:"cg_data_write" ~cost:12 ~nargs:3
            (fun args ->
              Cachesim.data_write st.h args.(0) (Int64.to_int args.(1));
              if st.track_per_pc then begin
                let c = counts_for st args.(2) in
                c.c_dw <- Int64.add c.c_dw 1L
              end;
              0L)
        in
        let instrument (b : block) : block =
          let nb = empty_like b in
          let cur_pc = ref 0L in
          let call callee args = add_stmt nb (dirty callee args) in
          Support.Vec.iter
            (fun s ->
              (match s with
              | IMark (addr, len) ->
                  cur_pc := addr;
                  add_stmt nb s;
                  call h_instr [ i32 addr; i32 (Int64.of_int len) ]
              | WrTmp (_, Load (ty, addr)) ->
                  call h_read
                    [ addr; i32 (Int64.of_int (size_of_ty ty)); i32 !cur_pc ];
                  add_stmt nb s
              | Store (addr, d) ->
                  call h_write
                    [ addr; i32 (Int64.of_int (size_of_ty (type_of nb d)));
                      i32 !cur_pc ];
                  add_stmt nb s
              | s -> add_stmt nb s))
            b.stmts;
          nb
        in
        {
          instrument;
          fini =
            (fun ~exit_code:_ ->
              caps.output "==cachegrind== summary:\n";
              caps.output (Cachesim.summary st.h));
          client_request = (fun ~code:_ ~args:_ -> None);
        });
  }

let tool = with_state ignore
