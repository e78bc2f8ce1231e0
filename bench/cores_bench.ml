(** Multi-core scheduling benchmark: the cores matrix the bench CI job
    posts to its summary.

    The sharded scheduler interleaves simulated cores on cycle counts
    (lowest clock steps next, ties to the lowest core id), so execution
    is bit-identical for any [--cores N] — a single-threaded client only
    ever touches core 0, and a threaded client replays exactly at a
    fixed core count.  The oracle's [cores] set checks that contract
    across every tool at 1/2/4 cores; here a 4-thread workload's wall
    clock (max core clock) is shown dropping as cores are added.

    [metrics] feeds the deterministic cycle numbers into the same flat
    JSON the chaining gate uses ({!Chain_bench.write_json}), so the
    committed baseline also pins the cores=1 scheduler overhead and the
    4-core wall-cycle win. *)

let core_counts = [ 1; 2; 4 ]

let threads4_img () = Guest.Asm.assemble Fuzz.Clients.threads4_src

let run_at ~(cores : int) (tool : Vg_core.Tool.t) (img : Guest.Image.t) :
    Harness.tool_result =
  Harness.run_tool
    ~options:{ Vg_core.Session.default_options with cores }
    tool img

(* ------------------------------------------------------------------ *)
(* The human-readable cores matrix (what CI posts to the step summary)  *)
(* ------------------------------------------------------------------ *)

let run () =
  Harness.section
    "Sharded scheduler: 4-thread workload, wall cycles by core count";
  Printf.printf "%-6s %13s %13s %9s %8s %6s\n" "cores" "wall" "total(work)"
    "handoffs" "speedup" "out=";
  Harness.hr ();
  let img = threads4_img () in
  let base = run_at ~cores:1 Vg_core.Tool.nulgrind img in
  List.iter
    (fun cores ->
      let r = run_at ~cores Vg_core.Tool.nulgrind img in
      Printf.printf "%-6d %13Ld %13Ld %9Ld %7.2fx %6b\n%!" cores
        r.tr_stats.st_wall_cycles r.tr_stats.st_total_cycles
        r.tr_stats.st_lock_handoffs
        (Int64.to_float base.tr_stats.st_wall_cycles
        /. Int64.to_float r.tr_stats.st_wall_cycles)
        (r.tr_stdout = base.tr_stdout))
    core_counts;
  Harness.hr ();
  print_endline
    "(wall = max core clock; total = aggregate work cycles across cores)"

(* ------------------------------------------------------------------ *)
(* Metrics for the flat JSON gate file                                  *)
(* ------------------------------------------------------------------ *)

(* "cycles_" prefixed keys get the gate's 10% regression tolerance; the
   cores=1 row doubles as the scheduler-overhead pin demanded by the
   sharded-scheduler acceptance bar. *)
let metrics () : (string * int64) list =
  let img = threads4_img () in
  let runs =
    List.map (fun c -> (c, run_at ~cores:c Vg_core.Tool.nulgrind img)) core_counts
  in
  let base = List.assoc 1 runs in
  List.concat_map
    (fun (c, r) ->
      [
        (Printf.sprintf "threads4.cycles_wall_c%d" c, r.Harness.tr_stats.st_wall_cycles);
        (Printf.sprintf "threads4.cycles_work_c%d" c, r.tr_stats.st_total_cycles);
        (Printf.sprintf "threads4.handoffs_c%d" c, r.tr_stats.st_lock_handoffs);
      ])
    runs
  @ [
      ( "threads4.cycles_sched_overhead_c1",
        base.Harness.tr_stats.st_overhead_cycles );
      ( "threads4.cores_outputs_equal",
        if
          List.for_all
            (fun (_, r) -> r.Harness.tr_stdout = base.Harness.tr_stdout)
            runs
        then 1L
        else 0L );
    ]
