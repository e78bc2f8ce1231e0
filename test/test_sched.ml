(* The sharded scheduler: Threads.switch_to_next edge cases, timeslice
   fairness, cross-core determinism, and the multi-core cycle model. *)

let t name f = Alcotest.test_case name `Quick f
let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

(* ---- Threads.switch_to_next ----------------------------------------- *)

let test_switch_single_runnable () =
  let ts = Vg_core.Threads.create (Aspace.create ()) in
  ts.current.blocks_run <- 10;
  Alcotest.(check bool) "switch succeeds" true
    (Vg_core.Threads.switch_to_next ts);
  Alcotest.(check int) "stays on the only thread" 1 ts.current.tid;
  (* a self-switch still starts a fresh timeslice *)
  Alcotest.(check int) "slice reset" 10 ts.current.slice_start;
  Alcotest.check i64 "self-switch is not a handoff" 0L ts.lock_handoffs

let test_switch_current_dead () =
  let ts = Vg_core.Threads.create (Aspace.create ()) in
  let t2 = Vg_core.Threads.spawn ts in
  ts.current.status <- Vg_core.Threads.Exited;
  Alcotest.(check bool) "switch succeeds" true
    (Vg_core.Threads.switch_to_next ts);
  Alcotest.(check int) "moves to the live thread" t2.tid ts.current.tid;
  Alcotest.check i64 "counts as a handoff" 1L ts.lock_handoffs

let test_switch_all_blocked () =
  let ts = Vg_core.Threads.create (Aspace.create ()) in
  let t2 = Vg_core.Threads.spawn ts in
  ts.current.status <- Vg_core.Threads.Exited;
  t2.status <- Vg_core.Threads.Blocked;
  Alcotest.(check bool) "no runnable thread" false
    (Vg_core.Threads.switch_to_next ts);
  Alcotest.(check int) "current unchanged" 1 ts.current.tid

let test_switch_round_robin () =
  let ts = Vg_core.Threads.create (Aspace.create ()) in
  let _ = Vg_core.Threads.spawn ts in
  let _ = Vg_core.Threads.spawn ts in
  let order = ref [] in
  for _ = 1 to 6 do
    Alcotest.(check bool) "switch" true (Vg_core.Threads.switch_to_next ts);
    order := ts.current.tid :: !order
  done;
  (* from tid 1, two full stable rotations *)
  Alcotest.(check (list int)) "rotation order" [ 2; 3; 1; 2; 3; 1 ]
    (List.rev !order)

let test_switch_skips_other_cores () =
  let ts = Vg_core.Threads.create ~n_cores:2 (Aspace.create ()) in
  let t2 = Vg_core.Threads.spawn ts in
  let t3 = Vg_core.Threads.spawn ts in
  Alcotest.(check int) "tid 2 pinned to core 1" 1 t2.core;
  Alcotest.(check int) "tid 3 pinned to core 0" 0 t3.core;
  (* rotation on core 0 never touches core 1's thread *)
  Alcotest.(check bool) "switch" true (Vg_core.Threads.switch_to_next ts);
  Alcotest.(check int) "skips the off-core thread" 3 ts.current.tid;
  Alcotest.(check bool) "switch" true (Vg_core.Threads.switch_to_next ts);
  Alcotest.(check int) "wraps within the core" 1 ts.current.tid;
  (* a core whose only thread blocks reports no runnable *)
  t2.status <- Vg_core.Threads.Blocked;
  Alcotest.(check bool) "core 1 exhausted" false
    (Vg_core.Threads.has_runnable ts ~core:1);
  Alcotest.(check bool) "core 0 still live" true
    (Vg_core.Threads.has_runnable ts ~core:0)

(* ---- timeslice fairness --------------------------------------------- *)

(* Main spins on a yield loop (1 block per slice) while a compute-bound
   worker runs; rotation must be charged against each thread's *own*
   block count, so the worker still gets full slices.  The handoff count
   is pinned: a scheduler change that re-introduces the global-modulo
   rotation (which could preempt a thread the moment it is scheduled)
   shows up as a different count. *)
let fairness_src =
  {|
        .text
        .global _start
_start: movi r0, 15           ; thread_create(worker, stack top, 0)
        movi r1, worker
        movi r2, wstack
        addi r2, 4092
        movi r3, 0
        syscall
        movi r6, 0            ; yield counter
mwait:  movi r0, 17           ; yield
        syscall
        inc r6
        movi r3, done_flag
        ldw r4, [r3]
        cmpi r4, 1
        jne mwait
        movi r0, 1
        mov r1, r6
        syscall
worker: movi r5, 2000
wloop:  dec r5
        jne wloop
        movi r3, done_flag
        movi r4, 1
        stw [r3], r4
        movi r0, 16           ; thread_exit
        syscall
        .data
done_flag: .word 0
        .align 4
wstack: .space 4096
|}

let run_sched ?(cores = 1) ?(timeslice = 100_000) ?(tool = Vg_core.Tool.nulgrind)
    src =
  let img = Guest.Asm.assemble src in
  let options =
    { Vg_core.Session.default_options with cores; timeslice_blocks = timeslice }
  in
  let s = Vg_core.Session.create ~options ~tool img in
  let reason = Vg_core.Session.run s in
  (s, reason)

let test_timeslice_fairness () =
  let s, reason = run_sched ~timeslice:64 fairness_src in
  let yields =
    match reason with
    | Vg_core.Session.Exited n -> n
    | _ -> Alcotest.fail "bad termination"
  in
  (* regression pins: the worker gets full 64-own-block slices, main
     yields exactly once per slice boundary it is handed.  A scheduler
     change that rotates on a global counter again shifts both counts. *)
  Alcotest.(check int) "main yielded once per worker slice" 16 yields;
  Alcotest.check i64 "handoff count pinned" 32L
    s.threads.Vg_core.Threads.lock_handoffs

let test_timeslice_exact_slices () =
  (* with the old global-modulo rotation the worker's effective slice
     depended on how many blocks *other* threads had already run; now a
     compute-bound thread always gets timeslice_blocks consecutive own
     blocks.  Doubling the slice must halve the handoffs. *)
  let s64, _ = run_sched ~timeslice:64 fairness_src in
  let s128, _ = run_sched ~timeslice:128 fairness_src in
  let h64 = s64.threads.Vg_core.Threads.lock_handoffs in
  let h128 = s128.threads.Vg_core.Threads.lock_handoffs in
  Alcotest.(check bool)
    (Printf.sprintf "handoffs scale with slice length (%Ld vs %Ld)" h64 h128)
    true
    (Int64.to_int h64 > Int64.to_int h128 * 3 / 2)

(* ---- cross-core determinism ----------------------------------------- *)

let compute_src =
  {|
int acc;

int mix(int x) { return x * 1103515245 + 12345; }

int main() {
  int i;
  acc = 1;
  for (i = 0; i < 500; i = i + 1) { acc = mix(acc) ^ (acc >> 7); }
  print_str("acc=");
  print_int(acc);
  print_str("\n");
  return 0;
}
|}

let run_minicc ?(cores = 1) ~tool src =
  let img = Minicc.Driver.compile src in
  let options = { Vg_core.Session.default_options with cores } in
  let s = Vg_core.Session.create ~options ~tool img in
  let reason = Vg_core.Session.run s in
  (s, reason)

let test_single_thread_cores_identical () =
  (* a single-threaded client only ever touches core 0: every --cores
     value must be bit-identical, down to the cycle counts *)
  List.iter
    (fun tool ->
      let s1, r1 = run_minicc ~cores:1 ~tool compute_src in
      let base_out = Vg_core.Session.client_stdout s1 in
      let base_tool = Vg_core.Session.tool_output s1 in
      let base = Vg_core.Session.stats s1 in
      List.iter
        (fun cores ->
          let s, r = run_minicc ~cores ~tool compute_src in
          Alcotest.(check bool)
            (Printf.sprintf "%s: same exit at %d cores" tool.Vg_core.Tool.name
               cores)
            true (r = r1);
          Alcotest.(check string)
            (Printf.sprintf "%s: stdout at %d cores" tool.Vg_core.Tool.name
               cores)
            base_out
            (Vg_core.Session.client_stdout s);
          Alcotest.(check string)
            (Printf.sprintf "%s: tool output at %d cores"
               tool.Vg_core.Tool.name cores)
            base_tool
            (Vg_core.Session.tool_output s);
          let st = Vg_core.Session.stats s in
          Alcotest.check i64
            (Printf.sprintf "%s: blocks at %d cores" tool.Vg_core.Tool.name
               cores)
            base.st_blocks st.st_blocks;
          Alcotest.check i64
            (Printf.sprintf "%s: cycles at %d cores" tool.Vg_core.Tool.name
               cores)
            base.st_total_cycles st.st_total_cycles;
          Alcotest.check i64
            (Printf.sprintf "%s: wall cycles at %d cores"
               tool.Vg_core.Tool.name cores)
            base.st_wall_cycles st.st_wall_cycles)
        [ 2; 4 ])
    [ Vg_core.Tool.nulgrind; Tools.Lackey.tool; Tools.Cachegrind.tool ]

let test_multithread_replays () =
  (* a threaded client at a fixed core count replays bit-identically *)
  List.iter
    (fun cores ->
      let s1, r1 = run_sched ~cores ~timeslice:64 fairness_src in
      let s2, r2 = run_sched ~cores ~timeslice:64 fairness_src in
      Alcotest.(check bool)
        (Printf.sprintf "exit replays at %d cores" cores)
        true (r1 = r2);
      let st1 = Vg_core.Session.stats s1 in
      let st2 = Vg_core.Session.stats s2 in
      Alcotest.check i64
        (Printf.sprintf "blocks replay at %d cores" cores)
        st1.st_blocks st2.st_blocks;
      Alcotest.check i64
        (Printf.sprintf "wall cycles replay at %d cores" cores)
        st1.st_wall_cycles st2.st_wall_cycles)
    [ 1; 2; 4 ]

(* ---- the multi-core cycle model ------------------------------------- *)

(* main + 3 workers, each compute-bound for ~3000 blocks; main then
   spin-waits for all three done flags *)
let four_thread_src = Fuzz.Clients.threads4_src

let test_four_cores_speedup () =
  let s1, r1 = run_sched ~cores:1 four_thread_src in
  let s4, r4 = run_sched ~cores:4 four_thread_src in
  Alcotest.(check bool) "exits clean at 1 core" true
    (r1 = Vg_core.Session.Exited 0);
  Alcotest.(check bool) "exits clean at 4 cores" true
    (r4 = Vg_core.Session.Exited 0);
  let st1 = Vg_core.Session.stats s1 in
  let st4 = Vg_core.Session.stats s4 in
  Alcotest.(check int) "one core" 1 st1.st_cores;
  Alcotest.(check int) "four cores" 4 st4.st_cores;
  (* serialised: wall == total; sharded: the wall clock is the max
     core clock, well under the aggregate work *)
  Alcotest.check i64 "1 core: wall = total" st1.st_total_cycles
    st1.st_wall_cycles;
  Alcotest.(check bool)
    (Printf.sprintf "4 cores beat 1 (wall %Ld vs %Ld)" st4.st_wall_cycles
       st1.st_wall_cycles)
    true
    (Int64.unsigned_compare
       (Int64.mul st4.st_wall_cycles 2L)
       st1.st_wall_cycles
    < 0)

(* The same program is kept twice: bench/workloads/threads4.s feeds CI's
   stats golden, replay and refused-flag steps, and the inline copy
   feeds the oracle, the cycle gate and these tests.  Both must
   assemble to one image. *)
let test_threads4_twin () =
  let path =
    let p = "bench/workloads/threads4.s" in
    if Sys.file_exists ("../" ^ p) then "../" ^ p else p
  in
  let file = Guest.Asm.assemble (In_channel.with_open_bin path In_channel.input_all) in
  let inline = Guest.Asm.assemble four_thread_src in
  Alcotest.(check string) "text" (Bytes.to_string inline.text) (Bytes.to_string file.text);
  Alcotest.(check string) "data" (Bytes.to_string inline.data) (Bytes.to_string file.data);
  Alcotest.(check int) "bss" inline.bss_len file.bss_len;
  Alcotest.check i64 "entry" inline.entry file.entry;
  Alcotest.(check (list (pair string i64))) "symbols" inline.symbols file.symbols

let tests =
  [
    t "switch_to_next: single runnable" test_switch_single_runnable;
    t "switch_to_next: current dead" test_switch_current_dead;
    t "switch_to_next: all blocked" test_switch_all_blocked;
    t "switch_to_next: round-robin order" test_switch_round_robin;
    t "switch_to_next: per-core rotation" test_switch_skips_other_cores;
    t "timeslice fairness" test_timeslice_fairness;
    t "timeslice scales with slice length" test_timeslice_exact_slices;
    t "single-threaded identical across cores" test_single_thread_cores_identical;
    t "threaded replays at fixed cores" test_multithread_replays;
    t "four threads speed up on four cores" test_four_cores_speedup;
    t "threads4.s and its inline copy are one image" test_threads4_twin;
  ]
