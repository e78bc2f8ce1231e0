(* Vgchaos tier-1 tests: every injected fault is survivable, recovery is
   transparent to the client and the tool, and a seed replays exactly.
   The corpus sweep is the oracle's chaos set (vgfuzz chaos); these pin the
   individual recovery mechanisms. *)

let t name f = Alcotest.test_case name `Quick f

(* A chaos config with everything off; tests switch on exactly the
   injection points they exercise. *)
let quiet ~seed =
  {
    Chaos.seed;
    p_eintr = 0.0;
    p_errno = 0.0;
    p_short = 0.0;
    p_map_denial = 0.0;
    p_translation_failure = 0.0;
    force_phase = None;
    p_flush = 0.0;
    p_handoff_stall = 0.0;
    p_retire_delay = 0.0;
    max_injections = 0;
  }

(* how often the core took recovery path [kind] *)
let recovery_count c kind =
  Option.value (List.assoc_opt kind (Chaos.recoveries c)) ~default:0

let loop_src =
  {|
        .text
_start: movi r0, 0
        movi r2, 2000
loop:   inc r0
        dec r2
        jne loop
        mov r1, r0
        movi r0, 1
        syscall
|}

let run_asm ?(options = Vg_core.Session.default_options) ~tool src =
  let img = Guest.Asm.assemble src in
  let s = Vg_core.Session.create ~options ~tool img in
  let reason = Vg_core.Session.run s in
  (reason, s)

let exit_code = function
  | Vg_core.Session.Exited n -> n
  | Vg_core.Session.Fatal_signal n -> Alcotest.failf "fatal signal %d" n
  | Vg_core.Session.Out_of_fuel -> Alcotest.fail "out of fuel"

(* ---- acceptance bar: a forced Translation_failure on a hot block ---- *)

let test_hot_block_interp_fallback () =
  (* baseline: the loop entry block is translated and runs JITted *)
  let tool () = Tools.Icnt.icnt_inline in
  let r0, s0 = run_asm ~tool:(tool ()) loop_src in
  Alcotest.(check int) "baseline result" 2000 (exit_code r0);
  let base = Vg_core.Session.tool_output s0 in
  (* chaos: the FIRST translation request (the hot loop block) is
     condemned; with the budget spent, later requests succeed *)
  let cfg =
    { (quiet ~seed:7) with p_translation_failure = 1.0; max_injections = 1 }
  in
  let c = Chaos.create cfg in
  let options =
    { Vg_core.Session.default_options with chaos = Some c }
  in
  let r1, s1 = run_asm ~options ~tool:(tool ()) loop_src in
  Alcotest.(check int) "chaos result" 2000 (exit_code r1);
  let st = Vg_core.Session.stats s1 in
  (* the session did not abort: the block ran interpreted exactly once... *)
  Alcotest.(check int) "one interp fallback" 1 st.st_interp_fallbacks;
  Alcotest.(check int) "fallback was recovered" 1
    (recovery_count c "interp_fallback");
  (* ...subsequent blocks re-entered the JIT... *)
  Alcotest.(check bool) "JIT re-entered" true (st.st_translations > 0);
  (* ...and the tool saw every instruction: icnt counts match the JIT run *)
  Alcotest.(check string) "icnt output identical to JIT run" base
    (Vg_core.Session.tool_output s1)

let test_all_eight_phases_survivable () =
  (* a forced failure at EVERY phase boundary degrades gracefully, with
     instrumentation still exact (phases 5-8 fall back to evaluating the
     phase-4 IR; phases 1-4 reach it too because the degradation path
     rebuilds the front end without the injector's checks) *)
  let r0, s0 = run_asm ~tool:Tools.Icnt.icnt_inline loop_src in
  let base = Vg_core.Session.tool_output s0 in
  for phase = 1 to 8 do
    let cfg =
      {
        (quiet ~seed:(100 + phase)) with
        p_translation_failure = 1.0;
        force_phase = Some phase;
        max_injections = 2;
      }
    in
    let options =
      { Vg_core.Session.default_options with chaos = Some (Chaos.create cfg) }
    in
    let r, s = run_asm ~options ~tool:Tools.Icnt.icnt_inline loop_src in
    Alcotest.(check int)
      (Printf.sprintf "phase %d: result" phase)
      (exit_code r0) (exit_code r);
    let st = Vg_core.Session.stats s in
    Alcotest.(check bool)
      (Printf.sprintf "phase %d: fallbacks ran" phase)
      true
      (st.st_interp_fallbacks >= 1);
    Alcotest.(check string)
      (Printf.sprintf "phase %d: icnt output" phase)
      base
      (Vg_core.Session.tool_output s)
  done

(* ---- satellite: chain slots stay consistent under cache chaos ------- *)

let test_chain_consistency_under_chaos () =
  (* a workload big enough for FIFO chunk eviction in a shrunken table,
     with forced full flushes and forced translation failures layered on
     top: after the dust settles, every patched chain slot must still
     point at the resident translation for its target, and the live
     counters must agree with the slots *)
  let img = Workloads.compile ~scale:1 (Option.get (Workloads.find "gcc")) in
  let run chaos =
    let options =
      {
        Vg_core.Session.default_options with
        max_blocks = 10_000L;
        (* small enough that the workload's working set overflows 80%
           occupancy: FIFO chunk eviction fires alongside the flushes *)
        transtab_capacity = 16;
        chaos;
      }
    in
    let s = Vg_core.Session.create ~options ~tool:Vg_core.Tool.nulgrind img in
    ignore (Vg_core.Session.run s);
    s
  in
  let s0 = run None in
  let cfg =
    {
      (quiet ~seed:42) with
      p_flush = 0.002;
      p_translation_failure = 0.05;
    }
  in
  let c = Chaos.create cfg in
  let s = run (Some c) in
  (* the schedule really exercised both invalidation paths *)
  let st = Vg_core.Session.stats s in
  Alcotest.(check bool) "forced flushes happened" true (st.st_chaos_flushes > 0);
  Alcotest.(check bool) "chunk eviction happened" true (s.transtab.n_evicted > 0);
  (* transparent recovery: client output unperturbed *)
  Alcotest.(check string) "client stdout identical"
    (Vg_core.Session.client_stdout s0)
    (Vg_core.Session.client_stdout s);
  (* chain-slot invariants (same as the PR-1 checks, now under chaos) *)
  let patched = ref 0 in
  List.iter
    (fun (e : Vg_core.Transtab.entry) ->
      Array.iter
        (fun (slot : Jit.Pipeline.chain_slot) ->
          match slot.cs_next with
          | None -> ()
          | Some dst ->
              incr patched;
              Alcotest.(check int64) "slot points at its target" slot.cs_target
                dst.Jit.Pipeline.t_guest_addr;
              (match Vg_core.Transtab.find s.transtab slot.cs_target with
              | Some resident ->
                  Alcotest.(check bool) "chain target resident" true
                    (resident == dst)
              | None -> Alcotest.fail "patched slot into evicted translation"))
        e.e_trans.Jit.Pipeline.t_exits)
    (Vg_core.Transtab.all_entries s.transtab);
  Alcotest.(check int) "live_chains counts the patched slots" !patched
    (Vg_core.Transtab.live_chains s.transtab);
  Alcotest.(check int) "links - unlinks = live" !patched
    (s.transtab.n_chain_links - s.transtab.n_chain_unlinks);
  (* tier counters partition the translation total even when chaos
     forces retranslations and failed promotions along the way *)
  Alcotest.(check int) "tier counters partition the total"
    st.st_translations
    (st.st_translations_tier0 + st.st_translations_full
   + st.st_translations_super)

(* ---- syscall restart + mapping retry -------------------------------- *)

let io_src =
  {|
int main() {
  char buf[32];
  int fd = open("data.txt", 0);
  int total = 0;
  int n = read(fd, buf, 32);
  while (n > 0) {
    total = total + n;
    n = read(fd, buf, 32);
  }
  close(fd);
  int i;
  for (i = 0; i < 8; i = i + 1) {
    char *p = mmap(4096);
    if ((int)p > 0) { p[0] = 'x'; munmap(p, 4096); }
  }
  print_str("total=");
  print_int(total);
  print_str("\n");
  return 0;
}
|}

let run_io chaos =
  let img = Minicc.Driver.compile io_src in
  let options = { Vg_core.Session.default_options with chaos } in
  let s = Vg_core.Session.create ~options ~tool:Vg_core.Tool.nulgrind img in
  Kernel.add_file s.kern "data.txt" (String.make 100 'z');
  let reason = Vg_core.Session.run s in
  (reason, s)

let test_eintr_restart_and_map_retry () =
  let r0, s0 = run_io None in
  Alcotest.(check int) "baseline exit" 0 (exit_code r0);
  let cfg = { (quiet ~seed:5) with p_eintr = 0.5; p_map_denial = 0.5 } in
  let c = Chaos.create cfg in
  let r, s = run_io (Some c) in
  Alcotest.(check int) "chaos exit" 0 (exit_code r);
  let st = Vg_core.Session.stats s in
  (* both wrapper recovery paths actually ran... *)
  Alcotest.(check bool) "EINTR restarts ran" true (st.st_syscall_restarts > 0);
  Alcotest.(check bool) "map retries ran" true (st.st_map_retries > 0);
  Alcotest.(check int) "restarts recovered"
    st.st_syscall_restarts
    (recovery_count c "syscall_restart");
  (* ...and the client never noticed: same bytes read, same mappings *)
  Alcotest.(check string) "client stdout identical"
    (Vg_core.Session.client_stdout s0)
    (Vg_core.Session.client_stdout s)

(* ---- replay: same seed, same everything ------------------------------ *)

let test_replay_determinism () =
  let run () =
    let c = Chaos.create (Chaos.hostile ~seed:9) in
    let r, s = run_io (Some c) in
    let st = Vg_core.Session.stats s in
    ( r,
      Vg_core.Session.client_stdout s,
      Chaos.log_lines c,
      (st.st_blocks, st.st_interp_fallbacks, st.st_syscall_restarts,
       st.st_injected_errnos, st.st_short_io, st.st_total_cycles) )
  in
  let r1, out1, log1, dig1 = run () in
  let r2, out2, log2, dig2 = run () in
  Alcotest.(check bool) "faults were injected" true (List.length log1 > 0);
  Alcotest.(check bool) "exit replays" true (r1 = r2);
  Alcotest.(check string) "stdout replays" out1 out2;
  Alcotest.(check bool) "fault log replays bit-identically" true (log1 = log2);
  Alcotest.(check bool) "counters replay" true (dig1 = dig2)

(* ---- satellite: unmapped code faults like native --------------------- *)

let test_invalid_exec_is_sigsegv () =
  (* jumping into unmapped memory must SIGSEGV (as native execution
     does), not decode zero bytes into Ud and report SIGILL *)
  let src = {|
        .text
_start: movi r0, 0x700000
        jmp* r0
|} in
  let img = Guest.Asm.assemble src in
  let s = Vg_core.Session.create ~tool:Vg_core.Tool.nulgrind img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Fatal_signal n ->
      Alcotest.(check int) "SIGSEGV" Kernel.Sig.sigsegv n
  | Vg_core.Session.Exited n -> Alcotest.failf "exited %d" n
  | Vg_core.Session.Out_of_fuel -> Alcotest.fail "out of fuel");
  (match Native.run (Native.create img) with
  | Native.Fatal_signal sg ->
      Alcotest.(check int) "native agrees" Kernel.Sig.sigsegv sg
  | _ -> Alcotest.fail "native did not fault")

let tests =
  [
    t "hot block survives forced Translation_failure"
      test_hot_block_interp_fallback;
    t "all 8 phase failures survivable, icnt exact"
      test_all_eight_phases_survivable;
    t "chain slots consistent under flush/eviction chaos"
      test_chain_consistency_under_chaos;
    t "EINTR restart + map retry are client-invisible"
      test_eintr_restart_and_map_retry;
    t "same seed replays bit-identically" test_replay_determinism;
    t "unmapped code -> SIGSEGV like native" test_invalid_exec_is_sigsegv;
  ]
