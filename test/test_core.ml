(* End-to-end tests of the Valgrind core: a client program must behave
   identically under Nulgrind (translated, dispatched, scheduled) and on
   the native engine. *)

let fact_src =
  {|
        .text
        .global _start
_start: movi r0, 10
        push r0
        call fact
        addi sp, 4
        ; print the result as exit code
        mov r1, r0
        movi r0, 1          ; sys_exit
        syscall

fact:   push fp
        mov fp, sp
        ldw r0, [fp+8]      ; n
        cmpi r0, 1
        jle base
        dec r0
        push r0
        call fact
        addi sp, 4
        ldw r1, [fp+8]
        mul r0, r1
        pop fp
        ret
base:   movi r0, 1
        pop fp
        ret
|}

let hello_src =
  {|
        .text
        .global _start
_start: movi r1, msg
        movi r2, 14
        movi r0, 2          ; sys_write
        mov r3, r2
        mov r2, r1
        movi r1, 1          ; fd 1
        syscall
        movi r0, 1
        movi r1, 0
        syscall
        .data
msg:    .ascii "hello, world!\n"
|}

let run_native src =
  let img = Guest.Asm.assemble src in
  let eng = Native.create img in
  let reason = Native.run eng in
  (reason, Native.stdout_contents eng)

let run_valgrind ?(tool = Vg_core.Tool.nulgrind) ?options src =
  let img = Guest.Asm.assemble src in
  let s = Vg_core.Session.create ?options ~tool img in
  let reason = Vg_core.Session.run s in
  (s, reason, Vg_core.Session.client_stdout s)

let check_exit what expected = function
  | Native.Exited n -> Alcotest.(check int) what expected n
  | Native.Fatal_signal n -> Alcotest.failf "%s: fatal signal %d" what n
  | Native.Out_of_fuel -> Alcotest.failf "%s: out of fuel" what

let check_vg_exit what expected = function
  | Vg_core.Session.Exited n -> Alcotest.(check int) what expected n
  | Vg_core.Session.Fatal_signal n -> Alcotest.failf "%s: fatal signal %d" what n
  | Vg_core.Session.Out_of_fuel -> Alcotest.failf "%s: out of fuel" what

let test_fact_native () =
  let reason, _ = run_native fact_src in
  check_exit "fact native exit" 3628800 reason

let test_fact_nulgrind () =
  let _, reason, _ = run_valgrind fact_src in
  check_vg_exit "fact nulgrind exit" 3628800 reason

let test_hello_both () =
  let nr, nout = run_native hello_src in
  check_exit "hello native" 0 nr;
  Alcotest.(check string) "native stdout" "hello, world!\n" nout;
  let _, vr, vout = run_valgrind hello_src in
  check_vg_exit "hello nulgrind" 0 vr;
  Alcotest.(check string) "nulgrind stdout" "hello, world!\n" vout

let test_dispatcher_stats () =
  let s, reason, _ = run_valgrind fact_src in
  check_vg_exit "exit" 3628800 reason;
  let st = Vg_core.Session.stats s in
  Alcotest.(check bool) "made translations" true (st.st_translations > 0);
  Alcotest.(check bool)
    "ran blocks" true
    (Int64.unsigned_compare st.st_blocks 10L > 0)

(* ---- threads under the valgrind engine (serialised execution) ------- *)

let threads_src =
  {|
        .text
        .global _start
_start: movi r0, 7            ; mmap a second stack
        movi r1, 0
        movi r2, 65536
        syscall
        mov r2, r0
        addi r2, 65532
        movi r0, 15           ; thread_create(entry=worker, sp, arg=300)
        movi r1, worker
        movi r3, 300
        syscall
main_loop:
        movi r3, counter
        ldw r4, [r3]
        inc r4
        stw [r3], r4
        movi r0, 17           ; yield
        syscall
        movi r3, done_flag
        ldw r4, [r3]
        cmpi r4, 1
        jne main_loop
        movi r3, counter
        ldw r1, [r3]
        movi r0, 1
        syscall
worker: mov r5, r1
wloop:  movi r3, counter
        ldw r4, [r3]
        inc r4
        stw [r3], r4
        movi r0, 17
        syscall
        dec r5
        jne wloop
        movi r3, done_flag
        movi r4, 1
        stw [r3], r4
        movi r0, 16           ; thread_exit
        syscall
        .data
counter:   .word 0
done_flag: .word 0
|}

let test_threads_serialised () =
  let nr, _ = run_native threads_src in
  let s, vr, _ = run_valgrind threads_src in
  (match (nr, vr) with
  | Native.Exited n, Vg_core.Session.Exited v ->
      Alcotest.(check bool) "native counter >= 600" true (n >= 600);
      Alcotest.(check bool) "vg counter >= 600" true (v >= 600)
  | _ -> Alcotest.fail "thread programs failed");
  let st = Vg_core.Session.stats s in
  Alcotest.(check bool) "the lock changed hands" true
    (Int64.to_int st.st_lock_handoffs > 100)

(* ---- signals under the valgrind engine ------------------------------ *)

let test_signals_vg () =
  let _, vr, _ = run_valgrind Fuzz.Clients.signal_src in
  check_vg_exit "handler ran, sigreturn resumed" 42 vr;
  let nr, _ = run_native Fuzz.Clients.signal_src in
  check_exit "same natively" 42 nr

(* ---- self-modifying code (the §3.16 hash mechanism) ------------------ *)

let test_smc_on_stack () =
  let src = Test_guest.smc_stack_src in
  let nr, _ = run_native src in
  check_exit "native smc" 1077 nr;
  let s, vr, _ = run_valgrind src in
  check_vg_exit "vg smc" 1077 vr;
  let st = Vg_core.Session.stats s in
  Alcotest.(check bool) "retranslated after hash mismatch" true
    (st.st_retranslations_smc >= 1)

let test_smc_mode_none_misses_it () =
  (* with --smc-check=none the stale translation keeps running: the
     second call must still see the FIRST patched value *)
  let options =
    { Vg_core.Session.default_options with smc_mode = Vg_core.Session.Smc_none }
  in
  let _, vr, _ = run_valgrind ~options Test_guest.smc_stack_src in
  match vr with
  | Vg_core.Session.Exited n ->
      Alcotest.(check int) "stale translation result" 154 n (* 77 + 77 *)
  | _ -> Alcotest.fail "unexpected termination"

(* ---- discard-translations client request (JIT-style codegen) -------- *)

let test_discard_translations () =
  (* same self-modifying program, smc-check=none, but with an explicit
     discard client request between the patches — the dynamic-code-
     generator protocol of §3.16 *)
  let src =
    {|
        .text
_start: mov r2, sp
        subi r2, 256
        movi r1, template
        movi r3, 16
cploop: ldb r4, [r1]
        stb [r2], r4
        inc r1
        inc r2
        dec r3
        jne cploop
        mov r2, sp
        subi r2, 256
        movi r4, 77
        stw [r2+2], r4
        call* r2
        mov r5, r0
        movi r4, 1000
        stw [r2+2], r4
        ; tell the core the code changed: args block = [addr, len]
        mov r3, sp
        subi r3, 512
        stw [r3], r2
        movi r4, 16
        stw [r3+4], r4
        movi r0, 2           ; CR discard_translations
        mov r1, r3
        clreq
        mov r2, sp
        subi r2, 256
        call* r2
        add r5, r0
        mov r0, r5
        mov r1, r5
        movi r0, 1
        syscall
template:
        movi r0, 11
        ret
|}
  in
  let options =
    { Vg_core.Session.default_options with smc_mode = Vg_core.Session.Smc_none }
  in
  let _, vr, _ = run_valgrind ~options src in
  check_vg_exit "discard request forces retranslation" 1077 vr

(* ---- function wrapping (§3.13) --------------------------------------- *)

let test_function_wrapping () =
  let src =
    {| int compute(int x) { return x * x + 1; }
       int main() {
         int r;
         r = compute(6);     /* 37 */
         r = r + compute(3); /* + 10 = 47 */
         return r;
       } |}
  in
  let img = Minicc.Driver.compile src in
  let enters = ref [] in
  let exits = ref [] in
  let wrapping_tool : Vg_core.Tool.t =
    {
      name = "wraptest";
      description = "wraps compute";
      shadow_ranges = [];
      create =
        (fun caps ->
          caps.wrap_function ~symbol:"compute"
            ~on_enter:(fun () ->
              (* args at [sp+4] inside the wrapper stub *)
              let sp = caps.read_guest Guest.Arch.off_sp 4 in
              let arg = Aspace.read caps.mem (Int64.add sp 4L) 4 in
              enters := Int64.to_int arg :: !enters)
            ~on_exit:(fun () ->
              (* original's result in r1; transparent: write it to r0 *)
              let v = caps.read_guest (Guest.Arch.off_reg 1) 4 in
              exits := Int64.to_int v :: !exits;
              caps.write_guest (Guest.Arch.off_reg 0) 4 v);
          {
            instrument = (fun b -> b);
            fini = (fun ~exit_code:_ -> ());
            client_request = (fun ~code:_ ~args:_ -> None);
          });
    }
  in
  let s = Vg_core.Session.create ~tool:wrapping_tool img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited 47 -> ()
  | Vg_core.Session.Exited n -> Alcotest.failf "wrapped result %d, wanted 47" n
  | _ -> Alcotest.fail "bad termination");
  Alcotest.(check (list int)) "arguments observed" [ 3; 6 ] !enters;
  Alcotest.(check (list int)) "results observed" [ 10; 37 ] !exits

(* ---- suppressions ----------------------------------------------------- *)

let test_suppressions () =
  let src =
    {| int main() {
         int x[2];
         if (x[0] > 3) { return 1; }
         return 0;
       } |}
  in
  let img = Minicc.Driver.compile src in
  let s = Vg_core.Session.create ~tool:Tools.Memcheck.tool img in
  List.iter
    (Vg_core.Errors.add_suppression s.errors)
    (Vg_core.Errors.parse_suppressions
       {|
{
  ignore-main-uninit
  UninitValue
  fun:main*
}
|});
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited _ -> ()
  | _ -> Alcotest.fail "bad termination");
  Alcotest.(check int) "error suppressed" 0
    (Vg_core.Errors.total_errors s.errors);
  Alcotest.(check bool) "counted as suppressed" true (s.errors.n_suppressed > 0)

(* ---- client requests / transparency of RUNNING_ON_VALGRIND ---------- *)

let test_running_on_valgrind () =
  let src =
    {| int main() { return vg_running_on_valgrind(); } |}
  in
  let img = Minicc.Driver.compile src in
  let eng = Native.create img in
  (match Native.run eng with
  | Native.Exited 0 -> () (* natively: clreq is a no-op returning 0 *)
  | _ -> Alcotest.fail "native run failed");
  let s = Vg_core.Session.create ~tool:Vg_core.Tool.nulgrind img in
  match Vg_core.Session.run s with
  | Vg_core.Session.Exited 1 -> ()
  | _ -> Alcotest.fail "RUNNING_ON_VALGRIND not 1 under the core"

(* ---- the core protects itself (§3.10) -------------------------------- *)

let test_mmap_precheck () =
  (* a client mmap cannot land inside the core's address range; the
     kernel hook makes it fail cleanly rather than corrupting the core *)
  let src =
    {| int main() {
         char *p;
         int i;
         /* exhaust... no: just check a big pile of mmaps never lands in
            the valgrind range */
         for (i = 0; i < 50; i++) {
           p = mmap(1048576);
           if ((int)p == -12) { return 2; }   /* ENOMEM: also fine */
           if ((int)p >= (int)0x38000000 && (int)p < (int)0x70000000) {
             return 1;                        /* intruded! *)  */
           }
         }
         return 0;
       } |}
  in
  let img = Minicc.Driver.compile src in
  let s = Vg_core.Session.create ~tool:Vg_core.Tool.nulgrind img in
  match Vg_core.Session.run s with
  | Vg_core.Session.Exited n ->
      Alcotest.(check bool) "never intrudes" true (n = 0 || n = 2)
  | _ -> Alcotest.fail "bad termination"

(* ---- chaining is semantics-preserving -------------------------------- *)

let test_chaining_equivalent () =
  let chained = { Vg_core.Session.default_options with chaining = true } in
  let unchained = { Vg_core.Session.default_options with chaining = false } in
  let s1, r1, out1 = run_valgrind ~options:chained fact_src in
  let s2, r2, out2 = run_valgrind ~options:unchained fact_src in
  (match (r1, r2) with
  | Vg_core.Session.Exited a, Vg_core.Session.Exited b ->
      Alcotest.(check int) "same result" a b
  | _ -> Alcotest.fail "bad termination");
  Alcotest.(check string) "same output" out1 out2;
  let st1 = Vg_core.Session.stats s1 and st2 = Vg_core.Session.stats s2 in
  Alcotest.(check bool) "chained transfers happened" true
    (Int64.unsigned_compare st1.st_chained 0L > 0);
  Alcotest.(check int64) "no chaining without the flag" 0L st2.st_chained;
  Alcotest.(check bool) "fewer dispatcher entries when chained" true
    (Int64.unsigned_compare st1.st_dispatch_entries st2.st_dispatch_entries
    < 0)

(* ---- chaining invalidation under transtab eviction pressure ---------- *)

(* a client with ~80 distinct code blocks (40 called functions plus their
   return continuations), looped: with a tiny translation table this
   thrashes the FIFO eviction constantly while chains are live, so any
   stale chain into an evicted-then-retranslated block would compute the
   wrong sum *)
let many_blocks_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b "        .text\n_start: movi r0, 0\n        movi r2, 100\n";
  Buffer.add_string b "outer:\n";
  for i = 0 to 39 do
    Buffer.add_string b (Printf.sprintf "        call fn%d\n" i)
  done;
  Buffer.add_string b
    "        dec r2\n        jne outer\n        mov r1, r0\n        movi r0, 1\n        syscall\n";
  for i = 0 to 39 do
    Buffer.add_string b (Printf.sprintf "fn%d:    inc r0\n        ret\n" i)
  done;
  Buffer.contents b

let test_chaining_eviction_pressure () =
  let options =
    {
      Vg_core.Session.default_options with
      chaining = true;
      transtab_capacity = 64;
    }
  in
  let s, vr, _ = run_valgrind ~options many_blocks_src in
  check_vg_exit "sum correct under constant eviction" 4000 vr;
  let st = Vg_core.Session.stats s in
  Alcotest.(check bool) "table thrashed" true (st.st_transtab_evictions > 0);
  Alcotest.(check bool) "chains were patched" true (st.st_chain_patched > 0);
  Alcotest.(check bool) "eviction unlinked chains" true
    (st.st_chain_unlinked > 0);
  (* the same program, unchained, must agree (it trivially does natively
     too, but this pins the chained/unchained pair) *)
  let _, vr2, _ =
    run_valgrind
      ~options:{ options with chaining = false }
      many_blocks_src
  in
  check_vg_exit "same result unchained" 4000 vr2

(* ---- chaining vs self-modifying code --------------------------------- *)

let test_chaining_smc () =
  (* the §3.16 SMC client, explicitly chained: the discard of the stale
     translation must unlink chains so the patched code is re-entered
     through a fresh translation *)
  let options = { Vg_core.Session.default_options with chaining = true } in
  let s, vr, _ = run_valgrind ~options Test_guest.smc_stack_src in
  check_vg_exit "smc result correct with chaining" 1077 vr;
  let st = Vg_core.Session.stats s in
  Alcotest.(check bool) "retranslated after hash mismatch" true
    (st.st_retranslations_smc >= 1)

(* ---- tiered translation ---------------------------------------------- *)

(* aggressive tiering knobs so the short test clients exercise promotion
   and trace formation within a few hundred block executions *)
let tiered_hot_options =
  {
    Vg_core.Session.default_options with
    tier0 = true;
    promote_threshold = 2;
    trace_threshold = 8;
  }

let full_only_options =
  { Vg_core.Session.default_options with tier0 = false; trace_threshold = 0 }

(* a hot multi-block loop with a conditional side path: every 4th
   iteration takes the fallthrough, the rest branch over it, so a
   superblock stitched along the hot path keeps leaving through its
   side exit.  sum = 200 + 50*100 = 5200. *)
let side_exit_src =
  {|
        .text
        .global _start
_start: movi r0, 0
        movi r2, 200
loop:   mov r3, r2
        andi r3, 3
        jnz skip
        addi r0, 100
skip:   inc r0
        dec r2
        jnz loop
        mov r1, r0
        movi r0, 1          ; sys_exit
        syscall
|}

let test_promotion_exactly_once () =
  (* with tier-0 on and superblocks off, every full-pipeline translation
     is a promotion, and a promoted block never promotes again (the
     replacement is Tier_full, which the promotion check skips) — so
     promotions = full translations <= quick translations *)
  let options =
    { tiered_hot_options with promote_threshold = 4; trace_threshold = 0 }
  in
  let s, vr, out = run_valgrind ~options many_blocks_src in
  check_vg_exit "tiered result correct" 4000 vr;
  let st = Vg_core.Session.stats s in
  Alcotest.(check bool) "hot blocks promoted" true (st.st_promotions > 0);
  Alcotest.(check int) "every full translation is one promotion"
    st.st_promotions st.st_translations_full;
  Alcotest.(check bool) "at most one promotion per quick translation" true
    (st.st_promotions <= st.st_translations_tier0);
  Alcotest.(check int) "tier counters partition the total"
    st.st_translations
    (st.st_translations_tier0 + st.st_translations_full
   + st.st_translations_super);
  (* the same client through the full pipeline only must agree *)
  let _, vr2, out2 = run_valgrind ~options:full_only_options many_blocks_src in
  check_vg_exit "full-only result agrees" 4000 vr2;
  Alcotest.(check string) "same client output" out2 out

let test_superblock_side_exits () =
  (* the stitched hot path leaves through its inverted side exit 50
     times; guest state and the tool's event stream must be exactly what
     block-by-block execution produces *)
  let run options =
    let img = Guest.Asm.assemble side_exit_src in
    let s = Vg_core.Session.create ~options ~tool:Tools.Lackey.tool img in
    let reason = Vg_core.Session.run s in
    (s, reason, Vg_core.Session.client_stdout s, Vg_core.Session.tool_output s)
  in
  let s1, r1, out1, tool1 = run tiered_hot_options in
  let _, r2, out2, tool2 = run full_only_options in
  check_vg_exit "tiered exit" 5200 r1;
  check_vg_exit "full-only exit" 5200 r2;
  Alcotest.(check string) "same client output" out2 out1;
  Alcotest.(check string) "same tool event totals" tool2 tool1;
  let st = Vg_core.Session.stats s1 in
  Alcotest.(check bool) "a superblock actually formed" true
    (st.st_translations_super >= 1)

let test_superblock_smc () =
  (* the SMC client under aggressive tiering: whatever got promoted or
     stitched over the patched range must be invalidated by the code
     write, or the stale translation computes the wrong sum *)
  let s, vr, _ = run_valgrind ~options:tiered_hot_options Test_guest.smc_stack_src in
  check_vg_exit "smc result correct under tiering" 1077 vr;
  let st = Vg_core.Session.stats s in
  Alcotest.(check bool) "retranslated after hash mismatch" true
    (st.st_retranslations_smc >= 1)

let test_tiered_deterministic () =
  (* two identical tiered runs must agree on every published metric
     (promotion points, superblock formation, per-tier cycle splits) *)
  let run () =
    let img = Guest.Asm.assemble side_exit_src in
    let s = Vg_core.Session.create ~options:tiered_hot_options ~tool:Vg_core.Tool.nulgrind img in
    let _ = Vg_core.Session.run s in
    Vg_core.Session.stats_json s
  in
  Alcotest.(check string) "bit-identical metrics" (run ()) (run ())

(* A session is collectable once the caller drops it, whether it ran to
   exit or was stopped half-way: its helpers live in its own table and
   its tool's state is handed only to the caller, so nothing global
   keeps it reachable. *)
let loop_src =
  "int main() { int i; int s = 0; for (i = 0; i < 200; i = i + 1) s = s + i; \
   print_int(s); return 0; }"

let run_session tool ~half weak =
  let s =
    Vg_core.Session.create ~tool (Minicc.Driver.compile loop_src)
  in
  if half then
    Vg_core.Session.run_to s ~stop:(fun s -> s.blocks_executed >= 50L)
  else ignore (Vg_core.Session.run s);
  Weak.set weak 0 (Some s)
[@@inline never]

let test_finished_session_collectable () =
  let retained =
    List.concat_map
      (fun (name, tool) ->
        List.filter_map
          (fun half ->
            let weak = Weak.create 1 in
            run_session tool ~half weak;
            Gc.full_major ();
            if Weak.check weak 0 then
              Some (name ^ if half then " (stopped half-way)" else "")
            else None)
          [ false; true ])
      (("witness", Fuzz.Diff.witness) :: Tools.Catalog.all)
  in
  Alcotest.(check (list string)) "no session retained" [] retained

(* Every session's helper table starts with the guest helpers at the ids
   the disassembler bakes into IR; the tool's helpers follow, numbered
   alike in every session. *)
let test_session_helper_table () =
  let names () =
    let s =
      Vg_core.Session.create ~tool:Tools.Lackey.tool
        (Minicc.Driver.compile loop_src)
    in
    Vg_core.Session.startup s;
    List.init 6 (Vex_ir.Helpers.name s.henv.he_table)
  in
  let first = names () in
  Alcotest.(check (list string)) "guest helpers, then lackey's"
    (List.map
       (fun (c : Vex_ir.Ir.callee) -> c.c_name)
       Jit.Ghelpers.[ calculate_condition; calculate_eflags; sysinfo ]
    @ [ "lk_load"; "lk_store"; "lk_instr" ])
    first;
  Alcotest.(check (list string)) "same ids in the next session" first (names ())

let tests =
  [
    Alcotest.test_case "fact native" `Quick test_fact_native;
    Alcotest.test_case "fact nulgrind" `Quick test_fact_nulgrind;
    Alcotest.test_case "hello native+nulgrind" `Quick test_hello_both;
    Alcotest.test_case "dispatcher stats" `Quick test_dispatcher_stats;
    Alcotest.test_case "threads serialised" `Quick test_threads_serialised;
    Alcotest.test_case "signals between blocks" `Quick test_signals_vg;
    Alcotest.test_case "smc on stack retranslates" `Quick test_smc_on_stack;
    Alcotest.test_case "smc-check=none goes stale" `Quick
      test_smc_mode_none_misses_it;
    Alcotest.test_case "discard-translations request" `Quick
      test_discard_translations;
    Alcotest.test_case "function wrapping" `Quick test_function_wrapping;
    Alcotest.test_case "suppressions" `Quick test_suppressions;
    Alcotest.test_case "RUNNING_ON_VALGRIND" `Quick test_running_on_valgrind;
    Alcotest.test_case "mmap pre-check" `Quick test_mmap_precheck;
    Alcotest.test_case "chaining equivalent" `Quick test_chaining_equivalent;
    Alcotest.test_case "chaining under eviction pressure" `Quick
      test_chaining_eviction_pressure;
    Alcotest.test_case "chaining vs smc" `Quick test_chaining_smc;
    Alcotest.test_case "tier0: promotion exactly once" `Quick
      test_promotion_exactly_once;
    Alcotest.test_case "superblocks: side exits equivalent" `Quick
      test_superblock_side_exits;
    Alcotest.test_case "superblocks vs smc" `Quick test_superblock_smc;
    Alcotest.test_case "tiering deterministic" `Quick
      test_tiered_deterministic;
    Alcotest.test_case "finished session is collectable" `Quick
      test_finished_session_collectable;
    Alcotest.test_case "session helper table" `Quick test_session_helper_table;
  ]
