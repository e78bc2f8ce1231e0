(* Copy-and-annotate baseline framework tests. *)

let t name f = Alcotest.test_case name `Quick f

let simple_src =
  {| int main() {
       int i; int s; int a[50];
       s = 0;
       for (i = 0; i < 50; i++) { a[i] = i * 3; }
       for (i = 0; i < 50; i++) { s = s + a[i]; }
       print_int(s); print_str("\n");
       return 0;
     } |}

(* A worker that returns from its start function ends through the
   thread-exit trampoline; main yields until it has run, then exits 7. *)
let thread_return_src =
  {|
        .text
        .global _start
_start: movi r1, worker       ; thread_create(worker, stack top, 0)
        movi r2, stk
        addi r2, 4092
        movi r3, 0
        movi r0, 15
        syscall
wait:   movi r0, 17           ; yield
        syscall
        movi r3, done
        ldw r4, [r3]
        cmpi r4, 1
        jne wait
        movi r0, 1
        movi r1, 7
        syscall
worker: movi r3, done
        movi r4, 1
        stw [r3], r4
        ret
        .data
done:   .word 0
        .align 4
stk:    .space 4096
|}

let exit_string = function
  | Native.Exited n -> Printf.sprintf "exited %d" n
  | Native.Fatal_signal n -> Printf.sprintf "signal %d" n
  | Native.Out_of_fuel -> "out of fuel"

(* The uninstrumented C&A run must end like native: same exit and the
   same stdout, also where the client takes a signal, a thread returns
   from its start function or control leaves the image. *)
let test_transparency () =
  List.iter
    (fun (name, img) ->
      let native = Native.create img in
      let nr = Native.run native in
      let e = Caa.create img Caa.tool_none in
      Alcotest.(check string) (name ^ ": exit") (exit_string nr)
        (exit_string (Caa.run e));
      Alcotest.(check string) (name ^ ": stdout")
        (Native.stdout_contents native)
        (Native.stdout_contents e.native))
    [
      ("loop", Minicc.Driver.compile simple_src);
      ("signal", Guest.Asm.assemble Fuzz.Clients.signal_src);
      ("thread return", Guest.Asm.assemble thread_return_src);
      ("jump out", Guest.Asm.assemble "_start: jmp 0xDEAD0000\n");
    ]

let test_icount () =
  let img = Minicc.Driver.compile simple_src in
  let tool, counter = Caa.tool_icount () in
  let e = Caa.create img tool in
  (match Caa.run e with Native.Exited 0 -> () | _ -> Alcotest.fail "run failed");
  Alcotest.(check bool) "counted every instruction" true
    (!counter = Native.total_insns e.native)

let test_memtrace_counts_match_lackey () =
  let img = Minicc.Driver.compile simple_src in
  let tool, loads, stores = Caa.tool_memtrace () in
  let e = Caa.create img tool in
  (match Caa.run e with Native.Exited 0 -> () | _ -> Alcotest.fail "run failed");
  (* the same program under Valgrind's Lackey counts IR-level accesses;
     the counts are the same accesses *)
  let lackey = ref None in
  let tool = Tools.Lackey.with_state (fun st -> lackey := Some st) in
  let s = Vg_core.Session.create ~tool img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited 0 -> ()
  | _ -> Alcotest.fail "lackey run failed");
  match !lackey with
  | None -> Alcotest.fail "no lackey state"
  | Some st ->
      Alcotest.(check int64) "loads agree" st.n_loads !loads;
      Alcotest.(check int64) "stores agree" st.n_stores !stores

let test_overheads_ordered () =
  let img = Minicc.Driver.compile simple_src in
  let native = Native.create img in
  (match Native.run native with Native.Exited 0 -> () | _ -> assert false);
  let nat = Int64.to_float (Native.total_cycles native) in
  let cycles tool =
    let e = Caa.create (Minicc.Driver.compile simple_src) tool in
    (match Caa.run e with Native.Exited 0 -> () | _ -> assert false);
    Int64.to_float (Caa.total_cycles e)
  in
  let none = cycles Caa.tool_none in
  let icount = cycles (fst (Caa.tool_icount ())) in
  let taint = cycles (Caa.tool_taint ()) in
  Alcotest.(check bool) "none cheap" true (none < nat *. 2.0);
  Alcotest.(check bool) "icount > none" true (icount > none);
  Alcotest.(check bool) "taint > icount" true (taint > icount)

let test_memcheck_class_refused () =
  let img = Minicc.Driver.compile simple_src in
  match Caa.create img Caa.tool_memcheck_like with
  | exception Caa.Unsupported _ -> ()
  | _ -> Alcotest.fail "C&A framework accepted a full-shadow tool"

let test_inline_fp_analysis_refused () =
  (* a tool that tries to attach inline analysis to FP instructions gets
     rejected the first time such an instruction is met *)
  let fp_src = {| int main() { double x; x = 1.5 * 2.0; return (int)x * 0; } |} in
  let img = Minicc.Driver.compile fp_src in
  let bad_tool : Caa.tool =
    {
      t_name = "bad-inline-fp";
      t_instrument =
        (fun _info ->
          [ { Caa.an_fn = (fun _ -> ()); an_inline = true; an_cost = 1 } ]);
      t_wants_shadow_v128 = false;
      t_fini = None;
    }
  in
  let e = Caa.create img bad_tool in
  match Caa.run e with
  | exception Caa.Unsupported _ -> ()
  | _ -> Alcotest.fail "inline FP analysis not rejected"

let tests =
  [
    t "transparency" test_transparency;
    t "icount exact" test_icount;
    t "memtrace agrees with lackey" test_memtrace_counts_match_lackey;
    t "overhead ordering" test_overheads_ordered;
    t "memcheck-class tool refused" test_memcheck_class_refused;
    t "inline FP analysis refused" test_inline_fp_analysis_refused;
  ]
