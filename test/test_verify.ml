(* Vglint verifier tests: the dataflow engine, the mutation-catch suite
   (every seeded miscompile caught at its earliest phase boundary), and
   zero false positives over a tool corpus. *)

open Vex_ir.Ir
module DF = Verify.Dataflow

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Dataflow engine                                                      *)
(* ------------------------------------------------------------------ *)

(* t0 = GET(r0); t1 = t0+1; PUT(r1) = t1; next = t0 *)
let small_block () =
  let b = new_block () in
  let t0 = new_tmp b I32 in
  let t1 = new_tmp b I32 in
  add_stmt b (WrTmp (t0, Get (0, I32)));
  add_stmt b (WrTmp (t1, Binop (Add32, RdTmp t0, i32 1L)));
  add_stmt b (Put (4, RdTmp t1));
  b.next <- RdTmp t0;
  b

let test_liveness () =
  let b = small_block () in
  let live = DF.liveness b in
  (* before stmt 0 nothing is live (t0 is defined there, and liveness is
     of temporaries, which have no value before their definition) *)
  Alcotest.(check bool) "t0 dead before its def" false
    (DF.ISet.mem 0 live.(0));
  (* between stmt 0 and 1: t0 live (used by stmt 1 and next) *)
  Alcotest.(check bool) "t0 live after def" true (DF.ISet.mem 0 live.(1));
  (* between stmt 1 and 2: t1 live, t0 still live via next *)
  Alcotest.(check bool) "t1 live" true (DF.ISet.mem 1 live.(2));
  Alcotest.(check bool) "t0 live into next" true (DF.ISet.mem 0 live.(3))

let test_def_sites () =
  let b = small_block () in
  let defs = DF.def_sites b in
  Alcotest.(check (option int)) "t0 defined at 0" (Some 0) defs.(0);
  Alcotest.(check (option int)) "t1 defined at 1" (Some 1) defs.(1)

let test_state_rw () =
  let b = small_block () in
  let reads, writes = DF.block_state_rw b in
  Alcotest.(check bool) "reads r0" true (List.mem (0, 4) reads);
  Alcotest.(check bool) "writes r1" true (List.mem (4, 4) writes);
  Alcotest.(check bool) "does not write r0" false (List.mem (0, 4) writes)

let test_range_cover () =
  Alcotest.(check bool) "inside" true
    (DF.covered_by (324, 4) [ (320, 160) ]);
  Alcotest.(check bool) "straddles end" false
    (DF.covered_by (476, 8) [ (320, 160) ]);
  Alcotest.(check bool) "outside" false (DF.covered_by (100, 4) [ (320, 160) ])

(* ------------------------------------------------------------------ *)
(* Mutation suite: seeded miscompiles caught at the right boundary      *)
(* ------------------------------------------------------------------ *)

let outcomes = lazy (Verify.Mutate.run ())

let test_mutations_all_caught () =
  let os = Lazy.force outcomes in
  Alcotest.(check bool)
    "at least 10 seeded mutations" true
    (List.length os >= 10);
  List.iter
    (fun (o : Verify.Mutate.outcome) ->
      if not o.o_caught then
        Alcotest.failf "mutation %s: expected a %s failure, got %s" o.o_name
          o.o_expect
          (match o.o_phase with
          | Some p -> p ^ ": " ^ o.o_msg
          | None -> o.o_msg))
    os

let test_mutations_cover_all_phases () =
  (* the suite must exercise every boundary from flat IR to bytes *)
  let os = Lazy.force outcomes in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "some mutation caught at %s" phase)
        true
        (List.exists
           (fun (o : Verify.Mutate.outcome) -> o.o_expect = phase)
           os))
    [ "phase 2"; "phase 3"; "phase 4"; "phase 5"; "phase 6"; "phase 7";
      "phase 8" ]

(* ------------------------------------------------------------------ *)
(* Zero false positives over a tool corpus                              *)
(* ------------------------------------------------------------------ *)

let test_corpus_clean () =
  (* verify_jit is on by default: a verifier false positive on any tool
     raises out of Session.run and fails this test *)
  let w = Option.get (Workloads.find "gcc") in
  let img = Workloads.compile ~scale:1 w in
  List.iter
    (fun (name, tool) ->
      let options =
        { Vg_core.Session.default_options with max_blocks = 20_000L }
      in
      let s = Vg_core.Session.create ~options ~tool img in
      (try ignore (Vg_core.Session.run s)
       with Verify.Verr.Error _ as e ->
         Alcotest.failf "false positive under %s: %s" name
           (Verify.Verr.to_string e));
      let st = Vg_core.Session.stats s in
      Alcotest.(check bool)
        (name ^ " ran boundary checks")
        true
        (st.st_verify_checks >= 8 * st.st_translations))
    Tools.Catalog.all

let test_verify_off_runs_no_checks () =
  let w = Option.get (Workloads.find "mcf") in
  let img = Workloads.compile ~scale:1 w in
  let options =
    {
      Vg_core.Session.default_options with
      verify_jit = false;
      max_blocks = 5_000L;
    }
  in
  let s =
    Vg_core.Session.create ~options ~tool:Vg_core.Tool.nulgrind img
  in
  ignore (Vg_core.Session.run s);
  let st = Vg_core.Session.stats s in
  Alcotest.(check int) "no checks when disabled" 0 st.st_verify_checks

let tests =
  [
    t "liveness" test_liveness;
    t "def sites" test_def_sites;
    t "guest-state def/use summary" test_state_rw;
    t "shadow-range cover" test_range_cover;
    t "seeded mutations all caught" test_mutations_all_caught;
    t "mutations cover phases 2-8" test_mutations_cover_all_phases;
    Alcotest.test_case "tool corpus has zero false positives" `Slow
      test_corpus_clean;
    t "verify_jit=false runs no checks" test_verify_off_runs_no_checks;
  ]
