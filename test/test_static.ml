(* Vgscan static analysis: the block-decoding iterator, whole-image CFG
   recovery, hostile-code lints, the soundness oracle and AOT seeding.

   The hostile fixtures assert both directions of the contract: the
   scanner flags the hostile construct, and — where the fixture is
   runnable — execution through the native engine and through the full
   session (JIT + verify, with the reference interpreter backing the
   per-translation checks) agrees on the exit code, proving the scanner
   lints code the executors accept. *)

let t name f = Alcotest.test_case name `Quick f

(* ---- Decode.iter_block / Truncated_at ----------------------------- *)

(* a fetch over a fixed byte string; anything outside faults *)
let fetch_of (bytes : string) (base : int64) : Guest.Decode.fetch =
 fun a ->
  let off = Int64.to_int (Int64.sub a base) in
  if off >= 0 && off < String.length bytes then Char.code bytes.[off]
  else raise Guest.Decode.Truncated

let test_truncated_exact () =
  (* movi needs 6 bytes; give it 3.  The faulting byte is base+3. *)
  let f = fetch_of "\x02\x01\x2a" 0x1000L in
  (match Guest.Decode.decode_exact f 0x1000L with
  | exception Guest.Decode.Truncated_at a ->
      Alcotest.(check int64) "fault offset" 0x1003L a
  | _ -> Alcotest.fail "expected Truncated_at");
  (* iter_block: one complete nop, then the partial movi.  The returned
     pc is the partial instruction's start, the stop carries the exact
     faulting byte. *)
  let f = fetch_of "\x00\x02\x01\x2a" 0x1000L in
  let seen = ref [] in
  let after, stop =
    Guest.Decode.iter_block f 0x1000L (fun a _ len -> seen := (a, len) :: !seen)
  in
  Alcotest.(check (list (pair int64 int))) "one nop" [ (0x1000L, 1) ] !seen;
  Alcotest.(check int64) "partial start" 0x1001L after;
  match stop with
  | Guest.Decode.S_truncated fa ->
      Alcotest.(check int64) "faulting byte" 0x1004L fa
  | _ -> Alcotest.fail "expected S_truncated"

let test_iter_block_stops () =
  (* control stop: jmp ends the run *)
  let jmp = "\x00\x39\x10\x20\x00\x00" (* nop; jmp 0x2010 *) in
  let f = fetch_of jmp 0x1000L in
  let after, stop = Guest.Decode.iter_block f 0x1000L (fun _ _ _ -> ()) in
  Alcotest.(check int64) "after jmp" 0x1006L after;
  (match stop with
  | Guest.Decode.S_control (Guest.Decode.C_jump t) ->
      Alcotest.(check int64) "jmp target" 0x2010L t
  | _ -> Alcotest.fail "expected C_jump stop");
  (* limit stop *)
  let f = fetch_of (String.make 16 '\x00') 0x1000L in
  let _, stop = Guest.Decode.iter_block ~limit:4 f 0x1000L (fun _ _ _ -> ()) in
  (match stop with
  | Guest.Decode.S_limit -> ()
  | _ -> Alcotest.fail "expected S_limit");
  (* stop_before: the run halts at a known address without decoding it *)
  let f = fetch_of (String.make 16 '\x00') 0x1000L in
  let n = ref 0 in
  let after, stop =
    Guest.Decode.iter_block
      ~stop_before:(fun a -> a = 0x1002L)
      f 0x1000L
      (fun _ _ _ -> incr n)
  in
  Alcotest.(check int) "decoded before stop" 2 !n;
  Alcotest.(check int64) "stopped at" 0x1002L after;
  match stop with
  | Guest.Decode.S_known -> ()
  | _ -> Alcotest.fail "expected S_known"

(* ---- hostile corpus ------------------------------------------------ *)

(* every guest of the corpus raises each class it is built to show *)
let test_hostile_findings () =
  List.iter
    (fun (g : Static.Hostile.guest) ->
      let classes =
        Static.Lint.classes_of (Static.Lint.run (Static.Cfg.scan g.h_image))
      in
      List.iter
        (fun want ->
          if not (List.mem want classes) then
            Alcotest.failf "%s: expected class %s, got [%s]" g.h_name want
              (String.concat "," classes))
        g.h_classes)
    (Static.Hostile.all ())

let test_jump_table_recovery () =
  let g =
    List.find
      (fun (g : Static.Hostile.guest) -> g.h_name = "jump-table")
      (Static.Hostile.all ())
  in
  let cfg = Static.Cfg.scan g.h_image in
  match cfg.Static.Cfg.tables with
  | [ tb ] ->
      Alcotest.(check bool) "bounded" true tb.Static.Cfg.tb_bounded;
      Alcotest.(check int) "entries" 4
        (List.length tb.Static.Cfg.tb_entries);
      (* every entry became a real block *)
      let starts = Static.Cfg.block_starts cfg in
      List.iter
        (fun e ->
          Alcotest.(check bool) "entry is a block" true (List.mem e starts))
        tb.Static.Cfg.tb_entries
  | l -> Alcotest.failf "expected 1 table, got %d" (List.length l)

(* ---- benign corpus ------------------------------------------------- *)

let test_scan_deterministic () =
  let img =
    Workloads.compile ~scale:1 (Option.get (Workloads.find "gzip"))
  in
  let report i =
    let cfg = Static.Cfg.scan i in
    Static.Report.to_json ~blocks:true cfg (Static.Lint.run cfg)
  in
  Alcotest.(check string) "bit-identical" (report img) (report img)

let test_benign_no_findings () =
  let img =
    Workloads.compile ~scale:1 (Option.get (Workloads.find "mcf"))
  in
  let findings = Static.Lint.run (Static.Cfg.scan img) in
  Alcotest.(check int) "no findings" 0 (List.length findings)

(* ---- soundness oracle + AOT seeding -------------------------------- *)

let run_workload ~scan ~aot_seed name =
  let img = Workloads.compile ~scale:1 (Option.get (Workloads.find name)) in
  let options =
    {
      Vg_core.Session.default_options with
      max_blocks = 20_000L;
      scan;
      aot_seed;
    }
  in
  let s = Vg_core.Session.create ~options ~tool:Vg_core.Tool.nulgrind img in
  let (_ : Vg_core.Session.exit_reason) = Vg_core.Session.run s in
  (Vg_core.Session.stats s, Vg_core.Session.client_stdout s)

let test_oracle_and_aot () =
  let st, out = run_workload ~scan:true ~aot_seed:true "mcf" in
  let st0, out0 = run_workload ~scan:false ~aot_seed:false "mcf" in
  Alcotest.(check int) "cfg_miss" 0 st.st_cfg_miss;
  Alcotest.(check bool) "oracle ran" true (st.st_cfg_checked > 0);
  Alcotest.(check bool) "seeded blocks" true (st.st_aot_seeded > 0);
  Alcotest.(check int) "no seed failures" 0 st.st_aot_failed;
  Alcotest.(check string) "output transparent" out0 out;
  (* the AOT win: runtime JIT cycles (total minus the seeding share)
     land strictly below the unseeded run's JIT cycles *)
  let runtime = Int64.sub st.st_jit_cycles st.st_aot_cycles in
  if Int64.compare runtime st0.st_jit_cycles >= 0 then
    Alcotest.failf "no AOT win: runtime %Ld vs unseeded %Ld" runtime
      st0.st_jit_cycles

let test_scan_only_session () =
  (* --scan without seeding: oracle runs, nothing is pre-translated *)
  let st, _ = run_workload ~scan:true ~aot_seed:false "gzip" in
  Alcotest.(check int) "cfg_miss" 0 st.st_cfg_miss;
  Alcotest.(check int) "nothing seeded" 0 st.st_aot_seeded;
  Alcotest.(check bool) "oracle ran" true (st.st_cfg_checked > 0)

let tests =
  [
    t "decode: truncated exact offset" test_truncated_exact;
    t "decode: iter_block stop reasons" test_iter_block_stops;
    t "hostile: expected finding classes" test_hostile_findings;
    t "hostile: bounded jump-table recovery" test_jump_table_recovery;
    t "benign: deterministic report" test_scan_deterministic;
    t "benign: zero findings" test_benign_no_findings;
    t "session: oracle + AOT seeding win" test_oracle_and_aot;
    t "session: scan-only oracle" test_scan_only_session;
  ]
