(* Vgfuzz: the differential fuzzing harness itself — generator
   determinism, replay-exact shrinking, the committed regression corpus,
   faulting-PC attribution down the degradation ladder, and the hostile
   anti-instrumentation suite (execution contract + lint classes). *)

let t name f = Alcotest.test_case name `Quick f

module GA = Guest.Arch

(* ---- generator determinism ---------------------------------------- *)

let test_gen_deterministic () =
  List.iter
    (fun (seed, size, faulty) ->
      let a = Fuzz.Gen.source ~faulty ~seed ~size () in
      let b = Fuzz.Gen.source ~faulty ~seed ~size () in
      Alcotest.(check string)
        (Printf.sprintf "seed=%d size=%d regenerates identically" seed size)
        a b;
      (* and it assembles *)
      ignore (Guest.Asm.assemble a))
    [ (1, 1, false); (7, 12, false); (1000032, 4, true); (99, 20, true) ]

(* plain substring search (avoid extra deps) *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- shrinking ------------------------------------------------------ *)

let test_shrink_minimal_deterministic () =
  (* synthetic failure predicate: sizes >= 7 fail.  The upward scan must
     probe exactly 1..7 and stop at the first failing size — which is
     minimal by construction: every smaller size was just observed to
     pass. *)
  let probed = ref [] in
  let check ~seed:_ ~size =
    probed := size :: !probed;
    if size >= 7 then
      [ { Fuzz.Diff.dv_engine = "synthetic"; dv_field = "exit";
          dv_ref = "a"; dv_got = "b" } ]
    else []
  in
  let r = Fuzz.Shrink.shrink ~check ~seed:42 ~size:15 () in
  Alcotest.(check int) "minimal size" 7 r.Fuzz.Shrink.r_size;
  Alcotest.(check int) "original size kept" 15 r.Fuzz.Shrink.r_orig_size;
  Alcotest.(check (list int)) "scan order 1..7" [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.rev !probed);
  (* determinism: the same failure shrinks to the same result *)
  let r2 = Fuzz.Shrink.shrink ~check ~seed:42 ~size:15 () in
  Alcotest.(check int) "same minimal size on rerun" r.Fuzz.Shrink.r_size
    r2.Fuzz.Shrink.r_size;
  (* the rendered repro embeds provenance and the generated program *)
  let src = Fuzz.Shrink.repro_source r in
  Alcotest.(check bool) "repro records seed" true (contains src "seed=42")

let test_repro_source_faulty_exact () =
  (* the rendered repro must embed the *same* program that failed: the
     generator's faulty flag is part of the program identity *)
  let check ~seed:_ ~size:_ =
    [ { Fuzz.Diff.dv_engine = "synthetic"; dv_field = "exit";
        dv_ref = "a"; dv_got = "b" } ]
  in
  let r = Fuzz.Shrink.shrink ~check ~faulty:true ~seed:1000032 ~size:4 () in
  let src = Fuzz.Shrink.repro_source r in
  Alcotest.(check bool) "faulty generator program embedded" true
    (contains src
       (Fuzz.Gen.source ~faulty:true ~seed:1000032 ~size:r.Fuzz.Shrink.r_size
          ()))

(* ---- the committed regression corpus -------------------------------- *)

let corpus_dir =
  (* dune runtest runs in _build/default/test; dune exec from the repo
     root *)
  if Sys.file_exists "fuzz_corpus" then "fuzz_corpus" else "test/fuzz_corpus"

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_corpus_replay () =
  let entries =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".s")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus has at least 5 entries" true
    (List.length entries >= 5);
  List.iter
    (fun f ->
      let img = Guest.Asm.assemble (read_file (Filename.concat corpus_dir f)) in
      match Fuzz.Diff.check img with
      | [] -> ()
      | divs ->
          Alcotest.failf "%s: %s" f
            (String.concat "; " (List.map Fuzz.Diff.pp_divergence divs)))
    entries

(* ---- faulting-PC attribution ---------------------------------------- *)

(* Drive a whole program through Interp.step_external: architectural
   state lives in an external byte buffer (as it does in the session's
   ThreadState), and a mid-run fault must leave eip pinned at the
   faulting instruction — the graceful-degradation contract. *)
let run_step_external (img : Guest.Image.t) :
    [ `Fault of int64 | `Exit ] =
  let mem = Aspace.create () in
  let entry, sp, _brk, _mapped = Guest.Image.load img mem in
  let state = Bytes.make GA.state_size '\000' in
  let get off size =
    let v = ref 0L in
    for i = size - 1 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (Bytes.get state (off + i))))
    done;
    !v
  in
  let put off size v =
    for i = 0 to size - 1 do
      Bytes.set state (off + i)
        (Char.chr
           (Int64.to_int
              (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
    done
  in
  put GA.off_sp 4 sp;
  put (GA.off_reg GA.reg_fp) 4 sp;
  put GA.off_eip 4 entry;
  let result = ref None in
  let steps = ref 0 in
  while !result = None do
    incr steps;
    if !steps > 10_000 then failwith "step_external runaway";
    match Guest.Interp.step_external ~mem ~get ~put with
    | _, Guest.Interp.X_next -> ()
    | _, (Guest.Interp.X_syscall | Guest.Interp.X_clreq) ->
        (* first syscall in these programs is exit *)
        result := Some `Exit
    | exception Aspace.Fault _ ->
        (* nothing written back: eip still names the faulting insn *)
        result := Some (`Fault (get GA.off_eip 4))
  done;
  Option.get !result

let jit_way = Fuzz.Diff.way "jit" (Fuzz.Diff.fuzz_base ())

(* every translation refused: the whole program runs through the
   graceful-degradation IR evaluator *)
let refuse_all =
  { (Chaos.idempotent ~seed:1) with
    Chaos.p_eintr = 0.0; p_errno = 0.0; p_short = 0.0; p_map_denial = 0.0;
    p_flush = 0.0; p_translation_failure = 1.0; max_injections = 0 }

let test_fault_attribution_ladder () =
  let src = read_file (Filename.concat corpus_dir "fault_attribution.s") in
  let img () = Guest.Asm.assemble src in
  (* native reference *)
  let nat = Fuzz.Diff.run_native (img ()) in
  (match nat.Fuzz.Diff.o_exit with
  | Fuzz.Diff.Signal 11 -> ()
  | k -> Alcotest.failf "native: expected SIGSEGV, got %s"
           (Fuzz.Diff.exit_kind_str k));
  let fault_pc = nat.Fuzz.Diff.o_eip in
  (* JIT path *)
  let jit = Fuzz.Diff.run jit_way Fuzz.Diff.witness (img ()) in
  Alcotest.(check int64) "jit faulting pc" fault_pc jit.Fuzz.Diff.o_eip;
  (* forced interp-fallback (every translation refused) *)
  let deg =
    Fuzz.Diff.run
      (Fuzz.Diff.way "degrade" ~chaos:refuse_all (Fuzz.Diff.fuzz_base ()))
      Fuzz.Diff.witness (img ())
  in
  Alcotest.(check int64) "degraded faulting pc" fault_pc
    deg.Fuzz.Diff.o_eip;
  (match deg.Fuzz.Diff.o_exit with
  | Fuzz.Diff.Signal 11 -> ()
  | k -> Alcotest.failf "degrade: expected SIGSEGV, got %s"
           (Fuzz.Diff.exit_kind_str k));
  (* bare step_external *)
  match run_step_external (img ()) with
  | `Fault pc -> Alcotest.(check int64) "step_external faulting pc" fault_pc pc
  | `Exit -> Alcotest.fail "step_external: expected a fault"

(* the dead-load regression specifically: the minimized fuzzer repro must
   deliver the same signal at the same pc under JIT as natively *)
let test_dead_load_fault_survives_dce () =
  let img () =
    Guest.Asm.assemble
      (read_file (Filename.concat corpus_dir "deadload_sigsegv_1.s"))
  in
  let nat = Fuzz.Diff.run_native (img ()) in
  let jit = Fuzz.Diff.run jit_way Fuzz.Diff.witness (img ()) in
  Alcotest.(check string) "exit kind"
    (Fuzz.Diff.exit_kind_str nat.Fuzz.Diff.o_exit)
    (Fuzz.Diff.exit_kind_str jit.Fuzz.Diff.o_exit);
  Alcotest.(check int64) "faulting pc" nat.Fuzz.Diff.o_eip
    jit.Fuzz.Diff.o_eip

(* ---- hostile suite --------------------------------------------------- *)

(* the hostile set under three tools: native and session exits as
   expected, bit-identical reruns, results kept under an idempotent
   schedule, and no static-CFG miss in a scanning session *)
let test_hostile_execution_contract () =
  List.iter
    (fun (c : Fuzz.Diff.cells) ->
      let c = { c with tools = Tools.Catalog.pick [ "nulgrind"; "memcheck"; "lackey" ] } in
      List.iter
        (fun (it : Fuzz.Diff.item) ->
          List.iter
            (fun tool ->
              match Fuzz.Diff.run_cell c it tool with
              | [] -> ()
              | divs ->
                  Alcotest.failf "%s under %s: %s" it.i_name (fst tool)
                    (String.concat "; " (List.map Fuzz.Diff.pp_divergence divs)))
            c.tools)
        c.items)
    (Fuzz.Diff.hostile ())

let test_crash_context_on_refused_translation () =
  (* a tool whose instrumentation raises refuses every translation with
     an error no recovery path catches, so the session cannot make
     progress.  The escaping error must leave a post-mortem crash
     context on the tool output stream. *)
  let img =
    Guest.Asm.assemble
      (read_file (Filename.concat corpus_dir "overlap_decode.s"))
  in
  let exception Refused in
  let witness = Fuzz.Diff.witness in
  let tool =
    { witness with
      create =
        (fun caps ->
          { (witness.create caps) with instrument = (fun _ -> raise Refused) })
    }
  in
  let options = { Vg_core.Session.default_options with verify_jit = false } in
  let s = Vg_core.Session.create ~options ~tool img in
  (match Vg_core.Session.run s with
  | _ -> Alcotest.fail "expected the refused translation to escape"
  | exception _ -> ());
  let out = Vg_core.Session.tool_output s in
  Alcotest.(check bool) "crash context rendered" true
    (contains out "FATAL: unrecoverable error")

(* ---- the oracle itself ---------------------------------------------- *)

let clean : Fuzz.Diff.outcome =
  {
    (Fuzz.Diff.blank "base") with
    o_regs = Array.init GA.n_regs (fun r -> Int64.of_int (r + 1));
    o_eip = 0x1000L;
    o_flags = 0x4L;
    o_mem = 0xabcL;
    o_stdout = "hi\n";
    o_icnt = Some 100L;
    o_tool = "==t== 1\n";
    o_stats =
      [ ("core.blocks", Obs.Registry.I 10L); ("jit.aot.seeded", I 3L);
        ("static.cfg_checked", I 5L); ("static.cfg_miss", I 0L) ];
    o_faults = [ "fault 1" ];
  }

let set_stat k v (o : Fuzz.Diff.outcome) =
  { o with o_stats = List.map (fun (k', x) -> (k', if k = k' then Obs.Registry.I v else x)) o.o_stats }

(* one field changed at a time *)
let mutations : (string * (Fuzz.Diff.outcome -> Fuzz.Diff.outcome)) list =
  [
    ("exit", fun o -> { o with o_exit = Fuzz.Diff.Exit 1 });
    ("regs", fun o -> { o with o_regs = Array.mapi (fun i r -> if i = 3 then Int64.succ r else r) o.o_regs });
    ("eip", fun o -> { o with o_eip = 0x1004L });
    ("flags", fun o -> { o with o_flags = 0x5L });
    ("mem", fun o -> { o with o_mem = 0xabdL });
    ("stdout", fun o -> { o with o_stdout = "ho\n" });
    ("icnt", fun o -> { o with o_icnt = Some 101L });
    ("tool", fun o -> { o with o_tool = "==t== 2\n" });
    ("stats", set_stat "core.blocks" 11L);
    ("stats.cfg_miss", set_stat "static.cfg_miss" 1L);
    ("stats.aot", set_stat "jit.aot.seeded" 0L);
    ("faults", fun o -> { o with o_faults = [ "fault 1"; "fault 2" ] });
    ("replay", fun o -> { o with o_replay = [ ("stdout", "a", "b") ] });
    ("raised", fun o -> { o with o_raised = Some "boom" });
  ]

(* what each relation must flag — written out here, not read back from
   the oracle, so a comparator that agrees with everything fails *)
let covers : (string * Fuzz.Diff.relation * string list) list =
  let arch = [ "exit"; "regs"; "eip"; "flags"; "mem"; "stdout"; "icnt" ] in
  [
    ("native", Native, arch);
    ("output", Output, [ "exit"; "stdout"; "tool" ]);
    ("result", Result, [ "exit"; "stdout" ]);
    ("rerun", Rerun, arch @ [ "tool"; "stats"; "stats.cfg_miss"; "stats.aot"; "faults" ]);
    ("replayed", Replayed, [ "replay" ]);
    ("cfg-sound", Cfg_sound, [ "stats.cfg_miss" ]);
    ("aot-sound", Aot_sound, [ "stats.cfg_miss"; "stats.aot" ]);
  ]

let test_comparator_fields () =
  List.iter
    (fun (name, rel, fields) ->
      Alcotest.(check int) (name ^ ": identical outcomes agree") 0
        (List.length (Fuzz.Diff.compare rel ~base:clean clean));
      List.iter
        (fun (field, mutate) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s flags a change of %s" name field)
            (List.mem field fields)
            (Fuzz.Diff.compare rel ~base:clean (mutate clean) <> []))
        mutations)
    covers;
  (* at a fatal signal only eip/sp/fp are precise against native *)
  let at_fault = { clean with o_exit = Fuzz.Diff.Signal 11 } in
  let with_reg r o = { o with Fuzz.Diff.o_regs = Array.mapi (fun i x -> if i = r then Int64.succ x else x) o.Fuzz.Diff.o_regs } in
  Alcotest.(check int) "scratch register stale at a fault" 0
    (List.length (Fuzz.Diff.compare Native ~base:at_fault (with_reg 3 at_fault)));
  Alcotest.(check bool) "sp must be precise at a fault" true
    (Fuzz.Diff.compare Native ~base:at_fault (with_reg GA.reg_sp at_fault) <> []);
  (* the memory hash sees a one-byte change anywhere in data+bss,
     including the tail of an odd-sized segment *)
  let img = Guest.Asm.assemble "_start: movi r0, 1\n syscall\n .data\nbuf: .space 37\n" in
  let mem = Aspace.create () in
  ignore (Guest.Image.load img mem);
  let h0 = Fuzz.Diff.hash_mem mem img in
  List.iter
    (fun off ->
      Aspace.write mem (Int64.add img.Guest.Image.data_addr (Int64.of_int off)) 1 1L;
      Alcotest.(check bool)
        (Printf.sprintf "memhash sees byte %d" off)
        true
        (Fuzz.Diff.hash_mem mem img <> h0);
      Aspace.write mem (Int64.add img.Guest.Image.data_addr (Int64.of_int off)) 1 0L)
    [ 0; 9; 36 ];
    (* every run must not raise, and must reach an item's fixed exit *)
  let it = Fuzz.Diff.item ~exit:0 "x" (fun () -> assert false) in
  Alcotest.(check int) "clean run is sane" 0 (List.length (Fuzz.Diff.sane it clean));
  List.iter
    (fun (field, mutate) ->
      Alcotest.(check bool) ("sane flags " ^ field)
        (List.mem field [ "exit"; "raised" ])
        (Fuzz.Diff.sane it (mutate clean) <> []))
    mutations

(* Every set, once, on its smallest corpus item under its first tool. *)
let test_every_set_smallest_cell () =
  let size (it : Fuzz.Diff.item) =
    let img = it.i_image () in
    Bytes.length img.Guest.Image.text + Bytes.length img.Guest.Image.data
  in
  List.iter
    (fun (set, cells) ->
      List.iter
        (fun (c : Fuzz.Diff.cells) ->
          let it =
            List.fold_left
              (fun best it -> if size it < size best then it else best)
              (List.hd c.items) c.items
          in
          let tool = List.hd c.tools in
          match Fuzz.Diff.run_cell c it tool with
          | [] -> ()
          | divs ->
              Alcotest.failf "%s %s %s: %s" set it.i_name (fst tool)
                (String.concat "; " (List.map Fuzz.Diff.pp_divergence divs)))
        (cells ~seeds:[ 1 ] ~count:1))
    Fuzz.Diff.sets

(* ---- every option reached ------------------------------------------ *)

(* The codec keys that no way of [Fuzz.Diff.sets] moves, each with the
   user that needs it. *)
let option_exemptions =
  [
    ("timeslice", "test_sched's 64-block fairness pins");
    ("fast_cost", "the section 3.9 dispatch experiment, bench/dispatch_bench.ml");
    ("unroll", "the section 3.9 dispatch experiment, bench/dispatch_bench.ml");
  ]

let test_every_option_reached () =
  let module S = Vg_core.Session in
  let d = S.default_options in
  (* every field, named with no [with], so that a new option does not
     compile until it is placed here: at the value the way beside it
     sets, or at its default when it is exempt *)
  let reached : S.options =
    {
      cores = 2 (* c2 *);
      chaining = false (* no-chaining *);
      smc_mode = Smc_all (* smc-all *);
      timeslice_blocks = d.timeslice_blocks (* exempt *);
      transtab_capacity = 8 (* tiny-transtab *);
      dispatch_fast_cost = d.dispatch_fast_cost (* exempt *);
      unroll_loops = d.unroll_loops (* exempt *);
      max_blocks = 2_000_000L (* the fuzz set's fuel *);
      verify_jit = false (* the fuzz set's base *);
      chaos = Some (Chaos.create (Chaos.idempotent ~seed:7)) (* chaos:7 *);
      profile = true (* observed *);
      trace_capacity = 4096 (* observed *);
      tier0 = false (* no-tier0 *);
      promote_threshold = 0 (* tier0-only *);
      trace_threshold = 1 (* hot *);
      scan = true (* aot *);
      aot_seed = true (* aot *);
      rr = Replay.Record (Replay.recorder ()) (* replay *);
    }
  in
  let ways =
    List.concat_map
      (fun (_, cells) ->
        List.concat_map
          (fun (c : Fuzz.Diff.cells) -> c.ways)
          (cells ~seeds:[ 1 ] ~count:1))
      Fuzz.Diff.sets
    |> List.filter (fun (w : Fuzz.Diff.way) -> not w.w_native)
  in
  let codec o =
    List.map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] -> (k, v)
        | _ -> Alcotest.failf "unreadable codec pair %s" kv)
      (String.split_on_char ' ' (S.encode_options o))
  in
  let at k (w : Fuzz.Diff.way) = List.assoc k (codec w.w_options) in
  (* each codec key: moved by a way to the literal's value, or exempt,
     kept at its default and moved by no way *)
  let in_codec =
    List.filter_map
      (fun (k, dv) ->
        let v = List.assoc k (codec reached) in
        let setters = List.filter (fun w -> at k w <> dv) ways in
        match (List.assoc_opt k option_exemptions, setters) with
        | Some _, (w : Fuzz.Diff.way) :: _ ->
            Some (Printf.sprintf "%s: exempt, but way %s sets it" k w.w_name)
        | Some _, [] when v <> dv ->
            Some (Printf.sprintf "%s: exempt, but the literal moves it" k)
        | Some _, [] -> None
        | None, _ when List.exists (fun w -> at k w = v) setters -> None
        | None, _ ->
            Some
              (Printf.sprintf "%s: no way sets %s=%s and no exemption names it"
                 k k v))
      (codec d)
  in
  let stale =
    List.filter_map
      (fun (k, _) ->
        if List.mem_assoc k (codec d) then None
        else Some (k ^ ": exempt, but not a codec key"))
      option_exemptions
  in
  (* the fields outside the codec: the ways' options, chaos and replay *)
  let some p = List.exists p ways in
  let outside =
    List.filter_map
      (fun (field, ok) -> if ok then None else Some (field ^ ": no way sets it"))
      [
        ( "cores",
          reached.cores <> d.cores
          && some (fun w -> w.w_options.cores = reached.cores) );
        ( "profile",
          reached.profile <> d.profile
          && some (fun w -> w.w_options.profile = reached.profile) );
        ( "trace_capacity",
          reached.trace_capacity <> d.trace_capacity
          && some (fun w -> w.w_options.trace_capacity = reached.trace_capacity) );
        ("chaos", reached.chaos <> None && some (fun w -> w.w_chaos <> None));
        ("rr", reached.rr <> Replay.No_rr && some (fun w -> w.w_replay));
      ]
  in
  Alcotest.(check (list string)) "every option reached" []
    (in_codec @ stale @ outside)

let tests =
  [
    t "generator: deterministic regeneration" test_gen_deterministic;
    t "shrink: minimal and deterministic" test_shrink_minimal_deterministic;
    t "shrink: repro embeds the faulty program"
      test_repro_source_faulty_exact;
    t "corpus: replays divergence-free" test_corpus_replay;
    t "fault attribution: native/jit/degrade/step_external"
      test_fault_attribution_ladder;
    t "dead load keeps its fault through DCE"
      test_dead_load_fault_survives_dce;
    t "hostile: execution contract under tools"
      test_hostile_execution_contract;
    t "hostile: crash context on refused translation"
      test_crash_context_on_refused_translation;
    t "oracle: each relation flags exactly its fields" test_comparator_fields;
    t "oracle: every option is set by a way or exempt"
      test_every_option_reached;
    Alcotest.test_case "oracle: every set on its smallest cell" `Slow
      test_every_set_smallest_cell;
  ]
