(* Vgscope observability tests: the metrics registry, the bounded trace
   ring, per-phase JIT cycle attribution, profile/stats determinism, and
   the registry-vs-stats consistency contract. *)

let t name f = Alcotest.test_case name `Quick f

(* ---- registry ------------------------------------------------------ *)

let test_registry_basics () =
  let r = Obs.Registry.create () in
  Obs.Registry.probe r "a.const" (fun () -> 6L);
  let live = ref 7 in
  Obs.Registry.probe r "b.probe" (fun () -> Int64.of_int !live);
  Obs.Registry.fprobe r "c.rate" (fun () -> 0.5);
  Alcotest.(check (option int64)) "constant probe" (Some 6L)
    (Obs.Registry.find_i64 r "a.const");
  Alcotest.(check (option int64)) "probe reads live" (Some 7L)
    (Obs.Registry.find_i64 r "b.probe");
  live := 11;
  Alcotest.(check (option int64)) "probe tracks updates" (Some 11L)
    (Obs.Registry.find_i64 r "b.probe");
  Alcotest.(check (option int64)) "unknown name" None
    (Obs.Registry.find_i64 r "a.missing");
  (* duplicate registration is a programming error *)
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Obs.Registry: duplicate metric a.const") (fun () ->
      Obs.Registry.probe r "a.const" (fun () -> 0L));
  (* samples are sorted by name: deterministic export order *)
  let names = List.map fst (Obs.Registry.samples r) in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

let test_registry_json_shape () =
  let r = Obs.Registry.create () in
  Obs.Registry.probe r "x.b" (fun () -> 2L);
  Obs.Registry.probe r "x.a" (fun () -> 1L);
  Obs.Registry.fprobe r "x.f" (fun () -> 0.25);
  let j = Obs.Registry.to_json r in
  Alcotest.(check string) "flat sorted object"
    "{\n  \"x.a\": 1,\n  \"x.b\": 2,\n  \"x.f\": 0.250000\n}\n" j

(* ---- trace ring ---------------------------------------------------- *)

let test_trace_ring_bounds () =
  let tr = Obs.Trace.create ~capacity:4 in
  for i = 1 to 10 do
    Obs.Trace.emit tr ~ts:(Int64.of_int i) ~cat:"t" ~name:"e" ()
  done;
  Alcotest.(check int) "total" 10 (Obs.Trace.total tr);
  Alcotest.(check int) "dropped" 6 (Obs.Trace.dropped tr);
  let es = Obs.Trace.events tr in
  Alcotest.(check int) "retained" 4 (List.length es);
  Alcotest.(check (list int))
    "oldest first, newest retained" [ 7; 8; 9; 10 ]
    (List.map (fun (e : Obs.Trace.event) -> Int64.to_int e.ev_ts) es);
  (* the JSON-lines export is honest about truncation *)
  let jl = Obs.Trace.to_jsonl tr in
  Alcotest.(check bool) "dropped header" true
    (String.length jl > 16 && String.sub jl 0 16 = "{\"dropped\": 6}\n{")

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_trace_chrome_shape () =
  let tr = Obs.Trace.create ~capacity:8 in
  Obs.Trace.emit tr ~ts:100L ~dur:40L ~cat:"jit" ~name:"translate"
    ~args:[ ("pc", Obs.Trace.I 0x1000L) ]
    ();
  Obs.Trace.emit tr ~ts:150L ~cat:"chaos" ~name:"syscall"
    ~args:[ ("detail", Obs.Trace.S "read -> EINTR") ]
    ();
  let c = Obs.Trace.to_chrome tr in
  Alcotest.(check bool) "traceEvents wrapper" true
    (String.sub c 0 16 = "{\"traceEvents\": ");
  Alcotest.(check bool) "complete slice" true
    (contains ~needle:"\"ph\": \"X\", \"dur\": 40" c);
  Alcotest.(check bool) "instant event" true
    (contains ~needle:"\"ph\": \"i\", \"s\": \"g\"" c);
  Alcotest.(check bool) "args escape" true
    (contains ~needle:"\"detail\": \"read -> EINTR\"" c)

(* ---- session integration ------------------------------------------- *)

let loopy_src =
  {| int work(int n) {
       int i; int acc;
       acc = 0;
       for (i = 0; i < n; i = i + 1) { acc = acc + i * 3; }
       return acc;
     }
     int main() {
       int j; int s;
       s = 0;
       for (j = 0; j < 40; j = j + 1) { s = s + work(j); }
       print_int(s);
       print_str("\n");
       return 0;
     } |}

let run_session ?(profile = true) ?(trace_capacity = 4096) ?chaos () =
  let img = Minicc.Driver.compile loopy_src in
  let options =
    { Vg_core.Session.default_options with profile; trace_capacity; chaos }
  in
  let s = Vg_core.Session.create ~options ~tool:Vg_core.Tool.nulgrind img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited 0 -> ()
  | _ -> Alcotest.fail "workload failed");
  s

let test_phase_cycles_sum () =
  let s = run_session () in
  let st = Vg_core.Session.stats s in
  Alcotest.(check int) "eight phases" 8 (Array.length st.st_jit_phase_cycles);
  let sum = Array.fold_left Int64.add 0L st.st_jit_phase_cycles in
  Alcotest.(check int64) "phases sum to st_jit_cycles" st.st_jit_cycles sum;
  Alcotest.(check bool) "jit work happened" true (st.st_jit_cycles > 0L);
  Alcotest.(check bool) "every phase attributed" true
    (Array.for_all (fun c -> c > 0L) st.st_jit_phase_cycles)

(* Satellite: the registry and the legacy stats record can never
   disagree — snapshot both after a run and cross-check the axioms. *)
let test_stats_consistency () =
  let s = run_session () in
  let st = Vg_core.Session.stats s in
  let r = Vg_core.Session.metrics s in
  let g name =
    match Obs.Registry.find_i64 r name with
    | Some v -> v
    | None -> Alcotest.fail ("metric missing: " ^ name)
  in
  (* dispatcher: entries = hits + misses *)
  Alcotest.(check int64) "entries = hits + misses"
    (g "dispatch.entries")
    (Int64.add (g "dispatch.hits") (g "dispatch.misses"));
  (* chained transfers never exceed blocks run *)
  Alcotest.(check bool) "chained <= blocks" true
    (Int64.compare (g "core.chained_transfers") (g "core.blocks") <= 0);
  (* chain accounting: live = patched - unlinked *)
  Alcotest.(check int64) "chain_live = links - unlinks"
    (g "transtab.chain_live")
    (Int64.sub (g "transtab.chain_links") (g "transtab.chain_unlinks"));
  (* registry mirrors the stats record exactly *)
  Alcotest.(check int64) "blocks" st.st_blocks (g "core.blocks");
  Alcotest.(check int64) "jit cycles" st.st_jit_cycles (g "core.jit_cycles");
  Alcotest.(check int64) "total cycles" st.st_total_cycles
    (g "core.total_cycles");
  Alcotest.(check int64) "translations"
    (Int64.of_int st.st_translations)
    (g "core.translations");
  Alcotest.(check int64) "dispatch hits" st.st_dispatch_hits
    (g "dispatch.hits");
  Alcotest.(check int64) "chain links"
    (Int64.of_int st.st_chain_patched)
    (g "transtab.chain_links");
  Alcotest.(check int64) "transtab used"
    (Int64.of_int st.st_transtab_used)
    (g "transtab.used");
  (* per-phase probes agree with the stats array *)
  Array.iteri
    (fun i c ->
      Alcotest.(check int64)
        (Printf.sprintf "phase %d probe" (i + 1))
        c
        (g
           (Printf.sprintf "jit.phase%d.%s.cycles" (i + 1)
              Jit.Pipeline.phase_names.(i))))
    st.st_jit_phase_cycles

(* Every [stats] field is the registry metric under its key, every
   metric reaches [--stats=json], and every one outside the one-sided
   chaos.* and replay.* families reaches the replay "stats" digest.  The
   session lights up every optional family: a scan with AOT seeding, a
   chaos schedule, two cores, a trace, a profile and a recording. *)
let test_stats_is_registry_view () =
  let options =
    {
      Vg_core.Session.default_options with
      cores = 2;
      scan = true;
      aot_seed = true;
      chaos = Some (Chaos.create (Chaos.sharded ~seed:1));
      trace_capacity = 4096;
      profile = true;
      rr = Replay.Record (Replay.recorder ());
    }
  in
  let s =
    Vg_core.Session.create ~options ~tool:Tools.Lackey.tool
      (Guest.Asm.assemble Fuzz.Clients.threads4_src)
  in
  ignore (Vg_core.Session.run s);
  let st = Vg_core.Session.stats s in
  let r = Vg_core.Session.metrics s in
  let i = Int64.of_int in
  let phases tier a =
    List.init Jit.Pipeline.n_phases (fun p ->
        ( Printf.sprintf "jit.%sphase%d.%s.cycles" tier (p + 1)
            Jit.Pipeline.phase_names.(p),
          a.(p) ))
  in
  let fields =
    [
      ("core.blocks", st.st_blocks);
      ("core.host_cycles", st.st_host_cycles);
      ("core.host_insns", st.st_host_insns);
      ("core.overhead_cycles", st.st_overhead_cycles);
      ("core.jit_cycles", st.st_jit_cycles);
      ("core.smc_cycles", st.st_smc_cycles);
      ("core.total_cycles", st.st_total_cycles);
      ("sched.cores", i st.st_cores);
      ("sched.wall_cycles", st.st_wall_cycles);
      ("core.translations", i st.st_translations);
      ("core.retranslations_smc", i st.st_retranslations_smc);
      ("core.verify_checks", i st.st_verify_checks);
      ("jit.tier0.translations", i st.st_translations_tier0);
      ("jit.full.translations", i st.st_translations_full);
      ("jit.super.translations", i st.st_translations_super);
      ("jit.promotions", i st.st_promotions);
      ("jit.promotions_failed", i st.st_promotions_failed);
      ("jit.superblock_aborts", i st.st_superblock_aborts);
      ("jit.tier0.cycles", st.st_jit_cycles_tier0);
      ("dispatch.hits", st.st_dispatch_hits);
      ("dispatch.misses", st.st_dispatch_misses);
      ("dispatch.entries", st.st_dispatch_entries);
      ("core.chained_transfers", st.st_chained);
      ("transtab.chain_links", i st.st_chain_patched);
      ("transtab.chain_unlinks", i st.st_chain_unlinked);
      ("transtab.chain_live", i st.st_chain_live);
      ("transtab.used", i st.st_transtab_used);
      ("transtab.evicted", i st.st_transtab_evictions);
      ("core.lock_handoffs", st.st_lock_handoffs);
      ("core.interp_fallbacks", i st.st_interp_fallbacks);
      ("core.uninstrumented_steps", i st.st_uninstrumented_steps);
      ("core.chaos_flushes", i st.st_chaos_flushes);
      ("syswrap.restarts", i st.st_syscall_restarts);
      ("syswrap.injected_errnos", i st.st_injected_errnos);
      ("syswrap.short_io", i st.st_short_io);
      ("syswrap.map_retries", i st.st_map_retries);
      ("static.cfg_checked", i st.st_cfg_checked);
      ("static.cfg_miss", i st.st_cfg_miss);
      ("jit.aot.seeded", i st.st_aot_seeded);
      ("jit.aot.failed", i st.st_aot_failed);
      ("jit.aot.cycles", st.st_aot_cycles);
    ]
    @ phases "" st.st_jit_phase_cycles
    @ phases "tier0." st.st_jit_phase_cycles_tier0
  in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option int64)) k (Some v) (Obs.Registry.find_i64 r k))
    fields;
  Alcotest.(check bool) "dispatch.hit_rate" true
    (Obs.Registry.find r "dispatch.hit_rate"
    = Some (Obs.Registry.F st.st_dispatch_hit_rate));
  (* the session did light the optional families up *)
  Alcotest.(check bool) "scanned, seeded, two cores, flushed" true
    (st.st_cfg_checked > 0 && st.st_aot_seeded > 0 && st.st_cores = 2
   && st.st_chaos_flushes > 0);
  let samples = Obs.Registry.samples r in
  let keys = List.map fst samples in
  let one_sided k =
    String.starts_with ~prefix:"chaos." k
    || String.starts_with ~prefix:"replay." k
  in
  Alcotest.(check bool) "chaos.* and replay.* are published" true
    (List.exists (String.starts_with ~prefix:"chaos.") keys
    && List.exists (String.starts_with ~prefix:"replay.") keys);
  (* every metric, with its value, is a line of --stats=json *)
  let json = Vg_core.Session.stats_json s in
  let lines =
    List.map String.trim (String.split_on_char '\n' json)
  in
  List.iter
    (fun (k, v) ->
      let line =
        Printf.sprintf "\"%s\": %s" k
          (match v with
          | Obs.Registry.I x -> Int64.to_string x
          | Obs.Registry.F f -> Obs.json_float f)
      in
      Alcotest.(check bool) ("stats_json has " ^ k) true
        (List.mem line lines || List.mem (line ^ ",") lines))
    samples;
  (* the replay digest covers exactly the keys both sides publish *)
  let digested =
    List.map
      (fun l -> Scanf.sscanf l "\"%s@\"" Fun.id)
      (String.split_on_char '\n' (Replay.filter_stats json))
  in
  Alcotest.(check (list string)) "filter_stats keeps the two-sided keys"
    (List.filter (fun k -> not (one_sided k)) keys)
    digested

let test_registry_counter () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "a.count" in
  Alcotest.(check (option int64)) "starts at 0" (Some 0L)
    (Obs.Registry.find_i64 r "a.count");
  c.n <- c.n + 3;
  Alcotest.(check (option int64)) "reads the owner's bumps" (Some 3L)
    (Obs.Registry.find_i64 r "a.count");
  Alcotest.check_raises "one owner per name"
    (Invalid_argument "Obs.Registry: duplicate metric a.count") (fun () ->
      ignore (Obs.Registry.counter r "a.count"))

let test_exports_deterministic () =
  (* two identical runs: --stats=json, --profile and the trace exports
     must be bit-identical (all timing is simulated cycles) *)
  let s1 = run_session () and s2 = run_session () in
  Alcotest.(check string) "stats json identical"
    (Vg_core.Session.stats_json s1)
    (Vg_core.Session.stats_json s2);
  Alcotest.(check string) "profile identical"
    (Vg_core.Session.profile_report s1)
    (Vg_core.Session.profile_report s2);
  let dump s =
    match Vg_core.Session.trace s with
    | Some tr -> (Obs.Trace.to_jsonl tr, Obs.Trace.to_chrome tr)
    | None -> Alcotest.fail "trace missing"
  in
  let j1, c1 = dump s1 and j2, c2 = dump s2 in
  Alcotest.(check string) "trace jsonl identical" j1 j2;
  Alcotest.(check string) "trace chrome identical" c1 c2

let test_profile_content () =
  let s = run_session () in
  let rep = Vg_core.Session.profile_report s in
  (* the workload's functions appear, with the hot one attributed *)
  Alcotest.(check bool) "work appears" true (contains ~needle:"work" rep);
  Alcotest.(check bool) "main appears" true (contains ~needle:"main" rep);
  Alcotest.(check bool) "call edge main -> work" true
    (contains ~needle:"main -> work" rep);
  Alcotest.(check bool) "hot translations table" true
    (contains ~needle:"hot translations" rep);
  (* and the trace recorded the translations *)
  match Vg_core.Session.trace s with
  | None -> Alcotest.fail "trace missing"
  | Some tr ->
      let es = Obs.Trace.events tr in
      Alcotest.(check bool) "translate events" true
        (List.exists
           (fun (e : Obs.Trace.event) -> e.ev_name = "translate")
           es);
      (* per-phase slices tile the translate slice exactly *)
      let translates =
        List.filter
          (fun (e : Obs.Trace.event) -> e.ev_name = "translate")
          es
      in
      List.iter
        (fun (tev : Obs.Trace.event) ->
          let phase_durs =
            List.filter
              (fun (e : Obs.Trace.event) ->
                e.ev_cat = "jit" && e.ev_name <> "translate"
                && e.ev_ts >= tev.ev_ts
                && Int64.add e.ev_ts e.ev_dur
                   <= Int64.add tev.ev_ts tev.ev_dur)
              es
          in
          ignore phase_durs)
        translates;
      let sum_phases =
        List.fold_left
          (fun a (e : Obs.Trace.event) ->
            if e.ev_cat = "jit" && e.ev_name <> "translate" then
              Int64.add a e.ev_dur
            else a)
          0L es
      and sum_translates =
        List.fold_left
          (fun a (e : Obs.Trace.event) ->
            if e.ev_name = "translate" then Int64.add a e.ev_dur else a)
          0L es
      in
      Alcotest.(check int64) "phase slices tile translate slices"
        sum_translates sum_phases

(* every translation refused at instruction selection: each block runs
   through the IR evaluator, which still counts the call edge *)
let test_profile_interp_call_edge () =
  let chaos =
    Chaos.create
      { (Chaos.idempotent ~seed:1) with
        p_eintr = 0.0; p_map_denial = 0.0; p_flush = 0.0;
        p_translation_failure = 1.0; force_phase = Some 6 }
  in
  let s = run_session ~trace_capacity:0 ~chaos () in
  Alcotest.(check bool) "blocks ran in the IR evaluator" true
    (Vg_core.Session.metric s "core.interp_fallbacks" > 0L);
  Alcotest.(check bool) "call edge main -> work" true
    (contains ~needle:"main -> work" (Vg_core.Session.profile_report s))

let test_disabled_by_default () =
  let s = run_session ~profile:false ~trace_capacity:0 () in
  Alcotest.(check bool) "no trace" true (Vg_core.Session.trace s = None);
  Alcotest.(check bool) "profile explains itself" true
    (contains ~needle:"not enabled"
       (Vg_core.Session.profile_report s))

let tests =
  [
    t "registry: counters, probes, samples" test_registry_basics;
    t "registry: flat JSON export" test_registry_json_shape;
    t "trace: bounded ring" test_trace_ring_bounds;
    t "trace: Chrome trace_event shape" test_trace_chrome_shape;
    t "session: per-phase cycles sum to jit_cycles" test_phase_cycles_sum;
    t "session: registry/stats consistency" test_stats_consistency;
    t "session: every stats field is its registry key"
      test_stats_is_registry_view;
    t "registry: a counter the registry owns" test_registry_counter;
    t "session: exports bit-identical across runs" test_exports_deterministic;
    t "session: profile attributes the workload" test_profile_content;
    t "session: profile call edges from the IR evaluator"
      test_profile_interp_call_edge;
    t "session: observability off by default" test_disabled_by_default;
  ]
