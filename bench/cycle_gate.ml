(** The simulated-cycle gate: the §3.9 chaining ablation and the
    extensions built on it (tiering and superblocks, AOT seeding, cores,
    record/replay), measured from one run matrix.

    Each suite workload runs once under Nulgrind in each of seven
    configurations: default options, chaining off, tier-0 only, full
    pipeline only, AOT-seeded, recording, and replaying that recording.
    The default run is every family's reference: chaining "on", tiering
    "tiered", AOT "unseeded", replay "plain".  The threads4 workload runs
    at 1, 2 and 4 cores: 31 sessions in all.

    [run] writes the metrics as flat JSON, one ["key": value] per line
    (CI compares the file byte for byte with BENCH_baseline.json), prints
    one table per family and one line per claim, and returns whether
    every claim holds. *)

let suite = [ "mcf"; "swim"; "mgrid"; "gzip" ]

(* ------------------------------------------------------------------ *)
(* The run matrix                                                       *)
(* ------------------------------------------------------------------ *)

(* What the metrics need of one session. *)
type run = { st : Vg_core.Session.stats; out : string }

type runs = {
  plain : run;  (** default options *)
  unchained : run;
  tier0_only : run;
  full : run;
  seeded : run;
  record : run;
  replay : run;
  log_bytes : int;  (** size of the record run's log *)
  events : int;  (** events in that log *)
  digests_ok : bool;  (** every replay digest matched *)
}

let default = Vg_core.Session.default_options

let session options img =
  Harness.run_tool ~options Vg_core.Tool.nulgrind img

let of_result (r : Harness.tool_result) = { st = r.tr_stats; out = r.tr_stdout }

let run_workload (name : string) : runs =
  let img = Workloads.compile (Option.get (Workloads.find name)) in
  let go options = of_result (session options img) in
  let plain = go default in
  let unchained = go { default with chaining = false } in
  let tier0_only = go { default with promote_threshold = 0; trace_threshold = 0 } in
  let full = go { default with tier0 = false; trace_threshold = 0 } in
  let seeded = go { default with scan = true; aot_seed = true } in
  (* recorded at the defaults; the log's size, its "options" meta
     included, is a gated metric *)
  let rec_ = Replay.recorder () in
  let record = go { default with rr = Replay.Record rec_ } in
  let log = Replay.to_string rec_ in
  let replayed =
    Harness.run_session
      (Vg_core.Session.replaying ~tool:Vg_core.Tool.nulgrind img
         (Replay.decode log))
  in
  {
    plain;
    unchained;
    tier0_only;
    full;
    seeded;
    record;
    replay = of_result replayed;
    log_bytes = String.length log;
    events = Replay.n_events rec_;
    digests_ok = Vg_core.Session.replay_mismatches replayed.tr_session = [];
  }

(* ------------------------------------------------------------------ *)
(* Metric families                                                      *)
(* ------------------------------------------------------------------ *)

(* A family's per-workload rows of (suffix, value), keyed
   [prefix ^ workload ^ "." ^ suffix], and the suffixes that also get a
   [total] row. *)
type family = {
  title : string;
  prefix : string;
  totals : string list;
  rows : (string * (string * int64) list) list;
}

let flag b = if b then 1L else 0L

(* Hit rates are integer per mille so the flat int64 JSON carries them. *)
let per_mille (f : float) : int64 = Int64.of_float (f *. 1000.0)

let phase_keys = List.init 8 (fun i -> Printf.sprintf "cycles_jit_p%d" (i + 1))

let chain_row r =
  let on = r.plain.st and off = r.unchained.st in
  [
    ("entries_on", on.st_dispatch_entries);
    ("entries_off", off.st_dispatch_entries);
    ("cycles_on", on.st_total_cycles);
    ("cycles_off", off.st_total_cycles);
    ("chained", on.st_chained);
    ("outputs_equal", flag (r.plain.out = r.unchained.out));
  ]
  @ List.combine phase_keys (Array.to_list on.st_jit_phase_cycles)
  @ [
      ("hit_rate_pm_on", per_mille on.st_dispatch_hit_rate);
      ("hit_rate_pm_off", per_mille off.st_dispatch_hit_rate);
    ]

let tier_row r =
  let t = r.plain.st in
  [
    ("cycles_jit_tiered", t.st_jit_cycles);
    ("cycles_jit_tier0_only", r.tier0_only.st.st_jit_cycles);
    ("cycles_jit_full", r.full.st.st_jit_cycles);
    ("cycles_total_tiered", t.st_total_cycles);
    ("tier_promotions", Int64.of_int t.st_promotions);
    ("tier_superblocks", Int64.of_int t.st_translations_super);
    ( "tier_outputs_equal",
      flag (r.plain.out = r.full.out && r.tier0_only.out = r.full.out) );
  ]

(* The seeded run's runtime JIT share is what translation still happened
   while the client ran: its JIT cycles minus the AOT seeding share. *)
let aot_row r =
  let s = r.seeded.st in
  [
    ("cycles_jit_unseeded", r.plain.st.st_jit_cycles);
    ("cycles_jit_seed_runtime", Int64.sub s.st_jit_cycles s.st_aot_cycles);
    ("cycles_jit_aot", s.st_aot_cycles);
    ("aot_seeded", Int64.of_int s.st_aot_seeded);
    ("aot_failed", Int64.of_int s.st_aot_failed);
    ("cfg_checked", Int64.of_int s.st_cfg_checked);
    ("cfg_miss", Int64.of_int s.st_cfg_miss);
    ("aot_outputs_equal", flag (r.seeded.out = r.plain.out));
  ]

let replay_row r =
  let plain = r.plain.st.st_total_cycles
  and record = r.record.st.st_total_cycles in
  [
    ("cycles_plain", plain);
    ("cycles_record", record);
    ("cycles_replay", r.replay.st.st_total_cycles);
    ("log_bytes", Int64.of_int r.log_bytes);
    ("events", Int64.of_int r.events);
    ( "verified",
      flag
        (r.digests_ok && r.record.out = r.plain.out
        && r.replay.out = r.plain.out) );
    ( "overhead_pm",
      if plain = 0L then 0L
      else
        Int64.of_float
          (1000.0 *. ((Int64.to_float record /. Int64.to_float plain) -. 1.0))
    );
  ]

(* The 4-thread workload's wall clock (max core clock) against its
   aggregate work as cores are added; the cores=1 overhead pins the
   scheduler's own cost. *)
let cores_row () =
  let img = Guest.Asm.assemble Fuzz.Clients.threads4_src in
  let runs =
    List.map
      (fun cores -> (cores, of_result (session { default with cores } img)))
      [ 1; 2; 4 ]
  in
  let base = List.assoc 1 runs in
  List.concat_map
    (fun (c, r) ->
      [
        (Printf.sprintf "cycles_wall_c%d" c, r.st.st_wall_cycles);
        (Printf.sprintf "cycles_work_c%d" c, r.st.st_total_cycles);
        (Printf.sprintf "handoffs_c%d" c, r.st.st_lock_handoffs);
      ])
    runs
  @ [
      ("cycles_sched_overhead_c1", base.st.st_overhead_cycles);
      ( "cores_outputs_equal",
        flag (List.for_all (fun (_, r) -> r.out = base.out) runs) );
    ]

let families () : family list =
  let runs = List.map (fun w -> (w, run_workload w)) suite in
  let rows f = List.map (fun (w, r) -> (w, f r)) runs in
  [
    {
      title = "Translation chaining: dispatcher entries and cycles, on vs off";
      prefix = "";
      totals =
        [ "entries_on"; "entries_off"; "cycles_on"; "cycles_off";
          "outputs_equal" ]
        @ phase_keys;
      rows = rows chain_row;
    };
    {
      title = "Tiered JIT: translation cycles per tier (tiered, tier0-only, full)";
      prefix = "";
      totals =
        [ "cycles_jit_tiered"; "cycles_jit_tier0_only"; "cycles_jit_full";
          "tier_outputs_equal" ];
      rows = rows tier_row;
    };
    {
      title = "AOT seeding: cold-start JIT cycles (unseeded vs seeded runtime share)";
      prefix = "";
      totals =
        [ "cycles_jit_unseeded"; "cycles_jit_seed_runtime"; "cycles_jit_aot";
          "cfg_miss"; "aot_outputs_equal" ];
      rows = rows aot_row;
    };
    {
      title = "Sharded scheduler: 4-thread workload at 1, 2 and 4 cores";
      prefix = "";
      totals = [];
      rows = [ ("threads4", cores_row ()) ];
    };
    {
      title = "Vgrewind: record/replay cycles, log footprint, digest verification";
      prefix = "replay.";
      totals = [];
      rows = rows replay_row;
    };
  ]

(* A total sums over the workloads, except an outputs_equal flag, which
   is the minimum: 1 only if every workload's output was equal. *)
let total (f : family) (suffix : string) : int64 =
  let vs = List.map (fun (_, row) -> List.assoc suffix row) f.rows in
  if String.ends_with ~suffix:"outputs_equal" suffix then
    List.fold_left min 1L vs
  else List.fold_left Int64.add 0L vs

let metrics (f : family) : (string * int64) list =
  List.concat_map
    (fun (w, row) -> List.map (fun (s, v) -> (f.prefix ^ w ^ "." ^ s, v)) row)
    f.rows
  @ List.map (fun s -> (f.prefix ^ "total." ^ s, total f s)) f.totals

(* Rows are workloads plus a total; columns are the family's suffixes.
   The total row is blank where a suffix has no total. *)
let print_table (f : family) =
  let cols = List.map fst (snd (List.hd f.rows)) in
  let body =
    List.map
      (fun (w, row) -> w :: List.map (fun (_, v) -> Int64.to_string v) row)
      f.rows
  in
  let total_rows =
    if f.totals = [] then []
    else
      [
        "total"
        :: List.map
             (fun c ->
               if List.mem c f.totals then Int64.to_string (total f c) else "")
             cols;
      ]
  in
  let header = "program" :: cols in
  let widths =
    List.fold_left
      (List.map2 (fun w s -> max w (String.length s)))
      (List.map String.length header)
      (body @ total_rows)
  in
  let print cells =
    List.combine widths cells
    |> List.mapi (fun i (w, s) ->
           if i = 0 then Printf.sprintf "%-*s" w s else Printf.sprintf "%*s" w s)
    |> String.concat " " |> print_endline
  in
  Harness.section f.title;
  print header;
  Harness.hr ();
  List.iter print body;
  if total_rows <> [] then Harness.hr ();
  List.iter print total_rows

(* ------------------------------------------------------------------ *)
(* Claims                                                               *)
(* ------------------------------------------------------------------ *)

type test =
  | Pair of string * string * (int64 -> int64 -> bool)
      (** metric [a] against metric [b] *)
  | Each of string list * (int64 -> bool)
      (** every listed metric on its own; an empty list fails *)

type claim = { name : string; test : test }

(* [a] relative to [b], in percent *)
let change (a : int64) (b : int64) : float =
  if b = 0L then 0.0
  else 100.0 *. ((Int64.to_float a /. Int64.to_float b) -. 1.0)

let claims (ms : (string * int64) list) : claim list =
  let keys p = List.filter p (List.map fst ms) in
  let ends s k = String.ends_with ~suffix:s k in
  [
    {
      name = "chaining cuts dispatcher entries by >= 30%";
      test =
        Pair
          ( "total.entries_on",
            "total.entries_off",
            fun on off -> change on off <= -30.0 );
    };
    {
      name = "client output equal in every mode, every replay verified";
      test =
        Each
          ( keys (fun k ->
                ends "outputs_equal" k
                || (String.starts_with ~prefix:"replay." k && ends ".verified" k)),
            Int64.equal 1L );
    };
    {
      name = "tiered JIT cycles below full-pipeline JIT cycles";
      test = Pair ("total.cycles_jit_tiered", "total.cycles_jit_full", ( < ));
    };
  ]
  @ List.map
      (fun w ->
        {
          name = w ^ ": seeded runtime JIT cycles below unseeded JIT cycles";
          test =
            Pair (w ^ ".cycles_jit_seed_runtime", w ^ ".cycles_jit_unseeded", ( < ));
        })
      (suite @ [ "total" ])
  @ [
      {
        name = "soundness oracle counted no misses";
        test = Each (keys (ends ".cfg_miss"), Int64.equal 0L);
      };
    ]
  @ List.concat_map
      (fun w ->
        let k s = "replay." ^ w ^ "." ^ s in
        [
          {
            name = w ^ ": recording within 5% of plain cycles";
            test =
              Pair
                ( k "cycles_record",
                  k "cycles_plain",
                  fun record plain ->
                    record <= Int64.of_float (Int64.to_float plain *. 1.05) );
          };
          {
            name = w ^ ": replay re-derives the recorded cycles";
            test = Pair (k "cycles_replay", k "cycles_record", Int64.equal);
          };
        ])
      suite

(* Print one ok/!! line with the claim's numbers; return whether it holds. *)
let check (ms : (string * int64) list) (c : claim) : bool =
  let v k = List.assoc k ms in
  let mark ok = if ok then "ok" else "!!" in
  match c.test with
  | Pair (a, b, ok) ->
      let holds = ok (v a) (v b) in
      Printf.printf "%s %s: %s %Ld vs %s %Ld (%+.1f%%)\n" (mark holds) c.name a
        (v a) b (v b) (change (v a) (v b));
      holds
  | Each (ks, ok) ->
      let bad = List.filter (fun k -> not (ok (v k))) ks in
      let holds = ks <> [] && bad = [] in
      Printf.printf "%s %s: %d of %d%s\n" (mark holds) c.name
        (List.length ks - List.length bad)
        (List.length ks)
        (String.concat ""
           (List.map (fun k -> Printf.sprintf ", %s %Ld" k (v k)) bad));
      holds

let write_json (path : string) (ms : (string * int64) list) =
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  \"%s\": %Ld%s\n" k v
        (if i = List.length ms - 1 then "" else ","))
    ms;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "wrote %d metrics to %s\n" (List.length ms) path

let run ~(out : string) : bool =
  let fs = families () in
  let ms = List.concat_map metrics fs in
  write_json out ms;
  List.iter print_table fs;
  Harness.section "Claims";
  let failed =
    List.length (List.filter not (List.map (check ms) (claims ms)))
  in
  if failed = 0 then print_endline "gate passed"
  else Printf.printf "gate FAILED: %d claim(s)\n" failed;
  failed = 0
