(** Translation-chaining benchmark (§3.9 extension).

    Runs a set of loop-heavy workloads under Nulgrind twice — chaining on
    (the default) and off (the paper's configuration) — and reports the
    reduction in dispatcher entries and modelled cycles, checking that
    client output is bit-identical either way.

    Doubles as the CI bench-regression gate: [write_json] dumps the
    deterministic metrics to a flat JSON file, which CI compares byte for
    byte with the committed baseline, and [read_json] reads one back for
    the tier, AOT and replay checks. *)

let suite = [ "mcf"; "swim"; "mgrid"; "gzip" ]

type row = {
  b_name : string;
  b_entries_on : int64;  (** dispatcher entries, chaining on *)
  b_entries_off : int64;
  b_cycles_on : int64;  (** modelled total cycles, chaining on *)
  b_cycles_off : int64;
  b_chained : int64;  (** transfers that bypassed the dispatcher *)
  b_outputs_equal : bool;
  b_jit_phases : int64 array;
      (** per-phase JIT cycles (chaining on): eight entries summing to
          that run's total JIT cycles *)
  b_hit_rate_pm_on : int64;  (** dispatcher hit rate, per mille *)
  b_hit_rate_pm_off : int64;
}

(* Hit rates are exported as integer per-mille so the gate's flat
   int64 JSON keeps carrying them; 1000ths are precise enough to catch
   a real locality regression. *)
let per_mille (f : float) : int64 = Int64.of_float (f *. 1000.0)

let run_one ?(scale = 1) (name : string) : row option =
  match Workloads.find name with
  | None ->
      Printf.printf "!! unknown workload %s\n" name;
      None
  | Some w ->
      let img = Workloads.compile ~scale w in
      let with_chaining c =
        Harness.run_tool
          ~options:{ Vg_core.Session.default_options with chaining = c }
          Vg_core.Tool.nulgrind img
      in
      let on = with_chaining true in
      let off = with_chaining false in
      Some
        {
          b_name = name;
          b_entries_on = on.tr_stats.st_dispatch_entries;
          b_entries_off = off.tr_stats.st_dispatch_entries;
          b_cycles_on = on.tr_cycles;
          b_cycles_off = off.tr_cycles;
          b_chained = on.tr_stats.st_chained;
          b_outputs_equal = on.tr_stdout = off.tr_stdout;
          b_jit_phases = on.tr_stats.st_jit_phase_cycles;
          b_hit_rate_pm_on = per_mille on.tr_stats.st_dispatch_hit_rate;
          b_hit_rate_pm_off = per_mille off.tr_stats.st_dispatch_hit_rate;
        }

let rows ?scale () : row list = List.filter_map (run_one ?scale) suite

let pct_less (now : int64) (before : int64) : float =
  if before = 0L then 0.0
  else 100.0 *. (1.0 -. (Int64.to_float now /. Int64.to_float before))

let run ?scale () =
  Harness.section
    "Translation chaining: dispatcher entries and cycles, on vs off";
  Printf.printf "%-9s %12s %12s %7s %13s %13s %6s %5s\n" "program"
    "entries(on)" "entries(off)" "cut%" "cycles(on)" "cycles(off)" "cut%"
    "out=";
  Harness.hr ();
  let rs = rows ?scale () in
  List.iter
    (fun r ->
      Printf.printf "%-9s %12Ld %12Ld %6.1f%% %13Ld %13Ld %5.1f%% %5b\n%!"
        r.b_name r.b_entries_on r.b_entries_off
        (pct_less r.b_entries_on r.b_entries_off)
        r.b_cycles_on r.b_cycles_off
        (pct_less r.b_cycles_on r.b_cycles_off)
        r.b_outputs_equal)
    rs;
  Harness.hr ();
  let sum f = List.fold_left (fun a r -> Int64.add a (f r)) 0L rs in
  let eon = sum (fun r -> r.b_entries_on)
  and eoff = sum (fun r -> r.b_entries_off) in
  Printf.printf "%-9s %12Ld %12Ld %6.1f%%  (target: >= 30%% fewer entries)\n"
    "total" eon eoff (pct_less eon eoff);
  if pct_less eon eoff < 30.0 then
    print_endline "!! chaining cut dispatcher entries by less than 30%";
  if not (List.for_all (fun r -> r.b_outputs_equal) rs) then
    print_endline "!! chained and unchained outputs differ"

(* ------------------------------------------------------------------ *)
(* The CI regression gate                                               *)
(* ------------------------------------------------------------------ *)

(* Flat JSON, one "program.metric" per line: trivially diffable and
   parseable without a JSON library. *)
let metrics_of_row (r : row) : (string * int64) list =
  [
    (r.b_name ^ ".entries_on", r.b_entries_on);
    (r.b_name ^ ".entries_off", r.b_entries_off);
    (r.b_name ^ ".cycles_on", r.b_cycles_on);
    (r.b_name ^ ".cycles_off", r.b_cycles_off);
    (r.b_name ^ ".chained", r.b_chained);
    (r.b_name ^ ".outputs_equal", if r.b_outputs_equal then 1L else 0L);
  ]
  (* per-phase JIT cycles: "cycles_" prefixed so the gate's 10%
     cycle tolerance applies to each phase individually *)
  @ List.init (Array.length r.b_jit_phases) (fun i ->
        (Printf.sprintf "%s.cycles_jit_p%d" r.b_name (i + 1), r.b_jit_phases.(i)))
  @ [
      (r.b_name ^ ".hit_rate_pm_on", r.b_hit_rate_pm_on);
      (r.b_name ^ ".hit_rate_pm_off", r.b_hit_rate_pm_off);
    ]

let n_phases = 8

let all_metrics (rs : row list) : (string * int64) list =
  let sum f = List.fold_left (fun a r -> Int64.add a (f r)) 0L rs in
  List.concat_map metrics_of_row rs
  @ [
      ("total.entries_on", sum (fun r -> r.b_entries_on));
      ("total.entries_off", sum (fun r -> r.b_entries_off));
      ("total.cycles_on", sum (fun r -> r.b_cycles_on));
      ("total.cycles_off", sum (fun r -> r.b_cycles_off));
      ( "total.outputs_equal",
        if List.for_all (fun r -> r.b_outputs_equal) rs then 1L else 0L );
    ]
  @ List.init n_phases (fun i ->
        ( Printf.sprintf "total.cycles_jit_p%d" (i + 1),
          sum (fun r ->
              if i < Array.length r.b_jit_phases then r.b_jit_phases.(i)
              else 0L) ))

(* [extra] lets the caller fold further metric families (the tier
   matrix) into the same gate file, so one baseline carries all of
   them. *)
let write_json ~(path : string) ?scale ?(extra : (string * int64) list = [])
    () =
  let ms = all_metrics (rows ?scale ()) @ extra in
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

(* Parse the flat format back: lines of the shape  "key": 123[,] *)
let read_json (path : string) : (string * int64) list =
  let ic = open_in path in
  let out = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       match String.index_opt line '"' with
       | Some 0 -> (
           match String.index_from_opt line 1 '"' with
           | Some close -> (
               let key = String.sub line 1 (close - 1) in
               match String.index_from_opt line close ':' with
               | Some colon ->
                   let rest =
                     String.sub line (colon + 1)
                       (String.length line - colon - 1)
                   in
                   let num =
                     String.trim
                       (match String.index_opt rest ',' with
                       | Some c -> String.sub rest 0 c
                       | None -> rest)
                   in
                   (match Int64.of_string_opt num with
                   | Some v -> out := (key, v) :: !out
                   | None -> ())
               | None -> ())
           | None -> ())
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !out
