(** From passes to metrics: correctness checks against the native
    reference, the end-to-end metrics of a workload, and the statistics
    (medians, quartiles, percentiles) they are reported with. *)

(* -- statistics -------------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** First and third quartiles, as Python's [statistics.quantiles(xs, n=4)]
    (the default exclusive method) computes them. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan)
  | [ x ] -> (x, x)
  | s ->
      let a = Array.of_list s and ld = List.length s in
      let q i =
        let m = ld + 1 in
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
      in
      (q 1, q 3)

(** Nearest-rank percentile. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

(* -- units ------------------------------------------------------------- *)

let end_to_end_units =
  [
    ("host_ns_per_guest_insn", "ns");
    ("host_ns_per_guest_insn_raw", "ns");
    ("slowdown", "x");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("session_ms_p50", "ms");
    ("session_ms_p95", "ms");
    ("sim_mcycles_per_host_s", "Mcycles/s");
    ("fail_frac", "frac");
  ]

(** The unit of a per-layer metric, read off its name. *)
let layer_unit (name : string) : string =
  let e suffix = String.ends_with ~suffix name in
  if e "_ms" then "ms"
  else if e "_us" || e ".us_per_translation" then "us"
  else if e "_ns_per_block" then "ns"
  else if e "_pm" then "pm"
  else if e "_pct" then "%"
  else if e "_mb_after_pass" then "MB"
  else if e "words_per_block" then "words"
  else if e "_per_guest_insn" then "1/insn"
  else if e "_cycles" then "cycles"
  else "count"

let unit_of name =
  match List.assoc_opt name end_to_end_units with Some u -> u | None -> layer_unit name

(* -- correctness ------------------------------------------------------- *)

type check = { attempted : int; failures : string list }

(** Check every session of every pass: no escaped exception, exit and
    stdout equal to the native reference, the cycle ledger summing to
    the total, and the same stats in every pass ([passes] includes any
    traced pass, which must not perturb the simulation).  A failure
    reads ["<workload> pass <i> <client>: ..."], or ["<workload> traced
    <client>: ..."] on the traced pass. *)
let check ~(refs : (string * Pass.reference) list) (passes : Pass.t list) : check =
  let failures = ref [] and attempted = ref 0 in
  let first_stats = Hashtbl.create 64 in
  List.iteri
    (fun pi (p : Pass.t) ->
      let label = if p.traced then "traced" else Printf.sprintf "pass %d" (pi + 1) in
      List.iter
        (fun (s : Pass.session) ->
          incr attempted;
          let fail fmt =
            Printf.ksprintf
              (fun m -> failures := Printf.sprintf "%s %s %s: %s" p.workload label s.name m :: !failures)
              fmt
          in
          match (s.error, List.assoc_opt s.name refs) with
          | Some e, _ -> fail "exception %s" e
          | None, None -> fail "no native reference"
          | None, Some r ->
              if s.exit <> r.r_exit then fail "exit %s, native %s" s.exit r.r_exit
              else if s.stdout <> r.r_stdout then fail "stdout differs from native"
              else if not s.ledger_ok then fail "host+overhead+jit+smc <> st_total_cycles"
              else (
                match Hashtbl.find_opt first_stats s.name with
                | None -> Hashtbl.add first_stats s.name s.stats
                | Some st when st <> s.stats -> fail "stats_json differs from an earlier pass"
                | Some _ -> ()))
        p.sessions)
    passes;
  { attempted = !attempted; failures = List.rev !failures }

(* -- end-to-end metrics ------------------------------------------------ *)

type row = {
  name : string;
  unit : string;
  value : float;  (** the reported value: see {!end_to_end} *)
  q1 : float;
  q3 : float;
  n : int;
  samples : float list;  (** one per pass *)
}

let row name ?value ?n samples =
  let q1, q3 = quartiles samples in
  {
    name;
    unit = unit_of name;
    value = Option.value value ~default:(median samples);
    q1;
    q3;
    n = Option.value n ~default:(List.length samples);
    samples;
  }

(** The end-to-end metrics of one workload over its untraced passes.
    Session and set-up times are scaled to a quiet machine
    ({!Calib}); [host_ns_per_guest_insn_raw] shows the unscaled time.
    Per-pass values are reported by their median. *)
let end_to_end ~(refs : (string * Pass.reference) list) ~(check : check) (passes : Pass.t list) :
    row list =
  let ok (p : Pass.t) = List.filter (fun (s : Pass.session) -> s.error = None) p.sessions in
  let ref_of (s : Pass.session) = List.assoc s.name refs in
  let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l in
  let per_pass f = List.map (fun p -> f (ok p)) passes in
  let wall (s : Pass.session) = float_of_int s.wall_ns *. s.scale in
  let raw (s : Pass.session) = float_of_int s.wall_ns in
  let per_insn t ss = sumf t ss /. sumf (fun s -> (ref_of s).r_insns) ss in
  (* percentiles over clients of each client's median session time:
     pooling raw sessions would put p50 on the edge between two
     programs' clusters *)
  let client_ms ss =
    List.filter_map
      (fun (name, _) ->
        match List.filter (fun (s : Pass.session) -> s.name = name) ss with
        | [] -> None
        | l -> Some (median (List.map (fun s -> wall s /. 1e6) l)))
      refs
  in
  let all = List.concat_map ok passes in
  let pct name p =
    row name ~value:(percentile p (client_ms all)) ~n:(List.length all)
      (per_pass (fun ss -> percentile p (client_ms ss)))
  in
  [
    row "host_ns_per_guest_insn" (per_pass (per_insn wall));
    row "host_ns_per_guest_insn_raw" (per_pass (per_insn raw));
    row "slowdown"
      (per_pass (fun ss -> geomean (List.map (fun s -> s.Pass.total_cycles /. (ref_of s).r_cycles) ss)));
    row "setup_s" (per_pass (sumf (fun s -> float_of_int s.Pass.setup_ns *. s.scale /. 1e9)));
    row "peak_heap_mb" (List.map (fun (p : Pass.t) -> Pass.words_mb p.peak_heap_words) passes);
    pct "session_ms_p50" 0.50;
    pct "session_ms_p95" 0.95;
    row "sim_mcycles_per_host_s"
      (per_pass (fun ss -> sumf (fun s -> s.Pass.total_cycles) ss /. (sumf wall ss /. 1e9) /. 1e6));
    row "fail_frac" ~n:check.attempted
      [ float_of_int (List.length check.failures) /. float_of_int (max 1 check.attempted) ];
  ]

(** Tracing overhead: the traced pass's wall time against the median
    untraced pass, in percent (unscaled: the traced pass is not
    sampled, so its step timings stay clean). *)
let trace_overhead_pct ~(untraced : Pass.t list) (traced : Pass.t) =
  let med = median (List.map (fun (p : Pass.t) -> float_of_int p.pass_wall_ns) untraced) in
  100. *. ((float_of_int traced.pass_wall_ns /. med) -. 1.)

let row_to_json (r : row) : Json.t =
  Json.Obj
    [
      ("metric", Str r.name);
      ("unit", Str r.unit);
      ("value", Num r.value);
      ("q1", Num r.q1);
      ("q3", Num r.q3);
      ("n", Num (float_of_int r.n));
      ("samples", Arr (List.map (fun x -> Json.Num x) r.samples));
    ]

let row_of_json (j : Json.t) : row =
  let m k = Json.member k j in
  {
    name = Json.str (m "metric");
    unit = Json.str (m "unit");
    value = Json.num (m "value");
    q1 = Json.num (m "q1");
    q3 = Json.num (m "q3");
    n = Json.int (m "n");
    samples = List.map Json.num (Json.arr (m "samples"));
  }
