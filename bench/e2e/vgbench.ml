(** vgbench: the host-time benchmark.

    {v
    vgbench run [--seed N] [--out FILE]
        all four workloads, 5 passes each, round-robin, one fresh child
        process per pass, then one traced pass per workload;
        prints every metric with unit, median, quartiles and n
    vgbench compare A.json B.json [--benchmark BENCHMARK.json]
        one verdict per (metric, workload) row; exits 1 on a regression
    vgbench bench --workload W --seed N --seconds S --trace 0|1
        one workload for at least S seconds; the last stdout line is the
        JSON result ([BENCHMARK.json] names the metrics it carries)
    vgbench smoke [--benchmark BENCHMARK.json]
        every workload at its smallest size, in-process, checking that
        every metric [BENCHMARK.json] names is emitted with its unit
    v}

    Passes run one at a time, each in a fresh child process
    ([vgbench pass ...]): [Vex_ir.Helpers] is a process-global table
    that keeps every session's helper closures, and with them its shadow
    state, so passes sharing a process would slow each other down. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let log fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("vgbench: " ^ s);
      exit 2)
    fmt

(* --key value arguments; a key given twice keeps the last value *)
let parse_args (args : string list) : string list * (string * string) list =
  let flag k = String.length k > 2 && String.starts_with ~prefix:"--" k in
  let rec go pos kv = function
    | [] -> (List.rev pos, kv)
    | k :: v :: rest when flag k -> go pos ((String.sub k 2 (String.length k - 2), v) :: kv) rest
    | k :: _ when flag k -> die "%s needs a value" k
    | a :: rest -> go (a :: pos) kv rest
  in
  go [] [] args

let get kv k ~default = Option.value (List.assoc_opt k kv) ~default

let get_int kv k ~default =
  match List.assoc_opt k kv with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "--%s: not a number: %s" k v)

(* -- BENCHMARK.json ---------------------------------------------------- *)

type spec_metric = { m_name : string; m_unit : string; m_lower : bool; m_bound : float option }

let read_benchmark (path : string) : spec_metric list * spec_metric list =
  let j = try Json.read_file path with Sys_error e | Json.Parse_error e -> die "%s: %s" path e in
  let metrics key =
    List.map
      (fun m ->
        {
          m_name = Json.str (Json.member "name" m);
          m_unit = Json.str (Json.member "unit" m);
          m_lower = Json.str (Json.member "better" m) = "lower";
          m_bound = Option.map Json.num (Json.member_opt "bound" m);
        })
      (Json.arr (Json.member key j))
  in
  (metrics "end_to_end", metrics "per_layer")

(* -- passes in child processes ----------------------------------------- *)

(** Run one pass of [w] in a fresh child process.  A child that dies or
    prints no result counts every session of the pass as failed. *)
let child_pass ~(w : Workload.t) ~seed ~traced ?trace_out ?(guest_insns = 0.) names : Pass.t =
  let args =
    [ "pass"; "--workload"; w.name; "--seed"; string_of_int seed; "--traced";
      (if traced then "1" else "0"); "--guest-insns"; Printf.sprintf "%.0f" guest_insns ]
    @ match trace_out with Some f -> [ "--trace-out"; f ] | None -> []
  in
  let t0 = now_s () in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lost why =
    {
      Pass.workload = w.name;
      traced;
      pass_wall_ns = int_of_float ((now_s () -. t0) *. 1e9);
      peak_heap_words = 0;
      sessions = List.map (fun name -> Pass.failed ~name (Failure why)) names;
      layers = [];
    }
  in
  match status with
  | Unix.WEXITED 0 -> (
      try (Marshal.from_string out 0 : Pass.t)
      with Failure e | Invalid_argument e -> lost ("unreadable pass result: " ^ e))
  | Unix.WEXITED n -> lost (Printf.sprintf "child exited %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> lost (Printf.sprintf "child killed by signal %d" n)

let references ~(w : Workload.t) ~seed ~small =
  List.map (fun (c : Workload.client) -> (c.c_name, Pass.reference c)) (w.clients ~seed ~small)

(* where traces (and, by default, run reports) are written *)
let out_dir () =
  (try Sys.mkdir ".vgbench" 0o755 with Sys_error _ -> ());
  ".vgbench"

let guest_insns refs = List.fold_left (fun a (_, (r : Pass.reference)) -> a +. r.r_insns) 0. refs

(* -- one workload's one-line result ------------------------------------ *)

(** The one-line result object: [correct], [attempted], [failed] and the
    metrics [BENCHMARK.json] lists for this mode, each with its unit.
    Fails if a listed metric was not measured. *)
let result_json ~(bm : spec_metric list * spec_metric list) ~trace ~refs ~(untraced : Pass.t list)
    ~(traced : Pass.t option) : Json.t * Metrics.check =
  let check = Metrics.check ~refs (untraced @ Option.to_list traced) in
  let measured =
    if trace then
      match traced with
      | None -> []
      | Some t ->
          ("trace.overhead_pct", Metrics.trace_overhead_pct ~untraced t) :: t.layers
    else List.map (fun (r : Metrics.row) -> (r.name, r.value)) (Metrics.end_to_end ~refs ~check untraced)
  in
  let wanted = if trace then snd bm else fst bm in
  let metrics =
    List.map
      (fun m ->
        match List.assoc_opt m.m_name measured with
        | Some v when Metrics.unit_of m.m_name = m.m_unit ->
            (m.m_name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.m_unit) ])
        | Some _ ->
            die "metric %s: BENCHMARK.json says unit %s, vgbench measures %s" m.m_name m.m_unit
              (Metrics.unit_of m.m_name)
        | None -> die "metric %s is not measured by vgbench" m.m_name)
      wanted
  in
  ( Json.Obj
      [
        ("correct", Json.Bool (check.failures = []));
        ("attempted", Json.Num (float_of_int check.attempted));
        ("failed", Json.Num (float_of_int (List.length check.failures)));
        ("metrics", Json.Obj metrics);
      ],
    check )

(** [bench]: one workload for at least [seconds] of measurement: passes
    start until [seconds] have gone by, so the last one ends after it.
    With [trace], one traced pass follows the first untraced one. *)
let bench kv =
  let w = Workload.find (get kv "workload" ~default:"") in
  let seed = get_int kv "seed" ~default:1 in
  let seconds = float_of_int (get_int kv "seconds" ~default:30) in
  let trace = get kv "trace" ~default:"0" = "1" in
  let bm = read_benchmark (get kv "benchmark" ~default:"BENCHMARK.json") in
  let t0 = now_s () in
  let refs = references ~w ~seed ~small:false in
  log "%s: native references in %.2f s (outside the measured window)" w.name (now_s () -. t0);
  let names = List.map fst refs in
  let deadline = now_s () +. seconds in
  let one_pass ~traced ?trace_out () =
    child_pass ~w ~seed ~traced ?trace_out ~guest_insns:(guest_insns refs) names
  in
  let first = one_pass ~traced:false () in
  let traced =
    if trace then
      let trace_out = Printf.sprintf "%s/trace-%s-%d.json" (out_dir ()) w.name seed in
      Some (one_pass ~traced:true ~trace_out ())
    else None
  in
  let rec more acc = if now_s () < deadline then more (one_pass ~traced:false () :: acc) else acc in
  let untraced = first :: List.rev (more []) in
  let result, check = result_json ~bm ~trace ~refs ~untraced ~traced in
  List.iter (log "FAIL %s") check.failures;
  log "%s: %d untraced pass(es)%s, %d sessions" w.name (List.length untraced)
    (if trace then " + 1 traced" else "")
    check.attempted;
  print_endline (Json.to_string result)

(* -- run: the full sweep ------------------------------------------------ *)

let fmt_num v =
  let a = Float.abs v in
  if Float.is_integer v && a < 1e12 then Printf.sprintf "%.0f" v
  else if a >= 100. then Printf.sprintf "%.1f" v
  else if a >= 1. then Printf.sprintf "%.3f" v
  else Printf.sprintf "%.4g" v

let passes = 5

let run kv =
  let seed = get_int kv "seed" ~default:1 in
  let out = get kv "out" ~default:(out_dir () ^ "/run.json") in
  let workloads = Workload.all in
  let t_start = now_s () in
  log "native references (outside timing)...";
  let refs = List.map (fun (w : Workload.t) -> (w.name, references ~w ~seed ~small:false)) workloads in
  let untraced = Hashtbl.create 8 in
  for p = 1 to passes do
    List.iter
      (fun (w : Workload.t) ->
        let r = List.assoc w.name refs in
        let t0 = now_s () in
        let pass = child_pass ~w ~seed ~traced:false (List.map fst r) in
        log "pass %d/%d %-14s %6.2f s" p passes w.name (now_s () -. t0);
        Hashtbl.add untraced w.name pass)
      workloads
  done;
  let report =
    List.map
      (fun (w : Workload.t) ->
        let r = List.assoc w.name refs in
        let trace_out =
          Printf.sprintf "%s/%s.%s.trace.json" (out_dir ())
            (Filename.remove_extension (Filename.basename out))
            w.name
        in
        let t0 = now_s () in
        let traced = child_pass ~w ~seed ~traced:true ~trace_out ~guest_insns:(guest_insns r) (List.map fst r) in
        log "traced     %-14s %6.2f s" w.name (now_s () -. t0);
        let un = List.rev (Hashtbl.find_all untraced w.name) in
        let check = Metrics.check ~refs:r (un @ [ traced ]) in
        let unperturbed = not (List.exists (String.starts_with ~prefix:(w.name ^ " traced ")) check.failures) in
        let rows = Metrics.end_to_end ~refs:r ~check un in
        let layers = ("trace.overhead_pct", Metrics.trace_overhead_pct ~untraced:un traced) :: traced.layers in
        (w, rows, layers, check, unperturbed))
      workloads
  in
  Printf.printf "\nvgbench run: seed %d, %d passes per workload, %.0f s in all\n" seed passes
    (now_s () -. t_start);
  List.iter
    (fun ((w : Workload.t), rows, layers, (check : Metrics.check), unperturbed) ->
      Printf.printf "\n== %s\n" w.name;
      Printf.printf "  %-26s %-10s %12s %12s %12s %5s\n" "metric" "unit" "value" "q1" "q3" "n";
      List.iter
        (fun (r : Metrics.row) ->
          Printf.printf "  %-26s %-10s %12s %12s %12s %5d\n" r.name r.unit (fmt_num r.value)
            (fmt_num r.q1) (fmt_num r.q3) r.n)
        rows;
      Printf.printf "  checks: %d sessions, %d failed; traced pass %s\n" check.attempted
        (List.length check.failures)
        (if unperturbed then "identical to untraced (stats_json, exit, stdout)"
         else "DIFFERENT from untraced");
      List.iter (Printf.printf "  FAIL %s\n") check.failures;
      Printf.printf "  per-layer (traced pass):\n";
      List.iter
        (fun (k, v) -> Printf.printf "    %-36s %-8s %14s\n" k (Metrics.layer_unit k) (fmt_num v))
        layers)
    report;
  Json.write_file out
    (Json.Obj
       [
         ("seed", Json.Num (float_of_int seed));
         ("passes", Json.Num (float_of_int passes));
         ( "workloads",
           Json.Arr
             (List.map
                (fun ((w : Workload.t), rows, layers, (check : Metrics.check), unperturbed) ->
                  Json.Obj
                    [
                      ("name", Json.Str w.name);
                      ("rows", Json.Arr (List.map Metrics.row_to_json rows));
                      ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) layers));
                      ("attempted", Json.Num (float_of_int check.attempted));
                      ("failures", Json.Arr (List.map (fun s -> Json.Str s) check.failures));
                      ("trace_unperturbed", Json.Bool unperturbed);
                    ])
                report) );
       ]);
  Printf.printf "\nwrote %s\n" out;
  if List.exists (fun (_, _, _, (c : Metrics.check), _) -> c.failures <> []) report then exit 1

(* -- compare ------------------------------------------------------------ *)

type verdict = Within | Regressed | Improved | Unresolved | Ungated

let verdict_name = function
  | Within -> "within bound"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Unresolved -> "unresolved"
  | Ungated -> "-"

(* relative change from [a] to [b]; 0 when both are 0 *)
let change (a : float) (b : float) =
  if a = b then 0. else if a = 0. then infinity else (b -. a) /. Float.abs a

(** One row's verdict.  [delta] is the relative change of the value,
    signed so that positive is worse.  A row is unresolved when either
    side's interquartile range, as a share of its value, is wider than
    the bound — unless every sample of B beats every sample of A. *)
let judge ~bound ~lower (a : Metrics.row) (b : Metrics.row) =
  let worse x y = if lower then x > y else x < y in
  let delta = change a.value b.value in
  let delta = if lower then delta else -.delta in
  let spread (r : Metrics.row) = if r.value = 0. then 0. else (r.q3 -. r.q1) /. Float.abs r.value in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> worse x y) a.samples) b.samples
  in
  let verdict =
    if Float.max (spread a) (spread b) > bound then if all_better then Improved else Unresolved
    else if delta > bound then Regressed
    else if delta < -.bound then Improved
    else Within
  in
  (delta, verdict)

let compare_cmd pos kv =
  let a_path, b_path = match pos with [ a; b ] -> (a, b) | _ -> die "usage: vgbench compare A.json B.json" in
  let e2e, _ = read_benchmark (get kv "benchmark" ~default:"BENCHMARK.json") in
  let load path =
    try
      List.map
        (fun w ->
          ( Json.str (Json.member "name" w),
            List.map Metrics.row_of_json (Json.arr (Json.member "rows" w)) ))
        (Json.arr (Json.member "workloads" (Json.read_file path)))
    with Sys_error e | Json.Parse_error e -> die "%s: %s" path e
  in
  let a = load a_path and b = load b_path in
  (* fail_frac is 0 on a healthy build, and BENCHMARK.json lists only
     metrics that never are, so it is gated here, with bound 0 *)
  let bound_of name =
    match List.find_opt (fun m -> m.m_name = name) e2e with
    | Some { m_bound = Some b; m_lower; _ } -> Some (b, m_lower)
    | _ -> if name = "fail_frac" then Some (0., true) else None
  in
  Printf.printf "%-14s %-24s %12s %12s %9s %7s  %s\n" "workload" "metric" "A" "B" "change"
    "bound" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun (wname, rows_a) ->
      match List.assoc_opt wname b with
      | None -> Printf.printf "%-14s missing from %s\n" wname b_path
      | Some rows_b ->
          List.iter
            (fun (ra : Metrics.row) ->
              match List.find_opt (fun (r : Metrics.row) -> r.name = ra.name) rows_b with
              | None -> ()
              | Some rb ->
                  let delta, verdict, bound =
                    match bound_of ra.name with
                    | None -> (change ra.value rb.value, Ungated, "-")
                    | Some (bound, lower) ->
                        let d, v = judge ~bound ~lower ra rb in
                        (d, v, Printf.sprintf "%.0f%%" (100. *. bound))
                  in
                  if verdict = Regressed then incr regressions;
                  Printf.printf "%-14s %-24s %12s %12s %+8.1f%% %7s  %s\n" wname ra.name
                    (fmt_num ra.value) (fmt_num rb.value) (100. *. delta) bound
                    (verdict_name verdict))
            rows_a)
    a;
  if !regressions > 0 then begin
    Printf.printf "%d regressed row(s)\n" !regressions;
    exit 1
  end

(* -- smoke ------------------------------------------------------------- *)

(* One traced pass per workload stands in for the untraced passes too:
   the smoke test checks what is emitted, not how fast, and a second
   pass would double its time. *)
let smoke kv =
  let bm = read_benchmark (get kv "benchmark" ~default:"BENCHMARK.json") in
  let seed = 1 in
  List.iter
    (fun (w : Workload.t) ->
      let t0 = now_s () in
      let refs = references ~w ~seed ~small:true in
      let traced = Pass.run ~traced:true ~guest_insns:(guest_insns refs) ~seed ~small:true w in
      List.iter
        (fun trace ->
          let result, check = result_json ~bm ~trace ~refs ~untraced:[ traced ] ~traced:(Some traced) in
          if check.failures <> [] then die "%s: %s" w.name (String.concat "; " check.failures);
          let n = List.length (Json.obj (Json.member "metrics" result)) in
          log "smoke %-14s trace=%d: %d metrics, %d sessions ok" w.name (Bool.to_int trace) n
            check.attempted)
        [ false; true ];
      log "smoke %-14s %.2f s" w.name (now_s () -. t0))
    Workload.all

(* -- the child: one pass, result on stdout ------------------------------ *)

let pass kv =
  let w = Workload.find (get kv "workload" ~default:"") in
  let seed = get_int kv "seed" ~default:1 in
  let traced = get kv "traced" ~default:"0" = "1" in
  let guest_insns = float_of_string (get kv "guest-insns" ~default:"0") in
  let trace_out = List.assoc_opt "trace-out" kv in
  let p = Pass.run ?trace_out ~guest_insns ~traced ~seed ~small:false w in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (p : Pass.t) []

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      let pos, kv = parse_args rest in
      match cmd with
      | "run" -> run kv
      | "compare" -> compare_cmd pos kv
      | "bench" -> bench kv
      | "smoke" -> smoke kv
      | "pass" -> pass kv
      | c -> die "unknown command %s (run | compare | bench | smoke)" c)
  | _ -> die "usage: vgbench (run | compare | bench | smoke) [options]"
