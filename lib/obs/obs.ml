(** Vgscope: the cycle-exact observability layer.

    Valgrind's evaluation (paper §5) lives or dies on knowing {e where}
    cycles go — dispatch vs. JIT vs. tool instrumentation.  This module
    is the measurement substrate the rest of the core publishes into:

    - {!Registry}: a named-metric registry of {e counters} it owns and
      {e probes} — pull closures that read a subsystem's own live field.
      Each fact is counted once, where it happens; [Session.stats] is a
      typed view of the registry, not a second copy of it;
    - {!Trace}: a bounded ring of structured events (translations, chain
      patch/unlink, evictions, chaos faults, signals) exportable as
      JSON-lines or Chrome [trace_event] JSON;
    - {!Profile}: a flat + caller/callee guest-execution profile (a
      mini-Callgrind of the framework itself), driven by exact block
      counters.

    Everything here is deterministic by construction: timestamps come
    from the simulated cycle model (never wall-clock), iteration orders
    are sorted, and floats are rendered with a fixed format — so two
    runs of the same workload and seed produce bit-identical exports. *)

(* ------------------------------------------------------------------ *)
(* JSON rendering helpers (no JSON library: the flat formats below are  *)
(* one "key": value per line)                                           *)
(* ------------------------------------------------------------------ *)

let json_escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Fixed-format float: deterministic across runs and platforms for the
   rationals we produce (hit rates, occupancy). *)
let json_float (f : float) : string = Printf.sprintf "%.6f" f

(* ------------------------------------------------------------------ *)
(* The metrics registry                                                 *)
(* ------------------------------------------------------------------ *)

module Registry = struct
  type metric =
    | M_probe of (unit -> int64)  (** pulls a subsystem's live field *)
    | M_fprobe of (unit -> float)

  type t = { metrics : (string, metric) Hashtbl.t }

  let create () : t = { metrics = Hashtbl.create 64 }

  let register (t : t) (name : string) (m : metric) =
    if Hashtbl.mem t.metrics name then
      invalid_arg ("Obs.Registry: duplicate metric " ^ name);
    Hashtbl.replace t.metrics name m

  let probe (t : t) (name : string) (f : unit -> int64) : unit =
    register t name (M_probe f)

  let fprobe (t : t) (name : string) (f : unit -> float) : unit =
    register t name (M_fprobe f)

  (** A counter the registry owns: its one owner bumps [n] in place and
      every reader samples it under its name. *)
  type counter = { mutable n : int }

  let counter (t : t) (name : string) : counter =
    let c = { n = 0 } in
    probe t name (fun () -> Int64.of_int c.n);
    c

  (** One exported sample. *)
  type sample = I of int64 | F of float

  let sample = function M_probe f -> I (f ()) | M_fprobe f -> F (f ())

  (** Every sample in the registry, sorted by name (deterministic). *)
  let samples (t : t) : (string * sample) list =
    Hashtbl.fold (fun name m acc -> (name, sample m) :: acc) t.metrics []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let find (t : t) (name : string) : sample option =
    Option.map sample (Hashtbl.find_opt t.metrics name)

  let find_i64 (t : t) (name : string) : int64 option =
    match find t name with Some (I v) -> Some v | _ -> None

  (** Flat JSON object, one "name": value per line, keys sorted — the
      same shape [BENCH_baseline.json] uses. *)
  let to_json (t : t) : string =
    let ss = samples t in
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, s) ->
        Buffer.add_string b
          (Printf.sprintf "  \"%s\": %s%s\n" (json_escape k)
             (match s with I v -> Int64.to_string v | F f -> json_float f)
             (if i = List.length ss - 1 then "" else ",")))
      ss;
    Buffer.add_string b "}\n";
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* The structured-event trace ring                                      *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type arg = I of int64 | S of string | F of float

  type event = {
    ev_ts : int64;  (** simulated cycles at the event *)
    ev_dur : int64;  (** duration in cycles; 0 = instant *)
    ev_cat : string;  (** "jit", "chain", "cache", "chaos", "signal", … *)
    ev_name : string;
    ev_args : (string * arg) list;
  }

  (** A bounded ring: the last [capacity] events are retained; earlier
      ones are counted in [dropped] so exports are honest about
      truncation. *)
  type t = {
    capacity : int;
    ring : event option array;
    mutable total : int;  (** events ever emitted *)
  }

  let create ~(capacity : int) : t =
    if capacity <= 0 then invalid_arg "Obs.Trace.create: capacity <= 0";
    { capacity; ring = Array.make capacity None; total = 0 }

  let emit (t : t) ~(ts : int64) ?(dur = 0L) ~(cat : string) ~(name : string)
      ?(args = []) () =
    t.ring.(t.total mod t.capacity) <-
      Some { ev_ts = ts; ev_dur = dur; ev_cat = cat; ev_name = name;
             ev_args = args };
    t.total <- t.total + 1

  let total (t : t) = t.total
  let dropped (t : t) = max 0 (t.total - t.capacity)

  (** Retained events, oldest first. *)
  let events (t : t) : event list =
    let n = min t.total t.capacity in
    List.filter_map
      (fun i -> t.ring.((t.total - n + i) mod t.capacity))
      (List.init n Fun.id)

  let arg_json (v : arg) : string =
    match v with
    | I v -> Int64.to_string v
    | F f -> json_float f
    | S s -> "\"" ^ json_escape s ^ "\""

  let args_json (args : (string * arg) list) : string =
    "{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) -> "\"" ^ json_escape k ^ "\": " ^ arg_json v)
           args)
    ^ "}"

  (** JSON-lines: one event object per line, oldest first. *)
  let to_jsonl (t : t) : string =
    let b = Buffer.create 4096 in
    if dropped t > 0 then
      Buffer.add_string b
        (Printf.sprintf "{\"dropped\": %d}\n" (dropped t));
    List.iter
      (fun e ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"ts\": %Ld, \"dur\": %Ld, \"cat\": \"%s\", \"name\": \"%s\", \
              \"args\": %s}\n"
             e.ev_ts e.ev_dur (json_escape e.ev_cat) (json_escape e.ev_name)
             (args_json e.ev_args)))
      (events t);
    Buffer.contents b

  (** Chrome [trace_event] format (load in chrome://tracing or Perfetto).
      Simulated cycles are presented as microseconds; events with a
      duration become "X" (complete) slices, instants become "i". *)
  let to_chrome (t : t) : string =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\": [\n";
    let es = events t in
    List.iteri
      (fun i e ->
        let common =
          Printf.sprintf
            "\"name\": \"%s\", \"cat\": \"%s\", \"pid\": 1, \"tid\": 1, \
             \"ts\": %Ld, \"args\": %s"
            (json_escape e.ev_name) (json_escape e.ev_cat) e.ev_ts
            (args_json e.ev_args)
        in
        let body =
          if e.ev_dur > 0L then
            Printf.sprintf "{\"ph\": \"X\", \"dur\": %Ld, %s}" e.ev_dur common
          else Printf.sprintf "{\"ph\": \"i\", \"s\": \"g\", %s}" common
        in
        Buffer.add_string b
          ("  " ^ body ^ (if i = List.length es - 1 then "" else ",") ^ "\n"))
      es;
    Buffer.add_string b "], \"displayTimeUnit\": \"ns\"}\n";
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* The guest-execution profiler                                         *)
(* ------------------------------------------------------------------ *)

module Profile = struct
  type fn = {
    pf_base : int64;  (** symbol base address (the aggregation key) *)
    pf_name : string;
    mutable pf_blocks : int64;  (** code blocks executed in this fn *)
    mutable pf_cycles : int64;  (** host cycles attributed to this fn *)
    mutable pf_calls : int64;  (** times entered via a call exit *)
    mutable pf_core_cycles : (int * int64) list;
        (** [pf_cycles] split by the simulated core that executed the
            blocks (sorted by core id); a single-core profile keeps the
            whole total under core 0 *)
  }

  type t = {
    fns : (int64, fn) Hashtbl.t;
    edges : (int64 * int64, int64 ref) Hashtbl.t;  (** caller -> callee *)
  }

  let create () : t = { fns = Hashtbl.create 64; edges = Hashtbl.create 64 }

  let touch (t : t) ~(base : int64) ~(name : string) : fn =
    match Hashtbl.find_opt t.fns base with
    | Some f -> f
    | None ->
        let f =
          { pf_base = base; pf_name = name; pf_blocks = 0L; pf_cycles = 0L;
            pf_calls = 0L; pf_core_cycles = [] }
        in
        Hashtbl.replace t.fns base f;
        f

  (** Attribute one executed block and its cycles to the function at
      [base], executed on simulated core [core]. *)
  let block ?(core = 0) (t : t) ~(base : int64) ~(name : string)
      ~(cycles : int64) =
    let f = touch t ~base ~name in
    f.pf_blocks <- Int64.add f.pf_blocks 1L;
    f.pf_cycles <- Int64.add f.pf_cycles cycles;
    f.pf_core_cycles <-
      (match List.assoc_opt core f.pf_core_cycles with
      | Some c ->
          List.sort compare
            ((core, Int64.add c cycles)
            :: List.remove_assoc core f.pf_core_cycles)
      | None -> List.sort compare ((core, cycles) :: f.pf_core_cycles))

  (** Record one call edge (an [ek_call] block exit). *)
  let call (t : t) ~(caller : int64) ~(callee_base : int64)
      ~(callee_name : string) =
    let f = touch t ~base:callee_base ~name:callee_name in
    f.pf_calls <- Int64.add f.pf_calls 1L;
    match Hashtbl.find_opt t.edges (caller, callee_base) with
    | Some r -> r := Int64.add !r 1L
    | None -> Hashtbl.replace t.edges (caller, callee_base) (ref 1L)

  let functions (t : t) : fn list =
    Hashtbl.fold (fun _ f acc -> f :: acc) t.fns []
    |> List.sort (fun a b ->
           match Int64.compare b.pf_cycles a.pf_cycles with
           | 0 -> Int64.compare a.pf_base b.pf_base
           | c -> c)

  let edge_list (t : t) : ((int64 * int64) * int64) list =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.edges []
    |> List.sort (fun ((a1, a2), ca) ((b1, b2), cb) ->
           match Int64.compare cb ca with
           | 0 -> compare (a1, a2) (b1, b2)
           | c -> c)

  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: xs -> x :: take (n - 1) xs

  (** The [--profile] report: a flat top-N by attributed cycles, then the
      top-N caller/callee edges.  [name_of] renders a function base for
      the edge table.  Deterministic: fixed sort orders and formats. *)
  let report ?(top = 20) ~(name_of : int64 -> string) (t : t) : string =
    let b = Buffer.create 1024 in
    let fns = functions t in
    let total =
      List.fold_left (fun a f -> Int64.add a f.pf_cycles) 0L fns
    in
    Buffer.add_string b
      (Printf.sprintf
         "==vgscope== guest profile: %d functions, %Ld attributed cycles\n"
         (List.length fns) total);
    Buffer.add_string b
      (Printf.sprintf "%14s %6s %10s %8s  %s\n" "cycles" "%" "blocks"
         "calls" "function");
    (* per-core attribution column, shown once any cycles landed off
       core 0 (single-core profiles keep the classic layout) *)
    let multicore =
      List.exists
        (fun f -> List.exists (fun (c, _) -> c <> 0) f.pf_core_cycles)
        fns
    in
    List.iter
      (fun f ->
        let pct =
          if total = 0L then 0.0
          else 100.0 *. Int64.to_float f.pf_cycles /. Int64.to_float total
        in
        let cores =
          if not multicore then ""
          else
            Printf.sprintf "  [%s]"
              (String.concat " "
                 (List.map
                    (fun (c, cy) -> Printf.sprintf "c%d:%Ld" c cy)
                    f.pf_core_cycles))
        in
        Buffer.add_string b
          (Printf.sprintf "%14Ld %5.1f%% %10Ld %8Ld  %s%s\n" f.pf_cycles pct
             f.pf_blocks f.pf_calls f.pf_name cores))
      (take top fns);
    let edges = edge_list t in
    Buffer.add_string b
      (Printf.sprintf "==vgscope== call edges: %d distinct\n"
         (List.length edges));
    List.iter
      (fun ((caller, callee), n) ->
        Buffer.add_string b
          (Printf.sprintf "%14Ld  %s -> %s\n" n (name_of caller)
             (name_of callee)))
      (take top edges);
    Buffer.contents b
end
