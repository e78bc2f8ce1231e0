(** The tool plug-in interface (paper §3.1: "Valgrind core + tool plug-in
    = Valgrind tool").

    A tool is a value of type {!t}: a name and a [create] function the
    core calls at start-up with the capabilities record {!caps}.  The
    tool registers event callbacks, installs function replacements, and
    returns an {!instance}: [instrument] is phase 3 of the JIT, [fini]
    runs at client exit and [client_request] answers the tool's own
    client requests.  That is the whole interface.  A tool writes no
    save/restore code for its state: time travel re-executes a fresh
    session from the replay log, so an instance is only ever built, run
    and finished. *)

(** Capabilities the core hands to a tool at initialisation. *)
type caps = {
  events : Events.t;  (** register Table-1 event callbacks here *)
  errors : Errors.t;  (** error recording/dedup/suppressions *)
  mem : Aspace.t;  (** the shared address space (client + tool) *)
  output : string -> unit;  (** R9 side-channel output *)
  read_guest : int -> int -> int64;
      (** [read_guest off size]: current thread's guest state *)
  write_guest : int -> int -> int64 -> unit;
  cur_eip : unit -> int64;  (** guest PC of the current thread *)
  cur_tid : unit -> int;  (** id of the current (executing) thread *)
  stack_trace : unit -> int64 list;  (** current thread, innermost first *)
  symbolize : int64 -> string;  (** address -> symbol+offset *)
  client_alloc : int -> int64;
      (** allocate client-space memory from the core allocator (for
          replacement heap allocators); returns the base address, or 0
          when the arena has no room left *)
  client_free : int64 -> int -> unit;
      (** [client_free base size] gives back a region [client_alloc size]
          returned; the core hands it out again only once the arena's
          untouched space cannot satisfy a request *)
  replace_function :
    symbol:string -> handler:(unit -> unit) -> unit;
      (** install a replacement: guest calls to [symbol] trap to
          [handler], which reads arguments from the guest stack via
          [read_guest]/[mem] and writes the result to r0 *)
  wrap_function :
    symbol:string -> on_enter:(unit -> unit) -> on_exit:(unit -> unit) -> unit;
      (** function wrapping: inspect arguments before and the return
          value after, with the original still executed *)
  charge_cycles : int -> unit;
      (** account simulated cycles for work done inside an OCaml-side
          handler (e.g. a replacement allocator's bookkeeping) so tool
          slow-down factors stay honest *)
  register_helper :
    ?fx_reads:(int * int) list ->
    name:string ->
    cost:int ->
    nargs:int ->
    (int64 array -> int64) ->
    Vex_ir.Ir.callee;
      (** register a tool helper callable from instrumented IR.
          [fx_reads] declares guest-state (offset, size) ranges the
          helper reads — e.g. the PC for error reporting — so the
          optimiser keeps those PUTs live (the paper's RdFX-gst
          annotations) *)
}

(** What a tool gives back to the core. *)
type instance = {
  instrument : Vex_ir.Ir.block -> Vex_ir.Ir.block;  (** phase 3 *)
  fini : exit_code:int -> unit;  (** called at client exit *)
  client_request : code:int64 -> args:int64 array -> int64 option;
      (** tool-specific client requests; [None] = not handled.
          [args] is the argument block (up to 4 words) read for you. *)
}

type t = {
  name : string;
  description : string;
  shadow_ranges : (int * int) list;
      (** guest-state [(offset, size)] ranges this tool uses for shadow
          state (§3.4).  The phase-3 verifier lints every instrumented
          block against this declaration: a PUT at or above
          [Guest.Arch.shadow_offset] outside these ranges is flagged. *)
  create : caps -> instance;
}

(** The null tool: no instrumentation, no events — measures the cost of
    the core itself (Table 2's "Nulgrind" column). *)
let nulgrind : t =
  {
    name = "nulgrind";
    description = "the null tool; adds no analysis code";
    shadow_ranges = [];
    create =
      (fun _caps ->
        {
          instrument = (fun b -> b);
          fini = (fun ~exit_code:_ -> ());
          client_request = (fun ~code:_ ~args:_ -> None);
        });
  }
