(** Vgchaos: seeded deterministic fault injection.

    The paper's core promise (§3.2, §3.9, §3.12) is that Valgrind stays
    in control {e no matter what happens}: bad instructions become
    signals, syscalls fail and are retried or surfaced, translations can
    be dropped at any moment.  The simulated kernel and JIT are normally
    infallible, so none of those recovery paths would ever run.  This
    module makes them run: a session configured with a [Chaos.t]
    experiences transient syscall errors, short reads/writes, address-
    space mapping denials, forced translation failures at any of the
    eight JIT phase boundaries, and forced code-cache flushes — all
    drawn from a single splitmix64 stream, so a given seed reproduces
    the exact same fault schedule, injection for injection.

    Decision functions consume randomness {e only} at eligible points
    (e.g. a [read] syscall, a translation request), which is what makes
    replay exact: the nth eligible point always sees the nth draw.

    Every injected fault is recorded in an append-only log ({!log_lines})
    used by the oracle's [chaos] set to assert bit-identical reruns per
    seed. *)

open Support

(** Injection probabilities, all in [0, 1].  A probability of zero
    disables that injection point without consuming randomness. *)
type config = {
  seed : int;
  p_eintr : float;  (** EINTR on restartable syscalls (read, nanosleep) *)
  p_errno : float;  (** client-visible transient errno on read/write *)
  p_short : float;  (** short read/write (length clamped) *)
  p_map_denial : float;  (** transient mmap/mremap placement denial *)
  p_translation_failure : float;  (** forced [Translation_failure] *)
  force_phase : int option;
      (** pin forced translation failures to one phase (1..8); [None]
          draws the phase uniformly per failure *)
  p_flush : float;  (** forced full code-cache flush, between blocks *)
  p_handoff_stall : float;
      (** stall cycles charged when the scheduler hands execution to a
          different core (models cross-core migration cost under
          contention); deterministic, so it perturbs the multi-core
          interleaving without breaking replay *)
  p_retire_delay : float;
      (** hold the transtab's retire list one extra epoch at an epoch
          boundary (stresses the grace-period machinery: dead
          translations stay referenced-but-unfreed longer) *)
  max_injections : int;  (** stop injecting after this many (0 = no cap) *)
}

(** Faults whose recovery is transparent to the client: EINTR on
    restartable syscalls (the wrapper restarts them), mapping denials
    (the wrapper retries with backoff, and denials are capped below the
    retry budget), translation failures (the block runs interpreted) and
    cache flushes (blocks retranslate).  A run under this schedule must
    produce output identical to the fault-free run. *)
let idempotent ~seed =
  {
    seed;
    p_eintr = 0.25;
    p_errno = 0.0;
    p_short = 0.0;
    p_map_denial = 0.3;
    p_translation_failure = 0.05;
    force_phase = None;
    p_flush = 0.002;
    p_handoff_stall = 0.0;
    p_retire_delay = 0.0;
    max_injections = 0;
  }

(** Everything in {!idempotent} plus client-visible faults: transient
    errnos and short reads/writes the client must cope with.  Output
    equivalence is not guaranteed — only survival and exact replay. *)
let hostile ~seed =
  {
    seed;
    p_eintr = 0.2;
    p_errno = 0.1;
    p_short = 0.15;
    p_map_denial = 0.3;
    p_translation_failure = 0.08;
    force_phase = None;
    p_flush = 0.003;
    p_handoff_stall = 0.0;
    p_retire_delay = 0.0;
    max_injections = 0;
  }

(** {!hostile} plus the multi-core fault points: core-handoff stalls
    and epoch-retirement delays.  Meaningful with [--cores >= 2] (a
    single core never hands off); stalls reshape the deterministic
    interleaving, delays stretch the transtab grace period.  Replay
    stays exact per seed. *)
let sharded ~seed =
  {
    (hostile ~seed) with
    p_handoff_stall = 0.05;
    p_retire_delay = 0.25;
  }

type t = {
  cfg : config;
  rng : Rng.t;
  mutable log : string list;  (** injections, newest first *)
  mutable n_injected : int;
  mutable consec_map_denials : int;
  mutable recoveries : (string * int) list;
      (** recovery-path activations observed by the core, by kind *)
  mutable sink : (kind:string -> detail:string -> unit) option;
      (** observer notified of every injection (the session wires this
          to its trace ring; a closure so chaos stays obs-free) *)
}

let create (cfg : config) : t =
  {
    cfg;
    rng = Rng.create cfg.seed;
    log = [];
    n_injected = 0;
    consec_map_denials = 0;
    recoveries = [];
    sink = None;
  }

(** Install an injection observer (at most one; the session uses it to
    mirror the fault log into its structured trace). *)
let set_sink t (f : kind:string -> detail:string -> unit) = t.sink <- Some f

let seed t = t.cfg.seed
let n_injected t = t.n_injected

(** The fault log, oldest first: one line per injection, fully
    deterministic for a given seed and execution path. *)
let log_lines t : string list = List.rev t.log

let budget_ok t =
  t.cfg.max_injections = 0 || t.n_injected < t.cfg.max_injections

let inject t kind detail =
  t.n_injected <- t.n_injected + 1;
  t.log <- Printf.sprintf "chaos[%d] %s: %s" t.n_injected kind detail :: t.log;
  match t.sink with Some f -> f ~kind ~detail | None -> ()

(* One biased coin flip; never consumes randomness when the injection
   point is disabled (p = 0) or the budget is spent, so turning one
   point off does not shift the draws other points see... it does shift
   them across configs, but within a config the stream is stable. *)
let roll t p = p > 0.0 && budget_ok t && Rng.float t.rng < p

(** The core reports each recovery-path activation here, so drivers can
    assert faults were actually survived (not merely never injected).
    A session without a schedule passes [None]: nothing is counted. *)
let note_recovery (t : t option) kind =
  match t with
  | Some t ->
      t.recoveries <-
        (match List.assoc_opt kind t.recoveries with
        | Some n -> (kind, n + 1) :: List.remove_assoc kind t.recoveries
        | None -> (kind, 1) :: t.recoveries)
  | None -> ()

let recoveries t = t.recoveries

(* ------------------------------------------------------------------ *)
(* Injection points                                                     *)
(* ------------------------------------------------------------------ *)

(** A fault to apply to one syscall invocation. *)
type fault =
  | Errno of int  (** fail with this errno instead of calling the kernel *)
  | Short_len of int  (** clamp the length argument (short read/write) *)

let restartable num =
  num = Kernel.Num.sys_read || num = Kernel.Num.sys_nanosleep

(** Decide the fate of one syscall invocation.  [len] is the byte count
    argument for read/write (used to pick a short length), 0 otherwise.
    Eligible points: EINTR on read/nanosleep; transient errnos and short
    lengths on read/write. *)
let syscall_fault t ~(num : int) ~(len : int) : fault option =
  let name = Kernel.Num.name num in
  let io = num = Kernel.Num.sys_read || num = Kernel.Num.sys_write in
  if restartable num && roll t t.cfg.p_eintr then begin
    inject t "syscall" (name ^ " -> EINTR");
    Some (Errno Kernel.eintr)
  end
  else if io && roll t t.cfg.p_errno then begin
    let e, en =
      match Rng.int t.rng 2 with
      | 0 -> (Kernel.eagain, "EAGAIN")
      | _ -> (Kernel.enomem, "ENOMEM")
    in
    inject t "syscall" (Printf.sprintf "%s -> %s" name en);
    Some (Errno e)
  end
  else if io && len > 1 && roll t t.cfg.p_short then begin
    let n = 1 + Rng.int t.rng (len - 1) in
    inject t "syscall" (Printf.sprintf "short %s: %d of %d bytes" name n len);
    Some (Short_len n)
  end
  else None

(** Deny this mmap/mremap placement?  Consecutive denials are capped at
    3 — below the wrapper's retry budget of 4 attempts — so an injected
    denial is always transient and recovery always succeeds. *)
let map_denied t ~(addr : int64) ~(len : int) : bool =
  if t.cfg.p_map_denial <= 0.0 || not (budget_ok t) then false
  else if t.consec_map_denials >= 3 then begin
    t.consec_map_denials <- 0;
    false
  end
  else if Rng.float t.rng < t.cfg.p_map_denial then begin
    t.consec_map_denials <- t.consec_map_denials + 1;
    inject t "aspace" (Printf.sprintf "deny mapping of %d bytes at 0x%LX" len addr);
    true
  end
  else begin
    t.consec_map_denials <- 0;
    false
  end

let phase_names =
  [|
    "disassembly"; "optimisation 1"; "instrumentation"; "optimisation 2";
    "tree building"; "instruction selection"; "register allocation";
    "assembly";
  |]

(* A checks record that raises Translation_failure at exactly one of the
   eight phase boundaries and is silent at the other seven. *)
let checks_failing_at (phase : int) : Jit.Pipeline.checks =
  let boom () =
    raise
      (Jit.Pipeline.Translation_failure
         (Printf.sprintf "chaos: forced failure at phase %d (%s)" phase
            phase_names.(phase - 1)))
  in
  {
    Jit.Pipeline.ck_tree = (fun _ -> if phase = 1 then boom ());
    ck_flat = (fun _ -> if phase = 2 then boom ());
    ck_instrumented = (fun ~pre:_ ~post:_ -> if phase = 3 then boom ());
    ck_opt2 = (fun ~pre:_ ~post:_ -> if phase = 4 then boom ());
    ck_treebuilt = (fun ~pre:_ ~post:_ -> if phase = 5 then boom ());
    ck_vcode = (fun _ ~n_int:_ ~n_vec:_ ~n_label:_ -> if phase = 6 then boom ());
    ck_hcode = (fun _ -> if phase = 7 then boom ());
    ck_bytes = (fun ~hcode:_ ~bytes:_ -> if phase = 8 then boom ());
  }

(** Decide whether this translation request fails, and at which phase
    boundary.  Returns the condemned phase (1..8); the record/replay
    log stores this ordinal so a replaying session can rebuild the same
    failing checks without a chaos stream. *)
let translation_fate t ~(pc : int64) : int option =
  if roll t t.cfg.p_translation_failure then begin
    let phase =
      match t.cfg.force_phase with
      | Some p ->
          if p < 1 || p > 8 then invalid_arg "Chaos: force_phase not in 1..8";
          p
      | None -> 1 + Rng.int t.rng 8
    in
    inject t "jit"
      (Printf.sprintf "force Translation_failure at phase %d (%s), pc 0x%LX"
         phase phase_names.(phase - 1) pc);
    Some phase
  end
  else None

(** Force a full code-cache flush before the next block?  (Simulates
    extreme cache pressure: every resident translation and chain is
    dropped at once, §3.8.) *)
let flush_cache t : bool =
  if roll t t.cfg.p_flush then begin
    inject t "cache" "force full translation-table flush";
    true
  end
  else false

(** Stall the scheduler's handoff to [core]?  Eligible point: the
    scheduler picked a different core than the one that stepped last.
    Returns the stall in cycles (charged to the incoming core's
    overhead), drawn from the stream so replay is exact. *)
let handoff_stall t ~(core : int) : int option =
  if roll t t.cfg.p_handoff_stall then begin
    let cycles = 50 + Rng.int t.rng 200 in
    inject t "sched"
      (Printf.sprintf "stall handoff to core %d for %d cycles" core cycles);
    Some cycles
  end
  else None

(** Hold the transtab retire list one extra epoch?  Eligible point: a
    scheduler epoch boundary with retired translations pending. *)
let retire_delay t ~(pending : int) : bool =
  if roll t t.cfg.p_retire_delay then begin
    inject t "cache"
      (Printf.sprintf "delay retirement of %d dead translations" pending);
    true
  end
  else false
