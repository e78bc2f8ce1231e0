(** One simulated core: the per-core half of the execution engine,
    extracted from {!Session} so N cores can interleave under one
    scheduler (the sharded replacement for the paper's §3.14 big lock).

    Each core owns everything that was per-"the" core before:

    - a host interpreter CPU (its guest cycle and instruction clocks),
    - a private {!Dispatch} fast-lookup cache,
    - its own overhead / JIT / SMC cycle accounting,
    - the last chainable exit it left a block through, and
    - a small dispatch-trace ring for crash contexts.

    The scheduler interleaves cores on their {!clock}s — lowest clock
    steps next, ties broken by core id — so execution is a pure function
    of the workload and [--cores N]: bit-identical replay, no wall-clock
    anywhere.  A core that sits idle (no runnable thread) and is later
    handed one is fast-forwarded by padding [idle_cycles], so its clock
    models "this core was waiting", not free time travel. *)

type t = {
  id : int;
  cpu : Host.Interp.cpu;  (** guest execution clock (shared memory) *)
  dispatch : Dispatch.t;  (** private fast-lookup cache *)
  mutable overhead_cycles : int;  (** dispatch + scheduler + chain *)
  mutable jit_cycles : int64;  (** translations this core requested *)
  mutable smc_cycles : int64;
  mutable idle_cycles : int64;
      (** padding applied when the core picks up its first runnable
          thread: a core cannot execute before the work existed *)
  mutable blocks_executed : int;
  mutable chained_transfers : int;
  mutable handoffs : int64;  (** thread switches performed on this core *)
  mutable last_slot : Jit.Pipeline.chain_slot option;
      (** the chainable exit site the previous block on this core left
          through, if any: the [Some] is the one its translation's
          [t_exit_index] holds, so recording it allocates nothing *)
  mutable last_src : Jit.Pipeline.translation;
      (** the translation that owns [last_slot]; meaningless while
          [last_slot] is [None] *)
  dispatch_trace : int64 array;  (** last-N dispatched block addresses *)
  mutable dispatch_trace_n : int;  (** total blocks recorded *)
}

(* [last_src] of a core whose blocks have not yet left through a
   chainable exit.  Never executed, looked up or linked. *)
let no_translation : Jit.Pipeline.translation =
  {
    t_guest_addr = 0L;
    t_code = Bytes.empty;
    t_decoded = [||];
    t_guest_insns = 0;
    t_guest_bytes = 0;
    t_guest_ranges = [];
    t_smc_check = false;
    t_code_hash = 0L;
    t_ir_stmts_pre = 0;
    t_ir_stmts_post = 0;
    t_exits = [||];
    t_exit_index = [||];
    t_phase_cycles = [||];
    t_tier = Jit.Pipeline.Tier_quick;
    t_constituents = [];
    t_hotness = 0;
    t_no_promote = true;
    t_dead = true;
    t_epoch = 0;
    t_core = 0;
  }

let create ~(id : int) ~(mem : Aspace.t) ~(dispatch_size : int)
    ~(fast_cost : int) ~(slow_cost : int) : t =
  {
    id;
    cpu = Host.Interp.create mem;
    dispatch = Dispatch.create ~size:dispatch_size ~fast_cost ~slow_cost ();
    overhead_cycles = 0;
    jit_cycles = 0L;
    smc_cycles = 0L;
    idle_cycles = 0L;
    blocks_executed = 0;
    chained_transfers = 0;
    handoffs = 0L;
    last_slot = None;
    last_src = no_translation;
    dispatch_trace = Array.make 16 0L;
    dispatch_trace_n = 0;
  }

(** Cycles of actual work this core has performed. *)
let work_cycles (e : t) : int64 =
  Int64.add
    (Int64.add e.cpu.cycles (Int64.of_int e.overhead_cycles))
    (Int64.add e.jit_cycles e.smc_cycles)

(** The core's scheduling clock: work plus idle padding.  This is the
    value the round-robin scheduler compares (and what "wall time up to
    now" means for this core). *)
let clock (e : t) : int64 = Int64.add (work_cycles e) e.idle_cycles

let charge (e : t) (c : int) = e.overhead_cycles <- e.overhead_cycles + c

(** Fast-forward an idle core to [now] (it just received its first
    runnable thread; its clock must not lag behind the creation). *)
let fast_forward (e : t) ~(now : int64) =
  let c = clock e in
  if Int64.compare c now < 0 then
    e.idle_cycles <- Int64.add e.idle_cycles (Int64.sub now c)

(** Record a dispatched block address in the crash-context ring. *)
let trace_block (e : t) (pc : int64) =
  e.dispatch_trace.(e.dispatch_trace_n mod Array.length e.dispatch_trace) <- pc;
  e.dispatch_trace_n <- e.dispatch_trace_n + 1

(** The ring's contents, oldest first. *)
let recent_blocks (e : t) : int64 list =
  let n = Array.length e.dispatch_trace in
  let count = min e.dispatch_trace_n n in
  List.init count (fun i ->
      e.dispatch_trace.((e.dispatch_trace_n - count + i) mod n))

(** Publish this core's counters under [sched.core<i>.*] — the per-core
    view the aggregate [core.*] probes sum over. *)
let publish (r : Obs.Registry.t) (e : t) =
  let p = Printf.sprintf "sched.core%d." e.id in
  let pL name f = Obs.Registry.probe r (p ^ name) f in
  let pi name f = pL name (fun () -> Int64.of_int (f ())) in
  pi "blocks" (fun () -> e.blocks_executed);
  pL "host_cycles" (fun () -> e.cpu.cycles);
  pL "host_insns" (fun () -> e.cpu.insns);
  pi "overhead_cycles" (fun () -> e.overhead_cycles);
  pL "jit_cycles" (fun () -> e.jit_cycles);
  pL "smc_cycles" (fun () -> e.smc_cycles);
  pL "idle_cycles" (fun () -> e.idle_cycles);
  pL "clock" (fun () -> clock e);
  pi "chained_transfers" (fun () -> e.chained_transfers);
  pL "handoffs" (fun () -> e.handoffs);
  Dispatch.publish ~prefix:p r e.dispatch
