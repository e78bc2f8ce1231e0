(** The dispatcher's direct-mapped fast-lookup cache (paper §3.9).

    "The dispatcher looks for the appropriate translation in a small
    direct-mapped cache which holds addresses of recently-used
    translations.  If that look-up succeeds (the hit-rate is around 98%),
    the translation is executed immediately.  This fast case takes only
    fourteen instructions on x86."  Misses fall back to the scheduler,
    which searches the full translation table (and translates on a
    complete miss).

    Cycle costs are modelled explicitly so the Table-2 and §3.9
    experiments can reproduce the paper's dispatch-cost arguments
    (including the Strata footnote: a ~250-cycle dispatch gives a 22x
    basic slow-down; Valgrind's 14-instruction dispatcher is why its
    no-chaining slow-down is only ~4.3x).

    With translation chaining enabled (the default; see
    {!Transtab.link}), most block boundaries never enter the dispatcher
    at all: the predecessor's exit site is patched on the first warm
    lookup and subsequent transfers bypass this cache entirely.  The
    [entries] count therefore measures exactly what chaining saves.

    Each simulated core owns one of these caches.  Invalidation is
    {e lazy}: the translation table retires translations by marking
    them dead ([Jit.Pipeline.t_dead]) instead of broadcasting a flush
    to every core, and a hit on a dead translation counts — and
    behaves — as a miss.  The session additionally sweeps dead entries
    out at scheduler epoch boundaries ({!purge_dead}), the moment the
    retire list is actually freed. *)

type t = {
  keys : int64 array;
  values : Jit.Pipeline.translation option array;
  size : int;
  mutable hits : int64;
  mutable misses : int64;
  (* model parameters *)
  mutable fast_cost : int;  (** cycles per fast-path lookup (14) *)
  mutable slow_cost : int;  (** cycles to fall back into the scheduler *)
}

let default_fast_cost = 14
let default_slow_cost = 250

let create ?(size = 8192) ?(fast_cost = default_fast_cost)
    ?(slow_cost = default_slow_cost) () =
  {
    keys = Array.make size Int64.minus_one;
    values = Array.make size None;
    size;
    hits = 0L;
    misses = 0L;
    fast_cost;
    slow_cost;
  }

let slot t key = Int64.to_int (Int64.unsigned_rem key (Int64.of_int t.size))

(** Fast lookup. Some = hit (charge [fast_cost]); None = fall back to the
    scheduler (charge [fast_cost + slow_cost]).  A slot holding a dead
    (retired) translation is a miss: the entry is dropped and the caller
    refills it from the translation table, which is how a core notices
    retirement without any cross-core flush. *)
let lookup (t : t) (key : int64) : Jit.Pipeline.translation option =
  let i = slot t key in
  match (if t.keys.(i) = key then t.values.(i) else None) with
  | Some tr as hit when not tr.Jit.Pipeline.t_dead ->
      t.hits <- Int64.add t.hits 1L;
      hit
  | Some _ ->
      (* stale: retired since it was cached here *)
      t.keys.(i) <- Int64.minus_one;
      t.values.(i) <- None;
      t.misses <- Int64.add t.misses 1L;
      None
  | None ->
      t.misses <- Int64.add t.misses 1L;
      None

let update (t : t) (key : int64) (v : Jit.Pipeline.translation) =
  let i = slot t key in
  t.keys.(i) <- key;
  t.values.(i) <- Some v

(** Drop everything (forced cache pressure / chaos flush). *)
let flush (t : t) =
  Array.fill t.keys 0 t.size Int64.minus_one;
  Array.fill t.values 0 t.size None

(** Sweep out entries whose translation has been retired.  Called by the
    session when the transtab's retire list is freed at an epoch
    boundary, so no cache slot outlives the translation it names.
    Bookkeeping only: charges no simulated cycles. *)
let purge_dead (t : t) =
  for i = 0 to t.size - 1 do
    match t.values.(i) with
    | Some tr when tr.Jit.Pipeline.t_dead ->
        t.keys.(i) <- Int64.minus_one;
        t.values.(i) <- None
    | _ -> ()
  done

(** Total dispatcher entries (every [lookup], hit or miss).  Chained
    transfers bypass the dispatcher and are not counted here. *)
let entries t = Int64.add t.hits t.misses

(** [hits] per entry, total over all states: a dispatcher that has never
    been entered has a hit rate of 0.0 (not 1.0, and never NaN — this
    value flows into the JSON export unguarded).  The session's
    aggregate over every core's cache divides here too. *)
let ratio ~(hits : int64) ~(entries : int64) : float =
  if entries = 0L then 0.0 else Int64.to_float hits /. Int64.to_float entries

let hit_rate t = ratio ~hits:t.hits ~entries:(entries t)

(** Publish this dispatcher's live counters into a metrics registry as
    probes over its own mutable fields.  [prefix] namespaces the metrics
    (per-core caches publish under their core's prefix). *)
let publish ?(prefix = "") (r : Obs.Registry.t) (t : t) =
  Obs.Registry.probe r (prefix ^ "dispatch.hits") (fun () -> t.hits);
  Obs.Registry.probe r (prefix ^ "dispatch.misses") (fun () -> t.misses);
  Obs.Registry.probe r (prefix ^ "dispatch.entries") (fun () -> entries t);
  Obs.Registry.fprobe r (prefix ^ "dispatch.hit_rate") (fun () -> hit_rate t)
