(** The translation table (paper §3.8): a fixed-size, linear-probe hash
    table from guest address to translation.  When it passes 80% full,
    translations are evicted in chunks, 1/8th of the table at a time,
    using a FIFO policy ("chosen over the more obvious LRU because it is
    simpler and still does a fairly good job").  Translations are also
    evicted when client code is unmapped or discarded by the
    self-modifying-code machinery.

    The table additionally owns the {b chain index} for direct
    translation chaining (§3.9 extension): a reverse map from a resident
    translation's key to every chain slot (in other translations) that
    has been patched to jump straight into it.  The index is sharded by
    the simulated core that performed the patch, so per-core patch
    traffic stays attributable and a core's chains can be audited
    independently; removal paths walk every shard.  The invariant is
    that a patched slot only ever points at a translation currently
    resident in this table; every removal path — FIFO chunk eviction,
    range discard (munmap / discard-translations client request),
    single-key discard (SMC invalidation) and [flush] — unlinks all
    chains into the removed translations first, so a stale jump into
    retired code can never be followed.

    {b Epoch-based retirement.}  With N simulated cores, other cores'
    fast-lookup caches and last-exit records may still reference a
    translation the moment it leaves the table, so removal never frees
    eagerly.  Instead every removed translation is marked dead
    ([t_dead]) and pushed onto an epoch-tagged {b retire list}; readers
    treat a dead translation as a cache miss, and the session drains
    the list at a scheduler epoch boundary — a point where every core
    sits between blocks, the RCU grace period of this simulation —
    only freeing entries whose tag predates the current epoch. *)

type entry = {
  e_key : int64;
  e_trans : Jit.Pipeline.translation;
  e_seq : int;  (** insertion sequence number, for FIFO eviction *)
}

type t = {
  mutable slots : entry option array;
  capacity : int;
  mutable used : int;
  mutable seq : int;
  (* reverse chain index, sharded by patching core: shard[c] maps the
     key of a resident translation to the (source key, slot) pairs core
     [c] patched to jump straight into it *)
  chain_shards : (int64, (int64 * Jit.Pipeline.chain_slot) list) Hashtbl.t array;
  (* structured tracing (wired post-create by the session, like the
     kernel's [now_cycles]): lifecycle events — chain patch/unlink,
     chunk evictions, discards, flushes — timestamped with the
     session's simulated cycle clock *)
  mutable trace : Obs.Trace.t option;
  mutable now : unit -> int64;
  (* epoch-based retirement *)
  mutable epoch : int;  (** advanced at scheduler epoch boundaries *)
  mutable retire_list : (int * entry) list;
      (** (retirement epoch, entry), newest first; every e_trans here is
          marked dead and out of the table, awaiting its grace period *)
  mutable n_retire_freed : int;  (** translations freed after grace *)
  (* statistics *)
  mutable n_inserts : int;
  mutable n_evict_chunks : int;
  mutable n_evicted : int;
  mutable n_discards : int;
  mutable n_chain_links : int;  (** cumulative slots patched *)
  mutable n_chain_unlinks : int;  (** cumulative slots unlinked *)
  mutable live_chains : int;  (** currently-patched slots *)
}

let create ?(capacity = 32768) ?(shards = 1) () =
  let shards = max 1 shards in
  {
    slots = Array.make capacity None;
    capacity;
    used = 0;
    seq = 0;
    chain_shards = Array.init shards (fun _ -> Hashtbl.create 1024);
    trace = None;
    now = (fun () -> 0L);
    epoch = 0;
    retire_list = [];
    n_retire_freed = 0;
    n_inserts = 0;
    n_evict_chunks = 0;
    n_evicted = 0;
    n_discards = 0;
    n_chain_links = 0;
    n_chain_unlinks = 0;
    live_chains = 0;
  }

(** Attach a trace sink and a cycle clock (the session calls this right
    after [create], mirroring [Kernel.now_cycles]). *)
let set_observer t ~(trace : Obs.Trace.t option) ~(now : unit -> int64) =
  t.trace <- trace;
  t.now <- now

let tev t ~name ?(args = []) () =
  match t.trace with
  | None -> ()
  | Some tr -> Obs.Trace.emit tr ~ts:(t.now ()) ~cat:"cache" ~name ~args ()

let hash t (key : int64) =
  (* fibonacci hashing of the low word *)
  let h = Int64.mul key 0x9E3779B97F4A7C15L in
  Int64.to_int (Int64.shift_right_logical h 40) mod t.capacity

let find (t : t) (key : int64) : Jit.Pipeline.translation option =
  let rec probe i n =
    if n > t.capacity then None
    else
      match t.slots.(i) with
      | None -> None
      | Some e when e.e_key = key -> Some e.e_trans
      | Some _ -> probe ((i + 1) mod t.capacity) (n + 1)
  in
  probe (hash t key) 0

(* ------------------------------------------------------------------ *)
(* Chaining                                                             *)
(* ------------------------------------------------------------------ *)

(* [tr] is the live translation for [key] (physical equality: a
   retranslation under the same key is a different residency). *)
let resident t (key : int64) (tr : Jit.Pipeline.translation) : bool =
  match find t key with Some tr' -> tr' == tr | None -> false

(** Patch [slot] (an exit site of resident translation [src]) to
    transfer straight to [dst], registering the chain in [core]'s shard
    of the reverse index.  Refuses — returning [false] — if the slot is
    already patched or if either end is not resident (a translation
    evicted from the table must not become a chain target: nothing
    would ever unlink it). *)
let link ?(core = 0) (t : t) ~(src : Jit.Pipeline.translation)
    ~(slot : Jit.Pipeline.chain_slot) ~(dst : Jit.Pipeline.translation) :
    bool =
  if
    slot.cs_next <> None
    || (not (resident t src.t_guest_addr src))
    || not (resident t dst.t_guest_addr dst)
  then false
  else begin
    slot.cs_next <- Some dst;
    let shard = t.chain_shards.(core mod Array.length t.chain_shards) in
    let key = dst.t_guest_addr in
    let prev = Option.value ~default:[] (Hashtbl.find_opt shard key) in
    Hashtbl.replace shard key ((src.t_guest_addr, slot) :: prev);
    t.n_chain_links <- t.n_chain_links + 1;
    t.live_chains <- t.live_chains + 1;
    tev t ~name:"chain_patch"
      ~args:
        [ ("src", Obs.Trace.I src.t_guest_addr);
          ("dst", Obs.Trace.I dst.t_guest_addr) ]
      ();
    true
  end

let unlink_slot t (slot : Jit.Pipeline.chain_slot) =
  if slot.cs_next <> None then begin
    slot.cs_next <- None;
    t.n_chain_unlinks <- t.n_chain_unlinks + 1;
    t.live_chains <- t.live_chains - 1;
    tev t ~name:"chain_unlink"
      ~args:[ ("target", Obs.Trace.I slot.cs_target) ]
      ()
  end

(* Unlink every chain jumping INTO [key] (its translation is being
   removed), across every core's shard. *)
let unlink_into t (key : int64) =
  Array.iter
    (fun shard ->
      match Hashtbl.find_opt shard key with
      | None -> ()
      | Some pairs ->
          List.iter (fun (_, slot) -> unlink_slot t slot) pairs;
          Hashtbl.remove shard key)
    t.chain_shards

(* Drop reverse-index records whose SOURCE translation is being removed:
   the slot dies with its owner, so the chain it carried is gone too. *)
let purge_sources t (dropped : (int64, unit) Hashtbl.t) =
  Array.iter
    (fun shard ->
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) shard [] in
      List.iter
        (fun k ->
          match Hashtbl.find_opt shard k with
          | None -> ()
          | Some pairs ->
              let keep, drop =
                List.partition
                  (fun (src, _) -> not (Hashtbl.mem dropped src))
                  pairs
              in
              if drop <> [] then begin
                List.iter (fun (_, slot) -> unlink_slot t slot) drop;
                if keep = [] then Hashtbl.remove shard k
                else Hashtbl.replace shard k keep
              end)
        keys)
    t.chain_shards

(* Chain maintenance for a batch of removed entries — unlink everything
   into them, then purge chains owned by them — and push them onto the
   epoch-tagged retire list.  Chains are unlinked *eagerly* (a patched
   [cs_next] must never point at a dead translation) but the
   translations themselves stay allocated until the grace period
   expires: another core's fast-lookup cache or last-exit record may
   still hold them, and the [t_dead] mark is what turns those stale
   references into misses. *)
let on_removed t (removed : entry list) =
  if removed <> [] then begin
    let dropped = Hashtbl.create (List.length removed) in
    List.iter (fun e -> Hashtbl.replace dropped e.e_key ()) removed;
    Hashtbl.iter (fun k () -> unlink_into t k) dropped;
    purge_sources t dropped;
    List.iter
      (fun e ->
        e.e_trans.Jit.Pipeline.t_dead <- true;
        t.retire_list <- (t.epoch, e) :: t.retire_list)
      removed
  end

let retire_pending t = List.length t.retire_list

(** Advance the table's epoch at a scheduler epoch boundary (every core
    between blocks).  Entries retired in a {e previous} epoch have had a
    full grace period — no core can have picked up a new reference since
    they were marked dead — and are freed; entries retired in the
    current epoch are kept one more round.  Returns the freed
    translations so the session can purge any per-core cache slots still
    naming them.  [delay] (a chaos fault point) keeps everything one
    extra epoch. *)
let advance_epoch ?(delay = false) (t : t) : Jit.Pipeline.translation list =
  let freed, kept =
    if delay then ([], t.retire_list)
    else List.partition (fun (ep, _) -> ep < t.epoch) t.retire_list
  in
  t.retire_list <- kept;
  t.epoch <- t.epoch + 1;
  if freed <> [] then begin
    t.n_retire_freed <- t.n_retire_freed + List.length freed;
    tev t ~name:"retire_free"
      ~args:
        [ ("freed", Obs.Trace.I (Int64.of_int (List.length freed)));
          ("epoch", Obs.Trace.I (Int64.of_int t.epoch)) ]
      ()
  end;
  List.map (fun (_, e) -> e.e_trans) freed

(* ------------------------------------------------------------------ *)
(* Insertion and removal                                                *)
(* ------------------------------------------------------------------ *)

(* Rebuild the table from a list of entries (preserving seq). *)
let rebuild t (entries : entry list) =
  t.slots <- Array.make t.capacity None;
  t.used <- 0;
  List.iter
    (fun e ->
      let rec probe i =
        match t.slots.(i) with
        | None ->
            t.slots.(i) <- Some e;
            t.used <- t.used + 1
        | Some _ -> probe ((i + 1) mod t.capacity)
      in
      probe (hash t e.e_key))
    entries

let all_entries t =
  Array.to_list t.slots |> List.filter_map Fun.id

(* FIFO chunk eviction: drop the oldest 1/8th of the live entries. *)
let evict_chunk t =
  let entries =
    all_entries t |> List.sort (fun a b -> compare a.e_seq b.e_seq)
  in
  let n_drop = max 1 (t.capacity / 8) in
  let rec split n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | e :: rest -> split (n - 1) (e :: acc) rest
  in
  let dropped, kept = split n_drop [] entries in
  t.n_evict_chunks <- t.n_evict_chunks + 1;
  t.n_evicted <- t.n_evicted + List.length dropped;
  tev t ~name:"evict_chunk"
    ~args:[ ("dropped", Obs.Trace.I (Int64.of_int (List.length dropped))) ]
    ();
  on_removed t dropped;
  rebuild t kept

let insert (t : t) (key : int64) (trans : Jit.Pipeline.translation) =
  if t.used * 10 >= t.capacity * 8 then evict_chunk t;
  t.n_inserts <- t.n_inserts + 1;
  t.seq <- t.seq + 1;
  trans.Jit.Pipeline.t_epoch <- t.epoch;
  let e = { e_key = key; e_trans = trans; e_seq = t.seq } in
  let rec probe i =
    match t.slots.(i) with
    | None ->
        t.slots.(i) <- Some e;
        t.used <- t.used + 1
    | Some old when old.e_key = key ->
        (* replacing a resident translation: chains into the old one
           must not survive onto the new one *)
        on_removed t [ old ];
        t.slots.(i) <- Some e
    | Some _ -> probe ((i + 1) mod t.capacity)
  in
  probe (hash t key)

(** Discard translations whose covered guest ranges intersect
    [addr, addr+len) — used by munmap and the discard client request
    (§3.8, §3.16).  Unlinks every chain into (and out of) the discarded
    translations.  Returns how many were discarded. *)
let discard_range (t : t) (addr : int64) (len : int) : int =
  let hi = Int64.add addr (Int64.of_int len) in
  let intersects (a, l) =
    let ahi = Int64.add a (Int64.of_int l) in
    Int64.unsigned_compare a hi < 0 && Int64.unsigned_compare addr ahi < 0
  in
  let keep, drop =
    List.partition
      (fun e -> not (List.exists intersects e.e_trans.Jit.Pipeline.t_guest_ranges))
      (all_entries t)
  in
  let n = List.length drop in
  if n > 0 then begin
    t.n_discards <- t.n_discards + n;
    tev t ~name:"discard_range"
      ~args:
        [ ("addr", Obs.Trace.I addr); ("len", Obs.Trace.I (Int64.of_int len));
          ("dropped", Obs.Trace.I (Int64.of_int n)) ]
      ();
    on_removed t drop;
    rebuild t keep
  end;
  n

(** Discard a single entry by key (SMC retranslation), unlinking every
    chain that jumps into it. *)
let discard_key (t : t) (key : int64) =
  let keep, drop =
    List.partition (fun e -> e.e_key <> key) (all_entries t)
  in
  t.n_discards <- t.n_discards + 1;
  tev t ~name:"discard_key" ~args:[ ("key", Obs.Trace.I key) ] ();
  on_removed t drop;
  rebuild t keep

(** Empty the table completely, unlinking every chain and retiring every
    resident translation (cumulative counters are preserved). *)
let flush (t : t) =
  tev t ~name:"flush"
    ~args:[ ("resident", Obs.Trace.I (Int64.of_int t.used)) ]
    ();
  let resident = all_entries t in
  Array.iter
    (fun shard ->
      Hashtbl.iter
        (fun _ pairs -> List.iter (fun (_, slot) -> unlink_slot t slot) pairs)
        shard;
      Hashtbl.reset shard)
    t.chain_shards;
  t.live_chains <- 0;
  t.slots <- Array.make t.capacity None;
  t.used <- 0;
  (* chains are already down and the table is empty: just mark and
     push (on_removed would redo the unlink walk per entry) *)
  List.iter
    (fun e ->
      e.e_trans.Jit.Pipeline.t_dead <- true;
      t.retire_list <- (t.epoch, e) :: t.retire_list)
    resident

let occupancy t = float_of_int t.used /. float_of_int t.capacity

(** Is [pc] a constituent of some resident superblock?  Trace formation
    refuses to re-cover such blocks: the per-block translations of a hot
    loop stay resident for side-exit fallback and their exits keep
    getting hotter, so without this guard every block of an
    already-stitched loop would eventually head its own overlapping
    superblock of the same region, re-paying the optimizing pipeline for
    code that is already covered. *)
let covered_by_super (t : t) (pc : int64) : bool =
  Array.exists
    (function
      | Some e ->
          e.e_trans.Jit.Pipeline.t_tier = Jit.Pipeline.Tier_super
          && List.mem pc e.e_trans.Jit.Pipeline.t_constituents
      | None -> false)
    t.slots

(* ------------------------------------------------------------------ *)
(* Observability                                                        *)
(* ------------------------------------------------------------------ *)

(** Resident translations ordered by execution hotness (desc), ties by
    guest address — the per-translation metadata view ([--profile]'s
    "hot translations" table): hotness, code bytes, IR statement counts
    pre/post instrumentation, and translation cycles all live on the
    {!Jit.Pipeline.translation} record. *)
let hottest (t : t) (n : int) : Jit.Pipeline.translation list =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: xs -> x :: take (n - 1) xs
  in
  all_entries t
  |> List.map (fun e -> e.e_trans)
  |> List.sort (fun (a : Jit.Pipeline.translation) (b : Jit.Pipeline.translation) ->
         match Int.compare b.t_hotness a.t_hotness with
         | 0 -> Int64.compare a.t_guest_addr b.t_guest_addr
         | c -> c)
  |> take n

(** Publish the table's live counters into a metrics registry as probes
    over its own mutable fields. *)
let publish (r : Obs.Registry.t) (t : t) =
  let pi name f = Obs.Registry.probe r name (fun () -> Int64.of_int (f ())) in
  pi "transtab.used" (fun () -> t.used);
  pi "transtab.inserts" (fun () -> t.n_inserts);
  pi "transtab.evict_chunks" (fun () -> t.n_evict_chunks);
  pi "transtab.evicted" (fun () -> t.n_evicted);
  pi "transtab.discards" (fun () -> t.n_discards);
  pi "transtab.chain_links" (fun () -> t.n_chain_links);
  pi "transtab.chain_unlinks" (fun () -> t.n_chain_unlinks);
  pi "transtab.chain_live" (fun () -> t.live_chains);
  pi "transtab.epoch" (fun () -> t.epoch);
  pi "transtab.retired" (fun () -> t.n_retire_freed + retire_pending t);
  pi "transtab.retire_freed" (fun () -> t.n_retire_freed);
  pi "transtab.retire_pending" (fun () -> retire_pending t);
  Obs.Registry.fprobe r "transtab.occupancy" (fun () -> occupancy t)
