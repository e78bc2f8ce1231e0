(** The translation table (paper §3.8): a fixed-size, linear-probe hash
    table from guest address to translation.  When it passes 80% full,
    translations are evicted in chunks, 1/8th of the table at a time,
    using a FIFO policy ("chosen over the more obvious LRU because it is
    simpler and still does a fairly good job").  Translations are also
    evicted when client code is unmapped or discarded by the
    self-modifying-code machinery.

    {b Removal.}  FIFO chunk eviction, range discard (munmap /
    discard-translations client request) and single-key discard (SMC
    invalidation) all go through [remove_at]: backward-shift deletion
    over the entry's probe run (Knuth's Algorithm R), which leaves every
    resident key reachable from its home slot through occupied slots.
    No tombstones, no rebuild: a single-key discard costs its key's
    probe run and allocates nothing per slot.

    The table additionally owns the {b chain index} for direct
    translation chaining (§3.9 extension): a reverse map from a resident
    translation's key to every chain slot (in other translations) that
    has been patched to jump straight into it.  One host thread
    interleaves every simulated core, so one index serves them all.  The
    invariants: a patched slot only ever points at a translation
    currently resident in this table, and a slot is recorded in the
    index if and only if it is patched — exactly once, under its
    target's key.  So a removal unlinks the chains into its translation
    from the index entry under its own key and the chains out of it from
    its own patched exit slots, and a stale jump into retired code can
    never be followed.

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
  slots : entry option array;
  capacity : int;
  mutable used : int;
  mutable seq : int;
  (* reverse chain index: the key of a resident translation to the
     (owner key, slot) pairs patched to jump straight into it, newest
     first; [slot] is one of the owner's [t_exits] *)
  chains : (int64, (int64 * Jit.Pipeline.chain_slot) list) Hashtbl.t;
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
}

let create ?(capacity = 32768) () =
  {
    slots = Array.make capacity None;
    capacity;
    used = 0;
    seq = 0;
    chains = Hashtbl.create 1024;
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
  }

(** Attach a trace sink and a cycle clock (the session calls this right
    after [create], mirroring [Kernel.now_cycles]). *)
let set_observer t ~(trace : Obs.Trace.t option) ~(now : unit -> int64) =
  t.trace <- trace;
  t.now <- now

(* Callers test [tracing] first, so that no argument list is built
   when no trace is attached. *)
let tracing t = match t.trace with Some _ -> true | None -> false

let tev t ~name ?(args = []) () =
  match t.trace with
  | None -> ()
  | Some tr -> Obs.Trace.emit tr ~ts:(t.now ()) ~cat:"cache" ~name ~args ()

let hash t (key : int64) =
  (* fibonacci hashing of the low word *)
  let h = Int64.mul key 0x9E3779B97F4A7C15L in
  Int64.to_int (Int64.shift_right_logical h 40) mod t.capacity

(* The slot holding [key], probing from slot [i] ([n] slots probed so
   far), or -1. *)
let rec slot_of t (key : int64) i n =
  if n > t.capacity then -1
  else
    match t.slots.(i) with
    | None -> -1
    | Some e when e.e_key = key -> i
    | Some _ -> slot_of t key ((i + 1) mod t.capacity) (n + 1)

let find (t : t) (key : int64) : Jit.Pipeline.translation option =
  match slot_of t key (hash t key) 0 with
  | -1 -> None
  | i -> ( match t.slots.(i) with Some e -> Some e.e_trans | None -> None)

(** Currently patched chain slots: every patch is unlinked at most once. *)
let live_chains t = t.n_chain_links - t.n_chain_unlinks

(* ------------------------------------------------------------------ *)
(* Chaining                                                             *)
(* ------------------------------------------------------------------ *)

(* [tr] is the live translation for [key] (physical equality: a
   retranslation under the same key is a different residency). *)
let resident t (key : int64) (tr : Jit.Pipeline.translation) : bool =
  match slot_of t key (hash t key) 0 with
  | -1 -> false
  | i -> ( match t.slots.(i) with Some e -> e.e_trans == tr | None -> false)

(* Is [slot] one of [exits], from index [i] on? *)
let rec owns (exits : Jit.Pipeline.chain_slot array) slot i =
  i < Array.length exits && (exits.(i) == slot || owns exits slot (i + 1))

(** Patch [slot] (an exit site of resident translation [src]) to
    transfer straight to [dst], registering the chain in the reverse
    index.  Refuses — returning [false] — if the slot is already
    patched, is not one of [src]'s exits (removing [src] could not find
    it), or if either end is not resident (a translation evicted from
    the table must not become a chain target: nothing would ever unlink
    it). *)
let link (t : t) ~(src : Jit.Pipeline.translation)
    ~(slot : Jit.Pipeline.chain_slot) ~(dst : Jit.Pipeline.translation) :
    bool =
  if
    slot.cs_next <> None
    || (not (owns src.t_exits slot 0))
    || (not (resident t src.t_guest_addr src))
    || not (resident t dst.t_guest_addr dst)
  then false
  else begin
    slot.cs_next <- Some dst;
    let key = dst.t_guest_addr in
    let prev = try Hashtbl.find t.chains key with Not_found -> [] in
    Hashtbl.replace t.chains key ((src.t_guest_addr, slot) :: prev);
    t.n_chain_links <- t.n_chain_links + 1;
    if tracing t then
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
    if tracing t then
      tev t ~name:"chain_unlink"
        ~args:[ ("target", Obs.Trace.I slot.cs_target) ]
        ()
  end

(* Unlink every chain jumping INTO [key] (its translation is being
   removed). *)
let unlink_into t (key : int64) =
  match Hashtbl.find_opt t.chains key with
  | None -> ()
  | Some pairs ->
      List.iter (fun (_, slot) -> unlink_slot t slot) pairs;
      Hashtbl.remove t.chains key

(* Unlink the patched exit [slot] of a translation being removed, and
   drop its one record, kept under its target's key. *)
let unlink_out t (slot : Jit.Pipeline.chain_slot) =
  match slot.cs_next with
  | None -> ()
  | Some dst ->
      let key = dst.Jit.Pipeline.t_guest_addr in
      (match Hashtbl.find_opt t.chains key with
      | Some pairs -> (
          match List.filter (fun (_, s) -> s != slot) pairs with
          | [] -> Hashtbl.remove t.chains key
          | rest -> Hashtbl.replace t.chains key rest)
      | None -> ());
      unlink_slot t slot

(* Retire an entry that has just left the slots: unlink every chain into
   it and every chain out of it, mark it dead and push it onto the
   epoch-tagged retire list.  Chains are unlinked *eagerly* (a patched
   [cs_next] must never point at a dead translation) but the
   translation itself stays allocated until the grace period expires:
   another core's fast-lookup cache or last-exit record may still hold
   it, and the [t_dead] mark is what turns those stale references into
   misses. *)
let retire t (e : entry) =
  unlink_into t e.e_key;
  Array.iter (unlink_out t) e.e_trans.Jit.Pipeline.t_exits;
  e.e_trans.Jit.Pipeline.t_dead <- true;
  t.retire_list <- (t.epoch, e) :: t.retire_list

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
    if tracing t then
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

let all_entries t =
  Array.to_list t.slots |> List.filter_map Fun.id

(* Close the empty slot [hole], scanning its probe run from slot [j]:
   an entry moves back into the hole iff the hole lies on its probe
   path, cyclically in [home, j), and the hole moves to where it was.
   The slot value is moved, not rebuilt, so nothing is allocated; the
   scan ends at the run's first empty slot (in a full table, the hole
   itself). *)
let rec shift_back t hole j =
  match t.slots.(j) with
  | None -> ()
  | Some e as v ->
      let c = t.capacity in
      let home = hash t e.e_key in
      if (hole - home + c) mod c < (j - home + c) mod c then begin
        t.slots.(hole) <- v;
        t.slots.(j) <- None;
        shift_back t j ((j + 1) mod c)
      end
      else shift_back t hole ((j + 1) mod c)

(** Remove the entry in slot [i] (backward-shift deletion) and retire
    it.  The one removal primitive. *)
let remove_at t i =
  match t.slots.(i) with
  | None -> ()
  | Some e ->
      t.slots.(i) <- None;
      shift_back t i ((i + 1) mod t.capacity);
      t.used <- t.used - 1;
      retire t e

(* Remove every entry [doomed] picks, in one pass over the slots.  A
   removal at slot [i] moves entries back towards [i] but never past it,
   so re-examining slot [i] until it keeps its entry visits every entry
   once at least. *)
let remove_all t (doomed : entry -> bool) =
  for i = 0 to t.capacity - 1 do
    while (match t.slots.(i) with Some e -> doomed e | None -> false) do
      remove_at t i
    done
  done

(* FIFO chunk eviction: drop the oldest 1/8th of the live entries, those
   whose sequence number is at most the chunk's newest. *)
let evict_chunk t =
  let n_drop = min (max 1 (t.capacity / 8)) t.used in
  let seqs = Array.make t.used 0 in
  let k = ref 0 in
  Array.iter
    (function
      | Some e ->
          seqs.(!k) <- e.e_seq;
          incr k
      | None -> ())
    t.slots;
  Array.sort Int.compare seqs;
  let newest = seqs.(n_drop - 1) in
  t.n_evict_chunks <- t.n_evict_chunks + 1;
  t.n_evicted <- t.n_evicted + n_drop;
  if tracing t then
    tev t ~name:"evict_chunk"
      ~args:[ ("dropped", Obs.Trace.I (Int64.of_int n_drop)) ]
      ();
  remove_all t (fun e -> e.e_seq <= newest)

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
        retire t old;
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
  let doomed e = List.exists intersects e.e_trans.Jit.Pipeline.t_guest_ranges in
  let n =
    Array.fold_left
      (fun n -> function Some e when doomed e -> n + 1 | _ -> n)
      0 t.slots
  in
  if n > 0 then begin
    t.n_discards <- t.n_discards + n;
    if tracing t then
      tev t ~name:"discard_range"
        ~args:
          [ ("addr", Obs.Trace.I addr); ("len", Obs.Trace.I (Int64.of_int len));
            ("dropped", Obs.Trace.I (Int64.of_int n)) ]
        ();
    remove_all t doomed
  end;
  n

(** Discard a single entry by key (SMC retranslation), unlinking every
    chain into and out of it.  Touches only the key's probe run. *)
let discard_key (t : t) (key : int64) =
  t.n_discards <- t.n_discards + 1;
  if tracing t then tev t ~name:"discard_key" ~args:[ ("key", Obs.Trace.I key) ] ();
  let i = slot_of t key (hash t key) 0 in
  if i >= 0 then remove_at t i

(** Empty the table completely, unlinking every chain and retiring every
    resident translation (cumulative counters are preserved). *)
let flush (t : t) =
  if tracing t then
    tev t ~name:"flush"
      ~args:[ ("resident", Obs.Trace.I (Int64.of_int t.used)) ]
      ();
  Array.iteri
    (fun i -> function
      | Some e ->
          t.slots.(i) <- None;
          retire t e
      | None -> ())
    t.slots;
  t.used <- 0

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
  pi "transtab.chain_live" (fun () -> live_chains t);
  pi "transtab.epoch" (fun () -> t.epoch);
  pi "transtab.retired" (fun () -> t.n_retire_freed + retire_pending t);
  pi "transtab.retire_freed" (fun () -> t.n_retire_freed);
  pi "transtab.retire_pending" (fun () -> retire_pending t);
  Obs.Registry.fprobe r "transtab.occupancy" (fun () -> occupancy t)
