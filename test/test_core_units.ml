(* Unit tests for the core's data structures: translation table,
   dispatcher cache, error recording/suppressions, and the stack-pointer
   change classifier (2MB heuristic + registered stacks). *)

let t name f = Alcotest.test_case name `Quick f

(* a dummy translation for table tests *)
let dummy_trans_exits key exits : Jit.Pipeline.translation =
  {
    t_guest_addr = key;
    t_code = Bytes.create 4;
    t_decoded = [||];
    t_guest_insns = 1;
    t_guest_bytes = 4;
    t_guest_ranges = [ (key, 4) ];
    t_smc_check = false;
    t_code_hash = 0L;
    t_ir_stmts_pre = 1;
    t_ir_stmts_post = 1;
    t_exits = exits;
    t_exit_index = Jit.Pipeline.exit_index_of [||] exits;
    t_phase_cycles = Array.make Jit.Pipeline.n_phases 0;
    t_tier = Jit.Pipeline.Tier_full;
    t_constituents = [ key ];
    t_hotness = 0;
    t_no_promote = false;
    t_dead = false;
    t_epoch = 0;
    t_core = 0;
  }

let dummy_trans key = dummy_trans_exits key [||]

(* a dummy translation with one chainable exit site aimed at [target] *)
let dummy_trans_with_exit key target :
    Jit.Pipeline.translation * Jit.Pipeline.chain_slot =
  let slot =
    {
      Jit.Pipeline.cs_index = 0;
      cs_target = target;
      cs_kind = Host.Arch.ek_boring;
      cs_next = None;
      cs_hot = 0;
    }
  in
  (dummy_trans_exits key [| slot |], slot)

(* a superblock translation: guest ranges span every constituent, so a
   discard hitting any of them must take the whole thing down *)
let dummy_super head constituents : Jit.Pipeline.translation =
  {
    (dummy_trans head) with
    t_tier = Jit.Pipeline.Tier_super;
    t_constituents = constituents;
    t_guest_ranges = List.map (fun pc -> (pc, 4)) constituents;
  }

let test_transtab_basics () =
  let tt = Vg_core.Transtab.create ~capacity:64 () in
  for i = 0 to 29 do
    Vg_core.Transtab.insert tt (Int64.of_int (i * 16)) (dummy_trans (Int64.of_int (i * 16)))
  done;
  (match Vg_core.Transtab.find tt 160L with
  | Some tr -> Alcotest.(check int64) "found right entry" 160L tr.t_guest_addr
  | None -> Alcotest.fail "entry lost");
  Alcotest.(check (option reject)) "missing key" None
    (Option.map ignore (Vg_core.Transtab.find tt 12345L))

let test_transtab_fifo_eviction () =
  let tt = Vg_core.Transtab.create ~capacity:64 () in
  (* push past 80%: eviction drops the OLDEST 1/8 *)
  for i = 0 to 59 do
    Vg_core.Transtab.insert tt (Int64.of_int i) (dummy_trans (Int64.of_int i))
  done;
  Alcotest.(check bool) "evictions happened" true (tt.n_evicted > 0);
  (* the newest entries survive *)
  Alcotest.(check bool) "newest survives" true
    (Vg_core.Transtab.find tt 59L <> None);
  (* the very first insert was FIFO-evicted *)
  Alcotest.(check bool) "oldest evicted" true (Vg_core.Transtab.find tt 0L = None)

let test_transtab_discard_range () =
  let tt = Vg_core.Transtab.create ~capacity:64 () in
  List.iter
    (fun k -> Vg_core.Transtab.insert tt k (dummy_trans k))
    [ 0x1000L; 0x2000L; 0x3000L ];
  let n = Vg_core.Transtab.discard_range tt 0x2000L 4096 in
  Alcotest.(check int) "one discarded" 1 n;
  Alcotest.(check bool) "0x1000 kept" true (Vg_core.Transtab.find tt 0x1000L <> None);
  Alcotest.(check bool) "0x2000 gone" true (Vg_core.Transtab.find tt 0x2000L = None)

let test_super_discard_constituent () =
  let tt = Vg_core.Transtab.create ~capacity:64 () in
  (* constituent blocks stay resident under their own keys (side-exit
     fallback); the superblock replaces the head's entry *)
  List.iter
    (fun k -> Vg_core.Transtab.insert tt k (dummy_trans k))
    [ 0x2000L; 0x3000L ];
  Vg_core.Transtab.insert tt 0x1000L
    (dummy_super 0x1000L [ 0x1000L; 0x2000L; 0x3000L ]);
  Alcotest.(check bool) "middle constituent is covered" true
    (Vg_core.Transtab.covered_by_super tt 0x2000L);
  Alcotest.(check bool) "unrelated pc is not" false
    (Vg_core.Transtab.covered_by_super tt 0x4000L);
  (* an SMC write inside the middle constituent: both the per-block
     translation and the superblock spanning it must go *)
  let n = Vg_core.Transtab.discard_range tt 0x2002L 1 in
  Alcotest.(check int) "superblock and block discarded" 2 n;
  Alcotest.(check bool) "superblock gone" true
    (Vg_core.Transtab.find tt 0x1000L = None);
  Alcotest.(check bool) "untouched constituent survives" true
    (Vg_core.Transtab.find tt 0x3000L <> None);
  Alcotest.(check bool) "coverage dissolved with the superblock" false
    (Vg_core.Transtab.covered_by_super tt 0x3000L)

(* ---- translation chaining: link/unlink invariants ------------------- *)

let test_chain_link_basics () =
  let tt = Vg_core.Transtab.create ~capacity:64 () in
  let src, slot = dummy_trans_with_exit 0x1000L 0x2000L in
  let dst = dummy_trans 0x2000L in
  (* neither end resident: refused *)
  Alcotest.(check bool) "link refused when not resident" false
    (Vg_core.Transtab.link tt ~src ~slot ~dst);
  Vg_core.Transtab.insert tt 0x1000L src;
  (* dst still absent: refused (an unreachable chain target could never
     be unlinked) *)
  Alcotest.(check bool) "link refused when dst absent" false
    (Vg_core.Transtab.link tt ~src ~slot ~dst);
  Vg_core.Transtab.insert tt 0x2000L dst;
  Alcotest.(check bool) "link succeeds" true
    (Vg_core.Transtab.link tt ~src ~slot ~dst);
  Alcotest.(check bool) "slot patched" true
    (match slot.cs_next with Some t -> t == dst | None -> false);
  Alcotest.(check int) "one live chain" 1 (Vg_core.Transtab.live_chains tt);
  (* double-patching the same slot is refused *)
  Alcotest.(check bool) "re-link refused" false
    (Vg_core.Transtab.link tt ~src ~slot ~dst)

let test_chain_unlink_on_eviction () =
  let tt = Vg_core.Transtab.create ~capacity:64 () in
  let src, slot = dummy_trans_with_exit 0x10L 0x20L in
  let dst = dummy_trans 0x20L in
  Vg_core.Transtab.insert tt 0x10L src;
  Vg_core.Transtab.insert tt 0x20L dst;
  Alcotest.(check bool) "linked" true (Vg_core.Transtab.link tt ~src ~slot ~dst);
  (* push past 80% occupancy: FIFO eviction drops the oldest chunk,
     which includes src and dst — the chain must be unlinked *)
  for i = 0 to 59 do
    Vg_core.Transtab.insert tt
      (Int64.of_int (0x9000 + i))
      (dummy_trans (Int64.of_int (0x9000 + i)))
  done;
  Alcotest.(check bool) "eviction happened" true (tt.n_evicted > 0);
  Alcotest.(check bool) "chain target evicted" true
    (Vg_core.Transtab.find tt 0x20L = None);
  Alcotest.(check bool) "slot unlinked (no stale jump)" true
    (slot.cs_next = None);
  Alcotest.(check int) "no live chains" 0 (Vg_core.Transtab.live_chains tt);
  Alcotest.(check bool) "unlink counted" true (tt.n_chain_unlinks >= 1)

let test_chain_unlink_on_discard_range () =
  let tt = Vg_core.Transtab.create ~capacity:64 () in
  let src, slot = dummy_trans_with_exit 0x1000L 0x2000L in
  let dst = dummy_trans 0x2000L in
  Vg_core.Transtab.insert tt 0x1000L src;
  Vg_core.Transtab.insert tt 0x2000L dst;
  ignore (Vg_core.Transtab.link tt ~src ~slot ~dst);
  (* unmap / discard-translations over the TARGET's range *)
  Alcotest.(check int) "one discarded" 1
    (Vg_core.Transtab.discard_range tt 0x2000L 16);
  Alcotest.(check bool) "slot unlinked" true (slot.cs_next = None);
  Alcotest.(check bool) "source survives" true
    (Vg_core.Transtab.find tt 0x1000L <> None);
  Alcotest.(check int) "no live chains" 0 (Vg_core.Transtab.live_chains tt)

let test_chain_unlink_on_smc_discard () =
  let tt = Vg_core.Transtab.create ~capacity:64 () in
  let a, slot_a = dummy_trans_with_exit 0x100L 0x300L in
  let b, slot_b = dummy_trans_with_exit 0x200L 0x300L in
  let victim = dummy_trans 0x300L in
  Vg_core.Transtab.insert tt 0x100L a;
  Vg_core.Transtab.insert tt 0x200L b;
  Vg_core.Transtab.insert tt 0x300L victim;
  ignore (Vg_core.Transtab.link tt ~src:a ~slot:slot_a ~dst:victim);
  ignore (Vg_core.Transtab.link tt ~src:b ~slot:slot_b ~dst:victim);
  Alcotest.(check int) "two live chains" 2 (Vg_core.Transtab.live_chains tt);
  (* SMC invalidation discards the victim: EVERY chain into it must go *)
  Vg_core.Transtab.discard_key tt 0x300L;
  Alcotest.(check bool) "slot a unlinked" true (slot_a.cs_next = None);
  Alcotest.(check bool) "slot b unlinked" true (slot_b.cs_next = None);
  Alcotest.(check int) "no live chains" 0 (Vg_core.Transtab.live_chains tt);
  (* a retranslation under the same key must NOT inherit old chains *)
  let victim' = dummy_trans 0x300L in
  Vg_core.Transtab.insert tt 0x300L victim';
  Alcotest.(check bool) "slots still unlinked after retranslation" true
    (slot_a.cs_next = None && slot_b.cs_next = None)

let test_chain_flush_resets () =
  let tt = Vg_core.Transtab.create ~capacity:64 () in
  let src, slot = dummy_trans_with_exit 0x10L 0x20L in
  let dst = dummy_trans 0x20L in
  Vg_core.Transtab.insert tt 0x10L src;
  Vg_core.Transtab.insert tt 0x20L dst;
  ignore (Vg_core.Transtab.link tt ~src ~slot ~dst);
  Vg_core.Transtab.flush tt;
  Alcotest.(check int) "table empty" 0 tt.used;
  Alcotest.(check bool) "entries gone" true
    (Vg_core.Transtab.find tt 0x10L = None);
  Alcotest.(check bool) "slot unlinked" true (slot.cs_next = None);
  Alcotest.(check int) "live chains reset" 0 (Vg_core.Transtab.live_chains tt);
  Alcotest.(check bool) "cumulative counters preserved" true
    (tt.n_chain_links = 1 && tt.n_chain_unlinks = 1)

(* ---- the table against a model -------------------------------------- *)

type tt_op =
  | Insert of int
  | Burst of int * int  (** insert keys [k], [k+1], ...: enough to evict *)
  | Discard of int
  | Discard_range of int * int
  | Link of int * int * int
      (** source key, exit (2: a slot the source does not own), target
          key *)
  | Flush

let show_tt_op = function
  | Insert k -> Printf.sprintf "insert %d" k
  | Burst (k, n) -> Printf.sprintf "burst %d+%d" k n
  | Discard k -> Printf.sprintf "discard %d" k
  | Discard_range (a, n) -> Printf.sprintf "discard_range %d+%d" a n
  | Link (s, x, d) -> Printf.sprintf "link %d.%d->%d" s x d
  | Flush -> "flush"

(* Dense keys, twice the capacity of them: probe runs collide, wrap past
   the last slot, and inserts fill the table past its 80% mark. *)
let tt_case_gen =
  let open QCheck.Gen in
  int_range 8 64 >>= fun cap ->
  let key = int_bound ((2 * cap) - 1) in
  let op =
    frequency
      [
        (6, map (fun k -> Insert k) key);
        (1, map2 (fun k n -> Burst (k, n)) key (int_range 1 cap));
        (3, map (fun k -> Discard k) key);
        (1, map2 (fun a n -> Discard_range (a, n)) key (int_range 1 8));
        (5, map (fun (s, x, d) -> Link (s, x, d)) (triple key (int_bound 2) key));
        (1, return Flush);
      ]
  in
  list_size (int_range 1 120) op >|= fun ops -> (cap, ops)

(* The model: resident entries as an association list with FIFO sequence
   numbers, the same 80% / one-eighth eviction rule, and the patched
   chains as (owner, slot, target) triples. *)
type tt_model = {
  mutable m_entries : (int64 * (Jit.Pipeline.translation * int)) list;
  mutable m_chains :
    (Jit.Pipeline.translation * Jit.Pipeline.chain_slot * Jit.Pipeline.translation)
    list;
  mutable m_seq : int;
  mutable m_inserts : int;
  mutable m_evicted : int;
  mutable m_discards : int;
  mutable m_links : int;
  mutable m_unlinks : int;
}

let prop_transtab_vs_model =
  QCheck.Test.make ~count:300 ~name:"transtab matches an association-list model"
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map show_tt_op ops)))
       tt_case_gen)
    (fun (cap, ops) ->
      let module T = Vg_core.Transtab in
      let tt = T.create ~capacity:cap () in
      let m =
        { m_entries = []; m_chains = []; m_seq = 0; m_inserts = 0;
          m_evicted = 0; m_discards = 0; m_links = 0; m_unlinks = 0 }
      in
      let made = ref [] and inserted = ref [] in
      let fresh k =
        let exit () =
          { Jit.Pipeline.cs_index = 0; cs_target = 0L;
            cs_kind = Host.Arch.ek_boring; cs_next = None; cs_hot = 0 }
        in
        let tr = dummy_trans_exits (Int64.of_int k) [| exit (); exit () |] in
        made := tr :: !made;
        tr
      in
      let m_find k = Option.map fst (List.assoc_opt k m.m_entries) in
      let is tr = function Some t -> t == tr | None -> false in
      let m_resident (tr : Jit.Pipeline.translation) =
        is tr (m_find tr.t_guest_addr)
      in
      let m_remove k =
        match m_find k with
        | None -> ()
        | Some tr ->
            let cut, keep =
              List.partition (fun (o, _, d) -> o == tr || d == tr) m.m_chains
            in
            m.m_chains <- keep;
            m.m_unlinks <- m.m_unlinks + List.length cut;
            m.m_entries <- List.remove_assoc k m.m_entries
      in
      let insert k =
        let key = Int64.of_int k in
        if List.length m.m_entries * 10 >= cap * 8 then begin
          let oldest =
            List.sort (fun (_, (_, a)) (_, (_, b)) -> compare a b) m.m_entries
            |> List.filteri (fun i _ -> i < max 1 (cap / 8))
          in
          List.iter (fun (k, _) -> m_remove k) oldest;
          m.m_evicted <- m.m_evicted + List.length oldest
        end;
        m_remove key;
        let tr = fresh k in
        m.m_seq <- m.m_seq + 1;
        m.m_inserts <- m.m_inserts + 1;
        m.m_entries <- (key, (tr, m.m_seq)) :: m.m_entries;
        inserted := tr :: !inserted;
        T.insert tt key tr
      in
      let step = function
        | Insert k -> insert k
        | Burst (k, n) ->
            for i = 0 to n - 1 do
              insert ((k + i) mod (2 * cap))
            done
        | Discard k ->
            let key = Int64.of_int k in
            m.m_discards <- m.m_discards + 1;
            m_remove key;
            T.discard_key tt key
        | Discard_range (a, n) ->
            let hit (k, _) = Int64.to_int k < a + n && a < Int64.to_int k + 4 in
            let doomed = List.filter hit m.m_entries in
            List.iter (fun (k, _) -> m_remove k) doomed;
            m.m_discards <- m.m_discards + List.length doomed;
            let got = T.discard_range tt (Int64.of_int a) n in
            if got <> List.length doomed then
              QCheck.Test.fail_reportf "discard_range %d+%d: %d, model %d" a n
                got (List.length doomed)
        | Link (s, x, d) ->
            let tr k =
              match m_find (Int64.of_int k) with Some tr -> tr | None -> fresh k
            in
            let src = tr s and dst = tr d in
            let slot = if x < 2 then src.t_exits.(x) else (fresh s).t_exits.(0) in
            let ok =
              x < 2
              && m_resident src && m_resident dst
              && not (List.exists (fun (_, sl, _) -> sl == slot) m.m_chains)
            in
            if ok then begin
              m.m_chains <- (src, slot, dst) :: m.m_chains;
              m.m_links <- m.m_links + 1
            end;
            if T.link tt ~src ~slot ~dst <> ok then
              QCheck.Test.fail_reportf "link answered %b, model %b" (not ok) ok
        | Flush ->
            List.iter (fun (k, _) -> m_remove k) m.m_entries;
            T.flush tt
      in
      let check op =
        let fail what =
          QCheck.Test.fail_reportf "after %s: %s" (show_tt_op op) what
        in
        for k = 0 to (2 * cap) - 1 do
          let key = Int64.of_int k in
          match (T.find tt key, m_find key) with
          | None, None -> ()
          | Some a, Some b when a == b -> ()
          | _ -> fail (Printf.sprintf "find %d differs" k)
        done;
        let counts =
          [ ("used", tt.used, List.length m.m_entries);
            ("inserts", tt.n_inserts, m.m_inserts);
            ("evicted", tt.n_evicted, m.m_evicted);
            ("discards", tt.n_discards, m.m_discards);
            ("chain links", tt.n_chain_links, m.m_links);
            ("chain unlinks", tt.n_chain_unlinks, m.m_unlinks);
            ("live chains", T.live_chains tt, List.length m.m_chains) ]
        in
        List.iter
          (fun (name, got, want) ->
            if got <> want then
              fail (Printf.sprintf "%s %d, model %d" name got want))
          counts;
        (* every modelled chain is patched into its resident target, and
           the reverse index holds exactly one record per chain, under
           its target's key *)
        let records =
          Hashtbl.fold
            (fun key pairs acc ->
              List.map (fun (owner, s) -> (key, owner, s)) pairs @ acc)
            tt.chains []
        in
        if List.length records <> List.length m.m_chains then
          fail
            (Printf.sprintf "%d index records for %d chains"
               (List.length records) (List.length m.m_chains));
        List.iter
          (fun ((o : Jit.Pipeline.translation), (slot : Jit.Pipeline.chain_slot), d)
             ->
            if not (is d slot.cs_next) then fail "a modelled chain is not patched";
            let resident (tr : Jit.Pipeline.translation) =
              is tr (T.find tt tr.t_guest_addr)
            in
            if not (resident o && resident d) then
              fail "a chain joins a translation that is not resident";
            match List.filter (fun (_, _, s) -> s == slot) records with
            | [ (key, owner, _) ]
              when key = d.t_guest_addr && owner = o.t_guest_addr ->
                ()
            | rs ->
                fail
                  (Printf.sprintf "a chain has %d index records" (List.length rs)))
          m.m_chains
      in
      (* at the end: no other slot is patched, and a translation is
         retired iff it was inserted and has left the table *)
      let check_all () =
        List.iter
          (fun (tr : Jit.Pipeline.translation) ->
            if tr.t_dead <> (List.memq tr !inserted && not (m_resident tr)) then
              QCheck.Test.fail_reportf "0x%Lx: retirement differs from the model"
                tr.t_guest_addr;
            Array.iter
              (fun (slot : Jit.Pipeline.chain_slot) ->
                if slot.cs_next <> None
                   && not (List.exists (fun (_, s, _) -> s == slot) m.m_chains)
                then
                  QCheck.Test.fail_reportf "0x%Lx: an unmodelled slot is patched"
                    tr.t_guest_addr)
              tr.t_exits)
          !made
      in
      List.iter
        (fun op ->
          step op;
          check op)
        ops;
      check_all ();
      true)

(* ---- an SMC discard does not scale with the table --------------------- *)

(* Minor words and words allocated straight into the major heap by one
   [discard_key]. *)
let discard_alloc tt key =
  let q0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  Vg_core.Transtab.discard_key tt key;
  let m1 = Gc.minor_words () in
  let q1 = Gc.quick_stat () in
  ( m1 -. m0,
    q1.major_words -. q0.major_words -. (q1.promoted_words -. q0.promoted_words) )

let test_discard_cost_flat () =
  (* the same 40 entries, each chained to the next, in a 64-slot table
     and in a default-sized one *)
  let fill capacity =
    let tt = Vg_core.Transtab.create ~capacity () in
    let key i = Int64.of_int (0x1000 + (16 * (i mod 40))) in
    let ts = Array.init 40 (fun i -> dummy_trans_with_exit (key i) (key (i + 1))) in
    Array.iter
      (fun ((tr : Jit.Pipeline.translation), _) ->
        Vg_core.Transtab.insert tt tr.t_guest_addr tr)
      ts;
    Array.iteri
      (fun i (src, slot) ->
        Alcotest.(check bool) "linked" true
          (Vg_core.Transtab.link tt ~src ~slot ~dst:(fst ts.((i + 1) mod 40))))
      ts;
    tt
  in
  let small = fill 64 and large = fill 32768 in
  List.iter
    (fun (what, key) ->
      let ms, ds = discard_alloc small key in
      let ml, dl = discard_alloc large key in
      Alcotest.(check (float 0.))
        (what ^ ": same minor words at either size") ms ml;
      Alcotest.(check (float 0.)) (what ^ ": nothing straight into the major heap")
        0. (Float.max ds dl))
    [ ("resident key", 0x1100L); ("absent key", 0x9999L) ];
  Alcotest.(check int) "both chains of the discarded entry unlinked" 2
    large.n_chain_unlinks;
  Alcotest.(check bool) "discarded" true
    (Vg_core.Transtab.find large 0x1100L = None)

let test_dispatch_cache () =
  let d = Vg_core.Dispatch.create ~size:16 () in
  Alcotest.(check bool) "miss on empty" true (Vg_core.Dispatch.lookup d 5L = None);
  Vg_core.Dispatch.update d 5L (dummy_trans 5L);
  (match Vg_core.Dispatch.lookup d 5L with
  | Some tr -> Alcotest.(check int64) "hit" 5L tr.t_guest_addr
  | None -> Alcotest.fail "expected hit");
  (* conflicting key (same slot in a 16-entry direct map) evicts *)
  Vg_core.Dispatch.update d 21L (dummy_trans 21L);
  Alcotest.(check bool) "conflict evicts" true (Vg_core.Dispatch.lookup d 5L = None);
  Alcotest.(check bool) "hit rate computed" true
    (Vg_core.Dispatch.hit_rate d > 0.0 && Vg_core.Dispatch.hit_rate d < 1.0)

let test_dispatch_hit_rate_fresh () =
  (* no lookups yet: the rate must be exactly 0.0, never NaN/1.0 — this
     value flows unguarded into stats and the JSON export *)
  let d = Vg_core.Dispatch.create ~size:16 () in
  Alcotest.(check (float 0.0)) "fresh cache rate" 0.0 (Vg_core.Dispatch.hit_rate d);
  Alcotest.(check bool) "not NaN" false
    (Float.is_nan (Vg_core.Dispatch.hit_rate d));
  (* a fresh session (zero blocks run) exports the same well-defined 0 *)
  let img = Minicc.Driver.compile "int main() { return 0; }" in
  let s = Vg_core.Session.create ~tool:Vg_core.Tool.nulgrind img in
  let st = Vg_core.Session.stats s in
  Alcotest.(check (float 0.0)) "fresh session rate" 0.0 st.st_dispatch_hit_rate;
  Alcotest.(check int64) "no entries" 0L st.st_dispatch_entries

let test_errors_dedup () =
  let e = Vg_core.Errors.create ~output:(fun _ -> ()) () in
  let fresh1 = Vg_core.Errors.record e ~kind:"K" ~msg:"m" ~stack:[ 1L; 2L ] in
  let fresh2 = Vg_core.Errors.record e ~kind:"K" ~msg:"m" ~stack:[ 1L; 2L ] in
  let fresh3 = Vg_core.Errors.record e ~kind:"K" ~msg:"m" ~stack:[ 9L ] in
  Alcotest.(check bool) "first is fresh" true fresh1;
  Alcotest.(check bool) "repeat deduplicated" false fresh2;
  Alcotest.(check bool) "different stack fresh" true fresh3;
  Alcotest.(check int) "distinct" 2 (Vg_core.Errors.distinct_errors e);
  Alcotest.(check int) "total counts repeats" 3 (Vg_core.Errors.total_errors e)

let test_suppression_parsing () =
  let supps =
    Vg_core.Errors.parse_suppressions
      {|
# a comment-free format
{
  first
  UninitValue
  fun:main*
  fun:*
}
{
  second
  *
  fun:libfunc
}
|}
  in
  Alcotest.(check int) "two suppressions" 2 (List.length supps);
  let e = Vg_core.Errors.create ~output:(fun _ -> ()) () in
  e.symbolize <- (fun a -> if a = 1L then "main+0x10" else "other");
  List.iter (Vg_core.Errors.add_suppression e) supps;
  Alcotest.(check bool) "matches prefix+wildcard" true
    (Vg_core.Errors.suppressed e ~kind:"UninitValue" ~stack:[ 1L; 2L ]);
  Alcotest.(check bool) "kind mismatch not suppressed" false
    (Vg_core.Errors.suppressed e ~kind:"InvalidRead" ~stack:[ 1L; 2L ])

let test_sp_classifier () =
  let regs = Vg_core.Stack_events.make_registered_stacks () in
  let threshold = 0x20_0000L in
  let classify = Vg_core.Stack_events.classify_sp_change ~threshold regs in
  (* small growth: allocation *)
  (match classify ~old_sp:0x1000L ~new_sp:0xFF0L with
  | Some (base, 16, true) -> Alcotest.(check int64) "alloc base" 0xFF0L base
  | _ -> Alcotest.fail "small growth misclassified");
  (* small shrink: death *)
  (match classify ~old_sp:0xFF0L ~new_sp:0x1000L with
  | Some (base, 16, false) -> Alcotest.(check int64) "die base" 0xFF0L base
  | _ -> Alcotest.fail "small shrink misclassified");
  (* beyond 2MB: a stack switch, no events *)
  Alcotest.(check bool) "2MB heuristic" true
    (classify ~old_sp:0x1000_0000L ~new_sp:0x100_0000L = None);
  (* but a registered stack overrides the heuristic *)
  regs.stacks <- [ (1, 0x100_0000L, 0x1800_0000L) ];
  (match classify ~old_sp:0x1000_0000L ~new_sp:0xFF0_0000L with
  | Some (_, _, true) -> ()
  | _ -> Alcotest.fail "registered stack should allow big moves");
  (* moving between two different registered stacks is a switch *)
  regs.stacks <- (2, 0x2000_0000L, 0x2100_0000L) :: regs.stacks;
  Alcotest.(check bool) "cross-stack move is a switch" true
    (classify ~old_sp:0x1080_0000L ~new_sp:0x2080_0000L = None)

let test_shadow_mem_word_ops () =
  (* extra shadow-memory stress: mixed stores and distinguished states *)
  let sm = Tools.Shadow_mem.create () in
  Tools.Shadow_mem.make_defined sm 0x100000L 1024;
  ignore (Tools.Shadow_mem.store sm 0x100100L 8 0xFF00FF00FF00FF00L);
  let ok, v = Tools.Shadow_mem.load sm 0x100100L 8 in
  Alcotest.(check bool) "addressable" true ok;
  Alcotest.(check int64) "vbits roundtrip" 0xFF00FF00FF00FF00L v;
  let ok2, v2 = Tools.Shadow_mem.load sm 0x100104L 4 in
  Alcotest.(check bool) "addressable2" true ok2;
  Alcotest.(check int64) "unaligned slice" 0xFF00FF00L v2

let test_all_events_fire () =
  (* a compact client touching every Table-1 event source; every event
     slot must have fired at least once under Memcheck *)
  let src =
    {| int deep(int n) {
         int local[32];
         local[0] = n;
         if (n <= 0) { return local[0]; }
         return deep(n - 1) + local[0];
       }
       int main() {
         int tv[2]; int tz[2];
         char *m; char *m2;
         int fd; char buf[8]; int sum;
         sum = 0;
         gettimeofday(tv, tz);
         settimeofday(tv);
         fd = open("f.txt", 0);
         if (fd >= 0) { read(fd, buf, 8); close(fd); }
         write(1, "x\n", 2);
         m = mmap(65536);
         m[0] = 'a';
         m2 = mremap(m, 65536, 131072);
         sum = sum + m2[0];
         munmap(m2, 131072);
         sum = sum + brk(brk(0) + 8192);
         sum = sum + brk(brk(0) - 4096);
         sum = sum + deep(12);
         return sum * 0;
       } |}
  in
  let img = Minicc.Driver.compile src in
  let s = Vg_core.Session.create ~tool:Tools.Memcheck.tool img in
  Kernel.add_file s.kern "f.txt" "contents";
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited 0 -> ()
  | _ -> Alcotest.fail "events client failed");
  List.iter
    (fun (name, _site, count) ->
      Alcotest.(check bool) (name ^ " fired") true (count > 0L))
    (Vg_core.Events.table1_rows s.events)

let tests =
  [
    t "all fourteen events fire" test_all_events_fire;
    t "transtab: insert/find" test_transtab_basics;
    t "transtab: FIFO chunk eviction" test_transtab_fifo_eviction;
    t "transtab: discard range" test_transtab_discard_range;
    t "transtab: constituent discard kills superblock"
      test_super_discard_constituent;
    t "chaining: link requires residency" test_chain_link_basics;
    t "chaining: eviction unlinks" test_chain_unlink_on_eviction;
    t "chaining: discard range unlinks" test_chain_unlink_on_discard_range;
    t "chaining: SMC discard unlinks all" test_chain_unlink_on_smc_discard;
    t "chaining: flush resets chain state" test_chain_flush_resets;
    t "transtab: SMC discard cost does not grow with capacity"
      test_discard_cost_flat;
    QCheck_alcotest.to_alcotest prop_transtab_vs_model;
    t "dispatch: direct-mapped cache" test_dispatch_cache;
    t "dispatch: fresh cache hit rate is 0" test_dispatch_hit_rate_fresh;
    t "errors: dedup" test_errors_dedup;
    t "errors: suppression parsing/matching" test_suppression_parsing;
    t "stack events: SP-change classifier" test_sp_classifier;
    t "shadow memory: word slices" test_shadow_mem_word_ops;
  ]
