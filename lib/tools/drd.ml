(** DRD-lite: an Eraser-style lockset data-race detector.

    The classic lockset discipline (Savage et al., "Eraser"): every
    shared location should be protected by at least one lock that is
    held on {e every} access.  For each location we maintain the set of
    candidate locks — initialised to the locks held at the first
    shared access and refined by intersection on every later one — and
    report a race when the set becomes empty with a write involved.

    Locks are {b tool-arbitrated}: the guest asks for a lock with the
    [drd_lock_acquire] client request, which atomically (client
    requests run between blocks, on whichever simulated core the
    requesting thread is pinned to) either grants it — returning 1 —
    or refuses with 0, and the guest spins with [yield()] between
    attempts.  That makes acquisition correct under any [--cores N]
    without the tool needing guest atomics, and gives the core's
    [lock_handoffs] counter a true cross-thread handoff to count.

    Per-location state machine (word granularity, keyed on the access
    address):

    - {e virgin} -> first access puts it in {e exclusive(tid)}: no
      lockset is tracked while one thread owns the location (thread
      start-up handoff is not a race);
    - {e exclusive(t)} -> an access by another thread moves it to
      {e shared}, initialising the candidate set to the locks the
      accessor holds at the transition.  Writes made while still
      exclusive are forgotten at this point (Eraser's shared-read-only
      state): a location written during single-threaded start-up and
      then only read concurrently is not a race;
    - {e shared} -> every access intersects the candidate set with the
      accessor's held set; if the set empties and a write happened at
      or after the sharing transition, the (address, pc) pair is
      reported — once per pair.

    Reports are emitted at [fini], sorted by (address, pc): the output
    is deterministic for a deterministic schedule, hence bit-identical
    across [--cores] values that produce the same interleaving. *)

open Vex_ir.Ir

type astate = {
  mutable as_owner : int;  (** exclusive owner tid; -1 once shared *)
  mutable as_lockset : int64 list option;
      (** candidate locks (sorted); [None] until the location goes
          shared *)
  mutable as_written : bool;
      (** a write has touched it at or after the sharing transition *)
  mutable as_reported : bool;
}

type tstate = {
  held : (int, int64 list) Hashtbl.t;  (** tid -> held locks (sorted) *)
  locks : (int64, int) Hashtbl.t;  (** lock id -> owner tid *)
  last_owner : (int64, int) Hashtbl.t;  (** lock id -> previous owner *)
  addrs : (int64, astate) Hashtbl.t;
  races : (int64 * int64, unit) Hashtbl.t;  (** (addr, pc) reported *)
  mutable n_accesses : int64;
  mutable n_acquires : int64;
  mutable n_contended : int64;  (** refused try-acquires *)
  mutable n_handoffs : int64;  (** acquisitions from a different owner *)
}

let held_of (st : tstate) (tid : int) : int64 list =
  Option.value ~default:[] (Hashtbl.find_opt st.held tid)

let intersect a b = List.filter (fun l -> List.mem l b) a

let tool : Vg_core.Tool.t =
  {
    name = "drd";
    description = "a lockset-based data race detector";
    shadow_ranges = [];
    create =
      (fun caps ->
        let st =
          {
            held = Hashtbl.create 8;
            locks = Hashtbl.create 8;
            last_owner = Hashtbl.create 8;
            addrs = Hashtbl.create 1024;
            races = Hashtbl.create 8;
            n_accesses = 0L;
            n_acquires = 0L;
            n_contended = 0L;
            n_handoffs = 0L;
          }
        in
        let access ~(write : bool) (addr : int64) (pc : int64) =
          st.n_accesses <- Int64.add st.n_accesses 1L;
          let tid = caps.cur_tid () in
          let a =
            match Hashtbl.find_opt st.addrs addr with
            | Some a -> a
            | None ->
                let a =
                  { as_owner = tid; as_lockset = None; as_written = false;
                    as_reported = false }
                in
                Hashtbl.replace st.addrs addr a;
                a
          in
          (match a.as_lockset with
          | None when a.as_owner = tid -> ()  (* still exclusive *)
          | None ->
              (* exclusive -> shared: exclusive-phase writes are start-up
                 handoff, not concurrency — forget them *)
              a.as_owner <- -1;
              a.as_written <- write;
              a.as_lockset <- Some (held_of st tid)
          | Some ls ->
              if write then a.as_written <- true;
              a.as_lockset <- Some (intersect ls (held_of st tid)));
          match a.as_lockset with
          | Some [] when a.as_written && not a.as_reported ->
              a.as_reported <- true;
              Hashtbl.replace st.races (addr, pc) ()
          | _ -> ()
        in
        let h_load =
          caps.register_helper ~name:"drd_load" ~cost:4 ~nargs:2 (fun args ->
              access ~write:false args.(0) args.(1);
              0L)
        in
        let h_store =
          caps.register_helper ~name:"drd_store" ~cost:4 ~nargs:2 (fun args ->
              access ~write:true args.(0) args.(1);
              0L)
        in
        let instrument (b : block) : block =
          let nb = empty_like b in
          let cur_pc = ref 0L in
          let call callee args = add_stmt nb (dirty callee args) in
          Support.Vec.iter
            (fun s ->
              (match s with
              | IMark (pc, _) -> cur_pc := pc
              | WrTmp (_, Load (_, addr)) ->
                  call h_load [ addr; i32 !cur_pc ]
              | Store (addr, _) -> call h_store [ addr; i32 !cur_pc ]
              | _ -> ());
              add_stmt nb s)
            b.stmts;
          nb
        in
        let client_request ~code ~(args : int64 array) =
          if code = Vg_core.Clientreq.drd_lock_acquire then begin
            let id = args.(0) in
            let tid = caps.cur_tid () in
            match Hashtbl.find_opt st.locks id with
            | Some owner when owner <> tid ->
                st.n_contended <- Int64.add st.n_contended 1L;
                Some 0L
            | _ ->
                Hashtbl.replace st.locks id tid;
                st.n_acquires <- Int64.add st.n_acquires 1L;
                (match Hashtbl.find_opt st.last_owner id with
                | Some prev when prev <> tid ->
                    st.n_handoffs <- Int64.add st.n_handoffs 1L
                | _ -> ());
                Hashtbl.replace st.last_owner id tid;
                let held = held_of st tid in
                if not (List.mem id held) then
                  Hashtbl.replace st.held tid (List.sort compare (id :: held));
                Some 1L
          end
          else if code = Vg_core.Clientreq.drd_lock_release then begin
            let id = args.(0) in
            let tid = caps.cur_tid () in
            (match Hashtbl.find_opt st.locks id with
            | Some owner when owner = tid ->
                Hashtbl.remove st.locks id;
                Hashtbl.replace st.held tid
                  (List.filter (fun l -> l <> id) (held_of st tid))
            | _ -> ());
            Some 0L
          end
          else None
        in
        {
          instrument;
          fini =
            (fun ~exit_code:_ ->
              let races =
                Hashtbl.fold (fun k () acc -> k :: acc) st.races []
                |> List.sort compare
              in
              List.iter
                (fun (addr, pc) ->
                  caps.output
                    (Printf.sprintf
                       "==drd== possible data race on 0x%LX at %s\n" addr
                       (caps.symbolize pc)))
                races;
              caps.output
                (Printf.sprintf
                   "==drd== accesses: %Ld  acquires: %Ld  contended: %Ld  \
                    lock handoffs: %Ld  races: %d\n"
                   st.n_accesses st.n_acquires st.n_contended st.n_handoffs
                   (List.length races)));
          client_request;
        });
  }
