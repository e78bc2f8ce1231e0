(** ThreadStates and the thread set (paper §3.4, §3.14).

    Valgrind provides a block of memory per client thread — the
    ThreadState — holding all the thread's guest and shadow registers;
    guest registers live in memory between code blocks ("reasonable for
    heavyweight tools with high host register pressure").  The blocks
    live in the core's own address-space region, and the running thread's
    block is what the host GSP register points at.

    Threads are sharded over N simulated cores: a thread is pinned to
    core [(tid - 1) mod n_cores] for life, and each core round-robins
    among its own threads after a timeslice or at yielding/blocking
    system calls.  With one core this degenerates to the paper's big
    lock (§3.14): fully serialised execution.  Which core steps next is
    the {!Session} scheduler's decision (lowest cycle count wins), so
    this module only tracks membership and per-core current threads. *)

type status = Runnable | Blocked | Exited

type thread = {
  tid : int;
  core : int;  (** the simulated core this thread is pinned to *)
  ts_addr : int64;  (** address of this thread's ThreadState block *)
  mutable status : status;
  mutable sig_frames : Bytes.t list;
      (** saved guest+shadow state, for sigreturn (newest first) *)
  mutable blocks_run : int;
  mutable slice_start : int;
      (** [blocks_run] when this thread's current timeslice began; the
          scheduler rotates when [blocks_run - slice_start] reaches the
          timeslice, so a thread that yields mid-slice starts a fresh
          slice on resume instead of inheriting the remainder *)
  mutable exit_value : int64;
}

type t = {
  mem : Aspace.t;
  n_cores : int;
  mutable threads : thread list;  (** in creation order *)
  mutable next_tid : int;
  mutable current : thread;  (** thread of the core currently stepping *)
  currents : thread option array;  (** per-core scheduled thread *)
  (* serialisation statistics *)
  mutable lock_handoffs : int64;
}

let ts_size = Host.Arch.threadstate_size

let create_thread_state (mem : Aspace.t) (tid : int) : int64 =
  let addr =
    Int64.add Layout.threadstate_base (Int64.of_int ((tid - 1) * ts_size))
  in
  (* ThreadStates are smaller than a page and share pages: map without
     zeroing (or we would wipe neighbouring threads' registers), then
     clear just this thread's block *)
  Aspace.map ~zero:false mem ~addr ~len:ts_size ~perm:Aspace.perm_rw;
  for i = 0 to (ts_size / 8) - 1 do
    Aspace.write mem (Int64.add addr (Int64.of_int (8 * i))) 8 0L
  done;
  addr

let create ?(n_cores = 1) (mem : Aspace.t) : t =
  if n_cores < 1 then invalid_arg "Threads.create: n_cores must be >= 1";
  let main =
    {
      tid = 1;
      core = 0;
      ts_addr = create_thread_state mem 1;
      status = Runnable;
      sig_frames = [];
      blocks_run = 0;
      slice_start = 0;
      exit_value = 0L;
    }
  in
  let currents = Array.make n_cores None in
  currents.(0) <- Some main;
  {
    mem;
    n_cores;
    threads = [ main ];
    next_tid = 2;
    current = main;
    currents;
    lock_handoffs = 0L;
  }

let spawn (t : t) : thread =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th =
    {
      tid;
      core = (tid - 1) mod t.n_cores;
      ts_addr = create_thread_state t.mem tid;
      status = Runnable;
      sig_frames = [];
      blocks_run = 0;
      slice_start = 0;
      exit_value = 0L;
    }
  in
  t.threads <- t.threads @ [ th ];
  if t.currents.(th.core) = None then t.currents.(th.core) <- Some th;
  th

let find (t : t) tid = List.find_opt (fun th -> th.tid = tid) t.threads
let runnable (t : t) = List.filter (fun th -> th.status = Runnable) t.threads

(** Threads pinned to [core], in creation order. *)
let on_core (t : t) (core : int) =
  List.filter (fun th -> th.core = core) t.threads

let rec runnable_on core = function
  | [] -> false
  | th :: rest -> (th.core = core && th.status = Runnable) || runnable_on core rest

(** Does [core] have at least one runnable thread? *)
let has_runnable (t : t) ~(core : int) : bool = runnable_on core t.threads

(** Make [core]'s scheduled thread the current one (the session calls
    this right before stepping the core).  If the core has never had a
    thread scheduled, or its scheduled thread is gone, the first
    runnable thread on the core is picked.  The caller guarantees the
    core has a runnable thread ({!has_runnable}). *)
let select (t : t) ~(core : int) : unit =
  let th =
    match t.currents.(core) with
    | Some th -> th
    | None ->
        let th = List.find (fun x -> x.status = Runnable) (on_core t core) in
        t.currents.(core) <- Some th;
        th
  in
  t.current <- th

(** Hand [t.current]'s core to its next runnable thread (round-robin
    among the threads pinned to that core).  Returns false if the core
    has no runnable thread.  The incoming thread starts a fresh
    timeslice — even on a self-switch, so a single-thread core is not
    re-checked every block. *)
let switch_to_next (t : t) : bool =
  let mine = on_core t t.current.core in
  match List.filter (fun th -> th.status = Runnable) mine with
  | [] -> false
  | rs ->
      let rec after = function
        | [] -> List.hd rs
        | th :: rest when th.tid = t.current.tid -> (
            match List.filter (fun x -> x.status = Runnable) rest with
            | n :: _ -> n
            | [] -> List.hd rs)
        | _ :: rest -> after rest
      in
      let next = after mine in
      if next.tid <> t.current.tid then
        t.lock_handoffs <- Int64.add t.lock_handoffs 1L;
      next.slice_start <- next.blocks_run;
      t.currents.(t.current.core) <- Some next;
      t.current <- next;
      true

(** Preempt [th]'s core with [th] (signal delivery: the target thread
    must run its handler next time its core steps).  When [make_current]
    the session is stepping that very core, so [t.current] moves too —
    the single-core behaviour of delivering into the running slot. *)
let preempt (t : t) (th : thread) ~(make_current : bool) : unit =
  t.currents.(th.core) <- Some th;
  th.slice_start <- th.blocks_run;
  if make_current then t.current <- th

(** {2 Guest-state access} *)

let get_state (t : t) (th : thread) ~(off : int) ~(size : int) : int64 =
  ignore t;
  Aspace.read t.mem (Int64.add th.ts_addr (Int64.of_int off)) size

let put_state (t : t) (th : thread) ~(off : int) ~(size : int) (v : int64) =
  Aspace.write t.mem (Int64.add th.ts_addr (Int64.of_int off)) size v

let get_reg t th r = get_state t th ~off:(Guest.Arch.off_reg r) ~size:4
let put_reg t th r v =
  put_state t th ~off:(Guest.Arch.off_reg r) ~size:4 (Support.Bits.trunc32 v)

let get_eip t th = get_state t th ~off:Guest.Arch.off_eip ~size:4
let put_eip t th v = put_state t th ~off:Guest.Arch.off_eip ~size:4 v

(** Kernel-style register accessor pair for the current thread. *)
let regs_of (t : t) (th : thread) : Kernel.regs =
  { get = (fun r -> get_reg t th r); set = (fun r v -> put_reg t th r v) }

(** {2 Signal frames}

    Delivering a signal saves the full guest+shadow register state (so
    shadow registers survive handlers — a shadow-value tool requirement);
    [sigreturn] restores it. *)

let save_frame (t : t) (th : thread) =
  let saved =
    Aspace.read_bytes t.mem th.ts_addr Guest.Arch.state_size
  in
  th.sig_frames <- saved :: th.sig_frames

let restore_frame (t : t) (th : thread) : bool =
  match th.sig_frames with
  | [] -> false
  | frame :: rest ->
      Aspace.write_bytes t.mem th.ts_addr frame;
      th.sig_frames <- rest;
      true

(** Walk the frame-pointer chain for a stack trace: current PC, then
    return addresses found through fp links ([fp] = saved fp,
    [fp+4] = return address — the minicc frame layout). *)
let stack_trace (t : t) (th : thread) ?(max_depth = 16) () : int64 list =
  let pc = get_eip t th in
  let rec walk fp depth acc =
    if depth >= max_depth || Int64.unsigned_compare fp 0x1000L < 0 then
      List.rev acc
    else
      match
        ( (try Some (Aspace.read t.mem fp 4) with Aspace.Fault _ -> None),
          try Some (Aspace.read t.mem (Int64.add fp 4L) 4)
          with Aspace.Fault _ -> None )
      with
      | Some next_fp, Some ret when ret <> 0L ->
          if Int64.unsigned_compare next_fp fp <= 0 then List.rev (ret :: acc)
          else walk next_fp (depth + 1) (ret :: acc)
      | _ -> List.rev acc
  in
  pc :: walk (get_reg t th Guest.Arch.reg_fp) 0 []
