(** System-call wrappers (paper §3.10, §3.12).

    Valgrind provides a wrapper for every system call which invokes the
    R4/R6 event callbacks as needed: argument registers are announced
    with [pre_reg_read], pointed-to memory with [pre_mem_read]/
    [pre_mem_write], results with [post_reg_write]/[post_mem_write], and
    the allocation syscalls fire new/die/copy memory events.  The
    wrappers also keep the core safe: [munmap] discards any translations
    made from the unmapped range, and client [mmap] requests were already
    pre-checked against the core's own mappings by the hook installed in
    the kernel.

    (The real Valgrind's wrappers are ~15,000 lines covering ~300
    syscalls with all their sub-cases; VG32's kernel has ~20, so this
    file is mercifully shorter, but the structure is the same: one
    wrapper per syscall, each encoding that syscall's exact access
    pattern.) *)

open Kernel
module GA = Guest.Arch

(** Per-session wrapper counters (owned by the session, read by its
    statistics): how often each robustness path ran. *)
type counters = {
  mutable n_restarts : int;  (** EINTR restarts of read/nanosleep *)
  mutable n_injected_errnos : int;  (** faults surfaced to the client *)
  mutable n_short_io : int;  (** short reads/writes applied *)
  mutable n_map_retries : int;  (** mmap/mremap retries after ENOMEM *)
}

let fresh_counters () =
  { n_restarts = 0; n_injected_errnos = 0; n_short_io = 0; n_map_retries = 0 }

(** Publish the wrapper counters into a metrics registry as probes (the
    registry reads the same mutable fields the stats record does). *)
let publish (r : Obs.Registry.t) (c : counters) =
  let pi name f = Obs.Registry.probe r name (fun () -> Int64.of_int (f ())) in
  pi "syswrap.restarts" (fun () -> c.n_restarts);
  pi "syswrap.injected_errnos" (fun () -> c.n_injected_errnos);
  pi "syswrap.short_io" (fun () -> c.n_short_io);
  pi "syswrap.map_retries" (fun () -> c.n_map_retries)

type env = {
  events : Events.t;
  kern : Kernel.t;
  on_discard : int64 -> int -> unit;  (** munmap'd/discarded code ranges *)
  chaos : Chaos.t option;  (** fault injection, if the session runs chaos *)
  counters : counters;
  charge : int -> unit;  (** cycle accounting for restart/backoff work *)
  rr : Replay.rr;
      (** record/replay hook: [Record] logs every kernel invocation's
          client-visible result and effects; [Replay] skips the kernel
          entirely and reconstructs them from the log *)
  now : unit -> int64;  (** current wall cycle (informational, logged) *)
}

(* How often the wrapper re-issues before giving up and letting the
   client see the error.  Chaos caps consecutive injections below these,
   so injected faults always recover. *)
let restart_limit = 8
let map_attempt_limit = 4

let enomem32 = Support.Bits.trunc32 (Int64.of_int Kernel.enomem)

(* Invoke the kernel with fault injection and recovery around it:
   - an injected EINTR on a restartable syscall (read, nanosleep) is
     restarted transparently, like the kernel's SA_RESTART handling —
     the client never observes it;
   - other injected errnos are placed in r0 without entering the kernel;
   - an injected short length clamps r3 for the duration of the call
     (a short read/write, which clients must already cope with);
   - mmap/mremap placement denials (transient, injected through the
     kernel's [map_allowed] hook) are retried with exponential backoff,
     charged as cycles. *)
let rec invoke ?(restarts = 0) (e : env) ~tid ~num (r : Kernel.regs) :
    Kernel.action =
  let fault =
    match e.chaos with
    | None -> None
    | Some c ->
        let len =
          if num = Num.sys_read || num = Num.sys_write then
            Int64.to_int (r.get 3)
          else 0
        in
        Chaos.syscall_fault c ~num ~len
  in
  match fault with
  | Some (Chaos.Errno err)
    when err = Kernel.eintr && Chaos.restartable num
         && restarts < restart_limit ->
      e.counters.n_restarts <- e.counters.n_restarts + 1;
      Chaos.note_recovery e.chaos "syscall_restart";
      e.charge 40;
      invoke ~restarts:(restarts + 1) e ~tid ~num r
  | Some (Chaos.Errno err) ->
      e.counters.n_injected_errnos <- e.counters.n_injected_errnos + 1;
      Kernel.ret r err;
      Kernel.Ok
  | Some (Chaos.Short_len n) ->
      let saved = r.get 3 in
      r.set 3 (Int64.of_int n);
      let a = Kernel.syscall e.kern ~tid r in
      r.set 3 saved;
      (* count only if the clamped call succeeded: a call that failed
         outright performed no IO, so no short IO was applied to the
         client (the recorded counter must match the client-visible
         outcome, or record/replay digests drift) *)
      if Int64.unsigned_compare (r.get 0) 0xFFFF_F000L < 0 then
        e.counters.n_short_io <- e.counters.n_short_io + 1;
      a
  | None ->
      if num = Num.sys_mmap || num = Num.sys_mremap then
        map_with_retry e ~tid ~num r 0
      else Kernel.syscall e.kern ~tid r

and map_with_retry (e : env) ~tid ~num (r : Kernel.regs) (attempt : int) :
    Kernel.action =
  let a = Kernel.syscall e.kern ~tid r in
  if e.chaos <> None && r.get 0 = enomem32 && attempt + 1 < map_attempt_limit
  then begin
    e.counters.n_map_retries <- e.counters.n_map_retries + 1;
    Chaos.note_recovery e.chaos "map_retry";
    e.charge (100 lsl attempt);
    (* the kernel wrote -ENOMEM into r0, which also carries the syscall
       number on entry: restore it or the retry dispatches garbage *)
    r.set 0 (Int64.of_int num);
    map_with_retry e ~tid ~num r (attempt + 1)
  end
  else a

(* Convenience: announce that the syscall reads its number and [n]
   argument registers. *)
let pre_args (e : env) ~name ~n =
  Events.fire_pre_reg_read e.events ~syscall:name ~off:(GA.off_reg 0) ~size:4;
  for i = 1 to n do
    Events.fire_pre_reg_read e.events ~syscall:name ~off:(GA.off_reg i) ~size:4
  done

let post_ret (e : env) ~name =
  Events.fire_post_reg_write e.events ~syscall:name ~off:(GA.off_reg 0) ~size:4

(** Run one system call for the current thread, firing events around the
    kernel's implementation. *)
let syscall (e : env) ~(tid : int) (r : Kernel.regs) : Kernel.action =
  let num = Int64.to_int (r.get 0) in
  let name = Num.name num in
  let a1 = r.get 1 and a2 = r.get 2 and a3 = r.get 3 in
  let ev = e.events in
  (* pre-events *)
  let n_args =
    if num = Num.sys_exit then 1
    else if num = Num.sys_write || num = Num.sys_read then 3
    else if num = Num.sys_open then 2
    else if num = Num.sys_close then 1
    else if num = Num.sys_brk then 1
    else if num = Num.sys_mmap then 2
    else if num = Num.sys_munmap then 2
    else if num = Num.sys_mremap then 3
    else if num = Num.sys_gettimeofday then 2
    else if num = Num.sys_settimeofday then 1
    else if num = Num.sys_sigaction then 2
    else if num = Num.sys_kill then 2
    else if num = Num.sys_thread_create then 3
    else 0
  in
  pre_args e ~name ~n:n_args;
  if num = Num.sys_write then
    Events.fire_pre_mem_read ev ~syscall:name ~addr:a2 ~len:(Int64.to_int a3)
  else if num = Num.sys_read then
    Events.fire_pre_mem_write ev ~syscall:name ~addr:a2 ~len:(Int64.to_int a3)
  else if num = Num.sys_open then
    Events.fire_pre_mem_read_asciiz ev ~syscall:name ~addr:a1
  else if num = Num.sys_gettimeofday then begin
    Events.fire_pre_mem_write ev ~syscall:name ~addr:a1 ~len:8;
    if a2 <> 0L then Events.fire_pre_mem_write ev ~syscall:name ~addr:a2 ~len:8
  end
  else if num = Num.sys_settimeofday then
    Events.fire_pre_mem_read ev ~syscall:name ~addr:a1 ~len:8;
  (* state snapshots needed for post-events *)
  let old_brk = e.kern.brk in
  (* the call itself, with fault injection + restart/retry around it —
     or, on replay, the logged result applied without entering the
     kernel at all (injected faults were already folded into what the
     record run logged) *)
  let action =
    match e.rr with
    | Replay.Replay p ->
        let action, charged, (restarts, errnos, short_io, map_retries) =
          Replay.replay_syscall p ~kern:e.kern ~num ~r ~cycle:(e.now ())
        in
        (* the record run charged restart/backoff cycles incrementally;
           nothing reads the clock mid-invoke (the kernel never runs
           here), so one lump of the recorded total is equivalent *)
        e.charge charged;
        e.counters.n_restarts <- restarts;
        e.counters.n_injected_errnos <- errnos;
        e.counters.n_short_io <- short_io;
        e.counters.n_map_retries <- map_retries;
        action
    | Replay.Record rec_ ->
        Replay.begin_syscall rec_ ~num ~args:(a1, a2, a3);
        let charged = ref 0 in
        let e' =
          {
            e with
            charge =
              (fun c ->
                charged := !charged + c;
                e.charge c);
          }
        in
        let action = invoke e' ~tid ~num r in
        Replay.end_syscall rec_ ~kern:e.kern ~ret:(r.get 0) ~action
          ~charged:!charged ~cycle:(e.now ())
          ~counters:
            ( e.counters.n_restarts, e.counters.n_injected_errnos,
              e.counters.n_short_io, e.counters.n_map_retries );
        action
    | Replay.No_rr -> invoke e ~tid ~num r
  in
  let ret = r.get 0 in
  let ok = Int64.unsigned_compare ret 0xFFFF_F000L < 0 (* not -errno *) in
  (* post-events *)
  post_ret e ~name;
  if num = Num.sys_read && ok then
    Events.fire_post_mem_write ev ~addr:a2 ~len:(Int64.to_int ret)
  else if num = Num.sys_gettimeofday && ok then begin
    Events.fire_post_mem_write ev ~addr:a1 ~len:8;
    if a2 <> 0L then Events.fire_post_mem_write ev ~addr:a2 ~len:8
  end
  else if num = Num.sys_brk then begin
    let new_brk = e.kern.brk in
    if Int64.unsigned_compare new_brk old_brk > 0 then
      Events.fire_new_mem_brk ev ~addr:old_brk
        ~len:(Int64.to_int (Int64.sub new_brk old_brk))
    else if Int64.unsigned_compare new_brk old_brk < 0 then
      Events.fire_die_mem_brk ev ~addr:new_brk
        ~len:(Int64.to_int (Int64.sub old_brk new_brk))
  end
  else if num = Num.sys_mmap && ok then
    Events.fire_new_mem_mmap ev ~addr:ret ~len:(Int64.to_int a2)
  else if num = Num.sys_munmap && ok then begin
    let len = Int64.to_int a2 in
    Events.fire_die_mem_munmap ev ~addr:a1 ~len;
    (* unloaded code: evict any translations made from it (§3.8) *)
    e.on_discard a1 len
  end
  else if num = Num.sys_mremap && ok then begin
    let old_len = Int64.to_int a2 and new_len = Int64.to_int a3 in
    let dst = ret in
    if dst <> a1 then begin
      (* moved: shadow memory must follow the copied values *)
      Events.fire_copy_mem_mremap ev ~src:a1 ~dst ~len:(min old_len new_len);
      if new_len > old_len then
        Events.fire_new_mem_mmap ev
          ~addr:(Int64.add dst (Int64.of_int old_len))
          ~len:(new_len - old_len);
      Events.fire_die_mem_munmap ev ~addr:a1 ~len:old_len;
      e.on_discard a1 old_len
    end
    else if new_len < old_len then begin
      Events.fire_die_mem_munmap ev
        ~addr:(Int64.add a1 (Int64.of_int new_len))
        ~len:(old_len - new_len);
      e.on_discard (Int64.add a1 (Int64.of_int new_len)) (old_len - new_len)
    end
    else if new_len > old_len then
      Events.fire_new_mem_mmap ev
        ~addr:(Int64.add a1 (Int64.of_int old_len))
        ~len:(new_len - old_len)
  end;
  action
