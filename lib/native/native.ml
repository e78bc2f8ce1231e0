(** The "native CPU" execution engine: runs a VG32 image directly on the
    reference interpreter with the simulated kernel — no instrumentation,
    no translation.  This is the baseline the Table-2 slow-down factors
    are computed against (its cycle counter plays the role of the
    paper's native execution times).

    It supports the same kernel interface as the Valgrind engine
    (threads, signals, the whole syscall set) so any test program runs
    identically under both. *)

module GA = Guest.Arch

type exit_reason = Exited of int | Fatal_signal of int | Out_of_fuel

type thread = {
  tid : int;
  st : Guest.Interp.state;
  cache : Guest.Interp.cached_interp;
  mutable status : [ `Runnable | `Exited ];
  mutable sig_frames : saved_state list;
}

and saved_state = {
  sv_regs : int64 array;
  sv_eip : int64;
  sv_cc : int64 * int64 * int64 * int64;
  sv_fregs : float array;
  sv_vregs : Support.V128.t array;
}

type t = {
  mem : Aspace.t;
  kern : Kernel.t;
  image : Guest.Image.t;
  mutable threads : thread list;
  mutable current : thread;
  mutable next_tid : int;
  mutable exit_reason : exit_reason option;
  mutable insns_between_switch : int;
  mutable sigreturn_tramp : int64;
  mutable thread_exit_tramp : int64;
  mutable tramp_next : int64;
}

let timeslice_insns = 500_000

let total_cycles (t : t) : int64 =
  List.fold_left (fun acc th -> Int64.add acc th.st.Guest.Interp.cycles) 0L t.threads

let total_insns (t : t) : int64 =
  List.fold_left
    (fun acc th -> Int64.add acc th.st.Guest.Interp.insns_retired)
    0L t.threads

let make_thread_in (mem : Aspace.t) ~tid : thread =
  let st = Guest.Interp.create mem in
  { tid; st; cache = Guest.Interp.with_cache st; status = `Runnable; sig_frames = [] }

let make_thread (t : t) ~tid : thread = make_thread_in t.mem ~tid

(* native trampolines live in an otherwise-unused corner of client space *)
let tramp_base = 0x0000_F000L

let write_tramp (t : t) insns : int64 =
  let buf = Support.Buf.create () in
  List.iter (Guest.Encode.emit buf) insns;
  let addr = t.tramp_next in
  let bytes = Support.Buf.contents buf in
  t.tramp_next <- Int64.add addr (Int64.of_int (Bytes.length bytes + 4));
  Aspace.write_bytes t.mem addr bytes;
  addr

let create (image : Guest.Image.t) : t =
  let mem = Aspace.create () in
  let kern = Kernel.create mem in
  let main = make_thread_in mem ~tid:1 in
  {
    mem;
    kern;
    image;
    threads = [ main ];
    current = main;
    next_tid = 2;
    exit_reason = None;
    insns_between_switch = 0;
    sigreturn_tramp = 0L;
    thread_exit_tramp = 0L;
    tramp_next = tramp_base;
  }

let regs_of (th : thread) : Kernel.regs =
  {
    get = (fun r -> th.st.regs.(r));
    set = (fun r v -> th.st.regs.(r) <- Support.Bits.trunc32 v);
  }

let save_frame (th : thread) =
  let st = th.st in
  th.sig_frames <-
    {
      sv_regs = Array.copy st.regs;
      sv_eip = st.eip;
      sv_cc = (st.cc_op, st.cc_dep1, st.cc_dep2, st.cc_ndep);
      sv_fregs = Array.copy st.fregs;
      sv_vregs = Array.copy st.vregs;
    }
    :: th.sig_frames

let restore_frame (th : thread) : bool =
  match th.sig_frames with
  | [] -> false
  | f :: rest ->
      let st = th.st in
      Array.blit f.sv_regs 0 st.regs 0 (Array.length st.regs);
      st.eip <- f.sv_eip;
      let op, d1, d2, nd = f.sv_cc in
      st.cc_op <- op;
      st.cc_dep1 <- d1;
      st.cc_dep2 <- d2;
      st.cc_ndep <- nd;
      Array.blit f.sv_fregs 0 st.fregs 0 (Array.length st.fregs);
      Array.blit f.sv_vregs 0 st.vregs 0 (Array.length st.vregs);
      th.sig_frames <- rest;
      true

let fatal (t : t) signal =
  if t.exit_reason = None then t.exit_reason <- Some (Fatal_signal signal)

let deliver_signal (t : t) (th : thread) (signal : int) =
  match Kernel.handler_for t.kern signal with
  | None -> fatal t signal
  | Some h ->
      save_frame th;
      let st = th.st in
      let sp = Int64.sub st.regs.(GA.reg_sp) 4L in
      Aspace.write t.mem sp 4 (Int64.of_int signal);
      let sp = Int64.sub sp 4L in
      Aspace.write t.mem sp 4 t.sigreturn_tramp;
      st.regs.(GA.reg_sp) <- sp;
      st.eip <- h.sh_addr

let switch_next (t : t) : bool =
  match List.filter (fun th -> th.status = `Runnable) t.threads with
  | [] -> false
  | rs ->
      let rec after = function
        | [] -> List.hd rs
        | th :: rest when th.tid = t.current.tid -> (
            match List.filter (fun x -> x.status = `Runnable) rest with
            | n :: _ -> n
            | [] -> List.hd rs)
        | _ :: rest -> after rest
      in
      t.current <- after t.threads;
      true

let handlers_for (t : t) : Guest.Interp.handlers =
  {
    on_syscall =
      (fun st ->
        let th = t.current in
        match Kernel.syscall t.kern ~tid:th.tid (regs_of th) with
        | Kernel.Ok -> ()
        | Kernel.Exit_process code ->
            if t.exit_reason = None then t.exit_reason <- Some (Exited code)
        | Kernel.Thread_create { entry; sp; arg } ->
            let tid = t.next_tid in
            t.next_tid <- tid + 1;
            let nth = make_thread t ~tid in
            nth.st.regs.(1) <- Support.Bits.trunc32 arg;
            let sp = Int64.sub sp 4L in
            Aspace.write t.mem sp 4 t.thread_exit_tramp;
            nth.st.regs.(GA.reg_sp) <- sp;
            nth.st.regs.(GA.reg_fp) <- sp;
            nth.st.eip <- entry;
            t.threads <- t.threads @ [ nth ];
            st.regs.(0) <- Int64.of_int tid
        | Kernel.Thread_exit ->
            th.status <- `Exited;
            if not (switch_next t) then
              if t.exit_reason = None then t.exit_reason <- Some (Exited 0)
        | Kernel.Yield -> ignore (switch_next t)
        | Kernel.Sigreturn ->
            if not (restore_frame th) then fatal t Kernel.Sig.sigsegv);
    on_clreq = (fun st -> st.regs.(0) <- 0L (* not running under a tool *));
  }

(** Load and run [image] to completion (or until [max_insns] if given).
    Returns the exit reason. *)
let run ?(max_insns = 0L) ?(stdin = "") (t : t) : exit_reason =
  Kernel.set_stdin t.kern stdin;
  t.kern.now_cycles <- (fun () -> total_cycles t);
  t.sigreturn_tramp <-
    (Aspace.map t.mem ~addr:(Aspace.round_down tramp_base) ~len:4096
       ~perm:Aspace.perm_rwx;
     write_tramp t [ GA.Movi (0, Int64.of_int Kernel.Num.sys_sigreturn); GA.Syscall ]);
  t.thread_exit_tramp <-
    write_tramp t [ GA.Movi (0, Int64.of_int Kernel.Num.sys_thread_exit); GA.Syscall ];
  let entry, sp, brk, _mapped = Guest.Image.load t.image t.mem in
  Kernel.set_brk_base t.kern brk;
  let main = t.current in
  main.st.regs.(GA.reg_sp) <- sp;
  main.st.regs.(GA.reg_fp) <- sp;
  main.st.eip <- entry;
  let handlers = handlers_for t in
  let slice = ref 0 in
  while t.exit_reason = None do
    if max_insns > 0L && Int64.unsigned_compare (total_insns t) max_insns > 0
    then t.exit_reason <- Some Out_of_fuel
    else begin
      (* pending signals are delivered between instructions *)
      (if not (Queue.is_empty t.kern.pending) then
         match Kernel.take_pending_signal t.kern with
         | Some (tid, signal) ->
             (match List.find_opt (fun th -> th.tid = tid) t.threads with
             | Some th when th.status = `Runnable -> t.current <- th
             | _ -> ());
             deliver_signal t t.current signal
         | None -> ());
      let th = t.current in
      if th.status <> `Runnable then begin
        if not (switch_next t) then t.exit_reason <- Some (Exited 0)
      end
      else begin
        (match Guest.Interp.step th.cache handlers with
        | () -> ()
        | exception Aspace.Fault _ ->
            deliver_signal t th Kernel.Sig.sigsegv
        | exception Guest.Interp.Sigill _ ->
            deliver_signal t th Kernel.Sig.sigill
        | exception Guest.Interp.Sigfpe _ ->
            deliver_signal t th Kernel.Sig.sigfpe);
        incr slice;
        if !slice >= timeslice_insns then begin
          slice := 0;
          ignore (switch_next t)
        end
      end
    end
  done;
  Option.value t.exit_reason ~default:(Exited 0)

let stdout_contents (t : t) = Kernel.stdout_contents t.kern
