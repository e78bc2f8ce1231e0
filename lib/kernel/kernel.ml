(** Simulated operating-system kernel for VG32 programs.

    Implements the system-call layer both execution engines share: the
    native runner calls straight in; the Valgrind core goes through its
    system-call wrappers (which fire the R4/R6 events of Table 1 around
    these same entry points, and pre-check resource requests against the
    tool's own mappings, §3.10).

    The kernel owns file descriptors, the program break, anonymous
    mappings, signal dispositions and pending-signal queues.  Thread
    scheduling belongs to the execution engine; thread-affecting calls
    return an {!action} the engine interprets. *)

open Support

(** Syscall numbers (the VG32 ABI). *)
module Num = struct
  let sys_exit = 1
  let sys_write = 2
  let sys_read = 3
  let sys_open = 4
  let sys_close = 5
  let sys_brk = 6
  let sys_mmap = 7
  let sys_munmap = 8
  let sys_mremap = 9
  let sys_gettimeofday = 10
  let sys_settimeofday = 11
  let sys_sigaction = 12
  let sys_kill = 13
  let sys_sigreturn = 14
  let sys_thread_create = 15
  let sys_thread_exit = 16
  let sys_yield = 17
  let sys_getpid = 18
  let sys_time = 19
  let sys_nanosleep = 20
  let sys_getcycles = 21 (* read the virtual cycle counter *)

  let name = function
    | 1 -> "exit" | 2 -> "write" | 3 -> "read" | 4 -> "open" | 5 -> "close"
    | 6 -> "brk" | 7 -> "mmap" | 8 -> "munmap" | 9 -> "mremap"
    | 10 -> "gettimeofday" | 11 -> "settimeofday" | 12 -> "sigaction"
    | 13 -> "kill" | 14 -> "sigreturn" | 15 -> "thread_create"
    | 16 -> "thread_exit" | 17 -> "yield" | 18 -> "getpid" | 19 -> "time"
    | 20 -> "nanosleep" | 21 -> "getcycles"
    | n -> Printf.sprintf "sys_%d" n
end

(** Signal numbers. *)
module Sig = struct
  let sigill = 4
  let sigfpe = 8
  let sigusr1 = 10
  let sigsegv = 11
  let sigusr2 = 12
  let sigterm = 15
  let count = 32

  let name = function
    | 4 -> "SIGILL" | 8 -> "SIGFPE" | 10 -> "SIGUSR1" | 11 -> "SIGSEGV"
    | 12 -> "SIGUSR2" | 15 -> "SIGTERM"
    | n -> Printf.sprintf "SIG%d" n
end

(** Errno values (returned as negative results, Linux style). *)
let enoent = -2

let eintr = -4
let ebadf = -9
let eagain = -11
let enomem = -12
let einval = -22

type fd_kind =
  | Fd_console of Buffer.t  (** collected output (stdout/stderr) *)
  | Fd_read of { content : string; mutable pos : int }
  | Fd_write of Buffer.t  (** a written file *)

type fd = { kind : fd_kind; fd_name : string }

(** A registered guest signal handler. *)
type sighandler = { sh_addr : int64 }

(** What the engine must do after a syscall. *)
type action =
  | Ok  (** result already placed in r0 *)
  | Exit_process of int
  | Thread_create of { entry : int64; sp : int64; arg : int64 }
      (** engine creates the thread and writes the tid to r0 *)
  | Thread_exit
  | Yield
  | Sigreturn

type t = {
  mem : Aspace.t;
  fds : (int, fd) Hashtbl.t;
  mutable next_fd : int;
  files : (string, string) Hashtbl.t;  (** simulated filesystem *)
  mutable brk : int64;
  brk_limit : int64;
  mmap_base : int64;  (** client mmap arena cursor base *)
  mmap_limit : int64;
  handlers : sighandler option array;  (** per-signal disposition *)
  pending : (int * int) Queue.t;  (** (tid, signal) queue *)
  mutable now_cycles : unit -> int64;  (** virtual time source *)
  pid : int;
  (* A hook the Valgrind core installs to pre-check address-space
     requests against its own mappings (§3.10): returns false to deny. *)
  mutable map_allowed : int64 -> int -> bool;
  mutable stdout_echo : bool;  (** also echo console output to real stdout *)
}

let create ?(mmap_base = 0x2000_0000L) ?(mmap_limit = 0x3000_0000L)
    (mem : Aspace.t) : t =
  let t =
    {
      mem;
      fds = Hashtbl.create 16;
      next_fd = 3;
      files = Hashtbl.create 16;
      brk = 0L;
      brk_limit = 0x1800_0000L;
      mmap_base;
      mmap_limit;
      handlers = Array.make Sig.count None;
      pending = Queue.create ();
      now_cycles = (fun () -> 0L);
      pid = 4242;
      map_allowed = (fun _ _ -> true);
      stdout_echo = false;
    }
  in
  Hashtbl.replace t.fds 0 { kind = Fd_read { content = ""; pos = 0 }; fd_name = "stdin" };
  Hashtbl.replace t.fds 1 { kind = Fd_console (Buffer.create 256); fd_name = "stdout" };
  Hashtbl.replace t.fds 2 { kind = Fd_console (Buffer.create 256); fd_name = "stderr" };
  t

let set_brk_base t brk = t.brk <- brk

(** Provide stdin contents. *)
let set_stdin t content =
  Hashtbl.replace t.fds 0
    { kind = Fd_read { content; pos = 0 }; fd_name = "stdin" }

(** Register a file in the simulated filesystem. *)
let add_file t name content = Hashtbl.replace t.files name content

(** Collected console output (fd 1 + fd 2 interleaving not preserved). *)
let stdout_contents t =
  match Hashtbl.find_opt t.fds 1 with
  | Some { kind = Fd_console b; _ } -> Buffer.contents b
  | _ -> ""

let stderr_contents t =
  match Hashtbl.find_opt t.fds 2 with
  | Some { kind = Fd_console b; _ } -> Buffer.contents b
  | _ -> ""

(* ------------------------------------------------------------------ *)
(* Signals                                                              *)
(* ------------------------------------------------------------------ *)

let set_handler t signal addr =
  if signal < 1 || signal >= Sig.count then einval
  else begin
    t.handlers.(signal) <- (if addr = 0L then None else Some { sh_addr = addr });
    0
  end

let handler_for t signal =
  if signal < 1 || signal >= Sig.count then None else t.handlers.(signal)

let post_signal t ~tid ~signal = Queue.add (tid, signal) t.pending

let take_pending_signal t : (int * int) option =
  if Queue.is_empty t.pending then None else Some (Queue.take t.pending)

(* ------------------------------------------------------------------ *)
(* The syscall implementations                                          *)
(* ------------------------------------------------------------------ *)

(** Register interface the engines provide: read/write guest integer
    registers of the calling thread. *)
type regs = { get : int -> int64; set : int -> int64 -> unit }

let ret (r : regs) v = r.set 0 (Bits.trunc32 (Int64.of_int v))
let ret64 (r : regs) v = r.set 0 (Bits.trunc32 v)

let do_write t fd_num addr len : int =
  match Hashtbl.find_opt t.fds fd_num with
  | None -> ebadf
  | Some fd -> (
      match fd.kind with
      | Fd_read _ -> ebadf
      | Fd_console b | Fd_write b ->
          (try
             let data = Aspace.read_bytes t.mem addr len in
             Buffer.add_bytes b data;
             if t.stdout_echo && (fd_num = 1 || fd_num = 2) then
               print_string (Bytes.to_string data);
             len
           with Aspace.Fault _ -> einval))

let do_read t fd_num addr len : int =
  match Hashtbl.find_opt t.fds fd_num with
  | None -> ebadf
  | Some fd -> (
      match fd.kind with
      | Fd_read r ->
          let avail = String.length r.content - r.pos in
          let n = min len (max 0 avail) in
          (try
             Aspace.write_bytes t.mem addr
               (Bytes.of_string (String.sub r.content r.pos n));
             r.pos <- r.pos + n;
             n
           with Aspace.Fault _ -> einval)
      | _ -> ebadf)

let do_open t name_addr flags : int =
  let name = Aspace.read_asciiz t.mem name_addr in
  let writing = Int64.logand flags 1L <> 0L in
  if writing then begin
    let fd = t.next_fd in
    t.next_fd <- fd + 1;
    Hashtbl.replace t.fds fd { kind = Fd_write (Buffer.create 64); fd_name = name };
    fd
  end
  else
    match Hashtbl.find_opt t.files name with
    | None -> enoent
    | Some content ->
        let fd = t.next_fd in
        t.next_fd <- fd + 1;
        Hashtbl.replace t.fds fd
          { kind = Fd_read { content; pos = 0 }; fd_name = name };
        fd

let do_close t fd = if Hashtbl.mem t.fds fd then (Hashtbl.remove t.fds fd; 0) else ebadf

let do_brk t (new_brk : int64) : int64 =
  if new_brk = 0L then t.brk
  else if
    Int64.unsigned_compare new_brk t.brk_limit <= 0
    && Int64.unsigned_compare new_brk 0x10000L > 0
  then begin
    if Int64.unsigned_compare new_brk t.brk > 0 then
      Aspace.map ~zero:false t.mem ~addr:t.brk
        ~len:(Int64.to_int (Int64.sub new_brk t.brk))
        ~perm:Aspace.perm_rw
    else if Int64.unsigned_compare new_brk t.brk < 0 then
      Aspace.unmap t.mem
        ~addr:(Aspace.round_up new_brk)
        ~len:(Int64.to_int (Int64.sub (Aspace.round_up t.brk) (Aspace.round_up new_brk)));
    t.brk <- new_brk;
    new_brk
  end
  else t.brk

let do_mmap t ~(len : int) : int64 =
  if len <= 0 then Int64.of_int einval
  else
    match
      Aspace.find_free t.mem ~hint:t.mmap_base ~limit:t.mmap_limit ~len
    with
    | exception Not_found -> Int64.of_int enomem
    | addr ->
        if not (t.map_allowed addr len) then Int64.of_int enomem
        else begin
          Aspace.map t.mem ~addr ~len ~perm:Aspace.perm_rw;
          addr
        end

let do_munmap t addr len : int =
  if len <= 0 then einval
  else begin
    Aspace.unmap t.mem ~addr ~len;
    0
  end

(** mremap may move the block; returns the (possibly new) address.  When
    it moves, memory values are copied — and the Valgrind wrapper fires
    [copy_mem_mremap] so shadow memory follows (R6). *)
let do_mremap t addr old_len new_len : int64 =
  if old_len <= 0 || new_len <= 0 then Int64.of_int einval
  else if new_len <= old_len then begin
    let keep = Aspace.round_up_int new_len in
    if keep < old_len then
      Aspace.unmap t.mem
        ~addr:(Int64.add addr (Int64.of_int keep))
        ~len:(old_len - keep);
    addr
  end
  else
    match
      Aspace.find_free t.mem ~hint:t.mmap_base ~limit:t.mmap_limit ~len:new_len
    with
    | exception Not_found -> Int64.of_int enomem
    | naddr ->
        if not (t.map_allowed naddr new_len) then Int64.of_int enomem
        else begin
          Aspace.map t.mem ~addr:naddr ~len:new_len ~perm:Aspace.perm_rw;
          Aspace.move t.mem ~src:addr ~dst:naddr ~len:old_len;
          Aspace.unmap t.mem ~addr ~len:old_len;
          naddr
        end

(* struct timeval { u32 sec; u32 usec; } *)
let do_gettimeofday t tv_addr tz_addr : int =
  let cycles = t.now_cycles () in
  let usec_total = Int64.div cycles 1000L (* 1 GHz simulated, in us *) in
  let sec = Int64.div usec_total 1_000_000L in
  let usec = Int64.rem usec_total 1_000_000L in
  try
    Aspace.write t.mem tv_addr 4 sec;
    Aspace.write t.mem (Int64.add tv_addr 4L) 4 usec;
    if tz_addr <> 0L then begin
      Aspace.write t.mem tz_addr 4 0L;
      Aspace.write t.mem (Int64.add tz_addr 4L) 4 0L
    end;
    0
  with Aspace.Fault _ -> einval

let do_settimeofday t tv_addr : int =
  (* reads the structs (firing pre_mem_read under Valgrind) and ignores
     the values: the simulated clock is the cycle counter *)
  try
    ignore (Aspace.read t.mem tv_addr 4);
    ignore (Aspace.read t.mem (Int64.add tv_addr 4L) 4);
    0
  with Aspace.Fault _ -> einval

(** Dispatch one syscall: number in r0, args in r1..r5, result to r0.
    [tid] is the calling thread. *)
let syscall (t : t) ~tid:(_tid : int) (r : regs) : action =
  let num = Int64.to_int (r.get 0) in
  let a1 = r.get 1
  and a2 = r.get 2
  and a3 = r.get 3 in
  let open Num in
  if num = sys_exit then Exit_process (Int64.to_int (Bits.sext32 a1))
  else if num = sys_write then begin
    ret r (do_write t (Int64.to_int a1) a2 (Int64.to_int a3));
    Ok
  end
  else if num = sys_read then begin
    ret r (do_read t (Int64.to_int a1) a2 (Int64.to_int a3));
    Ok
  end
  else if num = sys_open then begin
    ret r (do_open t a1 a2);
    Ok
  end
  else if num = sys_close then begin
    ret r (do_close t (Int64.to_int a1));
    Ok
  end
  else if num = sys_brk then begin
    ret64 r (do_brk t a1);
    Ok
  end
  else if num = sys_mmap then begin
    ret64 r (do_mmap t ~len:(Int64.to_int a2));
    Ok
  end
  else if num = sys_munmap then begin
    ret r (do_munmap t a1 (Int64.to_int a2));
    Ok
  end
  else if num = sys_mremap then begin
    ret64 r (do_mremap t a1 (Int64.to_int a2) (Int64.to_int a3));
    Ok
  end
  else if num = sys_gettimeofday then begin
    ret r (do_gettimeofday t a1 a2);
    Ok
  end
  else if num = sys_settimeofday then begin
    ret r (do_settimeofday t a1);
    Ok
  end
  else if num = sys_sigaction then begin
    ret r (set_handler t (Int64.to_int a1) a2);
    Ok
  end
  else if num = sys_kill then begin
    let signal = Int64.to_int a2 in
    if signal < 1 || signal >= Sig.count then begin
      ret r einval;
      Ok
    end
    else begin
      post_signal t ~tid:(Int64.to_int a1) ~signal;
      ret r 0;
      Ok
    end
  end
  else if num = sys_sigreturn then Sigreturn
  else if num = sys_thread_create then
    Thread_create { entry = a1; sp = a2; arg = a3 }
  else if num = sys_thread_exit then Thread_exit
  else if num = sys_yield then begin
    ret r 0;
    Yield
  end
  else if num = sys_getpid then begin
    ret r t.pid;
    Ok
  end
  else if num = sys_time then begin
    ret64 r (Int64.div (t.now_cycles ()) 1_000_000_000L);
    Ok
  end
  else if num = sys_nanosleep then begin
    ret r 0;
    Yield
  end
  else if num = sys_getcycles then begin
    ret64 r (t.now_cycles ());
    Ok
  end
  else begin
    ret r (-38) (* ENOSYS *);
    Ok
  end
