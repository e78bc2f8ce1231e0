(** The events system (paper §3.12 and Table 1).

    The IR is expressive but cannot describe guest-state and memory
    changes made behind the client's back — system-call reads/writes,
    start-up allocations, mmap/brk/stack growth.  Tools register
    callbacks here; the core's system-call wrappers, loader and
    stack-pointer instrumentation invoke them.  Each callback slot also
    counts invocations so the Table-1 bench can report observed trigger
    counts. *)

type counted = { mutable count : int }

let tick c = c.count <- c.count + 1

type t = {
  (* R4: system calls reading/writing registers *)
  mutable pre_reg_read : (syscall:string -> off:int -> size:int -> unit) option;
  c_pre_reg_read : counted;
  mutable post_reg_write : (syscall:string -> off:int -> size:int -> unit) option;
  c_post_reg_write : counted;
  (* R4: system calls reading/writing memory *)
  mutable pre_mem_read : (syscall:string -> addr:int64 -> len:int -> unit) option;
  c_pre_mem_read : counted;
  mutable pre_mem_read_asciiz : (syscall:string -> addr:int64 -> unit) option;
  c_pre_mem_read_asciiz : counted;
  mutable pre_mem_write : (syscall:string -> addr:int64 -> len:int -> unit) option;
  c_pre_mem_write : counted;
  mutable post_mem_write : (addr:int64 -> len:int -> unit) option;
  c_post_mem_write : counted;
  (* R5: start-up allocations *)
  mutable new_mem_startup :
    (addr:int64 -> len:int -> defined:bool -> what:string -> unit) option;
  c_new_mem_startup : counted;
  (* R6: system-call (de)allocations *)
  mutable new_mem_mmap : (addr:int64 -> len:int -> unit) option;
  c_new_mem_mmap : counted;
  mutable die_mem_munmap : (addr:int64 -> len:int -> unit) option;
  c_die_mem_munmap : counted;
  mutable new_mem_brk : (addr:int64 -> len:int -> unit) option;
  c_new_mem_brk : counted;
  mutable die_mem_brk : (addr:int64 -> len:int -> unit) option;
  c_die_mem_brk : counted;
  mutable copy_mem_mremap : (src:int64 -> dst:int64 -> len:int -> unit) option;
  c_copy_mem_mremap : counted;
  (* R7: stack (de)allocations *)
  mutable new_mem_stack : (addr:int64 -> len:int -> unit) option;
  c_new_mem_stack : counted;
  mutable die_mem_stack : (addr:int64 -> len:int -> unit) option;
  c_die_mem_stack : counted;
}

let create () =
  {
    pre_reg_read = None;
    c_pre_reg_read = { count = 0 };
    post_reg_write = None;
    c_post_reg_write = { count = 0 };
    pre_mem_read = None;
    c_pre_mem_read = { count = 0 };
    pre_mem_read_asciiz = None;
    c_pre_mem_read_asciiz = { count = 0 };
    pre_mem_write = None;
    c_pre_mem_write = { count = 0 };
    post_mem_write = None;
    c_post_mem_write = { count = 0 };
    new_mem_startup = None;
    c_new_mem_startup = { count = 0 };
    new_mem_mmap = None;
    c_new_mem_mmap = { count = 0 };
    die_mem_munmap = None;
    c_die_mem_munmap = { count = 0 };
    new_mem_brk = None;
    c_new_mem_brk = { count = 0 };
    die_mem_brk = None;
    c_die_mem_brk = { count = 0 };
    copy_mem_mremap = None;
    c_copy_mem_mremap = { count = 0 };
    new_mem_stack = None;
    c_new_mem_stack = { count = 0 };
    die_mem_stack = None;
    c_die_mem_stack = { count = 0 };
  }

(* Firing helpers used by the core. *)

let fire_pre_reg_read t ~syscall ~off ~size =
  match t.pre_reg_read with
  | None -> ()
  | Some f ->
      tick t.c_pre_reg_read;
      f ~syscall ~off ~size

let fire_post_reg_write t ~syscall ~off ~size =
  match t.post_reg_write with
  | None -> ()
  | Some f ->
      tick t.c_post_reg_write;
      f ~syscall ~off ~size

let fire_pre_mem_read t ~syscall ~addr ~len =
  match t.pre_mem_read with
  | None -> ()
  | Some f ->
      tick t.c_pre_mem_read;
      f ~syscall ~addr ~len

let fire_pre_mem_read_asciiz t ~syscall ~addr =
  match t.pre_mem_read_asciiz with
  | None -> ()
  | Some f ->
      tick t.c_pre_mem_read_asciiz;
      f ~syscall ~addr

let fire_pre_mem_write t ~syscall ~addr ~len =
  match t.pre_mem_write with
  | None -> ()
  | Some f ->
      tick t.c_pre_mem_write;
      f ~syscall ~addr ~len

let fire_post_mem_write t ~addr ~len =
  match t.post_mem_write with
  | None -> ()
  | Some f ->
      tick t.c_post_mem_write;
      f ~addr ~len

let fire_new_mem_startup t ~addr ~len ~defined ~what =
  match t.new_mem_startup with
  | None -> ()
  | Some f ->
      tick t.c_new_mem_startup;
      f ~addr ~len ~defined ~what

let fire_new_mem_mmap t ~addr ~len =
  match t.new_mem_mmap with
  | None -> ()
  | Some f ->
      tick t.c_new_mem_mmap;
      f ~addr ~len

let fire_die_mem_munmap t ~addr ~len =
  match t.die_mem_munmap with
  | None -> ()
  | Some f ->
      tick t.c_die_mem_munmap;
      f ~addr ~len

let fire_new_mem_brk t ~addr ~len =
  match t.new_mem_brk with
  | None -> ()
  | Some f ->
      tick t.c_new_mem_brk;
      f ~addr ~len

let fire_die_mem_brk t ~addr ~len =
  match t.die_mem_brk with
  | None -> ()
  | Some f ->
      tick t.c_die_mem_brk;
      f ~addr ~len

let fire_copy_mem_mremap t ~src ~dst ~len =
  match t.copy_mem_mremap with
  | None -> ()
  | Some f ->
      tick t.c_copy_mem_mremap;
      f ~src ~dst ~len

let fire_new_mem_stack t ~addr ~len =
  match t.new_mem_stack with
  | None -> ()
  | Some f ->
      tick t.c_new_mem_stack;
      f ~addr ~len

let fire_die_mem_stack t ~addr ~len =
  match t.die_mem_stack with
  | None -> ()
  | Some f ->
      tick t.c_die_mem_stack;
      f ~addr ~len

(** (event name, trigger site, observed count) rows for the Table-1
    harness. *)
let table1_rows (t : t) : (string * string * int64) list =
  List.map
    (fun (name, site, n) -> (name, site, Int64.of_int n))
    [
      ("pre_reg_read", "every system call wrapper", t.c_pre_reg_read.count);
      ("post_reg_write", "every system call wrapper", t.c_post_reg_write.count);
      ("pre_mem_read", "many system call wrappers", t.c_pre_mem_read.count);
      ( "pre_mem_read_asciiz",
        "many system call wrappers",
        t.c_pre_mem_read_asciiz.count );
      ("pre_mem_write", "many system call wrappers", t.c_pre_mem_write.count);
      ("post_mem_write", "many system call wrappers", t.c_post_mem_write.count);
      ("new_mem_startup", "Valgrind's code loader", t.c_new_mem_startup.count);
      ("new_mem_mmap", "mmap wrapper", t.c_new_mem_mmap.count);
      ("die_mem_munmap", "munmap wrapper", t.c_die_mem_munmap.count);
      ("new_mem_brk", "brk wrapper", t.c_new_mem_brk.count);
      ("die_mem_brk", "brk wrapper", t.c_die_mem_brk.count);
      ("copy_mem_mremap", "mremap wrapper", t.c_copy_mem_mremap.count);
      ("new_mem_stack", "instrumentation of SP changes", t.c_new_mem_stack.count);
      ("die_mem_stack", "instrumentation of SP changes", t.c_die_mem_stack.count);
    ]

(** The invocation counters in Table-1 order (the replay digest hashes
    them). *)
let counts (t : t) : int64 list = List.map (fun (_, _, n) -> n) (table1_rows t)
