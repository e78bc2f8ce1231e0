(** Clients the oracle's sets run besides the SPEC-shaped workloads,
    the hostile suite and generated programs. *)

(** A syscall-heavy mini-C client: the SPEC-shaped workloads never call
    read/mmap directly, so this one pushes the wrapper's EINTR-restart
    and mapping-retry paths.  It reads {!io_file}. *)
let io_src =
  {|
int main() {
  char buf[64];
  int fd = open("data.txt", 0);
  int total = 0;
  int n = read(fd, buf, 64);
  while (n > 0) {
    total = total + n;
    n = read(fd, buf, 64);
  }
  close(fd);
  int i;
  for (i = 0; i < 16; i = i + 1) {
    char *p = mmap(4096);
    if ((int)p > 0) {
      p[0] = 'x';
      p = mremap(p, 4096, 8192);
      if ((int)p > 0) { munmap(p, 8192); }
    }
  }
  print_str("io total=");
  print_int(total);
  print_str("\n");
  return 0;
}
|}

(** The simulated file [io_src] reads: name and contents. *)
let io_file () =
  ("data.txt", String.init 777 (fun i -> Char.chr (33 + (i mod 90))))

(** A two-thread racy mini-C client: no locks, plain yields drive
    scheduling.  At two cores the interleaving is cycle-driven, so chaos
    timing noise legitimately reshapes it; what must hold is that the
    same seed reproduces every fault and every output bit. *)
let threaded_src =
  {|
int counter;
int done1;
int done2;
char stk1[4096];
char stk2[4096];

void worker1() {
  int i;
  for (i = 0; i < 100; i = i + 1) { counter = counter + 1; }
  done1 = 1;
  thread_exit();
}

void worker2() {
  int i;
  for (i = 0; i < 100; i = i + 1) { counter = counter + 1; }
  done2 = 1;
  thread_exit();
}

int main() {
  thread_create((int)&worker1, (int)stk1 + 4088, 0);
  thread_create((int)&worker2, (int)stk2 + 4088, 0);
  while (done1 == 0 || done2 == 0) { yield(); }
  print_str("counter=");
  print_int(counter);
  print_str("\n");
  return 0;
}
|}

(** Four compute-bound threads: main spawns three workers (threads 2..4
    land on cores 1..3 at four cores), runs its own loop, then
    spin-waits on the workers' done counter.  [bench/workloads/threads4.s]
    is the same program, for the driver-level [--stats=json] golden. *)
let threads4_src =
  {|
        .text
        .global _start
_start: movi r7, 0            ; worker index 0..2
spawn:  movi r1, worker
        movi r2, stacks
        mov r3, r7
        inc r3
        muli r3, 4096
        add r2, r3
        subi r2, 4
        movi r3, 0
        movi r0, 15           ; thread_create
        syscall
        inc r7
        cmpi r7, 3
        jne spawn
        movi r5, 3000
mloop:  dec r5
        jne mloop
mwait:  movi r0, 17           ; yield
        syscall
        movi r3, ndone
        ldw r4, [r3]
        cmpi r4, 3
        jne mwait
        movi r0, 1
        movi r1, 0
        syscall
worker: movi r5, 3000
wloop:  dec r5
        jne wloop
        movi r3, ndone
        ldw r4, [r3]
        inc r4
        stw [r3], r4
        movi r0, 16           ; thread_exit
        syscall
        .data
ndone:  .word 0
        .align 4
stacks: .space 12288
|}

(** A client that signals itself: it installs a SIGUSR1 handler with
    sigaction, sends the signal with kill, and exits 42 once the handler
    has run and sigreturn resumed it (13 if the handler never ran).  The
    delivery happens between blocks (§3.15), so under record/replay it is
    a logged decision. *)
let signal_src =
  {|
        .text
        .global _start
_start: movi r0, 12          ; sigaction(SIGUSR1, handler)
        movi r1, 10
        movi r2, handler
        syscall
        movi r0, 13          ; kill(1, SIGUSR1)
        movi r1, 1
        movi r2, 10
        syscall
        movi r3, flag        ; sigreturn restored the registers, so the
        ldw r4, [r3]         ; handler reports through memory
        cmpi r4, 99
        jne bad
        movi r0, 1
        movi r1, 42
        syscall
bad:    movi r0, 1
        movi r1, 13
        syscall
handler: ldw r3, [sp+4]
        cmpi r3, 10
        jne hbad
        movi r3, flag
        movi r4, 99
        stw [r3], r4
        ret
hbad:   ret
        .data
flag:   .word 0
|}
