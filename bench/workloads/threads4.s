; Four-thread compute workload for the cores set and the bench job: main spawns
; three compute-bound workers (pinned to cores 1..3 under --cores 4),
; runs its own loop, then spin-waits on the workers' done counter.
; Kept in sync with the inline copy in lib/fuzz/clients.ml; the
; committed golden bench/workloads/threads4_stats_golden.json is this program's
; --tool=lackey --cores=2 --stats=json output.
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
