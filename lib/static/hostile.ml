(** The hostile corpus: hand-written VG32 guests built to defeat a DBI
    framework, one list read by [vgscan hostile] (and its golden), the
    oracle's [hostile] set ([Fuzz.Diff.hostile]) and the tier-1 tests.

    The first six are small fixtures, one hostile-code class each:
    overlapping and mid-instruction code (§3.16), a jump table, a static
    SMC store, a wild jump and truncated text.  The last four are
    executable anti-instrumentation patterns from the literature:
    self-decryption, a timing probe, a stack pivot and overlapping
    dispatch.  Each hostile construct is guarded so that execution stays
    well defined: every guest but [truncated-text] reaches a known exit
    natively and under every tool and schedule.  A guest that reads the
    virtual cycle clock may see a different delta under instrumentation,
    so its contract is the exit, not the registers. *)

type guest = {
  h_name : string;
  h_image : Guest.Image.t;
  h_classes : string list;  (** Vgscan finding classes that must fire *)
  h_exit : int option;
      (** the exit every run reaches; [None] when the image cannot run *)
}

(* Two instruction streams over the same bytes.  The taken branch lands
   two bytes into the [movi r2, 0x3101] whose immediate bytes re-decode
   as [mov r3, r1; nop; nop], re-merging with the straight stream at the
   next instruction — both paths are valid code, so this runs cleanly
   while sharing text bytes between streams. *)
let overlap_src =
  {|
_start:
    movi r1, 1
    cmpi r1, 1
    jeq over+2
over:
    movi r2, 0x3101
merge:
    movi r0, 1
    movi r1, 6
    syscall
|}

(* A (dynamically never-taken) branch into the immediate of a movi. *)
let midinsn_src =
  {|
_start:
    movi r1, 0
    cmpi r1, 1
    jeq hold+2
hold:
    movi r2, 0xFFFFFFFF
    movi r0, 1
    movi r1, 5
    syscall
|}

(* The canonical bounded jump-table dispatch: bound check, table load,
   indirect jump.  The scanner must recognise the table and root every
   entry. *)
let jumptable_src =
  {|
_start:
    movi r1, 2
    cmpi r1, 4
    jae default
    ldw r2, [tbl+r1*4]
    jmpr r2
case0:
    movi r3, 10
    jmp done
case1:
    movi r3, 11
    jmp done
case2:
    movi r3, 12
    jmp done
case3:
    movi r3, 13
    jmp done
default:
    movi r3, 99
done:
    movi r0, 1
    mov r1, r3
    syscall

    .data
tbl:
    .word case0, case1, case2, case3
|}

(* A store aimed at the image's own text (a static SMC candidate),
   guarded so it never actually executes. *)
let smc_src =
  {|
_start:
    movi r1, 0
    cmpi r1, 0
    jeq skip
    stb [patch], r1
patch:
    nop
skip:
    movi r0, 1
    movi r1, 3
    syscall
|}

(* A (never-executed) direct jump clean out of the image. *)
let badtarget_src =
  {|
_start:
    movi r1, 0
    cmpi r1, 0
    jeq ok
    jmp 0xDEAD0000
ok:
    movi r0, 1
    movi r1, 4
    syscall
|}

(* Text that ends in the middle of an instruction: [nop] followed by
   the first two bytes of a movi.  Built from raw bytes — no assembler
   will emit this. *)
let truncated_image () : Guest.Image.t =
  let text = Bytes.of_string "\x00\x02\x01" in
  let text_addr = Guest.Image.default_text_base in
  {
    Guest.Image.text_addr;
    text;
    data_addr = Guest.Image.round_page (Int64.add text_addr 3L);
    data = Bytes.create 0;
    bss_len = 0;
    entry = text_addr;
    symbols = [ ("_start", text_addr) ];
  }

(* Decrypts an 8-byte payload from text into rwx stack memory and calls
   it; then decrypts a *different* payload over the same address —
   rewriting the body it just executed — and calls again.  The
   encrypted blobs, [movi r3, 55; ret] and [movi r3, 11; ret] padded to
   8 bytes and XORed with 0x5A, live in .text (data-in-text, the
   classic packer shape), and the absolute [ldw] from text is the
   integrity-probe signature the [text-read] lint keys on.  Exits
   55 + 11. *)
let selfdecrypt_src =
  {|
_start:
    ldw r2, [enc1]        ; self-inspection: absolute read of own text
    mov r4, sp
    subi r4, 2048
    movi r1, 0
d1:
    ldb r2, [r1+enc1]
    xori r2, 0x5A
    stb [r4+r1], r2
    inc r1
    cmpi r1, 8
    jne d1
    callr r4
    mov r5, r3
    movi r1, 0
d2:
    ldb r2, [r1+enc2]
    xori r2, 0x5A
    stb [r4+r1], r2
    inc r1
    cmpi r1, 8
    jne d2
    callr r4
    add r5, r3
    movi r0, 1
    mov r1, r5
    syscall
enc1:
    .byte 0x58, 0x59, 0x6d, 0x5a, 0x5a, 0x5a, 0x67, 0x5a
enc2:
    .byte 0x58, 0x59, 0x51, 0x5a, 0x5a, 0x5a, 0x67, 0x5a
|}

(* Reads the virtual cycle clock twice and branches on the delta.  The
   delta differs under instrumentation (tool helpers charge cycles) —
   the transparency bound we assert is behavioural: under every engine
   the delta is positive and below the generous threshold, so the probe
   takes the same path and exits 7 everywhere. *)
let timingprobe_src =
  {|
_start:
    movi r0, 21           ; sys_getcycles
    syscall
    mov r4, r0
    movi r0, 21
    syscall
    sub r0, r4            ; delta
    cmpi r0, 0
    jle caught            ; clock stalled: instrumentation visible
    cmpi r0, 100000
    ja caught             ; clock jumped: instrumentation visible
    movi r1, 7
    jmp leave
caught:
    movi r1, 8
leave:
    movi r0, 1
    syscall
|}

(* mmaps a page, points sp into it, runs pushes/pops/calls on the
   pivoted stack, then restores.  Exercises the unknown-SP-update
   classifier (the delta is far past any frame size, so the core must
   treat it as a stack switch, not allocation).  Exits
   (0x1234 + 0x5678) land 63. *)
let stackpivot_src =
  {|
_start:
    movi r0, 7            ; sys_mmap
    movi r2, 4096         ; length
    syscall
    mov r4, r0
    addi r4, 4080
    mov r5, sp
    mov sp, r4            ; pivot
    pushi 0x1234
    pushi 0x5678
    pop r2
    pop r3
    add r2, r3
    call onpivot
    mov sp, r5            ; pivot back
    andi r2, 63
    movi r0, 1
    mov r1, r2
    syscall
onpivot:
    push r2
    pop r2
    ret
|}

(* A 4-entry dispatch table whose entries include both [ov] and [ov+2]:
   the same text bytes execute as two different instruction streams
   depending on the dynamic index.  r3 per iteration: 5 (case0),
   5 (ov: movi r2 only), 9 (case2), 3 (ov+2: mov r3, r1 with r1=3);
   exits 5 + 5 + 9 + 3. *)
let overjump_src =
  {|
_start:
    movi r5, 0
    movi r1, 0
next:
    andi r1, 3
    ldw r4, [r1*4+jt]
    jmpr r4
case0:
    movi r3, 5
    jmp join
ov:
    movi r2, 0x3101       ; +2 decodes as mov r3, r1; nop; nop
    jmp join
case2:
    movi r3, 9
    jmp join
join:
    add r5, r3
    inc r1
    cmpi r1, 4
    jb next
    mov r1, r5
    andi r1, 63
    movi r0, 1
    syscall
.data
jt:
    .word case0, ov, case2, ov+2
|}

let all () : guest list =
  let asm h_name src h_classes exit =
    { h_name; h_image = Guest.Asm.assemble src; h_classes; h_exit = Some exit }
  in
  [
    asm "overlap-exec" overlap_src [ "overlap"; "mid-insn-jump" ] 6;
    asm "midinsn-branch" midinsn_src [ "mid-insn-jump" ] 5;
    asm "jump-table" jumptable_src [ "jump-table" ] 12;
    asm "smc-stub" smc_src [ "smc-write" ] 3;
    asm "bad-target" badtarget_src [ "bad-target" ] 4;
    {
      h_name = "truncated-text";
      h_image = truncated_image ();
      h_classes = [ "truncated" ];
      h_exit = None;
    };
    asm "selfdecrypt" selfdecrypt_src [ "text-read" ] 66;
    asm "timingprobe" timingprobe_src [ "timing-probe" ] 7;
    asm "stackpivot" stackpivot_src [ "sp-pivot" ] 44;
    asm "overjump" overjump_src [ "jump-table"; "overlap" ] 22;
  ]
