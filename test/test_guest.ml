(* VG32 guest architecture tests: encode/decode roundtrips (including a
   random-instruction property), condition-code semantics, and the
   reference interpreter. *)

open Guest.Arch

let t name f = Alcotest.test_case name `Quick f
let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

(* ---- encode/decode ------------------------------------------------- *)

let roundtrip (i : insn) : insn * int =
  let bytes = Guest.Encode.encode i in
  Guest.Decode.decode (fun a -> Char.code (Bytes.get bytes (Int64.to_int a))) 0L

let sample_insns =
  [
    Nop;
    Mov (0, 7);
    Movi (3, 0xDEADBEEFL);
    Lea (1, { base = Some 2; index = Some (3, 4); disp = -20L });
    Ld (W1, Zx, 0, mem_b 1 5L);
    Ld (W1, Sx, 0, mem_b 1 5L);
    Ld (W2, Zx, 2, { base = None; index = None; disp = 0x1000L });
    Ld (W2, Sx, 2, { base = None; index = None; disp = 0x1000L });
    Ld (W4, Zx, 4, { base = Some 5; index = Some (6, 8); disp = 12L });
    St (W1, mem_b 7 (-4L), 3);
    St (W2, mem_b 7 (-4L), 3);
    St (W4, { base = Some 0; index = Some (1, 2); disp = 100L }, 2);
    Alu (ADD, 1, 2);
    Alu (DIVU, 5, 6);
    Alui (XOR, 3, 0xFFL);
    Alui (SHL, 3, 31L);
    Cmp (0, 1);
    Cmpi (2, 1000L);
    Test (3, 4);
    Inc 5;
    Dec 6;
    Neg 0;
    Not 1;
    Setcc (Cles, 2);
    Jcc (Cgtu, 0x12345L);
    Jmp 0x400L;
    Jmpi 3;
    Call 0x500L;
    Calli 4;
    Ret;
    Push 1;
    Pushi 0xCAFEL;
    Pop 2;
    Sysinfo;
    Syscall;
    Clreq;
    Fld (2, mem_b 7 8L);
    Fst (mem_b 7 8L, 1);
    Fmovr (0, 3);
    Fldi (1, 3.14159);
    Falu (FMUL, 0, 1);
    Fun1 (FSQRT, 2, 3);
    Fcmp (0, 1);
    Fitod (2, 5);
    Fdtoi (4, 1);
    Vld (0, mem_b 1 16L);
    Vst (mem_b 1 16L, 2);
    Vmovr (3, 0);
    Valu (VADD32, 1, 2);
    Vsplat (0, 5);
    Vextr (3, 2, 3);
    Ud;
  ]

let test_roundtrip_all () =
  List.iter
    (fun i ->
      let i', len = roundtrip i in
      Alcotest.(check string)
        (Fmt.str "roundtrip %a" pp_insn i)
        (Fmt.str "%a" pp_insn i)
        (Fmt.str "%a" pp_insn i');
      Alcotest.(check int) "length" (Guest.Encode.length i) len)
    sample_insns

(* random instruction generator for the roundtrip property *)
let gen_insn : insn QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_bound 7 in
  let freg = int_bound 3 in
  let vreg = int_bound 3 in
  let imm = map Support.Bits.trunc32 (map Int64.of_int int) in
  let mem =
    let* base = opt reg in
    let* index = opt (pair reg (oneofl [ 1; 2; 4; 8 ])) in
    let* disp = imm in
    return { base; index; disp }
  in
  let alu = oneofl [ ADD; SUB; AND; OR; XOR; SHL; SHR; SAR; MUL; DIVS; DIVU ] in
  let cond =
    oneofl [ Ceq; Cne; Clts; Cles; Cgts; Cges; Cltu; Cleu; Cgtu; Cgeu; Cs; Cns ]
  in
  oneof
    [
      return Nop;
      map2 (fun d s -> Mov (d, s)) reg reg;
      map2 (fun d i -> Movi (d, i)) reg imm;
      map2 (fun d m -> Lea (d, m)) reg mem;
      map3 (fun sx d m -> Ld (W1, (if sx then Sx else Zx), d, m)) bool reg mem;
      map2 (fun d m -> Ld (W4, Zx, d, m)) reg mem;
      map2 (fun m s -> St (W4, m, s)) mem reg;
      map3 (fun op d s -> Alu (op, d, s)) alu reg reg;
      map3 (fun op d i -> Alui (op, d, i)) alu reg imm;
      map2 (fun c d -> Setcc (c, d)) cond reg;
      map2 (fun c tgt -> Jcc (c, tgt)) cond imm;
      map (fun t -> Jmp t) imm;
      map (fun r -> Calli r) reg;
      map2 (fun d m -> Fld (d, m)) freg mem;
      map3 (fun op d s -> Valu (op, d, s))
        (oneofl [ VAND; VOR; VXOR; VADD32; VSUB32; VCMPEQ32; VADD8; VSUB8 ])
        vreg vreg;
      map2 (fun d lane -> Vextr (d, 0, lane)) reg (int_bound 3);
    ]

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"random insn encode/decode roundtrip"
    (QCheck.make gen_insn ~print:(Fmt.str "%a" pp_insn))
    (fun i ->
      let i', _ = roundtrip i in
      Fmt.str "%a" pp_insn i = Fmt.str "%a" pp_insn i')

(* ---- condition codes ------------------------------------------------ *)

let flags_after_cmp a b =
  Guest.Flags.calculate ~op:Guest.Flags.cc_op_sub ~dep1:a ~dep2:b ~ndep:0L

let prop_cond_signed =
  QCheck.Test.make ~count:500 ~name:"flags: signed compare conditions"
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      let a = Support.Bits.trunc32 a and b = Support.Bits.trunc32 b in
      let f = flags_after_cmp a b in
      let sa = Support.Bits.sext32 a and sb = Support.Bits.sext32 b in
      Guest.Flags.cond_holds Clts f = (sa < sb)
      && Guest.Flags.cond_holds Cles f = (sa <= sb)
      && Guest.Flags.cond_holds Ceq f = (sa = sb)
      && Guest.Flags.cond_holds Cgts f = (sa > sb))

let prop_cond_unsigned =
  QCheck.Test.make ~count:500 ~name:"flags: unsigned compare conditions"
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      let a = Support.Bits.trunc32 a and b = Support.Bits.trunc32 b in
      let f = flags_after_cmp a b in
      Guest.Flags.cond_holds Cltu f = (Int64.unsigned_compare a b < 0)
      && Guest.Flags.cond_holds Cgeu f = (Int64.unsigned_compare a b >= 0))

let test_fcmp_flags () =
  let f a b =
    Guest.Flags.calculate ~op:Guest.Flags.cc_op_fcmp
      ~dep1:(Guest.Flags.fcmp_code a b) ~dep2:0L ~ndep:0L
  in
  Alcotest.(check bool) "1<2 -> b" true (Guest.Flags.cond_holds Cltu (f 1.0 2.0));
  Alcotest.(check bool) "2=2 -> eq" true (Guest.Flags.cond_holds Ceq (f 2.0 2.0));
  Alcotest.(check bool) "3>2 -> a" true (Guest.Flags.cond_holds Cgtu (f 3.0 2.0));
  Alcotest.(check bool) "nan unordered -> be" true
    (Guest.Flags.cond_holds Cleu (f Float.nan 2.0))

(* ---- interpreter ----------------------------------------------------- *)

let run_asm ?(steps = 10_000) src =
  let img = Guest.Asm.assemble src in
  let mem = Aspace.create () in
  let entry, sp, _brk, _ = Guest.Image.load img mem in
  let st = Guest.Interp.create mem in
  st.regs.(reg_sp) <- sp;
  st.eip <- entry;
  let cached = Guest.Interp.with_cache st in
  let stop = ref false in
  let handlers =
    { Guest.Interp.on_syscall = (fun _ -> stop := true);
      on_clreq = (fun s -> s.regs.(0) <- 0L) }
  in
  let n = ref 0 in
  while (not !stop) && !n < steps do
    Guest.Interp.step cached handlers;
    incr n
  done;
  st

let test_interp_flags_thunk () =
  (* inc must preserve CF across (like x86) *)
  let st =
    run_asm
      {|
        .text
_start: movi r0, 0xFFFFFFFF
        movi r1, 1
        add r0, r1          ; sets CF
        inc r1              ; must keep CF
        setb r2             ; CF -> r2
        seteq r3            ; ZF from inc result (2): not zero
        syscall
|}
  in
  Alcotest.check i64 "CF preserved by inc" 1L st.regs.(2);
  Alcotest.check i64 "ZF from inc" 0L st.regs.(3)

let test_interp_div_traps () =
  let img =
    Guest.Asm.assemble
      {|
        .text
_start: movi r0, 10
        movi r1, 0
        divs r0, r1
|}
  in
  let mem = Aspace.create () in
  let entry, sp, _, _ = Guest.Image.load img mem in
  let st = Guest.Interp.create mem in
  st.regs.(reg_sp) <- sp;
  st.eip <- entry;
  let cached = Guest.Interp.with_cache st in
  let h =
    { Guest.Interp.on_syscall = (fun _ -> ());
      on_clreq = (fun st -> Guest.Interp.set_reg st 0 0L) }
  in
  Guest.Interp.step cached h;
  Guest.Interp.step cached h;
  (try
     Guest.Interp.step cached h;
     Alcotest.fail "expected Sigfpe"
   with Guest.Interp.Sigfpe _ -> ());
  (* eip left pointing at the faulting instruction *)
  Alcotest.check i64 "precise eip" (Int64.add img.entry 12L) st.eip

let test_interp_sysinfo () =
  let st =
    run_asm {|
        .text
_start: movi r0, 0
        sysinfo
        syscall
|}
  in
  Alcotest.check i64 "sysinfo magic" 0x56473332L st.regs.(0);
  Alcotest.check i64 "sysinfo version" 1L st.regs.(1)

let test_interp_vector () =
  let st =
    run_asm
      {|
        .text
_start: movi r0, 5
        vsplat v0, r0
        vadd32 v0, v0       ; lanes = 10
        movi r1, 3
        vsplat v1, r1
        vadd32 v0, v1       ; lanes = 13
        vextr r2, v0, 2
        syscall
|}
  in
  Alcotest.check i64 "vector lane arithmetic" 13L st.regs.(2)

let smc_stack_src =
  (* copy a template routine onto the (executable) stack, patch its
     immediate operand, call it, patch again, call again — the GCC
     trampoline pattern of §3.16 *)
  {|
        .text
_start: mov r2, sp
        subi r2, 256         ; code buffer on the stack
        movi r1, template
        movi r3, 16
cploop: ldb r4, [r1]
        stb [r2], r4
        inc r1
        inc r2
        dec r3
        jne cploop
        mov r2, sp
        subi r2, 256
        movi r4, 77
        stw [r2+2], r4       ; patch the movi immediate
        call* r2
        mov r5, r0           ; 77
        movi r4, 1000
        stw [r2+2], r4       ; repatch
        call* r2
        add r5, r0           ; 1077
        mov r1, r5
        movi r0, 1           ; exit(r5)
        syscall
template:
        movi r0, 11
        ret
|}

let test_smc_native () =
  let st = run_asm smc_stack_src in
  Alcotest.check i64 "patched code executed twice" 1077L st.regs.(1)

let tests =
  [
    t "encode/decode all constructors" test_roundtrip_all;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_cond_signed;
    QCheck_alcotest.to_alcotest prop_cond_unsigned;
    t "fcmp flags" test_fcmp_flags;
    t "interp: flags thunk (inc keeps CF)" test_interp_flags_thunk;
    t "interp: div-by-zero traps precisely" test_interp_div_traps;
    t "interp: sysinfo" test_interp_sysinfo;
    t "interp: vector ops" test_interp_vector;
    t "interp: self-modifying code" test_smc_native;
  ]
