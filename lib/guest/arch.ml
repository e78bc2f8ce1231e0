(** The VG32 guest architecture.

    VG32 is the synthetic 32-bit guest ISA this reproduction runs instead
    of x86 (see DESIGN.md §1).  It is deliberately CISC-flavoured in the
    ways that matter to the paper's arguments:

    - arithmetic instructions set condition codes as a side effect, so a
      D&R translator must synthesise flags explicitly via a lazy
      four-field thunk ([cc_op]/[cc_dep1]/[cc_dep2]/[cc_ndep]), exactly
      like Valgrind's x86 front end (paper Figure 1, statements 9–12);
    - memory operands use [base + index*scale + disp] addressing, so one
      guest instruction decomposes into several IR operations;
    - there are FP (F64) and SIMD (V128) register files, which shadow
      value tools must be able to shadow (R1);
    - instructions are variable-length byte-encoded, so translation needs
      a real decoder and self-modifying code is detectable only by
      hashing (§3.16);
    - there is a [sysinfo] instruction (the analogue of x86 [cpuid])
      that is too irregular to represent in IR and is handled by a dirty
      helper call with guest-state effect annotations (§3.6). *)

(** {1 Registers and the guest-state layout}

    The guest state is a block of bytes (inside each thread's ThreadState)
    accessed by the IR via byte offsets.  Shadow registers live at
    [offset + shadow_offset] (paper §3.7: "%eax is stored at offset 0 ...
    its shadow is stored at offset 320"). *)

type reg = int (* integer register r0..r7; r6 = frame pointer, r7 = sp *)
type freg = int (* FP register f0..f3, IEEE754 double *)
type vreg = int (* SIMD register v0..v3, 128-bit *)

let n_regs = 8
let n_fregs = 4
let n_vregs = 4
let reg_fp = 6
let reg_sp = 7

(* Byte offsets in the guest-state block. *)
let off_reg r = 4 * r
let off_sp = off_reg reg_sp (* 28; the core watches PUTs here for R7 stack events *)
let off_eip = 32
let off_cc_op = 36
let off_cc_dep1 = 40
let off_cc_dep2 = 44
let off_cc_ndep = 48
let off_freg f = 56 + (8 * f)
let off_vreg v = 96 + (16 * v)
let guest_state_used = 160

(** Size reserved for the architectural guest state; the shadow block for
    tool use starts right after. *)
let shadow_offset = 320

(** Offset of the shadow of the guest-state byte at [off]. *)
let shadow_of off = off + shadow_offset

(** Total guest+shadow state size. The JIT's register allocator also owns a
    spill zone beyond this (see {!Host.Arch}). *)
let state_size = 640

let reg_name r = Printf.sprintf "r%d" r
let freg_name f = Printf.sprintf "f%d" f
let vreg_name v = Printf.sprintf "v%d" v

(** Pretty name of a guest-state offset, for IR comments and errors. *)
let rec offset_name off =
  if off >= 0 && off < 32 && off mod 4 = 0 then reg_name (off / 4)
  else if off = off_eip then "eip"
  else if off = off_cc_op then "cc_op"
  else if off = off_cc_dep1 then "cc_dep1"
  else if off = off_cc_dep2 then "cc_dep2"
  else if off = off_cc_ndep then "cc_ndep"
  else if off >= 56 && off < 88 && (off - 56) mod 8 = 0 then freg_name ((off - 56) / 8)
  else if off >= 96 && off < 160 && (off - 96) mod 16 = 0 then vreg_name ((off - 96) / 16)
  else if off >= shadow_offset && off < shadow_offset + guest_state_used then
    "sh(" ^ offset_name (off - shadow_offset) ^ ")"
  else Printf.sprintf "gst+%d" off

(** {1 Instructions} *)

(** Memory operand: [disp(base, index, scale)], scale in {1,2,4,8}. *)
type mem = { base : reg option; index : (reg * int) option; disp : int64 }

let mem_b base disp = { base = Some base; index = None; disp }

type alu_op = ADD | SUB | AND | OR | XOR | SHL | SHR | SAR | MUL | DIVS | DIVU

type cond =
  | Ceq | Cne        (* ZF *)
  | Clts | Cles | Cgts | Cges  (* signed *)
  | Cltu | Cleu | Cgtu | Cgeu  (* unsigned *)
  | Cs | Cns         (* sign flag *)

type falu_op = FADD | FSUB | FMUL | FDIV | FMIN | FMAX
type fun1_op = FSQRT | FNEG | FABS
type valu_op = VAND | VOR | VXOR | VADD32 | VSUB32 | VCMPEQ32 | VADD8 | VSUB8

(** Load/store width in bytes (1, 2 or 4) and signedness of the widening. *)
type width = W1 | W2 | W4

type signedness = Zx | Sx

type insn =
  | Nop
  | Mov of reg * reg
  | Movi of reg * int64
  | Lea of reg * mem
  | Ld of width * signedness * reg * mem
  | St of width * mem * reg
  | Alu of alu_op * reg * reg  (** [rd := rd op rs], sets flags *)
  | Alui of alu_op * reg * int64
  | Cmp of reg * reg  (** flags := rd - rs *)
  | Cmpi of reg * int64
  | Test of reg * reg  (** flags := rd & rs *)
  | Inc of reg
  | Dec of reg
  | Neg of reg  (** sets SUB flags (0 - rd) *)
  | Not of reg  (** does not touch flags *)
  | Setcc of cond * reg
  | Jcc of cond * int64  (** absolute target *)
  | Jmp of int64
  | Jmpi of reg
  | Call of int64  (** pushes return address *)
  | Calli of reg
  | Ret
  | Push of reg
  | Pushi of int64
  | Pop of reg
  | Sysinfo  (** cpuid-like: r0 = leaf in, r0/r1 out; dirty-helper territory *)
  | Syscall  (** number in r0, args r1..r5, result in r0 *)
  | Clreq  (** client request: r0 = code, r1 = arg block ptr, result in r0 *)
  | Fld of freg * mem
  | Fst of mem * freg
  | Fmovr of freg * freg
  | Fldi of freg * float
  | Falu of falu_op * freg * freg  (** [fd := fd op fs] *)
  | Fun1 of fun1_op * freg * freg  (** [fd := op fs] *)
  | Fcmp of freg * freg  (** sets FCMP flags *)
  | Fitod of freg * reg
  | Fdtoi of reg * freg  (** truncate toward zero *)
  | Vld of vreg * mem
  | Vst of mem * vreg
  | Vmovr of vreg * vreg
  | Valu of valu_op * vreg * vreg  (** [vd := vd op vs] *)
  | Vsplat of vreg * reg
  | Vextr of reg * vreg * int  (** lane 0..3 *)
  | Ud  (** undefined opcode: raises SIGILL *)

let cond_name = function
  | Ceq -> "eq" | Cne -> "ne"
  | Clts -> "lt" | Cles -> "le" | Cgts -> "gt" | Cges -> "ge"
  | Cltu -> "b" | Cleu -> "be" | Cgtu -> "a" | Cgeu -> "ae"
  | Cs -> "s" | Cns -> "ns"

let alu_name = function
  | ADD -> "add" | SUB -> "sub" | AND -> "and" | OR -> "or" | XOR -> "xor"
  | SHL -> "shl" | SHR -> "shr" | SAR -> "sar" | MUL -> "mul"
  | DIVS -> "divs" | DIVU -> "divu"

let falu_name = function
  | FADD -> "fadd" | FSUB -> "fsub" | FMUL -> "fmul" | FDIV -> "fdiv"
  | FMIN -> "fmin" | FMAX -> "fmax"

let fun1_name = function FSQRT -> "fsqrt" | FNEG -> "fneg" | FABS -> "fabs"

let valu_name = function
  | VAND -> "vand" | VOR -> "vor" | VXOR -> "vxor"
  | VADD32 -> "vadd32" | VSUB32 -> "vsub32" | VCMPEQ32 -> "vcmpeq32"
  | VADD8 -> "vadd8" | VSUB8 -> "vsub8"

let pp_mem ppf (m : mem) =
  (match (m.base, m.index) with
  | None, None -> Fmt.pf ppf "[0x%LX]" (Support.Bits.trunc32 m.disp)
  | Some b, None -> Fmt.pf ppf "[%s%+Ld]" (reg_name b) (Support.Bits.sext32 m.disp)
  | Some b, Some (i, s) ->
      Fmt.pf ppf "[%s+%s*%d%+Ld]" (reg_name b) (reg_name i) s
        (Support.Bits.sext32 m.disp)
  | None, Some (i, s) ->
      Fmt.pf ppf "[%s*%d%+Ld]" (reg_name i) s (Support.Bits.sext32 m.disp))

let pp_insn ppf (i : insn) =
  let r = reg_name and f = freg_name and v = vreg_name in
  match i with
  | Nop -> Fmt.string ppf "nop"
  | Mov (d, s) -> Fmt.pf ppf "mov %s, %s" (r d) (r s)
  | Movi (d, imm) -> Fmt.pf ppf "movi %s, 0x%LX" (r d) (Support.Bits.trunc32 imm)
  | Lea (d, m) -> Fmt.pf ppf "lea %s, %a" (r d) pp_mem m
  | Ld (w, sx, d, m) ->
      let suffix = match (w, sx) with
        | W1, Zx -> "b" | W1, Sx -> "bs" | W2, Zx -> "h" | W2, Sx -> "hs"
        | W4, _ -> "w"
      in
      Fmt.pf ppf "ld%s %s, %a" suffix (r d) pp_mem m
  | St (w, m, s) ->
      let suffix = match w with W1 -> "b" | W2 -> "h" | W4 -> "w" in
      Fmt.pf ppf "st%s %a, %s" suffix pp_mem m (r s)
  | Alu (op, d, s) -> Fmt.pf ppf "%s %s, %s" (alu_name op) (r d) (r s)
  | Alui (op, d, imm) ->
      Fmt.pf ppf "%si %s, 0x%LX" (alu_name op) (r d) (Support.Bits.trunc32 imm)
  | Cmp (a, b) -> Fmt.pf ppf "cmp %s, %s" (r a) (r b)
  | Cmpi (a, imm) -> Fmt.pf ppf "cmpi %s, 0x%LX" (r a) (Support.Bits.trunc32 imm)
  | Test (a, b) -> Fmt.pf ppf "test %s, %s" (r a) (r b)
  | Inc d -> Fmt.pf ppf "inc %s" (r d)
  | Dec d -> Fmt.pf ppf "dec %s" (r d)
  | Neg d -> Fmt.pf ppf "neg %s" (r d)
  | Not d -> Fmt.pf ppf "not %s" (r d)
  | Setcc (c, d) -> Fmt.pf ppf "set%s %s" (cond_name c) (r d)
  | Jcc (c, t) -> Fmt.pf ppf "j%s 0x%LX" (cond_name c) t
  | Jmp t -> Fmt.pf ppf "jmp 0x%LX" t
  | Jmpi s -> Fmt.pf ppf "jmp* %s" (r s)
  | Call t -> Fmt.pf ppf "call 0x%LX" t
  | Calli s -> Fmt.pf ppf "call* %s" (r s)
  | Ret -> Fmt.string ppf "ret"
  | Push s -> Fmt.pf ppf "push %s" (r s)
  | Pushi imm -> Fmt.pf ppf "pushi 0x%LX" (Support.Bits.trunc32 imm)
  | Pop d -> Fmt.pf ppf "pop %s" (r d)
  | Sysinfo -> Fmt.string ppf "sysinfo"
  | Syscall -> Fmt.string ppf "syscall"
  | Clreq -> Fmt.string ppf "clreq"
  | Fld (d, m) -> Fmt.pf ppf "fld %s, %a" (f d) pp_mem m
  | Fst (m, s) -> Fmt.pf ppf "fst %a, %s" pp_mem m (f s)
  | Fmovr (d, s) -> Fmt.pf ppf "fmov %s, %s" (f d) (f s)
  | Fldi (d, x) -> Fmt.pf ppf "fldi %s, %h" (f d) x
  | Falu (op, d, s) -> Fmt.pf ppf "%s %s, %s" (falu_name op) (f d) (f s)
  | Fun1 (op, d, s) -> Fmt.pf ppf "%s %s, %s" (fun1_name op) (f d) (f s)
  | Fcmp (a, b) -> Fmt.pf ppf "fcmp %s, %s" (f a) (f b)
  | Fitod (d, s) -> Fmt.pf ppf "fitod %s, %s" (f d) (r s)
  | Fdtoi (d, s) -> Fmt.pf ppf "fdtoi %s, %s" (r d) (f s)
  | Vld (d, m) -> Fmt.pf ppf "vld %s, %a" (v d) pp_mem m
  | Vst (m, s) -> Fmt.pf ppf "vst %a, %s" pp_mem m (v s)
  | Vmovr (d, s) -> Fmt.pf ppf "vmov %s, %s" (v d) (v s)
  | Valu (op, d, s) -> Fmt.pf ppf "%s %s, %s" (valu_name op) (v d) (v s)
  | Vsplat (d, s) -> Fmt.pf ppf "vsplat %s, %s" (v d) (r s)
  | Vextr (d, s, lane) -> Fmt.pf ppf "vextr %s, %s, %d" (r d) (v s) lane
  | Ud -> Fmt.string ppf "ud"
