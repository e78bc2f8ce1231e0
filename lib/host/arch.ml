(** The VH64 host architecture.

    VH64 is the synthetic host CPU the JIT targets (DESIGN.md §1): a
    64-bit register machine with sixteen integer registers, eight 128-bit
    vector registers, and byte-encoded instructions executed by
    {!Interp}.  FP arithmetic operates on IEEE754 bit patterns held in
    integer registers (soft-float style), so the register allocator only
    manages two classes.

    Conventions (fixed by the JIT, honoured by the interpreter):
    - [h15] is the GSP: it always points at the running thread's
      ThreadState (the paper: "one general-purpose host register is
      always reserved to point to the ThreadState");
    - [h14] is an emitter scratch register, never allocated;
    - helper calls pass arguments in [h0..h5] and return in [h0], and
      clobber the caller-saved set [h0..h7] and [hv0..hv3]. *)

type hreg = int (* h0..h15 *)
type hvreg = int (* hv0..hv7 *)

let n_hregs = 16
let n_hvregs = 8
let gsp = 15 (* ThreadState pointer *)
let scratch = 14

(** Second integer scratch, used when an instruction has two spilled
    integer sources. *)
let scratch2 = 13

(** Vector scratches. *)
let vscratch = 7

let vscratch2 = 6

(** Integer registers available to the allocator: h0..h12. *)
let allocatable_int = List.init 13 Fun.id

(** Vector registers available to the allocator: hv0..hv5. *)
let allocatable_vec = List.init 6 Fun.id

(* Clobbered by Call; the other allocatable registers (h8..h12,
   hv4..hv5) survive it. *)
let caller_saved_int = List.init 8 Fun.id (* h0..h7 *)
let caller_saved_vec = List.init 4 Fun.id (* hv0..hv3 *)
let arg_regs = [ 0; 1; 2; 3; 4; 5 ]
let ret_reg = 0

(** Spill zone: slots inside the ThreadState beyond the guest+shadow
    area, addressed off the GSP (Valgrind likewise spills to a dedicated
    per-thread area rather than a host stack). *)
let spill_base_int = 640

let spill_slots_int = 192
let spill_base_vec = spill_base_int + (8 * spill_slots_int) (* 1152 *)
let spill_slots_vec = 48
let threadstate_size = spill_base_vec + (16 * spill_slots_vec) (* 1536 *)

type width = W32 | W64

type alu_op =
  | Add | Sub | And | Or | Xor | Shl | Shr | Sar | Mul | Mulhs | Divs | Divu
  | CmpEq | CmpNe | CmpLts | CmpLes | CmpLtu | CmpLeu

type falu_op = FAdd | FSub | FMul | FDiv | FMin | FMax | FCmpEq | FCmpLt | FCmpLe
type fun1_op = FSqrt | FNeg | FAbs | I32StoF64 | F64toI32S | Clz32 | Ctz32
type valu_op = VAnd | VOr | VXor | VAdd32 | VSub32 | VCmpEq32 | VAdd8 | VSub8

(** Exit kind returned to the dispatcher (mirrors {!Vex_ir.Ir.jumpkind}).
    Encoded as a small integer in exit instructions. *)
type exit_kind = int

let ek_boring = 0
let ek_call = 1
let ek_ret = 2
let ek_syscall = 3
let ek_clientreq = 4
let ek_yield = 5
let ek_sigill = 6

let ek_of_jumpkind : Vex_ir.Ir.jumpkind -> exit_kind = function
  | Vex_ir.Ir.Jk_boring -> ek_boring
  | Jk_call -> ek_call
  | Jk_ret -> ek_ret
  | Jk_syscall -> ek_syscall
  | Jk_clientreq -> ek_clientreq
  | Jk_yield -> ek_yield
  | Jk_sigill -> ek_sigill

type label = int

type insn =
  | Movi of hreg * int64
  | Mov of hreg * hreg
  | Alu of width * alu_op * hreg * hreg * hreg  (** rd := rs1 op rs2 *)
  | Alui of width * alu_op * hreg * hreg * int64
      (** rd := rs1 op imm (imm sign-extended from 32 bits) *)
  | Ld of int * bool * hreg * hreg * int
      (** size(1/2/4/8), sign-extend?, rd, base, disp *)
  | St of int * hreg * hreg * int  (** size, rs, base, disp *)
  | Cmov of hreg * hreg * hreg  (** if rc<>0 then rd := rs *)
  | Falu of falu_op * hreg * hreg * hreg  (** F64 bits in integer regs *)
  | Fun1 of fun1_op * hreg * hreg
  | Vld of hvreg * hreg * int
  | Vst of hvreg * hreg * int
  | Vmov of hvreg * hvreg
  | Valu of valu_op * hvreg * hvreg * hvreg
  | Vnot of hvreg * hvreg
  | Vsplat32 of hvreg * hreg
  | Vpack of hvreg * hreg * hreg  (** vd := hi:lo *)
  | Vunpack of hreg * hvreg * int  (** rd := half (0 = lo, 1 = hi) *)
  | Call of int * int * int  (** helper id, nargs, declared cost *)
  | Jz of hreg * label
  | Jnz of hreg * label
  | Jmp of label
  | Label of label  (** pseudo-instruction; encodes to nothing *)
  | ExitIf of hreg * exit_kind * int64
      (** if rc<>0: leave translated code, next guest PC = const *)
  | Goto of exit_kind * hreg  (** leave; next guest PC in register *)
  | GotoI of exit_kind * int64

let hreg_name r = Printf.sprintf "%%h%d" r
let hvreg_name r = Printf.sprintf "%%hv%d" r

let alu_name = function
  | Add -> "add" | Sub -> "sub" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Shr -> "shr" | Sar -> "sar" | Mul -> "mul" | Mulhs -> "mulhs"
  | Divs -> "divs" | Divu -> "divu" | CmpEq -> "cmpeq" | CmpNe -> "cmpne"
  | CmpLts -> "cmplts" | CmpLes -> "cmples" | CmpLtu -> "cmpltu" | CmpLeu -> "cmpleu"

let falu_name = function
  | FAdd -> "fadd" | FSub -> "fsub" | FMul -> "fmul" | FDiv -> "fdiv"
  | FMin -> "fmin" | FMax -> "fmax" | FCmpEq -> "fcmpeq" | FCmpLt -> "fcmplt"
  | FCmpLe -> "fcmple"

let fun1_name = function
  | FSqrt -> "fsqrt" | FNeg -> "fneg" | FAbs -> "fabs"
  | I32StoF64 -> "i32stof64" | F64toI32S -> "f64toi32s"
  | Clz32 -> "clz32" | Ctz32 -> "ctz32"

let valu_name = function
  | VAnd -> "vand" | VOr -> "vor" | VXor -> "vxor" | VAdd32 -> "vadd32"
  | VSub32 -> "vsub32" | VCmpEq32 -> "vcmpeq32" | VAdd8 -> "vadd8"
  | VSub8 -> "vsub8"

let width_suffix = function W32 -> "l" | W64 -> "q"

(** [helper] names a [Call]'s helper id (a session's helper table knows
    the names: {!Vex_ir.Helpers.name}). *)
let pp_insn_with ~(helper : int -> string) ppf (i : insn) =
  let r = hreg_name and v = hvreg_name in
  match i with
  | Movi (d, imm) -> Fmt.pf ppf "movq $0x%LX, %s" imm (r d)
  | Mov (d, s) -> Fmt.pf ppf "movq %s, %s" (r s) (r d)
  | Alu (w, op, d, s1, s2) ->
      Fmt.pf ppf "%s%s %s, %s, %s" (alu_name op) (width_suffix w) (r s1) (r s2) (r d)
  | Alui (w, op, d, s1, imm) ->
      Fmt.pf ppf "%s%s %s, $0x%LX, %s" (alu_name op) (width_suffix w) (r s1) imm (r d)
  | Ld (sz, sx, d, b, disp) ->
      Fmt.pf ppf "ld%d%s %d(%s), %s" sz (if sx then "s" else "u") disp (r b) (r d)
  | St (sz, s, b, disp) -> Fmt.pf ppf "st%d %s, %d(%s)" sz (r s) disp (r b)
  | Cmov (d, c, s) -> Fmt.pf ppf "cmovnz %s, %s, %s" (r c) (r s) (r d)
  | Falu (op, d, s1, s2) ->
      Fmt.pf ppf "%s %s, %s, %s" (falu_name op) (r s1) (r s2) (r d)
  | Fun1 (op, d, s) -> Fmt.pf ppf "%s %s, %s" (fun1_name op) (r s) (r d)
  | Vld (d, b, disp) -> Fmt.pf ppf "vld %d(%s), %s" disp (r b) (v d)
  | Vst (s, b, disp) -> Fmt.pf ppf "vst %s, %d(%s)" (v s) disp (r b)
  | Vmov (d, s) -> Fmt.pf ppf "vmov %s, %s" (v s) (v d)
  | Valu (op, d, s1, s2) ->
      Fmt.pf ppf "%s %s, %s, %s" (valu_name op) (v s1) (v s2) (v d)
  | Vnot (d, s) -> Fmt.pf ppf "vnot %s, %s" (v s) (v d)
  | Vsplat32 (d, s) -> Fmt.pf ppf "vsplat32 %s, %s" (r s) (v d)
  | Vpack (d, hi, lo) -> Fmt.pf ppf "vpack %s:%s, %s" (r hi) (r lo) (v d)
  | Vunpack (d, s, half) -> Fmt.pf ppf "vunpack %s[%d], %s" (v s) half (r d)
  | Call (id, nargs, _) ->
      Fmt.pf ppf "call %s/%d" (helper id) nargs
  | Jz (c, l) -> Fmt.pf ppf "jz %s, .L%d" (r c) l
  | Jnz (c, l) -> Fmt.pf ppf "jnz %s, .L%d" (r c) l
  | Jmp l -> Fmt.pf ppf "jmp .L%d" l
  | Label l -> Fmt.pf ppf ".L%d:" l
  | ExitIf (c, ek, dest) -> Fmt.pf ppf "exitif %s, ek%d, 0x%LX" (r c) ek dest
  | Goto (ek, s) -> Fmt.pf ppf "goto ek%d, %s" ek (r s)
  | GotoI (ek, dest) -> Fmt.pf ppf "goto ek%d, 0x%LX" ek dest

let pp_insn = pp_insn_with ~helper:(Printf.sprintf "helper%d")
