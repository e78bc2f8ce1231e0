(** Condition-code computation from the lazy flags thunk.

    VG32 instructions that set flags don't compute a flags word eagerly.
    Instead the translator records {e how} flags would be computed — an
    operation tag plus up to three dependents — in four guest-state fields
    ([cc_op], [cc_dep1], [cc_dep2], [cc_ndep]), and the actual flags are
    materialised lazily by the functions here when a [jcc]/[setcc] needs
    them (paper §3.6: "many x86 instructions affect the condition codes
    (%eflags), and Valgrind computes them from these four values when they
    are used. Often %eflags is clobbered without being used, so most of
    these PUTs can be optimised away later").

    This module is shared verbatim by the guest reference interpreter and
    by the IR helper functions the JIT emits [CCall]s to, so the two
    semantics cannot drift. *)

open Support

(* Thunk operation tags. *)
let cc_op_copy = 0L (* dep1 = literal flags word *)
let cc_op_add = 1L (* dep1 + dep2 *)
let cc_op_sub = 2L (* dep1 - dep2 (also cmp, neg with dep1=0) *)
let cc_op_logic = 3L (* dep1 = result; CF=OF=0 *)
let cc_op_shl = 4L (* dep1 = result, dep2 = original count *)
let cc_op_shr = 5L
let cc_op_sar = 6L
let cc_op_mul = 7L (* dep1 = low result, dep2 = high result *)
let cc_op_inc = 8L (* dep1 = result, ndep = old CF *)
let cc_op_dec = 9L
let cc_op_fcmp = 10L (* dep1 = 0 eq / 1 lt / 2 gt / 3 unordered *)

(* Flags word bits. *)
let fl_cf = 1L
let fl_zf = 2L
let fl_sf = 4L
let fl_of = 8L

let bit b cond = if cond then b else 0L

let zf_sf res =
  Int64.logor
    (bit fl_zf (Bits.trunc32 res = 0L))
    (bit fl_sf (Int64.logand res 0x8000_0000L <> 0L))

(** Compute the 4-bit flags word from a thunk. *)
let calculate ~op ~dep1 ~dep2 ~ndep : int64 =
  let d1 = Bits.trunc32 dep1 and d2 = Bits.trunc32 dep2 in
  if op = cc_op_copy then Int64.logand d1 0xFL
  else if op = cc_op_add then begin
    let res = Bits.trunc32 (Int64.add d1 d2) in
    let cf = bit fl_cf (Bits.cmp32u res d1 < 0) in
    let ovf =
      (* signed overflow: operands same sign, result different *)
      Int64.logand (Int64.logand (Int64.lognot (Int64.logxor d1 d2)) (Int64.logxor d1 res)) 0x8000_0000L
    in
    Int64.logor (Int64.logor cf (zf_sf res)) (bit fl_of (ovf <> 0L))
  end
  else if op = cc_op_sub then begin
    let res = Bits.trunc32 (Int64.sub d1 d2) in
    let cf = bit fl_cf (Bits.cmp32u d1 d2 < 0) in
    let ovf =
      Int64.logand (Int64.logand (Int64.logxor d1 d2) (Int64.logxor d1 res)) 0x8000_0000L
    in
    Int64.logor (Int64.logor cf (zf_sf res)) (bit fl_of (ovf <> 0L))
  end
  else if op = cc_op_logic then zf_sf d1
  else if op = cc_op_shl || op = cc_op_shr || op = cc_op_sar then
    (* Flags from the result only; CF from the last bit shifted out is not
       modelled (VG32 defines shift CF = 0, unlike x86). *)
    zf_sf d1
  else if op = cc_op_mul then begin
    let lo = d1 and hi = d2 in
    let sign_ext_ok = hi = Bits.trunc32 (Int64.shift_right (Bits.sext32 lo) 31) in
    let cfof = if sign_ext_ok then 0L else Int64.logor fl_cf fl_of in
    Int64.logor cfof (zf_sf lo)
  end
  else if op = cc_op_inc then begin
    let res = d1 in
    let old_cf = Int64.logand ndep fl_cf in
    Int64.logor
      (Int64.logor old_cf (zf_sf res))
      (bit fl_of (res = 0x8000_0000L))
  end
  else if op = cc_op_dec then begin
    let res = d1 in
    let old_cf = Int64.logand ndep fl_cf in
    Int64.logor
      (Int64.logor old_cf (zf_sf res))
      (bit fl_of (res = 0x7FFF_FFFFL))
  end
  else if op = cc_op_fcmp then begin
    (* like x86 ucomisd: unordered -> ZF|CF, eq -> ZF, lt -> CF, gt -> none *)
    match Int64.to_int d1 with
    | 0 -> fl_zf
    | 1 -> fl_cf
    | 2 -> 0L
    | _ -> Int64.logor fl_zf fl_cf
  end
  else invalid_arg "Flags.calculate: bad cc_op"

(** Encode an fcmp outcome into the dep1 code used by [cc_op_fcmp]. *)
let fcmp_code (a : float) (b : float) : int64 =
  if Float.is_nan a || Float.is_nan b then 3L
  else if a = b then 0L
  else if a < b then 1L
  else 2L

(** Evaluate condition [c] against a flags word. *)
let cond_holds (c : Arch.cond) (flags : int64) : bool =
  let cf = Int64.logand flags fl_cf <> 0L in
  let zf = Int64.logand flags fl_zf <> 0L in
  let sf = Int64.logand flags fl_sf <> 0L in
  let ofl = Int64.logand flags fl_of <> 0L in
  match c with
  | Ceq -> zf
  | Cne -> not zf
  | Clts -> sf <> ofl
  | Cles -> zf || sf <> ofl
  | Cgts -> (not zf) && sf = ofl
  | Cges -> sf = ofl
  | Cltu -> cf
  | Cleu -> cf || zf
  | Cgtu -> (not cf) && not zf
  | Cgeu -> not cf
  | Cs -> sf
  | Cns -> not sf

(** Integer encoding of conditions, used as the first argument of the
    [vg32_calculate_condition] IR helper. *)
let cond_to_int : Arch.cond -> int = function
  | Ceq -> 0 | Cne -> 1 | Clts -> 2 | Cles -> 3 | Cgts -> 4 | Cges -> 5
  | Cltu -> 6 | Cleu -> 7 | Cgtu -> 8 | Cgeu -> 9 | Cs -> 10 | Cns -> 11

let cond_of_int : int -> Arch.cond = function
  | 0 -> Ceq | 1 -> Cne | 2 -> Clts | 3 -> Cles | 4 -> Cgts | 5 -> Cges
  | 6 -> Cltu | 7 -> Cleu | 8 -> Cgtu | 9 -> Cgeu | 10 -> Cs | 11 -> Cns
  | _ -> invalid_arg "Flags.cond_of_int"

(** [calculate_condition cond_code op dep1 dep2 ndep] -> 0/1.  This is the
    semantic core of the [vg32_calculate_condition] helper the
    disassembler emits for [jcc]/[setcc] (mirroring VEX's
    [x86g_calculate_condition]). *)
let calculate_condition ~cond ~op ~dep1 ~dep2 ~ndep : int64 =
  let flags = calculate ~op ~dep1 ~dep2 ~ndep in
  if cond_holds (cond_of_int cond) flags then 1L else 0L

(** Thunk op for the ALU operation [op] (which VG32 flag-setters use). *)
let cc_op_of_alu : Arch.alu_op -> int64 = function
  | ADD -> cc_op_add
  | SUB -> cc_op_sub
  | AND | OR | XOR -> cc_op_logic
  | SHL -> cc_op_shl
  | SHR -> cc_op_shr
  | SAR -> cc_op_sar
  | MUL -> cc_op_mul
  | DIVS | DIVU -> cc_op_logic (* div leaves flags from result *)
