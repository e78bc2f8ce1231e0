(** Phase 6 — Instruction selection: tree IR -> VH64 instructions over
    virtual registers.

    A simple, greedy, top-down tree-matching selector (paper §3.7 phase
    6).  Output instructions use virtual register numbers (dense ints,
    one space per register class); helper calls stay abstract as
    {!VCall} pseudo-instructions until register allocation assigns
    argument registers and decides what lives across the call.

    Invariant: an integer virtual register holding a value of type
    I1/I8/I16/I32 is always zero-extended to 64 bits. *)

open Vex_ir.Ir
module H = Host.Arch

(** Instructions over virtual registers: either a host instruction whose
    register fields are virtual numbers, or an abstract helper call. *)
type vinsn =
  | V of H.insn
  | VCall of {
      callee : callee;
      args : int list;  (** integer virtual regs *)
      dst : int option;  (** integer virtual reg for the result *)
    }

type ctx = {
  blk : block;
  mutable code : vinsn list;  (** reversed *)
  mutable next_int : int;
  mutable next_vec : int;
  mutable next_label : int;
  tmp_map : int array;
      (** IR temp -> virtual reg (per class); -1 until the temp is written *)
}

let emit c i = c.code <- V i :: c.code

let new_int c =
  let r = c.next_int in
  c.next_int <- r + 1;
  r

let new_vec c =
  let r = c.next_vec in
  c.next_vec <- r + 1;
  r

let new_label c =
  let l = c.next_label in
  c.next_label <- l + 1;
  l

let is_vec_ty = function V128 -> true | _ -> false

exception Unrepresentable of string

let vreg_of_tmp c t =
  if t >= 0 && t < Array.length c.tmp_map && c.tmp_map.(t) >= 0 then c.tmp_map.(t)
  else raise (Unrepresentable (Fmt.str "use of undefined t%d" t))

let alu_of_binop : binop -> (H.width * H.alu_op) option = function
  | Add32 -> Some (W32, Add)
  | Sub32 -> Some (W32, Sub)
  | Mul32 -> Some (W32, Mul)
  | MulHiS32 -> Some (W32, Mulhs)
  | DivS32 -> Some (W32, Divs)
  | DivU32 -> Some (W32, Divu)
  | And32 -> Some (W32, And)
  | Or32 -> Some (W32, Or)
  | Xor32 -> Some (W32, Xor)
  | Shl32 -> Some (W32, Shl)
  | Shr32 -> Some (W32, Shr)
  | Sar32 -> Some (W32, Sar)
  | CmpEQ32 -> Some (W32, CmpEq)
  | CmpNE32 -> Some (W32, CmpNe)
  | CmpLT32S -> Some (W32, CmpLts)
  | CmpLE32S -> Some (W32, CmpLes)
  | CmpLT32U -> Some (W32, CmpLtu)
  | CmpLE32U -> Some (W32, CmpLeu)
  | Add64 -> Some (W64, Add)
  | Sub64 -> Some (W64, Sub)
  | Mul64 -> Some (W64, Mul)
  | And64 -> Some (W64, And)
  | Or64 -> Some (W64, Or)
  | Xor64 -> Some (W64, Xor)
  | Shl64 -> Some (W64, Shl)
  | Shr64 -> Some (W64, Shr)
  | Sar64 -> Some (W64, Sar)
  | CmpEQ64 -> Some (W64, CmpEq)
  | CmpNE64 -> Some (W64, CmpNe)
  | _ -> None

let falu_of_binop : binop -> H.falu_op option = function
  | AddF64 -> Some FAdd
  | SubF64 -> Some FSub
  | MulF64 -> Some FMul
  | DivF64 -> Some FDiv
  | MinF64 -> Some FMin
  | MaxF64 -> Some FMax
  | CmpEQF64 -> Some FCmpEq
  | CmpLTF64 -> Some FCmpLt
  | CmpLEF64 -> Some FCmpLe
  | _ -> None

let valu_of_binop : binop -> H.valu_op option = function
  | AndV128 -> Some VAnd
  | OrV128 -> Some VOr
  | XorV128 -> Some VXor
  | Add32x4 -> Some VAdd32
  | Sub32x4 -> Some VSub32
  | CmpEQ32x4 -> Some VCmpEq32
  | Add8x16 -> Some VAdd8
  | Sub8x16 -> Some VSub8
  | _ -> None

let const_bits = function
  | CI1 b -> if b then 1L else 0L
  | CI8 v -> Int64.of_int (v land 0xFF)
  | CI16 v -> Int64.of_int (v land 0xFFFF)
  | CI32 v -> Support.Bits.trunc32 v
  | CI64 v -> v
  | CF64 f -> Support.Bits.bits_of_float f
  | CV128 _ -> invalid_arg "const_bits: V128"

(* An immediate usable in Alui: encoded as 32 bits, sign-extended at
   decode.  For W32 ops any 32-bit value round-trips (results are
   truncated); for W64 it must be in the signed 32-bit range. *)
let imm_fits w (v : int64) =
  match w with
  | H.W32 -> Int64.unsigned_compare v 0xFFFF_FFFFL <= 0
  | H.W64 -> Support.Bits.sext32 v = v

(* immediate value for encoding: W32 values pass through low 32 bits *)
let imm_enc (v : int64) = Support.Bits.trunc32 v

(** Select [e] into an integer virtual register. *)
let rec sel_int (c : ctx) (e : expr) : int =
  match e with
  | RdTmp t -> vreg_of_tmp c t
  | Const (CV128 _) -> raise (Unrepresentable "V128 const in int context")
  | Const k ->
      let r = new_int c in
      emit c (Movi (r, const_bits k));
      r
  | Get (off, ty) when not (is_vec_ty ty) ->
      let r = new_int c in
      let sz = size_of_ty ty in
      emit c (Ld (sz, false, r, H.gsp, off));
      r
  | Get _ -> raise (Unrepresentable "vector GET in int context")
  | Load (ty, a) when not (is_vec_ty ty) ->
      let ra = sel_int c a in
      let r = new_int c in
      emit c (Ld (size_of_ty ty, false, r, ra, 0));
      r
  | Load _ -> raise (Unrepresentable "vector load in int context")
  | Unop (op, a) -> sel_unop c op a
  | Binop (op, x, y) -> sel_binop c op x y
  | ITE (cond, t, f) ->
      let rf = sel_int c f in
      let rt = sel_int c t in
      let rc = sel_int c cond in
      let rd = new_int c in
      emit c (Mov (rd, rf));
      emit c (Cmov (rd, rc, rt));
      rd
  | CCall (callee, _ty, args) ->
      let ras = List.map (sel_int c) args in
      let rd = new_int c in
      c.code <- VCall { callee; args = ras; dst = Some rd } :: c.code;
      rd

and sel_unop c op a : int =
  let unary ?(w = H.W64) aop imm =
    let ra = sel_int c a in
    let rd = new_int c in
    emit c (Alui (w, aop, rd, ra, imm));
    rd
  in
  let via_fun1 f =
    let ra = sel_int c a in
    let rd = new_int c in
    emit c (Fun1 (f, rd, ra));
    rd
  in
  match op with
  | Not1 -> unary Xor 1L
  | Not32 -> unary ~w:W32 Xor 0xFFFF_FFFFL
  | Not64 -> unary Xor (-1L)
  | Neg32 ->
      let ra = sel_int c a in
      let rz = new_int c in
      emit c (Movi (rz, 0L));
      let rd = new_int c in
      emit c (Alu (W32, Sub, rd, rz, ra));
      rd
  | Neg64 ->
      let ra = sel_int c a in
      let rz = new_int c in
      emit c (Movi (rz, 0L));
      let rd = new_int c in
      emit c (Alu (W64, Sub, rd, rz, ra));
      rd
  | U1to32 | U8to32 | U16to32 | U32to64 ->
      sel_int c a (* already zero-extended by invariant *)
  | S8to32 ->
      let r1 = unary ~w:W32 Shl 24L in
      let rd = new_int c in
      emit c (Alui (W32, Sar, rd, r1, 24L));
      rd
  | S16to32 ->
      let r1 = unary ~w:W32 Shl 16L in
      let rd = new_int c in
      emit c (Alui (W32, Sar, rd, r1, 16L));
      rd
  | S32to64 ->
      let r1 = unary Shl 32L in
      let rd = new_int c in
      emit c (Alui (W64, Sar, rd, r1, 32L));
      rd
  | T64to32 -> unary ~w:W32 Or 0L
  | T32to8 -> unary And 0xFFL
  | T32to16 -> unary And 0xFFFFL
  | T32to1 -> unary And 1L
  | CmpNEZ8 | CmpNEZ32 | CmpNEZ64 -> unary CmpNe 0L
  | CmpwNEZ32 ->
      let r1 = unary CmpNe 0L in
      let rz = new_int c in
      emit c (Movi (rz, 0L));
      let rd = new_int c in
      emit c (Alu (W32, Sub, rd, rz, r1));
      rd
  | CmpwNEZ64 ->
      let r1 = unary CmpNe 0L in
      let rz = new_int c in
      emit c (Movi (rz, 0L));
      let rd = new_int c in
      emit c (Alu (W64, Sub, rd, rz, r1));
      rd
  | Left32 ->
      let ra = sel_int c a in
      let rz = new_int c in
      emit c (Movi (rz, 0L));
      let rn = new_int c in
      emit c (Alu (W32, Sub, rn, rz, ra));
      let rd = new_int c in
      emit c (Alu (W32, Or, rd, ra, rn));
      rd
  | Left64 ->
      let ra = sel_int c a in
      let rz = new_int c in
      emit c (Movi (rz, 0L));
      let rn = new_int c in
      emit c (Alu (W64, Sub, rn, rz, ra));
      let rd = new_int c in
      emit c (Alu (W64, Or, rd, ra, rn));
      rd
  | Clz32 -> via_fun1 Clz32
  | Ctz32 -> via_fun1 Ctz32
  | NegF64 -> via_fun1 FNeg
  | AbsF64 -> via_fun1 FAbs
  | SqrtF64 -> via_fun1 FSqrt
  | I32StoF64 -> via_fun1 I32StoF64
  | F64toI32S -> via_fun1 F64toI32S
  | ReinterpF64asI64 | ReinterpI64asF64 -> sel_int c a (* same bits *)
  | V128to64 ->
      let va = sel_vec c a in
      let rd = new_int c in
      emit c (Vunpack (rd, va, 0));
      rd
  | V128HIto64 ->
      let va = sel_vec c a in
      let rd = new_int c in
      emit c (Vunpack (rd, va, 1));
      rd
  | NotV128 | Dup32x4 | CmpNEZ32x4 ->
      raise (Unrepresentable "vector unop in int context")

and sel_binop c op x y : int =
  match alu_of_binop op with
  | Some (w, aop) -> (
      let commutable = match aop with
        | H.Add | H.And | H.Or | H.Xor | H.Mul | H.CmpEq | H.CmpNe -> true
        | _ -> false
      in
      match (x, y) with
      | _, Const k when k <> CV128 0 && imm_fits w (const_bits k) ->
          let rx = sel_int c x in
          let rd = new_int c in
          emit c (Alui (w, aop, rd, rx, imm_enc (const_bits k)));
          rd
      | Const k, _ when commutable && k <> CV128 0 && imm_fits w (const_bits k)
        ->
          let ry = sel_int c y in
          let rd = new_int c in
          emit c (Alui (w, aop, rd, ry, imm_enc (const_bits k)));
          rd
      | _ ->
          let rx = sel_int c x in
          let ry = sel_int c y in
          let rd = new_int c in
          emit c (Alu (w, aop, rd, rx, ry));
          rd)
  | None -> (
      match falu_of_binop op with
      | Some fop ->
          let rx = sel_int c x in
          let ry = sel_int c y in
          let rd = new_int c in
          emit c (Falu (fop, rd, rx, ry));
          rd
      | None -> (
          match op with
          | Cat32x2 ->
              (* (hi, lo) -> hi:lo *)
              let rx = sel_int c x in
              let ry = sel_int c y in
              let rs = new_int c in
              emit c (Alui (W64, Shl, rs, rx, 32L));
              let rd = new_int c in
              emit c (Alu (W64, Or, rd, rs, ry));
              rd
          | _ -> raise (Unrepresentable "vector binop in int context")))

(** Select [e] into a vector virtual register. *)
and sel_vec (c : ctx) (e : expr) : int =
  match e with
  | RdTmp t -> vreg_of_tmp c t
  | Const (CV128 p) ->
      let v = Support.V128.of_pattern16 p in
      let rlo = new_int c in
      emit c (Movi (rlo, Support.V128.lo v));
      let rhi = new_int c in
      emit c (Movi (rhi, Support.V128.hi v));
      let vd = new_vec c in
      emit c (Vpack (vd, rhi, rlo));
      vd
  | Const _ -> raise (Unrepresentable "scalar const in vec context")
  | Get (off, V128) ->
      let vd = new_vec c in
      emit c (Vld (vd, H.gsp, off));
      vd
  | Get _ -> raise (Unrepresentable "scalar GET in vec context")
  | Load (V128, a) ->
      let ra = sel_int c a in
      let vd = new_vec c in
      emit c (Vld (vd, ra, 0));
      vd
  | Load _ -> raise (Unrepresentable "scalar load in vec context")
  | Unop (NotV128, a) ->
      let va = sel_vec c a in
      let vd = new_vec c in
      emit c (Vnot (vd, va));
      vd
  | Unop (Dup32x4, a) ->
      let ra = sel_int c a in
      let vd = new_vec c in
      emit c (Vsplat32 (vd, ra));
      vd
  | Unop (CmpNEZ32x4, a) ->
      let va = sel_vec c a in
      let rz = new_int c in
      emit c (Movi (rz, 0L));
      let vz = new_vec c in
      emit c (Vpack (vz, rz, rz));
      let veq = new_vec c in
      emit c (Valu (VCmpEq32, veq, va, vz));
      let vd = new_vec c in
      emit c (Vnot (vd, veq));
      vd
  | Unop _ -> raise (Unrepresentable "scalar unop in vec context")
  | Binop (Cat64x2, hi, lo) ->
      let rhi = sel_int c hi in
      let rlo = sel_int c lo in
      let vd = new_vec c in
      emit c (Vpack (vd, rhi, rlo));
      vd
  | Binop (op, x, y) -> (
      match valu_of_binop op with
      | Some vop ->
          let vx = sel_vec c x in
          let vy = sel_vec c y in
          let vd = new_vec c in
          emit c (Valu (vop, vd, vx, vy));
          vd
      | None -> raise (Unrepresentable "scalar binop in vec context"))
  | ITE (cond, t, f) ->
      (* no vector cmov: select via two masked halves is overkill; use a
         branch *)
      let vf = sel_vec c f in
      let vd = new_vec c in
      emit c (Vmov (vd, vf));
      let rc = sel_int c cond in
      let l = new_label c in
      emit c (Jz (rc, l));
      let vt = sel_vec c t in
      emit c (Vmov (vd, vt));
      emit c (Label l);
      vd
  | CCall _ -> raise (Unrepresentable "CCall cannot return V128")

(** Select a whole (tree-built) block.  Returns the code, the int and vec
    virtual-register counts, and the label count. *)
let select (b : block) : vinsn list * int * int * int =
  (* Virtual register numbers start above the physical register space so
     that the GSP (h15), which appears as a literal base register in
     GET/PUT selections, can never collide with a virtual number. *)
  let c =
    {
      blk = b;
      code = [];
      next_int = Host.Arch.n_hregs;
      next_vec = Host.Arch.n_hvregs;
      next_label = 0;
      tmp_map = Array.make (Support.Vec.length b.tyenv) (-1);
    }
  in
  let sel_any ty e = if is_vec_ty ty then sel_vec c e else sel_int c e in
  Support.Vec.iter
    (fun s ->
      match s with
      | NoOp | IMark _ | AbiHint _ -> ()
      | WrTmp (t, e) ->
          let ty = tmp_ty b t in
          c.tmp_map.(t) <- sel_any ty e
      | Put (off, e) ->
          let ty = type_of b e in
          if is_vec_ty ty then begin
            let v = sel_vec c e in
            emit c (Vst (v, H.gsp, off))
          end
          else begin
            let r = sel_int c e in
            emit c (St (size_of_ty ty, r, H.gsp, off))
          end
      | Store (a, d) ->
          let ty = type_of b d in
          if is_vec_ty ty then begin
            let ra = sel_int c a in
            let v = sel_vec c d in
            emit c (Vst (v, ra, 0))
          end
          else begin
            let ra = sel_int c a in
            let r = sel_int c d in
            emit c (St (size_of_ty ty, r, ra, 0))
          end
      | Dirty d -> (
          let guarded =
            match d.d_guard with Const (CI1 true) -> None | g -> Some g
          in
          let skip =
            match guarded with
            | None -> None
            | Some g ->
                let rg = sel_int c g in
                let l = new_label c in
                emit c (Jz (rg, l));
                Some l
          in
          let ras = List.map (sel_int c) d.d_args in
          let dst = Option.map (fun _ -> new_int c) d.d_tmp in
          c.code <- VCall { callee = d.d_callee; args = ras; dst } :: c.code;
          (match (d.d_tmp, dst) with
          | Some t, Some r -> c.tmp_map.(t) <- r
          | _ -> ());
          match skip with Some l -> emit c (Label l) | None -> ())
      | Exit (g, jk, dest) ->
          let rg = sel_int c g in
          emit c (ExitIf (rg, H.ek_of_jumpkind jk, dest)))
    b.stmts;
  (match b.next with
  | Const (CI32 dest) ->
      emit c (GotoI (H.ek_of_jumpkind b.jumpkind, Support.Bits.trunc32 dest))
  | e ->
      let r = sel_int c e in
      emit c (Goto (H.ek_of_jumpkind b.jumpkind, r)));
  (List.rev c.code, c.next_int, c.next_vec, c.next_label)
