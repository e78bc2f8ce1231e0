(** Pretty-printer for the IR, in the style of the paper's Figures 1 and 2:
    [t0 = Add32(GET:I32(12),0x4:I32)], [PUT(0) = t1], IMark separators, and
    DIRTY calls with their guest-state effect annotations. *)

open Ir

let pp_ty ppf = function
  | I1 -> Fmt.string ppf "I1"
  | I8 -> Fmt.string ppf "I8"
  | I16 -> Fmt.string ppf "I16"
  | I32 -> Fmt.string ppf "I32"
  | I64 -> Fmt.string ppf "I64"
  | F64 -> Fmt.string ppf "F64"
  | V128 -> Fmt.string ppf "V128"

let pp_const ppf = function
  | CI1 b -> Fmt.pf ppf "%d:I1" (if b then 1 else 0)
  | CI8 v -> Fmt.pf ppf "0x%X:I8" (v land 0xFF)
  | CI16 v -> Fmt.pf ppf "0x%X:I16" (v land 0xFFFF)
  | CI32 v -> Fmt.pf ppf "0x%LX:I32" (Support.Bits.trunc32 v)
  | CI64 v -> Fmt.pf ppf "0x%LX:I64" v
  | CF64 f -> Fmt.pf ppf "F64{%h}" f
  | CV128 p -> Fmt.pf ppf "V128{0x%04X}" (p land 0xFFFF)

let unop_name = function
  | Not1 -> "Not1"
  | Not32 -> "Not32"
  | Not64 -> "Not64"
  | Neg32 -> "Neg32"
  | Neg64 -> "Neg64"
  | U1to32 -> "1Uto32"
  | U8to32 -> "8Uto32"
  | S8to32 -> "8Sto32"
  | U16to32 -> "16Uto32"
  | S16to32 -> "16Sto32"
  | U32to64 -> "32Uto64"
  | S32to64 -> "32Sto64"
  | T64to32 -> "64to32"
  | T32to8 -> "32to8"
  | T32to16 -> "32to16"
  | T32to1 -> "32to1"
  | CmpNEZ8 -> "CmpNEZ8"
  | CmpNEZ32 -> "CmpNEZ32"
  | CmpNEZ64 -> "CmpNEZ64"
  | CmpwNEZ32 -> "CmpwNEZ32"
  | CmpwNEZ64 -> "CmpwNEZ64"
  | Left32 -> "Left32"
  | Left64 -> "Left64"
  | Clz32 -> "Clz32"
  | Ctz32 -> "Ctz32"
  | NegF64 -> "NegF64"
  | AbsF64 -> "AbsF64"
  | SqrtF64 -> "SqrtF64"
  | I32StoF64 -> "I32StoF64"
  | F64toI32S -> "F64toI32S"
  | ReinterpF64asI64 -> "ReinterpF64asI64"
  | ReinterpI64asF64 -> "ReinterpI64asF64"
  | NotV128 -> "NotV128"
  | V128to64 -> "V128to64"
  | V128HIto64 -> "V128HIto64"
  | Dup32x4 -> "Dup32x4"
  | CmpNEZ32x4 -> "CmpNEZ32x4"

let binop_name = function
  | Add32 -> "Add32"
  | Sub32 -> "Sub32"
  | Mul32 -> "Mul32"
  | MulHiS32 -> "MulHiS32"
  | DivS32 -> "DivS32"
  | DivU32 -> "DivU32"
  | And32 -> "And32"
  | Or32 -> "Or32"
  | Xor32 -> "Xor32"
  | Shl32 -> "Shl32"
  | Shr32 -> "Shr32"
  | Sar32 -> "Sar32"
  | CmpEQ32 -> "CmpEQ32"
  | CmpNE32 -> "CmpNE32"
  | CmpLT32S -> "CmpLT32S"
  | CmpLE32S -> "CmpLE32S"
  | CmpLT32U -> "CmpLT32U"
  | CmpLE32U -> "CmpLE32U"
  | Add64 -> "Add64"
  | Sub64 -> "Sub64"
  | Mul64 -> "Mul64"
  | And64 -> "And64"
  | Or64 -> "Or64"
  | Xor64 -> "Xor64"
  | Shl64 -> "Shl64"
  | Shr64 -> "Shr64"
  | Sar64 -> "Sar64"
  | CmpEQ64 -> "CmpEQ64"
  | CmpNE64 -> "CmpNE64"
  | Cat32x2 -> "32HLto64"
  | AddF64 -> "AddF64"
  | SubF64 -> "SubF64"
  | MulF64 -> "MulF64"
  | DivF64 -> "DivF64"
  | MinF64 -> "MinF64"
  | MaxF64 -> "MaxF64"
  | CmpEQF64 -> "CmpEQF64"
  | CmpLTF64 -> "CmpLTF64"
  | CmpLEF64 -> "CmpLEF64"
  | AndV128 -> "AndV128"
  | OrV128 -> "OrV128"
  | XorV128 -> "XorV128"
  | Add32x4 -> "Add32x4"
  | Sub32x4 -> "Sub32x4"
  | CmpEQ32x4 -> "CmpEQ32x4"
  | Add8x16 -> "Add8x16"
  | Sub8x16 -> "Sub8x16"
  | Cat64x2 -> "64HLtoV128"

let jk_name = function
  | Jk_boring -> "Boring"
  | Jk_call -> "Call"
  | Jk_ret -> "Ret"
  | Jk_syscall -> "Sys"
  | Jk_clientreq -> "ClientReq"
  | Jk_yield -> "Yield"
  | Jk_sigill -> "SigILL"

let rec pp_expr ppf = function
  | Get (off, ty) -> Fmt.pf ppf "GET:%a(%d)" pp_ty ty off
  | RdTmp t -> Fmt.pf ppf "t%d" t
  | Load (ty, addr) -> Fmt.pf ppf "LDle:%a(%a)" pp_ty ty pp_expr addr
  | Const c -> pp_const ppf c
  | Unop (op, a) -> Fmt.pf ppf "%s(%a)" (unop_name op) pp_expr a
  | Binop (op, a, b) ->
      Fmt.pf ppf "%s(%a,%a)" (binop_name op) pp_expr a pp_expr b
  | ITE (c, t, e) ->
      Fmt.pf ppf "ITE(%a,%a,%a)" pp_expr c pp_expr t pp_expr e
  | CCall (c, ty, args) ->
      Fmt.pf ppf "%s:%a(%a)" c.c_name pp_ty ty
        (Fmt.list ~sep:Fmt.comma pp_expr)
        args

let pp_fx ppf (reads, writes) =
  List.iter (fun (o, s) -> Fmt.pf ppf " RdFX-gst(%d,%d)" o s) reads;
  List.iter (fun (o, s) -> Fmt.pf ppf " WrFX-gst(%d,%d)" o s) writes

let pp_stmt ppf = function
  | NoOp -> Fmt.string ppf "IR-NoOp"
  | IMark (addr, len) -> Fmt.pf ppf "------ IMark(0x%LX, %d) ------" addr len
  | AbiHint (e, len) -> Fmt.pf ppf "====== AbiHint(%a, %d) ======" pp_expr e len
  | Put (off, e) -> Fmt.pf ppf "PUT(%d) = %a" off pp_expr e
  | WrTmp (t, e) -> Fmt.pf ppf "t%d = %a" t pp_expr e
  | Store (a, d) -> Fmt.pf ppf "STle(%a) = %a" pp_expr a pp_expr d
  | Dirty d ->
      let dst = match d.d_tmp with Some t -> Fmt.str "t%d = " t | None -> "" in
      Fmt.pf ppf "%sDIRTY %a%a ::: %s(%a)" dst pp_expr d.d_guard pp_fx
        (d.d_callee.c_fx_reads, d.d_callee.c_fx_writes)
        d.d_callee.c_name
        (Fmt.list ~sep:Fmt.comma pp_expr)
        d.d_args
  | Exit (guard, jk, dest) ->
      Fmt.pf ppf "if (%a) goto {%s} 0x%LX" pp_expr guard (jk_name jk) dest

let pp_block ppf (b : block) =
  Support.Vec.iteri
    (fun i s -> Fmt.pf ppf "%3d: %a@." (i + 1) pp_stmt s)
    b.stmts;
  Fmt.pf ppf "     goto {%s} %a@." (jk_name b.jumpkind) pp_expr b.next
