(** The architecture-neutral, D&R, SSA-style intermediate representation
    (paper §3.6).

    IR blocks are {e superblocks}: single-entry, multiple-exit stretches of
    code.  A block holds a list of {e statements} (operations with side
    effects: register writes, stores, assignments to temporaries) whose
    operands are {e expressions} (pure values: constants, register reads,
    loads, arithmetic).  Expressions may be arbitrary trees ("tree IR") or
    flattened so every operator reads only temporaries and literals
    ("flat IR"); instrumentation runs on flat IR (§3.7 phase 3).

    The IR is RISC-like: load/store, each primitive operation does one
    thing, and CISC guest instructions decompose into several statements.
    Guest state (registers) lives in a per-thread in-memory block (the
    ThreadState); [Get]/[Put] read and write it by byte offset, which is
    also how tools access their first-class shadow registers (R1). *)

(** Value types. [I1] is a single bit (conditions); [F64] an IEEE double
    carried bit-exactly; [V128] a SIMD vector. *)
type ty = I1 | I8 | I16 | I32 | I64 | F64 | V128

(** IR temporaries (SSA: assigned exactly once within a block). *)
type tmp = int

type const =
  | CI1 of bool
  | CI8 of int
  | CI16 of int
  | CI32 of int64  (** low 32 bits significant, zero-extended *)
  | CI64 of int64
  | CF64 of float
  | CV128 of int  (** 16-bit pattern: bit i set = byte i is 0xFF (VEX style) *)

(** Unary primitive operations. *)
type unop =
  | Not1
  | Not32
  | Not64
  | Neg32
  | Neg64
  | U1to32   (** 0/1 widening *)
  | U8to32
  | S8to32
  | U16to32
  | S16to32
  | U32to64
  | S32to64
  | T64to32  (** truncate *)
  | T32to8
  | T32to16
  | T32to1   (** low bit *)
  | CmpNEZ8  (** x <> 0, result I1 *)
  | CmpNEZ32
  | CmpNEZ64
  | CmpwNEZ32 (** 0 if x=0 else all-ones; "wide" nonzero test (Memcheck PCast) *)
  | CmpwNEZ64
  | Left32   (** x | -x : smears lowest set bit leftwards (Memcheck) *)
  | Left64
  | Clz32
  | Ctz32
  | NegF64
  | AbsF64
  | SqrtF64
  | I32StoF64  (** signed int to double *)
  | F64toI32S  (** truncate toward zero *)
  | ReinterpF64asI64
  | ReinterpI64asF64
  | NotV128
  | V128to64   (** low half *)
  | V128HIto64 (** high half *)
  | Dup32x4    (** broadcast low 32 bits of an I32 to 4 lanes *)
  | CmpNEZ32x4 (** per-lane wide nonzero test *)

(** Binary primitive operations. *)
type binop =
  | Add32
  | Sub32
  | Mul32
  | MulHiS32
  | DivS32
  | DivU32
  | And32
  | Or32
  | Xor32
  | Shl32
  | Shr32
  | Sar32
  | CmpEQ32
  | CmpNE32
  | CmpLT32S
  | CmpLE32S
  | CmpLT32U
  | CmpLE32U
  | Add64
  | Sub64
  | Mul64
  | And64
  | Or64
  | Xor64
  | Shl64
  | Shr64
  | Sar64
  | CmpEQ64
  | CmpNE64
  | Cat32x2 (** (hi:I32, lo:I32) -> I64 *)
  | AddF64
  | SubF64
  | MulF64
  | DivF64
  | MinF64
  | MaxF64
  | CmpEQF64
  | CmpLTF64
  | CmpLEF64
  | AndV128
  | OrV128
  | XorV128
  | Add32x4
  | Sub32x4
  | CmpEQ32x4
  | Add8x16
  | Sub8x16
  | Cat64x2 (** (hi:I64, lo:I64) -> V128 *)

(** Description of a helper function callable from IR ("C helper" in the
    paper; here an OCaml closure registered in a helper table).  The
    [fx_*] annotations play the role of the paper's RdFX/WrFX guest-state
    annotations on DIRTY calls: they say which ThreadState bytes the helper
    touches, so tools can see some of its effects. *)
type callee = {
  c_name : string;
  c_id : int;  (** index in its session's helper table *)
  c_cost : int;  (** cycle cost charged by the host model per call *)
  c_fx_reads : (int * int) list;  (** guest-state (offset,size) read *)
  c_fx_writes : (int * int) list;  (** guest-state (offset,size) written *)
}

type expr =
  | Get of int * ty  (** read guest state at byte offset *)
  | RdTmp of tmp
  | Load of ty * expr  (** little-endian load, address is I32 *)
  | Const of const
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | ITE of expr * expr * expr  (** ITE(cond:I1, iftrue, iffalse) *)
  | CCall of callee * ty * expr list  (** pure helper call; args/result integer types only *)

(** Why a block ended / why an exit is taken. Used by the core scheduler to
    decide what to do when the dispatcher returns. *)
type jumpkind =
  | Jk_boring
  | Jk_call
  | Jk_ret
  | Jk_syscall
  | Jk_clientreq
  | Jk_yield
  | Jk_sigill  (** undecodable instruction: deliver SIGILL at this PC *)

(** Effects of a dirty helper on memory, if any. *)
type dirty_mfx = Mfx_none | Mfx_read of expr * int | Mfx_write of expr * int

(** An impure helper call statement. [d_guard] is an I1 expression: the
    call happens only if it evaluates true (used e.g. by Memcheck's
    conditional error-reporting calls, Figure 2 statement 16). *)
type dirty = {
  d_guard : expr;
  d_callee : callee;
  d_args : expr list;
  d_tmp : tmp option;  (** destination for the I64 return value, if used *)
  d_mfx : dirty_mfx;
}

type stmt =
  | NoOp
  | IMark of int64 * int
      (** boundary marker: address and length of an original guest
          instruction (paper Figure 1, statements 1/4/14) *)
  | AbiHint of expr * int  (** address, len: bytes becoming undefined (stack) *)
  | Put of int * expr  (** write guest state at byte offset *)
  | WrTmp of tmp * expr
  | Store of expr * expr  (** Store(addr, data), little-endian *)
  | Dirty of dirty
  | Exit of expr * jumpkind * int64
      (** conditional side-exit: if guard (I1) is true, jump to the
          constant guest address *)

(** A superblock. [stmts] is mutable-by-append during construction;
    [tyenv] maps each temporary to its type. *)
type block = {
  tyenv : ty Support.Vec.t;
  stmts : stmt Support.Vec.t;
  mutable next : expr;  (** guest address of the successor (I32) *)
  mutable jumpkind : jumpkind;
}

let new_block () =
  {
    tyenv = Support.Vec.create I32;
    stmts = Support.Vec.create NoOp;
    next = Const (CI32 0L);
    jumpkind = Jk_boring;
  }

(** Allocate a fresh temporary of type [ty] in [b]. *)
let new_tmp b ty : tmp =
  Support.Vec.push b.tyenv ty;
  Support.Vec.length b.tyenv - 1

let add_stmt b s = Support.Vec.push b.stmts s
let tmp_ty b (t : tmp) = Support.Vec.get b.tyenv t
let stmts b = Support.Vec.to_list b.stmts

(** Deep-enough copy: statements are immutable, so copying the vectors is
    sufficient for the JIT to keep pre-instrumentation snapshots. *)
let copy_block b =
  {
    tyenv = Support.Vec.copy b.tyenv;
    stmts = Support.Vec.copy b.stmts;
    next = b.next;
    jumpkind = b.jumpkind;
  }

(** A block with [b]'s temporaries, successor and jump kind, and no
    statements: what a pass that rewrites [b] statement by statement
    builds into (VEX's [deepCopyIRSBExceptStmts]). *)
let empty_like b =
  {
    tyenv = Support.Vec.copy b.tyenv;
    stmts = Support.Vec.create NoOp;
    next = b.next;
    jumpkind = b.jumpkind;
  }

(** A call of helper [callee] on [args] with no memory effects, made only
    when [guard] holds (default: always), its result written to [tmp] if
    given (VEX's [unsafeIRDirty_0_N] and [unsafeIRDirty_1_N]). *)
let dirty ?(guard = Const (CI1 true)) ?tmp callee args =
  Dirty
    { d_guard = guard; d_callee = callee; d_args = args; d_tmp = tmp;
      d_mfx = Mfx_none }

(** {2 Convenience constructors} *)

let i32 v = Const (CI32 (Support.Bits.trunc32 v))
let i64 v = Const (CI64 v)
let i8 v = Const (CI8 (v land 0xFF))
let i1 b = Const (CI1 b)

(** [result type of a constant] *)
let type_of_const = function
  | CI1 _ -> I1
  | CI8 _ -> I8
  | CI16 _ -> I16
  | CI32 _ -> I32
  | CI64 _ -> I64
  | CF64 _ -> F64
  | CV128 _ -> V128

let unop_sig = function
  | Not1 -> (I1, I1)
  | Not32 | Neg32 -> (I32, I32)
  | Not64 | Neg64 -> (I64, I64)
  | U1to32 -> (I1, I32)
  | U8to32 | S8to32 -> (I8, I32)
  | U16to32 | S16to32 -> (I16, I32)
  | U32to64 | S32to64 -> (I32, I64)
  | T64to32 -> (I64, I32)
  | T32to8 -> (I32, I8)
  | T32to16 -> (I32, I16)
  | T32to1 -> (I32, I1)
  | CmpNEZ8 -> (I8, I1)
  | CmpNEZ32 -> (I32, I1)
  | CmpNEZ64 -> (I64, I1)
  | CmpwNEZ32 -> (I32, I32)
  | CmpwNEZ64 -> (I64, I64)
  | Left32 -> (I32, I32)
  | Left64 -> (I64, I64)
  | Clz32 | Ctz32 -> (I32, I32)
  | NegF64 | AbsF64 | SqrtF64 -> (F64, F64)
  | I32StoF64 -> (I32, F64)
  | F64toI32S -> (F64, I32)
  | ReinterpF64asI64 -> (F64, I64)
  | ReinterpI64asF64 -> (I64, F64)
  | NotV128 -> (V128, V128)
  | V128to64 | V128HIto64 -> (V128, I64)
  | Dup32x4 -> (I32, V128)
  | CmpNEZ32x4 -> (V128, V128)

let binop_sig = function
  | Add32 | Sub32 | Mul32 | MulHiS32 | DivS32 | DivU32 | And32 | Or32 | Xor32 ->
      (I32, I32, I32)
  | Shl32 | Shr32 | Sar32 -> (I32, I8, I32)  (* shift amount is a byte *)
  | CmpEQ32 | CmpNE32 | CmpLT32S | CmpLE32S | CmpLT32U | CmpLE32U ->
      (I32, I32, I1)
  | Add64 | Sub64 | Mul64 | And64 | Or64 | Xor64 -> (I64, I64, I64)
  | Shl64 | Shr64 | Sar64 -> (I64, I8, I64)
  | CmpEQ64 | CmpNE64 -> (I64, I64, I1)
  | Cat32x2 -> (I32, I32, I64)
  | AddF64 | SubF64 | MulF64 | DivF64 | MinF64 | MaxF64 -> (F64, F64, F64)
  | CmpEQF64 | CmpLTF64 | CmpLEF64 -> (F64, F64, I1)
  | AndV128 | OrV128 | XorV128 | Add32x4 | Sub32x4 | CmpEQ32x4 | Add8x16
  | Sub8x16 ->
      (V128, V128, V128)
  | Cat64x2 -> (I64, I64, V128)

(** Type of an expression within block [b]. Raises [Invalid_argument] on an
    ill-typed tree — the full checker with good messages is
    {!Typecheck.check_block}. *)
let rec type_of b = function
  | Get (_, ty) -> ty
  | RdTmp t -> tmp_ty b t
  | Load (ty, _) -> ty
  | Const c -> type_of_const c
  | Unop (op, _) -> snd (unop_sig op)
  | Binop (op, _, _) ->
      let _, _, r = binop_sig op in
      r
  | ITE (_, t, _) -> type_of b t
  | CCall (_, ty, _) -> ty

(** Size in bytes of a value of type [ty] ([I1] occupies one byte in the
    ThreadState, though no guest register is I1). *)
let size_of_ty = function
  | I1 -> 1
  | I8 -> 1
  | I16 -> 2
  | I32 -> 4
  | I64 -> 8
  | F64 -> 8
  | V128 -> 16
