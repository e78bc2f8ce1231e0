(** Shadow planes: the part of a shadow-value tool's instrumentation
    pass that is not its transfer functions (R1–R3).

    A {e plane} maps each temporary of the block being instrumented to
    the temporary that holds its shadow.  It is built with the block
    under construction, the shadow type of a value type, and the shadow
    of a defined value of a type; Memcheck's two planes (V bits and
    origin tags) differ only in those two functions.  The module also
    holds the two size ladders that read and write a shadow in memory
    through helpers indexed by log2 of the access size, and the moves
    between shadow temporaries and the shadow register file at
    {!Guest.Arch.shadow_of}. *)

open Vex_ir.Ir
module GA = Guest.Arch

type plane = {
  nb : block;  (** the block being built *)
  map : (tmp, tmp) Hashtbl.t;  (** temporary -> its shadow temporary *)
  ty : ty -> ty;  (** shadow type of a value of this type *)
  zero : ty -> expr;  (** shadow of a defined value of this type *)
}

let plane nb ~ty ~zero = { nb; map = Hashtbl.create 64; ty; zero }

(** The usual shadow type: the value's own, except that an F64 is
    shadowed by its I64 bits. *)
let shadow_ty = function F64 -> I64 | ty -> ty

(** The all-zero shadow of type [shadow_ty ty]. *)
let zero_of = function
  | I1 -> Const (CI1 false)
  | I8 -> Const (CI8 0)
  | I16 -> Const (CI16 0)
  | I32 -> Const (CI32 0L)
  | I64 | F64 -> Const (CI64 0L)
  | V128 -> Const (CV128 0)

(** Bind a fresh temporary of [nb] to [e]; the temporary, as an atom. *)
let assign nb e =
  let t = new_tmp nb (type_of nb e) in
  add_stmt nb (WrTmp (t, e));
  RdTmp t

let bind p t e =
  let s = new_tmp p.nb (p.ty (tmp_ty p.nb t)) in
  Hashtbl.replace p.map t s;
  add_stmt p.nb (WrTmp (s, e));
  s

(** Give temporary [t] a fresh shadow temporary holding [e]. *)
let define p t e = ignore (bind p t e)

(** The shadow of atom [e].  A constant, and a temporary read before
    any definition, shadow as a defined value. *)
let atom p = function
  | Const k -> p.zero (type_of_const k)
  | RdTmp t -> (
      match Hashtbl.find_opt p.map t with
      | Some s -> RdTmp s
      | None -> RdTmp (bind p t (p.zero (tmp_ty p.nb t))))
  | _ -> invalid_arg "Shadow_ir.atom: not an atom"

(** The shadow of [GET(off):ty]: its shadow register, or a defined value
    when [off] is shadow state itself. *)
let get p off ty =
  if off >= GA.shadow_offset then p.zero ty else Get (GA.shadow_of off, p.ty ty)

(** Before [PUT(off) = e]: the shadow register takes [e]'s shadow. *)
let put p off e =
  if off < GA.shadow_offset then
    add_stmt p.nb (Put (GA.shadow_of off, assign p.nb (atom p e)))

(* calls of [helpers.(lg)], the helper for accesses of 2^lg bytes *)
let load_call nb (helpers : callee array) lg addr =
  let t = new_tmp nb I64 in
  add_stmt nb (dirty ~tmp:t helpers.(lg) [ addr ]);
  RdTmp t

let store_call nb (helpers : callee array) lg addr v =
  add_stmt nb (dirty helpers.(lg) [ addr; v ])

(** The shadow of a [ty] load from [addr]: [helpers.(lg)] reads 2^lg
    shadow bytes and returns them as an I64; a V128 takes two 8-byte
    reads. *)
let load nb helpers ty addr =
  match ty with
  | V128 ->
      let lo = load_call nb helpers 3 addr in
      let hi =
        load_call nb helpers 3 (assign nb (Binop (Add32, addr, Const (CI32 8L))))
      in
      Binop (Cat64x2, hi, lo)
  | I64 | F64 -> load_call nb helpers 3 addr
  | I32 -> Unop (T64to32, load_call nb helpers 2 addr)
  | I16 -> Unop (T32to16, assign nb (Unop (T64to32, load_call nb helpers 1 addr)))
  | I8 -> Unop (T32to8, assign nb (Unop (T64to32, load_call nb helpers 0 addr)))
  | I1 -> invalid_arg "Shadow_ir.load: I1"

(** Store [data], the shadow of a [ty] value, at [addr]: [helpers.(lg)]
    takes the address and 2^lg shadow bytes widened to an I64; a V128
    takes two 8-byte writes. *)
let store nb helpers ty addr data =
  match ty with
  | V128 ->
      let lo = assign nb (Unop (V128to64, data)) in
      let hi = assign nb (Unop (V128HIto64, data)) in
      store_call nb helpers 3 addr lo;
      store_call nb helpers 3 (assign nb (Binop (Add32, addr, Const (CI32 8L)))) hi
  | I64 | F64 -> store_call nb helpers 3 addr data
  | I32 -> store_call nb helpers 2 addr (assign nb (Unop (U32to64, data)))
  | I16 ->
      store_call nb helpers 1 addr
        (assign nb (Unop (U32to64, assign nb (Unop (U16to32, data)))))
  | I8 ->
      store_call nb helpers 0 addr
        (assign nb (Unop (U32to64, assign nb (Unop (U8to32, data)))))
  | I1 -> invalid_arg "Shadow_ir.store: I1"
