(** Memcheck: the definedness- and addressability-checking shadow value
    tool (paper §1.2, §3.7 Figure 2, and Seward & Nethercote USENIX'05).

    Every register value is shadowed bit-for-bit in the ThreadState
    shadow block (R1); every memory byte has A and V bits in the
    two-level {!Shadow_mem} structure (R2).  Instrumentation adds a
    shadow operation before every original operation (R3); the events
    system keeps the shadow state in sync with system calls and
    allocations (R4–R7); the guest allocator is replaced so heap blocks
    get red zones and book-keeping bytes are unaddressable (R8); errors
    are recorded, deduplicated and printed through the core's error
    machinery (R9). *)

open Vex_ir.Ir
module GA = Guest.Arch

(* ------------------------------------------------------------------ *)
(* Tool state                                                           *)
(* ------------------------------------------------------------------ *)

type heap_block = {
  hb_addr : int64;  (** payload base *)
  hb_size : int;
  hb_alloc_stack : int64 list;
  mutable hb_freed : bool;
  mutable hb_free_stack : int64 list;
}

type state = {
  caps : Vg_core.Tool.caps;
  sm : Shadow_mem.t;
  live : (int64, heap_block) Hashtbl.t;
  mutable freed_ring : heap_block list;  (** recently freed, newest first *)
  mutable n_allocs : int;
  mutable n_frees : int;
  mutable bytes_allocated : int64;
  (* helpers *)
  mutable h_loadv : Vex_ir.Ir.callee array;  (** indexed by log2 size *)
  mutable h_storev : Vex_ir.Ir.callee array;
  mutable h_check_fail : Vex_ir.Ir.callee array;  (** by size: 0,1,2,4,8,16 *)
  (* origin tracking (--track-origins, the Memcheck extension):
     a second shadow plane says WHERE each undefined value was born *)
  origins : bool;
  otag_info : (int, string * int64 list) Hashtbl.t;  (** tag -> what, stack *)
  mutable next_otag : int;
  otag_cache : (string, int) Hashtbl.t;  (** allocation site -> tag *)
  word_origin : (int64, int) Hashtbl.t;  (** aligned addr -> tag *)
  mutable h_load_origin : Vex_ir.Ir.callee;
  mutable h_store_origin : Vex_ir.Ir.callee;
  mutable h_check_fail_o : Vex_ir.Ir.callee array;
      (** like h_check_fail but taking the origin tag as an argument *)
}

(* origin tags for the guest registers live in the spare ThreadState
   area above the value shadows: one 4-byte tag per register slot *)
let origin_of (off : int) = off + 480

let redzone = 16

(* ------------------------------------------------------------------ *)
(* Error reporting                                                      *)
(* ------------------------------------------------------------------ *)

let heap_block_for (st : state) (addr : int64) : heap_block option =
  let within (b : heap_block) =
    Int64.unsigned_compare addr (Int64.sub b.hb_addr (Int64.of_int redzone)) >= 0
    && Int64.unsigned_compare addr
         (Int64.add b.hb_addr (Int64.of_int (b.hb_size + redzone)))
       < 0
  in
  match Hashtbl.fold (fun _ b acc -> if within b then Some b else acc) st.live None with
  | Some b -> Some b
  | None -> List.find_opt within st.freed_ring

let describe_addr (st : state) (addr : int64) : string =
  match heap_block_for st addr with
  | Some b when b.hb_freed ->
      Printf.sprintf "Address 0x%LX is %Ld bytes inside a block of size %d free'd"
        addr (Int64.sub addr b.hb_addr) b.hb_size
  | Some b ->
      let off = Int64.sub addr b.hb_addr in
      if Int64.compare off 0L < 0 || Int64.compare off (Int64.of_int b.hb_size) >= 0
      then
        Printf.sprintf
          "Address 0x%LX is %Ld bytes %s a block of size %d alloc'd" addr
          (Int64.abs
             (if Int64.compare off 0L < 0 then off
              else Int64.sub off (Int64.of_int b.hb_size)))
          (if Int64.compare off 0L < 0 then "before" else "after")
          b.hb_size
      else
        Printf.sprintf "Address 0x%LX is %Ld bytes inside a block of size %d alloc'd"
          addr off b.hb_size
  | None -> Printf.sprintf "Address 0x%LX is not stack'd, malloc'd or free'd" addr

let report (st : state) ~kind ~msg =
  ignore
    (Vg_core.Errors.record st.caps.errors ~kind ~msg ~stack:(st.caps.stack_trace ()))

let report_undef ?(otag = 0) (st : state) (size : int) =
  let what =
    if size = 0 then "Conditional jump or move depends on uninitialised value(s)"
    else Printf.sprintf "Use of uninitialised value of size %d" size
  in
  let what =
    match Hashtbl.find_opt st.otag_info otag with
    | Some (descr, site_stack) ->
        let site =
          match site_stack with
          | top :: _ -> st.caps.symbolize top
          | [] -> "?"
        in
        Printf.sprintf "%s\n==err==  Uninitialised value was created by %s at %s"
          what descr site
    | None -> what
  in
  report st ~kind:"UninitValue" ~msg:what

(* intern an origin tag for an allocation event *)
let otag_for (st : state) ~(descr : string) ~(site : int64 list) : int =
  let key =
    descr ^ "@" ^ String.concat "," (List.map Int64.to_string site)
  in
  match Hashtbl.find_opt st.otag_cache key with
  | Some t -> t
  | None ->
      let t = st.next_otag in
      st.next_otag <- t + 1;
      Hashtbl.replace st.otag_cache key t;
      Hashtbl.replace st.otag_info t (descr, site);
      t

let set_origin_range (st : state) (addr : int64) (len : int) (tag : int) =
  if st.origins && len <= 1 lsl 20 then begin
    let base = Int64.logand addr (Int64.lognot 3L) in
    let words = (len + 7) / 4 in
    for i = 0 to words - 1 do
      let a = Int64.add base (Int64.of_int (4 * i)) in
      if tag = 0 then Hashtbl.remove st.word_origin a
      else Hashtbl.replace st.word_origin a tag
    done
  end

let report_invalid_access (st : state) ~is_write ~addr ~size =
  report st
    ~kind:(if is_write then "InvalidWrite" else "InvalidRead")
    ~msg:
      (Printf.sprintf "Invalid %s of size %d\n==err==  %s"
         (if is_write then "write" else "read")
         size (describe_addr st addr))

(* ------------------------------------------------------------------ *)
(* Helper registration                                                  *)
(* ------------------------------------------------------------------ *)

(* costs roughly model Memcheck's real shadow-memory fast paths; they
   are what puts Memcheck's Table-2 slow-down where it belongs *)
let loadv_cost = 11
let storev_cost = 11
let fail_cost = 30

let register_helpers (st : state) =
  (* error-reporting helpers read the guest PC and frame pointer for
     stack traces: declare it (RdFX), as the paper's Figure 2 shows *)
  let fx =
    [ (GA.off_eip, 4); (GA.off_reg GA.reg_fp, 4) ]
  in
  let reg = st.caps.register_helper ~fx_reads:fx in
  let mk_loadv size lg =
    reg
      ~name:(Printf.sprintf "mc_LOADV%d" (8 * size))
      ~cost:loadv_cost ~nargs:1
      (fun args ->
        let addr = args.(0) in
        let ok, v = Shadow_mem.load st.sm addr size in
        if not ok then begin
          report_invalid_access st ~is_write:false ~addr ~size;
          0L (* pretend defined to avoid error cascades *)
        end
        else v)
    |> fun c -> st.h_loadv.(lg) <- c
  in
  mk_loadv 1 0;
  mk_loadv 2 1;
  mk_loadv 4 2;
  mk_loadv 8 3;
  let mk_storev size lg =
    reg
      ~name:(Printf.sprintf "mc_STOREV%d" (8 * size))
      ~cost:storev_cost ~nargs:2
      (fun args ->
        let addr = args.(0) and v = args.(1) in
        if not (Shadow_mem.store st.sm addr size v) then
          report_invalid_access st ~is_write:true ~addr ~size;
        0L)
    |> fun c -> st.h_storev.(lg) <- c
  in
  mk_storev 1 0;
  mk_storev 2 1;
  mk_storev 4 2;
  mk_storev 8 3;
  List.iteri
    (fun i size ->
      st.h_check_fail.(i) <-
        reg
          ~name:(Printf.sprintf "mc_value_check%d_fail" size)
          ~cost:fail_cost ~nargs:0
          (fun _args ->
            report_undef st size;
            0L))
    [ 0; 1; 2; 4; 8; 16 ];
  if st.origins then begin
    st.h_load_origin <-
      reg ~name:"mc_load_origin" ~cost:7 ~nargs:1 (fun args ->
          let a = Int64.logand args.(0) (Int64.lognot 3L) in
          Int64.of_int
            (Option.value ~default:0 (Hashtbl.find_opt st.word_origin a)));
    st.h_store_origin <-
      reg ~name:"mc_store_origin" ~cost:7 ~nargs:2 (fun args ->
          let a = Int64.logand args.(0) (Int64.lognot 3L) in
          let tag = Int64.to_int args.(1) in
          if tag = 0 then Hashtbl.remove st.word_origin a
          else Hashtbl.replace st.word_origin a tag;
          0L);
    List.iteri
      (fun i size ->
        st.h_check_fail_o.(i) <-
          reg
            ~name:(Printf.sprintf "mc_value_check%d_fail_o" size)
            ~cost:fail_cost ~nargs:1
            (fun args ->
              report_undef ~otag:(Int64.to_int args.(0)) st size;
              0L))
      [ 0; 1; 2; 4; 8; 16 ]
  end

(* index of the check-failure helpers for a value of [size] bytes *)
let fail_index = function 0 -> 0 | 1 -> 1 | 2 -> 2 | 4 -> 3 | 8 -> 4 | _ -> 5

(* ------------------------------------------------------------------ *)
(* Instrumentation (phase 3)                                            *)
(* ------------------------------------------------------------------ *)

(* Two shadow planes: V bits, one per value bit (an F64 is shadowed by
   I64 bits), and origin tags, an I32 per value where 0 is "no origin".
   Without origin tracking nothing reads [o], and it is [v]. *)
type ictx = { st : state; nb : block; v : Shadow_ir.plane; o : Shadow_ir.plane }

let otag_ty (_ : ty) = I32
let no_otag (_ : ty) = Const (CI32 0L)
let emit c s = add_stmt c.nb s
let assign c e = Shadow_ir.assign c.nb e
let shadow_atom c e = Shadow_ir.atom c.v e
let origin_atom c e = Shadow_ir.atom c.o e

(* Pessimistic cast of a shadow value to a target shadow type: result is
   all-zeroes iff the input is (mkPCastTo in Memcheck). *)
let pcast_to c (ty : ty) (v : expr) : expr =
  let vty = type_of c.nb v in
  if vty = ty && (ty = I1) then v
  else begin
    (* normalise to an I1 "any bit undefined" *)
    let nz =
      match vty with
      | I1 -> v
      | I8 -> assign c (Unop (CmpNEZ8, v))
      | I16 -> assign c (Unop (CmpNEZ32, assign c (Unop (U16to32, v))))
      | I32 -> assign c (Unop (CmpNEZ32, v))
      | I64 -> assign c (Unop (CmpNEZ64, v))
      | F64 -> assign c (Unop (CmpNEZ64, v))
      | V128 ->
          let lo = assign c (Unop (V128to64, v)) in
          let hi = assign c (Unop (V128HIto64, v)) in
          assign c (Unop (CmpNEZ64, assign c (Binop (Or64, lo, hi))))
    in
    match ty with
    | I1 -> nz
    | I8 -> assign c (Unop (T32to8, assign c (Unop (CmpwNEZ32, assign c (Unop (U1to32, nz))))))
    | I16 -> assign c (Unop (T32to16, assign c (Unop (CmpwNEZ32, assign c (Unop (U1to32, nz))))))
    | I32 -> assign c (Unop (CmpwNEZ32, assign c (Unop (U1to32, nz))))
    | I64 | F64 ->
        assign c (Unop (CmpwNEZ64, assign c (Unop (U32to64, assign c (Unop (U1to32, nz))))))
    | V128 ->
        let w =
          assign c (Unop (CmpwNEZ64, assign c (Unop (U32to64, assign c (Unop (U1to32, nz))))))
        in
        assign c (Binop (Cat64x2, w, w))
  end

(* UifU: undefined-if-either-undefined *)
let uifu c (a : expr) (b : expr) : expr =
  match type_of c.nb a with
  | I1 ->
      (* I1 or: via ITE *)
      assign c (ITE (a, Const (CI1 true), b))
  | I8 ->
      let a32 = assign c (Unop (U8to32, a)) and b32 = assign c (Unop (U8to32, b)) in
      assign c (Unop (T32to8, assign c (Binop (Or32, a32, b32))))
  | I16 ->
      let a32 = assign c (Unop (U16to32, a)) and b32 = assign c (Unop (U16to32, b)) in
      assign c (Unop (T32to16, assign c (Binop (Or32, a32, b32))))
  | I32 -> assign c (Binop (Or32, a, b))
  | I64 | F64 -> assign c (Binop (Or64, a, b))
  | V128 -> assign c (Binop (OrV128, a, b))

(* Left: smear undefinedness toward the MSB (carry propagation model for
   add/sub — exactly Figure 2's Or/Neg/Or sequence). *)
let left c (v : expr) : expr =
  match type_of c.nb v with
  | I32 ->
      let n = assign c (Unop (Neg32, v)) in
      assign c (Binop (Or32, v, n))
  | I64 ->
      let n = assign c (Unop (Neg64, v)) in
      assign c (Binop (Or64, v, n))
  | _ -> v

(* complain if any bit of shadow [v] is undefined; [size] is the reported
   value size in bytes (0 = condition); [origin] is the origin-tag atom
   reported alongside when origin tracking is on *)
let complain_if_undefined ?origin c (v : expr) (size : int) =
  let guard = pcast_to c I1 v in
  let i = fail_index size in
  emit c
    (match (c.st.origins, origin) with
    | true, Some o -> dirty ~guard c.st.h_check_fail_o.(i) [ o ]
    | _ -> dirty ~guard c.st.h_check_fail.(i) [])

(* shadow of a (flat) rhs expression *)
let shadow_rhs c (e : expr) : expr =
  match e with
  | Const _ | RdTmp _ -> shadow_atom c e
  | Get (off, ty) -> Shadow_ir.get c.v off ty
  | Load (ty, addr) ->
      (* check the address itself is defined (Figure 2, stmts 15–16) *)
      let o =
        if c.st.origins then Some (assign c (origin_atom c addr)) else None
      in
      complain_if_undefined ?origin:o c (shadow_atom c addr) 4;
      Shadow_ir.load c.nb c.st.h_loadv ty addr
  | Unop (op, a) -> (
      let va = shadow_atom c a in
      match op with
      | Not1 | Not32 | Not64 | NegF64 | AbsF64
      | ReinterpF64asI64 | ReinterpI64asF64 ->
          va
      | U1to32 -> Unop (U1to32, va)
      | U8to32 -> Unop (U8to32, va)
      | S8to32 -> Unop (S8to32, va)
      | U16to32 -> Unop (U16to32, va)
      | S16to32 -> Unop (S16to32, va)
      | U32to64 -> Unop (U32to64, va)
      | S32to64 -> Unop (S32to64, va)
      | T64to32 -> Unop (T64to32, va)
      | T32to8 -> Unop (T32to8, va)
      | T32to16 -> Unop (T32to16, va)
      | T32to1 -> Unop (T32to1, va)
      | Neg32 | Left32 -> left c va
      | Neg64 | Left64 -> left c va
      | CmpNEZ8 -> pcast_to c I1 va
      | CmpNEZ32 -> pcast_to c I1 va
      | CmpNEZ64 -> pcast_to c I1 va
      | CmpwNEZ32 -> pcast_to c I32 va
      | CmpwNEZ64 -> pcast_to c I64 va
      | Clz32 | Ctz32 -> pcast_to c I32 va
      | SqrtF64 | I32StoF64 -> pcast_to c I64 va
      | F64toI32S -> pcast_to c I32 va
      | NotV128 -> va
      | V128to64 -> Unop (V128to64, va)
      | V128HIto64 -> Unop (V128HIto64, va)
      | Dup32x4 -> Unop (Dup32x4, va)
      | CmpNEZ32x4 -> Unop (CmpNEZ32x4, va))
  | Binop (op, a, b) -> (
      let va () = shadow_atom c a and vb () = shadow_atom c b in
      match op with
      | Add32 | Sub32 | Mul32 -> left c (uifu c (va ()) (vb ()))
      | Add64 | Sub64 | Mul64 -> left c (uifu c (va ()) (vb ()))
      | MulHiS32 | DivS32 | DivU32 -> pcast_to c I32 (uifu c (va ()) (vb ()))
      | Xor32 -> Binop (Or32, va (), vb ())
      | Xor64 -> Binop (Or64, va (), vb ())
      | And32 ->
          (* improved AND: a result bit is defined if both inputs defined,
             or either input is a defined 0 *)
          let u = assign c (Binop (Or32, va (), vb ())) in
          let ia = assign c (Binop (Or32, a, va ())) in
          let ib = assign c (Binop (Or32, b, vb ())) in
          Binop (And32, u, assign c (Binop (And32, ia, ib)))
      | And64 ->
          let u = assign c (Binop (Or64, va (), vb ())) in
          let ia = assign c (Binop (Or64, a, va ())) in
          let ib = assign c (Binop (Or64, b, vb ())) in
          Binop (And64, u, assign c (Binop (And64, ia, ib)))
      | Or32 ->
          (* a result bit is defined if both defined, or either a defined 1 *)
          let u = assign c (Binop (Or32, va (), vb ())) in
          let na = assign c (Unop (Not32, a)) in
          let nb' = assign c (Unop (Not32, b)) in
          let ia = assign c (Binop (Or32, na, va ())) in
          let ib = assign c (Binop (Or32, nb', vb ())) in
          Binop (And32, u, assign c (Binop (And32, ia, ib)))
      | Or64 ->
          let u = assign c (Binop (Or64, va (), vb ())) in
          let na = assign c (Unop (Not64, a)) in
          let nb' = assign c (Unop (Not64, b)) in
          let ia = assign c (Binop (Or64, na, va ())) in
          let ib = assign c (Binop (Or64, nb', vb ())) in
          Binop (And64, u, assign c (Binop (And64, ia, ib)))
      | Shl32 | Shr32 | Sar32 -> (
          match b with
          | Const _ -> Binop (op, va (), b)
          | _ ->
              (* shift by an unknown amount: if the amount is undefined at
                 all, everything is *)
              let vamt = pcast_to c I32 (vb ()) in
              let shifted = assign c (Binop (op, va (), b)) in
              Binop (Or32, shifted, vamt))
      | Shl64 | Shr64 | Sar64 -> (
          match b with
          | Const _ -> Binop (op, va (), b)
          | _ ->
              let vamt = pcast_to c I64 (vb ()) in
              let shifted = assign c (Binop (op, va (), b)) in
              Binop (Or64, shifted, vamt))
      | CmpEQ32 | CmpNE32 | CmpLT32S | CmpLE32S | CmpLT32U | CmpLE32U ->
          pcast_to c I1 (uifu c (va ()) (vb ()))
      | CmpEQ64 | CmpNE64 -> pcast_to c I1 (uifu c (va ()) (vb ()))
      | Cat32x2 -> Binop (Cat32x2, va (), vb ())
      | AddF64 | SubF64 | MulF64 | DivF64 | MinF64 | MaxF64 ->
          pcast_to c I64 (uifu c (va ()) (vb ()))
      | CmpEQF64 | CmpLTF64 | CmpLEF64 ->
          pcast_to c I1 (uifu c (va ()) (vb ()))
      | AndV128 ->
          let u = assign c (Binop (OrV128, va (), vb ())) in
          let ia = assign c (Binop (OrV128, a, va ())) in
          let ib = assign c (Binop (OrV128, b, vb ())) in
          Binop (AndV128, u, assign c (Binop (AndV128, ia, ib)))
      | OrV128 ->
          let u = assign c (Binop (OrV128, va (), vb ())) in
          let na = assign c (Unop (NotV128, a)) in
          let nb' = assign c (Unop (NotV128, b)) in
          let ia = assign c (Binop (OrV128, na, va ())) in
          let ib = assign c (Binop (OrV128, nb', vb ())) in
          Binop (AndV128, u, assign c (Binop (AndV128, ia, ib)))
      | XorV128 -> Binop (OrV128, va (), vb ())
      | Add32x4 | Sub32x4 | CmpEQ32x4 ->
          Unop (CmpNEZ32x4, assign c (Binop (OrV128, va (), vb ())))
      | Add8x16 | Sub8x16 ->
          (* per-byte pessimism via 32-bit lanes is close enough *)
          Unop (CmpNEZ32x4, assign c (Binop (OrV128, va (), vb ())))
      | Cat64x2 -> Binop (Cat64x2, va (), vb ()))
  | ITE (cond, t, f) ->
      complain_if_undefined c (shadow_atom c cond) 0;
      ITE (cond, shadow_atom c t, shadow_atom c f)
  | CCall (_, ty, args) ->
      (* pessimistic: if any argument has any undefined bit, the result is
         fully undefined *)
      let parts =
        List.map (fun a -> pcast_to c I32 (pcast_to c I32 (shadow_atom c a))) args
      in
      let any =
        List.fold_left
          (fun acc p -> assign c (Binop (Or32, acc, p)))
          (Const (CI32 0L)) parts
      in
      (match ty with I32 -> pcast_to c I32 any | _ -> pcast_to c I64 any)

(* origin of a (flat) rhs: which allocation the undefinedness (if any)
   of this value traces back to.  Merging picks the left operand's tag
   when nonzero — the same pragmatic rule real Memcheck's B-bit plane
   uses for binary ops. *)
let omerge c (a : expr) (b : expr) : expr =
  let nz = assign c (Unop (CmpNEZ32, a)) in
  assign c (ITE (nz, a, b))

let origin_rhs c (e : expr) : expr =
  match e with
  | Const _ | RdTmp _ -> origin_atom c e
  | Get (off, _) ->
      if off < GA.guest_state_used then Get (origin_of off, I32)
      else Const (CI32 0L)
  | Load (_, addr) ->
      let t = new_tmp c.nb I64 in
      emit c (dirty ~tmp:t c.st.h_load_origin [ addr ]);
      Unop (T64to32, RdTmp t)
  | Unop (_, a) -> origin_atom c a
  | Binop (_, a, b) ->
      let oa = assign c (origin_atom c a) in
      let ob = assign c (origin_atom c b) in
      omerge c oa ob
  | ITE (cond, t, f) -> ITE (cond, origin_atom c t, origin_atom c f)
  | CCall (_, _, args) ->
      List.fold_left
        (fun acc a ->
          let oa = assign c (origin_atom c a) in
          omerge c (assign c acc) oa)
        (Const (CI32 0L)) args

let store_origin_call c (addr : expr) (otag : expr) =
  let o64 = assign c (Unop (U32to64, otag)) in
  emit c (dirty c.st.h_store_origin [ addr; o64 ])

(** Phase-3 instrumentation: flat IR in, flat IR out. *)
let instrument (st : state) (b : block) : block =
  let nb = empty_like b in
  let v = Shadow_ir.plane nb ~ty:Shadow_ir.shadow_ty ~zero:Shadow_ir.zero_of in
  let o =
    if st.origins then Shadow_ir.plane nb ~ty:otag_ty ~zero:no_otag else v
  in
  let c = { st; nb; v; o } in
  let origin_arg e = if st.origins then Some (assign c (origin_atom c e)) else None in
  Support.Vec.iter
    (fun s ->
      match s with
      | NoOp | IMark _ | AbiHint _ -> emit c s
      | WrTmp (t, e) ->
          (* shadow computation precedes the original (Figure 2) *)
          Shadow_ir.define v t (shadow_rhs c e);
          if st.origins then Shadow_ir.define o t (origin_rhs c e);
          emit c s
      | Put (off, e) ->
          Shadow_ir.put v off e;
          if st.origins && off < GA.guest_state_used then
            emit c (Put (origin_of off, assign c (origin_atom c e)));
          emit c s
      | Store (addr, d) ->
          complain_if_undefined ?origin:(origin_arg addr) c
            (shadow_atom c addr) 4;
          Shadow_ir.store nb st.h_storev (type_of nb d) addr (shadow_atom c d);
          if st.origins then
            store_origin_call c addr (assign c (origin_atom c d));
          emit c s
      | Exit (guard, _, _) ->
          complain_if_undefined ?origin:(origin_arg guard) c
            (shadow_atom c guard) 0;
          emit c s
      | Dirty d ->
          (* check guard and (integer) argument definedness *)
          complain_if_undefined ?origin:(origin_arg d.d_guard) c
            (shadow_atom c d.d_guard) 0;
          emit c s;
          (* the result, if any, and written guest state become defined *)
          (match d.d_tmp with
          | Some t ->
              Shadow_ir.define v t (Shadow_ir.zero_of (tmp_ty nb t));
              if st.origins then Shadow_ir.define o t (Const (CI32 0L))
          | None -> ());
          List.iter
            (fun (off, size) ->
              if off < GA.shadow_offset then
                match size with
                | 4 -> emit c (Put (GA.shadow_of off, Const (CI32 0L)))
                | 8 -> emit c (Put (GA.shadow_of off, Const (CI64 0L)))
                | _ -> ())
            d.d_callee.c_fx_writes)
    b.stmts;
  (* check the block's computed jump target *)
  complain_if_undefined ?origin:(origin_arg b.next) c (shadow_atom c b.next) 4;
  nb

(* ------------------------------------------------------------------ *)
(* Heap replacement (R8)                                                *)
(* ------------------------------------------------------------------ *)

let do_malloc (st : state) (size : int) ~zero : int64 =
  let size = max size 1 in
  (* a real replacement allocator runs guest-side bookkeeping and paints
     red zones; charge comparable work *)
  st.caps.charge_cycles (200 + (size / 8) + if zero then size / 4 else 0);
  let base = st.caps.client_alloc (size + (2 * redzone)) in
  if base = 0L then 0L (* the arena is full: malloc returns NULL *)
  else begin
    let addr = Int64.add base (Int64.of_int redzone) in
    Shadow_mem.make_noaccess st.sm base redzone;
    Shadow_mem.make_noaccess st.sm (Int64.add addr (Int64.of_int size)) redzone;
    if zero then begin
      Replace_malloc.zero st.caps addr size;
      Shadow_mem.make_defined st.sm addr size
    end
    else begin
      Shadow_mem.make_undefined st.sm addr size;
      if st.origins then
        set_origin_range st addr size
          (otag_for st ~descr:"a heap allocation" ~site:(st.caps.stack_trace ()))
    end;
    Hashtbl.replace st.live addr
      {
        hb_addr = addr;
        hb_size = size;
        hb_alloc_stack = st.caps.stack_trace ();
        hb_freed = false;
        hb_free_stack = [];
      };
    st.n_allocs <- st.n_allocs + 1;
    st.bytes_allocated <- Int64.add st.bytes_allocated (Int64.of_int size);
    addr
  end

let do_free (st : state) (addr : int64) =
  st.caps.charge_cycles 150;
  if addr = 0L then ()
  else
    match Hashtbl.find_opt st.live addr with
    | None ->
        report st ~kind:"InvalidFree"
          ~msg:
            (Printf.sprintf "Invalid free() / delete / delete[]\n==err==  %s"
               (describe_addr st addr))
    | Some b ->
        Hashtbl.remove st.live addr;
        b.hb_freed <- true;
        b.hb_free_stack <- st.caps.stack_trace ();
        (* a block that leaves the ring of recently freed blocks is no
           longer described in error messages, and its region goes back
           to the core allocator *)
        if List.length st.freed_ring > 64 then begin
          List.iteri
            (fun i old ->
              if i >= 63 then
                st.caps.client_free
                  (Int64.sub old.hb_addr (Int64.of_int redzone))
                  (old.hb_size + (2 * redzone)))
            st.freed_ring;
          st.freed_ring <- List.filteri (fun i _ -> i < 63) st.freed_ring
        end;
        st.freed_ring <- b :: st.freed_ring;
        Shadow_mem.make_noaccess st.sm b.hb_addr b.hb_size;
        st.n_frees <- st.n_frees + 1

let install_heap_replacement (st : state) =
  Replace_malloc.install st.caps
    ~malloc:(fun size -> do_malloc st size ~zero:false)
    ~calloc:(fun size -> do_malloc st size ~zero:true)
    ~free:(do_free st)
    ~realloc:(fun old size ->
      if old = 0L then do_malloc st size ~zero:false
      else
        match Hashtbl.find_opt st.live old with
        | None ->
            report st ~kind:"InvalidFree"
              ~msg:(Printf.sprintf "realloc() of invalid pointer\n==err==  %s" (describe_addr st old));
            0L
        | Some b ->
            (* like mremap: values and shadow values are copied (R8) *)
            let naddr = do_malloc st size ~zero:false in
            if naddr <> 0L then begin
              let n = min size b.hb_size in
              Replace_malloc.copy st.caps ~src:old ~dst:naddr n;
              Shadow_mem.copy_range st.sm ~src:old ~dst:naddr n;
              do_free st old
            end;
            naddr)

(* ------------------------------------------------------------------ *)
(* Leak checking                                                        *)
(* ------------------------------------------------------------------ *)

let leak_check (st : state) : int * int64 =
  if Hashtbl.length st.live = 0 then (0, 0L)
  else begin
    (* conservative mark-and-sweep: roots are the guest registers and
       every addressable aligned word outside heap payloads *)
    let reachable : (int64, unit) Hashtbl.t = Hashtbl.create 64 in
    (* Live payloads never overlap (each has its own client_alloc
       region), so the block holding [p], if any, is the last one in
       address order that starts at or below [p]. *)
    let blocks =
      Hashtbl.fold (fun _ b acc -> b :: acc) st.live []
      |> List.sort (fun a b -> Int64.unsigned_compare a.hb_addr b.hb_addr)
      |> Array.of_list
    in
    let block_of_ptr (p : int64) : heap_block option =
      (* blocks before [lo] start at or below [p], blocks from [hi] on
         start above it *)
      let lo = ref 0 and hi = ref (Array.length blocks) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Int64.unsigned_compare blocks.(mid).hb_addr p <= 0 then
          lo := mid + 1
        else hi := mid
      done;
      if !lo = 0 then None
      else
        let b = blocks.(!lo - 1) in
        if
          Int64.unsigned_compare p
            (Int64.add b.hb_addr (Int64.of_int b.hb_size))
          < 0
        then Some b
        else None
    in
    let work = Queue.create () in
    let mark p =
      match block_of_ptr p with
      | Some b when not (Hashtbl.mem reachable b.hb_addr) ->
          Hashtbl.replace reachable b.hb_addr ();
          Queue.add b work
      | _ -> ()
    in
    (* registers *)
    for r = 0 to GA.n_regs - 1 do
      mark (st.caps.read_guest (GA.off_reg r) 4)
    done;
    (* memory outside heap payloads: scan addressable aligned words *)
    Array.iteri
      (fun chunk sm_state ->
        match sm_state with
        | Shadow_mem.Sm_noaccess -> ()
        | _ ->
            let base = Int64.of_int (chunk * 65536) in
            let i = ref 0 in
            while !i < 65536 do
              let addr = Int64.add base (Int64.of_int !i) in
              if
                Shadow_mem.get_abit st.sm addr
                && block_of_ptr addr = None
              then begin
                match Aspace.read st.caps.mem addr 4 with
                | v -> mark v
                | exception Aspace.Fault _ -> ()
              end;
              i := !i + 4
            done)
      st.sm.primary;
    (* propagate through reachable blocks *)
    while not (Queue.is_empty work) do
      let b = Queue.take work in
      let i = ref 0 in
      while !i + 4 <= b.hb_size do
        (match Aspace.read st.caps.mem (Int64.add b.hb_addr (Int64.of_int !i)) 4 with
        | v -> mark v
        | exception Aspace.Fault _ -> ());
        i := !i + 4
      done
    done;
    let leaked_blocks = ref 0 and leaked_bytes = ref 0L in
    Hashtbl.iter
      (fun addr b ->
        if not (Hashtbl.mem reachable addr) then begin
          incr leaked_blocks;
          leaked_bytes := Int64.add !leaked_bytes (Int64.of_int b.hb_size);
          ignore
            (Vg_core.Errors.record st.caps.errors ~kind:"Leak"
               ~msg:
                 (Printf.sprintf "%d bytes in 1 blocks are definitely lost"
                    b.hb_size)
               ~stack:b.hb_alloc_stack)
        end)
      st.live;
    (!leaked_blocks, !leaked_bytes)
  end

(* ------------------------------------------------------------------ *)
(* Event callbacks (Table 1, right column)                              *)
(* ------------------------------------------------------------------ *)

let install_events (st : state) =
  let ev = st.caps.events in
  ev.new_mem_startup <-
    Some
      (fun ~addr ~len ~defined ~what ->
        ignore what;
        if defined then Shadow_mem.make_defined st.sm addr len
        else Shadow_mem.make_undefined st.sm addr len);
  ev.new_mem_mmap <- Some (fun ~addr ~len -> Shadow_mem.make_defined st.sm addr len);
  ev.die_mem_munmap <- Some (fun ~addr ~len -> Shadow_mem.make_noaccess st.sm addr len);
  ev.new_mem_brk <-
    Some
      (fun ~addr ~len ->
        Shadow_mem.make_undefined st.sm addr len;
        if st.origins then
          set_origin_range st addr len
            (otag_for st ~descr:"a brk heap extension"
               ~site:(st.caps.stack_trace ())));
  ev.die_mem_brk <- Some (fun ~addr ~len -> Shadow_mem.make_noaccess st.sm addr len);
  ev.copy_mem_mremap <-
    Some (fun ~src ~dst ~len -> Shadow_mem.copy_range st.sm ~src ~dst len);
  ev.new_mem_stack <-
    Some
      (fun ~addr ~len ->
        Shadow_mem.make_undefined st.sm addr len;
        if st.origins then begin
          (* tag stack frames by the allocating code address, so the
             report names the function whose frame held the junk *)
          let site = [ st.caps.cur_eip () ] in
          set_origin_range st addr len
            (otag_for st ~descr:"a stack allocation" ~site)
        end);
  ev.die_mem_stack <- Some (fun ~addr ~len -> Shadow_mem.make_noaccess st.sm addr len);
  ev.pre_mem_read <-
    Some
      (fun ~syscall ~addr ~len ->
        (match Shadow_mem.find_unaddressable st.sm addr len with
        | Some bad ->
            report st ~kind:"SyscallParam"
              ~msg:
                (Printf.sprintf
                   "Syscall param %s points to unaddressable byte(s)\n==err==  %s"
                   syscall (describe_addr st bad))
        | None -> ());
        match Shadow_mem.find_undefined st.sm addr len with
        | Some _ ->
            report st ~kind:"SyscallParam"
              ~msg:
                (Printf.sprintf
                   "Syscall param %s points to uninitialised byte(s)" syscall)
        | None -> ());
  ev.pre_mem_read_asciiz <-
    Some
      (fun ~syscall ~addr ->
        (* walk to the NUL, checking as we go *)
        let rec go a n =
          if n > 4096 then ()
          else if not (Shadow_mem.get_abit st.sm a) then
            report st ~kind:"SyscallParam"
              ~msg:
                (Printf.sprintf
                   "Syscall param %s points to unaddressable byte(s)\n==err==  %s"
                   syscall (describe_addr st a))
          else if Shadow_mem.get_vbyte st.sm a <> 0 then
            report st ~kind:"SyscallParam"
              ~msg:
                (Printf.sprintf
                   "Syscall param %s points to uninitialised byte(s)" syscall)
          else
            match Aspace.read st.caps.mem a 1 with
            | 0L -> ()
            | _ -> go (Int64.add a 1L) (n + 1)
            | exception Aspace.Fault _ -> ()
        in
        go addr 0);
  ev.pre_mem_write <-
    Some
      (fun ~syscall ~addr ~len ->
        match Shadow_mem.find_unaddressable st.sm addr len with
        | Some bad ->
            report st ~kind:"SyscallParam"
              ~msg:
                (Printf.sprintf
                   "Syscall param %s points to unaddressable byte(s)\n==err==  %s"
                   syscall (describe_addr st bad))
        | None -> ());
  ev.post_mem_write <-
    Some (fun ~addr ~len -> Shadow_mem.make_defined st.sm addr len);
  ev.pre_reg_read <-
    Some
      (fun ~syscall ~off ~size ->
        let shadow = st.caps.read_guest (GA.shadow_of off) size in
        if shadow <> 0L then
          report st ~kind:"SyscallParam"
            ~msg:
              (Printf.sprintf
                 "Syscall param %s contains uninitialised byte(s)" syscall));
  ev.post_reg_write <-
    Some (fun ~syscall:_ ~off ~size -> st.caps.write_guest (GA.shadow_of off) size 0L)

(* ------------------------------------------------------------------ *)
(* Client requests                                                      *)
(* ------------------------------------------------------------------ *)

let client_request (st : state) ~(code : int64) ~(args : int64 array) :
    int64 option =
  let addr = args.(0) and len = Int64.to_int args.(1) in
  if code = Vg_core.Clientreq.mem_make_noaccess then begin
    Shadow_mem.make_noaccess st.sm addr len;
    Some 0L
  end
  else if code = Vg_core.Clientreq.mem_make_undefined then begin
    Shadow_mem.make_undefined st.sm addr len;
    Some 0L
  end
  else if code = Vg_core.Clientreq.mem_make_defined then begin
    Shadow_mem.make_defined st.sm addr len;
    Some 0L
  end
  else if code = Vg_core.Clientreq.mem_check_addressable then
    match Shadow_mem.find_unaddressable st.sm addr len with
    | Some bad -> Some bad
    | None -> Some 0L
  else if code = Vg_core.Clientreq.mem_check_defined then
    match Shadow_mem.find_undefined st.sm addr len with
    | Some bad -> Some bad
    | None -> Some 0L
  else if code = Vg_core.Clientreq.mem_count_errors then
    Some (Int64.of_int (Vg_core.Errors.total_errors st.caps.errors))
  else if code = Vg_core.Clientreq.mem_do_leak_check then begin
    let blocks, _bytes = leak_check st in
    Some (Int64.of_int blocks)
  end
  else None

(* ------------------------------------------------------------------ *)
(* The tool                                                             *)
(* ------------------------------------------------------------------ *)

(** Per-run Memcheck statistics, for tests and benches. *)
type mc_stats = {
  mc_allocs : int;
  mc_frees : int;
  mc_bytes : int64;
  mc_live_blocks : int;
}

let stats_of (st : state) : mc_stats =
  {
    mc_allocs = st.n_allocs;
    mc_frees = st.n_frees;
    mc_bytes = st.bytes_allocated;
    mc_live_blocks = Hashtbl.length st.live;
  }

(** Memcheck, with origin tracking if [track_origins], handing each
    session's state to [on_state] at start-up. *)
let with_state ~(track_origins : bool) (on_state : state -> unit) :
    Vg_core.Tool.t =
  {
    name = (if track_origins then "memcheck-origins" else "memcheck");
    description =
      (if track_origins then
         "a memory error detector (with --track-origins)"
       else "a memory error detector (definedness + addressability)");
    shadow_ranges =
      ((GA.shadow_offset, GA.guest_state_used)
      :: (if track_origins then [ (origin_of 0, GA.guest_state_used) ] else []));
    create =
      (fun caps ->
        let dummy =
          { c_name = ""; c_id = -1; c_cost = 0; c_fx_reads = []; c_fx_writes = [] }
        in
        let st =
          {
            caps;
            sm = Shadow_mem.create ();
            live = Hashtbl.create 64;
            freed_ring = [];
            n_allocs = 0;
            n_frees = 0;
            bytes_allocated = 0L;
            h_loadv = Array.make 4 dummy;
            h_storev = Array.make 4 dummy;
            h_check_fail = Array.make 6 dummy;
            origins = track_origins;
            otag_info = Hashtbl.create 64;
            next_otag = 1;
            otag_cache = Hashtbl.create 64;
            word_origin = Hashtbl.create 1024;
            h_load_origin = dummy;
            h_store_origin = dummy;
            h_check_fail_o = Array.make 6 dummy;
          }
        in
        register_helpers st;
        install_events st;
        install_heap_replacement st;
        on_state st;
        {
          instrument = (fun b -> instrument st b);
          fini =
            (fun ~exit_code:_ ->
              let blocks, bytes = leak_check st in
              if blocks > 0 then
                caps.output
                  (Printf.sprintf
                     "==err== LEAK SUMMARY: definitely lost: %Ld bytes in %d blocks\n"
                     bytes blocks);
              caps.output (Vg_core.Errors.summary caps.errors));
          client_request = (fun ~code ~args -> client_request st ~code ~args);
        });
  }

(** Plain Memcheck. *)
let tool : Vg_core.Tool.t = with_state ~track_origins:false ignore

(** Memcheck with origin tracking — the --track-origins extension: error
    reports say which allocation created the uninitialised value.  Costs
    roughly another shadow plane of instrumentation, as in the real
    thing. *)
let tool_origins : Vg_core.Tool.t = with_state ~track_origins:true ignore
