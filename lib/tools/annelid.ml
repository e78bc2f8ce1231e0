(** Annelid: a bounds checker in the style of Nethercote & Fitzhardinge's
    tool (paper §1.2, reference [16]): "tracks which word values are
    array pointers, and from this can detect bounds errors".

    Shadow value = a {e segment id}: zero for non-pointers, a unique tag
    for every pointer derived from a heap block's base.  Pointer
    arithmetic propagates the tag; a load or store through a tagged
    pointer checks the address against the segment's live range and
    reports out-of-range or use-after-free accesses.  (Like Annelid,
    accesses through untagged pointers — globals, stack — are not
    checked; that is the tool's published scope.) *)

open Vex_ir.Ir
module GA = Guest.Arch

type segment = {
  seg_id : int;
  seg_base : int64;
  seg_size : int;
  mutable seg_live : bool;
  seg_stack : int64 list;
}

type state = {
  caps : Vg_core.Tool.caps;
  segments : (int, segment) Hashtbl.t;  (** id -> segment *)
  by_base : (int64, int) Hashtbl.t;  (** payload base -> id *)
  word_shadow : (int64, int) Hashtbl.t;  (** aligned addr -> seg id *)
  mutable next_seg : int;
  mutable n_checks : int64;
  mutable h_load : callee;
  mutable h_store : callee;
  mutable h_check : callee;  (** (addr, segid, size) *)
}

let report st msg =
  ignore
    (Vg_core.Errors.record st.caps.errors ~kind:"BoundsError" ~msg
       ~stack:(st.caps.stack_trace ()))

let check_access (st : state) (addr : int64) (segid : int) (size : int) =
  st.n_checks <- Int64.add st.n_checks 1L;
  match Hashtbl.find_opt st.segments segid with
  | None -> ()
  | Some seg ->
      if not seg.seg_live then
        report st
          (Printf.sprintf
             "Access of size %d through a pointer into a freed block (seg %d, \
              base 0x%LX, %d bytes)"
             size segid seg.seg_base seg.seg_size)
      else if
        Int64.unsigned_compare addr seg.seg_base < 0
        || Int64.unsigned_compare
             (Int64.add addr (Int64.of_int size))
             (Int64.add seg.seg_base (Int64.of_int seg.seg_size))
           > 0
      then
        report st
          (Printf.sprintf
             "Out-of-bounds access of size %d at 0x%LX (block: base 0x%LX, %d \
              bytes)"
             size addr seg.seg_base seg.seg_size)

let register_helpers (st : state) =
  let fx = [ (GA.off_eip, 4); (GA.off_reg GA.reg_fp, 4) ] in
  let reg = st.caps.register_helper ~fx_reads:fx in
  st.h_load <-
    reg ~name:"an_load_shadow" ~cost:6 ~nargs:1 (fun args ->
        let addr = Int64.logand args.(0) (Int64.lognot 3L) in
        Int64.of_int (Option.value ~default:0 (Hashtbl.find_opt st.word_shadow addr)));
  st.h_store <-
    reg ~name:"an_store_shadow" ~cost:6 ~nargs:2 (fun args ->
        let addr = Int64.logand args.(0) (Int64.lognot 3L) in
        let v = Int64.to_int args.(1) in
        if v = 0 then Hashtbl.remove st.word_shadow addr
        else Hashtbl.replace st.word_shadow addr v;
        0L);
  st.h_check <-
    reg ~name:"an_check_access" ~cost:6 ~nargs:3 (fun args ->
        let segid = Int64.to_int args.(1) in
        if segid <> 0 then
          check_access st args.(0) segid (Int64.to_int args.(2));
        0L)

(* ------------------------------------------------------------------ *)
(* Instrumentation: shadow I32 values carry segment ids                 *)
(* ------------------------------------------------------------------ *)

type ictx = { st : state; nb : block; v : Shadow_ir.plane }

let emit c s = add_stmt c.nb s
let assign c e = Shadow_ir.assign c.nb e
let shadow_atom c e = Shadow_ir.atom c.v e

(* only I32 values can be pointers; everything else shadows as "not a
   pointer", a zero of the value's shadow type, so the IR stays
   well-typed *)
let not_a_pointer = Shadow_ir.zero_of

(* segment union: a pointer +/- an integer keeps its tag; two tagged
   pointers combined give the left tag (Annelid's heuristic) *)
let seg_merge c a b =
  (* if a <> 0 then a else b *)
  let nz = assign c (Unop (CmpNEZ32, a)) in
  assign c (ITE (nz, a, b))

let shadow_rhs c (e : expr) : expr =
  match e with
  | Const _ | RdTmp _ -> shadow_atom c e
  | Get (off, ty) -> Shadow_ir.get c.v off ty
  | Load (I32, addr) ->
      let t = new_tmp c.nb I64 in
      emit c (dirty ~tmp:t c.st.h_load [ addr ]);
      Unop (T64to32, RdTmp t)
  | Load (ty, _) -> not_a_pointer ty
  | Unop (op, a) -> (
      match op with
      | Not32 | Neg32 -> shadow_atom c a (* tag survives bit games *)
      | _ -> not_a_pointer (snd (unop_sig op)))
  | Binop ((Add32 | Sub32), a, b) ->
      let va = assign c (shadow_atom c a) in
      let vb = assign c (shadow_atom c b) in
      seg_merge c va vb
  | Binop (op, _, _) ->
      let _, _, rty = binop_sig op in
      not_a_pointer rty
  | ITE (cond, t, f) -> ITE (cond, shadow_atom c t, shadow_atom c f)
  | CCall (_, ty, _) -> not_a_pointer ty

let check_mem c (addr : expr) (size : int) =
  let seg = assign c (shadow_atom c addr) in
  emit c (dirty c.st.h_check [ addr; seg; i32 (Int64.of_int size) ])

let instrument (st : state) (b : block) : block =
  let nb = empty_like b in
  let v = Shadow_ir.plane nb ~ty:Shadow_ir.shadow_ty ~zero:not_a_pointer in
  let c = { st; nb; v } in
  Support.Vec.iter
    (fun s ->
      match s with
      | NoOp | IMark _ | AbiHint _ | Exit _ -> emit c s
      | WrTmp (t, e) ->
          (* loads: bounds-check the (possibly tagged) address first *)
          (match e with
          | Load (lty, addr) -> check_mem c addr (size_of_ty lty)
          | _ -> ());
          Shadow_ir.define v t (shadow_rhs c e);
          emit c s
      | Put (off, e) ->
          Shadow_ir.put v off e;
          emit c s
      | Store (addr, d) ->
          check_mem c addr (size_of_ty (type_of nb d));
          (if type_of nb d = I32 then
             let sd = assign c (shadow_atom c d) in
             let sd64 = assign c (Unop (U32to64, sd)) in
             emit c (dirty st.h_store [ addr; sd64 ]));
          emit c s
      | Dirty d -> (
          emit c s;
          match d.d_tmp with
          | Some t -> Shadow_ir.define v t (not_a_pointer (tmp_ty nb t))
          | None -> ()))
    b.stmts;
  nb

(* ------------------------------------------------------------------ *)
(* Heap tracking                                                        *)
(* ------------------------------------------------------------------ *)

let new_segment (st : state) (base : int64) (size : int) : segment =
  st.caps.charge_cycles (150 + (size / 16));
  let id = st.next_seg in
  st.next_seg <- id + 1;
  let seg =
    { seg_id = id; seg_base = base; seg_size = size; seg_live = true;
      seg_stack = st.caps.stack_trace () }
  in
  Hashtbl.replace st.segments id seg;
  Hashtbl.replace st.by_base base id;
  seg

let install_heap (st : state) =
  (* hand [base] to the client as the pointer of a new segment, tagged
     in the shadow register file; a base of 0 (the arena is full) is
     NULL, which no segment tags *)
  let new_block base size =
    let segid = if base = 0L then 0 else (new_segment st base size).seg_id in
    st.caps.write_guest (GA.shadow_of (GA.off_reg 0)) 4 (Int64.of_int segid);
    base
  in
  (* a dead segment's region goes back to the core allocator; its id
     stays in the table, so pointers into it are still reported *)
  let kill seg =
    if seg.seg_live then begin
      seg.seg_live <- false;
      st.caps.client_free seg.seg_base seg.seg_size
    end
  in
  let segment_at p =
    Option.bind (Hashtbl.find_opt st.by_base p) (Hashtbl.find_opt st.segments)
  in
  Replace_malloc.install st.caps
    ~malloc:(fun size ->
      let size = max 1 size in
      new_block (st.caps.client_alloc size) size)
    ~calloc:(fun size ->
      let size = max 1 size in
      let base = st.caps.client_alloc size in
      if base <> 0L then Replace_malloc.zero st.caps base size;
      new_block base size)
    ~free:(fun p -> Option.iter kill (segment_at p))
    ~realloc:(fun old size ->
      let size = max 1 size in
      let base = st.caps.client_alloc size in
      (match segment_at old with
      | Some seg when base <> 0L ->
          Replace_malloc.copy st.caps ~src:old ~dst:base (min seg.seg_size size);
          kill seg
      | _ -> ());
      new_block base size)

let tool : Vg_core.Tool.t =
  {
    name = "annelid";
    description = "a bounds checker (pointer segments, Annelid-style)";
    shadow_ranges = [ (GA.shadow_offset, GA.guest_state_used) ];
    create =
      (fun caps ->
        let dummy =
          { c_name = ""; c_id = -1; c_cost = 0; c_fx_reads = []; c_fx_writes = [] }
        in
        let st =
          {
            caps;
            segments = Hashtbl.create 64;
            by_base = Hashtbl.create 64;
            word_shadow = Hashtbl.create 256;
            next_seg = 1;
            n_checks = 0L;
            h_load = dummy;
            h_store = dummy;
            h_check = dummy;
          }
        in
        register_helpers st;
        install_heap st;
        {
          instrument = (fun b -> instrument st b);
          fini =
            (fun ~exit_code:_ ->
              caps.output
                (Printf.sprintf
                   "==annelid== %d segments tracked, %Ld pointer accesses \
                    checked\n"
                   (st.next_seg - 1) st.n_checks);
              caps.output (Vg_core.Errors.summary caps.errors));
          client_request = (fun ~code:_ ~args:_ -> None);
        });
  }
