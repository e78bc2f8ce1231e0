(** Taintgrind: a TaintCheck-style dynamic taint analysis (paper §1.2).

    Tracks which byte values are {e tainted} (from an untrusted source,
    or derived from tainted values) and detects dangerous uses: a
    tainted value reaching an indirect jump/call target or a store
    address is the classic control-flow-hijack signature TaintCheck
    detects.

    Like Memcheck it is a full shadow value tool — shadow registers in
    the ThreadState shadow block, shadow memory in a two-level map —
    but its transfer functions are simpler (taint is per-byte and
    propagation is plain union), which is why the paper's TaintCheck
    runs faster than Memcheck.  Taint enters via the [vg_taint_mem]
    client request (standing in for TaintCheck's socket interception). *)

open Vex_ir.Ir
module GA = Guest.Arch

type state = {
  caps : Vg_core.Tool.caps;
  sm : Shadow_mem.t;  (** vbyte <> 0 = tainted (A bits unused: all 1) *)
  mutable n_tainted_jumps : int;
  mutable n_sources : int;
  mutable h_load : callee array;
  mutable h_store : callee array;
  mutable h_sink : callee;
}

let report st msg =
  ignore
    (Vg_core.Errors.record st.caps.errors ~kind:"TaintedFlow" ~msg
       ~stack:(st.caps.stack_trace ()))

let register_helpers (st : state) =
  let reg = st.caps.register_helper in
  let mk_load size lg =
    st.h_load.(lg) <-
      reg
        ~name:(Printf.sprintf "tg_LOAD%d" (8 * size))
        ~cost:5 ~nargs:1
        (fun args -> snd (Shadow_mem.load st.sm args.(0) size))
  in
  mk_load 1 0;
  mk_load 2 1;
  mk_load 4 2;
  mk_load 8 3;
  let mk_store size lg =
    st.h_store.(lg) <-
      reg
        ~name:(Printf.sprintf "tg_STORE%d" (8 * size))
        ~cost:5 ~nargs:2
        (fun args ->
          ignore (Shadow_mem.store st.sm args.(0) size args.(1));
          0L)
  in
  mk_store 1 0;
  mk_store 2 1;
  mk_store 4 2;
  mk_store 8 3;
  st.h_sink <-
    reg ~name:"tg_tainted_jump" ~cost:10 ~nargs:1 (fun args ->
        st.n_tainted_jumps <- st.n_tainted_jumps + 1;
        report st
          (Printf.sprintf
             "Tainted value used as jump target (target 0x%LX)" args.(0));
        0L)

(* taint shadows a value bit for bit, F64 as I64 bits, like Memcheck *)
let shadow_ty = Shadow_ir.shadow_ty

type ictx = { st : state; nb : block; v : Shadow_ir.plane }

let emit c s = add_stmt c.nb s
let assign c e = Shadow_ir.assign c.nb e
let shadow_atom c e = Shadow_ir.atom c.v e

(* union of taint, widened/narrowed as needed; target type [ty].  Any
   pair not handled directly is routed through I64, for which every
   conversion exists — so the recursion always terminates. *)
let rec taint_cast c (ty : ty) (v : expr) : expr =
  let vty = type_of c.nb v in
  if vty = ty then v
  else
    match (vty, ty) with
    | I1, I32 -> assign c (Unop (U1to32, v))
    | I8, I32 -> assign c (Unop (U8to32, v))
    | I16, I32 -> assign c (Unop (U16to32, v))
    | I32, I64 -> assign c (Unop (U32to64, v))
    | I64, I32 -> assign c (Unop (T64to32, v))
    | I32, I8 -> assign c (Unop (T32to8, v))
    | I32, I16 -> assign c (Unop (T32to16, v))
    | I32, I1 -> assign c (Unop (CmpNEZ32, v))
    | I64, I1 -> assign c (Unop (CmpNEZ64, v))
    | I8, I1 -> assign c (Unop (CmpNEZ8, v))
    | F64, I64 -> v
    | I64, F64 -> v
    | V128, I64 ->
        let lo = assign c (Unop (V128to64, v)) in
        let hi = assign c (Unop (V128HIto64, v)) in
        assign c (Binop (Or64, lo, hi))
    | I64, V128 -> assign c (Binop (Cat64x2, v, v))
    (* to-I64 legs for the remaining sources *)
    | I1, I64 -> taint_cast c I64 (assign c (Unop (U1to32, v)))
    | I8, I64 -> taint_cast c I64 (assign c (Unop (U8to32, v)))
    | I16, I64 -> taint_cast c I64 (assign c (Unop (U16to32, v)))
    (* from-I64 legs *)
    | I64, I8 -> assign c (Unop (T32to8, assign c (Unop (T64to32, v))))
    | I64, I16 -> assign c (Unop (T32to16, assign c (Unop (T64to32, v))))
    | _, _ ->
        (* generic path: vty -> I64 -> ty, both legs direct *)
        let mid = taint_cast c I64 v in
        taint_cast c ty mid

let union c a b =
  match type_of c.nb a with
  | I1 -> assign c (ITE (a, Const (CI1 true), b))
  | I8 | I16 ->
      let a' = taint_cast c I32 a and b' = taint_cast c I32 b in
      taint_cast c (type_of c.nb a) (assign c (Binop (Or32, a', b')))
  | I32 -> assign c (Binop (Or32, a, b))
  | I64 | F64 -> assign c (Binop (Or64, a, b))
  | V128 -> assign c (Binop (OrV128, a, b))

let shadow_rhs c (e : expr) : expr =
  match e with
  | Const _ | RdTmp _ -> shadow_atom c e
  | Get (off, ty) -> Shadow_ir.get c.v off ty
  | Load (ty, addr) -> Shadow_ir.load c.nb c.st.h_load ty addr
  | Unop (op, a) ->
      let va = shadow_atom c a in
      let _, rty = unop_sig op in
      taint_cast c (shadow_ty rty) va
  | Binop (op, a, b) ->
      let va = shadow_atom c a and vb = shadow_atom c b in
      let _, _, rty = binop_sig op in
      let va' = taint_cast c (shadow_ty rty) va in
      let vb' = taint_cast c (shadow_ty rty) vb in
      union c va' vb'
  | ITE (cond, t, f) -> ITE (cond, shadow_atom c t, shadow_atom c f)
  | CCall (_, ty, args) ->
      let parts = List.map (fun a -> taint_cast c I64 (shadow_atom c a)) args in
      let any =
        List.fold_left
          (fun acc p -> assign c (Binop (Or64, acc, p)))
          (Const (CI64 0L)) parts
      in
      (match ty with I32 -> Unop (T64to32, any) | _ -> any)

(* sink check: call tg_tainted_jump if shadow of target is nonzero *)
let check_sink c (target : expr) (shadow : expr) =
  let nz =
    match type_of c.nb shadow with
    | I32 -> assign c (Unop (CmpNEZ32, shadow))
    | I64 -> assign c (Unop (CmpNEZ64, shadow))
    | _ -> assign c (Unop (CmpNEZ32, taint_cast c I32 shadow))
  in
  emit c (dirty ~guard:nz c.st.h_sink [ target ])

let instrument (st : state) (b : block) : block =
  let nb = empty_like b in
  let v = Shadow_ir.plane nb ~ty:shadow_ty ~zero:Shadow_ir.zero_of in
  let c = { st; nb; v } in
  Support.Vec.iter
    (fun s ->
      match s with
      | NoOp | IMark _ | AbiHint _ | Exit _ -> emit c s
      | WrTmp (t, e) ->
          Shadow_ir.define v t (shadow_rhs c e);
          emit c s
      | Put (off, e) ->
          Shadow_ir.put v off e;
          emit c s
      | Store (addr, d) ->
          Shadow_ir.store nb st.h_store (type_of nb d) addr (shadow_atom c d);
          emit c s
      | Dirty d -> (
          emit c s;
          match d.d_tmp with
          | Some t -> Shadow_ir.define v t (Shadow_ir.zero_of (tmp_ty nb t))
          | None -> ()))
    b.stmts;
  (* sink: a computed (non-constant) jump target must be untainted *)
  (match b.next with
  | Const _ -> ()
  | next -> check_sink c next (shadow_atom c next));
  nb

let client_request (st : state) ~code ~(args : int64 array) : int64 option =
  let addr = args.(0) and len = Int64.to_int args.(1) in
  if code = Vg_core.Clientreq.taint_mark then begin
    st.n_sources <- st.n_sources + 1;
    Shadow_mem.set_range st.sm addr len ~a:true ~vbyte:0xFF;
    Some 0L
  end
  else if code = Vg_core.Clientreq.taint_clear then begin
    Shadow_mem.set_range st.sm addr len ~a:true ~vbyte:0x00;
    Some 0L
  end
  else if code = Vg_core.Clientreq.taint_check then
    match Shadow_mem.find_undefined st.sm addr len with
    | Some bad -> Some bad
    | None -> Some 0L
  else None

let tool : Vg_core.Tool.t =
  {
    name = "taintgrind";
    description = "a TaintCheck-style taint tracker";
    shadow_ranges = [ (GA.shadow_offset, GA.guest_state_used) ];
    create =
      (fun caps ->
        let dummy =
          { c_name = ""; c_id = -1; c_cost = 0; c_fx_reads = []; c_fx_writes = [] }
        in
        let st =
          {
            caps;
            sm = Shadow_mem.create ();
            n_tainted_jumps = 0;
            n_sources = 0;
            h_load = Array.make 4 dummy;
            h_store = Array.make 4 dummy;
            h_sink = dummy;
          }
        in
        register_helpers st;
        (* memory starts untainted and "addressable" (A bits unused) *)
        let ev = caps.events in
        ev.new_mem_startup <-
          Some (fun ~addr ~len ~defined:_ ~what:_ ->
              Shadow_mem.set_range st.sm addr len ~a:true ~vbyte:0);
        ev.new_mem_mmap <-
          Some (fun ~addr ~len -> Shadow_mem.set_range st.sm addr len ~a:true ~vbyte:0);
        ev.new_mem_brk <-
          Some (fun ~addr ~len -> Shadow_mem.set_range st.sm addr len ~a:true ~vbyte:0);
        ev.copy_mem_mremap <-
          Some (fun ~src ~dst ~len -> Shadow_mem.copy_range st.sm ~src ~dst len);
        {
          instrument = (fun b -> instrument st b);
          fini =
            (fun ~exit_code:_ ->
              caps.output
                (Printf.sprintf
                   "==taintgrind== taint sources: %d  tainted control transfers: %d\n"
                   st.n_sources st.n_tainted_jumps);
              caps.output (Vg_core.Errors.summary caps.errors));
          client_request = (fun ~code ~args -> client_request st ~code ~args);
        });
  }
