(** Redux: a dynamic dataflow tracer after Nethercote & Mycroft (paper
    §1.2, reference [17]): "creates a dynamic dataflow graph, a
    visualisation of a program's entire computation; from the graph one
    can see all the prior operations that contributed to each value's
    creation".

    The shadow of every value is a node id in a growing DAG; every IR
    operation allocates a node whose edges point at the operand nodes.
    At exit the tool emits the sub-DAG reaching the program's exit code,
    in Graphviz DOT.  Every operation becomes a helper call, so Redux is
    spectacularly slow — "not practical for anything more than toy
    programs", which this reproduction faithfully reproduces. *)

open Vex_ir.Ir
module GA = Guest.Arch

type node = { n_op : string; n_args : int list; n_const : int64 option }

type state = {
  caps : Vg_core.Tool.caps;
  nodes : node Support.Vec.t;
  const_cache : (int64, int) Hashtbl.t;
  word_shadow : (int64, int) Hashtbl.t;  (** memory addr -> node id *)
  mutable h_mk : callee;  (** (opcode-tag, a, b) -> node id *)
  mutable h_load : callee;
  mutable h_store : callee;
  mutable truncated : bool;
  max_nodes : int;
}

(* operation tags passed to the mk-node helper (kept human-readable) *)
let op_names =
  [| "add"; "sub"; "mul"; "div"; "and"; "or"; "xor"; "shift"; "cmp"; "neg";
     "not"; "widen"; "narrow"; "fp"; "vec"; "ccall"; "ite"; "other" |]

let mk_node (st : state) op args const =
  if Support.Vec.length st.nodes >= st.max_nodes then begin
    st.truncated <- true;
    0
  end
  else begin
    Support.Vec.push st.nodes { n_op = op; n_args = args; n_const = const };
    Support.Vec.length st.nodes - 1
  end

let const_node (st : state) (v : int64) : int =
  match Hashtbl.find_opt st.const_cache v with
  | Some id -> id
  | None ->
      let id = mk_node st "const" [] (Some v) in
      Hashtbl.replace st.const_cache v id;
      id

let register_helpers (st : state) =
  let reg = st.caps.register_helper in
  st.h_mk <-
    reg ~name:"rx_mk_node" ~cost:12 ~nargs:3 (fun args ->
        let tag = Int64.to_int args.(0) in
        let op =
          if tag >= 0 && tag < Array.length op_names then op_names.(tag)
          else "other"
        in
        Int64.of_int
          (mk_node st op [ Int64.to_int args.(1); Int64.to_int args.(2) ] None));
  st.h_load <-
    reg ~name:"rx_load" ~cost:8 ~nargs:1 (fun args ->
        let a = Int64.logand args.(0) (Int64.lognot 3L) in
        match Hashtbl.find_opt st.word_shadow a with
        | Some id -> Int64.of_int id
        | None -> Int64.of_int (mk_node st "mem-in" [] None));
  st.h_store <-
    reg ~name:"rx_store" ~cost:8 ~nargs:2 (fun args ->
        Hashtbl.replace st.word_shadow
          (Int64.logand args.(0) (Int64.lognot 3L))
          (Int64.to_int args.(1));
        0L)

let tag_of_binop = function
  | Add32 | Add64 -> 0
  | Sub32 | Sub64 -> 1
  | Mul32 | Mul64 | MulHiS32 -> 2
  | DivS32 | DivU32 -> 3
  | And32 | And64 | AndV128 -> 4
  | Or32 | Or64 | OrV128 -> 5
  | Xor32 | Xor64 | XorV128 -> 6
  | Shl32 | Shr32 | Sar32 | Shl64 | Shr64 | Sar64 -> 7
  | CmpEQ32 | CmpNE32 | CmpLT32S | CmpLE32S | CmpLT32U | CmpLE32U | CmpEQ64
  | CmpNE64 | CmpEQF64 | CmpLTF64 | CmpLEF64 ->
      8
  | AddF64 | SubF64 | MulF64 | DivF64 | MinF64 | MaxF64 -> 13
  | _ -> 17

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                      *)
(* ------------------------------------------------------------------ *)

type ictx = { st : state; nb : block; v : Shadow_ir.plane }

let emit c s = add_stmt c.nb s
let assign c e = Shadow_ir.assign c.nb e

(* every shadow is an I64 node id, regardless of value type: Redux
   tracks provenance, not representation; node 0 is "unknown origin" *)
let node_ty (_ : ty) = I64
let no_node (_ : ty) = Const (CI64 0L)

(* a constant's shadow is its interned node *)
let const_atom st v = Const (CI64 (Int64.of_int (const_node st v)))

let shadow_atom c = function
  | Const (CI32 v | CI64 v) -> const_atom c.st v
  | Const (CI8 v | CI16 v) -> const_atom c.st (Int64.of_int v)
  | Const (CI1 b) -> const_atom c.st (if b then 1L else 0L)
  | Const (CF64 f) -> const_atom c.st (Int64.bits_of_float f)
  | Const (CV128 p) -> const_atom c.st (Int64.of_int p)
  | e -> Shadow_ir.atom c.v e

let call_mk c tag a b =
  let t = new_tmp c.nb I64 in
  emit c (dirty ~tmp:t c.st.h_mk [ Const (CI64 (Int64.of_int tag)); a; b ]);
  RdTmp t

let shadow_rhs c (e : expr) : expr =
  match e with
  | Const _ | RdTmp _ -> shadow_atom c e
  | Get (off, _) ->
      (* node ids are stored 32-bit in the shadow register file, so
         shadows of adjacent 4-byte registers do not overlap *)
      if off >= GA.shadow_offset then Const (CI64 0L)
      else Unop (U32to64, assign c (Get (GA.shadow_of off, I32)))
  | Load (_, addr) ->
      let t = new_tmp c.nb I64 in
      emit c (dirty ~tmp:t c.st.h_load [ addr ]);
      RdTmp t
  | Unop (op, a) -> (
      let va = assign c (shadow_atom c a) in
      match op with
      | Neg32 | Neg64 | NegF64 -> call_mk c 9 va va
      | Not32 | Not64 | Not1 | NotV128 -> call_mk c 10 va va
      | U8to32 | S8to32 | U16to32 | S16to32 | U32to64 | S32to64 | U1to32 ->
          call_mk c 11 va va
      | T64to32 | T32to8 | T32to16 | T32to1 -> call_mk c 12 va va
      | _ -> call_mk c 17 va va)
  | Binop (op, a, b) ->
      let va = assign c (shadow_atom c a) in
      let vb = assign c (shadow_atom c b) in
      call_mk c (tag_of_binop op) va vb
  | ITE (cond, t, f) ->
      let vc = assign c (shadow_atom c cond) in
      let vt = assign c (shadow_atom c t) in
      let vf = assign c (shadow_atom c f) in
      let sel = assign c (ITE (cond, vt, vf)) in
      call_mk c 16 vc sel
  | CCall (_, _, args) ->
      let vs = List.map (fun a -> assign c (shadow_atom c a)) args in
      List.fold_left
        (fun acc v -> call_mk c 15 (assign c acc) v)
        (Const (CI64 0L)) vs

let instrument (st : state) (b : block) : block =
  let nb = empty_like b in
  let v = Shadow_ir.plane nb ~ty:node_ty ~zero:no_node in
  let c = { st; nb; v } in
  Support.Vec.iter
    (fun s ->
      match s with
      | NoOp | IMark _ | AbiHint _ | Exit _ -> emit c s
      | WrTmp (t, e) ->
          Shadow_ir.define v t (shadow_rhs c e);
          emit c s
      | Put (off, e) ->
          if off < GA.shadow_offset then begin
            let sv = assign c (shadow_atom c e) in
            let sv32 = assign c (Unop (T64to32, sv)) in
            emit c (Put (GA.shadow_of off, sv32))
          end;
          emit c s
      | Store (addr, d) ->
          let sd = assign c (shadow_atom c d) in
          emit c (dirty st.h_store [ addr; sd ]);
          emit c s
      | Dirty d -> (
          emit c s;
          match d.d_tmp with
          | Some t -> Shadow_ir.define v t (Const (CI64 0L))
          | None -> ()))
    b.stmts;
  nb

(* ------------------------------------------------------------------ *)
(* DOT output                                                           *)
(* ------------------------------------------------------------------ *)

(** Render the sub-DAG reaching [root] (at most [limit] nodes). *)
let dot_of (st : state) (root : int) ?(limit = 200) () : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph redux {\n  rankdir=BT;\n";
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  Queue.add root queue;
  let count = ref 0 in
  while (not (Queue.is_empty queue)) && !count < limit do
    let id = Queue.take queue in
    if (not (Hashtbl.mem visited id)) && id < Support.Vec.length st.nodes then begin
      Hashtbl.replace visited id ();
      incr count;
      let n = Support.Vec.get st.nodes id in
      let label =
        match n.n_const with
        | Some v -> Printf.sprintf "0x%LX" v
        | None -> n.n_op
      in
      Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" id label);
      List.iter
        (fun a ->
          if a <> id then begin
            Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" a id);
            Queue.add a queue
          end)
        n.n_args
    end
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** Node id currently shadowing guest register [r]. *)
let reg_node (st : state) (r : int) : int =
  Int64.to_int (st.caps.read_guest (GA.shadow_of (GA.off_reg r)) 4)

(** Redux, handing each session's state to [on_state] at start-up. *)
let with_state (on_state : state -> unit) : Vg_core.Tool.t =
  {
    name = "redux";
    description = "a dynamic dataflow tracer (provenance DAG, Redux-style)";
    shadow_ranges = [ (GA.shadow_offset, GA.guest_state_used) ];
    create =
      (fun caps ->
        let dummy =
          { c_name = ""; c_id = -1; c_cost = 0; c_fx_reads = []; c_fx_writes = [] }
        in
        let st =
          {
            caps;
            nodes = Support.Vec.create { n_op = ""; n_args = []; n_const = None };
            const_cache = Hashtbl.create 64;
            word_shadow = Hashtbl.create 256;
            h_mk = dummy;
            h_load = dummy;
            h_store = dummy;
            truncated = false;
            max_nodes = 2_000_000;
          }
        in
        (* node 0: the distinguished "unknown origin" node *)
        ignore (mk_node st "start" [] None);
        register_helpers st;
        on_state st;
        {
          instrument = (fun b -> instrument st b);
          fini =
            (fun ~exit_code:_ ->
              (* the exit code travelled in r1 at the exit syscall *)
              let root = reg_node st 1 in
              caps.output
                (Printf.sprintf
                   "==redux== %d dataflow nodes%s; provenance of the exit \
                    code:\n"
                   (Support.Vec.length st.nodes)
                   (if st.truncated then " (truncated)" else ""));
              caps.output (dot_of st root ~limit:64 ()));
          client_request = (fun ~code:_ ~args:_ -> None);
        });
  }

let tool = with_state ignore
