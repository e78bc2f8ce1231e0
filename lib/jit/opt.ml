(** Phases 2 and 4 — IR optimisation.

    Phase 2 ({!opt1}) runs after disassembly and before instrumentation:
    it flattens the tree IR and performs redundant-GET/PUT elimination,
    copy and constant propagation, constant folding, common
    sub-expression elimination and dead-code removal (paper §3.7 phase 2).
    The program-counter PUT emitted for every instruction is removed only
    when no statement that could raise a memory exception (or a dirty
    call that declares it reads the PC) intervenes before the next PC
    write — the precision rule the paper illustrates with statement 5 of
    Figure 1.

    Phase 4 ({!opt2}) runs after instrumentation: constant folding and
    dead code removal only.  "This optimisation makes life easier for
    tools by allowing them to be somewhat simple-minded, knowing that the
    code will be subsequently improved" (§3.7 phase 4 — Figure 2's 48
    statements reduce to 18 here). *)

open Vex_ir.Ir
module GA = Guest.Arch

(* ------------------------------------------------------------------ *)
(* Stages                                                               *)
(* ------------------------------------------------------------------ *)

(* Each forward pass is a stage: it takes a block's statements in order,
   keeping its own state, and hands what it makes of each one to the
   stage after it, then the block's successor expression.  A pass
   decides a statement from the statements before it alone, so stages
   run in one walk make the block the passes would make one after
   another, without a block between them.  The stages of a walk share
   the output block, whose type environment is where flattening adds
   temporaries. *)
type stage = { stmt : stmt -> unit; next : expr -> unit }

(* Run [stages], first first, over [b] into a fresh block. *)
let walk (stages : (block -> stage -> stage) list) (b : block) : block =
  let nb = empty_like b in
  let sink = { stmt = add_stmt nb; next = (fun e -> nb.next <- e) } in
  let first = List.fold_right (fun stage down -> stage nb down) stages sink in
  Support.Vec.iter first.stmt b.stmts;
  first.next b.next;
  nb

(* A substitution for temporaries.  It grows when an earlier stage of
   the walk has made temporaries since it was created; [unset] marks a
   temporary it does not replace. *)
type subst = { mutable map : expr array }

let unset = RdTmp (-1)
let subst_create (b : block) = { map = Array.make (Support.Vec.length b.tyenv) unset }

let subst_add m t e =
  let n = Array.length m.map in
  if t >= n then begin
    let a = Array.make (max (t + 1) (2 * n)) unset in
    Array.blit m.map 0 a 0 n;
    m.map <- a
  end;
  m.map.(t) <- e

let subst_atom m = function
  | RdTmp t as e when t < Array.length m.map ->
      let a = m.map.(t) in
      if a == unset then e else a
  | e -> e

(* The substitution of atoms [f] (pure) applied to an expression's
   operands, and to a statement's other than a [WrTmp]'s right-hand
   side.  What [f] leaves unchanged is returned itself, not rebuilt, so
   a stage allocates only what it changes. *)
let map_operands f e =
  match e with
  | Get _ | RdTmp _ | Const _ -> e
  | Load (ty, a) ->
      let a' = f a in
      if a' == a then e else Load (ty, a')
  | Unop (op, a) ->
      let a' = f a in
      if a' == a then e else Unop (op, a')
  | Binop (op, x, y) ->
      let x' = f x and y' = f y in
      if x' == x && y' == y then e else Binop (op, x', y')
  | ITE (c, x, y) ->
      let c' = f c and x' = f x and y' = f y in
      if c' == c && x' == x && y' == y then e else ITE (c', x', y')
  | CCall (callee, ty, args) -> CCall (callee, ty, List.map f args)

let map_stmt_operands f s =
  match s with
  | NoOp | IMark _ | WrTmp _ -> s
  | AbiHint (e, l) ->
      let e' = f e in
      if e' == e then s else AbiHint (e', l)
  | Put (off, e) ->
      let e' = f e in
      if e' == e then s else Put (off, e')
  | Store (a, d) ->
      let a' = f a and d' = f d in
      if a' == a && d' == d then s else Store (a', d')
  | Exit (g, jk, dest) ->
      let g' = f g in
      if g' == g then s else Exit (g', jk, dest)
  | Dirty d ->
      Dirty
        {
          d with
          d_guard = f d.d_guard;
          d_args = List.map f d.d_args;
          d_mfx =
            (match d.d_mfx with
            | Mfx_none -> Mfx_none
            | Mfx_read (e, n) -> Mfx_read (f e, n)
            | Mfx_write (e, n) -> Mfx_write (f e, n));
        }

(* ------------------------------------------------------------------ *)
(* Flattening: tree IR -> flat IR                                      *)
(* ------------------------------------------------------------------ *)

let is_atom = function RdTmp _ | Const _ -> true | _ -> false

(* [e] with every operand an atom; the operands' own statements go to
   [out] first *)
let rec flatten_expr (b : block) (out : stmt -> unit) (e : expr) : expr =
  match e with
  | Get _ | RdTmp _ | Const _ -> e
  | Load (ty, a) -> Load (ty, flatten_atom b out a)
  | Unop (op, a) -> Unop (op, flatten_atom b out a)
  | Binop (op, x, y) ->
      let x = flatten_atom b out x in
      let y = flatten_atom b out y in
      Binop (op, x, y)
  | ITE (c, t, f) ->
      let c = flatten_atom b out c in
      let t = flatten_atom b out t in
      let f = flatten_atom b out f in
      ITE (c, t, f)
  | CCall (callee, ty, args) -> CCall (callee, ty, List.map (flatten_atom b out) args)

(* [e] as an atom, bound to a fresh temporary if it is not one *)
and flatten_atom b out e =
  let e' = flatten_expr b out e in
  if is_atom e' then e'
  else begin
    let t = new_tmp b (type_of b e') in
    out (WrTmp (t, e'));
    RdTmp t
  end

let flatten_stage (nb : block) (down : stage) : stage =
  let out = down.stmt in
  let atom = flatten_atom nb out in
  let stmt = function
    | (NoOp | IMark _) as s -> out s
    | AbiHint (e, l) -> out (AbiHint (atom e, l))
    | Put (off, e) -> out (Put (off, atom e))
    | WrTmp (t, e) -> out (WrTmp (t, flatten_expr nb out e))
    | Store (a, d) ->
        let a = atom a in
        let d = atom d in
        out (Store (a, d))
    | Dirty d ->
        let guard = atom d.d_guard in
        let args = List.map atom d.d_args in
        let mfx =
          match d.d_mfx with
          | Mfx_none -> Mfx_none
          | Mfx_read (e, n) -> Mfx_read (atom e, n)
          | Mfx_write (e, n) -> Mfx_write (atom e, n)
        in
        out (Dirty { d with d_guard = guard; d_args = args; d_mfx = mfx })
    | Exit (g, jk, dest) ->
        let g' = flatten_expr nb out g in
        let g' =
          if is_atom g' then g'
          else begin
            let t = new_tmp nb I1 in
            out (WrTmp (t, g'));
            RdTmp t
          end
        in
        out (Exit (g', jk, dest))
  in
  { stmt; next = (fun e -> down.next (atom e)) }

let flatten (b : block) : block = walk [ flatten_stage ] b

(* ------------------------------------------------------------------ *)
(* Copy/constant propagation and folding (flat IR)                     *)
(* ------------------------------------------------------------------ *)

(* Fold a pure operator over constant atoms using the reference
   evaluator's semantics; returns None if not foldable (e.g. division by
   zero must trap at run time, not at JIT time). *)
let fold_op (b : block) (e : expr) : expr option =
  let const_of_value ty (v : Vex_ir.Eval.value) : const option =
    match (ty, v) with
    | I1, VI x -> Some (CI1 (x <> 0L))
    | I8, VI x -> Some (CI8 (Int64.to_int x land 0xFF))
    | I16, VI x -> Some (CI16 (Int64.to_int x land 0xFFFF))
    | I32, VI x -> Some (CI32 (Support.Bits.trunc32 x))
    | I64, VI x -> Some (CI64 x)
    | F64, VF f -> Some (CF64 f)
    | _ -> None (* V128 constants are pattern-limited; don't fold *)
  in
  match e with
  | Unop (op, Const c) -> (
      try
        let v = Vex_ir.Eval.eval_unop op (Vex_ir.Eval.const_value c) in
        Option.map (fun c -> Const c) (const_of_value (type_of b e) v)
      with _ -> None)
  | Binop (op, Const x, Const y) -> (
      try
        let v =
          Vex_ir.Eval.eval_binop op (Vex_ir.Eval.const_value x)
            (Vex_ir.Eval.const_value y)
        in
        Option.map (fun c -> Const c) (const_of_value (type_of b e) v)
      with _ -> None)
  | ITE (Const (CI1 true), t, _) -> Some t
  | ITE (Const (CI1 false), _, f) -> Some f
  | ITE (_, t, f) when t = f -> Some t
  (* algebraic identities on atoms *)
  | Binop (Add32, x, Const (CI32 0L)) | Binop (Add32, Const (CI32 0L), x) ->
      Some x
  | Binop (Sub32, x, Const (CI32 0L)) -> Some x
  | Binop ((Or32 | Xor32), x, Const (CI32 0L))
  | Binop ((Or32 | Xor32), Const (CI32 0L), x) ->
      Some x
  | Binop (And32, _, (Const (CI32 0L) as z))
  | Binop (And32, (Const (CI32 0L) as z), _) ->
      Some z
  | Binop (And32, x, Const (CI32 0xFFFFFFFFL))
  | Binop (And32, Const (CI32 0xFFFFFFFFL), x) ->
      Some x
  | Binop (Or32, x, y) when x = y -> Some x
  | Binop (And32, x, y) when x = y -> Some x
  (* self-cancelling: x - x and x ^ x are zero for any x (pure atoms) *)
  | Binop (Sub32, x, y) when x = y -> Some (Const (CI32 0L))
  | Binop (Xor32, x, y) when x = y -> Some (Const (CI32 0L))
  | Binop (Xor64, x, y) when x = y -> Some (Const (CI64 0L))
  | Binop (Sub64, x, y) when x = y -> Some (Const (CI64 0L))
  | Binop ((Shl32 | Shr32 | Sar32), x, Const (CI8 0)) -> Some x
  | Binop (Mul32, x, Const (CI32 1L)) | Binop (Mul32, Const (CI32 1L), x) ->
      Some x
  | Binop ((Add64 | Or64 | Xor64), x, Const (CI64 0L))
  | Binop ((Add64 | Or64 | Xor64), Const (CI64 0L), x) ->
      Some x
  | Binop (And64, x, y) when x = y -> Some x
  | Binop (Or64, x, y) when x = y -> Some x
  | Unop (U1to32, Unop (T32to1, _)) -> None (* not equivalent in general *)
  | _ -> None

(* Copy/const propagation + folding: a pure copy is recorded and
   dropped, and later uses of its temporary read the copied atom. *)
let constprop_stage (nb : block) (down : stage) : stage =
  let env = subst_create nb in
  let atom = subst_atom env in
  let rhs (e : expr) : expr =
    let e = match e with RdTmp _ -> atom e | e -> map_operands atom e in
    match fold_op nb e with Some e' -> e' | None -> e
  in
  let stmt s =
    match s with
    | NoOp -> ()
    | WrTmp (t, e) -> (
        match rhs e with
        | (Const _ | RdTmp _) as e' -> subst_add env t e'
        | e' -> down.stmt (if e' == e then s else WrTmp (t, e')))
    | Exit (g, _, _) -> (
        match atom g with
        | Const (CI1 false) -> () (* never taken *)
        | _ -> down.stmt (map_stmt_operands atom s))
    | s -> down.stmt (map_stmt_operands atom s)
  in
  { stmt; next = (fun e -> down.next (atom e)) }

(* ------------------------------------------------------------------ *)
(* Redundant GET elimination and PUT shortcutting (flat IR)            *)
(* ------------------------------------------------------------------ *)

(* Track known guest-state contents as (offset, ty, atom). *)
let getput_stage (nb : block) (down : stage) : stage =
  let known : (int * ty * expr) list ref = ref [] in
  let overlaps off1 sz1 off2 sz2 = off1 < off2 + sz2 && off2 < off1 + sz1 in
  let invalidate off sz =
    known :=
      List.filter (fun (o, ty, _) -> not (overlaps o (size_of_ty ty) off sz)) !known
  in
  let rewrite_get (e : expr) : expr =
    match e with
    | Get (off, ty) -> (
        match List.find_opt (fun (o, t, _) -> o = off && t = ty) !known with
        | Some (_, _, atom) -> atom
        | None -> e)
    | e -> e
  in
  let stmt s =
    match s with
    | NoOp | IMark _ | AbiHint _ | Exit _ | Store _ -> down.stmt s
    | WrTmp (t, e) -> (
        let e' = rewrite_get e in
        down.stmt (if e' == e then s else WrTmp (t, e'));
        (* a GET that survives records the state contents *)
        match e' with
        | Get (off, ty) -> known := (off, ty, RdTmp t) :: !known
        | _ -> ())
    | Put (off, atom) ->
        let sz = size_of_ty (type_of nb atom) in
        (* put of the very value already known to be there: drop *)
        let same =
          List.exists
            (fun (o, ty, a) -> o = off && size_of_ty ty = sz && a = atom)
            !known
        in
        if not same then begin
          invalidate off sz;
          known := (off, type_of nb atom, atom) :: !known;
          down.stmt s
        end
    | Dirty d ->
        (* helper may write the guest state it declares; invalidate *)
        List.iter (fun (o, s) -> invalidate o s) d.d_callee.c_fx_writes;
        if d.d_callee.c_fx_writes = [] && d.d_callee.c_fx_reads = [] then
          (* unannotated helper: be conservative *)
          known := [];
        down.stmt s
  in
  { stmt; next = (fun e -> down.next (rewrite_get e)) }

(* ------------------------------------------------------------------ *)
(* Common sub-expression elimination (flat IR)                         *)
(* ------------------------------------------------------------------ *)

let cse_stage (nb : block) (down : stage) : stage =
  let table : (expr, tmp) Hashtbl.t = Hashtbl.create 64 in
  let replace = subst_create nb in
  let atom = subst_atom replace in
  let stmt s =
    match s with
    | WrTmp (t, e) -> (
        let e' = map_operands atom e in
        (* pure value ops are CSE-able *)
        let pure = match e' with Unop _ | Binop _ | ITE _ -> true | _ -> false in
        match if pure then Hashtbl.find_opt table e' else None with
        | Some t0 -> subst_add replace t (RdTmp t0)
        | None ->
            if pure then Hashtbl.replace table e' t;
            down.stmt (if e' == e then s else WrTmp (t, e')))
    | s -> down.stmt (map_stmt_operands atom s)
  in
  { stmt; next = (fun e -> down.next (atom e)) }

(* ------------------------------------------------------------------ *)
(* Dead code removal (flat IR, backward)                               *)
(* ------------------------------------------------------------------ *)

(* Statements that can raise a guest-visible exception, for the
   precise-exceptions rule. *)
let can_fault = function
  | Store _ -> true
  | WrTmp (_, Load _) -> true
  | WrTmp (_, Binop ((DivS32 | DivU32), _, _)) -> true
  | Dirty _ -> true
  | _ -> false

(* Guest-state offsets requiring precise memory exceptions: a PUT to one
   of these may not be removed across a potentially-faulting statement
   (VEX's guest_state_requires_precise_mem_exns; for x86 it is
   ESP/EBP/EIP, for VG32 sp/fp/eip).  This is also what keeps every
   stack-pointer write visible to the core's stack-event pass. *)
let precise_offsets = [ GA.off_eip; GA.off_sp; GA.off_reg GA.reg_fp ]

(* Dead code removal in up to four rounds.  One round is a backward walk:
   a temporary is live if a kept statement after it reads it, and a PUT
   is dead if a PUT of at least its size to the same offset follows with
   no observation of the bytes in between.  Liveness is exact in one
   round (every use follows its definition); what a round cannot see is
   that a GET it removes no longer observes the state, so an earlier PUT
   may be dead in the next round.  A removed NoOp, PUT or other temporary
   changed nothing the walk tracks, so after a round that removed no
   [WrTmp (_, Get _)] the next round would keep everything: it is
   skipped, and the result is the one the rounds would have reached.
   [b] is consumed: the result shares its type environment. *)
let dead (b : block) : block =
  let stmts = Support.Vec.to_array b.stmts in
  let n = ref (Array.length stmts) in
  let live = Array.make (Support.Vec.length b.tyenv) false in
  let keep = Array.make !n false in
  let mark e =
    let rec go = function
      | RdTmp t -> live.(t) <- true
      | Get _ | Const _ -> ()
      | Load (_, a) -> go a
      | Unop (_, a) -> go a
      | Binop (_, x, y) ->
          go x;
          go y
      | ITE (c, t, f) ->
          go c;
          go t;
          go f
      | CCall (_, _, args) -> List.iter go args
    in
    go e
  in
  (* Walking backwards: the guest-state ranges [ow_off.(i), +ow_sz.(i))
     for i < !ow_n, at most one per offset, are fully overwritten by a
     kept PUT with no observation in between. *)
  let ow_off = Array.make (!n + 1) 0 and ow_sz = Array.make (!n + 1) 0 in
  let ow_n = ref 0 in
  let overwritten off =
    let rec go i = if i >= !ow_n then 0 else if ow_off.(i) = off then ow_sz.(i) else go (i + 1) in
    go 0
  in
  let overwrite off sz =
    let rec go i =
      if i >= !ow_n then begin
        ow_off.(i) <- off;
        ow_sz.(i) <- sz;
        ow_n := i + 1
      end
      else if ow_off.(i) = off then ow_sz.(i) <- sz
      else go (i + 1)
    in
    go 0
  in
  let observe_range off sz =
    let j = ref 0 in
    for i = 0 to !ow_n - 1 do
      let o = ow_off.(i) and s = ow_sz.(i) in
      if not (o < off + sz && off < o + s) then begin
        ow_off.(!j) <- o;
        ow_sz.(!j) <- s;
        incr j
      end
    done;
    ow_n := !j
  in
  let observe_precise () = List.iter (fun o -> observe_range o 4) precise_offsets in
  let round () =
    Array.fill live 0 (Array.length live) false;
    ow_n := 0;
    mark b.next;
    for i = !n - 1 downto 0 do
      let s = stmts.(i) in
      let needed =
        match s with
        | NoOp -> false
        | IMark _ | AbiHint _ | Store _ | Dirty _ | Exit _ -> true
        | Put (off, e) -> overwritten off < size_of_ty (type_of b e)
        | WrTmp (t, e) -> (
            live.(t)
            ||
            match e with
            | Binop ((DivS32 | DivU32), _, _) -> true (* may trap *)
            | Load _ -> true
                (* a load whose value is dead still faults on an unmapped
                   address: dropping it would swallow the client's SIGSEGV
                   (found by vgfuzz: ldw into a register that is
                   overwritten later in the same superblock) *)
            | _ -> false)
      in
      keep.(i) <- needed;
      (* update overwrite/observation state *)
      (match s with
      | Put (off, e) when needed -> overwrite off (size_of_ty (type_of b e))
      | Exit _ -> ow_n := 0
      | Dirty d ->
          (* helper observes what it declares it reads, plus everything if
             unannotated *)
          if d.d_callee.c_fx_reads = [] && d.d_callee.c_fx_writes = [] then
            ow_n := 0
          else begin
            List.iter (fun (o, s) -> observe_range o s) d.d_callee.c_fx_reads;
            (* and its declared writes stop earlier overwrite tracking *)
            List.iter (fun (o, s) -> observe_range o s) d.d_callee.c_fx_writes
          end;
          (* dirty calls can fault / report errors: precise state needed *)
          observe_precise ()
      | WrTmp (_, Get (off, ty)) -> observe_range off (size_of_ty ty)
      | _ -> ());
      if can_fault s then observe_precise ();
      (* mark uses *)
      if needed then
        match s with
        | Put (_, e) | WrTmp (_, e) | AbiHint (e, _) -> mark e
        | Store (a, d) ->
            mark a;
            mark d
        | Exit (g, _, _) -> mark g
        | Dirty d ->
            mark d.d_guard;
            List.iter mark d.d_args;
            (match d.d_mfx with
            | Mfx_none -> ()
            | Mfx_read (e, _) | Mfx_write (e, _) -> mark e)
        | _ -> ()
    done;
    (* keep the needed statements; report whether a GET went *)
    let kept = ref 0 and removed_get = ref false in
    for i = 0 to !n - 1 do
      if keep.(i) then begin
        stmts.(!kept) <- stmts.(i);
        incr kept
      end
      else match stmts.(i) with WrTmp (_, Get _) -> removed_get := true | _ -> ()
    done;
    let removed = !n - !kept in
    n := !kept;
    removed > 0 && !removed_get
  in
  let rounds = ref 1 in
  while round () && !rounds < 4 do
    incr rounds
  done;
  { tyenv = b.tyenv;
    stmts = Support.Vec.of_array_prefix NoOp stmts !n;
    next = b.next;
    jumpkind = b.jumpkind }

(* ------------------------------------------------------------------ *)
(* Simple intra-block loop unrolling (flat IR)                         *)
(* ------------------------------------------------------------------ *)

(* "and even simple loop unrolling for intra-block loops" (§3.7 phase 2):
   when a block's fall-through successor is its own first instruction (a
   self-loop, e.g. a one-block spin or copy loop), append a second copy
   of the body with freshly renamed temporaries.  Side exits are
   duplicated too, so semantics are exactly "two iterations per
   dispatch"; the win is halving the dispatcher transfers on hot tight
   loops. *)
let unroll_limit_stmts = 60

let first_imark (b : block) : int64 option =
  let r = ref None in
  Support.Vec.iter
    (fun s ->
      match (s, !r) with IMark (a, _), None -> r := Some a | _ -> ())
    b.stmts;
  !r

(* append a temp-renamed copy of [b]'s statements to [nb]; statements are
   transformed through [tweak] first (identity by default) *)
let append_renamed_copy (nb : block) (b : block) =
  let rename = Hashtbl.create 32 in
  let rn t =
    match Hashtbl.find_opt rename t with
    | Some t' -> t'
    | None ->
        let t' = new_tmp nb (tmp_ty b t) in
        Hashtbl.replace rename t t';
        t'
  in
  let rec rx (e : expr) : expr =
    match e with
    | RdTmp t -> RdTmp (rn t)
    | Get _ | Const _ -> e
    | Load (ty, a) -> Load (ty, rx a)
    | Unop (op, a) -> Unop (op, rx a)
    | Binop (op, x, y) -> Binop (op, rx x, rx y)
    | ITE (c, t, f) -> ITE (rx c, rx t, rx f)
    | CCall (callee, ty, args) -> CCall (callee, ty, List.map rx args)
  in
  Support.Vec.iter
    (fun s ->
      add_stmt nb
        (match s with
        | NoOp | IMark _ -> s
        | AbiHint (e, l) -> AbiHint (rx e, l)
        | Put (off, e) -> Put (off, rx e)
        | WrTmp (t, e) -> WrTmp (rn t, rx e)
        | Store (a, d) -> Store (rx a, rx d)
        | Dirty d ->
            Dirty
              {
                d with
                d_guard = rx d.d_guard;
                d_args = List.map rx d.d_args;
                d_tmp = Option.map rn d.d_tmp;
                d_mfx =
                  (match d.d_mfx with
                  | Mfx_none -> Mfx_none
                  | Mfx_read (e, n) -> Mfx_read (rx e, n)
                  | Mfx_write (e, n) -> Mfx_write (rx e, n));
              }
        | Exit (g, jk, dst) -> Exit (rx g, jk, dst)))
    b.stmts

(* the final statement, if any *)
let last_stmt (b : block) : stmt option =
  let n = Support.Vec.length b.stmts in
  if n = 0 then None else Some (Support.Vec.get b.stmts (n - 1))

let unroll_self_loop (b : block) : block =
  if Support.Vec.length b.stmts > unroll_limit_stmts then b
  else
    match first_imark b with
    | None -> b
    | Some start -> (
        match (b.next, b.jumpkind, last_stmt b) with
        (* shape 1: ...; goto start  (unconditional backedge) *)
        | Const (CI32 dest), Jk_boring, _ when dest = start ->
            let nb = empty_like b in
            Support.Vec.iter (add_stmt nb) b.stmts;
            append_renamed_copy nb b;
            nb
        (* shape 2: ...; if (g) goto start; goto after  (the common
           conditional-backedge loop, e.g. dec+jne) *)
        | Const (CI32 _after), Jk_boring, Some (Exit (g, Jk_boring, dest))
          when dest = start ->
            let nb = empty_like b in
            (* copy 1 with the final backedge inverted into a loop-exit *)
            let n = Support.Vec.length b.stmts in
            Support.Vec.iteri
              (fun i s -> if i < n - 1 then add_stmt nb s)
              b.stmts;
            let tng = new_tmp nb I1 in
            add_stmt nb (WrTmp (tng, Unop (Not1, g)));
            (match b.next with
            | Const (CI32 after) ->
                add_stmt nb (Exit (RdTmp tng, Jk_boring, after))
            | _ -> assert false);
            (* copy 2 verbatim (renamed), keeping its backedge *)
            append_renamed_copy nb b;
            nb
        | _ -> b)

(* The cheap passes again, over a body [unroll_self_loop] doubled. *)
let reopt_unrolled (b : block) : block =
  dead (walk [ constprop_stage; getput_stage; constprop_stage ] b)

(** Phase 2: tree IR -> optimised flat IR.  [unroll] enables the simple
    self-loop unrolling (on by default, as in VEX). *)
let opt1 ?(unroll = true) (b : block) : block =
  let b =
    dead
      (walk
         [ flatten_stage; constprop_stage; getput_stage; constprop_stage;
           cse_stage; constprop_stage ]
         b)
  in
  if unroll then
    let b' = unroll_self_loop b in
    if b' != b then reopt_unrolled b' else b
  else b

(** Phase 4: flat IR -> flat IR (folding + dead code only). *)
let opt2 (b : block) : block =
  dead (walk [ constprop_stage; cse_stage; constprop_stage ] b)
