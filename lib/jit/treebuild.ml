(** Phase 5 — Tree building: flat IR -> tree IR.

    Expressions assigned to temporaries used exactly once are substituted
    into the use point and the assignment deleted, so the instruction
    selector sees whole trees to match against (paper §3.7 phase 5).  The
    resulting code may perform loads in a different order to the original
    code, but loads are never moved past stores; expressions reading
    guest state are never moved past writes of that state, and nothing is
    moved past a dirty call or a side exit. *)

open Vex_ir.Ir

(* What a pending (not yet emitted) definition's expression touches. *)
type effects = { reads_mem : bool; reads_state : (int * int) list }

let rec effects_of (b : block) (e : expr) : effects =
  match e with
  | RdTmp _ | Const _ -> { reads_mem = false; reads_state = [] }
  | Get (off, ty) -> { reads_mem = false; reads_state = [ (off, size_of_ty ty) ] }
  | Load (_, a) ->
      let ea = effects_of b a in
      { ea with reads_mem = true }
  | Unop (_, a) -> effects_of b a
  | Binop (_, x, y) ->
      let ex = effects_of b x and ey = effects_of b y in
      { reads_mem = ex.reads_mem || ey.reads_mem;
        reads_state = ex.reads_state @ ey.reads_state }
  | ITE (c, t, f) ->
      let l = List.map (effects_of b) [ c; t; f ] in
      { reads_mem = List.exists (fun e -> e.reads_mem) l;
        reads_state = List.concat_map (fun e -> e.reads_state) l }
  | CCall (_, _, args) ->
      let l = List.map (effects_of b) args in
      { reads_mem = List.exists (fun e -> e.reads_mem) l;
        reads_state = List.concat_map (fun e -> e.reads_state) l }

let overlaps (o1, s1) (o2, s2) = o1 < o2 + s2 && o2 < o1 + s1

(** Count uses of each temporary (in statements and [next]). *)
let count_uses (b : block) : int array =
  let uses = Array.make (Support.Vec.length b.tyenv) 0 in
  let rec go = function
    | RdTmp t -> uses.(t) <- uses.(t) + 1
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
  Support.Vec.iter
    (fun s ->
      match s with
      | Put (_, e) | WrTmp (_, e) | AbiHint (e, _) -> go e
      | Store (a, d) ->
          go a;
          go d
      | Exit (g, _, _) -> go g
      | Dirty d ->
          go d.d_guard;
          List.iter go d.d_args;
          (match d.d_mfx with
          | Mfx_none -> ()
          | Mfx_read (e, _) | Mfx_write (e, _) -> go e)
      | NoOp | IMark _ -> ())
    b.stmts;
  go b.next;
  uses

let build (b : block) : block =
  let uses = count_uses b in
  let nb = empty_like b in
  (* pending single-use definitions, oldest first *)
  let pending : (tmp * expr * effects) list ref = ref [] in
  let flush_if cond =
    let emit, keep = List.partition (fun (_, _, fx) -> cond fx) !pending in
    List.iter (fun (t, e, _) -> add_stmt nb (WrTmp (t, e))) emit;
    pending := keep
  in
  let flush_all () = flush_if (fun _ -> true) in
  (* substitute pending defs into e (removing them from pending) *)
  let rec subst (e : expr) : expr =
    match e with
    | RdTmp t -> (
        match List.find_opt (fun (t', _, _) -> t' = t) !pending with
        | Some (_, def, _) ->
            pending := List.filter (fun (t', _, _) -> t' <> t) !pending;
            def
        | None -> e)
    | Get _ | Const _ -> e
    | Load (ty, a) -> Load (ty, subst a)
    | Unop (op, a) -> Unop (op, subst a)
    | Binop (op, x, y) ->
        (* substitute right-to-left so that evaluation order (left first)
           keeps earlier defs earlier *)
        let y' = subst y in
        let x' = subst x in
        Binop (op, x', y')
    | ITE (c, t, f) ->
        let f' = subst f in
        let t' = subst t in
        let c' = subst c in
        ITE (c', t', f')
    | CCall (callee, ty, args) ->
        let args' = List.rev_map subst (List.rev args) in
        CCall (callee, ty, args')
  in
  Support.Vec.iter
    (fun s ->
      match s with
      | NoOp -> ()
      | IMark _ -> add_stmt nb s
      | WrTmp (t, e) ->
          let e' = subst e in
          if uses.(t) = 1 then
            pending := !pending @ [ (t, e', effects_of nb e') ]
          else add_stmt nb (WrTmp (t, e'))
      | Put (off, e) ->
          let e' = subst e in
          (* defs reading this state range must be emitted first *)
          flush_if (fun fx ->
              List.exists (fun r -> overlaps r (off, size_of_ty (type_of nb e'))) fx.reads_state);
          add_stmt nb (Put (off, e'))
      | Store (a, d) ->
          let d' = subst d in
          let a' = subst a in
          (* loads never move past stores *)
          flush_if (fun fx -> fx.reads_mem);
          add_stmt nb (Store (a', d'))
      | AbiHint (e, l) -> add_stmt nb (AbiHint (subst e, l))
      | Exit (g, jk, dest) ->
          let g' = subst g in
          flush_all ();
          add_stmt nb (Exit (g', jk, dest))
      | Dirty d ->
          let args' = List.rev_map subst (List.rev d.d_args) in
          let guard' = subst d.d_guard in
          flush_all ();
          add_stmt nb
            (Dirty
               {
                 d with
                 d_guard = guard';
                 d_args = args';
                 d_mfx =
                   (match d.d_mfx with
                   | Mfx_none -> Mfx_none
                   | Mfx_read (e, n) -> Mfx_read (subst e, n)
                   | Mfx_write (e, n) -> Mfx_write (subst e, n));
               }))
    b.stmts;
  nb.next <- subst b.next;
  (* anything left pending is referenced only by emitted statements that
     already consumed it — or genuinely unused; drop unused defs *)
  pending := [];
  nb
