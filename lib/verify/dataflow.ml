(** A small reusable dataflow engine over flat VEX IR.

    Superblocks are single-entry / multi-exit straight-line statement
    lists (side exits leave, they never rejoin), so intra-block dataflow
    needs no fixpoint: a forward analysis is a left fold over the
    statements and a backward analysis a right fold.  On top of the two
    folds this module provides the classic analyses the phase verifiers
    and the tool lints are built from:

    - temporary def/use extraction per statement,
    - liveness (backward): the set of temps live into each statement,
    - reaching definitions (forward): for SSA-by-construction blocks the
      unique defining statement index of each temp,
    - guest-state def/use summaries: which ThreadState byte ranges a
      statement (or whole block) reads and writes, counting [Get]/[Put]
      as well as the declared RdFX/WrFX effects of helper calls. *)

open Vex_ir.Ir

module ISet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Def / use extraction                                                 *)
(* ------------------------------------------------------------------ *)

(** Temporaries read by an expression tree (deep). *)
let expr_uses (e : expr) : ISet.t =
  let rec go acc = function
    | RdTmp t -> ISet.add t acc
    | Get _ | Const _ -> acc
    | Load (_, a) -> go acc a
    | Unop (_, a) -> go acc a
    | Binop (_, x, y) -> go (go acc x) y
    | ITE (c, t, f) -> go (go (go acc c) t) f
    | CCall (_, _, args) -> List.fold_left go acc args
  in
  go ISet.empty e

(** Temporaries read by a statement. *)
let stmt_uses (s : stmt) : ISet.t =
  match s with
  | NoOp | IMark _ -> ISet.empty
  | AbiHint (e, _) | Put (_, e) | WrTmp (_, e) -> expr_uses e
  | Store (a, d) -> ISet.union (expr_uses a) (expr_uses d)
  | Exit (g, _, _) -> expr_uses g
  | Dirty d ->
      let acc = expr_uses d.d_guard in
      let acc =
        List.fold_left (fun acc a -> ISet.union acc (expr_uses a)) acc d.d_args
      in
      (match d.d_mfx with
      | Mfx_none -> acc
      | Mfx_read (e, _) | Mfx_write (e, _) -> ISet.union acc (expr_uses e))

(** Temporaries assigned by a statement ([WrTmp] destinations and
    [Dirty] result temps). *)
let stmt_defs (s : stmt) : int list =
  match s with
  | WrTmp (t, _) -> [ t ]
  | Dirty { d_tmp = Some t; _ } -> [ t ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* The two folds                                                        *)
(* ------------------------------------------------------------------ *)

(** [forward ~init ~f b] folds [f] left-to-right over the statements:
    [f state idx stmt] returns the state after executing [stmt]. *)
let forward ~(init : 'a) ~(f : 'a -> int -> stmt -> 'a) (b : block) : 'a =
  let st = ref init in
  Support.Vec.iteri (fun i s -> st := f !st i s) b.stmts;
  !st

(** [backward ~init ~f b] folds right-to-left: [f state idx stmt] returns
    the state {e before} [stmt] given the state after it.  [init] is the
    state at the end of the block (after the final statement, before the
    [next] expression is evaluated — include [next]'s uses in [init] when
    doing liveness). *)
let backward ~(init : 'a) ~(f : 'a -> int -> stmt -> 'a) (b : block) : 'a =
  let n = Support.Vec.length b.stmts in
  let st = ref init in
  for i = n - 1 downto 0 do
    st := f !st i (Support.Vec.get b.stmts i)
  done;
  !st

(* ------------------------------------------------------------------ *)
(* Liveness (backward)                                                  *)
(* ------------------------------------------------------------------ *)

(** [liveness b] returns an array [live] of length [n_stmts + 1]:
    [live.(i)] is the set of temps live immediately before statement [i],
    and [live.(n)] the set live at the block end (the uses of [next]).
    Within a superblock a side [Exit] only adds its guard's uses. *)
let liveness (b : block) : ISet.t array =
  let n = Support.Vec.length b.stmts in
  let live = Array.make (n + 1) ISet.empty in
  live.(n) <- expr_uses b.next;
  for i = n - 1 downto 0 do
    let s = Support.Vec.get b.stmts i in
    let after = live.(i + 1) in
    let minus_defs =
      List.fold_left (fun acc t -> ISet.remove t acc) after (stmt_defs s)
    in
    live.(i) <- ISet.union minus_defs (stmt_uses s)
  done;
  live

(* ------------------------------------------------------------------ *)
(* Reaching definitions (forward, SSA flavour)                          *)
(* ------------------------------------------------------------------ *)

(** The definition site of each temp: [def_site.(t) = Some i] when temp
    [t] is assigned by statement [i].  Raises nothing itself; multiple
    assignments keep the {e first} site (the SSA checker reports the
    violation separately). *)
let def_sites (b : block) : int option array =
  let sites = Array.make (Support.Vec.length b.tyenv) None in
  Support.Vec.iteri
    (fun i s ->
      List.iter
        (fun t ->
          if t >= 0 && t < Array.length sites && sites.(t) = None then
            sites.(t) <- Some i)
        (stmt_defs s))
    b.stmts;
  sites

(* ------------------------------------------------------------------ *)
(* Guest-state def/use summaries                                        *)
(* ------------------------------------------------------------------ *)

(** A byte range [(offset, size)] of the ThreadState. *)
type range = int * int

let ranges_overlap (o1, s1) (o2, s2) = o1 < o2 + s2 && o2 < o1 + s1

let range_inside (o, s) (o', s') = o >= o' && o + s <= o' + s'

(** Is [r] covered by any range in [rs]?  (Single-range containment: the
    declared shadow ranges are contiguous planes, so no stitching is
    needed.) *)
let rec covered_by (r : range) (rs : range list) =
  match rs with
  | [] -> false
  | r' :: rest -> range_inside r r' || covered_by r rest

(** Guest-state ranges read by an expression ([Get]s, plus the declared
    [fx_reads] of pure helper calls). *)
let expr_state_reads (b : block) (e : expr) : range list =
  ignore b;
  let rec go acc = function
    | Get (off, ty) -> (off, size_of_ty ty) :: acc
    | RdTmp _ | Const _ -> acc
    | Load (_, a) -> go acc a
    | Unop (_, a) -> go acc a
    | Binop (_, x, y) -> go (go acc x) y
    | ITE (c, t, f) -> go (go (go acc c) t) f
    | CCall (callee, _, args) ->
        List.fold_left go (callee.c_fx_reads @ acc) args
  in
  go [] e

(** Guest-state ranges a statement reads / writes, including Dirty
    helpers' declared RdFX/WrFX effects. *)
let stmt_state_rw (b : block) (s : stmt) : range list * range list =
  match s with
  | NoOp | IMark _ -> ([], [])
  | AbiHint (e, _) -> (expr_state_reads b e, [])
  | Put (off, e) ->
      (expr_state_reads b e, [ (off, size_of_ty (type_of b e)) ])
  | WrTmp (_, e) -> (expr_state_reads b e, [])
  | Store (a, d) -> (expr_state_reads b a @ expr_state_reads b d, [])
  | Exit (g, _, _) -> (expr_state_reads b g, [])
  | Dirty d ->
      let arg_reads =
        List.concat_map (expr_state_reads b) (d.d_guard :: d.d_args)
      in
      let mfx_reads =
        match d.d_mfx with
        | Mfx_read (e, _) | Mfx_write (e, _) -> expr_state_reads b e
        | Mfx_none -> []
      in
      ( arg_reads @ mfx_reads @ d.d_callee.c_fx_reads,
        d.d_callee.c_fx_writes )

(** Whole-block guest-state def/use summary (union of per-statement
    effects plus the [next] expression's reads). *)
let block_state_rw (b : block) : range list * range list =
  let reads, writes =
    forward ~init:([], [])
      ~f:(fun (r, w) _ s ->
        let r', w' = stmt_state_rw b s in
        (r' @ r, w' @ w))
      b
  in
  (expr_state_reads b b.next @ reads, writes)
