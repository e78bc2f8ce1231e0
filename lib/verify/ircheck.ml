(** IR-level phase-boundary verifiers (phases 1–5).

    Valgrind runs [sanityCheckIRSB] between JIT phases; these checks are
    the equivalent for our pipeline, built on {!Dataflow}:

    - {!check_ssa}: at most one assignment per temporary, definition
      before use and canonical constants, in one walk per statement —
      the output of opt1 (phase 2), instrumentation (phase 3) and opt2
      (phase 4), which the pipeline has just typechecked;
    - {!check_tree}: typing plus {!check_ssa} — the output of
      disassembly (phase 1) and of tree building (phase 5);
    - {!check_opt2}: opt2 may only {e remove} effects, so its output's
      effect skeleton (PUTs, stores, dirty calls, side exits, IMarks in
      order) must be a subsequence of its input's;
    - {!check_treebuild}: tree building reorders nothing and drops only
      substituted [WrTmp]s, so the effect skeleton must survive
      {e exactly} — this is the boundary that catches a dropped PUT. *)

open Vex_ir.Ir
module DF = Dataflow

(* ------- single assignment, def-before-use, canonical constants ------- *)

(* Every constant in the IR must be in canonical (zero-extended) form:
   CI8 in [0, 0xFF], CI16 in [0, 0xFFFF], CI32 with no bits above 31.
   The smart constructors (Ir.i8/i16/i32) and the evaluator truncate, but
   a fold pass that manufactures a constant by hand can smuggle in a
   wide value — which then compares unequal to the canonical form of the
   same number, breaking downstream CSE and constant-branch folding. *)

let const_canonical = function
  | CI8 v -> v >= 0 && v <= 0xFF
  | CI16 v -> v >= 0 && v <= 0xFFFF
  | CI32 v -> Int64.logand v 0xFFFF_FFFFL = v
  | CI1 _ | CI64 _ | CF64 _ | CV128 _ -> true

(* The uses of statement [i] ([s]): each temporary read must be in range
   and already defined, and each constant canonical.  [defined] has one
   entry per temporary. *)
let rec walk_expr phase defined i s = function
  | Get _ -> ()
  | RdTmp t ->
      if t < 0 || t >= Array.length defined then
        Verr.fail phase "stmt %d: use of out-of-range t%d" i t;
      if not defined.(t) then
        Verr.fail phase "stmt %d: t%d used before its definition (%a)" i t
          Vex_ir.Pp.pp_stmt s
  | Const c ->
      if not (const_canonical c) then
        Verr.fail phase "stmt %d: non-canonical constant %a" i
          Vex_ir.Pp.pp_const c
  | Load (_, a) | Unop (_, a) -> walk_expr phase defined i s a
  | Binop (_, a, b) ->
      walk_expr phase defined i s a;
      walk_expr phase defined i s b
  | ITE (c, t, e) ->
      walk_expr phase defined i s c;
      walk_expr phase defined i s t;
      walk_expr phase defined i s e
  | CCall (_, _, args) -> walk_args phase defined i s args

and walk_args phase defined i s = function
  | [] -> ()
  | a :: rest ->
      walk_expr phase defined i s a;
      walk_args phase defined i s rest

let define phase defined i t =
  if t < 0 || t >= Array.length defined then
    Verr.fail phase "stmt %d: assignment to out-of-range t%d" i t;
  if defined.(t) then
    Verr.fail phase "stmt %d: t%d assigned more than once (violates SSA)" i t;
  defined.(t) <- true

(** Single assignment, definition before use and canonical constants, in
    one walk per statement (its uses, then its definition); no typing.
    The pipeline typechecks the blocks this alone is applied to. *)
let check_ssa ~phase (b : block) : unit =
  let defined = Array.make (Support.Vec.length b.tyenv) false in
  let n = Support.Vec.length b.stmts in
  for i = 0 to n - 1 do
    let s = Support.Vec.get b.stmts i in
    match s with
    | NoOp | IMark _ -> ()
    | AbiHint (e, _) | Put (_, e) | Exit (e, _, _) ->
        walk_expr phase defined i s e
    | WrTmp (t, e) ->
        walk_expr phase defined i s e;
        define phase defined i t
    | Store (a, d) ->
        walk_expr phase defined i s a;
        walk_expr phase defined i s d
    | Dirty d -> (
        walk_expr phase defined i s d.d_guard;
        walk_args phase defined i s d.d_args;
        (match d.d_mfx with
        | Mfx_none -> ()
        | Mfx_read (e, _) | Mfx_write (e, _) -> walk_expr phase defined i s e);
        match d.d_tmp with Some t -> define phase defined i t | None -> ())
  done;
  let rec walk_next = function
    | Get _ -> ()
    | RdTmp t ->
        if t < 0 || t >= Array.length defined || not defined.(t) then
          Verr.fail phase "block next uses undefined t%d" t
    | Const c ->
        if not (const_canonical c) then
          Verr.fail phase "stmt %d: non-canonical constant %a" n
            Vex_ir.Pp.pp_const c
    | Load (_, a) | Unop (_, a) -> walk_next a
    | Binop (_, a, b) ->
        walk_next a;
        walk_next b
    | ITE (c, t, e) ->
        walk_next c;
        walk_next t;
        walk_next e
    | CCall (_, _, args) -> List.iter walk_next args
  in
  walk_next b.next

let typecheck phase f b =
  try f b
  with Vex_ir.Typecheck.Ill_typed m -> Verr.fail phase "ill-typed: %s" m

(** Tree-IR well-formedness: typing + SSA + def-before-use + canonical
    constants. *)
let check_tree ~phase (b : block) : unit =
  typecheck phase Vex_ir.Typecheck.check_block b;
  check_ssa ~phase b

(* ---------------------- effect skeletons ---------------------------- *)

(** The observable-effect skeleton of a block: the sequence of
    side-effecting statements with their identifying payloads.  Pure
    [WrTmp]s are excluded (optimisation may remove or merge them). *)
type effect_item =
  | EPut of int * int  (** offset, size *)
  | EStore
  | EDirty of string  (** callee name *)
  | EExit of jumpkind * int64
  | EImark of int64 * int

let pp_item ppf = function
  | EPut (o, s) -> Fmt.pf ppf "PUT(%d,%d)" o s
  | EStore -> Fmt.string ppf "STORE"
  | EDirty n -> Fmt.pf ppf "DIRTY(%s)" n
  | EExit (_, d) -> Fmt.pf ppf "EXIT(0x%LX)" d
  | EImark (a, l) -> Fmt.pf ppf "IMARK(0x%LX,%d)" a l

let skeleton (b : block) : effect_item list =
  List.rev
    (DF.forward ~init:[]
       ~f:(fun acc _ s ->
         match s with
         | Put (off, e) -> EPut (off, size_of_ty (type_of b e)) :: acc
         | Store _ -> EStore :: acc
         | Dirty d -> EDirty d.d_callee.c_name :: acc
         | Exit (_, jk, dest) -> EExit (jk, dest) :: acc
         | IMark (a, l) -> EImark (a, l) :: acc
         | _ -> acc)
       b)

let rec is_subsequence (xs : effect_item list) (ys : effect_item list) :
    effect_item option =
  match (xs, ys) with
  | [], _ -> None
  | x :: _, [] -> Some x
  | x :: xs', y :: ys' ->
      if x = y then is_subsequence xs' ys' else is_subsequence xs ys'

(** Phase-4 boundary: opt2's output must be SSA, keep the jump kind, and
    its effect skeleton must be a subsequence of its input's (folding and
    dead-code removal only ever drop effects — redundant PUTs,
    never-taken exits — they cannot invent or reorder them).  Typing and
    flatness are the caller's: the pipeline typechecks opt2's output
    before this hook runs, and {!Check.check_all} does the same. *)
let check_opt2 ~pre ~post : unit =
  let phase = "phase 4 (opt2)" in
  check_ssa ~phase post;
  if post.jumpkind <> pre.jumpkind then
    Verr.fail phase "jump kind changed across opt2";
  match is_subsequence (skeleton post) (skeleton pre) with
  | None -> ()
  | Some item ->
      Verr.fail phase
        "effect %a in opt2 output is not a subsequence of its input \
         (reordered or invented effect)"
        pp_item item

(** Phase-5 boundary: tree building must preserve the effect skeleton
    exactly (it only substitutes single-use temp definitions into use
    sites), and its output must be well-formed tree IR.  A PUT dropped or
    reordered by tree building is caught here. *)
let check_treebuild ~pre ~post : unit =
  let phase = "phase 5 (treebuild)" in
  check_tree ~phase post;
  if post.jumpkind <> pre.jumpkind then
    Verr.fail phase "jump kind changed across tree building";
  (match (pre.next, post.next) with
  | Const c1, Const c2 when c1 <> c2 ->
      Verr.fail phase "constant block successor changed across tree building"
  | _ -> ());
  let sk_pre = skeleton pre and sk_post = skeleton post in
  if sk_pre <> sk_post then
    let rec first_diff i = function
      | [], [] -> assert false
      | x :: _, [] | [], x :: _ ->
          Verr.fail phase "effect skeleton length changed at item %d: %a" i
            pp_item x
      | x :: xs, y :: ys ->
          if x <> y then
            Verr.fail phase "effect %d changed: %a became %a" i pp_item x
              pp_item y
          else first_diff (i + 1) (xs, ys)
    in
    first_diff 0 (sk_pre, sk_post)
