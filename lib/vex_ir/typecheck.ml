(** IR sanity checking (VEX's [sanityCheckIRSB]).

    Two levels: {!check_block} verifies typing of every statement, and
    {!check_flat} additionally verifies the flatness invariant required
    before instrumentation (phase 3 expects flat IR: every operator reads
    only temporaries and literals, and every statement assigns at most one
    temporary from a single non-nested expression). *)

open Ir

exception Ill_typed of string

let fail fmt = Fmt.kstr (fun s -> raise (Ill_typed s)) fmt

(* [t], read or assigned by [what], must be in the type environment. *)
let check_tmp b what t =
  if t < 0 || t >= Support.Vec.length b.tyenv then
    fail "%s t%d out of range" what t

let rec check_expr b e : ty =
  match e with
  | Get (off, ty) ->
      if off < 0 then fail "GET at negative offset %d" off;
      ty
  | RdTmp t ->
      check_tmp b "RdTmp" t;
      tmp_ty b t
  | Load (ty, addr) ->
      let aty = check_expr b addr in
      if aty <> I32 then fail "Load address has type %a, expected I32" Pp.pp_ty aty;
      if ty = I1 then fail "Load of I1 is not allowed";
      ty
  | Const c -> type_of_const c
  | Unop (op, a) ->
      let want, res = unop_sig op in
      let got = check_expr b a in
      if got <> want then
        fail "%s applied to %a, expected %a" (Pp.unop_name op) Pp.pp_ty got
          Pp.pp_ty want;
      res
  | Binop (op, x, y) ->
      let wx, wy, res = binop_sig op in
      let gx = check_expr b x and gy = check_expr b y in
      if gx <> wx then
        fail "%s lhs has type %a, expected %a" (Pp.binop_name op) Pp.pp_ty gx
          Pp.pp_ty wx;
      if gy <> wy then
        fail "%s rhs has type %a, expected %a" (Pp.binop_name op) Pp.pp_ty gy
          Pp.pp_ty wy;
      res
  | ITE (c, t, e) ->
      let gc = check_expr b c in
      if gc <> I1 then fail "ITE condition has type %a, expected I1" Pp.pp_ty gc;
      let gt = check_expr b t and ge = check_expr b e in
      if gt <> ge then
        fail "ITE arms disagree: %a vs %a" Pp.pp_ty gt Pp.pp_ty ge;
      gt
  | CCall (callee, ty, args) ->
      List.iter
        (fun a ->
          let t = check_expr b a in
          match t with
          | I32 | I64 -> ()
          | _ ->
              fail "CCall %s: argument of type %a (only I32/I64 allowed)"
                callee.c_name Pp.pp_ty t)
        args;
      (match ty with
      | I32 | I64 -> ()
      | _ -> fail "CCall %s: return type %a (only I32/I64)" callee.c_name Pp.pp_ty ty);
      ty

let check_stmt b = function
  | NoOp | IMark _ -> ()
  | AbiHint (e, _) ->
      let t = check_expr b e in
      if t <> I32 then fail "AbiHint address has type %a" Pp.pp_ty t
  | Put (off, e) ->
      if off < 0 then fail "PUT at negative offset %d" off;
      let t = check_expr b e in
      if t = I1 then fail "PUT of I1 is not allowed"
  | WrTmp (t, e) ->
      check_tmp b "WrTmp" t;
      let want = tmp_ty b t in
      let got = check_expr b e in
      if want <> got then
        fail "t%d has type %a but is assigned %a" t Pp.pp_ty want Pp.pp_ty got
  | Store (a, d) ->
      let ta = check_expr b a in
      if ta <> I32 then fail "Store address has type %a" Pp.pp_ty ta;
      let td = check_expr b d in
      if td = I1 then fail "Store of I1 is not allowed"
  | Dirty d ->
      let tg = check_expr b d.d_guard in
      if tg <> I1 then fail "Dirty guard has type %a" Pp.pp_ty tg;
      List.iter (fun a -> ignore (check_expr b a)) d.d_args;
      (match d.d_tmp with
      | None -> ()
      | Some t ->
          check_tmp b "Dirty result" t;
          let ty = tmp_ty b t in
          if ty <> I64 && ty <> I32 then
            fail "Dirty result t%d has type %a (only I32/I64)" t Pp.pp_ty ty);
      (match d.d_mfx with
      | Mfx_none -> ()
      | Mfx_read (e, _) | Mfx_write (e, _) ->
          if check_expr b e <> I32 then fail "Dirty mfx address not I32")
  | Exit (g, _, _) ->
      let tg = check_expr b g in
      if tg <> I1 then fail "Exit guard has type %a" Pp.pp_ty tg

(** Check every statement and the block's [next] expression.
    Raises {!Ill_typed} on the first violation. *)
let check_block b =
  Support.Vec.iter (check_stmt b) b.stmts;
  let tn = check_expr b b.next in
  if tn <> I32 then fail "block next has type %a, expected I32" Pp.pp_ty tn

(** {2 Flatness} *)

let is_atom = function RdTmp _ | Const _ -> true | _ -> false

(* One level of operator over atoms only. *)
let is_flat_rhs = function
  | Get _ | RdTmp _ | Const _ -> true
  | Load (_, a) -> is_atom a
  | Unop (_, a) -> is_atom a
  | Binop (_, a, b) -> is_atom a && is_atom b
  | ITE (c, t, e) -> is_atom c && is_atom t && is_atom e
  | CCall (_, _, args) -> List.for_all is_atom args

let check_flat_stmt = function
  | NoOp | IMark _ -> ()
  | AbiHint (e, _) -> if not (is_atom e) then fail "AbiHint not flat"
  | Put (_, e) -> if not (is_atom e) then fail "PUT not flat"
  | WrTmp (_, e) -> if not (is_flat_rhs e) then fail "WrTmp rhs not flat"
  | Store (a, d) ->
      if not (is_atom a && is_atom d) then fail "Store not flat"
  | Dirty d ->
      if not (is_atom d.d_guard && List.for_all is_atom d.d_args) then
        fail "Dirty not flat"
  | Exit (g, _, _) -> if not (is_atom g) then fail "Exit guard not flat"

(** Check the flat-IR invariant (in addition to typing). *)
let check_flat b =
  check_block b;
  Support.Vec.iter check_flat_stmt b.stmts;
  if not (is_atom b.next) then fail "block next not flat"
