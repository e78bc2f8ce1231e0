(** A small dataflow engine over flat VEX IR.

    Superblocks are single-entry / multi-exit straight-line statement
    lists (side exits leave, they never rejoin), so intra-block dataflow
    needs no fixpoint: a forward analysis is a left fold over the
    statements.  Beside the fold this module provides the guest-state
    byte-range tests the phase verifiers and the tool lints share. *)

open Vex_ir.Ir

(** [forward ~init ~f b] folds [f] left-to-right over the statements:
    [f state idx stmt] returns the state after executing [stmt]. *)
let forward ~(init : 'a) ~(f : 'a -> int -> stmt -> 'a) (b : block) : 'a =
  let st = ref init in
  Support.Vec.iteri (fun i s -> st := f !st i s) b.stmts;
  !st

(* ------------------------------------------------------------------ *)
(* Guest-state byte ranges                                              *)
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
