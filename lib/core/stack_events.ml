(** Core-side instrumentation of stack-pointer changes (R7, §3.12).

    "A tool could detect [stack allocations] just by detecting changes to
    the stack pointer from the IR.  However, because it is a common
    requirement, Valgrind provides events for these cases.  The core
    instruments the code with calls to the event callbacks on the tool's
    behalf."

    This pass runs after tool instrumentation.  It tracks the stack
    pointer symbolically through the block: PUTs of [sp] whose value is
    provably [sp_entry + constant] become direct calls to the
    new/die_mem_stack helpers with a constant length; PUTs of an unknown
    value go through the unknown-SP-update helper, which applies the 2MB
    stack-switch heuristic (adjustable, and overridable by the
    stack-registration client requests, §3.12). *)

open Vex_ir.Ir
module GA = Guest.Arch

type helpers = {
  h_new : callee;  (** (sp_new, len): [sp_new, sp_new+len) was allocated *)
  h_die : callee;  (** (sp_new, len): [sp_new-len, sp_new) died *)
  h_unknown : callee;  (** (sp_new): delta unknown; helper reads old sp *)
}

(** Registered alternative stacks (client requests 0x0004–0x0006). *)
type registered_stacks = {
  mutable stacks : (int * int64 * int64) list;  (** (id, start, end) *)
  mutable next_id : int;
}

let make_registered_stacks () = { stacks = []; next_id = 1 }

(** The unknown-SP-update policy, shared with the helper implementation in
    {!Session}: returns [None] for a detected stack switch (no events), or
    [Some (new_low, len, is_alloc)]. *)
let classify_sp_change ~(threshold : int64) (regs : registered_stacks)
    ~(old_sp : int64) ~(new_sp : int64) : (int64 * int * bool) option =
  let delta = Int64.sub new_sp old_sp in
  let on_registered sp =
    List.exists
      (fun (_, lo, hi) ->
        Int64.unsigned_compare lo sp <= 0 && Int64.unsigned_compare sp hi <= 0)
      regs.stacks
  in
  let same_registered =
    List.exists
      (fun (_, lo, hi) ->
        Int64.unsigned_compare lo old_sp <= 0
        && Int64.unsigned_compare old_sp hi <= 0
        && Int64.unsigned_compare lo new_sp <= 0
        && Int64.unsigned_compare new_sp hi <= 0)
      regs.stacks
  in
  let abs_delta = Int64.abs delta in
  if delta = 0L then None
  else if
    (* a move between two distinct registered stacks is a switch *)
    (on_registered old_sp || on_registered new_sp) && not same_registered
  then None
  else if (not same_registered) && Int64.unsigned_compare abs_delta threshold > 0
  then None (* 2MB heuristic: treat as a stack switch *)
  else if Int64.compare delta 0L < 0 then
    Some (new_sp, Int64.to_int abs_delta, true)
  else Some (old_sp, Int64.to_int abs_delta, false)

(** Instrument [b] with stack events. Only called when the tool has
    registered new/die_mem_stack callbacks. *)
let instrument (h : helpers) (b : block) : block =
  let nb = empty_like b in
  (* delta of each temp relative to the block-entry SP, if provably
     sp-derived *)
  let deltas : (tmp, int64) Hashtbl.t = Hashtbl.create 16 in
  let cur_delta = ref (Some 0L) in
  (* the TS sp field currently holds entry_sp + cur_delta *)
  Support.Vec.iter
    (fun s ->
      (match s with
      | WrTmp (t, Get (off, I32)) when off = GA.off_sp -> (
          match !cur_delta with
          | Some d -> Hashtbl.replace deltas t d
          | None -> ())
      | WrTmp (t, Binop (Add32, RdTmp a, Const (CI32 k)))
      | WrTmp (t, Binop (Add32, Const (CI32 k), RdTmp a)) -> (
          match Hashtbl.find_opt deltas a with
          | Some d ->
              Hashtbl.replace deltas t
                (Support.Bits.sext32 (Int64.add d (Support.Bits.sext32 k)))
          | None -> ())
      | WrTmp (t, Binop (Sub32, RdTmp a, Const (CI32 k))) -> (
          match Hashtbl.find_opt deltas a with
          | Some d ->
              Hashtbl.replace deltas t
                (Support.Bits.sext32 (Int64.sub d (Support.Bits.sext32 k)))
          | None -> ())
      | _ -> ());
      match s with
      | Put (off, atom) when off = GA.off_sp -> (
          let known =
            match atom with
            | RdTmp t -> Hashtbl.find_opt deltas t
            | _ -> None
          in
          match (known, !cur_delta) with
          | Some d, Some prev ->
              let change = Int64.sub d prev in
              add_stmt nb s;
              if Int64.compare change 0L < 0 then
                add_stmt nb
                  (dirty h.h_new [ atom; i32 (Int64.neg change) ])
              else if Int64.compare change 0L > 0 then
                add_stmt nb (dirty h.h_die [ atom; i32 change ]);
              cur_delta := Some d
          | _ ->
              (* unknown update: helper reads the old sp from the
                 ThreadState, so call it before the PUT *)
              add_stmt nb (dirty h.h_unknown [ atom ]);
              add_stmt nb s;
              (* rebase: the stored value becomes the new reference *)
              Hashtbl.reset deltas;
              (match atom with
              | RdTmp t -> Hashtbl.replace deltas t 0L
              | _ -> ());
              cur_delta := Some 0L)
      | s -> add_stmt nb s)
    b.stmts;
  nb
