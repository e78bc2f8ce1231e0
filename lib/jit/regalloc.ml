(** Phase 7 — Register allocation: virtual registers -> host registers.

    A linear-scan allocator in the style of Traub et al. [26] (the paper's
    reference for Valgrind's allocator).  Because superblocks contain only
    forward internal branches, a virtual register's live interval is just
    [first position, last position] of its mentions, and a single linear
    sweep suffices.  Each interval takes the first free register found by
    a scan of two small per-class arrays: the last position each register
    is busy until, and which registers are caller-saved.

    Intervals that are live across a helper [VCall] may not occupy
    caller-saved registers (the call clobbers h0..h7/hv0..hv3); they are
    given callee-saved registers or spilled to the per-thread spill zone
    addressed off the GSP.  Spilled values are reloaded through the
    reserved scratch registers (h13/h14, hv7).

    The allocator also coalesces register-to-register moves whose source
    and destination end up in the same host register (the effect shown in
    the paper's Figure 3). *)

open Isel
module H = Host.Arch

type cls = Int | Vec

(* ------------------------------------------------------------------ *)
(* Live intervals                                                       *)
(* ------------------------------------------------------------------ *)

type interval = {
  vreg : int;
  cls : cls;
  start : int;
  stop : int;
  crosses_call : bool;
}

(** Live intervals of every mentioned virtual register: the int class
    in vreg order, then the vec class. *)
let intervals (code : vinsn list) ~(n_int : int) ~(n_vec : int) :
    interval list =
  let first_i = Array.make n_int max_int and last_i = Array.make n_int (-1) in
  let first_v = Array.make n_vec max_int and last_v = Array.make n_vec (-1) in
  (* calls_before.(p): helper calls at positions below p *)
  let calls_before = Array.make (List.length code + 1) 0 in
  let pos = ref 0 and calls = ref 0 in
  let touch first last r =
    let p = !pos in
    if p < first.(r) then first.(r) <- p;
    if p > last.(r) then last.(r) <- p
  in
  let ti = touch first_i last_i and tv = touch first_v last_v in
  (* a GSP base is the reserved host register, not a virtual one *)
  let base b = if b <> H.gsp then ti b in
  List.iter
    (fun i ->
      (match i with
      | V (Movi (d, _)) -> ti d
      | V (Mov (d, s)) | V (Alui (_, _, d, s, _)) | V (Fun1 (_, d, s)) ->
          ti s;
          ti d
      | V (Alu (_, _, d, s1, s2)) | V (Falu (_, d, s1, s2)) ->
          ti s1;
          ti s2;
          ti d
      | V (Ld (_, _, d, b, _)) ->
          base b;
          ti d
      | V (St (_, s, b, _)) ->
          ti s;
          base b
      | V (Cmov (d, c, s)) ->
          ti c;
          ti s;
          ti d
      | V (Vld (d, b, _)) ->
          base b;
          tv d
      | V (Vst (s, b, _)) ->
          tv s;
          base b
      | V (Vmov (d, s)) | V (Vnot (d, s)) ->
          tv s;
          tv d
      | V (Valu (_, d, s1, s2)) ->
          tv s1;
          tv s2;
          tv d
      | V (Vsplat32 (d, s)) ->
          ti s;
          tv d
      | V (Vpack (d, hi, lo)) ->
          ti hi;
          ti lo;
          tv d
      | V (Vunpack (d, s, _)) ->
          tv s;
          ti d
      | V (Jz (c, _)) | V (Jnz (c, _)) | V (ExitIf (c, _, _)) | V (Goto (_, c))
        ->
          ti c
      (* physical calls appear only after allocation *)
      | V (Call _) | V (Jmp _) | V (Label _) | V (GotoI _) -> ()
      | VCall { args; dst; _ } ->
          incr calls;
          List.iter ti args;
          Option.iter ti dst);
      incr pos;
      calls_before.(!pos) <- !calls)
    code;
  (* consed from the highest vreg down, so the list comes out ascending *)
  let add cls first last n acc =
    let acc = ref acc in
    for r = n - 1 downto 0 do
      let start = first.(r) and stop = last.(r) in
      if stop >= 0 then
        acc :=
          {
            vreg = r;
            cls;
            start;
            stop;
            crosses_call = calls_before.(stop) > calls_before.(start + 1);
          }
          :: !acc
    done;
    !acc
  in
  add Int first_i last_i n_int (add Vec first_v last_v n_vec [])

(* ------------------------------------------------------------------ *)
(* Allocation                                                           *)
(* ------------------------------------------------------------------ *)

(** Where a virtual register lives after allocation. *)
type loc = Phys of int | Spill of int (* slot index *)

type assignment = {
  int_loc : loc array;
  vec_loc : loc array;
  n_spill_int : int;
  n_spill_vec : int;
}

exception Out_of_spill_slots

(* Which allocatable registers a helper call clobbers, by index. *)
let caller_saved_mask (allocatable : int list) (caller_saved : int list) =
  Array.of_list (List.map (fun r -> List.mem r caller_saved) allocatable)

let caller_saved_int = caller_saved_mask H.allocatable_int H.caller_saved_int
let caller_saved_vec = caller_saved_mask H.allocatable_vec H.caller_saved_vec

(* Intervals in order of start, then stop; the sort is stable, so ties
   keep [intervals]' order. *)
let by_position a b =
  let c = Int.compare a.start b.start in
  if c <> 0 then c else Int.compare a.stop b.stop

(* [List.stable_sort by_position ivs].  Nine translations in ten list
   their intervals in that order already (a virtual register is mostly
   first mentioned where isel made it), and then the sort is the
   identity, so check the order first. *)
let in_position_order (ivs : interval list) : interval list =
  let rec ordered = function
    | a :: (b :: _ as tl) -> by_position a b <= 0 && ordered tl
    | _ -> true
  in
  if ordered ivs then ivs else List.stable_sort by_position ivs

(* The first register that is free for an interval starting at [start]
   and whose caller-saved bit is [saved]; -1 if none is. *)
let first_free busy caller_saved ~start ~saved =
  let n = Array.length busy in
  let r = ref 0 in
  while !r < n && not (busy.(!r) < start && caller_saved.(!r) = saved) do
    incr r
  done;
  if !r < n then !r else -1

let allocate (code : vinsn list) ~(n_int : int) ~(n_vec : int) : assignment =
  let ivs = in_position_order (intervals code ~n_int ~n_vec) in
  let int_loc = Array.make n_int (Spill (-1)) in
  let vec_loc = Array.make n_vec (Spill (-1)) in
  let spill_int = ref 0 and spill_vec = ref 0 in
  (* busy.(r): the last position of the interval holding register r
     (-1 if none has); r is free for an interval starting after it *)
  let busy_int = Array.make (Array.length caller_saved_int) (-1) in
  let busy_vec = Array.make (Array.length caller_saved_vec) (-1) in
  let next_spill cls =
    match cls with
    | Int ->
        let s = !spill_int in
        incr spill_int;
        if s >= H.spill_slots_int then raise Out_of_spill_slots;
        Spill s
    | Vec ->
        let s = !spill_vec in
        incr spill_vec;
        if s >= H.spill_slots_vec then raise Out_of_spill_slots;
        Spill s
  in
  List.iter
    (fun iv ->
      let busy, caller_saved =
        match iv.cls with
        | Int -> (busy_int, caller_saved_int)
        | Vec -> (busy_vec, caller_saved_vec)
      in
      let start = iv.start in
      (* a call-crossing interval must not take a caller-saved register;
         any other prefers one, to keep callee-saved ones available *)
      let r =
        if iv.crosses_call then
          first_free busy caller_saved ~start ~saved:false
        else
          let r = first_free busy caller_saved ~start ~saved:true in
          if r >= 0 then r
          else first_free busy caller_saved ~start ~saved:false
      in
      let loc =
        if r >= 0 then begin
          busy.(r) <- iv.stop;
          Phys r
        end
        else next_spill iv.cls
      in
      match iv.cls with
      | Int -> int_loc.(iv.vreg) <- loc
      | Vec -> vec_loc.(iv.vreg) <- loc)
    ivs;
  { int_loc; vec_loc; n_spill_int = !spill_int; n_spill_vec = !spill_vec }

(* ------------------------------------------------------------------ *)
(* Rewriting: apply assignment, expand spills and calls                 *)
(* ------------------------------------------------------------------ *)

let int_slot_off s = H.spill_base_int + (8 * s)
let vec_slot_off s = H.spill_base_vec + (16 * s)

(** Rewrite [code] into pure host instructions with physical registers.
    Returns the final instruction list (labels still symbolic; phase 8
    assembles them).  [next_label] supplies fresh labels for local
    expansions. *)
let apply (code : vinsn list) (asg : assignment) ~(next_label : int ref) :
    H.insn list =
  let out = ref [] in
  let emit i = out := i :: !out in
  let fresh_label () =
    let l = !next_label in
    incr next_label;
    l
  in
  (* read an int virtual into a physical register, using scratch if
     spilled; [which] distinguishes the two scratches *)
  let read_int ?(which = 0) v =
    match asg.int_loc.(v) with
    | Phys p -> p
    | Spill s ->
        let scratch = if which = 0 then H.scratch else H.scratch2 in
        emit (H.Ld (8, false, scratch, H.gsp, int_slot_off s));
        scratch
  in
  let read_vec ?(which = 0) v =
    match asg.vec_loc.(v) with
    | Phys p -> p
    | Spill s ->
        let scratch = if which = 0 then H.vscratch else H.vscratch2 in
        emit (H.Vld (scratch, H.gsp, vec_slot_off s));
        scratch
  in
  (* destination: physical register to compute into + flush action *)
  let write_int v =
    match asg.int_loc.(v) with
    | Phys p -> (p, fun () -> ())
    | Spill s ->
        (H.scratch, fun () -> emit (H.St (8, H.scratch, H.gsp, int_slot_off s)))
  in
  let write_vec v =
    match asg.vec_loc.(v) with
    | Phys p -> (p, fun () -> ())
    | Spill s ->
        (H.vscratch, fun () -> emit (H.Vst (H.vscratch, H.gsp, vec_slot_off s)))
  in
  let mov_int d s = if d <> s then emit (H.Mov (d, s)) in
  List.iter
    (fun vi ->
      match vi with
      | V (Movi (d, imm)) ->
          let pd, fl = write_int d in
          emit (H.Movi (pd, imm));
          fl ()
      | V (Mov (d, s)) ->
          let ps = read_int s in
          let pd, fl = write_int d in
          mov_int pd ps;
          fl ()
      | V (Alu (w, op, d, s1, s2)) ->
          let p1 = read_int ~which:0 s1 in
          let p2 = read_int ~which:1 s2 in
          let pd, fl = write_int d in
          emit (H.Alu (w, op, pd, p1, p2));
          fl ()
      | V (Alui (w, op, d, s1, imm)) ->
          let p1 = read_int s1 in
          let pd, fl = write_int d in
          emit (H.Alui (w, op, pd, p1, imm));
          fl ()
      | V (Ld (sz, sx, d, b, off)) ->
          let pb = if b = H.gsp then H.gsp else read_int b in
          let pd, fl = write_int d in
          emit (H.Ld (sz, sx, pd, pb, off));
          fl ()
      | V (St (sz, s, b, off)) ->
          let ps = read_int ~which:0 s in
          let pb = if b = H.gsp then H.gsp else read_int ~which:1 b in
          emit (H.St (sz, ps, pb, off))
      | V (Cmov (d, cnd, s)) -> (
          (* d is read-modify-write *)
          match asg.int_loc.(d) with
          | Phys pd ->
              let pc = read_int ~which:0 cnd in
              let ps = read_int ~which:1 s in
              emit (H.Cmov (pd, pc, ps))
          | Spill slot ->
              (* all three operands may be spilled; expand to a branch so
                 that only one scratch is live at a time *)
              let pc = read_int ~which:1 cnd in
              let l = fresh_label () in
              emit (H.Jz (pc, l));
              let ps = read_int ~which:0 s in
              emit (H.St (8, ps, H.gsp, int_slot_off slot));
              emit (H.Label l))
      | V (Falu (op, d, s1, s2)) ->
          let p1 = read_int ~which:0 s1 in
          let p2 = read_int ~which:1 s2 in
          let pd, fl = write_int d in
          emit (H.Falu (op, pd, p1, p2));
          fl ()
      | V (Fun1 (op, d, s)) ->
          let ps = read_int s in
          let pd, fl = write_int d in
          emit (H.Fun1 (op, pd, ps));
          fl ()
      | V (Vld (d, b, off)) ->
          let pb = if b = H.gsp then H.gsp else read_int b in
          let pd, fl = write_vec d in
          emit (H.Vld (pd, pb, off));
          fl ()
      | V (Vst (s, b, off)) ->
          let ps = read_vec s in
          let pb = if b = H.gsp then H.gsp else read_int b in
          emit (H.Vst (ps, pb, off))
      | V (Vmov (d, s)) ->
          let ps = read_vec s in
          let pd, fl = write_vec d in
          if pd <> ps then emit (H.Vmov (pd, ps));
          fl ()
      | V (Valu (op, d, s1, s2)) ->
          let p1 = read_vec ~which:0 s1 in
          let p2 = read_vec ~which:1 s2 in
          let pd, fl = write_vec d in
          (* the interpreter reads both sources before writing, so pd may
             alias p1 (both the scratch) safely *)
          emit (H.Valu (op, pd, p1, p2));
          fl ()
      | V (Vnot (d, s)) ->
          let ps = read_vec s in
          let pd, fl = write_vec d in
          emit (H.Vnot (pd, ps));
          fl ()
      | V (Vsplat32 (d, s)) ->
          let ps = read_int s in
          let pd, fl = write_vec d in
          emit (H.Vsplat32 (pd, ps));
          fl ()
      | V (Vpack (d, hi, lo)) ->
          let phi = read_int ~which:0 hi in
          let plo = read_int ~which:1 lo in
          let pd, fl = write_vec d in
          emit (H.Vpack (pd, phi, plo));
          fl ()
      | V (Vunpack (d, s, half)) ->
          let ps = read_vec s in
          let pd, fl = write_int d in
          emit (H.Vunpack (pd, ps, half));
          fl ()
      | V (Call _) -> invalid_arg "Regalloc.apply: raw Call in input"
      | V (Jz (cnd, l)) ->
          let pc = read_int cnd in
          emit (H.Jz (pc, l))
      | V (Jnz (cnd, l)) ->
          let pc = read_int cnd in
          emit (H.Jnz (pc, l))
      | V (Jmp l) -> emit (H.Jmp l)
      | V (Label l) -> emit (H.Label l)
      | V (ExitIf (cnd, ek, dest)) ->
          let pc = read_int cnd in
          emit (H.ExitIf (pc, ek, dest))
      | V (Goto (ek, s)) ->
          let ps = read_int s in
          emit (H.Goto (ek, ps))
      | V (GotoI (ek, dest)) -> emit (H.GotoI (ek, dest))
      | VCall { callee; args; dst } ->
          (* parallel-move the arguments into h0..h(n-1) *)
          let n = List.length args in
          if n > List.length H.arg_regs then
            invalid_arg "too many helper arguments";
          let moves =
            List.mapi (fun i a -> (i, asg.int_loc.(a))) args
            |> List.filter (fun (i, src) -> src <> Phys i)
          in
          (* iterative parallel move; use scratch to break cycles *)
          let pending = ref moves in
          let progress = ref true in
          while !pending <> [] && !progress do
            progress := false;
            let ready, blocked =
              List.partition
                (fun (dst, _) ->
                  not
                    (List.exists
                       (fun (d2, src2) ->
                         d2 <> dst && src2 = Phys dst)
                       !pending))
                !pending
            in
            if ready <> [] then begin
              progress := true;
              List.iter
                (fun (d, src) ->
                  match src with
                  | Phys p -> mov_int d p
                  | Spill s -> emit (H.Ld (8, false, d, H.gsp, int_slot_off s)))
                ready;
              pending := blocked
            end
            else begin
              (* cycle: rotate through scratch *)
              match !pending with
              | (d, Phys p) :: rest ->
                  emit (H.Mov (H.scratch, p));
                  (* anything that wanted p now reads scratch *)
                  pending :=
                    (d, Phys H.scratch)
                    :: List.map
                         (fun (d2, s2) ->
                           if s2 = Phys p then (d2, Phys H.scratch) else (d2, s2))
                         rest;
                  progress := true
              | _ -> assert false
            end
          done;
          emit (H.Call (callee.c_id, n, callee.c_cost));
          (match dst with
          | None -> ()
          | Some d -> (
              match asg.int_loc.(d) with
              | Phys p -> mov_int p H.ret_reg
              | Spill s -> emit (H.St (8, H.ret_reg, H.gsp, int_slot_off s)))))
    code;
  List.rev !out

(** Run allocation and rewriting in one step. *)
let run (code : vinsn list) ~(n_int : int) ~(n_vec : int)
    ~(next_label : int ref) : H.insn list =
  apply code (allocate code ~n_int ~n_vec) ~next_label
