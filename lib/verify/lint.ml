(** Tool-instrumentation lints (the static side of phase 3).

    A tool's [instrument] receives flat IR and may only {e add} analysis
    code around it: shadow-state PUTs inside the tool's declared shadow
    ranges, helper calls, and client-memory loads/stores.  Given the
    block before and after instrumentation and the tool's declared shadow
    ranges, these lints flag phase-3 output that

    - drops, reorders or invents {e architectural} guest-state PUTs
      (offsets below [Guest.Arch.shadow_offset]) — rule [arch-puts];
    - writes guest state at or above the shadow base outside the tool's
      declared shadow ranges — rule [shadow-range];
    - adds Dirty helper calls whose declared RdFX/WrFX guest-state
      effects are malformed (empty or out of the ThreadState's guest
      area) or clobber architectural state — rule [helper-fx];
    - declares a memory effect ([Mfx_read]/[Mfx_write]) with a
      non-positive size — rule [mfx].

    The rules are exact for the instrumentation style all in-tree tools
    use (statement insertion, never rewriting of architectural effects),
    so a violation is a real tool bug, not noise. *)

open Vex_ir.Ir
module DF = Dataflow
module GA = Guest.Arch

type violation = { v_rule : string; v_msg : string }

let v rule fmt = Fmt.kstr (fun m -> { v_rule = rule; v_msg = m }) fmt

(* The index of the first architectural PUT (offset below the shadow
   base) at or after statement [i] of [b], or the statement count. *)
let rec next_arch_put (b : block) i =
  if i >= Support.Vec.length b.stmts then i
  else
    match Support.Vec.get b.stmts i with
    | Put (off, _) when off < GA.shadow_offset -> i
    | _ -> next_arch_put b (i + 1)

let put_offset (b : block) i =
  match Support.Vec.get b.stmts i with Put (off, _) -> off | _ -> -1

let put_size (b : block) i =
  match Support.Vec.get b.stmts i with
  | Put (_, e) -> size_of_ty (type_of b e)
  | _ -> 0

(* [arch-puts]: the instrumented block must preserve the architectural
   PUT sequence exactly — tools insert, they do not rewrite.  Walks both
   blocks' PUTs in lockstep; [item] counts the PUTs matched so far.
   Reports the first difference only. *)
let rec arch_puts ~pre ~post item i j : violation option =
  let i = next_arch_put pre i and j = next_arch_put post j in
  let pre_end = i >= Support.Vec.length pre.stmts
  and post_end = j >= Support.Vec.length post.stmts in
  if pre_end && post_end then None
  else if post_end then
    Some
      (v "arch-puts" "instrumentation dropped architectural PUT(%d,%d) (item %d)"
         (put_offset pre i) (put_size pre i) item)
  else if pre_end then
    Some
      (v "arch-puts" "instrumentation added architectural PUT(%d,%d) (item %d)"
         (put_offset post j) (put_size post j) item)
  else
    let o1 = put_offset pre i and s1 = put_size pre i in
    let o2 = put_offset post j and s2 = put_size post j in
    if o1 = o2 && s1 = s2 then arch_puts ~pre ~post (item + 1) (i + 1) (j + 1)
    else
      Some
        (v "arch-puts" "architectural PUT %d changed: (%d,%d) became (%d,%d)"
           item o1 s1 o2 s2)

(* Is [c] (by identity or by name) one of [callees]? *)
let rec named_in (c : callee) = function
  | [] -> false
  | c' :: rest -> c' == c || String.equal c'.c_name c.c_name || named_in c rest

(** Lint one instrumentation step.  [shadow] is the tool's declared
    shadow ranges ([(offset, size)], absolute ThreadState offsets).
    Returns all violations found (empty = clean): the architectural-PUT
    difference first, then the shadow-range violations, then the
    helper-effect ones, each in statement order. *)
let check ~(shadow : (int * int) list) ~(pre : block) ~(post : block) :
    violation list =
  (* callees the uninstrumented block already calls: not the tool's *)
  let pre_callees =
    Support.Vec.fold
      (fun acc s -> match s with Dirty d -> d.d_callee :: acc | _ -> acc)
      [] pre.stmts
  in
  (* callees whose declared effects are known to be clean: the block's
     own, and tool helpers already validated in this block *)
  let clean = ref [] in
  let shadow_out = ref [] and helper_out = ref [] in
  Support.Vec.iteri
    (fun i s ->
      match s with
      | Put (off, e) when off >= GA.shadow_offset ->
          (* [shadow-range]: every PUT at/above the shadow base must fall
             inside a declared shadow range *)
          let sz = size_of_ty (type_of post e) in
          if not (DF.covered_by (off, sz) shadow) then
            shadow_out :=
              v "shadow-range"
                "stmt %d: PUT(%d,%d) outside the tool's declared shadow \
                 ranges"
                i off sz
              :: !shadow_out
      | Dirty d ->
          (* [mfx] / [helper-fx]: effect declarations on tool-added Dirty
             calls *)
          (match d.d_mfx with
          | Mfx_read (_, n) | Mfx_write (_, n) ->
              if n <= 0 then
                helper_out :=
                  v "mfx" "stmt %d: Dirty %s declares a memory effect of size %d"
                    i d.d_callee.c_name n
                  :: !helper_out
          | Mfx_none -> ());
          let c = d.d_callee in
          if not (List.memq c !clean) then
            if named_in c pre_callees then clean := c :: !clean
            else begin
              let before = !helper_out in
              let emit x = helper_out := x :: !helper_out in
              let check_range what allow_arch (o, sz) =
                if sz <= 0 then
                  emit
                    (v "helper-fx" "stmt %d: helper %s declares %s(%d,%d)" i
                       c.c_name what o sz)
                else if o < 0 || o + sz > GA.state_size then
                  emit
                    (v "helper-fx"
                       "stmt %d: helper %s declares %s(%d,%d) outside the \
                        guest state [0,%d)"
                       i c.c_name what o sz GA.state_size)
                else if
                  (not allow_arch)
                  && o < GA.shadow_offset
                  && not (DF.covered_by (o, sz) shadow)
                then
                  emit
                    (v "helper-fx"
                       "stmt %d: helper %s declares %s(%d,%d) clobbering \
                        architectural guest state"
                       i c.c_name what o sz)
              in
              List.iter (check_range "RdFX" true) c.c_fx_reads;
              List.iter (check_range "WrFX" false) c.c_fx_writes;
              if !helper_out == before then clean := c :: !clean
            end
      | _ -> ())
    post.stmts;
  let tail = List.rev_append !shadow_out (List.rev !helper_out) in
  match arch_puts ~pre ~post 0 0 0 with Some x -> x :: tail | None -> tail
