(** Mutation validation for the phase-boundary verifiers.

    The only way to trust a verifier is to show it catching real bugs:
    this harness compiles a small guest corpus through the full pipeline
    under a representative shadow-state tool, then injects seeded
    miscompile bugs into individual intermediate results — a dropped PUT,
    a register-allocator assignment lost, a wrong shift width, a stale
    branch label, a corrupted byte — and asserts that re-running the
    checks reports each one {e at the earliest boundary that can see it}.
    A mutation that slips through every check is a verifier hole; the
    tier-1 [verify] tests fail on any such escape. *)

open Vex_ir.Ir
module H = Host.Arch
module GA = Guest.Arch
module P = Jit.Pipeline

(* ------------------------------------------------------------------ *)
(* Corpus: a guest program exercising shifts, flags, branches, memory  *)
(* and a loop, instrumented by a mini shadow-state tool                *)
(* ------------------------------------------------------------------ *)

(* Register values at block entry are unknown to the JIT, so the shifts
   below survive constant folding and reach the back end. *)
let corpus_src =
  {|
_start: shl r0, 2
        shr r1, r0
        mov r3, r1
        add r3, r0
        cmp r3, 960
        jne over
        sub r3, 1
over:   dec r2
        cmp r2, 0
        jne over
        jmp done
done:   jmp done
|}

(** The shadow ranges our mini-tool declares: the full per-register
    shadow bank, like memcheck's V-bits. *)
let shadow = [ (GA.shadow_offset, GA.guest_state_used) ]

(* A representative tool instrumenter: per instruction it calls a helper
   that declares an eip read (like an error-reporting helper) and writes
   one shadow location.  Exercises the Dirty and shadow-PUT lint paths
   the way the real tools do.  Nothing runs the code, so its helpers go
   into throwaway tables. *)
let h_note =
  lazy
    (Vex_ir.Helpers.register (Jit.Ghelpers.table ())
       ~fx_reads:[ (GA.off_eip, 4) ]
       ~name:"vglint_note" ~cost:2
       (fun _env _args -> 0L))

let instrument (b : block) : block =
  let nb = empty_like b in
  Support.Vec.iter
    (fun s ->
      add_stmt nb s;
      match s with
      | IMark _ ->
          add_stmt nb (dirty (Lazy.force h_note) []);
          add_stmt nb (Put (GA.shadow_offset, i32 1L))
      | _ -> ())
    b.stmts;
  nb

let fetch_of (img : Guest.Image.t) (a : int64) : int =
  Char.code (Bytes.get img.text (Int64.to_int (Int64.sub a img.text_addr)))

let compile () : P.phases =
  let img = Guest.Asm.assemble corpus_src in
  fst (P.translate_phases ~fetch:(fetch_of img) ~instrument img.entry)

(* The same corpus through the tier-0 quick pipeline: phases 4 and 5 are
   identity transforms there, but every boundary check still fires, so a
   bug seeded into any quick-tier result must be caught just like in the
   optimizing tier. *)
let compile_quick () : P.phases =
  let img = Guest.Asm.assemble corpus_src in
  fst
    (P.translate_phases ~tier:P.Tier_quick ~fetch:(fetch_of img) ~instrument
       img.entry)

(* And through the superblock path: the entry block stitched with the
   [over] loop block (the conditional edge gets inverted), then the full
   optimizing pipeline over the combined region. *)
let compile_super () : P.phases =
  let img = Guest.Asm.assemble corpus_src in
  let fetch = fetch_of img in
  let over =
    match List.assoc_opt "over" img.symbols with
    | Some a -> a
    | None -> invalid_arg "mutate: corpus lost its 'over' label"
  in
  match Jit.Superblock.build ~fetch [ img.entry; over ] with
  | None -> invalid_arg "mutate: corpus path did not stitch"
  | Some (tree, stats, stitched) ->
      fst
        (P.translate_tree ~tier:P.Tier_super ~constituents:stitched ~fetch
           ~instrument (tree, stats) (List.hd stitched))

(* ------------------------------------------------------------------ *)
(* Block / listing surgery                                             *)
(* ------------------------------------------------------------------ *)

let with_stmts (b : block) (f : stmt list -> stmt list) : block =
  let nb = empty_like b in
  List.iter (add_stmt nb) (f (stmts b));
  nb

(* drop the first statement matching [p] (assert it exists) *)
let drop_first p ss =
  let rec go = function
    | [] -> invalid_arg "mutate: no statement to drop"
    | s :: tl -> if p s then tl else s :: go tl
  in
  go ss

(* rewrite the first statement matching [p] via [f] *)
let rewrite_first p f ss =
  let rec go = function
    | [] -> invalid_arg "mutate: no statement to rewrite"
    | s :: tl -> if p s then f s :: tl else s :: go tl
  in
  go ss

let int_reads : H.insn -> int list = function
  | H.Mov (_, s) -> [ s ]
  | H.Alu (_, _, _, s1, s2) -> [ s1; s2 ]
  | H.Alui (_, _, _, s1, _) -> [ s1 ]
  | H.Ld (_, _, _, b, _) -> [ b ]
  | H.St (_, s, b, _) -> [ s; b ]
  | H.Cmov (d, c, s) -> [ d; c; s ]
  | H.Vld (_, b, _) | H.Vst (_, b, _) -> [ b ]
  | H.Vsplat32 (_, s) -> [ s ]
  | H.Vpack (_, hi, lo) -> [ hi; lo ]
  | H.Jz (c, _) | H.Jnz (c, _) -> [ c ]
  | H.ExitIf (c, _, _) -> [ c ]
  | H.Goto (_, s) -> [ s ]
  | _ -> []

let int_writes : H.insn -> int list = function
  | H.Movi (d, _) | H.Mov (d, _) -> [ d ]
  | H.Alu (_, _, d, _, _) | H.Alui (_, _, d, _, _) -> [ d ]
  | H.Ld (_, _, d, _, _) -> [ d ]
  | H.Cmov (d, _, _) -> [ d ]
  | H.Vunpack (d, _, _) -> [ d ]
  | H.Call _ -> [ H.ret_reg ]
  | _ -> []

(* Find an instruction that is the *first* definition of a register read
   downstream before any redefinition — deleting it leaves a read of a
   never-assigned register for the regalloc checker to find.  (Deleting
   a later redefinition would be invisible to def-before-use analysis:
   the register would merely hold a stale value.) *)
let find_live_def (code : H.insn array) : int =
  let n = Array.length code in
  let live_after i r =
    let rec scan j =
      if j >= n then false
      else if List.mem r (int_reads code.(j)) then true
      else if List.mem r (int_writes code.(j)) then false
      else scan (j + 1)
    in
    scan (i + 1)
  in
  let seen = Hashtbl.create 16 in
  let rec go i =
    if i >= n then invalid_arg "mutate: no live defining instruction"
    else
      let first_def =
        match int_writes code.(i) with
        | [ r ]
          when r <> H.gsp && (not (Hashtbl.mem seen r)) && live_after i r ->
            true
        | _ -> false
      in
      if first_def then i
      else begin
        List.iter (fun r -> Hashtbl.replace seen r ()) (int_writes code.(i));
        go (i + 1)
      end
  in
  go 0

(* first int vreg defined anywhere in a vcode listing *)
let some_defined_vreg (code : Jit.Isel.vinsn list) : int =
  let found = ref (-1) in
  List.iter
    (fun vi ->
      if !found < 0 then
        match vi with
        | Jit.Isel.V i -> (
            match int_writes i with
            | [ r ] when r >= H.n_hregs -> found := r
            | _ -> ())
        | Jit.Isel.VCall { dst = Some d; _ } -> found := d
        | _ -> ())
    code;
  if !found < 0 then invalid_arg "mutate: no int vreg defined" else !found

(* a label no instruction of [code] defines *)
let fresh_label (code : H.insn list) : int =
  1 + List.fold_left (fun m i -> match i with H.Label l -> max m l | _ -> m) 0 code

(* ------------------------------------------------------------------ *)
(* The seeded bugs                                                     *)
(* ------------------------------------------------------------------ *)

type mutation = {
  m_name : string;
  m_expect : string;  (** earliest boundary that must catch it, e.g. "phase 5" *)
  m_shadow : (int * int) list;  (** shadow ranges to lint against *)
  m_apply : P.phases -> P.phases;
}

let mutations : mutation list =
  [
    {
      m_name = "use-before-def";
      m_expect = "phase 2";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* reference a temporary before the statement defining it *)
          let t =
            Support.Vec.fold
              (fun acc s ->
                match (acc, s) with
                | None, WrTmp (t, _) when tmp_ty p.p_flat t = I32 ->
                    Some t
                | _ -> acc)
              None p.p_flat.stmts
            |> Option.get
          in
          {
            p with
            p_flat =
              with_stmts p.p_flat (fun ss ->
                  Put (GA.off_sp, RdTmp t) :: ss);
          });
    };
    {
      m_name = "wrong-shift-width";
      m_expect = "phase 2";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* the classic miscompile: a 32-bit shift lowered as 64-bit *)
          {
            p with
            p_flat =
              with_stmts p.p_flat
                (rewrite_first
                   (function
                     | WrTmp (_, Binop (Shl32, _, _)) -> true | _ -> false)
                   (function
                     | WrTmp (t, Binop (Shl32, a, b)) ->
                         WrTmp (t, Binop (Shl64, a, b))
                     | s -> s));
          });
    };
    {
      m_name = "assign-out-of-range-tmp";
      m_expect = "phase 2";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* an assignment to a temporary the type environment lacks *)
          let t = Support.Vec.length p.p_flat.tyenv + 5 in
          {
            p with
            p_flat = with_stmts p.p_flat (fun ss -> ss @ [ WrTmp (t, i32 0L) ]);
          });
    };
    {
      m_name = "tool-clobbers-arch-state";
      m_expect = "phase 3";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* instrumentation inventing an architectural register write *)
          {
            p with
            p_instrumented =
              with_stmts p.p_instrumented (fun ss ->
                  ss @ [ Put (GA.off_reg 0, i32 0L) ]);
          });
    };
    {
      m_name = "tool-undeclared-shadow-write";
      m_expect = "phase 3";
      m_shadow = [];  (* the tool "forgot" to declare its shadow ranges *)
      m_apply = (fun p -> p);
    };
    {
      m_name = "tool-bad-helper-fx";
      m_expect = "phase 3";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* a helper declaring a guest-state write beyond the state *)
          let evil =
            Vex_ir.Helpers.register (Jit.Ghelpers.table ())
              ~fx_writes:[ (GA.state_size + 100, 4) ]
              ~name:"vglint_evil" ~cost:1
              (fun _env _args -> 0L)
          in
          {
            p with
            p_instrumented =
              with_stmts p.p_instrumented (fun ss ->
                  ss @ [ dirty evil [] ]);
          });
    };
    {
      m_name = "duplicate-assignment";
      m_expect = "phase 4";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* an optimiser bug duplicating a temp definition *)
          let def =
            Support.Vec.fold
              (fun acc s ->
                match (acc, s) with
                | None, WrTmp _ -> Some s
                | _ -> acc)
              None p.p_opt2.stmts
            |> Option.get
          in
          { p with p_opt2 = with_stmts p.p_opt2 (fun ss -> ss @ [ def ]) });
    };
    {
      m_name = "nonflat-opt2";
      m_expect = "phase 4";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* folding producing a nested (non-flat) expression *)
          {
            p with
            p_opt2 =
              with_stmts p.p_opt2
                (rewrite_first
                   (function
                     | WrTmp (t, _) -> tmp_ty p.p_opt2 t = I32
                     | _ -> false)
                   (function
                     | WrTmp (t, rhs) ->
                         WrTmp (t, Unop (Not32, Unop (Not32, rhs)))
                     | s -> s));
          });
    };
    {
      m_name = "dropped-put";
      m_expect = "phase 5";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* tree building silently losing a guest-state write *)
          {
            p with
            p_treebuilt =
              with_stmts p.p_treebuilt
                (drop_first (function Put _ -> true | _ -> false));
          });
    };
    {
      m_name = "vreg-out-of-range";
      m_expect = "phase 6";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* the selector emitting a register it never allocated *)
          let d = some_defined_vreg p.p_vcode in
          {
            p with
            p_vcode =
              p.p_vcode @ [ Jit.Isel.V (H.Mov (d, p.p_n_int + 50)) ];
          });
    };
    {
      m_name = "vcall-arity";
      m_expect = "phase 6";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* more helper arguments than the ABI has registers *)
          let r = some_defined_vreg p.p_vcode in
          let args = List.init (List.length H.arg_regs + 1) (fun _ -> r) in
          {
            p with
            p_vcode =
              p.p_vcode
              @ [
                  Jit.Isel.VCall
                    {
                      callee = Lazy.force h_note;
                      args;
                      dst = None;
                    };
                ];
          });
    };
    {
      m_name = "vreg-use-before-def";
      m_expect = "phase 6";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* an in-range vreg read before the instruction defining it *)
          let r = some_defined_vreg p.p_vcode in
          {
            p with
            p_vcode = Jit.Isel.V (H.ExitIf (r, H.ek_boring, 0L)) :: p.p_vcode;
          });
    };
    {
      m_name = "regalloc-lost-def";
      m_expect = "phase 7";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* the allocator losing an assignment: delete a defining
             instruction whose register is read downstream *)
          let code = Array.of_list p.p_hcode in
          let i = find_live_def code in
          {
            p with
            p_hcode =
              List.filteri (fun j _ -> j <> i) p.p_hcode;
          });
    };
    {
      m_name = "regalloc-clobber-gsp";
      m_expect = "phase 7";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          { p with p_hcode = H.Movi (H.gsp, 0L) :: p.p_hcode });
    };
    {
      m_name = "stale-label";
      m_expect = "phase 7";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* a branch left pointing at a label that no longer exists *)
          { p with p_hcode = H.Jmp 9999 :: p.p_hcode });
    };
    {
      m_name = "spill-load-before-store";
      m_expect = "phase 7";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* a reload from a spill slot nothing was spilled to *)
          let slot = H.spill_base_int + (8 * (H.spill_slots_int - 1)) in
          { p with p_hcode = H.Ld (8, false, 0, H.gsp, slot) :: p.p_hcode });
    };
    {
      m_name = "def-on-one-path";
      m_expect = "phase 7";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* %h2 written only on the fall-through side of a diamond, then
             read after the join: undefined on the branch path *)
          let l = fresh_label p.p_hcode in
          {
            p with
            p_hcode =
              [
                H.Movi (1, 0L);
                H.Jz (1, l);
                H.Movi (2, 1L);
                H.Label l;
                H.ExitIf (2, H.ek_boring, 0L);
              ]
              @ p.p_hcode;
          });
    };
    {
      m_name = "spill-on-one-path";
      m_expect = "phase 7";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* the same diamond for the last int spill slot: stored on one
             path, reloaded after the join *)
          let l = fresh_label p.p_hcode in
          let slot = H.spill_base_int + (8 * (H.spill_slots_int - 1)) in
          {
            p with
            p_hcode =
              [
                H.Movi (1, 0L);
                H.Jz (1, l);
                H.St (8, 1, H.gsp, slot);
                H.Label l;
                H.Ld (8, false, 2, H.gsp, slot);
              ]
              @ p.p_hcode;
          });
    };
    {
      m_name = "read-after-call-clobber";
      m_expect = "phase 7";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* a caller-saved register assumed to survive a helper call *)
          {
            p with
            p_hcode =
              [
                H.Movi (3, 0L);
                H.Call (0, 0, 1);
                H.ExitIf (3, H.ek_boring, 0L);
              ]
              @ p.p_hcode;
          });
    };
    {
      m_name = "corrupted-byte";
      m_expect = "phase 8";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          let bytes = Bytes.copy p.p_bytes in
          let last = Bytes.length bytes - 1 in
          Bytes.set bytes last
            (Char.chr (Char.code (Bytes.get bytes last) lxor 0xFF));
          { p with p_bytes = bytes });
    };
    {
      m_name = "truncated-code";
      m_expect = "phase 8";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* the code block cut off inside its last instruction *)
          let len = Bytes.length p.p_bytes in
          { p with p_bytes = Bytes.sub p.p_bytes 0 (len - 2) });
    };
    {
      m_name = "branch-into-insn";
      m_expect = "phase 8";
      m_shadow = shadow;
      m_apply =
        (fun p ->
          (* a jump appended whose byte target lands inside the first
             instruction (the jump's 32-bit target follows its opcode) *)
          let jmp = Host.Encode.assemble [ H.Jmp 0; H.Label 0 ] in
          Bytes.set_int32_le jmp 1 1l;
          { p with p_bytes = Bytes.cat p.p_bytes jmp });
    };
  ]

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_name : string;
  o_expect : string;  (** the boundary that should catch it *)
  o_phase : string option;  (** the boundary that did, if any *)
  o_msg : string;  (** the verifier's message (or why it escaped) *)
  o_caught : bool;  (** caught at exactly the expected boundary *)
}

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let run_one (base : P.phases) (m : mutation) : outcome =
  match
    let p = m.m_apply base in
    Check.check_all ~shadow:m.m_shadow p
  with
  | () ->
      {
        o_name = m.m_name;
        o_expect = m.m_expect;
        o_phase = None;
        o_msg = "escaped every check";
        o_caught = false;
      }
  | exception Verr.Error { ve_phase; ve_msg } ->
      {
        o_name = m.m_name;
        o_expect = m.m_expect;
        o_phase = Some ve_phase;
        o_msg = ve_msg;
        o_caught = starts_with ~prefix:m.m_expect ve_phase;
      }

(** Compile the corpus through all three pipelines — optimizing,
    tier-0 quick and superblock — verify each clean build passes every
    check (no false positives), then run every seeded mutation against
    each.  Outcome names are prefixed with the pipeline they were seeded
    into. *)
let run () : outcome list =
  let bases =
    [
      ("full", compile ());
      ("tier0", compile_quick ());
      ("super", compile_super ());
    ]
  in
  List.concat_map
    (fun (tag, base) ->
      (* the unmutated build must be clean — a false positive here would
         invalidate the whole exercise *)
      Check.check_all ~shadow base;
      List.map
        (fun m ->
          let o = run_one base m in
          { o with o_name = tag ^ ":" ^ o.o_name })
        mutations)
    bases
