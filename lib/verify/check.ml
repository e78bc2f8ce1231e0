(** Vglint: static verification of every JIT phase boundary.

    The paper's Valgrind sanity-checks IR between phases with
    [sanityCheckIRSB]; this library extends the idea to all eight phases
    of our pipeline plus a tool-instrumentation linter, packaged as a
    {!Jit.Pipeline.checks} record that {!Jit.Pipeline.translate} calls at
    each boundary:

    - phase 1 (disasm): tree-IR well-formedness ({!Ircheck.check_tree});
    - phase 2 (opt1): single assignment, def-before-use and canonical
      constants ({!Ircheck.check_ssa});
    - phase 3 (instrument): the same, plus the {!Lint} rules over the
      tool's declared shadow ranges;
    - phase 4 (opt2): effect-skeleton subsequence ({!Ircheck.check_opt2});
    - phase 5 (treebuild): effect-skeleton equality
      ({!Ircheck.check_treebuild});
    - phase 6 (isel): vreg/operand/label sanity ({!Vcheck.check});
    - phase 7 (regalloc): host-register dataflow, spill-slot discipline
      and encodability ({!Hcheck.check});
    - phase 8 (assemble): decode round-trip equality ({!Asmcheck.check}).

    All checkers raise {!Verr.Error} on failure.

    Typing and flatness of the phase 2, 3 and 4 blocks are the
    pipeline's: it typechecks each one just before the hook (the contract
    on {!Jit.Pipeline.checks}), so those hooks check SSA discipline and
    constants only, and {!check_all} typechecks in the pipeline's
    place. *)

let phase2 = "phase 2 (opt1)"
let phase3 = "phase 3 (instrument)"
let phase4 = "phase 4 (opt2)"

(** Build the per-boundary check record for one translation.

    [shadow] is the tool's declared shadow-state ranges (absolute
    ThreadState offsets), used by the phase-3 lints.  [on_check] is
    called with a short phase tag at every boundary, before its check
    runs (for counters), the skipped tier-0 identity checks included.
    By default a lint violation raises {!Verr.Error} like any other
    check; pass [on_lint] to collect violations instead. *)
let pipeline_checks ?(shadow : (int * int) list = [])
    ?(on_check : string -> unit = fun _ -> ())
    ?(on_lint : (Lint.violation list -> unit) option) () :
    Jit.Pipeline.checks =
  {
    ck_tree =
      (fun b ->
        on_check "tree";
        Ircheck.check_tree ~phase:"phase 1 (disasm)" b);
    ck_flat =
      (fun b ->
        on_check "flat";
        Ircheck.check_ssa ~phase:phase2 b);
    ck_instrumented =
      (fun ~pre ~post ->
        on_check "instrument";
        Ircheck.check_ssa ~phase:phase3 post;
        let violations = Lint.check ~shadow ~pre ~post in
        match on_lint with
        | Some f -> f violations
        | None -> (
            match violations with
            | [] -> ()
            | v :: _ ->
                Verr.fail phase3 "[%s] %s" v.Lint.v_rule
                  v.Lint.v_msg));
    (* Phases 4 and 5 are identities at tier 0, which passes [pre == post]:
       the block phase 3 has just checked.  Re-running the SSA check
       on it and comparing its effect skeleton with itself would prove
       nothing more, so only the counter sees those boundaries. *)
    ck_opt2 =
      (fun ~pre ~post ->
        on_check "opt2";
        if pre != post then Ircheck.check_opt2 ~pre ~post);
    ck_treebuilt =
      (fun ~pre ~post ->
        on_check "treebuild";
        if pre != post then Ircheck.check_treebuild ~pre ~post);
    ck_vcode =
      (fun code ~n_int ~n_vec ~n_label ->
        on_check "isel";
        Vcheck.check code ~n_int ~n_vec ~n_label);
    ck_hcode =
      (fun code ->
        on_check "regalloc";
        Hcheck.check code);
    ck_bytes =
      (fun ~hcode ~bytes ->
        on_check "assemble";
        Asmcheck.check ~hcode ~bytes);
  }

(** Run every boundary check over a completed {!Jit.Pipeline.phases}
    record, in phase order.  Used by the mutation harness and tests to
    verify intermediate results after the fact (or after tampering).
    Where the pipeline typechecks a block before its hook (phases 2, 3
    and, when opt2 ran, 4), this does too, under that boundary's tag,
    so a tampered block is judged as a session would judge it. *)
let check_all ?shadow ?on_check ?on_lint (p : Jit.Pipeline.phases) : unit =
  let c = pipeline_checks ?shadow ?on_check ?on_lint () in
  let typecheck phase b =
    Ircheck.typecheck phase Vex_ir.Typecheck.check_flat b
  in
  c.ck_tree p.p_tree;
  typecheck phase2 p.p_flat;
  c.ck_flat p.p_flat;
  typecheck phase3 p.p_instrumented;
  c.ck_instrumented ~pre:p.p_flat ~post:p.p_instrumented;
  if p.p_opt2 != p.p_instrumented then typecheck phase4 p.p_opt2;
  c.ck_opt2 ~pre:p.p_instrumented ~post:p.p_opt2;
  c.ck_treebuilt ~pre:p.p_opt2 ~post:p.p_treebuilt;
  c.ck_vcode p.p_vcode ~n_int:p.p_n_int ~n_vec:p.p_n_vec
    ~n_label:p.p_n_label;
  c.ck_hcode p.p_hcode;
  c.ck_bytes ~hcode:p.p_hcode ~bytes:p.p_bytes
