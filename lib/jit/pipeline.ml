(** The complete eight-phase translation pipeline (paper §3.7).

    {v
    1. Disassembly*         machine code   -> tree IR     (core)
    2. Optimisation 1       tree IR        -> flat IR     (core)
    3. Instrumentation      flat IR        -> flat IR     (tool)
    4. Optimisation 2       flat IR        -> flat IR     (core)
    5. Tree building        flat IR        -> tree IR     (core)
    6. Instruction selection* tree IR      -> vreg insns  (core)
    7. Register allocation  vreg insns     -> host insns  (core)
    8. Assembly*            host insns     -> machine code(core)
    v}

    Phases marked * are architecture-specific.  The instrumentation
    callback is supplied by the tool plug-in (via the core); everything
    else is the core's. *)

type instrument = Vex_ir.Ir.block -> Vex_ir.Ir.block

(** Optional phase-boundary verification hooks (VEX's [sanityCheckIRSB],
    generalised to every representation).  The pipeline itself always
    runs the cheap flatness/typing checks; a [checks] record — normally
    built by [Verify.pipeline_checks] — adds the heavyweight verifiers:
    SSA and def-before-use discipline, effect-skeleton preservation,
    vcode and regalloc dataflow checks, and the assemble→decode
    round-trip.  Hooks signal problems by raising; the pipeline calls
    them at the boundary named by the field and does not catch.

    The contract on typing: the pipeline runs
    [Vex_ir.Typecheck.check_flat] on opt1's, the tool's and (when it
    runs) opt2's output, raising [Translation_failure] on an ill-typed or
    non-flat block, {e before} it calls [ck_flat], [ck_instrumented] and
    [ck_opt2].  Those three hooks may therefore take their block as
    well-typed and flat and need not typecheck it again.  Anything that
    calls the hooks outside the pipeline must typecheck first
    ([Verify.check_all] does).  [ck_tree] and [ck_treebuilt] get no such
    guarantee. *)
type checks = {
  ck_tree : Vex_ir.Ir.block -> unit;  (** after phase 1 (disassembly) *)
  ck_flat : Vex_ir.Ir.block -> unit;  (** after phase 2 (opt1) *)
  ck_instrumented : pre:Vex_ir.Ir.block -> post:Vex_ir.Ir.block -> unit;
      (** after phase 3; [pre] is the uninstrumented block *)
  ck_opt2 : pre:Vex_ir.Ir.block -> post:Vex_ir.Ir.block -> unit;
      (** after phase 4 *)
  ck_treebuilt : pre:Vex_ir.Ir.block -> post:Vex_ir.Ir.block -> unit;
      (** after phase 5 *)
  ck_vcode :
    Isel.vinsn list -> n_int:int -> n_vec:int -> n_label:int -> unit;
      (** after phase 6 *)
  ck_hcode : Host.Arch.insn list -> unit;  (** after phase 7 *)
  ck_bytes : hcode:Host.Arch.insn list -> bytes:Bytes.t -> unit;
      (** after phase 8 *)
}

(** Run [a]'s hook then [b]'s at every boundary (e.g. the verifiers
    composed with a fault injector's forced failures). *)
let compose_checks (a : checks) (b : checks) : checks =
  {
    ck_tree = (fun x -> a.ck_tree x; b.ck_tree x);
    ck_flat = (fun x -> a.ck_flat x; b.ck_flat x);
    ck_instrumented =
      (fun ~pre ~post ->
        a.ck_instrumented ~pre ~post;
        b.ck_instrumented ~pre ~post);
    ck_opt2 =
      (fun ~pre ~post ->
        a.ck_opt2 ~pre ~post;
        b.ck_opt2 ~pre ~post);
    ck_treebuilt =
      (fun ~pre ~post ->
        a.ck_treebuilt ~pre ~post;
        b.ck_treebuilt ~pre ~post);
    ck_vcode =
      (fun v ~n_int ~n_vec ~n_label ->
        a.ck_vcode v ~n_int ~n_vec ~n_label;
        b.ck_vcode v ~n_int ~n_vec ~n_label);
    ck_hcode = (fun h -> a.ck_hcode h; b.ck_hcode h);
    ck_bytes =
      (fun ~hcode ~bytes ->
        a.ck_bytes ~hcode ~bytes;
        b.ck_bytes ~hcode ~bytes);
  }

(** Which pipeline produced a translation (tiered JIT).

    - [Tier_quick]: the cheap tier-0 quick-translate for cold blocks.
      The shared front end (disassembly, opt1, instrumentation) runs
      unchanged — so the tool instruments exactly the IR it would see in
      the optimizing tier and the event stream is bit-identical — but
      phases 4 and 5 are skipped (identity transforms) and the back end
      template-emits host code straight from the flat instrumented IR.
    - [Tier_full]: the eight-phase optimizing pipeline.
    - [Tier_super]: a trace superblock — several chained-hot guest
      blocks stitched into one region and run through the full pipeline,
      so the optimizer and the instrumenters see across the original
      block boundaries. *)
type tier = Tier_quick | Tier_full | Tier_super

let tier_name = function
  | Tier_quick -> "tier0"
  | Tier_full -> "full"
  | Tier_super -> "super"

(** A finished translation. *)
type translation = {
  t_guest_addr : int64;  (** guest address this was translated from *)
  t_code : Bytes.t;  (** assembled host machine code *)
  t_decoded : Host.Arch.insn array;  (** decoded-once cache of [t_code] *)
  t_guest_insns : int;  (** guest instructions covered *)
  t_guest_bytes : int;  (** guest bytes covered *)
  t_guest_ranges : (int64 * int) list;  (** covered [addr,len) ranges *)
  t_smc_check : bool;  (** prepend a self-hash check when executing *)
  t_code_hash : int64;  (** hash of the original guest bytes (for SMC) *)
  t_ir_stmts_pre : int;  (** flat statements before instrumentation *)
  t_ir_stmts_post : int;  (** after instrumentation + opt2 *)
  t_exits : chain_slot array;  (** chainable (constant-target) exit sites *)
  t_exit_index : chain_slot option array;
      (** [t_exits] indexed by [cs_index]: entry [i] is the chain slot
          whose exit instruction is [t_decoded.(i)], if any.  Shares the
          slot records with [t_exits], so patching through either view is
          seen by both. *)
  t_phase_cycles : int array;
      (** JIT cycles attributed to each of the eight phases under the
          VH64 cost model; {!translation_cost} is their sum *)
  t_tier : tier;  (** which pipeline produced this translation *)
  t_constituents : int64 list;
      (** guest start addresses of the blocks this translation covers:
          [[t_guest_addr]] for ordinary translations, the stitched path
          (head first) for superblocks *)
  mutable t_hotness : int;
      (** executions of this translation (bumped by the session) *)
  mutable t_no_promote : bool;
      (** set when a promotion attempt failed (e.g. under fault
          injection) so the session does not retry every execution *)
  mutable t_dead : bool;
      (** retired: removed from the translation table but possibly still
          referenced by a core's fast-lookup cache or last-exit record.
          Readers must treat a dead translation as a miss; the retire
          list frees it at the next scheduler epoch boundary. *)
  mutable t_epoch : int;
      (** translation-table epoch this translation was published in
          (stamped by [Transtab.insert]); retirement is deferred until
          the epoch has advanced past every possible reader *)
  mutable t_core : int;
      (** simulated core that requested this translation (ownership tag
          for per-core JIT attribution; stamped by the session) *)
}

(** A chainable exit site: a host exit instruction whose guest target is
    a compile-time constant.  The paper's Valgrind deliberately returns
    to the dispatcher on every such exit (§3.9); with chaining enabled
    the core patches [cs_next] so control transfers straight to the
    successor translation.  The slot is the unit the translation table's
    reverse chain index tracks — when the successor is evicted or
    discarded, every slot pointing at it is unlinked (set back to
    [None]) so no stale jump survives. *)
and chain_slot = {
  cs_index : int;  (** index of the exit insn in [t_decoded] *)
  cs_target : int64;  (** the constant guest destination *)
  cs_kind : Host.Arch.exit_kind;
  mutable cs_next : translation option;  (** patched successor, if any *)
  mutable cs_hot : int;
      (** chained transfers taken through this slot; drives trace
          superblock formation *)
}

let n_phases = 8

(** Phase names, indexed by phase number - 1; used for metric names,
    trace events and reports, so keep them short and stable. *)
let phase_names =
  [|
    "disassembly"; "opt1"; "instrument"; "opt2"; "treebuild"; "isel";
    "regalloc"; "assembly";
  |]

(** Cycle cost charged for making one translation (the JIT itself runs
    on the host CPU; D&R "will probably translate code more slowly" —
    this surfaces in total cycle counts for short runs).  The total is
    the sum of the per-phase attribution computed by
    [translate_phases], so per-phase cycles always add up exactly to
    the JIT cycles the session charges. *)
let translation_cost (t : translation) =
  Array.fold_left ( + ) 0 t.t_phase_cycles

(* Exit kinds eligible for chaining: plain transfers.  Syscalls, client
   requests, yields and faults must return to the core between blocks. *)
let chainable_ek (ek : Host.Arch.exit_kind) =
  ek = Host.Arch.ek_boring || ek = Host.Arch.ek_call || ek = Host.Arch.ek_ret

(** Scan decoded host code for chainable exit sites (constant-target
    exits of plain jump kinds). *)
let chain_slots_of (code : Host.Arch.insn array) : chain_slot array =
  let slots = ref [] in
  Array.iteri
    (fun i insn ->
      match insn with
      | Host.Arch.ExitIf (_, ek, dest) when chainable_ek ek ->
          slots :=
            {
              cs_index = i;
              cs_target = dest;
              cs_kind = ek;
              cs_next = None;
              cs_hot = 0;
            }
            :: !slots
      | Host.Arch.GotoI (ek, dest) when chainable_ek ek ->
          slots :=
            {
              cs_index = i;
              cs_target = dest;
              cs_kind = ek;
              cs_next = None;
              cs_hot = 0;
            }
            :: !slots
      | _ -> ())
    code;
  Array.of_list (List.rev !slots)

(** Dense index of [slots] keyed by [cs_index], for O(1) lookup from the
    instruction index the executor reports. *)
let exit_index_of (decoded : Host.Arch.insn array) (slots : chain_slot array)
    : chain_slot option array =
  let n =
    Array.fold_left
      (fun n s -> max n (s.cs_index + 1))
      (Array.length decoded) slots
  in
  let index = Array.make n None in
  Array.iter (fun s -> index.(s.cs_index) <- Some s) slots;
  index

(** Reference O(n) lookup over [t_exits]; kept as the specification the
    indexed {!find_chain_slot} is tested against. *)
let find_chain_slot_scan (t : translation) (idx : int) : chain_slot option =
  let n = Array.length t.t_exits in
  let rec go i =
    if i >= n then None
    else if t.t_exits.(i).cs_index = idx then Some t.t_exits.(i)
    else go (i + 1)
  in
  go 0

(** The chain slot whose exit instruction sits at [idx] in [t_decoded]
    (the index {!Host.Interp.run} reports), if that exit is chainable.
    O(1): a direct lookup in [t_exit_index]. *)
let find_chain_slot (t : translation) (idx : int) : chain_slot option =
  if idx < 0 || idx >= Array.length t.t_exit_index then None
  else t.t_exit_index.(idx)

(* FNV-1a over the guest bytes a translation was made from.  Unfetchable
   bytes (a block ending in undecodable unmapped memory) hash as zero. *)
let hash_guest_bytes (fetch : int64 -> int) (ranges : (int64 * int) list) :
    int64 =
  let h = ref 0xCBF29CE484222325L in
  List.iter
    (fun (addr, len) ->
      for i = 0 to len - 1 do
        let b =
          try fetch (Int64.add addr (Int64.of_int i)) with Aspace.Fault _ -> 0
        in
        h := Int64.mul (Int64.logxor !h (Int64.of_int b)) 0x100000001B3L
      done)
    ranges;
  !h

(** Extract the guest address ranges covered by a block's IMarks. *)
let imark_ranges (b : Vex_ir.Ir.block) : (int64 * int) list =
  let ranges = ref [] in
  Support.Vec.iter
    (fun s ->
      match s with
      | Vex_ir.Ir.IMark (a, l) -> ranges := (a, l) :: !ranges
      | _ -> ())
    b.stmts;
  List.rev !ranges

exception Translation_failure of string

(** Intermediate results of each phase, for inspection/printing (the
    bench harness regenerates the paper's Figures 1–3 from these). *)
type phases = {
  p_tree : Vex_ir.Ir.block;  (** after phase 1 *)
  p_flat : Vex_ir.Ir.block;  (** after phase 2 *)
  p_instrumented : Vex_ir.Ir.block;  (** after phase 3 *)
  p_opt2 : Vex_ir.Ir.block;  (** after phase 4 *)
  p_treebuilt : Vex_ir.Ir.block;  (** after phase 5 *)
  p_vcode : Isel.vinsn list;  (** after phase 6 *)
  p_n_int : int;  (** int vreg count declared by isel *)
  p_n_vec : int;  (** vec vreg count declared by isel *)
  p_n_label : int;  (** label count declared by isel *)
  p_hcode : Host.Arch.insn list;  (** after phase 7 *)
  p_bytes : Bytes.t;  (** after phase 8 *)
}

(* The VH64 JIT cost model: each phase's cycles are proportional to the
   size of the representation it consumes and produces (all sizes are
   deterministic functions of the guest code and the tool, so JIT cycle
   accounting replays bit-identically).  The per-insn/per-stmt weights
   are in rough ratio to the phases' costs in VEX: the optimiser passes
   and register allocation dominate. *)
let phase_cycle_model ~(guest_insns : int) ~(guest_bytes : int)
    ~(tree_stmts : int) ~(flat_stmts : int) ~(instr_stmts : int)
    ~(opt2_stmts : int) ~(treebuilt_stmts : int) ~(vcode_len : int)
    ~(hcode_len : int) ~(code_bytes : int) : int array =
  [|
    (14 * guest_insns) + (2 * guest_bytes);  (* 1: disassembly *)
    6 * (tree_stmts + flat_stmts);  (* 2: optimisation 1 *)
    4 * instr_stmts;  (* 3: instrumentation plumbing *)
    7 * (instr_stmts + opt2_stmts);  (* 4: optimisation 2 *)
    3 * (opt2_stmts + treebuilt_stmts);  (* 5: tree building *)
    9 * vcode_len;  (* 6: instruction selection *)
    11 * hcode_len;  (* 7: register allocation *)
    2 * code_bytes;  (* 8: assembly *)
  |]

(* The tier-0 cost model: only decode, instrumentation hooks and
   assembly are paid (the copy-and-annotate economics of lib/caa).
   Phase 2 is charged as a single flattening walk over the tree — the
   quick tier still *runs* the full opt1 so the tool instruments
   exactly the IR the optimizing tier would hand it (event-stream
   parity across promotion), but a real quick tier would only flatten,
   and the deterministic cost model prices that.  Phases 4 and 5 are
   identity transforms and cost nothing; the back end is a template
   emitter — no tree matching over rebuilt expressions, no
   coalescing-quality allocation — charged far below the optimizing
   weights.  Quick code is longer, so the bigger vcode/hcode/byte
   counts claw some of that back honestly. *)
let quick_phase_cycle_model ~(guest_insns : int) ~(guest_bytes : int)
    ~(tree_stmts : int) ~(flat_stmts : int) ~(instr_stmts : int)
    ~(vcode_len : int) ~(hcode_len : int) ~(code_bytes : int) : int array =
  ignore flat_stmts;
  [|
    (14 * guest_insns) + (2 * guest_bytes);  (* 1: disassembly *)
    2 * tree_stmts;  (* 2: flattening walk only *)
    4 * instr_stmts;  (* 3: instrumentation plumbing *)
    0;  (* 4: optimisation 2 skipped *)
    0;  (* 5: tree building skipped *)
    vcode_len;  (* 6: template instruction selection *)
    hcode_len;  (* 7: single-pass linear-scan allocation *)
    2 * code_bytes;  (* 8: assembly *)
  |]

(** Run the pipeline over an already-disassembled [tree], returning
    every intermediate result.  This is the shared body of
    {!translate_phases} (which disassembles one guest block) and the
    superblock path (which stitches several).  [tier] selects the
    pipeline: [Tier_quick] keeps the front end (so the tool instruments
    exactly the IR the optimizing tier would hand it) but makes phases 4
    and 5 identity transforms — every boundary check still fires, with
    [pre == post] at the skipped phases, so verification and fault
    injection cover the quick tier with no special cases. *)
let translate_tree ?(unroll = true) ?(checks : checks option)
    ?(tier = Tier_full) ?(constituents : int64 list option)
    ~(fetch : int64 -> int) ~(instrument : instrument)
    ((tree, stats) : Vex_ir.Ir.block * Disasm.stats) (guest_addr : int64) :
    phases * translation =
  let ck f = match checks with None -> () | Some c -> f c in
  ck (fun c -> c.ck_tree tree);
  (* 2: optimisation 1 *)
  let flat = Opt.opt1 ~unroll tree in
  let pre_stmts = Support.Vec.length flat.stmts in
  (try Vex_ir.Typecheck.check_flat flat
   with Vex_ir.Typecheck.Ill_typed m ->
     raise (Translation_failure ("phase 2 output ill-typed: " ^ m)));
  ck (fun c -> c.ck_flat flat);
  (* 3: instrumentation (tool) *)
  let instrumented = instrument (Vex_ir.Ir.copy_block flat) in
  (try Vex_ir.Typecheck.check_flat instrumented
   with Vex_ir.Typecheck.Ill_typed m ->
     raise (Translation_failure ("instrumented IR ill-typed: " ^ m)));
  ck (fun c -> c.ck_instrumented ~pre:flat ~post:instrumented);
  (* 4: optimisation 2; 5: tree building — identity in the quick tier *)
  let opt2, treebuilt =
    match tier with
    | Tier_quick ->
        ck (fun c -> c.ck_opt2 ~pre:instrumented ~post:instrumented);
        ck (fun c -> c.ck_treebuilt ~pre:instrumented ~post:instrumented);
        (instrumented, instrumented)
    | Tier_full | Tier_super ->
        let opt2 = Opt.opt2 instrumented in
        (try Vex_ir.Typecheck.check_flat opt2
         with Vex_ir.Typecheck.Ill_typed m ->
           raise (Translation_failure ("phase 4 output ill-typed: " ^ m)));
        ck (fun c -> c.ck_opt2 ~pre:instrumented ~post:opt2);
        let treebuilt = Treebuild.build opt2 in
        ck (fun c -> c.ck_treebuilt ~pre:opt2 ~post:treebuilt);
        (opt2, treebuilt)
  in
  let post_stmts = Support.Vec.length opt2.stmts in
  (* 6: instruction selection *)
  let vcode, n_int, n_vec, n_label =
    try Isel.select treebuilt
    with Isel.Unrepresentable m ->
      raise (Translation_failure ("instruction selection failed: " ^ m))
  in
  ck (fun c -> c.ck_vcode vcode ~n_int ~n_vec ~n_label);
  (* 7: register allocation *)
  let next_label = ref n_label in
  let hcode =
    try Regalloc.run vcode ~n_int ~n_vec ~next_label
    with Regalloc.Out_of_spill_slots ->
      raise
        (Translation_failure "register allocation failed: out of spill slots")
  in
  ck (fun c -> c.ck_hcode hcode);
  (* 8: assembly *)
  let bytes = Host.Encode.assemble hcode in
  ck (fun c -> c.ck_bytes ~hcode ~bytes);
  let ranges = imark_ranges tree in
  let decoded = Host.Encode.decode bytes in
  let exits = chain_slots_of decoded in
  let phase_cycles =
    match tier with
    | Tier_quick ->
        quick_phase_cycle_model ~guest_insns:stats.guest_insns
          ~guest_bytes:stats.guest_bytes
          ~tree_stmts:(Support.Vec.length tree.stmts)
          ~flat_stmts:pre_stmts
          ~instr_stmts:(Support.Vec.length instrumented.stmts)
          ~vcode_len:(List.length vcode) ~hcode_len:(List.length hcode)
          ~code_bytes:(Bytes.length bytes)
    | Tier_full | Tier_super ->
        phase_cycle_model ~guest_insns:stats.guest_insns
          ~guest_bytes:stats.guest_bytes
          ~tree_stmts:(Support.Vec.length tree.stmts)
          ~flat_stmts:pre_stmts
          ~instr_stmts:(Support.Vec.length instrumented.stmts)
          ~opt2_stmts:post_stmts
          ~treebuilt_stmts:(Support.Vec.length treebuilt.stmts)
          ~vcode_len:(List.length vcode) ~hcode_len:(List.length hcode)
          ~code_bytes:(Bytes.length bytes)
  in
  let t =
    {
      t_guest_addr = guest_addr;
      t_code = bytes;
      t_decoded = decoded;
      t_guest_insns = stats.guest_insns;
      t_guest_bytes = stats.guest_bytes;
      t_guest_ranges = ranges;
      t_smc_check = false;
      t_code_hash = hash_guest_bytes fetch ranges;
      t_ir_stmts_pre = pre_stmts;
      t_ir_stmts_post = post_stmts;
      t_exits = exits;
      t_exit_index = exit_index_of decoded exits;
      t_phase_cycles = phase_cycles;
      t_tier = tier;
      t_constituents =
        (match constituents with Some cs -> cs | None -> [ guest_addr ]);
      t_hotness = 0;
      t_no_promote = false;
      t_dead = false;
      t_epoch = 0;
      t_core = 0;
    }
  in
  ( {
      p_tree = tree;
      p_flat = flat;
      p_instrumented = instrumented;
      p_opt2 = opt2;
      p_treebuilt = treebuilt;
      p_vcode = vcode;
      p_n_int = n_int;
      p_n_vec = n_vec;
      p_n_label = n_label;
      p_hcode = hcode;
      p_bytes = bytes;
    },
    t )

(** Run all eight phases over one guest block, returning every
    intermediate result.  [unroll] controls phase 2's self-loop
    unrolling; [checks] supplies the optional per-boundary verifiers;
    [tier] selects the quick or the optimizing pipeline. *)
let translate_phases ?(unroll = true) ?checks ?(tier = Tier_full) ~fetch
    ~instrument (guest_addr : int64) : phases * translation =
  let tree_stats = Disasm.superblock ~fetch guest_addr in
  translate_tree ~unroll ?checks ~tier ~fetch ~instrument tree_stats
    guest_addr

(** Run all eight phases, returning just the translation. *)
let translate ?(unroll = true) ?checks ?(tier = Tier_full) ~fetch ~instrument
    guest_addr : translation =
  snd (translate_phases ~unroll ?checks ~tier ~fetch ~instrument guest_addr)

(** Stitch the guest blocks along a hot chained [path] into one
    superblock and translate it with the full optimizing pipeline, so
    the optimiser and the tool see across the original block
    boundaries.  Returns [None] when fewer than two blocks stitch (the
    trace is not worth a combined translation); the caller falls back to
    the constituent translations, which stay resident under their own
    keys — a side exit from the superblock simply dispatches into
    them. *)
let translate_trace ?(unroll = true) ?checks ~fetch ~instrument
    (path : int64 list) : translation option =
  match Superblock.build ~fetch path with
  | None -> None
  | Some (tree, stats, stitched) ->
      let head = List.hd stitched in
      Some
        (snd
           (translate_tree ~unroll ?checks ~tier:Tier_super
              ~constituents:stitched ~fetch ~instrument (tree, stats) head))

(** Run the front half of the pipeline only (phases 1–4), returning the
    instrumented, optimised flat IR.  This is the graceful-degradation
    path: when the back end (or a fault injector) refuses a translation,
    the core evaluates this IR directly with {!Vex_ir.Eval.run} — tool
    instrumentation included, so analysis stays sound — instead of
    executing host code.  No boundary checks run here: the block is
    about to be interpreted by the reference evaluator, which is itself
    the oracle the verifiers compare against. *)
let translate_ir ?(unroll = true) ~(fetch : int64 -> int)
    ~(instrument : instrument) (guest_addr : int64) :
    Vex_ir.Ir.block * Disasm.stats =
  let tree, stats = Disasm.superblock ~fetch guest_addr in
  let flat = Opt.opt1 ~unroll tree in
  let instrumented = instrument (Vex_ir.Ir.copy_block flat) in
  let opt2 = Opt.opt2 instrumented in
  (opt2, stats)

(** The identity instrumentation (what Nulgrind passes). *)
let no_instrument : instrument = Fun.id
