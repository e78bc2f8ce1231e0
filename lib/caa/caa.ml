(** A copy-and-annotate (C&A) DBI framework on VG32 — the stand-in for
    Pin/DynamoRIO in the paper's comparisons (§3.5, §5.3, §5.4).

    Where Valgrind disassembles-and-resynthesises, a C&A framework
    copies incoming instructions through verbatim and lets the tool
    attach analysis code guided by per-instruction {e annotations} (an
    instruction-querying API, like Pin's).  Consequences modelled here,
    following the paper:

    - original code stays close to native speed: per-instruction base
      cost is the native cost, plus a small per-trace dispatch cost
      (traces are chained, unlike the paper's Valgrind);
    - condition codes come "for free" — but every inline analysis
      fragment inserted where flags are live must save and restore them
      ([flag_save_cost]), which is what makes {e heavyweight} C&A tools
      degrade;
    - analysis code is written as calls (compiled separately, Pin-style)
      or limited "inlinable" fragments; it is {e less expressive} than
      client code — in particular there are no 128-bit virtual
      registers, so a tool asking to shadow V128 state gets
      [Unsupported] (the Pin limitation §5.3 reports), and FP analysis
      code cannot be written inline at all. *)

open Guest.Arch

exception Unsupported of string

(** What the framework tells a tool about one instruction (the
    annotation / instruction-query API). *)
type ins_info = {
  ii_addr : int64;
  ii_len : int;
  ii_insn : Guest.Arch.insn;
  ii_reads_mem : bool;
  ii_writes_mem : bool;
  ii_mem_size : int;  (** 0 if no memory access *)
  ii_is_branch : bool;
  ii_is_fp : bool;
  ii_is_simd : bool;
  ii_sets_flags : bool;
}

(** Runtime context passed to analysis callbacks. *)
type ctx = {
  cx_regs : int64 array;  (** guest registers, read-only view *)
  cx_addr : int64;  (** effective address of the access, if any *)
  cx_pc : int64;
}

(** Analysis code attached to an instruction. *)
type analysis = {
  an_fn : ctx -> unit;
  an_inline : bool;
      (** inline fragments must be straight-line integer code (no FP, no
          SIMD, no control flow) — the tool asserts this by
          construction; calls may do anything *)
  an_cost : int;  (** cycle cost of the fragment body *)
}

(** A C&A tool: inspects each instruction once (at trace-build time) and
    returns the analysis to attach before it. *)
type tool = {
  t_name : string;
  t_instrument : ins_info -> analysis list;
  t_wants_shadow_v128 : bool;
      (** requesting full 128-bit shadow registers is refused, like Pin *)
  t_fini : (unit -> unit) option;
}

(* cost model *)
let call_overhead = 10 (* spill args, call, return *)
let flag_save_cost = 6 (* pushf/popf around inline analysis when flags live *)
let trace_dispatch_cost = 2 (* chained transfers *)
let trace_build_cost_per_ins = 15

let classify (insn : Guest.Arch.insn) ~addr ~len : ins_info =
  let reads, writes, msz =
    match insn with
    | Ld (w, _, _, _) -> (true, false, (match w with W1 -> 1 | W2 -> 2 | W4 -> 4))
    | St (w, _, _) -> (false, true, (match w with W1 -> 1 | W2 -> 2 | W4 -> 4))
    | Pop _ | Ret -> (true, false, 4)
    | Push _ | Pushi _ | Call _ | Calli _ -> (false, true, 4)
    | Fld _ -> (true, false, 8)
    | Fst _ -> (false, true, 8)
    | Vld _ -> (true, false, 16)
    | Vst _ -> (false, true, 16)
    | _ -> (false, false, 0)
  in
  let is_branch =
    match insn with
    | Jcc _ | Jmp _ | Jmpi _ | Call _ | Calli _ | Ret -> true
    | _ -> false
  in
  let is_fp =
    match insn with
    | Fld _ | Fst _ | Fmovr _ | Fldi _ | Falu _ | Fun1 _ | Fcmp _ | Fitod _
    | Fdtoi _ ->
        true
    | _ -> false
  in
  let is_simd =
    match insn with
    | Vld _ | Vst _ | Vmovr _ | Valu _ | Vsplat _ | Vextr _ -> true
    | _ -> false
  in
  let sets_flags =
    match insn with
    | Alu _ | Alui _ | Cmp _ | Cmpi _ | Test _ | Inc _ | Dec _ | Neg _
    | Fcmp _ ->
        true
    | _ -> false
  in
  {
    ii_addr = addr;
    ii_len = len;
    ii_insn = insn;
    ii_reads_mem = reads;
    ii_writes_mem = writes;
    ii_mem_size = msz;
    ii_is_branch = is_branch;
    ii_is_fp = is_fp;
    ii_is_simd = is_simd;
    ii_sets_flags = sets_flags;
  }

(* effective address of the access an instruction will make, given the
   current register file (computed pre-execution, like an address
   annotation callback would see) *)
let access_addr (st : Guest.Interp.state) (insn : Guest.Arch.insn) : int64 =
  let ea (m : mem) = Guest.Interp.ea st m in
  match insn with
  | Ld (_, _, _, m) | St (_, m, _) | Fld (_, m) | Fst (m, _) | Vld (_, m)
  | Vst (m, _) ->
      ea m
  | Push _ | Pushi _ | Call _ | Calli _ ->
      Support.Bits.trunc32 (Int64.sub st.regs.(reg_sp) 4L)
  | Pop _ | Ret -> st.regs.(reg_sp)
  | _ -> 0L

type engine = {
  native : Native.t;
  tool : tool;
  mutable analysis_cycles : int64;
  mutable overhead_cycles : int64;
  mutable traces_built : int;
  (* per-address cache of (info, analyses, flags_live_here) *)
  icache : (int64, ins_info * analysis list * bool) Hashtbl.t;
}

(** Total simulated cycles (client + analysis + framework overhead). *)
let total_cycles (e : engine) : int64 =
  Int64.add (Native.total_cycles e.native)
    (Int64.add e.analysis_cycles e.overhead_cycles)

let create (image : Guest.Image.t) (tool : tool) : engine =
  if tool.t_wants_shadow_v128 then
    raise
      (Unsupported
         (tool.t_name
        ^ ": this framework has no 128-bit virtual registers (cannot fully \
           shadow SIMD state)"));
  let e =
    {
      native = Native.create image;
      tool;
      analysis_cycles = 0L;
      overhead_cycles = 0L;
      traces_built = 0;
      icache = Hashtbl.create 4096;
    }
  in
  (* the client's clock counts the analysis and framework cycles too *)
  e.native.kern.now_cycles <- (fun () -> total_cycles e);
  e

(* Before the copied-through instruction at [st.eip] runs: the first
   visit decodes, classifies and instruments it, paying the trace-build
   cost; every visit runs the attached analysis, and a branch pays the
   chained dispatch. *)
let before_insn (e : engine) (st : Guest.Interp.state) =
  let charge c = e.analysis_cycles <- Int64.add e.analysis_cycles (Int64.of_int c) in
  let pc = st.eip in
  let info, analyses, flags_live =
    match Hashtbl.find_opt e.icache pc with
    | Some x -> x
    | None ->
        let insn, len = Guest.Decode.decode (Aspace.fetch_u8 e.native.mem) pc in
        let info = classify insn ~addr:pc ~len in
        let analyses = e.tool.t_instrument info in
        List.iter
          (fun a ->
            if a.an_inline && (info.ii_is_fp || info.ii_is_simd) then
              raise
                (Unsupported
                   "inline analysis code cannot use FP/SIMD operations \
                    (write it as a C call)"))
          analyses;
        (* flags-liveness approximation: analysis inserted at an
           instruction inside a flags-live region pays save/restore;
           we approximate "flags live" as: this or the previous
           instruction sets flags (a branch usually follows) *)
        let flags_live = info.ii_sets_flags || info.ii_is_branch in
        e.traces_built <- e.traces_built + 1;
        e.overhead_cycles <-
          Int64.add e.overhead_cycles (Int64.of_int trace_build_cost_per_ins);
        let x = (info, analyses, flags_live) in
        Hashtbl.replace e.icache pc x;
        x
  in
  if analyses <> [] then begin
    let cx =
      {
        cx_regs = st.regs;
        cx_addr =
          (if info.ii_reads_mem || info.ii_writes_mem then
             access_addr st info.ii_insn
           else 0L);
        cx_pc = pc;
      }
    in
    List.iter
      (fun a ->
        a.an_fn cx;
        if a.an_inline then
          charge (a.an_cost + if flags_live then flag_save_cost else 0)
        else charge (call_overhead + a.an_cost))
      analyses
  end;
  if info.ii_is_branch then
    e.overhead_cycles <-
      Int64.add e.overhead_cycles (Int64.of_int trace_dispatch_cost)

(** Run to completion: {!Native.run}, with each instruction's analysis
    run just before it. *)
let run ?max_insns (e : engine) : Native.exit_reason =
  let reason = Native.run ?max_insns ~on_insn:(before_insn e) e.native in
  Option.iter (fun f -> f ()) e.tool.t_fini;
  reason

(* ------------------------------------------------------------------ *)
(* Ready-made comparison tools (§5.4)                                   *)
(* ------------------------------------------------------------------ *)

(** No instrumentation: the C&A "Nulgrind". *)
let tool_none : tool =
  { t_name = "caa-none"; t_instrument = (fun _ -> []); t_wants_shadow_v128 = false;
    t_fini = None }

(** Basic-block / instruction counting with inline code (the lightweight
    tool the paper says Pin/DynamoRIO win at). *)
let tool_icount () : tool * int64 ref =
  let counter = ref 0L in
  ( {
      t_name = "caa-icount";
      t_instrument =
        (fun _info ->
          [ { an_fn = (fun _ -> counter := Int64.add !counter 1L);
              an_inline = true; an_cost = 3 } ]);
      t_wants_shadow_v128 = false;
      t_fini = None;
    },
    counter )

(** The 30-line memory tracer (paper §5.1's Pin-vs-Valgrind tool-writing
    comparison; contrast with {!Tools.Lackey}). *)
let tool_memtrace () : tool * int64 ref * int64 ref =
  let loads = ref 0L and stores = ref 0L in
  ( {
      t_name = "caa-memtrace";
      t_instrument =
        (fun info ->
          if info.ii_reads_mem then
            [ { an_fn = (fun _cx -> loads := Int64.add !loads 1L);
                an_inline = true; an_cost = 3 } ]
          else if info.ii_writes_mem then
            [ { an_fn = (fun _cx -> stores := Int64.add !stores 1L);
                an_inline = true; an_cost = 3 } ]
          else []);
      t_wants_shadow_v128 = false;
      t_fini = None;
    },
    loads,
    stores )

(** Byte-level taint tracking on C&A, TaintTrace/LIFT style: integer-only
    (FP/SIMD unhandled — the §5.4 limitation), shadow memory as a flat
    table, analysis as helper calls around memory ops and inline
    register-to-register propagation. *)
let tool_taint () : tool =
  let shadow = Hashtbl.create 4096 in
  let reg_taint = Array.make n_regs false in
  {
    t_name = "caa-taint";
    t_instrument =
      (fun info ->
        if info.ii_is_fp || info.ii_is_simd then
          (* TaintTrace and LIFT "do not handle programs that use FP or
             SIMD code" — we skip such instructions, silently losing
             taint, exactly the unsoundness the paper criticises *)
          []
        else
          match info.ii_insn with
          | Ld (_, _, d, _) ->
              [ { an_fn =
                    (fun cx ->
                      reg_taint.(d) <- Hashtbl.mem shadow cx.cx_addr);
                  an_inline = false; an_cost = 6 } ]
          | St (_, _, s) ->
              [ { an_fn =
                    (fun cx ->
                      if reg_taint.(s) then Hashtbl.replace shadow cx.cx_addr ()
                      else Hashtbl.remove shadow cx.cx_addr);
                  an_inline = false; an_cost = 6 } ]
          | Mov (d, s) ->
              [ { an_fn = (fun _ -> reg_taint.(d) <- reg_taint.(s));
                  an_inline = true; an_cost = 2 } ]
          | Movi (d, _) ->
              [ { an_fn = (fun _ -> reg_taint.(d) <- false);
                  an_inline = true; an_cost = 2 } ]
          | Alu (_, d, s) ->
              [ { an_fn = (fun _ -> reg_taint.(d) <- reg_taint.(d) || reg_taint.(s));
                  an_inline = true; an_cost = 3 } ]
          | Alui (_, _, _) | Inc _ | Dec _ | Neg _ | Not _ -> []
          | _ -> [])
      ;
    t_wants_shadow_v128 = false;
    t_fini = None;
  }

(** A Memcheck-class tool is not constructible: it needs full 128-bit
    shadow registers.  This value exists so tests can demonstrate the
    refusal (paper §5.3: "there are no 128-bit virtual registers, so
    128-bit SIMD registers cannot be fully shadowed, which would prevent
    some tools (e.g. Memcheck) from working fully"). *)
let tool_memcheck_like : tool =
  {
    t_name = "caa-memcheck";
    t_instrument = (fun _ -> []);
    t_wants_shadow_v128 = true;
    t_fini = None;
  }
