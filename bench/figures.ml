(** Regenerate the paper's Figures 1–3 (§3.6, §3.7): disassembly of a
    guest block into tree IR, Memcheck-instrumented flat IR, and
    register allocation before/after — on the VG32 analogue of the
    paper's three-instruction x86 example:

    {v
    0x24F275:  movl -16180(%ebx,%eax,4),%eax  ->  ldw r0, [r3+r0*4-16180]
    0x24F27C:  addl %ebx,%eax                 ->  add r0, r3
    0x24F27E:  jmp*l %eax                     ->  jmp* r0
    v} *)

(* the paper's block, at the paper's address *)
let example_src =
  {|
        .text
        .global _start
_start: ldw r0, [r3+r0*4-16180]
        add r0, r3
        jmp* r0
|}

let example_image () =
  Guest.Asm.assemble ~text_base:0x24F275L example_src

(* A Memcheck session prepared far enough to give us its instrumenter. *)
let memcheck_session (img : Guest.Image.t) =
  let s = Vg_core.Session.create ~tool:Tools.Memcheck.tool img in
  Vg_core.Session.startup s;
  s

let phases_with ~instrument (s : Vg_core.Session.t) =
  let fetch a = Aspace.fetch_u8 s.mem a in
  Jit.Pipeline.translate_phases ~fetch ~instrument 0x24F275L

let fig1 () =
  Harness.section
    "Figure 1: Disassembly — machine code -> tree IR (phase 1)";
  let img = example_image () in
  let s = memcheck_session img in
  let ph, _ = phases_with ~instrument:Jit.Pipeline.no_instrument s in
  Printf.printf "Guest code at 0x24F275 (the paper's example, in VG32):\n";
  Printf.printf "  0x24F275: ldw r0, [r3+r0*4-16180]\n";
  Printf.printf "  0x24F27C: add r0, r3\n";
  Printf.printf "  0x24F27E: jmp* r0\n\n";
  Printf.printf "Tree IR (unoptimised, %d statements):\n\n"
    (Support.Vec.length ph.p_tree.stmts);
  Format.printf "%a@." Vex_ir.Pp.pp_block ph.p_tree;
  Printf.printf
    "\nAfter optimisation phase 2 (flattening, redundant GET/PUT\n\
     elimination, copy/const propagation, dead code — note the removed\n\
     eip PUTs, kept only where a memory exception could observe them):\n\n";
  Format.printf "%a@." Vex_ir.Pp.pp_block ph.p_flat

let fig2 () =
  Harness.section
    "Figure 2: Memcheck-instrumented flat IR (phase 3 + phase 4)";
  let img = example_image () in
  let s = memcheck_session img in
  (* pre-instrumentation statement counts come from an uninstrumented run *)
  let ph0, _ = phases_with ~instrument:Jit.Pipeline.no_instrument s in
  let instr = Vg_core.Session.instrument_fn s in
  let ph, _ = phases_with ~instrument:instr s in
  let pre = Support.Vec.length ph0.p_flat.stmts in
  let mid = Support.Vec.length ph.p_instrumented.stmts in
  let post = Support.Vec.length ph.p_opt2.stmts in
  Printf.printf
    "Statements: %d before instrumentation, %d after Memcheck+stack-events\n\
     instrumentation, %d after optimisation phase 4.\n\
     (Paper: Memcheck's instrumented block went 48 -> 18 after opt2;\n\
     most added statements are shadow operations.)\n\n"
    pre mid post;
  Printf.printf "Instrumented and re-optimised IR:\n\n";
  Format.printf "%a@." Vex_ir.Pp.pp_block ph.p_opt2

let fig3 () =
  Harness.section
    "Figure 3: Register allocation — before (virtual regs) and after";
  let img = example_image () in
  let s = memcheck_session img in
  let instr = Vg_core.Session.instrument_fn s in
  let ph, _ = phases_with ~instrument:instr s in
  let pp_insn =
    Host.Arch.pp_insn_with ~helper:(Vex_ir.Helpers.name s.henv.he_table)
  in
  Printf.printf
    "Instruction selection output (virtual registers %%hNN, NN >= 16):\n\n";
  List.iter
    (fun vi ->
      match vi with
      | Jit.Isel.V i -> Format.printf "    %a@." pp_insn i
      | Jit.Isel.VCall { callee; args; dst } ->
          Format.printf "    call %s(%s)%s@." callee.Vex_ir.Ir.c_name
            (String.concat "," (List.map (Printf.sprintf "%%h%d") args))
            (match dst with Some d -> Printf.sprintf " -> %%h%d" d | None -> ""))
    ph.p_vcode;
  Printf.printf
    "\nAfter linear-scan allocation (phase 7; note coalesced moves and\n\
     the GSP %%h15 as the ThreadState base):\n\n";
  List.iter (fun i -> Format.printf "    %a@." pp_insn i) ph.p_hcode;
  Printf.printf "\nAssembled size: %d bytes of VH64 code for %d guest bytes.\n"
    (Bytes.length ph.p_bytes) 9
