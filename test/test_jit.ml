(* JIT tests.

   The centrepiece is a differential fuzzer: random guest programs are run
   to completion on the native reference interpreter and under the
   Valgrind engine (translated through all eight JIT phases and executed
   on the simulated host CPU), and the full architectural state each
   program dumps at exit must agree bit-for-bit.  This is the
   "verifiability" property §3.5 claims for D&R: any disassembly or
   code-generation bug makes visibly wrong behaviour.

   Plus unit tests for the optimisation passes and the register
   allocator's spill machinery. *)

open Guest.Arch

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Random program generation                                            *)
(* ------------------------------------------------------------------ *)

type gi = I of insn | Skip of cond * int  (* branch over the next k insns *)

let gen_program (rng : Support.Rng.t) : insn list =
  let module R = Support.Rng in
  let n_body = 30 + R.int rng 60 in
  let wreg () = R.int rng 6 (* r0..r5; r6 = data base, r7 = sp *) in
  let rreg () = R.int rng 7 in
  let freg () = R.int rng 4 in
  let vreg () = R.int rng 4 in
  let imm () = Int64.of_int (R.int rng 0x10000 - 0x8000) in
  let disp () = Int64.of_int (4 * R.int rng 200) in
  let mem_bi base index scale disp = { base = Some base; index = Some (index, scale); disp } in
  let alu () =
    List.nth [ ADD; SUB; AND; OR; XOR; SHL; SHR; SAR; MUL ] (R.int rng 9)
  in
  let cond () =
    List.nth [ Ceq; Cne; Clts; Cles; Cgts; Cges; Cltu; Cleu; Cgtu; Cgeu; Cs; Cns ]
      (R.int rng 12)
  in
  let falu () = List.nth [ FADD; FSUB; FMUL; FMIN; FMAX ] (R.int rng 5) in
  let valu () =
    List.nth [ VAND; VOR; VXOR; VADD32; VSUB32; VCMPEQ32; VADD8; VSUB8 ]
      (R.int rng 8)
  in
  let body = ref [] in
  let emit i = body := i :: !body in
  for _ = 1 to n_body do
    match R.int rng 25 with
    | 0 | 1 -> emit (I (Movi (wreg (), imm ())))
    | 2 -> emit (I (Mov (wreg (), rreg ())))
    | 3 | 4 | 5 -> emit (I (Alu (alu (), wreg (), rreg ())))
    | 6 | 7 -> emit (I (Alui (alu (), wreg (), imm ())))
    | 8 ->
        (* division by a guaranteed-nonzero immediate *)
        emit (I (Alui ((if R.bool rng then DIVS else DIVU), wreg (),
                       Int64.of_int (1 + R.int rng 9))))
    | 9 -> emit (I (Ld (W4, Zx, wreg (), mem_b 6 (disp ()))))
    | 10 -> emit (I (St (W4, mem_b 6 (disp ()), rreg ())))
    | 11 -> emit (I (Ld (W1, (if R.bool rng then Sx else Zx), wreg (),
                         mem_b 6 (disp ()))))
    | 12 -> emit (I (Lea (wreg (), mem_bi 6 (R.int rng 6) 4 (disp ()))))
    | 13 -> emit (I (Cmp (rreg (), rreg ())))
    | 14 -> emit (I (Setcc (cond (), wreg ())))
    | 15 -> emit (I (if R.bool rng then Inc (wreg ()) else Dec (wreg ())))
    | 16 -> emit (I (if R.bool rng then Neg (wreg ()) else Not (wreg ())))
    | 17 -> emit (I (Fldi (freg (), float_of_int (R.int rng 1000 - 500) /. 8.0)))
    | 18 -> emit (I (Falu (falu (), freg (), freg ())))
    | 19 -> emit (I (Fitod (freg (), rreg ())))
    | 20 -> emit (I (Fcmp (freg (), freg ())))
    | 21 -> emit (I (Vsplat (vreg (), rreg ())))
    | 22 -> emit (I (Valu (valu (), vreg (), vreg ())))
    | 23 -> (
        (* FP and vector memory traffic *)
        match R.int rng 4 with
        | 0 -> emit (I (Fst (mem_b 6 (disp ()), freg ())))
        | 1 -> emit (I (Fld (freg (), mem_b 6 (disp ()))))
        | 2 -> emit (I (Vst (mem_b 6 (disp ()), vreg ())))
        | _ -> emit (I (Vld (vreg (), mem_b 6 (disp ())))))
    | _ -> emit (Skip (cond (), 1 + R.int rng 3))
  done;
  let body = List.rev !body in
  (* prologue: deterministic initial values *)
  let prologue =
    List.concat
      [
        List.init 6 (fun r -> I (Movi (r, Int64.of_int ((r * 1234567) + 17))));
        List.init 4 (fun f -> I (Fldi (f, float_of_int f +. 0.5)));
        [ I (Movi (5, 3L)) ];
        List.init 4 (fun v -> I (Vsplat (v, v + 1)));
        (* r6 = data base, patched below via a symbolic value *)
      ]
  in
  (* epilogue: dump everything to [r6], then exit(0) *)
  let dump =
    List.concat
      [
        List.init 6 (fun r -> I (St (W4, mem_b 6 (Int64.of_int (3200 + (4 * r))), r)));
        List.init 4 (fun f ->
            I (Fst (mem_b 6 (Int64.of_int (3232 + (8 * f))), f)));
        List.init 4 (fun v ->
            I (Vst (mem_b 6 (Int64.of_int (3280 + (16 * v))), v)));
        (* dump the flags by materialising every condition *)
        [ I (Setcc (Ceq, 0)); I (St (W4, mem_b 6 3360L, 0));
          I (Setcc (Clts, 0)); I (St (W4, mem_b 6 3364L, 0));
          I (Setcc (Cltu, 0)); I (St (W4, mem_b 6 3368L, 0));
          I (Setcc (Cs, 0)); I (St (W4, mem_b 6 3372L, 0)) ];
        [ I (Movi (0, 1L)); I (Movi (1, 0L)); I Syscall ];
      ]
  in
  let all = prologue @ body @ dump in
  (* resolve Skip markers to absolute Jcc targets *)
  let text_base = Guest.Image.default_text_base in
  (* first pass: addresses. every gi has a fixed encoded length *)
  let len_of = function
    | I i -> Guest.Encode.length i
    | Skip _ -> Guest.Encode.length (Jcc (Ceq, 0L))
  in
  let addrs = Array.make (List.length all) 0L in
  let _ =
    List.fold_left
      (fun (i, a) gi ->
        addrs.(i) <- a;
        (i + 1, Int64.add a (Int64.of_int (len_of gi))))
      (0, text_base) all
  in
  let end_addr =
    match List.length all with
    | 0 -> text_base
    | n -> Int64.add addrs.(n - 1) (Int64.of_int (len_of (List.nth all (n - 1))))
  in
  List.mapi
    (fun i gi ->
      match gi with
      | I insn -> insn
      | Skip (c, k) ->
          let tgt = if i + 1 + k < Array.length addrs then addrs.(i + 1 + k) else end_addr in
          Jcc (c, tgt))
    all

let image_of_insns (insns : insn list) : Guest.Image.t =
  let buf = Support.Buf.create ~capacity:1024 () in
  (* r6 must point at the data segment; emit that first *)
  let text_base = Guest.Image.default_text_base in
  (* the data base depends on text length; iterate once to fix point *)
  let encode data_base =
    let b = Support.Buf.create ~capacity:1024 () in
    Guest.Encode.emit b (Movi (6, data_base));
    List.iter (Guest.Encode.emit b) insns;
    b
  in
  let tentative = encode 0L in
  let text_len = Support.Buf.length tentative + 16 in
  let data_base =
    Aspace.round_up (Int64.add text_base (Int64.of_int text_len))
  in
  let final = encode data_base in
  ignore buf;
  {
    Guest.Image.text_addr = text_base;
    text = Support.Buf.contents final;
    data_addr = data_base;
    data = Bytes.make 4096 '\000';
    bss_len = 0;
    entry = text_base;
    symbols = [ ("_start", text_base) ];
  }

(* [gen_program] resolved branch targets against text_base without the
   image's leading [movi r6, data]; shift them by its length *)
let image_of_program (rng : Support.Rng.t) : Guest.Image.t =
  let movi_len = Guest.Encode.length (Movi (6, 0L)) in
  let insns = gen_program rng in
  (* shift branch targets by movi_len *)
  let insns =
    List.map
      (function
        | Jcc (c, t) -> Jcc (c, Int64.add t (Int64.of_int movi_len))
        | i -> i)
      insns
  in
  image_of_insns insns

(* ------------------------------------------------------------------ *)
(* Differential execution                                               *)
(* ------------------------------------------------------------------ *)

let dump_region (mem : Aspace.t) (data_base : int64) : string =
  Bytes.to_string
    (Aspace.read_bytes mem (Int64.add data_base 3200L) 176)

let run_native_img (img : Guest.Image.t) : string * int =
  let eng = Native.create img in
  match Native.run ~max_insns:1_000_000L eng with
  | Native.Exited n -> (dump_region eng.mem img.data_addr, n)
  | Native.Fatal_signal s -> (Printf.sprintf "signal %d" s, -s)
  | Native.Out_of_fuel -> ("fuel", -999)

let run_vg_img ?(tool = Vg_core.Tool.nulgrind) (img : Guest.Image.t) :
    string * int =
  let opts = { Vg_core.Session.default_options with max_blocks = 500_000L } in
  let s = Vg_core.Session.create ~options:opts ~tool img in
  match Vg_core.Session.run s with
  | Vg_core.Session.Exited n -> (dump_region s.mem img.data_addr, n)
  | Vg_core.Session.Fatal_signal sg -> (Printf.sprintf "signal %d" sg, -sg)
  | Vg_core.Session.Out_of_fuel -> ("fuel", -999)

let hex (s : string) = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.init (String.length s) (String.get s)))

let test_differential_nulgrind () =
  for seed = 1 to 60 do
    let rng = Support.Rng.create seed in
    let img = image_of_program rng in
    let nd, nc = run_native_img img in
    let vd, vc = run_vg_img img in
    if nd <> vd || nc <> vc then
      Alcotest.failf "seed %d: native and nulgrind disagree\nnative: %s (%d)\nvg:     %s (%d)"
        seed (hex nd) nc (hex vd) vc
  done

let test_differential_memcheck () =
  (* Memcheck's heavy instrumentation must not perturb the client *)
  for seed = 100 to 115 do
    let rng = Support.Rng.create seed in
    let img = image_of_program rng in
    let nd, nc = run_native_img img in
    let vd, vc = run_vg_img ~tool:Tools.Memcheck.tool img in
    if nd <> vd || nc <> vc then
      Alcotest.failf "seed %d: native and memcheck disagree" seed
  done

let test_differential_taintgrind () =
  for seed = 200 to 210 do
    let rng = Support.Rng.create seed in
    let img = image_of_program rng in
    let nd, nc = run_native_img img in
    let vd, vc = run_vg_img ~tool:Tools.Taintgrind.tool img in
    if nd <> vd || nc <> vc then
      Alcotest.failf "seed %d: native and taintgrind disagree" seed
  done

(* ------------------------------------------------------------------ *)
(* Optimisation pass unit tests                                         *)
(* ------------------------------------------------------------------ *)

let fetch_of_image (img : Guest.Image.t) (a : int64) : int =
  Char.code (Bytes.get img.text (Int64.to_int (Int64.sub a img.text_addr)))

let count_stmts pred (b : Vex_ir.Ir.block) =
  List.length (List.filter pred (Vex_ir.Ir.stmts b))

let test_opt_removes_redundant_puts () =
  let img =
    Guest.Asm.assemble
      {|
_start: movi r0, 1
        movi r1, 2
        add r0, r1
        add r0, r1
        jmp next
next:   mov r2, r0
        jmp next
|}
  in
  let tree, _ =
    Jit.Disasm.superblock ~fetch:(fetch_of_image img) img.entry
  in
  let flat = Jit.Opt.opt1 tree in
  let is_eip_put = function
    | Vex_ir.Ir.Put (off, _) when off = Guest.Arch.off_eip -> true
    | _ -> false
  in
  let is_ccop_put = function
    | Vex_ir.Ir.Put (off, _) when off = Guest.Arch.off_cc_op -> true
    | _ -> false
  in
  Alcotest.(check bool) "eip puts reduced" true
    (count_stmts is_eip_put flat < count_stmts is_eip_put tree);
  (* the first add's thunk is clobbered by the second: one cc_op put *)
  Alcotest.(check bool) "dead flags thunk removed" true
    (count_stmts is_ccop_put flat < count_stmts is_ccop_put tree)

let test_opt_preserves_semantics () =
  (* run pre-opt and post-opt IR through the evaluator; same result *)
  for seed = 300 to 320 do
    let rng = Support.Rng.create seed in
    let img = image_of_program rng in
    let mem = Aspace.create () in
    let _ = Guest.Image.load img mem in
    let tree, _ =
      Jit.Disasm.superblock ~fetch:(Aspace.fetch_u8 mem) img.entry
    in
    let opt = Jit.Opt.opt1 (Vex_ir.Ir.copy_block tree) in
    let run_block b =
      let mem2 = Aspace.create () in
      let _ = Guest.Image.load img mem2 in
      let guest = Bytes.make 1024 '\000' in
      let env =
        {
          Vex_ir.Helpers.he_get_guest =
            (fun off size ->
              let v = ref 0L in
              for i = size - 1 downto 0 do
                v :=
                  Int64.logor (Int64.shift_left !v 8)
                    (Int64.of_int (Char.code (Bytes.get guest (off + i))))
              done;
              !v);
          he_put_guest =
            (fun off size v ->
              for i = 0 to size - 1 do
                Bytes.set guest (off + i)
                  (Char.chr
                     (Int64.to_int
                        (Int64.logand
                           (Int64.shift_right_logical v (8 * i))
                           0xFFL)))
              done);
          he_load = (fun a sz -> Aspace.read mem2 a sz);
          he_store = (fun a sz v -> Aspace.write mem2 a sz v);
          he_table = Jit.Ghelpers.table ();
        }
      in
      let o = Vex_ir.Eval.run env b in
      (o.next_pc, Bytes.to_string guest)
    in
    let r1 = run_block tree in
    let r2 = run_block opt in
    if r1 <> r2 then Alcotest.failf "seed %d: opt1 changed block semantics" seed
  done

(* ---- constant folding: fold = Eval, and folds are canonical --------- *)

(* Every integer operator the folder can see.  F64/V128 ops are excluded
   on purpose: [fold_op] declines V128 constants and float folding is
   covered by the evaluator equivalence below anyway. *)
let foldable_binops =
  [
    Vex_ir.Ir.Add32; Sub32; Mul32; MulHiS32; DivS32; DivU32; And32; Or32;
    Xor32; Shl32; Shr32; Sar32; CmpEQ32; CmpNE32; CmpLT32S; CmpLE32S;
    CmpLT32U; CmpLE32U; Add64; Sub64; Mul64; And64; Or64; Xor64; Shl64;
    Shr64; Sar64; CmpEQ64; CmpNE64; Cat32x2;
  ]

let foldable_unops =
  [
    Vex_ir.Ir.Not1; Not32; Not64; Neg32; Neg64; U1to32; U8to32; S8to32;
    U16to32; S16to32; U32to64; S32to64; T64to32; T32to8; T32to16; T32to1;
    CmpNEZ8; CmpNEZ32; CmpNEZ64; CmpwNEZ32; CmpwNEZ64; Left32; Left64;
    Clz32; Ctz32;
  ]

let rand_const rng (ty : Vex_ir.Ir.ty) : Vex_ir.Ir.const =
  let open Vex_ir.Ir in
  (* bias toward boundary values: the old folder bug only showed on
     results with bits above 31 (e.g. Neg32 of small positives) *)
  let u64 () =
    match Support.Rng.int rng 4 with
    | 0 -> 0L
    | 1 -> Int64.of_int (Support.Rng.int rng 256)
    | 2 -> Int64.sub (Int64.of_int (Support.Rng.int rng 8)) 4L
    | _ -> Support.Rng.next_u64 rng
  in
  match ty with
  | I1 -> CI1 (Support.Rng.bool rng)
  | I8 -> CI8 (Support.Rng.int rng 256)
  | I16 -> CI16 (Support.Rng.int rng 65536)
  | I32 -> CI32 (Support.Bits.trunc32 (u64 ()))
  | I64 -> CI64 (u64 ())
  | F64 -> CF64 (Support.Rng.float rng)
  | V128 -> CV128 (Support.Rng.int rng 65536)

let const_canonical (c : Vex_ir.Ir.const) : bool =
  match c with
  | Vex_ir.Ir.CI8 v -> v >= 0 && v <= 0xFF
  | CI16 v -> v >= 0 && v <= 0xFFFF
  | CI32 v -> Support.Bits.trunc32 v = v
  | CI1 _ | CI64 _ | CF64 _ | CV128 _ -> true

let test_fold_matches_eval () =
  (* property: whenever the folder replaces an operator over constants
     with a constant, that constant (a) equals what the reference
     evaluator computes for the unfolded expression and (b) is in
     canonical zero-extended form — the invariant ircheck now enforces
     at every flat-IR phase boundary *)
  let open Vex_ir.Ir in
  let rng = Support.Rng.create 4242 in
  let b = new_block () in
  let folded = ref 0 in
  for _ = 1 to 2000 do
    let e =
      if Support.Rng.bool rng then begin
        let op = List.nth foldable_binops
            (Support.Rng.int rng (List.length foldable_binops))
        in
        let tx, ty_, _ = binop_sig op in
        Binop (op, Const (rand_const rng tx), Const (rand_const rng ty_))
      end
      else begin
        let op = List.nth foldable_unops
            (Support.Rng.int rng (List.length foldable_unops))
        in
        let ta, _ = unop_sig op in
        Unop (op, Const (rand_const rng ta))
      end
    in
    match Jit.Opt.fold_op b e with
    | Some (Const c) ->
        incr folded;
        if not (const_canonical c) then
          Alcotest.failf "fold produced non-canonical constant %s"
            (Fmt.str "%a" Vex_ir.Pp.pp_const c);
        let expected =
          match e with
          | Unop (op, Const a) ->
              Vex_ir.Eval.eval_unop op (Vex_ir.Eval.const_value a)
          | Binop (op, Const x, Const y) ->
              Vex_ir.Eval.eval_binop op (Vex_ir.Eval.const_value x)
                (Vex_ir.Eval.const_value y)
          | _ -> assert false
        in
        if Vex_ir.Eval.const_value c <> expected then
          Alcotest.failf "fold diverged from Eval on %s"
            (Fmt.str "%a" Vex_ir.Pp.pp_expr e)
    | Some _ | None -> ()
  done;
  (* the property is vacuous if folding never fires *)
  Alcotest.(check bool)
    (Printf.sprintf "folder exercised (%d folds)" !folded)
    true (!folded > 500)

let test_fold_self_cancelling () =
  (* x - x, x ^ x fold to zero for non-constant atoms, and the folded
     block is Eval-equivalent to the original *)
  let open Vex_ir.Ir in
  let cases =
    [
      (Sub32, I32, CI32 0L); (Xor32, I32, CI32 0L);
      (Sub64, I64, CI64 0L); (Xor64, I64, CI64 0L);
    ]
  in
  List.iter
    (fun (op, ty, zero) ->
      let b = new_block () in
      let t0 = new_tmp b ty in
      add_stmt b (WrTmp (t0, Get (0, ty)));
      add_stmt b (Put (8, Binop (op, RdTmp t0, RdTmp t0)));
      b.next <- i32 0L;
      (* the folder sees through the temp *)
      Alcotest.(check bool) "folds to zero" true
        (Jit.Opt.fold_op b (Binop (op, RdTmp t0, RdTmp t0))
        = Some (Const zero));
      let opt = Jit.Opt.(walk [ constprop_stage ] b) in
      (* Eval-equivalence under an arbitrary guest value *)
      let run blk =
        let guest = Bytes.make 64 '\x00' in
        let env =
          {
            Vex_ir.Helpers.he_get_guest = (fun _ _ -> 0xDEAD_BEEF_CAFEL);
            he_put_guest =
              (fun off size v ->
                for i = 0 to size - 1 do
                  Bytes.set guest (off + i)
                    (Char.chr
                       (Int64.to_int
                          (Int64.logand
                             (Int64.shift_right_logical v (8 * i))
                             0xFFL)))
                done);
            he_load = (fun _ _ -> 0L);
            he_store = (fun _ _ _ -> ());
            he_table = Jit.Ghelpers.table ();
          }
        in
        ignore (Vex_ir.Eval.run env blk);
        Bytes.to_string guest
      in
      Alcotest.(check string) "identity preserves semantics" (run b) (run opt))
    cases

let test_ircheck_rejects_noncanonical () =
  (* the canonical-constant invariant is enforced at phase boundaries:
     a hand-built block smuggling a wide CI32 must be rejected *)
  let open Vex_ir.Ir in
  let b = new_block () in
  add_stmt b (Put (0, Const (CI32 0x1_0000_0001L)));
  b.next <- i32 0L;
  match Verify.Ircheck.check_ssa ~phase:"test" b with
  | () -> Alcotest.fail "non-canonical CI32 accepted"
  | exception Verify.Verr.Error _ -> ()

let test_regalloc_spills () =
  (* more than 13 simultaneously-live integer values forces spilling;
     the result must still be correct *)
  let b = Buffer.create 512 in
  Buffer.add_string b "_start:\n";
  (* build 8 values in registers, spill them via stack... simpler: a
     deep expression chain in guest code cannot exceed 8 guest regs, so
     instead force long live ranges through memcheck's shadow pressure:
     run the mcf workload under memcheck (lots of shadow temps) — if the
     allocator mishandled spills, the differential tests above would
     already fail.  Here, directly test the allocator on synthetic
     vcode. *)
  ignore (Buffer.contents b);
  let open Jit.Isel in
  let open Host.Arch in
  let n = 24 in
  (* v16..v16+n-1 := 1..n; then sum them all *)
  let code =
    List.init n (fun i -> V (Movi (16 + i, Int64.of_int (i + 1))))
    @ [ V (Movi (16 + n, 0L)) ]
    @ List.init n (fun i -> V (Alu (W64, Add, 16 + n, 16 + n, 16 + i)))
    @ [ V (Goto (ek_boring, 16 + n)) ]
  in
  let next_label = ref 0 in
  let hcode = Jit.Regalloc.run code ~n_int:(16 + n + 1) ~n_vec:8 ~next_label in
  let mem = Aspace.create () in
  (* the spill zone lives off the GSP: give it a ThreadState *)
  Aspace.map mem ~addr:0x10000L ~len:Host.Arch.threadstate_size
    ~perm:Aspace.perm_rw;
  let cpu = Host.Interp.create mem in
  Host.Interp.set_hreg cpu Host.Arch.gsp 0x10000L;
  let env =
    {
      Vex_ir.Helpers.he_get_guest = (fun _ _ -> 0L);
      he_put_guest = (fun _ _ _ -> ());
      he_load = (fun _ _ -> 0L);
      he_store = (fun _ _ _ -> ());
      he_table = Jit.Ghelpers.table ();
    }
  in
  let decoded = Host.Encode.decode (Host.Encode.assemble hcode) in
  let _, dest, _ = Host.Interp.run cpu ~env decoded in
  Alcotest.(check int) "sum 1..24 via spilled registers" (n * (n + 1) / 2)
    (Int64.to_int dest)

(* ------------------------------------------------------------------ *)
(* Byte-identical translations over a fixed corpus                      *)
(* ------------------------------------------------------------------ *)

(* The corpus: the statically discovered block starts of the 22 Table-2
   programs at scale 1, under nulgrind and memcheck, each translated at
   tier 0 and by the full pipeline, plus a superblock from each start
   and the start after it where the two stitch.  Every translation runs
   with the verifiers on, as sessions do by default.  The full corpus
   takes several seconds, so it is thinned deterministically to every
   [corpus_stride]-th start. *)
let corpus_stride = 5

let corpus_tools = Tools.Catalog.pick [ "nulgrind"; "memcheck" ]

(* The kept block starts of [img], each paired with the start that
   follows it in the full list. *)
let corpus_starts img =
  let rec keep i = function
    | a :: (b :: _ as tl) ->
        let rest = keep (i + 1) tl in
        if i mod corpus_stride = 0 then (a, Some b) :: rest else rest
    | [ a ] -> if i mod corpus_stride = 0 then [ (a, None) ] else []
    | [] -> []
  in
  keep 0 (Static.Cfg.block_starts (Static.Cfg.scan img))

(* Run [f s ~starts] on a started session per corpus program and tool. *)
let iter_corpus ?(workloads = Workloads.all) ?(tools = corpus_tools) f =
  List.iter
    (fun (w : Workloads.workload) ->
      let img = Workloads.compile ~scale:1 w in
      let starts = corpus_starts img in
      List.iter
        (fun (_, tool) ->
          let s = Vg_core.Session.create ~tool img in
          Vg_core.Session.startup s;
          f s ~starts)
        tools)
    workloads

(* What a corpus translation can legitimately fail with (a start whose
   block runs into undecodable or unmapped bytes). *)
let translation_refused = function
  | Jit.Pipeline.Translation_failure _ | Guest.Decode.Truncated
  | Guest.Decode.Truncated_at _ | Aspace.Fault _ ->
      true
  | _ -> false

let translation_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let ppf = Format.formatter_of_buffer buf in
  let add (t : Jit.Pipeline.translation) =
    Buffer.add_bytes buf t.t_code;
    Array.iter (Format.fprintf ppf "%a\n" Host.Arch.pp_insn) t.t_decoded;
    Array.iter (Format.fprintf ppf "%d ") t.t_phase_cycles;
    Format.fprintf ppf "\n%!"
  in
  let count = ref 0 in
  iter_corpus (fun (s : Vg_core.Session.t) ~starts ->
      let fetch addr = Aspace.fetch_u8 s.mem addr in
      let instrument = Vg_core.Session.instrument_fn s in
      let checks () = Verify.pipeline_checks ~shadow:s.tool.shadow_ranges () in
      let record thunk =
        match thunk () with
        | Some t ->
            incr count;
            add t
        | None -> ()
        | exception e when translation_refused e ->
            Format.fprintf ppf "refused\n%!"
      in
      List.iter
        (fun (pc, next) ->
          List.iter
            (fun tier ->
              record (fun () ->
                  Some
                    (Jit.Pipeline.translate ~checks:(checks ()) ~tier ~fetch
                       ~instrument pc)))
            [ Jit.Pipeline.Tier_quick; Jit.Pipeline.Tier_full ];
          Option.iter
            (fun b ->
              record (fun () ->
                  Jit.Pipeline.translate_trace ~checks:(checks ()) ~fetch
                    ~instrument [ pc; b ]))
            next)
        starts);
  (!count, Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Any change to the generated code, its decoding or its JIT cycles
   moves this digest; a change that means to alter the output re-records
   it. *)
let expected_translation_digest = "7fcd9ef1111932ea26869abc643be911"

let test_translation_digest () =
  let n, digest = translation_digest () in
  Alcotest.(check bool) (Printf.sprintf "%d translations" n) true (n > 1000);
  Alcotest.(check string) "translation digest" expected_translation_digest
    digest

(* Phase 3 per tool: every corpus start goes through phases 1 and 2
   once, then through each catalog tool's instrumentation and the
   oracle's witness, the core's stack events included.  A block prints
   with [Vex_ir.Pp] and then the type of every temporary, which the
   printer omits.  One digest per tool. *)
let instrumentation_tools =
  Tools.Catalog.all @ [ ("witness", Fuzz.Diff.witness) ]

let instrumentation_digests () =
  let bufs =
    List.map (fun (name, _) -> (name, Buffer.create (1 lsl 16)))
      instrumentation_tools
  in
  let add buf (b : Vex_ir.Ir.block) =
    Buffer.add_string buf (Fmt.str "%a" Vex_ir.Pp.pp_block b);
    Support.Vec.iter
      (fun ty -> Buffer.add_string buf (Fmt.str "%a " Vex_ir.Pp.pp_ty ty))
      b.tyenv;
    Buffer.add_char buf '\n'
  in
  let n = ref 0 in
  List.iter
    (fun (w : Workloads.workload) ->
      let img = Workloads.compile ~scale:1 w in
      let sessions =
        List.map
          (fun (name, tool) ->
            let s = Vg_core.Session.create ~tool img in
            Vg_core.Session.startup s;
            (List.assoc name bufs, s))
          instrumentation_tools
      in
      let fetch addr = Aspace.fetch_u8 (snd (List.hd sessions)).mem addr in
      List.iter
        (fun (pc, _) ->
          incr n;
          match Jit.Opt.opt1 (fst (Jit.Disasm.superblock ~fetch pc)) with
          | flat ->
              List.iter
                (fun (buf, s) ->
                  add buf
                    (Vg_core.Session.instrument_fn s (Vex_ir.Ir.copy_block flat)))
                sessions
          | exception e when translation_refused e ->
              List.iter (fun (buf, _) -> Buffer.add_string buf "refused\n") sessions)
        (corpus_starts img))
    Workloads.all;
  ( !n,
    List.map
      (fun (name, buf) -> (name, Digest.to_hex (Digest.string (Buffer.contents buf))))
      bufs )

(* A change to any tool's instrumentation, or to the core's stack
   events, moves that tool's digest; a change that means to alter the
   output re-records it. *)
let expected_instrumentation_digests =
  [
    ("nulgrind", "708d78093c2d965480c049f0edfba6c1");
    ("memcheck", "e0bf24e7544e7b43ae2665e8fc7816d6");
    ("memcheck-origins", "279617f2f3365f52a594ae378295b5dd");
    ("cachegrind", "5d39bef4a3c8168c261329d2cd0b7919");
    ("massif", "708d78093c2d965480c049f0edfba6c1");
    ("lackey", "f64f16b3eff8ef8cd5e7cfef2ee6ef13");
    ("taintgrind", "e3b974df675fb2e548a696c2fb8d2e5d");
    ("annelid", "5285b21ef1ef30ffb84aad065bc9c23a");
    ("redux", "ddd237f46da8d58023e5f3f99e49fda6");
    ("drd", "71896208315b948b1b7e68c4de7bff15");
    ("icnti", "036a581ac8bec4e3078d07b48ca20805");
    ("icntc", "3e3cf74e28a6c6c7425866729a87e6bd");
    ("witness", "e81ea3b259ded0827d4d71960f05c32e");
  ]

let test_instrumentation_digests () =
  let n, digests = instrumentation_digests () in
  Alcotest.(check bool) (Printf.sprintf "%d block starts" n) true (n > 900);
  Alcotest.(check (list (pair string string)))
    "phase-3 digest per tool" expected_instrumentation_digests digests

(* The optimiser as seven whole-block passes, each building a fresh
   block, before its forward passes became stages of one walk: the
   reference the stage compositions must equal. *)
module Ref_opt = struct
  open Vex_ir.Ir

  let is_atom = function RdTmp _ | Const _ -> true | _ -> false

  let rec flatten_expr (b : block) (out : stmt -> unit) (e : expr) : expr =
    let atom e =
      let e' = flatten_expr b out e in
      if is_atom e' then e'
      else begin
        let t = new_tmp b (type_of b e') in
        out (WrTmp (t, e'));
        RdTmp t
      end
    in
    match e with
    | Get _ | RdTmp _ | Const _ -> e
    | Load (ty, a) -> Load (ty, atom a)
    | Unop (op, a) -> Unop (op, atom a)
    | Binop (op, x, y) ->
        let x = atom x in
        let y = atom y in
        Binop (op, x, y)
    | ITE (c, t, f) ->
        let c = atom c in
        let t = atom t in
        let f = atom f in
        ITE (c, t, f)
    | CCall (callee, ty, args) -> CCall (callee, ty, List.map atom args)

  (* Flatten a rhs that is allowed to remain one operator deep. *)
  let flatten_rhs b out (e : expr) : expr =
    match e with
    | Get _ | RdTmp _ | Const _ | Load _ | Unop _ | Binop _ | ITE _ | CCall _ ->
        flatten_expr b out e

  let flatten (b : block) : block =
    let nb =
      { tyenv = Support.Vec.copy b.tyenv;
        stmts = Support.Vec.create NoOp;
        next = b.next;
        jumpkind = b.jumpkind }
    in
    let out s = add_stmt nb s in
    Support.Vec.iter
      (fun s ->
        match s with
        | NoOp | IMark _ -> out s
        | AbiHint (e, l) ->
            let e' = flatten_expr nb out e in
            let e' = if is_atom e' then e' else begin
              let t = new_tmp nb (type_of nb e') in
              out (WrTmp (t, e')); RdTmp t end
            in
            out (AbiHint (e', l))
        | Put (off, e) ->
            let e' = flatten_expr nb out e in
            let e' =
              if is_atom e' then e'
              else begin
                let t = new_tmp nb (type_of nb e') in
                out (WrTmp (t, e'));
                RdTmp t
              end
            in
            out (Put (off, e'))
        | WrTmp (t, e) -> out (WrTmp (t, flatten_rhs nb out e))
        | Store (a, d) ->
            let fa (e : expr) =
              let e' = flatten_expr nb out e in
              if is_atom e' then e'
              else begin
                let t = new_tmp nb (type_of nb e') in
                out (WrTmp (t, e'));
                RdTmp t
              end
            in
            let a = fa a in
            let d = fa d in
            out (Store (a, d))
        | Dirty d ->
            let fa (e : expr) =
              let e' = flatten_expr nb out e in
              if is_atom e' then e'
              else begin
                let t = new_tmp nb (type_of nb e') in
                out (WrTmp (t, e'));
                RdTmp t
              end
            in
            let guard = fa d.d_guard in
            let args = List.map fa d.d_args in
            let mfx =
              match d.d_mfx with
              | Mfx_none -> Mfx_none
              | Mfx_read (e, n) -> Mfx_read (fa e, n)
              | Mfx_write (e, n) -> Mfx_write (fa e, n)
            in
            out (Dirty { d with d_guard = guard; d_args = args; d_mfx = mfx })
        | Exit (g, jk, dest) ->
            let g' = flatten_expr nb out g in
            let g' =
              if is_atom g' then g'
              else begin
                let t = new_tmp nb I1 in
                out (WrTmp (t, g'));
                RdTmp t
              end
            in
            out (Exit (g', jk, dest)))
      b.stmts;
    (let e' = flatten_expr nb out nb.next in
     nb.next <-
       (if is_atom e' then e'
        else begin
          let t = new_tmp nb (type_of nb e') in
          out (WrTmp (t, e'));
          RdTmp t
        end));
    nb

  (* ------------------------------------------------------------------ *)
  (* Copy/constant propagation and folding (flat IR)                     *)
  (* ------------------------------------------------------------------ *)

  (* One forward pass of copy/const propagation + folding. *)
  let constprop (b : block) : block =
    let n = Support.Vec.length b.tyenv in
    let env : expr option array = Array.make n None in
    let subst_atom = function
      | RdTmp t as e -> ( match env.(t) with Some a -> a | None -> e)
      | e -> e
    in
    let subst_rhs (e : expr) : expr =
      let e =
        match e with
        | Get _ | Const _ -> e
        | RdTmp _ -> subst_atom e
        | Load (ty, a) -> Load (ty, subst_atom a)
        | Unop (op, a) -> Unop (op, subst_atom a)
        | Binop (op, x, y) -> Binop (op, subst_atom x, subst_atom y)
        | ITE (c, t, f) -> ITE (subst_atom c, subst_atom t, subst_atom f)
        | CCall (callee, ty, args) -> CCall (callee, ty, List.map subst_atom args)
      in
      match Jit.Opt.fold_op b e with Some e' -> e' | None -> e
    in
    let nb =
      { tyenv = Support.Vec.copy b.tyenv;
        stmts = Support.Vec.create NoOp;
        next = b.next;
        jumpkind = b.jumpkind }
    in
    Support.Vec.iter
      (fun s ->
        match s with
        | NoOp -> ()
        | IMark _ -> add_stmt nb s
        | AbiHint (e, l) -> add_stmt nb (AbiHint (subst_atom e, l))
        | Put (off, e) -> add_stmt nb (Put (off, subst_atom e))
        | WrTmp (t, e) -> (
            let e' = subst_rhs e in
            match e' with
            | Const _ | RdTmp _ ->
                (* pure copy: record and drop the statement *)
                env.(t) <- Some e'
            | _ -> add_stmt nb (WrTmp (t, e')))
        | Store (a, d) -> add_stmt nb (Store (subst_atom a, subst_atom d))
        | Dirty d ->
            add_stmt nb
              (Dirty
                 {
                   d with
                   d_guard = subst_atom d.d_guard;
                   d_args = List.map subst_atom d.d_args;
                   d_mfx =
                     (match d.d_mfx with
                     | Mfx_none -> Mfx_none
                     | Mfx_read (e, n) -> Mfx_read (subst_atom e, n)
                     | Mfx_write (e, n) -> Mfx_write (subst_atom e, n));
                 })
        | Exit (g, jk, dest) -> (
            match subst_atom g with
            | Const (CI1 false) -> () (* never taken *)
            | g' -> add_stmt nb (Exit (g', jk, dest))))
      b.stmts;
    nb.next <- subst_atom b.next;
    nb

  (* ------------------------------------------------------------------ *)
  (* Redundant GET elimination and PUT shortcutting (flat IR)            *)
  (* ------------------------------------------------------------------ *)

  (* Track known guest-state contents as (offset, ty, atom). *)
  let redundant_getput (b : block) : block =
    let known : (int * ty * expr) list ref = ref [] in
    let overlaps off1 sz1 off2 sz2 = off1 < off2 + sz2 && off2 < off1 + sz1 in
    let invalidate off sz =
      known :=
        List.filter (fun (o, ty, _) -> not (overlaps o (size_of_ty ty) off sz)) !known
    in
    let invalidate_all () = known := [] in
    let nb =
      { tyenv = Support.Vec.copy b.tyenv;
        stmts = Support.Vec.create NoOp;
        next = b.next;
        jumpkind = b.jumpkind }
    in
    let rewrite_get (e : expr) : expr =
      match e with
      | Get (off, ty) -> (
          match
            List.find_opt (fun (o, t, _) -> o = off && t = ty) !known
          with
          | Some (_, _, atom) -> atom
          | None -> e)
      | e -> e
    in
    Support.Vec.iter
      (fun s ->
        match s with
        | NoOp | IMark _ | AbiHint _ | Exit _ -> add_stmt nb s
        | WrTmp (t, e) ->
            let e' = rewrite_get e in
            add_stmt nb (WrTmp (t, e'));
            (* a GET that survives records the state contents *)
            (match e' with
            | Get (off, ty) -> known := (off, ty, RdTmp t) :: !known
            | _ -> ())
        | Put (off, atom) ->
            let sz = size_of_ty (type_of nb atom) in
            (* put of the very value already known to be there: drop *)
            let same =
              List.exists
                (fun (o, ty, a) -> o = off && size_of_ty ty = sz && a = atom)
                !known
            in
            if not same then begin
              invalidate off sz;
              known := (off, type_of nb atom, atom) :: !known;
              add_stmt nb (Put (off, atom))
            end
        | Store _ -> add_stmt nb s
        | Dirty d ->
            (* helper may write the guest state it declares; invalidate *)
            List.iter (fun (o, s) -> invalidate o s) d.d_callee.c_fx_writes;
            if d.d_callee.c_fx_writes = [] && d.d_callee.c_fx_reads = [] then
              (* unannotated helper: be conservative *)
              invalidate_all ();
            add_stmt nb (Dirty d))
      b.stmts;
    nb.next <- rewrite_get b.next;
    nb

  (* ------------------------------------------------------------------ *)
  (* Common sub-expression elimination (flat IR)                         *)
  (* ------------------------------------------------------------------ *)

  let cse (b : block) : block =
    let table : (expr, tmp) Hashtbl.t = Hashtbl.create 64 in
    let replace : expr option array = Array.make (Support.Vec.length b.tyenv) None in
    let subst = function
      | RdTmp t as e -> ( match replace.(t) with Some a -> a | None -> e)
      | e -> e
    in
    let nb =
      { tyenv = Support.Vec.copy b.tyenv;
        stmts = Support.Vec.create NoOp;
        next = b.next;
        jumpkind = b.jumpkind }
    in
    Support.Vec.iter
      (fun s ->
        match s with
        | WrTmp (t, e) -> (
            let e =
              match e with
              | Unop (op, a) -> Unop (op, subst a)
              | Binop (op, x, y) -> Binop (op, subst x, subst y)
              | ITE (c, x, y) -> ITE (subst c, subst x, subst y)
              | CCall (callee, ty, args) -> CCall (callee, ty, List.map subst args)
              | Load (ty, a) -> Load (ty, subst a)
              | e -> e
            in
            match e with
            | Unop _ | Binop _ | ITE _ ->
                (* pure value ops are CSE-able *)
                (match Hashtbl.find_opt table e with
                | Some t0 -> replace.(t) <- Some (RdTmp t0)
                | None ->
                    Hashtbl.replace table e t;
                    add_stmt nb (WrTmp (t, e)))
            | _ -> add_stmt nb (WrTmp (t, e)))
        | Put (off, a) -> add_stmt nb (Put (off, subst a))
        | Store (x, y) -> add_stmt nb (Store (subst x, subst y))
        | AbiHint (e, l) -> add_stmt nb (AbiHint (subst e, l))
        | Exit (g, jk, d) -> add_stmt nb (Exit (subst g, jk, d))
        | Dirty d ->
            add_stmt nb
              (Dirty
                 {
                   d with
                   d_guard = subst d.d_guard;
                   d_args = List.map subst d.d_args;
                   d_mfx =
                     (match d.d_mfx with
                     | Mfx_none -> Mfx_none
                     | Mfx_read (e, n) -> Mfx_read (subst e, n)
                     | Mfx_write (e, n) -> Mfx_write (subst e, n));
                 })
        | s -> add_stmt nb s)
      b.stmts;
    nb.next <- subst b.next;
    nb

  (* ------------------------------------------------------------------ *)
  (* Dead code removal (flat IR, backward)                               *)
  (* ------------------------------------------------------------------ *)

  let dead (b : block) : block =
    let n = Support.Vec.length b.tyenv in
    let live = Array.make n false in
    let mark e =
      let rec go = function
        | RdTmp t -> live.(t) <- true
        | Get _ | Const _ -> ()
        | Load (_, a) -> go a
        | Unop (_, a) -> go a
        | Binop (_, x, y) ->
            go x;
            go y
        | ITE (c, t, f) ->
            go c;
            go t;
            go f
        | CCall (_, _, args) -> List.iter go args
      in
      go e
    in
    let stmts = Array.of_list (stmts b) in
    let keep = Array.make (Array.length stmts) false in
    mark b.next;
    (* Track, walking backwards: has the PC been overwritten (with no
       intervening faulting statement) — and similarly per guest offset
       whether a full overwrite follows before any observation. *)
    let module IMap = Map.Make (Int) in
    (* overwritten.(off) = Some size: a PUT of [size] bytes at [off] follows
       with no observation in between *)
    let overwritten : int IMap.t ref = ref IMap.empty in
    let observe_all () = overwritten := IMap.empty in
    let observe_range off sz =
      overwritten :=
        IMap.filter
          (fun o s -> not (o < off + sz && off < o + s))
          !overwritten
    in
    for i = Array.length stmts - 1 downto 0 do
      let s = stmts.(i) in
      let needed =
        match s with
        | NoOp -> false
        | IMark _ -> true
        | AbiHint _ -> true
        | Put (off, e) ->
            let sz = size_of_ty (type_of b e) in
            let covered =
              match IMap.find_opt off !overwritten with
              | Some s2 -> s2 >= sz
              | None -> false
            in
            not covered
        | WrTmp (t, e) -> (
            live.(t)
            ||
            match e with
            | Binop ((DivS32 | DivU32), _, _) -> true (* may trap *)
            | Load _ -> true
                (* a load whose value is dead still faults on an unmapped
                   address: dropping it would swallow the client's SIGSEGV
                   (found by vgfuzz: ldw into a register that is
                   overwritten later in the same superblock) *)
            | _ -> false)
        | Store _ -> true
        | Dirty _ -> true
        | Exit _ -> true
      in
      keep.(i) <- needed;
      (* update overwrite/observation state *)
      (match s with
      | Put (off, e) when needed ->
          let sz = size_of_ty (type_of b e) in
          overwritten := IMap.add off sz !overwritten
      | Put _ -> ()
      | Exit _ -> observe_all ()
      | Dirty d ->
          (* helper observes what it declares it reads, plus everything if
             unannotated *)
          if d.d_callee.c_fx_reads = [] && d.d_callee.c_fx_writes = [] then
            observe_all ()
          else begin
            List.iter (fun (o, s) -> observe_range o s) d.d_callee.c_fx_reads;
            (* and its declared writes stop earlier overwrite tracking *)
            List.iter (fun (o, s) -> observe_range o s) d.d_callee.c_fx_writes
          end;
          (* dirty calls can fault / report errors: precise state needed *)
          List.iter (fun o -> observe_range o 4) Jit.Opt.precise_offsets
      | WrTmp (_, Get (off, ty)) -> observe_range off (size_of_ty ty)
      | _ -> ());
      if Jit.Opt.can_fault s then List.iter (fun o -> observe_range o 4) Jit.Opt.precise_offsets;
      (* mark uses *)
      if needed then
        match s with
        | Put (_, e) | WrTmp (_, e) | AbiHint (e, _) -> mark e
        | Store (a, d) ->
            mark a;
            mark d
        | Exit (g, _, _) -> mark g
        | Dirty d ->
            mark d.d_guard;
            List.iter mark d.d_args;
            (match d.d_mfx with
            | Mfx_none -> ()
            | Mfx_read (e, _) | Mfx_write (e, _) -> mark e)
        | _ -> ()
    done;
    let nb =
      { tyenv = Support.Vec.copy b.tyenv;
        stmts = Support.Vec.create NoOp;
        next = b.next;
        jumpkind = b.jumpkind }
    in
    Array.iteri (fun i s -> if keep.(i) then add_stmt nb s) stmts;
    nb

  (* Iterate dead removal until it stops helping (liveness is computed in a
     single backward pass, so chains of dead temps need iteration). *)
  let rec dead_fix ?(rounds = 4) b =
    let b' = dead b in
    if rounds <= 1 || Support.Vec.length b'.stmts = Support.Vec.length b.stmts
    then b'
    else dead_fix ~rounds:(rounds - 1) b'


  let rerun_unrolled b = b |> constprop |> redundant_getput |> constprop |> dead_fix

  let opt1 ?(unroll = true) (b : block) : block =
    let b =
      b |> flatten |> constprop |> redundant_getput |> constprop |> cse
      |> constprop |> dead_fix
    in
    if unroll then
      let b' = Jit.Opt.unroll_self_loop b in
      if b' != b then rerun_unrolled b' else b
    else b

  let opt2 (b : block) : block = b |> constprop |> cse |> constprop |> dead_fix
end

(* Two blocks are the same statement for statement, with the same
   successor, jump kind and temporaries ([compare], so that NaN
   constants are equal to themselves). *)
let same_block (a : Vex_ir.Ir.block) (b : Vex_ir.Ir.block) =
  compare (Support.Vec.to_list a.stmts) (Support.Vec.to_list b.stmts) = 0
  && compare a.next b.next = 0
  && a.jumpkind = b.jumpkind
  && Support.Vec.to_list a.tyenv = Support.Vec.to_list b.tyenv

(* Every stage composition of [Jit.Opt] against the passes it replaces,
   on the block at [pc]: opt1 with and without unrolling, the re-run
   after unrolling (over opt1's output and over an unrolled body) and
   opt2 (over the instrumented block and the uninstrumented one).
   Returns whether the block disassembled and whether it unrolled. *)
let check_stage_compositions ~fetch ~instrument pc =
  match Jit.Disasm.superblock ~fetch pc with
  | exception e when translation_refused e -> (false, false)
  | tree, _ ->
      let same what reference stages b =
        let r = reference (Vex_ir.Ir.copy_block b)
        and s = stages (Vex_ir.Ir.copy_block b) in
        if not (same_block r s) then
          Alcotest.failf "0x%Lx: %s differs from the passes it replaces" pc what
      in
      same "opt1" (Ref_opt.opt1 ~unroll:true) (Jit.Opt.opt1 ~unroll:true) tree;
      same "opt1 ~unroll:false" (Ref_opt.opt1 ~unroll:false) (Jit.Opt.opt1 ~unroll:false) tree;
      let flat = Ref_opt.opt1 ~unroll:false tree in
      same "unroll re-run" Ref_opt.rerun_unrolled Jit.Opt.reopt_unrolled flat;
      let unrolled = Jit.Opt.unroll_self_loop flat in
      let loops = unrolled != flat in
      if loops then
        same "unroll re-run of an unrolled body" Ref_opt.rerun_unrolled
          Jit.Opt.reopt_unrolled unrolled;
      let flat = Ref_opt.opt1 tree in
      same "opt2" Ref_opt.opt2 Jit.Opt.opt2 (instrument (Vex_ir.Ir.copy_block flat));
      same "opt2 uninstrumented" Ref_opt.opt2 Jit.Opt.opt2 flat;
      (true, loops)

(* A block whose dead code takes [k] + 1 rounds to remove: a chain of
   PUTs through r0..r(k-1), each read back by a GET that feeds the next,
   then all overwritten.  Each round's removed GET uncovers the PUT
   before it, and the last round removes the PUT of r0. *)
let dead_chain k =
  let open Vex_ir.Ir in
  let b = new_block () in
  let c = i32 7L in
  add_stmt b (Put (0, c));
  for j = 1 to k do
    let t = new_tmp b I32 in
    add_stmt b (WrTmp (t, Get (4 * (j - 1), I32)));
    if j < k then add_stmt b (Put (4 * j, RdTmp t))
  done;
  for j = k - 1 downto 0 do
    add_stmt b (Put (4 * j, c))
  done;
  b.next <- i32 0x1000L;
  b

let test_stage_compositions () =
  (* dead code removal stops after the same round as the reference, down
     to its four-round cap *)
  for k = 1 to 5 do
    let b = dead_chain k in
    let r = Ref_opt.opt2 (Vex_ir.Ir.copy_block b) in
    if not (same_block r (Jit.Opt.opt2 (Vex_ir.Ir.copy_block b))) then
      Alcotest.failf "dead chain of %d: opt2 differs from the passes it replaces" k;
    Alcotest.(check bool)
      (Printf.sprintf "dead chain of %d shrinks" k)
      true
      (Support.Vec.length r.stmts < Support.Vec.length b.stmts)
  done;
  let blocks = ref 0 and unrolled = ref 0 in
  let check (s : Vg_core.Session.t) pc =
    let fetch addr = Aspace.fetch_u8 s.mem addr in
    let ok, u =
      check_stage_compositions ~fetch ~instrument:(Vg_core.Session.instrument_fn s) pc
    in
    if ok then incr blocks;
    if u then incr unrolled
  in
  iter_corpus (fun s ~starts -> List.iter (fun (pc, _) -> check s pc) starts);
  for i = 0 to 199 do
    let img = Fuzz.Gen.image ~seed:(9000 + i) ~size:40 () in
    let s = Vg_core.Session.create ~tool:Tools.Memcheck.tool img in
    Vg_core.Session.startup s;
    List.iter (check s) (Static.Cfg.block_starts (Static.Cfg.scan img))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d blocks, %d unrolled" !blocks !unrolled)
    true
    (!blocks > 5000 && !unrolled > 0)

(* Intervals with many equal starts and stops, in any order, in
   position order, or in position order but for one swapped pair. *)
let intervals_gen =
  let open QCheck.Gen in
  let raw =
    map
      (List.mapi (fun vreg (cls, (start, len)) ->
           { Jit.Regalloc.vreg; cls; start; stop = start + len; crosses_call = false }))
      (list_size (0 -- 30)
         (pair (oneofl [ Jit.Regalloc.Int; Jit.Regalloc.Vec ]) (pair (0 -- 6) (0 -- 3))))
  in
  let ordered = map (List.stable_sort Jit.Regalloc.by_position) raw in
  let swap_one =
    map2
      (fun l k ->
        match List.length l with
        | n when n < 2 -> l
        | n ->
            let k = k mod (n - 1) in
            List.mapi (fun i x -> if i = k then List.nth l (k + 1) else if i = k + 1 then List.nth l k else x) l)
      ordered nat
  in
  oneof [ raw; ordered; swap_one ]

let print_intervals l =
  String.concat " "
    (List.map (fun (iv : Jit.Regalloc.interval) -> Printf.sprintf "v%d[%d,%d]" iv.vreg iv.start iv.stop) l)

(* property: the allocator's interval order is the stable sort by
   position, element for element (so ties keep their order) *)
let prop_position_order =
  QCheck.Test.make ~count:2000 ~name:"interval order = stable sort by position"
    (QCheck.make ~print:print_intervals intervals_gen)
    (fun ivs ->
      let expected = List.stable_sort Jit.Regalloc.by_position ivs in
      let got = Jit.Regalloc.in_position_order ivs in
      List.length got = List.length expected && List.for_all2 ( == ) got expected)

(* The allocator's invariants over the vcode of corpus translations: no
   two overlapping intervals of a class share a host register, no
   interval live across a helper call holds a caller-saved one, and
   spill slots stay inside the spill zone. *)
let test_regalloc_invariants () =
  let module R = Jit.Regalloc in
  let module H = Host.Arch in
  let checked = ref 0 and crossing = ref 0 in
  let check (p : Jit.Pipeline.phases) =
    let code = p.p_vcode and n_int = p.p_n_int and n_vec = p.p_n_vec in
    let asg = R.allocate code ~n_int ~n_vec in
    let ivs = R.intervals code ~n_int ~n_vec in
    let loc (iv : R.interval) =
      match iv.cls with
      | R.Int -> asg.int_loc.(iv.vreg)
      | R.Vec -> asg.vec_loc.(iv.vreg)
    in
    List.iter
      (fun (a : R.interval) ->
        incr checked;
        (match loc a with
        | R.Phys r when a.crosses_call ->
            incr crossing;
            let caller_saved =
              match a.cls with
              | R.Int -> H.caller_saved_int
              | R.Vec -> H.caller_saved_vec
            in
            if List.mem r caller_saved then
              Alcotest.failf "v%d crosses a call in caller-saved register %d"
                a.vreg r
        | _ -> ());
        List.iter
          (fun (b : R.interval) ->
            if
              a.cls = b.cls && a.vreg < b.vreg && a.start <= b.stop
              && b.start <= a.stop
            then
              match (loc a, loc b) with
              | R.Phys r, R.Phys r' when r = r' ->
                  Alcotest.failf "v%d [%d,%d] and v%d [%d,%d] share %d" a.vreg
                    a.start a.stop b.vreg b.start b.stop r
              | _ -> ())
          ivs)
      ivs;
    if asg.n_spill_int > H.spill_slots_int || asg.n_spill_vec > H.spill_slots_vec
    then Alcotest.fail "spill slots overflow the spill zone"
  in
  iter_corpus
    ~workloads:(List.filteri (fun i _ -> i < 3) Workloads.all)
    ~tools:(Tools.Catalog.pick [ "memcheck" ])
    (fun (s : Vg_core.Session.t) ~starts ->
      let fetch addr = Aspace.fetch_u8 s.mem addr in
      let instrument = Vg_core.Session.instrument_fn s in
      List.iter
        (fun (pc, _) ->
          List.iter
            (fun tier ->
              match
                Jit.Pipeline.translate_phases ~tier ~fetch ~instrument pc
              with
              | p, _ -> check p
              | exception e when translation_refused e -> ())
            [ Jit.Pipeline.Tier_quick; Jit.Pipeline.Tier_full ])
        starts);
  Alcotest.(check bool)
    (Printf.sprintf "%d intervals checked, %d across calls" !checked !crossing)
    true
    (!checked > 1000 && !crossing > 0)

let test_treebuild_load_store_order () =
  (* a load must not be substituted past a store to (possibly) the same
     address *)
  let open Vex_ir.Ir in
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b (WrTmp (t0, Load (I32, i32 0x100L)));
  add_stmt b (Store (i32 0x100L, i32 42L));
  add_stmt b (Put (0, RdTmp t0));
  b.next <- i32 0L;
  let built = Jit.Treebuild.build b in
  (* evaluate: the PUT must see the OLD value (0), not 42 *)
  let guest = Bytes.make 64 '\xFF' in
  let memv = ref 0L in
  let env =
    {
      Vex_ir.Helpers.he_get_guest = (fun _ _ -> 0L);
      he_put_guest =
        (fun off _ v -> Bytes.set guest off (Char.chr (Int64.to_int (Int64.logand v 0xFFL))));
      he_load = (fun _ _ -> !memv);
      he_store = (fun _ _ v -> memv := v);
      he_table = Jit.Ghelpers.table ();
    }
  in
  ignore (Vex_ir.Eval.run env built);
  Alcotest.(check char) "load not moved past store" '\000' (Bytes.get guest 0)

let test_loop_unrolling () =
  (* a one-block spin loop: with unrolling, the block covers two
     iterations, halving blocks executed; results must be identical *)
  let src =
    {|
        .text
_start: movi r0, 0
        movi r2, 100000
loop:   inc r0
        dec r2
        jne loop
        mov r1, r0
        movi r0, 1
        syscall
|}
  in
  let img = Guest.Asm.assemble src in
  let run unroll =
    let opts = { Vg_core.Session.default_options with unroll_loops = unroll } in
    let s = Vg_core.Session.create ~options:opts ~tool:Vg_core.Tool.nulgrind img in
    match Vg_core.Session.run s with
    | Vg_core.Session.Exited n -> (n, (Vg_core.Session.stats s).st_blocks)
    | _ -> Alcotest.fail "loop program failed"
  in
  let n1, blocks_unrolled = run true in
  let n2, blocks_plain = run false in
  Alcotest.(check int) "same result" n2 n1;
  Alcotest.(check int) "result" 100000 n1;
  Alcotest.(check bool)
    (Printf.sprintf "unrolling halves dispatches (%Ld vs %Ld)" blocks_unrolled
       blocks_plain)
    true
    (Int64.to_float blocks_unrolled < Int64.to_float blocks_plain *. 0.6)

(* ------------------------------------------------------------------ *)
(* Translation chaining                                                 *)
(* ------------------------------------------------------------------ *)

let loop_src =
  {|
        .text
_start: movi r0, 0
        movi r2, 100000
loop:   inc r0
        dec r2
        jne loop
        mov r1, r0
        movi r0, 1
        syscall
|}

let run_loop chaining =
  let img = Guest.Asm.assemble loop_src in
  let opts = { Vg_core.Session.default_options with chaining } in
  let s = Vg_core.Session.create ~options:opts ~tool:Vg_core.Tool.nulgrind img in
  match Vg_core.Session.run s with
  | Vg_core.Session.Exited n -> (n, s)
  | _ -> Alcotest.fail "loop program failed"

let test_chain_slots_recorded () =
  (* every translation records its constant-target exit sites, and every
     patched slot points at the resident translation for its target *)
  let n, s = run_loop true in
  Alcotest.(check int) "result" 100000 n;
  let entries = Vg_core.Transtab.all_entries s.transtab in
  let total_slots =
    List.fold_left
      (fun acc (e : Vg_core.Transtab.entry) ->
        acc + Array.length e.e_trans.Jit.Pipeline.t_exits)
      0 entries
  in
  Alcotest.(check bool) "translations record chain slots" true
    (total_slots > 0);
  List.iter
    (fun (e : Vg_core.Transtab.entry) ->
      Array.iter
        (fun (slot : Jit.Pipeline.chain_slot) ->
          match slot.cs_next with
          | None -> ()
          | Some dst ->
              Alcotest.(check int64)
                "patched slot points at its own target"
                slot.cs_target dst.Jit.Pipeline.t_guest_addr;
              (match Vg_core.Transtab.find s.transtab slot.cs_target with
              | Some resident ->
                  Alcotest.(check bool) "chain target is resident" true
                    (resident == dst)
              | None -> Alcotest.fail "patched slot into evicted translation"))
        e.e_trans.Jit.Pipeline.t_exits)
    entries;
  let st = Vg_core.Session.stats s in
  Alcotest.(check bool) "live chains exist" true (st.st_chain_live > 0)

let test_chain_slot_index_agrees () =
  (* the O(1) cs_index-keyed lookup must agree with the O(n) scan over
     t_exits at every instruction index of every live translation *)
  let _, s = run_loop true in
  let entries = Vg_core.Transtab.all_entries s.transtab in
  let checked = ref 0 in
  List.iter
    (fun (e : Vg_core.Transtab.entry) ->
      let t = e.e_trans in
      for idx = -1 to Array.length t.Jit.Pipeline.t_decoded do
        incr checked;
        let fast = Jit.Pipeline.find_chain_slot t idx in
        let slow = Jit.Pipeline.find_chain_slot_scan t idx in
        match (fast, slow) with
        | None, None -> ()
        | Some a, Some b when a == b -> ()
        | _ ->
            Alcotest.failf "index and scan disagree at insn %d of 0x%LX" idx
              t.Jit.Pipeline.t_guest_addr
      done)
    entries;
  Alcotest.(check bool) "indices checked" true (!checked > 0)

let test_chain_dispatcher_reduction () =
  (* the ISSUE acceptance bar: on a loop benchmark, chaining must cut
     dispatcher entries by >= 30% with identical guest-visible results
     and lower modelled cycles *)
  let n1, s1 = run_loop true in
  let n2, s2 = run_loop false in
  Alcotest.(check int) "identical result" n2 n1;
  let st1 = Vg_core.Session.stats s1 and st2 = Vg_core.Session.stats s2 in
  Alcotest.(check bool) "chained transfers counted" true
    (Int64.unsigned_compare st1.st_chained 0L > 0);
  let e1 = Int64.to_float st1.st_dispatch_entries
  and e2 = Int64.to_float st2.st_dispatch_entries in
  Alcotest.(check bool)
    (Printf.sprintf "dispatcher entries cut >=30%% (%.0f vs %.0f)" e1 e2)
    true
    (e1 <= e2 *. 0.7);
  Alcotest.(check bool)
    (Printf.sprintf "cycles lower (%Ld vs %Ld)" st1.st_total_cycles
       st2.st_total_cycles)
    true
    (Int64.unsigned_compare st1.st_total_cycles st2.st_total_cycles < 0)

let tests =
  [
    t "loop unrolling" test_loop_unrolling;
    t "chain slots recorded and consistent" test_chain_slots_recorded;
    t "chain-slot index agrees with scan" test_chain_slot_index_agrees;
    t "chaining cuts dispatcher entries >=30%" test_chain_dispatcher_reduction;
    t "differential: native = nulgrind (60 random programs)"
      test_differential_nulgrind;
    t "differential: native = memcheck (16 programs)"
      test_differential_memcheck;
    t "differential: native = taintgrind (11 programs)"
      test_differential_taintgrind;
    t "opt1 removes redundant puts" test_opt_removes_redundant_puts;
    t "opt1 preserves block semantics" test_opt_preserves_semantics;
    t "fold_op = Eval and folds are canonical" test_fold_matches_eval;
    t "self-cancelling identities fold to zero" test_fold_self_cancelling;
    t "ircheck rejects non-canonical constants" test_ircheck_rejects_noncanonical;
    t "regalloc spills correctly" test_regalloc_spills;
    t "regalloc invariants over corpus vcode" test_regalloc_invariants;
    Alcotest.test_case "translation digest is unchanged" `Slow
      test_translation_digest;
    Alcotest.test_case "instrumentation digest per tool is unchanged" `Slow
      test_instrumentation_digests;
    Alcotest.test_case "opt stage compositions = the passes they replace" `Slow
      test_stage_compositions;
    QCheck_alcotest.to_alcotest prop_position_order;
    t "treebuild respects load/store order" test_treebuild_load_store_order;
  ]
