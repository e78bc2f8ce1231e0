(* VH64 host machine tests: encode/decode roundtrip, ALU semantics
   (property-tested against Int64), helper calls, exits. *)

open Host.Arch

let t name f = Alcotest.test_case name `Quick f
let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

let sample =
  [
    Movi (3, 0x123456789ABCDEF0L);
    Mov (1, 2);
    Alu (W32, Add, 0, 1, 2);
    Alu (W64, Mulhs, 5, 6, 7);
    Alui (W32, Xor, 3, 3, -1L);
    Alui (W64, Sar, 4, 4, 63L);
    Ld (4, true, 2, 15, 1024);
    Ld (1, false, 2, 3, -8);
    St (8, 1, 15, 640);
    Cmov (0, 1, 2);
    Falu (FMul, 3, 4, 5);
    Fun1 (I32StoF64, 1, 2);
    Fun1 (Clz32, 1, 2);
    Vld (3, 15, 96);
    Vst (2, 0, 0);
    Vmov (1, 2);
    Valu (VAdd32, 0, 1, 2);
    Vnot (3, 3);
    Vsplat32 (2, 9);
    Vpack (1, 3, 4);
    Vunpack (5, 1, 1);
    Call (3, 2, 8);
    ExitIf (2, ek_boring, 0x1234L);
    Goto (ek_ret, 7);
    GotoI (ek_syscall, 0xFFFFL);
  ]

let test_roundtrip () =
  (* jumps need labels; test them separately below *)
  let bytes = Host.Encode.assemble sample in
  let decoded = Host.Encode.decode bytes in
  Alcotest.(check int) "count" (List.length sample) (Array.length decoded);
  List.iteri
    (fun i orig ->
      Alcotest.(check string)
        (Fmt.str "insn %d" i)
        (Fmt.str "%a" pp_insn orig)
        (Fmt.str "%a" pp_insn decoded.(i)))
    sample

let test_labels () =
  let code =
    [ Movi (0, 1L); Jnz (0, 7); Movi (1, 111L); Label 7; GotoI (ek_boring, 0L) ]
  in
  let decoded = Host.Encode.decode (Host.Encode.assemble code) in
  (* after decoding, the branch target is an instruction index; Label
     occupies no bytes, so in the decoded array (which has no Label) the
     target is the GotoI at index 3 *)
  match decoded.(1) with
  | Jnz (0, 3) -> ()
  | i -> Alcotest.failf "bad branch rewrite: %a" pp_insn i

let null_env table : Vex_ir.Helpers.env =
  {
    he_get_guest = (fun _ _ -> 0L);
    he_put_guest = (fun _ _ _ -> ());
    he_load = (fun _ _ -> 0L);
    he_store = (fun _ _ _ -> ());
    he_table = table;
  }

let run_host ?(setup = fun _ -> ()) ?(table = Jit.Ghelpers.table ())
    (code : insn list) : Host.Interp.cpu * int64 =
  let mem = Aspace.create () in
  Aspace.map mem ~addr:0x1000L ~len:8192 ~perm:Aspace.perm_rw;
  let cpu = Host.Interp.create mem in
  setup cpu;
  let decoded = Host.Encode.decode (Host.Encode.assemble code) in
  let _, dest, _ = Host.Interp.run cpu ~env:(null_env table) decoded in
  (cpu, dest)

let test_alu_widths () =
  let cpu, _ =
    run_host
      [
        Movi (1, 0xFFFFFFFFL);
        Movi (2, 1L);
        Alu (W32, Add, 3, 1, 2);
        (* wraps to 0 *)
        Alu (W64, Add, 4, 1, 2);
        (* 0x100000000 *)
        Alui (W32, Sar, 5, 1, 1L);
        (* sign bit set in W32 view -> stays 0x7FFFFFFF? no: sar of
           0xFFFFFFFF as signed 32 = -1 -> 0xFFFFFFFF *)
        GotoI (ek_boring, 0L);
      ]
  in
  Alcotest.check i64 "w32 wrap" 0L (Host.Interp.get_hreg cpu 3);
  Alcotest.check i64 "w64 no wrap" 0x100000000L (Host.Interp.get_hreg cpu 4);
  Alcotest.check i64 "w32 sar" 0xFFFFFFFFL (Host.Interp.get_hreg cpu 5)

let test_memory_and_exits () =
  let cpu, dest =
    run_host
      [
        Movi (1, 0x1100L);
        Movi (2, 0xCAFEBABE12345678L);
        St (8, 2, 1, 0);
        Ld (4, false, 3, 1, 0);
        Ld (4, true, 4, 1, 4);
        Ld (2, false, 5, 1, 6);
        ExitIf (0, ek_boring, 0x9999L);
        (* h0=0: not taken *)
        Goto (ek_ret, 3);
      ]
  in
  Alcotest.check i64 "zext load" 0x12345678L (Host.Interp.get_hreg cpu 3);
  Alcotest.check i64 "sext load" 0xFFFFFFFFCAFEBABEL (Host.Interp.get_hreg cpu 4);
  Alcotest.check i64 "halfword" 0xCAFEL (Host.Interp.get_hreg cpu 5);
  Alcotest.check i64 "goto truncates to 32" 0x12345678L dest

let test_fp_on_gprs () =
  let cpu, _ =
    run_host
      [
        Movi (1, Int64.bits_of_float 2.5);
        Movi (2, Int64.bits_of_float 4.0);
        Falu (FMul, 3, 1, 2);
        Fun1 (F64toI32S, 4, 3);
        Movi (5, 9L);
        Fun1 (I32StoF64, 6, 5);
        Fun1 (FSqrt, 7, 6);
        GotoI (ek_boring, 0L);
      ]
  in
  Alcotest.(check (float 1e-9)) "fmul" 10.0 (Int64.float_of_bits (Host.Interp.get_hreg cpu 3));
  Alcotest.check i64 "f2i" 10L (Host.Interp.get_hreg cpu 4);
  Alcotest.(check (float 1e-9)) "sqrt" 3.0 (Int64.float_of_bits (Host.Interp.get_hreg cpu 7))

let test_helper_call () =
  let table = Jit.Ghelpers.table () in
  let callee =
    Vex_ir.Helpers.register table ~name:"host_test_mul" ~cost:2 (fun _env args ->
        Int64.mul args.(0) args.(1))
  in
  let cpu, _ =
    run_host ~table
      [
        Movi (0, 6L);
        Movi (1, 7L);
        Call (callee.c_id, 2, callee.c_cost);
        GotoI (ek_boring, 0L);
      ]
  in
  Alcotest.check i64 "result in h0" 42L (Host.Interp.get_hreg cpu 0)

(* Two consecutive calls of different arity borrow different argument
   arrays; a third call of the first arity sees only its own values. *)
let test_helper_args_per_arity () =
  let seen = ref [] in
  let record _env args =
    seen := Array.to_list args :: !seen;
    0L
  in
  let table = Jit.Ghelpers.table () in
  let f3 = Vex_ir.Helpers.register table ~name:"host_test_args3" ~cost:0 record in
  let f1 = Vex_ir.Helpers.register table ~name:"host_test_args1" ~cost:0 record in
  ignore
    (run_host ~table
       [
         Movi (0, 1L); Movi (1, 2L); Movi (2, 3L);
         Call (f3.c_id, 3, 0);
         Movi (0, 9L);
         Call (f1.c_id, 1, 0);
         Movi (0, 4L); Movi (1, 5L); Movi (2, 6L);
         Call (f3.c_id, 3, 0);
         GotoI (ek_boring, 0L);
       ]);
  Alcotest.(check (list (list i64)))
    "each call sees exactly its own arguments"
    [ [ 1L; 2L; 3L ]; [ 9L ]; [ 4L; 5L; 6L ] ]
    (List.rev !seen)

(* Loads of every size, zero- and sign-extended, inside a page (the
   direct page-bytes path) and straddling the page end at 0x2000 (the
   checked path; a byte cannot straddle), agree with Aspace.read plus
   the reference extension. *)
let test_load_sizes () =
  let sext sz x =
    match sz with
    | 1 -> Support.Bits.sext8 x
    | 2 -> Support.Bits.sext16 x
    | 4 -> Support.Bits.sext32 x
    | _ -> x
  in
  let fill (cpu : Host.Interp.cpu) =
    List.iter
      (fun base ->
        for k = 0 to 15 do
          Aspace.write cpu.mem (Int64.add base (Int64.of_int k)) 1
            (Int64.of_int (0x80 + (k * 7)))
        done)
      [ 0x1100L; 0x1FF8L ]
  in
  List.iter
    (fun sz ->
      List.iter
        (fun at ->
          List.iter
            (fun sx ->
              let cpu, _ =
                run_host ~setup:fill
                  [ Movi (1, Int64.sub at 16L); Ld (sz, sx, 3, 1, 16);
                    GotoI (ek_boring, 0L) ]
              in
              let raw = Aspace.read cpu.mem at sz in
              Alcotest.check i64
                (Printf.sprintf "ld%d%s at 0x%LX" sz (if sx then "s" else "u") at)
                (if sx then sext sz raw else raw)
                (Host.Interp.get_hreg cpu 3))
            [ false; true ])
        [ 0x1104L; Int64.sub 0x2000L (Int64.of_int (sz / 2)) ])
    [ 1; 2; 4; 8 ]

(* A store to a read-only page faults with the exact address, inside the
   page and across a page end (where the first read-only byte faults). *)
let test_store_read_only () =
  let ro (cpu : Host.Interp.cpu) =
    Aspace.map cpu.mem ~addr:0x3000L ~len:4096 ~perm:Aspace.perm_rx
  in
  List.iter
    (fun (addr, expect) ->
      match
        run_host ~setup:ro
          [ Movi (1, addr); Movi (2, -1L); St (4, 2, 1, 0); GotoI (ek_boring, 0L) ]
      with
      | _ -> Alcotest.fail "expected a write fault"
      | exception Aspace.Fault { addr = a; kind = Aspace.Write } ->
          Alcotest.check i64 "fault address" expect a)
    [ (0x3010L, 0x3010L); (0x2FFEL, 0x3000L) ]

(* A registered store watch sees every store, in-page and crossing,
   exactly as Aspace.write reports it. *)
let test_store_watch_sees_all () =
  let hits = ref [] in
  let watch (cpu : Host.Interp.cpu) =
    Aspace.add_store_watch cpu.mem (fun a sz -> hits := (a, sz) :: !hits)
  in
  let cpu, _ =
    run_host ~setup:watch
      [
        Movi (1, 0x1100L);
        Movi (2, 0x1122334455667788L);
        St (1, 2, 1, 0);
        St (2, 2, 1, 2);
        St (4, 2, 1, 4);
        St (8, 2, 1, 8);
        Movi (1, 0x1FFEL);
        St (4, 2, 1, 0);
        GotoI (ek_boring, 0L);
      ]
  in
  Alcotest.(check (list (pair i64 int)))
    "every store notified"
    [
      (0x1100L, 1); (0x1102L, 2); (0x1104L, 4); (0x1108L, 8);
      (0x1FFEL, 1); (0x1FFFL, 1); (0x2000L, 1); (0x2001L, 1);
    ]
    (List.rev !hits);
  Alcotest.check i64 "crossing store landed" 0x55667788L
    (Aspace.read cpu.mem 0x1FFEL 4)

let test_div_trap () =
  try
    ignore
      (run_host [ Movi (1, 1L); Movi (2, 0L); Alu (W32, Divs, 3, 1, 2) ]);
    Alcotest.fail "expected Host_sigfpe"
  with Host.Interp.Host_sigfpe -> ()

(* Run the instruction array [code] as it stands (no assembly, so
   [Label]s stay and branch targets are indices) on [cpu]. *)
let run_raw ?(table = Jit.Ghelpers.table ()) (cpu : Host.Interp.cpu)
    (code : insn array) =
  Host.Interp.run cpu ~env:(null_env table) code

let mapped_cpu () =
  let mem = Aspace.create () in
  Aspace.map mem ~addr:0x1000L ~len:8192 ~perm:Aspace.perm_rw;
  Host.Interp.create mem

let all_alu_ops =
  [ Add; Sub; And; Or; Xor; Shl; Shr; Sar; Mul; Mulhs; Divs; Divu; CmpEq;
    CmpNe; CmpLts; CmpLes; CmpLtu; CmpLeu ]

let alu_cost = function Mul | Mulhs -> 3 | Divs | Divu -> 20 | _ -> 1

let test_cost_accounting () =
  let cpu, _ =
    run_host [ Movi (0, 1L); Movi (1, 2L); GotoI (ek_boring, 0L) ]
  in
  Alcotest.check i64 "3 cycles for 3 single-cycle insns" 3L cpu.cycles;
  Alcotest.check i64 "3 insns" 3L cpu.insns;
  (* every kind's charge: the block [setup; i; exit] against [setup;
     exit].  h0 = 0 and h2 <> 0 make both outcomes of each branch
     reachable; 0x1FFC + 8 crosses into the next page. *)
  let table = Jit.Ghelpers.table () in
  let callee =
    Vex_ir.Helpers.register table ~name:"host_cost_probe" ~cost:7 (fun _ _ ->
        1L)
  in
  let setup =
    [ Movi (0, 0L); Movi (1, 0x1100L); Movi (2, 6L); Movi (3, 3L);
      Movi (4, Int64.bits_of_float 2.0); Movi (5, Int64.bits_of_float 4.0);
      Movi (7, 0x1FFCL) ]
  in
  let next = List.length setup + 1 in
  let charge i =
    let clocks code =
      let cpu = mapped_cpu () in
      ignore (run_raw ~table cpu (Array.of_list code));
      (cpu.cycles, cpu.insns)
    in
    let c0, n0 = clocks (setup @ [ GotoI (ek_boring, 0L) ]) in
    let c1, n1 = clocks (setup @ [ i; GotoI (ek_boring, 0L) ]) in
    Alcotest.check i64 (Fmt.str "one insn: %a" pp_insn i) 1L (Int64.sub n1 n0);
    Int64.to_int (Int64.sub c1 c0)
  in
  let kinds =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun op ->
            [ (Alu (w, op, 6, 2, 3), alu_cost op);
              (Alui (w, op, 6, 2, 3L), alu_cost op) ])
          all_alu_ops)
      [ W32; W64 ]
    @ List.concat_map
        (fun sz ->
          [ (Ld (sz, false, 6, 1, 0), 2); (Ld (sz, true, 6, 1, 0), 2);
            (St (sz, 2, 1, 0), 2); (Ld (sz, false, 6, 7, 0), 2);
            (St (sz, 2, 7, 0), 2) ])
        [ 1; 2; 4; 8 ]
    @ List.map
        (fun op -> (Falu (op, 6, 4, 5), if op = FDiv then 16 else 3))
        [ FAdd; FSub; FMul; FDiv; FMin; FMax; FCmpEq; FCmpLt; FCmpLe ]
    @ List.map
        (fun op -> (Fun1 (op, 6, 4), if op = FSqrt then 16 else 3))
        [ FSqrt; FNeg; FAbs; I32StoF64; F64toI32S; Clz32; Ctz32 ]
    @ [ (Movi (6, 1L), 1); (Mov (6, 2), 1); (Cmov (6, 2, 3), 1);
        (Cmov (6, 0, 3), 1); (Vld (1, 1, 0), 2); (Vst (1, 1, 0), 2);
        (Vmov (1, 2), 1); (Valu (VAdd32, 1, 2, 3), 1); (Vnot (1, 2), 1);
        (Vsplat32 (1, 2), 1); (Vpack (1, 2, 3), 1); (Vunpack (6, 1, 1), 1);
        (Call (callee.c_id, 2, callee.c_cost), 17); (Jz (0, next), 1);
        (Jz (2, next), 1); (Jnz (0, next), 1); (Jnz (2, next), 1);
        (Jmp next, 1); (Label 9, 0); (ExitIf (0, ek_boring, 1L), 1) ]
  in
  List.iter
    (fun (i, cost) ->
      Alcotest.(check int) (Fmt.str "charge of %a" pp_insn i) cost (charge i))
    kinds;
  (* a taken exit of each kind costs 1, like the final [GotoI] *)
  List.iter
    (fun exit ->
      let cpu = mapped_cpu () in
      ignore (run_raw cpu [| Movi (2, 6L); exit |]);
      Alcotest.check i64 (Fmt.str "exit %a" pp_insn exit) 2L cpu.cycles)
    [ ExitIf (2, ek_boring, 1L); Goto (ek_boring, 2); GotoI (ek_boring, 1L) ];
  (* a block alternating inner-loop and step instructions: exact clocks
     and exit triple whichever level runs each instruction *)
  let cpu = mapped_cpu () in
  let triple =
    run_raw ~table cpu
      [|
        Movi (1, 0x1FFCL);
        Movi (2, 5L);
        Alui (W64, Shl, 3, 2, 2L);
        Alu (W64, Add, 4, 3, 2);
        Ld (8, false, 5, 1, 0);
        Mov (0, 4);
        Call (callee.c_id, 1, callee.c_cost);
        St (4, 0, 1, -0x100);
        Alu (W64, Mul, 6, 2, 2);
        ExitIf (2, ek_call, 0x4242L);
        GotoI (ek_boring, 0L);
      |]
  in
  Alcotest.(check (triple int i64 int))
    "exit triple" (ek_call, 0x4242L, 9) triple;
  Alcotest.check i64 "mixed block cycles" 30L cpu.cycles;
  Alcotest.check i64 "mixed block insns" 10L cpu.insns;
  Alcotest.check i64 "shl at the step" 20L (Host.Interp.get_hreg cpu 3);
  Alcotest.check i64 "store after the call" 1L (Aspace.read cpu.mem 0x1EFCL 4);
  (* a backward branch, which the JIT never emits, is run by the step *)
  let cpu = mapped_cpu () in
  ignore
    (run_raw cpu
       [| Movi (1, 3L); Alui (W64, Sub, 1, 1, 1L); Jnz (1, 1);
          GotoI (ek_boring, 0L) |]);
  Alcotest.check i64 "loop cycles" 8L cpu.cycles;
  Alcotest.check i64 "loop insns" 8L cpu.insns;
  (* a block that faults or traps after k instructions leaves the clocks
     as they were *)
  List.iter
    (fun (what, code, raises) ->
      let cpu = mapped_cpu () in
      ignore (run_raw cpu [| Movi (0, 1L); GotoI (ek_boring, 0L) |]);
      (match run_raw cpu (Array.of_list code) with
      | _ -> Alcotest.failf "%s: expected the block to raise" what
      | exception e when raises e -> ());
      Alcotest.check i64 (what ^ ": cycles unchanged") 2L cpu.cycles;
      Alcotest.check i64 (what ^ ": insns unchanged") 2L cpu.insns)
    [
      ( "unmapped load",
        [ Movi (1, 0x9000L); Mov (2, 1); Alu (W64, Add, 3, 1, 2);
          Ld (4, false, 4, 1, 0); GotoI (ek_boring, 0L) ],
        function Aspace.Fault _ -> true | _ -> false );
      ( "divs by zero",
        [ Movi (1, 7L); Movi (2, 0L); Alui (W64, Shl, 3, 1, 1L);
          Alu (W32, Divs, 4, 1, 2); GotoI (ek_boring, 0L) ],
        function Host.Interp.Host_sigfpe -> true | _ -> false );
    ]

(* The inner loop allocates nothing per instruction: a block running its
   body twice allocates exactly what the block running it once does.
   The body covers the seven inline ALU ops at both widths, in-page
   loads of every size and sign, stores, [Cmov], taken and untaken
   branches and an untaken [ExitIf]. *)
let test_inner_loop_allocates_nothing () =
  let inline_ops = [ Add; Sub; And; Or; Xor; CmpEq; CmpNe ] in
  let body k =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun op -> [ Alu (w, op, 4, 2, 3); Alui (w, op, 5, 2, 0x7FL) ])
          inline_ops)
      [ W32; W64 ]
    @ List.concat_map
        (fun sz ->
          [ St (sz, 2, 1, 16); Ld (sz, false, 6, 1, 16); Ld (sz, true, 6, 1, 16) ])
        [ 1; 2; 4; 8 ]
    @ [ Cmov (7, 2, 3); Cmov (7, 0, 3); Mov (8, 2); Movi (9, 77L);
        Jz (0, k); Label k; Jnz (2, k + 1); Label (k + 1); Jz (2, k + 2);
        Label (k + 2); Jnz (0, k + 3); Label (k + 3); Jmp (k + 4);
        Label (k + 4); ExitIf (0, ek_boring, 0x1234L) ]
  in
  let setup = [ Movi (0, 0L); Movi (1, 0x1100L); Movi (2, -2L); Movi (3, 3L) ] in
  let block bodies =
    Host.Encode.decode
      (Host.Encode.assemble (setup @ List.concat bodies @ [ GotoI (ek_boring, 0L) ]))
  in
  let once = block [ body 0 ] and twice = block [ body 0; body 10 ] in
  let cpu = mapped_cpu () in
  let words code =
    ignore (run_raw cpu code);
    let w0 = Gc.minor_words () in
    ignore (run_raw cpu code);
    Gc.minor_words () -. w0
  in
  let n1 = words once and n2 = words twice in
  Alcotest.(check (float 0.))
    (Printf.sprintf "%d more instructions, no more words"
       (Array.length twice - Array.length once))
    n1 n2

(* Reference semantics of the ALU ops that {!Host.Interp.alu_eval}
   writes out inline, plus [Mul] from the rest, at both widths. *)
let alu_ref w op a b =
  let fin v = match w with W32 -> Support.Bits.trunc32 v | W64 -> v in
  match op with
  | Add -> fin (Int64.add a b)
  | Sub -> fin (Int64.sub a b)
  | And -> fin (Int64.logand a b)
  | Or -> fin (Int64.logor a b)
  | Xor -> fin (Int64.logxor a b)
  | Mul -> fin (Int64.mul a b)
  | CmpEq -> Support.Bits.bool64 (fin a = fin b)
  | CmpNe -> Support.Bits.bool64 (fin a <> fin b)
  | _ -> assert false

let alu_ops = [ Add; Sub; And; Or; Xor; Mul; CmpEq; CmpNe ]

(* Operands are full 64-bit values, as registers may hold; a W32 op
   sees only their low halves.  Equal operands are drawn often enough
   to exercise both outcomes of the compares. *)
let alu_prop w name =
  let open QCheck in
  let operands =
    oneof [ pair int64 int64; map (fun a -> (a, a)) int64;
            map (fun (a, h) -> (a, Int64.logxor a (Int64.shift_left h 32)))
              (pair int64 int64) ]
  in
  Test.make ~count:300 ~name
    (pair (oneofl alu_ops) operands)
    (fun (op, (a, b)) -> Host.Interp.alu_eval w op a b = alu_ref w op a b)

(* property: ALU ops match the reference semantics of Bits *)
let prop_alu32 = alu_prop W32 "host W32 alu = Bits semantics"
let prop_alu64 = alu_prop W64 "host W64 alu = Int64 semantics"

(* Byte strings for the decoder: bytes biased towards opcodes and small
   operands (so decoding gets past the first instruction), and valid code
   with branches, cut short or whole, with one byte changed. *)
let decode_input =
  let open QCheck.Gen in
  let valid =
    Bytes.to_string
      (Host.Encode.assemble
         ((Jz (1, 4) :: sample) @ [ Jnz (2, 4); Jmp 5; Label 4; Label 5 ]))
  in
  let byte = frequency [ (1, char); (2, map Char.chr (0 -- 0x1B)) ] in
  let edited =
    map3
      (fun cut at b ->
        let s = Bytes.of_string (String.sub valid 0 cut) in
        if cut > 0 then Bytes.set s (at mod cut) b;
        Bytes.to_string s)
      (0 -- String.length valid) nat byte
  in
  let whole =
    map2
      (fun at b ->
        let s = Bytes.of_string valid in
        Bytes.set s (at mod String.length valid) b;
        Bytes.to_string s)
      nat char
  in
  frequency [ (1, string_size ~gen:byte (0 -- 40)); (2, edited); (2, whole) ]

(* Every register operand names a register that exists, and every call
   passes at most the six argument registers. *)
let operands_in_range (i : insn) =
  let r x = 0 <= x && x < n_hregs and v x = 0 <= x && x < n_hvregs in
  match i with
  | Movi (d, _) -> r d
  | Mov (d, s) | Fun1 (_, d, s) -> r d && r s
  | Alu (_, _, d, s1, s2) | Falu (_, d, s1, s2) -> r d && r s1 && r s2
  | Alui (_, _, d, s, _) | Ld (_, _, d, s, _) | St (_, d, s, _) -> r d && r s
  | Cmov (d, c, s) -> r d && r c && r s
  | Vld (d, b, _) | Vst (d, b, _) | Vsplat32 (d, b) -> v d && r b
  | Vmov (d, s) | Vnot (d, s) -> v d && v s
  | Valu (_, d, s1, s2) -> v d && v s1 && v s2
  | Vpack (d, hi, lo) -> v d && r hi && r lo
  | Vunpack (d, s, _) -> r d && v s
  | Call (_, nargs, _) -> 0 <= nargs && nargs <= List.length arg_regs
  | Jz (c, _) | Jnz (c, _) | ExitIf (c, _, _) | Goto (_, c) -> r c
  | Jmp _ | Label _ | GotoI _ -> true

(* property: decoding never escapes with anything but Decode_error, and
   what it returns has every register operand in range *)
let prop_decode_total =
  QCheck.Test.make ~count:1000 ~name:"decode returns or raises Decode_error"
    (QCheck.make ~print:String.escaped decode_input)
    (fun s ->
      match Host.Encode.decode (Bytes.of_string s) with
      | code -> Array.for_all operands_in_range code
      | exception Host.Encode.Decode_error _ -> true)

(* The assembler as it was before it wrote its result directly: the
   reference [Host.Encode.assemble] must match byte for byte. *)
let reference_assemble (insns : insn list) : Bytes.t =
  let open Support in
  let open Host.Encode in
  (* pass 1: label -> byte offset *)
  let label_off = Hashtbl.create 16 in
  let off = ref 0 in
  List.iter
    (fun i ->
      (match i with Label l -> Hashtbl.replace label_off l !off | _ -> ());
      off := !off + enc_length i)
    insns;
  let target l =
    match Hashtbl.find_opt label_off l with
    | Some o -> Int64.of_int o
    | None -> invalid_arg (Printf.sprintf "assemble: undefined label %d" l)
  in
  let b = Buf.create ~capacity:(!off + 8) () in
  List.iter
    (fun i ->
      match i with
      | Movi (d, imm) ->
          Buf.u8 b 0x01;
          Buf.u8 b d;
          Buf.u64 b imm
      | Mov (d, s) ->
          Buf.u8 b 0x02;
          Buf.u8 b ((d lsl 4) lor s)
      | Alu (w, op, d, s1, s2) ->
          Buf.u8 b (match w with W32 -> 0x03 | W64 -> 0x04);
          Buf.u8 b (alu_index op);
          Buf.u8 b ((d lsl 4) lor s1);
          Buf.u8 b s2
      | Alui (w, op, d, s1, imm) ->
          Buf.u8 b (match w with W32 -> 0x05 | W64 -> 0x06);
          Buf.u8 b (alu_index op);
          Buf.u8 b ((d lsl 4) lor s1);
          Buf.u32 b imm;
          Buf.u8 b 0
      | Ld (sz, sx, d, base, disp) ->
          Buf.u8 b 0x07;
          Buf.u8 b (sz_code sz lor if sx then 0x10 else 0);
          Buf.u8 b ((d lsl 4) lor base);
          Buf.u32 b (Int64.of_int disp)
      | St (sz, s, base, disp) ->
          Buf.u8 b 0x08;
          Buf.u8 b (sz_code sz);
          Buf.u8 b ((s lsl 4) lor base);
          Buf.u32 b (Int64.of_int disp)
      | Cmov (d, c, s) ->
          Buf.u8 b 0x09;
          Buf.u8 b ((d lsl 4) lor c);
          Buf.u8 b s
      | Falu (op, d, s1, s2) ->
          Buf.u8 b 0x0A;
          Buf.u8 b (falu_index op);
          Buf.u8 b ((d lsl 4) lor s1);
          Buf.u8 b s2
      | Fun1 (op, d, s) ->
          Buf.u8 b 0x0B;
          Buf.u8 b (fun1_index op);
          Buf.u8 b ((d lsl 4) lor s)
      | Vld (d, base, disp) ->
          Buf.u8 b 0x0C;
          Buf.u8 b ((d lsl 4) lor base);
          Buf.u32 b (Int64.of_int disp)
      | Vst (s, base, disp) ->
          Buf.u8 b 0x0D;
          Buf.u8 b ((s lsl 4) lor base);
          Buf.u32 b (Int64.of_int disp)
      | Vmov (d, s) ->
          Buf.u8 b 0x0E;
          Buf.u8 b ((d lsl 4) lor s)
      | Valu (op, d, s1, s2) ->
          Buf.u8 b 0x0F;
          Buf.u8 b (valu_index op);
          Buf.u8 b ((d lsl 4) lor s1);
          Buf.u8 b s2
      | Vnot (d, s) ->
          Buf.u8 b 0x10;
          Buf.u8 b ((d lsl 4) lor s)
      | Vsplat32 (d, s) ->
          Buf.u8 b 0x11;
          Buf.u8 b ((d lsl 4) lor s)
      | Vpack (d, hi, lo) ->
          Buf.u8 b 0x12;
          Buf.u8 b d;
          Buf.u8 b ((hi lsl 4) lor lo)
      | Vunpack (d, s, half) ->
          Buf.u8 b 0x13;
          Buf.u8 b ((d lsl 4) lor s);
          Buf.u8 b half
      | Call (id, nargs, cost) ->
          Buf.u8 b 0x14;
          Buf.u16 b id;
          Buf.u8 b nargs;
          Buf.u16 b cost
      | Jz (c, l) ->
          Buf.u8 b 0x15;
          Buf.u8 b c;
          Buf.u32 b (target l)
      | Jnz (c, l) ->
          Buf.u8 b 0x16;
          Buf.u8 b c;
          Buf.u32 b (target l)
      | Jmp l ->
          Buf.u8 b 0x17;
          Buf.u32 b (target l)
      | Label _ -> ()
      | ExitIf (c, ek, dest) ->
          Buf.u8 b 0x18;
          Buf.u8 b c;
          Buf.u8 b ek;
          Buf.u32 b dest
      | Goto (ek, s) ->
          Buf.u8 b 0x19;
          Buf.u8 b ek;
          Buf.u8 b s
      | GotoI (ek, dest) ->
          Buf.u8 b 0x1A;
          Buf.u8 b ek;
          Buf.u32 b dest)
    insns;
  Buf.contents b

(* Listings of every instruction form: register fields, immediates and
   displacements over their whole ranges (fields wider than the encoding
   are truncated alike), labels defined once or twice or not at all, and
   branches to any label of a small range. *)
let listing_gen =
  let open QCheck.Gen in
  let reg = frequency [ (6, 0 -- 15); (1, 0 -- 255) ] in
  let imm = oneof [ map Int64.of_int (-40 -- 40); ui64; map Int64.of_int int ] in
  let disp = oneof [ -64 -- 2048; int ] in
  let label = 0 -- 6 in
  let sz = oneofl [ 1; 2; 4; 8 ] in
  let w = oneofl [ W32; W64 ] in
  let alu = oneofl [ Add; Sub; And; Or; Xor; Shl; Shr; Sar; Mul; Mulhs; Divs; Divu;
                     CmpEq; CmpNe; CmpLts; CmpLes; CmpLtu; CmpLeu ] in
  let falu = oneofl [ FAdd; FSub; FMul; FDiv; FMin; FMax; FCmpEq; FCmpLt; FCmpLe ] in
  let fun1 = oneofl [ FSqrt; FNeg; FAbs; I32StoF64; F64toI32S; Clz32; Ctz32 ] in
  let valu = oneofl [ VAnd; VOr; VXor; VAdd32; VSub32; VCmpEq32; VAdd8; VSub8 ] in
  let insn =
    oneof
      [ map2 (fun d i -> Movi (d, i)) reg imm;
        map2 (fun d s -> Mov (d, s)) reg reg;
        map3 (fun (w, op) d (s1, s2) -> Alu (w, op, d, s1, s2)) (pair w alu) reg (pair reg reg);
        map3 (fun (w, op) (d, s) i -> Alui (w, op, d, s, i)) (pair w alu) (pair reg reg) imm;
        map3 (fun (sz, sx) (d, b) o -> Ld (sz, sx, d, b, o)) (pair sz bool) (pair reg reg) disp;
        map3 (fun sz (s, b) o -> St (sz, s, b, o)) sz (pair reg reg) disp;
        map3 (fun d c s -> Cmov (d, c, s)) reg reg reg;
        map3 (fun op d (s1, s2) -> Falu (op, d, s1, s2)) falu reg (pair reg reg);
        map3 (fun op d s -> Fun1 (op, d, s)) fun1 reg reg;
        map3 (fun d b o -> Vld (d, b, o)) reg reg disp;
        map3 (fun s b o -> Vst (s, b, o)) reg reg disp;
        map2 (fun d s -> Vmov (d, s)) reg reg;
        map3 (fun op d (s1, s2) -> Valu (op, d, s1, s2)) valu reg (pair reg reg);
        map2 (fun d s -> Vnot (d, s)) reg reg;
        map2 (fun d s -> Vsplat32 (d, s)) reg reg;
        map3 (fun d hi lo -> Vpack (d, hi, lo)) reg reg reg;
        map3 (fun d s h -> Vunpack (d, s, h)) reg reg (0 -- 1);
        map3 (fun id n c -> Call (id, n, c)) (oneof [ 0 -- 70000; int ]) (0 -- 6) (0 -- 70000);
        map2 (fun c l -> Jz (c, l)) reg label;
        map2 (fun c l -> Jnz (c, l)) reg label;
        map (fun l -> Jmp l) label;
        map (fun l -> Label l) label;
        map3 (fun c ek d -> ExitIf (c, ek, d)) reg (0 -- 6) imm;
        map2 (fun ek s -> Goto (ek, s)) (0 -- 6) reg;
        map2 (fun ek d -> GotoI (ek, d)) (0 -- 6) imm ]
  in
  list_size (0 -- 40) insn

(* What an assembler makes of a listing: its bytes, or that it raised
   [Invalid_argument]. *)
let assembled f insns =
  match f insns with
  | b -> Some (Bytes.to_string b)
  | exception Invalid_argument _ -> None

let print_listing l = String.concat "\n" (List.map (Fmt.str "%a" pp_insn) l)

(* property: the assembler writes the reference's bytes, and refuses a
   branch to an undefined label as the reference does *)
let prop_assemble_reference =
  QCheck.Test.make ~count:2000 ~name:"assemble = reference assembler"
    (QCheck.make ~print:print_listing listing_gen)
    (fun l -> assembled Host.Encode.assemble l = assembled reference_assemble l)

let test_assemble_undefined_label () =
  List.iter
    (fun l ->
      Alcotest.(check bool) "reference raises" true (assembled reference_assemble l = None);
      Alcotest.check_raises "assemble raises"
        (Invalid_argument "assemble: undefined label 3")
        (fun () -> ignore (Host.Encode.assemble l)))
    [ [ Jz (0, 3) ]; [ Label 0; Jmp 3 ]; [ Label 5; Jnz (1, 3); Label 2 ] ]

let tests =
  [
    t "encode/decode roundtrip" test_roundtrip;
    t "label resolution" test_labels;
    t "alu widths" test_alu_widths;
    t "memory + exits" test_memory_and_exits;
    t "fp on gprs" test_fp_on_gprs;
    t "helper calls" test_helper_call;
    t "helper args per arity" test_helper_args_per_arity;
    t "loads: sizes, extension, page crossing" test_load_sizes;
    t "store to read-only page" test_store_read_only;
    t "store watch sees every store" test_store_watch_sees_all;
    t "div traps" test_div_trap;
    t "cycle accounting" test_cost_accounting;
    t "inner loop allocates nothing" test_inner_loop_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_alu32;
    QCheck_alcotest.to_alcotest prop_alu64;
    QCheck_alcotest.to_alcotest prop_decode_total;
    QCheck_alcotest.to_alcotest prop_assemble_reference;
    t "assemble refuses an undefined label" test_assemble_undefined_label;
  ]
