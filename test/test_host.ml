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

let test_cost_accounting () =
  let cpu, _ =
    run_host [ Movi (0, 1L); Movi (1, 2L); GotoI (ek_boring, 0L) ]
  in
  Alcotest.check i64 "3 cycles for 3 single-cycle insns" 3L cpu.cycles;
  Alcotest.check i64 "3 insns" 3L cpu.insns

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
   with branches, cut short and with one byte changed. *)
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
  frequency [ (1, string_size ~gen:byte (0 -- 40)); (2, edited) ]

(* property: decoding never escapes with anything but Decode_error *)
let prop_decode_total =
  QCheck.Test.make ~count:1000 ~name:"decode returns or raises Decode_error"
    (QCheck.make ~print:String.escaped decode_input)
    (fun s ->
      match Host.Encode.decode (Bytes.of_string s) with
      | _ -> true
      | exception Host.Encode.Decode_error _ -> true)

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
    QCheck_alcotest.to_alcotest prop_alu32;
    QCheck_alcotest.to_alcotest prop_alu64;
    QCheck_alcotest.to_alcotest prop_decode_total;
  ]
