(* IR construction, typechecking, flatness and evaluator tests. *)

open Vex_ir
open Vex_ir.Ir

let t name f = Alcotest.test_case name `Quick f
let ti64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* a helper env over plain arrays, for Eval tests *)
let array_env ?(table = Jit.Ghelpers.table ()) () =
  let guest = Bytes.make 1024 '\000' in
  let mem = Hashtbl.create 64 in
  let load addr size =
    let v = ref 0L in
    for i = size - 1 downto 0 do
      let b =
        Option.value ~default:0
          (Hashtbl.find_opt mem (Int64.add addr (Int64.of_int i)))
      in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
    done;
    !v
  in
  let store addr size v =
    for i = 0 to size - 1 do
      Hashtbl.replace mem
        (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
    done
  in
  let env =
    {
      Helpers.he_get_guest =
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
                    (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
          done);
      he_load = load;
      he_store = store;
      he_table = table;
    }
  in
  (env, guest)

let test_typecheck_ok () =
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b (WrTmp (t0, Binop (Add32, Get (0, I32), i32 5L)));
  add_stmt b (Put (4, RdTmp t0));
  add_stmt b (Store (RdTmp t0, i32 99L));
  b.next <- RdTmp t0;
  Typecheck.check_block b

let test_typecheck_bad_binop () =
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b (WrTmp (t0, Binop (Add32, i32 1L, i64 2L)));
  b.next <- i32 0L;
  try
    Typecheck.check_block b;
    Alcotest.fail "expected Ill_typed"
  with Typecheck.Ill_typed _ -> ()

let test_typecheck_bad_tmp () =
  let b = new_block () in
  let t0 = new_tmp b I64 in
  add_stmt b (WrTmp (t0, i32 1L));
  b.next <- i32 0L;
  try
    Typecheck.check_block b;
    Alcotest.fail "expected Ill_typed"
  with Typecheck.Ill_typed _ -> ()

(* error paths: each ill-typed or non-flat block must raise Ill_typed
   with a message naming the actual problem *)
let expect_ill_typed what check b msg =
  match check b with
  | () -> Alcotest.failf "%s: expected Ill_typed" what
  | exception Typecheck.Ill_typed m ->
      if not (contains m msg) then
        Alcotest.failf "%s: message %S does not mention %S" what m msg

let test_typecheck_error_messages () =
  (* shift amount must be I8 (the VEX signature), not the operand width *)
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b (WrTmp (t0, Binop (Shl32, i32 1L, i32 2L)));
  b.next <- i32 0L;
  expect_ill_typed "I32 shift amount" Typecheck.check_block b
    "Shl32 rhs has type I32, expected I8";
  let b = new_block () in
  let t0 = new_tmp b I64 in
  add_stmt b (WrTmp (t0, Binop (Shl64, i64 1L, i64 2L)));
  b.next <- i32 0L;
  expect_ill_typed "I64 shift amount" Typecheck.check_block b
    "Shl64 rhs has type I64, expected I8";
  (* a correctly-typed I8 shift amount passes *)
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b (WrTmp (t0, Binop (Shr32, i32 1L, i8 2)));
  b.next <- i32 0L;
  Typecheck.check_block b;
  (* GET at a negative offset *)
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b (WrTmp (t0, Get (-4, I32)));
  b.next <- i32 0L;
  expect_ill_typed "negative GET" Typecheck.check_block b
    "GET at negative offset -4";
  (* temp assigned a value of the wrong type *)
  let b = new_block () in
  let t0 = new_tmp b I64 in
  add_stmt b (WrTmp (t0, i32 7L));
  b.next <- i32 0L;
  expect_ill_typed "tmp type mismatch" Typecheck.check_block b
    "t0 has type I64 but is assigned I32";
  (* guards must be I1 *)
  let b = new_block () in
  add_stmt b (Exit (i32 1L, Jk_boring, 0x1000L));
  b.next <- i32 0L;
  expect_ill_typed "exit guard" Typecheck.check_block b
    "Exit guard has type I32";
  (* out-of-range temporary *)
  let b = new_block () in
  add_stmt b (Put (0, RdTmp 3));
  b.next <- i32 0L;
  expect_ill_typed "RdTmp range" Typecheck.check_block b "out of range";
  (* block next must be a 32-bit code address *)
  let b = new_block () in
  b.next <- i64 0L;
  expect_ill_typed "next type" Typecheck.check_block b
    "block next has type I64, expected I32"

(* An assignment to a temporary outside the type environment is an
   ill-typed block, not an out-of-bounds read of the environment. *)
let test_typecheck_out_of_range_dest () =
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b (WrTmp (t0 + 5, i32 1L));
  b.next <- i32 0L;
  expect_ill_typed "WrTmp dest" Typecheck.check_block b
    "WrTmp t5 out of range";
  expect_ill_typed "WrTmp dest (flat)" Typecheck.check_flat b
    "WrTmp t5 out of range";
  let b = new_block () in
  add_stmt b (WrTmp (-1, i32 1L));
  b.next <- i32 0L;
  expect_ill_typed "negative WrTmp dest" Typecheck.check_block b
    "WrTmp t-1 out of range";
  let callee =
    Helpers.register (Jit.Ghelpers.table ()) ~name:"test_dest" ~cost:1
      (fun _env _args -> 0L)
  in
  let b = new_block () in
  add_stmt b
    (Dirty
       { d_guard = i1 true; d_callee = callee; d_args = []; d_tmp = Some 3;
         d_mfx = Mfx_none });
  b.next <- i32 0L;
  expect_ill_typed "Dirty result" Typecheck.check_block b
    "Dirty result t3 out of range"

let test_flatness_error_messages () =
  (* non-atom PUT payload *)
  let b = new_block () in
  add_stmt b (Put (0, Binop (Add32, i32 1L, i32 2L)));
  b.next <- i32 0L;
  expect_ill_typed "put not flat" Typecheck.check_flat b "PUT not flat";
  (* nested operator in a WrTmp *)
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b
    (WrTmp (t0, Binop (Add32, Unop (Not32, i32 1L), i32 2L)));
  b.next <- i32 0L;
  expect_ill_typed "wrtmp not flat" Typecheck.check_flat b
    "WrTmp rhs not flat";
  (* non-atom store operands *)
  let b = new_block () in
  add_stmt b (Store (Binop (Add32, i32 1L, i32 2L), i32 0L));
  b.next <- i32 0L;
  expect_ill_typed "store not flat" Typecheck.check_flat b "Store not flat";
  (* computed next *)
  let b = new_block () in
  b.next <- Binop (Add32, i32 1L, i32 2L);
  expect_ill_typed "next not flat" Typecheck.check_flat b
    "block next not flat"

let test_flatness () =
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b (WrTmp (t0, Binop (Add32, Binop (Add32, i32 1L, i32 2L), i32 3L)));
  b.next <- i32 0L;
  Typecheck.check_block b;
  (try
     Typecheck.check_flat b;
     Alcotest.fail "nested tree accepted as flat"
   with Typecheck.Ill_typed _ -> ());
  let b' = Jit.Opt.flatten b in
  Typecheck.check_flat b'

let eval_block ?table build =
  let b = new_block () in
  let next = build b in
  b.next <- next;
  let env, guest = array_env ?table () in
  ((Eval.run env b).next_pc, guest)

let test_eval_arith () =
  let r, _ =
    eval_block (fun b ->
        let t0 = new_tmp b I32 in
        add_stmt b (WrTmp (t0, Binop (Mul32, i32 7L, i32 6L)));
        RdTmp t0)
  in
  Alcotest.check ti64 "7*6" 42L r

let test_eval_wraps () =
  let r, _ =
    eval_block (fun b ->
        let t0 = new_tmp b I32 in
        add_stmt b (WrTmp (t0, Binop (Add32, i32 0xFFFFFFFFL, i32 1L)));
        RdTmp t0)
  in
  Alcotest.check ti64 "wraps" 0L r

let test_eval_div_zero () =
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b (WrTmp (t0, Binop (DivS32, i32 5L, i32 0L)));
  b.next <- RdTmp t0;
  let env, _ = array_env () in
  try
    ignore (Eval.run env b);
    Alcotest.fail "division by zero did not raise"
  with Eval.Eval_error _ -> ()

let test_eval_memory () =
  let r, guest =
    eval_block (fun b ->
        add_stmt b (Store (i32 0x100L, i32 0xDEADBEEFL));
        let t0 = new_tmp b I32 in
        add_stmt b (WrTmp (t0, Load (I32, i32 0x100L)));
        let t1 = new_tmp b I16 in
        add_stmt b (WrTmp (t1, Load (I16, i32 0x102L)));
        let t2 = new_tmp b I32 in
        add_stmt b (WrTmp (t2, Unop (U16to32, RdTmp t1)));
        add_stmt b (Put (0, RdTmp t0));
        RdTmp t2)
  in
  Alcotest.check ti64 "halfword load" 0xDEADL r;
  Alcotest.(check char) "put wrote guest" '\xEF' (Bytes.get guest 0)

let test_eval_exit () =
  let r, guest =
    eval_block (fun b ->
        add_stmt b (Exit (i1 true, Jk_boring, 0x1234L));
        add_stmt b (Put (0, i32 1L));
        i32 0L)
  in
  Alcotest.check ti64 "took exit" 0x1234L r;
  Alcotest.(check char) "skipped rest" '\000' (Bytes.get guest 0)

let test_eval_fp_simd () =
  let r, _ =
    eval_block (fun b ->
        let f = new_tmp b F64 in
        add_stmt b (WrTmp (f, Binop (MulF64, Const (CF64 1.5), Const (CF64 4.0))));
        let i = new_tmp b I32 in
        add_stmt b (WrTmp (i, Unop (F64toI32S, RdTmp f)));
        let v = new_tmp b V128 in
        add_stmt b (WrTmp (v, Unop (Dup32x4, RdTmp i)));
        let v2 = new_tmp b V128 in
        add_stmt b (WrTmp (v2, Binop (Add32x4, RdTmp v, RdTmp v)));
        let h = new_tmp b I64 in
        add_stmt b (WrTmp (h, Unop (V128to64, RdTmp v2)));
        let out = new_tmp b I32 in
        add_stmt b (WrTmp (out, Unop (T64to32, RdTmp h)));
        RdTmp out)
  in
  Alcotest.check ti64 "1.5*4 doubled" 12L r

let test_eval_memcheck_combinators () =
  let one name op arg expected =
    let r, _ =
      eval_block (fun b ->
          let t = new_tmp b I32 in
          add_stmt b (WrTmp (t, Unop (op, i32 arg)));
          RdTmp t)
    in
    Alcotest.check ti64 name expected r
  in
  one "Left32 smears up" Left32 0x8L 0xFFFFFFF8L;
  one "CmpwNEZ32 zero" CmpwNEZ32 0L 0L;
  one "CmpwNEZ32 nonzero" CmpwNEZ32 4L 0xFFFFFFFFL

let test_eval_ccall () =
  let table = Jit.Ghelpers.table () in
  let callee =
    Helpers.register table ~name:"test_sum3" ~cost:1 (fun _env args ->
        Int64.add args.(0) (Int64.add args.(1) args.(2)))
  in
  let r, _ =
    eval_block ~table (fun b ->
        let t = new_tmp b I32 in
        add_stmt b (WrTmp (t, CCall (callee, I32, [ i32 1L; i32 2L; i32 3L ])));
        RdTmp t)
  in
  Alcotest.check ti64 "ccall" 6L r

let test_guarded_dirty () =
  let hits = ref 0 in
  let table = Jit.Ghelpers.table () in
  let callee =
    Helpers.register table ~name:"test_hit" ~cost:1 (fun _env _args ->
        incr hits;
        0L)
  in
  let _r, _ =
    eval_block ~table (fun b ->
        add_stmt b
          (Dirty
             { d_guard = i1 false; d_callee = callee; d_args = [];
               d_tmp = None; d_mfx = Mfx_none });
        add_stmt b
          (Dirty
             { d_guard = i1 true; d_callee = callee; d_args = [];
               d_tmp = None; d_mfx = Mfx_none });
        i32 0L)
  in
  Alcotest.(check int) "guard respected" 1 !hits

let prop_eval_add =
  QCheck.Test.make ~count:300 ~name:"eval Add32 = int64 add (mod 2^32)"
    QCheck.(pair int64 int64)
    (fun (x, y) ->
      match
        Eval.eval_binop Add32
          (Eval.VI (Support.Bits.trunc32 x))
          (Eval.VI (Support.Bits.trunc32 y))
      with
      | Eval.VI r -> r = Support.Bits.trunc32 (Int64.add x y)
      | _ -> false)

let prop_eval_cmp =
  QCheck.Test.make ~count:300 ~name:"eval CmpLT32S = signed compare"
    QCheck.(pair int64 int64)
    (fun (x, y) ->
      let x = Support.Bits.trunc32 x and y = Support.Bits.trunc32 y in
      match Eval.eval_binop CmpLT32S (Eval.VI x) (Eval.VI y) with
      | Eval.VI r -> (r = 1L) = (Support.Bits.sext32 x < Support.Bits.sext32 y)
      | _ -> false)

let test_pp_smoke () =
  let b = new_block () in
  let t0 = new_tmp b I32 in
  add_stmt b (IMark (0x1000L, 4));
  add_stmt b (WrTmp (t0, Binop (Add32, Get (0, I32), i32 1L)));
  add_stmt b (Exit (Unop (CmpNEZ32, RdTmp t0), Jk_boring, 0x2000L));
  b.next <- i32 0x1004L;
  let s = Fmt.str "%a" Pp.pp_block b in
  Alcotest.(check bool) "mentions Add32" true (contains s "Add32");
  Alcotest.(check bool) "mentions IMark" true (contains s "IMark")

let tests =
  [
    t "typecheck accepts well-formed" test_typecheck_ok;
    t "typecheck rejects bad binop" test_typecheck_bad_binop;
    t "typecheck rejects tmp mismatch" test_typecheck_bad_tmp;
    t "typecheck error messages" test_typecheck_error_messages;
    t "typecheck rejects out-of-range destinations"
      test_typecheck_out_of_range_dest;
    t "flatness error messages" test_flatness_error_messages;
    t "flatness" test_flatness;
    t "eval arithmetic" test_eval_arith;
    t "eval 32-bit wrap" test_eval_wraps;
    t "eval div-by-zero traps" test_eval_div_zero;
    t "eval loads/stores/puts" test_eval_memory;
    t "eval side exits" test_eval_exit;
    t "eval FP + SIMD" test_eval_fp_simd;
    t "eval memcheck combinators" test_eval_memcheck_combinators;
    t "eval pure helper calls" test_eval_ccall;
    t "guarded dirty calls" test_guarded_dirty;
    t "pretty-printer" test_pp_smoke;
    QCheck_alcotest.to_alcotest prop_eval_add;
    QCheck_alcotest.to_alcotest prop_eval_cmp;
  ]
