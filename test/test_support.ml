(* Unit + property tests for the support substrate. *)

open Support

let t name f = Alcotest.test_case name `Quick f
let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

let test_trunc_sext () =
  Alcotest.check i64 "trunc8" 0xCDL (Bits.trunc8 0xABCDL);
  Alcotest.check i64 "trunc32" 0x89ABCDEFL (Bits.trunc32 0x0123456789ABCDEFL);
  Alcotest.check i64 "sext8 neg" (-1L) (Bits.sext8 0xFFL);
  Alcotest.check i64 "sext8 pos" 0x7FL (Bits.sext8 0x7FL);
  Alcotest.check i64 "sext16" (-2L) (Bits.sext16 0xFFFEL);
  Alcotest.check i64 "sext32" (-1L) (Bits.sext32 0xFFFFFFFFL);
  Alcotest.check i64 "sext32 pos" 0x7FFFFFFFL (Bits.sext32 0x7FFFFFFFL)

let test_shifts () =
  Alcotest.check i64 "shl32 wraps" 0x80000000L (Bits.shl32 1L 31L);
  Alcotest.check i64 "shl32 mask" 2L (Bits.shl32 1L 33L);
  Alcotest.check i64 "shr32" 1L (Bits.shr32 0x80000000L 31L);
  Alcotest.check i64 "sar32 neg" 0xFFFFFFFFL (Bits.sar32 0x80000000L 31L);
  Alcotest.check i64 "clz32" 0L (Bits.clz32 0x80000000L);
  Alcotest.check i64 "clz32 zero" 32L (Bits.clz32 0L);
  Alcotest.check i64 "ctz32" 31L (Bits.ctz32 0x80000000L)

let test_cmp () =
  Alcotest.(check bool) "cmp32s" true (Bits.cmp32s 0xFFFFFFFFL 1L < 0);
  Alcotest.(check bool) "cmp32u" true (Bits.cmp32u 0xFFFFFFFFL 1L > 0)

let test_buf_roundtrip () =
  let b = Buf.create () in
  Buf.u8 b 0xAB;
  Buf.u16 b 0x1234;
  Buf.u32 b 0xDEADBEEFL;
  Buf.u64 b 0x0102030405060708L;
  let c = Buf.contents b in
  Alcotest.(check int) "len" 15 (Bytes.length c);
  Alcotest.(check int) "u8" 0xAB (Buf.read_u8 c 0);
  Alcotest.(check int) "u16" 0x1234 (Bytes.get_uint16_le c 1);
  Alcotest.check i64 "u32" 0xDEADBEEFL (Buf.read_u32 c 3);
  Alcotest.check i64 "u64" 0x0102030405060708L (Bytes.get_int64_le c 7)

let test_v128 () =
  let a = V128.make ~lo:0xFF00FF00FF00FF00L ~hi:0x0123456789ABCDEFL in
  Alcotest.check i64 "lane0" 0xFF00FF00L (V128.get_lane32 a 0);
  Alcotest.check i64 "lane3" 0x01234567L (V128.get_lane32 a 3);
  let b = V128.set_lane32 a 2 0xAAAAAAAAL in
  Alcotest.check i64 "set lane2" 0xAAAAAAAAL (V128.get_lane32 b 2);
  Alcotest.check i64 "lane3 intact" 0x01234567L (V128.get_lane32 b 3);
  let p = V128.of_pattern16 0x00FF in
  Alcotest.check i64 "pattern lo" (-1L) (V128.lo p);
  Alcotest.check i64 "pattern hi" 0L (V128.hi p);
  let s = V128.splat32 7L in
  Alcotest.check i64 "splat" 7L (V128.get_lane32 s 3)

let test_v128_arith () =
  let x = V128.splat32 0xFFFFFFFFL in
  let y = V128.splat32 1L in
  let z = V128.add32x4 x y in
  Alcotest.check i64 "lane add wraps" 0L (V128.get_lane32 z 1);
  let e = V128.cmpeq32x4 x x in
  Alcotest.check i64 "cmpeq all ones" 0xFFFFFFFFL (V128.get_lane32 e 0);
  let b = V128.add8x16 (V128.splat32 0xFF00FF00L) (V128.splat32 0x01010101L) in
  Alcotest.check i64 "byte add wraps per byte" 0x00010001L (V128.get_lane32 b 0)

let test_vec () =
  let v = Support.Vec.create 0 in
  for i = 0 to 99 do
    Support.Vec.push v i
  done;
  Alcotest.(check int) "len" 100 (Support.Vec.length v);
  Alcotest.(check int) "get" 42 (Support.Vec.get v 42);
  Support.Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Support.Vec.get v 42);
  let copy = Support.Vec.copy v in
  Support.Vec.set copy 42 7;
  Alcotest.(check int) "copy is independent" (-1) (Support.Vec.get v 42)

let test_rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  for _ = 1 to 50 do
    Alcotest.check i64 "same stream" (Rng.next_u64 a) (Rng.next_u64 b)
  done;
  let r = Rng.create 1 in
  for _ = 1 to 100 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "bounded" true (x >= 0 && x < 10)
  done

let prop_sext_trunc =
  QCheck.Test.make ~count:500 ~name:"trunc32 . sext32 = trunc32" QCheck.int64
    (fun x -> Bits.trunc32 (Bits.sext32 x) = Bits.trunc32 x)

let prop_buf_u32 =
  QCheck.Test.make ~count:200 ~name:"buf u32 roundtrip" QCheck.int64 (fun x ->
      let b = Buf.create () in
      Buf.u32 b x;
      Buf.read_u32 (Buf.contents b) 0 = Bits.trunc32 x)

let prop_v128_lanes =
  QCheck.Test.make ~count:200 ~name:"v128 lane set/get"
    QCheck.(pair (int_bound 3) int64)
    (fun (lane, v) ->
      let x = V128.set_lane32 V128.zero lane v in
      V128.get_lane32 x lane = Bits.trunc32 v)

let tests =
  [
    t "bits trunc/sext" test_trunc_sext;
    t "bits shifts" test_shifts;
    t "bits compare" test_cmp;
    t "buf roundtrip" test_buf_roundtrip;
    t "v128 lanes" test_v128;
    t "v128 arithmetic" test_v128_arith;
    t "vec" test_vec;
    t "rng deterministic" test_rng_deterministic;
    QCheck_alcotest.to_alcotest prop_sext_trunc;
    QCheck_alcotest.to_alcotest prop_buf_u32;
    QCheck_alcotest.to_alcotest prop_v128_lanes;
  ]
