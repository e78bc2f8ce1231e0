(* Address-space manager tests. *)

let t name f = Alcotest.test_case name `Quick f
let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

let test_map_rw () =
  let m = Aspace.create () in
  Aspace.map m ~addr:0x1000L ~len:4096 ~perm:Aspace.perm_rw;
  Aspace.write m 0x1000L 4 0xDEADBEEFL;
  Alcotest.check i64 "read back" 0xDEADBEEFL (Aspace.read m 0x1000L 4);
  Aspace.write m 0x1FFFL 1 0xABL;
  Alcotest.check i64 "last byte" 0xABL (Aspace.read m 0x1FFFL 1)

let test_cross_page () =
  let m = Aspace.create () in
  Aspace.map m ~addr:0x1000L ~len:8192 ~perm:Aspace.perm_rw;
  Aspace.write m 0x1FFEL 4 0x11223344L;
  Alcotest.check i64 "crossing read" 0x11223344L (Aspace.read m 0x1FFEL 4);
  Aspace.write m 0x1FFCL 8 0x0102030405060708L;
  Alcotest.check i64 "crossing 8" 0x0102030405060708L (Aspace.read m 0x1FFCL 8)

let test_faults () =
  let m = Aspace.create () in
  Aspace.map m ~addr:0x1000L ~len:4096 ~perm:Aspace.perm_rx;
  (try
     ignore (Aspace.read m 0x5000L 4);
     Alcotest.fail "unmapped read"
   with Aspace.Fault { kind = Aspace.Read; _ } -> ());
  (try
     Aspace.write m 0x1000L 4 0L;
     Alcotest.fail "write to rx"
   with Aspace.Fault { kind = Aspace.Write; _ } -> ());
  ignore (Aspace.fetch_u8 m 0x1000L);
  Aspace.protect m ~addr:0x1000L ~len:4096 ~perm:Aspace.perm_rw;
  Aspace.write m 0x1000L 4 5L;
  try
    ignore (Aspace.fetch_u8 m 0x1000L);
    Alcotest.fail "exec of rw"
  with Aspace.Fault { kind = Aspace.Exec; _ } -> ()

let test_unmap () =
  let m = Aspace.create () in
  Aspace.map m ~addr:0x1000L ~len:8192 ~perm:Aspace.perm_rw;
  Aspace.unmap m ~addr:0x1000L ~len:4096;
  Alcotest.(check bool) "first gone" false (Aspace.is_mapped m 0x1000L);
  Alcotest.(check bool) "second stays" true (Aspace.is_mapped m 0x2000L)

let test_find_free () =
  let m = Aspace.create () in
  Aspace.map m ~addr:0x10000L ~len:4096 ~perm:Aspace.perm_rw;
  Aspace.map m ~addr:0x12000L ~len:4096 ~perm:Aspace.perm_rw;
  let a = Aspace.find_free m ~hint:0x10000L ~limit:0x20000L ~len:4096 in
  Alcotest.check i64 "hole found" 0x11000L a;
  let b = Aspace.find_free m ~hint:0x10000L ~limit:0x20000L ~len:8192 in
  Alcotest.check i64 "big block skips hole" 0x13000L b;
  try
    ignore (Aspace.find_free m ~hint:0x10000L ~limit:0x12000L ~len:16384);
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

let test_asciiz_move () =
  let m = Aspace.create () in
  Aspace.map m ~addr:0x1000L ~len:4096 ~perm:Aspace.perm_rw;
  Aspace.write_bytes m 0x1000L (Bytes.of_string "hello\000");
  Alcotest.(check string) "asciiz" "hello" (Aspace.read_asciiz m 0x1000L);
  Aspace.move m ~src:0x1000L ~dst:0x1003L ~len:6;
  Alcotest.(check string) "overlapping move" "helhello"
    (Aspace.read_asciiz m 0x1000L)

let test_store_watch () =
  let m = Aspace.create () in
  Aspace.map m ~addr:0x1000L ~len:4096 ~perm:Aspace.perm_rw;
  let hits = ref [] in
  Aspace.add_store_watch m (fun addr size -> hits := (addr, size) :: !hits);
  Aspace.write m 0x1004L 4 1L;
  Aspace.write_u8 m 0x1008L 2;
  Alcotest.(check int) "two notifications" 2 (List.length !hits)

(* The last-page cache must never outlive a change to the page table:
   after protect, unmap and a zeroing map, reads, writes and the
   int-address fast paths all see the new state. *)
let test_page_cache_invalidation () =
  let m = Aspace.create () in
  let a = 0x5008L and ai = 0x5008 in
  let read_fault () =
    match Aspace.read m a 4 with
    | _ -> Alcotest.fail "expected a read fault"
    | exception Aspace.Fault { addr; kind = Aspace.Read } ->
        Alcotest.check i64 "fault address" a addr
  in
  Aspace.map m ~addr:0x5000L ~len:4096 ~perm:Aspace.perm_rw;
  Aspace.write m a 4 0x1234L;
  Alcotest.check i64 "cached read" 0x1234L (Aspace.read m a 4);
  Alcotest.(check int) "page_r sees the page" 4096
    (Bytes.length (Aspace.page_r m ai));
  Aspace.protect m ~addr:0x5000L ~len:4096 ~perm:Aspace.perm_none;
  read_fault ();
  Alcotest.(check int) "page_r after protect none" 0
    (Bytes.length (Aspace.page_r m ai));
  Alcotest.(check int) "page_w after protect none" 0
    (Bytes.length (Aspace.page_w m ai));
  Aspace.protect m ~addr:0x5000L ~len:4096 ~perm:Aspace.perm_rw;
  Alcotest.check i64 "readable again" 0x1234L (Aspace.read m a 4);
  Aspace.unmap m ~addr:0x5000L ~len:4096;
  read_fault ();
  Alcotest.(check int) "page_r after unmap" 0 (Bytes.length (Aspace.page_r m ai));
  Aspace.map m ~addr:0x5000L ~len:4096 ~perm:Aspace.perm_rw;
  Alcotest.check i64 "re-mapped page is zeroed" 0L (Aspace.read m a 4);
  Aspace.write m a 4 0x5678L;
  Aspace.map ~zero:true m ~addr:0x5000L ~len:4096 ~perm:Aspace.perm_rw;
  Alcotest.check i64 "zeroing map over a cached page" 0L (Aspace.read m a 4);
  Aspace.write m a 4 0x9ABCL;
  Bytes.set_int32_le (Aspace.page_w m ai) (ai land 0xFFF) 0x4321l;
  Alcotest.check i64 "page_w writes the live page" 0x4321L
    (Aspace.read m a 4);
  Aspace.add_store_watch m (fun _ _ -> ());
  Alcotest.(check int) "no page_w while a store watch is registered" 0
    (Bytes.length (Aspace.page_w m ai));
  Alcotest.(check int) "page_r unaffected by a store watch" 4096
    (Bytes.length (Aspace.page_r m ai))

let test_rounding () =
  Alcotest.check i64 "round_up" 0x2000L (Aspace.round_up 0x1001L);
  Alcotest.check i64 "round_up exact" 0x1000L (Aspace.round_up 0x1000L);
  Alcotest.check i64 "round_down" 0x1000L (Aspace.round_down 0x1FFFL);
  Alcotest.(check int) "round_up_int" 4096 (Aspace.round_up_int 1)

let prop_rw_roundtrip =
  QCheck.Test.make ~count:200 ~name:"aspace read/write roundtrip"
    QCheck.(pair (int_bound 4000) int64)
    (fun (off, v) ->
      let m = Aspace.create () in
      Aspace.map m ~addr:0x1000L ~len:8192 ~perm:Aspace.perm_rw;
      let addr = Int64.add 0x1000L (Int64.of_int off) in
      Aspace.write m addr 8 v;
      Aspace.read m addr 8 = v)

let tests =
  [
    t "map + read/write" test_map_rw;
    t "cross-page access" test_cross_page;
    t "permission faults" test_faults;
    t "unmap" test_unmap;
    t "find_free" test_find_free;
    t "asciiz + overlapping move" test_asciiz_move;
    t "store watch" test_store_watch;
    t "last-page cache invalidation" test_page_cache_invalidation;
    t "page rounding" test_rounding;
    QCheck_alcotest.to_alcotest prop_rw_roundtrip;
  ]
