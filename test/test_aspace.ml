(* Address-space manager tests. *)

let t name f = Alcotest.test_case name `Quick f
let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal
let is_mapped m addr = Aspace.lookup m (Aspace.page_index addr) != Aspace.no_page

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
  Alcotest.(check bool) "first gone" false (is_mapped m 0x1000L);
  Alcotest.(check bool) "second stays" true (is_mapped m 0x2000L)

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

(* A 4-byte load or store at [a] on [m], run by the VH64 interpreter,
   whose inner loop walks the page table itself. *)
let host_ld_code a =
  Host.Arch.[| Movi (1, a); Ld (4, false, 2, 1, 0); GotoI (ek_boring, 0L) |]

let host_run m code =
  let cpu = Host.Interp.create m in
  ignore (Test_host.run_raw cpu code);
  cpu

let host_ld m a = Host.Interp.get_hreg (host_run m (host_ld_code a)) 2

let host_st m a v =
  let open Host.Arch in
  ignore (host_run m [| Movi (1, a); Movi (2, v); St (4, 2, 1, 0); GotoI (ek_boring, 0L) |])

(* Every change to the page table is seen at once: after protect,
   unmap and a zeroing map, reads, writes and the interpreter's loads
   and stores all see the new state. *)
let test_page_table_updates () =
  let m = Aspace.create () in
  let a = 0x5008L in
  let fault what kind f =
    match f () with
    | _ -> Alcotest.failf "%s: expected a fault" what
    | exception Aspace.Fault { addr; kind = k } ->
        Alcotest.check i64 (what ^ ": fault address") a addr;
        Alcotest.(check bool) (what ^ ": fault kind") true (k = kind)
  in
  let read_fault () = fault "read" Aspace.Read (fun () -> Aspace.read m a 4) in
  let host_faults after =
    fault ("host load " ^ after) Aspace.Read (fun () -> host_ld m a);
    fault ("host store " ^ after) Aspace.Write (fun () -> host_st m a 1L)
  in
  Aspace.map m ~addr:0x5000L ~len:4096 ~perm:Aspace.perm_rw;
  Aspace.write m a 4 0x1234L;
  Alcotest.check i64 "cached read" 0x1234L (Aspace.read m a 4);
  Alcotest.check i64 "host load reads the written value" 0x1234L (host_ld m a);
  Aspace.protect m ~addr:0x5000L ~len:4096 ~perm:Aspace.perm_none;
  read_fault ();
  host_faults "after protect none";
  Aspace.protect m ~addr:0x5000L ~len:4096 ~perm:Aspace.perm_rw;
  Alcotest.check i64 "readable again" 0x1234L (Aspace.read m a 4);
  Aspace.unmap m ~addr:0x5000L ~len:4096;
  read_fault ();
  host_faults "after unmap";
  Aspace.map m ~addr:0x5000L ~len:4096 ~perm:Aspace.perm_rw;
  Alcotest.check i64 "re-mapped page is zeroed" 0L (Aspace.read m a 4);
  Aspace.write m a 4 0x5678L;
  Aspace.map ~zero:true m ~addr:0x5000L ~len:4096 ~perm:Aspace.perm_rw;
  Alcotest.check i64 "zeroing map over a cached page" 0L (Aspace.read m a 4);
  Aspace.write m a 4 0x9ABCL;
  host_st m a 0x4321L;
  Alcotest.check i64 "host store lands in the page" 0x4321L (Aspace.read m a 4);
  let hits = ref [] in
  Aspace.add_store_watch m (fun addr size -> hits := (addr, size) :: !hits);
  host_st m a 0x8765L;
  Alcotest.(check (list (pair i64 int)))
    "host store reaches the store watch" [ (a, 4) ] !hits;
  Alcotest.check i64 "watched store landed" 0x8765L (Aspace.read m a 4);
  (* the inner loop stops at the exit, past the load: it ran the load *)
  let cpu = Host.Interp.create m in
  Alcotest.(check int) "host load runs in-page under a store watch" 2
    (Host.Interp.fast cpu (host_ld_code a) 0);
  Alcotest.check i64 "in-page load reads the page" 0x8765L
    (Host.Interp.get_hreg cpu 2)

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

(* ---- the page table against a per-page model --------------------- *)

(* The pages the ops touch: four across the boundary between the first
   and second second-level arrays (index 0x400), and the top page.
   Every other page stays unmapped. *)
let window = [ 0x3FE; 0x3FF; 0x400; 0x401 ]
let top = 0xFFFFF

type op =
  | Map of int * int * Aspace.perm * bool  (** first page, pages, perm, zero *)
  | Unmap of int * int
  | Protect of int * int * Aspace.perm
  | Read of int64 * int
  | Write of int64 * int * int64
  | Fetch of int64

let pp_perm (p : Aspace.perm) =
  Printf.sprintf "%c%c%c" (if p.r then 'r' else '-') (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

let show_op = function
  | Map (pi, n, p, z) -> Printf.sprintf "map %x+%d %s%s" pi n (pp_perm p) (if z then " zero" else "")
  | Unmap (pi, n) -> Printf.sprintf "unmap %x+%d" pi n
  | Protect (pi, n, p) -> Printf.sprintf "protect %x+%d %s" pi n (pp_perm p)
  | Read (a, sz) -> Printf.sprintf "read %Lx/%d" a sz
  | Write (a, sz, v) -> Printf.sprintf "write %Lx/%d %Lx" a sz v
  | Fetch a -> Printf.sprintf "fetch %Lx" a

let op_gen =
  let open QCheck.Gen in
  (* a run of pages inside the window, or the top page alone (a range
     past it would wrap to page 0) *)
  let run =
    oneof
      [
        (oneofl window >>= fun pi ->
         int_range 1 (0x402 - pi) >|= fun n -> (pi, n));
        return (top, 1);
      ]
  in
  let perm =
    oneofl
      Aspace.[ perm_none; perm_rw; perm_rx; perm_rwx; { r = true; w = false; x = false } ]
  in
  (* any offset, or one close enough to the page end to cross it *)
  let addr =
    map2
      (fun pi off -> Int64.of_int ((pi lsl 12) + off))
      (oneofl (top :: window))
      (oneof [ int_bound 4095; int_range 4089 4095 ])
  in
  let size = oneofl [ 1; 2; 4; 8 ] in
  frequency
    [
      (3, map3 (fun (pi, n) p z -> Map (pi, n, p, z)) run perm bool);
      (1, map (fun (pi, n) -> Unmap (pi, n)) run);
      (2, map2 (fun (pi, n) p -> Protect (pi, n, p)) run perm);
      (4, map2 (fun a sz -> Read (a, sz)) addr size);
      (4, map3 (fun a sz v -> Write (a, sz, v)) addr size ui64);
      (2, map (fun a -> Fetch a) addr);
    ]

exception Model_fault of Aspace.access_kind * int64

(* What an op returns: a value (unit ops return 0), or the fault. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Aspace.Fault { addr; kind } -> Error (kind, addr)
  | exception Model_fault (kind, addr) -> Error (kind, addr)

let prop_page_table_vs_model =
  QCheck.Test.make ~count:300 ~name:"page table matches a per-page model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 60) op_gen))
    (fun ops ->
      let m = Aspace.create () in
      let model : (int, Aspace.perm * Bytes.t) Hashtbl.t = Hashtbl.create 8 in
      let page_of a = Int64.to_int (Int64.shift_right_logical (Int64.logand a 0xFFFF_FFFFL) 12) in
      let off_of a = Int64.to_int a land 0xFFF in
      (* the page holding byte [a] if [ok] allows its permission *)
      let page ok kind a =
        match Hashtbl.find_opt model (page_of a) with
        | Some (p, d) when ok p -> d
        | _ -> raise (Model_fault (kind, a))
      in
      let m_read a sz =
        if off_of a + sz <= 4096 then begin
          let d = page (fun p -> p.Aspace.r) Read a in
          let v = ref 0L in
          for i = sz - 1 downto 0 do
            v := Int64.logor (Int64.shift_left !v 8)
                   (Int64.of_int (Bytes.get_uint8 d (off_of a + i)))
          done;
          !v
        end
        else begin
          (* a page-crossing read goes a byte at a time, last byte first *)
          let v = ref 0L in
          for i = sz - 1 downto 0 do
            let b = Int64.add a (Int64.of_int i) in
            let d = page (fun p -> p.r) Read b in
            v := Int64.logor (Int64.shift_left !v 8)
                   (Int64.of_int (Bytes.get_uint8 d (off_of b)))
          done;
          !v
        end
      in
      let m_write a sz v =
        let byte i = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF in
        if off_of a + sz <= 4096 then begin
          let d = page (fun p -> p.w) Write a in
          for i = 0 to sz - 1 do
            Bytes.set_uint8 d (off_of a + i) (byte i)
          done
        end
        else
          (* a page-crossing write goes a byte at a time, first byte
             first, and keeps the bytes written before a fault *)
          for i = 0 to sz - 1 do
            let b = Int64.add a (Int64.of_int i) in
            Bytes.set_uint8 (page (fun p -> p.w) Write b) (off_of b) (byte i)
          done
      in
      let m_protect pi n perm =
        for q = pi to pi + n - 1 do
          match Hashtbl.find_opt model q with
          | Some (_, d) -> Hashtbl.replace model q (perm, d)
          | None -> raise (Model_fault (Map, Int64.of_int (q lsl 12)))
        done
      in
      let agree = ref true in
      let same r r' = if r <> r' then agree := false in
      List.iter
        (fun op ->
          match op with
          | Map (pi, n, perm, zero) ->
              Aspace.map ~zero m ~addr:(Int64.of_int (pi lsl 12)) ~len:(n * 4096) ~perm;
              for q = pi to pi + n - 1 do
                match Hashtbl.find_opt model q with
                | Some (_, d) ->
                    if zero then Bytes.fill d 0 4096 '\000';
                    Hashtbl.replace model q (perm, d)
                | None -> Hashtbl.replace model q (perm, Bytes.make 4096 '\000')
              done
          | Unmap (pi, n) ->
              Aspace.unmap m ~addr:(Int64.of_int (pi lsl 12)) ~len:(n * 4096);
              for q = pi to pi + n - 1 do
                Hashtbl.remove model q
              done
          | Protect (pi, n, perm) ->
              same
                (outcome (fun () ->
                     Aspace.protect m ~addr:(Int64.of_int (pi lsl 12)) ~len:(n * 4096) ~perm;
                     0L))
                (outcome (fun () -> m_protect pi n perm; 0L))
          | Read (a, sz) ->
              same (outcome (fun () -> Aspace.read m a sz)) (outcome (fun () -> m_read a sz))
          | Write (a, sz, v) ->
              same
                (outcome (fun () -> Aspace.write m a sz v; 0L))
                (outcome (fun () -> m_write a sz v; 0L))
          | Fetch a ->
              same
                (outcome (fun () -> Int64.of_int (Aspace.fetch_u8 m a)))
                (outcome (fun () ->
                     let d = page (fun p -> p.x) Exec a in
                     Int64.of_int (Bytes.get_uint8 d (off_of a)))))
        ops;
      List.iter
        (fun pi ->
          if is_mapped m (Int64.of_int (pi lsl 12)) <> Hashtbl.mem model pi
          then agree := false)
        (0x3FD :: 0x402 :: 0 :: top :: window);
      same m.bytes_mapped (4096 * Hashtbl.length model);
      let pages =
        Aspace.fold_pages m (fun acc pi d p -> (pi, p, Bytes.copy d) :: acc) []
        |> List.rev
      in
      let expected =
        Hashtbl.fold (fun pi (p, d) acc -> (pi, p, d) :: acc) model []
        |> List.sort compare
      in
      same pages expected;
      !agree)

let tests =
  [
    t "map + read/write" test_map_rw;
    t "cross-page access" test_cross_page;
    t "permission faults" test_faults;
    t "unmap" test_unmap;
    t "find_free" test_find_free;
    t "asciiz + overlapping move" test_asciiz_move;
    t "store watch" test_store_watch;
    t "page table updates seen at once" test_page_table_updates;
    t "page rounding" test_rounding;
    QCheck_alcotest.to_alcotest prop_rw_roundtrip;
    QCheck_alcotest.to_alcotest prop_page_table_vs_model;
  ]
