(* Tests for the remaining tools (Lackey, Cachegrind, Massif, Taintgrind)
   and for Memcheck's shadow-memory substrate. *)

let t name f = Alcotest.test_case name `Quick f
let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

let run_tool tool src =
  let img = Minicc.Driver.compile src in
  let s = Vg_core.Session.create ~tool img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited 0 -> ()
  | Vg_core.Session.Exited n -> Alcotest.failf "exit %d" n
  | _ -> Alcotest.fail "bad termination");
  s

(* ---- shadow memory -------------------------------------------------- *)

let test_shadow_mem_basic () =
  let sm = Tools.Shadow_mem.create () in
  Alcotest.(check bool) "initially noaccess" false
    (Tools.Shadow_mem.get_abit sm 0x1000L);
  Tools.Shadow_mem.make_undefined sm 0x1000L 64;
  Alcotest.(check bool) "addressable" true (Tools.Shadow_mem.get_abit sm 0x1000L);
  Alcotest.(check int) "undefined" 0xFF (Tools.Shadow_mem.get_vbyte sm 0x1000L);
  ignore (Tools.Shadow_mem.store sm 0x1000L 4 0L);
  Alcotest.(check int) "defined after store" 0
    (Tools.Shadow_mem.get_vbyte sm 0x1002L);
  Alcotest.(check int) "neighbour still undefined" 0xFF
    (Tools.Shadow_mem.get_vbyte sm 0x1004L);
  let ok, v = Tools.Shadow_mem.load sm 0x1002L 4 in
  Alcotest.(check bool) "load addressable" true ok;
  Alcotest.check i64 "partial definedness" 0xFFFF0000L v

let test_shadow_mem_ranges () =
  let sm = Tools.Shadow_mem.create () in
  (* a range spanning multiple 64K chunks exercises the distinguished-
     secondary fast path *)
  Tools.Shadow_mem.make_defined sm 0x10000L (5 * 65536);
  Alcotest.(check int) "middle defined" 0
    (Tools.Shadow_mem.get_vbyte sm 0x30123L);
  Tools.Shadow_mem.make_noaccess sm 0x20000L 65536;
  Alcotest.(check bool) "hole" false (Tools.Shadow_mem.get_abit sm 0x28000L);
  Alcotest.(check bool) "after hole" true (Tools.Shadow_mem.get_abit sm 0x30000L);
  (match Tools.Shadow_mem.find_unaddressable sm 0x10000L (3 * 65536) with
  | Some a -> Alcotest.check i64 "first bad byte" 0x20000L a
  | None -> Alcotest.fail "hole not found");
  Tools.Shadow_mem.copy_range sm ~src:0x10000L ~dst:0x20000L 16;
  Alcotest.(check bool) "copied abit" true (Tools.Shadow_mem.get_abit sm 0x20008L)

(* The model's window straddles the chunk boundary at 0x2_0000. *)
let sm_base = 0x1_FF00
let sm_window = 0x300

type sm_op =
  | Range of int * int * int  (** 0 noaccess / 1 undefined / 2 defined, offset, length *)
  | Whole of int  (** the same over both chunks, which become distinguished *)
  | Store of int * int * int64  (** size, offset, V bits *)
  | Load of int * int  (** size, offset *)

let show_sm_op = function
  | Range (k, o, n) -> Printf.sprintf "range%d %x+%d" k o n
  | Whole k -> Printf.sprintf "whole%d" k
  | Store (sz, o, v) -> Printf.sprintf "store%d %x %Lx" sz o v
  | Load (sz, o) -> Printf.sprintf "load%d %x" sz o

let sm_op_gen =
  let open QCheck.Gen in
  (* any offset, or one near the chunk boundary, where a word crosses it *)
  let off = oneof [ int_bound (sm_window - 8); int_range 0xF8 0x100 ] in
  let size = oneofl [ 1; 2; 4; 8 ] in
  (* V bits that match a distinguished state make a store a no-op *)
  let vbits = oneof [ return 0L; return (-1L); ui64 ] in
  frequency
    [
      (3, map3 (fun k o n -> Range (k, o, n)) (int_bound 2) off (int_bound 40));
      (1, map (fun k -> Whole k) (int_bound 2));
      (4, map3 (fun sz o v -> Store (sz, o, v)) size off vbits);
      (4, map2 (fun sz o -> Load (sz, o)) size off);
    ]

let prop_shadow_vs_model =
  QCheck.Test.make ~count:200 ~name:"shadow memory matches a naive model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_sm_op ops))
       QCheck.Gen.(list_size (int_range 1 60) sm_op_gen))
    (fun ops ->
      let module S = Tools.Shadow_mem in
      let sm = S.create () in
      let model = Array.make sm_window (false, 0xFF) in
      let addr o = Int64.of_int (sm_base + o) in
      let state = function 0 -> (false, 0xFF) | 1 -> (true, 0xFF) | _ -> (true, 0x00) in
      let set_range k a n =
        match k with
        | 0 -> S.make_noaccess sm a n
        | 1 -> S.make_undefined sm a n
        | _ -> S.make_defined sm a n
      in
      let ok = ref true in
      List.iter
        (function
          | Range (k, o, n) ->
              set_range k (addr o) n;
              for i = o to min (sm_window - 1) (o + n - 1) do
                model.(i) <- state k
              done
          | Whole k ->
              (* chunks 1 and 2 are the middle ones of this range *)
              set_range k 0xFFFFL 0x2_0002;
              Array.fill model 0 sm_window (state k)
          | Store (sz, o, v) ->
              let all = ref true in
              for i = 0 to sz - 1 do
                if fst model.(o + i) then
                  model.(o + i) <-
                    (true, Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
                else all := false
              done;
              if S.store sm (addr o) sz v <> !all then ok := false
          | Load (sz, o) ->
              let all = ref true and v = ref 0L in
              for i = sz - 1 downto 0 do
                let a, b = model.(o + i) in
                if not a then all := false;
                v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
              done;
              if S.load sm (addr o) sz <> (!all, !v) then ok := false)
        ops;
      Array.iteri
        (fun i (a, v) ->
          if S.get_abit sm (addr i) <> a || S.get_vbyte sm (addr i) <> v then
            ok := false)
        model;
      !ok)

(* ---- replacement allocators ----------------------------------------- *)

(* 5,000 malloc(4096)/free pairs need more than the core's 16 MB client
   arena, so every replacement allocator must reuse freed regions.  The
   block freed last is then read: Memcheck keeps it in its ring of
   recently freed blocks, so that read is still reported. *)
let test_alloc_churn () =
  let img =
    Minicc.Driver.compile
      {| int main() {
           int i; char *p; int v;
           for (i = 0; i < 5000; i++) {
             p = malloc(4096);
             p[0] = 'x';
             p[4095] = p[0];
             free(p);
           }
           v = p[0];            /* use after free */
           print_str("done\n");
           return v * 0;
         } |}
  in
  let eng = Native.create img in
  (match Native.run eng with
  | Native.Exited 0 -> ()
  | _ -> Alcotest.fail "native run");
  List.iter
    (fun (tool : Vg_core.Tool.t) ->
      let s = Vg_core.Session.create ~tool img in
      (match Vg_core.Session.run s with
      | Vg_core.Session.Exited 0 -> ()
      | _ -> Alcotest.failf "%s: bad termination" tool.name);
      Alcotest.(check string)
        (tool.name ^ " stdout") (Native.stdout_contents eng)
        (Vg_core.Session.client_stdout s);
      if tool.name = "memcheck" then
        Alcotest.(check bool) "read of the freed block reported" true
          (List.exists
             (fun e -> e.Vg_core.Errors.err_kind = "InvalidRead")
             s.errors.errors))
    [ Tools.Memcheck.tool; Tools.Massif.tool; Tools.Annelid.tool ]

(* ---- lackey ---------------------------------------------------------- *)

let test_lackey_counts () =
  let src =
    {| int a[100];
       int main() {
         int i; int s;
         s = 0;
         for (i = 0; i < 100; i++) { a[i] = i; }      /* 100 stores */
         for (i = 0; i < 100; i++) { s = s + a[i]; }  /* 100 loads */
         return 0;
       } |}
  in
  let lackey = ref None in
  let s = run_tool (Tools.Lackey.with_state (fun st -> lackey := Some st)) src in
  ignore s;
  match !lackey with
  | None -> Alcotest.fail "no lackey state"
  | Some st ->
      (* at least the array traffic, plus stack traffic *)
      Alcotest.(check bool) "loads >= 100" true
        (Int64.to_int st.n_loads >= 100);
      Alcotest.(check bool) "stores >= 100" true
        (Int64.to_int st.n_stores >= 100);
      Alcotest.(check bool) "instructions counted" true
        (Int64.to_int st.n_instrs > 1000)

(* ---- cachegrind ------------------------------------------------------ *)

let test_cachegrind_counts () =
  let src =
    {| int main() {
         int i; int s;
         s = 0;
         for (i = 0; i < 5000; i++) { s = s + i; }
         return 0;
       } |}
  in
  let cg = ref None in
  let s = run_tool (Tools.Cachegrind.with_state (fun st -> cg := Some st)) src in
  ignore s;
  match !cg with
  | None -> Alcotest.fail "no cachegrind state"
  | Some st ->
      Alcotest.(check bool) "Ir counted" true (Int64.to_int st.h.ir > 30000);
      (* a tight loop has an excellent I1 hit rate *)
      Alcotest.(check bool) "I1 miss rate tiny" true
        (Int64.to_float st.h.i1_misses /. Int64.to_float st.h.ir < 0.01)

let test_cachegrind_stride_effect () =
  let prog stride =
    Printf.sprintf
      {| int a[65536];
         int main() {
           int i; int s;
           s = 0;
           for (i = 0; i < 65536; i = i + %d) { s = s + a[i]; }
           return 0;
         } |}
      stride
  in
  let miss_rate stride =
    let cg = ref None in
    ignore
      (run_tool (Tools.Cachegrind.with_state (fun st -> cg := Some st)) (prog stride));
    match !cg with
    | Some st -> Int64.to_float st.h.d1r_misses /. Int64.to_float st.h.dr
    | None -> 0.0
  in
  let unit_stride = miss_rate 1 in
  let big_stride = miss_rate 16 in
  Alcotest.(check bool)
    (Printf.sprintf "stride 16 (%.4f) misses more than stride 1 (%.4f)"
       big_stride unit_stride)
    true
    (big_stride > unit_stride *. 2.0)

(* ---- massif ---------------------------------------------------------- *)

let test_massif_peak () =
  let src =
    {| int main() {
         char *a; char *b; char *c;
         a = malloc(1000);
         b = malloc(2000);       /* peak: 3000 */
         free(a);
         c = malloc(500);        /* 2500 < peak */
         free(b);
         free(c);
         return 0;
       } |}
  in
  let massif = ref None in
  ignore (run_tool (Tools.Massif.with_state (fun st -> massif := Some st)) src);
  match !massif with
  | None -> Alcotest.fail "no massif state"
  | Some st ->
      Alcotest.check i64 "peak" 3000L st.peak_bytes;
      Alcotest.check i64 "live at exit" 0L st.cur_bytes;
      Alcotest.(check int) "allocs" 3 st.n_allocs

(* ---- taintgrind ------------------------------------------------------ *)

let test_taint_propagation () =
  let src =
    {| int main() {
         int secret[2];
         int derived; int clean; int cleared;
         secret[0] = 7;
         vg_taint_mem((char*)secret, 4);
         derived = secret[0] * 100 + 5;      /* tainted */
         clean = 12345;                      /* untainted */
         cleared = secret[0];
         cleared = 0;                        /* overwritten by constant */
         if (vg_check_taint((char*)&derived, 4) == 0) { return 1; }
         if (vg_check_taint((char*)&clean, 4) != 0) { return 2; }
         if (vg_check_taint((char*)&cleared, 4) != 0) { return 3; }
         vg_untaint_mem((char*)secret, 8);
         derived = secret[0];
         if (vg_check_taint((char*)&derived, 4) != 0) { return 4; }
         return 0;
       } |}
  in
  ignore (run_tool Tools.Taintgrind.tool src)

(* ---- annelid --------------------------------------------------------- *)

let kinds (errors : Vg_core.Errors.t) =
  List.map (fun e -> e.Vg_core.Errors.err_kind) errors.errors

let test_annelid_bounds () =
  let src =
    {| int main() {
         int *p; int v;
         p = (int*)malloc(10 * sizeof(int));
         p[9] = 1;            /* in bounds: fine */
         v = p[10];           /* out of bounds: caught via the tagged ptr */
         free((char*)p);
         return v * 0;
       } |}
  in
  let s = run_tool Tools.Annelid.tool src in
  Alcotest.(check bool) "bounds error reported" true
    (List.mem "BoundsError" (kinds s.errors))

let test_annelid_clean () =
  let src =
    {| int main() {
         int *p; int i; int s;
         p = (int*)malloc(20 * sizeof(int));
         s = 0;
         for (i = 0; i < 20; i++) { p[i] = i; }
         for (i = 0; i < 20; i++) { s = s + p[i]; }
         free((char*)p);
         return s * 0;
       } |}
  in
  let s = run_tool Tools.Annelid.tool src in
  Alcotest.(check (list string)) "no false positives" [] (kinds s.errors)

let test_annelid_use_after_free () =
  let src =
    {| int main() {
         int *p; int v;
         p = (int*)malloc(8);
         p[0] = 4;
         free((char*)p);
         v = p[0];           /* through a tagged pointer into a dead seg */
         return v * 0;
       } |}
  in
  let s = run_tool Tools.Annelid.tool src in
  Alcotest.(check bool) "use-after-free reported" true
    (List.mem "BoundsError" (kinds s.errors))

(* ---- redux ------------------------------------------------------------ *)

let test_redux_dag () =
  let src =
    {| int main() {
         int a; int b;
         a = 6;
         b = 7;
         return a * b;        /* provenance: const 6, const 7, mul */
       } |}
  in
  let img = Minicc.Driver.compile src in
  let redux = ref None in
  let tool = Tools.Redux.with_state (fun st -> redux := Some st) in
  let s = Vg_core.Session.create ~tool img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited 42 -> ()
  | _ -> Alcotest.fail "redux client should exit 42");
  ignore s;
  match !redux with
  | None -> Alcotest.fail "no redux state"
  | Some st ->
      Alcotest.(check bool) "built a dag" true
        (Support.Vec.length st.nodes > 10);
      let root = Tools.Redux.reg_node st 1 in
      let dot = Tools.Redux.dot_of st root () in
      let contains sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length dot && (String.sub dot i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "dot mentions mul" true (contains "mul");
      Alcotest.(check bool) "dot mentions a constant" true (contains "0x")

let tests =
  [
    t "shadow memory: bytes" test_shadow_mem_basic;
    t "shadow memory: ranges + distinguished secondaries"
      test_shadow_mem_ranges;
    QCheck_alcotest.to_alcotest prop_shadow_vs_model;
    t "replacement allocators recycle freed memory" test_alloc_churn;
    t "lackey counts accesses" test_lackey_counts;
    t "cachegrind counts" test_cachegrind_counts;
    t "cachegrind sees stride effects" test_cachegrind_stride_effect;
    t "massif peak tracking" test_massif_peak;
    t "taint propagation and clearing" test_taint_propagation;
    t "annelid catches out-of-bounds" test_annelid_bounds;
    t "annelid clean run" test_annelid_clean;
    t "annelid use-after-free" test_annelid_use_after_free;
    t "redux builds a provenance dag" test_redux_dag;
  ]
