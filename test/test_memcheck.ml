(* Memcheck behaviour tests: error detection, transparency, heap
   tracking, client requests, leak checking. *)

let run_mc ?(expect_exit = 0) src =
  let img = Minicc.Driver.compile src in
  let s = Vg_core.Session.create ~tool:Tools.Memcheck.tool img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited n -> Alcotest.(check int) "exit code" expect_exit n
  | Vg_core.Session.Fatal_signal sg -> Alcotest.failf "fatal signal %d" sg
  | Vg_core.Session.Out_of_fuel -> Alcotest.fail "out of fuel");
  let errors = s.errors in
  (s, errors, Vg_core.Session.client_stdout s)

let kinds (errors : Vg_core.Errors.t) =
  List.map (fun e -> e.Vg_core.Errors.err_kind) errors.errors

let has_kind errors k = List.mem k (kinds errors)

let t name f = Alcotest.test_case name `Quick f

let test_clean () =
  let _, errors, out =
    run_mc ~expect_exit:7
      {| int main() {
           int *p; int i; int s;
           p = (int*)malloc(10 * sizeof(int));
           for (i = 0; i < 10; i++) { p[i] = i; }
           s = p[3] + p[4];
           free((char*)p);
           print_str("ok\n");
           return s;
         } |}
  in
  Alcotest.(check (list string)) "no errors" [] (kinds errors);
  Alcotest.(check string) "output intact" "ok\n" out

let test_uninit_condition () =
  let _, errors, _ =
    run_mc
      {| int main() {
           int x[2];
           int r;
           r = 0;
           if (x[0] > 3) { r = 1; }   /* x[0] never written */
           return r * 0;
         } |}
  in
  Alcotest.(check bool) "uninit reported" true (has_kind errors "UninitValue")

let test_defined_after_write () =
  let _, errors, _ =
    run_mc
      {| int main() {
           int x[2];
           x[0] = 5;
           if (x[0] > 3) { return 0; }
           return 0;
         } |}
  in
  Alcotest.(check bool) "no uninit after init" false
    (has_kind errors "UninitValue")

let test_heap_overflow () =
  let _, errors, _ =
    run_mc
      {| int main() {
           char *p;
           p = malloc(8);
           p[8] = 'x';          /* one past the end: invalid write */
           free(p);
           return 0;
         } |}
  in
  Alcotest.(check bool) "invalid write" true (has_kind errors "InvalidWrite")

let test_heap_underflow_read () =
  let _, errors, _ =
    run_mc
      {| int main() {
           char *p; char c;
           p = malloc(8);
           c = p[-1];           /* red zone: invalid read */
           free(p);
           return (int)c * 0;
         } |}
  in
  Alcotest.(check bool) "invalid read" true (has_kind errors "InvalidRead")

let test_use_after_free () =
  let _, errors, _ =
    run_mc
      {| int main() {
           int *p; int v;
           p = (int*)malloc(16);
           p[0] = 42;
           free((char*)p);
           v = p[0];            /* use after free */
           return v * 0;
         } |}
  in
  Alcotest.(check bool) "use-after-free read" true
    (has_kind errors "InvalidRead")

let test_invalid_free () =
  let _, errors, _ =
    run_mc
      {| int main() {
           int x;
           x = 5;
           free((char*)&x);     /* not a heap block */
           return 0;
         } |}
  in
  Alcotest.(check bool) "invalid free" true (has_kind errors "InvalidFree")

let test_double_free () =
  let _, errors, _ =
    run_mc
      {| int main() {
           char *p;
           p = malloc(8);
           free(p);
           free(p);
           return 0;
         } |}
  in
  Alcotest.(check bool) "double free reported" true
    (has_kind errors "InvalidFree")

let test_leak () =
  let _, errors, _ =
    run_mc
      {| int main() {
           char *p;
           p = malloc(100);
           p = (char*)0;        /* lose the only pointer */
           return 0;
         } |}
  in
  Alcotest.(check bool) "leak reported" true (has_kind errors "Leak")

let test_no_leak_when_reachable () =
  let _, errors, _ =
    run_mc
      {| char *keep;
         int main() {
           keep = malloc(100);  /* still reachable via global */
           return 0;
         } |}
  in
  Alcotest.(check bool) "no leak for reachable" false (has_kind errors "Leak")

(* The leak check's pointer lookup: an interior pointer keeps its
   block, and so does a pointer to the last byte that is found only by
   scanning a reachable block; a pointer one past the end does not.  A
   zero-size request gets a one-byte block.  The records, their sizes
   and their order are pinned. *)
let test_leak_pointer_edges () =
  let _, errors, _ =
    run_mc
      {| char *inner; char *past; char *empty; char *past0; char *head;
         int main() {
           int *h; char *p;
           inner = malloc(24) + 12;
           past = malloc(16) + 16;
           empty = malloc(0);
           past0 = malloc(0) + 1;
           head = malloc(8);
           h = (int*)head;
           h[0] = (int)(malloc(40) + 39);
           p = malloc(20);
           p = (char*)0;
           return 0;
         } |}
  in
  let leaks =
    List.filter_map
      (fun e ->
        if e.Vg_core.Errors.err_kind = "Leak" then Some e.Vg_core.Errors.err_msg
        else None)
      errors.errors
  in
  Alcotest.(check (list string)) "leak records, newest first"
    [
      "1 bytes in 1 blocks are definitely lost";
      "16 bytes in 1 blocks are definitely lost";
      "20 bytes in 1 blocks are definitely lost";
    ]
    leaks

let test_client_requests () =
  let _, errors, _ =
    run_mc ~expect_exit:1
      {| int main() {
           int x[2];
           int r;
           vg_make_mem_defined((char*)x, 8);   /* pretend initialised */
           r = 0;
           if (x[0] > 3) { r = 1; }            /* no error now */
           if (vg_running_on_valgrind()) { return 1; }
           return 2;
         } |}
  in
  Alcotest.(check bool) "request suppressed error" false
    (has_kind errors "UninitValue")

let test_calloc_defined () =
  let _, errors, _ =
    run_mc ~expect_exit:0
      {| int main() {
           int *p;
           p = (int*)calloc(4, 4);
           if (p[2] != 0) { return 9; }   /* calloc memory is defined */
           free((char*)p);
           return 0;
         } |}
  in
  Alcotest.(check (list string)) "calloc clean" [] (kinds errors)

let test_realloc_copies_definedness () =
  let _, errors, _ =
    run_mc ~expect_exit:5
      {| int main() {
           int *p;
           p = (int*)malloc(8);
           p[0] = 5;
           p = (int*)realloc((char*)p, 64);
           if (p[0] == 5) { free((char*)p); return 5; }
           free((char*)p);
           return 0;
         } |}
  in
  (* p[1] was never written but also never read: clean *)
  Alcotest.(check (list string)) "realloc clean" [] (kinds errors)

let test_copy_propagates_undef () =
  let _, errors, _ =
    run_mc
      {| int main() {
           int a[2];
           int b;
           b = a[1];            /* copying undefined is NOT an error */
           if (b == 7) { return 1; }  /* but using it is */
           return 0;
         } |}
  in
  Alcotest.(check bool) "undef propagated through copy" true
    (has_kind errors "UninitValue")

let test_syscall_param_uninit () =
  let _, errors, _ =
    run_mc
      {| int main() {
           char buf[8];
           write(1, buf, 8);    /* writing uninitialised bytes */
           return 0;
         } |}
  in
  Alcotest.(check bool) "syscall uninit param" true
    (has_kind errors "SyscallParam")

let test_transparency () =
  (* identical behaviour with and without Memcheck *)
  let src =
    {| int main() {
         int i; int s; int *p;
         p = (int*)malloc(400);
         s = 0;
         for (i = 0; i < 100; i++) { p[i] = i * i; }
         for (i = 0; i < 100; i++) { s = s + p[i]; }
         free((char*)p);
         print_int(s); print_str("\n");
         return s % 251;
       } |}
  in
  let img = Minicc.Driver.compile src in
  let eng = Native.create img in
  let ncode = match Native.run eng with Native.Exited n -> n | _ -> -1 in
  let _, _, mout = run_mc ~expect_exit:ncode src in
  Alcotest.(check string) "stdout equal" (Native.stdout_contents eng) mout

(* ---- origin tracking (--track-origins) ------------------------------ *)

let msg_contains errors frag =
  List.exists
    (fun e ->
      let s = e.Vg_core.Errors.err_msg in
      let n = String.length frag in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = frag || go (i + 1))
      in
      go 0)
    errors.Vg_core.Errors.errors

let run_mc_origins ?(expect_exit = 0) src =
  let img = Minicc.Driver.compile src in
  let s = Vg_core.Session.create ~tool:Tools.Memcheck.tool_origins img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited n -> Alcotest.(check int) "exit code" expect_exit n
  | _ -> Alcotest.fail "bad termination");
  s.errors

let test_origin_heap () =
  let errors =
    run_mc_origins
      {| int main() {
           int *p; int r;
           p = (int*)malloc(16);
           r = 0;
           if (p[1] > 3) { r = 1; }    /* uninit from the heap */
           free((char*)p);
           return r * 0;
         } |}
  in
  Alcotest.(check bool) "origin names the heap" true
    (msg_contains errors "created by a heap allocation")

let test_origin_stack () =
  let errors =
    run_mc_origins
      {| int junk() { int x[8]; return x[3]; }  /* uninit stack junk */
         int main() {
           int r;
           r = 0;
           if (junk() > 3) { r = 1; }
           return r * 0;
         } |}
  in
  Alcotest.(check bool) "origin names the stack" true
    (msg_contains errors "created by a stack allocation")

let test_origins_transparent () =
  let src =
    {| int main() {
         int i; int s; int *p;
         p = (int*)malloc(100 * sizeof(int));
         s = 0;
         for (i = 0; i < 100; i++) { p[i] = i * 7; }
         for (i = 0; i < 100; i++) { s = s + p[i]; }
         free((char*)p);
         print_int(s); print_str("\n");
         return s % 199;
       } |}
  in
  let img = Minicc.Driver.compile src in
  let eng = Native.create img in
  let ncode = match Native.run eng with Native.Exited n -> n | _ -> -1 in
  let s = Vg_core.Session.create ~tool:Tools.Memcheck.tool_origins img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited n -> Alcotest.(check int) "exit agrees" ncode n
  | _ -> Alcotest.fail "bad termination");
  Alcotest.(check string) "stdout agrees" (Native.stdout_contents eng)
    (Vg_core.Session.client_stdout s);
  Alcotest.(check (list string)) "clean run" []
    (List.map (fun e -> e.Vg_core.Errors.err_kind) s.errors.errors)

let tests =
  [
    t "clean program: no errors" test_clean;
    t "origins: heap allocation named" test_origin_heap;
    t "origins: stack allocation named" test_origin_stack;
    t "origins: transparent on clean code" test_origins_transparent;
    t "uninitialised condition" test_uninit_condition;
    t "defined after write" test_defined_after_write;
    t "heap overflow write" test_heap_overflow;
    t "red-zone read" test_heap_underflow_read;
    t "use after free" test_use_after_free;
    t "invalid free" test_invalid_free;
    t "double free" test_double_free;
    t "leak detected" test_leak;
    t "reachable block not leaked" test_no_leak_when_reachable;
    t "leak check pointer edges" test_leak_pointer_edges;
    t "client requests" test_client_requests;
    t "calloc is defined" test_calloc_defined;
    t "realloc copies definedness" test_realloc_copies_definedness;
    t "copies propagate undefinedness" test_copy_propagates_undef;
    t "syscall uninit param" test_syscall_param_uninit;
    t "transparency" test_transparency;
  ]
