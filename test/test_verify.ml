(* Vglint verifier tests: the shadow-range cover, the mutation-catch suite
   (every seeded miscompile caught at its earliest phase boundary), and
   zero false positives over a tool corpus. *)

open Vex_ir.Ir
module DF = Verify.Dataflow

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Guest-state ranges                                                   *)
(* ------------------------------------------------------------------ *)

let test_range_cover () =
  Alcotest.(check bool) "inside" true
    (DF.covered_by (324, 4) [ (320, 160) ]);
  Alcotest.(check bool) "straddles end" false
    (DF.covered_by (476, 8) [ (320, 160) ]);
  Alcotest.(check bool) "outside" false (DF.covered_by (100, 4) [ (320, 160) ])

(* ------------------------------------------------------------------ *)
(* Mutation suite: seeded miscompiles caught at the right boundary      *)
(* ------------------------------------------------------------------ *)

let outcomes = lazy (Verify.Mutate.run ())

let test_mutations_all_caught () =
  let os = Lazy.force outcomes in
  Alcotest.(check bool)
    "at least 10 seeded mutations" true
    (List.length os >= 10);
  List.iter
    (fun (o : Verify.Mutate.outcome) ->
      if not o.o_caught then
        Alcotest.failf "mutation %s: expected a %s failure, got %s" o.o_name
          o.o_expect
          (match o.o_phase with
          | Some p -> p ^ ": " ^ o.o_msg
          | None -> o.o_msg))
    os

let test_mutations_cover_all_phases () =
  (* the suite must exercise every boundary from flat IR to bytes *)
  let os = Lazy.force outcomes in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "some mutation caught at %s" phase)
        true
        (List.exists
           (fun (o : Verify.Mutate.outcome) -> o.o_expect = phase)
           os))
    [ "phase 2"; "phase 3"; "phase 4"; "phase 5"; "phase 6"; "phase 7";
      "phase 8" ]

(* ------------------------------------------------------------------ *)
(* Totality: a checker returns or raises Verr.Error, whatever it is fed *)
(* ------------------------------------------------------------------ *)

(* The checkers index arrays with register numbers, labels, spill slots
   and temporaries read from the listing, so every such value must be
   range-checked first.  Corpus phases are corrupted at random with
   out-of-range values and random code bytes; each checker that accepts
   arbitrary input, and [check_all] (which respects the pipeline's
   typecheck-first contract), must then return or raise [Verr.Error]. *)

module H = Host.Arch
module P = Jit.Pipeline

let total_bases =
  lazy
    [|
      Verify.Mutate.compile ();
      Verify.Mutate.compile_quick ();
      Verify.Mutate.compile_super ();
    |]

type corruption =
  | Ir_tmp of int * int * int  (** IR phase, statement, bad temporary *)
  | Vcode of int * int * int  (** template, position, value *)
  | Hcode of int * int * int  (** template, position, value *)
  | Code_bytes of (int * int) list * int  (** byte edits, length delta *)

let pp_corruption = function
  | Ir_tmp (ph, i, t) -> Printf.sprintf "ir phase %d stmt %d t%d" ph i t
  | Vcode (k, i, v) -> Printf.sprintf "vcode template %d at %d value %d" k i v
  | Hcode (k, i, v) -> Printf.sprintf "hcode template %d at %d value %d" k i v
  | Code_bytes (edits, d) ->
      Printf.sprintf "bytes %s, length %+d"
        (String.concat "," (List.map (fun (o, b) -> Printf.sprintf "%d:%02x" o b) edits))
        d

let bad_values =
  [ -1; 0; 1; 7; 8; 13; 14; 15; 16; 17; 63; 64; 255; 256; 0xFFFF; 0x10000;
    max_int; min_int; H.spill_base_int - 8; H.spill_base_int + 4;
    H.spill_base_int + (8 * (H.spill_slots_int - 1));
    H.spill_base_int + (8 * H.spill_slots_int);
    H.spill_base_vec + 8; H.spill_base_vec + (16 * (H.spill_slots_vec - 1));
    H.threadstate_size; H.threadstate_size - 4; 1 lsl 31; 1 lsl 32 ]

let corruption_gen =
  let open QCheck.Gen in
  let value = oneof [ oneofl bad_values; int; small_signed_int ] in
  oneof
    [
      map3 (fun ph i t -> Ir_tmp (ph, i, t)) (0 -- 4) nat value;
      map3 (fun k i v -> Vcode (k, i, v)) (0 -- 9) nat value;
      map3 (fun k i v -> Hcode (k, i, v)) (0 -- 15) nat value;
      map2
        (fun edits d -> Code_bytes (edits, d))
        (list_size (0 -- 4) (pair nat (0 -- 255)))
        (-3 -- 3);
    ]

let rec first_tmp = function
  | RdTmp t -> Some t
  | Get _ | Const _ -> None
  | Load (_, a) | Unop (_, a) -> first_tmp a
  | Binop (_, a, b) -> (
      match first_tmp a with Some t -> Some t | None -> first_tmp b)
  | ITE (c, t, e) -> (
      match first_tmp c with
      | Some x -> Some x
      | None -> ( match first_tmp t with Some x -> Some x | None -> first_tmp e))
  | CCall (_, _, args) -> List.find_map first_tmp args

let rec subst_tmp t' = function
  | RdTmp _ -> RdTmp t'
  | (Get _ | Const _) as e -> e
  | Load (ty, a) -> Load (ty, subst_tmp t' a)
  | Unop (op, a) -> Unop (op, subst_tmp t' a)
  | Binop (op, a, b) -> Binop (op, subst_tmp t' a, subst_tmp t' b)
  | ITE (c, t, e) -> ITE (subst_tmp t' c, subst_tmp t' t, subst_tmp t' e)
  | CCall (c, ty, args) -> CCall (c, ty, List.map (subst_tmp t') args)

(* statement [i] of [b] made to assign or read temporary [t] *)
let corrupt_block (b : block) i t : block =
  Verify.Mutate.with_stmts b (fun ss ->
      let n = List.length ss in
      if n = 0 then [ Put (0, RdTmp t) ]
      else
        let i = i mod n in
        List.mapi
          (fun j s ->
            if j <> i then s
            else
              match s with
              | WrTmp (_, e) -> WrTmp (t, e)
              | Dirty d -> Dirty { d with d_tmp = Some t }
              | Put (o, e) when first_tmp e <> None -> Put (o, subst_tmp t e)
              | Store (a, d) -> Store (subst_tmp t a, d)
              | Exit (g, jk, d) -> Exit (subst_tmp t g, jk, d)
              | s -> s)
          ss
        @ [ Put (0, RdTmp t) ])

let insert_at i x l =
  let n = List.length l in
  let i = if n = 0 then 0 else i mod (n + 1) in
  List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

let apply_corruption (p : P.phases) = function
  | Ir_tmp (ph, i, t) -> (
      match ph with
      | 0 -> { p with p_tree = corrupt_block p.p_tree i t }
      | 1 -> { p with p_flat = corrupt_block p.p_flat i t }
      | 2 -> { p with p_instrumented = corrupt_block p.p_instrumented i t }
      | 3 -> { p with p_opt2 = corrupt_block p.p_opt2 i t }
      | _ -> { p with p_treebuilt = corrupt_block p.p_treebuilt i t })
  | Vcode (k, i, v) ->
      let r = H.n_hregs in
      let x =
        match k with
        | 0 -> Jit.Isel.V (H.Mov (v, r))
        | 1 -> Jit.Isel.V (H.Mov (r, v))
        | 2 -> Jit.Isel.V (H.Ld (4, false, r, v, 0))
        | 3 -> Jit.Isel.V (H.St (4, r, v, 0))
        | 4 -> Jit.Isel.V (H.Jz (r, v))
        | 5 -> Jit.Isel.V (H.Label v)
        | 6 -> Jit.Isel.V (H.Vmov (v, H.n_hvregs))
        | 7 -> Jit.Isel.V (H.Vunpack (v, v, 0))
        | 8 -> Jit.Isel.V (H.Jmp v)
        | _ ->
            Jit.Isel.VCall
              {
                callee = Lazy.force Verify.Mutate.h_note;
                args = [ v ];
                dst = Some v;
              }
      in
      { p with p_vcode = insert_at i x p.p_vcode }
  | Hcode (k, i, v) ->
      let x =
        match k with
        | 0 -> H.Mov (v, 0)
        | 1 -> H.Alu (H.W64, H.Add, 0, v, 1)
        | 2 -> H.Ld (8, false, 0, H.gsp, v)
        | 3 -> H.St (8, 0, H.gsp, v)
        | 4 -> H.Vld (1, H.gsp, v)
        | 5 -> H.Vst (v land 7, H.gsp, v)
        | 6 -> H.Vmov (v, 0)
        | 7 -> H.Jz (0, v)
        | 8 -> H.Jmp v
        | 9 -> H.Label v
        | 10 -> H.Call (v, 0, 1)
        | 11 -> H.Call (0, v, 1)
        | 12 -> H.Vunpack (0, v, v)
        | 13 -> H.Ld (v, false, 0, H.gsp, H.spill_base_int)
        | 14 -> H.Alui (H.W32, H.Add, 0, 0, Int64.of_int v)
        | _ -> H.ExitIf (v, v, Int64.of_int v)
      in
      { p with p_hcode = insert_at i x p.p_hcode }
  | Code_bytes (edits, d) ->
      let b = p.p_bytes in
      let len = max 0 (Bytes.length b + d) in
      let c = Bytes.init len (fun j -> if j < Bytes.length b then Bytes.get b j else '\x17') in
      List.iter
        (fun (o, v) -> if len > 0 then Bytes.set c (o mod len) (Char.chr v))
        edits;
      { p with p_bytes = c }

let returns_or_verr f =
  match f () with () -> true | exception Verify.Verr.Error _ -> true

let prop_checkers_total =
  QCheck.Test.make ~count:600 ~name:"checkers raise only Verr.Error"
    (QCheck.make
       ~print:(fun (b, c) -> Printf.sprintf "base %d, %s" b (pp_corruption c))
       QCheck.Gen.(pair (0 -- 2) corruption_gen))
    (fun (b, c) ->
      let p = apply_corruption (Lazy.force total_bases).(b) c in
      let open Verify in
      let ir = [ p.p_tree; p.p_flat; p.p_instrumented; p.p_opt2; p.p_treebuilt ] in
      List.for_all
        (fun blk ->
          returns_or_verr (fun () -> Ircheck.check_tree ~phase:"t" blk)
          && returns_or_verr (fun () -> Ircheck.check_ssa ~phase:"s" blk))
        ir
      && returns_or_verr (fun () ->
             Vcheck.check p.p_vcode ~n_int:p.p_n_int ~n_vec:p.p_n_vec
               ~n_label:p.p_n_label)
      && returns_or_verr (fun () -> Hcheck.check p.p_hcode)
      && returns_or_verr (fun () ->
             Asmcheck.check ~hcode:p.p_hcode ~bytes:p.p_bytes)
      && returns_or_verr (fun () -> check_all ~shadow:Mutate.shadow p))

(* ------------------------------------------------------------------ *)
(* Zero false positives over a tool corpus                              *)
(* ------------------------------------------------------------------ *)

let test_corpus_clean () =
  (* verify_jit is on by default: a verifier false positive on any tool
     raises out of Session.run and fails this test *)
  let w = Option.get (Workloads.find "gcc") in
  let img = Workloads.compile ~scale:1 w in
  List.iter
    (fun (name, tool) ->
      let options =
        { Vg_core.Session.default_options with max_blocks = 20_000L }
      in
      let s = Vg_core.Session.create ~options ~tool img in
      (try ignore (Vg_core.Session.run s)
       with Verify.Verr.Error _ as e ->
         Alcotest.failf "false positive under %s: %s" name
           (Verify.Verr.to_string e));
      let st = Vg_core.Session.stats s in
      Alcotest.(check bool)
        (name ^ " ran boundary checks")
        true
        (st.st_verify_checks >= 8 * st.st_translations))
    Tools.Catalog.all

let test_verify_off_runs_no_checks () =
  let w = Option.get (Workloads.find "mcf") in
  let img = Workloads.compile ~scale:1 w in
  let options =
    {
      Vg_core.Session.default_options with
      verify_jit = false;
      max_blocks = 5_000L;
    }
  in
  let s =
    Vg_core.Session.create ~options ~tool:Vg_core.Tool.nulgrind img
  in
  ignore (Vg_core.Session.run s);
  let st = Vg_core.Session.stats s in
  Alcotest.(check int) "no checks when disabled" 0 st.st_verify_checks

let tests =
  [
    t "shadow-range cover" test_range_cover;
    t "seeded mutations all caught" test_mutations_all_caught;
    t "mutations cover phases 2-8" test_mutations_cover_all_phases;
    QCheck_alcotest.to_alcotest prop_checkers_total;
    Alcotest.test_case "tool corpus has zero false positives" `Slow
      test_corpus_clean;
    t "verify_jit=false runs no checks" test_verify_off_runs_no_checks;
  ]
