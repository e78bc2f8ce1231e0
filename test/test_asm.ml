(* Assembler tests: syntax, labels, sections, directives, diagnostics. *)

let t name f = Alcotest.test_case name `Quick f
let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

let sym img name =
  match List.assoc_opt name img.Guest.Image.symbols with
  | Some a -> a
  | None -> Alcotest.failf "symbol %s not defined" name

let test_labels_and_sections () =
  let img =
    Guest.Asm.assemble
      {|
        .text
_start: jmp end_lbl
middle: nop
end_lbl: nop
        .data
tbl:    .word 1, 2, middle
msg:    .asciz "hi"
        .align 8
dbl:    .f64 2.5
buf:    .space 10
after:  .byte 1
|}
  in
  Alcotest.check i64 "entry" img.text_addr img.entry;
  Alcotest.(check bool) "data after text page"
    true
    (Int64.unsigned_compare img.data_addr img.text_addr > 0);
  (* tbl[2] holds middle's address *)
  let tbl = sym img "tbl" in
  let off = Int64.to_int (Int64.sub tbl img.data_addr) in
  Alcotest.check i64 "word label value" (sym img "middle")
    (Support.Buf.read_u32 img.data (off + 8));
  (* alignment of dbl *)
  Alcotest.check i64 "align 8" 0L (Int64.rem (sym img "dbl") 8L);
  (* f64 payload *)
  let doff = Int64.to_int (Int64.sub (sym img "dbl") img.data_addr) in
  Alcotest.(check (float 0.0001))
    "f64 value" 2.5
    (Int64.float_of_bits (Bytes.get_int64_le img.data doff));
  (* space reserves 10 bytes *)
  Alcotest.check i64 "space length" 10L
    (Int64.sub (sym img "after") (sym img "buf"))

let test_label_arithmetic () =
  let img =
    Guest.Asm.assemble
      {|
        .text
_start: movi r0, msg_end-msg
        nop
        .data
msg:    .ascii "hello"
msg_end:
|}
  in
  (* decode the movi and check the immediate is 5 *)
  let insn, _ =
    Guest.Decode.decode
      (fun a -> Char.code (Bytes.get img.text (Int64.to_int (Int64.sub a img.text_addr))))
      img.text_addr
  in
  match insn with
  | Guest.Arch.Movi (0, 5L) -> ()
  | i -> Alcotest.failf "expected movi r0, 5, got %a" Guest.Arch.pp_insn i

let test_mem_operand_forms () =
  (* all forms parse and roundtrip through encode/decode *)
  let img =
    Guest.Asm.assemble
      {|
        .text
_start: ldw r0, [r1]
        ldw r0, [r1+4]
        ldw r0, [r1-4]
        ldw r0, [r1+r2*4]
        ldw r0, [r1+r2*8+12]
        ldw r0, [0x2000]
        ldw r0, [sp+8]
        stw [fp-12], r3
|}
  in
  Alcotest.(check bool) "assembled" true (Bytes.length img.text > 8)

let expect_error src frag =
  match Guest.Asm.assemble src with
  | exception Guest.Asm.Error { msg; _ } ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (Fmt.str "error mentions %S (got %S)" frag msg)
        true (contains msg frag)
  | _ -> Alcotest.failf "expected assembly error for %s" frag

let test_errors () =
  expect_error "  frobnicate r0\n" "unknown mnemonic";
  expect_error "  movi r9, 0\n" "no such register";
  expect_error "  jmp nowhere\n" "undefined symbol";
  expect_error "  ldw r0, [r1+r2*3]\n" "bad scale";
  expect_error "  .bogus 1\n" "unknown directive"

let test_entry_preference () =
  let img = Guest.Asm.assemble "main: nop\nfoo: nop\n" in
  Alcotest.check i64 "main is entry" (sym img "main") img.entry;
  let img2 = Guest.Asm.assemble "main: nop\n_start: nop\n" in
  Alcotest.check i64 "_start wins" (sym img2 "_start") img2.entry

let test_comments_and_blank () =
  let img =
    Guest.Asm.assemble
      "; leading comment\n\n_start: nop ; trailing\n # hash comment\n  nop\n"
  in
  Alcotest.(check int) "two nops" 2 (Bytes.length img.text)

let test_char_in_string () =
  let img =
    Guest.Asm.assemble
      {|
_start: nop
        .data
s:      .asciz "semi;colon and # hash"
|}
  in
  let s = Bytes.to_string img.data in
  Alcotest.(check bool) "contents intact" true
    (String.length s >= 21)

let tests =
  [
    t "labels, sections, directives" test_labels_and_sections;
    t "label arithmetic" test_label_arithmetic;
    t "memory operand forms" test_mem_operand_forms;
    t "diagnostics" test_errors;
    t "entry preference" test_entry_preference;
    t "comments/blank lines" test_comments_and_blank;
    t "punctuation inside strings" test_char_in_string;
  ]
