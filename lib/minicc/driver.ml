(** Compiler driver: mini-C source -> loadable VG32 image. *)

exception Compile_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Compile_error m)) fmt

(** Compile to assembly text only (startup + program + libc; the libc is
    appended unless [with_libc] is false), without assembling — for
    inspection, or for linking extra hand-written assembly before a
    final {!Guest.Asm.assemble}. *)
let to_asm ?(with_libc = true) (src : string) : string =
  let full = if with_libc then src ^ "\n" ^ Libc.source else src in
  try Libc.startup_asm ^ "\n" ^ Codegen.compile_to_asm full with
  | Codegen.Error m -> fail "%s" m
  | Parser.Error { line; msg } -> fail "parse error at line %d: %s" line msg
  | Lexer.Error { line; msg } -> fail "lex error at line %d: %s" line msg

(** Compile [src] (one translation unit) into an image ready for
    {!Native} or {!Vg_core.Session}. *)
let compile ?with_libc (src : string) : Guest.Image.t =
  try Guest.Asm.assemble (to_asm ?with_libc src)
  with Guest.Asm.Error { line; msg } ->
    fail "internal: generated assembly rejected at line %d: %s" line msg
