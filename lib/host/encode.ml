(** VH64 encoder/decoder.

    Phase 8 of the JIT assembles the register-allocated instruction list
    into this byte encoding and writes it into the translation's code
    block.  The executor ({!Interp}) decodes the bytes back once per
    translation and caches the decoded form — playing the role of a
    hardware instruction cache, and keeping the stored translation a real
    byte artefact (the translation table hands out byte blocks, evicts
    them in chunks, and so on, as §3.8 describes). *)

open Arch

(** [decode] found no instruction at this byte offset: an unknown opcode
    or operand code, an instruction cut off by the end of the code, or a
    branch whose target is not an instruction boundary. *)
exception Decode_error of int

let alu_index = function
  | Add -> 0 | Sub -> 1 | And -> 2 | Or -> 3 | Xor -> 4 | Shl -> 5 | Shr -> 6
  | Sar -> 7 | Mul -> 8 | Mulhs -> 9 | Divs -> 10 | Divu -> 11 | CmpEq -> 12
  | CmpNe -> 13 | CmpLts -> 14 | CmpLes -> 15 | CmpLtu -> 16 | CmpLeu -> 17

(* The [*_of_index] decoders take the offset of the instruction being
   decoded, to report a bad operand code at. *)
let alu_of_index at = function
  | 0 -> Add | 1 -> Sub | 2 -> And | 3 -> Or | 4 -> Xor | 5 -> Shl | 6 -> Shr
  | 7 -> Sar | 8 -> Mul | 9 -> Mulhs | 10 -> Divs | 11 -> Divu | 12 -> CmpEq
  | 13 -> CmpNe | 14 -> CmpLts | 15 -> CmpLes | 16 -> CmpLtu | 17 -> CmpLeu
  | _ -> raise (Decode_error at)

let falu_index = function
  | FAdd -> 0 | FSub -> 1 | FMul -> 2 | FDiv -> 3 | FMin -> 4 | FMax -> 5
  | FCmpEq -> 6 | FCmpLt -> 7 | FCmpLe -> 8

let falu_of_index at = function
  | 0 -> FAdd | 1 -> FSub | 2 -> FMul | 3 -> FDiv | 4 -> FMin | 5 -> FMax
  | 6 -> FCmpEq | 7 -> FCmpLt | 8 -> FCmpLe
  | _ -> raise (Decode_error at)

let fun1_index = function
  | FSqrt -> 0 | FNeg -> 1 | FAbs -> 2 | I32StoF64 -> 3 | F64toI32S -> 4
  | Clz32 -> 5 | Ctz32 -> 6

let fun1_of_index at = function
  | 0 -> FSqrt | 1 -> FNeg | 2 -> FAbs | 3 -> I32StoF64 | 4 -> F64toI32S
  | 5 -> Clz32 | 6 -> Ctz32
  | _ -> raise (Decode_error at)

let valu_index = function
  | VAnd -> 0 | VOr -> 1 | VXor -> 2 | VAdd32 -> 3 | VSub32 -> 4
  | VCmpEq32 -> 5 | VAdd8 -> 6 | VSub8 -> 7

let valu_of_index at = function
  | 0 -> VAnd | 1 -> VOr | 2 -> VXor | 3 -> VAdd32 | 4 -> VSub32
  | 5 -> VCmpEq32 | 6 -> VAdd8 | 7 -> VSub8
  | _ -> raise (Decode_error at)

let sz_code = function 1 -> 0 | 2 -> 1 | 4 -> 2 | 8 -> 3 | _ -> invalid_arg "sz"
let sz_of_code = function 0 -> 1 | 1 -> 2 | 2 -> 4 | _ -> 8

(* Encoded length of each instruction (Label = 0); [opcode_length] below
   is the same table keyed by opcode. *)
let enc_length = function
  | Movi _ -> 10
  | Mov _ -> 2
  | Alu _ -> 4
  | Alui _ -> 8
  | Ld _ -> 7
  | St _ -> 7
  | Cmov _ -> 3
  | Falu _ -> 4
  | Fun1 _ -> 3
  | Vld _ | Vst _ -> 6
  | Vmov _ -> 2
  | Valu _ -> 4
  | Vnot _ | Vsplat32 _ -> 2
  | Vpack _ -> 3
  | Vunpack _ -> 3
  | Call _ -> 6
  | Jz _ | Jnz _ -> 6
  | Jmp _ -> 5
  | Label _ -> 0
  | ExitIf _ -> 7
  | Goto _ -> 3
  | GotoI _ -> 6

(* Field writers for [assemble]: a byte, the low 16 or 32 bits of an
   [int] or [int64], and two 4-bit register numbers in one byte. *)
let[@inline] w8 b o x = Bytes.set_uint8 b o x
let[@inline] w16 b o x = Bytes.set_uint16_le b o x
let[@inline] w32 b o x = Bytes.set_int32_le b o (Int32.of_int x)
let[@inline] w32_64 b o x = Bytes.set_int32_le b o (Int64.to_int32 x)
let[@inline] wrr b o x y = Bytes.set_uint8 b o ((x lsl 4) lor y)

(** Assemble an instruction list (labels resolved to byte offsets) into
    machine-code bytes.  Raises [Invalid_argument] on a branch to a label
    the list does not define, or a memory access size other than 1, 2, 4
    or 8.  The bytes are written straight into a result of the exact
    size; a 32-bit field holds the low 32 bits of its value. *)
let assemble (insns : insn list) : Bytes.t =
  (* pass 1: the code size and the range of labels defined *)
  let size = ref 0 and lo = ref max_int and hi = ref min_int in
  List.iter
    (fun i ->
      (match i with
      | Label l ->
          if l < !lo then lo := l;
          if l > !hi then hi := l
      | _ -> ());
      size := !size + enc_length i)
    insns;
  (* pass 2: label_off.(l - lo) is the byte offset of label l, -1 if l
     is not defined *)
  let lo = !lo in
  let label_off = Array.make (if !hi >= lo then !hi - lo + 1 else 0) (-1) in
  let off = ref 0 in
  List.iter
    (fun i ->
      (match i with Label l -> label_off.(l - lo) <- !off | _ -> ());
      off := !off + enc_length i)
    insns;
  let target l =
    let o = if l < lo || l - lo >= Array.length label_off then -1 else label_off.(l - lo) in
    if o < 0 then invalid_arg (Printf.sprintf "assemble: undefined label %d" l);
    o
  in
  (* pass 3: the bytes *)
  let b = Bytes.create !size in
  let p = ref 0 in
  List.iter
    (fun i ->
      let o = !p in
      (match i with
      | Movi (d, imm) ->
          w8 b o 0x01;
          w8 b (o + 1) d;
          Bytes.set_int64_le b (o + 2) imm
      | Mov (d, s) ->
          w8 b o 0x02;
          wrr b (o + 1) d s
      | Alu (w, op, d, s1, s2) ->
          w8 b o (match w with W32 -> 0x03 | W64 -> 0x04);
          w8 b (o + 1) (alu_index op);
          wrr b (o + 2) d s1;
          w8 b (o + 3) s2
      | Alui (w, op, d, s1, imm) ->
          w8 b o (match w with W32 -> 0x05 | W64 -> 0x06);
          w8 b (o + 1) (alu_index op);
          wrr b (o + 2) d s1;
          w32_64 b (o + 3) imm;
          w8 b (o + 7) 0
      | Ld (sz, sx, d, base, disp) ->
          w8 b o 0x07;
          w8 b (o + 1) (sz_code sz lor if sx then 0x10 else 0);
          wrr b (o + 2) d base;
          w32 b (o + 3) disp
      | St (sz, s, base, disp) ->
          w8 b o 0x08;
          w8 b (o + 1) (sz_code sz);
          wrr b (o + 2) s base;
          w32 b (o + 3) disp
      | Cmov (d, c, s) ->
          w8 b o 0x09;
          wrr b (o + 1) d c;
          w8 b (o + 2) s
      | Falu (op, d, s1, s2) ->
          w8 b o 0x0A;
          w8 b (o + 1) (falu_index op);
          wrr b (o + 2) d s1;
          w8 b (o + 3) s2
      | Fun1 (op, d, s) ->
          w8 b o 0x0B;
          w8 b (o + 1) (fun1_index op);
          wrr b (o + 2) d s
      | Vld (d, base, disp) ->
          w8 b o 0x0C;
          wrr b (o + 1) d base;
          w32 b (o + 2) disp
      | Vst (s, base, disp) ->
          w8 b o 0x0D;
          wrr b (o + 1) s base;
          w32 b (o + 2) disp
      | Vmov (d, s) ->
          w8 b o 0x0E;
          wrr b (o + 1) d s
      | Valu (op, d, s1, s2) ->
          w8 b o 0x0F;
          w8 b (o + 1) (valu_index op);
          wrr b (o + 2) d s1;
          w8 b (o + 3) s2
      | Vnot (d, s) ->
          w8 b o 0x10;
          wrr b (o + 1) d s
      | Vsplat32 (d, s) ->
          w8 b o 0x11;
          wrr b (o + 1) d s
      | Vpack (d, hi, lo) ->
          w8 b o 0x12;
          w8 b (o + 1) d;
          wrr b (o + 2) hi lo
      | Vunpack (d, s, half) ->
          w8 b o 0x13;
          wrr b (o + 1) d s;
          w8 b (o + 2) half
      | Call (id, nargs, cost) ->
          w8 b o 0x14;
          w16 b (o + 1) id;
          w8 b (o + 3) nargs;
          w16 b (o + 4) cost
      | Jz (c, l) ->
          w8 b o 0x15;
          w8 b (o + 1) c;
          w32 b (o + 2) (target l)
      | Jnz (c, l) ->
          w8 b o 0x16;
          w8 b (o + 1) c;
          w32 b (o + 2) (target l)
      | Jmp l ->
          w8 b o 0x17;
          w32 b (o + 1) (target l)
      | Label _ -> ()
      | ExitIf (c, ek, dest) ->
          w8 b o 0x18;
          w8 b (o + 1) c;
          w8 b (o + 2) ek;
          w32_64 b (o + 3) dest
      | Goto (ek, s) ->
          w8 b o 0x19;
          w8 b (o + 1) ek;
          w8 b (o + 2) s
      | GotoI (ek, dest) ->
          w8 b o 0x1A;
          w8 b (o + 1) ek;
          w32_64 b (o + 2) dest);
      p := o + enc_length i)
    insns;
  b

(* Encoded length of the instruction with opcode [op]; 0 if [op] is not
   an opcode. *)
let opcode_length = function
  | 0x01 -> 10
  | 0x02 | 0x0E | 0x10 | 0x11 -> 2
  | 0x03 | 0x04 | 0x0A | 0x0F -> 4
  | 0x05 | 0x06 -> 8
  | 0x07 | 0x08 | 0x18 -> 7
  | 0x09 | 0x0B | 0x12 | 0x13 | 0x19 -> 3
  | 0x0C | 0x0D | 0x14 | 0x15 | 0x16 | 0x1A -> 6
  | 0x17 -> 5
  | _ -> 0

(* Operand readers: the field at byte [o] of [c].  They use the [Bytes]
   primitives directly rather than [Support.Buf]'s readers: under dune's
   dev profile every library is compiled [-opaque], so a call into
   another library is never inlined, and [Buf.read_u32] and
   [Bits.sext32] would each be an out-of-line call returning a boxed
   [int64]. *)
let u8 c o = Bytes.get_uint8 c o
let u16 c o = Bytes.get_uint16_le c o
let hi c o = u8 c o lsr 4
let lo c o = u8 c o land 0xF
let disp c o = Int32.to_int (Bytes.get_int32_le c o)
let s32 c o = Int64.of_int32 (Bytes.get_int32_le c o)
let u32 c o = Int64.logand (s32 c o) 0xFFFF_FFFFL

(* Register operands of the instruction at byte [p]: an integer register
   held in a whole byte at [o] must be below [n_hregs], a vector register
   below [n_hvregs], and a call's arity at most the number of argument
   registers.  ({!Interp} relies on this: see its [rget].) *)
let[@inline] ireg p c o =
  let x = u8 c o in
  if x >= n_hregs then raise (Decode_error p) else x

let[@inline] vreg p x = if x >= n_hvregs then raise (Decode_error p) else x
let max_args = List.length arg_regs
let[@inline] arity p n = if n > max_args then raise (Decode_error p) else n

(* The instruction at byte [p] of [c], which the caller has checked is an
   opcode whose operands lie inside [c].  [target o] turns the branch
   target stored at byte [o] into an instruction index. *)
let decode_at (c : Bytes.t) (p : int) ~(target : int -> int) : insn =
  let a = p + 1 in
  match u8 c p with
  | 0x01 -> Movi (ireg p c a, Bytes.get_int64_le c (a + 1))
  | 0x02 -> Mov (hi c a, lo c a)
  | 0x03 ->
      Alu (W32, alu_of_index p (u8 c a), hi c (a + 1), lo c (a + 1), ireg p c (a + 2))
  | 0x04 ->
      Alu (W64, alu_of_index p (u8 c a), hi c (a + 1), lo c (a + 1), ireg p c (a + 2))
  | 0x05 -> Alui (W32, alu_of_index p (u8 c a), hi c (a + 1), lo c (a + 1), s32 c (a + 2))
  | 0x06 -> Alui (W64, alu_of_index p (u8 c a), hi c (a + 1), lo c (a + 1), s32 c (a + 2))
  | 0x07 ->
      let m = u8 c a in
      Ld (sz_of_code (m land 3), m land 0x10 <> 0, hi c (a + 1), lo c (a + 1), disp c (a + 2))
  | 0x08 -> St (sz_of_code (u8 c a land 3), hi c (a + 1), lo c (a + 1), disp c (a + 2))
  | 0x09 -> Cmov (hi c a, lo c a, ireg p c (a + 1))
  | 0x0A ->
      Falu (falu_of_index p (u8 c a), hi c (a + 1), lo c (a + 1), ireg p c (a + 2))
  | 0x0B -> Fun1 (fun1_of_index p (u8 c a), hi c (a + 1), lo c (a + 1))
  | 0x0C -> Vld (vreg p (hi c a), lo c a, disp c (a + 1))
  | 0x0D -> Vst (vreg p (hi c a), lo c a, disp c (a + 1))
  | 0x0E -> Vmov (vreg p (hi c a), vreg p (lo c a))
  | 0x0F ->
      Valu
        ( valu_of_index p (u8 c a),
          vreg p (hi c (a + 1)),
          vreg p (lo c (a + 1)),
          vreg p (u8 c (a + 2)) )
  | 0x10 -> Vnot (vreg p (hi c a), vreg p (lo c a))
  | 0x11 -> Vsplat32 (vreg p (hi c a), lo c a)
  | 0x12 -> Vpack (vreg p (u8 c a), hi c (a + 1), lo c (a + 1))
  | 0x13 -> Vunpack (hi c a, vreg p (lo c a), u8 c (a + 1))
  | 0x14 -> Call (u16 c a, arity p (u8 c (a + 2)), u16 c (a + 3))
  | 0x15 -> Jz (ireg p c a, target (a + 1))
  | 0x16 -> Jnz (ireg p c a, target (a + 1))
  | 0x17 -> Jmp (target a)
  | 0x18 -> ExitIf (ireg p c a, u8 c (a + 1), u32 c (a + 2))
  | 0x19 -> Goto (u8 c a, ireg p c (a + 1))
  | 0x1A -> GotoI (u8 c a, u32 c (a + 1))
  | _ -> raise (Decode_error p)

(** Decode a translation back into an instruction array; branch targets
    are rewritten from byte offsets to instruction indices (so [Jz]'s
    label field is an index after decoding).  Raises {!Decode_error} on
    any byte string that is not a sequence of whole instructions whose
    branches land on instruction boundaries (the end of the code
    included) and whose register operands exist: integer registers
    below 16, vector registers below 8, call arities at most 6.
    Besides the result it allocates the instruction start offsets, one
    word per instruction rather than one per byte. *)
let decode (code : Bytes.t) : insn array =
  let len = Bytes.length code in
  (* pass 1: count the instructions, checking each is whole *)
  let pos = ref 0 and n = ref 0 in
  while !pos < len do
    let sz = opcode_length (u8 code !pos) in
    if sz = 0 || !pos + sz > len then raise (Decode_error !pos);
    pos := !pos + sz;
    incr n
  done;
  let n = !n in
  (* pass 2: starts.(i) is the byte offset of instruction i, and
     starts.(n) = len *)
  let starts = Array.make (n + 1) len in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    starts.(i) <- !pos;
    pos := !pos + opcode_length (u8 code !pos)
  done;
  (* pass 3: the instructions, branch targets found by bisecting
     [starts] *)
  let out = Array.make n (Jmp 0) in
  let at = ref 0 in
  let target o =
    let t = Int64.to_int (u32 code o) in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if starts.(mid) < t then lo := mid + 1 else hi := mid
    done;
    if starts.(!lo) <> t then raise (Decode_error !at);
    !lo
  in
  for i = 0 to n - 1 do
    at := starts.(i);
    out.(i) <- decode_at code !at ~target
  done;
  out
