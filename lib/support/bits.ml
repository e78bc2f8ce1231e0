(** Bit-twiddling helpers shared by the guest and host machine models.

    All machine values are carried in OCaml [int64]: a guest 32-bit word
    lives in the low 32 bits (zero-extended), bytes/halfwords likewise.
    These helpers provide the truncations, extensions and float
    reinterpretations the interpreters and the JIT need. *)

let mask8 = 0xFFL
let mask16 = 0xFFFFL
let mask32 = 0xFFFF_FFFFL

(** [trunc8 x] keeps the low 8 bits, zero-extended. *)
let trunc8 x = Int64.logand x mask8

(** [trunc16 x] keeps the low 16 bits, zero-extended. *)
let trunc16 x = Int64.logand x mask16

(** [trunc32 x] keeps the low 32 bits, zero-extended. *)
let trunc32 x = Int64.logand x mask32

(** [sext8 x] sign-extends bit 7 of [x] to 64 bits. *)
let sext8 x =
  let x = trunc8 x in
  if Int64.logand x 0x80L <> 0L then Int64.logor x (Int64.lognot mask8) else x

(** [sext16 x] sign-extends bit 15 of [x] to 64 bits. *)
let sext16 x =
  let x = trunc16 x in
  if Int64.logand x 0x8000L <> 0L then Int64.logor x (Int64.lognot mask16)
  else x

(** [sext32 x] sign-extends bit 31 of [x] to 64 bits. *)
let sext32 x =
  let x = trunc32 x in
  if Int64.logand x 0x8000_0000L <> 0L then Int64.logor x (Int64.lognot mask32)
  else x

(** 32-bit signed compare of the low words of [a] and [b]. *)
let cmp32s a b = Int64.compare (sext32 a) (sext32 b)

(** 32-bit unsigned compare of the low words of [a] and [b]. *)
let cmp32u a b = Int64.unsigned_compare (trunc32 a) (trunc32 b)

(** [bool64 b] is 1 if [b] else 0. *)
let bool64 b = if b then 1L else 0L

(** [to_bool x] is true iff [x] is non-zero. *)
let to_bool x = x <> 0L

(** Reinterpret the 64 bits of [x] as an IEEE754 double. *)
let float_of_bits = Int64.float_of_bits

(** Reinterpret an IEEE754 double as its 64 bits. *)
let bits_of_float = Int64.bits_of_float

(** 32-bit left shift (amount masked to 5 bits), result zero-extended. *)
let shl32 x n = trunc32 (Int64.shift_left (trunc32 x) (Int64.to_int n land 31))

(** 32-bit logical right shift (amount masked to 5 bits). *)
let shr32 x n =
  trunc32 (Int64.shift_right_logical (trunc32 x) (Int64.to_int n land 31))

(** 32-bit arithmetic right shift (amount masked to 5 bits). *)
let sar32 x n =
  trunc32 (Int64.shift_right (sext32 x) (Int64.to_int n land 31))

(** 64-bit shifts with the amount masked to 6 bits. *)
let shl64 x n = Int64.shift_left x (Int64.to_int n land 63)

let shr64 x n = Int64.shift_right_logical x (Int64.to_int n land 63)
let sar64 x n = Int64.shift_right x (Int64.to_int n land 63)

(** Count leading zeros of the low 32 bits (32 if zero). *)
let clz32 x =
  let x = trunc32 x in
  if x = 0L then 32L
  else
    let rec go n bit =
      if Int64.logand x (Int64.shift_left 1L bit) <> 0L then Int64.of_int n
      else go (n + 1) (bit - 1)
    in
    go 0 31

(** Count trailing zeros of the low 32 bits (32 if zero). *)
let ctz32 x =
  let x = trunc32 x in
  if x = 0L then 32L
  else
    let rec go n = if Int64.logand x (Int64.shift_left 1L n) <> 0L then Int64.of_int n else go (n + 1) in
    go 0
