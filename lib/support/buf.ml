(** Growable little-endian byte buffer.

    Used by both instruction encoders (guest VG32 and host VH64): phase 8 of
    the JIT "simply encodes the selected instructions appropriately and
    writes them to a block of memory" — this is the block being written. *)

type t = { mutable data : Bytes.t; mutable len : int }

let create ?(capacity = 64) () = { data = Bytes.create (max 8 capacity); len = 0 }

let length t = t.len

let ensure t extra =
  let need = t.len + extra in
  if need > Bytes.length t.data then begin
    let cap = ref (Bytes.length t.data) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nd = Bytes.create !cap in
    Bytes.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end

(** Append one byte (low 8 bits of [b]). *)
let u8 t b =
  ensure t 1;
  Bytes.unsafe_set t.data t.len (Char.unsafe_chr (b land 0xFF));
  t.len <- t.len + 1

(** Append a 16-bit little-endian value. *)
let u16 t v =
  u8 t (v land 0xFF);
  u8 t ((v lsr 8) land 0xFF)

(** Append a 32-bit little-endian value taken from the low bits of [v]. *)
let u32 t (v : int64) =
  let v = Int64.to_int (Bits.trunc32 v) in
  u8 t v;
  u8 t (v lsr 8);
  u8 t (v lsr 16);
  u8 t (v lsr 24)

(** Append a 64-bit little-endian value. *)
let u64 t (v : int64) =
  u32 t v;
  u32 t (Int64.shift_right_logical v 32)

(** Contents so far, as fresh [Bytes.t]. *)
let contents t = Bytes.sub t.data 0 t.len

(** {2 Reading back} *)

(** [read_u8 b pos] reads an unsigned byte from raw [Bytes.t]. *)
let read_u8 (b : Bytes.t) pos = Char.code (Bytes.get b pos)

let read_u32 b pos : int64 =
  let a = read_u8 b pos
  and b1 = read_u8 b (pos + 1)
  and c = read_u8 b (pos + 2)
  and d = read_u8 b (pos + 3) in
  Int64.of_int (a lor (b1 lsl 8) lor (c lsl 16) lor (d lsl 24))
