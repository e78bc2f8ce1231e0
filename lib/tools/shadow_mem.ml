(** Two-level shadow memory for Memcheck, after Nethercote & Seward,
    "How to shadow every byte of memory used by a program" (VEE 2007,
    reference [19] of the paper).

    Every byte of the 32-bit guest address space has:
    - one A (addressability) bit: may the client touch it at all (this is
      the {e library-level} addressability of R8, finer than the kernel's
      page-level mapping — e.g. red zones and freed heap blocks are
      mapped but not addressable);
    - eight V (validity) bits: bit [i] set means bit [i] of the byte is
      {e undefined}.

    The space is covered by a 64K-entry primary map of 64KB secondaries.
    Three {e distinguished} secondaries (noaccess / defined / undefined)
    are shared by all chunks in those uniform states and copied-on-write,
    so shadowing 4GB costs almost nothing until memory is actually used
    in interesting ways.  Word loads and stores, and range operations,
    work a chunk at a time rather than a byte at a time.  (The paper notes "shadow memory operations
    account for close to half of Memcheck's overhead" — the helper costs
    in {!Memcheck} model that.) *)

type secondary = {
  mutable vbits : Bytes.t;  (** 64K bytes; 0x00 = defined, 0xFF = undefined *)
  mutable abits : Bytes.t;  (** 8K bitmap; bit set = addressable *)
}

type sm_state = Sm_noaccess | Sm_defined | Sm_undefined | Sm_real of secondary

type t = {
  primary : sm_state array;  (** 65536 entries *)
  mutable n_cow : int;  (** copy-on-write materialisations *)
}

let chunk_size = 65536

let create () = { primary = Array.make 65536 Sm_noaccess; n_cow = 0 }

let fresh_secondary ~(a : bool) ~(vbyte : int) : secondary =
  {
    vbits = Bytes.make chunk_size (Char.chr (vbyte land 0xFF));
    abits = Bytes.make (chunk_size / 8) (if a then '\xFF' else '\x00');
  }

let materialise (t : t) (idx : int) : secondary =
  match t.primary.(idx) with
  | Sm_real s -> s
  | st ->
      let s =
        match st with
        | Sm_noaccess -> fresh_secondary ~a:false ~vbyte:0xFF
        | Sm_defined -> fresh_secondary ~a:true ~vbyte:0x00
        | Sm_undefined -> fresh_secondary ~a:true ~vbyte:0xFF
        | Sm_real _ -> assert false
      in
      t.n_cow <- t.n_cow + 1;
      t.primary.(idx) <- Sm_real s;
      s

let chunk_of (addr : int64) = Int64.to_int (Int64.shift_right_logical (Support.Bits.trunc32 addr) 16)
let off_of (addr : int64) = Int64.to_int (Int64.logand addr 0xFFFFL)

(* ------------------------------------------------------------------ *)
(* Per-byte access                                                      *)
(* ------------------------------------------------------------------ *)

let get_abit (t : t) (addr : int64) : bool =
  match t.primary.(chunk_of addr) with
  | Sm_noaccess -> false
  | Sm_defined | Sm_undefined -> true
  | Sm_real s ->
      let o = off_of addr in
      Char.code (Bytes.unsafe_get s.abits (o lsr 3)) land (1 lsl (o land 7)) <> 0

let get_vbyte (t : t) (addr : int64) : int =
  match t.primary.(chunk_of addr) with
  | Sm_noaccess -> 0xFF
  | Sm_defined -> 0x00
  | Sm_undefined -> 0xFF
  | Sm_real s -> Char.code (Bytes.unsafe_get s.vbits (off_of addr))

let set_abit (ab : Bytes.t) (i : int) (a : bool) =
  let b = Char.code (Bytes.unsafe_get ab (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  Bytes.unsafe_set ab (i lsr 3)
    (Char.unsafe_chr (if a then b lor bit else b land lnot bit))

(* Set the A bits of offsets [o, o + n) of a secondary. *)
let set_abits (ab : Bytes.t) (o : int) (n : int) (a : bool) =
  let fin = o + n in
  let i = ref o in
  while !i < fin && !i land 7 <> 0 do
    set_abit ab !i a;
    incr i
  done;
  let whole = (fin - !i) lsr 3 in
  Bytes.fill ab (!i lsr 3) whole (if a then '\xFF' else '\x00');
  i := !i + (whole lsl 3);
  while !i < fin do
    set_abit ab !i a;
    incr i
  done

(* Give offsets [o, o + n) of chunk [idx] ([o + n <= chunk_size]) the
   A bit [a] and the V bits [vbyte].  A chunk already in the matching
   distinguished state is left shared; so is a noaccess one whatever
   [vbyte], since its bytes read as undefined. *)
let fill_chunk (t : t) (idx : int) (o : int) (n : int) ~(a : bool)
    ~(vbyte : int) =
  match (t.primary.(idx), a, vbyte) with
  | Sm_noaccess, false, _ | Sm_defined, true, 0x00 | Sm_undefined, true, 0xFF -> ()
  | _ ->
      let s = materialise t idx in
      Bytes.fill s.vbits o n (Char.unsafe_chr (vbyte land 0xFF));
      set_abits s.abits o n a

let set_byte (t : t) (addr : int64) ~(a : bool) ~(vbyte : int) =
  fill_chunk t (chunk_of addr) (off_of addr) 1 ~a ~vbyte

let set_vbyte (t : t) (addr : int64) (vbyte : int) =
  set_byte t addr ~a:(get_abit t addr) ~vbyte

(* ------------------------------------------------------------------ *)
(* Range operations (the make_mem_* callbacks)                          *)
(* ------------------------------------------------------------------ *)

let set_range (t : t) (addr : int64) (len : int) ~(a : bool) ~(vbyte : int) =
  if len > 0 then begin
    (* int arithmetic, so the loop allocates nothing; a range that runs
       past 4GB wraps to chunk 0, as byte addresses do *)
    let addr = Int64.to_int (Support.Bits.trunc32 addr) in
    let chunk pos = (pos lsr 16) land 0xFFFF in
    let first_chunk = chunk addr and last_chunk = chunk (addr + len - 1) in
    (* when the range spans three chunks or more, the whole middle ones
       flip to a distinguished state cheaply; the first and last are
       filled in place *)
    let state =
      if not a then Sm_noaccess else if vbyte = 0 then Sm_defined else Sm_undefined
    in
    let pos = ref addr and left = ref len in
    while !left > 0 do
      let idx = chunk !pos and o = !pos land 0xFFFF in
      let n = if !left < chunk_size - o then !left else chunk_size - o in
      if last_chunk - first_chunk >= 2 && idx > first_chunk && idx < last_chunk
      then t.primary.(idx) <- state
      else fill_chunk t idx o n ~a ~vbyte;
      pos := !pos + n;
      left := !left - n
    done
  end

let make_noaccess t addr len = set_range t addr len ~a:false ~vbyte:0xFF
let make_undefined t addr len = set_range t addr len ~a:true ~vbyte:0xFF
let make_defined t addr len = set_range t addr len ~a:true ~vbyte:0x00

(** Copy addressability and validity (for mremap / realloc). *)
let copy_range (t : t) ~(src : int64) ~(dst : int64) (len : int) =
  (* copy via a temp so overlapping ranges behave like memmove *)
  let tmp =
    Array.init len (fun i ->
        let a = Int64.add src (Int64.of_int i) in
        (get_abit t a, get_vbyte t a))
  in
  Array.iteri
    (fun i (a, v) -> set_byte t (Int64.add dst (Int64.of_int i)) ~a ~vbyte:v)
    tmp

(* ------------------------------------------------------------------ *)
(* Word-wise access (the LOADV/STOREV helper backends)                  *)
(* ------------------------------------------------------------------ *)

(* The byte loops: the reference for the word paths below, and what
   answers an access that crosses a chunk boundary. *)
let load_bytes (t : t) (addr : int64) (size : int) : bool * int64 =
  let ok = ref true in
  let v = ref 0L in
  for i = size - 1 downto 0 do
    let a = Int64.add addr (Int64.of_int i) in
    if not (get_abit t a) then ok := false;
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_vbyte t a))
  done;
  (!ok, !v)

let store_bytes (t : t) (addr : int64) (size : int) (vbits : int64) : bool =
  let ok = ref true in
  for i = 0 to size - 1 do
    let a = Int64.add addr (Int64.of_int i) in
    if get_abit t a then
      set_vbyte t a
        (Int64.to_int (Int64.logand (Int64.shift_right_logical vbits (8 * i)) 0xFFL))
    else ok := false
  done;
  !ok

(* An access of [size] bytes at [addr] that the word paths take: a
   power-of-two size up to 8 that stays inside one chunk. *)
let[@inline] word_access (addr : int64) (size : int) =
  (size = 1 || size = 2 || size = 4 || size = 8)
  && off_of addr + size <= chunk_size

(* All-undefined V bits of an [n]-byte word, [n <= 8]. *)
let undef_of_size =
  Array.init 9 (fun n -> if n = 8 then -1L else Int64.pred (Int64.shift_left 1L (8 * n)))

(* Are the A bits of offsets [o, o + size) all set?  [size <= 8] bits
   starting at bit [o land 7] span at most two bitmap bytes, and only
   when [o] is not in the bitmap's last byte. *)
let[@inline] abits_all (s : secondary) (o : int) (size : int) =
  let sh = o land 7 in
  let w =
    if sh + size <= 8 then Char.code (Bytes.unsafe_get s.abits (o lsr 3))
    else Bytes.get_uint16_le s.abits (o lsr 3)
  in
  let mask = (1 lsl size) - 1 in
  (w lsr sh) land mask = mask

let[@inline] read_vbits (s : secondary) (o : int) (size : int) : int64 =
  match size with
  | 1 -> Int64.of_int (Bytes.get_uint8 s.vbits o)
  | 2 -> Int64.of_int (Bytes.get_uint16_le s.vbits o)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le s.vbits o)) 0xFFFF_FFFFL
  | _ -> Bytes.get_int64_le s.vbits o

let[@inline] write_vbits (s : secondary) (o : int) (size : int) (vbits : int64) =
  match size with
  | 1 -> Bytes.set_uint8 s.vbits o (Int64.to_int vbits land 0xFF)
  | 2 -> Bytes.set_uint16_le s.vbits o (Int64.to_int vbits land 0xFFFF)
  | 4 -> Bytes.set_int32_le s.vbits o (Int64.to_int32 vbits)
  | _ -> Bytes.set_int64_le s.vbits o vbits

(** [load t addr size] returns [(all_addressable, vbits)] where [vbits]
    packs the V bits of the [size] bytes little-endian (bit set =
    undefined).  A word access is one secondary-map lookup. *)
let load (t : t) (addr : int64) (size : int) : bool * int64 =
  if not (word_access addr size) then load_bytes t addr size
  else
    match t.primary.(chunk_of addr) with
    | Sm_noaccess -> (false, undef_of_size.(size))
    | Sm_defined -> (true, 0L)
    | Sm_undefined -> (true, undef_of_size.(size))
    | Sm_real s ->
        let o = off_of addr in
        (abits_all s o size, read_vbits s o size)

(** [store t addr size vbits] writes V bits; returns false if any byte
    was unaddressable (the A bits are left unchanged — an invalid write
    does not make the target addressable). *)
let store (t : t) (addr : int64) (size : int) (vbits : int64) : bool =
  if not (word_access addr size) then store_bytes t addr size vbits
  else
    let idx = chunk_of addr in
    let vbits = Int64.logand vbits undef_of_size.(size) in
    match t.primary.(idx) with
    | Sm_noaccess -> false
    | Sm_defined when vbits = 0L -> true
    | Sm_undefined when vbits = undef_of_size.(size) -> true
    | Sm_defined | Sm_undefined ->
        write_vbits (materialise t idx) (off_of addr) size vbits;
        true
    | Sm_real s ->
        let o = off_of addr in
        if abits_all s o size then begin
          write_vbits s o size vbits;
          true
        end
        else store_bytes t addr size vbits

(** First unaddressable byte in [addr, addr+len), if any. *)
let find_unaddressable (t : t) (addr : int64) (len : int) : int64 option =
  let rec go i =
    if i >= len then None
    else
      let a = Int64.add addr (Int64.of_int i) in
      if not (get_abit t a) then Some a else go (i + 1)
  in
  go 0

(** First byte with any undefined bit in [addr, addr+len), if any. *)
let find_undefined (t : t) (addr : int64) (len : int) : int64 option =
  let rec go i =
    if i >= len then None
    else
      let a = Int64.add addr (Int64.of_int i) in
      if get_vbyte t a <> 0 then Some a else go (i + 1)
  in
  go 0

(** Statistics for the shadow-memory bench: (real secondaries, CoW count). *)
let stats (t : t) : int * int =
  let real =
    Array.fold_left
      (fun n s -> match s with Sm_real _ -> n + 1 | _ -> n)
      0 t.primary
  in
  (real, t.n_cow)
