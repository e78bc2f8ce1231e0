(** Two-level shadow memory for Memcheck, after Nethercote & Seward,
    "How to shadow every byte of memory used by a program" (VEE 2007).

    Every guest byte has one A (addressability) bit and eight V
    (validity) bits (bit set = undefined).  A 64K-entry primary map of
    64KB secondaries covers the 32-bit space; uniform chunks share
    distinguished secondaries and are copied on write.  A 1-, 2-, 4- or
    8-byte {!load} or {!store} inside one chunk is one primary-map
    lookup; an access that crosses a chunk goes a byte at a time. *)

type secondary = { mutable vbits : Bytes.t; mutable abits : Bytes.t }

type sm_state = Sm_noaccess | Sm_defined | Sm_undefined | Sm_real of secondary

type t = {
  primary : sm_state array;  (** 65536 entries of 64KB each *)
  mutable n_cow : int;  (** copy-on-write materialisations so far *)
}

val create : unit -> t

(** {2 Per-byte access} *)

val get_abit : t -> int64 -> bool
(** may the client touch this byte at all? *)

val get_vbyte : t -> int64 -> int
(** the eight V bits of a byte; 0x00 fully defined, 0xFF fully undefined *)

val set_byte : t -> int64 -> a:bool -> vbyte:int -> unit
val set_vbyte : t -> int64 -> int -> unit

(** {2 Range operations (the make_mem_* event callbacks)} *)

val set_range : t -> int64 -> int -> a:bool -> vbyte:int -> unit
val make_noaccess : t -> int64 -> int -> unit
val make_undefined : t -> int64 -> int -> unit
val make_defined : t -> int64 -> int -> unit

val copy_range : t -> src:int64 -> dst:int64 -> int -> unit
(** copy A and V bits, memmove-style (for mremap/realloc) *)

(** {2 Word access (the LOADV/STOREV helper backends)} *)

val load : t -> int64 -> int -> bool * int64
(** [load t addr size] = (all bytes addressable?, packed V bits LE) *)

val store : t -> int64 -> int -> int64 -> bool
(** write V bits; [false] if any byte was unaddressable (A bits are left
    unchanged — an invalid write does not make its target accessible) *)

val find_unaddressable : t -> int64 -> int -> int64 option
val find_undefined : t -> int64 -> int -> int64 option

val stats : t -> int * int
(** (materialised secondaries, copy-on-write count) *)
