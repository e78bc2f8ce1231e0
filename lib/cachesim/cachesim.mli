(** Set-associative cache simulator — the substrate behind Cachegrind.

    Models the classic I1/D1/unified-L2 hierarchy with LRU replacement
    and no timing (Cachegrind counts events, not cycles). *)

type config = { size : int; line_size : int; assoc : int }

(** Cachegrind's historical defaults: I1/D1 64KB 64B 2-way, L2 256KB 64B
    8-way. *)
val default_i1 : config

val default_d1 : config
val default_l2 : config

(** One cache level. *)
type t = {
  cfg : config;
  n_sets : int;
  line_shift : int;
  tags : int64 array;
  lru : int array;
  mutable clock : int;
  mutable accesses : int64;
  mutable misses : int64;
}

(** [create cfg] builds an empty cache.  Raises [Invalid_argument] if
    [cfg.size] is not a multiple of [line_size * assoc]. *)
val create : config -> t

(** [access t addr size] touches [size] bytes at [addr]; returns [true]
    iff every touched line hit (an access straddling a line boundary
    probes both lines). *)
val access : t -> int64 -> int -> bool

(** The I1/D1/L2 hierarchy Cachegrind models, with the nine counters the
    cg summary reports. *)
type hierarchy = {
  i1 : t;
  d1 : t;
  l2 : t;
  mutable ir : int64;
  mutable i1_misses : int64;
  mutable l2i_misses : int64;
  mutable dr : int64;
  mutable d1r_misses : int64;
  mutable l2dr_misses : int64;
  mutable dw : int64;
  mutable d1w_misses : int64;
  mutable l2dw_misses : int64;
}

val create_hierarchy :
  ?i1:config -> ?d1:config -> ?l2:config -> unit -> hierarchy

(** Record an instruction fetch / data read / data write of [size] bytes
    at an address, cascading D1/I1 misses into L2. *)
val instr_fetch : hierarchy -> int64 -> int -> unit

val data_read : hierarchy -> int64 -> int -> unit
val data_write : hierarchy -> int64 -> int -> unit

(** Cachegrind-style textual summary. *)
val summary : hierarchy -> string
