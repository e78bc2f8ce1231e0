(** Set-associative cache simulator — the substrate behind Cachegrind.

    Models the classic I1/D1/unified-L2 hierarchy with LRU replacement,
    write-allocate, and no timing (Cachegrind counts events, not
    cycles). *)

type config = { size : int; line_size : int; assoc : int }

(** Cachegrind's historical defaults. *)
let default_i1 = { size = 65536; line_size = 64; assoc = 2 }

let default_d1 = { size = 65536; line_size = 64; assoc = 2 }
let default_l2 = { size = 262144; line_size = 64; assoc = 8 }

type t = {
  cfg : config;
  n_sets : int;
  line_shift : int;
  tags : int64 array;  (** n_sets * assoc; -1 = invalid *)
  lru : int array;  (** per way: higher = more recently used *)
  mutable clock : int;
  mutable accesses : int64;
  mutable misses : int64;
}

let log2i n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let create (cfg : config) : t =
  if cfg.size mod (cfg.line_size * cfg.assoc) <> 0 then
    invalid_arg "Cachesim.create: size must be a multiple of line*assoc";
  let n_sets = cfg.size / (cfg.line_size * cfg.assoc) in
  {
    cfg;
    n_sets;
    line_shift = log2i cfg.line_size;
    tags = Array.make (n_sets * cfg.assoc) Int64.minus_one;
    lru = Array.make (n_sets * cfg.assoc) 0;
    clock = 0;
    accesses = 0L;
    misses = 0L;
  }

(* probe one line address; returns true on hit *)
let access_line (t : t) (line : int64) : bool =
  t.accesses <- Int64.add t.accesses 1L;
  t.clock <- t.clock + 1;
  let set = Int64.to_int (Int64.unsigned_rem line (Int64.of_int t.n_sets)) in
  let base = set * t.cfg.assoc in
  let rec find w = if w = t.cfg.assoc then None
    else if t.tags.(base + w) = line then Some w
    else find (w + 1)
  in
  match find 0 with
  | Some w ->
      t.lru.(base + w) <- t.clock;
      true
  | None ->
      t.misses <- Int64.add t.misses 1L;
      (* evict LRU way *)
      let victim = ref 0 in
      for w = 1 to t.cfg.assoc - 1 do
        if t.lru.(base + w) < t.lru.(base + !victim) then victim := w
      done;
      t.tags.(base + !victim) <- line;
      t.lru.(base + !victim) <- t.clock;
      false

(** Access [size] bytes at [addr]; returns true if every touched line
    hit (an access straddling a line boundary probes both lines). *)
let access (t : t) (addr : int64) (size : int) : bool =
  let first = Int64.shift_right_logical addr t.line_shift in
  let last =
    Int64.shift_right_logical
      (Int64.add addr (Int64.of_int (max 0 (size - 1))))
      t.line_shift
  in
  let hit1 = access_line t first in
  if last <> first then access_line t last && hit1 else hit1

(** A two-level hierarchy as Cachegrind models it. *)
type hierarchy = {
  i1 : t;
  d1 : t;
  l2 : t;
  mutable ir : int64;  (** instructions *)
  mutable i1_misses : int64;
  mutable l2i_misses : int64;
  mutable dr : int64;
  mutable d1r_misses : int64;
  mutable l2dr_misses : int64;
  mutable dw : int64;
  mutable d1w_misses : int64;
  mutable l2dw_misses : int64;
}

let create_hierarchy ?(i1 = default_i1) ?(d1 = default_d1) ?(l2 = default_l2)
    () : hierarchy =
  {
    i1 = create i1;
    d1 = create d1;
    l2 = create l2;
    ir = 0L;
    i1_misses = 0L;
    l2i_misses = 0L;
    dr = 0L;
    d1r_misses = 0L;
    l2dr_misses = 0L;
    dw = 0L;
    d1w_misses = 0L;
    l2dw_misses = 0L;
  }

let instr_fetch (h : hierarchy) (addr : int64) (size : int) =
  h.ir <- Int64.add h.ir 1L;
  if not (access h.i1 addr size) then begin
    h.i1_misses <- Int64.add h.i1_misses 1L;
    if not (access h.l2 addr size) then
      h.l2i_misses <- Int64.add h.l2i_misses 1L
  end

let data_read (h : hierarchy) (addr : int64) (size : int) =
  h.dr <- Int64.add h.dr 1L;
  if not (access h.d1 addr size) then begin
    h.d1r_misses <- Int64.add h.d1r_misses 1L;
    if not (access h.l2 addr size) then
      h.l2dr_misses <- Int64.add h.l2dr_misses 1L
  end

let data_write (h : hierarchy) (addr : int64) (size : int) =
  h.dw <- Int64.add h.dw 1L;
  if not (access h.d1 addr size) then begin
    h.d1w_misses <- Int64.add h.d1w_misses 1L;
    if not (access h.l2 addr size) then
      h.l2dw_misses <- Int64.add h.l2dw_misses 1L
  end

let summary (h : hierarchy) : string =
  let pct a b = if b = 0L then 0.0 else 100.0 *. Int64.to_float a /. Int64.to_float b in
  String.concat "\n"
    [
      Printf.sprintf "I   refs:      %Ld" h.ir;
      Printf.sprintf "I1  misses:    %Ld  (%.2f%%)" h.i1_misses (pct h.i1_misses h.ir);
      Printf.sprintf "L2i misses:    %Ld  (%.2f%%)" h.l2i_misses (pct h.l2i_misses h.ir);
      Printf.sprintf "D   reads:     %Ld" h.dr;
      Printf.sprintf "D1  rd misses: %Ld  (%.2f%%)" h.d1r_misses (pct h.d1r_misses h.dr);
      Printf.sprintf "D   writes:    %Ld" h.dw;
      Printf.sprintf "D1  wr misses: %Ld  (%.2f%%)" h.d1w_misses (pct h.d1w_misses h.dw);
      Printf.sprintf "L2d misses:    %Ld"
        (Int64.add h.l2dr_misses h.l2dw_misses);
      "";
    ]
