(** Simulated address-space manager.

    Valgrind's core initialises "the address space manager and its own
    internal memory allocator" first thing at start-up (§3.3); squeezing
    the client and the tool into one process means the address space must
    be explicitly partitioned (R2) and mmap-like requests from the client
    pre-checked against the tool's mappings (§3.10).

    This module provides the mechanism: a sparse paged 32-bit address
    space with per-page permissions.  Policy (which ranges belong to the
    client vs the core/tool) lives in {!Vg_core.Layout} and the kernel.

    Addresses are [int64] with only the low 32 bits significant. *)

let page_size = 4096
let page_shift = 12

(** Round an address up/down to a page boundary. *)
let round_up (a : int64) = Int64.logand (Int64.add a 4095L) (Int64.lognot 4095L)

let round_down (a : int64) = Int64.logand a (Int64.lognot 4095L)
let round_up_int (n : int) = (n + 4095) land lnot 4095

type perm = { r : bool; w : bool; x : bool }

let perm_rwx = { r = true; w = true; x = true }
let perm_rw = { r = true; w = true; x = false }
let perm_rx = { r = true; w = false; x = true }
let perm_none = { r = false; w = false; x = false }

let pp_perm ppf p =
  Fmt.pf ppf "%c%c%c"
    (if p.r then 'r' else '-')
    (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

type page = { data : Bytes.t; mutable perm : perm }

type access_kind = Read | Write | Exec | Map

exception Fault of { addr : int64; kind : access_kind }

let pp_access_kind ppf = function
  | Read -> Fmt.string ppf "read"
  | Write -> Fmt.string ppf "write"
  | Exec -> Fmt.string ppf "exec"
  | Map -> Fmt.string ppf "map"

(** Mapping-level events, for observers that need to mirror the address
    space (the record/replay log watches these alongside stores). *)
type map_event =
  | Mapped of { addr : int64; len : int; perm : perm; zero : bool }
  | Unmapped of { addr : int64; len : int }

(* The page table: [l1.(pi lsr l2_bits).(pi land l2_mask)] is the page
   with index [pi], or [no_page].  It is the only record of which pages
   exist, so no other structure can go stale when it changes.  Second
   levels nothing has mapped into are the shared, never-written
   [empty_l2].

   The layout is part of this module's interface: [Host.Interp] walks
   the table inline for loads and stores that stay in one page.  It
   reads [l1], a page's [data] and [perm], and relies on [page_shift],
   [l2_bits], on every page's data being exactly [page_size] bytes, and
   on [no_page] having no permissions.  Change them together;
   [Host.Interp] checks [page_shift] and [l2_bits] when the program
   starts. *)
let l2_bits = 10
let l2_mask = (1 lsl l2_bits) - 1
let n_pages = 1 lsl (32 - page_shift)

type t = {
  l1 : page array array;
  mutable bytes_mapped : int;  (** total currently-mapped bytes *)
  mutable store_watch : (int64 -> int -> unit) list;
      (** called on every successful store (address, size); used by the
          core and interpreters to notice self-modifying code *)
  mutable map_watch : (map_event -> unit) list;
      (** called on every map/unmap, before the pages change *)
}

(* Fills the holes of the page table; it has no permissions and no
   bytes, so nothing can go through it. *)
let no_page = { data = Bytes.empty; perm = perm_none }

let empty_l2 : page array = Array.make (1 lsl l2_bits) no_page

let create () =
  { l1 = Array.make (n_pages lsr l2_bits) empty_l2; bytes_mapped = 0;
    store_watch = []; map_watch = [] }

(* The page at index [pi] (any int: only its low 20 bits count), or
   [no_page]. *)
let lookup t pi =
  let pi = pi land (n_pages - 1) in
  Array.unsafe_get (Array.unsafe_get t.l1 (pi lsr l2_bits)) (pi land l2_mask)

(* Install [p] at index [pi], giving its second level its own array
   first if it is still [empty_l2]. *)
let set_page t pi p =
  let l2 = t.l1.(pi lsr l2_bits) in
  let l2 =
    if l2 != empty_l2 then l2
    else begin
      let l2 = Array.make (1 lsl l2_bits) no_page in
      t.l1.(pi lsr l2_bits) <- l2;
      l2
    end
  in
  l2.(pi land l2_mask) <- p

let add_store_watch t f = t.store_watch <- f :: t.store_watch
let notify_store t addr size =
  match t.store_watch with
  | [] -> ()
  | ws -> List.iter (fun f -> f addr size) ws
let add_map_watch t f = t.map_watch <- f :: t.map_watch
let notify_map t ev = List.iter (fun f -> f ev) t.map_watch

let page_index (addr : int64) =
  Int64.to_int (Int64.shift_right_logical (Support.Bits.trunc32 addr) page_shift)

let page_offset (addr : int64) = Int64.to_int (Int64.logand addr 0xFFFL)

let is_mapped t addr = lookup t (page_index addr) != no_page

(** Round [len] up and [addr] down to page boundaries; iterate pages. *)
let iter_pages addr len f =
  if len > 0 then begin
    let first = page_index addr in
    let last = page_index (Int64.add addr (Int64.of_int (len - 1))) in
    for pi = first to last do
      f pi
    done
  end

(** Map [len] bytes at [addr] (both page-rounded) with permission [perm].
    Newly mapped pages are zero-filled; remapping an existing page keeps
    its contents but updates the permission (like mmap MAP_FIXED over an
    existing mapping would zero it — we zero too when [zero] is true). *)
let map ?(zero = true) t ~addr ~len ~perm =
  if len > 0 then notify_map t (Mapped { addr; len; perm; zero });
  iter_pages addr len (fun pi ->
      let p = lookup t pi in
      if p != no_page then begin
        p.perm <- perm;
        if zero then Bytes.fill p.data 0 page_size '\000'
      end
      else begin
        set_page t pi { data = Bytes.make page_size '\000'; perm };
        t.bytes_mapped <- t.bytes_mapped + page_size
      end)

let unmap t ~addr ~len =
  if len > 0 then notify_map t (Unmapped { addr; len });
  iter_pages addr len (fun pi ->
      if lookup t pi != no_page then begin
        set_page t pi no_page;
        t.bytes_mapped <- t.bytes_mapped - page_size
      end)

let protect t ~addr ~len ~perm =
  iter_pages addr len (fun pi ->
      let p = lookup t pi in
      if p != no_page then p.perm <- perm
      else raise (Fault { addr = Int64.of_int (pi lsl page_shift); kind = Map }))

(** Find [len] bytes of unmapped space at or above [hint], page aligned.
    Returns the base address.  Raises [Not_found] if the search passes
    [limit]. *)
let find_free t ~hint ~limit ~len =
  let npages = (len + page_size - 1) / page_size in
  let limit_pi = page_index limit in
  let rec search pi =
    if pi + npages > limit_pi then raise Not_found;
    let rec free k = k = npages || (lookup t (pi + k) == no_page && free (k + 1)) in
    if free 0 then Int64.of_int (pi lsl page_shift)
    else search (pi + 1)
  in
  search (page_index hint)

let get_page t addr kind =
  let p = lookup t (page_index addr) in
  if p == no_page then raise (Fault { addr; kind }) else p

(** {2 Byte-level access with permission checks} *)

let read_u8 t addr =
  let p = get_page t addr Read in
  if not p.perm.r then raise (Fault { addr; kind = Read });
  Char.code (Bytes.unsafe_get p.data (page_offset addr))

let write_u8 t addr v =
  let p = get_page t addr Write in
  if not p.perm.w then raise (Fault { addr; kind = Write });
  Bytes.unsafe_set p.data (page_offset addr) (Char.unsafe_chr (v land 0xFF));
  notify_store t addr 1

(** [read t addr size] reads [size] bytes (1 to 8) little-endian.
    Fast path when the access stays within one page. *)
let read t addr size : int64 =
  let off = page_offset addr in
  if off + size <= page_size then begin
    let p = get_page t addr Read in
    if not p.perm.r then raise (Fault { addr; kind = Read });
    match size with
    | 1 -> Int64.of_int (Char.code (Bytes.unsafe_get p.data off))
    | 2 -> Int64.of_int (Bytes.get_uint16_le p.data off)
    | 4 -> Int64.of_int32 (Bytes.get_int32_le p.data off) |> Support.Bits.trunc32
    | 8 -> Bytes.get_int64_le p.data off
    | _ ->
        let v = ref 0L in
        for i = size - 1 downto 0 do
          v := Int64.logor (Int64.shift_left !v 8)
                 (Int64.of_int (Char.code (Bytes.unsafe_get p.data (off + i))))
        done;
        !v
  end
  else begin
    (* crosses a page boundary: byte at a time *)
    let v = ref 0L in
    for i = size - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (read_u8 t (Int64.add addr (Int64.of_int i))))
    done;
    !v
  end

let write t addr size (v : int64) =
  let off = page_offset addr in
  if off + size <= page_size then begin
    let p = get_page t addr Write in
    if not p.perm.w then raise (Fault { addr; kind = Write });
    (match size with
    | 1 -> Bytes.unsafe_set p.data off (Char.unsafe_chr (Int64.to_int v land 0xFF))
    | 2 -> Bytes.set_uint16_le p.data off (Int64.to_int v land 0xFFFF)
    | 4 -> Bytes.set_int32_le p.data off (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le p.data off v
    | _ ->
        for i = 0 to size - 1 do
          Bytes.unsafe_set p.data (off + i)
            (Char.unsafe_chr
               (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
        done);
    notify_store t addr size
  end
  else
    for i = 0 to size - 1 do
      write_u8 t
        (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done

(** Read for instruction fetch: checks execute permission. *)
let fetch_u8 t addr =
  let p = get_page t addr Exec in
  if not p.perm.x then raise (Fault { addr; kind = Exec });
  Char.code (Bytes.unsafe_get p.data (page_offset addr))

(** Copy [len] raw bytes out (read-checked). *)
let read_bytes t addr len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (read_u8 t (Int64.add addr (Int64.of_int i))))
  done;
  b

(** Copy [len] raw bytes in (write-checked). *)
let write_bytes t addr (src : Bytes.t) =
  for i = 0 to Bytes.length src - 1 do
    write_u8 t (Int64.add addr (Int64.of_int i)) (Char.code (Bytes.unsafe_get src i))
  done

(** Read a NUL-terminated string (at most [max] bytes, default 4096). *)
let read_asciiz ?(max = 4096) t addr =
  let buf = Buffer.create 32 in
  let rec go i =
    if i >= max then Buffer.contents buf
    else
      let c = read_u8 t (Int64.add addr (Int64.of_int i)) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
  in
  go 0

(** Copy [len] bytes from [src] to [dst] handling overlap (memmove). *)
let move t ~src ~dst ~len =
  let tmp = read_bytes t src len in
  write_bytes t dst tmp

(** Fold [f acc pi data perm] over every mapped page in ascending page
    index order.  [data] is the live page, not a copy: [f] must not
    keep or mutate it. *)
let fold_pages t f acc =
  let acc = ref acc in
  Array.iteri
    (fun hi l2 ->
      if l2 != empty_l2 then
        Array.iteri
          (fun lo p ->
            if p != no_page then
              acc := f !acc ((hi lsl l2_bits) lor lo) p.data p.perm)
          l2)
    t.l1;
  !acc
