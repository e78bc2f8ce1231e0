(** Loadable guest program images (the analogue of an ELF executable).

    An image carries the text and data segments, the BSS size, the entry
    point and a symbol table.  [load] maps it into an address space the
    way Valgrind's own loader does at start-up (§3.3: the core "loads the
    client executable (text and data) ... then sets up the client's stack
    and data segment"), and reports the mapped ranges so the caller can
    fire [new_mem_startup] events (R5). *)

type t = {
  text_addr : int64;
  text : Bytes.t;
  data_addr : int64;
  data : Bytes.t;
  bss_len : int;  (** zero-initialised bytes following data *)
  entry : int64;
  symbols : (string * int64) list;  (** for stack traces / debug info *)
}

(** Default layout constants. *)
let default_text_base = 0x0001_0000L

let stack_top = 0xBF00_0000L
let stack_size = 1024 * 1024 (* 1MB client stack *)

(** A mapped range reported by [load]: base, length, and whether the
    loader considers its contents defined (text/data) or merely
    allocated (bss, stack). *)
type mapped = { m_base : int64; m_len : int; m_defined : bool; m_what : string }

let round_page x = Int64.logand (Int64.add x 4095L) (Int64.lognot 4095L)

(** Map [img] into [mem]; returns the initial [eip], initial [sp], the
    program break (end of bss, for the kernel's brk), and the list of
    mapped ranges. *)
let load (img : t) (mem : Aspace.t) :
    int64 * int64 * int64 * mapped list =
  let text_len = Bytes.length img.text in
  let data_len = Bytes.length img.data in
  Aspace.map mem ~addr:img.text_addr ~len:(max 1 text_len) ~perm:Aspace.perm_rx;
  (* write requires w perm: map rw, fill, then protect rx *)
  Aspace.protect mem ~addr:img.text_addr ~len:(max 1 text_len)
    ~perm:Aspace.perm_rwx;
  Aspace.write_bytes mem img.text_addr img.text;
  Aspace.protect mem ~addr:img.text_addr ~len:(max 1 text_len)
    ~perm:Aspace.perm_rx;
  if data_len > 0 then begin
    Aspace.map mem ~addr:img.data_addr ~len:data_len ~perm:Aspace.perm_rw;
    Aspace.write_bytes mem img.data_addr img.data
  end;
  let bss_base = Int64.add img.data_addr (Int64.of_int data_len) in
  if img.bss_len > 0 then
    Aspace.map ~zero:false mem ~addr:bss_base ~len:img.bss_len
      ~perm:Aspace.perm_rw;
  let brk = round_page (Int64.add bss_base (Int64.of_int img.bss_len)) in
  let stack_base = Int64.sub stack_top (Int64.of_int stack_size) in
  (* the stack is executable, as on pre-NX systems of the paper's era:
     GCC nested-function trampolines live there, which is exactly the
     self-modifying-code case Valgrind's hash checks exist for (§3.16) *)
  Aspace.map mem ~addr:stack_base ~len:stack_size ~perm:Aspace.perm_rwx;
  let sp = Int64.sub stack_top 64L (* small headroom, 16-aligned *) in
  let mapped =
    [
      { m_base = img.text_addr; m_len = text_len; m_defined = true; m_what = "text" };
      { m_base = img.data_addr; m_len = data_len; m_defined = true; m_what = "data" };
      { m_base = bss_base; m_len = img.bss_len; m_defined = false; m_what = "bss" };
      { m_base = stack_base; m_len = stack_size; m_defined = false; m_what = "stack" };
    ]
    |> List.filter (fun m -> m.m_len > 0)
  in
  (img.entry, sp, brk, mapped)

(** Find the symbol at or nearest below [addr], for stack traces,
    passing over the names [skip] holds. *)
let symbol_for ?(skip = fun _ -> false) (img : t) (addr : int64) :
    (string * int64) option =
  List.fold_left
    (fun best (name, a) ->
      if skip name then best
      else if Int64.unsigned_compare a addr <= 0 then
        match best with
        | Some (_, ba) when Int64.unsigned_compare ba a >= 0 -> best
        | _ -> Some (name, a)
      else best)
    None img.symbols
