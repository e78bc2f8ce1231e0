(** Function replacement and wrapping (paper §3.13).

    A replacement routes guest calls of a symbol to an OCaml handler: the
    core writes a small guest-code stub ([movi r0, code; clreq; ret])
    into its own region and adds a redirection from the symbol's address
    to the stub.  Redirections are applied when a translation is {e made}
    (the translation for address A is generated from the code at
    [redirect A] but indexed under A), so no client code is patched.

    Wrapping additionally lets the original run: the stub performs
    [clreq enter; call original'; clreq exit; ret] where [original'] is a
    {e no-redirect alias} of the original's address — translating the
    alias fetches the original's code without re-entering the
    redirection, the analogue of Valgrind's "nraddr" mechanism. *)

type handler = unit -> unit

type t = {
  mem : Aspace.t;
  (* symbol-address -> replacement address *)
  redirects : (int64, int64) Hashtbl.t;
  (* internal clreq code -> handler *)
  handlers : (int64, handler) Hashtbl.t;
  (* no-redirect alias -> real address *)
  aliases : (int64, int64) Hashtbl.t;
  (* stub address -> human-readable name, for stack traces *)
  stub_names : (int64, string) Hashtbl.t;
  mutable next_code : int64;
  mutable next_stub : int64;
  mutable next_alias : int64;
}

let alias_base = 0x7100_0000L
let alias_limit = 0x7200_0000L

let create (mem : Aspace.t) : t =
  Aspace.map mem ~addr:Layout.stub_base
    ~len:(Int64.to_int (Int64.sub Layout.stub_limit Layout.stub_base))
    ~perm:Aspace.perm_rwx;
  {
    mem;
    redirects = Hashtbl.create 16;
    handlers = Hashtbl.create 16;
    aliases = Hashtbl.create 16;
    stub_names = Hashtbl.create 16;
    next_code = Clientreq.internal_base;
    next_stub = Layout.stub_base;
    next_alias = alias_base;
  }

let fresh_code t =
  let c = t.next_code in
  t.next_code <- Int64.add c 1L;
  c

let write_stub t (insns : Guest.Arch.insn list) : int64 =
  let buf = Support.Buf.create () in
  List.iter (Guest.Encode.emit buf) insns;
  let bytes = Support.Buf.contents buf in
  let addr = t.next_stub in
  t.next_stub <- Int64.add addr (Int64.of_int (Bytes.length bytes + 4));
  if Int64.unsigned_compare t.next_stub Layout.stub_limit >= 0 then
    failwith "Redirect: stub region exhausted";
  Aspace.write_bytes t.mem addr bytes;
  addr

(** Resolve the address translation should fetch from, given a requested
    guest PC: no-redirect aliases win, then redirections, else identity. *)
let resolve (t : t) (pc : int64) : int64 =
  match Hashtbl.find_opt t.aliases pc with
  | Some real -> real
  | None -> (
      match Hashtbl.find_opt t.redirects pc with
      | Some repl -> repl
      | None -> pc)

let lookup_handler t code = Hashtbl.find_opt t.handlers code

(** Name of the stub covering [addr], if any (for stack traces). *)
let stub_name (t : t) (addr : int64) : string option =
  if
    Int64.unsigned_compare addr Layout.stub_base >= 0
    && Int64.unsigned_compare addr t.next_stub < 0
  then
    (* find the nearest stub base at or below addr *)
    Hashtbl.fold
      (fun base name acc ->
        if Int64.unsigned_compare base addr <= 0 then
          match acc with
          | Some (b, _) when Int64.unsigned_compare b base >= 0 -> acc
          | _ -> Some (base, name)
        else acc)
      t.stub_names None
    |> Option.map snd
  else None

(** Replace [addr]'s function with [handler].  The handler must emulate
    the whole call: read arguments from the guest stack, write the result
    to r0.  The stub's [ret] then returns to the caller. *)
let replace ?(name = "redirected") (t : t) ~(addr : int64)
    ~(handler : handler) : unit =
  let code = fresh_code t in
  Hashtbl.replace t.handlers code handler;
  let stub =
    write_stub t [ Guest.Arch.Movi (0, code); Guest.Arch.Clreq; Guest.Arch.Ret ]
  in
  Hashtbl.replace t.stub_names stub name;
  Hashtbl.replace t.redirects addr stub

(** Wrap the [arity]-argument function at [addr].  [on_enter] sees the
    original arguments on the guest stack at [sp+4..sp+4*arity];
    [on_exit] finds the original's return value in guest r1 and must
    write the final result to r0 (write r1's value for transparent
    wrapping).  The original runs via a no-redirect alias, so wrapping
    does not loop. *)
let wrap (t : t) ~(addr : int64) ~(arity : int) ~(on_enter : handler)
    ~(on_exit : handler) : unit =
  let enter_code = fresh_code t in
  let exit_code = fresh_code t in
  Hashtbl.replace t.handlers enter_code on_enter;
  Hashtbl.replace t.handlers exit_code on_exit;
  let alias = t.next_alias in
  t.next_alias <- Int64.add alias 16L;
  if Int64.unsigned_compare t.next_alias alias_limit >= 0 then
    failwith "Redirect: alias region exhausted";
  Hashtbl.replace t.aliases alias addr;
  let open Guest.Arch in
  let copy_args =
    (* each iteration copies the next-outermost argument: the source is
       always [sp + 4*arity] as pushes accumulate *)
    List.concat
      (List.init arity (fun _ ->
           [ Ld (W4, Zx, 1, mem_b reg_sp (Int64.of_int (4 * arity))); Push 1 ]))
  in
  let stub =
    write_stub t
      ([ Movi (0, enter_code); Clreq ]
      @ copy_args
      @ [
          Call alias;
          (if arity > 0 then Alui (ADD, reg_sp, Int64.of_int (4 * arity))
           else Nop);
          Mov (1, 0);
          Movi (0, exit_code);
          Clreq;
          Ret;
        ])
  in
  Hashtbl.replace t.redirects addr stub
