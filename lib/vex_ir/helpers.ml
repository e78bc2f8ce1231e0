(** Global registry of helper functions callable from IR.

    In the paper these are C functions inside Valgrind or the tool (e.g.
    [helperc_LOADV32le], [helperc_value_check4_fail], the x86
    condition-code calculators).  Here they are OCaml closures; each gets a
    stable integer id that the JIT bakes into generated host [CALL]
    instructions, and a declared cycle cost used by the host cost model
    (calling out of generated code is what makes "C call" analysis code
    slower than inline analysis code — ICntC vs ICntI in Table 2). *)

type env = {
  he_get_guest : int -> int -> int64;
      (** [he_get_guest off size] reads [size] bytes of the current
          thread's ThreadState at byte offset [off], little-endian. *)
  he_put_guest : int -> int -> int64 -> unit;
  he_load : int64 -> int -> int64;  (** client memory read *)
  he_store : int64 -> int -> int64 -> unit;  (** client memory write *)
}

(** A helper takes the environment and its (integer) arguments, and returns
    an integer result (0 for void helpers).

    The [args] array is borrowed: it is valid only during the call.  The
    host interpreter lends the same array to every call of the same
    arity and overwrites it on the next one, so a helper must copy out
    any argument it wants to keep and must never store the array. *)
type fn = env -> int64 array -> int64

let table : fn array ref = ref (Array.make 0 (fun _ _ -> 0L))
let names : string array ref = ref [||]
let count = ref 0

(* released ids, oldest first: reused before the table grows, so the
   number of ids in use stays bounded by the live sessions' helpers
   (translations encode an id in 16 bits) *)
let free : int Queue.t = Queue.create ()

(** Register a helper; returns a [callee] for use in [CCall]/[Dirty].
    [cost] is the cycle cost charged per call by the host model (on top of
    the fixed call/save-restore overhead). *)
let register ?(fx_reads = []) ?(fx_writes = []) ~name ~cost (f : fn) : Ir.callee =
  let id =
    match Queue.take_opt free with
    | Some id -> id
    | None ->
        incr count;
        !count - 1
  in
  if id >= Array.length !table then begin
    let nt = Array.make (max 16 (2 * id)) (fun _ _ -> 0L) in
    Array.blit !table 0 nt 0 (Array.length !table);
    table := nt;
    let nn = Array.make (Array.length nt) "" in
    Array.blit !names 0 nn 0 (Array.length !names);
    names := nn
  end;
  !table.(id) <- f;
  !names.(id) <- name;
  {
    Ir.c_name = name;
    c_id = id;
    c_cost = cost;
    c_fx_reads = fx_reads;
    c_fx_writes = fx_writes;
  }

(** Release a helper: its closure (and whatever state it captured) is
    dropped, and a call of the id raises [Invalid_argument] until the id
    is reused, so a stale translation fails loudly instead of running a
    dead session's code.  Released ids are reused oldest first, so
    release a callee at most once. *)
let release (c : Ir.callee) : unit =
  let id = c.Ir.c_id in
  if id >= 0 && id < !count then begin
    !table.(id) <-
      (fun _ _ ->
        invalid_arg (Printf.sprintf "Helpers.call: helper %d (%s) was released" id
                       c.Ir.c_name));
    Queue.add id free
  end

(** Invoke helper [id]. Raises [Invalid_argument] for an unknown id. *)
let call (id : int) (env : env) (args : int64 array) : int64 =
  if id < 0 || id >= !count then invalid_arg "Helpers.call: unknown helper id";
  !table.(id) env args

let name id = if id >= 0 && id < !count then !names.(id) else "?"
