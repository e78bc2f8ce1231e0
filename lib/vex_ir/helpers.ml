(** Helper functions callable from IR, in a table each session owns.

    In the paper these are C functions inside Valgrind or the tool (e.g.
    [helperc_LOADV32le], [helperc_value_check4_fail], the x86
    condition-code calculators).  Here they are OCaml closures; each gets an
    integer id in its session's table that the JIT bakes into generated
    host [CALL] instructions, and a declared cycle cost used by the host
    cost model (calling out of generated code is what makes "C call"
    analysis code slower than inline analysis code — ICntC vs ICntI in
    Table 2).  Every table starts with the guest helpers at fixed ids
    ({!Jit.Ghelpers.table}), since the disassembler bakes those callees
    into IR. *)

type env = {
  he_get_guest : int -> int -> int64;
      (** [he_get_guest off size] reads [size] bytes of the current
          thread's ThreadState at byte offset [off], little-endian. *)
  he_put_guest : int -> int -> int64 -> unit;
  he_load : int64 -> int -> int64;  (** client memory read *)
  he_store : int64 -> int -> int64 -> unit;  (** client memory write *)
  he_table : table;  (** the helpers that calls made under [env] reach *)
}

(** A helper takes the environment and its (integer) arguments, and returns
    an integer result (0 for void helpers).

    The [args] array is borrowed: it is valid only during the call.  The
    host interpreter lends the same array to every call of the same
    arity and overwrites it on the next one, so a helper must copy out
    any argument it wants to keep and must never store the array. *)
and fn = env -> int64 array -> int64

(** Helper [id]'s closure and name sit at index [id]. *)
and table = { mutable fns : fn array; mutable names : string array }

(** A table holding [fixed], each callee at its id, which must be its
    position in the list. *)
let create (fixed : (Ir.callee * fn) list) : table =
  List.iteri
    (fun i ((c : Ir.callee), _) ->
      if c.c_id <> i then invalid_arg "Helpers.create: callee id out of place")
    fixed;
  {
    fns = Array.of_list (List.map snd fixed);
    names = Array.of_list (List.map (fun ((c : Ir.callee), _) -> c.c_name) fixed);
  }

(** Register a helper in [t]; returns a [callee] for use in [CCall]/[Dirty].
    [cost] is the cycle cost charged per call by the host model (on top of
    the fixed call/save-restore overhead). *)
let register (t : table) ?(fx_reads = []) ?(fx_writes = []) ~name ~cost
    (f : fn) : Ir.callee =
  let id = Array.length t.fns in
  t.fns <- Array.append t.fns [| f |];
  t.names <- Array.append t.names [| name |];
  {
    Ir.c_name = name;
    c_id = id;
    c_cost = cost;
    c_fx_reads = fx_reads;
    c_fx_writes = fx_writes;
  }

(** Invoke helper [id] of [env]'s table. Raises [Invalid_argument] for an
    unknown id. *)
let call (id : int) (env : env) (args : int64 array) : int64 =
  env.he_table.fns.(id) env args

let name (t : table) id =
  if id >= 0 && id < Array.length t.names then t.names.(id) else "?"
