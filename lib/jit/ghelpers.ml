(** Guest helper functions referenced by generated IR.

    These are the analogues of VEX's [x86g_calculate_condition] /
    [x86g_calculate_eflags_all] and of the dirty helpers that emulate
    unrepresentable instructions ([cpuid] on x86; [sysinfo] here).  The
    disassembler bakes their callees into IR, so every helper table
    starts with them at the fixed ids 0-2 ({!table}); their semantics are
    shared with the guest reference interpreter through {!Guest.Flags}
    and {!Guest.Interp.sysinfo_result}, which is what keeps native and
    translated execution bit-identical. *)

open Guest

let callee ?(fx_reads = []) ?(fx_writes = []) id name cost : Vex_ir.Ir.callee =
  {
    c_name = name;
    c_id = id;
    c_cost = cost;
    c_fx_reads = fx_reads;
    c_fx_writes = fx_writes;
  }

(** [calculate_condition(cond, cc_op, dep1, dep2, ndep)] -> 0/1 (I32). *)
let calculate_condition = callee 0 "vg32_calculate_condition" 6

(** [calculate_eflags(cc_op, dep1, dep2, ndep)] -> 4-bit flags word. *)
let calculate_eflags = callee 1 "vg32_calculate_eflags" 5

(** Dirty helper emulating the [sysinfo] instruction.  Reads guest r0,
    writes r0 and r1 — visible to tools via the fx annotations, exactly
    the mechanism §3.6 describes for [cpuid]. *)
let sysinfo =
  callee 2 "vg32_dirtyhelper_sysinfo" 10
    ~fx_reads:[ (Arch.off_reg 0, 4) ]
    ~fx_writes:[ (Arch.off_reg 0, 4); (Arch.off_reg 1, 4) ]

(** A fresh helper table holding the guest helpers. *)
let table () : Vex_ir.Helpers.table =
  Vex_ir.Helpers.create
    [
      ( calculate_condition,
        fun _env args ->
          Flags.calculate_condition
            ~cond:(Int64.to_int args.(0))
            ~op:args.(1) ~dep1:args.(2) ~dep2:args.(3) ~ndep:args.(4) );
      ( calculate_eflags,
        fun _env args ->
          Flags.calculate ~op:args.(0) ~dep1:args.(1) ~dep2:args.(2)
            ~ndep:args.(3) );
      ( sysinfo,
        fun env _args ->
          let leaf = env.he_get_guest (Arch.off_reg 0) 4 in
          let r0, r1 = Interp.sysinfo_result leaf in
          env.he_put_guest (Arch.off_reg 0) 4 r0;
          env.he_put_guest (Arch.off_reg 1) 4 r1;
          0L );
    ]
