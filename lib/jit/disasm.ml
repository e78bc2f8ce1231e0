(** Phase 1 — Disassembly: guest machine code -> (unoptimised) tree IR.

    Each guest instruction is disassembled independently into one or more
    statements that fully update the affected guest registers in the
    ThreadState: registers are pulled with GET, operated on, and written
    back with PUT (paper §3.7 phase 1 and Figure 1).  Condition codes are
    synthesised explicitly as the four thunk PUTs; most are later removed
    by optimisation.

    Superblock-building policy (§3.7): follow instructions until (a) the
    instruction limit (~50) is reached, (b) a conditional branch is hit,
    (c) a branch to an unknown target is hit, or (d) more than three
    unconditional branches to known targets have been chased. *)

open Vex_ir.Ir
module GA = Guest.Arch

let insn_limit = 50
let chase_limit = 3

(* -- expression-building conveniences ------------------------------- *)

let get_reg r = Get (GA.off_reg r, I32)
let get_freg f = Get (GA.off_freg f, F64)
let get_vreg v = Get (GA.off_vreg v, V128)

let wr b e =
  let t = new_tmp b (type_of b e) in
  add_stmt b (WrTmp (t, e));
  RdTmp t

let put_reg b r e = add_stmt b (Put (GA.off_reg r, e))
let put_freg b f e = add_stmt b (Put (GA.off_freg f, e))
let put_vreg b v e = add_stmt b (Put (GA.off_vreg v, e))

(* Set the condition-code thunk. *)
let put_thunk b ~op ~dep1 ~dep2 ~ndep =
  add_stmt b (Put (GA.off_cc_op, i32 op));
  add_stmt b (Put (GA.off_cc_dep1, dep1));
  add_stmt b (Put (GA.off_cc_dep2, dep2));
  add_stmt b (Put (GA.off_cc_ndep, ndep))

(* Call the lazy flags calculators on the current thunk. *)
let thunk_args = [ Get (GA.off_cc_op, I32); Get (GA.off_cc_dep1, I32);
                   Get (GA.off_cc_dep2, I32); Get (GA.off_cc_ndep, I32) ]

let calc_condition (c : GA.cond) =
  CCall (Ghelpers.calculate_condition, I32,
         i32 (Int64.of_int (Guest.Flags.cond_to_int c)) :: thunk_args)

let calc_eflags = CCall (Ghelpers.calculate_eflags, I32, thunk_args)

(** Effective-address expression of a memory operand (the CISC addressing
    mode becomes an explicit IR tree, Figure 1 statement 2). *)
let ea (m : GA.mem) : expr =
  let base = Option.map get_reg m.base in
  let index =
    Option.map
      (fun (r, scale) ->
        if scale = 1 then get_reg r
        else
          Binop (Shl32, get_reg r,
                 i8 (match scale with 2 -> 1 | 4 -> 2 | _ -> 3)))
      m.index
  in
  let disp = Support.Bits.trunc32 m.disp in
  let parts = List.filter_map Fun.id [ base; index ] in
  match parts with
  | [] -> i32 disp
  | [ e ] -> if disp = 0L then e else Binop (Add32, e, i32 disp)
  | [ e1; e2 ] ->
      let s = Binop (Add32, e1, e2) in
      if disp = 0L then s else Binop (Add32, s, i32 disp)
  | _ -> assert false

let alu_binop : GA.alu_op -> binop = function
  | ADD -> Add32 | SUB -> Sub32 | AND -> And32 | OR -> Or32 | XOR -> Xor32
  | SHL -> Shl32 | SHR -> Shr32 | SAR -> Sar32 | MUL -> Mul32
  | DIVS -> DivS32 | DIVU -> DivU32

(* Disassemble one ALU operation (register or immediate source). *)
let dis_alu b (op : GA.alu_op) (rd : GA.reg) (src : expr) =
  let a = wr b (get_reg rd) in
  let s = wr b src in
  let s' =
    match op with
    | SHL | SHR | SAR -> Unop (T32to8, s) (* shift amount is I8 in IR *)
    | _ -> s
  in
  let res = wr b (Binop (alu_binop op, a, s')) in
  put_reg b rd res;
  let cc = Guest.Flags.cc_op_of_alu op in
  if cc = Guest.Flags.cc_op_add || cc = Guest.Flags.cc_op_sub then
    put_thunk b ~op:cc ~dep1:a ~dep2:s ~ndep:(i32 0L)
  else if cc = Guest.Flags.cc_op_mul then begin
    let hi = wr b (Binop (MulHiS32, a, s)) in
    put_thunk b ~op:cc ~dep1:res ~dep2:hi ~ndep:(i32 0L)
  end
  else put_thunk b ~op:cc ~dep1:res ~dep2:s ~ndep:(i32 0L)

let load_widened b (w : GA.width) (sx : GA.signedness) (addr : expr) : expr =
  match (w, sx) with
  | GA.W4, _ -> wr b (Load (I32, addr))
  | GA.W1, GA.Zx -> wr b (Unop (U8to32, Load (I8, addr)))
  | GA.W1, GA.Sx -> wr b (Unop (S8to32, Load (I8, addr)))
  | GA.W2, GA.Zx -> wr b (Unop (U16to32, Load (I16, addr)))
  | GA.W2, GA.Sx -> wr b (Unop (S16to32, Load (I16, addr)))

(* push/pop building blocks (used by push/pop/call/ret) *)
let emit_push b (value : expr) =
  let sp = wr b (Binop (Sub32, Get (GA.off_sp, I32), i32 4L)) in
  add_stmt b (Put (GA.off_sp, sp));
  add_stmt b (Store (sp, value))

let emit_pop b : expr =
  let sp = wr b (Get (GA.off_sp, I32)) in
  let v = wr b (Load (I32, sp)) in
  add_stmt b (Put (GA.off_sp, Binop (Add32, sp, i32 4L)));
  v

(** Why instruction disassembly ended the superblock. *)
type stop =
  | Fallthrough  (** keep going *)
  | Chase of int64  (** unconditional jump to known target *)
  | End of expr * jumpkind  (** block is finished *)

(** Disassemble instruction [insn] at [addr] (already fetched; [len]
    bytes) into [b].  Returns how to continue. *)
let dis_insn b (insn : GA.insn) ~(addr : int64) ~(next : int64) : stop =
  let open GA in
  match insn with
  | Nop -> Fallthrough
  | Mov (d, s) ->
      put_reg b d (wr b (get_reg s));
      Fallthrough
  | Movi (d, imm) ->
      put_reg b d (i32 imm);
      Fallthrough
  | Lea (d, m) ->
      put_reg b d (wr b (ea m));
      Fallthrough
  | Ld (w, sx, d, m) ->
      let a = wr b (ea m) in
      put_reg b d (load_widened b w sx a);
      Fallthrough
  | St (w, m, s) ->
      let a = wr b (ea m) in
      let v = wr b (get_reg s) in
      let v' =
        match w with
        | W1 -> wr b (Unop (T32to8, v))
        | W2 -> wr b (Unop (T32to16, v))
        | W4 -> v
      in
      add_stmt b (Store (a, v'));
      Fallthrough
  | Alu (op, d, s) ->
      dis_alu b op d (get_reg s);
      Fallthrough
  | Alui (op, d, imm) ->
      dis_alu b op d (i32 imm);
      Fallthrough
  | Cmp (x, y) ->
      let a = wr b (get_reg x) and c = wr b (get_reg y) in
      put_thunk b ~op:Guest.Flags.cc_op_sub ~dep1:a ~dep2:c ~ndep:(i32 0L);
      Fallthrough
  | Cmpi (x, imm) ->
      let a = wr b (get_reg x) in
      put_thunk b ~op:Guest.Flags.cc_op_sub ~dep1:a ~dep2:(i32 imm)
        ~ndep:(i32 0L);
      Fallthrough
  | Test (x, y) ->
      let a = wr b (Binop (And32, get_reg x, get_reg y)) in
      put_thunk b ~op:Guest.Flags.cc_op_logic ~dep1:a ~dep2:(i32 0L)
        ~ndep:(i32 0L);
      Fallthrough
  | Inc d ->
      let old_flags = wr b calc_eflags in
      let res = wr b (Binop (Add32, get_reg d, i32 1L)) in
      put_reg b d res;
      put_thunk b ~op:Guest.Flags.cc_op_inc ~dep1:res ~dep2:(i32 0L)
        ~ndep:old_flags;
      Fallthrough
  | Dec d ->
      let old_flags = wr b calc_eflags in
      let res = wr b (Binop (Sub32, get_reg d, i32 1L)) in
      put_reg b d res;
      put_thunk b ~op:Guest.Flags.cc_op_dec ~dep1:res ~dep2:(i32 0L)
        ~ndep:old_flags;
      Fallthrough
  | Neg d ->
      let v = wr b (get_reg d) in
      let res = wr b (Unop (Neg32, v)) in
      put_reg b d res;
      put_thunk b ~op:Guest.Flags.cc_op_sub ~dep1:(i32 0L) ~dep2:v
        ~ndep:(i32 0L);
      Fallthrough
  | Not d ->
      put_reg b d (wr b (Unop (Not32, get_reg d)));
      Fallthrough
  | Setcc (c, d) ->
      put_reg b d (wr b (calc_condition c));
      Fallthrough
  | Jcc (c, target) ->
      let cnd = wr b (calc_condition c) in
      let guard = wr b (Unop (CmpNEZ32, cnd)) in
      add_stmt b (Exit (guard, Jk_boring, target));
      End (i32 next, Jk_boring)
  | Jmp target -> Chase target
  | Jmpi s -> End (wr b (get_reg s), Jk_boring)
  | Call target ->
      emit_push b (i32 next);
      End (i32 target, Jk_call)
  | Calli s ->
      let dest = wr b (get_reg s) in
      emit_push b (i32 next);
      End (dest, Jk_call)
  | Ret -> End (emit_pop b, Jk_ret)
  | Push s ->
      (* read the value before moving sp, as guest semantics require *)
      let v = wr b (get_reg s) in
      emit_push b v;
      Fallthrough
  | Pushi imm ->
      emit_push b (i32 imm);
      Fallthrough
  | Pop d ->
      put_reg b d (emit_pop b);
      Fallthrough
  | Sysinfo ->
      add_stmt b (dirty Ghelpers.sysinfo []);
      Fallthrough
  | Syscall ->
      add_stmt b (Put (GA.off_eip, i32 next));
      End (i32 next, Jk_syscall)
  | Clreq ->
      add_stmt b (Put (GA.off_eip, i32 next));
      End (i32 next, Jk_clientreq)
  | Fld (d, m) ->
      put_freg b d (wr b (Load (F64, wr b (ea m))));
      Fallthrough
  | Fst (m, s) ->
      let a = wr b (ea m) in
      add_stmt b (Store (a, wr b (get_freg s)));
      Fallthrough
  | Fmovr (d, s) ->
      put_freg b d (wr b (get_freg s));
      Fallthrough
  | Fldi (d, x) ->
      put_freg b d (Const (CF64 x));
      Fallthrough
  | Falu (op, d, s) ->
      let a = wr b (get_freg d) and c = wr b (get_freg s) in
      let bop =
        match op with
        | FADD -> AddF64 | FSUB -> SubF64 | FMUL -> MulF64 | FDIV -> DivF64
        | FMIN -> MinF64 | FMAX -> MaxF64
      in
      put_freg b d (wr b (Binop (bop, a, c)));
      Fallthrough
  | Fun1 (op, d, s) ->
      let a = wr b (get_freg s) in
      let uop = match op with FSQRT -> SqrtF64 | FNEG -> NegF64 | FABS -> AbsF64 in
      put_freg b d (wr b (Unop (uop, a)));
      Fallthrough
  | Fcmp (x, y) ->
      let a = wr b (get_freg x) and c = wr b (get_freg y) in
      (* 0 = eq, 1 = lt, 2 = gt, 3 = unordered; NaN detected via x <> x *)
      let ordered_code =
        ITE (Binop (CmpEQF64, a, c), i32 0L,
             ITE (Binop (CmpLTF64, a, c), i32 1L, i32 2L))
      in
      let code =
        wr b
          (ITE (Binop (CmpEQF64, a, a),
                ITE (Binop (CmpEQF64, c, c), ordered_code, i32 3L),
                i32 3L))
      in
      put_thunk b ~op:Guest.Flags.cc_op_fcmp ~dep1:code ~dep2:(i32 0L)
        ~ndep:(i32 0L);
      Fallthrough
  | Fitod (d, s) ->
      put_freg b d (wr b (Unop (I32StoF64, get_reg s)));
      Fallthrough
  | Fdtoi (d, s) ->
      put_reg b d (wr b (Unop (F64toI32S, get_freg s)));
      Fallthrough
  | Vld (d, m) ->
      put_vreg b d (wr b (Load (V128, wr b (ea m))));
      Fallthrough
  | Vst (m, s) ->
      let a = wr b (ea m) in
      add_stmt b (Store (a, wr b (get_vreg s)));
      Fallthrough
  | Vmovr (d, s) ->
      put_vreg b d (wr b (get_vreg s));
      Fallthrough
  | Valu (op, d, s) ->
      let a = wr b (get_vreg d) and c = wr b (get_vreg s) in
      let bop =
        match op with
        | VAND -> AndV128 | VOR -> OrV128 | VXOR -> XorV128
        | VADD32 -> Add32x4 | VSUB32 -> Sub32x4 | VCMPEQ32 -> CmpEQ32x4
        | VADD8 -> Add8x16 | VSUB8 -> Sub8x16
      in
      put_vreg b d (wr b (Binop (bop, a, c)));
      Fallthrough
  | Vsplat (d, s) ->
      put_vreg b d (wr b (Unop (Dup32x4, get_reg s)));
      Fallthrough
  | Vextr (d, s, lane) ->
      let half =
        if lane < 2 then Unop (V128to64, get_vreg s)
        else Unop (V128HIto64, get_vreg s)
      in
      let h = wr b half in
      let shifted = if lane land 1 = 0 then h else Binop (Shr64, h, i8 32) in
      put_reg b d (wr b (Unop (T64to32, shifted)));
      Fallthrough
  | Ud ->
      (* keep control: exit to the scheduler, which delivers SIGILL *)
      add_stmt b (Put (GA.off_eip, i32 addr));
      End (i32 addr, Jk_sigill)

(** Statistics about a disassembled superblock. *)
type stats = { guest_insns : int; guest_bytes : int }

(** Disassemble a superblock starting at [pc], fetching through
    [fetch].  Every instruction gets an IMark and an up-front PUT of the
    guest program counter (removed later when provably redundant —
    paper's phase-2 example). *)
let superblock ~(fetch : int64 -> int) (pc : int64) : block * stats =
  let b = new_block () in
  let n_insns = ref 0 in
  let n_bytes = ref 0 in
  let chased = ref 0 in
  let rec go (addr : int64) =
    if !n_insns >= insn_limit then begin
      b.next <- i32 addr;
      b.jumpkind <- Jk_boring
    end
    else begin
      let insn, len =
        (* Unmapped or non-executable code must not silently decode (the
           old behaviour read zeroes -> Ud -> SIGILL, where native
           execution faults with SIGSEGV).  An unfetchable first
           instruction means the whole translation request is invalid:
           raise [Truncated] so the core delivers SIGSEGV.  Running into
           unfetchable memory mid-block just ends the block before it —
           the fault then surfaces (correctly attributed) when execution
           actually reaches that address. *)
        try Guest.Decode.decode fetch addr
        with Aspace.Fault _ ->
          if !n_insns = 0 then raise Guest.Decode.Truncated
          else begin
            b.next <- i32 addr;
            b.jumpkind <- Jk_boring;
            raise Exit
          end
      in
      incr n_insns;
      n_bytes := !n_bytes + len;
      add_stmt b (IMark (addr, len));
      add_stmt b (Put (GA.off_eip, i32 addr));
      let next = Support.Bits.trunc32 (Int64.add addr (Int64.of_int len)) in
      match dis_insn b insn ~addr ~next with
      | Fallthrough -> go next
      | Chase target ->
          if !chased >= chase_limit then begin
            b.next <- i32 target;
            b.jumpkind <- Jk_boring
          end
          else begin
            incr chased;
            go target
          end
      | End (next_e, jk) ->
          b.next <- next_e;
          b.jumpkind <- jk
    end
  in
  (try go pc with Exit -> () (* block ended at unfetchable memory *));
  (b, { guest_insns = !n_insns; guest_bytes = !n_bytes })
