(** VG32 reference interpreter — the simulated "native CPU".

    Running a program directly on this interpreter is the baseline
    ("Nat." column of Table 2); running it under the Valgrind core means
    JIT-compiling it to VH64 host code instead, and the ratio of the two
    cycle counters is the slow-down factor.

    The interpreter maintains the flags thunk lazily with exactly the same
    {!Flags} functions the JIT's helpers use, so the two executions agree
    bit-for-bit on every architectural value. *)

open Arch
open Support

type state = {
  regs : int64 array;  (** r0..r7; 32-bit values zero-extended *)
  mutable eip : int64;
  mutable cc_op : int64;
  mutable cc_dep1 : int64;
  mutable cc_dep2 : int64;
  mutable cc_ndep : int64;
  fregs : float array;  (** f0..f3 *)
  vregs : V128.t array;  (** v0..v3 *)
  mem : Aspace.t;
  mutable cycles : int64;  (** simulated native cycles *)
  mutable insns_retired : int64;
}

(** Raised when the guest executes an undefined opcode. *)
exception Sigill of int64

(** Raised on integer division by zero. *)
exception Sigfpe of int64

let create mem =
  {
    regs = Array.make n_regs 0L;
    eip = 0L;
    cc_op = Flags.cc_op_copy;
    cc_dep1 = 0L;
    cc_dep2 = 0L;
    cc_ndep = 0L;
    fregs = Array.make n_fregs 0.0;
    vregs = Array.make n_vregs V128.zero;
    mem;
    cycles = 0L;
    insns_retired = 0L;
  }

let get_reg st r = st.regs.(r)
let set_reg st r v = st.regs.(r) <- Bits.trunc32 v

(** Current flags word, materialised from the thunk. *)
let flags st =
  Flags.calculate ~op:st.cc_op ~dep1:st.cc_dep1 ~dep2:st.cc_dep2
    ~ndep:st.cc_ndep

let set_thunk st ~op ~dep1 ~dep2 ~ndep =
  st.cc_op <- op;
  st.cc_dep1 <- dep1;
  st.cc_dep2 <- dep2;
  st.cc_ndep <- ndep

(** [sysinfo] semantics (shared with the JIT's dirty helper): leaf in r0,
    results in (r0, r1). *)
let sysinfo_result (leaf : int64) : int64 * int64 =
  match Int64.to_int (Bits.trunc32 leaf) with
  | 0 -> (0x56473332L, 1L) (* "VG32", version 1 *)
  | 1 -> (0x7L, 0L) (* feature bits: int|fp|simd *)
  | _ -> (0L, 0L)

(** Effective address of a memory operand. *)
let ea st (m : mem) : int64 =
  let base = match m.base with Some b -> st.regs.(b) | None -> 0L in
  let idx =
    match m.index with
    | Some (i, s) -> Int64.mul st.regs.(i) (Int64.of_int s)
    | None -> 0L
  in
  Bits.trunc32 (Int64.add (Int64.add base idx) m.disp)

(* Cycle cost of one instruction, on the simple in-order native model. *)
let cost (i : insn) : int =
  match i with
  | Alu ((MUL | DIVS | DIVU), _, _) | Alui ((MUL | DIVS | DIVU), _, _) -> (
      match i with
      | Alu (MUL, _, _) | Alui (MUL, _, _) -> 3
      | _ -> 20)
  | Falu (FDIV, _, _) -> 16
  | Fun1 (FSQRT, _, _) -> 16
  | Falu _ | Fun1 _ | Fcmp _ | Fitod _ | Fdtoi _ -> 3
  | Ld _ | St _ | Fld _ | Fst _ | Vld _ | Vst _ | Push _ | Pushi _ | Pop _ -> 2
  | Call _ | Calli _ | Ret -> 2
  | Sysinfo -> 10
  | _ -> 1

type handlers = {
  on_syscall : state -> unit;
      (** invoked with [eip] already advanced past the [syscall] insn *)
  on_clreq : state -> unit;
      (** client request; default native behaviour is r0 := 0 *)
}

(* Decode cache, invalidated on stores into cached pages (self-modifying
   code works natively too, which the SMC tests rely on). *)
type cached_interp = {
  st : state;
  dcache : (int64, insn * int) Hashtbl.t;
  cached_pages : (int, int64 list ref) Hashtbl.t;
}

let with_cache st =
  let t = { st; dcache = Hashtbl.create 4096; cached_pages = Hashtbl.create 64 } in
  Aspace.add_store_watch st.mem (fun addr _size ->
      let pi = Aspace.page_index addr in
      match Hashtbl.find_opt t.cached_pages pi with
      | None -> ()
      | Some addrs ->
          List.iter (Hashtbl.remove t.dcache) !addrs;
          Hashtbl.remove t.cached_pages pi);
  t

let decode_at (t : cached_interp) (addr : int64) : insn * int =
  match Hashtbl.find_opt t.dcache addr with
  | Some r -> r
  | None ->
      let cache a r =
        Hashtbl.replace t.dcache a r;
        let pi = Aspace.page_index a in
        match Hashtbl.find_opt t.cached_pages pi with
        | Some l -> l := a :: !l
        | None -> Hashtbl.replace t.cached_pages pi (ref [ a ])
      in
      (* Fill the cache a straight-line run at a time through the shared
         block iterator (the same loop the Vgscan static scanner walks),
         so the interpreter and the scanner agree on where a block ends.
         A fault on a later instruction just shortens the run; the first
         instruction re-decodes below so the fault surfaces exactly as a
         plain decode would raise it. *)
      (try
         ignore
           (Decode.iter_block ~limit:64
              ~stop_before:(Hashtbl.mem t.dcache)
              (Aspace.fetch_u8 t.st.mem) addr (fun a insn len ->
                cache a (insn, len)))
       with Decode.Truncated_at _ -> ());
      (match Hashtbl.find_opt t.dcache addr with
      | Some r -> r
      | None -> Decode.decode (Aspace.fetch_u8 t.st.mem) addr)

let alu_eval op (a : int64) (b : int64) ~at : int64 =
  match op with
  | ADD -> Bits.trunc32 (Int64.add a b)
  | SUB -> Bits.trunc32 (Int64.sub a b)
  | AND -> Int64.logand a b
  | OR -> Int64.logor a b
  | XOR -> Int64.logxor a b
  | SHL -> Bits.shl32 a b
  | SHR -> Bits.shr32 a b
  | SAR -> Bits.sar32 a b
  | MUL -> Bits.trunc32 (Int64.mul a b)
  | DIVS ->
      let d = Bits.sext32 b in
      if d = 0L then raise (Sigfpe at)
      else Bits.trunc32 (Int64.div (Bits.sext32 a) d)
  | DIVU -> if b = 0L then raise (Sigfpe at) else Bits.trunc32 (Int64.unsigned_div a b)

(* Set the flags thunk after an ALU op. *)
let alu_flags st op (a : int64) (b : int64) (res : int64) =
  let cc = Flags.cc_op_of_alu op in
  if cc = Flags.cc_op_add || cc = Flags.cc_op_sub then
    set_thunk st ~op:cc ~dep1:a ~dep2:b ~ndep:0L
  else if cc = Flags.cc_op_mul then
    let hi =
      Bits.trunc32 (Int64.shift_right (Int64.mul (Bits.sext32 a) (Bits.sext32 b)) 32)
    in
    set_thunk st ~op:cc ~dep1:res ~dep2:hi ~ndep:0L
  else set_thunk st ~op:cc ~dep1:res ~dep2:(Bits.trunc32 b) ~ndep:0L

let push st v =
  let sp = Bits.trunc32 (Int64.sub st.regs.(reg_sp) 4L) in
  st.regs.(reg_sp) <- sp;
  Aspace.write st.mem sp 4 v

let pop st =
  let sp = st.regs.(reg_sp) in
  let v = Aspace.read st.mem sp 4 in
  st.regs.(reg_sp) <- Bits.trunc32 (Int64.add sp 4L);
  v

let step_inner (t : cached_interp) (h : handlers) : unit =
  let st = t.st in
  let at = st.eip in
  let insn, len = decode_at t at in
  st.cycles <- Int64.add st.cycles (Int64.of_int (cost insn));
  st.insns_retired <- Int64.add st.insns_retired 1L;
  let next = Bits.trunc32 (Int64.add at (Int64.of_int len)) in
  st.eip <- next;
  match insn with
  | Nop -> ()
  | Mov (d, s) -> st.regs.(d) <- st.regs.(s)
  | Movi (d, imm) -> set_reg st d imm
  | Lea (d, m) -> st.regs.(d) <- ea st m
  | Ld (w, sx, d, m) ->
      let a = ea st m in
      let size = match w with W1 -> 1 | W2 -> 2 | W4 -> 4 in
      let v = Aspace.read st.mem a size in
      let v =
        match (w, sx) with
        | W1, Sx -> Bits.trunc32 (Bits.sext8 v)
        | W2, Sx -> Bits.trunc32 (Bits.sext16 v)
        | _ -> v
      in
      st.regs.(d) <- v
  | St (w, m, s) ->
      let a = ea st m in
      let size = match w with W1 -> 1 | W2 -> 2 | W4 -> 4 in
      Aspace.write st.mem a size st.regs.(s)
  | Alu (op, d, s) ->
      let a = st.regs.(d) and b = st.regs.(s) in
      let res = alu_eval op a b ~at in
      st.regs.(d) <- res;
      alu_flags st op a b res
  | Alui (op, d, imm) ->
      let a = st.regs.(d) and b = Bits.trunc32 imm in
      let res = alu_eval op a b ~at in
      st.regs.(d) <- res;
      alu_flags st op a b res
  | Cmp (x, y) ->
      set_thunk st ~op:Flags.cc_op_sub ~dep1:st.regs.(x) ~dep2:st.regs.(y) ~ndep:0L
  | Cmpi (x, imm) ->
      set_thunk st ~op:Flags.cc_op_sub ~dep1:st.regs.(x) ~dep2:(Bits.trunc32 imm)
        ~ndep:0L
  | Test (x, y) ->
      set_thunk st ~op:Flags.cc_op_logic
        ~dep1:(Int64.logand st.regs.(x) st.regs.(y))
        ~dep2:0L ~ndep:0L
  | Inc d ->
      let old_flags = flags st in
      let res = Bits.trunc32 (Int64.add st.regs.(d) 1L) in
      st.regs.(d) <- res;
      set_thunk st ~op:Flags.cc_op_inc ~dep1:res ~dep2:0L ~ndep:old_flags
  | Dec d ->
      let old_flags = flags st in
      let res = Bits.trunc32 (Int64.sub st.regs.(d) 1L) in
      st.regs.(d) <- res;
      set_thunk st ~op:Flags.cc_op_dec ~dep1:res ~dep2:0L ~ndep:old_flags
  | Neg d ->
      let v = st.regs.(d) in
      let res = Bits.trunc32 (Int64.neg v) in
      st.regs.(d) <- res;
      set_thunk st ~op:Flags.cc_op_sub ~dep1:0L ~dep2:v ~ndep:0L
  | Not d -> st.regs.(d) <- Bits.trunc32 (Int64.lognot st.regs.(d))
  | Setcc (c, d) ->
      st.regs.(d) <- (if Flags.cond_holds c (flags st) then 1L else 0L)
  | Jcc (c, target) -> if Flags.cond_holds c (flags st) then st.eip <- target
  | Jmp target -> st.eip <- target
  | Jmpi s -> st.eip <- st.regs.(s)
  | Call target ->
      push st next;
      st.eip <- target
  | Calli s ->
      push st next;
      st.eip <- st.regs.(s)
  | Ret -> st.eip <- pop st
  | Push s -> push st st.regs.(s)
  | Pushi imm -> push st (Bits.trunc32 imm)
  | Pop d -> st.regs.(d) <- pop st
  | Sysinfo ->
      let r0, r1 = sysinfo_result st.regs.(0) in
      st.regs.(0) <- r0;
      st.regs.(1) <- r1
  | Syscall -> h.on_syscall st
  | Clreq -> h.on_clreq st
  | Fld (d, m) -> st.fregs.(d) <- Bits.float_of_bits (Aspace.read st.mem (ea st m) 8)
  | Fst (m, s) -> Aspace.write st.mem (ea st m) 8 (Bits.bits_of_float st.fregs.(s))
  | Fmovr (d, s) -> st.fregs.(d) <- st.fregs.(s)
  | Fldi (d, x) -> st.fregs.(d) <- x
  | Falu (op, d, s) ->
      let a = st.fregs.(d) and b = st.fregs.(s) in
      st.fregs.(d) <-
        (match op with
        | FADD -> a +. b
        | FSUB -> a -. b
        | FMUL -> a *. b
        | FDIV -> a /. b
        | FMIN -> Float.min a b
        | FMAX -> Float.max a b)
  | Fun1 (op, d, s) ->
      let a = st.fregs.(s) in
      st.fregs.(d) <-
        (match op with
        | FSQRT -> Float.sqrt a
        | FNEG -> -.a
        | FABS -> Float.abs a)
  | Fcmp (x, y) ->
      set_thunk st ~op:Flags.cc_op_fcmp
        ~dep1:(Flags.fcmp_code st.fregs.(x) st.fregs.(y))
        ~dep2:0L ~ndep:0L
  | Fitod (d, s) -> st.fregs.(d) <- Int64.to_float (Bits.sext32 st.regs.(s))
  | Fdtoi (d, s) ->
      st.regs.(d) <- Bits.trunc32 (Int64.of_float (Float.trunc st.fregs.(s)))
  | Vld (d, m) ->
      let a = ea st m in
      st.vregs.(d) <-
        V128.make ~lo:(Aspace.read st.mem a 8)
          ~hi:(Aspace.read st.mem (Int64.add a 8L) 8)
  | Vst (m, s) ->
      let a = ea st m in
      Aspace.write st.mem a 8 (V128.lo st.vregs.(s));
      Aspace.write st.mem (Int64.add a 8L) 8 (V128.hi st.vregs.(s))
  | Vmovr (d, s) -> st.vregs.(d) <- st.vregs.(s)
  | Valu (op, d, s) ->
      let a = st.vregs.(d) and b = st.vregs.(s) in
      st.vregs.(d) <-
        (match op with
        | VAND -> V128.logand a b
        | VOR -> V128.logor a b
        | VXOR -> V128.logxor a b
        | VADD32 -> V128.add32x4 a b
        | VSUB32 -> V128.sub32x4 a b
        | VCMPEQ32 -> V128.cmpeq32x4 a b
        | VADD8 -> V128.add8x16 a b
        | VSUB8 -> V128.sub8x16 a b)
  | Vsplat (d, s) -> st.vregs.(d) <- V128.splat32 st.regs.(s)
  | Vextr (d, s, lane) -> st.regs.(d) <- V128.get_lane32 st.vregs.(s) lane
  | Ud -> raise (Sigill at)

(** Execute exactly one instruction.  [eip] is advanced appropriately;
    syscall/clreq handlers see the post-instruction [eip].  If the
    instruction faults ({!Aspace.Fault}, {!Sigill}, {!Sigfpe}), [eip] is
    left at the faulting instruction so a signal handler sees the right
    PC. *)
let step (t : cached_interp) (h : handlers) : unit =
  let st = t.st in
  let at = st.eip in
  try step_inner t h
  with (Aspace.Fault _ | Sigill _ | Sigfpe _) as e ->
    st.eip <- at;
    raise e

(* ------------------------------------------------------------------ *)
(* One-shot external-state stepping                                     *)
(* ------------------------------------------------------------------ *)

(** How a single externally-backed step ended. *)
type external_outcome =
  | X_next  (** ordinary instruction; eip advanced *)
  | X_syscall  (** a [syscall] insn: the caller must run the kernel *)
  | X_clreq  (** a [clreq] insn: the caller must handle the request *)

(** Execute exactly one guest instruction against externally-owned
    architectural state: registers, eip, the flags thunk, float and
    vector registers are loaded through [get] (at the {!Arch} state
    offsets), and written back through [put] after the instruction
    retires.  This is the Valgrind core's last-resort degradation rung —
    when even the IR front end cannot process a block, the core steps
    the current thread's ThreadState one instruction at a time, then
    retries the JIT at the next block boundary.

    Returns [(cost_cycles, outcome)].  On a fault ({!Aspace.Fault},
    {!Sigill}, {!Sigfpe}) nothing is written back, so the external state
    still shows the faulting instruction's PC. *)
let step_external ~(mem : Aspace.t) ~(get : int -> int -> int64)
    ~(put : int -> int -> int64 -> unit) : int * external_outcome =
  let st = create mem in
  for r = 0 to n_regs - 1 do
    st.regs.(r) <- get (off_reg r) 4
  done;
  st.eip <- get off_eip 4;
  st.cc_op <- get off_cc_op 4;
  st.cc_dep1 <- get off_cc_dep1 4;
  st.cc_dep2 <- get off_cc_dep2 4;
  st.cc_ndep <- get off_cc_ndep 4;
  for f = 0 to n_fregs - 1 do
    st.fregs.(f) <- Bits.float_of_bits (get (off_freg f) 8)
  done;
  for v = 0 to n_vregs - 1 do
    st.vregs.(v) <-
      V128.make ~lo:(get (off_vreg v) 8) ~hi:(get (off_vreg v + 8) 8)
  done;
  let outcome = ref X_next in
  let h =
    {
      on_syscall = (fun _ -> outcome := X_syscall);
      on_clreq = (fun _ -> outcome := X_clreq);
    }
  in
  (* a one-shot private decode cache: never reused, no store watch *)
  let t = { st; dcache = Hashtbl.create 1; cached_pages = Hashtbl.create 1 } in
  step t h;
  for r = 0 to n_regs - 1 do
    put (off_reg r) 4 st.regs.(r)
  done;
  put off_eip 4 st.eip;
  put off_cc_op 4 st.cc_op;
  put off_cc_dep1 4 st.cc_dep1;
  put off_cc_dep2 4 st.cc_dep2;
  put off_cc_ndep 4 st.cc_ndep;
  for f = 0 to n_fregs - 1 do
    put (off_freg f) 8 (Bits.bits_of_float st.fregs.(f))
  done;
  for v = 0 to n_vregs - 1 do
    put (off_vreg v) 8 (V128.lo st.vregs.(v));
    put (off_vreg v + 8) 8 (V128.hi st.vregs.(v))
  done;
  (Int64.to_int st.cycles, !outcome)
