(** VH64 interpreter — the simulated host CPU that runs translations.

    The dispatcher points [h15] (GSP) at the current ThreadState and runs
    a decoded translation; the translation ends with an exit instruction
    carrying the next guest PC and an exit kind.  Helper [Call]s are
    routed through the helper table of the environment the core passes
    in, which accesses the same simulated address space the guest lives
    in.

    Cycle accounting uses {!Arch.cost}; the dispatcher/scheduler add
    their own costs on top (paper §3.9). *)

open Arch
open Support

(** Raised when translated code divides by zero (guest SIGFPE). *)
exception Host_sigfpe

(** The integer register file is a 128-byte [Bytes.t], [h]{i i} at byte
    offset [8i], little-endian: reading and writing it with
    [Bytes.get/set_int64_le] keeps register values unboxed, where an
    [int64 array] would box every result.  Go through {!get_hreg} and
    {!set_hreg} from outside this module. *)
type cpu = {
  hregs : Bytes.t;  (** h0..h15 *)
  hvregs : V128.t array;  (** hv0..hv7 *)
  mem : Aspace.t;
  mutable cycles : int64;
  mutable insns : int64;
  call_args : int64 array array;
      (** [call_args.(n)] is the argument array lent to every helper
          [Call] of arity [n] (see {!Vex_ir.Helpers.fn}) *)
}

let create mem =
  {
    hregs = Bytes.make (8 * n_hregs) '\000';
    hvregs = Array.make n_hvregs V128.zero;
    mem;
    cycles = 0L;
    insns = 0L;
    call_args = Array.init (n_hregs + 1) (fun n -> Array.make n 0L);
  }

let[@inline] rget r i = Bytes.get_int64_le r (8 * i)
let[@inline] rset r i x = Bytes.set_int64_le r (8 * i) x
let get_hreg (cpu : cpu) i = rget cpu.hregs i
let set_hreg (cpu : cpu) i x = rset cpu.hregs i x

(* The ALU ops that {!alu_eval} leaves to a call. *)
let alu_rare (w : width) (op : alu_op) (a : int64) (b : int64) : int64 =
  let a32 () = Bits.sext32 a and b32 () = Bits.sext32 b in
  match (op, w) with
  | (Add | Sub | And | Or | Xor | CmpEq | CmpNe), _ ->
      invalid_arg "Host.Interp.alu_rare: common op"
  | Shl, W32 -> Bits.shl32 a b
  | Shl, W64 -> Bits.shl64 a b
  | Shr, W32 -> Bits.shr32 a b
  | Shr, W64 -> Bits.shr64 a b
  | Sar, W32 -> Bits.sar32 a b
  | Sar, W64 -> Bits.sar64 a b
  | Mul, W32 -> Bits.trunc32 (Int64.mul a b)
  | Mul, W64 -> Int64.mul a b
  | Mulhs, W32 ->
      Bits.trunc32 (Int64.shift_right (Int64.mul (a32 ()) (b32 ())) 32)
  | Mulhs, W64 ->
      (* high part of signed 64x64; sufficient approximation via floats is
         not acceptable — use the standard 32-bit split *)
      let ah = Int64.shift_right a 32 and al = Bits.trunc32 a in
      let bh = Int64.shift_right b 32 and bl = Bits.trunc32 b in
      let albl = Int64.mul al bl in
      let mid1 = Int64.mul ah bl and mid2 = Int64.mul al bh in
      let carry =
        Int64.shift_right_logical
          (Int64.add (Int64.add (Bits.trunc32 mid1) (Bits.trunc32 mid2))
             (Int64.shift_right_logical albl 32))
          32
      in
      Int64.add
        (Int64.add (Int64.mul ah bh)
           (Int64.add (Int64.shift_right mid1 32) (Int64.shift_right mid2 32)))
        carry
  | Divs, W32 ->
      if Bits.trunc32 b = 0L then raise Host_sigfpe
      else Bits.trunc32 (Int64.div (a32 ()) (b32 ()))
  | Divs, W64 -> if b = 0L then raise Host_sigfpe else Int64.div a b
  | Divu, W32 ->
      if Bits.trunc32 b = 0L then raise Host_sigfpe
      else Bits.trunc32 (Int64.unsigned_div (Bits.trunc32 a) (Bits.trunc32 b))
  | Divu, W64 -> if b = 0L then raise Host_sigfpe else Int64.unsigned_div a b
  | CmpLts, W32 -> Bits.bool64 (Bits.cmp32s a b < 0)
  | CmpLts, W64 -> Bits.bool64 (Int64.compare a b < 0)
  | CmpLes, W32 -> Bits.bool64 (Bits.cmp32s a b <= 0)
  | CmpLes, W64 -> Bits.bool64 (Int64.compare a b <= 0)
  | CmpLtu, W32 -> Bits.bool64 (Bits.cmp32u a b < 0)
  | CmpLtu, W64 -> Bits.bool64 (Int64.unsigned_compare a b < 0)
  | CmpLeu, W32 -> Bits.bool64 (Bits.cmp32u a b <= 0)
  | CmpLeu, W64 -> Bits.bool64 (Int64.unsigned_compare a b <= 0)

(* [a op b] at width [w].  The common ops are written out here without
   local closures, so once inlined into {!run} neither the operands nor
   the result are boxed; the rest go through {!alu_rare}. *)
let[@inline] alu_eval (w : width) (op : alu_op) (a : int64) (b : int64) :
    int64 =
  match (op, w) with
  | Add, W64 -> Int64.add a b
  | Add, W32 -> Int64.logand (Int64.add a b) 0xFFFF_FFFFL
  | Sub, W64 -> Int64.sub a b
  | Sub, W32 -> Int64.logand (Int64.sub a b) 0xFFFF_FFFFL
  | And, W64 -> Int64.logand a b
  | And, W32 -> Int64.logand (Int64.logand a b) 0xFFFF_FFFFL
  | Or, W64 -> Int64.logor a b
  | Or, W32 -> Int64.logand (Int64.logor a b) 0xFFFF_FFFFL
  | Xor, W64 -> Int64.logxor a b
  | Xor, W32 -> Int64.logand (Int64.logxor a b) 0xFFFF_FFFFL
  | CmpEq, W64 -> if a = b then 1L else 0L
  | CmpEq, W32 ->
      if Int64.logand (Int64.logxor a b) 0xFFFF_FFFFL = 0L then 1L else 0L
  | CmpNe, W64 -> if a <> b then 1L else 0L
  | CmpNe, W32 ->
      if Int64.logand (Int64.logxor a b) 0xFFFF_FFFFL <> 0L then 1L else 0L
  | _ -> alu_rare w op a b

let falu_eval op a b =
  let fa = Bits.float_of_bits a and fb = Bits.float_of_bits b in
  match op with
  | FAdd -> Bits.bits_of_float (fa +. fb)
  | FSub -> Bits.bits_of_float (fa -. fb)
  | FMul -> Bits.bits_of_float (fa *. fb)
  | FDiv -> Bits.bits_of_float (fa /. fb)
  | FMin -> Bits.bits_of_float (Float.min fa fb)
  | FMax -> Bits.bits_of_float (Float.max fa fb)
  | FCmpEq -> Bits.bool64 (fa = fb)
  | FCmpLt -> Bits.bool64 (fa < fb)
  | FCmpLe -> Bits.bool64 (fa <= fb)

let fun1_eval op a =
  match op with
  | FSqrt -> Bits.bits_of_float (Float.sqrt (Bits.float_of_bits a))
  | FNeg -> Bits.bits_of_float (-.Bits.float_of_bits a)
  | FAbs -> Bits.bits_of_float (Float.abs (Bits.float_of_bits a))
  | I32StoF64 -> Bits.bits_of_float (Int64.to_float (Bits.sext32 a))
  | F64toI32S ->
      Bits.trunc32 (Int64.of_float (Float.trunc (Bits.float_of_bits a)))
  | Clz32 -> Bits.clz32 a
  | Ctz32 -> Bits.ctz32 a

let valu_eval op a b =
  match op with
  | VAnd -> V128.logand a b
  | VOr -> V128.logor a b
  | VXor -> V128.logxor a b
  | VAdd32 -> V128.add32x4 a b
  | VSub32 -> V128.sub32x4 a b
  | VCmpEq32 -> V128.cmpeq32x4 a b
  | VAdd8 -> V128.add8x16 a b
  | VSub8 -> V128.sub8x16 a b

(* The checked path behind [Ld], taken when the access leaves its page
   or the page is unmapped or unreadable; [Aspace.read] raises the exact
   fault.  ([St]'s checked path is [Aspace.write] itself, also taken
   while a store watch is registered.)  Decoded sizes are 1, 2, 4 or 8. *)
let load_slow mem addr sz sx =
  let x = Aspace.read mem addr sz in
  if sx then
    match sz with
    | 1 -> Bits.sext8 x
    | 2 -> Bits.sext16 x
    | 4 -> Bits.sext32 x
    | _ -> x
  else x

(** Execute decoded translation [code] until an exit instruction fires.
    Returns the exit kind, the next guest PC, and the index in [code] of
    the exit instruction that fired — the "exit site".  A site whose
    target is a constant ([ExitIf]/[GotoI]) is the kind of jump
    translation chaining patches: the core maps the index back to the
    translation's chain slot to decide whether the transfer can bypass
    the dispatcher.  [env] is the helper environment: the core builds it
    once per session, over the current ThreadState, the address space
    and the session's helper table.

    The loop is written so a typical block allocates almost nothing:
    registers are read and written unboxed, loads and stores that stay
    inside one page touch the page bytes directly (through
    {!Aspace.page_r}/{!Aspace.page_w}, two array loads into the address
    space's page table), and helper calls borrow [cpu.call_args]. *)
let run (cpu : cpu) ~(env : Vex_ir.Helpers.env) (code : insn array) :
    exit_kind * int64 * int =
  let r = cpu.hregs and v = cpu.hvregs in
  let mem = cpu.mem in
  let pc = ref 0 in
  let cycles = ref 0 in
  let steps = ref 0 in
  let exited = ref false in
  let exit_kind = ref 0 and exit_dest = ref 0L in
  let n = Array.length code in
  while not !exited do
    if !pc >= n then
      (* fell off the end of a translation: a JIT bug *)
      invalid_arg "Host.Interp.run: translation fell through";
    let i = Array.unsafe_get code !pc in
    incr pc;
    cycles := !cycles + cost i;
    incr steps;
    match i with
    | Movi (d, imm) -> rset r d imm
    | Mov (d, s) -> rset r d (rget r s)
    (* [let]-bound, not passed straight to [rset]: ocamlopt unboxes a
       let-bound match over the common ops but boxes it as an argument *)
    | Alu (w, op, d, s1, s2) ->
        let x = alu_eval w op (rget r s1) (rget r s2) in
        rset r d x
    | Alui (w, op, d, s1, imm) ->
        let x = alu_eval w op (rget r s1) imm in
        rset r d x
    | Ld (sz, sx, d, b, disp) ->
        let base = rget r b in
        let a = (Int64.to_int base + disp) land 0xFFFF_FFFF in
        let off = a land (Aspace.page_size - 1) in
        let data =
          if off + sz <= Aspace.page_size then Aspace.page_r mem a
          else Bytes.empty
        in
        if Bytes.length data = 0 then
          rset r d (load_slow mem (Int64.add base (Int64.of_int disp)) sz sx)
        else
          rset r d
            (match (sz, sx) with
            | 1, false -> Int64.of_int (Bytes.get_uint8 data off)
            | 1, true -> Int64.of_int (Bytes.get_int8 data off)
            | 2, false -> Int64.of_int (Bytes.get_uint16_le data off)
            | 2, true -> Int64.of_int (Bytes.get_int16_le data off)
            | 4, false ->
                Int64.logand
                  (Int64.of_int32 (Bytes.get_int32_le data off))
                  0xFFFF_FFFFL
            | 4, true -> Int64.of_int32 (Bytes.get_int32_le data off)
            | _ -> Bytes.get_int64_le data off)
    | St (sz, s, b, disp) -> (
        let base = rget r b in
        let a = (Int64.to_int base + disp) land 0xFFFF_FFFF in
        let off = a land (Aspace.page_size - 1) in
        let data =
          if off + sz <= Aspace.page_size then Aspace.page_w mem a
          else Bytes.empty
        in
        let x = rget r s in
        if Bytes.length data = 0 then
          Aspace.write mem (Int64.add base (Int64.of_int disp)) sz x
        else
          match sz with
          | 1 -> Bytes.set_uint8 data off (Int64.to_int x land 0xFF)
          | 2 -> Bytes.set_uint16_le data off (Int64.to_int x land 0xFFFF)
          | 4 -> Bytes.set_int32_le data off (Int64.to_int32 x)
          | _ -> Bytes.set_int64_le data off x)
    | Cmov (d, c, s) -> if rget r c <> 0L then rset r d (rget r s)
    | Falu (op, d, s1, s2) -> rset r d (falu_eval op (rget r s1) (rget r s2))
    | Fun1 (op, d, s) -> rset r d (fun1_eval op (rget r s))
    | Vld (d, b, disp) ->
        let addr = Int64.add (rget r b) (Int64.of_int disp) in
        v.(d) <-
          V128.make ~lo:(Aspace.read mem addr 8)
            ~hi:(Aspace.read mem (Int64.add addr 8L) 8)
    | Vst (s, b, disp) ->
        let addr = Int64.add (rget r b) (Int64.of_int disp) in
        Aspace.write mem addr 8 (V128.lo v.(s));
        Aspace.write mem (Int64.add addr 8L) 8 (V128.hi v.(s))
    | Vmov (d, s) -> v.(d) <- v.(s)
    | Valu (op, d, s1, s2) -> v.(d) <- valu_eval op v.(s1) v.(s2)
    | Vnot (d, s) -> v.(d) <- V128.lognot v.(s)
    | Vsplat32 (d, s) -> v.(d) <- V128.splat32 (rget r s)
    | Vpack (d, hi, lo) -> v.(d) <- V128.make ~hi:(rget r hi) ~lo:(rget r lo)
    | Vunpack (d, s, half) ->
        rset r d (if half = 0 then V128.lo v.(s) else V128.hi v.(s))
    | Call (id, nargs, _cost) ->
        let args = cpu.call_args.(nargs) in
        for k = 0 to nargs - 1 do
          args.(k) <- rget r k
        done;
        rset r ret_reg (Vex_ir.Helpers.call id env args)
    | Jz (c, l) -> if rget r c = 0L then pc := l
    | Jnz (c, l) -> if rget r c <> 0L then pc := l
    | Jmp l -> pc := l
    | Label _ -> ()
    | ExitIf (c, ek, dest) ->
        if rget r c <> 0L then begin
          exited := true;
          exit_kind := ek;
          exit_dest := dest
        end
    | Goto (ek, s) ->
        exited := true;
        exit_kind := ek;
        exit_dest := Bits.trunc32 (rget r s)
    | GotoI (ek, dest) ->
        exited := true;
        exit_kind := ek;
        exit_dest := dest
  done;
  cpu.cycles <- Int64.add cpu.cycles (Int64.of_int !cycles);
  cpu.insns <- Int64.add cpu.insns (Int64.of_int !steps);
  (* the exit instruction is the last one executed *)
  (!exit_kind, !exit_dest, !pc - 1)
