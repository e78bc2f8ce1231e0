(** VH64 interpreter — the simulated host CPU that runs translations.

    The dispatcher points [h15] (GSP) at the current ThreadState and runs
    a decoded translation; the translation ends with an exit instruction
    carrying the next guest PC and an exit kind.  Helper [Call]s are
    routed through the helper table of the environment the core passes
    in, which accesses the same simulated address space the guest lives
    in.

    The host cost model (the analogue of the native model in
    {!Guest.Interp.cost}; both are simple in-order approximations so that
    Table-2 ratios are meaningful) is charged by {!run} in the arm that
    executes each instruction:
    - [Mul]/[Mulhs] 3 cycles, [Divs]/[Divu] 20, every other ALU op 1;
    - [FDiv] and [FSqrt] 16, every other FP op 3;
    - [Ld], [St], [Vld], [Vst] 2;
    - [Call] 10 (call, save and restore) plus the helper's declared cost;
    - [Label] 0;
    - everything else 1.
    The dispatcher and scheduler add their own costs on top (paper §3.9). *)

open Arch
open Support

(** Raised when translated code divides by zero (guest SIGFPE). *)
exception Host_sigfpe

(** The integer register file is a 128-byte [Bytes.t], [h]{i i} at byte
    offset [8i], little-endian.  Go through {!get_hreg} and {!set_hreg}
    from outside this module. *)
type cpu = {
  hregs : Bytes.t;  (** h0..h15 *)
  hvregs : V128.t array;  (** hv0..hv7 *)
  mem : Aspace.t;
  mutable cycles : int64;
  mutable insns : int64;
  call_args : int64 array array;
      (** [call_args.(n)] is the argument array lent to every helper
          [Call] of arity [n] (see {!Vex_ir.Helpers.fn}) *)
  mutable fast_acc : int;
      (** where {!run}'s inner loop leaves the counts of the instructions
          it ran when it stops *)
}

let create mem =
  {
    hregs = Bytes.make (8 * n_hregs) '\000';
    hvregs = Array.make n_hvregs V128.zero;
    mem;
    cycles = 0L;
    insns = 0L;
    call_args = Array.init (n_hregs + 1) (fun n -> Array.make n 0L);
    fast_acc = 0;
  }

let get_hreg (cpu : cpu) i = Bytes.get_int64_le cpu.hregs (8 * i)
let set_hreg (cpu : cpu) i x = Bytes.set_int64_le cpu.hregs (8 * i) x

(* Unchecked little-endian access to a [Bytes.t], for the register file
   and page data.  Every caller has established the bounds: see {!rget}
   and the page accesses in {!fast}. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap16 : int -> int = "%bswap16"
external big_endian : unit -> bool = "%big_endian"

let[@inline] get64 b o = if big_endian () then swap64 (get64u b o) else get64u b o
let[@inline] get32 b o = if big_endian () then swap32 (get32u b o) else get32u b o
let[@inline] get16 b o = if big_endian () then swap16 (get16u b o) else get16u b o

let[@inline] set64 b o x =
  if big_endian () then set64u b o (swap64 x) else set64u b o x

let[@inline] set32 b o x =
  if big_endian () then set32u b o (swap32 x) else set32u b o x

let[@inline] set16 b o x =
  if big_endian () then set16u b o (swap16 x) else set16u b o x

(* Register [i] of the 128-byte file [r].  The mask keeps any [i] inside
   the file; {!Encode.decode} only lets 0-15 through, so for decoded
   code it changes nothing. *)
let[@inline] rget r i = get64 r ((i land 15) lsl 3)
let[@inline] rset r i x = set64 r ((i land 15) lsl 3) x

(* {!Aspace.t}'s page table, as {!fast} walks it: the page holding the
   32-bit address [a] is [l1.(a lsr l1_shift).(a lsr page_shift land
   l2_mask)], and its data is exactly [page_size] bytes unless the page
   is [Aspace.no_page], which has no permissions.  Written as constants
   here so the walk compiles to shifts and masks; checked against
   {!Aspace} when the program starts. *)
let page_shift = 12
let page_size = 1 lsl page_shift
let l2_bits = 10
let l2_mask = (1 lsl l2_bits) - 1
let l1_shift = page_shift + l2_bits

let () =
  if Aspace.page_shift <> page_shift || Aspace.l2_bits <> l2_bits then
    failwith "Host.Interp: Aspace's page table layout changed"

let[@inline] page (l1 : Aspace.page array array) a : Aspace.page =
  Array.unsafe_get
    (Array.unsafe_get l1 (a lsr l1_shift))
    ((a lsr page_shift) land l2_mask)

let not_inline = Invalid_argument "Host.Interp.alu_inline"

(* [a op b] at width [w] for the seven ops {!fast} runs inline.  It calls
   and allocates nothing (its last arm, unreachable from its callers,
   raises the prebuilt [not_inline]), so inlined into {!fast} neither the
   operands nor the result are boxed; {!alu_eval} sends every other op
   to {!alu_rare}. *)
let[@inline] alu_inline (w : width) (op : alu_op) (a : int64) (b : int64) :
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
  | _ -> raise not_inline

(* The other ALU ops, which the step of {!run} evaluates. *)
let alu_rare (w : width) (op : alu_op) (a : int64) (b : int64) : int64 =
  let a32 () = Bits.sext32 a and b32 () = Bits.sext32 b in
  match (op, w) with
  | (Add | Sub | And | Or | Xor | CmpEq | CmpNe), _ ->
      invalid_arg "Host.Interp.alu_rare: inline op"
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

(** [a op b] at width [w]. *)
let alu_eval (w : width) (op : alu_op) (a : int64) (b : int64) : int64 =
  match op with
  | Add | Sub | And | Or | Xor | CmpEq | CmpNe -> alu_inline w op a b
  | Shl | Shr | Sar | Mul | Mulhs | Divs | Divu | CmpLts | CmpLes | CmpLtu
  | CmpLeu ->
      alu_rare w op a b

(* Cycles of the ALU ops {!alu_rare} evaluates. *)
let alu_rare_cost = function Mul | Mulhs -> 3 | Divs | Divu -> 20 | _ -> 1

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

(* The checked path behind [Ld], taken when the access leaves its page,
   the page is unmapped or unreadable, or the size is not 1, 2, 4 or 8;
   [Aspace.read] raises the exact fault. *)
let load_slow mem addr sz sx =
  let x = Aspace.read mem addr sz in
  if sx then
    match sz with
    | 1 -> Bits.sext8 x
    | 2 -> Bits.sext16 x
    | 4 -> Bits.sext32 x
    | _ -> x
  else x

(* The counts of the instructions {!fast} has run, packed into one
   [int] so they take one machine register: instructions in the low 32
   bits, cycles above.  [fast] starts from 0 and runs only forward, so
   one run of it covers at most [Array.length code] instructions of at
   most 2 cycles each: neither field can overflow for code shorter than
   2{^30} instructions. *)
let[@inline] tick cost = (cost lsl 32) lor 1
let[@inline] acc_insns acc = acc land 0xFFFF_FFFF
let[@inline] acc_cycles acc = acc lsr 32

(* The inner loop of {!run}.  From index [pc] of [code], it runs [Movi],
   [Mov], the seven inline ALU ops, [Ld]/[St] that stay inside one page
   with the permission, [Cmov], forward [Jz]/[Jnz]/[Jmp], [Label] and
   untaken [ExitIf]s, and returns the index of the first instruction it
   does not run, leaving the counts of those it ran in [cpu.fast_acc].
   It calls nothing, allocates nothing and checks nothing that cannot
   fail, so [pc] and the counts stay in machine registers.  Since it only
   runs forward, [pc] is never negative inside the loop: it leaves the
   loop by storing [lnot pc].  Stores run here only while no store watch
   is registered. *)
let fast (cpu : cpu) (code : insn array) (pc : int) : int =
  let r = cpu.hregs and l1 = cpu.mem.l1 in
  let direct_st = match cpu.mem.store_watch with [] -> true | _ -> false in
  let pc = ref pc and acc = ref 0 in
  while !pc >= 0 do
    let p = !pc in
    if p >= Array.length code then pc := lnot p
    else
      match Array.unsafe_get code p with
      | Movi (d, imm) ->
          rset r d imm;
          pc := p + 1;
          acc := !acc + tick 1
      | Mov (d, s) ->
          rset r d (rget r s);
          pc := p + 1;
          acc := !acc + tick 1
      | Alu (w, ((Add | Sub | And | Or | Xor | CmpEq | CmpNe) as op), d, s1, s2)
        ->
          (* [let]-bound, not passed straight to [rset]: ocamlopt unboxes
             a let-bound match but boxes it as an argument *)
          let x = alu_inline w op (rget r s1) (rget r s2) in
          rset r d x;
          pc := p + 1;
          acc := !acc + tick 1
      | Alui (w, ((Add | Sub | And | Or | Xor | CmpEq | CmpNe) as op), d, s1, imm)
        ->
          let x = alu_inline w op (rget r s1) imm in
          rset r d x;
          pc := p + 1;
          acc := !acc + tick 1
      | Ld (sz, sx, d, b, disp) ->
          let a = (Int64.to_int (rget r b) + disp) land 0xFFFF_FFFF in
          let off = a land (page_size - 1) in
          let pg = page l1 a in
          if off + sz > page_size || not pg.perm.r then pc := lnot p
          else begin
            (* in bounds: each arm reads [sz] bytes, [off + sz <=
               page_size], and a readable page's data is [page_size]
               bytes *)
            let data = pg.data in
            match sz with
            | 8 ->
                let x = get64 data off in
                rset r d x;
                pc := p + 1;
                acc := !acc + tick 2
            | 4 ->
                let x = get32 data off in
                let x =
                  if sx then Int64.of_int32 x
                  else Int64.logand (Int64.of_int32 x) 0xFFFF_FFFFL
                in
                rset r d x;
                pc := p + 1;
                acc := !acc + tick 2
            | 2 ->
                let x = get16 data off in
                rset r d
                  (Int64.of_int (if sx then (x lxor 0x8000) - 0x8000 else x));
                pc := p + 1;
                acc := !acc + tick 2
            | 1 ->
                let x = Char.code (Bytes.unsafe_get data off) in
                rset r d (Int64.of_int (if sx then (x lxor 0x80) - 0x80 else x));
                pc := p + 1;
                acc := !acc + tick 2
            | _ -> pc := lnot p
          end
      | St (sz, s, b, disp) ->
          let a = (Int64.to_int (rget r b) + disp) land 0xFFFF_FFFF in
          let off = a land (page_size - 1) in
          let pg = page l1 a in
          if (not direct_st) || off + sz > page_size || not pg.perm.w then
            pc := lnot p
          else begin
            let data = pg.data in
            match sz with
            | 8 ->
                set64 data off (rget r s);
                pc := p + 1;
                acc := !acc + tick 2
            | 4 ->
                set32 data off (Int64.to_int32 (rget r s));
                pc := p + 1;
                acc := !acc + tick 2
            | 2 ->
                set16 data off (Int64.to_int (rget r s));
                pc := p + 1;
                acc := !acc + tick 2
            | 1 ->
                Bytes.unsafe_set data off
                  (Char.unsafe_chr (Int64.to_int (rget r s) land 0xFF));
                pc := p + 1;
                acc := !acc + tick 2
            | _ -> pc := lnot p
          end
      | Cmov (d, c, s) ->
          if rget r c <> 0L then rset r d (rget r s);
          pc := p + 1;
          acc := !acc + tick 1
      | Jz (c, _) when rget r c <> 0L ->
          pc := p + 1;
          acc := !acc + tick 1
      | Jnz (c, _) when rget r c = 0L ->
          pc := p + 1;
          acc := !acc + tick 1
      | (Jz (_, l) | Jnz (_, l) | Jmp l) when l > p ->
          pc := l;
          acc := !acc + tick 1
      | Label _ ->
          pc := p + 1;
          acc := !acc + tick 0
      | ExitIf (c, _, _) when rget r c = 0L ->
          pc := p + 1;
          acc := !acc + tick 1
      | Alu _ | Alui _ | Falu _ | Fun1 _ | Vld _ | Vst _ | Vmov _ | Valu _
      | Vnot _ | Vsplat32 _ | Vpack _ | Vunpack _ | Call _ | Jz _ | Jnz _
      | Jmp _ | ExitIf _ | Goto _ | GotoI _ ->
          pc := lnot p
  done;
  cpu.fast_acc <- !acc;
  lnot !pc

(* Run the instruction [fast] stopped at, if it is neither an exit nor a
   branch, and return its cost: the other ALU ops, FP and vector ops,
   helper calls, and the loads and stores that cross a page, fault, are
   watched or have an odd size. *)
let exec_step (cpu : cpu) (env : Vex_ir.Helpers.env) (i : insn) : int =
  let r = cpu.hregs and v = cpu.hvregs in
  match i with
  | Alu (w, op, d, s1, s2) ->
      rset r d (alu_rare w op (rget r s1) (rget r s2));
      alu_rare_cost op
  | Alui (w, op, d, s1, imm) ->
      rset r d (alu_rare w op (rget r s1) imm);
      alu_rare_cost op
  | Ld (sz, sx, d, b, disp) ->
      rset r d
        (load_slow cpu.mem (Int64.add (rget r b) (Int64.of_int disp)) sz sx);
      2
  | St (sz, s, b, disp) ->
      Aspace.write cpu.mem
        (Int64.add (rget r b) (Int64.of_int disp))
        sz (rget r s);
      2
  | Falu (op, d, s1, s2) ->
      rset r d (falu_eval op (rget r s1) (rget r s2));
      (match op with FDiv -> 16 | _ -> 3)
  | Fun1 (op, d, s) ->
      rset r d (fun1_eval op (rget r s));
      (match op with FSqrt -> 16 | _ -> 3)
  | Vld (d, b, disp) ->
      let addr = Int64.add (rget r b) (Int64.of_int disp) in
      v.(d) <-
        V128.make ~lo:(Aspace.read cpu.mem addr 8)
          ~hi:(Aspace.read cpu.mem (Int64.add addr 8L) 8);
      2
  | Vst (s, b, disp) ->
      let addr = Int64.add (rget r b) (Int64.of_int disp) in
      Aspace.write cpu.mem addr 8 (V128.lo v.(s));
      Aspace.write cpu.mem (Int64.add addr 8L) 8 (V128.hi v.(s));
      2
  | Vmov (d, s) ->
      v.(d) <- v.(s);
      1
  | Valu (op, d, s1, s2) ->
      v.(d) <- valu_eval op v.(s1) v.(s2);
      1
  | Vnot (d, s) ->
      v.(d) <- V128.lognot v.(s);
      1
  | Vsplat32 (d, s) ->
      v.(d) <- V128.splat32 (rget r s);
      1
  | Vpack (d, hi, lo) ->
      v.(d) <- V128.make ~hi:(rget r hi) ~lo:(rget r lo);
      1
  | Vunpack (d, s, half) ->
      rset r d (if half = 0 then V128.lo v.(s) else V128.hi v.(s));
      1
  | Call (id, nargs, cost) ->
      let args = cpu.call_args.(nargs) in
      for k = 0 to nargs - 1 do
        args.(k) <- rget r k
      done;
      rset r ret_reg (Vex_ir.Helpers.call id env args);
      10 + cost
  | Movi _ | Mov _ | Cmov _ | Jz _ | Jnz _ | Jmp _ | Label _ | ExitIf _
  | Goto _ | GotoI _ ->
      invalid_arg "Host.Interp.exec_step: run by the inner loop or the step"

(* Add a finished block's counts to the CPU's clocks. *)
let retire (cpu : cpu) cycles insns =
  cpu.cycles <- Int64.add cpu.cycles (Int64.of_int cycles);
  cpu.insns <- Int64.add cpu.insns (Int64.of_int insns)

(* The outer level of {!run}: [fast] from [pc] (never negative), then
   the instruction it stopped at.  [fast] stops at an [ExitIf] only when
   it is taken, and at a branch only when it is taken backwards, which
   code from the JIT never does. *)
let rec step (cpu : cpu) (env : Vex_ir.Helpers.env) (code : insn array)
    (pc : int) (cycles : int) (insns : int) : exit_kind * int64 * int =
  let pc = fast cpu code pc in
  let cycles = cycles + acc_cycles cpu.fast_acc
  and insns = insns + acc_insns cpu.fast_acc + 1 in
  if pc >= Array.length code then
    (* fell off the end of a translation: a JIT bug *)
    invalid_arg "Host.Interp.run: translation fell through";
  match Array.unsafe_get code pc with
  | ExitIf (_, ek, dest) | GotoI (ek, dest) ->
      retire cpu (cycles + 1) insns;
      (ek, dest, pc)
  | Goto (ek, s) ->
      let dest = Bits.trunc32 (rget cpu.hregs s) in
      retire cpu (cycles + 1) insns;
      (ek, dest, pc)
  | Jz (_, l) | Jnz (_, l) | Jmp l ->
      if l < 0 then invalid_arg "Host.Interp.run: branch out of range";
      step cpu env code l (cycles + 1) insns
  | i -> step cpu env code (pc + 1) (cycles + exec_step cpu env i) insns

(** Execute decoded translation [code] until an exit instruction fires.
    Returns the exit kind, the next guest PC, and the index in [code] of
    the exit instruction that fired — the "exit site".  A site whose
    target is a constant ([ExitIf]/[GotoI]) is the kind of jump
    translation chaining patches: the core maps the index back to the
    translation's chain slot to decide whether the transfer can bypass
    the dispatcher.  [env] is the helper environment: the core builds it
    once per session, over the current ThreadState, the address space
    and the session's helper table.

    Execution alternates between two levels (DESIGN.md "Host hot
    path"): an inner loop that calls nothing runs the common
    instructions, and a step runs the one instruction it stopped at.
    Every executed instruction is charged its cost and counted once,
    whichever level runs it; a block that raises ([Aspace.Fault],
    {!Host_sigfpe}) leaves [cpu.cycles] and [cpu.insns] as they were. *)
let run (cpu : cpu) ~(env : Vex_ir.Helpers.env) (code : insn array) :
    exit_kind * int64 * int =
  step cpu env code 0 0 0
