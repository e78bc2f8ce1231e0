(** Phase-8 boundary: the assembled bytes must decode back to the
    register-allocated listing.

    The encoding is narrowing in known ways (labels become instruction
    indices, ALU immediates and displacements travel as 32 bits and are
    sign-extended at decode, exit targets as unsigned 32 bits, a call's
    id and cost as 16 bits and its argument count as 8), so the check
    walks the listing and [decode bytes] in lockstep and compares each
    pair constructor by constructor through those lawful narrowings.
    Any other difference — a corrupted byte, an emitter bug, a register
    field that silently overflowed its 4-bit slot — is a verification
    failure. *)

module H = Host.Arch
module Labels = Hcheck.Labels

let phase = "phase 8 (assemble)"

(* The lawful narrowings, each as the decoder gives the field back. *)
let norm_imm (imm : int64) = Int64.of_int32 (Int64.to_int32 imm)
let norm_disp disp = Int32.to_int (Int32.of_int disp)
let norm_dest dest = Int64.logand dest 0xFFFF_FFFFL
let eq64 (a : int64) (b : int64) = a = b

(* The instruction index label [l] stands for, in instruction [idx]. *)
let target labels idx l =
  let k = Labels.find labels l in
  if k < 0 then Verr.fail phase "insn %d: undefined label L%d" idx l;
  Labels.value labels k

(* Does decoded [g] equal listing instruction [i], the [idx]th, modulo
   the narrowings? *)
let same labels idx (i : H.insn) (g : H.insn) =
  match (i, g) with
  | H.Movi (d, imm), H.Movi (d', imm') -> d = d' && eq64 imm imm'
  | H.Mov (d, s), H.Mov (d', s') -> d = d' && s = s'
  | H.Alu (w, op, d, s1, s2), H.Alu (w', op', d', s1', s2') ->
      w = w' && op = op' && d = d' && s1 = s1' && s2 = s2'
  | H.Alui (w, op, d, s1, imm), H.Alui (w', op', d', s1', imm') ->
      w = w' && op = op' && d = d' && s1 = s1' && eq64 (norm_imm imm) imm'
  | H.Ld (sz, sx, d, b, disp), H.Ld (sz', sx', d', b', disp') ->
      sz = sz' && sx = sx' && d = d' && b = b' && norm_disp disp = disp'
  | H.St (sz, s, b, disp), H.St (sz', s', b', disp') ->
      sz = sz' && s = s' && b = b' && norm_disp disp = disp'
  | H.Cmov (d, c, s), H.Cmov (d', c', s') -> d = d' && c = c' && s = s'
  | H.Falu (op, d, s1, s2), H.Falu (op', d', s1', s2') ->
      op = op' && d = d' && s1 = s1' && s2 = s2'
  | H.Fun1 (op, d, s), H.Fun1 (op', d', s') -> op = op' && d = d' && s = s'
  | H.Vld (d, b, disp), H.Vld (d', b', disp') ->
      d = d' && b = b' && norm_disp disp = disp'
  | H.Vst (s, b, disp), H.Vst (s', b', disp') ->
      s = s' && b = b' && norm_disp disp = disp'
  | H.Vmov (d, s), H.Vmov (d', s') -> d = d' && s = s'
  | H.Valu (op, d, s1, s2), H.Valu (op', d', s1', s2') ->
      op = op' && d = d' && s1 = s1' && s2 = s2'
  | H.Vnot (d, s), H.Vnot (d', s') -> d = d' && s = s'
  | H.Vsplat32 (d, s), H.Vsplat32 (d', s') -> d = d' && s = s'
  | H.Vpack (d, hi, lo), H.Vpack (d', hi', lo') ->
      d = d' && hi = hi' && lo = lo'
  | H.Vunpack (d, s, half), H.Vunpack (d', s', half') ->
      d = d' && s = s' && half = half'
  | H.Call (id, nargs, cost), H.Call (id', nargs', cost') ->
      id land 0xFFFF = id' && nargs land 0xFF = nargs' && cost land 0xFFFF = cost'
  | H.Jz (c, l), H.Jz (c', t) | H.Jnz (c, l), H.Jnz (c', t) ->
      c = c' && target labels idx l = t
  | H.Jmp l, H.Jmp t -> target labels idx l = t
  | H.ExitIf (c, ek, dest), H.ExitIf (c', ek', dest') ->
      c = c' && ek = ek' && eq64 (norm_dest dest) dest'
  | H.Goto (ek, s), H.Goto (ek', s') -> ek = ek' && s = s'
  | H.GotoI (ek, dest), H.GotoI (ek', dest') ->
      ek = ek' && eq64 (norm_dest dest) dest'
  | _ -> false

(* Listing instruction [i] as [decode] should give it back (for the
   mismatch message). *)
let normalise labels idx (i : H.insn) : H.insn =
  let target = target labels idx in
  match i with
  | H.Alui (w, op, d, s1, imm) -> H.Alui (w, op, d, s1, norm_imm imm)
  | H.Ld (sz, sx, d, b, disp) -> H.Ld (sz, sx, d, b, norm_disp disp)
  | H.St (sz, s, b, disp) -> H.St (sz, s, b, norm_disp disp)
  | H.Vld (d, b, disp) -> H.Vld (d, b, norm_disp disp)
  | H.Vst (s, b, disp) -> H.Vst (s, b, norm_disp disp)
  | H.Jz (c, l) -> H.Jz (c, target l)
  | H.Jnz (c, l) -> H.Jnz (c, target l)
  | H.Jmp l -> H.Jmp (target l)
  | H.ExitIf (c, ek, dest) -> H.ExitIf (c, ek, norm_dest dest)
  | H.GotoI (ek, dest) -> H.GotoI (ek, norm_dest dest)
  | H.Call (id, nargs, cost) ->
      H.Call (id land 0xFFFF, nargs land 0xFF, cost land 0xFFFF)
  | i -> i

(** Check [bytes] against the listing it was assembled from. *)
let check ~(hcode : H.insn list) ~(bytes : Bytes.t) : unit =
  (* label -> index of the following real instruction (matches how decode
     rewrites branch byte-offsets: a label's byte offset is the offset of
     the next encoded instruction); a label defined twice means its last
     definition *)
  let labels = Labels.create () in
  let n_insns =
    List.fold_left
      (fun idx i ->
        match i with
        | H.Label l ->
            let k = Labels.add labels l idx in
            if k >= 0 then Labels.set_value labels k idx;
            idx
        | _ -> idx + 1)
      0 hcode
  in
  let got =
    try Host.Encode.decode bytes
    with Host.Encode.Decode_error off ->
      Verr.fail phase "assembled bytes fail to decode at offset %d" off
  in
  if Array.length got <> n_insns then
    Verr.fail phase "decoded %d instructions, assembled %d" (Array.length got)
      n_insns;
  let rec go idx = function
    | [] -> ()
    | H.Label _ :: rest -> go idx rest
    | i :: rest ->
        let g = got.(idx) in
        if not (same labels idx i g) then
          Verr.fail phase
            "round-trip mismatch at insn %d: assembled %a, decoded %a" idx
            H.pp_insn (normalise labels idx i) H.pp_insn g;
        go (idx + 1) rest
  in
  go 0 hcode
