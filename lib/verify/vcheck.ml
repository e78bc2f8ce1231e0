(** Phase-6 boundary: sanity of the instruction selector's output.

    Isel emits {!Jit.Isel.vinsn}s over {e virtual} registers numbered
    from [Host.Arch.n_hregs] (resp. [n_hvregs]) upward, so the only
    physical register that may appear is the GSP — and only as the base
    of a load or store.  The selector works bottom-up, so every virtual
    register is defined strictly before its first use, labels are defined
    exactly once and only branched to forward, and helper calls respect
    the argument-register ABI limit.

    Each instruction's operands are checked in place, by one [match] on
    its constructor: reads (and load/store bases) first, then writes. *)

open Jit.Isel
module H = Host.Arch

let phase = "phase 6 (isel)"

let pp_vinsn ppf = function
  | V i -> H.pp_insn ppf i
  | VCall { callee; args; _ } ->
      Fmt.pf ppf "vcall %s/%d" callee.Vex_ir.Ir.c_name (List.length args)

(** Check a full vcode listing against its declared register and label
    counts. *)
let check (code : vinsn list) ~(n_int : int) ~(n_vec : int) ~(n_label : int)
    : unit =
  let int_defined = Array.make (max n_int H.n_hregs) false in
  let vec_defined = Array.make (max n_vec H.n_hvregs) false in
  let label_def = Array.make (max n_label 1) (-1) in
  (* pass 1: label definition sites *)
  List.iteri
    (fun pos i ->
      match i with
      | V (H.Label l) ->
          if l < 0 || l >= n_label then
            Verr.fail phase "insn %d: label L%d out of range [0,%d)" pos l
              n_label;
          if label_def.(l) >= 0 then
            Verr.fail phase "insn %d: label L%d defined twice" pos l;
          label_def.(l) <- pos
      | _ -> ())
    code;
  let check_target pos l =
    if l < 0 || l >= n_label then
      Verr.fail phase "insn %d: branch to out-of-range label L%d" pos l;
    if label_def.(l) < 0 then
      Verr.fail phase "insn %d: branch to undefined label L%d" pos l;
    if label_def.(l) <= pos then
      Verr.fail phase
        "insn %d: backward branch to L%d (superblocks branch forward only)"
        pos l
  in
  let base pos i r =
    if r <> H.gsp then begin
      if r < H.n_hregs || r >= n_int then
        Verr.fail phase
          "insn %d: base register %d is neither the GSP nor a valid int vreg \
           (%a)"
          pos r pp_vinsn i;
      if not int_defined.(r) then
        Verr.fail phase "insn %d: base vreg %d used before definition" pos r
    end
  in
  let use_i pos i r =
    if r < H.n_hregs || r >= n_int then
      Verr.fail phase "insn %d: int vreg %d out of range [%d,%d) (%a)" pos r
        H.n_hregs n_int pp_vinsn i;
    if not int_defined.(r) then
      Verr.fail phase "insn %d: int vreg %d used before definition (%a)" pos
        r pp_vinsn i
  in
  let use_v pos v =
    if v < H.n_hvregs || v >= n_vec then
      Verr.fail phase "insn %d: vec vreg %d out of range [%d,%d)" pos v
        H.n_hvregs n_vec;
    if not vec_defined.(v) then
      Verr.fail phase "insn %d: vec vreg %d used before definition" pos v
  in
  let def_i pos r =
    if r < H.n_hregs || r >= n_int then
      Verr.fail phase "insn %d: write to int register %d outside the vreg space"
        pos r;
    int_defined.(r) <- true
  in
  let def_v pos v =
    if v < H.n_hvregs || v >= n_vec then
      Verr.fail phase "insn %d: write to vec register %d outside the vreg space"
        pos v;
    vec_defined.(v) <- true
  in
  let arg_limit = List.length H.arg_regs in
  let rec use_args pos i = function
    | [] -> ()
    | r :: rest ->
        use_i pos i r;
        use_args pos i rest
  in
  let step pos i =
    match i with
    | V (H.Movi (d, _)) -> def_i pos d
    | V (H.Mov (d, s)) | V (H.Alui (_, _, d, s, _)) | V (H.Fun1 (_, d, s)) ->
        use_i pos i s;
        def_i pos d
    | V (H.Alu (_, _, d, s1, s2)) | V (H.Falu (_, d, s1, s2)) ->
        use_i pos i s1;
        use_i pos i s2;
        def_i pos d
    | V (H.Ld (_, _, d, b, _)) ->
        base pos i b;
        def_i pos d
    | V (H.St (_, s, b, _)) ->
        base pos i b;
        use_i pos i s
    | V (H.Cmov (d, c, s)) ->
        use_i pos i c;
        use_i pos i s;
        use_i pos i d;
        def_i pos d
    | V (H.Vld (d, b, _)) ->
        base pos i b;
        def_v pos d
    | V (H.Vst (s, b, _)) ->
        base pos i b;
        use_v pos s
    | V (H.Vmov (d, s)) | V (H.Vnot (d, s)) ->
        use_v pos s;
        def_v pos d
    | V (H.Valu (_, d, s1, s2)) ->
        use_v pos s1;
        use_v pos s2;
        def_v pos d
    | V (H.Vsplat32 (d, s)) ->
        use_i pos i s;
        def_v pos d
    | V (H.Vpack (d, hi, lo)) ->
        use_i pos i hi;
        use_i pos i lo;
        def_v pos d
    | V (H.Vunpack (d, s, _)) ->
        use_v pos s;
        def_i pos d
    | V (H.Call _) ->
        Verr.fail phase "insn %d: physical Call before register allocation" pos
    | V (H.Jz (c, l)) | V (H.Jnz (c, l)) ->
        use_i pos i c;
        check_target pos l
    | V (H.Jmp l) -> check_target pos l
    | V (H.Label _) | V (H.GotoI _) -> ()
    | V (H.ExitIf (c, _, _)) | V (H.Goto (_, c)) -> use_i pos i c
    | VCall { args; dst; _ } -> (
        use_args pos i args;
        let n = List.length args in
        if n > arg_limit then
          Verr.fail phase
            "insn %d: helper call with %d arguments exceeds the %d argument \
             registers"
            pos n arg_limit;
        match dst with Some d -> def_i pos d | None -> ())
  in
  let rec go pos = function
    | [] -> ()
    | i :: rest ->
        step pos i;
        go (pos + 1) rest
  in
  go 0 code
