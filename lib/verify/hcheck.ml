(** Phase-7 boundary: sanity of register-allocated host code.

    After allocation every register field must be a real VH64 register
    (4-bit encodable), and a forward dataflow over the listing proves:

    - no instruction reads an integer or vector host register that no
      earlier instruction (on every path) has written — at entry only the
      GSP holds a defined value;
    - the GSP itself is never written;
    - spill-slot discipline: loads from the per-thread spill zone only
      read slots a store has filled on every path, accesses are
      width-natural (8-byte int / 16-byte vec) and slot-aligned, and
      GSP-relative addressing stays inside the ThreadState;
    - label integrity: labels defined exactly once, branches target
      defined labels and only branch forward (superblock invariant);
    - helper calls respect the ABI: argument registers defined at the
      call, caller-saved registers treated as clobbered after it;
    - immediates and displacements survive the 32-bit encodings, and
      control cannot fall off the end of the listing.

    Branch joins meet states by intersection ("defined only if defined on
    every incoming path"), which is exact for the forward-branching code
    the JIT emits.  A state is a few [int] words of bits, so a meet is a
    [land] per word and recording a branch copies those words. *)

module H = Host.Arch

let phase = "phase 7 (regalloc)"

(** Label tables for the host-code checkers (phases 7 and 8).

    A listing has few labels, but a label may be any [int] (negative,
    sparse or huge), so a table is two parallel arrays sorted by label,
    searched by bisection.  Labels are mostly defined in increasing
    order, which keeps insertion close to an append. *)
module Labels = struct
  type t = {
    mutable keys : int array;  (** sorted labels; the first [n] are live *)
    mutable vals : int array;  (** the value recorded for [keys.(k)] *)
    mutable n : int;
  }

  let create () = { keys = Array.make 8 0; vals = Array.make 8 0; n = 0 }

  (** The number of labels in the table. *)
  let length t = t.n

  (* The first index whose key is [>= l]. *)
  let lower_bound t l =
    let lo = ref 0 and hi = ref t.n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.keys.(mid) < l then lo := mid + 1 else hi := mid
    done;
    !lo

  (** The index of label [l], or [-1] if it is not in the table.  Indices
      are stable once every label has been added. *)
  let find t l =
    let k = lower_bound t l in
    if k < t.n && t.keys.(k) = l then k else -1

  (** Add label [l] with value [v].  If [l] is already present nothing
      changes and its index is returned; otherwise the result is [-1]. *)
  let add t l v =
    let k = lower_bound t l in
    if k < t.n && t.keys.(k) = l then k
    else begin
      if t.n = Array.length t.keys then begin
        let grow a = Array.append a (Array.make t.n 0) in
        t.keys <- grow t.keys;
        t.vals <- grow t.vals
      end;
      if k < t.n then begin
        Array.blit t.keys k t.keys (k + 1) (t.n - k);
        Array.blit t.vals k t.vals (k + 1) (t.n - k)
      end;
      t.keys.(k) <- l;
      t.vals.(k) <- v;
      t.n <- t.n + 1;
      -1
    end

  let value t k = t.vals.(k)
  let set_value t k v = t.vals.(k) <- v
end

(* The dataflow state is a bit vector packed into [n_words] ints.  Word 0
   holds the registers: bit [r] says integer register [r] holds a defined
   value, bit [vbit + v] says the same of vector register [v].  The int
   spill slots follow from word [iword0] and the vec spill slots from
   word [vword0], [slot_bits] slots to a word; a set bit means the slot
   has been filled. *)
let vbit = H.n_hregs
let slot_bits = 48
let iword0 = 1
let vword0 = iword0 + ((H.spill_slots_int + slot_bits - 1) / slot_bits)
let n_words = vword0 + ((H.spill_slots_vec + slot_bits - 1) / slot_bits)

(* the register bits a helper call clobbers *)
let clobber_mask =
  List.fold_left (fun m r -> m lor (1 lsl r)) 0 H.caller_saved_int
  lor List.fold_left (fun m v -> m lor (1 lsl (vbit + v))) 0 H.caller_saved_vec

let pp = H.pp_insn

(* 4-bit register-field encodability, checked in place *)
let ifield pos i r =
  if r < 0 || r >= H.n_hregs then
    Verr.fail phase "insn %d: integer register field %d not encodable (%a)"
      pos r pp i

let vfield pos i v =
  if v < 0 || v >= H.n_hvregs then
    Verr.fail phase "insn %d: vector register field %d not encodable (%a)" pos
      v pp i

let check_fields pos (i : H.insn) =
  match i with
  | H.Movi (d, _) -> ifield pos i d
  | H.Mov (d, s) | H.Alui (_, _, d, s, _) | H.Ld (_, _, d, s, _)
  | H.St (_, d, s, _) | H.Fun1 (_, d, s) ->
      ifield pos i d;
      ifield pos i s
  | H.Alu (_, _, d, s1, s2) | H.Cmov (d, s1, s2) | H.Falu (_, d, s1, s2) ->
      ifield pos i d;
      ifield pos i s1;
      ifield pos i s2
  | H.Vld (v, b, _) | H.Vst (v, b, _) ->
      ifield pos i b;
      vfield pos i v
  | H.Vmov (d, s) | H.Vnot (d, s) ->
      vfield pos i d;
      vfield pos i s
  | H.Valu (_, d, s1, s2) ->
      vfield pos i d;
      vfield pos i s1;
      vfield pos i s2
  | H.Vsplat32 (d, s) ->
      ifield pos i s;
      vfield pos i d
  | H.Vpack (d, hi, lo) ->
      ifield pos i hi;
      ifield pos i lo;
      vfield pos i d
  | H.Vunpack (d, s, _) ->
      ifield pos i d;
      vfield pos i s
  | H.Jz (c, _) | H.Jnz (c, _) | H.ExitIf (c, _, _) | H.Goto (_, c) ->
      ifield pos i c
  | H.Call _ | H.Jmp _ | H.Label _ | H.GotoI _ -> ()

let n_arg_regs = List.length H.arg_regs
let fits_u32 (v : int64) = Int64.logand v 0xFFFF_FFFFL = v

let fits_disp (disp : int) =
  disp >= Int32.to_int Int32.min_int && disp <= Int32.to_int Int32.max_int

(** Check a register-allocated listing. *)
let check (code : H.insn list) : unit =
  (* pass 1: label positions *)
  let labels = Labels.create () in
  List.iteri
    (fun pos i ->
      match i with
      | H.Label l ->
          if Labels.add labels l pos >= 0 then
            Verr.fail phase "insn %d: label L%d defined twice" pos l
      | _ -> ())
    code;
  let n_labels = Labels.length labels in
  (* [check_target] returns the label's index in [labels] *)
  let check_target pos l =
    let k = Labels.find labels l in
    if k < 0 then Verr.fail phase "insn %d: branch to undefined label L%d" pos l;
    if Labels.value labels k <= pos then
      Verr.fail phase
        "insn %d: backward branch to L%d (superblocks branch forward only)" pos
        l;
    k
  in
  (* [st] is the state before the current instruction; [incoming] holds,
     per label index, the meet of the states of the branches seen to it
     so far ([seen] says whether there was one) *)
  let st = Array.make n_words 0 in
  st.(0) <- 1 lsl H.gsp;
  let incoming = Array.make (n_labels * n_words) 0 in
  let seen = Array.make n_labels false in
  let record_jump k =
    let base = k * n_words in
    if seen.(k) then
      for w = 0 to n_words - 1 do
        incoming.(base + w) <- incoming.(base + w) land st.(w)
      done
    else begin
      seen.(k) <- true;
      Array.blit st 0 incoming base n_words
    end
  in
  let reachable = ref true in
  let read_i pos i r =
    if st.(0) land (1 lsl r) = 0 then
      Verr.fail phase "insn %d: read of unassigned host register %%h%d (%a)"
        pos r pp i
  in
  let read_v pos i v =
    if st.(0) land (1 lsl (vbit + v)) = 0 then
      Verr.fail phase "insn %d: read of unassigned vector register %%hv%d (%a)"
        pos v pp i
  in
  let write_i pos i r =
    if r = H.gsp then
      Verr.fail phase "insn %d: write to the reserved GSP %%h%d (%a)" pos r pp
        i;
    st.(0) <- st.(0) lor (1 lsl r)
  in
  let write_v v = st.(0) <- st.(0) lor (1 lsl (vbit + v)) in
  let slot_filled word0 slot =
    st.(word0 + (slot / slot_bits)) land (1 lsl (slot mod slot_bits)) <> 0
  in
  let fill_slot word0 slot =
    let w = word0 + (slot / slot_bits) in
    st.(w) <- st.(w) lor (1 lsl (slot mod slot_bits))
  in
  (* classify a GSP-relative displacement *)
  let in_int_spill disp =
    disp >= H.spill_base_int && disp < H.spill_base_vec
  in
  let in_vec_spill disp =
    disp >= H.spill_base_vec && disp < H.threadstate_size
  in
  let int_slot pos disp =
    if (disp - H.spill_base_int) mod 8 <> 0 then
      Verr.fail phase "insn %d: misaligned int spill access at %d" pos disp;
    (disp - H.spill_base_int) / 8
  in
  let vec_slot pos disp =
    if (disp - H.spill_base_vec) mod 16 <> 0 then
      Verr.fail phase "insn %d: misaligned vec spill access at %d" pos disp;
    (disp - H.spill_base_vec) / 16
  in
  let check_gsp_range pos i disp sz =
    if disp < 0 || disp + sz > H.threadstate_size then
      Verr.fail phase
        "insn %d: GSP-relative access [%d,%d) outside the ThreadState (%a)"
        pos disp (disp + sz) pp i
  in
  let step pos i =
    check_fields pos i;
    match i with
    | H.Label l ->
        (* join point: meet branch states with fall-through *)
        let k = Labels.find labels l in
        let base = k * n_words in
        (match (seen.(k), !reachable) with
        | true, true ->
            for w = 0 to n_words - 1 do
              st.(w) <- st.(w) land incoming.(base + w)
            done
        | true, false -> Array.blit incoming base st 0 n_words
        | false, true -> ()
        | false, false ->
            (* top: only reachable by branches we have not seen, i.e. not
               reachable at all in a forward-branch listing *)
            Array.fill st 0 n_words (-1));
        reachable := true
    | _ when not !reachable ->
        (* skip unreachable straight-line code (does not occur in
           JIT output, but keep the checker total) *)
        ()
    | H.Movi (d, _) -> write_i pos i d
    | H.Mov (d, s) ->
        read_i pos i s;
        write_i pos i d
    | H.Alu (_, _, d, s1, s2) ->
        read_i pos i s1;
        read_i pos i s2;
        write_i pos i d
    | H.Alui (w, _, d, s1, imm) ->
        let ok =
          match w with
          | H.W32 -> fits_u32 imm
          | H.W64 -> Int64.of_int32 (Int64.to_int32 imm) = imm
        in
        if not ok then
          Verr.fail phase "insn %d: immediate 0x%LX not encodable (%a)" pos
            imm pp i;
        read_i pos i s1;
        write_i pos i d
    | H.Ld (sz, _, d, b, disp) ->
        if sz <> 1 && sz <> 2 && sz <> 4 && sz <> 8 then
          Verr.fail phase "insn %d: bad load size %d" pos sz;
        if not (fits_disp disp) then
          Verr.fail phase "insn %d: displacement %d not encodable" pos disp;
        if b = H.gsp then begin
          check_gsp_range pos i disp sz;
          if in_vec_spill disp then
            Verr.fail phase
              "insn %d: integer load from the vector spill zone (%a)" pos pp i;
          if in_int_spill disp then begin
            if sz <> 8 then
              Verr.fail phase "insn %d: %d-byte access to an int spill slot"
                pos sz;
            let slot = int_slot pos disp in
            if not (slot_filled iword0 slot) then
              Verr.fail phase
                "insn %d: load from int spill slot %d before any store (%a)"
                pos slot pp i
          end
        end
        else read_i pos i b;
        write_i pos i d
    | H.St (sz, s, b, disp) ->
        if sz <> 1 && sz <> 2 && sz <> 4 && sz <> 8 then
          Verr.fail phase "insn %d: bad store size %d" pos sz;
        if not (fits_disp disp) then
          Verr.fail phase "insn %d: displacement %d not encodable" pos disp;
        read_i pos i s;
        if b = H.gsp then begin
          check_gsp_range pos i disp sz;
          if in_vec_spill disp then
            Verr.fail phase
              "insn %d: integer store into the vector spill zone (%a)" pos pp
              i;
          if in_int_spill disp then begin
            if sz <> 8 then
              Verr.fail phase "insn %d: %d-byte access to an int spill slot"
                pos sz;
            fill_slot iword0 (int_slot pos disp)
          end
        end
        else read_i pos i b
    | H.Cmov (d, c, s) ->
        read_i pos i c;
        read_i pos i s;
        read_i pos i d;
        (* conditional: d keeps its old value when c = 0 *)
        write_i pos i d
    | H.Falu (_, d, s1, s2) ->
        read_i pos i s1;
        read_i pos i s2;
        write_i pos i d
    | H.Fun1 (_, d, s) ->
        read_i pos i s;
        write_i pos i d
    | H.Vld (d, b, disp) ->
        if not (fits_disp disp) then
          Verr.fail phase "insn %d: displacement %d not encodable" pos disp;
        if b = H.gsp then begin
          check_gsp_range pos i disp 16;
          if in_int_spill disp then
            Verr.fail phase
              "insn %d: vector load from the int spill zone (%a)" pos pp i;
          if in_vec_spill disp then begin
            let slot = vec_slot pos disp in
            if not (slot_filled vword0 slot) then
              Verr.fail phase
                "insn %d: load from vec spill slot %d before any store" pos
                slot
          end
        end
        else read_i pos i b;
        write_v d
    | H.Vst (s, b, disp) ->
        if not (fits_disp disp) then
          Verr.fail phase "insn %d: displacement %d not encodable" pos disp;
        read_v pos i s;
        if b = H.gsp then begin
          check_gsp_range pos i disp 16;
          if in_int_spill disp then
            Verr.fail phase
              "insn %d: vector store into the int spill zone (%a)" pos pp i;
          if in_vec_spill disp then fill_slot vword0 (vec_slot pos disp)
        end
        else read_i pos i b
    | H.Vmov (d, s) | H.Vnot (d, s) ->
        read_v pos i s;
        write_v d
    | H.Valu (_, d, s1, s2) ->
        read_v pos i s1;
        read_v pos i s2;
        write_v d
    | H.Vsplat32 (d, s) ->
        read_i pos i s;
        write_v d
    | H.Vpack (d, hi, lo) ->
        read_i pos i hi;
        read_i pos i lo;
        write_v d
    | H.Vunpack (d, s, half) ->
        if half <> 0 && half <> 1 then
          Verr.fail phase "insn %d: vunpack half %d not 0/1" pos half;
        read_v pos i s;
        write_i pos i d
    | H.Call (id, nargs, cost) ->
        if id < 0 || id > 0xFFFF then
          Verr.fail phase "insn %d: helper id %d not encodable" pos id;
        if nargs < 0 || nargs > n_arg_regs then
          Verr.fail phase "insn %d: call with %d arguments exceeds the ABI"
            pos nargs;
        if cost < 0 || cost > 0xFFFF then
          Verr.fail phase "insn %d: call cost %d not encodable" pos cost;
        for a = 0 to nargs - 1 do
          read_i pos i a
        done;
        (* caller-saved registers are clobbered; the result lands in h0 *)
        st.(0) <- st.(0) land lnot clobber_mask lor (1 lsl H.ret_reg)
    | H.Jz (c, l) | H.Jnz (c, l) ->
        read_i pos i c;
        record_jump (check_target pos l)
    | H.Jmp l ->
        record_jump (check_target pos l);
        reachable := false
    | H.ExitIf (c, ek, dest) ->
        read_i pos i c;
        if ek < 0 || ek > 0xFF then
          Verr.fail phase "insn %d: exit kind %d not encodable" pos ek;
        if not (fits_u32 dest) then
          Verr.fail phase "insn %d: exit target 0x%LX not encodable" pos dest
    | H.Goto (ek, s) ->
        read_i pos i s;
        if ek < 0 || ek > 0xFF then
          Verr.fail phase "insn %d: exit kind %d not encodable" pos ek;
        reachable := false
    | H.GotoI (ek, dest) ->
        if ek < 0 || ek > 0xFF then
          Verr.fail phase "insn %d: exit kind %d not encodable" pos ek;
        if not (fits_u32 dest) then
          Verr.fail phase "insn %d: exit target 0x%LX not encodable" pos dest;
        reachable := false
  in
  List.iteri step code;
  if !reachable then
    Verr.fail phase "control can fall off the end of the translation"
