(** Hostile-code lints over a recovered static CFG.

    Every check reads only {e strongly} reached facts from {!Cfg.t} —
    weakly (address-taken) decoded bytes never produce findings, so a
    constant that happens to point into text cannot cause a false
    positive.  The benign corpus gate in [vgscan selfcheck]
    asserts an empty finding list for every minicc workload. *)

type finding = {
  f_class : string;
  f_addr : int64;  (** primary site (instruction address) *)
  f_aux : int64;  (** secondary address or count; [0L] when unused *)
  f_msg : string;
}

(** All classes a scan can emit, for registration in lint drivers. *)
let classes =
  [
    "overlap";
    "mid-insn-jump";
    "bad-target";
    "smc-write";
    "truncated";
    "jump-table";
    "jump-table-density";
    "indirect-unresolved";
    "text-read";
    "timing-probe";
    "sp-pivot";
  ]

(* How many recognised-or-unresolved indirect-dispatch sites make an
   image "jump-table heavy". *)
let density_threshold = 4

let hex (a : int64) = Printf.sprintf "0x%Lx" a

(** Is [tgt] inside the byte range of a decoded instruction, without
    being an instruction start?  Instructions are at most 10 bytes. *)
let mid_insn (cfg : Cfg.t) (tgt : int64) : int64 option =
  let rec probe d =
    if d > 9 then None
    else
      let a = Int64.sub tgt (Int64.of_int d) in
      match Hashtbl.find_opt cfg.Cfg.insns a with
      | Some (_, len) when len > d -> Some a
      | _ -> probe (d + 1)
  in
  probe 1

let run (cfg : Cfg.t) : finding list =
  let open Cfg in
  let t_lo = cfg.text_lo and t_hi = cfg.text_hi in
  let text_len = Int64.to_int (Int64.sub t_hi t_lo) in
  let fs = ref [] in
  let emit f_class f_addr f_aux f_msg =
    fs := { f_class; f_addr; f_aux; f_msg } :: !fs
  in
  (* overlapping instruction sequences: two decode streams claim the
     same text bytes *)
  List.iter
    (fun (first, second) ->
      emit "overlap" second first
        (Printf.sprintf "instruction stream at %s shares bytes with the one at %s"
           (hex second) (hex first)))
    cfg.raw.r_overlaps;
  (* direct jump/branch/call targets: out of image, or into the middle
     of a decoded instruction *)
  List.iter
    (fun (site, tgt) ->
      if not (in_text t_lo t_hi tgt) then
        emit "bad-target" site tgt
          (Printf.sprintf "direct target %s is outside the text image"
             (hex tgt))
      else
        match mid_insn cfg tgt with
        | Some hold ->
            emit "mid-insn-jump" site tgt
              (Printf.sprintf
                 "target %s lands inside the instruction at %s" (hex tgt)
                 (hex hold))
        | None -> ())
    cfg.raw.r_targets;
  (* statically evaluable stores into executable bytes (SMC candidates);
     the text range intersection reuses the dataflow range algebra *)
  List.iter
    (fun (site, ea, width) ->
      if
        Verify.Dataflow.ranges_overlap
          (Int64.to_int ea, width)
          (Int64.to_int t_lo, text_len)
      then
        emit "smc-write" site ea
          (Printf.sprintf "%d-byte store to %s targets executable text"
             width (hex ea)))
    cfg.raw.r_stores;
  (* statically evaluable loads from executable bytes: the program reads
     its own code — integrity checksums, unpacker key material (vgfuzz's
     selfdecrypt hostile guest is the canonical instance) *)
  List.iter
    (fun (site, ea, width) ->
      if
        Verify.Dataflow.ranges_overlap
          (Int64.to_int ea, width)
          (Int64.to_int t_lo, text_len)
      then
        emit "text-read" site ea
          (Printf.sprintf "%d-byte load from %s reads executable text"
             width (hex ea)))
    cfg.raw.r_loads;
  (* timing probe: two or more static getcycles call sites (movi r0, 21
     immediately followed by syscall).  One read is ordinary profiling;
     two make a delta, and branching on a clock delta is the classic
     instrumentation detector. *)
  (let sites = ref [] in
   Hashtbl.iter
     (fun a (i, len) ->
       match i with
       | Guest.Arch.Movi (0, 21L) -> (
           match
             Hashtbl.find_opt cfg.insns (Int64.add a (Int64.of_int len))
           with
           | Some (Guest.Arch.Syscall, _) -> sites := a :: !sites
           | _ -> ())
       | _ -> ())
     cfg.insns;
   let sites = List.sort Int64.unsigned_compare !sites in
   match sites with
   | first :: _ :: _ ->
       emit "timing-probe" first (Int64.of_int (List.length sites))
         (Printf.sprintf
            "%d static getcycles sites: the program can measure its own \
             slow-down"
            (List.length sites))
   | _ -> ());
  (* stack pivot: sp written from something other than fp or sp-relative
     arithmetic.  Compiled code only ever moves fp back into sp or
     adjusts sp by an immediate; loading sp from a general register or a
     constant is the ROP/stack-switch signature. *)
  Hashtbl.iter
    (fun a (i, _len) ->
      let open Guest.Arch in
      let pivot =
        match i with
        | Mov (d, s) -> d = reg_sp && s <> reg_fp && s <> reg_sp
        | Movi (d, _) -> d = reg_sp
        | Lea (d, m) -> d = reg_sp && m.base <> Some reg_sp
        | _ -> false
      in
      if pivot then
        emit "sp-pivot" a 0L
          (Printf.sprintf
             "sp is loaded at %s from outside the frame discipline" (hex a)))
    cfg.insns;
  (* instructions straddling the end of text mid-image *)
  List.iter
    (fun (start, fault) ->
      emit "truncated" start fault
        (Printf.sprintf
           "instruction at %s is cut off at %s before the text end"
           (hex start) (hex fault)))
    cfg.raw.r_truncated;
  (* recognised jump tables (informational but reportable: dispatch the
     JIT will resolve only dynamically) *)
  List.iter
    (fun tb ->
      emit "jump-table" tb.tb_jump tb.tb_base
        (Printf.sprintf "%s jump table at %s with %d in-text entries"
           (if tb.tb_bounded then "bounded" else "unbounded")
           (hex tb.tb_base)
           (List.length tb.tb_entries)))
    cfg.tables;
  (* unresolved indirect jumps: the static CFG is open there *)
  List.iter
    (fun it ->
      match it.fr_reason with
      | F_jmpi ->
          emit "indirect-unresolved" it.fr_addr 0L
            (Printf.sprintf
               "indirect jump at %s matches no recognised table pattern"
               (hex it.fr_addr))
      | F_calli -> ())
    cfg.frontier;
  (* dispatch density: many indirect-dispatch sites in one image *)
  let dispatch_sites =
    List.map (fun tb -> tb.tb_jump) cfg.tables
    @ List.filter_map
        (fun it -> if it.fr_reason = F_jmpi then Some it.fr_addr else None)
        cfg.frontier
  in
  (if List.length dispatch_sites >= density_threshold then
     let first =
       List.fold_left min (List.hd dispatch_sites) dispatch_sites
     in
     emit "jump-table-density" first
       (Int64.of_int (List.length dispatch_sites))
       (Printf.sprintf "%d indirect-dispatch sites in one image"
          (List.length dispatch_sites)));
  List.sort
    (fun a b ->
      match compare a.f_class b.f_class with
      | 0 -> (
          match Int64.unsigned_compare a.f_addr b.f_addr with
          | 0 -> Int64.unsigned_compare a.f_aux b.f_aux
          | c -> c)
      | c -> c)
    !fs

(** The distinct classes present in a finding list, sorted. *)
let classes_of (fs : finding list) : string list =
  List.sort_uniq compare (List.map (fun f -> f.f_class) fs)
