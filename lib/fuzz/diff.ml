(** The differential oracle: the one place that runs a guest under one
    configuration and compares it with another.

    A {e way} is a named configuration: session options, a chaos
    schedule (created fresh for every run) and whether the run is
    recorded and then replayed from its own log; the reference
    interpreter is the way {!native}.  {!run} turns (way, tool, image)
    into an {!outcome} and catches whatever escapes, so "no run raises"
    is one check.  {!compare} checks a named {!relation} between two
    outcomes.  A {!cells} value is a way-set × corpus × tools matrix
    with the checks every cell must pass, and {!sets} names the sweeps
    [vgfuzz] runs: every CLI sweep and CI oracle job is one of them.

    The architectural result of a run is everything the paper's
    soundness claim covers: exit disposition, the final register file
    and materialised flags, a hash of client data memory, client stdout
    and the retired-instruction count.  A session adds the tool's
    output, its metrics registry, the chaos fault log and, when it
    replayed, the trailer digests that did not match.

    Comparison policy against native — what counts as an explained
    difference:
    - on a clean exit everything must match, bit for bit;
    - on a fatal signal the signal number, faulting PC, sp, fp, memory
      image, stdout and icnt must match, but scratch registers and the
      flags thunk may be stale in the session: the optimiser only keeps
      eip/sp/fp precise across potentially-faulting statements (VEX's
      precise-memory-exceptions set, {!Jit.Opt.precise_offsets}), so a
      dead-store-eliminated scratch PUT is not a soundness bug;
    - fuel exhaustion is compared like any other exit. *)

module GA = Guest.Arch
module S = Vg_core.Session

type exit_kind = Exit of int | Signal of int | Fuel

let exit_kind_str = function
  | Exit n -> Printf.sprintf "exit %d" n
  | Signal s -> Printf.sprintf "signal %d" s
  | Fuel -> "fuel"

type outcome = {
  o_way : string;
  o_exit : exit_kind;
  o_regs : int64 array;  (** r0..r7 of the main thread *)
  o_eip : int64;
  o_flags : int64;  (** materialised from the thunk *)
  o_mem : int64;  (** FNV-1a hash of the data+bss segment *)
  o_stdout : string;
  o_icnt : int64 option;
      (** retired guest instructions: the native count, or the witness
          tool's; [None] under any other tool *)
  o_tool : string;  (** tool output; "" for native *)
  o_stats : (string * Obs.Registry.sample) list;
      (** the metrics registry behind [stats_json]; [] for native *)
  o_faults : string list;  (** the chaos fault log *)
  o_replay : (string * string * string) list;
      (** replay trailer digests that did not match: key, recorded, got *)
  o_raised : string option;  (** the exception that escaped the run *)
}

(* --- memory hashing -------------------------------------------------- *)

let fnv_prime = 0x100000001B3L

(* FNV-1a over little-endian words of up to 8 bytes *)
let hash_mem (mem : Aspace.t) (img : Guest.Image.t) : int64 =
  let len = Bytes.length img.Guest.Image.data + img.Guest.Image.bss_len in
  let rec go h i =
    if i >= len then h
    else
      let n = min 8 (len - i) in
      let w = Aspace.read mem (Int64.add img.Guest.Image.data_addr (Int64.of_int i)) n in
      go (Int64.mul (Int64.logxor h w) fnv_prime) (i + n)
  in
  go 0xCBF29CE484222325L 0

(* --- the witness tool ------------------------------------------------ *)

(** A lackey-shaped witness tool that also installs a no-op callback in
    every Table-1 event slot, so (a) the counted wrappers tick and (b)
    the core's stack-pointer instrumentation engages.  [fini] prints the
    helper counters and every event total: tool-output equality across
    ways is then exactly "exact tool event totals", and the instruction
    count is the [icnt] compared against native. *)
let witness : Vg_core.Tool.t =
  let open Vex_ir.Ir in
  {
    name = "vgfuzz";
    description = "differential-fuzzing witness";
    shadow_ranges = [];
    create =
      (fun caps ->
        let n_instrs = ref 0L and n_loads = ref 0L and n_stores = ref 0L in
        let ev = caps.Vg_core.Tool.events in
        ev.Vg_core.Events.pre_reg_read <-
          Some (fun ~syscall:_ ~off:_ ~size:_ -> ());
        ev.post_reg_write <- Some (fun ~syscall:_ ~off:_ ~size:_ -> ());
        ev.pre_mem_read <- Some (fun ~syscall:_ ~addr:_ ~len:_ -> ());
        ev.pre_mem_read_asciiz <- Some (fun ~syscall:_ ~addr:_ -> ());
        ev.pre_mem_write <- Some (fun ~syscall:_ ~addr:_ ~len:_ -> ());
        ev.post_mem_write <- Some (fun ~addr:_ ~len:_ -> ());
        ev.new_mem_startup <- Some (fun ~addr:_ ~len:_ ~defined:_ ~what:_ -> ());
        ev.new_mem_mmap <- Some (fun ~addr:_ ~len:_ -> ());
        ev.die_mem_munmap <- Some (fun ~addr:_ ~len:_ -> ());
        ev.new_mem_brk <- Some (fun ~addr:_ ~len:_ -> ());
        ev.die_mem_brk <- Some (fun ~addr:_ ~len:_ -> ());
        ev.copy_mem_mremap <- Some (fun ~src:_ ~dst:_ ~len:_ -> ());
        ev.new_mem_stack <- Some (fun ~addr:_ ~len:_ -> ());
        ev.die_mem_stack <- Some (fun ~addr:_ ~len:_ -> ());
        let counter name nargs r =
          caps.register_helper ~name ~cost:1 ~nargs (fun _ ->
              r := Int64.add !r 1L;
              0L)
        in
        let h_load = counter "fz_load" 2 n_loads in
        let h_store = counter "fz_store" 2 n_stores in
        let h_instr = counter "fz_instr" 0 n_instrs in
        let instrument (b : block) : block =
          let nb = empty_like b in
          let call callee args = add_stmt nb (dirty callee args) in
          Support.Vec.iter
            (fun s ->
              (match s with
              | WrTmp (_, Load (ty, addr)) ->
                  call h_load [ addr; i32 (Int64.of_int (size_of_ty ty)) ]
              | Store (addr, d) ->
                  call h_store
                    [ addr; i32 (Int64.of_int (size_of_ty (type_of nb d))) ]
              | _ -> ());
              add_stmt nb s;
              match s with IMark _ -> call h_instr [] | _ -> ())
            b.stmts;
          nb
        in
        {
          Vg_core.Tool.instrument;
          fini =
            (fun ~exit_code:_ ->
              caps.output
                (Printf.sprintf "==vgfuzz== instrs %Ld loads %Ld stores %Ld\n"
                   !n_instrs !n_loads !n_stores);
              List.iter
                (fun (group, name, count) ->
                  if count <> 0L then
                    caps.output
                      (Printf.sprintf "==vgfuzz== ev %s %s %Ld\n" group name
                         count))
                (Vg_core.Events.table1_rows ev));
          client_request = (fun ~code:_ ~args:_ -> None);
        });
  }

(* the witness's instruction count, read back from its report *)
let witness_icnt (tool_output : string) : int64 option =
  List.find_map
    (fun line -> Scanf.sscanf_opt line "==vgfuzz== instrs %Ld" Fun.id)
    (String.split_on_char '\n' tool_output)

(* --- ways and the runner --------------------------------------------- *)

type way = {
  w_name : string;
  w_native : bool;  (** the reference interpreter: the rest is unused *)
  w_options : S.options;  (** [chaos] and [rr] are set per run *)
  w_chaos : Chaos.config option;  (** a fresh schedule for every run *)
  w_replay : bool;
      (** record, then replay from the log; the outcome is the replay's *)
}

let way ?chaos ?(replay = false) name options =
  { w_name = name; w_native = false; w_options = options; w_chaos = chaos;
    w_replay = replay }

let native = { (way "native" S.default_options) with w_native = true }

let native_fuel = 30_000_000L

let blank name =
  {
    o_way = name;
    o_exit = Exit 0;
    o_regs = Array.make GA.n_regs 0L;
    o_eip = 0L;
    o_flags = 0L;
    o_mem = 0L;
    o_stdout = "";
    o_icnt = None;
    o_tool = "";
    o_stats = [];
    o_faults = [];
    o_replay = [];
    o_raised = None;
  }

let raised name e = { (blank name) with o_raised = Some (Verify.Verr.to_string e) }

(** The native reference run: [Guest.Interp] through {!Native}. *)
let run_native ?(files = []) (img : Guest.Image.t) : outcome =
  match
    let t = Native.create img in
    List.iter (fun (n, c) -> Kernel.add_file t.Native.kern n c) files;
    let er = Native.run ~max_insns:native_fuel t in
    let th =
      List.find (fun (x : Native.thread) -> x.Native.tid = 1) t.Native.threads
    in
    let st = th.Native.st in
    {
      (blank "native") with
      o_exit =
        (match er with
        | Native.Exited n -> Exit n
        | Native.Fatal_signal s -> Signal s
        | Native.Out_of_fuel -> Fuel);
      o_regs = Array.copy st.Guest.Interp.regs;
      o_eip = st.Guest.Interp.eip;
      o_flags = Guest.Interp.flags st;
      o_mem = hash_mem t.Native.mem img;
      o_stdout = Native.stdout_contents t;
      o_icnt = Some (Native.total_insns t);
    }
  with
  | o -> o
  | exception e -> raised "native" e

let of_session ~name ~faults (s : S.t) (er : S.exit_reason) : outcome =
  let threads = s.S.threads in
  let th =
    match Vg_core.Threads.find threads 1 with
    | Some th -> th
    | None -> failwith "main thread vanished"
  in
  let gs off = Vg_core.Threads.get_state threads th ~off ~size:4 in
  let tool = S.tool_output s in
  {
    o_way = name;
    o_exit =
      (match er with
      | S.Exited n -> Exit n
      | S.Fatal_signal s -> Signal s
      | S.Out_of_fuel -> Fuel);
    o_regs = Array.init GA.n_regs (fun r -> gs (GA.off_reg r));
    o_eip = gs GA.off_eip;
    o_flags =
      Guest.Flags.calculate ~op:(gs GA.off_cc_op) ~dep1:(gs GA.off_cc_dep1)
        ~dep2:(gs GA.off_cc_dep2) ~ndep:(gs GA.off_cc_ndep);
    o_mem = hash_mem s.S.mem s.S.image;
    o_stdout = S.client_stdout s;
    o_icnt = witness_icnt tool;
    o_tool = tool;
    o_stats = Obs.Registry.samples (S.metrics s);
    o_faults = faults;
    o_replay = S.replay_mismatches s;
    o_raised = None;
  }

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* <prefix>.jsonl + <prefix>.chrome.json (Chrome trace_event format) *)
let dump_trace (prefix : string) (s : S.t) =
  match S.trace s with
  | Some tr ->
      let dir = Filename.dirname prefix in
      if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      write_file (prefix ^ ".jsonl") (Obs.Trace.to_jsonl tr);
      write_file (prefix ^ ".chrome.json") (Obs.Trace.to_chrome tr)
  | None -> ()

(** One run of [tool] on [img] under [w].  Never raises: an escaping
    exception becomes [o_raised].  [trace_to] records the structured
    trace of the reported session into [<trace_to>.jsonl] and
    [<trace_to>.chrome.json], even when the run raised. *)
let run ?trace_to ?(files = []) (w : way) (tool : Vg_core.Tool.t)
    (img : Guest.Image.t) : outcome =
  if w.w_native then run_native ~files img
  else
    let chaos = Option.map Chaos.create w.w_chaos in
    let last = ref None in
    let trace_capacity =
      if trace_to = None then w.w_options.trace_capacity else 65536
    in
    let session rr =
      let options = { w.w_options with chaos; rr; trace_capacity } in
      let s = S.create ~options ~tool img in
      List.iter (fun (n, c) -> Kernel.add_file s.S.kern n c) files;
      last := Some s;
      s
    in
    let result =
      match
        if not w.w_replay then
          let s = session Replay.No_rr in
          (s, S.run s)
        else begin
          let rec_ = Replay.recorder () in
          ignore (S.run (session (Replay.Record rec_)));
          (* the replay is built from the log and a trace ring alone:
             an option the codec drops fails [Replayed] *)
          let s =
            S.replaying ~trace_capacity ~tool img
              (Replay.decode (Replay.to_string rec_))
          in
          last := Some s;
          (s, S.run s)
        end
      with
      | s, er ->
          let faults =
            match chaos with Some c -> Chaos.log_lines c | None -> []
          in
          (try of_session ~name:w.w_name ~faults s er
           with e -> raised w.w_name e)
      | exception e -> raised w.w_name e
    in
    (match (trace_to, !last) with
    | Some prefix, Some s -> dump_trace prefix s
    | _ -> ());
    result

(* --- the comparator -------------------------------------------------- *)

type relation =
  | Native  (** architecture, memory, stdout and icnt equal native's *)
  | Output  (** exit, stdout and tool output equal the base way's *)
  | Result  (** exit and stdout equal the base way's *)
  | Rerun  (** a second run of the same way is bit-identical *)
  | Replayed  (** every replay trailer digest matched *)
  | Cfg_sound  (** the static-CFG soundness oracle saw no miss *)
  | Aot_sound  (** no miss, some blocks checked, some blocks AOT-seeded *)

type divergence = {
  dv_engine : string;  (** the way that diverged *)
  dv_field : string;
  dv_ref : string;
  dv_got : string;
}

let pp_divergence d =
  Printf.sprintf "[%s] %s: reference=%s got=%s" d.dv_engine d.dv_field
    d.dv_ref d.dv_got

let sample_str = function
  | Obs.Registry.I v -> Int64.to_string v
  | Obs.Registry.F f -> Printf.sprintf "%g" f

(** Check [rel] of [o] against [base].  Unary relations ([Replayed],
    [Cfg_sound], [Aot_sound]) look at [o] only. *)
let compare (rel : relation) ~(base : outcome) (o : outcome) :
    divergence list =
  let ds = ref [] in
  let fail field r g =
    ds := { dv_engine = o.o_way; dv_field = field; dv_ref = r; dv_got = g } :: !ds
  in
  let i64 field a b =
    if a <> b then fail field (Printf.sprintf "0x%Lx" a) (Printf.sprintf "0x%Lx" b)
  in
  let str field a b = if a <> b then fail field (String.escaped a) (String.escaped b) in
  let exit_ () =
    if base.o_exit <> o.o_exit then
      fail "exit" (exit_kind_str base.o_exit) (exit_kind_str o.o_exit)
  in
  let regs () =
    for r = 0 to GA.n_regs - 1 do
      i64 (Printf.sprintf "r%d" r) base.o_regs.(r) o.o_regs.(r)
    done;
    i64 "flags" base.o_flags o.o_flags;
    i64 "eip" base.o_eip o.o_eip
  in
  let stdout () = str "stdout" base.o_stdout o.o_stdout in
  let tool () = str ("tool-output vs " ^ base.o_way) base.o_tool o.o_tool in
  let counter name ok what =
    match List.assoc_opt name o.o_stats with
    | Some (Obs.Registry.I v) when ok v -> ()
    | v -> fail name what (Option.fold ~none:"missing" ~some:sample_str v)
  in
  let cfg_sound () = counter "static.cfg_miss" (fun v -> v = 0L) "0" in
  (match rel with
  | Native ->
      exit_ ();
      (match base.o_exit with
      | Exit _ | Fuel -> regs ()
      | Signal _ ->
          (* only the precise-exception registers are guaranteed at a fault *)
          i64 "eip@fault" base.o_eip o.o_eip;
          i64 "sp@fault" base.o_regs.(GA.reg_sp) o.o_regs.(GA.reg_sp);
          i64 "fp@fault" base.o_regs.(GA.reg_fp) o.o_regs.(GA.reg_fp));
      i64 "memhash" base.o_mem o.o_mem;
      (match (base.o_icnt, o.o_icnt) with
      | Some a, Some b -> i64 "icnt" a b
      | _ -> ());
      stdout ()
  | Output ->
      exit_ ();
      stdout ();
      tool ()
  | Result ->
      exit_ ();
      stdout ()
  | Rerun ->
      exit_ ();
      regs ();
      i64 "memhash" base.o_mem o.o_mem;
      let icnt o = Option.value ~default:(-1L) o.o_icnt in
      i64 "icnt" (icnt base) (icnt o);
      stdout ();
      tool ();
      (* the entries on either side that the other lacks *)
      let only a b =
        List.filter (fun x -> not (List.mem x b)) a
        |> List.map (fun (k, v) -> k ^ "=" ^ sample_str v)
        |> String.concat " "
      in
      if base.o_stats <> o.o_stats then
        fail "stats" (only base.o_stats o.o_stats) (only o.o_stats base.o_stats);
      if base.o_faults <> o.o_faults then
        fail "fault-log"
          (Printf.sprintf "%d faults" (List.length base.o_faults))
          (Printf.sprintf "%d faults" (List.length o.o_faults))
  | Replayed ->
      List.iter (fun (k, want, got) -> fail ("digest:" ^ k) want got) o.o_replay
  | Cfg_sound -> cfg_sound ()
  | Aot_sound ->
      cfg_sound ();
      counter "static.cfg_checked" (fun v -> v > 0L) "> 0";
      counter "jit.aot.seeded" (fun v -> v > 0L) "> 0");
  List.rev !ds

(* --- corpora, cells and the engine ----------------------------------- *)

type item = {
  i_name : string;
  i_image : unit -> Guest.Image.t;
  i_files : (string * string) list;  (** simulated files the client reads *)
  i_exit : int option;  (** the exit every run must reach, when fixed *)
  i_gen : (int * int * bool) option;
      (** a generated program's (seed, size, faulty), for shrinking *)
}

let item ?(files = []) ?exit ?gen name image =
  { i_name = name; i_image = image; i_files = files; i_exit = exit; i_gen = gen }

type check = { c_rel : relation; c_way : string; c_base : string }

(** [vs rel way base]: [way]'s outcome against [base]'s. *)
let vs c_rel c_way c_base = { c_rel; c_way; c_base }

(** [holds rel way]: a unary relation, or [Rerun] against a second run. *)
let holds c_rel c_way = { c_rel; c_way; c_base = c_way }

(** A way-set × corpus × tools matrix: every way runs on every
    (item, tool) cell, then every check must hold. *)
type cells = {
  label : string;  (** e.g. the chaos seed; "" when there is one group *)
  items : item list;
  tools : (string * Vg_core.Tool.t) list;
  ways : way list;
  checks : check list;
}

(* what every run must satisfy: nothing escaped, and the item's fixed
   exit when it has one *)
let sane (it : item) (o : outcome) : divergence list =
  match (o.o_raised, it.i_exit) with
  | Some e, _ ->
      [ { dv_engine = o.o_way; dv_field = "raised"; dv_ref = "no exception";
          dv_got = e } ]
  | None, Some n when o.o_exit <> Exit n ->
      [ { dv_engine = o.o_way; dv_field = "exit"; dv_ref = exit_kind_str (Exit n);
          dv_got = exit_kind_str o.o_exit } ]
  | None, _ -> []

let cells ?(label = "") items tools ways checks = { label; items; tools; ways; checks }

let sanitize s =
  String.map
    (fun ch ->
      match ch with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> ch | _ -> '_')
    s

(** Run every way of [c] on one cell and apply every check.  [trace_to]
    traces each session way into [<trace_to>-<way>.*]. *)
let run_cell ?trace_to (c : cells) (it : item)
    ((_, tool) : string * Vg_core.Tool.t) : divergence list =
  let img = it.i_image () in
  let run1 w =
    let trace_to = Option.map (fun p -> p ^ "-" ^ sanitize w.w_name) trace_to in
    run ?trace_to ~files:it.i_files w tool img
  in
  let outcomes = List.map (fun w -> (w, run1 w)) c.ways in
  let get name =
    match List.find_opt (fun (w, _) -> w.w_name = name) outcomes with
    | Some wo -> wo
    | None -> invalid_arg ("Diff: no way named " ^ name)
  in
  List.concat_map (fun (_, o) -> sane it o) outcomes
  @ List.concat_map
      (fun ck ->
        let w, o = get ck.c_way in
        match ck.c_rel with
        | Rerun ->
            let o2 = run1 w in
            sane it o2
            @ List.map
                (fun d -> { d with dv_field = "rerun " ^ d.dv_field })
                (compare Rerun ~base:o o2)
        | rel -> compare rel ~base:(snd (get ck.c_base)) o)
      c.checks

(* --- the sets -------------------------------------------------------- *)

(* a named client is built once per set, not once per cell (images are
   read-only: every session loads its own copy) *)
let once f =
  let l = lazy (f ()) in
  fun () -> Lazy.force l

let workload ?exit name =
  item ?exit name
    (once (fun () ->
         match Workloads.find name with
         | Some w -> Workloads.compile ~scale:1 w
         | None -> invalid_arg ("Diff: unknown workload " ^ name)))

let corpus4 () = List.map workload [ "gcc"; "mcf"; "perlbmk"; "vortex" ]

let io () =
  item ~files:[ Clients.io_file () ] "io"
    (once (fun () -> Minicc.Driver.compile Clients.io_src))

let threads () =
  item "threads" (once (fun () -> Minicc.Driver.compile Clients.threaded_src))

let threads4 ?exit () =
  item ?exit "threads4" (once (fun () -> Guest.Asm.assemble Clients.threads4_src))

let signal () =
  item ~exit:42 "signal"
    (once (fun () -> Guest.Asm.assemble Clients.signal_src))

(** Generated program [i] of base seed [s] comes from seed
    [s * 1_000_003 + i] at size [1 + i mod 20]; every 10th may fault on
    purpose.  [count] programs are split across the base seeds. *)
let generated_item ~seed ~size ~faulty =
  item ~gen:(seed, size, faulty)
    (Gen.name ~seed ~size ^ if faulty then "_faulty" else "")
    (fun () -> Gen.image ~faulty ~seed ~size ())

let generated ~(seeds : int list) ~(count : int) : item list =
  let per = (count + max 1 (List.length seeds) - 1) / max 1 (List.length seeds) in
  List.concat_map (fun base -> List.init per (fun i -> (base, i))) seeds
  |> List.filteri (fun k _ -> k < count)
  |> List.map (fun (base, i) ->
         generated_item ~seed:((base * 1_000_003) + i) ~size:(1 + (i mod 20))
           ~faulty:(i mod 10 = 9))

(* the fuzz set's session base: a small code cache so chunk eviction
   happens, and fuel so a runaway program ends *)
let fuzz_base () =
  { S.default_options with max_blocks = 2_000_000L; transtab_capacity = 256;
    verify_jit = false }

(** The fuzz set over [items] under the witness tool: every session way
    against native, tool output agreeing with [c1], and the replay's
    digests. *)
let fuzz_cells (items : item list) : cells =
  let b = fuzz_base () in
  let sessions =
    [
      way "c1" { b with verify_jit = true };
      way "c2" { b with cores = 2 };
      way "aot" { b with aot_seed = true; scan = true };
      way "chaos:7" ~chaos:(Chaos.idempotent ~seed:7) b;
      way "replay" ~replay:true { b with verify_jit = true };
      way "no-chaining" { b with chaining = false };
      way "tier0-only" { b with promote_threshold = 0; trace_threshold = 0 };
      way "no-tier0" { b with tier0 = false };
      way "hot" { b with promote_threshold = 1; trace_threshold = 1 };
      way "tiny-transtab" { b with transtab_capacity = 8 };
      way "smc-all" { b with smc_mode = S.Smc_all };
      way "observed" { b with profile = true; trace_capacity = 4096 };
    ]
  in
  cells items [ ("witness", witness) ] (native :: sessions)
    (holds Replayed "replay"
    :: List.concat_map
         (fun w ->
           vs Native w.w_name "native"
           :: (if w.w_name = "c1" then [] else [ vs Output w.w_name "c1" ]))
         sessions)

(** Every way of the fuzz set on one image. *)
let check (img : Guest.Image.t) : divergence list =
  let it = item "image" (fun () -> img) in
  run_cell (fuzz_cells [ it ]) it ("witness", witness)

(* Fault injection: per seed, the paper corpus plus [io] under every
   tool (the idempotent schedule is invisible, both schedules rerun
   exactly), the threaded client at two cores under the sharded
   schedule, and mcf at two cores under the idempotent one. *)
let chaos ~seeds =
  let base =
    { S.default_options with max_blocks = 10_000L; verify_jit = false;
      transtab_capacity = 256 }
  in
  let at2 = { base with cores = 2 } in
  List.concat_map
    (fun seed ->
      let label = Printf.sprintf "seed %d" seed in
      let plain = way "plain" base in
      [
        cells ~label (corpus4 () @ [ io () ]) Tools.Catalog.all
          [ plain; way "idempotent" ~chaos:(Chaos.idempotent ~seed) base;
            way "hostile" ~chaos:(Chaos.hostile ~seed) base ]
          [ vs Output "idempotent" "plain"; holds Rerun "idempotent";
            holds Rerun "hostile" ];
        cells ~label [ threads () ]
          (Tools.Catalog.pick [ "nulgrind"; "lackey"; "memcheck" ])
          [ way "plain@2" at2; way "sharded@2" ~chaos:(Chaos.sharded ~seed) at2 ]
          [ holds Rerun "sharded@2" ];
        cells ~label [ workload "mcf" ] (Tools.Catalog.pick [ "memcheck" ])
          [ plain; way "idempotent@2" ~chaos:(Chaos.idempotent ~seed) at2 ]
          [ vs Output "idempotent@2" "plain" ];
      ])
    seeds

(* The JIT verifiers over every pipeline shape: tiered with aggressive
   promotion and superblock thresholds, and tier-0 only.  A verifier
   error raises, so "no run raises" is "no false positive". *)
let verify () =
  let base = { S.default_options with max_blocks = 50_000L; scan = true } in
  [
    cells (corpus4 ()) Tools.Catalog.all
      [ way "tiered" { base with promote_threshold = 8; trace_threshold = 64 };
        way "tier0-only" { base with promote_threshold = 0; trace_threshold = 0 } ]
      [ holds Cfg_sound "tiered"; holds Cfg_sound "tier0-only" ];
  ]

(* AOT seeding over all 22 workloads: the oracle checked blocks and
   missed none, seeding happened, and client output is unchanged. *)
let aot () =
  let base = { S.default_options with max_blocks = 50_000L } in
  [
    cells
      (List.map (fun (w : Workloads.workload) -> workload w.w_name) Workloads.all)
      (Tools.Catalog.pick [ "nulgrind" ])
      [ way "unseeded" base; way "seeded" { base with scan = true; aot_seed = true } ]
      [ holds Aot_sound "seeded"; vs Result "seeded" "unseeded" ];
  ]

(* The hostile corpus ({!Static.Hostile}): every guest reaches its exit
   natively and under every tool, reruns exactly, keeps its result under
   an idempotent schedule, and a scanning session with the JIT verifiers
   on takes no block the static CFG missed, so hostile code the
   executors accept is fully covered. *)
let hostile () =
  let base =
    { S.default_options with max_blocks = 200_000L; verify_jit = false;
      transtab_capacity = 256 }
  in
  [
    cells
      (List.map
         (fun (g : Static.Hostile.guest) ->
           item ?exit:g.h_exit g.h_name (fun () -> g.h_image))
         (Static.Hostile.all ()))
      Tools.Catalog.all
      [ native; way "plain" base; way "idempotent" ~chaos:(Chaos.idempotent ~seed:3) base;
        way "scan" { base with scan = true; verify_jit = true } ]
      [ holds Rerun "plain"; vs Result "idempotent" "plain"; holds Cfg_sound "scan" ];
  ]

(* Sharded scheduling: a single-threaded and a four-thread client give
   the same output at 1, 2 and 4 cores. *)
let cores () =
  let at n = way (Printf.sprintf "c%d" n) { S.default_options with cores = n } in
  [
    cells [ workload ~exit:0 "mcf"; threads4 ~exit:0 () ] Tools.Catalog.all
      [ at 1; at 2; at 4 ]
      [ vs Output "c2" "c1"; vs Output "c4" "c1" ];
  ]

(* Record/replay: the recorded run re-executes from its log with every
   trailer digest matching, plain and under a hostile schedule.  The
   signal client and threads4 at two cores under the sharded schedule
   put every logged decision kind into a replay: signal deliveries,
   flushes, handoff stalls, retire delays and condemned translations. *)
let replay () =
  let b = S.default_options in
  let sharded seed =
    let name = Printf.sprintf "sharded:%d@2" seed in
    cells ~label:name [ threads4 ~exit:0 () ] Tools.Catalog.all
      [ way name ~replay:true ~chaos:(Chaos.sharded ~seed)
          { b with cores = 2 } ]
      [ holds Replayed name ]
  in
  [
    cells (corpus4 ())
      (Tools.Catalog.pick [ "nulgrind"; "memcheck"; "lackey"; "cachegrind" ])
      [ way "replay" ~replay:true b ]
      [ holds Replayed "replay" ];
    cells ~label:"hostile:7" (corpus4 ()) (Tools.Catalog.pick [ "memcheck" ])
      [ way "hostile:7" ~replay:true ~chaos:(Chaos.hostile ~seed:7) b ]
      [ holds Replayed "hostile:7" ];
    cells [ signal () ] Tools.Catalog.all
      [ way "replay" ~replay:true b ]
      [ holds Replayed "replay" ];
    sharded 1;
    sharded 7;
  ]

(** The named sweeps.  [seeds] are chaos seeds for [chaos] and base
    generator seeds for [fuzz]; [count] is the number of generated
    programs. *)
let sets : (string * (seeds:int list -> count:int -> cells list)) list =
  [
    ("fuzz", fun ~seeds ~count -> [ fuzz_cells (generated ~seeds ~count) ]);
    ("chaos", fun ~seeds ~count:_ -> chaos ~seeds);
    ("verify", fun ~seeds:_ ~count:_ -> verify ());
    ("aot", fun ~seeds:_ ~count:_ -> aot ());
    ("hostile", fun ~seeds:_ ~count:_ -> hostile ());
    ("cores", fun ~seeds:_ ~count:_ -> cores ());
    ("replay", fun ~seeds:_ ~count:_ -> replay ());
  ]
