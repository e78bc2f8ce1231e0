(** Differential execution of one guest image across the native
    reference interpreter and the full instrumented session.

    The architectural result of a run is everything the paper's
    soundness claim covers: exit disposition, the final register file
    and materialised flags, a hash of client data memory, client
    stdout, and the retired-instruction count.  A session run adds the
    tool view: the witness tool's output, which folds in its helper
    counters (instructions/loads/stores) and the fired Table-1 event
    totals — so "exact tool event totals" is part of the oracle, not a
    separate channel.

    Comparison policy — what counts as an explained difference:
    - on a clean exit everything must match, bit for bit;
    - on a fatal signal the signal number, faulting PC, sp, fp, memory
      image, stdout and icnt must match, but scratch registers and the
      flags thunk may be stale in the session: the optimiser only keeps
      eip/sp/fp precise across potentially-faulting statements (VEX's
      precise-memory-exceptions set, {!Jit.Opt.precise_offsets}), so a
      dead-store-eliminated scratch PUT is not a soundness bug;
    - tool output must be identical across *session* variants (native
      has no tool), fuel exhaustion is compared like any other exit. *)

module GA = Guest.Arch

type exit_kind = Exit of int | Signal of int | Fuel

let exit_kind_str = function
  | Exit n -> Printf.sprintf "exit %d" n
  | Signal s -> Printf.sprintf "signal %d" s
  | Fuel -> "fuel"

type outcome = {
  o_engine : string;
  o_exit : exit_kind;
  o_regs : int64 array;  (** r0..r7 *)
  o_eip : int64;
  o_flags : int64;  (** materialised from the thunk *)
  o_mem : int64;  (** FNV-1a over the data+bss segment *)
  o_stdout : string;
  o_icnt : int64;
  o_tool : string;  (** "" for the native reference *)
}

(* --- memory hashing -------------------------------------------------- *)

let fnv_prime = 0x100000001B3L

let hash_mem (mem : Aspace.t) (img : Guest.Image.t) : int64 =
  let len = Bytes.length img.Guest.Image.data + img.Guest.Image.bss_len in
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to len - 1 do
    let b =
      Aspace.read mem (Int64.add img.Guest.Image.data_addr (Int64.of_int i)) 1
    in
    h := Int64.mul (Int64.logxor !h b) fnv_prime
  done;
  !h

(* --- the witness tool ------------------------------------------------ *)

type totals = {
  mutable n_instrs : int64;
  mutable n_loads : int64;
  mutable n_stores : int64;
}

(** A lackey-shaped witness tool that also installs a no-op callback in
    every Table-1 event slot, so (a) the counted wrappers tick and (b)
    the core's stack-pointer instrumentation engages.  [fini] prints the
    helper counters and every event total: tool-output equality across
    session variants is then exactly "exact tool event totals". *)
let witness_tool () : Vg_core.Tool.t * totals =
  let tot = { n_instrs = 0L; n_loads = 0L; n_stores = 0L } in
  let open Vex_ir.Ir in
  let tool : Vg_core.Tool.t =
    {
      name = "vgfuzz";
      description = "differential-fuzzing witness";
      shadow_ranges = [];
      create =
        (fun caps ->
          let ev = caps.Vg_core.Tool.events in
          ev.Vg_core.Events.pre_reg_read <-
            Some (fun ~syscall:_ ~off:_ ~size:_ -> ());
          ev.post_reg_write <- Some (fun ~syscall:_ ~off:_ ~size:_ -> ());
          ev.pre_mem_read <- Some (fun ~syscall:_ ~addr:_ ~len:_ -> ());
          ev.pre_mem_read_asciiz <- Some (fun ~syscall:_ ~addr:_ -> ());
          ev.pre_mem_write <- Some (fun ~syscall:_ ~addr:_ ~len:_ -> ());
          ev.post_mem_write <- Some (fun ~addr:_ ~len:_ -> ());
          ev.new_mem_startup <-
            Some (fun ~addr:_ ~len:_ ~defined:_ ~what:_ -> ());
          ev.new_mem_mmap <- Some (fun ~addr:_ ~len:_ -> ());
          ev.die_mem_munmap <- Some (fun ~addr:_ ~len:_ -> ());
          ev.new_mem_brk <- Some (fun ~addr:_ ~len:_ -> ());
          ev.die_mem_brk <- Some (fun ~addr:_ ~len:_ -> ());
          ev.copy_mem_mremap <- Some (fun ~src:_ ~dst:_ ~len:_ -> ());
          ev.new_mem_stack <- Some (fun ~addr:_ ~len:_ -> ());
          ev.die_mem_stack <- Some (fun ~addr:_ ~len:_ -> ());
          let h_load =
            caps.register_helper ~name:"fz_load" ~cost:1 ~nargs:2 (fun _ ->
                tot.n_loads <- Int64.add tot.n_loads 1L;
                0L)
          in
          let h_store =
            caps.register_helper ~name:"fz_store" ~cost:1 ~nargs:2 (fun _ ->
                tot.n_stores <- Int64.add tot.n_stores 1L;
                0L)
          in
          let h_instr =
            caps.register_helper ~name:"fz_instr" ~cost:1 ~nargs:0 (fun _ ->
                tot.n_instrs <- Int64.add tot.n_instrs 1L;
                0L)
          in
          let instrument (b : block) : block =
            let nb =
              {
                tyenv = Support.Vec.copy b.tyenv;
                stmts = Support.Vec.create NoOp;
                next = b.next;
                jumpkind = b.jumpkind;
              }
            in
            let call callee args =
              add_stmt nb
                (Dirty
                   {
                     d_guard = i1 true;
                     d_callee = callee;
                     d_args = args;
                     d_tmp = None;
                     d_mfx = Mfx_none;
                   })
            in
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
                  (Printf.sprintf
                     "==vgfuzz== instrs %Ld loads %Ld stores %Ld\n"
                     tot.n_instrs tot.n_loads tot.n_stores);
                List.iter
                  (fun (group, name, count) ->
                    if count <> 0L then
                      caps.output
                        (Printf.sprintf "==vgfuzz== ev %s %s %Ld\n" group
                           name count))
                  (Vg_core.Events.table1_rows ev));
            client_request = (fun ~code:_ ~args:_ -> None);
          });
    }
  in
  (tool, tot)

(* --- engines --------------------------------------------------------- *)

let native_fuel = 30_000_000L
let session_fuel = 2_000_000L

(** The native reference run: [Guest.Interp] through {!Native}. *)
let run_native (img : Guest.Image.t) : outcome =
  let t = Native.create img in
  let er = Native.run ~max_insns:native_fuel t in
  let th =
    List.find (fun (x : Native.thread) -> x.Native.tid = 1) t.Native.threads
  in
  let st = th.Native.st in
  {
    o_engine = "interp";
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
    o_icnt = Native.total_insns t;
    o_tool = "";
  }

type variant = {
  v_name : string;
  v_cores : int;
  v_aot : bool;
  v_chaos : int option;  (** idempotent-schedule seed *)
  v_degrade : bool;  (** force every block through interp fallback *)
}

let variants =
  [
    { v_name = "jit-c1"; v_cores = 1; v_aot = false; v_chaos = None;
      v_degrade = false };
    { v_name = "jit-c2"; v_cores = 2; v_aot = false; v_chaos = None;
      v_degrade = false };
    { v_name = "jit-aot"; v_cores = 1; v_aot = true; v_chaos = None;
      v_degrade = false };
    { v_name = "jit-chaos"; v_cores = 1; v_aot = false; v_chaos = Some 7;
      v_degrade = false };
  ]

let outcome_of_session ~(name : string) ~(tot : totals)
    (s : Vg_core.Session.t) (er : Vg_core.Session.exit_reason)
    (img : Guest.Image.t) : outcome =
  let th =
    match Vg_core.Threads.find s.Vg_core.Session.threads 1 with
    | Some th -> th
    | None -> failwith "vgfuzz: main thread vanished"
  in
  let threads = s.Vg_core.Session.threads in
  let gs off = Vg_core.Threads.get_state threads th ~off ~size:4 in
  {
    o_engine = name;
    o_exit =
      (match er with
      | Vg_core.Session.Exited n -> Exit n
      | Vg_core.Session.Fatal_signal s -> Signal s
      | Vg_core.Session.Out_of_fuel -> Fuel);
    o_regs = Array.init GA.n_regs (fun r -> gs (GA.off_reg r));
    o_eip = gs GA.off_eip;
    o_flags =
      Guest.Flags.calculate ~op:(gs GA.off_cc_op) ~dep1:(gs GA.off_cc_dep1)
        ~dep2:(gs GA.off_cc_dep2) ~ndep:(gs GA.off_cc_ndep);
    o_mem = hash_mem s.Vg_core.Session.mem img;
    o_stdout = Vg_core.Session.client_stdout s;
    o_icnt = tot.n_instrs;
    o_tool = Vg_core.Session.tool_output s;
  }

(** One full session run under the witness tool. *)
let run_session ?(verify = false) (v : variant) (img : Guest.Image.t) :
    outcome =
  let tool, tot = witness_tool () in
  let chaos =
    match (v.v_chaos, v.v_degrade) with
    | Some seed, _ -> Some (Chaos.create (Chaos.idempotent ~seed))
    | None, true ->
        (* every translation refused: the whole program runs through the
           graceful-degradation IR evaluator *)
        Some
          (Chaos.create
             {
               (Chaos.idempotent ~seed:1) with
               Chaos.p_eintr = 0.0;
               p_errno = 0.0;
               p_short = 0.0;
               p_map_denial = 0.0;
               p_flush = 0.0;
               p_translation_failure = 1.0;
               max_injections = 0 (* uncapped *);
             })
    | None, false -> None
  in
  let options =
    {
      Vg_core.Session.default_options with
      cores = v.v_cores;
      aot_seed = v.v_aot;
      scan = v.v_aot;
      chaos;
      max_blocks = session_fuel;
      verify_jit = verify;
      transtab_capacity = 256;
    }
  in
  let s = Vg_core.Session.create ~options ~tool img in
  let er = Vg_core.Session.run s in
  outcome_of_session
    ~name:(v.v_name ^ if v.v_degrade then "+degrade" else "")
    ~tot s er img

(* --- comparison ------------------------------------------------------ *)

type divergence = {
  dv_engine : string;
  dv_field : string;
  dv_ref : string;
  dv_got : string;
}

let pp_divergence d =
  Printf.sprintf "[%s] %s: reference=%s got=%s" d.dv_engine d.dv_field
    d.dv_ref d.dv_got

(** The sixth way: record the plain jit-c1 run, then re-execute it
    purely from the log — the kernel never runs, every syscall result
    and signal delivery comes off the event stream — and compare the
    replayed outcome like any other engine.  Trailer-digest mismatches
    are reported as their own divergences. *)
let run_replayed (img : Guest.Image.t) : outcome * divergence list =
  let tool, _tot = witness_tool () in
  let rec_ = Replay.recorder () in
  let options =
    {
      Vg_core.Session.default_options with
      max_blocks = session_fuel;
      transtab_capacity = 256;
      rr = Replay.Record rec_;
    }
  in
  let s = Vg_core.Session.create ~options ~tool img in
  ignore (Vg_core.Session.run s);
  let tool2, tot2 = witness_tool () in
  let p = Replay.player_of_string (Replay.to_string rec_) in
  let options2 = { options with rr = Replay.Replay p } in
  let s2 = Vg_core.Session.create ~options:options2 ~tool:tool2 img in
  let er, diverged =
    try (Vg_core.Session.run s2, None)
    with Replay.Divergence _ as e -> (Vg_core.Session.Exited 255, Some e)
  in
  let ds =
    match diverged with
    | Some e ->
        [
          {
            dv_engine = "jit-replay";
            dv_field = "replay";
            dv_ref = "bit-identical re-execution";
            dv_got = Printexc.to_string e;
          };
        ]
    | None ->
        List.map
          (fun (k, want, got) ->
            {
              dv_engine = "jit-replay";
              dv_field = "digest:" ^ k;
              dv_ref = want;
              dv_got = got;
            })
          (Vg_core.Session.replay_mismatches s2)
  in
  (outcome_of_session ~name:"jit-replay" ~tot:tot2 s2 er img, ds)

(** Compare a session outcome against the native reference. *)
let against_native ~(ref_ : outcome) (o : outcome) : divergence list =
  let ds = ref [] in
  let fail field r g =
    ds := { dv_engine = o.o_engine; dv_field = field; dv_ref = r; dv_got = g }
          :: !ds
  in
  let eq_i64 field a b =
    if a <> b then fail field (Printf.sprintf "0x%Lx" a)
        (Printf.sprintf "0x%Lx" b)
  in
  if ref_.o_exit <> o.o_exit then
    fail "exit" (exit_kind_str ref_.o_exit) (exit_kind_str o.o_exit);
  (match ref_.o_exit with
  | Exit _ | Fuel ->
      for r = 0 to GA.n_regs - 1 do
        eq_i64 (Printf.sprintf "r%d" r) ref_.o_regs.(r) o.o_regs.(r)
      done;
      eq_i64 "flags" ref_.o_flags o.o_flags;
      eq_i64 "eip" ref_.o_eip o.o_eip
  | Signal _ ->
      (* only the precise-exception registers are guaranteed at a fault *)
      eq_i64 "eip@fault" ref_.o_eip o.o_eip;
      eq_i64 "sp@fault" ref_.o_regs.(GA.reg_sp) o.o_regs.(GA.reg_sp);
      eq_i64 "fp@fault" ref_.o_regs.(GA.reg_fp) o.o_regs.(GA.reg_fp));
  eq_i64 "memhash" ref_.o_mem o.o_mem;
  eq_i64 "icnt" ref_.o_icnt o.o_icnt;
  if ref_.o_stdout <> o.o_stdout then
    fail "stdout" (String.escaped ref_.o_stdout) (String.escaped o.o_stdout);
  List.rev !ds

(** Tool-output equality across session variants. *)
let tool_agreement (sessions : outcome list) : divergence list =
  match sessions with
  | [] | [ _ ] -> []
  | first :: rest ->
      List.filter_map
        (fun o ->
          if o.o_tool <> first.o_tool then
            Some
              {
                dv_engine = o.o_engine;
                dv_field = "tool-output vs " ^ first.o_engine;
                dv_ref = first.o_tool;
                dv_got = o.o_tool;
              }
          else None)
        rest

(** Run one image everywhere and collect every divergence. *)
let check ?(verify = true) (img : Guest.Image.t) : divergence list =
  let ref_ = run_native img in
  let sessions =
    List.map
      (fun v -> run_session ~verify:(verify && v.v_name = "jit-c1") v img)
      variants
  in
  let replayed, replay_ds = run_replayed img in
  let sessions = sessions @ [ replayed ] in
  List.concat_map (against_native ~ref_) sessions
  @ tool_agreement sessions @ replay_ds
