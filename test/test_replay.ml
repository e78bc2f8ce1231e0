(* Vgrewind tier-1 tests: record/replay bit-identity across every tool,
   threaded clients, chaos fault schedules; time-travel (seek / back)
   by re-execution; and the satellite bug fixes (massif's closing
   timeline snapshot, the short-IO counter, divergence reporting). *)

let t name f = Alcotest.test_case name `Quick f

let all_tools : Vg_core.Tool.t list = List.map snd Tools.Catalog.all

(* ---- the program matrix ---------------------------------------------- *)

let io_src =
  {|
int main() {
  int fd; int n; int total; int buf;
  fd = open("data.txt", 0);
  if (fd < 0) { return 1; }
  total = 0;
  n = read(fd, &buf, 4);
  while (n > 0) { total = total + n; n = read(fd, &buf, 4); }
  close(fd);
  print_str("read "); print_int(total); print_str(" bytes\n");
  return 0;
}
|}

type prog = {
  pr_name : string;
  pr_img : unit -> Guest.Image.t;
  pr_files : (string * string) list;  (** simulated files, record side only *)
  pr_cores : int list;
}

let progs =
  [
    {
      pr_name = "hello";
      pr_img = (fun () -> Minicc.Driver.compile Test_sched.compute_src);
      pr_files = [];
      pr_cores = [ 1 ];
    };
    {
      pr_name = "threads4";
      pr_img = (fun () -> Guest.Asm.assemble Test_sched.four_thread_src);
      pr_files = [];
      pr_cores = [ 1; 2 ];
    };
    {
      pr_name = "io";
      pr_img = (fun () -> Minicc.Driver.compile io_src);
      pr_files = [ ("data.txt", String.make 100 'z') ];
      pr_cores = [ 1 ];
    };
  ]

(* ---- record / replay harness ----------------------------------------- *)

let record_session ?(base = Vg_core.Session.default_options) ?chaos ~tool
    ~cores (pr : prog) : Vg_core.Session.t * string =
  let rec_ = Replay.recorder () in
  let options = { base with cores; chaos; rr = Replay.Record rec_ } in
  let s = Vg_core.Session.create ~options ~tool (pr.pr_img ()) in
  List.iter (fun (n, c) -> Kernel.add_file s.kern n c) pr.pr_files;
  ignore (Vg_core.Session.run s);
  (s, Replay.to_string rec_)

(* NB: the replay side never sees [pr_files] — recorded syscall effects
   must reconstruct all client-visible IO, or the digests drift.  Its
   options come from the log alone. *)
let replay_session ~tool (pr : prog) (data : string) : Vg_core.Session.t =
  Vg_core.Session.replaying ~tool (pr.pr_img ()) (Replay.decode data)

(* ---- bit-identity across the full matrix ----------------------------- *)

(* every replay trailer digest matches, through the oracle's replay way *)
let test_matrix () =
  List.iter
    (fun tool ->
      List.iter
        (fun pr ->
          List.iter
            (fun cores ->
              let w =
                Fuzz.Diff.way ~replay:true "replay"
                  { Vg_core.Session.default_options with cores }
              in
              let o = Fuzz.Diff.run ~files:pr.pr_files w tool (pr.pr_img ()) in
              match (o.o_raised, o.o_replay) with
              | None, [] -> ()
              | raised, ms ->
                  Alcotest.failf "%s/%s cores=%d diverged: %s" tool.Vg_core.Tool.name
                    pr.pr_name cores
                    (String.concat "; "
                       (Option.to_list raised
                       @ List.map
                           (fun (k, want, got) ->
                             Printf.sprintf "%s recorded=%s replayed=%s" k want got)
                           ms)))
            pr.pr_cores)
        progs)
    all_tools

(* ---- chaos: injected faults land in the log and replay exactly ------- *)

let test_chaos_roundtrip () =
  let io = List.find (fun p -> p.pr_name = "io") progs in
  List.iter
    (fun seed ->
      let c = Chaos.create (Chaos.hostile ~seed) in
      let rec_s, data =
        record_session ~chaos:c ~tool:Tools.Memcheck.tool ~cores:1 io
      in
      let s = replay_session ~tool:Tools.Memcheck.tool io data in
      ignore (Vg_core.Session.run s);
      (match Vg_core.Session.replay_mismatches s with
      | [] -> ()
      | ms ->
          Alcotest.failf "chaos seed %d diverged on %s" seed
            (String.concat "," (List.map (fun (k, _, _) -> k) ms)));
      (* the client-visible short-IO outcome is part of the identity:
         same console bytes, same wrapper counters *)
      Alcotest.(check string)
        (Printf.sprintf "seed %d: stdout" seed)
        (Kernel.stdout_contents rec_s.kern)
        (Kernel.stdout_contents s.kern);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: short-io counter" seed)
        rec_s.sysw.Vg_core.Syswrap.n_short_io s.sysw.Vg_core.Syswrap.n_short_io;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: injected-errno counter" seed)
        rec_s.sysw.Vg_core.Syswrap.n_injected_errnos
        s.sysw.Vg_core.Syswrap.n_injected_errnos)
    [ 1; 2; 3 ]

(* ---- satellite: short IO is counted only when IO actually happened --- *)

let quiet_chaos ~seed =
  {
    Chaos.seed;
    p_eintr = 0.0;
    p_errno = 0.0;
    p_short = 0.0;
    p_map_denial = 0.0;
    p_translation_failure = 0.0;
    force_phase = None;
    p_flush = 0.0;
    p_handoff_stall = 0.0;
    p_retire_delay = 0.0;
    max_injections = 0;
  }

let run_chaos_src cfg src =
  let c = Chaos.create cfg in
  let options =
    { Vg_core.Session.default_options with chaos = Some (c : Chaos.t) }
  in
  let s =
    Vg_core.Session.create ~options ~tool:Vg_core.Tool.nulgrind
      (Minicc.Driver.compile src)
  in
  Kernel.add_file s.kern "data.txt" (String.make 64 'x');
  ignore (Vg_core.Session.run s);
  s

let test_short_io_counter () =
  (* every read gets a short length injected; reads from a bad fd fail
     outright and perform no IO, so they must NOT count (they used to) *)
  let bad_fd_src =
    {|
int main() {
  int n; int buf; int i;
  for (i = 0; i < 5; i++) { n = read(99, &buf, 4); }
  return 0;
}
|}
  in
  let s = run_chaos_src { (quiet_chaos ~seed:5) with p_short = 1.0 } bad_fd_src in
  Alcotest.(check int) "failed reads counted no short IO" 0
    s.sysw.Vg_core.Syswrap.n_short_io;
  (* the same schedule over a real file does clamp and does count *)
  let s2 = run_chaos_src { (quiet_chaos ~seed:5) with p_short = 1.0 } io_src in
  Alcotest.(check bool) "successful short reads counted" true
    (s2.sysw.Vg_core.Syswrap.n_short_io > 0)

(* ---- satellite: massif's closing timeline snapshot ------------------- *)

let test_massif_timeline_golden () =
  (* 2 allocations: not divisible by Tools.Massif.timeline_every (16), so
     the whole timeline used to be dropped — no periodic snapshot ever
     fired and fini took no closing one *)
  let src =
    {| int main() {
         char *a; char *b;
         a = malloc(100);
         b = malloc(50);
         free(a);
         return 0;
       } |}
  in
  let s =
    Vg_core.Session.create ~tool:Tools.Massif.tool (Minicc.Driver.compile src)
  in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited 0 -> ()
  | _ -> Alcotest.fail "bad termination");
  let out = Vg_core.Session.tool_output s in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "timeline header printed" true
    (contains out "==massif== heap timeline (allocs: live bytes):");
  (* the closing snapshot: 2 allocations, 50 bytes still live *)
  Alcotest.(check bool) "final snapshot present" true
    (contains out "     2: 50\n")

(* ---- satellite: divergence is detected and reported ------------------ *)

let test_divergence_detected () =
  (* replay an io recording against a different program: the first
     syscall out of step raises Divergence (with a crash context
     rendered into the tool output stream by the session) *)
  let io = List.find (fun p -> p.pr_name = "io") progs in
  let _s, data = record_session ~tool:Vg_core.Tool.nulgrind ~cores:1 io in
  let wrong =
    { io with pr_img = (fun () -> Minicc.Driver.compile Test_sched.compute_src) }
  in
  let s = replay_session ~tool:Vg_core.Tool.nulgrind wrong data in
  match Vg_core.Session.run s with
  | exception Replay.Divergence { dv_cycle; dv_expected; dv_got } ->
      Alcotest.(check bool) "cycle is plausible" true (dv_cycle >= 0L);
      Alcotest.(check bool) "expected and got differ" true
        (dv_expected <> dv_got)
  | _ -> Alcotest.fail "divergence not detected"

(* ---- time travel: seek lands on the exact state ---------------------- *)

let state_of (s : Vg_core.Session.t) =
  ( Vg_core.Session.wall_cycles s,
    Vg_core.Session.host_insns s,
    s.blocks_executed,
    List.map
      (fun (th : Vg_core.Threads.thread) ->
        ( th.tid,
          th.status,
          Vg_core.Threads.get_eip s.threads th,
          List.init Guest.Arch.n_regs (fun r ->
              Vg_core.Threads.get_reg s.threads th r) ))
      (List.sort
         (fun (a : Vg_core.Threads.thread) b -> compare a.tid b.tid)
         s.threads.threads) )

let test_seek_exact () =
  let threads4 = List.find (fun p -> p.pr_name = "threads4") progs in
  List.iter
    (fun (pr, cores, target) ->
      let tool = Tools.Lackey.tool in
      let _s, data = record_session ~tool ~cores pr in
      let s = replay_session ~tool pr data in
      (* run to a mid-point boundary and capture every thread's state *)
      Vg_core.Session.run_to s ~stop:(fun s ->
          Int64.compare (Vg_core.Session.wall_cycles s) target >= 0);
      let mid = state_of s in
      let mid_cycle = Vg_core.Session.wall_cycles s in
      (* run to the end, then travel back: re-execution must land on
         the identical boundary and state *)
      Vg_core.Session.run_to s ~stop:(fun _ -> false);
      Alcotest.(check bool)
        (Printf.sprintf "%s cores=%d: ran past the capture point" pr.pr_name
           cores)
        true
        (Int64.compare (Vg_core.Session.wall_cycles s) mid_cycle > 0);
      let s = Vg_core.Session.seek s ~cycle:target in
      Alcotest.(check bool)
        (Printf.sprintf "%s cores=%d: seek reached the exact thread states"
           pr.pr_name cores)
        true (state_of s = mid);
      (* and running on from there converges on the recorded end (run,
         not run_to: the tool digest covers the fini report) *)
      ignore (Vg_core.Session.run s);
      match Vg_core.Session.replay_mismatches s with
      | [] -> ()
      | ms ->
          Alcotest.failf "%s cores=%d: post-seek re-execution diverged on %s"
            pr.pr_name cores
            (String.concat "," (List.map (fun (k, _, _) -> k) ms)))
    [ (List.hd progs, 1, 60_000L); (threads4, 2, 400_000L) ]

(* ---- time travel: back, across superblock formation ------------------ *)

let test_back_across_superblocks () =
  (* the hot multi-block loop gets stitched into a superblock under the
     aggressive tiering knobs; stepping backwards re-executes through
     the promotions and the superblock formation *)
  let sb =
    {
      pr_name = "side-exit";
      pr_img = (fun () -> Guest.Asm.assemble Test_core.side_exit_src);
      pr_files = [];
      pr_cores = [ 1 ];
    }
  in
  let base = Test_core.tiered_hot_options in
  let _s, data =
    record_session ~base ~tool:Vg_core.Tool.nulgrind ~cores:1 sb
  in
  let s = replay_session ~tool:Vg_core.Tool.nulgrind sb data in
  Vg_core.Session.run_to s ~stop:(fun _ -> false);
  let end_insns = Vg_core.Session.host_insns s in
  Alcotest.(check bool) "superblocks formed" true
    ((Vg_core.Session.stats s).st_translations_super > 0);
  let s = Vg_core.Session.back s ~insns:1000L in
  let here = Vg_core.Session.host_insns s in
  Alcotest.(check bool) "moved backwards" true (Int64.compare here end_insns < 0);
  Alcotest.(check bool) "at or after the target boundary" true
    (Int64.compare here (Int64.sub end_insns 1000L) >= 0);
  Alcotest.(check bool) "no longer exited" true (s.exit_reason = None);
  (* forward again: the rerun must converge on the recorded final state *)
  ignore (Vg_core.Session.run s);
  Alcotest.(check bool) "same end point" true
    (Vg_core.Session.host_insns s = end_insns);
  match Vg_core.Session.replay_mismatches s with
  | [] -> ()
  | ms ->
      Alcotest.failf "post-back re-execution diverged on %s"
        (String.concat "," (List.map (fun (k, _, _) -> k) ms))

(* ---- the log codec round-trips --------------------------------------- *)

let test_log_codec_roundtrip () =
  let io = List.find (fun p -> p.pr_name = "io") progs in
  let c = Chaos.create (Chaos.hostile ~seed:9) in
  let _s, data = record_session ~chaos:c ~tool:Tools.Drd.tool ~cores:1 io in
  let log = (Replay.player (Replay.decode data)).Replay.p_log in
  Alcotest.(check string) "tool" "drd" log.Replay.l_tool;
  Alcotest.(check int) "cores" 1 log.Replay.l_cores;
  Alcotest.(check bool) "has events" true (log.Replay.l_events <> []);
  Alcotest.(check bool) "has digests" true (log.Replay.l_digests <> []);
  (* decode(encode(decode(x))) = decode(x) *)
  let data2 = Replay.encode log in
  Alcotest.(check string) "codec is a fixpoint" data2
    (Replay.encode (Replay.player (Replay.decode data2)).Replay.p_log)

(* ---- every logged decision kind replays ------------------------------ *)

let test_every_decision_kind () =
  (* the signal client logs a signal delivery; threads4 at two cores
     under the sharded schedule logs flushes, handoff stalls, retire
     delays and condemned translations *)
  let threads4 = List.find (fun p -> p.pr_name = "threads4") progs in
  let signal =
    {
      pr_name = "signal";
      pr_img = (fun () -> Guest.Asm.assemble Fuzz.Clients.signal_src);
      pr_files = [];
      pr_cores = [ 1 ];
    }
  in
  let tool = Tools.Memcheck.tool in
  let taken =
    List.map
      (fun (pr, cores, chaos) ->
        let _s, data = record_session ?chaos ~tool ~cores pr in
        Alcotest.(check bool)
          (pr.pr_name ^ ": encode of the decoded log is a fixpoint")
          true
          (Replay.encode (Replay.decode data) = data);
        let s = replay_session ~tool pr data in
        ignore (Vg_core.Session.run s);
        (match Vg_core.Session.replay_mismatches s with
        | [] -> ()
        | ms ->
            Alcotest.failf "%s diverged on %s" pr.pr_name
              (String.concat "," (List.map (fun (k, _, _) -> k) ms)));
        match s.opts.rr with
        | Replay.Replay p -> Replay.progress p
        | _ -> Alcotest.fail "not a replaying session")
      [
        (threads4, 2, Some (Chaos.create (Chaos.sharded ~seed:1)));
        (signal, 1, None);
      ]
  in
  List.iter
    (fun (k, _) ->
      if k <> "syscalls" then
        Alcotest.(check bool)
          (Printf.sprintf "replayed at least one of %s" k)
          true
          (List.fold_left (fun n p -> n + List.assoc k p) 0 taken >= 1))
    (List.hd taken)

(* ---- the options codec ----------------------------------------------- *)

let test_options_codec_roundtrip () =
  let d = Vg_core.Session.default_options in
  List.iter
    (fun o ->
      Alcotest.(check bool) "decode (encode o) = o" true
        (Vg_core.Session.decode_options (Vg_core.Session.encode_options o) d
        = o))
    [
      (* every field the codec carries, off its default *)
      {
        d with
        chaining = false;
        verify_jit = false;
        smc_mode = Vg_core.Session.Smc_all;
        tier0 = false;
        promote_threshold = 7;
        scan = true;
        aot_seed = true;
        timeslice_blocks = 500;
        transtab_capacity = 256;
        dispatch_fast_cost = 20;
        unroll_loops = false;
        max_blocks = 2_000_000L;
        trace_threshold = 8;
      };
      (* values the engine takes as off, which a recorder may write (the
         CLI passes --promote-threshold through unchecked), and fuel
         beyond an int *)
      {
        d with
        promote_threshold = -1;
        timeslice_blocks = -1;
        trace_threshold = -1;
        max_blocks = Int64.max_int;
      };
    ]

let test_options_meta_corrupt () =
  (* the default "options" meta with one field edited: an unreadable
     value, an unknown key (a deleted option's among them) or a table
     capacity no session runs with makes the log corrupt; none may escape
     as another exception or decode to a default *)
  let d = Vg_core.Session.default_options in
  let meta = Vg_core.Session.encode_options d in
  List.iter
    (fun (was, now) ->
      let bad =
        String.concat " "
          (List.map
             (fun kv -> if kv = was then now else kv)
             (String.split_on_char ' ' meta))
      in
      Alcotest.(check bool) (was ^ " is in the meta") true (bad <> meta);
      match Vg_core.Session.decode_options bad d with
      | exception Replay.Corrupt m ->
          Alcotest.(check string) now ("options meta: bad " ^ now) m
      | _ -> Alcotest.failf "%s decoded" now)
    [ ("promote=256", "promote=2x6"); ("unroll=true", "unroll=tru3");
      ("aot=false", "aox=false"); ("fuel=0", "fallback=true");
      ("transtab=32768", "transtab=0") ]

(* ---- the golden run's trailer digests -------------------------------- *)

let test_golden_digests () =
  (* the threads4 golden session (lackey, two cores, default options):
     its trailer digests are pinned, so logs recorded by earlier builds
     keep verifying and a change to what a digest covers shows here *)
  let threads4 = List.find (fun p -> p.pr_name = "threads4") progs in
  let _s, data = record_session ~tool:Tools.Lackey.tool ~cores:2 threads4 in
  Alcotest.(check (list (pair string string)))
    "trailer digests"
    [
      ("exit", "exited:0");
      ("threads", "3fc138e1468401a1");
      ("memory", "1b609dce1422eb3c");
      ("events", "83720d59c7cd8203");
      ("stdout", "cbf29ce484222325");
      ("tool", "5d87e4b6b631f121");
      ("stats", "b1cc2782937f62e5");
    ]
    (Replay.decode data).l_digests

let tests =
  [
    t "record/replay bit-identity: tools x programs x cores" test_matrix;
    t "chaos seeds 1-3 record/replay exactly" test_chaos_roundtrip;
    t "short IO counted only on successful IO" test_short_io_counter;
    t "massif timeline closing snapshot (golden)" test_massif_timeline_golden;
    t "replay divergence is detected" test_divergence_detected;
    t "seek lands on the exact ThreadState" test_seek_exact;
    t "back steps across superblock formation" test_back_across_superblocks;
    t "log codec round-trips" test_log_codec_roundtrip;
    t "every logged decision kind replays" test_every_decision_kind;
    t "options codec round-trips every field" test_options_codec_roundtrip;
    t "malformed options meta is a corrupt log" test_options_meta_corrupt;
    t "golden run's trailer digests are pinned" test_golden_digests;
  ]
