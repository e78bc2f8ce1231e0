(** Record/replay on the deterministic substrate (Vgrewind).

    The kernel, scheduler and cycle model are already pure functions of
    the guest image and the session options (PR 6), so a session has
    very few non-derivable inputs.  This module defines the log of
    exactly those inputs and the two machines around it:

    - a {!recorder} that a recording session feeds from the syscall
      wrapper layer and the chaos decision points, and
    - a {!player} that a replaying session consults instead of invoking
      the kernel or rolling chaos dice.

    What is logged (and nothing else):
    - every syscall: the client-visible result, the engine action, the
      cycles the wrapper charged, the syswrap fault counters and the
      kernel's side effects on guest-visible state (memory writes,
      mappings, console/file output, handler installation, brk);
    - every decision the core takes between blocks that is not a pure
      function of cycle counts: asynchronous signal deliveries, and
      chaos's forced cache flushes, core-handoff stalls, epoch
      retirement delays and forced translation failures.  Each is one
      {!decision}, keyed by the scheduler-loop ordinal at which it was
      taken (a condemned translation by the translation-request
      ordinal).

    Everything else — instruction semantics, JIT behaviour, thread
    scheduling, cycle accounting — re-derives by execution.  Recording
    charges zero simulated cycles: a recorded run is cycle-identical to
    the same run without recording.

    Log format: "VGRW" magic, a version byte, a metadata header
    (tool, cores, arbitrary key/value meta including the guest program
    source so a log is self-contained), a tagged event stream, and a
    trailer of digests of the final state for replay verification. *)

let magic = "VGRW"
let version = 2

exception Corrupt of string

(** Raised when a replaying session diverges from its log: the log is
    exhausted, or the session requests a different event than the log
    holds at that point.  Carries enough context for a crash report. *)
exception
  Divergence of { dv_cycle : int64; dv_expected : string; dv_got : string }

let () =
  Printexc.register_printer (function
    | Divergence { dv_cycle; dv_expected; dv_got } ->
        Some
          (Printf.sprintf
             "replay divergence at cycle %Ld: log has %s, session wanted %s"
             dv_cycle dv_expected dv_got)
    | Corrupt msg -> Some (Printf.sprintf "corrupt replay log: %s" msg)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Log model                                                            *)
(* ------------------------------------------------------------------ *)

(** A kernel side effect on guest-visible state, replayed in order. *)
type effect_ =
  | E_mem of { em_addr : int64; em_bytes : Bytes.t }
      (** bytes the kernel stored into guest memory *)
  | E_map of { ep_addr : int64; ep_len : int; ep_perm : int; ep_zero : bool }
      (** pages mapped (perm as r|w|x bits 1|2|4) *)
  | E_unmap of { eu_addr : int64; eu_len : int }
  | E_out of { eo_fd : int; eo_name : string; eo_data : string }
      (** bytes appended to a console or file descriptor *)
  | E_handler of { eh_signo : int; eh_addr : int64 }
      (** signal handler installed via sigaction *)

type sys_event = {
  se_num : int;
  se_ret : int64;  (** r0 after the wrapper, the client-visible result *)
  se_brk : int64;  (** kernel brk after the call (wrapper post-events read it) *)
  se_charged : int;  (** cycles the wrapper charged during the call *)
  se_cycle : int64;  (** wall cycles at the call (informational, for `when`) *)
  se_action : Kernel.action;
  se_counters : int * int * int * int;
      (** syswrap counters after the call: restarts, injected errnos,
          short io, map retries *)
  se_effects : effect_ list;
}

(** Where a decision is taken: signal delivery (§3.15), and chaos's
    forced cache flush, core-handoff stall, epoch-retirement delay and
    condemned translation. *)
type point = Signal | Flush | Stall | Retire | Condemn

let points = [| Signal; Flush; Stall; Retire; Condemn |]

let index = function
  | Signal -> 0
  | Flush -> 1
  | Stall -> 2
  | Retire -> 3
  | Condemn -> 4

type decision = {
  d_point : point;
  d_ordinal : int64;
      (** the scheduler-loop iteration it was taken at; for [Condemn],
          the translation-request ordinal *)
  d_value : int;
      (** the signal number, the stall in cycles or the condemned JIT
          phase; 0 for a flush or a retire delay *)
  d_where : int64;
      (** the thread a signal went to, or the guest pc of a condemned
          translation; 0 otherwise *)
  d_cycle : int64;
      (** wall cycles at the decision (informational, for `when`) *)
}

type event = Ev_syscall of sys_event | Ev_decision of decision

(** One line per decision, for [vgrewind when] and divergence reports. *)
let describe (d : decision) : string =
  match d.d_point with
  | Signal ->
      Printf.sprintf "signal %d delivered to thread %Ld" d.d_value d.d_where
  | Flush -> "chaos: code cache flushed"
  | Stall -> Printf.sprintf "chaos: core handoff stalled %d cycles" d.d_value
  | Retire -> "chaos: translation retirement delayed one epoch"
  | Condemn ->
      Printf.sprintf "chaos: translation of 0x%Lx condemned at jit phase %d"
        d.d_where d.d_value

type log = {
  l_tool : string;
  l_cores : int;
  l_meta : (string * string) list;
  l_events : event list;  (** chronological *)
  l_digests : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Binary codec                                                         *)
(* ------------------------------------------------------------------ *)

let put_u8 b n = Buffer.add_char b (Char.chr (n land 0xFF))

let put_i32 b n =
  put_u8 b n;
  put_u8 b (n asr 8);
  put_u8 b (n asr 16);
  put_u8 b (n asr 24)

let put_i64 b (v : int64) =
  for i = 0 to 7 do
    put_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

let put_str b s =
  put_i32 b (String.length s);
  Buffer.add_string b s

let put_assoc b kvs =
  put_i32 b (List.length kvs);
  List.iter
    (fun (k, v) ->
      put_str b k;
      put_str b v)
    kvs

type cursor = { data : string; mutable pos : int }

let need (c : cursor) n =
  if c.pos + n > String.length c.data then raise (Corrupt "truncated")

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_i32 c =
  let b0 = get_u8 c in
  let b1 = get_u8 c in
  let b2 = get_u8 c in
  let b3 = get_u8 c in
  let v = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
  (* sign-extend from 32 bits so negative ints round-trip *)
  if v land 0x8000_0000 <> 0 then v - (1 lsl 32) else v

let get_i64 c =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (get_u8 c)) (8 * i))
  done;
  !v

let get_str c =
  let n = get_i32 c in
  if n < 0 then raise (Corrupt "negative string length");
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_assoc c =
  let n = get_i32 c in
  List.init n (fun _ ->
      let k = get_str c in
      let v = get_str c in
      (k, v))

let encode_action b (a : Kernel.action) =
  match a with
  | Kernel.Ok -> put_u8 b 0
  | Kernel.Exit_process n ->
      put_u8 b 1;
      put_i32 b n
  | Kernel.Thread_create { entry; sp; arg } ->
      put_u8 b 2;
      put_i64 b entry;
      put_i64 b sp;
      put_i64 b arg
  | Kernel.Thread_exit -> put_u8 b 3
  | Kernel.Yield -> put_u8 b 4
  | Kernel.Sigreturn -> put_u8 b 5

let decode_action c : Kernel.action =
  match get_u8 c with
  | 0 -> Kernel.Ok
  | 1 -> Kernel.Exit_process (get_i32 c)
  | 2 ->
      let entry = get_i64 c in
      let sp = get_i64 c in
      let arg = get_i64 c in
      Kernel.Thread_create { entry; sp; arg }
  | 3 -> Kernel.Thread_exit
  | 4 -> Kernel.Yield
  | 5 -> Kernel.Sigreturn
  | n -> raise (Corrupt (Printf.sprintf "bad action tag %d" n))

let encode_effect b = function
  | E_mem { em_addr; em_bytes } ->
      put_u8 b 0;
      put_i64 b em_addr;
      put_str b (Bytes.to_string em_bytes)
  | E_map { ep_addr; ep_len; ep_perm; ep_zero } ->
      put_u8 b 1;
      put_i64 b ep_addr;
      put_i32 b ep_len;
      put_u8 b ep_perm;
      put_u8 b (if ep_zero then 1 else 0)
  | E_unmap { eu_addr; eu_len } ->
      put_u8 b 2;
      put_i64 b eu_addr;
      put_i32 b eu_len
  | E_out { eo_fd; eo_name; eo_data } ->
      put_u8 b 3;
      put_i32 b eo_fd;
      put_str b eo_name;
      put_str b eo_data
  | E_handler { eh_signo; eh_addr } ->
      put_u8 b 4;
      put_i32 b eh_signo;
      put_i64 b eh_addr

let decode_effect c =
  match get_u8 c with
  | 0 ->
      let em_addr = get_i64 c in
      let em_bytes = Bytes.of_string (get_str c) in
      E_mem { em_addr; em_bytes }
  | 1 ->
      let ep_addr = get_i64 c in
      let ep_len = get_i32 c in
      let ep_perm = get_u8 c in
      let ep_zero = get_u8 c = 1 in
      E_map { ep_addr; ep_len; ep_perm; ep_zero }
  | 2 ->
      let eu_addr = get_i64 c in
      let eu_len = get_i32 c in
      E_unmap { eu_addr; eu_len }
  | 3 ->
      let eo_fd = get_i32 c in
      let eo_name = get_str c in
      let eo_data = get_str c in
      E_out { eo_fd; eo_name; eo_data }
  | 4 ->
      let eh_signo = get_i32 c in
      let eh_addr = get_i64 c in
      E_handler { eh_signo; eh_addr }
  | n -> raise (Corrupt (Printf.sprintf "bad effect tag %d" n))

let encode_event b = function
  | Ev_syscall se ->
      put_u8 b 1;
      put_i32 b se.se_num;
      put_i64 b se.se_ret;
      put_i64 b se.se_brk;
      put_i32 b se.se_charged;
      put_i64 b se.se_cycle;
      encode_action b se.se_action;
      let c1, c2, c3, c4 = se.se_counters in
      put_i32 b c1;
      put_i32 b c2;
      put_i32 b c3;
      put_i32 b c4;
      put_i32 b (List.length se.se_effects);
      List.iter (encode_effect b) se.se_effects
  | Ev_decision d ->
      (* tags 2..6, one per point; each keeps its own field layout *)
      put_u8 b (2 + index d.d_point);
      put_i64 b d.d_ordinal;
      (match d.d_point with
      | Signal ->
          put_i32 b (Int64.to_int d.d_where);
          put_i32 b d.d_value
      | Stall -> put_i32 b d.d_value
      | Condemn ->
          put_i32 b d.d_value;
          put_i64 b d.d_where
      | Flush | Retire -> ());
      put_i64 b d.d_cycle

let decode_event c tag =
  match tag with
  | 1 ->
      let se_num = get_i32 c in
      let se_ret = get_i64 c in
      let se_brk = get_i64 c in
      let se_charged = get_i32 c in
      let se_cycle = get_i64 c in
      let se_action = decode_action c in
      let c1 = get_i32 c in
      let c2 = get_i32 c in
      let c3 = get_i32 c in
      let c4 = get_i32 c in
      let n = get_i32 c in
      let se_effects = List.init n (fun _ -> decode_effect c) in
      Ev_syscall
        { se_num; se_ret; se_brk; se_charged; se_cycle; se_action;
          se_counters = (c1, c2, c3, c4); se_effects }
  | tag when tag >= 2 && tag <= 6 ->
      let d_point = points.(tag - 2) in
      let d_ordinal = get_i64 c in
      let d_value, d_where =
        match d_point with
        | Signal ->
            let tid = get_i32 c in
            let signo = get_i32 c in
            (signo, Int64.of_int tid)
        | Stall -> (get_i32 c, 0L)
        | Condemn ->
            let phase = get_i32 c in
            (phase, get_i64 c)
        | Flush | Retire -> (0, 0L)
      in
      let d_cycle = get_i64 c in
      Ev_decision { d_point; d_ordinal; d_value; d_where; d_cycle }
  | n -> raise (Corrupt (Printf.sprintf "bad event tag %d" n))

let encode (l : log) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  put_u8 b version;
  put_str b l.l_tool;
  put_u8 b l.l_cores;
  put_assoc b l.l_meta;
  List.iter (encode_event b) l.l_events;
  put_u8 b 0xFF;
  put_assoc b l.l_digests;
  Buffer.contents b

let decode (s : string) : log =
  let c = { data = s; pos = 0 } in
  need c 4;
  if String.sub s 0 4 <> magic then raise (Corrupt "bad magic");
  c.pos <- 4;
  let v = get_u8 c in
  if v <> version then
    raise (Corrupt (Printf.sprintf "unsupported version %d (want %d)" v version));
  let l_tool = get_str c in
  let l_cores = get_u8 c in
  let l_meta = get_assoc c in
  let events = ref [] in
  let digests = ref [] in
  let rec loop () =
    let tag = get_u8 c in
    if tag = 0xFF then digests := get_assoc c
    else begin
      events := decode_event c tag :: !events;
      loop ()
    end
  in
  loop ();
  { l_tool; l_cores; l_meta; l_events = List.rev !events;
    l_digests = !digests }

(* ------------------------------------------------------------------ *)
(* Recorder                                                             *)
(* ------------------------------------------------------------------ *)

(** In-flight capture of one syscall's side effects: store spans (kept
    coalesced) interleaved with map events, in order. *)
type item = I_span of { mutable sp_a : int64; mutable sp_l : int } | I_eff of effect_

type recorder = {
  mutable r_tool : string;
  mutable r_cores : int;
  mutable r_meta : (string * string) list;
  mutable r_events : event list;  (** reversed *)
  mutable r_n_events : int;
  mutable r_digests : (string * string) list;
  (* in-flight syscall capture *)
  mutable r_in_sys : bool;
  mutable r_num : int;
  mutable r_args : int64 * int64 * int64;
  mutable r_items : item list;  (** reversed *)
}

let recorder () =
  {
    r_tool = "";
    r_cores = 1;
    r_meta = [];
    r_events = [];
    r_n_events = 0;
    r_digests = [];
    r_in_sys = false;
    r_num = 0;
    r_args = (0L, 0L, 0L);
    r_items = [];
  }

let set_header r ~tool ~cores =
  r.r_tool <- tool;
  r.r_cores <- cores

let add_meta r k v = r.r_meta <- r.r_meta @ [ (k, v) ]
let n_events r = r.r_n_events

let push r ev =
  r.r_events <- ev :: r.r_events;
  r.r_n_events <- r.r_n_events + 1

(** Store watch: only stores made while a syscall is in flight are
    kernel effects (guest code never runs during [invoke]). *)
let note_store r addr size =
  if r.r_in_sys then
    match r.r_items with
    | I_span sp :: _ when Int64.add sp.sp_a (Int64.of_int sp.sp_l) = addr ->
        sp.sp_l <- sp.sp_l + size
    | _ -> r.r_items <- I_span { sp_a = addr; sp_l = size } :: r.r_items

let perm_bits (p : Aspace.perm) =
  (if p.Aspace.r then 1 else 0)
  lor (if p.Aspace.w then 2 else 0)
  lor (if p.Aspace.x then 4 else 0)

let perm_of_bits n : Aspace.perm =
  { Aspace.r = n land 1 <> 0; w = n land 2 <> 0; x = n land 4 <> 0 }

let note_map r (ev : Aspace.map_event) =
  if r.r_in_sys then
    let eff =
      match ev with
      | Aspace.Mapped { addr; len; perm; zero } ->
          E_map { ep_addr = addr; ep_len = len; ep_perm = perm_bits perm;
                  ep_zero = zero }
      | Aspace.Unmapped { addr; len } ->
          E_unmap { eu_addr = addr; eu_len = len }
    in
    r.r_items <- I_eff eff :: r.r_items

let begin_syscall r ~num ~args =
  r.r_in_sys <- true;
  r.r_num <- num;
  r.r_args <- args;
  r.r_items <- []

(** Close the in-flight syscall and append its event.  Store spans read
    their final bytes here: within one syscall a later store or zeroing
    map over an earlier span leaves both effects writing the same final
    bytes, so applying them in order on replay reproduces the final
    memory exactly.  A span whose pages were unmapped again before the
    syscall returned is dropped — the mapping no longer exists, so the
    bytes are not guest-visible. *)
let end_syscall r ~(kern : Kernel.t) ~ret ~action ~charged ~cycle ~counters =
  r.r_in_sys <- false;
  let mem = kern.Kernel.mem in
  let effects =
    List.rev_map
      (function
        | I_eff e -> Some e
        | I_span { sp_a; sp_l } -> (
            match Aspace.read_bytes mem sp_a sp_l with
            | bytes -> Some (E_mem { em_addr = sp_a; em_bytes = bytes })
            | exception Aspace.Fault _ -> None))
      r.r_items
    |> List.filter_map (fun x -> x)
  in
  let a1, a2, _a3 = r.r_args in
  let ok = Int64.unsigned_compare ret 0xFFFF_F000L < 0 in
  let effects =
    (* console/file appends do not go through guest memory, so they are
       synthesised from the write arguments and the (possibly
       chaos-shortened) result *)
    if r.r_num = Kernel.Num.sys_write && ok && Int64.compare ret 0L > 0 then
      let fd = Int64.to_int a1 in
      let name =
        match Hashtbl.find_opt kern.Kernel.fds fd with
        | Some f -> f.Kernel.fd_name
        | None -> ""
      in
      match Aspace.read_bytes mem a2 (Int64.to_int ret) with
      | bytes ->
          effects
          @ [ E_out { eo_fd = fd; eo_name = name;
                      eo_data = Bytes.to_string bytes } ]
      | exception Aspace.Fault _ -> effects
    else if r.r_num = Kernel.Num.sys_sigaction && ret = 0L then
      effects
      @ [ E_handler { eh_signo = Int64.to_int a1; eh_addr = a2 } ]
    else effects
  in
  push r
    (Ev_syscall
       { se_num = r.r_num; se_ret = ret; se_brk = kern.Kernel.brk;
         se_charged = charged; se_cycle = cycle; se_action = action;
         se_counters = counters; se_effects = effects })

let record r (d : decision) = push r (Ev_decision d)

let finish r ~digests = r.r_digests <- digests

let recorded_log (r : recorder) : log =
  {
    l_tool = r.r_tool;
    l_cores = r.r_cores;
    l_meta = r.r_meta;
    l_events = List.rev r.r_events;
    l_digests = r.r_digests;
  }

let to_string r = encode (recorded_log r)

let to_file r path =
  let oc = open_out_bin path in
  output_string oc (to_string r);
  close_out oc

let log_of_file path : log =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  decode s

(* ------------------------------------------------------------------ *)
(* Player                                                               *)
(* ------------------------------------------------------------------ *)

type player = {
  p_log : log;
  p_sys : sys_event array;
  mutable p_sys_i : int;
  p_dec : decision array array;
      (** the log's decisions, one queue per point, in {!index} order *)
  p_dec_i : int array;  (** how many of each queue are consumed *)
}

let player (l : log) : player =
  let select f = Array.of_list (List.filter_map f l.l_events) in
  let decisions point =
    select (function
      | Ev_decision d when d.d_point = point -> Some d
      | _ -> None)
  in
  {
    p_log = l;
    p_sys = select (function Ev_syscall se -> Some se | _ -> None);
    p_sys_i = 0;
    p_dec = Array.map decisions points;
    p_dec_i = Array.make (Array.length points) 0;
  }

let diverged ~cycle ~expected ~got =
  raise (Divergence { dv_cycle = cycle; dv_expected = expected; dv_got = got })

let apply_effect (kern : Kernel.t) = function
  | E_mem { em_addr; em_bytes } ->
      Aspace.write_bytes kern.Kernel.mem em_addr em_bytes
  | E_map { ep_addr; ep_len; ep_perm; ep_zero } ->
      Aspace.map ~zero:ep_zero kern.Kernel.mem ~addr:ep_addr ~len:ep_len
        ~perm:(perm_of_bits ep_perm)
  | E_unmap { eu_addr; eu_len } ->
      Aspace.unmap kern.Kernel.mem ~addr:eu_addr ~len:eu_len
  | E_out { eo_fd; eo_name; eo_data } ->
      let fd =
        match Hashtbl.find_opt kern.Kernel.fds eo_fd with
        | Some fd -> fd
        | None ->
            (* the record run opened this fd via sys_open; the kernel
               never ran here, so create it lazily with the recorded
               name ([next_fd] is monotonic, so numbers never clash) *)
            let fd =
              { Kernel.kind = Kernel.Fd_write (Buffer.create 64);
                fd_name = eo_name }
            in
            Hashtbl.replace kern.Kernel.fds eo_fd fd;
            if eo_fd >= kern.Kernel.next_fd then
              kern.Kernel.next_fd <- eo_fd + 1;
            fd
      in
      (match fd.Kernel.kind with
      | Kernel.Fd_console b | Kernel.Fd_write b -> Buffer.add_string b eo_data
      | Kernel.Fd_read _ -> ());
      if kern.Kernel.stdout_echo && (eo_fd = 1 || eo_fd = 2) then
        print_string eo_data
  | E_handler { eh_signo; eh_addr } ->
      ignore (Kernel.set_handler kern eh_signo eh_addr)

(** Replay one syscall from the log instead of invoking the kernel:
    checks the syscall number, applies the recorded side effects, syncs
    brk, places the recorded result in r0 and returns the recorded
    action plus the cycles charged and the syswrap counter values. *)
let replay_syscall (p : player) ~(kern : Kernel.t) ~num ~(r : Kernel.regs)
    ~cycle : Kernel.action * int * (int * int * int * int) =
  if p.p_sys_i >= Array.length p.p_sys then
    diverged ~cycle ~expected:"end of log"
      ~got:(Printf.sprintf "syscall %s" (Kernel.Num.name num));
  let se = p.p_sys.(p.p_sys_i) in
  if se.se_num <> num then
    diverged ~cycle
      ~expected:(Printf.sprintf "syscall %s" (Kernel.Num.name se.se_num))
      ~got:(Printf.sprintf "syscall %s" (Kernel.Num.name num));
  p.p_sys_i <- p.p_sys_i + 1;
  List.iter (apply_effect kern) se.se_effects;
  kern.Kernel.brk <- se.se_brk;
  r.Kernel.set 0 se.se_ret;
  (se.se_action, se.se_charged, se.se_counters)

(** The logged decision at [point] for [ordinal], if there is one.  A
    log entry for an ordinal already passed means the session diverged. *)
let due (p : player) (point : point) ~(ordinal : int64) ~cycle :
    decision option =
  let k = index point in
  let i = p.p_dec_i.(k) in
  if i >= Array.length p.p_dec.(k) then None
  else
    let d = p.p_dec.(k).(i) in
    let c = Int64.compare d.d_ordinal ordinal in
    if c < 0 then
      let key = if point = Condemn then "request" else "iteration" in
      diverged ~cycle
        ~expected:(Printf.sprintf "%s at %s %Ld" (describe d) key d.d_ordinal)
        ~got:(Printf.sprintf "%s %Ld" key ordinal)
    else if c = 0 then begin
      p.p_dec_i.(k) <- i + 1;
      Some d
    end
    else None

(** How much of the log has been consumed, for the replay.* metrics. *)
let progress (p : player) : (string * int) list =
  ("syscalls", p.p_sys_i)
  :: List.combine
       [ "signals"; "flushes"; "stalls"; "retires"; "condemns" ]
       (Array.to_list p.p_dec_i)

(* ------------------------------------------------------------------ *)
(* Session integration                                                  *)
(* ------------------------------------------------------------------ *)

(** How a session relates to a log: not at all, feeding a recorder, or
    driven by a player. *)
type rr = No_rr | Record of recorder | Replay of player

(* ------------------------------------------------------------------ *)
(* Digest helpers                                                       *)
(* ------------------------------------------------------------------ *)

let fnv_prime = 0x100000001B3L
let fnv_basis = 0xCBF29CE484222325L

let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xFF))) fnv_prime

let fnv_string ?(h = fnv_basis) (s : string) : int64 =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h

let fnv_bytes ?(h = fnv_basis) (b : Bytes.t) : int64 =
  let h = ref h in
  Bytes.iter (fun c -> h := fnv_byte !h (Char.code c)) b;
  !h

let hex (h : int64) = Printf.sprintf "%016Lx" h

(** Hash the entire mapped address space: page indices, permissions and
    contents, in page order.  Stronger than the fuzz oracle's data+bss
    hash — replay equality covers every mapping.  Pages are hashed in
    place, without copying. *)
let hash_aspace (mem : Aspace.t) : int64 =
  Aspace.fold_pages mem
    (fun h pi data perm ->
      let h = fnv_byte h pi in
      let h = fnv_byte h (pi lsr 8) in
      let h = fnv_byte h (pi lsr 16) in
      let h = fnv_byte h (perm_bits perm) in
      fnv_bytes ~h data)
    fnv_basis

(** Drop metric lines that only exist on one side of a record/replay
    pair: chaos.* (the recording side rolled the dice) and replay.*
    (the replaying side counts log consumption).  Trailing commas are
    normalised away so the remainder compares exactly. *)
let filter_stats (json : string) : string =
  let has_prefix p t =
    String.length t >= String.length p && String.sub t 0 (String.length p) = p
  in
  let keep line =
    let t = String.trim line in
    not (has_prefix "\"chaos." t || has_prefix "\"replay." t)
  in
  String.split_on_char '\n' json
  |> List.filter (fun l ->
         let t = String.trim l in
         String.length t > 0 && t.[0] = '"' && keep l)
  |> List.map (fun l ->
         let l = String.trim l in
         if String.length l > 0 && l.[String.length l - 1] = ',' then
           String.sub l 0 (String.length l - 1)
         else l)
  |> String.concat "\n"
