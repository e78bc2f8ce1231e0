(** Calibration: scaling session times to a quiet machine.

    The benchmark shares its host with other tenants, whose load comes
    and goes over seconds to minutes and slows everything by up to 1.7x.
    While a pass runs, an interval timer interrupts it every [period]
    seconds to time a short fixed kernel.  A session's time, less the
    time the samples took, is scaled by [reference_ns / median kernel
    time around the session], which cancels the common slow-down.

    The kernel does what the simulator does on the host: it interprets a
    fixed pseudo-random program, one [match] dispatch per instruction,
    over a register array, a 256 KB memory and a table, with indirect
    calls and int64 arithmetic.  Load from other tenants slows it about
    as much as it slows the simulator; a kernel of plain loads and
    stores was slowed more by the same bursts (see README.md).  It
    allocates nothing, so the state of the OCaml heap does not move it.
    It uses no code outside this file, and every sample first walks its
    data untimed, so each timed call starts from the same warm cache
    whatever the simulator left behind: a change to the simulator's code
    or working set cannot move it. *)

(** The kernel's time, warm, on this benchmark's reference machine (2
    cores, quiet): scaled times read as nanoseconds on that machine. *)
let reference_ns = 1_000_000.

let period = 0.1
let buf_bytes = 256 lsl 10
let iterations = 250_000
let prog_len = 4096

(* allocated and first touched once, so no sample pays the page faults *)
let mem = Bytes.make buf_bytes '\001'
let table = Array.make 4096 0
let regs = Array.make 16 1
let prog = Array.init prog_len (fun i -> ((i * 2654435761) lsr 11) land 15)

let ops : (int -> int -> int) array =
  [| (fun a b -> a + b); (fun a b -> a lxor b); (fun a b -> a - b); (fun a b -> (a * 3) + b) |]

let kernel () : int =
  let x = ref 0x2545F491 in
  for i = 1 to iterations do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let r = !x land 15 and r2 = (!x lsr 4) land 15 in
    let a = (!x lsr 3) land (buf_bytes - 8) in
    match prog.(i land (prog_len - 1)) with
    | 0 -> regs.(r) <- regs.(r) + regs.(r2)
    | 1 -> regs.(r) <- regs.(r) lxor !x
    | 2 -> regs.(r) <- Int64.to_int (Bytes.get_int64_le mem a)
    | 3 -> Bytes.set_int64_le mem a (Int64.of_int regs.(r))
    | 4 -> regs.(r) <- table.(regs.(r2) land 4095)
    | 5 -> table.(!x land 4095) <- regs.(r)
    | 6 -> regs.(r) <- ops.(r2 land 3) regs.(r) regs.(r2)
    | 7 -> if regs.(r) land 1 = 0 then regs.(r2) <- regs.(r2) + 1
    | 8 -> regs.(r) <- regs.(r) lsl 1
    | 9 -> regs.(r) <- regs.(r) lsr 1
    | 10 -> regs.(r) <- Bytes.get_uint8 mem a
    | 11 -> Bytes.set_uint8 mem a (regs.(r) land 255)
    | 12 -> regs.(r) <- regs.(r) * regs.(r2)
    | 13 -> regs.(r) <- (if regs.(r) < regs.(r2) then 1 else 0)
    | 14 -> regs.(r) <- Int64.to_int (Int64.mul (Int64.of_int regs.(r)) 6364136223846793005L)
    | _ -> regs.(r) <- regs.(r2)
  done;
  regs.(0)

let () = ignore (Sys.opaque_identity (kernel ()))

(* one read per cache line of [mem], and of every entry of the arrays *)
let warm () : int =
  let acc = ref 0 in
  for i = 0 to (buf_bytes / 64) - 1 do
    acc := !acc + Bytes.get_uint8 mem (i * 64)
  done;
  List.iter
    (fun a ->
      for k = 0 to Array.length a - 1 do
        acc := !acc + a.(k)
      done)
    [ table; prog; regs ];
  !acc

(* samples: (start, kernel duration) in ns, newest first; [spent] sums
   the time samples took, warming included, to be taken out of sessions *)
let samples : (int * int) list ref = ref []
let spent = ref 0

let sample _ =
  let w0 = Tracer.now_ns () in
  ignore (Sys.opaque_identity (warm ()));
  let t0 = Tracer.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Tracer.now_ns () in
  samples := (t0, t1 - t0) :: !samples;
  spent := !spent + (t1 - w0)

let set_timer p = ignore (Unix.setitimer Unix.ITIMER_REAL { it_interval = p; it_value = p })

(** Sample the kernel periodically while [f] runs. *)
let sampling (f : unit -> 'a) : 'a =
  samples := [];
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle sample);
  sample 0;
  set_timer period;
  Fun.protect f ~finally:(fun () ->
      set_timer 0.;
      Sys.set_signal Sys.sigalrm Sys.Signal_default;
      sample 0)

(** The scale factor for the interval [t0, t1]: reference time over the
    median of the samples nearest to it — those taken in it, widened to
    at least [min_samples] by the closest ones outside.  The median,
    because a sample the host preempts reads many times too slow. *)
let min_samples = 5

let factor ~t0 ~t1 : float =
  let dist at = if at < t0 then t0 - at else if at > t1 then at - t1 else 0 in
  let by_distance = List.sort (fun (a, _) (b, _) -> compare (dist a) (dist b)) !samples in
  let inside = List.length (List.filter (fun (at, _) -> dist at = 0) by_distance) in
  let chosen = List.filteri (fun i _ -> i < max inside min_samples) by_distance in
  match List.sort compare (List.map snd chosen) with
  | [] -> 1.
  | ds -> reference_ns /. float_of_int (List.nth ds (List.length ds / 2))
