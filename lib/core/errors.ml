(** Error recording, deduplication and suppression (R9 services, §4).

    The core provides tools with error recording (errors are deduplicated
    by kind + stack trace, like Valgrind's), suppressions read from a
    simple suppression format, stack tracing through the guest's frame
    pointer chain, and symbolised output. *)

type error = {
  err_kind : string;  (** e.g. "UninitValue", "InvalidRead" *)
  err_msg : string;
  err_stack : int64 list;  (** innermost first *)
  mutable err_count : int;  (** occurrences after dedup *)
}

(** A suppression: matches an error kind and a prefix of the symbolised
    stack ("*" matches any frame). *)
type suppression = {
  supp_name : string;
  supp_kind : string;
  supp_frames : string list;
}

type t = {
  mutable errors : error list;  (** newest first *)
  mutable suppressions : suppression list;
  mutable n_suppressed : int;
  mutable symbolize : int64 -> string;
  mutable output : string -> unit;
  mutable show_immediately : bool;
  mutable on_record : (error -> unit) option;
      (** observer fired for each {e new} (post-dedup, unsuppressed)
          error; vgrewind's [when] subcommand hooks this to find the
          cycle an error first fired at *)
}

let create ?(output = prerr_string) () =
  {
    errors = [];
    suppressions = [];
    n_suppressed = 0;
    symbolize = (fun a -> Printf.sprintf "0x%LX" a);
    output;
    show_immediately = true;
    on_record = None;
  }

let add_suppression t s = t.suppressions <- s :: t.suppressions

(** Parse suppressions in a minimal format:
    {v
    {
      name
      Kind
      fun:frame1
      fun:*
    }
    v} *)
let parse_suppressions (text : string) : suppression list =
  let lines =
    String.split_on_char '\n' text |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let rec go acc cur = function
    | [] -> List.rev acc
    | "{" :: rest -> go acc (Some []) rest
    | "}" :: rest -> (
        match cur with
        | Some (name :: kind :: frames) ->
            let frames =
              List.map
                (fun f ->
                  if String.length f > 4 && String.sub f 0 4 = "fun:" then
                    String.sub f 4 (String.length f - 4)
                  else f)
                frames
            in
            go ({ supp_name = name; supp_kind = kind; supp_frames = frames } :: acc)
              None rest
        | _ -> go acc None rest)
    | l :: rest -> (
        match cur with
        | Some fields -> go acc (Some (fields @ [ l ])) rest
        | None -> go acc None rest)
  in
  go [] None lines

let frame_matches pattern frame =
  pattern = "*" || pattern = frame
  || (String.length pattern > 0
     && pattern.[String.length pattern - 1] = '*'
     && String.length frame >= String.length pattern - 1
     && String.sub frame 0 (String.length pattern - 1)
        = String.sub pattern 0 (String.length pattern - 1))

let suppressed (t : t) ~kind ~(stack : int64 list) : bool =
  let frames = List.map t.symbolize stack in
  List.exists
    (fun s ->
      (s.supp_kind = "*" || s.supp_kind = kind)
      &&
      let rec prefix ps fs =
        match (ps, fs) with
        | [], _ -> true
        | _, [] -> false
        | p :: ps', f :: fs' -> frame_matches p f && prefix ps' fs'
      in
      prefix s.supp_frames frames)
    t.suppressions

let render (t : t) (e : error) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "==err== %s: %s\n" e.err_kind e.err_msg);
  List.iteri
    (fun i a ->
      Buffer.add_string buf
        (Printf.sprintf "==err==    %s 0x%LX: %s\n"
           (if i = 0 then "at" else "by")
           a (t.symbolize a)))
    e.err_stack;
  Buffer.contents buf

(** Record an error; returns true if it was new (not deduplicated, not
    suppressed). *)
let record (t : t) ~kind ~msg ~(stack : int64 list) : bool =
  if suppressed t ~kind ~stack then begin
    t.n_suppressed <- t.n_suppressed + 1;
    false
  end
  else
    match
      List.find_opt
        (fun e -> e.err_kind = kind && e.err_stack = stack && e.err_msg = msg)
        t.errors
    with
    | Some e ->
        e.err_count <- e.err_count + 1;
        false
    | None ->
        let e = { err_kind = kind; err_msg = msg; err_stack = stack; err_count = 1 } in
        t.errors <- e :: t.errors;
        if t.show_immediately then t.output (render t e);
        (match t.on_record with Some f -> f e | None -> ());
        true

let distinct_errors t = List.length t.errors
let total_errors t = List.fold_left (fun a e -> a + e.err_count) 0 t.errors

let summary (t : t) : string =
  Printf.sprintf
    "==err== ERROR SUMMARY: %d errors from %d contexts (suppressed: %d)\n"
    (total_errors t) (distinct_errors t) t.n_suppressed

(* ------------------------------------------------------------------ *)
(* Crash context                                                        *)
(* ------------------------------------------------------------------ *)

(** A post-mortem snapshot the core renders when an error escapes every
    recovery path (§3.2: even when Valgrind cannot stay in control, it
    should say exactly where control was lost).  Captures the current
    thread's guest state and the dispatcher's recent history. *)
type crash_context = {
  cc_what : string;  (** the escaping exception, printed *)
  cc_eip : int64;  (** guest PC of the current thread *)
  cc_regs : int64 array;  (** r0..r7 *)
  cc_blocks : int64;  (** blocks executed when the error escaped *)
  cc_trace : int64 list;
      (** last-N dispatched block addresses, oldest first *)
  cc_stack : int64 list;  (** guest stack trace, innermost first *)
}

(** Render a crash context through this error sink's symbolizer. *)
let render_crash (t : t) (c : crash_context) : string =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "==vg== FATAL: unrecoverable error: %s\n" c.cc_what;
  pr "==vg==   guest eip = 0x%LX (%s), after %Ld blocks\n" c.cc_eip
    (t.symbolize c.cc_eip) c.cc_blocks;
  Array.iteri
    (fun i v ->
      if i land 3 = 0 then pr "==vg==   ";
      pr "r%d=0x%LX%s" i v (if i land 3 = 3 then "\n" else " "))
    c.cc_regs;
  if Array.length c.cc_regs land 3 <> 0 then pr "\n";
  if c.cc_trace <> [] then begin
    pr "==vg==   recent blocks (oldest first):\n";
    List.iter (fun a -> pr "==vg==     0x%LX: %s\n" a (t.symbolize a)) c.cc_trace
  end;
  if c.cc_stack <> [] then begin
    pr "==vg==   guest stack:\n";
    List.iteri
      (fun i a ->
        pr "==vg==     %s 0x%LX: %s\n"
          (if i = 0 then "at" else "by")
          a (t.symbolize a))
      c.cc_stack
  end;
  Buffer.contents buf
