(** Shared machinery for the benchmark harness: run a workload natively
    and under a tool, returning deterministic cycle counts and checking
    output transparency. *)

type native_result = {
  nr_cycles : int64;
  nr_insns : int64;
  nr_stdout : string;
}

let run_native (img : Guest.Image.t) : native_result =
  let eng = Native.create img in
  (match Native.run eng with
  | Native.Exited 0 -> ()
  | Native.Exited n -> failwith (Printf.sprintf "native exit %d" n)
  | Native.Fatal_signal s -> failwith (Printf.sprintf "native signal %d" s)
  | Native.Out_of_fuel -> failwith "native out of fuel");
  {
    nr_cycles = Native.total_cycles eng;
    nr_insns = Native.total_insns eng;
    nr_stdout = Native.stdout_contents eng;
  }

type tool_result = {
  tr_cycles : int64;
  tr_stdout : string;
  tr_stats : Vg_core.Session.stats;
  tr_session : Vg_core.Session.t;
}

(** Run [s]; any exit but a clean one fails. *)
let run_session (s : Vg_core.Session.t) : tool_result =
  let tool = s.tool in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited 0 -> ()
  | Vg_core.Session.Exited n -> failwith (Printf.sprintf "%s exit %d" tool.name n)
  | Vg_core.Session.Fatal_signal sg ->
      failwith (Printf.sprintf "%s signal %d" tool.name sg)
  | Vg_core.Session.Out_of_fuel -> failwith (tool.name ^ " out of fuel"));
  let st = Vg_core.Session.stats s in
  {
    tr_cycles = st.st_total_cycles;
    tr_stdout = Vg_core.Session.client_stdout s;
    tr_stats = st;
    tr_session = s;
  }

let run_tool ?options (tool : Vg_core.Tool.t) (img : Guest.Image.t) :
    tool_result =
  run_session (Vg_core.Session.create ?options ~tool img)

let slowdown (n : native_result) (t : tool_result) : float =
  Int64.to_float t.tr_cycles /. Int64.to_float n.nr_cycles

let geomean (xs : float list) : float =
  if xs = [] then 0.0
  else exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let hr () = print_endline (String.make 78 '-')

let section title =
  print_newline ();
  print_endline (String.make 78 '=');
  Printf.printf "== %s\n" title;
  print_endline (String.make 78 '=')
