(** [vgfuzz]: the differential oracle's driver.

    {v
    vgfuzz [SET] [--seeds 1,2,3] [--count 300] [--out DIR]   # run one set
    vgfuzz corpus [DIR]            # the fuzz set over the regression corpus
    vgfuzz one --seed N --size K [--faulty]   # one generated program
    vgfuzz one --workload W [--tool T] [--way SET.WAY] [--seed N]
               [--trace PREFIX]    # one way on one cell: outcome + fault log
    v}

    [SET] is one of {!Fuzz.Diff.sets}: [fuzz] (the default), [chaos],
    [verify], [aot], [hostile], [cores] or [replay].  Every cell of a
    set (corpus item × tool) runs all of the set's ways and must pass
    all of its checks.  [--seeds] are the chaos seeds of [chaos] and the
    base generator seeds of [fuzz]; [--count] is the number of generated
    programs.  A failing cell is re-run with tracing into [--out]
    ([<set>-<cell>-<way>.jsonl] and [.chrome.json]); a failing generated
    program is also shrunk by deterministic re-generation and written to
    [--out] as a minimized [.s] repro.

    [one --workload] runs a single way of a set on one of the set's
    clients ([--way], default [chaos.idempotent]; [--seed] picks the
    set's seed) and prints its fault log, exit and stats digest;
    [--trace] writes the session's structured trace to [PREFIX.jsonl]
    and [PREFIX.chrome.json]. *)

let out_dir = ref "vgfuzz-out"

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* A failing generated program: shrink it under the same cell and write
   the minimized repro. *)
let shrink (c : Fuzz.Diff.cells) tool ~seed ~size ~faulty =
  let check ~seed ~size =
    Fuzz.Diff.run_cell c (Fuzz.Diff.generated_item ~seed ~size ~faulty) tool
  in
  let r = Fuzz.Shrink.shrink ~check ~faulty ~seed ~size () in
  ensure_dir !out_dir;
  let path =
    Filename.concat !out_dir
      (Printf.sprintf "%s%s.s"
         (Fuzz.Gen.name ~seed:r.Fuzz.Shrink.r_seed ~size:r.Fuzz.Shrink.r_size)
         (if faulty then "_faulty" else ""))
  in
  write_file path (Fuzz.Shrink.repro_source r);
  Printf.printf "  minimized to size %d -> %s\n" r.Fuzz.Shrink.r_size path

(** Run every cell of [groups]; 0 iff every check held. *)
let run_set (set : string) (groups : Fuzz.Diff.cells list) : int =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 and failed = ref 0 in
  List.iter
    (fun (c : Fuzz.Diff.cells) ->
      List.iter
        (fun (it : Fuzz.Diff.item) ->
          List.iter
            (fun ((tname, _) as tool) ->
              incr n;
              let name =
                String.concat " "
                  (List.filter (( <> ) "") [ c.label; it.i_name; tname ])
              in
              let t = Unix.gettimeofday () in
              match Fuzz.Diff.run_cell c it tool with
              | [] ->
                  Printf.printf "%s %-36s ok %7.0f ms\n%!" set name
                    ((Unix.gettimeofday () -. t) *. 1000.)
              | divs -> (
                  incr failed;
                  Printf.printf "%s %-36s FAIL\n" set name;
                  List.iter
                    (fun d -> print_endline ("  " ^ Fuzz.Diff.pp_divergence d))
                    divs;
                  let prefix =
                    Filename.concat !out_dir (Fuzz.Diff.sanitize (set ^ "-" ^ name))
                  in
                  ignore (Fuzz.Diff.run_cell ~trace_to:prefix c it tool);
                  Printf.printf "  traces: %s-<way>.jsonl\n%!" prefix;
                  match it.i_gen with
                  | Some (seed, size, faulty) -> shrink c tool ~seed ~size ~faulty
                  | None -> ()))
            c.tools)
        c.items)
    groups;
  Printf.printf "vgfuzz: %s: %d cells, %d failing, %.1f s\n" set !n !failed
    (Unix.gettimeofday () -. t0);
  print_endline (if !failed > 0 then "vgfuzz: FAILED" else "vgfuzz: OK");
  if !failed > 0 then 1 else 0

(* --- the regression corpus ------------------------------------------- *)

let corpus (dir : string) : int =
  if not (Sys.file_exists dir) then begin
    Printf.printf "vgfuzz: no corpus directory %s\n" dir;
    1
  end
  else
    let items =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".s")
      |> List.sort compare
      |> List.map (fun f ->
             Fuzz.Diff.item f (fun () ->
                 Guest.Asm.assemble (read_file (Filename.concat dir f))))
    in
    if items = [] then begin
      Printf.printf "vgfuzz: corpus %s has no .s entries\n" dir;
      1
    end
    else run_set "corpus" [ Fuzz.Diff.fuzz_cells items ]

(* --- one cell -------------------------------------------------------- *)

let one_generated ~seed ~size ~faulty : int =
  print_endline (Fuzz.Gen.source ~faulty ~seed ~size ());
  match Fuzz.Diff.check (Fuzz.Gen.image ~faulty ~seed ~size ()) with
  | [] ->
      print_endline "vgfuzz: agree";
      0
  | divs ->
      List.iter (fun d -> print_endline (Fuzz.Diff.pp_divergence d)) divs;
      1

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("vgfuzz: " ^ m); exit 2) fmt

(* one way of a set on one of the set's clients, fault log shown *)
let one_cell ~item ~tool ~way ~seed ~trace_to : int =
  let set, wname =
    match String.split_on_char '.' way with
    | [ s; w ] -> (s, w)
    | _ -> die "--way wants SET.WAY, got %s" way
  in
  let groups =
    match List.assoc_opt set Fuzz.Diff.sets with
    | Some f -> f ~seeds:[ seed ] ~count:0
    | None -> die "unknown set %s" set
  in
  let named l name f = List.find_opt (fun x -> f x = name) l in
  let w, it =
    match
      List.find_map
        (fun (c : Fuzz.Diff.cells) ->
          match
            ( named c.ways wname (fun (w : Fuzz.Diff.way) -> w.w_name),
              named c.items item (fun (i : Fuzz.Diff.item) -> i.i_name) )
          with
          | Some w, Some it -> Some (w, it)
          | _ -> None)
        groups
    with
    | Some found -> found
    | None -> die "set %s has no way %s over a client %s" set wname item
  in
  let t = try Tools.Catalog.find tool with Invalid_argument m -> die "%s" m in
  Printf.printf "== vgfuzz: %s under %s, way %s, seed %d ==\n" item tool way seed;
  let o = Fuzz.Diff.run ?trace_to ~files:it.i_files w t (it.i_image ()) in
  List.iter print_endline o.o_faults;
  match o.o_raised with
  | Some e ->
      Printf.printf "UNCAUGHT EXCEPTION: %s\n" e;
      1
  | None ->
      let stats =
        List.map (fun (k, v) -> k ^ "=" ^ Fuzz.Diff.sample_str v) o.o_stats
      in
      Printf.printf "%d faults injected; %s; stats digest %s\n"
        (List.length o.o_faults)
        (Fuzz.Diff.exit_kind_str o.o_exit)
        (Digest.to_hex (Digest.string (String.concat "\n" stats)));
      0

(* --- argv ------------------------------------------------------------ *)

let () =
  let seeds = ref [ 1; 2; 3 ] and count = ref 300 in
  let seed = ref 1 and size = ref 8 and faulty = ref false in
  let item = ref None and tool = ref "memcheck" and way = ref "chaos.idempotent" in
  let trace_to = ref None and anon = ref [] in
  let specs =
    [
      ( "--seeds",
        Arg.String (fun v -> seeds := List.map int_of_string (String.split_on_char ',' v)),
        "S,.. chaos seeds (chaos) or base generator seeds (fuzz)" );
      ("--count", Arg.Set_int count, "N generated programs (fuzz)");
      ("--out", Arg.Set_string out_dir, "DIR repros and traces of failing cells");
      ("--seed", Arg.Set_int seed, "N program seed; the set's seed with --workload");
      ("--size", Arg.Set_int size, "K generated program size (one)");
      ("--faulty", Arg.Set faulty, " generate in faulty mode (one)");
      ("--workload", Arg.String (fun v -> item := Some v), "W one cell on client W");
      ("--tool", Arg.Set_string tool, "T tool of the cell (one --workload)");
      ("--way", Arg.Set_string way, "SET.WAY way of the cell (one --workload)");
      ("--trace", Arg.String (fun v -> trace_to := Some v), "PREFIX trace the cell (one --workload)");
    ]
  in
  let usage = "vgfuzz [SET | corpus [DIR] | one] [options]" in
  Arg.parse specs (fun a -> anon := a :: !anon) usage;
  let run s = run_set s ((List.assoc s Fuzz.Diff.sets) ~seeds:!seeds ~count:!count) in
  exit
    (match (List.rev !anon, !item) with
    | [], _ -> run "fuzz"
    | [ s ], _ when List.mem_assoc s Fuzz.Diff.sets -> run s
    | [ "corpus" ], _ -> corpus "test/fuzz_corpus"
    | [ "corpus"; d ], _ -> corpus d
    | [ "one" ], Some item ->
        one_cell ~item ~tool:!tool ~way:!way ~seed:!seed ~trace_to:!trace_to
    | [ "one" ], None -> one_generated ~seed:!seed ~size:!size ~faulty:!faulty
    | _ ->
        prerr_endline usage;
        2)
