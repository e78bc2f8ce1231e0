(** §5.1: tool-writing effort, measured as the paper measures it — lines
    of code of the core vs each tool plug-in.

    Paper numbers (Valgrind 3.2.1, C): core 170,280 + 3,207 asm;
    Memcheck 10,509; Cachegrind 2,431; Massif 1,764; Nulgrind 39.
    The claim reproduced is the *ratio*: the core dwarfs every tool, and
    the heavyweight tool (Memcheck) dwarfs the lightweight ones. *)

let count_dir (dir : string) : int =
  if not (Sys.file_exists dir) then 0
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.fold_left
         (fun acc f ->
           let ic = open_in (Filename.concat dir f) in
           let n = ref 0 in
           (try
              while true do
                ignore (input_line ic);
                incr n
              done
            with End_of_file -> ());
           close_in ic;
           acc + !n)
         0

let count_file (path : string) : int =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  end

let run () =
  Harness.section "§5.1: code sizes — core vs tool plug-ins (ours vs paper)";
  let core =
    List.fold_left (fun a d -> a + count_dir d) 0
      [ "lib/core"; "lib/jit"; "lib/vex_ir"; "lib/host"; "lib/guest";
        "lib/aspace"; "lib/kernel"; "lib/support" ]
  in
  let rows =
    [
      ("core (+ JIT + substrates)", core, 173487);
      (* Memcheck is built from the shadow-plane and allocator modules,
         so its row counts them, as it counted their code when it lived
         in memcheck.ml; Massif's row does not count the allocator *)
      ( "memcheck (+ shadow, malloc)",
        count_file "lib/tools/memcheck.ml"
        + count_file "lib/tools/shadow_mem.ml"
        + count_file "lib/tools/shadow_ir.ml"
        + count_file "lib/tools/replace_malloc.ml",
        10509 );
      ("cachegrind", count_file "lib/tools/cachegrind.ml"
                     + count_dir "lib/cachesim", 2431);
      ("massif", count_file "lib/tools/massif.ml", 1764);
      ("nulgrind", 12 (* Tool.nulgrind in lib/core/tool.ml *), 39);
    ]
  in
  Printf.printf "%-28s %14s %14s\n" "component" "ours (OCaml)" "paper (C)";
  Harness.hr ();
  List.iter
    (fun (name, ours, paper) ->
      Printf.printf "%-28s %14d %14d\n" name ours paper)
    rows;
  Harness.hr ();
  (match rows with
  | (_, core_l, core_p) :: (_, mc_l, mc_p) :: _ when mc_l > 0 && mc_p > 0 ->
      Printf.printf
        "core/memcheck ratio: ours %.1f, paper %.1f — the framework does\n\
         most of the work; \"writing a new tool plug-in is much easier than\n\
         writing a new DBA tool from scratch\".\n"
        (float_of_int core_l /. float_of_int mc_l)
        (float_of_int core_p /. float_of_int mc_p)
  | _ -> ());
  Printf.printf
    "(Run from the repository root so the source tree is visible;\n\
     zero rows mean the sources were not found.)\n"
