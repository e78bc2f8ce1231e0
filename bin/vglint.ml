(** [vglint]: the standalone JIT-verifier driver.

    {v
    vglint mutate    # seeded-miscompile validation of the verifiers
    vglint           # the same (CI entry point); exit 0 iff all caught
    v}

    [mutate] compiles a guest corpus, injects seeded miscompile bugs
    (dropped PUT, lost register assignment, wrong shift width, stale
    label, corrupted byte, ...) into individual phase results and checks
    each is caught at the earliest boundary that can see it.  The other
    half of the verifiers' contract — zero false positives over every
    tool, workload and pipeline shape — is the oracle's [verify] set
    ([vgfuzz verify]). *)

let run_mutate () : bool =
  print_endline "== vglint: seeded-mutation validation ==";
  let outcomes = Verify.Mutate.run () in
  List.iter (fun o -> Fmt.pr "%a@." Verify.Mutate.pp_outcome o) outcomes;
  let ok = Verify.Mutate.all_caught outcomes in
  let caught = List.length (List.filter (fun o -> o.Verify.Mutate.o_caught) outcomes) in
  Fmt.pr "%d/%d seeded bugs caught at their earliest boundary@." caught
    (List.length outcomes);
  ok

let () =
  let ok =
    match Array.to_list Sys.argv |> List.tl with
    | [] | [ "mutate" ] -> run_mutate ()
    | m :: _ ->
        prerr_endline ("vglint: unknown mode '" ^ m ^ "' (mutate)");
        exit 2
  in
  if not ok then begin
    prerr_endline "vglint: FAILED";
    exit 1
  end;
  print_endline "vglint: all checks hold"
