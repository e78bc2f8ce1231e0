(** [vgscan]: the standalone static guest analyser.

    {v
    vgscan file.s [--json] [--blocks]   # scan one assembly image
    vgscan workload NAME [--json]       # scan a bench workload
    vgscan selfcheck                    # CI gate over all bench workloads
    vgscan hostile [--update] [--golden PATH]
    v}

    [selfcheck] scans every bench workload twice asserting bit-identical
    JSON and asserts zero findings on the benign corpus.  The dynamic
    half — each workload under [--scan --aot-seed] with a zero
    [static.cfg_miss] soundness-oracle count and client output identical
    to an unseeded run — is the oracle's [aot] set ([vgfuzz aot]).

    [hostile] scans every guest of the hostile corpus
    ({!Static.Hostile}), asserts each produces its expected finding
    classes, and compares the combined report against the committed
    golden ([--update] rewrites it). *)

let default_golden = "test/vgscan_hostile_golden.json"

let scan_report ?(blocks = false) (img : Guest.Image.t) : string =
  let cfg = Static.Cfg.scan img in
  let findings = Static.Lint.run cfg in
  Static.Report.to_json ~blocks cfg findings

let print_one (img : Guest.Image.t) ~(json : bool) ~(blocks : bool) : bool =
  let cfg = Static.Cfg.scan img in
  let findings = Static.Lint.run cfg in
  if json then print_string (Static.Report.to_json ~blocks cfg findings)
  else print_string (Static.Report.human cfg findings);
  findings = []

let run_selfcheck () : bool =
  print_endline "== vgscan: benign-corpus selfcheck ==";
  let failed = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failed;
        print_endline ("  FAIL " ^ m))
      fmt
  in
  List.iter
    (fun (w : Workloads.workload) ->
      let img = Workloads.compile ~scale:1 w in
      (* determinism: two scans must serialise bit-identically *)
      let j1 = scan_report img and j2 = scan_report img in
      if j1 <> j2 then fail "%s: scan output differs across runs" w.w_name;
      (* benign corpus: zero findings *)
      let cfg = Static.Cfg.scan img in
      let findings = Static.Lint.run cfg in
      if findings <> [] then
        List.iter
          (fun (f : Static.Lint.finding) ->
            fail "%s: benign finding [%s] at 0x%Lx: %s" w.w_name
              f.Static.Lint.f_class f.Static.Lint.f_addr f.Static.Lint.f_msg)
          findings;
      Printf.printf "%-10s ok (%d insns, %d blocks)\n%!" w.w_name
        cfg.Static.Cfg.n_insns
        (List.length cfg.Static.Cfg.blocks))
    Workloads.all;
  !failed = 0

let hostile_report () : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  List.iteri
    (fun i (g : Static.Hostile.guest) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (Printf.sprintf "\"%s\": " g.h_name);
      Buffer.add_string b (scan_report ~blocks:true g.h_image))
    (Static.Hostile.all ());
  Buffer.add_string b "}\n";
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_hostile ~(update : bool) ~(golden : string) : bool =
  print_endline "== vgscan: hostile corpus ==";
  let ok = ref true in
  (* every guest must produce its expected finding classes *)
  List.iter
    (fun (g : Static.Hostile.guest) ->
      let cfg = Static.Cfg.scan g.h_image in
      let classes = Static.Lint.classes_of (Static.Lint.run cfg) in
      List.iter
        (fun want ->
          if not (List.mem want classes) then begin
            ok := false;
            Printf.printf "  FAIL %s: expected class '%s', got [%s]\n"
              g.h_name want
              (String.concat ", " classes)
          end)
        g.h_classes;
      Printf.printf "%-16s [%s]\n%!" g.h_name (String.concat ", " classes))
    (Static.Hostile.all ());
  let report = hostile_report () in
  if update then begin
    let oc = open_out_bin golden in
    output_string oc report;
    close_out oc;
    Printf.printf "wrote %s (%d bytes)\n" golden (String.length report)
  end
  else if not (Sys.file_exists golden) then begin
    ok := false;
    Printf.printf "  FAIL golden %s missing (run with --update)\n" golden
  end
  else if read_file golden <> report then begin
    ok := false;
    Printf.printf "  FAIL report differs from golden %s\n" golden
  end
  else print_endline "golden match";
  !ok

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let flag f = List.mem f args in
  let value f default =
    let rec go = function
      | a :: v :: _ when a = f -> v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let positional =
    let rec go = function
      | [] -> []
      | a :: v :: rest when a = "--golden" -> ignore v; go rest
      | a :: rest when String.length a > 1 && a.[0] = '-' -> go rest
      | a :: rest -> a :: go rest
    in
    go args
  in
  let ok =
    match positional with
    | [ "selfcheck" ] -> run_selfcheck ()
    | [ "hostile" ] ->
        run_hostile ~update:(flag "--update")
          ~golden:(value "--golden" default_golden)
    | [ "workload"; name ] -> (
        match Workloads.find name with
        | Some w ->
            print_one
              (Workloads.compile ~scale:1 w)
              ~json:(flag "--json") ~blocks:(flag "--blocks")
        | None ->
            prerr_endline ("vgscan: unknown workload " ^ name);
            exit 2)
    | [ file ] when Sys.file_exists file ->
        print_one
          (Guest.Asm.assemble (read_file file))
          ~json:(flag "--json") ~blocks:(flag "--blocks")
    | _ ->
        prerr_endline
          "usage: vgscan <file.s>|workload NAME [--json] [--blocks]\n\
          \       vgscan selfcheck\n\
          \       vgscan hostile [--update] [--golden PATH]";
        exit 2
  in
  if not ok then begin
    prerr_endline "vgscan: FAILED";
    exit 1
  end
