(** Deterministic reports over a scan: machine JSON and a human view.

    Both forms are pure functions of the (already fully sorted) scan
    result, so the same image always serialises to the identical byte
    string — the CI scanner job asserts this by running every workload
    twice and comparing outputs bit for bit. *)

(** Machine-readable scan report.  [blocks] additionally embeds the full
    basic-block list (large for real workloads; the hostile golden uses
    it). *)
let to_json ?(blocks = false) (cfg : Cfg.t) (findings : Lint.finding list) :
    string =
  let open Cfg in
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"text_lo\": \"%s\",\n" (Lint.hex cfg.text_lo);
  add "  \"text_len\": %Ld,\n" (Int64.sub cfg.text_hi cfg.text_lo);
  add "  \"entry\": \"%s\",\n" (Lint.hex cfg.image.Guest.Image.entry);
  add "  \"insns\": %d,\n" cfg.n_insns;
  add "  \"weak_insns\": %d,\n" cfg.n_weak;
  add "  \"coverage_bytes\": %d,\n" cfg.coverage_bytes;
  add "  \"blocks\": %d,\n" (List.length cfg.blocks);
  add "  \"edges\": %d,\n" (n_edges cfg);
  add "  \"entries\": %d,\n" (List.length cfg.entries);
  add "  \"calls\": %d,\n" (List.length cfg.calls);
  add "  \"tables\": %d,\n" (List.length cfg.tables);
  add "  \"frontier\": %d,\n" (List.length cfg.frontier);
  add "  \"unreached\": [";
  List.iteri
    (fun i (a, len) ->
      add "%s{\"addr\": \"%s\", \"len\": %d}"
        (if i = 0 then "" else ", ")
        (Lint.hex a) len)
    cfg.unreached;
  add "],\n";
  add "  \"findings\": [";
  List.iteri
    (fun i (f : Lint.finding) ->
      add "%s\n    {\"class\": \"%s\", \"addr\": \"%s\", \"aux\": \"%s\", \"msg\": \"%s\"}"
        (if i = 0 then "" else ",")
        (Obs.json_escape f.Lint.f_class)
        (Lint.hex f.Lint.f_addr) (Lint.hex f.Lint.f_aux)
        (Obs.json_escape f.Lint.f_msg))
    findings;
  add "%s],\n" (if findings = [] then "" else "\n  ");
  if blocks then begin
    add "  \"block_list\": [";
    List.iteri
      (fun i blk ->
        add "%s\n    {\"addr\": \"%s\", \"len\": %d, \"insns\": %d, \"term\": \"%s\", \"succs\": ["
          (if i = 0 then "" else ",")
          (Lint.hex blk.bk_addr) blk.bk_len blk.bk_insns
          (Obs.json_escape blk.bk_term);
        List.iteri
          (fun j (s, k) ->
            add "%s{\"addr\": \"%s\", \"kind\": \"%s\"}"
              (if j = 0 then "" else ", ")
              (Lint.hex s) (edge_name k))
          blk.bk_succs;
        add "]}")
      cfg.blocks;
    add "%s],\n" (if cfg.blocks = [] then "" else "\n  ")
  end;
  add "  \"finding_classes\": [";
  List.iteri
    (fun i c -> add "%s\"%s\"" (if i = 0 then "" else ", ") (Obs.json_escape c))
    (Lint.classes_of findings);
  add "]\n}\n";
  Buffer.contents b

(** Human-readable summary for the terminal. *)
let human (cfg : Cfg.t) (findings : Lint.finding list) : string =
  let open Cfg in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let text_len = Int64.to_int (Int64.sub cfg.text_hi cfg.text_lo) in
  add "vgscan: text %s..%s (%d bytes)\n" (Lint.hex cfg.text_lo) (Lint.hex cfg.text_hi)
    text_len;
  add "  %d instructions (%d weak), %d/%d bytes reached (%.1f%%)\n"
    cfg.n_insns cfg.n_weak cfg.coverage_bytes text_len
    (if text_len = 0 then 100.0
     else 100.0 *. float_of_int cfg.coverage_bytes /. float_of_int text_len);
  add "  %d blocks, %d edges, %d calls, %d entries\n"
    (List.length cfg.blocks) (n_edges cfg) (List.length cfg.calls)
    (List.length cfg.entries);
  add "  %d jump tables, %d frontier sites, %d unreached gaps\n"
    (List.length cfg.tables) (List.length cfg.frontier)
    (List.length cfg.unreached);
  if findings = [] then add "  no findings\n"
  else begin
    add "  %d findings:\n" (List.length findings);
    List.iter
      (fun (f : Lint.finding) ->
        add "    [%s] %s: %s\n" f.Lint.f_class (Lint.hex f.Lint.f_addr)
          f.Lint.f_msg)
      findings
  end;
  Buffer.contents b
