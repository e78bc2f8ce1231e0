(** The in-tree tools under their command-line names: the one list every
    driver, sweep and test picks tools from. *)

let all : (string * Vg_core.Tool.t) list =
  [
    ("nulgrind", Vg_core.Tool.nulgrind);
    ("memcheck", Memcheck.tool);
    ("memcheck-origins", Memcheck.tool_origins);
    ("cachegrind", Cachegrind.tool);
    ("massif", Massif.tool);
    ("lackey", Lackey.tool);
    ("taintgrind", Taintgrind.tool);
    ("annelid", Annelid.tool);
    ("redux", Redux.tool);
    ("drd", Drd.tool);
    ("icnti", Icnt.icnt_inline);
    ("icntc", Icnt.icnt_call);
  ]

let names () : string list = List.map fst all

(** The tool named [name]; [Invalid_argument] lists the known names. *)
let find (name : string) : Vg_core.Tool.t =
  match List.assoc_opt name all with
  | Some t -> t
  | None ->
      invalid_arg
        (Printf.sprintf "unknown tool '%s' (have: %s)" name
           (String.concat ", " (names ())))

(** The tools named in [names], in that order. *)
let pick (names : string list) : (string * Vg_core.Tool.t) list =
  List.map (fun n -> (n, find n)) names
