(** The four benchmark workloads: which clients run under which tool.

    Every workload runs with [Session.default_options], which is what a
    user gets.  They are chosen so that each stresses a different layer
    of the simulator on the host:

    - [spec-nulgrind]: steady-state loop execution with no tool work —
      host interpreter, dispatch and chaining.  258 translations over
      the four programs, so the JIT is about 2% of host time.
    - [spec-memcheck]: the same programs with Memcheck — 3.4x more host
      instructions plus millions of tool helper calls.
    - [heap-memcheck]: malloc/free replacement churn and the exit leak
      check ([gcc] scans, [perlbmk] frees everything).  [vortex] takes
      the same path but one session takes ~31 s, more than a run.
    - [cold-memcheck]: many short generated programs in one process,
      like a test suite run under a DBI tool: nearly every executed
      block is a fresh translation, so the JIT, the verifier, session
      set-up and the process-global helper table dominate.  The only
      workload whose inputs depend on the seed. *)

type source = C of string | Asm of string

type client = { c_name : string; c_source : source }

type t = {
  name : string;
  tool : Vg_core.Tool.t;
  clients : seed:int -> small:bool -> client list;
      (** [small] is the smoke-test size: one client, the cheapest *)
}

let spec_client (name : string) : client =
  match Workloads.find name with
  | Some w -> { c_name = name; c_source = C (w.w_source ~scale:1) }
  | None -> invalid_arg ("unknown SPEC-shaped program " ^ name)

(* the full program list, or for the smoke test the one cheapest *)
let spec_clients ~small full smallest =
  List.map spec_client (if small then [ smallest ] else full)

(** Client [i] of the cold workload for [seed]: a generated program
    with its own derived seed, so one run's 60 programs all differ. *)
let cold_client ~seed ~small (i : int) : client =
  let seed = (1000 * seed) + i and size = if small then 20 else 200 in
  { c_name = Fuzz.Gen.name ~seed ~size; c_source = Asm (Fuzz.Gen.source ~seed ~size ()) }

let spec4 = [ "gzip"; "mcf"; "swim"; "mgrid" ]

let all : t list =
  [
    {
      name = "spec-nulgrind";
      tool = Vg_core.Tool.nulgrind;
      clients = (fun ~seed:_ ~small -> spec_clients ~small spec4 "mcf");
    };
    {
      name = "spec-memcheck";
      tool = Tools.Memcheck.tool;
      clients = (fun ~seed:_ ~small -> spec_clients ~small spec4 "mcf");
    };
    {
      name = "heap-memcheck";
      tool = Tools.Memcheck.tool;
      clients =
        (fun ~seed:_ ~small -> spec_clients ~small [ "gcc"; "perlbmk" ] "perlbmk");
    };
    {
      name = "cold-memcheck";
      tool = Tools.Memcheck.tool;
      clients =
        (fun ~seed ~small -> List.init (if small then 1 else 60) (cold_client ~seed ~small));
    };
  ]

let find (name : string) : t =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %s (one of: %s)" name
           (String.concat ", " (List.map (fun w -> w.name) all)))
