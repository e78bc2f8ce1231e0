(** Quickstart: "Valgrind core + tool plug-in = Valgrind tool" (§3.1).

    This example builds a complete (tiny) tool — a conditional-branch
    profiler — from scratch against the public API, and runs a mini-C
    client under it.  The whole tool is the [branch_profiler] value
    below: an [instrument] function that adds a helper call at every
    conditional exit, and a [fini] that reports.

    Run with: [dune exec examples/quickstart.exe] *)

open Vex_ir.Ir

(* --- the tool -------------------------------------------------------- *)

let branch_profiler : Vg_core.Tool.t =
  {
    name = "branchprof";
    description = "counts taken conditional branches per source function";
    shadow_ranges = [];
    create =
      (fun caps ->
        let taken = Hashtbl.create 64 in
        (* a helper callable from generated code; cost models a counter
           update in C *)
        let h_taken =
          caps.register_helper ~name:"bp_taken" ~cost:3 ~nargs:1 (fun args ->
              let site = args.(0) in
              Hashtbl.replace taken site
                (Int64.add 1L
                   (Option.value ~default:0L (Hashtbl.find_opt taken site)));
              0L)
        in
        let instrument (b : block) : block =
          (* rebuild the block, adding a guarded call at each Exit: the
             guard of the call IS the branch condition, so the helper
             runs exactly when the branch is taken *)
          let nb = empty_like b in
          let site = ref 0L in
          Support.Vec.iter
            (fun s ->
              (match s with
              | IMark (addr, _) -> site := addr
              | Exit (guard, _, _) ->
                  add_stmt nb (dirty ~guard h_taken [ i32 !site ])
              | _ -> ());
              add_stmt nb s)
            b.stmts;
          nb
        in
        {
          instrument;
          fini =
            (fun ~exit_code:_ ->
              let rows =
                Hashtbl.fold (fun k v acc -> (k, v) :: acc) taken []
                |> List.sort (fun (_, a) (_, b) -> compare b a)
              in
              caps.output "==branchprof== hottest taken branches:\n";
              List.iteri
                (fun i (site, count) ->
                  if i < 5 then
                    caps.output
                      (Printf.sprintf "==branchprof==   %8Ld taken at %s\n"
                         count (caps.symbolize site)))
                rows);
          client_request = (fun ~code:_ ~args:_ -> None);
        });
  }

(* --- a client to run under it ---------------------------------------- *)

let client =
  {|
int collatz(int n) {
  int steps;
  steps = 0;
  while (n != 1) {
    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
    steps++;
  }
  return steps;
}
int main() {
  int i; int total;
  total = 0;
  for (i = 1; i <= 200; i++) { total = total + collatz(i); }
  print_str("total collatz steps: "); print_int(total); print_str("\n");
  return 0;
}
|}

let () =
  print_endline "Compiling the client with minicc...";
  let img = Minicc.Driver.compile client in
  print_endline "Running it under the branch-profiler tool:\n";
  let s = Vg_core.Session.create ~tool:branch_profiler img in
  let reason = Vg_core.Session.run s in
  print_string (Vg_core.Session.client_stdout s);
  print_string (Vg_core.Session.tool_output s);
  let st = Vg_core.Session.stats s in
  Printf.printf
    "\n(core ran %Ld code blocks through %d translations; dispatcher hit \
     rate %.1f%%)\n"
    st.st_blocks st.st_translations
    (100.0 *. st.st_dispatch_hit_rate);
  Printf.printf
    "(translation chaining: %Ld transfers bypassed the dispatcher via %d \
     patched exit sites, %d unlinked)\n"
    st.st_chained st.st_chain_patched st.st_chain_unlinked;
  match reason with
  | Vg_core.Session.Exited 0 -> ()
  | _ -> print_endline "client did not exit cleanly!"
