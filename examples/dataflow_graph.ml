(** Redux in action (paper §1.2): build the dynamic dataflow graph of a
    small computation and print, in Graphviz DOT, every prior operation
    that contributed to the program's result.

    Run with: [dune exec examples/dataflow_graph.exe]
    (pipe the DOT block through `dot -Tpng` to see the picture) *)

let client =
  {|
int triple(int x) { return x + x + x; }
int main() {
  int a; int b; int c;
  a = 6;
  b = triple(a);        /* 18 */
  c = b * 2 + a;        /* 42 */
  return c;
}
|}

let () =
  print_endline "Running under Redux (every operation becomes a DAG node):\n";
  let img = Minicc.Driver.compile client in
  let dag = ref None in
  let tool = Tools.Redux.with_state (fun st -> dag := Some st) in
  let s = Vg_core.Session.create ~tool img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited n -> Printf.printf "client exit code: %d\n\n" n
  | _ -> print_endline "unexpected termination");
  print_string (Vg_core.Session.tool_output s);
  (match !dag with
  | Some st ->
      Printf.printf
        "\n(The full DAG has %d nodes — the paper's verdict that Redux is\n\
         \"not practical for anything more than toy programs\" reproduces:\n\
         every guest operation paid a helper call.)\n"
        (Support.Vec.length st.nodes)
  | None -> ())
