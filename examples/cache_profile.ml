(** Cachegrind in action: the same matrix multiplication in naive
    (row×column) and transposed (cache-friendly) form.  The instruction
    counts are nearly identical; the D1 miss rates are not — which is
    the whole point of a cache profiler.

    Run with: [dune exec examples/cache_profile.exe] *)

let client transposed =
  Printf.sprintf
    {|
double a[64*64]; double b[64*64]; double c[64*64]; double bt[64*64];
int main() {
  int i; int j; int k; double acc;
  srand(2);
  for (i = 0; i < 4096; i++) {
    a[i] = (double)(rand() %% 100) / 100.0;
    b[i] = (double)(rand() %% 100) / 100.0;
  }
  if (%d) {
    /* transpose b first: unit-stride inner loop */
    for (i = 0; i < 64; i++) {
      for (j = 0; j < 64; j++) { bt[j*64+i] = b[i*64+j]; }
    }
    for (i = 0; i < 64; i++) {
      for (j = 0; j < 64; j++) {
        acc = 0.0;
        for (k = 0; k < 64; k++) { acc = acc + a[i*64+k] * bt[j*64+k]; }
        c[i*64+j] = acc;
      }
    }
  } else {
    /* naive: b walked with stride 64 doubles = 512 bytes *)  */
    for (i = 0; i < 64; i++) {
      for (j = 0; j < 64; j++) {
        acc = 0.0;
        for (k = 0; k < 64; k++) { acc = acc + a[i*64+k] * b[k*64+j]; }
        c[i*64+j] = acc;
      }
    }
  }
  print_str("checksum: "); print_double(c[64*32+32]); print_str("\n");
  return 0;
}
|}
    (if transposed then 1 else 0)

(* the last run's Cachegrind state, for the annotate-style report *)
let last = ref None

let run_one label transposed =
  (* a small D1 makes the stride effect visible at this matrix size *)
  let img = Minicc.Driver.compile (client transposed) in
  let tool = Tools.Cachegrind.with_state (fun st -> last := Some st) in
  let s = Vg_core.Session.create ~tool img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited 0 -> ()
  | _ -> print_endline "client failed");
  Printf.printf "--- %s ---\n" label;
  print_string (Vg_core.Session.client_stdout s);
  print_string (Vg_core.Session.tool_output s);
  print_newline ()

let () =
  print_endline
    "64x64 double matrix multiply, naive vs transposed, under Cachegrind:\n";
  run_one "naive (stride-64 inner loop over b)" false;
  run_one "transposed (unit-stride inner loops)" true;
  print_endline
    "Same arithmetic, same instruction counts — very different D1 read\n\
     miss rates.  This is the analysis Cachegrind exists for.";
  match !last with
  | Some st ->
      let hot = Tools.Cachegrind.hottest st 3 in
      print_endline "\nhottest PCs of the last run (annotate-style):";
      List.iter
        (fun (pc, c) ->
          Printf.printf "  0x%LX: %Ld instructions, %Ld reads, %Ld writes\n"
            pc c.Tools.Cachegrind.c_ir c.c_dr c.c_dw)
        hot
  | None -> ()
