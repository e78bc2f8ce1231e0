(** Memcheck in action: a client with the classic C memory bugs — use of
    uninitialised values (including one laundered through several copies
    and arithmetic, which only bit-precise definedness tracking pins on
    the *use* rather than the copies), a heap overrun, a use after free,
    and a leak.  Each produces exactly one deduplicated error report.

    Run with: [dune exec examples/memcheck_finds_bugs.exe] *)

let buggy_client =
  {|
int process(int *data, int n) {
  int i; int sum;
  sum = 0;
  for (i = 0; i <= n; i++) {       /* BUG: off-by-one heap read */
    sum = sum + data[i];
  }
  return sum;
}

int main() {
  int *data;
  int uninit[4];
  int laundered;
  char *msg;
  int verdict;

  /* bug 1: branch on uninitialised data (after laundering it through
     copies and additions — copying is fine, *using* is the error) */
  laundered = uninit[2] + 1;
  laundered = laundered * 2;
  if (laundered > 10) { verdict = 1; } else { verdict = 2; }

  /* bug 2: heap block overrun (read one past the end) */
  data = (int*)malloc(8 * sizeof(int));
  for (verdict = 0; verdict < 8; verdict++) { data[verdict] = verdict; }
  verdict = process(data, 8);

  /* bug 3: use after free */
  free((char*)data);
  verdict = verdict + data[0];

  /* bug 4: leak (never freed, pointer lost) */
  msg = malloc(64);
  strcpy(msg, "this block is lost");
  msg = (char*)0;

  print_str("client finished (verdict ");
  print_int(verdict * 0);
  print_str(")\n");
  return 0;
}
|}

let () =
  print_endline "Running a deliberately buggy client under Memcheck:\n";
  let img = Minicc.Driver.compile buggy_client in
  let heap = ref None in
  let tool =
    Tools.Memcheck.with_state ~track_origins:false (fun st -> heap := Some st)
  in
  let s = Vg_core.Session.create ~tool img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited n -> Printf.printf "client exit code: %d\n\n" n
  | _ -> print_endline "unexpected termination\n");
  print_string "client stdout:\n";
  print_string (Vg_core.Session.client_stdout s);
  print_string "\nMemcheck output:\n";
  print_string (Vg_core.Session.tool_output s);
  (match !heap with
  | Some st ->
      let m = Tools.Memcheck.stats_of st in
      Printf.printf
        "\nheap summary: %d allocs, %d frees, %Ld bytes allocated, %d \
         blocks live at exit\n"
        m.mc_allocs m.mc_frees m.mc_bytes m.mc_live_blocks
  | None -> ());
  (* the same client under --track-origins: the uninit report now names
     the allocation the junk value came from *)
  print_endline
    "\n----------------------------------------------------------------\n\
     The same client under memcheck-origins (--track-origins):\n";
  let s2 = Vg_core.Session.create ~tool:Tools.Memcheck.tool_origins img in
  (match Vg_core.Session.run s2 with
  | Vg_core.Session.Exited _ -> ()
  | _ -> print_endline "unexpected termination");
  (* print just the uninitialised-value reports, which now carry origins *)
  String.split_on_char '\n' (Vg_core.Session.tool_output s2)
  |> List.iter (fun l ->
         let has frag =
           let n = String.length frag in
           let rec go i =
             i + n <= String.length l && (String.sub l i n = frag || go (i + 1))
           in
           go 0
         in
         if has "Uninit" || has "created by" then print_endline l)
