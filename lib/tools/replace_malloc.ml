(** The replaced guest allocator (R8), shared by Memcheck, Annelid and
    Massif: each tool supplies its [malloc], [calloc], [free] and
    [realloc], and this module decodes a call's arguments from the guest
    stack, runs the tool's operation and writes its result to r0.  It
    also holds the byte loops that [calloc] and [realloc] need. *)

module GA = Guest.Arch

(* argument [n] of a replaced call: inside the stub, [sp] holds the
   return address and the arguments are the words above it *)
let arg (caps : Vg_core.Tool.caps) n =
  let sp = caps.read_guest GA.off_sp 4 in
  Aspace.read caps.mem (Int64.add sp (Int64.of_int (4 * n))) 4

(** Zero the [len] client bytes at [addr]. *)
let zero (caps : Vg_core.Tool.caps) addr len =
  for i = 0 to len - 1 do
    Aspace.write caps.mem (Int64.add addr (Int64.of_int i)) 1 0L
  done

(** Copy [len] client bytes from [src] to [dst]. *)
let copy (caps : Vg_core.Tool.caps) ~src ~dst len =
  for i = 0 to len - 1 do
    let b = Aspace.read caps.mem (Int64.add src (Int64.of_int i)) 1 in
    Aspace.write caps.mem (Int64.add dst (Int64.of_int i)) 1 b
  done

(** Replace the guest allocator.  [malloc size], [calloc size] (the
    product of its two arguments) and [realloc ptr size] return the
    pointer for r0; after [free ptr], r0 is 0. *)
let install (caps : Vg_core.Tool.caps) ~malloc ~calloc ~free ~realloc =
  let size n = Int64.to_int (arg caps n) in
  let set_r0 v = caps.write_guest (GA.off_reg 0) 4 v in
  caps.replace_function ~symbol:"malloc" ~handler:(fun () ->
      set_r0 (malloc (size 1)));
  caps.replace_function ~symbol:"calloc" ~handler:(fun () ->
      set_r0 (calloc (size 1 * size 2)));
  caps.replace_function ~symbol:"free" ~handler:(fun () ->
      free (arg caps 1);
      set_r0 0L);
  caps.replace_function ~symbol:"realloc" ~handler:(fun () ->
      set_r0 (realloc (arg caps 1) (size 2)))
