(** Massif: the heap profiler (1,764 lines of C in the paper's §5.1 size
    table).  Replaces the guest allocator (like Memcheck) but instead of
    shadowing anything it tracks live heap volume over time and records
    peak usage and allocation-site totals. *)

type site = { mutable s_bytes : int64; mutable s_blocks : int }

type state = {
  caps : Vg_core.Tool.caps;
  live : (int64, int * int64 list) Hashtbl.t;  (** addr -> size, alloc stack *)
  sites : (int64 list, site) Hashtbl.t;
  mutable cur_bytes : int64;
  mutable peak_bytes : int64;
  mutable n_allocs : int;
  mutable snapshots : (int * int64) list;  (** (alloc ordinal, live bytes) *)
}

(** A timeline snapshot is taken every this many allocations. *)
let timeline_every = 16

let note_alloc (st : state) (addr : int64) (size : int) =
  st.caps.charge_cycles (150 + (size / 16));
  let stack = st.caps.stack_trace () in
  Hashtbl.replace st.live addr (size, stack);
  st.cur_bytes <- Int64.add st.cur_bytes (Int64.of_int size);
  if Int64.compare st.cur_bytes st.peak_bytes > 0 then
    st.peak_bytes <- st.cur_bytes;
  st.n_allocs <- st.n_allocs + 1;
  (match Hashtbl.find_opt st.sites stack with
  | Some s ->
      s.s_bytes <- Int64.add s.s_bytes (Int64.of_int size);
      s.s_blocks <- s.s_blocks + 1
  | None ->
      Hashtbl.replace st.sites stack
        { s_bytes = Int64.of_int size; s_blocks = 1 });
  if st.n_allocs mod timeline_every = 0 then
    st.snapshots <- (st.n_allocs, st.cur_bytes) :: st.snapshots

let note_free (st : state) (addr : int64) =
  st.caps.charge_cycles 100;
  match Hashtbl.find_opt st.live addr with
  | None -> ()
  | Some (size, _) ->
      Hashtbl.remove st.live addr;
      st.caps.client_free addr size;
      st.cur_bytes <- Int64.sub st.cur_bytes (Int64.of_int size)

(** Massif, handing each session's state to [on_state] at start-up. *)
let with_state (on_state : state -> unit) : Vg_core.Tool.t =
  {
    name = "massif";
    description = "a heap profiler";
    shadow_ranges = [];
    create =
      (fun caps ->
        let st =
          {
            caps;
            live = Hashtbl.create 64;
            sites = Hashtbl.create 64;
            cur_bytes = 0L;
            peak_bytes = 0L;
            n_allocs = 0;
            snapshots = [];
          }
        in
        on_state st;
        (* the block of [size] bytes at [addr] (0: the arena is full) *)
        let allocated addr size =
          if addr <> 0L then note_alloc st addr size;
          addr
        in
        Replace_malloc.install caps
          ~malloc:(fun size ->
            let size = max 1 size in
            allocated (caps.client_alloc size) size)
          ~calloc:(fun size ->
            let size = max 1 size in
            let addr = caps.client_alloc size in
            if addr <> 0L then Replace_malloc.zero caps addr size;
            allocated addr size)
          ~free:(note_free st)
          ~realloc:(fun old size ->
            let size = max 1 size in
            let naddr = caps.client_alloc size in
            (match Hashtbl.find_opt st.live old with
            | Some (osize, _) when naddr <> 0L ->
                Replace_malloc.copy caps ~src:old ~dst:naddr (min osize size);
                note_free st old
            | _ -> ());
            allocated naddr size);
        {
          instrument = (fun b -> b);
          fini =
            (fun ~exit_code:_ ->
              (* allocations since the last periodic snapshot would
                 otherwise be invisible in the timeline: take a closing
                 snapshot unless one just fired on the final ordinal *)
              if st.n_allocs mod timeline_every <> 0 then
                st.snapshots <- (st.n_allocs, st.cur_bytes) :: st.snapshots;
              caps.output
                (Printf.sprintf
                   "==massif== peak heap: %Ld bytes; %d allocations; live at exit: %Ld bytes\n"
                   st.peak_bytes st.n_allocs st.cur_bytes);
              (match List.rev st.snapshots with
              | [] -> ()
              | timeline ->
                  caps.output "==massif== heap timeline (allocs: live bytes):\n";
                  List.iter
                    (fun (n, bytes) ->
                      caps.output
                        (Printf.sprintf "==massif==   %6d: %Ld\n" n bytes))
                    timeline);
              let top =
                Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.sites []
                |> List.sort (fun (_, a) (_, b) -> compare b.s_bytes a.s_bytes)
                |> List.filteri (fun i _ -> i < 5)
              in
              List.iter
                (fun (stack, s) ->
                  let where =
                    match stack with
                    | _ :: caller :: _ -> caps.symbolize caller
                    | [ only ] -> caps.symbolize only
                    | [] -> "?"
                  in
                  caps.output
                    (Printf.sprintf "==massif==   %Ld bytes in %d blocks from %s\n"
                       s.s_bytes s.s_blocks where))
                top);
          client_request = (fun ~code:_ ~args:_ -> None);
        });
  }

let tool = with_state ignore
