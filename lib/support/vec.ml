(** Minimal growable array, used for IR temp-type environments and
    statement lists where the JIT appends heavily. *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 8) dummy =
  { data = Array.make (max 1 capacity) dummy; len = 0; dummy }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- v

let push t v =
  if t.len = Array.length t.data then begin
    let nd = Array.make (2 * t.len) t.dummy in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let to_list t = List.init t.len (fun i -> t.data.(i))
let of_list dummy l =
  let t = create ~capacity:(max 1 (List.length l)) dummy in
  List.iter (push t) l;
  t

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let copy t = { data = Array.sub t.data 0 (max 1 t.len); len = t.len; dummy = t.dummy }

(** The first [n] elements of [a] as a vector that takes [a] over (the
    rest of [a] is cleared). *)
let of_array_prefix dummy a n =
  if n < 0 || n > Array.length a then invalid_arg "Vec.of_array_prefix";
  Array.fill a n (Array.length a - n) dummy;
  { data = (if Array.length a = 0 then Array.make 1 dummy else a); len = n; dummy }

let to_array t = Array.sub t.data 0 t.len
let clear t = t.len <- 0
