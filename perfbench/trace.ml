(* Spans recorded from the benchmark's own code around calls into each
   layer's public functions: name, start, end and the enclosing span. Kept in
   memory (one domain — every traced call runs sequentially) and written out
   as JSON lines when the run ends. A span's self time is its duration minus
   the part of it its child spans cover. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start : float;
  mutable stop : float;
}

let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let s = { id; name; parent; start = Common.now (); stop = nan } in
  spans := s :: !spans;
  stack := id :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Common.now ();
      stack := List.tl !stack)
    f

let duration s = s.stop -. s.start

(* Self time per span id: children never overlap (one domain), so the
   covered part of a span is the sum of its children's durations. *)
let self_times () =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    !spans;
  List.map
    (fun s ->
      ( s,
        duration s
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) ))
    !spans

(* Summed self time of every span named [name]. *)
let self_time name =
  List.fold_left
    (fun acc (s, self) -> if s.name = name then acc +. self else acc)
    0.0 (self_times ())

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    !spans

let total name = List.fold_left ( +. ) 0.0 (durations name)

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start\": %.6f, \
             \"end\": %.6f}\n"
            s.id s.name s.parent s.start s.stop)
        (List.rev !spans))
