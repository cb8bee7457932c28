(* Shared pieces of the benchmark: the workload table, input generation,
   sample statistics, the one-line JSON reports every subcommand prints, and
   the outcome ledger behind the [attempted] / [failed] counts. *)

open Spm_graph
module Store = Spm_store.Store
module Codec = Spm_store.Codec
module Skinny_mine = Spm_core.Skinny_mine

(* {1 Workloads} *)

type spec = {
  name : string;
  n : int;  (** vertices of the Erdős–Rényi input graph *)
  labels : int;  (** label universe f *)
  avg_degree : float;
  l : int;
  delta : int;
  sigma : int;
  closed_growth : bool;
  mapped : bool;  (** open the input with [Store.load_mapped], not [load] *)
  salt : int;  (** seeds the workload's fixed graph structure *)
}

let specs =
  [
    { name = "mine_grow"; n = 2000; labels = 30; avg_degree = 2.2; l = 4;
      delta = 2; sigma = 2; closed_growth = true; mapped = false; salt = 11 };
    { name = "mine_paths"; n = 20000; labels = 20; avg_degree = 3.0; l = 7;
      delta = 0; sigma = 6; closed_growth = false; mapped = true; salt = 23 };
    { name = "serve_mixed"; n = 1500; labels = 30; avg_degree = 2.2; l = 4;
      delta = 2; sigma = 2; closed_growth = true; mapped = true; salt = 37 };
  ]

let spec_of name =
  match List.find_opt (fun s -> s.name = name) specs with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "unknown workload %s" name)

(* The seed's vertex numbering: [id.(v)] is the new id of vertex [v] of the
   workload's fixed graph structure. *)
let permutation spec ~seed =
  let order = Array.init spec.n Fun.id in
  Gen.shuffle (Gen.rng ((seed * 7919) + spec.salt)) order;
  let id = Array.make spec.n 0 in
  Array.iteri (fun i v -> id.(v) <- i) order;
  id

(* The workload's graph: one fixed Erdős–Rényi structure per workload, its
   vertices renumbered by the seed's permutation. Every seed thus mines the
   same amount of work (random ER graphs of these sizes differ by up to 2x in
   mining cost and pattern count), while the CSR layout, the Stage-I table
   order and the read stream drawn from the seed still vary from run to
   run. *)
let graph_of spec ~seed =
  let base =
    Gen.erdos_renyi (Gen.rng spec.salt) ~n:spec.n ~avg_degree:spec.avg_degree
      ~num_labels:spec.labels
  in
  let id = permutation spec ~seed in
  let label = Array.make spec.n 0 in
  Array.iteri (fun v i -> label.(i) <- Graph.label base v) id;
  let b = Graph.Builder.create () in
  Array.iter (fun l -> ignore (Graph.Builder.add_vertex b l)) label;
  Graph.iter_edges (fun u v -> Graph.Builder.add_edge b id.(u) id.(v)) base;
  Graph.Builder.freeze b

let mine_config (spec : spec) ~jobs =
  Skinny_mine.Config.(
    default |> with_closed_growth spec.closed_growth |> with_jobs jobs)

let mine (spec : spec) ~jobs g =
  Skinny_mine.mine ~config:(mine_config spec ~jobs) g ~l:spec.l
    ~delta:spec.delta ~sigma:spec.sigma

let store_of_result spec g r =
  Store.of_result ~graph:g ~l:spec.l ~delta:spec.delta ~sigma:spec.sigma
    ~closed_growth:spec.closed_growth r

let open_store spec path =
  if spec.mapped then Store.load_mapped path else Store.load path

(* The byte form outputs are compared in: the store codec's own encoding of
   each mined pattern, in order. *)
let render (ms : Skinny_mine.mined list) =
  let w = Codec.W.create () in
  List.iter (Store.write_mined w) ms;
  Codec.W.contents w

(* {1 Timing and statistics} *)

(* Monotonic nanoseconds: reads take microseconds, finer than
   [Unix.gettimeofday] resolves. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, p in [0, 1]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Midpoint median, so an even count of samples does not pick a side. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The median over [k] consecutive chunks of [xs] of each chunk's
   [p]-percentile: outside load that hits one stretch of a run moves one
   chunk, not the result. *)
let chunked_percentile ?(k = 10) xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  median
    (List.init k (fun i ->
         let lo = i * n / k and hi = (i + 1) * n / k in
         percentile (Array.to_list (Array.sub a lo (hi - lo))) p))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let repeat k f = List.init k (fun _ -> snd (timed f))

let vm_hwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0
        | Some line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              Fun.id
          else scan ()
      in
      scan ())

let file_size path = (Unix.stat path).Unix.st_size

(* {1 Outcomes}

   Every operation the benchmark times is counted; a wrong output, a non-[Ok]
   or [Partial] status, or an exception counts it as failed, and the first
   few reasons are kept for the report. Shared between threads of the load
   generator, hence the lock. *)

let attempted = ref 0
let failed = ref 0
let problems = ref []
let ledger_lock = Mutex.create ()

let record ?(what = "") ok =
  Mutex.lock ledger_lock;
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !problems < 8 then problems := what :: !problems
  end;
  Mutex.unlock ledger_lock

(* A check that is not itself a timed operation (byte-identity of a replay,
   version continuity, input determinism): counts as one more attempt. *)
let check what ok = record ~what ok

(* {1 Reports}

   Each subcommand ends by printing one JSON object on a line of its own:
   [metrics] (name -> number) and [info] (name -> JSON value). *)

let json_float x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s = Printf.sprintf "%S" s

let report ~metrics ~info =
  let obj fields =
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}"
  in
  let metrics = List.map (fun (k, v) -> (k, json_float v)) metrics in
  let info =
    info
    @ [
        ("attempted", string_of_int !attempted);
        ("failed", string_of_int !failed);
        ( "problems",
          "[" ^ String.concat ", " (List.rev_map json_string !problems) ^ "]" );
      ]
  in
  print_string (obj [ ("metrics", obj metrics); ("info", obj info) ]);
  print_newline ()

let spec_info spec ~jobs =
  [
    ("workload", json_string spec.name);
    ( "sizes",
      Printf.sprintf
        "{\"n\": %d, \"labels\": %d, \"avg_degree\": %g, \"l\": %d, \
         \"delta\": %d, \"sigma\": %d, \"closed_growth\": %b}"
        spec.n spec.labels spec.avg_degree spec.l spec.delta spec.sigma
        spec.closed_growth );
    ("jobs", string_of_int jobs);
    ("ocaml", json_string Sys.ocaml_version);
  ]
