(* Per-layer measurements taken from the benchmark's own code: a traced
   re-run of a mine split into its Stage I and per-cluster Stage II calls,
   replays of plan compilation/execution and canonical keying over the mined
   patterns, and in-process probes of the store, protocol codec, signature
   index and server dispatch. *)

open Spm_graph
open Spm_pattern
open Spm_core
open Common
module Run = Spm_engine.Run
module Protocol = Spm_server.Protocol
module Server = Spm_server.Server
module Sig_index = Spm_server.Sig_index
module Sampler = Spm_workload.Sampler

(* {1 Read keys}

   The read key space: one resident pattern per distinct label multiset, in
   store order. A zipf draw picks a key; a [Lookup] asks for that exact
   multiset, a [Contains] submits that pattern's graph. *)

type key = { labels : Label.t list; graph : Graph.t }

let read_keys (patterns : Skinny_mine.mined list) =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (m : Skinny_mine.mined) ->
      let labels = List.sort compare (Array.to_list (Graph.labels m.pattern)) in
      if Hashtbl.mem seen labels then None
      else begin
        Hashtbl.add seen labels ();
        Some { labels; graph = m.pattern }
      end)
    patterns
  |> Array.of_list

type read_kind = Lookup | Contains

(* The reader's request stream: zipf-keyed, [Lookup] and [Contains] at 9:1,
   fixed by the seed. *)
let read_stream ~seed keys =
  let sampler = Sampler.zipf ~s:1.2 ~seed ~n:(Array.length keys) () in
  let mix = Random.State.make [| seed; 0x4ead |] in
  fun () ->
    let k = keys.(Sampler.next sampler) in
    if Random.State.int mix 10 = 0 then
      (Contains, Protocol.Contains k.graph)
    else (Lookup, Protocol.Lookup (Protocol.lookup_params ~labels:k.labels ()))

(* Single-edge additions between distinct non-adjacent vertices, never the
   same pair twice: every edit is a real change to the graph. The sequence
   is fixed per workload and carried through the seed's vertex numbering, so
   every seed repairs the same clusters. *)
let edit_stream spec ~seed g =
  let id = permutation spec ~seed in
  let st = Random.State.make [| spec.salt; 0xed17 |] in
  let used = Hashtbl.create 64 in
  let n = Graph.n g in
  let rec next () =
    let u = id.(Random.State.int st n) and v = id.(Random.State.int st n) in
    let key = (min u v, max u v) in
    if u = v || Graph.has_edge g u v || Hashtbl.mem used key then next ()
    else begin
      Hashtbl.add used key ();
      Delta.Add_edge (fst key, snd key)
    end
  in
  next

let ok_patterns (r : Protocol.response) =
  r.Protocol.status = Run.Ok
  && r.Protocol.unreachable = []
  && match r.Protocol.payload with Protocol.Patterns _ -> true | _ -> false

(* {1 In-process reads}

   [count] reads from the stream through [Server.handle] on a server
   holding [store]: the latencies of each kind. A key drawn
   from the resident set must find itself, so both kinds of answer are
   checked non-empty. *)

let inprocess_reads ~seed ~count store =
  let server = Server.create ~jobs:1 () in
  Server.set_store server store;
  let next = read_stream ~seed (read_keys store.Store.patterns) in
  let lookups = ref [] and contains = ref [] in
  for _ = 1 to count do
    let kind, req = next () in
    let resp, dt = timed (fun () -> Server.handle server req) in
    let found =
      match resp.Protocol.payload with
      | Protocol.Patterns (_ :: _) -> true
      | _ -> false
    in
    record ~what:"in-process read" (ok_patterns resp && found);
    match kind with
    | Lookup -> lookups := dt :: !lookups
    | Contains -> contains := dt :: !contains
  done;
  (!lookups, !contains)

(* {1 The traced mine}

   [Skinny_mine.mine] at jobs=1 is Stage I ([Diam_mine.mine]) followed by
   one [Level_grow.grow] per Stage-I entry, concatenated in entry order; the
   traced run makes exactly those calls, each under its own span, and its
   output must be byte-identical to the untraced jobs=1 reference. *)

let traced_mine spec g ~reference ~j1_seconds =
  let diam_run = Run.create () in
  let entries = ref 0 and stats = ref [] in
  let patterns =
    Trace.span "mine" (fun () ->
        let diam =
          Trace.span "diam_mine" (fun () ->
              Diam_mine.mine ~run:diam_run g ~l:spec.l ~sigma:spec.sigma)
        in
        entries := List.length diam.Diam_mine.entries;
        List.concat_map
          (fun entry ->
            let mined, st =
              Trace.span "level_grow" (fun () ->
                  Level_grow.grow ~closed_growth:spec.closed_growth ~data:g
                    ~sigma:spec.sigma ~delta:spec.delta ~entry ())
            in
            stats := st :: !stats;
            mined)
          diam.Diam_mine.entries)
  in
  check "traced mine byte-identical to the jobs=1 mine"
    (render patterns = render reference);
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 !stats) in
  let tried = sum (fun s -> s.Level_grow.extensions_tried) in
  let emitted = sum (fun s -> s.Level_grow.emitted) in
  let paths = float_of_int (Run.progress diam_run).Run.candidates in
  let diam_busy = Trace.self_time "diam_mine" in
  let grow_busy = Trace.self_time "level_grow" in
  let traced = Trace.total "mine" in
  [
    ("diam_mine.busy_s", diam_busy);
    ("diam_mine.paths_examined", paths);
    ("diam_mine.entries", float_of_int !entries);
    ("diam_mine.yield", float_of_int !entries /. paths);
    ("level_grow.busy_s", grow_busy);
    ( "level_grow.cluster_max_s",
      List.fold_left Float.max 0.0 (Trace.durations "level_grow") );
    ("level_grow.extensions_tried", tried);
    ( "level_grow.constraint_rejected",
      sum (fun s -> s.Level_grow.constraint_rejected) );
    ("level_grow.infrequent", sum (fun s -> s.Level_grow.infrequent));
    ("level_grow.emitted", emitted);
    ("level_grow.yield", emitted /. tried);
    ("trace.coverage", (diam_busy +. grow_busy) /. j1_seconds);
    ("trace.overhead_pct", 100.0 *. (traced -. j1_seconds) /. j1_seconds);
  ]

(* Plan compilation and execution replayed over the mined patterns, apart:
   [Plan.count] must reproduce each pattern's reported support. *)
let plan_replay g (patterns : Skinny_mine.mined list) =
  let nodes = ref 0 in
  let freq = Graph.label_freq g in
  List.iter
    (fun (m : Skinny_mine.mined) ->
      let plan =
        Trace.span "plan.compile" (fun () -> Plan.compile ~freq m.pattern)
      in
      let count =
        Trace.span "plan.exec" (fun () -> Plan.count ~nodes plan ~target:g)
      in
      check "plan count equals mined support" (count = m.support))
    patterns;
  List.iter
    (fun (m : Skinny_mine.mined) ->
      ignore (Trace.span "canon.key" (fun () -> Canon.key m.pattern)))
    patterns;
  [
    ("plan.compile_s", Trace.total "plan.compile");
    ("plan.exec_s", Trace.total "plan.exec");
    ("plan.nodes", float_of_int !nodes);
    ("canon.key_s", Trace.total "canon.key");
  ]

(* {1 Store, codec and index probes} *)

let store_opens path =
  [
    ("store.load_s", median (repeat 11 (fun () -> ignore (Store.load path))));
    ( "store.map_s",
      median (repeat 11 (fun () -> ignore (Store.load_mapped path))) );
  ]

let us x = 1e6 *. x

(* One request/response pair through the codec: encode and decode both. *)
let codec_round req resp =
  let (), dt =
    timed (fun () ->
        ignore (Protocol.decode_request (Protocol.encode_request req));
        ignore (Protocol.decode_response (Protocol.encode_response resp)))
  in
  dt

let codec_probes spec ~seed (patterns : Skinny_mine.mined list) g =
  let index = Sig_index.build patterns in
  let keys = read_keys patterns in
  let next = read_stream ~seed keys in
  let edit = edit_stream spec ~seed g in
  let lookups = ref [] and contains = ref [] in
  while List.length !lookups < 200 || List.length !contains < 50 do
    match next () with
    | Lookup, (Protocol.Lookup p as req) ->
      let ms = Sig_index.lookup ?labels:p.Protocol.labels index in
      lookups := codec_round req (Protocol.response (Patterns ms)) :: !lookups
    | Contains, (Protocol.Contains h as req) ->
      let ms = Sig_index.contained_in index h in
      contains :=
        codec_round req (Protocol.response (Patterns ms)) :: !contains
    | _ -> ()
  done;
  (* An update reply carrying one diameter cluster as added and removed. *)
  let first = (List.hd patterns).Skinny_mine.diameter_labels in
  let cluster =
    List.filter
      (fun (m : Skinny_mine.mined) -> m.diameter_labels = first)
      patterns
  in
  let reply =
    Protocol.Update_reply
      { Protocol.new_version = 1; added = cluster; removed = cluster;
        repaired = 1; clusters = Array.length keys }
  in
  let updates =
    List.init 200 (fun _ ->
        codec_round
          (Protocol.Update (Protocol.update_params [ edit () ]))
          (Protocol.response reply))
  in
  [
    ("protocol.codec_us.lookup", us (median !lookups));
    ("protocol.codec_us.contains", us (median !contains));
    ("protocol.codec_us.update", us (median updates));
  ]

let sig_index_probes ~seed (patterns : Skinny_mine.mined list) =
  let builds = repeat 5 (fun () -> ignore (Sig_index.build patterns)) in
  let index = Sig_index.build patterns in
  let next = read_stream ~seed (read_keys patterns) in
  let lookups = ref [] and contains = ref [] in
  while List.length !lookups < 500 || List.length !contains < 100 do
    match next () with
    | _, Protocol.Lookup p ->
      lookups :=
        snd (timed (fun () -> Sig_index.lookup ?labels:p.Protocol.labels index))
        :: !lookups
    | _, Protocol.Contains h ->
      contains :=
        snd (timed (fun () -> Sig_index.contained_in index h)) :: !contains
    | _ -> ()
  done;
  [
    ("sig_index.build_s", median builds);
    ("sig_index.lookup_us", us (median !lookups));
    ("sig_index.contained_in_us", us (median !contains));
  ]

(* Stage I alone at the width an update's repair runs it. *)
let stage1_probe spec g ~jobs =
  let pool = Spm_engine.Pool.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Spm_engine.Pool.shutdown pool)
    (fun () ->
      snd
        (timed (fun () ->
             Diam_mine.mine ~pool g ~l:spec.l ~sigma:spec.sigma)))
