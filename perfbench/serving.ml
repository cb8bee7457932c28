(* The serving tier as a user meets it: shard workers and a router, each in
   a process of its own (as threads of the load generator they would share
   its OCaml runtime lock), driven by two closed-loop connections from one
   load-generating process.

   - reader: zipf-keyed [Lookup]s and [Contains] at 9:1, no think time;
   - writer: one seeded single-edge [Update], then one resident [Mine], then
     [writer_think] seconds of think time, repeated.

   A worker repairing an update holds its process's runtime lock, so a read
   landing on it waits. With no writer think time the workers are busy about
   half the time and the read median flips between the waiting and the
   unhindered mode from run to run; the think time keeps them mostly idle,
   so the median reads the unhindered mode and the tail the waiting one.

   Afterwards the writer's exact edit sequence is replayed in-process
   through [Incremental], and the router's final full [Lookup] must be
   byte-identical to the replayed pattern set. *)

open Spm_graph
open Spm_core
open Common
module Run = Spm_engine.Run
module Protocol = Spm_server.Protocol
module Server = Spm_server.Server
module Client = Spm_server.Client
module Partition = Spm_cluster.Partition
module Worker = Spm_cluster.Worker
module Router = Spm_cluster.Router

let shards = 2
let writer_think = 0.2

(* {1 Child processes} *)

type proc = { pid : int; stdin : out_channel; stdout : in_channel }

(* Every child still running, so a failure anywhere can stop them all. *)
let live : proc list ref = ref []

let spawn args =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w
      Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let p =
    {
      pid;
      stdin = Unix.out_channel_of_descr in_w;
      stdout = Unix.in_channel_of_descr out_r;
    }
  in
  live := p :: !live;
  p

(* The child's one report line, then its exit. *)
let finish p =
  let line = In_channel.input_line p.stdout in
  let _, status = Unix.waitpid [] p.pid in
  live := List.filter (fun q -> q.pid <> p.pid) !live;
  close_in_noerr p.stdout;
  close_out_noerr p.stdin;
  match (line, status) with
  | Some l, Unix.WEXITED 0 -> l
  | _ -> failwith "serving child process failed"

let kill_all () =
  List.iter
    (fun p ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let read_port p =
  match In_channel.input_line p.stdout with
  | Some l -> int_of_string l
  | None -> failwith "serving child exited before listening"

(* Worker process: serve one shard store until stdin closes, then report
   "vm_hwm_kb requests cache_hits". *)
let worker_main file =
  let w = Worker.start ~jobs:1 ~path:file (Store.load_mapped file) in
  Printf.printf "%d\n%!" (Worker.port w);
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  let st = Server.stats (Worker.server w) in
  Worker.stop w;
  Printf.printf "%d %d %d\n%!" (vm_hwm_kb ()) st.Protocol.requests
    st.Protocol.cache_hits

(* Router process: front the workers until a [Shutdown], then report
   "vm_hwm_kb contacted pruned". *)
let router_main manifest ports =
  let endpoints =
    Array.of_list (List.map (fun p -> ("127.0.0.1", int_of_string p)) ports)
  in
  let router =
    Router.create ~deadline:150.0 ~manifest:(Partition.load_manifest manifest)
      ~endpoints ()
  in
  let fd, port = Server.listen ~port:0 () in
  Printf.printf "%d\n%!" port;
  Router.serve router fd;
  let contacted, pruned = Router.pruning router in
  Printf.printf "%d %d %d\n%!" (vm_hwm_kb ()) contacted pruned

type cluster = { workers : proc array; router : proc; port : int }

(* Spawn the workers, then the router on their ports; ready once a [Ping]
   through the router answers. *)
let start_cluster ~base =
  let workers =
    Array.init shards (fun i ->
        spawn [ "worker"; Partition.shard_file ~base ~shard:i ~shards ])
  in
  let ports = Array.map read_port workers in
  let router =
    spawn
      ("router" :: Partition.manifest_file ~base
      :: Array.to_list (Array.map string_of_int ports))
  in
  let port = read_port router in
  Client.with_connection ~port Client.ping;
  { workers; router; port }

type reports = {
  rss_kb : int;  (** router plus workers *)
  requests : int;  (** worker requests *)
  cache_hits : int;
  contacted : int;
  pruned : int;
}

let stop_cluster c =
  Client.with_connection ~port:c.port Client.shutdown;
  let rss, contacted, pruned =
    Scanf.sscanf (finish c.router) "%d %d %d" (fun a b c -> (a, b, c))
  in
  Array.iter (fun w -> close_out w.stdin) c.workers;
  Array.fold_left
    (fun acc w ->
      Scanf.sscanf (finish w) "%d %d %d" (fun kb req hits ->
          {
            acc with
            rss_kb = acc.rss_kb + kb;
            requests = acc.requests + req;
            cache_hits = acc.cache_hits + hits;
          }))
    { rss_kb = rss; requests = 0; cache_hits = 0; contacted; pruned }
    c.workers

(* {1 Load} *)

type load = {
  reads : (Layers.read_kind * float * float) list;
      (** kind, client round trip, router envelope seconds; newest first *)
  done_at : float list;  (** completion time of every request *)
  updates : (float * float) list;  (** round trip, envelope seconds *)
  mines : float list;  (** round trips *)
  edits : Delta.edit list list;  (** in commit order *)
  replies : Protocol.update_reply list;  (** in commit order *)
  start : float;
  elapsed : float;
}

let guarded what f =
  try f () with e -> record ~what:(what ^ ": " ^ Printexc.to_string e) false

let drive spec ~port ~seed ~keys ~graph ~mine ~version ~seconds ~quota =
  let reads = ref [] and updates = ref [] and mines = ref [] in
  let read_done = ref [] and write_done = ref [] in
  let edits = ref [] and replies = ref [] in
  let writer_done = ref false in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let reader () =
    guarded "reader" (fun () ->
        Client.with_connection ~port (fun c ->
            let next = Layers.read_stream ~seed keys in
            while not (!writer_done && now () >= deadline) do
              let kind, req = next () in
              let resp, rtt = timed (fun () -> Client.call c req) in
              record ~what:"routed read" (Layers.ok_patterns resp);
              reads := (kind, rtt, resp.Protocol.seconds) :: !reads;
              read_done := now () :: !read_done
            done))
  in
  let writer () =
    Fun.protect
      ~finally:(fun () -> writer_done := true)
      (fun () ->
        guarded "writer" (fun () ->
            Client.with_connection ~port (fun c ->
                let edit = Layers.edit_stream spec ~seed graph in
                let version = ref version in
                let go () =
                  match quota with
                  | Some q -> List.length !updates < q
                  | None -> now () < deadline
                in
                while go () do
                  let batch = [ edit () ] in
                  edits := batch :: !edits;
                  let resp, rtt =
                    timed (fun () ->
                        Client.call c
                          (Protocol.Update (Protocol.update_params batch)))
                  in
                  updates := (rtt, resp.Protocol.seconds) :: !updates;
                  write_done := now () :: !write_done;
                  (match resp.Protocol.payload with
                  | Protocol.Update_reply r
                    when resp.Protocol.status = Run.Ok
                         && resp.Protocol.unreachable = []
                         && r.Protocol.new_version = !version + 1 ->
                    version := r.Protocol.new_version;
                    replies := r :: !replies;
                    record true
                  | _ -> record ~what:"routed update" false);
                  let resp, rtt =
                    timed (fun () -> Client.call c (Protocol.Mine mine))
                  in
                  record ~what:"routed mine" (Layers.ok_patterns resp);
                  mines := rtt :: !mines;
                  write_done := now () :: !write_done;
                  Thread.delay writer_think
                done)))
  in
  let threads = [ Thread.create reader (); Thread.create writer () ] in
  List.iter Thread.join threads;
  {
    reads = !reads;
    done_at = !read_done @ !write_done;
    updates = !updates;
    mines = !mines;
    edits = List.rev !edits;
    replies = List.rev !replies;
    start = t0;
    elapsed = now () -. t0;
  }

(* {1 The in-process replay} *)

type replay = {
  restore_s : float;
  update_s : float list;
  final : Skinny_mine.mined list;
}

let replay spec (store : Store.pattern_store) ~jobs ~(load : load) =
  if load.edits = [] then
    { restore_s = nan; update_s = []; final = store.Store.patterns }
  else
  let dg = Delta.of_graph store.Store.graph in
  let restored, restore_s =
    timed (fun () ->
        Incremental.restore ~config:(mine_config spec ~jobs) dg ~l:spec.l
          ~delta:spec.delta ~sigma:spec.sigma ~patterns:store.Store.patterns)
  in
  match restored with
  | None ->
    check "incremental restore of the served store" false;
    { restore_s; update_s = []; final = [] }
  | Some inc ->
    let inc, times =
      List.fold_left
        (fun (inc, times) batch ->
          let (inc, diff), dt = timed (fun () -> Incremental.update inc batch) in
          check "replayed update committed" (diff.Incremental.status = Run.Ok);
          (inc, (dt, diff) :: times))
        (inc, []) load.edits
    in
    let diffs = List.rev_map snd times in
    if List.length diffs = List.length load.replies then
      List.iter2
        (fun (d : Incremental.diff) (r : Protocol.update_reply) ->
          check "routed update diff byte-identical to the replay"
            (render d.Incremental.added = render r.Protocol.added
            && render d.Incremental.removed = render r.Protocol.removed))
        diffs load.replies;
    {
      restore_s;
      update_s = List.rev_map fst times;
      final = Incremental.patterns inc;
    }

(* {1 One serving session}

   [setups] cold starts of the cluster (all but the last torn down again),
   then the load, the final [Lookup], teardown and the replay. *)

type session = {
  setup_s : float list;
  load : load;
  reports : reports;
  replayed : replay;
  bytes_per_update : float;
}

let session spec ~dir ~(store : Store.pattern_store) ~seed ~jobs ~setups
    ~seconds ~quota =
  let base = Filename.concat dir "corpus" in
  let manifest = Partition.write ~base ~shards store in
  let shard_files =
    List.init shards (fun i -> Partition.shard_file ~base ~shard:i ~shards)
  in
  let shard_bytes () =
    List.fold_left (fun a f -> a + file_size f) 0 shard_files
  in
  let bytes_before = shard_bytes () in
  Fun.protect ~finally:kill_all (fun () ->
      let cold () = timed (fun () -> start_cluster ~base) in
      let setup_s =
        List.init (setups - 1) (fun _ ->
            let c, dt = cold () in
            ignore (stop_cluster c);
            dt)
      in
      let c, dt = cold () in
      let load =
        drive spec ~port:c.port ~seed ~keys:(Layers.read_keys store.Store.patterns)
          ~graph:store.Store.graph
          ~mine:
            (Protocol.mine_params ~closed_growth:spec.closed_growth ~l:spec.l
               ~delta:spec.delta ~sigma:spec.sigma ())
          ~version:manifest.Partition.version ~seconds ~quota
      in
      let final =
        Client.with_connection ~port:c.port (fun cl ->
            Client.call cl (Protocol.Lookup (Protocol.lookup_params ())))
      in
      let reports = stop_cluster c in
      let replayed = replay spec store ~jobs ~load in
      check "final routed lookup byte-identical to the replay"
        (Layers.ok_patterns final
        &&
        match final.Protocol.payload with
        | Protocol.Patterns ms -> render ms = render replayed.final
        | _ -> false);
      let updates = List.length load.edits in
      {
        setup_s = setup_s @ [ dt ];
        load;
        reports;
        replayed;
        bytes_per_update =
          float_of_int (shard_bytes () - bytes_before)
          /. float_of_int (max 1 updates);
      })

let ms x = 1000.0 *. x

let read_rtts s = List.map (fun (_, rtt, _) -> rtt) s.load.reads

(* Requests completed per second: the median over ten equal stretches of
   the load, for the same reason as [chunked_percentile]. *)
let throughput (l : load) =
  let k = 10 in
  let width = l.elapsed /. float_of_int k in
  let counts = Array.make k 0 in
  List.iter
    (fun t ->
      let i = min (k - 1) (int_of_float ((t -. l.start) /. width)) in
      counts.(i) <- counts.(i) + 1)
    l.done_at;
  median (Array.to_list (Array.map float_of_int counts)) /. width

let read_percentiles s =
  let reads = List.rev (read_rtts s) in
  [
    ("read_p50_ms", ms (chunked_percentile reads 0.50));
    ("read_p99_ms", ms (chunked_percentile reads 0.99));
  ]

let end_to_end s =
  [
    ("setup_s", median s.setup_s);
    ("mine_s", median s.load.mines);
    ("peak_rss_mb", float_of_int s.reports.rss_kb /. 1024.0);
    ("throughput_rps", throughput s.load);
  ]
  @ read_percentiles s
  @ [
      ("update_p50_ms", ms (percentile (List.map fst s.load.updates) 0.50));
      ("update_p90_ms", ms (percentile (List.map fst s.load.updates) 0.90));
    ]

(* The layers a served request crosses, from the session's own samples. *)
let per_layer s =
  let envelope kind =
    List.filter_map
      (fun (k, _, env) -> if k = kind then Some env else None)
      s.load.reads
  in
  let fraction a b = float_of_int a /. float_of_int (max 1 (a + b)) in
  [
    ( "transport.overhead_us",
      Layers.us (median (List.map (fun (_, rtt, env) -> rtt -. env) s.load.reads))
    );
    ("router.service_us.lookup", Layers.us (median (envelope Layers.Lookup)));
    ( "router.service_us.contains",
      Layers.us (median (envelope Layers.Contains)) );
    ( "router.service_us.update",
      Layers.us (median (List.map snd s.load.updates)) );
    ( "router.contacted_fraction",
      fraction s.reports.contacted s.reports.pruned );
    ( "lru.hit_rate",
      float_of_int s.reports.cache_hits
      /. float_of_int (max 1 s.reports.requests) );
    ("store.bytes_per_update", s.bytes_per_update);
    ("incremental.update_s", median s.replayed.update_s);
    ("incremental.restore_s", s.replayed.restore_s);
    ( "incremental.repaired_fraction",
      mean
        (List.map
           (fun (r : Protocol.update_reply) ->
             float_of_int r.Protocol.repaired
             /. float_of_int (max 1 r.Protocol.clusters))
           s.load.replies) );
  ]
