(* SkinnyServe experiment: an in-process server on an ephemeral port, driven
   over the real TCP path by the blocking client. Reports throughput as the
   domain-pool width grows (containment queries fan embedding checks across
   the pool), client-observed latency percentiles, and the LRU hit rate on a
   skewed query mix. *)

open Spm_graph
open Spm_core
module Protocol = Spm_server.Protocol
module Server = Spm_server.Server
module Client = Spm_server.Client

let serving_graph ~seed ~n ~f =
  let st = Gen.rng (seed + n) in
  let bg = Gen.erdos_renyi st ~n ~avg_degree:2.0 ~num_labels:f in
  let b = Graph.Builder.of_graph bg in
  for _ = 1 to 4 do
    let pat =
      Gen.random_skinny_pattern st ~backbone:4 ~delta:1 ~twigs:2 ~num_labels:f
    in
    ignore (Gen.inject st b ~pattern:pat ~copies:4 ())
  done;
  Graph.Builder.freeze b

(* Distinct probe graphs so containment queries miss the cache; the repeated
   mine request is the cache-hit half of the mix. *)
let probes ~seed ~count ~f =
  let st = Gen.rng (seed + 71) in
  List.init count (fun _ ->
      Gen.erdos_renyi st ~n:(60 + Random.State.int st 40) ~avg_degree:2.2
        ~num_labels:f)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let run ~seed ~n ?(jobs_list = [ 1; 2; 4 ]) () =
  Util.section
    (Printf.sprintf
       "Serving: TCP query throughput vs --jobs on a %d-vertex store" n);
  let f = 30 in
  let g = serving_graph ~seed ~n ~f in
  let config = { Skinny_mine.Config.default with closed_growth = true } in
  let r, mine_seconds =
    Util.time (fun () -> Skinny_mine.mine ~config g ~l:4 ~delta:2 ~sigma:2)
  in
  let store =
    Spm_store.Store.of_result ~graph:g ~l:4 ~delta:2 ~sigma:2
      ~closed_growth:true r
  in
  Printf.printf
    "  store: %d patterns mined in %s from %d vertices / %d edges\n%!"
    (List.length store.Spm_store.Store.patterns)
    (String.trim (Util.fmt_time mine_seconds))
    (Graph.n g) (Graph.m g);
  let probe_list = probes ~seed ~count:40 ~f in
  let mine_params =
    { Protocol.l = 4; delta = 2; sigma = 2; closed_growth = true; family = Spm_core.Constraints.Skinny }
  in
  Util.print_row_header
    [ (7, "jobs"); (9, "req/s"); (10, "p50 ms"); (10, "p95 ms");
      (10, "p99 ms"); (10, "hit rate"); (9, "speedup") ];
  let baseline = ref None in
  List.iter
    (fun jobs ->
      let srv = Server.create ~jobs () in
      Server.set_store srv store;
      let fd, port = Server.listen ~port:0 () in
      let server_thread = Thread.create (fun () -> Server.serve srv fd) () in
      let latencies = ref [] in
      let (), elapsed =
        Util.time (fun () ->
            Client.with_connection ~port (fun c ->
                (* The mix: every probe is a fresh containment query; every
                   third request re-issues the resident mine (an LRU hit
                   after the first). *)
                List.iteri
                  (fun i probe ->
                    let _, dt = Util.time (fun () -> Client.contains c probe) in
                    latencies := dt :: !latencies;
                    if i mod 3 = 0 then begin
                      let _, dt =
                        Util.time (fun () -> Client.mine c mine_params)
                      in
                      latencies := dt :: !latencies
                    end)
                  probe_list))
      in
      let stats = Client.with_connection ~port Client.stats in
      Client.with_connection ~port Client.shutdown;
      Thread.join server_thread;
      let sorted = Array.of_list !latencies in
      Array.sort compare sorted;
      let requests = Array.length sorted in
      let throughput = float_of_int requests /. elapsed in
      if !baseline = None then baseline := Some elapsed;
      let hit_rate =
        float_of_int stats.Protocol.cache_hits
        /. float_of_int (max 1 stats.Protocol.requests)
      in
      Printf.printf "%-7d%-9.1f%-10.2f%-10.2f%-10.2f%-10.2f%.2fx\n%!" jobs
        throughput
        (1000.0 *. percentile sorted 0.50)
        (1000.0 *. percentile sorted 0.95)
        (1000.0 *. percentile sorted 0.99)
        hit_rate
        (Option.get !baseline /. elapsed))
    jobs_list;
  Printf.printf
    "  (containment queries fan plan checks across the pool; the repeated \
     mine is served from the LRU)\n%!"
