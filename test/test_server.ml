(* SkinnyServe: LRU unit behaviour, the query planner's pruning index,
   protocol codec round trips, and the headline end-to-end guarantee — a
   server on an ephemeral port answers mine/lookup/containment queries
   bit-identically to the direct library calls, with the LRU serving
   repeats (asserted via the per-request stats). *)

open Spm_graph
open Spm_core
module Codec = Spm_store.Codec
module Store = Spm_store.Store
module Plan = Spm_pattern.Plan
module Lru = Spm_server.Lru
module Sig_index = Spm_server.Sig_index
module Protocol = Spm_server.Protocol
module Server = Spm_server.Server
module Client = Spm_server.Client

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- LRU --- *)

let test_lru_basics () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check "len" 2 (Lru.length c);
  (* Touch "a" so "b" is the eviction victim. *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  (* Overwrite keeps the size and updates the value. *)
  Lru.add c "c" 33;
  check "len after overwrite" 2 (Lru.length c);
  Alcotest.(check (option int)) "overwritten" (Some 33) (Lru.find c "c");
  Lru.clear c;
  check "cleared" 0 (Lru.length c)

let test_lru_capacity_one () =
  let c = Lru.create ~capacity:1 in
  Lru.add c 1 "x";
  Lru.add c 2 "y";
  Alcotest.(check (option string)) "1 evicted" None (Lru.find c 1);
  Alcotest.(check (option string)) "2 kept" (Some "y") (Lru.find c 2);
  check_bool "mem does not promote" true (Lru.mem c 2)

let test_lru_churn () =
  let c = Lru.create ~capacity:8 in
  for i = 0 to 999 do
    Lru.add c (i mod 16) i
  done;
  check_bool "bounded" true (Lru.length c <= 8);
  (* The most recent key must be present. *)
  check_bool "recent key present" true (Lru.mem c (999 mod 16))

(* --- a mined corpus to serve --- *)

let serving_graph seed =
  let st = Gen.rng seed in
  let bg = Gen.erdos_renyi st ~n:110 ~avg_degree:2.0 ~num_labels:12 in
  let b = Graph.Builder.of_graph bg in
  for _ = 1 to 3 do
    let p =
      Gen.random_skinny_pattern st ~backbone:4 ~delta:1 ~twigs:2 ~num_labels:12
    in
    ignore (Gen.inject st b ~pattern:p ~copies:3 ())
  done;
  Graph.Builder.freeze b

let corpus =
  lazy
    (let g = serving_graph 2013 in
     let r = Skinny_mine.mine g ~l:4 ~delta:2 ~sigma:2 in
     (g, r))

let corpus_store () =
  let g, r = Lazy.force corpus in
  Store.of_result ~graph:g ~l:4 ~delta:2 ~sigma:2 ~closed_growth:false r

(* Byte-level identity of a mined list: full pattern text, support, levels,
   diameter labels — the strongest equality we can ask of the wire. *)
let render (ms : Skinny_mine.mined list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (m : Skinny_mine.mined) ->
      Buffer.add_string b (Io.to_string m.pattern);
      Buffer.add_string b (Printf.sprintf "support %d\n" m.support);
      Buffer.add_string b
        (Printf.sprintf "levels %s\n"
           (String.concat " " (Array.to_list (Array.map string_of_int m.levels))));
      Buffer.add_string b
        (Printf.sprintf "diam %s\n\n"
           (String.concat " "
              (Array.to_list (Array.map string_of_int m.diameter_labels)))))
    ms;
  Buffer.contents b

(* --- Sig_index --- *)

let test_sig_index_lookup () =
  let s = corpus_store () in
  let idx = Sig_index.build s.Store.patterns in
  check "size" (List.length s.Store.patterns) (Sig_index.size idx);
  (* No filters: everything, in corpus order. *)
  Alcotest.(check string) "identity lookup" (render s.Store.patterns)
    (render (Sig_index.lookup idx));
  (* Support filter agrees with the naive filter. *)
  let naive p = List.filter p s.Store.patterns in
  List.iter
    (fun t ->
      Alcotest.(check string)
        (Printf.sprintf "min_support %d" t)
        (render (naive (fun (m : Skinny_mine.mined) -> m.support >= t)))
        (render (Sig_index.lookup ~min_support:t idx)))
    [ 2; 3; 4 ];
  (* Length filter: the corpus is all l=4. *)
  check "length 4 keeps all" (Sig_index.size idx)
    (List.length (Sig_index.lookup ~length:4 idx));
  check "length 3 keeps none" 0 (List.length (Sig_index.lookup ~length:3 idx));
  (* Exact label-multiset lookup: each pattern finds itself. *)
  List.iter
    (fun (m : Skinny_mine.mined) ->
      let labels = Array.to_list (Graph.labels m.Skinny_mine.pattern) in
      let hits = Sig_index.lookup ~labels idx in
      check_bool "self found by own multiset" true
        (List.exists
           (fun (m' : Skinny_mine.mined) ->
             render [ m' ] = render [ m ])
           hits))
    s.Store.patterns

let test_sig_index_containment () =
  let s = corpus_store () in
  let idx = Sig_index.build s.Store.patterns in
  let targets =
    (* Each mined pattern as a target graph, plus a couple of random ones. *)
    List.filteri (fun i _ -> i < 5)
      (List.map (fun (m : Skinny_mine.mined) -> m.pattern) s.Store.patterns)
    @ [ serving_graph 99; Gen.erdos_renyi (Gen.rng 5) ~n:15 ~avg_degree:2.0 ~num_labels:3 ]
  in
  List.iter
    (fun target ->
      let naive =
        List.filter
          (fun (m : Skinny_mine.mined) ->
            Plan.exists
              (Plan.compile ~freq:(Graph.label_freq target) m.pattern)
              ~target)
          s.Store.patterns
      in
      let via_index = Sig_index.contained_in idx target in
      Alcotest.(check string) "containment = naive subiso over corpus"
        (render naive) (render via_index);
      (* The pruning stage never drops a real hit. *)
      let candidates = Sig_index.containment_candidates idx target in
      check_bool "candidates superset of hits" true
        (List.for_all
           (fun (h : Skinny_mine.mined) ->
             List.exists (fun (c : Skinny_mine.mined) -> c == h) candidates)
           naive))
    targets

(* --- protocol codec --- *)

let test_protocol_roundtrip () =
  let g, _ = Lazy.force corpus in
  let reqs =
    [ Protocol.Ping; Protocol.Load_store "/tmp/x.spm";
      Protocol.Mine { l = 4; delta = 2; sigma = 2; closed_growth = true; family = Spm_core.Constraints.Skinny };
      (* v5 tag-11 requests: the neighborhood family, any and fixed center. *)
      Protocol.Mine
        { l = 0; delta = 2; sigma = 1; closed_growth = false;
          family = Spm_core.Constraints.Neighborhood { center = None } };
      Protocol.Mine
        { l = 0; delta = 1; sigma = 2; closed_growth = true;
          family = Spm_core.Constraints.Neighborhood { center = Some 3 } };
      Protocol.Lookup
        { min_support = Some 3; max_support = None; length = Some 4;
          labels = Some [ 1; 1; 2 ] };
      Protocol.Contains g; Protocol.Stats; Protocol.Shutdown;
      Protocol.Progress; Protocol.Cancel ]
  in
  List.iter
    (fun req ->
      let req' = Protocol.decode_request (Protocol.encode_request req) in
      (* Contains carries a graph: compare textually. *)
      match (req, req') with
      | Protocol.Contains a, Protocol.Contains b ->
        Alcotest.(check string) "contains graph" (Io.to_string a) (Io.to_string b)
      | a, b -> check_bool "request round trip" true (a = b))
    reqs;
  let s = corpus_store () in
  let ok = Spm_engine.Run.Ok in
  let resps =
    [ Protocol.response ~seconds:0.25 ~status:ok Protocol.Pong;
      Protocol.response ~cache_hit:true
        (Protocol.Patterns s.Store.patterns);
      Protocol.response ~seconds:1e-6 (Protocol.Loaded 17);
      Protocol.response
        (Protocol.Stats_reply
           { requests = 5; cache_hits = 2; errors = 1; store_patterns = 17;
             uptime_seconds = 1.5; service_seconds = 0.125 });
      Protocol.response Protocol.Bye;
      Protocol.response ~status:Spm_engine.Run.Timeout
        (Protocol.Patterns s.Store.patterns);
      Protocol.response ~seconds:0.5 ~status:Spm_engine.Run.Cancelled
        (Protocol.Progress_reply
           { running = true; candidates = 12; emitted = 3; level = 5;
             elapsed_seconds = 0.25 });
      Protocol.response (Protocol.Cancel_ack true);
      Protocol.response (Protocol.Error "boom");
      (* v4 Partial envelope: degraded answer naming its missing shards. *)
      Protocol.response ~unreachable:[ "shard1"; "shard3" ]
        (Protocol.Patterns s.Store.patterns) ]
  in
  List.iter
    (fun resp ->
      let resp' = Protocol.decode_response (Protocol.encode_response resp) in
      check_bool "envelope" true
        (resp.Protocol.cache_hit = resp'.Protocol.cache_hit
        && resp.Protocol.seconds = resp'.Protocol.seconds
        && resp.Protocol.status = resp'.Protocol.status
        && resp.Protocol.unreachable = resp'.Protocol.unreachable);
      match (resp.Protocol.payload, resp'.Protocol.payload) with
      | Protocol.Patterns a, Protocol.Patterns b ->
        Alcotest.(check string) "patterns payload" (render a) (render b)
      | a, b -> check_bool "payload round trip" true (a = b))
    resps

let test_garbage_rejected () =
  check_bool "garbage request" true
    (match Protocol.decode_request "\xFF\x00garbage" with
    | _ -> false
    | exception Codec.Corrupt _ -> true);
  check_bool "empty response" true
    (match Protocol.decode_response "" with
    | _ -> false
    | exception Codec.Corrupt _ -> true)

(* --- in-process dispatch (no socket) --- *)

let test_handle_dispatch () =
  let s = corpus_store () in
  let srv = Server.create ~jobs:1 () in
  Server.set_store srv s;
  (* Mine with the store's own parameters: answered from the resident set. *)
  let mine_req =
    Protocol.Mine { l = 4; delta = 2; sigma = 2; closed_growth = false; family = Spm_core.Constraints.Skinny }
  in
  (match (Server.handle srv mine_req).Protocol.payload with
  | Protocol.Patterns ms ->
    Alcotest.(check string) "resident store served verbatim"
      (render s.Store.patterns) (render ms)
  | _ -> Alcotest.fail "expected Patterns");
  (* Identical repeat: LRU hit. *)
  let again = Server.handle srv mine_req in
  check_bool "second identical query is a cache hit" true again.Protocol.cache_hit;
  (* Errors are answered, counted, and never cached. *)
  (match (Server.handle srv (Protocol.Load_store "/no/such/file.spm")).Protocol.payload with
  | Protocol.Error _ -> ()
  | _ -> Alcotest.fail "expected Error");
  let st = Server.stats srv in
  check "requests counted" 3 st.Protocol.requests;
  check "one hit" 1 st.Protocol.cache_hits;
  check "one error" 1 st.Protocol.errors

(* --- end to end over TCP --- *)

let test_end_to_end () =
  let g, direct = Lazy.force corpus in
  let s = corpus_store () in
  let srv = Server.create ~jobs:2 () in
  Server.set_store srv s;
  let fd, port = Server.listen ~port:0 () in
  let server_thread = Thread.create (fun () -> Server.serve srv fd) () in
  Fun.protect
    ~finally:(fun () -> Thread.join server_thread)
    (fun () ->
      Client.with_connection ~port (fun c ->
          Client.ping c;
          (* Mine over the wire = direct library call, byte for byte. *)
          let served =
            Client.mine c { Protocol.l = 4; delta = 2; sigma = 2; closed_growth = false; family = Spm_core.Constraints.Skinny }
          in
          Alcotest.(check string) "wire mine = direct mine"
            (render direct.Skinny_mine.patterns)
            (render served);
          (match Client.last_meta c with
          | Some (hit, _) -> check_bool "first mine computed" false hit
          | None -> Alcotest.fail "no meta");
          (* The identical query again: served from the LRU. *)
          let served2 =
            Client.mine c { Protocol.l = 4; delta = 2; sigma = 2; closed_growth = false; family = Spm_core.Constraints.Skinny }
          in
          Alcotest.(check string) "cached answer identical"
            (render served) (render served2);
          (match Client.last_meta c with
          | Some (hit, _) -> check_bool "repeat is a cache hit" true hit
          | None -> Alcotest.fail "no meta");
          (* Containment of a submitted graph = direct subiso filter. *)
          let probe =
            match s.Store.patterns with
            | (m : Skinny_mine.mined) :: _ -> m.pattern
            | [] -> Alcotest.fail "corpus empty"
          in
          let naive =
            List.filter
              (fun (m : Skinny_mine.mined) ->
                Plan.exists
                  (Plan.compile ~freq:(Graph.label_freq probe) m.pattern)
                  ~target:probe)
              s.Store.patterns
          in
          Alcotest.(check string) "wire containment = direct subiso"
            (render naive)
            (render (Client.contains c probe));
          check_bool "containment found the probe itself" true (naive <> []);
          (* The whole data graph contains every mined pattern. *)
          check "all patterns embed in the data graph"
            (List.length s.Store.patterns)
            (List.length (Client.contains c g));
          (* Lookup filters. *)
          let looked =
            Client.lookup c
              { Protocol.min_support = Some 2; max_support = None;
                length = Some 4; labels = None }
          in
          Alcotest.(check string) "lookup l=4 s>=2 = whole corpus"
            (render s.Store.patterns) (render looked);
          let st = Client.stats c in
          check_bool "stats count this connection" true
            (st.Protocol.requests >= 6);
          check "exactly one cache hit" 1 st.Protocol.cache_hits;
          check "no errors" 0 st.Protocol.errors;
          check "resident size" (List.length s.Store.patterns)
            st.Protocol.store_patterns);
      (* Second connection: the cache survives across connections. *)
      Client.with_connection ~port (fun c ->
          let served =
            Client.mine c { Protocol.l = 4; delta = 2; sigma = 2; closed_growth = false; family = Spm_core.Constraints.Skinny }
          in
          Alcotest.(check string) "hit from a fresh connection"
            (render direct.Skinny_mine.patterns)
            (render served);
          match Client.last_meta c with
          | Some (hit, _) -> check_bool "cross-connection cache hit" true hit
          | None -> Alcotest.fail "no meta");
      Client.with_connection ~port Client.shutdown;
      check_bool "server marked stopping" true (Server.stopping srv))

(* A store saved to disk serves a fresh server without re-mining: the mine
   answer must come back instantly from the resident set (asserted by
   comparing against the direct result AND by the request being answerable
   with jobs=1 in negligible service time — no Stage I/II run). *)
let test_end_to_end_from_saved_store () =
  let _, direct = Lazy.force corpus in
  let s = corpus_store () in
  Testutil.with_temp_dir (fun dir ->
      let path = Testutil.temp_file_in dir "serve.spm" in
      Store.save path s;
      let srv = Server.create ~jobs:1 () in
      let fd, port = Server.listen ~port:0 () in
      let server_thread = Thread.create (fun () -> Server.serve srv fd) () in
      Fun.protect
        ~finally:(fun () -> Thread.join server_thread)
        (fun () ->
          Client.with_connection ~port (fun c ->
              let n = Client.load_store c path in
              check "loaded pattern count" (List.length s.Store.patterns) n;
              let served =
                Client.mine c
                  { Protocol.l = 4; delta = 2; sigma = 2; closed_growth = false; family = Spm_core.Constraints.Skinny }
              in
              Alcotest.(check string) "saved store serves the mined set"
                (render direct.Skinny_mine.patterns)
                (render served));
          Client.with_connection ~port Client.shutdown))

(* --- the neighborhood family over the wire (protocol v5) --- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let nbr_family = Spm_core.Constraints.Neighborhood { center = None }

(* Label diversity keeps supports — and with them the overlapping-cluster
   pattern count — small; few labels at r = 2 blows up fast. *)
let nbr_graph =
  lazy (Gen.erdos_renyi (Gen.rng 4100) ~n:24 ~avg_degree:2.2 ~num_labels:8)

let nbr_mine g =
  Skinny_mine.mine
    ~config:{ Skinny_mine.Config.default with family = nbr_family }
    g ~l:0 ~delta:2 ~sigma:2

(* Request tags: a skinny Mine travels as tag 2, a neighborhood Mine as
   tag 11. *)
let test_neighborhood_wire_pins () =
  let skinny = Protocol.Mine (Protocol.mine_params ~l:3 ~delta:1 ~sigma:2 ()) in
  let nbr =
    Protocol.Mine
      (Protocol.mine_params ~family:nbr_family ~l:0 ~delta:2 ~sigma:2 ())
  in
  check "skinny Mine keeps tag 2" 2 (Char.code (Protocol.encode_request skinny).[0]);
  check "neighborhood Mine is tag 11" 11
    (Char.code (Protocol.encode_request nbr).[0])

let test_neighborhood_end_to_end () =
  let g = Lazy.force nbr_graph in
  let direct = nbr_mine g in
  check_bool "direct mine is non-trivial" true
    (direct.Skinny_mine.patterns <> []);
  let srv = Server.create ~jobs:2 () in
  Server.set_graph srv g;
  let fd, port = Server.listen ~port:0 () in
  let server_thread = Thread.create (fun () -> Server.serve srv fd) () in
  Fun.protect
    ~finally:(fun () -> Thread.join server_thread)
    (fun () ->
      Client.with_connection ~port (fun c ->
          let params =
            Protocol.mine_params ~family:nbr_family ~l:0 ~delta:2 ~sigma:2 ()
          in
          let served = Client.mine c params in
          Alcotest.(check string) "wire neighborhood mine = direct mine"
            (render direct.Skinny_mine.patterns)
            (render served);
          (* Identical repeat: the LRU keys on the family too. *)
          ignore (Client.mine c params);
          (match Client.last_meta c with
          | Some (hit, _) -> check_bool "repeat is a cache hit" true hit
          | None -> Alcotest.fail "no meta"));
      Client.with_connection ~port Client.shutdown)

let test_neighborhood_update_refused () =
  let g = Lazy.force nbr_graph in
  let r = nbr_mine g in
  let s =
    Store.of_result ~family:nbr_family ~graph:g ~l:0 ~delta:2 ~sigma:2
      ~closed_growth:false r
  in
  let srv = Server.create ~jobs:1 () in
  Server.set_store srv s;
  (* Incremental repair is diameter-cluster-shaped: a neighborhood store
     refuses Update with a clean Error instead of repairing wrongly. *)
  (match
     (Server.handle srv (Protocol.Update (Protocol.update_params [])))
       .Protocol.payload
   with
  | Protocol.Error msg ->
    check_bool "error names the restriction" true
      (contains_sub msg "skinny-only")
  | _ -> Alcotest.fail "expected Error for Update on a neighborhood store");
  (* A malformed neighborhood request (l <> 0) earns an Error payload, not
     a dead connection or a crash. *)
  match
    (Server.handle srv
       (Protocol.Mine
          (Protocol.mine_params ~family:nbr_family ~l:2 ~delta:1 ~sigma:1 ())))
      .Protocol.payload
  with
  | Protocol.Error msg ->
    check_bool "error says l = 0" true (contains_sub msg "l = 0")
  | _ -> Alcotest.fail "expected Error for l <> 0 neighborhood Mine"

(* --- deadlines, cancellation, rude clients --- *)

(* A graph whose full mine takes minutes: deadline/cancel tests interrupt
   it rather than racing its completion. *)
let long_mine_graph =
  lazy (Gen.erdos_renyi (Gen.rng 48) ~n:4000 ~avg_degree:3.0 ~num_labels:4)

let long_mine_params =
  { Protocol.l = 4; delta = 2; sigma = 2; closed_growth = false; family = Spm_core.Constraints.Skinny }

let test_mine_timeout_in_process () =
  let srv = Server.create ~jobs:2 ~mine_timeout:0.2 () in
  Server.set_graph srv (Lazy.force long_mine_graph);
  let t0 = Unix.gettimeofday () in
  let resp = Server.handle srv (Protocol.Mine long_mine_params) in
  let wall = Unix.gettimeofday () -. t0 in
  check_bool "timeout status" true
    (resp.Protocol.status = Spm_engine.Run.Timeout);
  check_bool
    (Printf.sprintf "within 1s of the 0.2s deadline (took %.3fs)" wall)
    true (wall < 1.2);
  (match resp.Protocol.payload with
  | Protocol.Patterns _ -> ()
  | _ -> Alcotest.fail "expected Patterns (possibly empty prefix)");
  (* Truncated answers are never cached: the retry mines afresh. *)
  let again = Server.handle srv (Protocol.Mine long_mine_params) in
  check_bool "retry is not a cache hit" false again.Protocol.cache_hit;
  check_bool "retry times out too" true
    (again.Protocol.status = Spm_engine.Run.Timeout);
  (* The same server still answers: no restart needed after a timeout. *)
  match (Server.handle srv Protocol.Stats).Protocol.payload with
  | Protocol.Stats_reply s -> check "requests counted" 3 s.Protocol.requests
  | _ -> Alcotest.fail "expected Stats_reply"

let test_wire_progress_and_cancel () =
  let srv = Server.create ~jobs:2 () in
  Server.set_graph srv (Lazy.force long_mine_graph);
  let fd, port = Server.listen ~port:0 () in
  let server_thread = Thread.create (fun () -> Server.serve srv fd) () in
  Fun.protect
    ~finally:(fun () -> Thread.join server_thread)
    (fun () ->
      let miner_result = ref None in
      let miner =
        Thread.create
          (fun () ->
            Client.with_connection ~port (fun c ->
                let resp = Client.call c (Protocol.Mine long_mine_params) in
                miner_result := Some resp))
          ()
      in
      (* From a second connection, wait until the mine is observably in
         flight, then cancel it. *)
      Client.with_connection ~port (fun c ->
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec wait_running () =
            let p = Client.progress c in
            if p.Protocol.running then p
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "mine never became observable via Progress"
            else begin
              Thread.delay 0.01;
              wait_running ()
            end
          in
          let p = wait_running () in
          check_bool "progress counters advance" true
            (p.Protocol.candidates >= 0 && p.Protocol.elapsed_seconds >= 0.0);
          check_bool "cancel acknowledged" true (Client.cancel c);
          (* The miner's connection gets its answer promptly. *)
          Thread.join miner;
          (match !miner_result with
          | Some resp ->
            check_bool "mine reply is Cancelled" true
              (resp.Protocol.status = Spm_engine.Run.Cancelled);
            (match resp.Protocol.payload with
            | Protocol.Patterns _ -> ()
            | _ -> Alcotest.fail "expected Patterns from cancelled mine")
          | None -> Alcotest.fail "mining client never got a reply");
          (* Same server, same connection: still fully in service. *)
          Client.ping c;
          check_bool "no mine in flight anymore" false
            (Client.progress c).Protocol.running);
      Client.with_connection ~port Client.shutdown)

(* A client that sends a mine request and vanishes must not take the server
   down (SIGPIPE) — the next client gets served as if nothing happened. *)
let test_disconnect_mid_mine () =
  let srv = Server.create ~jobs:2 ~mine_timeout:0.3 () in
  Server.set_graph srv (Lazy.force long_mine_graph);
  let fd, port = Server.listen ~port:0 () in
  let server_thread = Thread.create (fun () -> Server.serve srv fd) () in
  Fun.protect
    ~finally:(fun () -> Thread.join server_thread)
    (fun () ->
      (* Raw socket: handshake, fire the mine request, slam the door. *)
      let raw = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.connect raw (ADDR_INET (Unix.inet_addr_loopback, port));
      Protocol.client_handshake raw;
      Protocol.write_frame raw
        (Protocol.encode_request (Protocol.Mine long_mine_params));
      Thread.delay 0.05;
      (* the server is now mining for a dead client *)
      Unix.close raw;
      (* The mine runs out its 0.3s budget, the reply write hits EPIPE, and
         the connection thread absorbs it. A fresh client must see a fully
         functional server. *)
      Client.with_connection ~port (fun c ->
          Client.ping c;
          let resp = Client.call c (Protocol.Mine long_mine_params) in
          check_bool "fresh mine after disconnect answered" true
            (resp.Protocol.status = Spm_engine.Run.Timeout);
          let s = Client.stats c in
          check_bool "server counted both mine requests" true
            (s.Protocol.requests >= 3));
      Client.with_connection ~port Client.shutdown;
      check_bool "server stopping" true (Server.stopping srv))

(* [serve] returns after a [Shutdown] although another client still holds
   an idle connection: the graceful stop makes that connection read EOF. *)
let test_shutdown_with_idle_connection () =
  let srv = Server.create ~jobs:1 () in
  let fd, port = Server.listen ~port:0 () in
  let returned = Atomic.make false in
  let server_thread =
    Thread.create
      (fun () ->
        Server.serve srv fd;
        Atomic.set returned true)
      ()
  in
  let idle = Client.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close idle)
    (fun () ->
      Client.ping idle;
      Client.with_connection ~port Client.shutdown;
      check_bool "serve returned within 5 s, idle connection still open" true
        (Testutil.within ~seconds:5.0 (fun () -> Atomic.get returned));
      Thread.join server_thread)

(* --- evolving graphs: Update and Subscribe --- *)

let test_protocol_v3_roundtrip () =
  let edits =
    [ Delta.Add_vertex 3; Delta.Add_edge (0, 7); Delta.Remove_edge (2, 5) ]
  in
  let reqs = [ Protocol.Update (Protocol.update_params edits); Protocol.Subscribe ] in
  List.iter
    (fun req ->
      check_bool "v3 request round trip" true
        (Protocol.decode_request (Protocol.encode_request req) = req);
      check_bool "v3 verbs not cacheable" false (Protocol.cacheable req))
    reqs;
  let s = corpus_store () in
  let u =
    {
      Protocol.new_version = 7;
      added = [ List.hd s.Store.patterns ];
      removed = [];
      repaired = 2;
      clusters = 9;
    }
  in
  let resp = Protocol.response ~seconds:0.125 (Protocol.Update_reply u) in
  (match (Protocol.decode_response (Protocol.encode_response resp)).payload with
  | Protocol.Update_reply u' ->
    check "new_version" u.Protocol.new_version u'.Protocol.new_version;
    check "repaired" u.Protocol.repaired u'.Protocol.repaired;
    check "clusters" u.Protocol.clusters u'.Protocol.clusters;
    Alcotest.(check string)
      "added patterns" (render u.Protocol.added) (render u'.Protocol.added);
    check "removed" 0 (List.length u'.Protocol.removed)
  | _ -> Alcotest.fail "expected Update_reply");
  let sub =
    {
      resp with
      Protocol.payload = Protocol.Subscribed 4;
    }
  in
  check_bool "Subscribed round trip" true
    ((Protocol.decode_response (Protocol.encode_response sub)).payload
    = Protocol.Subscribed 4)

(* An edit batch the corpus graph definitely accepts: one fresh edge. *)
let fresh_edge g =
  let n = Graph.n g in
  let rec go u v =
    if u >= n then Alcotest.fail "no fresh edge in corpus graph"
    else if v >= n then go (u + 1) (u + 2)
    else if not (Graph.has_edge g u v) then (u, v)
    else go u (v + 1)
  in
  go 0 1

(* Update over the wire: the subscriber sees the same diff the updater got,
   lookups serve the repaired set (byte-identical to a full re-mine of the
   edited graph), the LRU never leaks a pre-update answer, and a restarted
   server replays the journal from disk back to the latest version. *)
let test_update_subscribe_e2e () =
  let g, _ = Lazy.force corpus in
  let s = corpus_store () in
  Testutil.with_temp_dir (fun dir ->
      let path = Testutil.temp_file_in dir "evolving.spm" in
      Store.save path s;
      let srv = Server.create ~jobs:2 () in
      Server.set_store srv ~path (Store.load path);
      check "fresh store at version 0" 0 (Server.version srv);
      let fd, port = Server.listen ~port:0 () in
      let server_thread = Thread.create (fun () -> Server.serve srv fd) () in
      let u, v = fresh_edge g in
      let edits = [ Delta.Add_edge (u, v) ] in
      let expected =
        let dg = Delta.apply_all (Delta.of_graph g) edits in
        (Skinny_mine.mine
           ~config:{ Skinny_mine.Config.default with jobs = 2 }
           (Delta.snapshot dg) ~l:4 ~delta:2 ~sigma:2)
          .Skinny_mine.patterns
      in
      let subscriber = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close subscriber)
        (fun () ->
          Fun.protect
            ~finally:(fun () -> Thread.join server_thread)
            (fun () ->
              check "subscribed at v0" 0 (Client.subscribe subscriber);
              Client.with_connection ~port (fun c ->
                  (* Prime the LRU with a pre-update answer. *)
                  let before =
                    Client.mine c
                      (Protocol.mine_params ~l:4 ~delta:2 ~sigma:2 ())
                  in
                  Alcotest.(check string) "pre-update mine = resident store"
                    (render s.Store.patterns) (render before);
                  let reply = Client.update c edits in
                  check "committed as v1" 1 reply.Protocol.new_version;
                  check "server at v1" 1 (Server.version srv);
                  check_bool "some clusters reused" true
                    (reply.Protocol.repaired < reply.Protocol.clusters);
                  (* The exact same Mine bytes must NOT hit the stale cache
                     entry: version-keying makes it a miss that re-mines the
                     edited graph. *)
                  let after =
                    Client.mine c
                      (Protocol.mine_params ~l:4 ~delta:2 ~sigma:2 ())
                  in
                  (match Client.last_meta c with
                  | Some (hit, _) ->
                    check_bool "post-update mine is not a cache hit" false hit
                  | None -> Alcotest.fail "no meta");
                  Alcotest.(check string) "post-update mine = edited graph"
                    (render expected) (render after);
                  (* Lookup serves the repaired resident set. *)
                  Alcotest.(check string) "lookup serves repaired patterns"
                    (render expected)
                    (render (Client.lookup c (Protocol.lookup_params ())));
                  (* The pushed diff is the one the updater saw. *)
                  match Client.next_diff subscriber with
                  | None -> Alcotest.fail "no pushed diff"
                  | Some pushed ->
                    check "pushed version" 1 pushed.Protocol.new_version;
                    Alcotest.(check string) "pushed added"
                      (render reply.Protocol.added)
                      (render pushed.Protocol.added);
                    Alcotest.(check string) "pushed removed"
                      (render reply.Protocol.removed)
                      (render pushed.Protocol.removed));
              Client.with_connection ~port Client.shutdown);
          (* Server gone: the subscriber reads EOF, not garbage. *)
          check_bool "diff stream closed on shutdown" true
            (Client.next_diff subscriber = None));
      (* The journal hit the disk: a fresh server replays it and resumes at
         v1 with the repaired pattern set. *)
      let reloaded = Store.load path in
      check "journal on disk" 1 (Store.latest_version reloaded);
      let srv2 = Server.create ~jobs:2 () in
      Server.set_store srv2 ~path reloaded;
      check "replayed to v1" 1 (Server.version srv2);
      match
        (Server.handle srv2 (Protocol.Lookup (Protocol.lookup_params ())))
          .Protocol.payload
      with
      | Protocol.Patterns ms ->
        Alcotest.(check string) "restart = edited-graph mine" (render expected)
          (render ms)
      | _ -> Alcotest.fail "expected Patterns")

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let prop_lru_never_overflows =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:50
    QCheck.(pair (int_range 1 6) (small_list small_nat))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap in
      List.iter (fun k -> Lru.add c k k) keys;
      Lru.length c <= cap
      && List.for_all
           (fun k -> match Lru.find c k with Some v -> v = k | None -> true)
           keys)

let () =
  Alcotest.run "server"
    [
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "capacity one" `Quick test_lru_capacity_one;
          Alcotest.test_case "churn" `Quick test_lru_churn;
        ] );
      qsuite "lru-props" [ prop_lru_never_overflows ];
      ( "sig-index",
        [
          Alcotest.test_case "lookup filters" `Quick test_sig_index_lookup;
          Alcotest.test_case "containment pruning" `Quick
            test_sig_index_containment;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "round trips" `Quick test_protocol_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
        ] );
      ( "dispatch",
        [ Alcotest.test_case "handle + cache + errors" `Quick test_handle_dispatch ] );
      ( "end-to-end",
        [
          Alcotest.test_case "ephemeral port server = library" `Quick
            test_end_to_end;
          Alcotest.test_case "saved store serves without re-mining" `Quick
            test_end_to_end_from_saved_store;
        ] );
      ( "neighborhood",
        [
          Alcotest.test_case "wire pins (tags and versions)" `Quick
            test_neighborhood_wire_pins;
          Alcotest.test_case "neighborhood mine over the wire = library"
            `Quick test_neighborhood_end_to_end;
          Alcotest.test_case "update refused; l <> 0 rejected" `Quick
            test_neighborhood_update_refused;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "mine timeout bounds service" `Quick
            test_mine_timeout_in_process;
          Alcotest.test_case "progress and cancel over the wire" `Quick
            test_wire_progress_and_cancel;
          Alcotest.test_case "client disconnect mid-mine" `Quick
            test_disconnect_mid_mine;
          Alcotest.test_case "shutdown with an idle connection open" `Quick
            test_shutdown_with_idle_connection;
        ] );
      ( "evolving",
        [
          Alcotest.test_case "v3 codec round trips" `Quick
            test_protocol_v3_roundtrip;
          Alcotest.test_case "update + subscribe + journal replay" `Quick
            test_update_subscribe_e2e;
        ] );
    ]
