(* The sharded serving tier: partitioner determinism and byte-stability,
   manifest codec round trips, and the headline guarantee — a router over
   N shard workers answers every query byte-identically to a single-process
   server over the unsharded store, before and after updates, and degrades
   to a well-formed Partial response (naming exactly the dead shards) when
   a worker is killed. *)

open Spm_graph
open Spm_core
module Store = Spm_store.Store
module Codec = Spm_store.Codec
module Protocol = Spm_server.Protocol
module Server = Spm_server.Server
module Client = Spm_server.Client
module Partition = Spm_cluster.Partition
module Worker = Spm_cluster.Worker
module Router = Spm_cluster.Router

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Same corpus recipe as the server suite: ER background + injected skinny
   patterns, mined at the parameters the stores carry. *)
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

let patterns_of (resp : Protocol.response) =
  match resp.Protocol.payload with
  | Protocol.Patterns ms -> ms
  | Protocol.Error e -> Alcotest.fail ("unexpected Error payload: " ^ e)
  | _ -> Alcotest.fail "expected Patterns payload"

(* --- placement key --- *)

(* The shard key must never change value across builds: a layout cut
   yesterday must open unchanged today. Pinned against an independent
   reimplementation of the 62-bit FNV-1a fold. *)
let test_shard_key_pinned () =
  let cases =
    [ ([| 1; 2; 3 |], 4404255743208522645);
      ([| 0; 0; 0; 0; 0 |], 3352361463074982197);
      ([| 5; 1; 4; 1; 5 |], 2938502798111877201);
      ([| 7 |], 3257635690488061506);
      ([| 2; 11; 2 |], 1858283883599282622) ]
  in
  List.iter
    (fun (labels, expected) ->
      check "pinned key" expected (Path_pattern.shard_key labels))
    cases;
  (* Orientation-insensitive: both directions of a diameter are one
     cluster and must land on one shard. *)
  check "reverse orientation same key"
    (Path_pattern.shard_key [| 1; 2; 3 |])
    (Path_pattern.shard_key [| 3; 2; 1 |]);
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Path_pattern.shard_of: shards must be > 0") (fun () ->
      ignore (Path_pattern.shard_of ~shards:0 [| 1 |]))

(* --- partitioner --- *)

let test_split_partitions () =
  let s = corpus_store () in
  List.iter
    (fun shards ->
      let pieces = Partition.split ~shards s in
      check "one store per shard" shards (Array.length pieces);
      (* Every pattern lands on exactly one shard — the one its cluster
         key names — and nothing is lost. *)
      check "no pattern lost or duplicated"
        (List.length s.Store.patterns)
        (Array.fold_left
           (fun acc p -> acc + List.length p.Store.patterns)
           0 pieces);
      Array.iteri
        (fun i p ->
          Alcotest.(check (option (pair int int)))
            "shard identity" (Some (i, shards)) p.Store.shard;
          check_bool "full data graph travels with every shard" true
            (Graph.equal_structure p.Store.graph s.Store.graph);
          List.iter
            (fun (m : Skinny_mine.mined) ->
              check "owned cluster" i
                (Path_pattern.shard_of ~shards m.Skinny_mine.diameter_labels))
            p.Store.patterns)
        pieces;
      (* Byte-stable: the same store splits to the same bytes, and shard
         stores survive an encode/decode round trip byte-identically. *)
      let pieces' = Partition.split ~shards s in
      Array.iteri
        (fun i p ->
          let bytes = Store.encode p in
          check_str "deterministic split" bytes (Store.encode pieces'.(i));
          check_str "round-trip stable" bytes
            (Store.encode (Store.decode bytes)))
        pieces)
    [ 1; 2; 4 ]

let test_split_rejects () =
  let s = corpus_store () in
  check_bool "zero shards rejected" true
    (match Partition.split ~shards:0 s with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "incomplete store rejected" true
    (match Partition.split ~shards:2 { s with Store.complete = false } with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "journaled store rejected" true
    (match
       Partition.split ~shards:2
         { s with Store.journal = [ [ Delta.Add_vertex 0 ] ] }
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_manifest_roundtrip () =
  let s = corpus_store () in
  let shards = 3 in
  let files = List.init shards (fun i -> Printf.sprintf "f%d.spm" i) in
  let m = Partition.manifest_of ~shards ~files s in
  check "entries per shard" shards (List.length m.Partition.entries);
  (* Summaries mirror the split exactly: one per owned pattern, in shard
     store order. *)
  let pieces = Partition.split ~shards s in
  List.iteri
    (fun i (e : Partition.entry) ->
      check_bool "summaries = split patterns" true
        (e.Partition.patterns
        = List.map Partition.summary_of_mined pieces.(i).Store.patterns))
    m.Partition.entries;
  let bytes = Partition.encode_manifest m in
  check_bool "manifest codec round trips" true
    (Partition.decode_manifest bytes = m);
  check_str "deterministic encoding" bytes
    (Partition.encode_manifest (Partition.manifest_of ~shards ~files s));
  (* Flip one byte mid-file: the section CRC must catch it. *)
  let broken = Bytes.of_string bytes in
  let pos = Bytes.length broken / 2 in
  Bytes.set broken pos (Char.chr (Char.code (Bytes.get broken pos) lxor 0x20));
  check_bool "corruption detected" true
    (match Partition.decode_manifest (Bytes.to_string broken) with
    | _ -> false
    | exception Codec.Corrupt _ -> true);
  Testutil.with_temp_dir (fun dir ->
      let path = Testutil.temp_file_in dir "x.manifest" in
      Partition.save_manifest path m;
      check_bool "save/load round trips" true (Partition.load_manifest path = m))

(* --- cluster harness --- *)

type cluster = {
  store : Store.pattern_store;  (* the unsharded source *)
  manifest : Partition.manifest;
  workers : Worker.t array;
  router : Router.t;
  reference : Server.t;  (* single-process server over the same store *)
  dir : string;
}

let shard_path c i =
  Partition.shard_file
    ~base:(Filename.concat c.dir "corpus")
    ~shard:i
    ~shards:(Array.length c.workers)

let with_cluster ?deadline ~shards f =
  Testutil.with_temp_dir (fun dir ->
      let s = corpus_store () in
      let base = Filename.concat dir "corpus" in
      let manifest = Partition.write ~base ~shards s in
      let workers =
        Array.init shards (fun i ->
            let path = Partition.shard_file ~base ~shard:i ~shards in
            Worker.start ~jobs:1 ~path (Store.load path))
      in
      let endpoints =
        Array.map (fun w -> ("127.0.0.1", Worker.port w)) workers
      in
      let router = Router.create ?deadline ~manifest ~endpoints () in
      let reference = Server.create ~jobs:1 () in
      Server.set_store reference s;
      Fun.protect
        ~finally:(fun () ->
          Router.close router;
          Array.iter Worker.stop workers)
        (fun () -> f { store = s; manifest; workers; router; reference; dir }))

(* Byte-identity of one request across the two tiers: same payload bytes,
   same status, and a complete (non-Partial) answer from the router. *)
let assert_identical c req label =
  let single = Server.handle c.reference req in
  let routed = Router.handle c.router req in
  Alcotest.(check (list string))
    (label ^ ": no unreachable shards") [] routed.Protocol.unreachable;
  check_bool (label ^ ": status agrees") true
    (single.Protocol.status = routed.Protocol.status);
  check_str (label ^ ": payload byte-identical")
    (render (patterns_of single))
    (render (patterns_of routed))

let query_suite (s : Store.pattern_store) =
  let first = List.hd s.Store.patterns in
  [ ("mine (store params)",
     Protocol.Mine { l = 4; delta = 2; sigma = 2; closed_growth = false; family = Spm_core.Constraints.Skinny });
    ("lookup all", Protocol.Lookup (Protocol.lookup_params ()));
    ("lookup min_support",
     Protocol.Lookup (Protocol.lookup_params ~min_support:3 ()));
    ("lookup max_support",
     Protocol.Lookup (Protocol.lookup_params ~max_support:2 ()));
    ("lookup length", Protocol.Lookup (Protocol.lookup_params ~length:4 ()));
    ("lookup labels",
     Protocol.Lookup
       (Protocol.lookup_params
          ~labels:(Array.to_list (Graph.labels first.Skinny_mine.pattern))
          ()));
    ("contains pattern", Protocol.Contains first.Skinny_mine.pattern);
    ("contains fresh graph", Protocol.Contains (serving_graph 99));
    ("contains unrelated",
     Protocol.Contains
       (Gen.erdos_renyi (Gen.rng 5) ~n:15 ~avg_degree:2.0 ~num_labels:3)) ]

let test_router_byte_identity () =
  List.iter
    (fun shards ->
      with_cluster ~shards (fun c ->
          List.iter
            (fun (label, req) ->
              assert_identical c req
                (Printf.sprintf "%d shards, %s" shards label))
            (query_suite c.store);
          (* A mine at parameters the stores do not carry re-mines on every
             shard (scoped to owned clusters); only exercised at one shard
             count to keep the suite quick. *)
          if shards = 2 then
            assert_identical c
              (Protocol.Mine
                 { l = 4; delta = 2; sigma = 3; closed_growth = false; family = Spm_core.Constraints.Skinny })
              "2 shards, mine (fresh params)"))
    [ 1; 2; 4 ]

(* The second constraint family across the sharded tier: workers re-mine
   their full resident graph under the neighborhood config and keep only
   owned clusters (a neighborhood pattern's singleton diameter_labels key
   shards like any other), so the router's merge must be byte-identical to
   the single-process answer — the ISSUE-10 acceptance drill. *)
let test_router_neighborhood_byte_identity () =
  with_cluster ~shards:2 (fun c ->
      List.iter
        (fun (label, family) ->
          (* r = 1: at r = 2 the corpus graph's overlapping clusters yield
             tens of thousands of patterns (σ = 2) — minutes per tier. *)
          assert_identical c
            (Protocol.Mine
               (Protocol.mine_params ~family ~l:0 ~delta:1 ~sigma:2 ()))
            label)
        [ ( "2 shards, neighborhood mine",
            Spm_core.Constraints.Neighborhood { center = None } );
          ( "2 shards, centered neighborhood mine",
            Spm_core.Constraints.Neighborhood { center = Some 3 } ) ])

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

let render_diff (u : Protocol.update_reply) =
  Printf.sprintf "v%d repaired %d of %d\nadded:\n%s\nremoved:\n%s"
    u.Protocol.new_version u.Protocol.repaired u.Protocol.clusters
    (render u.Protocol.added) (render u.Protocol.removed)

let test_update_byte_identity () =
  with_cluster ~shards:2 (fun c ->
      let g, _ = Lazy.force corpus in
      let u, v = fresh_edge g in
      let batches =
        [ [ Delta.Add_edge (u, v) ]; [ Delta.Remove_edge (u, v) ] ]
      in
      List.iteri
        (fun i edits ->
          let req = Protocol.Update { Protocol.edits } in
          let single = Server.handle c.reference req in
          let routed = Router.handle c.router req in
          (match (single.Protocol.payload, routed.Protocol.payload) with
          | Protocol.Update_reply a, Protocol.Update_reply b ->
            check_str
              (Printf.sprintf "update %d: merged diff byte-identical" i)
              (render_diff a) (render_diff b);
            check (Printf.sprintf "update %d: router version advanced" i)
              a.Protocol.new_version (Router.version c.router)
          | Protocol.Error e, _ | _, Protocol.Error e ->
            Alcotest.fail ("update failed: " ^ e)
          | _ -> Alcotest.fail "expected Update_reply");
          (* The repaired corpus serves identically through both tiers —
             including the planner paths, whose summary tables the router
             just patched from the diff. *)
          List.iter
            (fun (label, q) ->
              assert_identical c q
                (Printf.sprintf "post-update %d, %s" i label))
            [ ("mine", Protocol.Mine
                 { l = 4; delta = 2; sigma = 2; closed_growth = false; family = Spm_core.Constraints.Skinny });
              ("lookup", Protocol.Lookup (Protocol.lookup_params ()));
              ("lookup min_support",
               Protocol.Lookup (Protocol.lookup_params ~min_support:3 ())) ])
        batches)

let test_planner_prunes () =
  with_cluster ~shards:2 (fun c ->
      let c0, p0 = Router.pruning c.router in
      (* A support bound nothing satisfies: the planner answers locally
         with zero scatter legs. *)
      let resp =
        Router.handle c.router
          (Protocol.Lookup (Protocol.lookup_params ~min_support:100_000 ()))
      in
      check_str "empty answer" (render []) (render (patterns_of resp));
      let c1, p1 = Router.pruning c.router in
      check "no shard contacted" c0 c1;
      check "both shards pruned" (p0 + 2) p1;
      (* A label multiset no pattern has: same. *)
      let resp =
        Router.handle c.router
          (Protocol.Lookup (Protocol.lookup_params ~labels:[ 999; 998 ] ()))
      in
      check_str "empty answer" (render []) (render (patterns_of resp));
      let c2, p2 = Router.pruning c.router in
      check "still no shard contacted" c1 c2;
      check "both shards pruned again" (p1 + 2) p2;
      (* An unfiltered lookup must contact everything. *)
      ignore (Router.handle c.router (Protocol.Lookup (Protocol.lookup_params ())));
      let c3, _ = Router.pruning c.router in
      check "full scatter contacts both" (c2 + 2) c3)

(* Failure detection needs no tight deadline: a killed worker's pooled
   connections see EOF instantly (half-close) and redials are refused
   instantly. The deadline here is only a safety net so a genuine hang
   fails the test instead of wedging it — it must stay far above the
   single-threaded repair time of an Update leg. *)
let failure_deadline = 120.0

let test_worker_kill_partial_and_recovery () =
  with_cluster ~shards:2 ~deadline:failure_deadline (fun c ->
      let req = Protocol.Lookup (Protocol.lookup_params ~min_support:2 ()) in
      (* Warm the pools: both shards answer, connections persist. *)
      ignore (Router.handle c.router req);
      Worker.kill c.workers.(1);
      let resp = Router.handle c.router req in
      Alcotest.(check (list string))
        "partial names exactly the dead shard" [ "shard1" ]
        resp.Protocol.unreachable;
      (* The degraded answer is the reachable shards' merge — well-formed
         and exactly shard0's restriction of the full answer. *)
      let owned_by_0 =
        List.filter
          (fun (m : Skinny_mine.mined) ->
            Path_pattern.shard_of ~shards:2 m.Skinny_mine.diameter_labels = 0
            && m.Skinny_mine.support >= 2)
          c.store.Store.patterns
      in
      check_str "partial payload = reachable restriction" (render owned_by_0)
        (render (patterns_of resp));
      (* The router itself stays live. *)
      check_bool "router still answers" true
        ((Router.handle c.router Protocol.Ping).Protocol.payload
        = Protocol.Pong);
      (* Restart the worker on its old port from its persisted store: the
         next scatter redials and the full answer returns. *)
      let port = Worker.port c.workers.(1) in
      Worker.stop c.workers.(1);
      let w' = Worker.start ~jobs:1 ~port (Store.load (shard_path c 1)) in
      Fun.protect
        ~finally:(fun () -> Worker.stop w')
        (fun () ->
          let resp = Router.handle c.router req in
          Alcotest.(check (list string))
            "recovered: complete again" [] resp.Protocol.unreachable;
          check_str "recovered: byte-identical"
            (render (patterns_of (Server.handle c.reference req)))
            (render (patterns_of resp))))

let test_update_needs_every_shard () =
  with_cluster ~shards:2 ~deadline:failure_deadline (fun c ->
      let g, _ = Lazy.force corpus in
      let u, v = fresh_edge g in
      let req = Protocol.Update { Protocol.edits = [ Delta.Add_edge (u, v) ] } in
      ignore (Router.handle c.router Protocol.Ping);
      Worker.kill c.workers.(1);
      (* No partial acks: the update errs, names the missing shard, and
         the router's version does not move. *)
      (match (Router.handle c.router req).Protocol.payload with
      | Protocol.Error msg ->
        check_bool "error names the shard" true
          (let n = String.length msg in
           let rec scan i =
             i + 6 <= n && (String.sub msg i 6 = "shard1" || scan (i + 1))
           in
           scan 0)
      | _ -> Alcotest.fail "expected Error for a one-legged update");
      check "version unchanged" c.manifest.Partition.version
        (Router.version c.router);
      (* shard0 committed its leg; a restarted shard1 is a version behind,
         so the next update must surface the disagreement, not ack. *)
      let port = Worker.port c.workers.(1) in
      Worker.stop c.workers.(1);
      let w' = Worker.start ~jobs:1 ~port (Store.load (shard_path c 1)) in
      Fun.protect
        ~finally:(fun () -> Worker.stop w')
        (fun () ->
          match
            (Router.handle c.router
               (Protocol.Update
                  { Protocol.edits = [ Delta.Remove_edge (u, v) ] }))
              .Protocol.payload
          with
          | Protocol.Error msg ->
            let n = String.length msg in
            let rec scan i =
              i + 12 <= n
              && (String.sub msg i 12 = "disagreement" || scan (i + 1))
            in
            if not (scan 0) then
              Alcotest.failf "expected a disagreement Error, got: %s" msg
          | _ -> Alcotest.fail "expected a version-disagreement Error"))

(* The wire surface: a served router is indistinguishable from a served
   single server, and its subscribers see the merged diff per update. *)
let test_router_over_the_wire () =
  with_cluster ~shards:2 (fun c ->
      let lfd, port = Server.listen ~port:0 () in
      let th = Thread.create (fun () -> Router.serve c.router lfd) () in
      Fun.protect
        ~finally:(fun () -> Thread.join th)
        (fun () ->
          let g, _ = Lazy.force corpus in
          let u, v = fresh_edge g in
          let subscriber = Client.connect ~port () in
          check "subscribed at manifest version"
            c.manifest.Partition.version
            (Client.subscribe subscriber);
          Client.with_connection ~port (fun cl ->
              let routed =
                Client.mine cl (Protocol.mine_params ~l:4 ~delta:2 ~sigma:2 ())
              in
              check_str "wire mine byte-identical"
                (render
                   (patterns_of
                      (Server.handle c.reference
                         (Protocol.Mine
                            { l = 4; delta = 2; sigma = 2;
                              closed_growth = false; family = Spm_core.Constraints.Skinny }))))
                (render routed);
              Alcotest.(check (list string))
                "complete answer" [] (Client.last_unreachable cl);
              let diff = Client.update cl [ Delta.Add_edge (u, v) ] in
              let expected =
                match
                  (Server.handle c.reference
                     (Protocol.Update
                        { Protocol.edits = [ Delta.Add_edge (u, v) ] }))
                    .Protocol.payload
                with
                | Protocol.Update_reply r -> r
                | _ -> Alcotest.fail "reference update failed"
              in
              check_str "wire update diff matches" (render_diff expected)
                (render_diff diff);
              (match Client.next_diff subscriber with
              | Some pushed ->
                check_str "subscriber got the merged diff"
                  (render_diff expected) (render_diff pushed)
              | None -> Alcotest.fail "subscriber stream ended early");
              Client.shutdown cl);
          Client.close subscriber))

(* [Router.serve] returns after a [Shutdown] although another client still
   holds an idle connection to the router. *)
let test_router_shutdown_with_idle_connection () =
  with_cluster ~shards:2 (fun c ->
      let lfd, port = Server.listen ~port:0 () in
      let returned = Atomic.make false in
      let th =
        Thread.create
          (fun () ->
            Router.serve c.router lfd;
            Atomic.set returned true)
          ()
      in
      let idle = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close idle)
        (fun () ->
          Client.ping idle;
          Client.with_connection ~port Client.shutdown;
          check_bool "serve returned within 5 s, idle connection still open"
            true
            (Testutil.within ~seconds:5.0 (fun () -> Atomic.get returned));
          Thread.join th))

(* A client subscribed directly to a shard worker is pushed the diff that
   worker commits, as a subscriber of a single-process server is. *)
let test_worker_pushes_to_subscribers () =
  with_cluster ~shards:2 (fun c ->
      let g, _ = Lazy.force corpus in
      let u, v = fresh_edge g in
      let w = c.workers.(0) in
      let port = Worker.port w in
      let subscriber = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close subscriber)
        (fun () ->
          check "subscribed at the shard's version"
            (Server.version (Worker.server w))
            (Client.subscribe subscriber);
          let pushed = Atomic.make None in
          let _reader : Thread.t =
            Thread.create
              (fun () -> Atomic.set pushed (Some (Client.next_diff subscriber)))
              ()
          in
          let reply =
            Client.with_connection ~port (fun cl ->
                Client.update cl [ Delta.Add_edge (u, v) ])
          in
          check "worker committed v1" 1 reply.Protocol.new_version;
          check_bool "a push arrived within 2 s" true
            (Testutil.within ~seconds:2.0 (fun () ->
                 Option.is_some (Atomic.get pushed)));
          match Atomic.get pushed with
          | Some (Some diff) ->
            check_str "pushed diff = committed diff" (render_diff reply)
              (render_diff diff)
          | Some None | None -> Alcotest.fail "subscriber stream ended early"))

let () =
  Alcotest.run "cluster"
    [
      ( "placement",
        [ Alcotest.test_case "shard key pinned" `Quick test_shard_key_pinned ] );
      ( "partition",
        [
          Alcotest.test_case "split partitions" `Quick test_split_partitions;
          Alcotest.test_case "split rejects" `Quick test_split_rejects;
          Alcotest.test_case "manifest round trip" `Quick
            test_manifest_roundtrip;
        ] );
      ( "router",
        [
          Alcotest.test_case "byte identity at 1/2/4 shards" `Quick
            test_router_byte_identity;
          Alcotest.test_case "post-update byte identity" `Quick
            test_update_byte_identity;
          Alcotest.test_case "neighborhood byte identity at 2 shards" `Quick
            test_router_neighborhood_byte_identity;
          Alcotest.test_case "planner prunes" `Quick test_planner_prunes;
        ] );
      ( "failure",
        [
          Alcotest.test_case "worker kill -> partial -> recovery" `Quick
            test_worker_kill_partial_and_recovery;
          Alcotest.test_case "update needs every shard" `Quick
            test_update_needs_every_shard;
        ] );
      ( "wire",
        [
          Alcotest.test_case "served router + subscriber" `Quick
            test_router_over_the_wire;
          Alcotest.test_case "shutdown with an idle connection open" `Quick
            test_router_shutdown_with_idle_connection;
          Alcotest.test_case "worker pushes to its subscribers" `Quick
            test_worker_pushes_to_subscribers;
        ] );
    ]
