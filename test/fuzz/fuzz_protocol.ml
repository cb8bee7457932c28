(* Frame-level fuzzing of the SKNYSRV protocol.

   The contract under attack: whatever bytes a peer throws at the serving
   endpoint — wrong handshakes, oversized or truncated frames, undecodable
   payloads, mutated valid requests — it answers with an [Error] response
   or drops that one connection, and ALWAYS stays alive for the next
   client. Every attack round is followed by a liveness probe (fresh
   connection, handshake, Ping) so a hung or dead endpoint fails the very
   round that killed it.

   Both serving tiers speak the same wire protocol, so every attack runs
   twice: once against a single-process {!Server}, once against a
   {!Spm_cluster.Router} fronting two shard workers — a fuzz-crashed
   router (or a router wedged by a confused worker leg) fails the same
   liveness probe.

   All randomness is drawn from fixed seeds; everything runs in-process on
   ephemeral ports. *)

module Protocol = Spm_server.Protocol
module Server = Spm_server.Server
module Client = Spm_server.Client
module Partition = Spm_cluster.Partition
module Worker = Spm_cluster.Worker
module Router = Spm_cluster.Router

let graph () =
  (Spm_oracle.Corpus.find "star6").Spm_oracle.Corpus.graph

let with_server f =
  let t = Server.create ~jobs:1 ~mine_timeout:5.0 () in
  Server.set_graph t (graph ());
  let fd, port = Server.listen ~port:0 () in
  let th = Thread.create (fun () -> Server.serve t fd) () in
  Fun.protect
    ~finally:(fun () ->
      (try Client.with_connection ~port Client.shutdown
       with _ -> ());
      Thread.join th)
    (fun () -> f port)

(* The same wire surface served by a router over two shard workers: the
   corpus graph mined at toy parameters, partitioned, one worker per
   shard, router on an ephemeral port. *)
let with_router f =
  let dir = Filename.temp_file "spm_fuzz_cluster_" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let g = graph () in
  let r = Spm_core.Skinny_mine.mine g ~l:2 ~delta:1 ~sigma:1 in
  let s =
    Spm_store.Store.of_result ~graph:g ~l:2 ~delta:1 ~sigma:1
      ~closed_growth:false r
  in
  let base = Filename.concat dir "corpus" in
  let shards = 2 in
  let manifest = Partition.write ~base ~shards s in
  let workers =
    Array.init shards (fun i ->
        Worker.start ~jobs:1
          (Spm_store.Store.load (Partition.shard_file ~base ~shard:i ~shards)))
  in
  let endpoints = Array.map (fun w -> ("127.0.0.1", Worker.port w)) workers in
  let router = Router.create ~deadline:30.0 ~manifest ~endpoints () in
  let fd, port = Server.listen ~port:0 () in
  let th = Thread.create (fun () -> Router.serve router fd) () in
  Fun.protect
    ~finally:(fun () ->
      (try Client.with_connection ~port Client.shutdown with _ -> ());
      Thread.join th;
      Array.iter Worker.stop workers;
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f port)

(* Every attack suite runs against both serving tiers. *)
let targets = [ ("server", with_server); ("router", with_router) ]

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The whole point: after every attack the server must still serve. *)
let assert_alive ~after port =
  match Client.with_connection ~port (fun c -> Client.ping c) with
  | () -> ()
  | exception e ->
    Alcotest.failf "server dead after %s: %s" after (Printexc.to_string e)

let frame payload =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.to_string b ^ payload

let raw_frame_header len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.to_string b

(* --- handshake attacks --- *)

let bad_handshakes =
  [
    ("v1 peer", "SKNYSRV1");
    ("v2 peer", "SKNYSRV2");
    ("v3 peer", "SKNYSRV3");
    ("v4 peer", "SKNYSRV4");
    ("http", "GET / HT");
    ("zeros", String.make 8 '\000');
    ("all-ff", String.make 8 '\xff');
    ("short then close", "SKN");
    ("empty close", "");
  ]

let test_bad_handshakes with_target () =
  with_target (fun port ->
      List.iter
        (fun (name, hs) ->
          let fd = connect port in
          send_all fd hs;
          (* Half-close our side: a short handshake otherwise leaves the
             server waiting for the remaining bytes while we wait for its
             reply — a mutual deadlock of the test's own making. *)
          (try Unix.shutdown fd Unix.SHUTDOWN_SEND
           with Unix.Unix_error _ -> ());
          (* The server must NOT echo the handshake back on a mismatch:
             either orderly close or silence-then-close. Read with a
             timeout and accept only EOF. *)
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
          let buf = Bytes.create 8 in
          (match Unix.read fd buf 0 8 with
          | 0 -> ()
          | n ->
            (* Any echo of the real handshake to a bad peer is a bug. *)
            if Bytes.sub_string buf 0 n = String.sub Protocol.handshake 0 n
            then Alcotest.failf "server echoed handshake to %s" name
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            Alcotest.failf "server hung on bad handshake %s" name
          | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ());
          close_quietly fd;
          assert_alive ~after:(Printf.sprintf "bad handshake %S" name) port)
        bad_handshakes)

(* --- frame attacks (after a genuine handshake) --- *)

let handshaken port =
  let fd = connect port in
  send_all fd Protocol.handshake;
  let echo = Bytes.create 8 in
  let got = Unix.read fd echo 0 8 in
  Alcotest.(check string)
    "handshake echoed" Protocol.handshake
    (Bytes.sub_string echo 0 got);
  fd

let test_frame_attacks with_target () =
  with_target (fun port ->
      let attacks =
        [
          ("oversized length prefix", raw_frame_header (Protocol.max_frame + 1));
          ("negative length prefix", "\xff\xff\xff\xff");
          ("truncated frame", raw_frame_header 100 ^ String.make 10 'x');
          ("zero-length frame", raw_frame_header 0);
          ("garbage payload", frame (String.make 64 '\x9b'));
          ("partial header", "\x00\x00");
        ]
      in
      List.iter
        (fun (name, bytes) ->
          let fd = handshaken port in
          send_all fd bytes;
          close_quietly fd;
          assert_alive ~after:name port)
        attacks)

(* --- mutated valid requests --- *)

let test_mutated_requests with_target () =
  let requests =
    [
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Progress;
      Protocol.Lookup
        {
          Protocol.min_support = Some 1;
          max_support = None;
          length = Some 2;
          labels = None;
        };
      Protocol.Contains (graph ());
      (* Skinny Mine keeps the tag-2 encoding; neighborhood Mine is the
         tag-11 request — mutate both so the family decode path and the
         router's family dispatch face damaged bytes too. *)
      Protocol.Mine (Protocol.mine_params ~l:2 ~delta:1 ~sigma:1 ());
      Protocol.Mine
        (Protocol.mine_params
           ~family:(Spm_core.Constraints.Neighborhood { center = None })
           ~l:0 ~delta:1 ~sigma:1 ());
      Protocol.Mine
        (Protocol.mine_params
           ~family:(Spm_core.Constraints.Neighborhood { center = Some 1 })
           ~l:0 ~delta:2 ~sigma:1 ());
    ]
  in
  (* A fresh stream per target: both tiers face the identical mutation
     sequence. *)
  let st = Spm_graph.Gen.rng 777 in
  with_target (fun port ->
      List.iter
        (fun req ->
          let payload = Protocol.encode_request req in
          for round = 1 to 20 do
            let b = Bytes.of_string payload in
            let i = Random.State.int st (Bytes.length b) in
            Bytes.set b i (Char.chr (Random.State.int st 256));
            let fd = handshaken port in
            send_all fd (frame (Bytes.to_string b));
            (* Whatever the mutation decoded to, the server must produce
               exactly one well-formed response frame (possibly Error) or
               close; then it must still be alive. *)
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
            (match Protocol.read_frame fd with
            | None -> ()
            | Some resp ->
              ignore (Protocol.decode_response resp)
            | exception Spm_store.Codec.Corrupt _ -> ()
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
              Alcotest.failf "server hung on mutated request (round %d)" round
            | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ());
            close_quietly fd;
            assert_alive ~after:"mutated request" port
          done)
        requests)

(* --- random payload soak, no socket: the request decoder itself --- *)

let test_decode_request_total () =
  let st = Spm_graph.Gen.rng 31337 in
  for _ = 1 to 2000 do
    let len = Random.State.int st 200 in
    let s = String.init len (fun _ -> Char.chr (Random.State.int st 256)) in
    match Protocol.decode_request s with
    | _ -> ()
    | exception Spm_store.Codec.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "decode_request raised %s on random bytes"
        (Printexc.to_string e)
  done

let () =
  Alcotest.run "fuzz_protocol"
    (List.map
       (fun (tname, with_target) ->
         ( tname,
           [
             Alcotest.test_case
               (Printf.sprintf "bad handshakes never kill the %s" tname)
               `Quick
               (test_bad_handshakes with_target);
             Alcotest.test_case
               (Printf.sprintf "malformed frames never kill the %s" tname)
               `Quick
               (test_frame_attacks with_target);
             Alcotest.test_case "mutated requests earn error responses" `Quick
               (test_mutated_requests with_target);
           ] ))
       targets
    @ [
        ( "decoder",
          [
            Alcotest.test_case "request decoder is total" `Quick
              test_decode_request_total;
          ] );
      ])
