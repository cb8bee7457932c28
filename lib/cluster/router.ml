module Skinny_mine = Spm_core.Skinny_mine
module Path_pattern = Spm_core.Path_pattern
module Graph = Spm_graph.Graph
module Codec = Spm_store.Codec
module Protocol = Spm_server.Protocol
module Sig_index = Spm_server.Sig_index
module Run = Spm_engine.Run
module Clock = Spm_engine.Clock

type shard = {
  index : int;
  sname : string;
  host : string;
  sport : int;
  pool_lock : Mutex.t;
  mutable pool : Unix.file_descr list;  (* idle connections, under [pool_lock] *)
  mutable summaries : Partition.pattern_summary list;
      (* live pushdown table: manifest summaries + applied [Update] diffs;
         under the router's [lock] *)
}

type t = {
  manifest : Partition.manifest;
  shards : shard array;
  deadline : float option;  (* per-request budget, seconds *)
  lock : Mutex.t;  (* summaries, version, counters *)
  update_lock : Mutex.t;
      (* Serializes [Update] fan-outs: interleaved updates could commit in
         different orders at different shards and break version agreement. *)
  mutable rversion : int;
  mutable requests : int;
  mutable errors : int;
  mutable contacted : int;
  mutable pruned : int;
  mutable service_seconds : float;
  started : float;
  front : Spm_server.Frontend.t;
}

let create ?deadline ~manifest ~endpoints () =
  if Array.length endpoints <> manifest.Partition.shards then
    invalid_arg
      (Printf.sprintf "Router.create: %d endpoints for %d shards"
         (Array.length endpoints) manifest.Partition.shards);
  let shards =
    Array.of_list
      (List.mapi
         (fun i (e : Partition.entry) ->
           let host, sport = endpoints.(i) in
           {
             index = i;
             sname = Partition.shard_name i;
             host;
             sport;
             pool_lock = Mutex.create ();
             pool = [];
             summaries = e.Partition.patterns;
           })
         manifest.Partition.entries)
  in
  {
    manifest;
    shards;
    deadline;
    lock = Mutex.create ();
    update_lock = Mutex.create ();
    rversion = manifest.Partition.version;
    requests = 0;
    errors = 0;
    contacted = 0;
    pruned = 0;
    service_seconds = 0.0;
    started = Clock.now ();
    front = Spm_server.Frontend.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let version t = locked t (fun () -> t.rversion)

let shard_patterns t =
  locked t (fun () ->
      Array.map (fun s -> List.length s.summaries) t.shards)

let pruning t = locked t (fun () -> (t.contacted, t.pruned))

let stats t =
  locked t (fun () ->
      {
        Protocol.requests = t.requests;
        cache_hits = 0;
        errors = t.errors;
        store_patterns =
          Array.fold_left
            (fun acc s -> acc + List.length s.summaries)
            0 t.shards;
        uptime_seconds = Clock.now () -. t.started;
        service_seconds = t.service_seconds;
      })

(* --- shard RPC over pooled connections --- *)

let set_read_timeout fd ~deadline =
  (* 0. disarms the timeout; clamp to a floor so a nearly-expired budget
     doesn't accidentally disarm it. *)
  let secs =
    match deadline with
    | None -> 0.
    | Some d -> Float.max 0.001 (d -. Clock.now ())
  in
  try Unix.setsockopt_float fd SO_RCVTIMEO secs
  with Unix.Unix_error _ -> ()

let dial shard =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  match
    Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string shard.host, shard.sport));
    (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
    Protocol.client_handshake fd
  with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let checkout shard =
  Mutex.lock shard.pool_lock;
  let fd =
    match shard.pool with
    | fd :: rest ->
      shard.pool <- rest;
      Some fd
    | [] -> None
  in
  Mutex.unlock shard.pool_lock;
  match fd with Some fd -> fd | None -> dial shard

let checkin shard fd =
  Mutex.lock shard.pool_lock;
  shard.pool <- fd :: shard.pool;
  Mutex.unlock shard.pool_lock

let discard fd = try Unix.close fd with Unix.Unix_error _ -> ()

let drain_pool shard =
  Mutex.lock shard.pool_lock;
  let fds = shard.pool in
  shard.pool <- [];
  Mutex.unlock shard.pool_lock;
  List.iter discard fds

let close t = Array.iter drain_pool t.shards

exception Expired

(* One request/response exchange with [shard]. A failed or timed-out
   connection is closed, never pooled again: a late reply on a reused
   socket would answer the wrong request. *)
let rpc shard req ~deadline =
  (match deadline with
  | Some d when Clock.now () >= d -> raise Expired
  | _ -> ());
  let fd = checkout shard in
  match
    set_read_timeout fd ~deadline;
    Protocol.write_frame fd (Protocol.encode_request req);
    match Protocol.read_frame fd with
    | Some frame -> Protocol.decode_response frame
    | None -> raise (Codec.Corrupt "connection closed before reply")
  with
  | resp ->
    checkin shard fd;
    resp
  | exception e ->
    discard fd;
    raise e

let backoff_seconds = 0.05

(* Scatter leg: RPC once, and for idempotent requests retry once on a fresh
   connection after a short backoff — a worker restart between two pooled
   requests looks like one EOF, and the retry lands on a fresh dial. *)
let call_shard shard req ~deadline =
  let retriable = Protocol.cacheable req in
  match rpc shard req ~deadline with
  | resp -> Ok resp
  | exception Expired -> Error "deadline"
  | exception (Codec.Corrupt _ | Unix.Unix_error _) when retriable -> (
    let budget_left =
      match deadline with
      | None -> true
      | Some d -> Clock.now () +. backoff_seconds < d
    in
    if not budget_left then Error "unreachable"
    else begin
      Thread.delay backoff_seconds;
      match rpc shard req ~deadline with
      | resp -> Ok resp
      | exception Expired -> Error "deadline"
      | exception (Codec.Corrupt _ | Unix.Unix_error _) -> Error "unreachable"
    end)
  | exception (Codec.Corrupt _ | Unix.Unix_error _) -> Error "unreachable"

(* Scatter [req] to the shards in [targets] concurrently; [results.(i)] is
   [None] for shards the planner pruned. *)
let scatter t req ~targets ~deadline =
  let results = Array.make (Array.length t.shards) None in
  let threads =
    List.map
      (fun i ->
        Thread.create
          (fun () -> results.(i) <- Some (call_shard t.shards.(i) req ~deadline))
          ())
      targets
  in
  List.iter Thread.join threads;
  results

(* --- planning --- *)

(* [counts] is the query's label multiset, normalized ONCE per plan — the
   scan visits every summary of every shard under the router lock, so
   per-summary work must be a handful of compares, not an allocation. *)
let summary_matches_lookup (p : Protocol.lookup_params) ~counts
    (s : Partition.pattern_summary) =
  (match p.Protocol.min_support with
  | Some v -> s.Partition.support >= v
  | None -> true)
  && (match p.Protocol.max_support with
     | Some v -> s.Partition.support <= v
     | None -> true)
  && (match p.Protocol.length with
     | Some l -> s.Partition.diam_len = l
     | None -> true)
  && (match counts with
     | Some c -> c = s.Partition.counts
     | None -> true)

let all_targets t = List.init (Array.length t.shards) Fun.id

(* Shards holding at least one summary the request could touch. Pruned
   shards contribute the empty list by construction — exactly what they
   would answer. *)
let plan t req =
  match (req : Protocol.request) with
  | Lookup p ->
    let counts =
      Option.map Sig_index.normalize_multiset p.Protocol.labels
    in
    Some
      (locked t (fun () ->
           List.filter
             (fun i ->
               List.exists
                 (summary_matches_lookup p ~counts)
                 t.shards.(i).summaries)
             (all_targets t)))
  | Contains g ->
    Some
      (locked t (fun () ->
           List.filter
             (fun i ->
               List.exists
                 (fun (s : Partition.pattern_summary) ->
                   Sig_index.dominated s.Partition.counts g)
                 t.shards.(i).summaries)
             (all_targets t)))
  | _ -> None

(* --- merging --- *)

(* Ordered k-way merge of per-shard pattern lists. Shard lists are
   cluster-contiguous in ascending canonical-label order and every cluster
   is wholly owned by one shard, so heads never tie across shards and the
   merge reproduces the single-process order exactly. *)
let merge_patterns lists =
  let heads = Array.of_list lists in
  let k = Array.length heads in
  let out = ref [] in
  let rec step () =
    let best = ref (-1) in
    for i = k - 1 downto 0 do
      match heads.(i) with
      | [] -> ()
      | (m : Skinny_mine.mined) :: _ ->
        if
          !best < 0
          ||
          let (b : Skinny_mine.mined) = List.hd heads.(!best) in
          Path_pattern.compare_labels m.Skinny_mine.diameter_labels
            b.Skinny_mine.diameter_labels
          < 0
        then best := i
    done;
    if !best >= 0 then begin
      (match heads.(!best) with
      | m :: rest ->
        heads.(!best) <- rest;
        out := m :: !out
      | [] -> assert false);
      step ()
    end
  in
  step ();
  List.rev !out

let worst_status a b =
  match (a, b) with
  | Run.Timeout, _ | _, Run.Timeout -> Run.Timeout
  | Run.Cancelled, _ | _, Run.Cancelled -> Run.Cancelled
  | Run.Ok, Run.Ok -> Run.Ok

(* --- live summary maintenance --- *)

let remove_one_summary s summaries =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
      if x = s then List.rev_append acc rest else go (x :: acc) rest
  in
  go [] summaries

let apply_diff t i (u : Protocol.update_reply) =
  locked t (fun () ->
      let shard = t.shards.(i) in
      let after_removed =
        List.fold_left
          (fun acc m -> remove_one_summary (Partition.summary_of_mined m) acc)
          shard.summaries u.Protocol.removed
      in
      shard.summaries <-
        after_removed @ List.map Partition.summary_of_mined u.Protocol.added)

(* --- dispatch --- *)

let count_error t = locked t (fun () -> t.errors <- t.errors + 1)

let unreachable_names t results targets =
  List.filter_map
    (fun i ->
      match results.(i) with
      | Some (Error _) -> Some t.shards.(i).sname
      | Some (Ok _) | None -> None)
    targets

(* Merge the scatter of a pattern-answering request ([Mine] / [Lookup] /
   [Contains]). Precedence: a shard [Error] payload propagates verbatim
   (it is what the single process would have said), then transport
   failures surface as [Partial], then the merged patterns under the
   worst shard status. *)
let merge_query t results targets =
  let shard_error =
    List.find_map
      (fun i ->
        match results.(i) with
        | Some (Ok { Protocol.payload = Protocol.Error msg; _ }) -> Some msg
        | _ -> None)
      targets
  in
  match shard_error with
  | Some msg ->
    count_error t;
    (Run.Ok, [], Protocol.Error msg)
  | None ->
    let unreachable = unreachable_names t results targets in
    let status, lists =
      List.fold_left
        (fun (status, lists) i ->
          match results.(i) with
          | Some (Ok ({ Protocol.payload = Protocol.Patterns l; _ } as r)) ->
            (worst_status status r.Protocol.status, l :: lists)
          | Some (Ok r) ->
            (* Unexpected payload shape (a worker bug): treat the shard as
               unreachable rather than corrupt the merge. *)
            (worst_status status r.Protocol.status, lists)
          | Some (Error _) | None -> (status, lists))
        (Run.Ok, []) targets
    in
    if unreachable <> [] then count_error t;
    (status, unreachable, Protocol.Patterns (merge_patterns (List.rev lists)))

let merge_progress results targets =
  let z =
    {
      Protocol.running = false;
      candidates = 0;
      emitted = 0;
      level = 0;
      elapsed_seconds = 0.0;
    }
  in
  List.fold_left
    (fun acc i ->
      match results.(i) with
      | Some
          (Ok { Protocol.payload = Protocol.Progress_reply p; _ }) ->
        {
          Protocol.running = acc.Protocol.running || p.Protocol.running;
          candidates = acc.Protocol.candidates + p.Protocol.candidates;
          emitted = acc.Protocol.emitted + p.Protocol.emitted;
          level = max acc.Protocol.level p.Protocol.level;
          elapsed_seconds =
            Float.max acc.Protocol.elapsed_seconds p.Protocol.elapsed_seconds;
        }
      | _ -> acc)
    z targets

(* Update fan-out: all shards, no retry (not idempotent), and an ack only
   on unanimous version agreement — a partially-applied update must
   surface as an error, never as a stale-but-Ok answer. *)
let run_update t results targets =
  let failures = unreachable_names t results targets in
  let shard_failure =
    List.find_map
      (fun i ->
        match results.(i) with
        | Some (Ok { Protocol.payload = Protocol.Error msg; _ }) ->
          Some (Printf.sprintf "%s: %s" t.shards.(i).sname msg)
        | _ -> None)
      targets
  in
  let replies =
    List.filter_map
      (fun i ->
        match results.(i) with
        | Some (Ok { Protocol.payload = Protocol.Update_reply u; _ }) ->
          Some (i, u)
        | _ -> None)
      targets
  in
  (* Committed legs move the pushdown tables regardless of overall
     outcome: planning must stay sound against what each shard now holds. *)
  List.iter (fun (i, u) -> apply_diff t i u) replies;
  match (failures, shard_failure) with
  | _ :: _, _ ->
    count_error t;
    ( Run.Ok,
      failures,
      Protocol.Error
        ("update not acknowledged; unreachable shards: "
        ^ String.concat ", " failures) )
  | [], Some msg ->
    count_error t;
    (Run.Ok, [], Protocol.Error ("update failed at " ^ msg))
  | [], None -> (
    let versions =
      List.sort_uniq compare
        (List.map (fun (_, u) -> u.Protocol.new_version) replies)
    in
    match versions with
    | [ v ] ->
      let merged =
        {
          Protocol.new_version = v;
          added =
            merge_patterns (List.map (fun (_, u) -> u.Protocol.added) replies);
          removed =
            merge_patterns
              (List.map (fun (_, u) -> u.Protocol.removed) replies);
          repaired =
            List.fold_left (fun a (_, u) -> a + u.Protocol.repaired) 0 replies;
          clusters =
            List.fold_left (fun a (_, u) -> a + u.Protocol.clusters) 0 replies;
        }
      in
      locked t (fun () -> t.rversion <- v);
      (Run.Ok, [], Protocol.Update_reply merged)
    | _ ->
      count_error t;
      ( Run.Ok,
        [],
        Protocol.Error
          (Printf.sprintf
             "update version disagreement across shards (saw: %s)"
             (String.concat ", " (List.map string_of_int versions))) ))

let handle t req : Protocol.response =
  let t0 = Clock.now () in
  let deadline = Option.map (fun d -> t0 +. d) t.deadline in
  locked t (fun () -> t.requests <- t.requests + 1);
  let finish (status, unreachable, payload) =
    let seconds = Clock.now () -. t0 in
    locked t (fun () -> t.service_seconds <- t.service_seconds +. seconds);
    Protocol.response ~seconds ~status ~unreachable payload
  in
  match req with
  | Protocol.Ping -> finish (Run.Ok, [], Protocol.Pong)
  | Protocol.Load_store _ ->
    count_error t;
    finish
      ( Run.Ok,
        [],
        Protocol.Error
          "router serves a fixed shard layout; re-partition and restart \
           the cluster to change stores" )
  | Protocol.Stats -> finish (Run.Ok, [], Protocol.Stats_reply (stats t))
  | Protocol.Shutdown -> finish (Run.Ok, [], Protocol.Bye)
  | Protocol.Subscribe ->
    finish (Run.Ok, [], Protocol.Subscribed (version t))
  | Protocol.Progress ->
    let targets = all_targets t in
    let results = scatter t req ~targets ~deadline in
    finish (Run.Ok, [], Protocol.Progress_reply (merge_progress results targets))
  | Protocol.Cancel ->
    let targets = all_targets t in
    let results = scatter t req ~targets ~deadline in
    let any =
      List.exists
        (fun i ->
          match results.(i) with
          | Some (Ok { Protocol.payload = Protocol.Cancel_ack true; _ }) ->
            true
          | _ -> false)
        targets
    in
    finish (Run.Ok, [], Protocol.Cancel_ack any)
  | Protocol.Update _ ->
    Mutex.lock t.update_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.update_lock)
      (fun () ->
        let targets = all_targets t in
        let results = scatter t req ~targets ~deadline in
        let ((_, _, payload) as outcome) =
          run_update t results targets
        in
        (match payload with
        | Protocol.Update_reply u ->
          Spm_server.Frontend.push t.front u ~seconds:(Clock.now () -. t0)
        | _ -> ());
        finish outcome)
  | Protocol.Mine _ | Protocol.Lookup _ | Protocol.Contains _ ->
    let targets =
      match plan t req with None -> all_targets t | Some ts -> ts
    in
    locked t (fun () ->
        t.contacted <- t.contacted + List.length targets;
        t.pruned <-
          t.pruned + (Array.length t.shards - List.length targets));
    if targets = [] then
      (* Nothing any shard holds can answer this: the empty pattern set,
         with zero round trips. *)
      finish (Run.Ok, [], Protocol.Patterns [])
    else
      let results = scatter t req ~targets ~deadline in
      finish (merge_query t results targets)

(* --- the socket surface --- *)

let serve t fd =
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () -> Spm_server.Frontend.serve t.front ~handle:(handle t) fd)
