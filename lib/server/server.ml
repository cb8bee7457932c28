module Graph = Spm_graph.Graph
module Delta = Spm_graph.Delta
module Skinny_mine = Spm_core.Skinny_mine
module Constraints = Spm_core.Constraints
module Incremental = Spm_core.Incremental
module Path_pattern = Spm_core.Path_pattern
module Store = Spm_store.Store
module Codec = Spm_store.Codec
module Pool = Spm_engine.Pool
module Clock = Spm_engine.Clock
module Run = Spm_engine.Run

type t = {
  jobs : int;
  mine_timeout : float option;
  mmap_stores : bool;
      (* [Load_store] requests map the store's G2 graph payload instead of
         decoding a copy (v1 files still decode). *)
  lock : Mutex.t;
  mine_lock : Mutex.t;
      (* Serializes actual mining — full [Mine]s and incremental [Update]
         repairs, the only long-running requests. Held WITHOUT [lock], so
         Progress/Cancel (and the planner queries) stay responsive while
         one is in flight. Lock order: a thread holding [mine_lock] may
         take [lock]; never the reverse. *)
  mutable current : Run.t option;  (* the in-flight mine, if any; under [lock] *)
  cache : (string, Protocol.payload) Lru.t;
  mutable graph : Graph.t option;
  mutable index : Sig_index.t;
  mutable store : Store.pattern_store option;
  mutable store_path : string option;
      (* Where committed updates are persisted (journal appended); set by
         [Load_store] and [set_store ~path]. *)
  mutable version : int;
      (* Current graph version: [Store.latest_version] of the resident
         store at install, +1 per committed [Update]. Part of every LRU
         cache key, so an update can never serve a pre-update answer. *)
  mutable live : Incremental.t option;
      (* Incremental mining state at [version]; built lazily on the first
         [Update] (eagerly when the loaded store carries a journal). *)
  mutable scope : (Path_pattern.t -> bool) option;
      (* Cluster-ownership predicate, derived from the resident store's
         shard identity: a shard worker serves (and repairs, and mines)
         only the diameter clusters its shard owns. [None] for ordinary
         stores — behaviour is then exactly the unsharded server's. *)
  front : Frontend.t;
      (* Connections and subscribers; each committed [Update] is pushed
         through it. *)
  mutable requests : int;
  mutable cache_hits : int;
  mutable errors : int;
  mutable service_seconds : float;
  started : float;
  mutable stop : bool;
}

let create ?(jobs = 1) ?(cache_capacity = 128) ?mine_timeout
    ?(mmap_stores = false) () =
  {
    jobs = max 1 jobs;
    mine_timeout;
    mmap_stores;
    lock = Mutex.create ();
    mine_lock = Mutex.create ();
    current = None;
    cache = Lru.create ~capacity:cache_capacity;
    graph = None;
    index = Sig_index.build [];
    store = None;
    store_path = None;
    version = 0;
    live = None;
    scope = None;
    front = Frontend.create ();
    requests = 0;
    cache_hits = 0;
    errors = 0;
    service_seconds = 0.0;
    started = Clock.now ();
    stop = false;
  }

let jobs t = t.jobs
let mine_timeout t = t.mine_timeout
let frontend t = t.front

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let version t = locked t (fun () -> t.version)

let incr_config t (s : Store.pattern_store) =
  {
    Skinny_mine.Config.default with
    closed_growth = s.Store.closed_growth;
    jobs = t.jobs;
  }

(* A shard store's ownership predicate: the diameter clusters whose
   byte-stable key maps to its shard index. *)
let scope_of_store (s : Store.pattern_store) =
  Option.map
    (fun (index, count) ->
      fun labels -> Path_pattern.shard_of ~shards:count labels = index)
    s.Store.shard

(* Incremental state for the resident store: restore from its pattern set
   (no re-mining) when it partitions cleanly, re-mine from scratch if not
   (a store from a foreign producer), then replay the journal batch by
   batch to reach [latest_version]. Shard stores restore/create/update
   under their ownership scope, so repairs never grow clusters the shard
   does not own. *)
let build_live t (s : Store.pattern_store) =
  if not s.Store.complete then
    failwith "resident store is incomplete (truncated mine); cannot update";
  (match s.Store.family with
  | Constraints.Skinny -> ()
  | Constraints.Neighborhood _ ->
    (* The incremental repair machinery is diameter-cluster-shaped; the
       neighborhood family re-mines from scratch instead of updating. *)
    failwith
      "resident store mines the neighborhood family; incremental updates \
       are skinny-only");
  let config = incr_config t s in
  let scope = scope_of_store s in
  let dg = Delta.of_graph s.Store.graph in
  let inc =
    match
      Incremental.restore ~config ?scope dg ~l:s.Store.l ~delta:s.Store.delta
        ~sigma:s.Store.sigma ~patterns:s.Store.patterns
    with
    | Some inc -> inc
    | None ->
      Incremental.create ~config ?scope dg ~l:s.Store.l ~delta:s.Store.delta
        ~sigma:s.Store.sigma
  in
  List.fold_left
    (fun inc batch -> fst (Incremental.update inc batch))
    inc s.Store.journal

let install_store t ?path s =
  (* A journal means graph+patterns as stored are behind the latest
     version: replay through the incremental miner before serving. *)
  let live = if s.Store.journal = [] then None else Some (build_live t s) in
  t.store <- Some s;
  t.store_path <- path;
  t.version <- Store.latest_version s;
  t.live <- live;
  t.scope <- scope_of_store s;
  (match live with
  | Some inc ->
    t.graph <- Some (Delta.snapshot (Incremental.graph inc));
    t.index <- Sig_index.build (Incremental.patterns inc)
  | None ->
    t.graph <- Some s.Store.graph;
    t.index <- Sig_index.build s.Store.patterns);
  Lru.clear t.cache

let set_store t ?path s = locked t (fun () -> install_store t ?path s)

let set_graph t g =
  locked t (fun () ->
      t.store <- None;
      t.store_path <- None;
      t.version <- 0;
      t.live <- None;
      t.scope <- None;
      t.graph <- Some g;
      t.index <- Sig_index.build [];
      Lru.clear t.cache)

let stopping t = t.stop

let stats_unlocked t =
  {
    Protocol.requests = t.requests;
    cache_hits = t.cache_hits;
    errors = t.errors;
    store_patterns = Sig_index.size t.index;
    uptime_seconds = Clock.now () -. t.started;
    service_seconds = t.service_seconds;
  }

let stats t = locked t (fun () -> stats_unlocked t)

let with_jobs_pool jobs f =
  if jobs <= 1 then f Pool.serial else Pool.with_pool ~jobs f

(* Dispatch outcome of the state-locked phase: everything except an actual
   mine or an incremental update completes in there. *)
type dispatch =
  | Done of Run.status * Protocol.payload
  | Need_mine of Protocol.mine_params * Graph.t
  | Need_update of Spm_graph.Delta.edit list

let dispatch_unlocked t req : dispatch =
  match (req : Protocol.request) with
  | Ping -> Done (Run.Ok, Pong)
  | Load_store path ->
    let s =
      if t.mmap_stores then Store.load_mapped path else Store.load path
    in
    install_store t ~path s;
    Done (Run.Ok, Loaded (List.length s.Store.patterns))
  | Mine { l; delta; sigma; closed_growth; family } -> (
    let matches_store =
      match t.store with
      | Some s
        when s.Store.complete && s.Store.l = l && s.Store.delta = delta
             && s.Store.sigma = sigma
             && s.Store.closed_growth = closed_growth
             && s.Store.family = family -> (
        (* An incomplete store (flushed from a timed-out mine) is a prefix,
           not the answer set — never let it satisfy a Mine request. Only
           an update-free store short-circuits: after updates the resident
           patterns live in [live], and [t.graph] tracks them. *)
        match t.live with
        | None -> Some s.Store.patterns
        | Some inc when Option.is_some t.scope && Incremental.complete inc ->
          (* A shard worker past an update: serve the scoped incremental
             state — the owned restriction of the current version's answer.
             (A full re-mine would leak clusters the shard does not own.) *)
          Some (Incremental.patterns inc)
        | Some _ -> None)
      | Some _ | None -> None
    in
    match matches_store with
    | Some patterns ->
      Done (Run.Ok, Patterns patterns) (* resident store: no re-mining *)
    | None -> (
      match t.graph with
      | None -> Done (Run.Ok, Error "no graph loaded (send Load_store first)")
      | Some g -> Need_mine ({ l; delta; sigma; closed_growth; family }, g)))
  | Lookup { min_support; max_support; length; labels } ->
    Done
      ( Run.Ok,
        Patterns
          (Sig_index.lookup ?min_support ?max_support ?length ?labels t.index)
      )
  | Contains g ->
    Done
      ( Run.Ok,
        Patterns
          (with_jobs_pool t.jobs (fun pool ->
               Sig_index.contained_in ~pool t.index g)) )
  | Stats -> Done (Run.Ok, Stats_reply (stats_unlocked t))
  | Shutdown ->
    t.stop <- true;
    (* Stop an in-flight mine too, so [serve] can wait for its connection
       thread promptly instead of waiting out the full search. *)
    Option.iter Run.cancel t.current;
    Done (Run.Ok, Bye)
  | Progress -> (
    match t.current with
    | None ->
      Done
        ( Run.Ok,
          Progress_reply
            {
              running = false;
              candidates = 0;
              emitted = 0;
              level = 0;
              elapsed_seconds = 0.0;
            } )
    | Some run ->
      let p = Run.progress run in
      Done
        ( Run.Ok,
          Progress_reply
            {
              running = true;
              candidates = p.Run.candidates;
              emitted = p.Run.emitted;
              level = p.Run.level;
              elapsed_seconds = Run.elapsed run;
            } ))
  | Cancel -> (
    match t.current with
    | None -> Done (Run.Ok, Cancel_ack false)
    | Some run ->
      Run.cancel run;
      Done (Run.Ok, Cancel_ack true))
  | Update { edits } -> (
    match t.store with
    | None ->
      Done (Run.Ok, Error "no store loaded (send Load_store first)")
    | Some s ->
      if not s.Store.complete then
        Done
          ( Run.Ok,
            Error "resident store is incomplete (truncated mine); cannot update"
          )
      else (
        match s.Store.family with
        | Constraints.Neighborhood _ ->
          Done
            ( Run.Ok,
              Error
                "resident store mines the neighborhood family; incremental \
                 updates are skinny-only" )
        | Constraints.Skinny -> Need_update edits))
  | Subscribe -> Done (Run.Ok, Subscribed t.version)

(* The mine itself, outside the state lock. Serialized by [mine_lock]
   (mining already fans out across domains; parallel mines would
   oversubscribe the cores). *)
let run_mine t { Protocol.l; delta; sigma; closed_growth; family } g =
  let run = Run.create ?timeout:t.mine_timeout () in
  locked t (fun () -> t.current <- Some run);
  let r =
    Fun.protect
      ~finally:(fun () -> locked t (fun () -> t.current <- None))
      (fun () ->
        let config =
          { Skinny_mine.Config.default with closed_growth; family; jobs = t.jobs }
        in
        Skinny_mine.mine ~config ~run g ~l ~delta ~sigma)
  in
  (* A shard worker answers any Mine with the owned restriction of the full
     answer: the router's merge of all shards is then the complete set. *)
  let patterns =
    match t.scope with
    | None -> r.Skinny_mine.patterns
    | Some owned ->
      List.filter
        (fun (m : Skinny_mine.mined) -> owned m.Skinny_mine.diameter_labels)
        r.Skinny_mine.patterns
  in
  (r.Skinny_mine.stats.Skinny_mine.status, Protocol.Patterns patterns)

(* An incremental update, outside the state lock and serialized with mines
   by [mine_lock]: cluster repair fans out across the same domain pool. *)
let run_update t edits =
  let live, store = locked t (fun () -> (t.live, t.store)) in
  match store with
  | None -> (Run.Ok, Protocol.Error "no store loaded (send Load_store first)")
  | Some s ->
    let inc =
      match live with Some inc -> inc | None -> build_live t s
    in
    let run = Run.create ?timeout:t.mine_timeout () in
    locked t (fun () -> t.current <- Some run);
    let inc', diff =
      Fun.protect
        ~finally:(fun () -> locked t (fun () -> t.current <- None))
        (fun () -> Incremental.update ~run inc edits)
    in
    if diff.Incremental.status <> Run.Ok then
      (* Interrupted repair: nothing was committed — the resident set and
         version are exactly as before, and a retry starts fresh. *)
      ( diff.Incremental.status,
        Protocol.Error "update interrupted; no version committed" )
    else begin
      let store', new_version =
        locked t (fun () ->
            let s' =
              { s with Store.journal = s.Store.journal @ [ edits ] }
            in
            t.store <- Some s';
            t.live <- Some inc';
            t.graph <- Some (Delta.snapshot (Incremental.graph inc'));
            t.index <- Sig_index.build (Incremental.patterns inc');
            t.version <- t.version + 1;
            (* No cache flush: keys carry the version, so every cached
               answer is now unreachable by construction. *)
            (s', t.version))
      in
      let reply =
        {
          Protocol.new_version;
          added = diff.Incremental.added;
          removed = diff.Incremental.removed;
          repaired = diff.Incremental.repaired_clusters;
          clusters = diff.Incremental.total_clusters;
        }
      in
      Frontend.push t.front reply ~seconds:diff.Incremental.seconds;
      match t.store_path with
      | None -> (Run.Ok, Protocol.Update_reply reply)
      | Some path -> (
        match Store.save path store' with
        | () -> (Run.Ok, Protocol.Update_reply reply)
        | exception Sys_error msg ->
          ( Run.Ok,
            Protocol.Error
              (Printf.sprintf
                 "update committed as v%d but not persisted to %s: %s"
                 new_version path msg) ))
    end

(* Request failures become [Error] payloads ({!handle} never raises for
   these); anything else is a server bug and propagates. *)
let classify_error = function
  | Codec.Corrupt msg | Failure msg | Sys_error msg -> Some msg
  | Invalid_argument msg -> Some ("invalid request: " ^ msg)
  | Unix.Unix_error (e, fn, _) ->
    Some (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | _ -> None

let handle t req : Protocol.response =
  let t0 = Clock.now () in
  let req_bytes =
    if Protocol.cacheable req then Some (Protocol.encode_request req)
    else None
  in
  let finish ~key ~cache_hit (status, payload) =
    locked t (fun () ->
        (match (key, payload) with
        | ( Some k,
            Protocol.(Pong | Loaded _ | Patterns _ | Stats_reply _ | Bye) )
          when (not cache_hit) && status = Run.Ok ->
          (* Only complete answers are cacheable: a Timeout/Cancelled
             [Patterns] is a prefix, and a retry deserves a fresh
             attempt. *)
          Lru.add t.cache k payload
        | _, _ -> ());
        let seconds = Clock.now () -. t0 in
        t.service_seconds <- t.service_seconds +. seconds;
        Protocol.response ~cache_hit ~seconds ~status payload)
  in
  (* Phase 1, under the state lock: cache probe plus every request except
     an actual mine or update. The cache key is the graph version plus
     the request bytes — version-keying is what makes an [Update] safe
     against the cache: an answer computed at version v is only ever
     findable at version v (the stale entries just age out of the
     LRU). *)
  let phase1 =
    locked t (fun () ->
        t.requests <- t.requests + 1;
        let key =
          Option.map
            (fun k -> Printf.sprintf "v%d:%s" t.version k)
            req_bytes
        in
        match Option.bind key (Lru.find t.cache) with
        | Some payload ->
          t.cache_hits <- t.cache_hits + 1;
          `Hit payload
        | None -> (
          match dispatch_unlocked t req with
          | Done (status, payload) -> `Done (key, (status, payload))
          | Need_mine (params, g) -> `Mine (key, params, g)
          | Need_update edits -> `Update edits
          | exception e -> (
            match classify_error e with
            | Some msg ->
              t.errors <- t.errors + 1;
              `Done (key, (Run.Ok, Protocol.Error msg))
            | None -> raise e)))
  in
  (* Mines and updates run outside the state lock, serialized by
     [mine_lock]. *)
  let with_mine_lock f =
    Mutex.lock t.mine_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mine_lock) f
  in
  let or_error f =
    match f () with
    | result -> result
    | exception e -> (
      match classify_error e with
      | Some msg ->
        locked t (fun () -> t.errors <- t.errors + 1);
        (Run.Ok, Protocol.Error msg)
      | None -> raise e)
  in
  match phase1 with
  | `Hit payload -> finish ~key:None ~cache_hit:true (Run.Ok, payload)
  | `Done (key, result) -> finish ~key ~cache_hit:false result
  | `Mine (key, params, g) ->
    with_mine_lock (fun () ->
        (* Another request may have mined and cached the same parameters
           while we waited for the mine lock. *)
        let recheck =
          locked t (fun () ->
              match Option.bind key (Lru.find t.cache) with
              | Some payload ->
                t.cache_hits <- t.cache_hits + 1;
                Some payload
              | None -> None)
        in
        match recheck with
        | Some payload -> finish ~key:None ~cache_hit:true (Run.Ok, payload)
        | None ->
          finish ~key ~cache_hit:false
            (or_error (fun () -> run_mine t params g)))
  | `Update edits ->
    with_mine_lock (fun () ->
        finish ~key:None ~cache_hit:false
          (or_error (fun () -> run_update t edits)))

(* --- the socket surface --- *)

let listen ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  (try Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  Unix.listen fd 64;
  let actual_port =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, actual_port)

let serve t fd = Frontend.serve t.front ~handle:(handle t) fd
