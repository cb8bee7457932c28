(** SkinnyServe: the TCP query service over mined pattern stores.

    One server owns a resident pattern store (graph + mined set + the
    {!Sig_index} planner index over it), an LRU response cache keyed by the
    graph version plus the encoded request bytes, and running counters.
    Connections are served by a {!Frontend}, one thread each. Short requests
    are serialized by a state lock; actual mining — full [Mine]s and
    incremental [Update] repairs — runs outside it under a separate mine
    lock (mining already fans out across domains via {!Spm_engine.Pool}, so
    parallel mines would oversubscribe the cores), which keeps
    [Progress]/[Cancel] and planner queries responsive while one is in
    flight.

    {b Evolving graphs}: an [Update] request applies an edit
    batch as one new graph version, repairs the resident pattern set with
    {!Spm_core.Incremental} (only the diameter clusters whose
    δ-neighborhoods the edits touched are re-grown), rebuilds the planner
    index, and appends the batch to the resident store's mutation journal —
    persisted back to the store's path when there is one, so a restarted
    server replays the journal and resumes at the latest version.
    [Subscribe] hands its connection to the frontend's subscriber registry,
    which receives one [Update_reply] frame per committed version. Cache entries are keyed by
    version, so an update can never serve a pre-update answer.

    Each mine or update executes under a fresh {!Spm_engine.Run} context.
    When the server was created with [?mine_timeout], the run carries that
    deadline: an overrunning mine stops cooperatively and its client
    receives [status = Timeout] with the partial patterns mined so far; an
    overrunning update commits {e nothing} and reports the interruption. A
    [Cancel] request trips the same mechanism ([status = Cancelled]).
    Non-[Ok] responses are never cached, so a retry gets a fresh attempt.

    {!handle} is the full dispatch path minus the socket, so tests and
    benchmarks can drive the server in-process and get byte-identical
    behaviour to the wire. *)

type t

val create :
  ?jobs:int ->
  ?cache_capacity:int ->
  ?mine_timeout:float ->
  ?mmap_stores:bool ->
  unit ->
  t
(** [jobs] (default 1) is the domain-pool width used for mining, update
    repair and containment requests; [cache_capacity] (default 128) bounds
    the LRU response cache; [mine_timeout] (default: none) is the
    wall-clock budget in seconds granted to each [Mine]/[Update] request
    that actually mines — cache and resident-store answers are exempt.
    With [mmap_stores] (default false), [Load_store] requests open stores
    via {!Spm_store.Store.load_mapped} — G2 graph payloads are served
    straight from the mapped file instead of a decoded copy. *)

val jobs : t -> int

val mine_timeout : t -> float option

val set_store : t -> ?path:string -> Spm_store.Store.pattern_store -> unit
(** Install a pattern store as the resident set: its graph becomes the mine
    target, its patterns the lookup/containment corpus. A store carrying a
    mutation journal is replayed through the incremental miner first, so
    the resident set reflects {!Spm_store.Store.latest_version}. When
    [path] is given, committed updates persist the journal back to it
    (as does the path of a [Load_store] request). Clears the response
    cache.

    A {e shard} store (one with [shard = Some (i, n)], produced by
    {!Spm_cluster.Partition}) automatically scopes the server to the
    diameter clusters shard [i] of [n] owns: [Mine] answers are the owned
    restriction of the full answer (a router merges the shards back into
    the complete set), and [Update] repairs only owned clusters — the
    server becomes a shard worker with no further configuration. *)

val set_graph : t -> Spm_graph.Graph.t -> unit
(** Install a bare data graph (mine requests only; empty resident set, no
    updates). Clears the response cache. *)

val version : t -> int
(** Current graph version: the loaded store's latest version, +1 per
    committed [Update]. *)

val handle : t -> Protocol.request -> Protocol.response
(** Dispatch one request: LRU lookup for {!Protocol.cacheable} requests,
    then the query planner ({!Sig_index}), the miner, or the incremental
    repairer. Never raises — failures become [Error] payloads and count in
    [stats.errors]. A committed [Update] is pushed to the frontend's
    subscribers. An in-process [Subscribe] returns [Subscribed] but
    registers nothing — push delivery needs the socket surface
    ({!serve}). *)

val stats : t -> Protocol.server_stats

val stopping : t -> bool
(** True once a [Shutdown] request has been handled. *)

val listen : ?host:string -> port:int -> unit -> Unix.file_descr * int
(** Bound, listening socket and its actual port (pass [port:0] for an
    ephemeral port — how the tests and benchmarks avoid collisions). *)

val serve : t -> Unix.file_descr -> unit
(** {!Frontend.serve} over {!handle}: one thread per connection until the
    frontend stops. A [Shutdown] request (which also cancels any in-flight
    mine) stops it gracefully: [serve] returns once every connection thread
    has finished, idle connections included, and subscribers read EOF. *)

val frontend : t -> Frontend.t
(** The frontend {!serve} runs, for stopping it from outside
    ({!Frontend.stop}, {!Frontend.kill}). *)
