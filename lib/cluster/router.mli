(** The scatter-gather router: one SkinnyServe endpoint fronting a shard
    layout, answering the {e same} wire protocol as a single-process
    {!Spm_server.Server} with byte-identical payloads.

    {b Planning.} The router keeps a per-shard table of pattern summaries
    — seeded from the committed {!Partition.manifest}, updated in place
    from every [Update] diff — and prunes the scatter with the same
    signature reasoning as {!Spm_server.Sig_index}: a [Lookup] only
    contacts shards holding a summary that satisfies every filter, a
    [Contains] only shards holding a summary whose label multiset the
    submitted graph dominates. A query no summary can satisfy is answered
    locally with the empty pattern set — zero shard round trips. [Mine]
    and [Update] always contact every shard.

    {b Merging.} Shard answers arrive cluster-contiguous in sorted
    canonical-label order (each diameter cluster is wholly owned by one
    shard), so an ordered k-way merge by diameter labels reproduces the
    single-process pattern order exactly — responses are byte-identical to
    the unsharded server's, at any shard count.

    {b Failure.} Connections are pooled and persistent; each scatter leg
    carves its deadline from the request's remaining budget
    ([?deadline]), and transport failures on idempotent requests
    ({!Spm_server.Protocol.cacheable}) are retried once on a fresh
    connection after a short backoff. Shards still unreachable are always
    reported in the [Partial] envelope ([unreachable]) around the merge of
    the answers that {e did} arrive — never a malformed or silently
    truncated response. An [Update] is only acknowledged when {e every} shard
    committed and reports the same new version; anything less is an
    [Error] (no partial acks — a lost update leg must surface). *)

type t

val create :
  ?deadline:float ->
  manifest:Partition.manifest ->
  endpoints:(string * int) array ->
  unit ->
  t
(** A router over [endpoints.(i)] = (host, port) of shard [i], in manifest
    order. [deadline] is the per-request wall-clock budget in seconds that
    scatter legs carve their timeouts from (default: none — wait forever).
    Connections are dialed lazily on first use.
    @raise Invalid_argument if the endpoint count disagrees with the
    manifest. *)

val version : t -> int
(** The layout's graph version: the manifest's, +1 per [Update] every
    shard acknowledged. *)

val shard_patterns : t -> int array
(** Per-shard pattern counts from the live summary tables — the placement
    balance observable, in shard order. *)

val pruning : t -> int * int
(** [(contacted, pruned)] cumulative scatter legs: how many shard calls
    plannable requests ([Lookup]/[Contains]) issued vs. avoided. The
    pushdown-effectiveness observable reported by the cluster benchmark. *)

val handle : t -> Spm_server.Protocol.request -> Spm_server.Protocol.response
(** Plan, scatter, merge one request — the full dispatch path minus the
    socket, so tests can compare router answers against
    {!Spm_server.Server.handle} in-process. Never raises: transport
    failures become [Partial]/[Error] responses as described above. An
    acknowledged [Update] pushes the merged diff to the frontend's
    subscribers. *)

val stats : t -> Spm_server.Protocol.server_stats
(** Router-local counters ([store_patterns] is the summary-table total
    across shards; [cache_hits] is always 0 — the router does not cache). *)

val serve : t -> Unix.file_descr -> unit
(** {!Spm_server.Frontend.serve} over {!handle}, on a
    {!Spm_server.Server.listen} socket: the same connection handling as a
    single-process server. Returns after a [Shutdown] (router-local —
    workers are not shut down), once every connection thread has finished,
    idle connections included, and then drops the pooled worker
    connections. *)

val close : t -> unit
(** Drop every pooled worker connection. [serve] does this on exit; only
    in-process users need to call it. *)
