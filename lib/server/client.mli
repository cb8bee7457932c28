(** Blocking client for the SkinnyServe protocol — the [skinnymine query]
    subcommand, the end-to-end tests, and the serving benchmark all go
    through this. One request in flight per connection. *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** TCP connect + protocol handshake ({!Protocol.handshake}), one attempt.
    @raise Unix.Unix_error on connection failure.
    @raise Spm_store.Codec.Corrupt if the peer does not echo the greeting. *)

val close : t -> unit

val call : t -> Protocol.request -> Protocol.response
(** One request/response round trip.
    @raise Spm_store.Codec.Corrupt on protocol violations (including EOF
    before the response arrives). *)

val with_connection :
  ?host:string -> port:int -> (t -> 'a) -> 'a
(** Connect, run, close (also on exceptions). *)

(** {1 Conveniences} — one call each, failing loudly on [Error] replies. *)

exception Server_error of string
(** An [Error] payload from the server, raised by the typed wrappers. *)

val ping : t -> unit

val load_store : t -> string -> int
(** Pattern count of the store the server loaded. *)

val mine : t -> Protocol.mine_params -> Spm_core.Skinny_mine.mined list

val lookup : t -> Protocol.lookup_params -> Spm_core.Skinny_mine.mined list

val contains : t -> Spm_graph.Graph.t -> Spm_core.Skinny_mine.mined list

val stats : t -> Protocol.server_stats

val shutdown : t -> unit

val progress : t -> Protocol.mine_progress
(** Counters of the server's in-flight mine ([running = false] if none).
    Issue it from a second connection: a connection blocked on its own
    [Mine] cannot interleave another request. *)

val cancel : t -> bool
(** Ask the server to cancel its in-flight mine; [true] if one was running.
    The mining client receives [status = Cancelled] plus partial patterns. *)

val update : t -> Spm_graph.Delta.edit list -> Protocol.update_reply
(** Apply an edit batch as one new graph version and get back the
    pattern-set diff the incremental repair produced. *)

val subscribe : t -> int
(** Enter subscriber mode: returns the current graph version; from then on
    this connection only receives pushed diffs — read them with
    {!next_diff} and send nothing further. *)

val next_diff : t -> Protocol.update_reply option
(** Block for the next pushed diff on a subscribed connection. [None] on
    orderly EOF — the server shut down and the stream of diffs is over. *)

val last_meta : t -> (bool * float) option
(** [(cache_hit, server_seconds)] of the most recent response on this
    connection — the per-request observability hook used by the benchmark
    and the CLI. *)

val last_status : t -> Spm_engine.Run.status option
(** {!Spm_engine.Run.status} of the most recent response: anything other
    than [Ok] means the answer was truncated by the server's mine deadline
    or a concurrent [Cancel]. *)

val last_unreachable : t -> string list
(** Shards the most recent response is missing (the router's [Partial]
    status) — empty for complete answers and for every response from a
    single-process server. The typed wrappers deliver partial answers
    normally; callers that must distinguish degraded responses check
    here. *)
