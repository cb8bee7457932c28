(** A shard worker: one {!Spm_server.Server} serving one shard store on
    its own listening socket, through {!Spm_server.Server.serve} on a
    background thread.

    The server side needs no cluster-specific logic — installing a shard
    store already scopes it to the owned diameter clusters
    ({!Spm_server.Server.set_store}); what this module adds is lifecycle
    over the server's {!Spm_server.Frontend}. A worker can be torn down
    abruptly ({!kill} — the failure the router's [Partial] path is tested
    against) or gracefully ({!stop}), and restarted on the same port
    ([SO_REUSEADDR]) to exercise recovery. *)

type t

val start :
  ?jobs:int ->
  ?cache_capacity:int ->
  ?mine_timeout:float ->
  ?host:string ->
  ?port:int ->
  ?path:string ->
  Spm_store.Store.pattern_store ->
  t
(** Create a server, install the store (shard stores auto-scope), bind
    [host]:[port] (default [127.0.0.1]:ephemeral) and serve on a background
    thread. [path] is where committed updates persist their journal.
    The remaining options are {!Spm_server.Server.create}'s.
    @raise Unix.Unix_error if the port cannot be bound. *)

val port : t -> int
(** The bound port (useful with [~port:0]). *)

val name : t -> string
(** {!Partition.shard_name} of the store's shard index ("shard0" for an
    unsharded store — a single worker is shard 0 of 1). *)

val server : t -> Spm_server.Server.t
(** The underlying server, for in-process inspection (stats, version). *)

val stop : t -> unit
(** Graceful teardown ({!Spm_server.Frontend.stop}): stop accepting, end
    every connection after its in-flight request, and wait until
    {!Spm_server.Server.serve} has returned. Idempotent, also after
    {!kill}. *)

val kill : t -> unit
(** Abrupt teardown ({!Spm_server.Frontend.kill}): shut down the listener,
    every live connection and every subscriber {e now} — peers blocked on a
    reply see EOF immediately, exactly like a crashed process. Does not
    wait for in-flight requests (a mine keeps running until it notices its
    dead socket). Idempotent. *)
