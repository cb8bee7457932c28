(** The server side of SkinnyServe connections, shared by every serving
    tier: {!Server}, the cluster's router and its shard workers all serve
    through this module and supply only a [handle : request -> response].

    A frontend owns the listening socket handed to {!serve}, one thread per
    connection, a registry of the connections that are live right now, the
    frame loop, the subscriber registry behind {!push}, and the one stop
    path.

    {b Frame loop.} Handshake ({!Protocol.accept_handshake}), then per
    frame: decode, [handle], encode and reply. An undecodable frame earns
    one [Error] reply and the connection is dropped (the stream offset can
    no longer be trusted). A served [Subscribe] hands the socket to the
    subscriber registry. A served [Shutdown] ends its connection and
    {!stop}s the frontend.

    {b Stop versus kill.} {!stop} is graceful: it shuts the listener (which
    wakes the blocked [accept]) and shuts down the receive side of every
    live connection, so an idle connection reads EOF at once while a
    request already being handled still writes its reply. {!kill} shuts
    every socket down in both directions at once — listener, live
    connections and subscribers — so peers see EOF exactly as if the
    process had crashed. *)

type t

val create : unit -> t
(** A frontend with no listener, no connections and no subscribers. *)

val serve : t -> handle:(Protocol.request -> Protocol.response) -> Unix.file_descr -> unit
(** Accept loop over a listening socket, which the frontend then owns and
    closes. Ignores [SIGPIPE] for the process, so a peer that disconnects
    mid-reply surfaces as [EPIPE] on its own connection thread. Returns
    once the frontend is stopped (or killed) and every connection thread
    has finished; subscriber sockets are then closed, so subscribers read
    EOF. Returns at once on a frontend already stopped. *)

val push : t -> Protocol.update_reply -> seconds:float -> unit
(** Write one [Update_reply] frame to every subscriber; a subscriber whose
    write fails is dropped. Call it after each committed update. *)

val stop : t -> unit
(** Graceful stop, as above. Idempotent; safe before {!serve} starts. *)

val kill : t -> unit
(** Abrupt stop, as above. Does not wait for requests in flight: a mine
    keeps running until it notices its dead socket. Idempotent. *)
