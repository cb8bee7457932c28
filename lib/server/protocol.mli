(** The SkinnyServe wire protocol: length-prefixed binary frames over TCP.

    Connection: after connect, the client sends the 8-byte {!handshake}
    and the server echoes it. Any other greeting (an older client, a stray
    scanner) closes the connection without an echo. Then each request is
    one frame and earns exactly one response frame — except [Subscribe],
    after which the server additionally pushes one unsolicited
    [Update_reply] frame per committed graph version.

    Frame: 4-byte big-endian payload length, then the payload — a
    {!Spm_store.Codec} encoding of a {!request} or {!response}. Payloads
    above {!max_frame} are rejected without allocation.

    Responses carry a small envelope (cache hit flag, server-side service
    seconds, run {!Spm_engine.Run.status}) so clients and benchmarks can
    observe per-request latency, LRU effectiveness and deadline truncation
    without a separate stats round trip. *)

val handshake : string
(** ["SKNYSRV5"], the greeting of the one wire version. *)

val max_frame : int
(** Upper bound on accepted payload sizes (64 MiB). *)

val default_port : int

(** {1 Messages} *)

type mine_params = {
  l : int;
  delta : int;
  sigma : int;
  closed_growth : bool;
  family : Spm_core.Constraints.family;
      (** Which constraint family to mine. [Skinny] requests keep request
          tag 2; [Neighborhood] requests use tag 11 ([l] must be 0, [delta]
          carries the radius r). *)
}

type lookup_params = {
  min_support : int option;
  max_support : int option;
  length : int option;
  labels : Spm_graph.Label.t list option;  (** exact label multiset *)
}

type update_params = { edits : Spm_graph.Delta.edit list }

type request =
  | Ping
  | Load_store of string
      (** Server-side path of a {!Spm_store} pattern-store file. *)
  | Mine of mine_params
      (** Mine the loaded graph; answered from the resident store when the
          parameters match it (no re-mining). *)
  | Lookup of lookup_params  (** Filter the resident pattern set. *)
  | Contains of Spm_graph.Graph.t
      (** Which resident patterns embed in this submitted graph? *)
  | Stats
  | Shutdown
  | Progress
      (** Counters of the mine currently executing, if any. Answered
          immediately even while a [Mine] request is running. *)
  | Cancel
      (** Request cooperative cancellation of the running mine (if any); it
          answers its own client with [status = Cancelled] and whatever
          partial patterns it had. Acknowledged with [Cancel_ack]. *)
  | Update of update_params
      (** Apply an edit batch to the resident graph as one new version
          and repair the resident pattern set incrementally
          ({!Spm_core.Incremental}). Answered with [Update_reply]; the same
          diff is pushed to every subscriber. *)
  | Subscribe
      (** Answered with [Subscribed current_version]; the connection
          then receives one pushed [Update_reply] frame per subsequent
          committed version and must not send further requests. *)

(** {1 Request constructors}

    The one construction surface for params records: future fields extend
    these (with defaults) instead of every call site. *)

val mine_params :
  ?closed_growth:bool ->
  ?family:Spm_core.Constraints.family ->
  l:int ->
  delta:int ->
  sigma:int ->
  unit ->
  mine_params
(** [closed_growth] defaults to [false]; [family] to [Skinny]. *)

val lookup_params :
  ?min_support:int ->
  ?max_support:int ->
  ?length:int ->
  ?labels:Spm_graph.Label.t list ->
  unit ->
  lookup_params
(** Omitted filters match everything. *)

val update_params : Spm_graph.Delta.edit list -> update_params

type server_stats = {
  requests : int;
  cache_hits : int;
  errors : int;
  store_patterns : int;  (** resident pattern count *)
  uptime_seconds : float;
  service_seconds : float;  (** total time spent inside request handling *)
}

type mine_progress = {
  running : bool;  (** false = no mine in flight (counters are zero) *)
  candidates : int;  (** candidate patterns examined so far *)
  emitted : int;  (** patterns emitted so far *)
  level : int;  (** current level (pattern size being grown) *)
  elapsed_seconds : float;
}

type update_reply = {
  new_version : int;  (** graph version after the batch committed *)
  added : Spm_core.Skinny_mine.mined list;
  removed : Spm_core.Skinny_mine.mined list;
  repaired : int;  (** diameter clusters re-grown *)
  clusters : int;  (** total diameter clusters at the new version *)
}

type payload =
  | Pong
  | Loaded of int  (** pattern count of the newly resident store *)
  | Patterns of Spm_core.Skinny_mine.mined list
  | Stats_reply of server_stats
  | Bye
  | Error of string
  | Progress_reply of mine_progress
  | Cancel_ack of bool  (** was a mine actually running? *)
  | Update_reply of update_reply
  | Subscribed of int  (** current graph version *)

type response = {
  cache_hit : bool;
  seconds : float;  (** server-side service time for this request *)
  status : Spm_engine.Run.status;
      (** [Ok] unless this response was truncated by the server's
          per-request mine deadline ([Timeout]) or a [Cancel] ([Cancelled]);
          [Patterns] then holds the partial results *)
  unreachable : string list;
      (** [Partial] status: shards that could not contribute to this
          answer (worker down or past its deadline) — the router's degraded
          -but-well-formed response. Always empty from a single-process
          server, and an empty list encodes to the plain status byte, so
          full answers are byte-identical across the two tiers. *)
  payload : payload;
}

val response :
  ?cache_hit:bool ->
  ?seconds:float ->
  ?status:Spm_engine.Run.status ->
  ?unreachable:string list ->
  payload ->
  response
(** Envelope constructor with neutral defaults ([false], [0.0], [Ok],
    [[]]) — the construction surface that lets future envelope fields
    extend here instead of at every call site. *)

(** {1 Codec} *)

val encode_request : request -> string

val decode_request : string -> request
(** @raise Spm_store.Codec.Corrupt on malformed input. *)

val encode_response : response -> string

val decode_response : string -> response

val cacheable : request -> bool
(** Deterministic read-only requests ([Mine], [Lookup], [Contains]) whose
    responses the server may serve from its LRU cache. The cache key must
    also include the graph version — an [Update] invalidates every cached
    answer. *)

(** {1 Handshake} *)

val accept_handshake : Unix.file_descr -> bool
(** Server side: read 8 bytes and, if they are {!handshake}, echo it and
    return [true]. [false] (no echo) on any other greeting or early EOF. *)

val client_handshake : Unix.file_descr -> unit
(** Client side: send {!handshake} and read the echo.
    @raise Spm_store.Codec.Corrupt if the server does not echo it. *)

(** {1 Framing} *)

val write_frame : Unix.file_descr -> string -> unit

val read_frame : Unix.file_descr -> string option
(** [None] on orderly EOF before the first length byte.
    @raise Spm_store.Codec.Corrupt on truncation mid-frame or oversized
    frames. *)
