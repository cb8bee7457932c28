module Codec = Spm_store.Codec

type t = {
  lock : Mutex.t;
  drained : Condition.t;  (* broadcast when [live] empties *)
  mutable stopped : bool;
  mutable listener : Unix.file_descr option;
  mutable live : Unix.file_descr list;
      (* Connections whose thread is still running; under [lock]. A thread
         unregisters its socket before closing it, so [stop] and [kill],
         which shut down only registered sockets under the lock, never
         touch a descriptor number after it has been reused. *)
  sub_lock : Mutex.t;
  mutable subscribers : Unix.file_descr list;
      (* Sockets handed over by [Subscribe]. Under [sub_lock], which also
         serializes pushes, so two frames never interleave on a socket. *)
}

let create () =
  {
    lock = Mutex.create ();
    drained = Condition.create ();
    stopped = false;
    listener = None;
    live = [];
    sub_lock = Mutex.create ();
    subscribers = [];
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let shutdown_quietly cmd fd =
  try Unix.shutdown fd cmd with Unix.Unix_error _ -> ()

(* Shutting the listener down wakes the blocked [accept]. [SHUTDOWN_RECEIVE]
   makes an idle connection read EOF while leaving it writable for a reply
   still being computed; [SHUTDOWN_ALL] ends it outright. *)
let halt t cmd =
  with_lock t.lock (fun () ->
      t.stopped <- true;
      Option.iter (shutdown_quietly Unix.SHUTDOWN_ALL) t.listener;
      List.iter (shutdown_quietly cmd) t.live)

let stop t = halt t Unix.SHUTDOWN_RECEIVE

let kill t =
  halt t Unix.SHUTDOWN_ALL;
  with_lock t.sub_lock (fun () ->
      List.iter (shutdown_quietly Unix.SHUTDOWN_ALL) t.subscribers)

let push t (u : Protocol.update_reply) ~seconds =
  let frame =
    Protocol.encode_response
      (Protocol.response ~seconds (Protocol.Update_reply u))
  in
  with_lock t.sub_lock (fun () ->
      t.subscribers <-
        List.filter
          (fun fd ->
            match Protocol.write_frame fd frame with
            | () -> true
            | exception (Unix.Unix_error _ | Codec.Corrupt _) ->
              close_quietly fd;
              false)
          t.subscribers)

(* The frame loop of one connection. Returns [true] once the socket has
   been handed to the subscriber registry, which then owns it. *)
let frames t ~handle conn =
  let reply resp = Protocol.write_frame conn (Protocol.encode_response resp) in
  let rec loop () =
    match Protocol.read_frame conn with
    | None -> false
    | Some _ when t.stopped ->
      (* Sent after a stop began: a peer that keeps a closed loop of
         requests going must not hold the frontend open. *)
      false
    | Some frame -> (
      match Protocol.decode_request frame with
      | exception Codec.Corrupt msg ->
        reply (Protocol.response (Protocol.Error msg));
        false
      | req -> (
        let resp = handle req in
        reply resp;
        match (req, resp.Protocol.payload) with
        | Protocol.Subscribe, Protocol.Subscribed _ ->
          with_lock t.sub_lock (fun () ->
              t.subscribers <- conn :: t.subscribers);
          true
        | Protocol.Shutdown, _ ->
          stop t;
          false
        | _ -> loop ()))
  in
  try Protocol.accept_handshake conn && loop ()
  with Codec.Corrupt _ | Unix.Unix_error _ -> false

let connection t ~handle conn =
  (try Unix.setsockopt conn Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  let subscribed = ref false in
  Fun.protect
    ~finally:(fun () ->
      with_lock t.lock (fun () ->
          t.live <- List.filter (fun c -> c != conn) t.live;
          if t.live = [] then Condition.broadcast t.drained);
      if not !subscribed then close_quietly conn)
    (fun () -> subscribed := frames t ~handle conn)

let serve t ~handle fd =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let admit conn =
    with_lock t.lock (fun () ->
        if not t.stopped then t.live <- conn :: t.live;
        not t.stopped)
  in
  let rec accept_loop () =
    match Unix.accept fd with
    | conn, _ ->
      if admit conn then ignore (Thread.create (connection t ~handle) conn)
      else close_quietly conn;
      accept_loop ()
    | exception Unix.Unix_error _ when t.stopped -> ()
    | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> accept_loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop t;
      with_lock t.lock (fun () ->
          while t.live <> [] do
            Condition.wait t.drained t.lock
          done;
          t.listener <- None);
      close_quietly fd;
      (* Subscribers read EOF: the stream of diffs is over. *)
      with_lock t.sub_lock (fun () ->
          List.iter close_quietly t.subscribers;
          t.subscribers <- []))
    (fun () ->
      let listening =
        with_lock t.lock (fun () ->
            if not t.stopped then t.listener <- Some fd;
            not t.stopped)
      in
      if listening then accept_loop ())
