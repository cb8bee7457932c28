module Codec = Spm_store.Codec
module Run = Spm_engine.Run

type t = {
  fd : Unix.file_descr;
  mutable meta : (bool * float) option;
  mutable status : Run.status option;
  mutable unreachable : string list;
  mutable closed : bool;
}

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  match
    Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port));
    (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
    Protocol.client_handshake fd
  with
  | () -> { fd; meta = None; status = None; unreachable = []; closed = false }
  | exception e ->
    (try Unix.close fd with _ -> ());
    raise e

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let call t req =
  Protocol.write_frame t.fd (Protocol.encode_request req);
  match Protocol.read_frame t.fd with
  | None -> raise (Codec.Corrupt "server closed the connection before replying")
  | Some frame ->
    let resp = Protocol.decode_response frame in
    t.meta <- Some (resp.Protocol.cache_hit, resp.Protocol.seconds);
    t.status <- Some resp.Protocol.status;
    t.unreachable <- resp.Protocol.unreachable;
    resp

let with_connection ?host ~port f =
  let t = connect ?host ~port () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let last_meta t = t.meta
let last_status t = t.status
let last_unreachable t = t.unreachable

exception Server_error of string

let expect_payload t req =
  match (call t req).Protocol.payload with
  | Protocol.Error msg -> raise (Server_error msg)
  | p -> p

let protocol_violation what =
  raise (Codec.Corrupt ("unexpected response payload to " ^ what))

let ping t =
  match expect_payload t Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> protocol_violation "Ping"

let load_store t path =
  match expect_payload t (Protocol.Load_store path) with
  | Protocol.Loaded n -> n
  | _ -> protocol_violation "Load_store"

let patterns_of what = function
  | Protocol.Patterns ms -> ms
  | _ -> protocol_violation what

let mine t params = patterns_of "Mine" (expect_payload t (Protocol.Mine params))

let lookup t params =
  patterns_of "Lookup" (expect_payload t (Protocol.Lookup params))

let contains t g =
  patterns_of "Contains" (expect_payload t (Protocol.Contains g))

let stats t =
  match expect_payload t Protocol.Stats with
  | Protocol.Stats_reply s -> s
  | _ -> protocol_violation "Stats"

let shutdown t =
  match expect_payload t Protocol.Shutdown with
  | Protocol.Bye -> ()
  | _ -> protocol_violation "Shutdown"

let progress t =
  match expect_payload t Protocol.Progress with
  | Protocol.Progress_reply p -> p
  | _ -> protocol_violation "Progress"

let cancel t =
  match expect_payload t Protocol.Cancel with
  | Protocol.Cancel_ack was_running -> was_running
  | _ -> protocol_violation "Cancel"

let update t edits =
  match expect_payload t (Protocol.Update (Protocol.update_params edits)) with
  | Protocol.Update_reply u -> u
  | _ -> protocol_violation "Update"

let subscribe t =
  match expect_payload t Protocol.Subscribe with
  | Protocol.Subscribed v -> v
  | _ -> protocol_violation "Subscribe"

let next_diff t =
  match Protocol.read_frame t.fd with
  | None -> None
  | Some frame -> (
    match (Protocol.decode_response frame).Protocol.payload with
    | Protocol.Update_reply u -> Some u
    | _ -> protocol_violation "Subscribe push")
