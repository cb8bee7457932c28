module Codec = Spm_store.Codec
module Store = Spm_store.Store
module Run = Spm_engine.Run

(* The greeting names the one wire version; a peer that greets otherwise
   would misparse frames, so it is refused at connect time. *)
let handshake = "SKNYSRV5"
let max_frame = 64 * 1024 * 1024
let default_port = 7707

type mine_params = {
  l : int;
  delta : int;
  sigma : int;
  closed_growth : bool;
  family : Spm_core.Constraints.family;
}

type lookup_params = {
  min_support : int option;
  max_support : int option;
  length : int option;
  labels : Spm_graph.Label.t list option;
}

type update_params = { edits : Spm_graph.Delta.edit list }

type request =
  | Ping
  | Load_store of string
  | Mine of mine_params
  | Lookup of lookup_params
  | Contains of Spm_graph.Graph.t
  | Stats
  | Shutdown
  | Progress
  | Cancel
  | Update of update_params
  | Subscribe

(* Request records with defaults: the one construction surface
   for params records, so future fields extend these constructors instead
   of every call site. *)
let mine_params ?(closed_growth = false)
    ?(family = Spm_core.Constraints.Skinny) ~l ~delta ~sigma () =
  { l; delta; sigma; closed_growth; family }

let lookup_params ?min_support ?max_support ?length ?labels () =
  { min_support; max_support; length; labels }

let update_params edits = { edits }

type server_stats = {
  requests : int;
  cache_hits : int;
  errors : int;
  store_patterns : int;
  uptime_seconds : float;
  service_seconds : float;
}

type mine_progress = {
  running : bool;
  candidates : int;
  emitted : int;
  level : int;
  elapsed_seconds : float;
}

type update_reply = {
  new_version : int;
  added : Spm_core.Skinny_mine.mined list;
  removed : Spm_core.Skinny_mine.mined list;
  repaired : int;
  clusters : int;
}

type payload =
  | Pong
  | Loaded of int
  | Patterns of Spm_core.Skinny_mine.mined list
  | Stats_reply of server_stats
  | Bye
  | Error of string
  | Progress_reply of mine_progress
  | Cancel_ack of bool
  | Update_reply of update_reply
  | Subscribed of int

type response = {
  cache_hit : bool;
  seconds : float;
  status : Run.status;
  unreachable : string list;
      (* Shards that could not contribute to this answer (the router's
         Partial status). Empty everywhere else — and the empty list encodes
         to the plain status byte, so full answers are byte-identical to a
         single-process server's. *)
  payload : payload;
}

let response ?(cache_hit = false) ?(seconds = 0.0) ?(status = Run.Ok)
    ?(unreachable = []) payload =
  { cache_hit; seconds; status; unreachable; payload }

let cacheable = function
  | Mine _ | Lookup _ | Contains _ -> true
  | Ping | Load_store _ | Stats | Shutdown | Progress | Cancel | Update _
  | Subscribe ->
    false

(* --- request codec --- *)

let encode_request req =
  let w = Codec.W.create () in
  (match req with
  | Ping -> Codec.W.byte w 0
  | Load_store path ->
    Codec.W.byte w 1;
    Codec.W.string w path
  | Mine { l; delta; sigma; closed_growth; family = Spm_core.Constraints.Skinny }
    ->
    Codec.W.byte w 2;
    Codec.W.uint w l;
    Codec.W.uint w delta;
    Codec.W.uint w sigma;
    Codec.W.bool w closed_growth
  | Mine
      {
        l;
        delta;
        sigma;
        closed_growth;
        family = Spm_core.Constraints.Neighborhood { center };
      } ->
    (* The neighborhood Mine. [delta] carries the radius r and [l] is 0
       by construction; both still travel so the codec stays symmetric. *)
    Codec.W.byte w 11;
    Codec.W.uint w l;
    Codec.W.uint w delta;
    Codec.W.uint w sigma;
    Codec.W.bool w closed_growth;
    Codec.W.option w Codec.W.uint center
  | Lookup { min_support; max_support; length; labels } ->
    Codec.W.byte w 3;
    Codec.W.option w Codec.W.uint min_support;
    Codec.W.option w Codec.W.uint max_support;
    Codec.W.option w Codec.W.uint length;
    Codec.W.option w (fun w ls -> Codec.W.list w Codec.W.uint ls) labels
  | Contains g ->
    Codec.W.byte w 4;
    Store.write_graph w g
  | Stats -> Codec.W.byte w 5
  | Shutdown -> Codec.W.byte w 6
  | Progress -> Codec.W.byte w 7
  | Cancel -> Codec.W.byte w 8
  | Update { edits } ->
    Codec.W.byte w 9;
    Codec.W.list w Store.write_edit edits
  | Subscribe -> Codec.W.byte w 10);
  Codec.W.contents w

let decode_request s =
  let r = Codec.R.of_string s in
  match Codec.R.byte r with
  | 0 -> Ping
  | 1 -> Load_store (Codec.R.string r)
  | 2 ->
    let l = Codec.R.uint r in
    let delta = Codec.R.uint r in
    let sigma = Codec.R.uint r in
    let closed_growth = Codec.R.bool r in
    Mine { l; delta; sigma; closed_growth; family = Spm_core.Constraints.Skinny }
  | 3 ->
    let min_support = Codec.R.option r Codec.R.uint in
    let max_support = Codec.R.option r Codec.R.uint in
    let length = Codec.R.option r Codec.R.uint in
    let labels = Codec.R.option r (fun r -> Codec.R.list r Codec.R.uint) in
    Lookup { min_support; max_support; length; labels }
  | 4 -> Contains (Store.read_graph r)
  | 5 -> Stats
  | 6 -> Shutdown
  | 7 -> Progress
  | 8 -> Cancel
  | 9 -> Update { edits = Codec.R.list r Store.read_edit }
  | 10 -> Subscribe
  | 11 ->
    let l = Codec.R.uint r in
    let delta = Codec.R.uint r in
    let sigma = Codec.R.uint r in
    let closed_growth = Codec.R.bool r in
    let center = Codec.R.option r Codec.R.uint in
    Mine
      {
        l;
        delta;
        sigma;
        closed_growth;
        family = Spm_core.Constraints.Neighborhood { center };
      }
  | t -> raise (Codec.Corrupt (Printf.sprintf "unknown request tag %d" t))

(* --- response codec --- *)

let encode_payload w = function
  | Pong -> Codec.W.byte w 0
  | Loaded n ->
    Codec.W.byte w 1;
    Codec.W.uint w n
  | Patterns ms ->
    Codec.W.byte w 2;
    Codec.W.list w Store.write_mined ms
  | Stats_reply s ->
    Codec.W.byte w 3;
    Codec.W.uint w s.requests;
    Codec.W.uint w s.cache_hits;
    Codec.W.uint w s.errors;
    Codec.W.uint w s.store_patterns;
    Codec.W.float w s.uptime_seconds;
    Codec.W.float w s.service_seconds
  | Bye -> Codec.W.byte w 4
  | Error msg ->
    Codec.W.byte w 5;
    Codec.W.string w msg
  | Progress_reply p ->
    Codec.W.byte w 6;
    Codec.W.bool w p.running;
    Codec.W.uint w p.candidates;
    Codec.W.uint w p.emitted;
    Codec.W.uint w p.level;
    Codec.W.float w p.elapsed_seconds
  | Cancel_ack was_running ->
    Codec.W.byte w 7;
    Codec.W.bool w was_running
  | Update_reply u ->
    Codec.W.byte w 8;
    Codec.W.uint w u.new_version;
    Codec.W.list w Store.write_mined u.added;
    Codec.W.list w Store.write_mined u.removed;
    Codec.W.uint w u.repaired;
    Codec.W.uint w u.clusters
  | Subscribed v ->
    Codec.W.byte w 9;
    Codec.W.uint w v

let decode_payload r =
  match Codec.R.byte r with
  | 0 -> Pong
  | 1 -> Loaded (Codec.R.uint r)
  | 2 -> Patterns (Codec.R.list r Store.read_mined)
  | 3 ->
    let requests = Codec.R.uint r in
    let cache_hits = Codec.R.uint r in
    let errors = Codec.R.uint r in
    let store_patterns = Codec.R.uint r in
    let uptime_seconds = Codec.R.float r in
    let service_seconds = Codec.R.float r in
    Stats_reply
      { requests; cache_hits; errors; store_patterns; uptime_seconds;
        service_seconds }
  | 4 -> Bye
  | 5 -> Error (Codec.R.string r)
  | 6 ->
    let running = Codec.R.bool r in
    let candidates = Codec.R.uint r in
    let emitted = Codec.R.uint r in
    let level = Codec.R.uint r in
    let elapsed_seconds = Codec.R.float r in
    Progress_reply { running; candidates; emitted; level; elapsed_seconds }
  | 7 -> Cancel_ack (Codec.R.bool r)
  | 8 ->
    let new_version = Codec.R.uint r in
    let added = Codec.R.list r Store.read_mined in
    let removed = Codec.R.list r Store.read_mined in
    let repaired = Codec.R.uint r in
    let clusters = Codec.R.uint r in
    Update_reply { new_version; added; removed; repaired; clusters }
  | 9 -> Subscribed (Codec.R.uint r)
  | t -> raise (Codec.Corrupt (Printf.sprintf "unknown payload tag %d" t))

let status_byte = function Run.Ok -> 0 | Run.Timeout -> 1 | Run.Cancelled -> 2

let encode_response resp =
  let w = Codec.W.create () in
  Codec.W.bool w resp.cache_hit;
  Codec.W.float w resp.seconds;
  (* Status byte 3 is "Partial": an Ok answer missing the named shards'
     contributions, the shard list spliced in before the payload. An empty
     list uses the plain status byte. *)
  (match resp.unreachable with
  | [] -> Codec.W.byte w (status_byte resp.status)
  | shards ->
    Codec.W.byte w 3;
    Codec.W.list w Codec.W.string shards);
  encode_payload w resp.payload;
  Codec.W.contents w

let decode_response s =
  let r = Codec.R.of_string s in
  let cache_hit = Codec.R.bool r in
  let seconds = Codec.R.float r in
  let status, unreachable =
    match Codec.R.byte r with
    | 0 -> (Run.Ok, [])
    | 1 -> (Run.Timeout, [])
    | 2 -> (Run.Cancelled, [])
    | 3 -> (Run.Ok, Codec.R.list r Codec.R.string)
    | b -> raise (Codec.Corrupt (Printf.sprintf "unknown status byte %d" b))
  in
  let payload = decode_payload r in
  { cache_hit; seconds; status; unreachable; payload }

(* --- framing --- *)

let really_write fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then
      let n = Unix.write fd b off (len - off) in
      go (off + n)
  in
  go 0

let really_read fd n =
  let b = Bytes.create n in
  let rec go off =
    if off >= n then Some (Bytes.unsafe_to_string b)
    else
      match Unix.read fd b off (n - off) with
      | 0 ->
        if off = 0 then None
        else
          raise
            (Codec.Corrupt
               (Printf.sprintf "connection closed mid-frame (%d of %d bytes)" off n))
      | k -> go (off + k)
  in
  go 0

(* The server echoes the one greeting it speaks and closes on anything
   else, without an echo. *)
let accept_handshake fd =
  match really_read fd (String.length handshake) with
  | Some got when String.equal got handshake ->
    really_write fd handshake;
    true
  | Some _ | None -> false
  | exception Codec.Corrupt _ -> false

let client_handshake fd =
  really_write fd handshake;
  match really_read fd (String.length handshake) with
  | Some got when String.equal got handshake -> ()
  | Some got -> raise (Codec.Corrupt (Printf.sprintf "bad handshake echo %S" got))
  | None -> raise (Codec.Corrupt "server closed the connection during handshake")

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then
    raise (Codec.Corrupt (Printf.sprintf "frame too large to send: %d bytes" len));
  (* Header and payload go out in ONE write: a separate 4-byte header
     write leaves a small unacked segment in flight, and Nagle then holds
     the payload back for the peer's delayed ACK — a ~40ms stall per frame
     on loopback request-response traffic. *)
  let frame = Bytes.create (4 + len) in
  Bytes.set_uint8 frame 0 ((len lsr 24) land 0xFF);
  Bytes.set_uint8 frame 1 ((len lsr 16) land 0xFF);
  Bytes.set_uint8 frame 2 ((len lsr 8) land 0xFF);
  Bytes.set_uint8 frame 3 (len land 0xFF);
  Bytes.blit_string payload 0 frame 4 len;
  really_write fd (Bytes.unsafe_to_string frame)

let read_frame fd =
  match really_read fd 4 with
  | None -> None
  | Some hdr ->
    let len =
      (Char.code hdr.[0] lsl 24)
      lor (Char.code hdr.[1] lsl 16)
      lor (Char.code hdr.[2] lsl 8)
      lor Char.code hdr.[3]
    in
    if len > max_frame then
      raise
        (Codec.Corrupt
           (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
              max_frame));
    (match really_read fd len with
    | Some payload -> Some payload
    | None ->
      raise (Codec.Corrupt "connection closed between frame header and payload"))
