module Store = Spm_store.Store
module Server = Spm_server.Server
module Frontend = Spm_server.Frontend

type t = { server : Server.t; name : string; port : int; thread : Thread.t }

let start ?jobs ?cache_capacity ?mine_timeout ?(host = "127.0.0.1")
    ?(port = 0) ?path store =
  let server = Server.create ?jobs ?cache_capacity ?mine_timeout () in
  Server.set_store server ?path store;
  let name =
    Partition.shard_name
      (match store.Store.shard with Some (i, _) -> i | None -> 0)
  in
  let fd, port = Server.listen ~host ~port () in
  { server; name; port; thread = Thread.create (Server.serve server) fd }

let port t = t.port
let name t = t.name
let server t = t.server

let stop t =
  Frontend.stop (Server.frontend t.server);
  Thread.join t.thread

let kill t = Frontend.kill (Server.frontend t.server)
