(** The direct-mining index (Figure 2): pre-compute the minimal
    constraint-satisfying patterns — frequent paths — once, then serve mining
    requests for any diameter length l (or range) without touching the
    pattern space below l.

    Powers of two are materialized eagerly; requested lengths are merged on
    demand and cached. *)

type t

val build :
  ?prune_intermediate:bool ->
  ?path_support:(int array list -> int) ->
  ?run:Spm_engine.Run.t ->
  ?jobs:int ->
  Spm_graph.Graph.t ->
  sigma:int ->
  l_max:int ->
  t
(** Index able to serve any l in [1, l_max] (provided l_max >= 1 and either
    l is at most twice the largest materialized power minus one, which holds
    for every l <= l_max by construction). [jobs] (default 1) parallelizes
    the power-of-2 construction and later on-demand merges; request-time
    Stage-II parallelism is configured per request via
    [config.Skinny_mine.Config.jobs]. [run] bounds the eager power-of-2
    construction ({!Spm_engine.Run.Cancelled} escapes as from
    [Diam_mine.mine]). *)

val graph : t -> Spm_graph.Graph.t

val sigma : t -> int

val l_max : t -> int
(** The [l_max] the index was built (or snapshotted) for. *)

(** Persistable Stage-I state: the frequent-path entries of every length the
    index has materialized (all powers of two, plus any merged lengths served
    so far). {!Spm_store} serializes this so Stage I survives across runs. *)
type snapshot = {
  snap_sigma : int;
  snap_l_max : int;
  lengths : (int * Diam_mine.entry list) list;
      (** Ascending lengths, each with its frequent-path entries. *)
}

val snapshot : t -> snapshot

val of_snapshot :
  ?prune_intermediate:bool ->
  ?path_support:(int array list -> int) ->
  ?jobs:int ->
  Spm_graph.Graph.t ->
  snapshot ->
  t
(** Index serving every snapshotted length without recomputation. A request
    for a length outside the snapshot triggers a full lazy Stage-I rebuild
    under [prune_intermediate] (default [true]) and [path_support] (default
    |E[P]|). A support function is not serializable, so a snapshot does not
    record it: restore with the [path_support] the index was built with, or
    a rebuilt length is judged by another support than the snapshotted
    ones. *)

val entries : ?run:Spm_engine.Run.t -> t -> l:int -> Diam_mine.entry list
(** Frequent length-l paths with embeddings; cached after the first call.
    [run] bounds the on-demand merge (and the lazy Stage-I rebuild of a
    restored index) — a cached length never consults it. *)

val request :
  ?config:Skinny_mine.Config.t ->
  t ->
  l:int ->
  delta:int ->
  Skinny_mine.result
(** Serve one (l, δ) mining request from the index: Stage II only, under
    [config] (default {!Skinny_mine.Config.default}). *)

val request_range :
  ?config:Skinny_mine.Config.t ->
  t ->
  l_min:int ->
  l_max:int ->
  delta:int ->
  Skinny_mine.result
(** All patterns with diameter length in [l_min, l_max] — the "between l1 and
    l2 without visiting shorter or longer diameters" use case of §1. *)

val build_seconds : t -> float
