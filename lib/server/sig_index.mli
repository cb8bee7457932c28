(** The query planner's index over a mined pattern set: label-signature and
    diameter-key lookup structures that prune candidates cheaply before the
    server falls back to {!Spm_pattern.Plan} matching.

    Two access paths:
    - {b label signature}: the sorted (label, count) multiset of a pattern's
      vertices, as an interned string key — equality lookups are O(1), and
      containment queries prune any pattern whose signature is not dominated
      by the target graph's label frequencies (a necessary condition for a
      subgraph-isomorphic image to exist).
    - {b diameter key}: the diameter length l of the mined pattern — the
      constraint the whole system is organized around, so by-length lookups
      are table reads. *)

type t

val build : Spm_core.Skinny_mine.mined list -> t
(** Index the mined set; the input order is remembered and every query
    returns patterns in that order (stable, deterministic responses). *)

val size : t -> int

val patterns : t -> Spm_core.Skinny_mine.mined list

val signature : Spm_pattern.Pattern.t -> string
(** The label-signature key itself: sorted ["label:count"] pairs. Exposed
    for tests and for client-side signature computation. *)

val label_counts : Spm_pattern.Pattern.t -> (int * int) array
(** The sorted (label, count) multiset behind {!signature} — the raw form
    the cluster router's shard summaries aggregate and compare. *)

val normalize_multiset : Spm_graph.Label.t list -> (int * int) array
(** A query's label multiset in the same sorted (label, count) form. *)

val signature_of_counts : (int * int) array -> string
(** Interned string key of a sorted (label, count) multiset. *)

val dominated : (int * int) array -> Spm_graph.Graph.t -> bool
(** Whether the target graph's label frequencies dominate the multiset — the
    necessary condition for any pattern with that signature to embed, shared
    by {!containment_candidates} and the router's shard pruning. *)

val lookup :
  ?min_support:int ->
  ?max_support:int ->
  ?length:int ->
  ?labels:Spm_graph.Label.t list ->
  t ->
  Spm_core.Skinny_mine.mined list
(** Patterns satisfying every given filter: support bounds, diameter length
    (served from the diameter-key table), and exact label multiset (served
    from the signature table; the list is a multiset, order-insensitive). *)

val containment_candidates :
  t -> Spm_graph.Graph.t -> Spm_core.Skinny_mine.mined list
(** Patterns that could embed in the given graph: vertex/edge counts no
    larger than the target's and label signature dominated by the target's
    label frequencies. Everything returned still needs a
    {!Spm_pattern.Plan.exists} check; everything pruned is definitely
    absent. *)

val contained_in :
  ?pool:Spm_engine.Pool.t ->
  t ->
  Spm_graph.Graph.t ->
  Spm_core.Skinny_mine.mined list
(** The mined patterns with at least one embedding in the given graph:
    {!containment_candidates} then a {!Spm_pattern.Plan.exists} check per
    survivor — each entry's plan is compiled once at {!build} time and
    shared read-only — fanned out on [pool] (default serial). *)
