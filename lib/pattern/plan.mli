(** Pattern-aware matching plans (Peregrine-style).

    A plan compiles a connected pattern once into everything the matcher
    needs per candidate vertex: a static matching order
    (rarest-(label,degree)-first with connectivity maintained), the
    already-placed pattern neighbors to check adjacency against, and
    symmetry-breaking ordering constraints derived from the pattern's
    automorphism group so that each embedding {e subgraph} is enumerated
    exactly once — no distinct-edge-set dedup hashing after the fact.

    The constraint derivation is the standard stabilizer chain: while the
    remaining automorphism group is nontrivial, pick the smallest vertex
    [v] in a nontrivial orbit, emit [m(v) < m(w)] for every other [w] in
    [v]'s orbit, and recurse on the stabilizer of [v]. Exactly one mapping
    per automorphism-equivalence class satisfies all constraints, and for
    a connected pattern two mappings have the same image subgraph iff they
    differ by an automorphism — so constrained enumeration visits each
    image once and the full mapping set is recovered by composing each
    representative with every automorphism ({!iter_all}).

    The executor has three modes, mirroring the call sites:
    - {!enumerate} / {!count} — all embeddings (one per image subgraph);
    - {!count_up_to} — early-exit threshold counting for
      [Support.is_frequent_*] where only sigma matters;
    - {!exists_from} — anchored existence, rooted at the anchored vertex
      (symmetry constraints are disabled there: a constrained
      representative need not place the anchor on the anchored target).

    Plans are immutable after {!compile} and safe to share across pool
    domains. *)

type t

val compile : ?freq:(Spm_graph.Label.t -> int) -> Pattern.t -> t
(** Compile a plan. [freq] ranks labels by rarity in the intended target
    (e.g. [Graph.label_freq target]); it biases the matching order only —
    results are identical for any [freq].
    @raise Invalid_argument if the pattern is empty or disconnected. *)

val pattern : t -> Pattern.t
(** The pattern the plan was compiled from (same vertex numbering). *)

val order : t -> int array
(** The matching order: position in the search -> pattern vertex. *)

val constraints : t -> (int * int) list
(** The symmetry-breaking constraints as [(u, w)] pairs meaning
    [m(u) < m(w)], in derivation order. Empty iff the automorphism group
    is trivial. *)

val aut_count : t -> int
(** |Aut(P)| — the number of label-preserving automorphisms (≥ 1). *)

val automorphisms : t -> int array array
(** The full automorphism group, identity included. Do not mutate. *)

val automorphism_count : Pattern.t -> int
(** |Aut(P)| without compiling a full plan (no connectivity requirement) —
    the divisor that turns a complete mapping-list length into a distinct
    embedding-subgraph count. *)

val enumerate :
  ?run:Spm_engine.Run.t ->
  ?nodes:int ref ->
  t ->
  target:Spm_graph.Graph.t ->
  (int array -> unit) ->
  unit
(** Call [f] on exactly one mapping per embedding subgraph (the unique
    symmetry-broken representative). The array is reused between calls —
    copy if retained. [run] is polled at vertex-extension granularity;
    [nodes] counts accepted vertex placements (search-tree nodes). *)

val iter_all :
  ?run:Spm_engine.Run.t ->
  t ->
  target:Spm_graph.Graph.t ->
  (int array -> unit) ->
  unit
(** Every injective label/edge-preserving mapping: each enumerated
    representative composed with each automorphism. The array is reused
    between calls — copy if retained. *)

val all_mappings :
  ?run:Spm_engine.Run.t -> t -> target:Spm_graph.Graph.t -> int array list
(** {!iter_all}, collected (fresh arrays). *)

val count :
  ?run:Spm_engine.Run.t ->
  ?nodes:int ref ->
  t ->
  target:Spm_graph.Graph.t ->
  int
(** Number of distinct embedding subgraphs — |E[P]| of Definition 8. *)

val count_up_to :
  ?run:Spm_engine.Run.t ->
  ?nodes:int ref ->
  t ->
  target:Spm_graph.Graph.t ->
  int ->
  int
(** [count], stopping as soon as [k] embeddings are found (the result is
    [min k count]; for [k <= 0] the search is skipped entirely). *)

val count_mappings :
  ?run:Spm_engine.Run.t -> ?limit:int -> t -> target:Spm_graph.Graph.t -> int
(** Number of mappings ([count * aut_count]), stopping at [limit] if
    given (then the result is [min limit mappings]). *)

val exists : ?run:Spm_engine.Run.t -> t -> target:Spm_graph.Graph.t -> bool
(** Early-exits at the first embedding. *)

val exists_from :
  ?run:Spm_engine.Run.t ->
  t ->
  target:Spm_graph.Graph.t ->
  anchor:int * int ->
  bool
(** Anchored existence: is there a mapping with pattern vertex
    [fst anchor] on target vertex [snd anchor]? Runs an anchored schedule
    (BFS order rooted at the anchor, no symmetry constraints). *)

val iter_anchored :
  ?run:Spm_engine.Run.t ->
  t ->
  target:Spm_graph.Graph.t ->
  anchor:int * int ->
  (int array -> unit) ->
  unit
(** All mappings with the anchor pinned (same schedule as
    {!exists_from}). The array is reused between calls. *)
