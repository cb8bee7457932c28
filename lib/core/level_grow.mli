(** Stage II — LevelGrow (Algorithm 3): grow a canonical diameter into all
    l-long δ-skinny patterns that keep it canonical.

    Vertices [0..l] of every grown pattern are the diameter (head 0, tail l);
    twig vertices take ids beyond [l]. Extensions are leaf additions (a twig
    on any vertex whose level leaves room under δ) and closing edges; every
    extension must pass Constraints I–III ({!Constraints.check}) and the σ
    frequency test on distinct embedding subgraphs. Patterns are
    deduplicated up to isomorphism, which also provides the unique-generation
    guarantee: [decided], a per-call {!Spm_pattern.Canon.Set}, holds the
    diameter and every admissible child judged so far (accepted or
    infrequent), packed and bucketed by an isomorphism invariant. No minimal
    DFS code is computed (DESIGN.md §22).

    Decisions are made on the pattern before embedding work is paid for
    (DESIGN.md §20). Enumeration keeps only a mapping count and a
    parent-coverage count per extension. In [Exact] mode every leaf is
    decided by a per-host {!Constraints.leaf_verdict} before any child
    exists; closing edges, and every extension in [Naive] and [Paper] mode,
    are checked on the built child. The default support is the mapping
    count over |Aut| and needs no list, so a child's mapping list is built
    only once the child is admissible, new and frequent (a custom [support]
    gets the list once the child is admissible and new). *)

type mined = {
  pattern : Spm_pattern.Pattern.t;
  support : int;  (** |E[P]|: distinct embedding subgraphs *)
  levels : int array;  (** per-vertex level (Definition 5) *)
  diameter_labels : Path_pattern.t;
}

type stats = {
  extensions_tried : int;
      (** extension attempts: one per descriptor a state tries, whatever
          decided it (a leaf verdict, the check on the built child, the
          [decided] set or support). In closed growth a state with no
          applicable support-preserving extension tries its universal
          descriptors twice, once eagerly and once when it branches, and
          both attempts count. *)
  constraint_rejected : int;
      (** attempts rejected by the constraint, on the pattern or on the
          built child *)
  infrequent : int;
      (** new patterns whose support is below σ; each isomorphism class
          counts once *)
  emitted : int;  (** patterns returned *)
  interrupted : bool;
      (** the run was cancelled or timed out mid-closure; the mined list is
          the partial prefix emitted before the interruption *)
  seconds : float;
}

val grow :
  ?mode:Constraints.mode ->
  ?family:Constraints.family ->
  ?closed_growth:bool ->
  ?support:(Spm_pattern.Pattern.t -> int array list -> int) ->
  ?run:Spm_engine.Run.t ->
  data:Spm_graph.Graph.t ->
  sigma:int ->
  delta:int ->
  entry:Diam_mine.entry ->
  unit ->
  mined list * stats
(** All patterns grown from one canonical diameter (the diameter itself is
    the first element — Observation 1's minimal pattern). [mode] defaults to
    [Constraints.Exact]; [support] maps (pattern, mappings) to a support
    value, by default the number of distinct embedding subgraphs.

    [family] (default [Constraints.Skinny]) selects the admissibility check
    gating each extension. With [Constraints.Neighborhood], [entry] is a
    single labeled center (a length-0 path, so [delta] carries the radius r
    and the per-vertex levels are exact distances to the center); the bare
    center itself is a growth state, not a result — every reported pattern
    has at least one edge.
    Unique generation: instead of the paper's Panchor extension-order
    discipline (which we found subtly lossy — constraint verdicts on
    intermediate patterns depend on edge order, and a twig's level can drop
    when a later closing edge arrives), growth is a memoized closure over
    single-edge extensions with *true* (distance-to-diameter) levels: each
    distinct pattern is constructed, checked and counted exactly once, so
    the cost stays polynomial in the number of distinct patterns and no
    reachable pattern is lost. See EXPERIMENTS.md for the analysis.

    [closed_growth] (default false) switches to closed-pattern semantics:
    a support-preserving ("universal") extension is applied eagerly without
    emitting or branching, so only patterns with no support-preserving
    extension are reported. This collapses the twig powerset — a cluster
    whose diameter has k always-co-occurring twigs yields one closed pattern
    instead of 2^k — and is how the paper's experiments remain sub-second on
    40-vertex injected patterns despite Theorem 4's complete-set claim.

    [run] (default a fresh unbounded context) is polled
    ({!Spm_engine.Run.check}) once per state popped and once per embedding
    scanned during candidate enumeration. It is ticked once per extension
    attempt, so its [candidates] counter advances with [extensions_tried];
    [set_level] records each popped state's edge count, and [emit] counts
    emissions.
    When it is interrupted, [grow] returns the patterns emitted so far with
    [interrupted = true] instead of raising — the closure's emission order
    is deterministic, so the partial list is a prefix of the full output.
    The run's emission budget replaces the old [?max_patterns]: a fork with
    [~budget:n] makes [grow] stop exploring after its n-th emission and
    finish with [interrupted = false] (a budget is an output cap, not an
    interruption). *)
