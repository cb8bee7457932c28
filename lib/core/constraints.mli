(** Canonical-diameter maintenance — Loop Invariant 1 via Constraints I–III
    (§3.3–3.4, Lemma 1, Theorems 1–3).

    The grown pattern always has its canonical diameter on vertices [0..l]
    (head 0, tail l). An edge extension is admissible iff the canonical
    diameter is preserved. Three strategies:

    - [Naive]: recompute the canonical diameter of the extended pattern and
      compare (the "highly inefficient" baseline of §3.3, kept as ground
      truth and for the ablation benchmark).
    - [Paper]: the paper's local checks — Constraint I/II on the D_H/D_T
      indices, Constraint III verified only when Theorem 3's trigger fires.
    - [Exact]: the paper's local checks for I/II hardened with provably
      exact triggers for III (a per-host {!leaf_verdict} for leaf
      extensions; a full verification for closing edges, which are rare).
      This is the default: it never reports a pattern under a diameter that
      is not canonical.

    All three agree on every instance we have property-tested; [Paper]'s
    Theorem-3 trigger restricts new diameters to end at the head or tail,
    which its Theorem 2 justifies under the growth discipline. *)

type mode = Naive | Paper | Exact

type extension =
  | New_leaf of { host : int }
      (** fresh vertex (taking the next id) attached to [host] *)
  | Close of int * int  (** new edge between existing vertices *)

val check :
  mode:mode ->
  pattern':Spm_pattern.Pattern.t ->
  idx:Distance_index.t ->
  idx':Distance_index.t ->
  l:int ->
  extension ->
  bool
(** [pattern'] is the extended pattern; [idx]/[idx'] the distance indices
    before/after the extension. True iff the path on vertices [0..l] is still
    the canonical diameter of [pattern'], given that it was the canonical
    diameter before the extension. *)

val check_naive : Spm_pattern.Pattern.t -> l:int -> bool
(** Ground truth: the canonical diameter of the pattern is exactly the
    identity path [0..l]. *)

(** {1 Per-host leaf verdicts}

    A pendant leaf shortens no path between existing vertices, so whether a
    leaf on [host] keeps the extension admissible depends only on the parent
    pattern, the host and the leaf's label. A verdict decides it for every
    label at once, before any child pattern exists. [Exact] mode's leaf
    checks ({!check}, {!check_neighborhood}) are these verdicts, and
    [Level_grow] applies them to descriptors before it builds anything. *)

type leaf_verdict

val skinny_leaf :
  pattern:Spm_pattern.Pattern.t ->
  idx:Distance_index.t ->
  l:int ->
  host:int ->
  leaf_verdict
(** The skinny family's verdict for a leaf on [host], for a [pattern] whose
    canonical diameter is the identity path [0..l]. Constraints I/II use the
    host's D_H / D_T; the diameter bound uses its eccentricity e. When
    1 + e = l, Constraint III compares the label against two lexicographic
    minima over the host's geodesics to the vertices at distance e (one read
    outward from the host, one read inward to it). O(|V| + |E|). *)

val neighborhood_leaf :
  idx:Distance_index.t -> r:int -> host:int -> leaf_verdict
(** The r-neighborhood family's verdict: [idx] rooted at the center, and a
    leaf is admissible iff its host lies within distance [r - 1]. *)

val admits : leaf_verdict -> Spm_graph.Label.t -> bool
(** Whether a leaf with this label is admissible. O(1). *)

(** {1 Constraint families}

    The growth loop is shared between two qualified constraint families; the
    family selects which admissibility check gates each extension. *)

type family =
  | Skinny  (** l-long δ-skinny (Definition 7) — the paper's constraint. *)
  | Neighborhood of { center : Spm_graph.Label.t option }
      (** r-neighborhood (Han & Wen): every vertex within distance r of a
          labeled center. [center] restricts Stage-I seeds to one label;
          [None] seeds every label present in the data graph. *)

val family_name : family -> string
(** ["skinny"] or ["neighborhood"] — the CLI / protocol spelling. *)

val check_neighborhood :
  mode:mode ->
  pattern':Spm_pattern.Pattern.t ->
  idx':Distance_index.t ->
  r:int ->
  extension ->
  bool
(** Admissibility for the r-neighborhood family. The center is pattern
    vertex 0 and the distance index is rooted there (head = tail = 0), so
    [Distance_index.dh] is exact distance-to-center: a new leaf is admissible
    iff it lands within radius [r]; a closing edge only shrinks distances and
    is always admissible. [Naive] recomputes the eccentricity of vertex 0
    from scratch (the ground-truth ablation, like {!check_naive}). *)

val neighborhood_target :
  ?center:Spm_graph.Label.t -> Spm_pattern.Pattern.t -> r:int -> bool
(** The r-neighborhood constraint predicate itself: the pattern has at least
    one edge, is connected, and some vertex (of label [center] when given)
    has eccentricity at most [r]. Usable with {!Framework} checkers and
    enumerate-and-check baselines. *)
