(** Pattern identity up to isomorphism.

    {!key} is a canonical string, built on {!Dfs_code.min_code} for
    connected patterns with edges; isolated vertices and disconnected
    patterns are handled by per-component keying. Two patterns are
    isomorphic iff their keys are equal.

    {!iso} and {!Set} compute no DFS code (DESIGN.md §22). They compare an
    isomorphism invariant first: label-and-degree colours, refined over
    neighbour multisets for a few rounds, then hashed. Patterns whose
    invariants differ are not isomorphic. Patterns whose invariants agree go
    to an exact backtracking test that checks labels and edges itself, so
    colours only prune and no verdict rests on equal hashes. *)

val key : Pattern.t -> string

val iso : Pattern.t -> Pattern.t -> bool
(** Isomorphism test: sizes, then invariants, then the exact test. Agrees
    with [String.equal (key p) (key q)]. *)

module Set : sig
  (** A set of patterns up to isomorphism. Members are bucketed by invariant
      and stored packed (labels, colours and adjacency in one int array); no
      member keeps its pattern. The exact test runs only against members of
      the same bucket. *)

  type t

  val create : unit -> t

  val add : t -> Pattern.t -> bool
  (** [true] if the pattern was not already present (up to isomorphism). *)

  val mem : t -> Pattern.t -> bool

  val cardinal : t -> int
end
