(** Stage I — DiamMine (Algorithm 2): mine all frequent simple paths of an
    exact length l.

    The algorithm first builds frequent paths of lengths 1, 2, 4, …, 2^k
    (k = ⌊log₂ l⌋) by concatenating two paths of the previous power at a
    shared junction vertex, then obtains length-l paths (l not a power of 2)
    by merging two length-2^k paths overlapping in 2^{k+1} − l edges — the
    unique prefix/suffix decomposition the paper proves in §3.2.

    Support is the paper's |E[P]|: the number of distinct path *subgraphs*
    reading the label sequence. With [prune_intermediate = true] (the paper's
    behaviour) the σ filter is applied at every power-of-2 stage; since
    embedding-count support is not anti-monotone this is a growth semantics —
    a frequent length-l path all of whose aligned power-of-2 sub-paths are
    also frequent. [prune_intermediate = false] keeps every intermediate path
    and is exhaustively complete (used in tests against brute-force
    enumeration, and as an ablation). *)

type entry = {
  labels : Path_pattern.t;  (** canonical orientation *)
  embeddings : int array list;
      (** directed vertex sequences reading [labels], one per distinct
          subgraph *)
}

val entry_support : entry -> int

type stats = {
  per_power : (int * int * float) list;
      (** (length 2^i, #frequent paths of that length, seconds) *)
  merge_seconds : float;
  total_seconds : float;
}

type result = { entries : entry list; stats : stats }

val mine :
  ?prune_intermediate:bool ->
  ?support:(int array list -> int) ->
  ?run:Spm_engine.Run.t ->
  ?pool:Spm_engine.Pool.t ->
  Spm_graph.Graph.t ->
  l:int ->
  sigma:int ->
  result
(** All frequent simple paths of length exactly [l] (>= 1).

    [support] judges one pattern: it receives the embeddings of one
    canonical label sequence, deduped to one per subgraph, canonically
    oriented ({!Path_pattern.Emb.canonical_orientation} for a palindrome)
    and sorted. It must not depend on the orientation of an embedding and
    must never exceed the number of embeddings it is given: each step counts
    the directed paths of every candidate sequence first and stores only
    those whose count can reach [sigma]. The default is their count
    (|E[P]|); the transaction adaptation passes a distinct-transaction
    counter.

    [pool] (default {!Spm_engine.Pool.serial}) parallelizes each
    concatenation and merge step over the label sequences of the paths
    being extended, and each support check over the canonical sequences.
    Entries are returned in canonical order (sorted labels, sorted
    embeddings), so the result is bit-identical whatever the pool size.

    [run] is polled and ticked once per directed path examined: each path a
    concatenation or merge step extends counts once, however many
    extensions it has (and the pool polls between task claims). An
    interrupted run raises {!Spm_engine.Run.Cancelled} out of this function
    — Stage I has no useful partial result, so the caller decides what to
    salvage. The level tracks the current power-of-2 length. *)

(** The reusable power-of-2 table, for serving many values of l from one
    precomputation (the direct-mining index of Figure 2). *)
module Powers : sig
  type t

  val build :
    ?prune_intermediate:bool ->
    ?support:(int array list -> int) ->
    ?run:Spm_engine.Run.t ->
    ?pool:Spm_engine.Pool.t ->
    Spm_graph.Graph.t ->
    sigma:int ->
    up_to:int ->
    t
  (** Frequent paths of lengths 1, 2, 4, …, up to the largest power of 2 that
      is <= [up_to] (or, if [up_to] < 1, nothing). [support], [pool] and
      [run] act as in {!mine}. *)

  val max_power : t -> int
  (** Largest power length materialized. *)

  val paths_of_length :
    ?run:Spm_engine.Run.t ->
    ?pool:Spm_engine.Pool.t -> t -> l:int -> sigma:int -> entry list
  (** Frequent paths of length exactly [l] ([l] <= 2 * max_power is required
      unless [l] is itself a materialized power). *)
end
