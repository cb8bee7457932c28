(** The persistent pattern store: a versioned, checksummed binary format for
    graphs, mined pattern sets, and Stage-I index snapshots, so mining work
    survives the process that produced it.

    File layout: an 8-byte magic ["SPMSTORE"], a format-version varint, a
    kind varint (pattern store / index snapshot), then tagged sections each
    carrying its own CRC-32 ({!Codec.W.section}). Readers reject bad magic,
    unknown versions, and checksum mismatches with {!Codec.Corrupt}.

    Two graph layouts coexist. {e Legacy} (version 1) carries the data graph
    as a varint-encoded edge list inside a framed 'G' section. {e G2}
    (version 2) instead appends a raw, 8-byte-aligned block of fixed-width
    64-bit little-endian words whose layout is bit-compatible with the
    in-memory CSR arrays, plus a 24-byte trailer locating it — so
    {!map_graph} / {!load_mapped} can [Unix.map_file] the payload and serve
    it with zero per-element copying. Version-1 files remain fully readable
    and re-encode byte-identically.

    Encoding is deterministic ({!Codec}): [encode (decode (encode s))] is
    byte-identical to [encode s], so stores can be compared and cached by
    content. *)

val format_version : int
(** Highest store version this build writes and reads (readers accept
    [1..format_version]). *)

(** On-disk layout for the data graph of a pattern store. The format
    travels with the store value, so re-saving (journal persistence, server
    restarts) preserves whichever layout the file already had. *)
type graph_format = Legacy | G2

(** {1 Value codecs}

    Composable writers/readers, shared with the wire protocol
    ({!Spm_server.Protocol}). *)

val write_graph : Codec.W.t -> Spm_graph.Graph.t -> unit

val read_graph : Codec.R.t -> Spm_graph.Graph.t
(** @raise Codec.Corrupt on malformed input. *)

val write_mined : Codec.W.t -> Spm_core.Skinny_mine.mined -> unit

val read_mined : Codec.R.t -> Spm_core.Skinny_mine.mined

val write_entry : Codec.W.t -> Spm_core.Diam_mine.entry -> unit

val read_entry : Codec.R.t -> Spm_core.Diam_mine.entry

val write_edit : Codec.W.t -> Spm_graph.Delta.edit -> unit

val read_edit : Codec.R.t -> Spm_graph.Delta.edit
(** @raise Codec.Corrupt on an unknown edit tag. *)

(** {1 Pattern stores} *)

(** A mined result set together with everything needed to serve queries
    against it: the data graph and the mining parameters. *)
type pattern_store = {
  graph : Spm_graph.Graph.t;
  l : int;
  delta : int;
  sigma : int;
  closed_growth : bool;
  family : Spm_core.Constraints.family;
      (** Which constraint family produced [patterns]. Serialized as a
          conditional 'C' section: skinny stores — the only kind older
          builds ever wrote — carry no 'C' section, decode as [Skinny], and
          re-encode byte-identically. For [Neighborhood], [l] is 0 and
          [delta] carries the radius r. *)
  complete : bool;
      (** [false] when the producing mine was cut short (deadline or
          cancellation): [patterns] is then a prefix of the full answer set.
          Files written before this flag existed decode as [complete = true]
          — those mines always ran to completion. *)
  patterns : Spm_core.Skinny_mine.mined list;
  base_version : int;
      (** {!Spm_graph.Delta} version [graph] and [patterns] were captured
          at (0 for stores that never served updates). *)
  journal : Spm_graph.Delta.edit list list;
      (** Mutation journal: one edit batch per committed graph version
          after [base_version], oldest first. A restarted server replays
          these through the incremental miner to reach version
          [base_version + length journal]. Pre-journal files decode with an
          empty journal and re-encode byte-identically. *)
  shard : (int * int) option;
      (** [(index, count)] when this store is one shard of a partitioned
          layout ({!Spm_cluster.Partition}): [patterns] is then the subset
          of the source store's patterns whose diameter-cluster key maps to
          [index] under [Spm_core.Path_pattern.shard_of ~shards:count],
          while [graph] stays the full data graph (updates and containment
          need it). [None] for ordinary stores; pre-shard files decode as
          [None] and re-encode byte-identically. *)
  graph_format : graph_format;
      (** Layout {!encode} / {!save} will use; set from the file version on
          decode. *)
}

val latest_version : pattern_store -> int
(** [base_version + List.length journal] — the version replay reaches. *)

val of_result :
  ?graph_format:graph_format ->
  ?family:Spm_core.Constraints.family ->
  graph:Spm_graph.Graph.t ->
  l:int ->
  delta:int ->
  sigma:int ->
  closed_growth:bool ->
  Spm_core.Skinny_mine.result ->
  pattern_store
(** [complete] is derived from the result's run status. New stores default
    to [G2]; pass [~graph_format:Legacy] to write version-1 files.
    [family] defaults to [Skinny]; pass the mining config's family so the
    store round-trips it (neighborhood stores write the 'C' section). *)

val of_graph : ?graph_format:graph_format -> Spm_graph.Graph.t -> pattern_store
(** A pattern-less store wrapping just a data graph (no mining parameters,
    empty pattern set) — the storage vehicle for out-of-core graphs that
    will be mined after loading. *)

val encode : pattern_store -> string

val decode : string -> pattern_store
(** @raise Codec.Corrupt on bad magic, unsupported version, wrong kind,
    missing section, or checksum mismatch. For G2 stores the full graph
    payload CRC is verified eagerly (this path copies every byte anyway). *)

val save : string -> pattern_store -> unit
(** Streams to [path ^ ".tmp"] then renames into place: peak memory is one
    framed section (or one 4 KiB payload chunk), a crash never corrupts the
    previous file, and rewriting a store that another process has mapped
    leaves that mapping intact (the old inode survives the rename). *)

val load : string -> pattern_store
(** Decodes a full in-memory copy (array-backed graph).
    @raise Codec.Corrupt as {!decode}; [Sys_error] on IO failure. *)

(** {1 Mapped loads}

    Zero-copy opens of G2 stores. Validation policy: the trailer, padding,
    G2 header (self-checksummed) and up to 16 {e sampled} payload pages —
    always including the first and last — are verified eagerly; the full
    payload CRC is deferred to {!verify_file}. A mapped graph's arrays live
    on file-backed pages, so the OS pages them in on first touch and may
    evict them under pressure; peak RSS is bounded by the pages actually
    touched. *)

val load_mapped : string -> pattern_store
(** Like {!load}, but the data graph's CSR arrays are [Bigarray] slices
    mapped directly from the file ([`Bigarray] backing). Sections (params,
    patterns, journal) are still decoded into memory — they are small.
    Version-1 files fall back to {!load} transparently.
    @raise Codec.Corrupt on any framing, header, or sampled-page mismatch;
    [Unix.Unix_error] on IO failure. *)

val map_graph : string -> Spm_graph.Graph.t
(** Just the mapped data graph of a G2 store file (decoded copy for
    version-1 files). Same validation as {!load_mapped}. *)

val verify_file : string -> unit
(** Full-strength offline check: section CRCs, G2 header, and the complete
    payload CRC (streamed, constant memory).
    @raise Codec.Corrupt on any mismatch. *)

val g2_checked_byte_ranges : string -> (int * int) list
(** [(pos, len)] ranges of an encoded G2 store that a mapped open is
    guaranteed to validate (sections, padding, G2 header, sampled pages,
    trailer) — corruption anywhere in these must be detected without
    reading the whole payload. Exposed for the byte-flip fuzzer. *)

(** {1 Diameter-index snapshots}

    Persist Stage I: every frequent-path entry list the index has
    materialized, so a restored index serves those lengths without
    re-mining. [prune_intermediate], [path_support] and [jobs] go to
    {!Spm_core.Diameter_index.of_snapshot}; a path support is not stored, so
    pass the one the index was built with. *)

val encode_index : Spm_core.Diameter_index.t -> string

val decode_index :
  ?prune_intermediate:bool ->
  ?path_support:(int array list -> int) ->
  ?jobs:int ->
  string ->
  Spm_core.Diameter_index.t

val save_index : string -> Spm_core.Diameter_index.t -> unit

val load_index :
  ?prune_intermediate:bool ->
  ?path_support:(int array list -> int) ->
  ?jobs:int ->
  string ->
  Spm_core.Diameter_index.t
