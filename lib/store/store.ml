module Graph = Spm_graph.Graph
module Storage = Spm_graph.Storage
module Skinny_mine = Spm_core.Skinny_mine
module Constraints = Spm_core.Constraints
module Diam_mine = Spm_core.Diam_mine
module Diameter_index = Spm_core.Diameter_index

let magic = "SPMSTORE"
let format_version = 2
let kind_patterns = 1
let kind_index = 2

type graph_format = Legacy | G2

let version_of_format = function Legacy -> 1 | G2 -> 2

let corrupt fmt = Printf.ksprintf (fun s -> raise (Codec.Corrupt s)) fmt

(* --- value codecs --- *)

let write_graph w g =
  let n = Graph.n g in
  Codec.W.uint w n;
  for v = 0 to n - 1 do
    Codec.W.uint w (Graph.label g v)
  done;
  Codec.W.uint w (Graph.m g);
  (* Emitted per vertex in (u ascending, v ascending with u < v) order —
     the same lexicographic sequence [Graph.edges] produces, so the byte
     stream stays canonical per graph (the basis of the byte-stability
     guarantee) without materializing the global edge list. *)
  for u = 0 to n - 1 do
    Array.iter
      (fun v ->
        if u < v then begin
          Codec.W.uint w u;
          Codec.W.uint w v
        end)
      (Graph.adj g u)
  done

let read_graph r =
  let n = Codec.R.uint r in
  if n > Codec.R.left r then
    raise (Codec.Corrupt (Printf.sprintf "graph vertex count %d exceeds input" n));
  let labels = Array.init n (fun _ -> Codec.R.uint r) in
  let m = Codec.R.uint r in
  let edges = List.init m (fun _ ->
      let u = Codec.R.uint r in
      let v = Codec.R.uint r in
      (u, v))
  in
  match Graph.Builder.of_edges ~labels edges with
  | g -> g
  | exception Invalid_argument msg ->
    raise (Codec.Corrupt ("invalid graph in store: " ^ msg))

let write_mined w (m : Skinny_mine.mined) =
  write_graph w m.pattern;
  Codec.W.uint w m.support;
  Codec.W.int_array w m.levels;
  Codec.W.int_array w m.diameter_labels

let read_mined r : Skinny_mine.mined =
  let pattern = read_graph r in
  let support = Codec.R.uint r in
  let levels = Codec.R.int_array r in
  let diameter_labels = Codec.R.int_array r in
  { pattern; support; levels; diameter_labels }

let write_entry w (e : Diam_mine.entry) =
  Codec.W.int_array w e.labels;
  Codec.W.list w Codec.W.int_array e.embeddings

let read_entry r : Diam_mine.entry =
  let labels = Codec.R.int_array r in
  let embeddings = Codec.R.list r Codec.R.int_array in
  { labels; embeddings }

let write_edit w (e : Spm_graph.Delta.edit) =
  match e with
  | Spm_graph.Delta.Add_vertex l ->
    Codec.W.byte w 0;
    Codec.W.uint w l
  | Spm_graph.Delta.Add_edge (u, v) ->
    Codec.W.byte w 1;
    Codec.W.uint w u;
    Codec.W.uint w v
  | Spm_graph.Delta.Remove_edge (u, v) ->
    Codec.W.byte w 2;
    Codec.W.uint w u;
    Codec.W.uint w v

let read_edit r : Spm_graph.Delta.edit =
  match Codec.R.byte r with
  | 0 -> Spm_graph.Delta.Add_vertex (Codec.R.uint r)
  | 1 ->
    let u = Codec.R.uint r in
    let v = Codec.R.uint r in
    Spm_graph.Delta.Add_edge (u, v)
  | 2 ->
    let u = Codec.R.uint r in
    let v = Codec.R.uint r in
    Spm_graph.Delta.Remove_edge (u, v)
  | t -> raise (Codec.Corrupt (Printf.sprintf "unknown edit tag %d" t))

(* --- G2: the fixed-width, mmap-compatible graph block ---

   Version-2 pattern stores carry the data graph in a raw tail block whose
   byte layout is bit-compatible with the in-memory CSR arrays: unsigned
   64-bit little-endian words, the eight index slices concatenated in
   canonical order ({!Storage.csr_fields}), 8-byte aligned in the file.
   A loader can therefore [Unix.map_file] the payload and serve queries with
   zero per-element copying.

   File layout of a version-2 store:

   {v
     magic "SPMSTORE" · varint version=2 · varint kind
     framed sections 'P' 'M' ['J']          (varint/CRC framing, as v1)
     zero padding to 8-byte alignment       (< 8 bytes)
     G2 block:
       "SPMCSRG2"                           8 bytes
       endian probe 0x0123456789ABCDEF      u64
       n, m, num_labels, lab_total          u64 each
       payload_bytes                        u64
       full_crc                             u64 (CRC-32 of payload)
       nsamples                             u64 (<= 16)
       nsamples x (page_index, page_crc)    u64 pairs
       header_crc                           u64 (CRC-32 of all bytes above)
       payload: labels[n] xadj[n+1] nbr[2m] lab_off[n+1]
                lab_keys[lab_total] lab_starts[lab_total]
                vl_off[num_labels+1] vl[n]  u64 LE words
     trailer: u64 sections_end · u64 g2_offset · "SPMG2TRL"
   v}

   Validation policy: decoding from a string verifies the full payload CRC
   eagerly (nothing is saved by laziness there). Mapping verifies the
   trailer, padding, G2 header (its own CRC) and the sampled page CRCs
   eagerly — O(1) pages regardless of graph size — and trusts the rest of
   the payload to {!verify_file}, which streams the full CRC on demand.
   The samples always include the first and last page, so truncation and
   header-adjacent damage cannot hide. *)

let g2_magic = "SPMCSRG2"
let g2_trailer_magic = "SPMG2TRL"
let g2_endian_probe = 0x0123456789ABCDEFL
let g2_page_size = 4096
let g2_max_samples = 16
let g2_trailer_bytes = 24

let write_u64 w n =
  for i = 0 to 7 do
    Codec.W.byte w ((n lsr (8 * i)) land 0xFF)
  done

(* Read a u64 LE word as a non-negative OCaml int; words with the top bit
   set do not fit in 63-bit ints and are rejected (they can only come from
   corruption — every writer emits ints). *)
let u64_at ~what s pos =
  if pos < 0 || pos + 8 > String.length s then
    corrupt "truncated %s at byte %d" what pos;
  let v = String.get_int64_le s pos in
  if Int64.compare v 0L < 0 then corrupt "%s word out of range" what;
  Int64.to_int v

let crc_int (c : int32) = Int32.to_int c land 0xFFFFFFFF

let csr_slices (c : Storage.csr) = List.map snd (Storage.csr_fields c)

let g2_payload_words c =
  List.fold_left (fun acc s -> acc + Storage.length s) 0 (csr_slices c)

(* Stream the payload as [g2_page_size]-byte chunks (the last may be short);
   chunk boundaries coincide with checksum pages. Two passes over this
   iterator — checksums, then emission — keep peak writer memory at one
   chunk regardless of graph size. *)
let g2_iter_chunks c f =
  let buf = Bytes.create g2_page_size in
  let fill = ref 0 in
  let flush () =
    if !fill > 0 then begin
      f (Bytes.sub_string buf 0 !fill);
      fill := 0
    end
  in
  let word n =
    Bytes.set_int64_le buf !fill (Int64.of_int n);
    fill := !fill + 8;
    if !fill = g2_page_size then flush ()
  in
  List.iter (Storage.iter word) (csr_slices c);
  flush ()

let g2_sample_pages num_pages =
  if num_pages <= g2_max_samples then List.init num_pages Fun.id
  else
    (* First and last page plus evenly spaced interior picks; strictly
       increasing because num_pages - 1 >= g2_max_samples - 1. *)
    List.init g2_max_samples (fun i ->
        i * (num_pages - 1) / (g2_max_samples - 1))

let write_g2 w g =
  let c = Graph.to_csr g in
  let payload_bytes = 8 * g2_payload_words c in
  let pages = ref [] in
  let full = ref Codec.crc32_seed in
  g2_iter_chunks c (fun chunk ->
      full := Codec.crc32_update !full chunk;
      pages := Codec.crc32 chunk :: !pages);
  let page_crcs = Array.of_list (List.rev !pages) in
  let samples = g2_sample_pages (Array.length page_crcs) in
  let h = Codec.W.create ~size:512 () in
  Codec.W.raw h g2_magic;
  write_u64 h (Int64.to_int g2_endian_probe);
  write_u64 h (Graph.n g);
  write_u64 h (Graph.m g);
  write_u64 h (Graph.num_labels g);
  write_u64 h (Storage.length c.Storage.lab_keys);
  write_u64 h payload_bytes;
  write_u64 h (crc_int (Codec.crc32_value !full));
  write_u64 h (List.length samples);
  List.iter
    (fun p ->
      write_u64 h p;
      write_u64 h (crc_int page_crcs.(p)))
    samples;
  let head = Codec.W.contents h in
  Codec.W.raw w head;
  write_u64 w (crc_int (Codec.crc32 head));
  g2_iter_chunks c (fun chunk -> Codec.W.raw w chunk)

type g2_header = {
  g2_n : int;
  g2_m : int;
  g2_nl : int;
  g2_lab_total : int;
  g2_payload_bytes : int;
  g2_full_crc : int;
  g2_samples : (int * int) list; (* (page index, CRC-32 as unsigned int) *)
  g2_header_bytes : int;
}

let g2_field_lens h =
  [
    h.g2_n;
    h.g2_n + 1;
    2 * h.g2_m;
    h.g2_n + 1;
    h.g2_lab_total;
    h.g2_lab_total;
    h.g2_nl + 1;
    h.g2_n;
  ]

let csr_of_slices = function
  | [ labels; xadj; nbr; lab_off; lab_keys; lab_starts; vl_off; vl ] ->
    { Storage.labels; xadj; nbr; lab_off; lab_keys; lab_starts; vl_off; vl }
  | _ -> assert false

(* Parse and CRC-validate a G2 header through an abstract [fetch pos len]
   (substring of a decoded string, or pread of a mapped file); positions are
   relative to the start of the G2 block. *)
let parse_g2_header fetch =
  let h1 = fetch 0 72 in
  if not (String.equal (String.sub h1 0 8) g2_magic) then
    corrupt "bad G2 magic";
  if String.get_int64_le h1 8 <> g2_endian_probe then
    corrupt "G2 endian probe mismatch (file is not little-endian)";
  let word = u64_at ~what:"G2 header" h1 in
  let g2_n = word 16 in
  let g2_m = word 24 in
  let g2_nl = word 32 in
  let g2_lab_total = word 40 in
  let g2_payload_bytes = word 48 in
  let g2_full_crc = word 56 in
  let ns = word 64 in
  if g2_full_crc > 0xFFFFFFFF then corrupt "G2 payload CRC word out of range";
  if ns > g2_max_samples then corrupt "G2 sample count %d out of range" ns;
  let h2 = fetch 72 ((16 * ns) + 8) in
  let g2_samples =
    List.init ns (fun i ->
        let page = u64_at ~what:"G2 sample page" h2 (16 * i) in
        let crc = u64_at ~what:"G2 sample CRC" h2 ((16 * i) + 8) in
        if crc > 0xFFFFFFFF then corrupt "G2 sample CRC word out of range";
        (page, crc))
  in
  let stored = u64_at ~what:"G2 header CRC" h2 (16 * ns) in
  let computed =
    Codec.crc32_value
      (Codec.crc32_update
         (Codec.crc32_update Codec.crc32_seed h1)
         ~pos:0 ~len:(16 * ns) h2)
  in
  if crc_int computed <> stored then corrupt "G2 header checksum mismatch";
  let h =
    {
      g2_n;
      g2_m;
      g2_nl;
      g2_lab_total;
      g2_payload_bytes;
      g2_full_crc;
      g2_samples;
      g2_header_bytes = 72 + (16 * ns) + 8;
    }
  in
  let words = List.fold_left ( + ) 0 (g2_field_lens h) in
  if g2_payload_bytes <> 8 * words then
    corrupt "G2 payload size disagrees with graph dimensions";
  List.iter
    (fun (page, _) ->
      if page * g2_page_size >= g2_payload_bytes && g2_payload_bytes > 0 then
        corrupt "G2 sample page %d out of range" page;
      if g2_payload_bytes = 0 then corrupt "G2 sample page in empty payload")
    g2_samples;
  h

let write_trailer w ~sections_end ~g2_offset =
  write_u64 w sections_end;
  write_u64 w g2_offset;
  Codec.W.raw w g2_trailer_magic

(* [trailer] is the last 24 bytes of the file; offsets are validated against
   [file_len] (alignment, ordering, bounded padding). The caller still checks
   the padding bytes themselves are zero. *)
let parse_trailer ~file_len trailer =
  if not (String.equal (String.sub trailer 16 8) g2_trailer_magic) then
    corrupt "bad G2 trailer magic";
  let sections_end = u64_at ~what:"G2 trailer" trailer 0 in
  let g2_offset = u64_at ~what:"G2 trailer" trailer 8 in
  if sections_end > g2_offset || g2_offset > file_len - g2_trailer_bytes then
    corrupt "G2 trailer offsets out of bounds";
  if g2_offset land 7 <> 0 then corrupt "G2 block misaligned";
  if g2_offset - sections_end >= 8 then corrupt "oversized G2 padding";
  (sections_end, g2_offset)

(* Decode a G2 block out of an in-memory string, copying the payload into
   fresh [int array]s. The full payload CRC is verified eagerly — this path
   touches every byte anyway. *)
let read_g2_of_string s ~g2_offset ~g2_end =
  let fetch pos len =
    if g2_offset + pos + len > g2_end then corrupt "truncated G2 header"
    else String.sub s (g2_offset + pos) len
  in
  let h = parse_g2_header fetch in
  let payload_off = g2_offset + h.g2_header_bytes in
  if payload_off + h.g2_payload_bytes <> g2_end then
    corrupt "G2 payload bounds mismatch";
  if crc_int (Codec.crc32 ~pos:payload_off ~len:h.g2_payload_bytes s)
     <> h.g2_full_crc
  then corrupt "G2 payload checksum mismatch";
  let off = ref payload_off in
  let read_words k =
    let a = Array.init k (fun i -> u64_at ~what:"G2 payload" s (!off + (8 * i))) in
    off := !off + (8 * k);
    Storage.of_array a
  in
  let csr = csr_of_slices (List.map read_words (g2_field_lens h)) in
  match Graph.of_csr csr with
  | g -> g
  | exception Invalid_argument msg -> corrupt "invalid G2 graph: %s" msg

(* --- file framing --- *)

let header w ~version ~kind =
  Codec.W.raw w magic;
  Codec.W.uint w version;
  Codec.W.uint w kind

let open_reader s ~kind =
  let r = Codec.R.of_string s in
  Codec.R.expect_magic r magic;
  let v = Codec.R.uint r in
  if v < 1 || v > format_version then
    raise (Codec.Corrupt (Printf.sprintf "unsupported store version %d (this build reads 1..%d)" v format_version));
  let k = Codec.R.uint r in
  if k <> kind then
    raise (Codec.Corrupt (Printf.sprintf "wrong store kind %d (expected %d)" k kind));
  (r, v)

let sections r =
  let rec go acc =
    match Codec.R.section r with
    | None -> List.rev acc
    | Some (tag, payload) -> go ((tag, payload) :: acc)
  in
  go []

let find_section tag secs =
  match List.assoc_opt tag secs with
  | Some payload -> payload
  | None ->
    raise (Codec.Corrupt (Printf.sprintf "missing section %C" tag))

(* --- pattern stores --- *)

type pattern_store = {
  graph : Graph.t;
  l : int;
  delta : int;
  sigma : int;
  closed_growth : bool;
  family : Constraints.family;
  complete : bool;
  patterns : Skinny_mine.mined list;
  base_version : int;
  journal : Spm_graph.Delta.edit list list;
  shard : (int * int) option;
  graph_format : graph_format;
}

let of_result ?(graph_format = G2) ?(family = Constraints.Skinny) ~graph ~l
    ~delta ~sigma ~closed_growth (r : Skinny_mine.result) =
  {
    graph;
    l;
    delta;
    sigma;
    closed_growth;
    family;
    complete = r.stats.Skinny_mine.status = Spm_engine.Run.Ok;
    patterns = r.patterns;
    base_version = 0;
    journal = [];
    shard = None;
    graph_format;
  }

let of_graph ?(graph_format = G2) graph =
  {
    graph;
    l = 0;
    delta = 0;
    sigma = 0;
    closed_growth = false;
    family = Constraints.Skinny;
    complete = true;
    patterns = [];
    base_version = 0;
    journal = [];
    shard = None;
    graph_format;
  }

let latest_version s = s.base_version + List.length s.journal

let emit_store w s =
  header w ~version:(version_of_format s.graph_format) ~kind:kind_patterns;
  (* v1 carries the graph as a framed section; v2 moves it to the mmap-able
     G2 tail block and writes no 'G' section at all. *)
  (match s.graph_format with
  | Legacy -> Codec.W.section w ~tag:'G' (fun w -> write_graph w s.graph)
  | G2 -> ());
  Codec.W.section w ~tag:'P' (fun w ->
      Codec.W.uint w s.l;
      Codec.W.uint w s.delta;
      Codec.W.uint w s.sigma;
      Codec.W.bool w s.closed_growth;
      (* Trailing completeness flag: readers of files written before it
         existed treat its absence as [true] (those mines always ran to
         completion), which keeps the format version stable. *)
      Codec.W.bool w s.complete);
  Codec.W.section w ~tag:'M' (fun w -> Codec.W.list w write_mined s.patterns);
  (* Mutation journal. Written only when non-trivial so every pre-journal
     store re-encodes to its original bytes (same back-compat contract as
     the trailing completeness flag). *)
  if s.base_version <> 0 || s.journal <> [] then
    Codec.W.section w ~tag:'J' (fun w ->
        Codec.W.uint w s.base_version;
        Codec.W.list w (fun w batch -> Codec.W.list w write_edit batch)
          s.journal);
  (* Shard identity of a partitioned store (index, total). Same conditional
     emission contract as 'J': unsharded stores keep their original bytes. *)
  (match s.shard with
  | None -> ()
  | Some (index, count) ->
    Codec.W.section w ~tag:'H' (fun w ->
        Codec.W.uint w index;
        Codec.W.uint w count));
  (* Constraint family. Conditional like 'J'/'H': skinny stores — the only
     kind older builds ever wrote — carry no 'C' section and keep their
     original bytes. *)
  (match s.family with
  | Constraints.Skinny -> ()
  | Constraints.Neighborhood { center } ->
    Codec.W.section w ~tag:'C' (fun w ->
        Codec.W.byte w 1;
        match center with
        | None -> Codec.W.bool w false
        | Some c ->
          Codec.W.bool w true;
          Codec.W.uint w c));
  match s.graph_format with
  | Legacy -> ()
  | G2 ->
    let sections_end = Codec.W.length w in
    let pad = (8 - (sections_end land 7)) land 7 in
    for _ = 1 to pad do
      Codec.W.byte w 0
    done;
    let g2_offset = sections_end + pad in
    write_g2 w s.graph;
    write_trailer w ~sections_end ~g2_offset

let encode s =
  let w = Codec.W.create ~size:4096 () in
  emit_store w s;
  Codec.W.contents w

(* Section grammar of a pattern store: the canonical emission order with no
   strangers and no duplicates. A section's tag byte sits outside its CRC,
   so without this check a single tag-byte flip could silently drop a
   conditional section — e.g. demote a neighborhood store ('C') to a skinny
   one — instead of raising [Corrupt]. *)
let check_pattern_sections ~graph_format secs =
  let canonical =
    (match graph_format with Legacy -> [ 'G' ] | G2 -> [])
    @ [ 'P'; 'M'; 'J'; 'H'; 'C' ]
  in
  let tags = List.map fst secs in
  let rec subsequence canon tags =
    match (canon, tags) with
    | _, [] -> true
    | [], _ :: _ -> false
    | c :: canon', t :: tags' ->
      if Char.equal c t then subsequence canon' tags'
      else subsequence canon' tags
  in
  if not (subsequence canonical tags) then
    corrupt "unexpected or out-of-order store section"

let store_of_sections ~graph ~graph_format secs =
  check_pattern_sections ~graph_format secs;
  let p = find_section 'P' secs in
  let l = Codec.R.uint p in
  let delta = Codec.R.uint p in
  let sigma = Codec.R.uint p in
  let closed_growth = Codec.R.bool p in
  let complete = if Codec.R.left p > 0 then Codec.R.bool p else true in
  let patterns = Codec.R.list (find_section 'M' secs) read_mined in
  let base_version, journal =
    match List.assoc_opt 'J' secs with
    | None -> (0, [])
    | Some j ->
      let base_version = Codec.R.uint j in
      let journal = Codec.R.list j (fun r -> Codec.R.list r read_edit) in
      (base_version, journal)
  in
  let shard =
    match List.assoc_opt 'H' secs with
    | None -> None
    | Some h ->
      let index = Codec.R.uint h in
      let count = Codec.R.uint h in
      if count <= 0 || index < 0 || index >= count then
        raise
          (Codec.Corrupt
             (Printf.sprintf "invalid shard identity %d of %d" index count));
      Some (index, count)
  in
  let family =
    match List.assoc_opt 'C' secs with
    | None -> Constraints.Skinny
    | Some c -> (
      match Codec.R.byte c with
      | 1 ->
        let center =
          if Codec.R.bool c then Some (Codec.R.uint c) else None
        in
        Constraints.Neighborhood { center }
      | t ->
        raise
          (Codec.Corrupt (Printf.sprintf "unknown constraint family tag %d" t))
      )
  in
  {
    graph;
    l;
    delta;
    sigma;
    closed_growth;
    family;
    complete;
    patterns;
    base_version;
    journal;
    shard;
    graph_format;
  }

let decode s =
  let r, v = open_reader s ~kind:kind_patterns in
  if v = 1 then
    let secs = sections r in
    let graph = read_graph (find_section 'G' secs) in
    store_of_sections ~graph ~graph_format:Legacy secs
  else begin
    let file_len = String.length s in
    if file_len < g2_trailer_bytes then corrupt "missing G2 trailer";
    let sections_end, g2_offset =
      parse_trailer ~file_len
        (String.sub s (file_len - g2_trailer_bytes) g2_trailer_bytes)
    in
    for i = sections_end to g2_offset - 1 do
      if s.[i] <> '\000' then corrupt "nonzero G2 padding byte at %d" i
    done;
    let hpos = Codec.R.pos r in
    if sections_end < hpos then corrupt "G2 sections end inside file header";
    let secs =
      sections (Codec.R.of_string ~pos:hpos ~len:(sections_end - hpos) s)
    in
    let graph =
      read_g2_of_string s ~g2_offset ~g2_end:(file_len - g2_trailer_bytes)
    in
    store_of_sections ~graph ~graph_format:G2 secs
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      In_channel.input_all ic)

(* Stream an emitter to [path] via a temp file + atomic rename: peak memory
   is one section / one payload chunk, a crash never clobbers the previous
   file, and — load-bearing for the mmap path — rewriting a store that some
   process has mapped replaces the directory entry while the mapped inode
   lives on untouched. *)
let save_via path emit =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match emit (Codec.W.to_channel oc) with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

let save path s = save_via path (fun w -> emit_store w s)
let load path = decode (read_file path)

(* --- mapped loads --- *)

let pread fd ~pos ~len ~what =
  if len < 0 then corrupt "truncated store (%s)" what;
  let buf = Bytes.create len in
  let got =
    try
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      let rec go off =
        if off = len then len
        else
          match Unix.read fd buf off (len - off) with
          | 0 -> off
          | k -> go (off + k)
      in
      go 0
    with Unix.Unix_error (e, _, _) ->
      corrupt "read error (%s): %s" what (Unix.error_message e)
  in
  if got < len then corrupt "truncated store (%s)" what;
  Bytes.unsafe_to_string buf

type g2_file = {
  gf_prefix : string; (* bytes [0, sections_end): header + framed sections *)
  gf_header : g2_header;
  gf_payload_off : int;
}

(* Validate the v2 framing of an open store file without touching the bulk
   payload: trailer, padding, G2 header (own CRC), dimension arithmetic and
   the sampled page CRCs. Returns [None] for a version-1 file (caller falls
   back to a full decode). *)
let read_g2_meta fd ~file_len =
  let head = pread fd ~pos:0 ~len:(min file_len 32) ~what:"file header" in
  let r = Codec.R.of_string head in
  Codec.R.expect_magic r magic;
  let v = Codec.R.uint r in
  if v < 1 || v > format_version then
    corrupt "unsupported store version %d (this build reads 1..%d)" v
      format_version;
  if v = 1 then None
  else begin
    let k = Codec.R.uint r in
    if k <> kind_patterns then
      corrupt "wrong store kind %d (expected %d)" k kind_patterns;
    if file_len < g2_trailer_bytes then corrupt "missing G2 trailer";
    let sections_end, g2_offset =
      parse_trailer ~file_len
        (pread fd ~pos:(file_len - g2_trailer_bytes) ~len:g2_trailer_bytes
           ~what:"G2 trailer")
    in
    if sections_end < Codec.R.pos r then
      corrupt "G2 sections end inside file header";
    let padding =
      pread fd ~pos:sections_end ~len:(g2_offset - sections_end)
        ~what:"G2 padding"
    in
    String.iter
      (fun c -> if c <> '\000' then corrupt "nonzero G2 padding byte")
      padding;
    let g2_end = file_len - g2_trailer_bytes in
    let fetch pos len =
      if g2_offset + pos + len > g2_end then corrupt "truncated G2 header"
      else pread fd ~pos:(g2_offset + pos) ~len ~what:"G2 header"
    in
    let h = parse_g2_header fetch in
    let payload_off = g2_offset + h.g2_header_bytes in
    if payload_off + h.g2_payload_bytes <> g2_end then
      corrupt "G2 payload bounds mismatch";
    List.iter
      (fun (page, crc) ->
        let start = page * g2_page_size in
        let len = min g2_page_size (h.g2_payload_bytes - start) in
        let chunk =
          pread fd ~pos:(payload_off + start) ~len ~what:"G2 sampled page"
        in
        if crc_int (Codec.crc32 chunk) <> crc then
          corrupt "G2 sampled page %d checksum mismatch" page)
      h.g2_samples;
    let gf_prefix = pread fd ~pos:0 ~len:sections_end ~what:"store sections" in
    Some { gf_prefix; gf_header = h; gf_payload_off = payload_off }
  end

let map_payload fd gf =
  let h = gf.gf_header in
  let words = h.g2_payload_bytes / 8 in
  let arr =
    try
      Bigarray.array1_of_genarray
        (Unix.map_file fd ~pos:(Int64.of_int gf.gf_payload_off) Bigarray.int
           Bigarray.c_layout false [| words |])
    with
    | Unix.Unix_error (e, _, _) -> corrupt "mmap failed: %s" (Unix.error_message e)
    | Sys_error msg -> corrupt "mmap failed: %s" msg
  in
  (* Host-endianness cross-check: the header probe proves the file is
     little-endian; comparing one word read through the mapping against its
     explicit LE decoding proves the mapping agrees. *)
  if words > 0 then begin
    let first =
      u64_at ~what:"G2 payload"
        (pread fd ~pos:gf.gf_payload_off ~len:8 ~what:"G2 payload")
        0
    in
    if Bigarray.Array1.get arr 0 <> first then
      corrupt "endianness mismatch: mapped stores require a little-endian host"
  end;
  let off = ref 0 in
  let slice k =
    let s = Bigarray.Array1.sub arr !off k in
    off := !off + k;
    Storage.of_bigarray s
  in
  let csr = csr_of_slices (List.map slice (g2_field_lens h)) in
  match Graph.of_csr csr with
  | g -> g
  | exception Invalid_argument msg -> corrupt "invalid G2 graph: %s" msg

let with_store_fd path f =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let file_len = Int64.to_int (Unix.LargeFile.fstat fd).Unix.LargeFile.st_size in
      f fd ~file_len)

let load_mapped path =
  with_store_fd path (fun fd ~file_len ->
      match read_g2_meta fd ~file_len with
      | None -> load path
      | Some gf ->
        let r, _ = open_reader gf.gf_prefix ~kind:kind_patterns in
        let secs = sections r in
        let graph = map_payload fd gf in
        store_of_sections ~graph ~graph_format:G2 secs)

let map_graph path =
  with_store_fd path (fun fd ~file_len ->
      match read_g2_meta fd ~file_len with
      | None -> (load path).graph
      | Some gf -> map_payload fd gf)

let verify_file path =
  with_store_fd path (fun fd ~file_len ->
      match read_g2_meta fd ~file_len with
      | None -> ignore (load path)
      | Some gf ->
        (* Sections must decode structurally, not just CRC-check: the tag
           byte of a section sits outside its CRC, so a tag flip turns a
           required section into an ignorable stranger. *)
        let r, _ = open_reader gf.gf_prefix ~kind:kind_patterns in
        let secs = sections r in
        ignore (store_of_sections ~graph:(map_payload fd gf) ~graph_format:G2 secs);
        (* ...and the full payload CRC, streamed in pages. *)
        let h = gf.gf_header in
        let crc = ref Codec.crc32_seed in
        let off = ref 0 in
        while !off < h.g2_payload_bytes do
          let len = min g2_page_size (h.g2_payload_bytes - !off) in
          let chunk =
            pread fd ~pos:(gf.gf_payload_off + !off) ~len ~what:"G2 payload"
          in
          crc := Codec.crc32_update !crc chunk;
          off := !off + len
        done;
        if crc_int (Codec.crc32_value !crc) <> h.g2_full_crc then
          corrupt "G2 payload checksum mismatch")

(* Byte ranges of an encoded v2 store whose corruption a mapped open is
   guaranteed to detect: everything except the unsampled payload pages.
   Drives the byte-flip fuzzer. *)
let g2_checked_byte_ranges s =
  let file_len = String.length s in
  if file_len < g2_trailer_bytes then corrupt "missing G2 trailer";
  let sections_end, g2_offset =
    parse_trailer ~file_len
      (String.sub s (file_len - g2_trailer_bytes) g2_trailer_bytes)
  in
  let g2_end = file_len - g2_trailer_bytes in
  let fetch pos len =
    if g2_offset + pos + len > g2_end then corrupt "truncated G2 header"
    else String.sub s (g2_offset + pos) len
  in
  let h = parse_g2_header fetch in
  let payload_off = g2_offset + h.g2_header_bytes in
  (0, sections_end) :: (sections_end, g2_offset - sections_end)
  :: (g2_offset, h.g2_header_bytes)
  :: (g2_end, g2_trailer_bytes)
  :: List.map
       (fun (page, _) ->
         let start = page * g2_page_size in
         (payload_off + start, min g2_page_size (h.g2_payload_bytes - start)))
       h.g2_samples

(* --- diameter-index snapshots --- *)

let emit_index w idx =
  let snap = Diameter_index.snapshot idx in
  header w ~version:1 ~kind:kind_index;
  Codec.W.section w ~tag:'G' (fun w -> write_graph w (Diameter_index.graph idx));
  Codec.W.section w ~tag:'I' (fun w ->
      Codec.W.uint w snap.snap_sigma;
      Codec.W.uint w snap.snap_l_max;
      Codec.W.list w
        (fun w (l, entries) ->
          Codec.W.uint w l;
          Codec.W.list w write_entry entries)
        snap.lengths)

let encode_index idx =
  let w = Codec.W.create ~size:4096 () in
  emit_index w idx;
  Codec.W.contents w

let decode_index ?prune_intermediate ?path_support ?jobs s =
  let r, v = open_reader s ~kind:kind_index in
  if v <> 1 then
    raise (Codec.Corrupt (Printf.sprintf "unsupported index snapshot version %d" v));
  let secs = sections r in
  let graph = read_graph (find_section 'G' secs) in
  let i = find_section 'I' secs in
  let snap_sigma = Codec.R.uint i in
  let snap_l_max = Codec.R.uint i in
  let lengths =
    Codec.R.list i (fun r ->
        let l = Codec.R.uint r in
        let entries = Codec.R.list r read_entry in
        (l, entries))
  in
  Diameter_index.of_snapshot ?prune_intermediate ?path_support ?jobs graph
    { snap_sigma; snap_l_max; lengths }

let save_index path idx = save_via path (fun w -> emit_index w idx)
let load_index ?prune_intermediate ?path_support ?jobs path =
  decode_index ?prune_intermediate ?path_support ?jobs (read_file path)
