(* The binary pattern store: codec primitive round trips, qcheck
   decode-encode identities for graphs / mined records / whole stores,
   byte-stability of double encodes, whole-file corruption detection (every
   single-byte flip must be caught), and Diameter_index snapshots serving
   without re-mining. *)

open Spm_graph
open Spm_core
module Codec = Spm_store.Codec
module Store = Spm_store.Store

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- codec primitives --- *)

let test_crc32 () =
  (* The standard CRC-32 check value. *)
  check_str "check value" "cbf43926"
    (Printf.sprintf "%08lx" (Codec.crc32 "123456789"));
  check_str "empty" "00000000" (Printf.sprintf "%08lx" (Codec.crc32 ""));
  (* Substring addressing. *)
  check_str "substring"
    (Printf.sprintf "%08lx" (Codec.crc32 "456"))
    (Printf.sprintf "%08lx" (Codec.crc32 ~pos:3 ~len:3 "123456789"))

let rt_int n =
  let w = Codec.W.create () in
  Codec.W.int w n;
  Codec.R.int (Codec.R.of_string (Codec.W.contents w))

let rt_uint n =
  let w = Codec.W.create () in
  Codec.W.uint w n;
  Codec.R.uint (Codec.R.of_string (Codec.W.contents w))

let test_varints () =
  List.iter
    (fun n -> check (Printf.sprintf "int %d" n) n (rt_int n))
    [ 0; 1; -1; 63; 64; 127; 128; -128; 65535; -65536; max_int; min_int;
      max_int - 1; min_int + 1 ];
  List.iter
    (fun n -> check (Printf.sprintf "uint %d" n) n (rt_uint n))
    [ 0; 1; 127; 128; 16384; max_int ];
  (* Small non-negative values stay single-byte. *)
  let w = Codec.W.create () in
  Codec.W.int w 100;
  check "compact small int" 1 (Codec.W.length w)

let test_floats_strings () =
  let w = Codec.W.create () in
  Codec.W.float w 1.5;
  Codec.W.float w (-0.0);
  Codec.W.float w Float.pi;
  Codec.W.string w "hello";
  Codec.W.string w "";
  Codec.W.int_array w [| 3; -1; 0; 999 |];
  let r = Codec.R.of_string (Codec.W.contents w) in
  Alcotest.(check (float 0.0)) "1.5" 1.5 (Codec.R.float r);
  check_bool "-0.0 bits" true (Int64.equal (Int64.bits_of_float (-0.0))
      (Int64.bits_of_float (Codec.R.float r)));
  Alcotest.(check (float 0.0)) "pi" Float.pi (Codec.R.float r);
  check_str "hello" "hello" (Codec.R.string r);
  check_str "empty" "" (Codec.R.string r);
  Alcotest.(check (array int)) "int array" [| 3; -1; 0; 999 |] (Codec.R.int_array r);
  check "fully consumed" 0 (Codec.R.left r)

let test_truncation_detected () =
  let w = Codec.W.create () in
  Codec.W.string w "some payload";
  let s = Codec.W.contents w in
  let truncated = String.sub s 0 (String.length s - 3) in
  check_bool "truncated string raises" true
    (match Codec.R.string (Codec.R.of_string truncated) with
    | _ -> false
    | exception Codec.Corrupt _ -> true)

(* --- random inputs --- *)

let random_graph seed =
  let st = Gen.rng seed in
  let n = 1 + Random.State.int st 14 in
  Gen.erdos_renyi st ~n ~avg_degree:2.5 ~num_labels:(1 + Random.State.int st 6)

let graphs_equal a b =
  Graph.equal_structure a b && Graph.labels a = Graph.labels b

(* --- qcheck round trips --- *)

let prop_graph_roundtrip =
  QCheck.Test.make ~name:"decode (encode g) = g for random graphs" ~count:100
    QCheck.small_nat (fun seed ->
      let g = random_graph seed in
      let w = Codec.W.create () in
      Store.write_graph w g;
      let g' = Store.read_graph (Codec.R.of_string (Codec.W.contents w)) in
      graphs_equal g g')

let prop_entry_roundtrip =
  QCheck.Test.make ~name:"Diam_mine entry round trip" ~count:60
    QCheck.small_nat (fun seed ->
      let g = random_graph (seed + 1000) in
      let r = Diam_mine.mine g ~l:2 ~sigma:1 in
      List.for_all
        (fun (e : Diam_mine.entry) ->
          let w = Codec.W.create () in
          Store.write_entry w e;
          let e' = Store.read_entry (Codec.R.of_string (Codec.W.contents w)) in
          e.labels = e'.Diam_mine.labels
          && e.embeddings = e'.Diam_mine.embeddings)
        r.Diam_mine.entries)

let mined_store seed =
  let st = Gen.rng seed in
  let bg = Gen.erdos_renyi st ~n:60 ~avg_degree:2.0 ~num_labels:8 in
  let b = Graph.Builder.of_graph bg in
  let p = Gen.random_skinny_pattern st ~backbone:3 ~delta:1 ~twigs:2 ~num_labels:8 in
  ignore (Gen.inject st b ~pattern:p ~copies:3 ());
  let g = Graph.Builder.freeze b in
  let r = Skinny_mine.mine g ~l:3 ~delta:1 ~sigma:2 in
  Store.of_result ~graph:g ~l:3 ~delta:1 ~sigma:2 ~closed_growth:false r

let mined_equal (a : Skinny_mine.mined) (b : Skinny_mine.mined) =
  graphs_equal a.pattern b.pattern
  && a.support = b.support && a.levels = b.levels
  && a.diameter_labels = b.diameter_labels

let stores_equal (a : Store.pattern_store) (b : Store.pattern_store) =
  graphs_equal a.graph b.graph
  && a.l = b.l && a.delta = b.delta && a.sigma = b.sigma
  && a.closed_growth = b.closed_growth
  && a.family = b.family
  && List.length a.patterns = List.length b.patterns
  && List.for_all2 mined_equal a.patterns b.patterns

let prop_store_roundtrip_byte_stable =
  QCheck.Test.make
    ~name:"pattern store: decode inverts encode; double encode is byte-stable"
    ~count:10 QCheck.small_nat (fun seed ->
      let s = mined_store (seed * 17) in
      let bytes1 = Store.encode s in
      let s' = Store.decode bytes1 in
      let bytes2 = Store.encode s' in
      stores_equal s s' && String.equal bytes1 bytes2)

let test_mined_roundtrip () =
  let s = mined_store 5 in
  check_bool "store has patterns" true (s.Store.patterns <> []);
  List.iter
    (fun m ->
      let w = Codec.W.create () in
      Store.write_mined w m;
      let m' = Store.read_mined (Codec.R.of_string (Codec.W.contents w)) in
      check_bool "mined round trip" true (mined_equal m m'))
    s.Store.patterns

(* --- corruption: every single-byte flip must be rejected --- *)

let assert_all_flips_detected s =
  let bytes = Store.encode s in
  check_bool "store is non-trivial" true (String.length bytes > 100);
  let undetected = ref [] in
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string bytes in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
      match Store.decode (Bytes.unsafe_to_string b) with
      | _ -> undetected := i :: !undetected
      | exception Codec.Corrupt _ -> ())
    bytes;
  Alcotest.(check (list int)) "flips that slipped through" [] !undetected

let test_every_byte_flip_detected () = assert_all_flips_detected (mined_store 7)

let test_legacy_byte_flip_detected () =
  assert_all_flips_detected
    { (mined_store 7) with Store.graph_format = Store.Legacy }

(* --- constraint-family section ('C') --- *)

(* Small on purpose: the flip sweep below decodes the whole store once per
   byte, and the neighborhood family's overlapping clusters make pattern
   counts blow up fast with n and r. *)
let nbr_mined_store ?center seed =
  let st = Gen.rng seed in
  let g = Gen.erdos_renyi st ~n:16 ~avg_degree:2.2 ~num_labels:5 in
  let family = Constraints.Neighborhood { center } in
  let r =
    Skinny_mine.mine
      ~config:{ Skinny_mine.Config.default with family }
      g ~l:0 ~delta:2 ~sigma:2
  in
  Store.of_result ~family ~graph:g ~l:0 ~delta:2 ~sigma:2
    ~closed_growth:false r

(* Tags of the framed sections of a Legacy encoding (Legacy ends at the last
   section, so the scan terminates cleanly at EOF). *)
let section_tags s =
  let bytes = Store.encode { s with Store.graph_format = Store.Legacy } in
  (* 8-byte magic + 1-byte version varint + 1-byte kind varint. *)
  let r = Codec.R.of_string ~pos:10 ~len:(String.length bytes - 10) bytes in
  let rec loop acc =
    match Codec.R.section r with
    | None -> List.rev acc
    | Some (tag, _) -> loop (tag :: acc)
  in
  loop []

(* Back-compat: skinny stores — the only kind older builds ever wrote or can
   read — must not grow a 'C' section; neighborhood stores must carry one
   and round-trip their family. *)
let test_constraint_section_presence () =
  check_bool "skinny store has no 'C' section" false
    (List.mem 'C' (section_tags (mined_store 7)));
  check_bool "neighborhood store has a 'C' section" true
    (List.mem 'C' (section_tags (nbr_mined_store 7)))

let test_neighborhood_roundtrip () =
  List.iter
    (fun center ->
      let s = nbr_mined_store ?center 7 in
      check_bool "mined something" true (s.Store.patterns <> []);
      let bytes1 = Store.encode s in
      let s' = Store.decode bytes1 in
      check_bool "family preserved" true
        (s'.Store.family = Constraints.Neighborhood { center });
      check_bool "round trip" true (stores_equal s s');
      check_bool "re-encode byte-stable" true
        (String.equal bytes1 (Store.encode s')))
    [ None; Some 1 ]

let test_neighborhood_byte_flip_detected () =
  (* Covers the 'C' payload bytes and — via the section-grammar check — the
     'C' tag byte, which sits outside its own CRC. *)
  assert_all_flips_detected (nbr_mined_store 7);
  assert_all_flips_detected
    { (nbr_mined_store ~center:1 7) with Store.graph_format = Store.Legacy }

let test_save_load_file () =
  let s = mined_store 11 in
  Testutil.with_temp_dir (fun dir ->
      let path = Testutil.temp_file_in dir "store.spm" in
      Store.save path s;
      let s' = Store.load path in
      check_bool "file round trip" true (stores_equal s s'))

(* --- G2 layout and mapped loads --- *)

let mined_bytes patterns =
  let w = Codec.W.create () in
  List.iter (Store.write_mined w) patterns;
  Codec.W.contents w

(* Both layouts pin down: version byte, decode inverting encode, re-encode
   byte-stability, and format conversion landing byte-for-byte on what a
   store born in the target format writes. *)
let test_format_pins () =
  let s = mined_store 23 in
  let legacy = { s with Store.graph_format = Store.Legacy } in
  let g2 = { s with Store.graph_format = Store.G2 } in
  let bl = Store.encode legacy in
  let bg = Store.encode g2 in
  (* The version varint follows the 8-byte magic; both fit one byte. *)
  check "legacy writes version 1" 1 (Char.code bl.[8]);
  check "g2 writes version 2" 2 (Char.code bg.[8]);
  check_bool "layouts differ" false (String.equal bl bg);
  let ll = Store.decode bl in
  let gg = Store.decode bg in
  check_bool "legacy decode keeps Legacy" true
    (ll.Store.graph_format = Store.Legacy);
  check_bool "g2 decode keeps G2" true (gg.Store.graph_format = Store.G2);
  check_bool "legacy content preserved" true (stores_equal s ll);
  check_bool "g2 content preserved" true (stores_equal s gg);
  check_bool "legacy re-encode byte-stable" true
    (String.equal bl (Store.encode ll));
  check_bool "g2 re-encode byte-stable" true (String.equal bg (Store.encode gg));
  (* Converting a decoded store across formats is byte-identical to a store
     born in that format. *)
  check_bool "legacy -> g2 conversion pins bytes" true
    (String.equal bg (Store.encode { ll with Store.graph_format = Store.G2 }));
  check_bool "g2 -> legacy conversion pins bytes" true
    (String.equal bl
       (Store.encode { gg with Store.graph_format = Store.Legacy }))

let test_load_mapped () =
  let s = mined_store 29 in
  Testutil.with_temp_dir (fun dir ->
      let path = Testutil.temp_file_in dir "store.spm" in
      Store.save path s;
      Store.verify_file path;
      let s' = Store.load_mapped path in
      check_bool "mapped round trip" true (stores_equal s s');
      check_bool "mapped graph is Bigarray-backed" true
        (Graph.backing s'.Store.graph = `Bigarray);
      let mg = Store.map_graph path in
      check_bool "map_graph is Bigarray-backed" true
        (Graph.backing mg = `Bigarray);
      check_bool "map_graph equals decoded graph" true
        (graphs_equal s.Store.graph mg);
      (* Version-1 files take the in-memory fallback. *)
      let lpath = Testutil.temp_file_in dir "legacy.spm" in
      Store.save lpath { s with Store.graph_format = Store.Legacy };
      let l' = Store.load_mapped lpath in
      check_bool "legacy fallback round trip" true (stores_equal s l');
      check_bool "legacy fallback is array-backed" true
        (Graph.backing l'.Store.graph = `Array))

let test_mapped_truncation_rejected () =
  let s = mined_store 41 in
  Testutil.with_temp_dir (fun dir ->
      let path = Testutil.temp_file_in dir "store.spm" in
      Store.save path s;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length full in
      List.iter
        (fun keep ->
          let tpath = Testutil.temp_file_in dir "trunc.spm" in
          Out_channel.with_open_bin tpath (fun oc ->
              Out_channel.output_string oc (String.sub full 0 keep));
          check_bool
            (Printf.sprintf "truncation to %d/%d bytes rejected" keep len)
            true
            (match Store.load_mapped tpath with
            | _ -> false
            | exception Codec.Corrupt _ -> true))
        [ 0; 1; 8; len / 4; len / 2; len - 9; len - 1 ])

(* The acceptance bar: mining a mapped graph is byte-identical to mining the
   array-backed original, sequentially and with a worker pool. *)
let test_mapped_mine_byte_identical () =
  let st = Gen.rng 101 in
  let bg = Gen.erdos_renyi st ~n:80 ~avg_degree:2.0 ~num_labels:10 in
  let b = Graph.Builder.of_graph bg in
  let p =
    Gen.random_skinny_pattern st ~backbone:4 ~delta:1 ~twigs:2 ~num_labels:10
  in
  ignore (Gen.inject st b ~pattern:p ~copies:3 ());
  let g = Graph.Builder.freeze b in
  Testutil.with_temp_dir (fun dir ->
      let path = Testutil.temp_file_in dir "graph.spm" in
      Store.save path (Store.of_graph g);
      let mg = Store.map_graph path in
      List.iter
        (fun jobs ->
          let config = { Skinny_mine.Config.default with jobs } in
          let r1 = Skinny_mine.mine ~config g ~l:4 ~delta:1 ~sigma:2 in
          let r2 = Skinny_mine.mine ~config mg ~l:4 ~delta:1 ~sigma:2 in
          check_bool
            (Printf.sprintf "mined bytes identical (jobs=%d)" jobs)
            true
            (String.equal
               (mined_bytes r1.Skinny_mine.patterns)
               (mined_bytes r2.Skinny_mine.patterns)))
        [ 1; 4 ])

(* Delta overlays and snapshots work over a mapped base exactly as over an
   array-backed one — the incremental path never notices the backing. *)
let test_delta_over_mapped () =
  let g = random_graph 37 in
  Testutil.with_temp_dir (fun dir ->
      let path = Testutil.temp_file_in dir "graph.spm" in
      Store.save path (Store.of_graph g);
      let mg = Store.map_graph path in
      let n = Graph.n g in
      let edits =
        [
          Delta.Add_vertex 0;
          Delta.Add_edge (0, n);
          Delta.Remove_edge (0, n);
          Delta.Add_edge (1, n);
        ]
      in
      let snap base = Delta.snapshot (Delta.apply_all (Delta.of_graph base) edits) in
      let from_array = snap g in
      let from_mapped = snap mg in
      check_bool "snapshots agree across backings" true
        (graphs_equal from_array from_mapped);
      check_bool "snapshot is array-backed" true
        (Graph.backing from_mapped = `Array))

(* --- diameter-index snapshots --- *)

let entries_equal (a : Diam_mine.entry list) (b : Diam_mine.entry list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Diam_mine.entry) (y : Diam_mine.entry) ->
         x.labels = y.labels && x.embeddings = y.embeddings)
       a b

let result_signature (r : Skinny_mine.result) =
  List.map
    (fun (m : Skinny_mine.mined) ->
      (Spm_pattern.Canon.key m.pattern, m.support))
    r.patterns

let test_index_snapshot () =
  let s = mined_store 13 in
  let idx = Diameter_index.build s.Store.graph ~sigma:2 ~l_max:4 in
  (* Touch a non-power length so the snapshot includes a merged cache line. *)
  let e3 = Diameter_index.entries idx ~l:3 in
  let bytes = Store.encode_index idx in
  let idx' = Store.decode_index bytes in
  check "sigma preserved" (Diameter_index.sigma idx) (Diameter_index.sigma idx');
  check "l_max preserved" (Diameter_index.l_max idx) (Diameter_index.l_max idx');
  check_bool "graph preserved" true
    (graphs_equal (Diameter_index.graph idx) (Diameter_index.graph idx'));
  List.iter
    (fun l ->
      check_bool
        (Printf.sprintf "entries l=%d preserved" l)
        true
        (entries_equal (Diameter_index.entries idx ~l)
           (Diameter_index.entries idx' ~l)))
    [ 1; 2; 3; 4 ];
  check_bool "l=3 went through the snapshot" true
    (entries_equal e3 (Diameter_index.entries idx' ~l:3));
  (* A request served by the restored index matches the original. *)
  let direct = Diameter_index.request idx ~l:3 ~delta:1 in
  let restored = Diameter_index.request idx' ~l:3 ~delta:1 in
  Alcotest.(check (list (pair string int)))
    "restored request = original request" (result_signature direct)
    (result_signature restored)

let test_index_snapshot_file () =
  let s = mined_store 17 in
  let idx = Diameter_index.build s.Store.graph ~sigma:2 ~l_max:2 in
  Testutil.with_temp_dir (fun dir ->
      let path = Testutil.temp_file_in dir "index.spx" in
      Store.save_index path idx;
      let idx' = Store.load_index path in
      check_bool "file snapshot serves l=2" true
        (entries_equal (Diameter_index.entries idx ~l:2)
           (Diameter_index.entries idx' ~l:2)))

(* A support function is not part of the snapshot: the restore names it
   again, and a length outside the snapshot is rebuilt under it. *)
let test_index_snapshot_path_support () =
  let g =
    Gen.erdos_renyi (Gen.rng 25) ~n:800 ~avg_degree:2.5 ~num_labels:25
  in
  let path_support = Disjoint_support.paths in
  let idx = Diameter_index.build ~path_support g ~sigma:2 ~l_max:4 in
  let idx' = Store.decode_index ~path_support (Store.encode_index idx) in
  let e3 = Diameter_index.entries idx ~l:3 in
  check_bool "l=3 has entries" true (e3 <> []);
  check_bool "l=3 rebuilt under the same support" true
    (entries_equal e3 (Diameter_index.entries idx' ~l:3))

let test_store_kind_mismatch () =
  let s = mined_store 19 in
  let bytes = Store.encode s in
  check_bool "pattern store is not an index" true
    (match Store.decode_index bytes with
    | _ -> false
    | exception Codec.Corrupt _ -> true)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "crc32 check value" `Quick test_crc32;
          Alcotest.test_case "varint round trips" `Quick test_varints;
          Alcotest.test_case "floats, strings, arrays" `Quick
            test_floats_strings;
          Alcotest.test_case "truncation detected" `Quick
            test_truncation_detected;
        ] );
      qsuite "roundtrip-props"
        [
          prop_graph_roundtrip; prop_entry_roundtrip;
          prop_store_roundtrip_byte_stable;
        ];
      ( "store",
        [
          Alcotest.test_case "mined record round trip" `Quick
            test_mined_roundtrip;
          Alcotest.test_case "every byte flip detected" `Quick
            test_every_byte_flip_detected;
          Alcotest.test_case "every byte flip detected (legacy)" `Quick
            test_legacy_byte_flip_detected;
          Alcotest.test_case "constraint section presence" `Quick
            test_constraint_section_presence;
          Alcotest.test_case "neighborhood store round trip" `Quick
            test_neighborhood_roundtrip;
          Alcotest.test_case "every byte flip detected (neighborhood)" `Quick
            test_neighborhood_byte_flip_detected;
          Alcotest.test_case "file save/load" `Quick test_save_load_file;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_store_kind_mismatch;
        ] );
      ( "g2-mapped",
        [
          Alcotest.test_case "format pins (legacy vs G2)" `Quick
            test_format_pins;
          Alcotest.test_case "load_mapped / map_graph" `Quick test_load_mapped;
          Alcotest.test_case "mapped truncation rejected" `Quick
            test_mapped_truncation_rejected;
          Alcotest.test_case "mapped mine byte-identical (jobs 1,4)" `Quick
            test_mapped_mine_byte_identical;
          Alcotest.test_case "delta over mapped base" `Quick
            test_delta_over_mapped;
        ] );
      ( "index-snapshot",
        [
          Alcotest.test_case "entries and requests preserved" `Quick
            test_index_snapshot;
          Alcotest.test_case "file snapshot" `Quick test_index_snapshot_file;
          Alcotest.test_case "path support survives a restore" `Quick
            test_index_snapshot_path_support;
        ] );
    ]
