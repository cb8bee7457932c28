(* Additional focused tests: disjoint support, the fast canonicity check on
   hand-built corner cases, the diameter index with custom supports, closed
   growth interactions, and IO/dot rendering. *)

open Spm_graph
open Spm_pattern
open Spm_core

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Disjoint support --- *)

let test_disjoint_paths_overlap () =
  (* Three path embeddings, the first two overlapping. *)
  let embs = [ [| 0; 1; 2 |]; [| 2; 3; 4 |]; [| 5; 6; 7 |] ] in
  check "greedy disjoint" 2 (Disjoint_support.paths embs);
  check "all disjoint" 2
    (Disjoint_support.paths [ [| 0; 1 |]; [| 2; 3 |]; [| 1; 2 |] ]);
  check "empty" 0 (Disjoint_support.paths [])

let test_disjoint_maps_dedup () =
  let p = Pattern.of_path_labels [| 0; 0 |] in
  (* Two mappings of the same subgraph plus one disjoint. *)
  let ms = [ [| 0; 1 |]; [| 1; 0 |]; [| 2; 3 |] ] in
  check "dedup then disjoint" 2 (Disjoint_support.maps p ms)

let test_disjoint_vs_subgraph_support () =
  (* A "caterpillar" of overlapping length-2 paths: subgraph support is
     large, disjoint support small. *)
  let g = Gen.path_graph (Array.make 10 0) in
  let labels = [| 0; 0; 0 |] in
  let r = Diam_mine.mine g ~l:2 ~sigma:1 in
  let entry =
    List.find (fun e -> e.Diam_mine.labels = labels) r.Diam_mine.entries
  in
  let embs = entry.Diam_mine.embeddings in
  check "subgraph count inflates" 8 (List.length embs);
  check_bool "disjoint count is smaller" true
    (Disjoint_support.paths embs <= 3)

let test_diam_mine_with_disjoint_support () =
  (* Overlapping frequent paths disappear under disjoint support. *)
  let g = Gen.path_graph (Array.make 12 0) in
  let subgraph_freq = Diam_mine.mine g ~l:3 ~sigma:2 in
  let disjoint_freq =
    Diam_mine.mine ~support:Disjoint_support.paths g ~l:3 ~sigma:4 in
  check "frequent under subgraph count" 1 (List.length subgraph_freq.Diam_mine.entries);
  (* Only 2-3 disjoint length-3 paths fit in a length-11 path: sigma=4 kills
     the pattern. *)
  check "infrequent under disjoint count" 0 (List.length disjoint_freq.Diam_mine.entries)

(* --- identity_preserved corner cases --- *)

let test_identity_preserved_basic () =
  let p = Gen.path_graph [| 0; 1; 1; 2 |] in
  check_bool "bare path preserved" true
    (Canonical_diameter.identity_preserved p ~l:3);
  (* Reversal smaller: labels [2;1;1;0] reversed [0;1;1;2]... the identity
     reads [0;1;1;2], already canonical. A path whose reverse is smaller: *)
  let q = Gen.path_graph [| 2; 1; 1; 0 |] in
  check_bool "wrong orientation rejected" false
    (Canonical_diameter.identity_preserved q ~l:3)

let test_identity_preserved_twig_violation () =
  (* Twig with label smaller than the head creates a smaller diameter. *)
  let p = Gen.path_graph [| 1; 1; 1; 2 |] in
  let p' = Pattern.extend_new_vertex p ~host:1 ~label:0 in
  (* New realizing path 4-1-2-3 reads [0;1;1;2] < [1;1;1;2]. *)
  check_bool "smaller-label twig dethrones" false
    (Canonical_diameter.identity_preserved p' ~l:3);
  let p'' = Pattern.extend_new_vertex p ~host:1 ~label:3 in
  check_bool "larger-label twig is fine" true
    (Canonical_diameter.identity_preserved p'' ~l:3)

let test_identity_preserved_diameter_changes () =
  let p = Gen.path_graph [| 0; 1; 2 |] in
  (* Leaf on the head stretches the diameter to 3. *)
  let p' = Pattern.extend_new_vertex p ~host:0 ~label:5 in
  check_bool "grown diameter rejected" false
    (Canonical_diameter.identity_preserved p' ~l:2);
  (* Chord shrinks the head-tail distance. *)
  let q = Gen.path_graph [| 0; 1; 2; 3; 4 |] in
  let q' = Pattern.extend_close_edge q 0 4 in
  check_bool "chord rejected" false
    (Canonical_diameter.identity_preserved q' ~l:4)

let test_identity_preserved_missing_backbone () =
  (* A graph where vertices 0..l are not even a path. *)
  let g = Graph.Builder.of_edges ~labels:[| 0; 1; 2 |] [ (0, 2); (2, 1) ] in
  check_bool "no backbone edges" false
    (Canonical_diameter.identity_preserved g ~l:2)

(* --- Diameter index with custom supports --- *)

let test_index_with_disjoint_support () =
  let st = Gen.rng 5 in
  let bg = Gen.erdos_renyi st ~n:60 ~avg_degree:1.5 ~num_labels:6 in
  let b = Graph.Builder.of_graph bg in
  let pat = Gen.path_graph [| 1; 2; 3; 4; 5 |] in
  ignore (Gen.inject st b ~pattern:pat ~copies:3 ());
  let g = Graph.Builder.freeze b in
  let idx =
    Diameter_index.build ~path_support:Disjoint_support.paths g ~sigma:3
      ~l_max:4
  in
  let entries = Diameter_index.entries idx ~l:4 in
  check_bool "injected path found with disjoint support" true
    (List.exists
       (fun e -> e.Diam_mine.labels = Path_pattern.canonical [| 1; 2; 3; 4; 5 |])
       entries);
  let r =
    Diameter_index.request
      ~config:
        { Skinny_mine.Config.default with support = Some Disjoint_support.maps }
      idx ~l:4 ~delta:1
  in
  check_bool "request works" true (List.length r.Skinny_mine.patterns >= 1);
  List.iter
    (fun m -> check_bool "supports >= sigma" true (m.Skinny_mine.support >= 3))
    r.Skinny_mine.patterns

(* --- Closed growth specifics --- *)

let test_closed_growth_support_increase_kept () =
  (* When an extension *increases* support it is not a closed-jump: both the
     parent and the child must be reported. Build: edge (0,1) appears once
     as a standalone and once inside a star, so the 2-edge path has support
     2 while the single twig extension exists... keep it simple: verify
     closed growth never drops the bare diameter when its extensions change
     support. *)
  let g =
    Graph.Builder.of_edges ~labels:[| 0; 1; 0; 1; 2 |]
      [ (0, 1); (2, 3); (3, 4) ]
  in
  (* Pattern 0-1 has support 2; extension by label-2 twig has support 1. *)
  let r =
    Skinny_mine.mine
      ~config:{ Skinny_mine.Config.default with closed_growth = true }
      g ~l:1 ~delta:1 ~sigma:2
  in
  check "bare edge is closed here" 1 (List.length r.Skinny_mine.patterns);
  let m = List.hd r.Skinny_mine.patterns in
  check "its support" 2 m.Skinny_mine.support;
  check "one edge" 1 (Pattern.size m.Skinny_mine.pattern)

let test_closed_growth_transactions () =
  let pat = Gen.path_graph [| 2; 3; 2; 3 |] in
  let st = Gen.rng 8 in
  let make () =
    let b = Graph.Builder.of_graph (Gen.erdos_renyi st ~n:15 ~avg_degree:1.0 ~num_labels:6) in
    ignore (Gen.inject st b ~pattern:pat ~copies:1 ());
    Graph.Builder.freeze b
  in
  let db = [ make (); make (); make () ] in
  let r =
    Skinny_mine.mine_transactions
      ~config:{ Skinny_mine.Config.default with closed_growth = true }
      db ~l:3 ~delta:1 ~sigma:3
  in
  check_bool "injected found closed" true
    (List.exists
       (fun m ->
         let target = m.Skinny_mine.pattern in
         Plan.exists (Plan.compile ~freq:(Graph.label_freq target) pat) ~target)
       r.Skinny_mine.patterns)

(* --- IO extras --- *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec loop i =
    i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1))
  in
  loop 0

let test_to_dot () =
  let g = Gen.path_graph [| 0; 1 |] in
  let dot = Io.to_dot ~highlight:[ 0 ] g in
  check_bool "mentions edge" true (contains dot "0 -- 1");
  check_bool "highlights vertex 0" true (contains dot "fillcolor");
  let t = Label.Table.of_names [ "alpha"; "beta" ] in
  let dot2 = Io.to_dot ~names:t g in
  check_bool "named labels" true (contains dot2 "alpha")

let test_write_read_files () =
  let g = Gen_qcheck.er ~seed:3 ~n:20 ~avg_degree:2.0 ~num_labels:3 in
  Testutil.with_temp_dir (fun dir ->
      let tmp = Testutil.temp_file_in dir "g.graph" in
      Io.write_file tmp g;
      let g' = Io.read_file tmp in
      check_bool "file roundtrip" true (Graph.equal_structure g g');
      let db = [ g; Gen.path_graph [| 0; 1 |] ] in
      let tmp2 = Testutil.temp_file_in dir "g.db" in
      Io.write_db tmp2 db;
      let db' = Io.read_db tmp2 in
      check "db file roundtrip" 2 (List.length db'))

(* --- Stats sanity from the miners --- *)

let test_level_grow_stats () =
  let g =
    Graph.Builder.of_edges ~labels:[| 0; 1; 1; 1; 2; 3 |]
      [ (0, 1); (1, 2); (2, 3); (3, 4); (2, 5) ]
  in
  let r = Skinny_mine.mine g ~l:4 ~delta:1 ~sigma:1 in
  let stats = r.Skinny_mine.stats in
  check_bool "grow stats per cluster" true
    (List.length stats.Skinny_mine.grow_stats = stats.Skinny_mine.num_diameters);
  List.iter
    (fun s ->
      check_bool "tried >= rejected + infrequent" true
        (s.Level_grow.extensions_tried
        >= s.Level_grow.constraint_rejected + s.Level_grow.infrequent))
    stats.Skinny_mine.grow_stats

let test_diam_mine_stats_powers () =
  let st = Gen.rng 2 in
  let g = Gen.erdos_renyi st ~n:40 ~avg_degree:2.0 ~num_labels:3 in
  let r = Diam_mine.mine g ~l:6 ~sigma:1 in
  let lengths = List.map (fun (len, _, _) -> len) r.Diam_mine.stats.Diam_mine.per_power in
  Alcotest.(check (list int)) "powers materialized" [ 1; 2; 4 ] lengths

let () =
  Alcotest.run "extra"
    [
      ( "disjoint_support",
        [
          Alcotest.test_case "overlap" `Quick test_disjoint_paths_overlap;
          Alcotest.test_case "maps dedup" `Quick test_disjoint_maps_dedup;
          Alcotest.test_case "vs subgraph support" `Quick
            test_disjoint_vs_subgraph_support;
          Alcotest.test_case "diam mine integration" `Quick
            test_diam_mine_with_disjoint_support;
        ] );
      ( "identity_preserved",
        [
          Alcotest.test_case "basic" `Quick test_identity_preserved_basic;
          Alcotest.test_case "twig violation" `Quick
            test_identity_preserved_twig_violation;
          Alcotest.test_case "diameter changes" `Quick
            test_identity_preserved_diameter_changes;
          Alcotest.test_case "missing backbone" `Quick
            test_identity_preserved_missing_backbone;
        ] );
      ( "index",
        [
          Alcotest.test_case "disjoint support" `Quick
            test_index_with_disjoint_support;
        ] );
      ( "closed_growth",
        [
          Alcotest.test_case "support increase kept" `Quick
            test_closed_growth_support_increase_kept;
          Alcotest.test_case "transactions" `Quick test_closed_growth_transactions;
        ] );
      ( "io",
        [
          Alcotest.test_case "dot" `Quick test_to_dot;
          Alcotest.test_case "files" `Quick test_write_read_files;
        ] );
      ( "stats",
        [
          Alcotest.test_case "level grow stats" `Quick test_level_grow_stats;
          Alcotest.test_case "diam mine powers" `Quick test_diam_mine_stats_powers;
        ] );
    ]
