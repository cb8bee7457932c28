(* Tests for the four baseline reimplementations: each must be sound on its
   own terms and exhibit the qualitative behaviour the SkinnyMine paper
   exploits (SpiderMine finds fat-not-skinny patterns; SUBDUE prefers small
   frequent substructures; SEuS verifies its summary estimates; ORIGAMI
   returns a sparse orthogonal sample of maximal patterns). *)

open Spm_graph
open Spm_pattern
open Spm_baselines

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Grow_util --- *)

let test_vertex_seeds () =
  let g = Graph.Builder.of_edges ~labels:[| 0; 0; 1 |] [ (0, 1); (1, 2) ] in
  let seeds = Grow_util.vertex_seeds g in
  check "two labels" 2 (List.length seeds);
  let l0 = List.assoc 0 (List.map (fun (l, s) -> (l, s)) seeds) in
  check "label-0 images" 2 (List.length l0.Grow_util.maps);
  check "vertex support" 2 (Grow_util.support g l0)

let test_edge_seeds () =
  let g = Graph.Builder.of_edges ~labels:[| 0; 0; 1 |] [ (0, 1); (1, 2) ] in
  let seeds = Grow_util.edge_seeds g in
  check "two edge patterns" 2 (List.length seeds);
  List.iter
    (fun s ->
      check_bool "maps read labels" true
        (List.for_all
           (fun m ->
             Graph.label g m.(0) = Graph.label s.Grow_util.pattern 0
             && Graph.label g m.(1) = Graph.label s.Grow_util.pattern 1)
           s.Grow_util.maps))
    seeds

let test_extensions_complete () =
  let g = Graph.Builder.of_edges ~labels:[| 0; 0; 0 |] [ (0, 1); (1, 2); (0, 2) ] in
  let edge = List.hd (Grow_util.edge_seeds g) in
  let exts = Grow_util.extensions g edge in
  (* From an edge in a triangle: one forward desc per endpoint + no closing
     (pattern has only 2 vertices, already adjacent). *)
  check_bool "has extensions" true (List.length exts >= 1);
  List.iter
    (fun st ->
      check_bool "extension maps valid" true
        (List.for_all
           (fun m ->
             Graph.fold_edges
               (fun u v acc -> acc && Graph.has_edge g m.(u) m.(v))
               st.Grow_util.pattern true)
           st.Grow_util.maps))
    exts

(* --- SpiderMine --- *)

let fat_and_skinny_graph seed =
  let st = Gen.rng seed in
  let bg = Gen.erdos_renyi st ~n:120 ~avg_degree:2.0 ~num_labels:12 in
  let b = Graph.Builder.of_graph bg in
  (* A long skinny pattern and a fat clique-ish pattern, both support 2. *)
  let skinny =
    Gen.random_skinny_pattern st ~backbone:10 ~delta:1 ~twigs:3 ~num_labels:12
  in
  let fat = Gen.random_connected_pattern st ~n:8 ~extra_edges:8 ~num_labels:12 in
  ignore (Gen.inject st b ~pattern:skinny ~copies:2 ());
  ignore (Gen.inject st b ~pattern:fat ~copies:2 ());
  (Graph.Builder.freeze b, skinny, fat)

let test_spider_mine_runs () =
  let g, _, _ = fat_and_skinny_graph 1 in
  let r =
    Spider_mine.mine ~rng:(Gen.rng 2) ~seeds:60 ~graph:g ~sigma:2 ~k:5 ()
  in
  check_bool "found spiders" true (r.Spider_mine.spiders_mined > 0);
  check_bool "at most k patterns" true (List.length r.Spider_mine.patterns <= 5);
  List.iter
    (fun (p, sup) ->
      check_bool "frequent" true (sup >= 2);
      check_bool "within d_max" true (Bfs.diameter p <= 4);
      check_bool "really embeds" true
        (Plan.exists (Plan.compile ~freq:(Graph.label_freq g) p) ~target:g))
    r.Spider_mine.patterns

let test_spider_mine_misses_long_skinny () =
  let g, skinny, _ = fat_and_skinny_graph 3 in
  let r =
    Spider_mine.mine ~rng:(Gen.rng 4) ~seeds:80 ~graph:g ~sigma:2 ~k:10 ()
  in
  (* d_max = 4 < backbone 10: the long skinny pattern cannot appear. *)
  check_bool "long skinny pattern missed (by design)" false
    (List.exists (fun (p, _) -> Canon.iso p skinny) r.Spider_mine.patterns);
  check_bool "all reported diameters bounded" true
    (List.for_all (fun (p, _) -> Bfs.diameter p <= 4) r.Spider_mine.patterns)

(* --- SUBDUE --- *)

let test_subdue_prefers_frequent_small () =
  let st = Gen.rng 9 in
  let bg = Gen.erdos_renyi st ~n:100 ~avg_degree:1.2 ~num_labels:10 in
  let b = Graph.Builder.of_graph bg in
  (* A very frequent 2-edge motif. *)
  let motif = Pattern.of_path_labels [| 7; 8; 7 |] in
  ignore (Gen.inject st b ~pattern:motif ~copies:15 ());
  let g = Graph.Builder.freeze b in
  let r = Subdue.mine ~graph:g () in
  check_bool "nonempty" true (r.Subdue.best <> []);
  let top = List.hd r.Subdue.best in
  check_bool "top compresses" true (top.Subdue.compression > 0.0);
  check_bool "top is small and frequent" true
    (Pattern.size top.Subdue.pattern <= 4 && top.Subdue.instances >= 10)

let test_subdue_scores_are_sorted () =
  let st = Gen.rng 21 in
  let g = Gen.erdos_renyi st ~n:60 ~avg_degree:2.5 ~num_labels:3 in
  let r = Subdue.mine ~graph:g () in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Subdue.compression >= b.Subdue.compression && sorted rest
    | _ -> true
  in
  check_bool "best list sorted" true (sorted r.Subdue.best)

(* --- SEuS --- *)

let test_seus_summary () =
  let g = Graph.Builder.of_edges ~labels:[| 0; 1; 0; 1 |] [ (0, 1); (2, 3); (1, 2) ] in
  let s = Seus.summary g in
  check "label pair (0,1)" 3 (Hashtbl.find s (0, 1));
  check_bool "no (0,0)" true (not (Hashtbl.mem s (0, 0)))

let test_seus_verified_supports () =
  let st = Gen.rng 13 in
  let g = Gen.erdos_renyi st ~n:50 ~avg_degree:2.0 ~num_labels:4 in
  let r = Seus.mine ~graph:g ~sigma:3 () in
  List.iter
    (fun (p, sup) ->
      check (Printf.sprintf "support of a %d-edge pattern" (Pattern.size p))
        (Support.single_graph p g) sup;
      check_bool "meets sigma" true (sup >= 3))
    r.Seus.patterns;
  check_bool "estimation prunes" true (r.Seus.verified <= r.Seus.candidates)

let test_seus_estimate_is_upper_bound () =
  (* The summary estimate never under-counts: if SEuS rejects at the summary
     level, the true support is below sigma too. Verify on a case where the
     estimate is exact: disjoint copies. *)
  let motif = Pattern.of_path_labels [| 1; 2; 3 |] in
  let b = Graph.Builder.create () in
  let st = Gen.rng 1 in
  ignore (Gen.inject st b ~pattern:motif ~copies:4 ());
  let g = Graph.Builder.freeze b in
  let r = Seus.mine ~graph:g ~sigma:4 () in
  check_bool "finds the motif" true
    (List.exists (fun (p, _) -> Canon.iso p motif) r.Seus.patterns)

(* --- ORIGAMI --- *)

let test_origami_similarity () =
  let p = Pattern.of_path_labels [| 0; 1; 2 |] in
  let q = Pattern.of_path_labels [| 0; 1; 2 |] in
  check_bool "identical" true (Origami.similarity p q = 1.0);
  let r = Pattern.of_path_labels [| 5; 6; 7 |] in
  check_bool "disjoint features" true (Origami.similarity p r = 0.0)

let test_origami_sample_properties () =
  let st = Gen.rng 17 in
  let db =
    List.init 6 (fun _ -> Gen.erdos_renyi st ~n:25 ~avg_degree:2.5 ~num_labels:3)
  in
  let r = Origami.mine ~rng:(Gen.rng 18) ~walks:30 ~db ~sigma:3 () in
  check_bool "found maximal patterns" true (r.Origami.maximal_found > 0);
  List.iter
    (fun (p, sup) ->
      check "transaction support correct" (Support.transaction p db) sup;
      check_bool "frequent" true (sup >= 3))
    r.Origami.patterns;
  (* Pairwise orthogonality. *)
  let rec pairs = function
    | [] -> true
    | (p, _) :: rest ->
      List.for_all (fun (q, _) -> Origami.similarity p q <= 0.5) rest
      && pairs rest
  in
  check_bool "alpha-orthogonal" true (pairs r.Origami.patterns)

let test_origami_maximality () =
  (* In a db of identical path graphs, the only maximal pattern is the path
     itself. *)
  let path = Pattern.of_path_labels [| 0; 1; 2; 3 |] in
  let db = [ path; path; path ] in
  let r = Origami.mine ~rng:(Gen.rng 5) ~walks:10 ~db ~sigma:3 () in
  check "one maximal pattern" 1 r.Origami.maximal_found;
  match r.Origami.patterns with
  | [ (p, 3) ] -> check_bool "it is the path" true (Canon.iso p path)
  | _ -> Alcotest.fail "expected exactly the path with support 3"

let () =
  Alcotest.run "baselines"
    [
      ( "grow_util",
        [
          Alcotest.test_case "vertex seeds" `Quick test_vertex_seeds;
          Alcotest.test_case "edge seeds" `Quick test_edge_seeds;
          Alcotest.test_case "extensions" `Quick test_extensions_complete;
        ] );
      ( "spider_mine",
        [
          Alcotest.test_case "runs and is sound" `Quick test_spider_mine_runs;
          Alcotest.test_case "misses long skinny" `Quick
            test_spider_mine_misses_long_skinny;
        ] );
      ( "subdue",
        [
          Alcotest.test_case "prefers frequent small" `Quick
            test_subdue_prefers_frequent_small;
          Alcotest.test_case "scores sorted" `Quick test_subdue_scores_are_sorted;
        ] );
      ( "seus",
        [
          Alcotest.test_case "summary" `Quick test_seus_summary;
          Alcotest.test_case "verified supports" `Quick test_seus_verified_supports;
          Alcotest.test_case "upper bound" `Quick test_seus_estimate_is_upper_bound;
        ] );
      ( "origami",
        [
          Alcotest.test_case "similarity" `Quick test_origami_similarity;
          Alcotest.test_case "sample properties" `Quick
            test_origami_sample_properties;
          Alcotest.test_case "maximality" `Quick test_origami_maximality;
        ] );
    ]
