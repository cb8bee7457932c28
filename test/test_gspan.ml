(* Tests for the gSpan growth engine: completeness against a brute-force
   connected-subgraph enumerator, canonical (unique) generation, support
   semantics, and budget caps. *)

open Spm_graph
open Spm_pattern
open Spm_gspan

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Brute-force: all connected subgraphs (as patterns up to isomorphism) with
   1..max_edges edges of a graph. Exponential; only for tiny graphs. *)
let connected_subgraph_keys g ~max_edges =
  let all_edges = Array.of_list (Graph.edges g) in
  let m = Array.length all_edges in
  let keys = Hashtbl.create 64 in
  let patterns = Hashtbl.create 64 in
  let consider chosen =
    let es = List.map (fun i -> all_edges.(i)) chosen in
    let vs =
      List.concat_map (fun (u, v) -> [ u; v ]) es
      |> List.sort_uniq Int.compare |> Array.of_list
    in
    let idx = Hashtbl.create 8 in
    Array.iteri (fun i v -> Hashtbl.add idx v i) vs;
    let labels = Array.map (fun v -> Graph.label g v) vs in
    let es' = List.map (fun (u, v) -> (Hashtbl.find idx u, Hashtbl.find idx v)) es in
    let p = Graph.Builder.of_edges ~labels es' in
    if Bfs.is_connected p then begin
      let k = Canon.key p in
      if not (Hashtbl.mem keys k) then begin
        Hashtbl.add keys k ();
        Hashtbl.add patterns k p
      end
    end
  in
  let rec choose i chosen size =
    if size > 0 && size <= max_edges then consider chosen;
    if i < m && size < max_edges then begin
      choose (i + 1) (i :: chosen) (size + 1);
      choose (i + 1) chosen size
    end
  in
  choose 0 [] 0;
  patterns

let result_keys (outcome : Engine.outcome) =
  List.map (fun r -> Canon.key r.Engine.pattern) outcome.Engine.results
  |> List.sort_uniq String.compare

(* --- Transaction setting --- *)

let test_gspan_single_edge_db () =
  let e01 = Pattern.singleton_edge 0 1 in
  let e02 = Pattern.singleton_edge 0 2 in
  let db = [ e01; e01; e02 ] in
  let out = Gspan.mine ~db ~sigma:2 () in
  check "one frequent pattern" 1 (List.length out.Engine.results);
  let r = List.hd out.Engine.results in
  check "its support" 2 r.Engine.support;
  check_bool "complete" true out.Engine.complete

let test_gspan_completeness_vs_brute_force () =
  let st = Gen.rng 2024 in
  for trial = 1 to 8 do
    let db =
      List.init 4 (fun i ->
          Gen.erdos_renyi st ~n:(5 + ((trial + i) mod 3)) ~avg_degree:2.2
            ~num_labels:2)
    in
    let max_edges = 4 in
    let sigma = 2 in
    let out = Gspan.mine ~max_edges ~db ~sigma () in
    check_bool "run complete" true out.Engine.complete;
    (* Reference: union of per-graph subgraph patterns, supported by
       counting containing graphs. *)
    let per_graph = List.map (fun g -> connected_subgraph_keys g ~max_edges) db in
    let union = Hashtbl.create 64 in
    List.iter
      (fun tbl -> Hashtbl.iter (fun k p -> Hashtbl.replace union k p) tbl)
      per_graph;
    let expected =
      Hashtbl.fold
        (fun k p acc ->
          let support =
            List.fold_left
              (fun c g ->
                if Plan.exists (Plan.compile ~freq:(Graph.label_freq g) p) ~target:g
                then c + 1
                else c)
              0 db
          in
          if support >= sigma then k :: acc else acc)
        union []
      |> List.sort_uniq String.compare
    in
    Alcotest.(check (list string))
      (Printf.sprintf "trial %d matches brute force" trial)
      expected (result_keys out)
  done

let test_gspan_unique_generation () =
  let st = Gen.rng 77 in
  let db = List.init 3 (fun _ -> Gen.erdos_renyi st ~n:7 ~avg_degree:2.5 ~num_labels:2) in
  let out = Gspan.mine ~max_edges:4 ~db ~sigma:1 () in
  let keys = List.map (fun r -> Canon.key r.Engine.pattern) out.Engine.results in
  check "no duplicate patterns" (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let test_gspan_support_values () =
  (* db: triangle(0,0,0) x2, path(0,0,0) x1. Path embeds in triangles too. *)
  let tri = Graph.Builder.of_edges ~labels:[| 0; 0; 0 |] [ (0, 1); (1, 2); (0, 2) ] in
  let path = Pattern.of_path_labels [| 0; 0; 0 |] in
  let db = [ tri; tri; path ] in
  let out = Gspan.mine ~db ~sigma:2 () in
  let find key =
    List.find_opt (fun r -> String.equal (Canon.key r.Engine.pattern) key) out.Engine.results
  in
  (match find (Canon.key path) with
  | Some r -> check "path support 3" 3 r.Engine.support
  | None -> Alcotest.fail "path not found");
  match find (Canon.key tri) with
  | Some r -> check "triangle support 2" 2 r.Engine.support
  | None -> Alcotest.fail "triangle not found"

let test_gspan_caps () =
  let st = Gen.rng 5 in
  let db = [ Gen.erdos_renyi st ~n:12 ~avg_degree:3.0 ~num_labels:1 ] in
  let out = Gspan.mine ~max_patterns:3 ~db ~sigma:1 () in
  check_bool "truncated" false out.Engine.complete;
  check "respects cap" 3 (List.length out.Engine.results);
  let out2 = Gspan.mine ~max_edges:2 ~db ~sigma:1 () in
  check_bool "size-capped is complete" true
    (List.for_all (fun r -> Pattern.size r.Engine.pattern <= 2) out2.Engine.results)

(* --- Single graph (MoSS) --- *)

let test_moss_sigma1_equals_enumeration () =
  let st = Gen.rng 99 in
  let g = Gen.erdos_renyi st ~n:7 ~avg_degree:2.0 ~num_labels:2 in
  let max_edges = 3 in
  let out = Moss.mine ~max_edges ~graph:g ~sigma:1 () in
  let expected =
    connected_subgraph_keys g ~max_edges
    |> fun tbl ->
    Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort_uniq String.compare
  in
  Alcotest.(check (list string)) "sigma=1 complete" expected (result_keys out)

let test_moss_embedding_count_support () =
  (* Star with 3 same-label leaves: edge pattern support = 3 subgraphs. *)
  let star = Gen.star_graph ~center:0 [| 1; 1; 1 |] in
  let out = Moss.mine ~graph:star ~sigma:3 () in
  (* Only the edge (0)-(1) reaches support 3 (each 2-edge path has 3
     embeddings too: chooses 2 of 3 leaves). *)
  let sizes =
    List.map (fun r -> (Pattern.size r.Engine.pattern, r.Engine.support)) out.Engine.results
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "patterns with support"
    [ (1, 3); (2, 3) ] sizes

let test_moss_mni_measure () =
  let star = Gen.star_graph ~center:0 [| 1; 1; 1 |] in
  let out = Moss.mine ~measure:Engine.Mni ~graph:star ~sigma:2 () in
  (* MNI of the edge pattern is min(1, 3) = 1 < 2: nothing is frequent. *)
  check "mni prunes" 0 (List.length out.Engine.results)

let test_moss_finds_injected_pattern () =
  let st = Gen.rng 31 in
  let bg = Gen.erdos_renyi st ~n:40 ~avg_degree:1.5 ~num_labels:6 in
  let b = Graph.Builder.of_graph bg in
  let pat = Pattern.of_path_labels [| 3; 4; 5; 3 |] in
  ignore (Gen.inject st b ~pattern:pat ~copies:3 ());
  let g = Graph.Builder.freeze b in
  let out = Moss.mine ~max_edges:3 ~graph:g ~sigma:3 () in
  check_bool "injected pattern found" true
    (List.exists (fun r -> Canon.iso r.Engine.pattern pat) out.Engine.results)

let prop_gspan_patterns_are_frequent =
  QCheck.Test.make ~name:"every reported pattern really meets its support"
    ~count:15
    QCheck.(int_range 4 7)
    (fun n ->
      let st = Gen.rng (n * 3) in
      let db = List.init 3 (fun _ -> Gen.erdos_renyi st ~n ~avg_degree:2.0 ~num_labels:2) in
      let out = Gspan.mine ~max_edges:3 ~db ~sigma:2 () in
      List.for_all
        (fun r ->
          Support.transaction r.Engine.pattern db = r.Engine.support
          && r.Engine.support >= 2)
        out.Engine.results)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "gspan"
    [
      ( "gspan",
        [
          Alcotest.test_case "single edge db" `Quick test_gspan_single_edge_db;
          Alcotest.test_case "completeness vs brute force" `Slow
            test_gspan_completeness_vs_brute_force;
          Alcotest.test_case "unique generation" `Quick test_gspan_unique_generation;
          Alcotest.test_case "support values" `Quick test_gspan_support_values;
          Alcotest.test_case "caps" `Quick test_gspan_caps;
        ] );
      ( "moss",
        [
          Alcotest.test_case "sigma=1 equals enumeration" `Quick
            test_moss_sigma1_equals_enumeration;
          Alcotest.test_case "embedding-count support" `Quick
            test_moss_embedding_count_support;
          Alcotest.test_case "mni measure" `Quick test_moss_mni_measure;
          Alcotest.test_case "finds injected pattern" `Quick
            test_moss_finds_injected_pattern;
        ] );
      qsuite "props" [ prop_gspan_patterns_are_frequent ];
    ]
