(* Tests for the pattern substrate: extension, subgraph isomorphism,
   matching plans (automorphisms, symmetry-broken enumeration),
   embeddings-as-subgraphs, support measures, DFS codes, canonical keys. *)

open Spm_graph
open Spm_pattern
module Run = Spm_engine.Run

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let triangle la lb lc =
  Graph.Builder.of_edges ~labels:[| la; lb; lc |] [ (0, 1); (1, 2); (0, 2) ]

(* --- Pattern building --- *)

let test_singleton_edge () =
  let p = Pattern.singleton_edge 3 5 in
  check "order" 2 (Pattern.order p);
  check "size" 1 (Pattern.size p);
  check "la" 3 (Graph.label p 0);
  check "lb" 5 (Graph.label p 1)

let test_extensions () =
  let p = Pattern.singleton_edge 0 1 in
  let p = Pattern.extend_new_vertex p ~host:1 ~label:2 in
  check "size after fwd" 2 (Pattern.size p);
  check "order after fwd" 3 (Pattern.order p);
  let p = Pattern.extend_close_edge p 0 2 in
  check "size after close" 3 (Pattern.size p);
  Alcotest.check_raises "existing edge"
    (Invalid_argument "Pattern.extend_close_edge: edge exists") (fun () ->
      ignore (Pattern.extend_close_edge p 0 1))

(* --- Subgraph isomorphism through plans --- *)

(* A plan compiled against [target]'s label frequencies: the one-shot way
   to ask for mappings of [pattern] in [target]. *)
let plan_for pattern target =
  Plan.compile ~freq:(Graph.label_freq target) pattern

let test_subiso_triangle_in_k4 () =
  (* K4 uniform label contains C(4,3) = 4 triangles, 6 mappings each. *)
  let k4 =
    Graph.Builder.of_edges ~labels:[| 0; 0; 0; 0 |]
      [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
  in
  let tri = triangle 0 0 0 in
  check "mappings" 24
    (List.length (Plan.all_mappings (plan_for tri k4) ~target:k4));
  check "distinct subgraphs" 4 (Support.single_graph tri k4)

let test_subiso_label_mismatch () =
  let tri = triangle 0 1 2 in
  let k3 = triangle 0 1 1 in
  check_bool "no embedding" false (Plan.exists (plan_for tri k3) ~target:k3);
  check_bool "self embedding" true (Plan.exists (plan_for tri tri) ~target:tri)

let test_subiso_non_induced () =
  (* Path 0-1-2 embeds into a triangle even though the triangle has the
     extra closing edge (embeddings are not induced). *)
  let path = Pattern.of_path_labels [| 0; 0; 0 |] in
  let tri = triangle 0 0 0 in
  check_bool "non-induced ok" true
    (Plan.exists (plan_for path tri) ~target:tri);
  (* 3 distinct subgraphs: each pair of triangle edges. *)
  check "path subgraphs in triangle" 3 (Support.single_graph path tri)

let test_subiso_anchored () =
  let path = Pattern.of_path_labels [| 0; 1 |] in
  let g = Graph.Builder.of_edges ~labels:[| 0; 1; 0; 1 |] [ (0, 1); (2, 3); (1, 2) ] in
  (* Vertex 2 (label 0) has two label-1 neighbors: 1 and 3. *)
  let plan = plan_for path g in
  let hits = ref 0 in
  Plan.iter_anchored plan ~target:g ~anchor:(0, 2) (fun m ->
      incr hits;
      check "anchor respected" 2 m.(0));
  check "anchored count" 2 !hits;
  (* Anchoring vertex 1 (the label-1 end) on data vertex 3 leaves one map. *)
  let hits = ref 0 in
  Plan.iter_anchored plan ~target:g ~anchor:(1, 3) (fun m ->
      incr hits;
      check "anchor respected b" 3 m.(1));
  check "anchored count b" 1 !hits

let test_count_limit () =
  let k4 =
    Graph.Builder.of_edges ~labels:[| 0; 0; 0; 0 |]
      [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
  in
  let tri = triangle 0 0 0 in
  check "limit" 5 (Plan.count_mappings ~limit:5 (plan_for tri k4) ~target:k4)

(* Brute-force reference matcher: try all injective vertex maps. *)
let brute_force_mappings ~pattern ~target =
  let np = Graph.n pattern and nt = Graph.n target in
  let out = ref [] in
  let map = Array.make np (-1) in
  let used = Array.make nt false in
  let ok_sofar pv =
    Graph.label target map.(pv) = Graph.label pattern pv
    && Array.for_all
         (fun w -> map.(w) < 0 || Graph.has_edge target map.(pv) map.(w))
         (Graph.adj pattern pv)
  in
  let rec go pv =
    if pv = np then out := Array.copy map :: !out
    else
      for tv = 0 to nt - 1 do
        if not used.(tv) then begin
          map.(pv) <- tv;
          used.(tv) <- true;
          if ok_sofar pv then go (pv + 1);
          used.(tv) <- false;
          map.(pv) <- -1
        end
      done
  in
  go 0;
  !out

let sort_mappings ms = List.sort compare (List.map Array.to_list ms)

let prop_subiso_matches_brute_force =
  QCheck.Test.make ~name:"subiso equals brute force on random instances"
    ~count:60
    QCheck.(pair (int_range 2 7) (int_range 4 9))
    (fun (np, nt) ->
      let seed = (np * 100) + nt in
      let pattern = Gen_qcheck.connected ~seed ~n:np ~extra_edges:1 ~num_labels:2 in
      let target = Gen_qcheck.er ~seed:(seed + 1) ~n:nt ~avg_degree:3.0 ~num_labels:2 in
      sort_mappings (Plan.all_mappings (plan_for pattern target) ~target)
      = sort_mappings (brute_force_mappings ~pattern ~target))

(* --- Embeddings as subgraphs --- *)

(* The identity of a mapping's image subgraph: the sorted image edge set,
   each edge packed as [u * data_n + v] with [u < v]. The paper counts
   embeddings as subgraphs (§2), so two mappings with the same image have
   equal keys. *)
let key_of_mapping ~data_n ~pattern m =
  let key =
    Array.of_list
      (List.map
         (fun (pu, pv) ->
           let u = m.(pu) and v = m.(pv) in
           (min u v * data_n) + max u v)
         (Graph.edges pattern))
  in
  Array.sort Int.compare key;
  key

let test_embedding_key () =
  let path = Pattern.of_path_labels [| 0; 0; 0 |] in
  (* Data path 0-1-2 has one subgraph but two mappings (both directions). *)
  let g = Pattern.of_path_labels [| 0; 0; 0 |] in
  let ms = Plan.all_mappings (plan_for path g) ~target:g in
  check "two mappings" 2 (List.length ms);
  let keys = List.map (key_of_mapping ~data_n:(Graph.n g) ~pattern:path) ms in
  check "one subgraph" 1 (List.length (List.sort_uniq compare keys));
  (* The plan executor visits that subgraph exactly once, no dedup. *)
  check "plan count" 1 (Plan.count (Plan.compile path) ~target:g)

let test_key_equality () =
  let path = Pattern.of_path_labels [| 0; 0 |] in
  let k1 = key_of_mapping ~data_n:10 ~pattern:path [| 1; 2 |] in
  let k2 = key_of_mapping ~data_n:10 ~pattern:path [| 2; 1 |] in
  check_bool "reversed image equal" true (k1 = k2);
  check "compare agrees" 0 (compare k1 k2)

(* --- Plans --- *)

let k_n n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.Builder.of_edges ~labels:(Array.make n 0) !edges

let test_plan_aut_orbits () =
  let aut p = Plan.aut_count (Plan.compile p) in
  check "labeled path" 1 (aut (Pattern.of_path_labels [| 0; 1; 2 |]));
  check "palindrome path" 2 (aut (Pattern.of_path_labels [| 0; 1; 0 |]));
  check "star K1,3" 6 (aut (Gen.star_graph ~center:5 [| 1; 1; 1 |]));
  check "triangle" 6 (aut (triangle 0 0 0));
  check "square C4" 8 (aut (Gen.cycle_graph [| 0; 0; 0; 0 |]));
  check "count shortcut" 6 (Plan.automorphism_count (triangle 0 0 0));
  (* Palindrome path: one orbit {0,2}; the chain emits exactly m(0) < m(2). *)
  Alcotest.(check (list (pair int int)))
    "palindrome constraints" [ (0, 2) ]
    (Plan.constraints (Plan.compile (Pattern.of_path_labels [| 0; 1; 0 |])));
  check_bool "asymmetric pattern has no constraints" true
    (Plan.constraints (Plan.compile (Pattern.of_path_labels [| 0; 1; 2 |])) = [])

let test_plan_exactly_once () =
  let k4 = k_n 4 in
  let tri = triangle 0 0 0 in
  let plan = Plan.compile tri in
  let keys = ref [] in
  Plan.enumerate plan ~target:k4 (fun m ->
      keys := key_of_mapping ~data_n:4 ~pattern:tri m :: !keys);
  check "4 images" 4 (List.length !keys);
  check "no image repeated" 4 (List.length (List.sort_uniq compare !keys));
  check "count" 4 (Plan.count plan ~target:k4);
  check "count_mappings = count * |Aut|" 24 (Plan.count_mappings plan ~target:k4);
  check "all_mappings" 24 (List.length (Plan.all_mappings plan ~target:k4))

let test_plan_count_up_to_early_exit () =
  let k5 = k_n 5 in
  let tri = triangle 0 0 0 in
  let plan = Plan.compile tri in
  let full = ref 0 and early = ref 0 in
  check "K5 triangles" 10 (Plan.count ~nodes:full plan ~target:k5);
  check "early count" 1 (Plan.count_up_to ~nodes:early plan ~target:k5 1);
  check_bool
    (Printf.sprintf "early exit visits strictly fewer nodes (%d < %d)" !early
       !full)
    true (!early < !full)

let test_plan_exists_from () =
  let path = Pattern.of_path_labels [| 0; 1 |] in
  let g =
    Graph.Builder.of_edges ~labels:[| 0; 1; 0; 1 |] [ (0, 1); (2, 3); (1, 2) ]
  in
  let plan = Plan.compile path in
  check_bool "anchored hit" true (Plan.exists_from plan ~target:g ~anchor:(0, 2));
  check_bool "label mismatch" false
    (Plan.exists_from plan ~target:g ~anchor:(0, 1));
  check_bool "anchored other end" true
    (Plan.exists_from plan ~target:g ~anchor:(1, 3))

(* The executor polls [run] at vertex-extension granularity: an already
   expired deadline must cancel the very first placement attempt. *)
let test_plan_zero_deadline () =
  let st = Gen.rng 77 in
  let g = Gen.erdos_renyi st ~n:2000 ~avg_degree:3.0 ~num_labels:2 in
  let p = Pattern.of_path_labels [| 0; 1; 0 |] in
  let run = Run.create ~timeout:0.0 () in
  match Support.single_graph ~run p g with
  | _ -> Alcotest.fail "expected Run.Cancelled"
  | exception Run.Cancelled (Run.Timeout, _) -> ()

(* Legacy MNI: image sets per pattern vertex over the full mapping set. *)
let naive_mni p g =
  let np = Graph.n p in
  let images = Array.init np (fun _ -> Hashtbl.create 16) in
  Plan.iter_all (plan_for p g) ~target:g (fun m ->
      Array.iteri (fun pv tv -> Hashtbl.replace images.(pv) tv ()) m);
  Array.fold_left (fun acc h -> min acc (Hashtbl.length h)) max_int images
  |> fun x -> if x = max_int then 0 else x

(* Pin: the automorphism-expanded MNI equals the per-call hash-table
   implementation it replaced, on patterns actually mined from the
   differential corpus. *)
let test_mni_corpus_pin () =
  let items =
    List.filteri (fun i _ -> i < 4) (Spm_oracle.Corpus.builtin ())
  in
  let checked = ref 0 in
  List.iter
    (fun (item : Spm_oracle.Corpus.item) ->
      let g = item.graph in
      let r =
        Spm_core.Skinny_mine.mine g ~l:item.l ~delta:item.delta
          ~sigma:item.sigma
      in
      List.iteri
        (fun i (m : Spm_core.Skinny_mine.mined) ->
          if i < 6 then begin
            incr checked;
            check
              (Printf.sprintf "mni unchanged (%s #%d)" item.name i)
              (naive_mni m.pattern g) (Support.mni m.pattern g)
          end)
        r.Spm_core.Skinny_mine.patterns)
    items;
  check_bool "pinned at least one pattern" true (!checked > 0)

let prop_plan_matches_dedup_backtrack =
  QCheck.Test.make
    ~name:"plan enumeration equals deduped backtracking and brute count"
    ~count:60
    QCheck.(pair (int_range 2 7) (int_range 4 9))
    (fun (np, nt) ->
      let seed = (np * 131) + nt in
      let pattern =
        Gen_qcheck.connected ~seed ~n:np ~extra_edges:1 ~num_labels:2
      in
      let target =
        Gen_qcheck.er ~seed:(seed + 1) ~n:nt ~avg_degree:3.0 ~num_labels:2
      in
      let data_n = Graph.n target in
      let image_keys ms =
        List.sort compare (List.map (key_of_mapping ~data_n ~pattern) ms)
      in
      let plan = plan_for pattern target in
      let plan_keys =
        let acc = ref [] in
        Plan.enumerate plan ~target (fun m -> acc := Array.copy m :: !acc);
        image_keys !acc
      in
      let legacy_keys =
        List.sort_uniq compare
          (List.map
             (key_of_mapping ~data_n ~pattern)
             (brute_force_mappings ~pattern ~target))
      in
      plan_keys = legacy_keys
      && List.length plan_keys
         = Spm_oracle.Brute.count_embeddings
             (Spm_oracle.Brute.of_pattern pattern)
             target)

(* --- Support --- *)

let test_transaction_support () =
  let p = Pattern.of_path_labels [| 0; 1 |] in
  let has = Graph.Builder.of_edges ~labels:[| 0; 1 |] [ (0, 1) ] in
  let hasnot = Graph.Builder.of_edges ~labels:[| 0; 0 |] [ (0, 1) ] in
  check "support" 2 (Support.transaction p [ has; hasnot; has ]);
  check_bool "frequent at 2" true
    (Support.is_frequent_transaction p [ has; hasnot; has ] ~sigma:2);
  check_bool "not frequent at 3" false
    (Support.is_frequent_transaction p [ has; hasnot; has ] ~sigma:3)

let test_mni_support () =
  (* Star center 0 with 3 leaves label 1: edge pattern (0)-(1) has MNI
     min(1 center, 3 leaves) = 1, embedding count 3. *)
  let star = Gen.star_graph ~center:0 [| 1; 1; 1 |] in
  let p = Pattern.singleton_edge 0 1 in
  check "embedding count" 3 (Support.single_graph p star);
  check "mni" 1 (Support.mni p star)

let test_single_graph_limit () =
  let star = Gen.star_graph ~center:0 [| 1; 1; 1; 1; 1 |] in
  let p = Pattern.singleton_edge 0 1 in
  check "limited" 2 (Support.single_graph ~limit:2 p star);
  check_bool "frequent 5" true (Support.is_frequent_single p star ~sigma:5);
  check_bool "not frequent 6" false (Support.is_frequent_single p star ~sigma:6)

(* --- DFS codes --- *)

let test_min_code_edge () =
  let p = Pattern.singleton_edge 1 0 in
  let code = Dfs_code.min_code p in
  check "one edge" 1 (Array.length code);
  let e = code.(0) in
  check "li min" 0 e.Dfs_code.li;
  check "lj" 1 e.Dfs_code.lj

let test_min_code_path_orientation () =
  (* Path labels 2-0-1: min code must start at the cheaper end orientation:
     starting vertex label 0 (the middle), the smallest starting label. *)
  let p = Pattern.of_path_labels [| 2; 0; 1 |] in
  let code = Dfs_code.min_code p in
  check "starts at label 0" 0 code.(0).Dfs_code.li

let test_min_code_invariance_small () =
  let p = triangle 0 1 2 in
  (* Same triangle, different vertex numbering. *)
  let q = Graph.Builder.of_edges ~labels:[| 2; 0; 1 |] [ (0, 1); (1, 2); (0, 2) ] in
  check_bool "codes equal" true (Dfs_code.equal (Dfs_code.min_code p) (Dfs_code.min_code q))

let test_graph_of_code_roundtrip () =
  let p = triangle 0 1 1 in
  let code = Dfs_code.min_code p in
  let p' = Dfs_code.graph_of_code code in
  check_bool "roundtrip iso" true (Canon.iso p p');
  check_bool "code is min" true (Dfs_code.is_min code)

let test_rightmost_path () =
  let p = Pattern.of_path_labels [| 0; 1; 2 |] in
  let code = Dfs_code.min_code p in
  (* Path code: 0 -> 1 -> 2; rightmost path is [2; 1; 0]. *)
  Alcotest.(check (list int)) "rm path" [ 2; 1; 0 ] (Dfs_code.rightmost_path code)

let test_slots () =
  let sq = Gen.cycle_graph [| 0; 0; 0; 0 |] in
  let code = Dfs_code.min_code sq in
  check "cycle code len" 4 (Array.length code);
  (* C4 as a code 0-1-2-3 plus backward (3,0): the one remaining backward
     slot is the chord (3,1). *)
  Alcotest.(check (list (pair int int))) "chord slot" [ (3, 1) ]
    (Dfs_code.backward_slots code);
  let path = Pattern.of_path_labels [| 0; 0; 0 |] in
  let pcode = Dfs_code.min_code path in
  check_bool "path has backward slot" true (Dfs_code.backward_slots pcode <> [])

(* Random relabeling/permutation invariance — the crux of canonicalization.
   Instances and permutations come from the shared seeded generator
   ([Gen_qcheck]), so a failing (n, extra) pair reproduces byte-identically
   across suites. *)
let prop_min_code_permutation_invariant =
  QCheck.Test.make ~name:"min code invariant under vertex permutation" ~count:80
    QCheck.(pair (int_range 2 8) (int_range 0 3))
    (fun (n, extra) ->
      let seed = (n * 37) + extra in
      let g = Gen_qcheck.connected ~seed ~n ~extra_edges:extra ~num_labels:3 in
      let g', _ = Gen_qcheck.permute_graph ~seed:(seed + 1) g in
      Dfs_code.equal (Dfs_code.min_code g) (Dfs_code.min_code g'))

let prop_min_code_distinguishes =
  QCheck.Test.make ~name:"different label multisets give different codes" ~count:40
    QCheck.(int_range 2 7)
    (fun n ->
      let g = Gen_qcheck.connected ~seed:(n * 13) ~n ~extra_edges:1 ~num_labels:2 in
      let labels = Array.copy (Graph.labels g) in
      labels.(0) <- labels.(0) + 10;
      let g' = Graph.Builder.of_edges ~labels (Graph.edges g) in
      not (Dfs_code.equal (Dfs_code.min_code g) (Dfs_code.min_code g')))

let prop_is_min_of_min =
  QCheck.Test.make ~name:"min_code is accepted by is_min" ~count:50
    QCheck.(pair (int_range 2 7) (int_range 0 4))
    (fun (n, extra) ->
      let seed = (n * 91) + extra in
      let g = Gen_qcheck.connected ~seed ~n ~extra_edges:extra ~num_labels:3 in
      Dfs_code.is_min (Dfs_code.min_code g))

(* --- Canon --- *)

let test_canon_iso_positive () =
  let p = triangle 0 1 2 in
  let q = Graph.Builder.of_edges ~labels:[| 1; 2; 0 |] [ (0, 1); (1, 2); (0, 2) ] in
  check_bool "triangles iso" true (Canon.iso p q)

let test_canon_iso_negative () =
  let tri = triangle 0 0 0 in
  let path = Pattern.of_path_labels [| 0; 0; 0 |] in
  check_bool "triangle vs path" false (Canon.iso tri path)

let test_canon_single_vertex () =
  let v0 = Graph.Builder.of_edges ~labels:[| 4 |] [] in
  let v0' = Graph.Builder.of_edges ~labels:[| 4 |] [] in
  let v1 = Graph.Builder.of_edges ~labels:[| 5 |] [] in
  check_bool "same" true (Canon.iso v0 v0');
  check_bool "diff" false (Canon.iso v0 v1)

let test_canon_disconnected () =
  let two_edges a b =
    Graph.Builder.of_edges ~labels:[| a; a; b; b |] [ (0, 1); (2, 3) ]
  in
  check_bool "disconnected iso" true (Canon.iso (two_edges 0 1) (two_edges 1 0));
  check_bool "disconnected not iso" false (Canon.iso (two_edges 0 0) (two_edges 0 1))

let test_canon_set () =
  let s = Canon.Set.create () in
  check_bool "add tri" true (Canon.Set.add s (triangle 0 1 2));
  check_bool "iso rejected" false
    (Canon.Set.add s (Graph.Builder.of_edges ~labels:[| 2; 0; 1 |] [ (0, 1); (1, 2); (0, 2) ]));
  check_bool "path added" true (Canon.Set.add s (Pattern.of_path_labels [| 0; 1; 2 |]));
  check "cardinal" 2 (Canon.Set.cardinal s);
  check "to_list" 2 (List.length (Canon.Set.to_list s))

let prop_canon_permutation_stable =
  QCheck.Test.make ~name:"canonical key invariant under permutation" ~count:60
    QCheck.(pair (int_range 2 8) (int_range 0 4))
    (fun (n, extra) ->
      let seed = (n * 53) + extra + 7 in
      let g = Gen_qcheck.connected ~seed ~n ~extra_edges:extra ~num_labels:3 in
      let g', _ = Gen_qcheck.permute_graph ~seed:(seed + 1) g in
      String.equal (Canon.key g) (Canon.key g'))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "pattern"
    [
      ( "pattern",
        [
          Alcotest.test_case "singleton edge" `Quick test_singleton_edge;
          Alcotest.test_case "extensions" `Quick test_extensions;
        ] );
      ( "subiso",
        [
          Alcotest.test_case "triangles in K4" `Quick test_subiso_triangle_in_k4;
          Alcotest.test_case "label mismatch" `Quick test_subiso_label_mismatch;
          Alcotest.test_case "non-induced" `Quick test_subiso_non_induced;
          Alcotest.test_case "anchored" `Quick test_subiso_anchored;
          Alcotest.test_case "count limit" `Quick test_count_limit;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "subgraph identity" `Quick test_embedding_key;
          Alcotest.test_case "key equality" `Quick test_key_equality;
        ] );
      ( "plan",
        [
          Alcotest.test_case "automorphism orbits" `Quick test_plan_aut_orbits;
          Alcotest.test_case "exactly-once enumeration" `Quick
            test_plan_exactly_once;
          Alcotest.test_case "count_up_to early exit" `Quick
            test_plan_count_up_to_early_exit;
          Alcotest.test_case "anchored existence" `Quick test_plan_exists_from;
          Alcotest.test_case "zero deadline cancels" `Quick
            test_plan_zero_deadline;
          Alcotest.test_case "mni corpus pin" `Quick test_mni_corpus_pin;
          QCheck_alcotest.to_alcotest prop_plan_matches_dedup_backtrack;
        ] );
      ( "support",
        [
          Alcotest.test_case "transaction" `Quick test_transaction_support;
          Alcotest.test_case "mni vs embeddings" `Quick test_mni_support;
          Alcotest.test_case "limit and thresholds" `Quick test_single_graph_limit;
        ] );
      ( "dfs_code",
        [
          Alcotest.test_case "single edge" `Quick test_min_code_edge;
          Alcotest.test_case "path orientation" `Quick test_min_code_path_orientation;
          Alcotest.test_case "invariance small" `Quick test_min_code_invariance_small;
          Alcotest.test_case "graph_of_code roundtrip" `Quick test_graph_of_code_roundtrip;
          Alcotest.test_case "rightmost path" `Quick test_rightmost_path;
          Alcotest.test_case "extension slots" `Quick test_slots;
        ] );
      ( "canon",
        [
          Alcotest.test_case "iso positive" `Quick test_canon_iso_positive;
          Alcotest.test_case "iso negative" `Quick test_canon_iso_negative;
          Alcotest.test_case "single vertex" `Quick test_canon_single_vertex;
          Alcotest.test_case "disconnected" `Quick test_canon_disconnected;
          Alcotest.test_case "set" `Quick test_canon_set;
        ] );
      qsuite "props"
        [
          prop_subiso_matches_brute_force;
          prop_min_code_permutation_invariant;
          prop_min_code_distinguishes;
          prop_is_min_of_min;
          prop_canon_permutation_stable;
        ];
    ]
