(* Bechamel micro-benchmarks: one Test per reproduced table/figure workload,
   timing the core operation that experiment stresses, plus a "csr" family
   probing the graph substrate itself (has_edge, full vs label-filtered
   neighbor enumeration, subiso) across label-universe sizes. Results are
   printed as a table and re-emitted as one JSON line for machine diffing. *)

open Bechamel
open Toolkit
open Spm_graph
open Spm_core
open Spm_workload

let make_graph ~seed ~n ~deg ~f =
  let st = Gen.rng seed in
  let bg = Gen.erdos_renyi st ~n ~avg_degree:deg ~num_labels:f in
  let b = Graph.Builder.of_graph bg in
  let p = Gen.random_skinny_pattern st ~backbone:5 ~delta:1 ~twigs:2 ~num_labels:f in
  ignore (Gen.inject st b ~pattern:p ~copies:2 ());
  Graph.Builder.freeze b

(* Substrate probes. Each workload touches every vertex so the numbers track
   the whole graph, not one lucky cache line. *)

let has_edge_workload g =
  let n = Graph.n g in
  let hits = ref 0 in
  for u = 0 to n - 1 do
    let v = (u * 7919 + 13) mod n in
    if Graph.has_edge g u v then incr hits
  done;
  !hits

(* Old-style enumeration: scan the full neighbor run and test labels. *)
let full_scan_workload g lbl =
  let count = ref 0 in
  Graph.iter_vertices
    (fun v ->
      Graph.iter_adj g v (fun w -> if Graph.label g w = lbl then incr count))
    g;
  !count

(* CSR label-range enumeration of the same quantity. *)
let label_filtered_workload g lbl =
  let count = ref 0 in
  Graph.iter_vertices (fun v -> Graph.adj_with_label g v lbl (fun _ -> incr count)) g;
  !count

let csr_tests =
  let mk_family f =
    (* Dense enough that a neighbor run holds many labels: that's the regime
       the label-range index targets (on sparse runs a full scan is fine). *)
    let g = make_graph ~seed:29 ~n:400 ~deg:16.0 ~f in
    let pattern =
      Gen.random_skinny_pattern (Gen.rng 31) ~backbone:3 ~delta:1 ~twigs:1
        ~num_labels:f
    in
    [
      Test.make
        ~name:(Printf.sprintf "csr/has-edge-f%d" f)
        (Staged.stage (fun () -> has_edge_workload g));
      Test.make
        ~name:(Printf.sprintf "csr/full-scan-f%d" f)
        (Staged.stage (fun () -> full_scan_workload g 0));
      Test.make
        ~name:(Printf.sprintf "csr/label-filtered-f%d" f)
        (Staged.stage (fun () -> label_filtered_workload g 0));
      Test.make
        ~name:(Printf.sprintf "csr/subiso-count-f%d" f)
        (Staged.stage (fun () ->
             Spm_pattern.Plan.count_mappings ~limit:10_000
               (Spm_pattern.Plan.compile ~freq:(Graph.label_freq g) pattern)
               ~target:g));
    ]
  in
  mk_family 10 @ mk_family 50

let tests ~scale =
  let g = make_graph ~seed:11 ~n:120 ~deg:2.0 ~f:30 in
  let gid1 = (Settings.gid ~scale:(min scale 0.2) ~seed:5 1).Settings.graph in
  let small_pattern = Gen.random_skinny_pattern (Gen.rng 3) ~backbone:4 ~delta:1 ~twigs:2 ~num_labels:5 in
  [
    Test.make ~name:"fig4-8/skinnymine-gid1"
      (Staged.stage (fun () ->
           Skinny_mine.mine
             ~config:{ Skinny_mine.Config.default with closed_growth = true }
             gid1 ~l:4 ~delta:2 ~sigma:2));
    Test.make ~name:"fig16/diam-mine-l5"
      (Staged.stage (fun () -> Diam_mine.mine g ~l:5 ~sigma:2));
    Test.make ~name:"fig17/level-grow-l5-d2"
      (Staged.stage (fun () -> Skinny_mine.mine g ~l:5 ~delta:2 ~sigma:2));
    Test.make ~name:"fig20/canonical-diameter"
      (Staged.stage (fun () -> Canonical_diameter.compute small_pattern));
    Test.make ~name:"fig20/min-dfs-code"
      (Staged.stage (fun () -> Spm_pattern.Dfs_code.min_code small_pattern));
    Test.make ~name:"fig14/diameter-index-build"
      (Staged.stage (fun () -> Diameter_index.build g ~sigma:2 ~l_max:5));
  ]
  @ csr_tests

let run ~scale () =
  Util.section "Bechamel micro-benchmarks (monotonic clock, ns/run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:10 ~quota:(Time.second 0.25) ~stabilize:false
      ~start:1 ()
  in
  let collected = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some [ x ] ->
              collected := (name, x) :: !collected;
              Printf.sprintf "%12.0f ns/run" x
            | _ -> "(no estimate)"
          in
          Printf.printf "  %-32s %s\n" name est)
        results)
    (tests ~scale);
  (* One machine-readable line with every estimate, for cross-run diffing. *)
  let json =
    List.rev !collected
    |> List.map (fun (name, ns) -> Printf.sprintf "{\"name\":%S,\"ns_per_run\":%.0f}" name ns)
    |> String.concat ","
  in
  Printf.printf "  micro-json: [%s]\n" json
