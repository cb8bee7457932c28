(* Tests for the workload generators: Table 1/3 settings, the transaction
   setup, and the DBLP-like / Weibo-like synthetic data. *)

open Spm_graph
open Spm_workload

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_gid_settings () =
  List.iter
    (fun g ->
      let d = Settings.gid ~scale:0.2 ~seed:7 g in
      check_bool "graph non-empty" true (Graph.n d.Settings.graph > 50);
      check "five long patterns" 5 (List.length d.Settings.long_patterns);
      List.iter
        (fun inj ->
          let p = inj.Settings.pattern in
          check_bool "injected long is skinny" true
            (Spm_core.Canonical_diameter.is_skinny p ~delta:2);
          check "placements = copies" inj.Settings.copies
            (Array.length inj.Settings.placements);
          (* Each placement is a genuine embedding. *)
          Array.iter
            (fun map ->
              Graph.iter_edges
                (fun u v ->
                  check_bool "edge placed" true
                    (Graph.has_edge d.Settings.graph map.(u) map.(v)))
                p)
            inj.Settings.placements)
        d.Settings.long_patterns)
    [ 1; 2; 3; 4; 5 ]

let test_gid_differences () =
  let d1 = Settings.gid ~scale:0.2 ~seed:3 1 in
  let d2 = Settings.gid ~scale:0.2 ~seed:3 2 in
  let avg_deg d =
    2.0 *. float_of_int (Graph.m d.Settings.graph)
    /. float_of_int (Graph.n d.Settings.graph)
  in
  check_bool "GID2 denser than GID1" true (avg_deg d2 > avg_deg d1 +. 0.5);
  let d5 = Settings.gid ~scale:0.2 ~seed:3 5 in
  check "GID5 has 20 short patterns" 20 (List.length d5.Settings.short_patterns)

let test_skinniness_probe () =
  let p = Settings.skinniness_probe ~scale:0.2 ~seed:5 () in
  check "ten pids" 10 (List.length p.Settings.pids);
  check "ten injected" 10 (List.length p.Settings.dataset.Settings.long_patterns);
  (* PIDs 1-5 have strictly decreasing diameters; 6-10 share a diameter. *)
  let diams = List.map (fun (_, _, d) -> d) p.Settings.pids in
  let first5 = List.filteri (fun i _ -> i < 5) diams in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  check_bool "decreasing skinniness" true (strictly_decreasing first5)

let test_transaction_setting () =
  let t = Settings.transaction_setting ~scale:0.1 ~extra_small:12 ~seed:11 () in
  check "ten transactions" 10 (List.length t.Settings.transactions);
  check "five long" 5 (List.length t.Settings.injected_long);
  check "extra small" 12 (List.length t.Settings.injected_small);
  (* Every long pattern appears in at least 5 transactions. *)
  List.iter
    (fun p ->
      let cnt = Spm_pattern.Support.transaction p t.Settings.transactions in
      check_bool "support >= 5" true (cnt >= 5))
    t.Settings.injected_long

let test_dblp_like () =
  let authors = Dblp_like.generate ~num_authors:30 ~seed:2 () in
  check "thirty authors" 30 (List.length authors);
  List.iter
    (fun a ->
      let tl = Dblp_like.timeline_of a in
      check "timeline length" a.Dblp_like.career_years (List.length tl);
      (* The timeline is a path: consecutive years adjacent. *)
      let arr = Array.of_list tl in
      for i = 0 to Array.length arr - 2 do
        check_bool "consecutive years adjacent" true
          (Graph.has_edge a.Dblp_like.graph arr.(i) arr.(i + 1))
      done;
      (* Collaboration nodes are leaves attached to years. *)
      Graph.iter_vertices
        (fun v ->
          if Graph.label a.Dblp_like.graph v <> Dblp_like.year_label then begin
            check "collab degree 1" 1 (Graph.degree a.Dblp_like.graph v);
            let nbr = (Graph.adj a.Dblp_like.graph v).(0) in
            check "attached to a year" Dblp_like.year_label
              (Graph.label a.Dblp_like.graph nbr)
          end)
        a.Dblp_like.graph)
    authors

let test_dblp_labels () =
  check "P3" 12 (Dblp_like.collab_label ~cls:'P' ~level:3);
  check "B1" 1 (Dblp_like.collab_label ~cls:'B' ~level:1);
  Alcotest.(check string) "name" "S2" (Dblp_like.label_name (Dblp_like.collab_label ~cls:'S' ~level:2));
  Alcotest.(check string) "year" "YEAR" (Dblp_like.label_name Dblp_like.year_label)

let test_weibo_like () =
  let convs = Weibo_like.generate ~num_conversations:10 ~size:60 ~seed:4 () in
  check "ten conversations" 10 (List.length convs);
  let motif = Weibo_like.diffusion_motif ~chain:13 in
  check_bool "motif is 13-long 3-skinny" true
    (Spm_core.Canonical_diameter.is_l_long_delta_skinny motif ~l:13 ~delta:3
    || Spm_core.Canonical_diameter.is_skinny motif ~delta:3);
  List.iter
    (fun c ->
      check_bool "conversation connected" true (Bfs.is_connected c.Weibo_like.graph);
      check "root label" Weibo_like.root_label
        (Graph.label c.Weibo_like.graph c.Weibo_like.root);
      if c.Weibo_like.has_motif then
        check_bool "motif embedded" true
          (let target = c.Weibo_like.graph in
           Spm_pattern.Plan.exists
             (Spm_pattern.Plan.compile ~freq:(Graph.label_freq target) motif)
             ~target))
    convs

let test_weibo_motif_frequency () =
  let convs = Weibo_like.generate ~num_conversations:10 ~size:50 ~motif_fraction:0.5 ~seed:6 () in
  let motif = Weibo_like.diffusion_motif ~chain:9 in
  ignore motif;
  let with_motif = List.filter (fun c -> c.Weibo_like.has_motif) convs in
  check "half carry the motif" 5 (List.length with_motif)

(* --- Byte determinism ---

   A fixed seed must reproduce each workload byte-for-byte (via the
   canonical Io text form): recorded experiment configs and the committed
   corpus both rely on generator output being a pure function of the
   seed. *)

let test_byte_determinism () =
  let gid_bytes () =
    let d = Settings.gid ~scale:0.15 ~seed:21 3 in
    Io.to_string d.Settings.graph
  in
  Alcotest.(check string) "gid bytes stable" (gid_bytes ()) (gid_bytes ());
  let dblp_bytes () =
    Dblp_like.generate ~num_authors:8 ~seed:22 ()
    |> List.map (fun a -> Io.to_string a.Dblp_like.graph)
    |> String.concat "\n"
  in
  Alcotest.(check string) "dblp bytes stable" (dblp_bytes ()) (dblp_bytes ());
  let weibo_bytes () =
    Weibo_like.generate ~num_conversations:4 ~size:40 ~seed:23 ()
    |> List.map (fun c -> Io.to_string c.Weibo_like.graph)
    |> String.concat "\n"
  in
  Alcotest.(check string) "weibo bytes stable" (weibo_bytes ()) (weibo_bytes ());
  let tx_bytes () =
    let t = Settings.transaction_setting ~scale:0.1 ~extra_small:3 ~seed:24 () in
    t.Settings.transactions |> List.map Io.to_string |> String.concat "\n"
  in
  Alcotest.(check string) "transaction bytes stable" (tx_bytes ()) (tx_bytes ())

(* --- key samplers (cluster load generator) --- *)

let draw_freqs sampler ~draws =
  let freqs = Array.make (Sampler.n sampler) 0 in
  for _ = 1 to draws do
    let k = Sampler.next sampler in
    check_bool "key in range" true (k >= 0 && k < Sampler.n sampler);
    freqs.(k) <- freqs.(k) + 1
  done;
  freqs

let test_sampler_determinism () =
  let seq s = List.init 200 (fun _ -> Sampler.next s) in
  Alcotest.(check (list int))
    "uniform sequence is a function of the seed"
    (seq (Sampler.uniform ~seed:42 ~n:100))
    (seq (Sampler.uniform ~seed:42 ~n:100));
  Alcotest.(check (list int))
    "zipf sequence is a function of the seed"
    (seq (Sampler.zipf ~s:1.1 ~seed:42 ~n:100 ()))
    (seq (Sampler.zipf ~s:1.1 ~seed:42 ~n:100 ()));
  check_bool "different seeds diverge" true
    (seq (Sampler.zipf ~seed:1 ~n:100 ()) <> seq (Sampler.zipf ~seed:2 ~n:100 ()))

let test_sampler_uniform_shape () =
  let freqs = draw_freqs (Sampler.uniform ~seed:9 ~n:10) ~draws:10_000 in
  (* Expected 1000 per key; 3-sigma is about +-95. Loose bounds: no key
     should stray past 25%. *)
  Array.iter
    (fun f -> check_bool "uniform bucket near expectation" true (f > 750 && f < 1250))
    freqs

let test_sampler_zipf_shape () =
  let n = 50 in
  let freqs = draw_freqs (Sampler.zipf ~s:1.2 ~seed:11 ~n ()) ~draws:20_000 in
  (* Hotness-ranked: the head dominates, frequencies decay down the ranks,
     and the top decile carries most of the mass. *)
  check_bool "rank 0 beats rank 9" true (freqs.(0) > 2 * freqs.(9));
  check_bool "rank 9 beats rank 49" true (freqs.(9) > freqs.(49));
  let top5 = Array.fold_left ( + ) 0 (Array.sub freqs 0 5) in
  check_bool "top 10% of keys draw > 40% of load" true (top5 * 5 > 20_000 * 2)

let prop_zipf_head_dominates =
  QCheck.Test.make ~name:"zipf head outdraws tail for every seed" ~count:30
    QCheck.(pair small_nat (int_range 10 80))
    (fun (seed, n) ->
      let freqs = draw_freqs (Sampler.zipf ~s:1.2 ~seed ~n ()) ~draws:4_000 in
      freqs.(0) > freqs.(n - 1)
      && Array.fold_left ( + ) 0 freqs = 4_000)

let prop_uniform_in_range =
  QCheck.Test.make ~name:"uniform keys always in range" ~count:50
    QCheck.(pair small_nat (int_range 1 64))
    (fun (seed, n) ->
      let s = Sampler.uniform ~seed ~n in
      List.for_all (fun _ -> let k = Sampler.next s in k >= 0 && k < n)
        (List.init 500 Fun.id))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "workload"
    [
      ( "settings",
        [
          Alcotest.test_case "gid datasets" `Quick test_gid_settings;
          Alcotest.test_case "gid differences" `Quick test_gid_differences;
          Alcotest.test_case "skinniness probe" `Quick test_skinniness_probe;
          Alcotest.test_case "transaction setting" `Quick test_transaction_setting;
          Alcotest.test_case "byte determinism" `Quick test_byte_determinism;
        ] );
      ( "dblp",
        [
          Alcotest.test_case "career graphs" `Quick test_dblp_like;
          Alcotest.test_case "labels" `Quick test_dblp_labels;
        ] );
      ( "weibo",
        [
          Alcotest.test_case "conversations" `Quick test_weibo_like;
          Alcotest.test_case "motif frequency" `Quick test_weibo_motif_frequency;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "determinism" `Quick test_sampler_determinism;
          Alcotest.test_case "uniform shape" `Quick test_sampler_uniform_shape;
          Alcotest.test_case "zipf shape" `Quick test_sampler_zipf_shape;
        ] );
      qsuite "sampler-props" [ prop_zipf_head_dominates; prop_uniform_in_range ];
    ]
