(* Matching-plan support vs the legacy backtracking matcher.

   The claim under measurement (DESIGN.md §18): compiling each candidate
   into a symmetry-broken plan makes the support path cheaper on two axes —
   automorphic images are never enumerated (the legacy matcher found each
   subgraph |Aut(P)| times), and distinct-subgraph counting needs no
   dedup hashing at all (exactly-once enumeration means the accept count
   IS the support). The "before" below is a faithful reimplementation of
   the replaced matcher: BFS-ordered backtracking over all mappings, with
   distinct images recovered by hashing embedding keys.

   Three groups of sections, all written to BENCH_plan.json:
   - fig sections: supports of patterns actually mined from the paper's
     GID settings, recomputed by both implementations (correctness is
     asserted, not assumed — any divergence fails the bench);
   - a symmetric-pattern section (palindrome paths, uniform stars, C4)
     where |Aut| >= 2 and the legacy redundancy is structural;
   - the serving path: Mine and Contains p50/p95 through the sharded
     router at 1/2/4 shards, with byte-identity of the Mine responses
     asserted across layouts. *)

open Spm_graph
open Spm_pattern
module Skinny_mine = Spm_core.Skinny_mine
module Settings = Spm_workload.Settings
module Store = Spm_store.Store
module Protocol = Spm_server.Protocol
module Client = Spm_server.Client

(* --- The replaced matcher: BFS order, no symmetry breaking, hash dedup --- *)

let legacy_iter_mappings ~pattern ~target f =
  let np = Graph.n pattern in
  if np > 0 then begin
    let order = Array.make np (-1) in
    let seen = Array.make np false in
    let q = Queue.create () in
    Queue.add 0 q;
    seen.(0) <- true;
    let k = ref 0 in
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      order.(!k) <- v;
      incr k;
      Array.iter
        (fun w ->
          if not seen.(w) then begin
            seen.(w) <- true;
            Queue.add w q
          end)
        (Graph.adj pattern v)
    done;
    let placed = Array.make np false in
    let map = Array.make np (-1) in
    let used = Array.make (max 1 (Graph.n target)) false in
    let ok pv tv =
      Graph.label target tv = Graph.label pattern pv
      && Array.for_all
           (fun w -> (not placed.(w)) || Graph.has_edge target tv map.(w))
           (Graph.adj pattern pv)
    in
    let rec place depth =
      if depth = np then f map
      else begin
        let pv = order.(depth) in
        let try_candidate tv =
          if (not used.(tv)) && ok pv tv then begin
            map.(pv) <- tv;
            placed.(pv) <- true;
            used.(tv) <- true;
            place (depth + 1);
            used.(tv) <- false;
            placed.(pv) <- false;
            map.(pv) <- -1
          end
        in
        (* Candidates from any already-placed pattern neighbor, like the
           replaced matcher; the root scans its label class. *)
        match
          Array.fold_left
            (fun acc w -> if placed.(w) && acc < 0 then w else acc)
            (-1) (Graph.adj pattern pv)
        with
        | -1 ->
          Graph.iter_vertices_with_label target (Graph.label pattern pv)
            try_candidate
        | src -> Graph.iter_adj target map.(src) try_candidate
      end
    in
    place 0
  end

(* The image subgraph of a mapping: its sorted image edge set, each edge
   packed as [u * data_n + v] with [u < v]. *)
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

let legacy_support p g =
  let dedup = Hashtbl.create 1024 in
  legacy_iter_mappings ~pattern:p ~target:g (fun m ->
      Hashtbl.replace dedup (key_of_mapping ~data_n:(Graph.n g) ~pattern:p m) ());
  Hashtbl.length dedup

(* --- Support sections --- *)

type section = {
  name : string;
  patterns : int;
  legacy_s : float;
  plan_s : float;
  speedup : float;
}

let run_section ~name g pats =
  let legacy, legacy_s =
    Util.time (fun () -> List.map (fun p -> legacy_support p g) pats)
  in
  let plan, plan_s =
    Util.time (fun () -> List.map (fun p -> Support.single_graph p g) pats)
  in
  if legacy <> plan then
    failwith
      (Printf.sprintf "%s: plan-driven support diverged from legacy matcher"
         name);
  let speedup = if plan_s > 0.0 then legacy_s /. plan_s else 0.0 in
  Printf.printf
    "  %-28s %3d patterns  legacy %8.1f ms  plan %8.1f ms  %5.2fx\n%!" name
    (List.length pats)
    (1000.0 *. legacy_s)
    (1000.0 *. plan_s)
    speedup;
  { name; patterns = List.length pats; legacy_s; plan_s; speedup }

let mined_patterns ?(cap = 40) g =
  let r = Skinny_mine.mine g ~l:4 ~delta:2 ~sigma:2 in
  List.filteri
    (fun i _ -> i < cap)
    (List.map (fun (m : Skinny_mine.mined) -> m.pattern) r.patterns)

let fig_section ~seed ~scale gid =
  let d = Settings.gid ~scale ~seed gid in
  let g = d.Settings.graph in
  run_section
    ~name:(Printf.sprintf "fig_gid%d (n=%d)" gid (Graph.n g))
    g (mined_patterns g)

let symmetric_section ~seed =
  let st = Gen.rng (seed + 0x5a11) in
  let g = Gen.erdos_renyi st ~n:3000 ~avg_degree:3.0 ~num_labels:2 in
  let pats =
    [
      Pattern.of_path_labels [| 0; 1; 0 |];
      Pattern.of_path_labels [| 1; 0; 0; 1 |];
      Gen.star_graph ~center:1 [| 0; 0; 0 |];
      Gen.star_graph ~center:1 [| 0; 0; 0; 0 |];
      Gen.cycle_graph [| 0; 0; 0; 0 |];
    ]
  in
  let auts = List.map Plan.automorphism_count pats in
  Printf.printf "  symmetric patterns, |Aut| = %s\n%!"
    (String.concat ", " (List.map string_of_int auts));
  run_section ~name:"symmetric (|Aut|>=2)" g pats

let section_json s =
  Printf.sprintf
    "{\"name\": \"%s\", \"patterns\": %d, \"legacy_ms\": %.2f, \"plan_ms\": \
     %.2f, \"speedup\": %.2f}"
    s.name s.patterns
    (1000.0 *. s.legacy_s)
    (1000.0 *. s.plan_s)
    s.speedup

(* --- Serving path: router Mine / Contains latency --- *)

type serving = {
  shards : int;
  requests : int;
  mine_p50_ms : float;
  mine_p95_ms : float;
  contains_p50_ms : float;
  contains_p95_ms : float;
}

let render_mined (ms : Skinny_mine.mined list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (m : Skinny_mine.mined) ->
      Buffer.add_string b (Io.to_string m.pattern);
      Buffer.add_string b (Printf.sprintf "s%d\n" m.support))
    ms;
  Buffer.contents b

let latencies_ms f n =
  let a =
    Array.init n (fun _ ->
        let _, s = Util.time f in
        1000.0 *. s)
  in
  Array.sort compare a;
  a

let serving_layout ~store ~mine_params ~contains_targets ~requests ~shards =
  Exp_cluster.with_sharded_cluster ~store ~shards (fun ~router:_ ~port ->
      Client.with_connection ~port (fun c ->
          let reply = ref [] in
          let mine =
            latencies_ms (fun () -> reply := Client.mine c mine_params) requests
          in
          let i = ref 0 in
          let contains =
            latencies_ms
              (fun () ->
                let g =
                  contains_targets.(!i mod Array.length contains_targets)
                in
                incr i;
                ignore (Client.contains c g))
              requests
          in
          let pct a p = Exp_cluster.percentile a p in
          ( {
              shards;
              requests;
              mine_p50_ms = pct mine 0.50;
              mine_p95_ms = pct mine 0.95;
              contains_p50_ms = pct contains 0.50;
              contains_p95_ms = pct contains 0.95;
            },
            render_mined !reply )))

let serving_json r =
  Printf.sprintf
    "{\"shards\": %d, \"requests\": %d, \"mine_p50_ms\": %.3f, \
     \"mine_p95_ms\": %.3f, \"contains_p50_ms\": %.3f, \"contains_p95_ms\": \
     %.3f}"
    r.shards r.requests r.mine_p50_ms r.mine_p95_ms r.contains_p50_ms
    r.contains_p95_ms

let serving_sections ~seed ~requests =
  let store = Exp_cluster.mined_store ~seed ~n:300 ~f:30 in
  let mine_params =
    Protocol.mine_params ~l:4 ~delta:2 ~sigma:2 ~closed_growth:false ()
  in
  let contains_targets =
    Array.of_list
      (List.filteri
         (fun i _ -> i < 8)
         (List.map
            (fun (m : Skinny_mine.mined) -> m.pattern)
            store.Store.patterns))
  in
  Util.print_row_header
    [
      (8, "shards");
      (12, "mine p50");
      (12, "mine p95");
      (14, "contains p50");
      (14, "contains p95");
    ];
  let results, renders =
    List.split
      (List.map
         (fun shards ->
           let r, rendered =
             serving_layout ~store ~mine_params ~contains_targets ~requests
               ~shards
           in
           Printf.printf "%-8d%12.3f%12.3f%14.3f%14.3f\n%!" r.shards
             r.mine_p50_ms r.mine_p95_ms r.contains_p50_ms r.contains_p95_ms;
           (r, rendered))
         [ 1; 2; 4 ])
  in
  (match renders with
  | first :: rest ->
    List.iteri
      (fun i r ->
        if r <> first then
          failwith
            (Printf.sprintf
               "serving: %d-shard Mine response diverged from 1-shard"
               (List.nth [ 2; 4 ] i)))
      rest
  | [] -> ());
  Printf.printf "  Mine responses byte-identical across 1/2/4 shards\n%!";
  results

(* --- Entry point --- *)

let run ~seed ?(scale = 0.25) ?(requests = 120) () =
  Util.section
    "Plan: symmetry-broken matching vs legacy backtracking + dedup hashing";
  let s1 = fig_section ~seed ~scale 1 in
  let s2 = fig_section ~seed ~scale 2 in
  let s3 = fig_section ~seed ~scale 3 in
  let sym = symmetric_section ~seed in
  let sections = [ s1; s2; s3; sym ] in
  let best =
    List.fold_left (fun acc s -> max acc s.speedup) 0.0 sections
  in
  Printf.printf "  best support-path speedup: %.2fx\n%!" best;
  let serving = serving_sections ~seed ~requests in
  let json =
    Printf.sprintf
      "{\"seed\": %d, \"scale\": %.2f, \"sections\": [%s], \"serving\": \
       [%s], \"best_speedup\": %.2f}"
      seed scale
      (String.concat ", " (List.map section_json sections))
      (String.concat ", " (List.map serving_json serving))
      best
  in
  let oc = open_out "BENCH_plan.json" in
  output_string oc json;
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_plan.json\n%!";
  json
