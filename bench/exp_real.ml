(* Real-data analogues (§6.3): temporal collaboration patterns over DBLP-like
   career timelines and diffusion-chain patterns over Weibo-like
   conversations. The real crawls are unavailable; DESIGN.md §4 documents the
   substitution. *)

open Spm_graph
open Spm_core
open Spm_workload

let render_dblp_pattern p =
  let parts =
    Graph.fold_edges
      (fun u v acc ->
        Printf.sprintf "%s-%s"
          (Dblp_like.label_name (Graph.label p u))
          (Dblp_like.label_name (Graph.label p v))
        :: acc)
      p []
  in
  String.concat " " (List.rev parts)

let closed ~jobs =
  { Spm_core.Skinny_mine.Config.default with closed_growth = true; jobs }

let dblp ~seed ~num_authors ~l ?(jobs = 1) () =
  Util.section
    (Printf.sprintf
       "DBLP analogue: %d-year temporal collaboration patterns over %d \
        author timelines (sigma = 2)"
       l num_authors);
  let authors = Dblp_like.generate ~num_authors ~seed () in
  let db = List.map (fun a -> a.Dblp_like.graph) authors in
  let result, t =
    Util.time (fun () ->
        Skinny_mine.mine_transactions ~config:(closed ~jobs) db ~l ~delta:1
          ~sigma:2)
  in
  Printf.printf
    "found %d frequent skinny patterns with a %d-year backbone in %.2fs\n%!"
    (List.length result.Skinny_mine.patterns)
    l t;
  (* Show the largest two patterns as label chains (Figures 21-22 analogue). *)
  let biggest =
    List.sort
      (fun a b ->
        Int.compare (Graph.m b.Skinny_mine.pattern) (Graph.m a.Skinny_mine.pattern))
      result.Skinny_mine.patterns
    |> List.filteri (fun i _ -> i < 2)
  in
  List.iteri
    (fun i m ->
      Printf.printf "example %d (support %d): %s\n%!" (i + 1)
        m.Skinny_mine.support
        (render_dblp_pattern m.Skinny_mine.pattern))
    biggest

let weibo ~seed ~num_conversations ~chain ~l ?(jobs = 1) () =
  Util.section
    (Printf.sprintf
       "Weibo analogue: diffusion patterns with backbone >= %d over %d \
        conversations (sigma = 4, delta = 2)"
       l num_conversations);
  let convs =
    Weibo_like.generate ~num_conversations ~size:80 ~chain ~seed ()
  in
  let db = List.map (fun c -> c.Weibo_like.graph) convs in
  let result, t =
    Util.time (fun () ->
        Skinny_mine.mine_transactions ~config:(closed ~jobs) db ~l ~delta:2
          ~sigma:4)
  in
  Printf.printf "found %d frequent skinny diffusion patterns in %.2fs\n%!"
    (List.length result.Skinny_mine.patterns)
    t;
  let motif = Weibo_like.diffusion_motif ~chain in
  let recovered =
    List.exists
      (fun m ->
        Spm_pattern.Plan.exists
          (Spm_pattern.Plan.compile ~freq:(Graph.label_freq motif)
             m.Skinny_mine.pattern)
          ~target:motif)
      result.Skinny_mine.patterns
  in
  Printf.printf "Figure-24 style root-reengagement chain present: %b\n%!"
    recovered
