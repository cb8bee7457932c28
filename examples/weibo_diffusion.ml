(* Information-diffusion analysis (the paper's second motivating application,
   §1 and §6.3): mine long skinny diffusion chains from microblog
   conversations — the backbone is the retweet chain, the twigs are root
   re-engagements and audience fans.

   Run with: dune exec examples/weibo_diffusion.exe *)

open Spm_graph
open Spm_core
open Spm_workload

let () =
  let convs = Weibo_like.generate ~num_conversations:25 ~size:80 ~chain:9 ~seed:7 () in
  let db = List.map (fun c -> c.Weibo_like.graph) convs in
  Printf.printf "%d conversations, %d users total\n" (List.length db)
    (List.fold_left (fun acc g -> acc + Graph.n g) 0 db);

  (* Diffusion chains spanning 8 hops, with twigs up to 2 hops off the
     chain, appearing in at least 4 conversations. (With only four vertex
     labels the pattern space is dense; closed growth plus a firm support
     threshold keeps the complete answer small.) *)
  let result =
    Skinny_mine.mine_transactions
      ~config:{ Skinny_mine.Config.default with closed_growth = true }
      db ~l:8 ~delta:2 ~sigma:4
  in
  Printf.printf "%d frequent diffusion patterns with an 8-hop backbone\n"
    (List.length result.Skinny_mine.patterns);

  let describe p =
    let cd = Canonical_diameter.compute p in
    let chain =
      Array.to_list cd
      |> List.map (fun v -> Weibo_like.label_name (Graph.label p v))
      |> String.concat " -> "
    in
    let roots =
      List.init (Graph.n p) (fun v -> v)
      |> List.filter (fun v -> Graph.label p v = Weibo_like.root_label)
      |> List.length
    in
    Printf.sprintf "%s  [%d root occurrence(s)]" chain roots
  in
  List.sort
    (fun a b ->
      Int.compare (Graph.m b.Skinny_mine.pattern) (Graph.m a.Skinny_mine.pattern))
    result.Skinny_mine.patterns
  |> List.filteri (fun i _ -> i < 3)
  |> List.iter (fun m ->
         Printf.printf "  [in %d conversations] %s\n" m.Skinny_mine.support
           (describe m.Skinny_mine.pattern));

  (* The Figure-24 motif: a root that re-engages along the chain. Check the
     largest mined pattern embeds into it or vice versa. *)
  let motif = Weibo_like.diffusion_motif ~chain:9 in
  let found =
    List.exists
      (fun m -> Spm_pattern.Canon.iso m.Skinny_mine.pattern motif
                || Spm_pattern.Plan.exists
                     (Spm_pattern.Plan.compile ~freq:(Graph.label_freq motif)
                        m.Skinny_mine.pattern)
                     ~target:motif)
      result.Skinny_mine.patterns
  in
  Printf.printf "root re-engagement structure recovered: %b\n" found
