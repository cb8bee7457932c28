module Pool = Spm_engine.Pool
module Clock = Spm_engine.Clock

type t = {
  graph : Spm_graph.Graph.t;
  sigma : int;
  jobs : int;
  l_max : int;
  prune_intermediate : bool;
  powers : Diam_mine.Powers.t Lazy.t;
      (* Forced at [build]; a restored index only forces it when asked for a
         length outside its snapshot (full Stage-I rebuild). *)
  cache : (int, Diam_mine.entry list) Hashtbl.t;
  build_seconds : float;
}

let with_jobs_pool jobs f =
  if jobs <= 1 then f Pool.serial else Pool.with_pool ~jobs f

let build ?(prune_intermediate = true) ?path_support ?run ?(jobs = 1) g ~sigma
    ~l_max =
  let t0 = Clock.now () in
  (* Materialize powers up to l_max; a non-power l <= l_max is served by
     merging from the largest power below it. *)
  let powers =
    with_jobs_pool jobs (fun pool ->
        Diam_mine.Powers.build ~prune_intermediate ?support:path_support ?run
          ~pool g ~sigma ~up_to:l_max)
  in
  {
    graph = g;
    sigma;
    jobs;
    l_max;
    prune_intermediate;
    powers = Lazy.from_val powers;
    cache = Hashtbl.create 16;
    build_seconds = Clock.now () -. t0;
  }

let graph t = t.graph
let sigma t = t.sigma
let l_max t = t.l_max
let build_seconds t = t.build_seconds

let entries ?run t ~l =
  match Hashtbl.find_opt t.cache l with
  | Some e -> e
  | None ->
    let powers = Lazy.force t.powers in
    let e =
      with_jobs_pool t.jobs (fun pool ->
          Diam_mine.Powers.paths_of_length ?run ~pool powers ~l ~sigma:t.sigma)
    in
    Hashtbl.add t.cache l e;
    e

type snapshot = {
  snap_sigma : int;
  snap_l_max : int;
  lengths : (int * Diam_mine.entry list) list;
}

let snapshot t =
  (* Cover every materialized power plus every on-demand length served so
     far; [entries] caches the powers it touches, so the fold over powers
     just fills the cache before we dump it. *)
  let powers = Lazy.force t.powers in
  let rec power_lengths p acc =
    if p > Diam_mine.Powers.max_power powers then List.rev acc
    else power_lengths (2 * p) (p :: acc)
  in
  List.iter (fun l -> ignore (entries t ~l)) (power_lengths 1 []);
  let lengths =
    Hashtbl.fold (fun l e acc -> (l, e) :: acc) t.cache []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  { snap_sigma = t.sigma; snap_l_max = t.l_max; lengths }

let of_snapshot ?(prune_intermediate = true) ?path_support ?(jobs = 1) g snap
    =
  let cache = Hashtbl.create 16 in
  List.iter (fun (l, e) -> Hashtbl.replace cache l e) snap.lengths;
  {
    graph = g;
    sigma = snap.snap_sigma;
    jobs;
    l_max = snap.snap_l_max;
    prune_intermediate;
    powers =
      lazy
        (with_jobs_pool jobs (fun pool ->
             Diam_mine.Powers.build ~prune_intermediate ?support:path_support
               ~pool g ~sigma:snap.snap_sigma ~up_to:snap.snap_l_max));
    cache;
    build_seconds = 0.0;
  }

let request ?config t ~l ~delta =
  Skinny_mine.mine_with_entries ?config t.graph ~entries:(entries t ~l) ~delta
    ~sigma:t.sigma

let request_range ?config t ~l_min ~l_max ~delta =
  let t0 = Clock.now () in
  let results =
    List.init (l_max - l_min + 1) (fun i ->
        request ?config t ~l:(l_min + i) ~delta)
  in
  let patterns = List.concat_map (fun r -> r.Skinny_mine.patterns) results in
  let grow_stats =
    List.concat_map (fun r -> r.Skinny_mine.stats.Skinny_mine.grow_stats) results
  in
  {
    Skinny_mine.patterns;
    stats =
      {
        Skinny_mine.diam_stats =
          { Diam_mine.per_power = []; merge_seconds = 0.0; total_seconds = 0.0 };
        num_diameters =
          List.fold_left
            (fun acc r -> acc + r.Skinny_mine.stats.Skinny_mine.num_diameters)
            0 results;
        grow_seconds = Clock.now () -. t0;
        grow_stats;
        status =
          (* First non-Ok wins: later lengths ran after the interruption. *)
          List.fold_left
            (fun acc r ->
              if acc <> Spm_engine.Run.Ok then acc
              else r.Skinny_mine.stats.Skinny_mine.status)
            Spm_engine.Run.Ok results;
        total_seconds = Clock.now () -. t0;
      };
  }
