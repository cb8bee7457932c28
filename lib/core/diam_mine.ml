open Spm_graph
module Pool = Spm_engine.Pool
module Clock = Spm_engine.Clock
module Run = Spm_engine.Run

(* Cooperative cancellation: [guard] is the per-path polling point and
   [note n] the progress counter; both are no-ops without a run context. *)
let guard = function Some r -> Run.check r | None -> ()
let note run n = match run with Some r -> Run.tick ~n r | None -> ()

type entry = { labels : Path_pattern.t; embeddings : int array list }

let entry_support e = List.length e.embeddings

type stats = {
  per_power : (int * int * float) list;
  merge_seconds : float;
  total_seconds : float;
}

type result = { entries : entry list; stats : stats }

(* One level: every directed simple path of one length, grouped by directed
   label sequence. Sequence [s] reads [seqs.(s)] and owns [rows.(s)], its
   paths as consecutive rows of [width] vertices. A level is closed under
   reversal (every path is stored in both reading directions), so a join
   can extend a path at either end. [n] is the data graph's vertex count. *)
type level = {
  n : int;
  width : int;
  seqs : Label.t array array;
  rows : int array array;
}

let count lv s = Array.length lv.rows.(s) / lv.width
let sequences lv = List.init (Array.length lv.seqs) Fun.id

(* The sequences in canonical orientation: one per pattern. *)
let canonical lv =
  List.filter (fun s -> Path_pattern.is_canonical lv.seqs.(s)) (sequences lv)

(* Whether [paths] directed paths reading [labels] can make a pattern of
   support >= sigma: they hold |E[P]| subgraphs (each twice when [labels]
   is a palindrome), and no support exceeds |E[P]|. *)
let reaches ~sigma labels paths =
  (if Path_pattern.is_palindrome labels then paths / 2 else paths) >= sigma

(* Work is chunked into more slices than domains, so dynamic scheduling
   absorbs skew. *)
let oversplit pool = 4 * Pool.jobs pool

(* Level 1: every edge in both directions, grouped by directed label pair. *)
let edges g =
  let by_pair = Hashtbl.create 64 in
  let add u v =
    let key = (Graph.label g u, Graph.label g v) in
    let vec =
      match Hashtbl.find_opt by_pair key with
      | Some vec -> vec
      | None ->
        let vec = Vec.create () in
        Hashtbl.add by_pair key vec;
        vec
    in
    Vec.push vec u;
    Vec.push vec v
  in
  Graph.iter_edges
    (fun u v ->
      add u v;
      add v u)
    g;
  let pairs =
    Hashtbl.fold
      (fun (a, b) vec acc -> ([| a; b |], Vec.to_array vec) :: acc)
      by_pair []
  in
  {
    n = Graph.n g;
    width = 2;
    seqs = Array.of_list (List.map fst pairs);
    rows = Array.of_list (List.map snd pairs);
  }

(* The rows of [lv] copied out in order of first vertex, so the rows that
   start at [v] are contiguous: row [k] of [rows], of sequence [seq.(k)],
   for [k] in [start.(v) .. start.(v+1) - 1]. *)
let by_first lv =
  let w = lv.width in
  let iter f =
    Array.iteri
      (fun s r ->
        for i = 0 to (Array.length r / w) - 1 do
          f s r (i * w)
        done)
      lv.rows
  in
  let start = Array.make (lv.n + 1) 0 in
  iter (fun _ r o -> start.(r.(o) + 1) <- start.(r.(o) + 1) + 1);
  for v = 1 to lv.n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let total = start.(lv.n) in
  let seq = Array.make total 0 and rows = Array.make (w * total) 0 in
  let fill = Array.sub start 0 lv.n in
  iter (fun s r o ->
      let k = fill.(r.(o)) in
      seq.(k) <- s;
      Array.blit r o rows (k * w) w;
      fill.(r.(o)) <- k + 1);
  (start, seq, rows)

(* [join ~sigma lv ~ov] extends every path x of [lv] by every path y of [lv]
   whose first [ov + 1] vertices are x's last [ov + 1] and whose other
   vertices avoid x: the simple path x·y[ov+1..], [ov] edges shorter than
   twice x. Concatenation (CheckConcat of Algorithm 2) is [ov = 0], merging
   (CheckMergeHead/CheckMergeTail) is [ov > 0].

   The label sequences of x and y fix the result's, and a result splits
   back into its x and y uniquely, so the matches of one (x-sequence,
   y-sequence) pair are exactly the directed paths reading the result's
   sequence. A first pass counts them per pair; only pairs that [reaches
   ~sigma] are walked again and stored, each into an array of the counted
   size. Tasks are slices of x-sequences: a result sequence has a single
   x-sequence, so tasks write disjoint sequences and their outputs are
   joined in order. *)
let join ?run pool ~sigma lv ~ov =
  let w = lv.width and nseq = Array.length lv.seqs in
  let w' = (2 * w) - ov - 1 in
  let start, first_seq, first_rows = by_first lv in
  let task xs =
    let stamp = Array.make lv.n 0 and tag = ref 0 in
    let hits = Array.make nseq 0 and dest = Array.make nseq [||] in
    let fill = Array.make nseq 0 in
    (* [f ys yo] for every match y (of sequence [ys], at [yo] in
       [first_rows]) of the x row at [xo] in [xr]; x's vertices carry the
       current stamp. *)
    let iter_matches xr xo f =
      incr tag;
      let tag = !tag in
      for i = xo to xo + w - 1 do
        stamp.(xr.(i)) <- tag
      done;
      let head = xo + w - 1 - ov in
      let v = xr.(head) in
      for k = start.(v) to start.(v + 1) - 1 do
        let yo = k * w and i = ref 1 in
        while !i <= ov && first_rows.(yo + !i) = xr.(head + !i) do
          incr i
        done;
        if !i > ov then begin
          while !i < w && stamp.(first_rows.(yo + !i)) <> tag do
            incr i
          done;
          if !i = w then f first_seq.(k) yo
        end
      done
    in
    let extend xs =
      let xr = lv.rows.(xs) in
      let touched = ref [] in
      for x = 0 to count lv xs - 1 do
        guard run;
        iter_matches xr (x * w) (fun ys _ ->
            if hits.(ys) = 0 then touched := ys :: !touched;
            hits.(ys) <- hits.(ys) + 1)
      done;
      note run (count lv xs);
      let kept =
        List.filter_map
          (fun ys ->
            let c = hits.(ys) in
            hits.(ys) <- 0;
            (* Most pairs fail on [c] alone, before their labels exist. *)
            if c < sigma then None
            else
              let labels =
                Array.append lv.seqs.(xs)
                  (Array.sub lv.seqs.(ys) (ov + 1) (w - ov - 1))
              in
              if reaches ~sigma labels c then begin
                dest.(ys) <- Array.make (c * w') 0;
                fill.(ys) <- 0;
                Some (labels, ys)
              end
              else None)
          (List.rev !touched)
      in
      if kept <> [] then
        for x = 0 to count lv xs - 1 do
          let xo = x * w in
          iter_matches xr xo (fun ys yo ->
              let d = dest.(ys) and o = fill.(ys) in
              if Array.length d > 0 then begin
                Array.blit xr xo d o w;
                Array.blit first_rows (yo + ov + 1) d (o + w) (w - ov - 1);
                fill.(ys) <- o + w'
              end)
        done;
      List.map
        (fun (labels, ys) ->
          let d = dest.(ys) in
          dest.(ys) <- [||];
          (labels, d))
        kept
    in
    List.concat_map extend (Array.to_list xs)
  in
  let parts =
    Pool.map ?run pool task
      (Pool.slices (Array.init nseq Fun.id) ~pieces:(oversplit pool))
  in
  let out = Array.of_list (List.concat (Array.to_list parts)) in
  { n = lv.n; width = w'; seqs = Array.map fst out; rows = Array.map snd out }

(* The embeddings of canonical sequence [s], as its entry lists them:
   subgraph-deduped, canonically oriented and sorted. A palindrome holds
   both orientations of each path; the canonical one
   ([Path_pattern.Emb.canonical_orientation]) starts at the smaller end. *)
let embeddings lv s =
  let w = lv.width and r = lv.rows.(s) in
  let both = Path_pattern.is_palindrome lv.seqs.(s) in
  let acc = ref [] in
  for i = count lv s - 1 downto 0 do
    let o = i * w in
    if (not both) || r.(o) < r.(o + w - 1) then acc := Array.sub r o w :: !acc
  done;
  List.sort compare !acc

(* The patterns of [lv] whose [support] reaches sigma. [None] is the
   default support, the number of embeddings, which [reaches] has already
   decided. Entries are sorted by canonical labels and built from the
   level's content alone, so the result is bit-identical whatever the pool
   size. *)
let entries ?run pool ~support ~sigma lv =
  let judge s =
    guard run;
    let labels = lv.seqs.(s) in
    if not (reaches ~sigma labels (count lv s)) then None
    else
      let embeddings = embeddings lv s in
      match support with
      | Some f when f embeddings < sigma -> None
      | _ -> Some { labels; embeddings }
  in
  Pool.map ?run pool
    (fun slice -> List.filter_map judge (Array.to_list slice))
    (Pool.slices (Array.of_list (canonical lv)) ~pieces:(oversplit pool))
  |> Array.to_list |> List.concat
  |> List.sort (fun a b -> Path_pattern.compare_labels a.labels b.labels)

(* The sequences [s] of [lv] for which [keep s] holds. *)
let filter lv keep =
  let ids = List.filter keep (sequences lv) |> Array.of_list in
  {
    lv with
    seqs = Array.map (Array.get lv.seqs) ids;
    rows = Array.map (Array.get lv.rows) ids;
  }

(* The sequences of [lv] whose pattern reaches sigma under [support].
   Under the default count no embedding list is built: a sequence and its
   reverse have one count, so [reaches] keeps exactly the sequences of the
   entries [entries] would return. *)
let restrict ?run pool ~support ~sigma lv =
  match support with
  | None -> filter lv (fun s -> reaches ~sigma lv.seqs.(s) (count lv s))
  | Some _ ->
    let keep = Hashtbl.create 64 in
    List.iter
      (fun e -> Hashtbl.replace keep e.labels ())
      (entries ?run pool ~support ~sigma lv);
    filter lv (fun s -> Hashtbl.mem keep (Path_pattern.canonical lv.seqs.(s)))

module Powers = struct
  type t = {
    support : (int array list -> int) option; (* [None]: the count *)
    levels : (int * level) list; (* ascending lengths 1, 2, 4, ... *)
    per_power : (int * int * float) list;
  }

  let build ?(prune_intermediate = true) ?support ?run ?(pool = Pool.serial) g
      ~sigma ~up_to =
    let stats = ref [] in
    let step len make =
      (match run with Some r -> Run.set_level r len | None -> ());
      let t = Clock.now () in
      let lv = make () in
      let lv =
        if prune_intermediate then restrict ?run pool ~support ~sigma lv
        else lv
      in
      stats := (len, List.length (canonical lv), Clock.now () -. t) :: !stats;
      lv
    in
    (* Without pruning every concatenation is kept: the σ gate is off. *)
    let gate = if prune_intermediate then sigma else 0 in
    let rec grow lv len acc =
      let acc = (len, lv) :: acc in
      if 2 * len > up_to then List.rev acc
      else
        let next =
          step (2 * len) (fun () -> join ?run pool ~sigma:gate lv ~ov:0)
        in
        grow next (2 * len) acc
    in
    let levels =
      if up_to < 1 then [] else grow (step 1 (fun () -> edges g)) 1 []
    in
    { support; levels; per_power = List.rev !stats }

  let max_power t =
    List.fold_left (fun acc (len, _) -> max acc len) 0 t.levels

  let paths_of_length ?run ?(pool = Pool.serial) t ~l ~sigma =
    if l < 1 then invalid_arg "Diam_mine: l must be >= 1";
    let lv =
      match List.assoc_opt l t.levels with
      | Some lv -> lv
      | None ->
        (* l is not a materialized power: merge two paths of length p, the
           largest materialized power below l, overlapping in 2p - l edges.
           The merge is gated by sigma in either mode, since the entries
           below are. *)
        let p =
          List.fold_left
            (fun acc (len, _) -> if len <= l then max acc len else acc)
            0 t.levels
        in
        if p = 0 || l >= 2 * p then
          invalid_arg
            (Printf.sprintf
               "Diam_mine.Powers.paths_of_length: l=%d not servable (largest \
                usable power %d)"
               l p);
        join ?run pool ~sigma (List.assoc p t.levels) ~ov:((2 * p) - l)
    in
    entries ?run pool ~support:t.support ~sigma lv
end

let mine ?(prune_intermediate = true) ?support ?run ?pool g ~l ~sigma =
  if l < 1 then invalid_arg "Diam_mine.mine: l must be >= 1";
  let t0 = Clock.now () in
  let powers =
    Powers.build ~prune_intermediate ?support ?run ?pool g ~sigma ~up_to:l
  in
  let tm = Clock.now () in
  let entries = Powers.paths_of_length ?run ?pool powers ~l ~sigma in
  let merge_seconds = Clock.now () -. tm in
  {
    entries;
    stats =
      {
        per_power = powers.Powers.per_power;
        merge_seconds;
        total_seconds = Clock.now () -. t0;
      };
  }
