open Spm_graph
module Run = Spm_engine.Run

(* A schedule is the executable form of a matching order: per search
   position, the pattern vertex to place, its label and degree, the
   already-placed neighbor supplying candidates (via the target's
   label-range adjacency runs), the remaining placed neighbors to check
   adjacency against, and the symmetry constraints that become checkable at
   this position. The main schedule carries the symmetry constraints;
   anchored schedules are rebuilt per call with none. *)
type schedule = {
  ord : int array; (* position -> pattern vertex *)
  labels : int array;
  degs : int array;
  src : int array; (* candidate-supplying placed neighbor, or -1 *)
  checks : int array array; (* other placed neighbors: has_edge checks *)
  gt : int array array; (* placed u with m(u) < m(current) required *)
  lt : int array array; (* placed w with m(current) < m(w) required *)
}

type t = {
  pat : Pattern.t;
  auts : int array array;
  conds : (int * int) list;
  sched : schedule;
}

(* All label-preserving automorphisms by backtracking over vertex maps,
   pruned by label, degree, and adjacency to already-mapped neighbors. An
   injective edge-preserving self-map with equal edge counts is a bijective
   edge bijection, i.e. an automorphism. Pattern sizes are paper-scale
   (tens of vertices, near-trivial groups), so brute enumeration is cheap —
   and never larger than the complete mapping lists the miners already
   materialize, since each image subgraph accounts for |Aut| mappings. *)
let automorphism_list p =
  let n = Graph.n p in
  let map = Array.make (max 1 n) (-1) in
  let used = Array.make (max 1 n) false in
  let out = ref [] in
  let rec go v =
    if v = n then out := Array.sub map 0 n :: !out
    else
      for w = 0 to n - 1 do
        if
          (not used.(w))
          && Graph.label p v = Graph.label p w
          && Graph.degree p v = Graph.degree p w
          &&
          let ok = ref true in
          Graph.iter_adj p v (fun u ->
              if map.(u) >= 0 && not (Graph.has_edge p map.(u) w) then
                ok := false);
          !ok
        then begin
          map.(v) <- w;
          used.(w) <- true;
          go (v + 1);
          used.(w) <- false;
          map.(v) <- -1
        end
      done
  in
  go 0;
  List.rev !out

let automorphism_count p = List.length (automorphism_list p)

(* Stabilizer-chain derivation: while the remaining subgroup moves
   anything, take the smallest moved vertex v, constrain m(v) < m(w) for
   every other w in v's orbit, and keep only the automorphisms fixing v.
   Among the |Aut| mappings sharing an image, each chain level selects the
   coset placing the smallest image on v, so exactly one representative
   survives all constraints. *)
let derive_conditions n auts =
  let rec first_moved current v =
    if v >= n then None
    else if List.exists (fun a -> a.(v) <> v) current then Some v
    else first_moved current (v + 1)
  in
  let rec loop current acc =
    match first_moved current 0 with
    | None -> List.rev acc
    | Some v ->
      let orbit = List.sort_uniq compare (List.map (fun a -> a.(v)) current) in
      let acc =
        List.fold_left
          (fun acc w -> if w = v then acc else (v, w) :: acc)
          acc orbit
      in
      loop (List.filter (fun a -> a.(v) = v) current) acc
  in
  loop auts []

(* Rarest-(label,degree)-first greedy order with connectivity maintained:
   start at the vertex whose label is rarest in the target (highest degree
   breaking ties), then repeatedly place the rarest-label unplaced vertex
   adjacent to the placed set. Affects search cost only, never results. *)
let matching_order ?freq p =
  let n = Graph.n p in
  if n = 0 then invalid_arg "Plan: empty pattern";
  let rarity =
    match freq with Some f -> fun v -> f (Graph.label p v) | None -> fun _ -> 0
  in
  let score v = (rarity v, -Graph.degree p v, Graph.label p v, v) in
  let order = Array.make n (-1) in
  let placed = Array.make n false in
  let pick eligible =
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if eligible v && (!best < 0 || score v < score !best) then best := v
    done;
    !best
  in
  order.(0) <- pick (fun v -> not placed.(v));
  placed.(order.(0)) <- true;
  for k = 1 to n - 1 do
    let frontier v =
      (not placed.(v)) && Graph.fold_adj p v (fun w acc -> acc || placed.(w)) false
    in
    let v = pick frontier in
    if v < 0 then invalid_arg "Plan: pattern must be connected";
    order.(k) <- v;
    placed.(v) <- true
  done;
  order

let schedule_of p ord conds =
  let n = Array.length ord in
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) ord;
  let src = Array.make n (-1) in
  let checks = Array.make n [||] in
  for d = 0 to n - 1 do
    let earlier =
      Graph.fold_adj p ord.(d)
        (fun w acc -> if pos.(w) < d then w :: acc else acc)
        []
      |> List.sort (fun a b -> compare pos.(a) pos.(b))
    in
    match earlier with
    | [] -> ()
    | s :: rest ->
      src.(d) <- s;
      checks.(d) <- Array.of_list rest
  done;
  (* A condition m(u) < m(w) becomes checkable once both are placed, i.e.
     at the later of the two positions. *)
  let gt = Array.make n [] and lt = Array.make n [] in
  List.iter
    (fun (u, w) ->
      if pos.(u) < pos.(w) then gt.(pos.(w)) <- u :: gt.(pos.(w))
      else lt.(pos.(u)) <- w :: lt.(pos.(u)))
    conds;
  {
    ord;
    labels = Array.map (Graph.label p) ord;
    degs = Array.map (Graph.degree p) ord;
    src;
    checks;
    gt = Array.map Array.of_list gt;
    lt = Array.map Array.of_list lt;
  }

let compile ?freq p =
  let ord = matching_order ?freq p in
  let auts = automorphism_list p in
  let conds = derive_conditions (Graph.n p) auts in
  { pat = p; auts = Array.of_list auts; conds; sched = schedule_of p ord conds }

let pattern t = t.pat
let order t = Array.copy t.sched.ord
let constraints t = t.conds
let aut_count t = Array.length t.auts
let automorphisms t = t.auts

(* The executor. Candidates arrive label-filtered from the CSR (a mapped
   neighbor's label run, or the graph-level label index at the root), so
   each one only needs degree, injectivity (a scan of the <= |P| placed
   images), symmetry-order, and residual-adjacency checks. [run] is polled
   per candidate — vertex-extension granularity — and [nodes] counts
   accepted placements, i.e. search-tree nodes. *)
let exec ?run ?nodes ?anchor sched ~target ~stop f =
  let n = Array.length sched.ord in
  let map = Array.make n (-1) in
  let imgs = Array.make n (-1) in
  let stopped = ref false in
  let poll = match run with None -> ignore | Some r -> fun () -> Run.check r in
  let bump = match nodes with None -> ignore | Some c -> fun () -> incr c in
  let rec place depth =
    if depth = n then begin
      f map;
      if stop () then stopped := true
    end
    else begin
      let pv = sched.ord.(depth) in
      let try_candidate tv =
        if not !stopped then begin
          poll ();
          let ok =
            Graph.degree target tv >= sched.degs.(depth)
            && (let fresh = ref true in
                for i = 0 to depth - 1 do
                  if imgs.(i) = tv then fresh := false
                done;
                !fresh)
            && Array.for_all (fun u -> map.(u) < tv) sched.gt.(depth)
            && Array.for_all (fun w -> tv < map.(w)) sched.lt.(depth)
            && Array.for_all
                 (fun w -> Graph.has_edge target map.(w) tv)
                 sched.checks.(depth)
          in
          if ok then begin
            bump ();
            map.(pv) <- tv;
            imgs.(depth) <- tv;
            place (depth + 1);
            imgs.(depth) <- -1;
            map.(pv) <- -1
          end
        end
      in
      match anchor with
      | Some (apv, atv) when apv = pv ->
        if
          Graph.label target atv = sched.labels.(depth)
          && (sched.src.(depth) < 0
             || Graph.has_edge target map.(sched.src.(depth)) atv)
        then try_candidate atv
      | _ ->
        if sched.src.(depth) >= 0 then
          Graph.adj_with_label target map.(sched.src.(depth))
            sched.labels.(depth) try_candidate
        else Graph.iter_vertices_with_label target sched.labels.(depth)
            try_candidate
    end
  in
  place 0

let enumerate ?run ?nodes t ~target f =
  exec ?run ?nodes t.sched ~target ~stop:(fun () -> false) f

(* The full mapping set is the enumerated representatives composed with
   every automorphism: m' = m . a maps v to m(a(v)), and the |Aut| compositions
   of one representative are pairwise distinct and exhaust its image's
   mapping class. *)
let iter_all ?run t ~target f =
  let n = Graph.n t.pat in
  let buf = Array.make n (-1) in
  exec ?run t.sched ~target
    ~stop:(fun () -> false)
    (fun m ->
      Array.iter
        (fun a ->
          for v = 0 to n - 1 do
            buf.(v) <- m.(a.(v))
          done;
          f buf)
        t.auts)

let all_mappings ?run t ~target =
  let acc = ref [] in
  iter_all ?run t ~target (fun m -> acc := Array.copy m :: !acc);
  List.rev !acc

let count ?run ?nodes t ~target =
  let c = ref 0 in
  exec ?run ?nodes t.sched ~target
    ~stop:(fun () -> false)
    (fun _ -> incr c);
  !c

let count_up_to ?run ?nodes t ~target k =
  if k <= 0 then 0
  else begin
    let c = ref 0 in
    exec ?run ?nodes t.sched ~target ~stop:(fun () -> !c >= k) (fun _ -> incr c);
    !c
  end

let count_mappings ?run ?limit t ~target =
  let na = Array.length t.auts in
  match limit with
  | None -> na * count ?run t ~target
  | Some l ->
    if l <= 0 then 0
    else begin
      let c = ref 0 in
      exec ?run t.sched ~target
        ~stop:(fun () -> !c >= l)
        (fun _ -> c := min l (!c + na));
      !c
    end

let exists ?run t ~target =
  let found = ref false in
  exec ?run t.sched ~target ~stop:(fun () -> true) (fun _ -> found := true);
  !found

(* Anchored runs use a queue-BFS order rooted at the anchored pattern
   vertex (so the anchor pins depth 0 and every prefix stays connected)
   and no symmetry constraints: the constrained representative of an
   image need not be the mapping that places the anchor vertex on the
   anchored target, so constraints would wrongly reject anchored hits. *)
let bfs_order p root =
  let n = Graph.n p in
  let order = Array.make n (-1) in
  let placed = Array.make n false in
  let queue = Queue.create () in
  Queue.add root queue;
  placed.(root) <- true;
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!k) <- v;
    incr k;
    Graph.iter_adj p v (fun w ->
        if not placed.(w) then begin
          placed.(w) <- true;
          Queue.add w queue
        end)
  done;
  if !k <> n then invalid_arg "Plan: pattern must be connected";
  order

let anchored_sched t root = schedule_of t.pat (bfs_order t.pat root) []

let iter_anchored ?run t ~target ~anchor f =
  exec ?run ~anchor
    (anchored_sched t (fst anchor))
    ~target
    ~stop:(fun () -> false)
    f

let exists_from ?run t ~target ~anchor =
  let found = ref false in
  exec ?run ~anchor
    (anchored_sched t (fst anchor))
    ~target
    ~stop:(fun () -> true)
    (fun _ -> found := true);
  !found
