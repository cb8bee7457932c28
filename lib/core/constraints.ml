open Spm_graph

type mode = Naive | Paper | Exact

type extension = New_leaf of { host : int } | Close of int * int

let identity_path l = Array.init (l + 1) (fun i -> i)

let check_naive p' ~l =
  Canonical_diameter.compute p' = identity_path l

(* The optimized modes verify canonicity with the pruned DAG search. *)
let check_fast p' ~l = Canonical_diameter.identity_preserved p' ~l

(* Eccentricity of a vertex within the pattern (BFS). *)
let ecc p v = Array.fold_left max 0 (Bfs.distances p v)

let check_paper ~pattern' ~idx ~idx' ~l ext =
  match ext with
  | New_leaf { host } ->
    let u = Graph.n pattern' - 1 in
    let duh = Distance_index.dh idx' u and dut = Distance_index.dt idx' u in
    (* Constraint I (Theorem 1). *)
    duh <= l && dut <= l
    (* Constraint II (Theorem 2). *)
    && duh + dut >= l
    (* Constraint III (Theorem 3 case I): only a host one step short of the
       diameter length can spawn a new same-length diameter. *)
    &&
    let trigger =
      max (Distance_index.dh idx host) (Distance_index.dt idx host) = l - 1
    in
    (not trigger) || check_fast pattern' ~l
  | Close (u, v) ->
    (* Constraint I: joining existing vertices never increases distances. *)
    (* Constraint II: the shortcut through the new edge must not undercut
       the head-tail distance (old index values, Theorem 2's argument). *)
    let dhu = Distance_index.dh idx u and dtu = Distance_index.dt idx u in
    let dhv = Distance_index.dh idx v and dtv = Distance_index.dt idx v in
    min (dhu + 1 + dtv) (dhv + 1 + dtu) >= l
    (* Constraint III (Theorem 3 case II). *)
    &&
    let trigger = dhu + dtv = l - 1 || dhv + dtu = l - 1 in
    (not trigger) || check_fast pattern' ~l

(* --- Per-host leaf verdicts ---------------------------------------------- *)

(* A pendant leaf u on host h shortens no path, so which leaves are
   admissible is a property of h alone, except when 1 + ecc(h) = l: then
   the new realizing paths are exactly u·A (u, then a geodesic from h out to
   a vertex at distance l - 1) and B·u (a geodesic from such a vertex in to
   h, then u). Only the least label sequences A and B among those geodesics
   can undercut L = the labels of [0..l]; an equal-label rival loses the id
   tiebreak, since at its first differing position it carries a larger id
   than the identity path. *)
type leaf_verdict =
  | Reject_all
  | Admit_all
  | Admit_if of {
      head : Label.t; (* L[0] *)
      tail : Label.t; (* L[l] *)
      outward_below : bool; (* least A < L[1..l] *)
      inward_tie : bool; (* least B = L[0..l-1] *)
    }

let admits verdict label =
  match verdict with
  | Reject_all -> false
  | Admit_all -> true
  | Admit_if r ->
    let c = Label.compare label r.head in
    (* u·A undercuts L iff label < L[0], or label = L[0] and A < L[1..l]. *)
    (not (c < 0 || (c = 0 && r.outward_below)))
    (* B·u undercuts L iff B < L[0..l-1] (then [Reject_all]), or B ties it
       and label < L[l]. *)
    && not (r.inward_tie && Label.compare label r.tail < 0)

(* BFS from [src] over the first [n] vertices of [p], so a leaf appended as
   vertex [n] is invisible. Returns the distances and the visit order (by
   nondecreasing distance). *)
let bfs_prefix p ~n src =
  let dist = Array.make n (-1) and order = Array.make n src in
  dist.(src) <- 0;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    Graph.iter_adj p v (fun w ->
        if w < n && dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          order.(!tail) <- w;
          incr tail
        end)
  done;
  (dist, Array.sub order 0 !tail)

(* Compare the least label sequence of the walks that start in [start] and
   take [len] - 1 steps through [step v w] with [target 0 .. len-1]. The
   walks are greedy-minimized one position at a time: every walk through the
   frontier has the same length, so the least sequence keeps only the
   least-labelled frontier vertices. A vertex occupies one position only (its
   distance fixes it), so [added] keeps each frontier duplicate-free. *)
let compare_least p ~n ~start ~len ~step ~target =
  let added = Array.make n false in
  let rec go k frontier =
    if k = len then 0
    else begin
      let least =
        List.fold_left (fun a v -> Int.min a (Graph.label p v)) max_int frontier
      in
      let c = Label.compare least (target k) in
      if c <> 0 then c
      else begin
        let next = ref [] in
        List.iter
          (fun v ->
            if Graph.label p v = least then
              Graph.iter_adj p v (fun w ->
                  if w < n && (not added.(w)) && step v w then begin
                    added.(w) <- true;
                    next := w :: !next
                  end))
          frontier;
        go (k + 1) !next
      end
    end
  in
  go 0 start

let skinny_leaf_prefix p ~n ~idx ~l ~host =
  let duh = Distance_index.dh idx host + 1
  and dut = Distance_index.dt idx host + 1 in
  (* Constraints I and II: the leaf's D_H / D_T are its host's plus one. *)
  if not (duh <= l && dut <= l && duh + dut >= l) then Reject_all
  else begin
    let dist, order = bfs_prefix p ~n host in
    (* The leaf itself sits at distance 1 from its host. *)
    let ecc = max 1 dist.(order.(Array.length order - 1)) in
    if 1 + ecc > l then Reject_all
    else if 1 + ecc < l then Admit_all
    else begin
      let e = l - 1 and lab = Graph.label p in
      (* B: in from the vertices at distance e, one step closer each time. *)
      let inward =
        compare_least p ~n
          ~start:(List.filter (fun v -> dist.(v) = e) (Array.to_list order))
          ~len:l
          ~step:(fun v w -> dist.(w) = dist.(v) - 1)
          ~target:lab
      in
      if inward < 0 then Reject_all
      else begin
        (* A: out from the host along geodesics that reach distance e. *)
        let reaches = Array.make n false in
        for i = Array.length order - 1 downto 0 do
          let v = order.(i) in
          reaches.(v) <-
            dist.(v) = e
            || Graph.fold_adj p v
                 (fun w acc ->
                   acc || (w < n && dist.(w) = dist.(v) + 1 && reaches.(w)))
                 false
        done;
        let outward =
          compare_least p ~n ~start:[ host ] ~len:l
            ~step:(fun v w -> dist.(w) = dist.(v) + 1 && reaches.(w))
            ~target:(fun k -> lab (k + 1))
        in
        Admit_if
          {
            head = lab 0;
            tail = lab l;
            outward_below = outward < 0;
            inward_tie = inward = 0;
          }
      end
    end
  end

let skinny_leaf ~pattern ~idx ~l ~host =
  skinny_leaf_prefix pattern ~n:(Graph.n pattern) ~idx ~l ~host

let neighborhood_leaf ~idx ~r ~host =
  if Distance_index.dh idx host + 1 <= r then Admit_all else Reject_all

let check_exact ~pattern' ~idx ~idx' ~l ext =
  match ext with
  | New_leaf { host } ->
    (* The parent is [pattern'] without its last vertex, the new leaf. *)
    let u = Graph.n pattern' - 1 in
    admits
      (skinny_leaf_prefix pattern' ~n:u ~idx ~l ~host)
      (Graph.label pattern' u)
  | Close (u, v) ->
    let dhu = Distance_index.dh idx u and dtu = Distance_index.dt idx u in
    let dhv = Distance_index.dh idx v and dtv = Distance_index.dt idx v in
    min (dhu + 1 + dtv) (dhv + 1 + dtu) >= l
    && Distance_index.dh idx' l = l
    (* Closing edges are rare relative to leaves; verify canonicity with the
       pruned search. *)
    && check_fast pattern' ~l

let check ~mode ~pattern' ~idx ~idx' ~l ext =
  match mode with
  | Naive -> check_naive pattern' ~l
  | Paper -> check_paper ~pattern' ~idx ~idx' ~l ext
  | Exact -> check_exact ~pattern' ~idx ~idx' ~l ext

(* --- Constraint families ------------------------------------------------- *)

type family = Skinny | Neighborhood of { center : Label.t option }

let family_name = function
  | Skinny -> "skinny"
  | Neighborhood _ -> "neighborhood"

(* r-neighborhood admissibility: the center is pattern vertex 0 (the head of
   a zero-length "diameter", so the D_H index is exactly distance-to-center).
   A fresh leaf is admissible iff it lands within radius r; a closing edge
   can only shrink distances, so it is always admissible. *)
let check_neighborhood_naive p' ~r = ecc p' 0 <= r

let check_neighborhood ~mode ~pattern' ~idx' ~r ext =
  match mode with
  | Naive -> check_neighborhood_naive pattern' ~r
  | Paper | Exact -> (
    match ext with
    | New_leaf { host } ->
      (* A leaf leaves its host's distance unchanged, so [idx'] serves. *)
      admits (neighborhood_leaf ~idx:idx' ~r ~host)
        (Graph.label pattern' (Graph.n pattern' - 1))
    | Close _ -> true)

let neighborhood_target ?center p ~r =
  Graph.m p >= 1
  && Bfs.is_connected p
  &&
  let n = Graph.n p in
  let ok v =
    (match center with None -> true | Some c -> Graph.label p v = c)
    && ecc p v <= r
  in
  let rec loop v = v < n && (ok v || loop (v + 1)) in
  loop 0
