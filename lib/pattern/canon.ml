open Spm_graph

let component_key g =
  if Graph.m g = 0 then begin
    (* Single vertex (or empty). *)
    let ls = Array.to_list (Graph.labels g) |> List.sort Int.compare in
    "v:" ^ String.concat "," (List.map string_of_int ls)
  end
  else "c:" ^ Dfs_code.to_string (Dfs_code.min_code g)

let key p =
  if Graph.n p = 0 then "empty"
  else begin
    let comp, k = Bfs.components p in
    if k = 1 then component_key p
    else begin
      let keys =
        List.init k (fun c ->
            let vs =
              Array.to_list (Array.init (Graph.n p) (fun v -> v))
              |> List.filter (fun v -> comp.(v) = c)
              |> Array.of_list
            in
            component_key (Graph.induced p vs))
      in
      String.concat "|" (List.sort String.compare keys)
    end
  end

(* A packed pattern: one int array holding n, the labels, the refined
   colours, absolute offsets and the neighbour runs,

     [| n; label 0 .. label (n-1); colour 0 .. colour (n-1);
        off 0 .. off n; neighbours of 0; ...; neighbours of (n-1) |]

   so vertex v's neighbours are [a.(off v) .. a.(off (v+1) - 1)]. Two
   packed patterns of one order and size have equal lengths. *)
let order a = a.(0)
let label a v = a.(1 + v)
let colour a v = a.(1 + a.(0) + v)
let first a v = a.(1 + (2 * a.(0)) + v)
let stop a v = a.(2 + (2 * a.(0)) + v)
let degree a v = stop a v - first a v

let mix h =
  let h = (h lxor (h lsr 29)) * 0x3c79ac492ba7b653 in
  let h = (h lxor (h lsr 32)) * 0x1c69b3f74ac4ae35 in
  h lxor (h lsr 29)

(* Colour refinement: a vertex starts from its label and degree, and each
   round hashes its colour with the multiset of its neighbours' colours (a
   sum, so adjacency order does not matter). Colours are a function of the
   pattern up to isomorphism: an isomorphism maps each vertex to one of the
   same colour. *)
let rounds = 3

let refine a =
  let n = order a in
  let base = 1 + n in
  for v = 0 to n - 1 do
    a.(base + v) <- mix ((label a v * 0x9e3779b9) + degree a v)
  done;
  let next = Array.make n 0 in
  for _ = 1 to rounds do
    for v = 0 to n - 1 do
      let s = ref 0 in
      for i = first a v to stop a v - 1 do
        s := !s + mix (colour a a.(i) + 1)
      done;
      next.(v) <- mix (colour a v lxor (!s * 0x2545f4914f6cdd1d))
    done;
    Array.blit next 0 a base n
  done

let pack p =
  let n = Graph.n p in
  let base = 2 + (3 * n) in
  let a = Array.make (base + (2 * Graph.m p)) 0 in
  a.(0) <- n;
  let pos = ref base in
  for v = 0 to n - 1 do
    a.(1 + v) <- Graph.label p v;
    a.(1 + (2 * n) + v) <- !pos;
    Graph.iter_adj p v (fun w ->
        a.(!pos) <- w;
        incr pos)
  done;
  a.(1 + (3 * n)) <- !pos;
  refine a;
  a

(* Isomorphism invariant: order, size and the multiset of colours. Levels
   and backbone positions stay out: with tied labels an isomorphism need
   not map backbone to backbone. *)
let invariant a =
  let h = ref (mix ((order a * 0x9e3779b9) + Array.length a)) in
  for v = 0 to order a - 1 do
    h := !h + mix (colour a v)
  done;
  !h

let adjacent a x y =
  let rec scan i = i < stop a x && (a.(i) = y || scan (i + 1)) in
  scan (first a x)

(* A search order over [a]'s vertices: breadth-first from a vertex of the
   rarest colour, each component in turn. [parent.(k)] is a vertex placed
   before [seq.(k)] and adjacent to it, or -1 for a component root. *)
let search_order a =
  let n = order a in
  let rarity =
    Array.init n (fun v ->
        let c = ref 0 in
        for u = 0 to n - 1 do
          if colour a u = colour a v then incr c
        done;
        !c)
  in
  let seq = Array.make n 0 and parent = Array.make n (-1) in
  let seen = Array.make n false in
  let head = ref 0 and tail = ref 0 in
  let visit v p =
    seen.(v) <- true;
    seq.(!tail) <- v;
    parent.(!tail) <- p;
    incr tail
  in
  while !tail < n do
    let root = ref (-1) in
    for v = n - 1 downto 0 do
      if (not seen.(v)) && (!root < 0 || rarity.(v) <= rarity.(!root)) then
        root := v
    done;
    visit !root (-1);
    while !head < !tail do
      let v = seq.(!head) in
      incr head;
      for i = first a v to stop a v - 1 do
        if not seen.(a.(i)) then visit a.(i) v
      done
    done
  done;
  (seq, parent)

(* Exact isomorphism test by backtracking. Vertex [v] of [a] may go to [x]
   of [b] only when their labels, degrees and colours agree and, among the
   vertices placed so far, their neighbours correspond. Labels and edges are
   checked here, so colours only prune: no verdict rests on a hash. *)
let same a b =
  Array.length a = Array.length b
  && order a = order b
  &&
  let n = order a in
  let seq, parent = search_order a in
  let f = Array.make n (-1) and inv = Array.make n (-1) in
  let fits v x =
    inv.(x) < 0
    && label a v = label b x
    && degree a v = degree b x
    && colour a v = colour b x
    &&
    let placed = ref 0 and ok = ref true in
    for i = first a v to stop a v - 1 do
      let y = f.(a.(i)) in
      if y >= 0 then begin
        incr placed;
        if not (adjacent b x y) then ok := false
      end
    done;
    for j = first b x to stop b x - 1 do
      if inv.(b.(j)) >= 0 then decr placed
    done;
    !ok && !placed = 0
  in
  let undo v x =
    f.(v) <- -1;
    inv.(x) <- -1;
    false
  in
  let rec place k =
    k = n
    ||
    let v = seq.(k) in
    let try_x x =
      fits v x
      &&
      (f.(v) <- x;
       inv.(x) <- v;
       place (k + 1) || undo v x)
    in
    if parent.(k) >= 0 then begin
      let y = f.(parent.(k)) in
      let rec over j = j < stop b y && (try_x b.(j) || over (j + 1)) in
      over (first b y)
    end
    else
      let rec over x = x < n && (try_x x || over (x + 1)) in
      over 0
  in
  place 0

let iso p q =
  Graph.n p = Graph.n q
  && Graph.m p = Graph.m q
  &&
  let a = pack p and b = pack q in
  invariant a = invariant b && same a b

module Buckets = Hashtbl.Make (Int)

module Set = struct
  (* Members bucketed by invariant, each packed: no member keeps its
     pattern. *)
  type t = { buckets : int array list Buckets.t; mutable cardinal : int }

  let create () = { buckets = Buckets.create 64; cardinal = 0 }

  let bucket t h = Option.value (Buckets.find_opt t.buckets h) ~default:[]

  let mem t p =
    let a = pack p in
    List.exists (same a) (bucket t (invariant a))

  let add t p =
    let a = pack p in
    let h = invariant a in
    let members = bucket t h in
    if List.exists (same a) members then false
    else begin
      Buckets.replace t.buckets h (a :: members);
      t.cardinal <- t.cardinal + 1;
      true
    end

  let cardinal t = t.cardinal
end
