open Spm_graph
open Spm_pattern

type mined = {
  pattern : Pattern.t;
  support : int;
  levels : int array;
  diameter_labels : Path_pattern.t;
}

type stats = {
  extensions_tried : int;
  constraint_rejected : int;
  infrequent : int;
  emitted : int;
  interrupted : bool;
  seconds : float;
}

(* Extension descriptor: NL (host, new label) creates a twig; CE (u, v)
   closes an edge between existing vertices. *)
type desc = NL of int * Label.t | CE of int * int

let compare_desc a b =
  match (a, b) with
  | NL (h1, l1), NL (h2, l2) ->
    let c = Int.compare h1 h2 in
    if c <> 0 then c else Label.compare l1 l2
  | CE (u1, v1), CE (u2, v2) ->
    let c = Int.compare u1 u2 in
    if c <> 0 then c else Int.compare v1 v2
  | NL _, CE _ -> -1
  | CE _, NL _ -> 1

type pstate = {
  pattern : Pattern.t;
  levels : int array; (* true distance to the diameter path [0..l] *)
  idx : Distance_index.t;
  maps : int array list; (* all mappings pattern vertex -> data vertex *)
  support : int;
}

(* One extension of a state, grouped by descriptor. Enumeration keeps counts
   only: the child pattern is built when the descriptor is tried, and its
   mapping list only once the child is admissible, new and frequent. *)
type cand = {
  desc : desc;
  mutable admitted : bool;
      (* false once rejected: on the pattern during enumeration (an [Exact]
         leaf verdict), or by the check on the built child *)
  mutable judged : bool; (* the child is in [decided] *)
  mutable count : int; (* mappings of the child *)
  mutable covered : int; (* parent mappings it extends *)
  mutable last : int; (* index of the last parent mapping counted *)
}

(* Per-grow scratch: the relaxation queue and the embedding-image mark array
   are allocated once per [grow] call and reused across every state and
   embedding, instead of a fresh Queue / Hashtbl per extension. The mark
   array is stamp-based: each embedding bumps [stamp] and writes it at its
   image vertices, so membership is one array probe and no clearing pass. *)
type scratch = {
  relax_queue : int Queue.t;
  mark : int array; (* sized to the data graph *)
  mutable stamp : int;
}

let make_scratch data =
  {
    relax_queue = Queue.create ();
    mark = Array.make (max 1 (Graph.n data)) 0;
    stamp = 0;
  }

(* Stamp the image of one mapping; returns the stamp. *)
let mark_image scratch m =
  scratch.stamp <- scratch.stamp + 1;
  let s = scratch.stamp in
  Array.iter (fun tv -> scratch.mark.(tv) <- s) m;
  s

(* The pattern vertex above [pu] that mapping [m] sends to [w], or -1. *)
let image_after m pu w =
  let rec find pv =
    if pv >= Array.length m then -1
    else if m.(pv) = w then pv
    else find (pv + 1)
  in
  find (pu + 1)

(* Levels (distance to the diameter) maintained exactly: a fresh leaf sits
   one above its host; a closing edge can only lower levels, propagated by a
   decrease-only relaxation. *)
let relax_levels scratch pattern' levels u v =
  let queue = scratch.relax_queue in
  Queue.clear queue;
  let try_improve a b =
    if levels.(b) > levels.(a) + 1 then begin
      levels.(b) <- levels.(a) + 1;
      Queue.add b queue
    end
  in
  try_improve u v;
  try_improve v u;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    Graph.iter_adj pattern' x (fun y -> try_improve x y)
  done

let new_cand desc admitted =
  { desc; admitted; judged = false; count = 0; covered = 0; last = -1 }

(* Mapping [i] of the parent yields one more mapping of [c]'s child. *)
let count_mapping c i =
  c.count <- c.count + 1;
  if c.last <> i then begin
    c.last <- i;
    c.covered <- c.covered + 1
  end

(* Enumerate extension candidates for one state, sorted by descriptor. Twigs
   may hang off any vertex whose level leaves room under delta; closing
   edges may join any non-adjacent pair whose images are adjacent in the
   data graph. One pass over each image vertex's data neighbors finds both:
   a neighbor outside the image is a twig, one inside it a closing edge.
   [leaf_verdict], when given, decides a twig on a host for every label at
   once, before any child or mapping exists; it runs on the host's first
   twig. *)
let candidates run scratch data st ~delta ~leaf_verdict =
  let np = Graph.n st.pattern in
  let twigs : ((Label.t, cand) Hashtbl.t * (Label.t -> bool)) option array =
    Array.make np None
  in
  let twigs_of host =
    match twigs.(host) with
    | Some t -> t
    | None ->
      let admit =
        match leaf_verdict with
        | None -> fun _ -> true
        | Some verdict -> Constraints.admits (verdict host)
      in
      let t = (Hashtbl.create 8, admit) in
      twigs.(host) <- Some t;
      t
  in
  let joined = Array.make (np * np) false in
  Graph.iter_edges (fun u v -> joined.((u * np) + v) <- true) st.pattern;
  let closing : cand option array = Array.make (np * np) None in
  let closing_of pu pv =
    let k = (pu * np) + pv in
    match closing.(k) with
    | Some c -> c
    | None ->
      let c = new_cand (CE (pu, pv)) true in
      closing.(k) <- Some c;
      c
  in
  List.iteri
    (fun i m ->
      Spm_engine.Run.check run;
      let s = mark_image scratch m in
      for pu = 0 to np - 1 do
        let room = st.levels.(pu) <= delta - 1 in
        Graph.iter_adj data m.(pu) (fun w ->
            if scratch.mark.(w) <> s then begin
              if room then begin
                let by_label, admit = twigs_of pu in
                let label = Graph.label data w in
                let c =
                  match Hashtbl.find_opt by_label label with
                  | Some c -> c
                  | None ->
                    let c = new_cand (NL (pu, label)) (admit label) in
                    Hashtbl.add by_label label c;
                    c
                in
                count_mapping c i
              end
            end
            else begin
              let pv = image_after m pu w in
              if pv >= 0 && not joined.((pu * np) + pv) then
                count_mapping (closing_of pu pv) i
            end)
      done)
    st.maps;
  let cands =
    Array.fold_left
      (fun acc -> function Some c -> c :: acc | None -> acc)
      [] closing
  in
  Array.fold_left
    (fun acc -> function
      | Some (by_label, _) ->
        Hashtbl.fold (fun _ c acc -> c :: acc) by_label acc
      | None -> acc)
    cands twigs
  |> List.sort (fun a b -> compare_desc a.desc b.desc)

(* The child's complete mapping list, in the order enumeration met it. *)
let child_maps scratch data st desc =
  match desc with
  | NL (host, label) ->
    List.fold_left
      (fun acc m ->
        let s = mark_image scratch m in
        let acc = ref acc in
        Graph.adj_with_label data m.(host) label (fun w ->
            if scratch.mark.(w) <> s then
              acc := Array.append m [| w |] :: !acc);
        !acc)
      [] st.maps
  | CE (u, v) ->
    List.fold_left
      (fun acc m -> if Graph.has_edge data m.(u) m.(v) then m :: acc else acc)
      [] st.maps

let child_pattern st = function
  | NL (host, label) -> Pattern.extend_new_vertex st.pattern ~host ~label
  | CE (u, v) -> Pattern.extend_close_edge st.pattern u v

let child_index st pattern' = function
  | NL (host, _) -> Distance_index.extend_new_vertex st.idx ~host
  | CE (u, v) -> Distance_index.extend_close_edge pattern' st.idx u v

let child_levels scratch st pattern' = function
  | NL (host, _) -> Array.append st.levels [| st.levels.(host) + 1 |]
  | CE (u, v) ->
    let levels = Array.copy st.levels in
    relax_levels scratch pattern' levels u v;
    levels

let extension = function
  | NL (host, _) -> Constraints.New_leaf { host }
  | CE (u, v) -> Constraints.Close (u, v)

(* A descriptor is "universal" for a state when every embedding of the
   pattern supports it — extending by it cannot reduce the support, so every
   closed superpattern contains it. Closed growth applies such extensions
   eagerly without branching (the item-merging jump of closed-pattern
   mining), collapsing the twig powerset the complete semantics enumerates. *)
let universal_descs st cands =
  let total = List.length st.maps in
  List.filter (fun c -> c.covered = total) cands

(* |E[P]| from the complete mapping list: for a connected pattern every
   image subgraph accounts for exactly |Aut(P)| mappings, so the
   distinct-subgraph count is a division — no per-mapping dedup hashing. *)
let default_support pattern count =
  if count = 0 then 0 else count / Plan.automorphism_count pattern

let grow ?(mode = Constraints.Exact) ?(family = Constraints.Skinny)
    ?(closed_growth = false) ?support ?run ~data ~sigma ~delta
    ~(entry : Diam_mine.entry) () =
  let run =
    match run with Some r -> r | None -> Spm_engine.Run.create ()
  in
  let t0 = Spm_engine.Clock.now () in
  let scratch = make_scratch data in
  let l = Path_pattern.length entry.Diam_mine.labels in
  let diameter_pattern = Path_pattern.to_pattern entry.Diam_mine.labels in
  let tried = ref 0 and rejected = ref 0 and infreq = ref 0 in
  let init_maps =
    let embs = entry.Diam_mine.embeddings in
    (* A length-0 path ([l = 0], the neighborhood family's single center) is
       trivially a palindrome but has only one orientation per embedding —
       doubling would double-count |maps| against |Aut|. *)
    if l > 0 && Path_pattern.is_palindrome entry.Diam_mine.labels then
      List.concat_map
        (fun e ->
          let r = Array.init (Array.length e) (fun k -> e.(Array.length e - 1 - k)) in
          [ e; r ])
        embs
    else embs
  in
  let init =
    {
      pattern = diameter_pattern;
      levels = Array.make (l + 1) 0;
      idx = Distance_index.init diameter_pattern ~head:0 ~tail:l;
      maps = init_maps;
      support =
        (match support with
        | Some f -> f diameter_pattern init_maps
        | None -> default_support diameter_pattern (List.length init_maps));
    }
  in
  (* Unique generation: every pattern in [decided] (a set up to
     isomorphism) has been judged exactly once (accepted or infrequent);
     verdicts are derivation-independent, so re-derivations are skipped. *)
  let decided = Canon.Set.create () in
  let out = ref [] in
  let interrupted = ref false in
  (* [full] = this run's emission budget is spent: stop exploring but finish
     normally (status Ok — a budget is an output cap, not an interruption). *)
  let full = ref (Spm_engine.Run.budget_exhausted run) in
  (* Edgeless patterns (the neighborhood family's bare center seed) are
     growth states, never results: every reported pattern has >= 1 edge. A
     no-op for skinny, whose seeds carry l >= 1 edges. *)
  let emit st =
    if (not !full) && Pattern.size st.pattern > 0 then begin
      out :=
        {
          pattern = st.pattern;
          support = st.support;
          levels = st.levels;
          diameter_labels = entry.Diam_mine.labels;
        }
        :: !out;
      Spm_engine.Run.emit run;
      if Spm_engine.Run.budget_exhausted run then full := true
    end
  in
  ignore (Canon.Set.add decided init.pattern);
  (* [Exact] decides every leaf on the pattern, per host, during
     enumeration; the other modes, and every closing edge, are checked on
     the built child. *)
  let leaves_on_pattern = mode = Constraints.Exact in
  let leaf_verdict st host =
    match family with
    | Constraints.Skinny ->
      Constraints.skinny_leaf ~pattern:st.pattern ~idx:st.idx ~l ~host
    | Constraints.Neighborhood _ ->
      Constraints.neighborhood_leaf ~idx:st.idx ~r:delta ~host
  in
  let checked_on_child = function
    | NL _ -> not leaves_on_pattern
    | CE _ -> true
  in
  (* The child's support, or [None] when it is below sigma. The default
     support needs only the mapping count, so the mapping list is built
     only for a frequent child. *)
  let judge_support st pattern' c =
    match support with
    | None ->
      if c.count < sigma then None
      else
        let s = default_support pattern' c.count in
        if s < sigma then None
        else Some (s, child_maps scratch data st c.desc)
    | Some f ->
      let maps = child_maps scratch data st c.desc in
      let s = f pattern' maps in
      if s < sigma then None else Some (s, maps)
  in
  (* Try one candidate; [`Dup] = pattern already judged elsewhere. Every
     call counts as tried, however early its verdict was reached. *)
  let build_child st c =
    incr tried;
    Spm_engine.Run.tick run;
    if not c.admitted then begin
      incr rejected;
      `Rejected
    end
    else if c.judged then `Dup
    else begin
      let pattern' = child_pattern st c.desc in
      let idx' = lazy (child_index st pattern' c.desc) in
      (* Constraints first: rejections are by far the most common outcome
         and must not pay for the isomorphism dedup. (Verdicts depend on WHICH
         vertices carry the diameter — two isomorphic constructions can
         differ, e.g. a paw built as triangle-on-the-diameter vs
         triangle-on-a-twig — so a rejection is remembered for this
         candidate only; only acceptance and infrequency are
         pattern-intrinsic.) *)
      let admissible =
        (not (checked_on_child c.desc))
        ||
        let ext = extension c.desc in
        match family with
        | Constraints.Skinny ->
          Constraints.check ~mode ~pattern':pattern' ~idx:st.idx
            ~idx':(Lazy.force idx') ~l ext
        | Constraints.Neighborhood _ ->
          (* [delta] carries the radius r; vertex 0 is the center. *)
          Constraints.check_neighborhood ~mode ~pattern':pattern'
            ~idx':(Lazy.force idx') ~r:delta ext
      in
      if not admissible then begin
        c.admitted <- false;
        incr rejected;
        `Rejected
      end
      else begin
        c.judged <- true;
        if not (Canon.Set.add decided pattern') then `Dup
        else
          match judge_support st pattern' c with
          | None ->
            incr infreq;
            `Infrequent
          | Some (support, maps) ->
            `Child
              {
                pattern = pattern';
                levels = child_levels scratch st pattern' c.desc;
                idx = Lazy.force idx';
                maps;
                support;
              }
      end
    end
  in
  let rec closure frontier =
    match frontier with
    | [] -> ()
    | st :: rest when not !full ->
      Spm_engine.Run.check run;
      Spm_engine.Run.set_level run (Graph.m st.pattern);
      let cands =
        candidates run scratch data st ~delta
          ~leaf_verdict:
            (if leaves_on_pattern then Some (leaf_verdict st) else None)
      in
      if closed_growth then begin
        (* Eager phase: the first applicable support-preserving extension
           replaces the state without emitting it (the parent cannot be
           closed); universal children whose support grows are kept as
           ordinary branches. A duplicate universal means an isomorphic
           continuation is handled elsewhere. *)
        let rec eager stash = function
          | [] -> `NoUniversal stash
          | cand :: more -> (
            match build_child st cand with
            | `Child st' when st'.support = st.support -> `Jump (st', stash)
            | `Child st' -> eager (st' :: stash) more
            | `Dup -> `Covered stash
            | `Rejected | `Infrequent -> eager stash more)
        in
        match eager [] (universal_descs st cands) with
        | `Jump (st', stash) -> closure ((st' :: stash) @ rest)
        | `Covered stash -> closure (stash @ rest)
        | `NoUniversal stash ->
          emit st;
          let children =
            List.filter_map
              (fun cand ->
                match build_child st cand with
                | `Child st' -> Some st'
                | `Dup | `Rejected | `Infrequent -> None)
              cands
          in
          closure (stash @ children @ rest)
      end
      else begin
        let children =
          List.filter_map
            (fun cand ->
              match build_child st cand with
              | `Child st' ->
                emit st';
                Some st'
              | `Dup | `Rejected | `Infrequent -> None)
            cands
        in
        closure (children @ rest)
      end
    | _ :: _ -> ()
  in
  (* An interrupted run unwinds here via [Run.Cancelled]; [out] survives the
     unwinding, so the patterns emitted before the interruption are returned
     as a partial result with [interrupted = true] in the stats. *)
  (try
     Spm_engine.Run.check run;
     if not closed_growth then emit init;
     if delta >= 0 then closure [ init ]
   with Spm_engine.Run.Cancelled _ -> interrupted := true);
  let result = List.rev !out in
  ( result,
    {
      extensions_tried = !tried;
      constraint_rejected = !rejected;
      infrequent = !infreq;
      emitted = List.length result;
      interrupted = !interrupted;
      seconds = Spm_engine.Clock.now () -. t0;
    } )
