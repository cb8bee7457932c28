(* The benchmark's worker executable. [perfbench/run.py] builds it and runs
   one subcommand per process:

   - [gen --workload W --seed N --dir D]: generate the workload's input from
     the seed into D (for serve_mixed, also mine the served corpus);
   - [mine --workload W --seed N --dir D --seconds S --trace 0|1 --jobs J]:
     one mining workload — the process doing the work, so its VmHWM is the
     workload's peak RSS;
   - [serve --seed N --dir D --seconds S --trace 0|1 --jobs J]: the
     serve_mixed load generator, which spawns its own router and workers;
   - [worker FILE], [router MANIFEST PORT...]: those serving processes.

   [gen], [mine] and [serve] end by printing one JSON line (see
   [Common.report]). *)

open Common
module Partition = Spm_cluster.Partition

let flag args name =
  let rec find = function
    | k :: v :: _ when k = "--" ^ name -> v
    | _ :: rest -> find rest
    | [] -> invalid_arg (Printf.sprintf "missing --%s" name)
  in
  find args

let input_file dir = Filename.concat dir "input.spm"
let corpus_file dir = Filename.concat dir "corpus.spm"

(* Generation is preparation, untimed. The input is generated twice from the
   seed and both store files must be byte-identical, so two commits measured
   with one seed measure the same input. *)
let gen spec ~seed ~dir ~jobs =
  let g = graph_of spec ~seed in
  let path = input_file dir and again = Filename.concat dir "again.spm" in
  Store.save path (Store.of_graph g);
  Store.save again (Store.of_graph (graph_of spec ~seed));
  check "input generated twice from one seed is byte-identical"
    (In_channel.with_open_bin path In_channel.input_all
    = In_channel.with_open_bin again In_channel.input_all);
  Sys.remove again;
  let info = [ ("m", string_of_int (Spm_graph.Graph.m g)) ] in
  let info =
    if spec.name <> "serve_mixed" then info
    else begin
      let r = mine spec ~jobs g in
      check "corpus mine finished" (r.Skinny_mine.stats.status = Spm_engine.Run.Ok);
      Store.save (corpus_file dir) (store_of_result spec g r);
      ("patterns", string_of_int (List.length r.Skinny_mine.patterns)) :: info
    end
  in
  report ~metrics:[] ~info:(spec_info spec ~jobs @ info)

(* Mining layers of [g]'s mine under the trace: the untraced jobs=1 mine
   (which must match [expected]), the traced split of it, the plan and
   canon replays, and the pool's speedup over [parallel_s]. *)
let mining_layers spec g ~expected ~parallel_s =
  let reference, j1_s = timed (fun () -> mine spec ~jobs:1 g) in
  check "jobs=1 reference mine byte-identical"
    (render reference.Skinny_mine.patterns = expected);
  Layers.traced_mine spec g ~reference:reference.Skinny_mine.patterns
    ~j1_seconds:j1_s
  @ Layers.plan_replay g reference.Skinny_mine.patterns
  @ [ ("pool.speedup", j1_s /. median parallel_s) ]

let store_layers spec ~dir ~path (store : Store.pattern_store) ~jobs =
  let scratch = Filename.concat dir "save-probe.spm" in
  let saves = repeat 5 (fun () -> Store.save scratch store) in
  Sys.remove scratch;
  Layers.store_opens path
  @ [
      ("store.save_s", median saves);
      ( "incremental.stage1_s",
        Layers.stage1_probe spec store.Store.graph ~jobs );
    ]

let read_layers lookups contains =
  [
    ("server.handle_us.lookup", Layers.us (median lookups));
    ("server.handle_us.contains", Layers.us (median contains));
  ]

(* {1 mine_grow, mine_paths}

   Set-up is opening the input store (median of 21 opens). The measured
   loop mines at jobs=J back to back for [seconds] (at least three mines),
   each output byte-compared with an untimed jobs=1 reference. The mined
   set is then updated the way a batch miner persists an edit (100
   single-edge batches appended to the store's journal, each followed by
   [Store.save]) and read through the serving tier. *)
let mine_main spec ~seed ~dir ~seconds ~trace ~jobs =
  let path = input_file dir in
  let setups = repeat 21 (fun () -> ignore (open_store spec path)) in
  let g = (open_store spec path).Store.graph in
  let reference = mine spec ~jobs:1 g in
  check "reference mine finished"
    (reference.Skinny_mine.stats.status = Spm_engine.Run.Ok);
  let expected = render reference.Skinny_mine.patterns in
  let samples = ref [] in
  let t0 = now () in
  while List.length !samples < 3 || now () -. t0 < seconds do
    match timed (fun () -> mine spec ~jobs g) with
    | r, dt ->
      record ~what:"mine at jobs=J differs from jobs=1"
        (r.Skinny_mine.stats.status = Spm_engine.Run.Ok
        && render r.Skinny_mine.patterns = expected);
      samples := dt :: !samples
    | exception e -> record ~what:(Printexc.to_string e) false
  done;
  let loop_s = now () -. t0 in
  let result = store_of_result spec g reference in
  let rss_kb = vm_hwm_kb () in
  let out = Filename.concat dir "result.spm" in
  let edit = Layers.edit_stream spec ~seed g in
  (* Settle the garbage the mines left before timing the saves, or the major
     slices paying it off land in whichever saves happen to run them. *)
  Gc.full_major ();
  let saves =
    List.fold_left
      (fun (s, saves) _ ->
        let s = { s with Store.journal = s.Store.journal @ [ [ edit () ] ] } in
        let (), dt = timed (fun () -> Store.save out s) in
        record true;
        (s, dt :: saves))
      (result, []) (List.init 100 Fun.id)
    |> snd
  in
  check "journal of 100 updates reloads at version 100"
    (Store.latest_version (Store.load out) = 100);
  let metrics =
    if not trace then
      (* Reads of the mined set go through the serving tier: three seconds
         of the serve_mixed reader against it, with no writer. *)
      let session =
        Serving.session spec ~dir ~store:result ~seed ~jobs ~setups:1
          ~seconds:3.0 ~quota:(Some 0)
      in
      [
        ("setup_s", median setups);
        ("mine_s", median !samples);
        ("peak_rss_mb", float_of_int rss_kb /. 1024.0);
        ("throughput_rps", float_of_int (List.length !samples) /. loop_s);
        ("update_p50_ms", 1000.0 *. percentile saves 0.50);
        ("update_p90_ms", 1000.0 *. percentile saves 0.90);
      ]
      @ Serving.read_percentiles session
    else begin
      let lookups, contains =
        Layers.inprocess_reads ~seed ~count:2000 result
      in
      let mining = mining_layers spec g ~expected ~parallel_s:!samples in
      let stores = store_layers spec ~dir ~path result ~jobs in
      (* The serving layers, over this workload's own mined set: a brief
         session of the serve_mixed tier with a single update. *)
      let session =
        Serving.session spec ~dir ~store:result ~seed ~jobs ~setups:1
          ~seconds:1.0 ~quota:(Some 1)
      in
      Trace.write (Filename.concat dir "trace.jsonl");
      mining @ stores
      @ Layers.codec_probes spec ~seed reference.Skinny_mine.patterns g
      @ Layers.sig_index_probes ~seed reference.Skinny_mine.patterns
      @ read_layers lookups contains
      @ Serving.per_layer session
    end
  in
  report ~metrics
    ~info:
      (spec_info spec ~jobs
      @ [ ("mines", string_of_int (List.length !samples));
          ("patterns",
           string_of_int (List.length reference.Skinny_mine.patterns)) ])

(* {1 serve_mixed}

   Five cold starts of the 2-shard cluster give the set-up time; the last
   one takes the closed-loop load for [seconds]. *)
let serve_main spec ~seed ~dir ~seconds ~trace ~jobs =
  let path = corpus_file dir in
  let store = Store.load_mapped path in
  let session =
    Serving.session spec ~dir ~store ~seed ~jobs ~setups:5 ~seconds
      ~quota:None
  in
  let metrics =
    if not trace then Serving.end_to_end session
    else begin
      let g = store.Store.graph in
      let parallel_s = repeat 3 (fun () -> ignore (mine spec ~jobs g)) in
      let mining =
        mining_layers spec g ~expected:(render store.Store.patterns)
          ~parallel_s
      in
      let shard = (Partition.split ~shards:Serving.shards store).(0) in
      let lookups, contains = Layers.inprocess_reads ~seed ~count:2000 shard in
      Trace.write (Filename.concat dir "trace.jsonl");
      mining
      @ store_layers spec ~dir ~path store ~jobs
      @ Layers.codec_probes spec ~seed store.Store.patterns g
      @ Layers.sig_index_probes ~seed store.Store.patterns
      @ read_layers lookups contains
      @ Serving.per_layer session
    end
  in
  report ~metrics
    ~info:
      (spec_info spec ~jobs
      @ [
          ("reads", string_of_int (List.length session.Serving.load.reads));
          ("updates", string_of_int (List.length session.Serving.load.updates));
          ("mines", string_of_int (List.length session.Serving.load.mines));
          ("patterns", string_of_int (List.length store.Store.patterns));
        ])

let () =
  match Array.to_list Sys.argv with
  | _ :: "worker" :: [ file ] -> Serving.worker_main file
  | _ :: "router" :: manifest :: ports -> Serving.router_main manifest ports
  | _ :: cmd :: args -> (
    let seed = int_of_string (flag args "seed") and dir = flag args "dir" in
    let run_args () =
      ( float_of_string (flag args "seconds"),
        flag args "trace" = "1",
        int_of_string (flag args "jobs") )
    in
    match cmd with
    | "gen" ->
      gen (spec_of (flag args "workload")) ~seed ~dir
        ~jobs:(int_of_string (flag args "jobs"))
    | "mine" ->
      let seconds, trace, jobs = run_args () in
      mine_main (spec_of (flag args "workload")) ~seed ~dir ~seconds ~trace
        ~jobs
    | "serve" ->
      let seconds, trace, jobs = run_args () in
      serve_main (spec_of "serve_mixed") ~seed ~dir ~seconds ~trace ~jobs
    | _ -> invalid_arg ("unknown subcommand " ^ cmd))
  | _ ->
    prerr_endline "usage: perfbench (gen|mine|serve) --seed N --dir D ...";
    exit 2
