(* The mcc benchmark.

     main.exe --workload cold-build|run-heavy|edit-session --seed N
              --seconds S --trace 0|1
     main.exe --self-test

   Runs one workload in this process for S seconds of whole rounds and
   prints one JSON line: the end-to-end metrics with --trace 0, the
   per-layer breakdown with --trace 1 (spans go to
   perfbench/_out/trace-<workload>-<seed>.json).  Operations whose output
   disagrees with the reference are counted as failed, never retried. *)

let out_dir = Filename.concat "perfbench" "_out"

let pass_names = [ "simplifycfg"; "mem2reg"; "constprop"; "dce"; "loop-unroll" ]

(* Every per-layer metric, in output order.  Times, counts and
   allocation are per round of the workload. *)
let per_layer =
  [ ("lexer.self_ms", "ms"); ("lexer.tokens", "count"); ("lexer.alloc_mw", "Mwords");
    ("pp.self_ms", "ms"); ("pp.items", "count"); ("pp.alloc_mw", "Mwords");
    ("parse_sema.self_ms", "ms"); ("ast.nodes", "count"); ("parse_sema.alloc_mw", "Mwords");
    ("codegen.self_ms", "ms"); ("codegen.ir_insts", "count"); ("codegen.alloc_mw", "Mwords");
    ("passes.self_ms", "ms"); ("passes.alloc_mw", "Mwords") ]
  @ List.map (fun p -> ("passes." ^ p ^ ".ms", "ms")) pass_names
  @ [ ("passes.changed", "count"); ("passes.ir_insts_out", "count"); ("unroll.partial", "count");
      ("unroll.full", "count"); ("compile.unattributed_ms", "ms"); ("compile.traced_ms", "ms");
      ("compile.untraced_ms", "ms"); ("interp.self_ms", "ms"); ("interp.steps", "count");
      ("interp.alloc_mw", "Mwords"); ("edit.stage_ms", "ms"); ("edit.passes_ms", "ms");
      ("edit.lex_pp_ms", "ms"); ("edit.unattributed_ms", "ms"); ("cache.fn_hits", "count");
      ("cache.fn_misses", "count"); ("cache.fn_relinks", "count"); ("store.bytes_written", "bytes");
      ("store.entries", "count"); ("store.hits", "count"); ("store.misses", "count");
      ("store.evictions", "count"); ("store.mb", "MB"); ("comment_edit.p50_ms", "ms");
      ("signature_edit.p50_ms", "ms"); ("restart.stage_ms", "ms");
      ("restart.unattributed_ms", "ms"); ("restart.p50_ms", "ms"); ("transfo.self_ms", "ms");
      ("transfo.check_steps", "count"); ("transform.p50_ms", "ms"); ("analysis.self_ms", "ms");
      ("analysis.fn_hits", "count"); ("analysis.findings", "count"); ("analyze.p50_ms", "ms");
      ("trace.wall_ms", "ms") ]

(* The self times that partition the traced operations' wall time. *)
let partition =
  [ "lexer.self_ms"; "pp.self_ms"; "parse_sema.self_ms"; "codegen.self_ms"; "passes.self_ms";
    "compile.unattributed_ms"; "interp.self_ms"; "edit.stage_ms"; "edit.unattributed_ms";
    "restart.stage_ms"; "restart.unattributed_ms"; "transfo.self_ms"; "analysis.self_ms" ]

(* Whether the self times add up to the traced wall time, and the
   metrics. *)
let layer_metrics values =
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt values k) in
  let wall = get "trace.wall_ms" in
  let parts = List.fold_left (fun acc k -> acc +. get k) 0.0 partition in
  let adds_up = Float.abs (parts -. wall) <= 1e-6 *. Float.max 1.0 wall in
  if not adds_up then
    Printf.eprintf "per-layer self times sum to %.6f ms, traced wall is %.6f ms\n" parts wall;
  (adds_up, List.map (fun (k, u) -> Measure.metric k u (get k)) per_layer)

let corpus_layers spans (t : Measure.tally) counts untraced =
  let values = Hashtbl.create 64 in
  let per_round x = x /. float_of_int t.Measure.rounds in
  let ms k = per_round (1000.0 *. Spans.self_s spans k) in
  let mw k = per_round (Spans.alloc_words spans k /. 1e6) in
  let set k v = Hashtbl.replace values k v in
  List.iter
    (fun l ->
      set (l ^ ".self_ms") (ms l);
      set (l ^ ".alloc_mw") (mw l))
    [ "lexer"; "pp"; "parse_sema"; "codegen" ];
  List.iter (fun p -> set ("passes." ^ p ^ ".ms") (ms ("passes." ^ p))) pass_names;
  set "passes.self_ms" (List.fold_left (fun acc p -> acc +. ms ("passes." ^ p)) 0.0 pass_names);
  set "passes.alloc_mw" (List.fold_left (fun acc p -> acc +. mw ("passes." ^ p)) 0.0 pass_names);
  set "compile.unattributed_ms" (ms "compile");
  set "compile.traced_ms"
    (List.fold_left
       (fun acc k -> acc +. Hashtbl.find values k)
       0.0
       [ "lexer.self_ms"; "pp.self_ms"; "parse_sema.self_ms"; "codegen.self_ms"; "passes.self_ms";
         "compile.unattributed_ms" ]);
  set "compile.untraced_ms" (per_round (1000.0 *. untraced));
  set "interp.self_ms" (ms "interp");
  set "interp.alloc_mw" (mw "interp");
  Hashtbl.iter (fun k v -> set k (float_of_int v)) counts;
  set "trace.wall_ms" (per_round (1000.0 *. spans.Spans.wall));
  values

let session_layers spans (t : Measure.tally) log =
  let values = Hashtbl.create 64 in
  let per_round x = x /. float_of_int t.Measure.rounds in
  let ms k = per_round (1000.0 *. Spans.self_s spans k) in
  let set k v = Hashtbl.replace values k v in
  let counter k = per_round (float_of_int (Edit_session.counter log k)) in
  let p50 kind = 1000.0 *. Measure.median (Edit_session.latencies log kind) in
  let stage = List.map (fun st -> ms ("edit." ^ st)) [ "lex"; "pp"; "parse_sema"; "codegen"; "passes" ] in
  set "edit.stage_ms" (List.fold_left ( +. ) 0.0 stage);
  set "edit.passes_ms" (ms "edit.passes");
  set "edit.lex_pp_ms" (ms "edit.lex" +. ms "edit.pp");
  set "edit.unattributed_ms" (ms "edit");
  set "restart.stage_ms" (ms "restart.stage");
  set "restart.unattributed_ms" (ms "restart");
  set "transfo.self_ms" (ms "transfo");
  set "analysis.self_ms" (ms "analysis");
  set "interp.self_ms" (ms "interp");
  set "interp.alloc_mw" (per_round (Spans.alloc_words spans "interp" /. 1e6));
  set "interp.steps" (float_of_int t.Measure.first_steps);
  List.iter
    (fun (k, c) -> set k (counter c))
    [ ("cache.fn_hits", "cache.fn-hits"); ("cache.fn_misses", "cache.fn-misses");
      ("cache.fn_relinks", "cache.fn-relinks"); ("store.hits", "store.hits");
      ("store.misses", "store.misses"); ("store.evictions", "store.evictions");
      ("analysis.fn_hits", "analysis.fn-hits"); ("analysis.findings", "analysis.findings");
      ("transfo.check_steps", "interp.steps-executed") ];
  set "store.bytes_written" (counter "store.bytes-written");
  set "store.entries" (counter "store.entries");
  set "store.mb" (float_of_int log.Edit_session.store_bytes /. 1e6);
  set "comment_edit.p50_ms" (p50 Edit_session.Comment);
  set "signature_edit.p50_ms" (p50 Edit_session.Signature);
  set "restart.p50_ms" (p50 Edit_session.Restart);
  set "transform.p50_ms" (p50 Edit_session.Transform);
  set "analyze.p50_ms" (p50 Edit_session.Analyze);
  set "trace.wall_ms" (per_round (1000.0 *. spans.Spans.wall));
  values

let programs_of = function
  | "cold-build" ->
    Some
      (fun seed ->
        List.mapi
          (fun i u ->
            { Corpus.label = Printf.sprintf "unit %d (%d functions)" i (List.length u.Prog.funcs);
              source = Prog.render u; expected = Reference.eval_unit u })
          (Gen.cold_corpus ~seed))
  | "run-heavy" ->
    Some
      (fun seed ->
        List.map
          (fun k ->
            { Corpus.label = Prog.kernel_label k; source = Prog.render_kernel k;
              expected = Reference.eval_kernel k })
          (Gen.run_heavy_kernels ~seed))
  | _ -> None

(* [correct] holds when every program computed the reference values
   and every report matched the planted ground truth; an operation whose
   only failed check is an IR comparison counts as failed but leaves it
   true. *)
let finish ?spans ~trace_file ~correct (t : Measure.tally) metrics =
  Option.iter
    (fun sp ->
      Edit_session.mkdir_p out_dir;
      Spans.write_chrome sp trace_file;
      Printf.eprintf "trace: %d spans in %s\n" (Spans.count sp) trace_file)
    spans;
  print_endline
    (Measure.result_line ~correct ~attempted:t.Measure.attempted ~failed:t.Measure.failed metrics)

let run ~workload ~seed ~seconds ~trace =
  let spans = if trace then Some (Spans.create ()) else None in
  let trace_file = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  let end_to_end t =
    finish ~trace_file ~correct:(t.Measure.wrong = 0) t
      (Measure.end_to_end ~disk:(workload = "edit-session") t)
  in
  let per_layer t values =
    let adds_up, metrics = layer_metrics values in
    finish ?spans ~trace_file ~correct:(adds_up && t.Measure.wrong = 0) t metrics
  in
  match (programs_of workload, spans) with
  | Some gen, None ->
    end_to_end (Corpus.measure ~setup:(fun () -> ignore (gen seed)) ~seconds (gen seed));
    0
  | Some gen, Some sp ->
    let t, counts, untraced = Corpus.trace ~seconds sp (gen seed) in
    per_layer t (corpus_layers sp t counts untraced);
    0
  | None, _ when workload = "edit-session" ->
    (* Every round's store lives under one directory, removed at the end. *)
    let root = Filename.concat out_dir (Printf.sprintf "session-%d" (Unix.getpid ())) in
    Fun.protect
      ~finally:(fun () -> Edit_session.remove_tree root)
      (fun () ->
        match spans with
        | None -> end_to_end (fst (Edit_session.run ~seed ~root ~seconds ~spans))
        | Some sp ->
          let t, log = Edit_session.run ~seed ~root ~seconds ~spans in
          per_layer t (session_layers sp t log));
    0
  | None, _ ->
    Printf.eprintf "unknown workload '%s' (cold-build, run-heavy, edit-session)\n" workload;
    2

(* ---- self-test ---------------------------------------------------------- *)

(* The evaluator against closed-form sums, then a run given a wrong
   expectation, which must count failed operations instead of passing. *)
let self_test () =
  let nests = ref 0 and wrong = ref 0 in
  for seed = 1 to 20 do
    List.iter
      (fun u ->
        List.iter
          (fun (f : Prog.func) ->
            List.iter
              (function
                | Prog.Nest n | Prog.Fuse [ n ] when n.Prog.op = Prog.Add ->
                  incr nests;
                  if Reference.eval_nest ~p:f.Prog.arg 0L n <> Reference.closed_form_add ~p:f.Prog.arg n
                  then incr wrong
                | _ -> ())
              f.Prog.stmts)
          u.Prog.funcs)
      (Gen.cold_corpus ~seed)
  done;
  Printf.printf "evaluator vs closed form: %d of %d nests disagree\n" !wrong !nests;
  let u = List.hd (Gen.cold_corpus ~seed:1) in
  let bad =
    match Reference.eval_unit u with v :: rest -> Int64.succ v :: rest | [] -> []
  in
  let t = Corpus.measure ~seconds:0.0 [ { Corpus.label = "wrong expectation"; source = Prog.render u; expected = bad } ] in
  Printf.printf "wrong expectation: %d of %d operations failed\n" t.Measure.failed t.Measure.attempted;
  let right = Corpus.measure ~seconds:0.0 [ { Corpus.label = "right expectation"; source = Prog.render u; expected = Reference.eval_unit u } ] in
  Printf.printf "right expectation: %d of %d operations failed\n" right.Measure.failed right.Measure.attempted;
  let ok =
    !wrong = 0 && !nests > 0 && t.Measure.attempted = 2 && t.Measure.failed = 2 && t.Measure.wrong = 2
    && right.Measure.failed = 0
  in
  print_endline (if ok then "self-test: ok" else "self-test: FAILED");
  if ok then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME cold-build, run-heavy or edit-session");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer breakdown");
      ("--self-test", Arg.Set selftest, " check the reference evaluator and the failure counting");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit (if !selftest then self_test () else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
