(* The edit-session workload: one 64-function unit edited against a
   persistent store that starts empty.  Every operation is checked:
   compiled programs against the reference evaluator, a fixed sample of
   warm compiles against an uncached compile, scripted transforms
   against the same pragma written by hand, and analysis reports against
   the defects the generator planted.

   Each round starts over from a fresh set-up: the seed's unit cold-built
   into an empty store in a directory of its own, removed when the round
   ends.  A round writes about 35 MB, far below the store's default
   budget, so no round evicts, and a faster or slower mcc runs every
   round in the same regime. *)

module Cache = Mc_core.Cache
module Store = Mc_core.Store
module Instance = Mc_core.Instance
module Invocation = Mc_core.Invocation
module Driver = Mc_core.Driver
module Stats = Mc_support.Stats
module Interp = Mc_interp.Interp
module Report = Mc_analysis.Report

type kind = Body | Comment | Signature | Restart | Transform | Analyze

(* One round: mostly one-function body edits, with comment and signature
   edits, restarts, transforms and analyses between them.  It ends on a
   body edit, whose IR is always checked against an uncached compile. *)
let round =
  [| Body; Body; Comment; Body; Body; Body; Transform; Body; Body; Comment;
     Body; Body; Analyze; Body; Body; Body; Comment; Body; Restart; Body;
     Body; Body; Signature; Body; Body; Comment; Body; Body; Transform; Body;
     Body; Body; Analyze; Body; Comment; Body; Body; Restart; Body; Body |]

let transparency_checked i = i mod 10 = 4 || i = Array.length round - 1

(* Scripts for the pragma-free depth-2 target nests, with the directive
   each one must be equivalent to. *)
let scripts =
  [
    ("tile sizes(4,4)", Prog.Tile [ 4; 4 ]);
    ("interchange permutation(2,1)", Prog.Interchange [ 2; 1 ]);
    ("unroll partial(2)", Prog.Unroll_partial 2);
    ("reverse", Prog.Reverse);
    ("stripe sizes(3)", Prog.Stripe [ 3 ]);
  ]

type session = {
  rng : Rng.t; (* carried from round to round *)
  funcs : Prog.func array;
  planted : Prog.planted list;
  values : int64 array; (* reference value of each function *)
  dir : string;
  mutable store : Store.t;
  mutable cache : Cache.t;
  mutable inst : Instance.t;
}

let unit_of s = { Prog.funcs = Array.to_list s.funcs; planted = s.planted }
let source s = Prog.render (unit_of s)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let open_store s =
  s.store <- Store.create ~dir:s.dir ();
  s.cache <- Cache.create ~store:s.store ();
  s.inst <- Instance.create ~cache:s.cache Invocation.default

(* Input generation, reference values and the cold build into an empty
   store in [dir], which must not exist yet.  Edits draw from [rng]. *)
let setup ~seed ~rng ~dir =
  mkdir_p dir;
  let u = Gen.session_unit ~seed in
  let store = Store.create ~dir () in
  let cache = Cache.create ~store () in
  let s =
    {
      rng;
      funcs = Array.of_list u.Prog.funcs;
      planted = u.Prog.planted;
      values = Array.of_list (Reference.eval_unit u);
      dir;
      store;
      cache;
      inst = Instance.create ~cache Invocation.default;
    }
  in
  let c = Instance.compile s.inst (source s) in
  if c.Instance.c_result.Driver.ir = None then failwith "edit-session: the cold build failed";
  s

(* ---- edits ----------------------------------------------------------------- *)

(* A value in [lo, hi] other than [old]. *)
let fresh r old lo hi =
  let v = Rng.range r lo (hi - 1) in
  if v >= old then v + 1 else v

let edit_nest r (n : Prog.nest) =
  match Rng.int r 3 with
  | 0 ->
    let i = Rng.int r (List.length n.Prog.coefs) in
    { n with Prog.coefs = List.mapi (fun j c -> if j = i then fresh r c 2 9 else c) n.Prog.coefs }
  | 1 -> { n with Prog.pcoef = fresh r n.Prog.pcoef 1 5 }
  | _ -> { n with Prog.k = fresh r n.Prog.k 0 20 }

(* The [n]th body edit of the run edits function [n] modulo their
   number, so every seed and every run length edits each function about
   equally often; what changes in it is drawn from the seed. *)
let body_edit s n =
  let i = n mod Array.length s.funcs in
  let f = s.funcs.(i) in
  let j = Rng.int s.rng (List.length f.Prog.stmts) in
  let stmts =
    List.mapi
      (fun k st ->
        if k <> j then st
        else
          match st with
          | Prog.Nest n -> Prog.Nest (edit_nest s.rng n)
          | Prog.Fuse ms ->
            let m = Rng.int s.rng (List.length ms) in
            Prog.Fuse (List.mapi (fun l n -> if l = m then edit_nest s.rng n else n) ms))
      f.Prog.stmts
  in
  let f = { f with Prog.stmts } in
  s.funcs.(i) <- f;
  s.values.(i) <- Reference.eval_func f

let comment_edit s =
  let i = Rng.int s.rng (Array.length s.funcs) in
  s.funcs.(i) <- { (s.funcs.(i)) with Prog.note = s.funcs.(i).Prog.note + 1 }

let signature_edit s =
  let i = Rng.int s.rng (Array.length s.funcs) in
  s.funcs.(i) <- { (s.funcs.(i)) with Prog.extra_param = not s.funcs.(i).Prog.extra_param }

(* ---- checks ----------------------------------------------------------------- *)

let planted_findings planted =
  List.filter_map
    (function
      | Prog.Uninit n -> Some ("uninit", n)
      | Prog.Leak n -> Some ("leak", n)
      | Prog.Unreachable n -> Some ("unreachable", n)
      | Prog.Carried _ -> None)
    planted
  |> List.sort compare

let unsafe_for directive (lr : Report.loop_report) =
  List.exists
    (fun (dv : Report.directive_verdict) ->
      (directive = None || directive = Some dv.Report.dv_directive) && dv.Report.dv_verdict = Report.Unsafe)
    lr.Report.lr_directives

(* Each planted finding with the right pass and function, nothing else;
   no unsafe verdict outside the planted functions; every carried
   dependence unsafe for reverse. *)
let analysis_ok planted (r : Report.t) =
  let names = List.map Prog.planted_name planted in
  let found =
    List.sort_uniq compare
      (List.map (fun (f : Report.finding) -> (f.Report.f_pass, f.Report.f_func)) (Report.findings r))
  in
  let loops = Report.loops r in
  found = planted_findings planted
  && List.for_all (fun lr -> List.mem lr.Report.lr_func names || not (unsafe_for None lr)) loops
  && List.for_all
       (function
         | Prog.Carried (n, _) ->
           List.exists (fun lr -> lr.Report.lr_func = n && unsafe_for (Some "reverse") lr) loops
         | _ -> true)
       planted

let ir_of (c : Instance.compilation) = c.Instance.c_result.Driver.ir

(* ---- the session -------------------------------------------------------- *)

(* Beside the shared tally: every latency by operation kind, the
   program's counters summed over every operation, and what the rounds
   did to their stores. *)
type log = {
  lat : (kind, float list) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  mutable store_bytes : int; (* at the end of the last round *)
}

let latencies log k = Option.value ~default:[] (Hashtbl.find_opt log.lat k)
let counter log k = Option.value ~default:0 (Hashtbl.find_opt log.counters k)
let add_counter log k v = Hashtbl.replace log.counters k (v + counter log k)

let counted =
  [ "cache.fn-hits"; "cache.fn-misses"; "cache.fn-relinks"; "store.hits"; "store.misses";
    "store.evictions"; "analysis.fn-hits"; "interp.steps-executed" ]

(* Bytes of the store's files written since the last scan, which
   [seen] (path to inode) holds.  Every save publishes a new file by
   rename, so a new path, or a path whose inode changed, was written.
   A file evicted and rewritten under a recycled inode between two scans
   goes uncounted. *)
let scan_written seen dir =
  let now = Hashtbl.create (Hashtbl.length seen) in
  let rec walk path acc =
    let st = Unix.lstat path in
    match st.Unix.st_kind with
    | Unix.S_DIR -> Array.fold_left (fun acc e -> walk (Filename.concat path e) acc) acc (Sys.readdir path)
    | Unix.S_REG ->
      Hashtbl.replace now path st.Unix.st_ino;
      if Hashtbl.find_opt seen path = Some st.Unix.st_ino then acc else acc + st.Unix.st_size
    | _ -> acc
  in
  let bytes = walk dir 0 in
  Hashtbl.reset seen;
  Hashtbl.iter (Hashtbl.replace seen) now;
  bytes

let kind_name = function
  | Body -> "body edit"
  | Comment -> "comment edit"
  | Signature -> "signature edit"
  | Restart -> "restart"
  | Transform -> "transform"
  | Analyze -> "analyze"

(* Runs whole rounds for [seconds], each on a fresh set-up in its own
   directory under [root], removed when the round ends.  The compile
   latencies of the end-to-end metrics are those of body edits; every
   other kind is reported per layer.  With [spans], the store's writes
   are scanned after every operation, outside the spans. *)
let run ~seed ~root ~seconds ~spans =
  let span name f = match spans with Some sp -> Spans.root sp name f | None -> f () in
  let attribute name dur = match spans with Some sp -> Spans.attribute sp name dur | None -> () in
  mkdir_p root;
  let log = { lat = Hashtbl.create 8; counters = Hashtbl.create 16; store_bytes = 0 } in
  let rng = Rng.create (seed + 1) in
  let transforms = ref 0 and body_edits = ref 0 in
  let current = ref None and made = ref 0 in
  let setup () =
    incr made;
    current := Some (setup ~seed ~rng ~dir:(Filename.concat root (Printf.sprintf "round-%d" !made)))
  in
  let seen = Hashtbl.create 1024 in
  let op t s kind f =
    let fail = Measure.operation t (fun what ->
        Printf.eprintf "FAILED %s (round %d): %s\n%!" (kind_name kind) t.Measure.rounds what)
    in
    let (c : Instance.compilation), dt = f () in
    Hashtbl.replace log.lat kind (dt :: latencies log kind);
    if kind = Body then Measure.compiled t dt;
    let snap = c.Instance.c_result.Driver.stats in
    List.iter (fun k -> add_counter log k (Stats.find snap k)) counted;
    if spans <> None then add_counter log "store.bytes-written" (scan_written seen s.dir);
    (c, fail)
  in
  let stages (c : Instance.compilation) =
    let tm = c.Instance.c_result.Driver.timings in
    [ ("lex", tm.Driver.t_lex); ("pp", tm.Driver.t_preprocess);
      ("parse_sema", tm.Driver.t_parse_sema); ("codegen", tm.Driver.t_codegen);
      ("passes", tm.Driver.t_passes) ]
  in
  (* The program's own stage times become the edit span's children. *)
  let edit s () =
    let src = source s in
    span "edit" (fun () ->
        let c, dt = Measure.time (fun () -> Instance.compile s.inst src) in
        List.iter (fun (stage, v) -> attribute ("edit." ^ stage) v) (stages c);
        (c, dt))
  in
  let restart s () =
    span "restart" (fun () ->
        Measure.time (fun () ->
            open_store s;
            let c = Instance.compile s.inst (source s) in
            attribute "restart.stage" (List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (stages c));
            c))
  in
  (* The compiled program's record trace against the reference values;
     it returns the module when they agree. *)
  let check_trace t s (c, (fail : Measure.fail)) =
    match ir_of c with
    | None -> fail ~wrong:true "no IR"; None
    | Some m -> (
      let o, rt = Measure.time (fun () -> span "interp" (fun () -> Corpus.run_program m)) in
      match o with
      | Some o when Corpus.matches (Array.to_list s.values) o ->
        Measure.interpreted t ~steps:o.Interp.steps rt;
        Measure.emitted t ~insts:(Mc_ir.Ir.module_inst_count m);
        Some m
      | _ -> fail ~wrong:true "record trace differs from the reference"; None)
  in
  let check_compile t s i (c, (fail : Measure.fail)) =
    match check_trace t s (c, fail) with
    | Some m when transparency_checked i -> (
      match (Driver.compile ~options:(Corpus.options false) (source s)).Driver.ir with
      | Some cold when Corpus.ir_text cold = Corpus.ir_text m -> ()
      | _ -> fail "warm IR differs from an uncached compile")
    | _ -> ()
  in
  (* Timed: the scripted compile through the session's cache, whose
     program is checked like any other.  Untimed: the scripted source and
     the same source with the pragma written by hand, both uncached, must
     give the same IR. *)
  let transform t s =
    let irb = !transforms mod 2 = 1 in
    let script, dir = List.nth scripts (!transforms mod List.length scripts) in
    incr transforms;
    let k = Rng.int s.rng Gen.session_targets in
    let target = Printf.sprintf "tgt%d" k in
    let script = Printf.sprintf "%s @ fun(%s) for(t%da)\n" script target k in
    let inv =
      { Invocation.default with
        Invocation.use_irbuilder = irb;
        transfo_script = Some (Invocation.Source { name = "session.transfo"; contents = script }) }
    in
    let inst = Instance.create ~cache:s.cache inv in
    let c, fail =
      op t s Transform (fun () -> span "transfo" (fun () -> Measure.time (fun () -> Instance.compile inst (source s))))
    in
    ignore (check_trace t s (c, fail));
    let by_hand =
      Array.map
        (fun (f : Prog.func) ->
          if f.Prog.name <> target then f
          else
            { f with
              Prog.stmts =
                List.map (function Prog.Nest n -> Prog.Nest { n with Prog.dir } | st -> st) f.Prog.stmts })
        s.funcs
    in
    let scripted = Driver.compile ~options:(Invocation.to_driver_options inv) (source s) in
    let reference =
      Driver.compile ~options:(Corpus.options irb)
        (Prog.render { Prog.funcs = Array.to_list by_hand; planted = s.planted })
    in
    match (scripted.Driver.ir, reference.Driver.ir) with
    | Some a, Some b when Corpus.ir_text a = Corpus.ir_text b -> ()
    | _ -> fail ("scripted IR differs from the hand-written pragma: " ^ String.trim script)
  in
  let analyze t s =
    let inst = Instance.create ~cache:s.cache { Invocation.default with Invocation.analyze = Some [] } in
    let c, fail =
      op t s Analyze (fun () -> span "analysis" (fun () -> Measure.time (fun () -> Instance.compile inst (source s))))
    in
    match c.Instance.c_result.Driver.analysis with
    | Some r when analysis_ok s.planted r -> add_counter log "analysis.findings" (Report.finding_count r)
    | _ -> fail ~wrong:true "report differs from the planted ground truth"
  in
  let t =
    Measure.rounds ~setup ~fs_probe:(Filename.concat root "fs-probe") ~seconds (fun t ->
        let s = Option.get !current in
        let entries0 = Store.entry_count s.store in
        if spans <> None then ignore (scan_written seen s.dir);
        Array.iteri
          (fun i kind ->
            match kind with
            | Body ->
              body_edit s !body_edits;
              incr body_edits;
              check_compile t s i (op t s kind (edit s))
            | Comment ->
              comment_edit s;
              check_compile t s i (op t s kind (edit s))
            | Signature ->
              signature_edit s;
              check_compile t s i (op t s kind (edit s))
            | Restart -> check_compile t s i (op t s kind (restart s))
            | Transform -> transform t s
            | Analyze -> analyze t s)
          round;
        add_counter log "store.entries" (Store.entry_count s.store - entries0);
        log.store_bytes <- Store.total_bytes s.store;
        remove_tree s.dir)
  in
  (t, log)
