(* The cold-build and run-heavy workloads: a fixed set of programs,
   each compiled uncached under both lowerings and run once, round after
   round until the run's time is up.  A round is the whole set, so every
   run attempts whole rounds of the same operations. *)

module Instance = Mc_core.Instance
module Invocation = Mc_core.Invocation
module Driver = Mc_core.Driver
module Interp = Mc_interp.Interp

type program = { label : string; source : string; expected : int64 list }

let lowerings = [ false; true ] (* classic, then -fopenmp-enable-irbuilder *)

let instance irb = Instance.create { Invocation.default with Invocation.use_irbuilder = irb }

let options irb = Invocation.to_driver_options { Invocation.default with Invocation.use_irbuilder = irb }

(* The program's record trace against the reference values; a trap is a
   wrong answer too. *)
let matches expected (o : Interp.outcome) =
  o.Interp.trace = List.map (fun v -> Interp.T_int v) expected

let run_program m = try Some (Interp.run_main m) with Interp.Trap _ -> None

let ir_text m = Mc_ir.Printer.module_to_string m

let report_failure p irb what =
  Printf.eprintf "FAILED %s (%s): %s\n%!" p.label (if irb then "irbuilder" else "classic") what

(* Untraced: what a user of mcc sees. *)
let measure ?setup ~seconds programs =
  let insts = List.map (fun irb -> (irb, instance irb)) lowerings in
  Measure.rounds ?setup ~seconds (fun t ->
      List.iter
        (fun p ->
          List.iter
            (fun (irb, inst) ->
              let fail = Measure.operation t (report_failure p irb) in
              let c, dt = Measure.time (fun () -> Instance.compile inst p.source) in
              match c.Instance.c_result.Driver.ir with
              | None -> fail ~wrong:true "no IR"
              | Some m -> (
                Measure.compiled t dt;
                let o, rt = Measure.time (fun () -> run_program m) in
                match o with
                | Some o when matches p.expected o ->
                  Measure.interpreted t ~steps:o.Interp.steps rt;
                  Measure.emitted t ~insts:(Mc_ir.Ir.module_inst_count m)
                | _ -> fail ~wrong:true "record trace differs from the reference"))
            insts)
        programs)

(* Traced: the layer-by-layer replay, checked against the pipeline. *)
let trace ~seconds spans programs =
  let layer = Hashtbl.create 16 in
  let add k v = Hashtbl.replace layer k (v + Option.value ~default:0 (Hashtbl.find_opt layer k)) in
  let untraced = ref 0.0 in
  let insts = List.map (fun irb -> (irb, instance irb)) lowerings in
  let t =
    Measure.rounds ~seconds (fun t ->
        List.iter
          (fun p ->
            List.iter
              (fun (irb, inst) ->
                let fail = Measure.operation t (report_failure p irb) in
                match Spans.root spans "compile" (fun () -> Replay.compile spans (options irb) p.source) with
                | Error e -> fail ~wrong:true ("replay: " ^ e)
                | Ok (m, c) -> (
                  let reference, dt = Measure.time (fun () -> Instance.compile inst p.source) in
                  untraced := !untraced +. dt;
                  match reference.Instance.c_result.Driver.ir with
                  | Some r when ir_text r = ir_text m -> (
                    match Spans.root spans "interp" (fun () -> run_program m) with
                    | Some o when matches p.expected o ->
                      if t.Measure.rounds = 0 then begin
                        add "lexer.tokens" c.Replay.tokens;
                        add "pp.items" c.Replay.items;
                        add "ast.nodes" c.Replay.ast_nodes;
                        add "codegen.ir_insts" c.Replay.codegen_insts;
                        add "passes.ir_insts_out" c.Replay.insts_out;
                        add "passes.changed" c.Replay.changed;
                        add "unroll.full" c.Replay.unroll_full;
                        add "unroll.partial" c.Replay.unroll_partial;
                        add "interp.steps" o.Interp.steps
                      end
                    | _ -> fail ~wrong:true "record trace differs from the reference")
                  | _ -> fail "replayed IR differs from Instance.compile's"))
              insts)
          programs)
  in
  (t, layer, !untraced)
