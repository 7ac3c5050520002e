(* The traced compile: the layer stack called the way the uncached path
   of [Pipeline.execute] calls it, one layer at a time, each call timed
   from outside.  The caller checks that the IR it ends with prints
   byte-identical to [Instance.compile]'s, so the replay measures the
   program users get. *)

module Pipeline = Mc_core.Pipeline
module Driver = Mc_core.Driver
module Stats = Mc_support.Stats
module Diag = Mc_diag.Diagnostics
module Pass_manager = Mc_passes.Pass_manager

type counts = {
  tokens : int;
  items : int;
  ast_nodes : int;
  codegen_insts : int;
  insts_out : int;
  changed : int;
  unroll_full : int;
  unroll_partial : int;
}

let compile spans (o : Driver.options) source =
  let (result : (Mc_ir.Ir.modul * counts, string) result), registry =
    Stats.with_scoped_registry (fun () ->
        Pipeline.reset_compilation_state ();
        let srcmgr = Mc_srcmgr.Source_manager.create () in
        let fmgr = Mc_srcmgr.File_manager.create () in
        let diag = Diag.create srcmgr in
        Diag.set_error_limit diag o.Driver.error_limit;
        let buf = Mc_srcmgr.Memory_buffer.create ~name:"input.c" ~contents:source in
        let main_id = Mc_srcmgr.Source_manager.load_main srcmgr buf in
        let toks =
          Spans.leaf spans "lexer" (fun () -> Mc_lexer.Lexer.tokenize diag ~file_id:main_id buf)
        in
        let items =
          Spans.leaf spans "pp" (fun () ->
              let pp = Mc_pp.Preprocessor.create diag srcmgr fmgr in
              Mc_pp.Preprocessor.preprocess_tokens pp ~file_id:main_id buf toks)
        in
        let tu =
          Spans.leaf spans "parse_sema" (fun () ->
              let sema =
                Mc_sema.Sema.create
                  ~mode:(if o.Driver.use_irbuilder then Mc_sema.Sema.Irbuilder else Mc_sema.Sema.Classic)
                  ~loop_nest_limit:o.Driver.loop_nest_limit diag
              in
              Mc_parser.Parser.parse_translation_unit ~bracket_depth:o.Driver.bracket_depth sema
                items)
        in
        if Diag.has_errors diag then Error (Diag.render_all diag)
        else
          let m =
            Spans.leaf spans "codegen" (fun () ->
                Mc_codegen.Codegen.emit_translation_unit ~fold:o.Driver.fold
                  ~mode:
                    (if o.Driver.use_irbuilder then Mc_codegen.Codegen.Irbuilder
                     else Mc_codegen.Codegen.Classic)
                  tu)
          in
          match Mc_ir.Verifier.check m with
          | Error e -> Error e
          | Ok () ->
            let codegen_insts = Mc_ir.Ir.module_inst_count m in
            let reports =
              List.map
                (fun pass ->
                  Spans.leaf spans ("passes." ^ pass) (fun () ->
                      Pass_manager.run ~verify_between:o.Driver.verify_ir ~passes:[ pass ] m))
                Pass_manager.o1
            in
            let count f = List.fold_left (fun acc r -> acc + f r) 0 reports in
            Ok
              ( m,
                {
                  tokens = List.length toks;
                  items = List.length items;
                  ast_nodes = 0;
                  codegen_insts;
                  insts_out = Mc_ir.Ir.module_inst_count m;
                  changed =
                    count (fun r ->
                        List.length (List.filter snd r.Pass_manager.pass_results));
                  unroll_full =
                    count (fun r -> r.Pass_manager.unroll_stats.Mc_passes.Loop_unroll.fully_unrolled);
                  unroll_partial =
                    count (fun r ->
                        r.Pass_manager.unroll_stats.Mc_passes.Loop_unroll.partially_unrolled);
                } ))
  in
  let snap = Stats.snapshot ~registry () in
  Result.map
    (fun (m, c) ->
      (m, { c with ast_nodes = Stats.find snap "ast.exprs-created" + Stats.find snap "ast.stmts-created" }))
    result
