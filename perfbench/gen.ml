(* The seeded inputs of each workload.

   A workload's make-up -- which loop nests, directives and trip counts
   its programs contain, and how large each unit is -- is drawn once
   from a fixed seed, so every run compiles and executes the same amount
   of code.  The run's --seed then draws the contents: coefficients,
   constants, loop bounds, accumulation operators, and the order of the
   functions in a unit.  None of those changes the IR size or the step
   count, so [ir_insts] and [run_steps] barely move with the seed while
   the programs themselves differ. *)

open Prog

let makeup_seed = 2021

(* ---- accumulation functions ---------------------------------------------- *)

type loop_shape = { trips : int; step : int; cmp : cmp }
type nest_shape = { dir : dir; shapes : loop_shape list }
type stmt_shape = S_nest of nest_shape | S_fuse of loop_shape list

let loop_shape r ~max_trips =
  let trips = Rng.range r 2 max_trips in
  match Rng.int r 4 with
  | 0 -> { trips; step = Rng.range r 1 3; cmp = Lt }
  | 1 -> { trips; step = Rng.range r 1 3; cmp = Le }
  | 2 -> { trips; step = Rng.range r 1 3; cmp = Gt }
  | _ -> { trips; step = 1; cmp = Ne }

let sizes r depth = List.init depth (fun _ -> Rng.range r 2 5)

let nest_shape r =
  let depth = Rng.range r 1 3 in
  let max_trips = if depth = 3 then 6 else 9 in
  let dirs =
    [
      Plain;
      Unroll_partial (Rng.range r 2 4);
      Tile (sizes r depth);
      Stripe (sizes r depth);
      Reverse;
      Parallel_for (Rng.pick r [ ""; "static"; "dynamic, 2" ]);
    ]
    @ (if depth >= 2 then [ Interchange (if depth = 2 then [ 2; 1 ] else [ 3; 1; 2 ]) ]
       else [])
    @ if depth = 1 then [ Unroll_full ] else []
  in
  let dir = Rng.pick r dirs in
  let max_trips = if dir = Unroll_full then 8 else max_trips in
  { dir; shapes = List.init depth (fun _ -> loop_shape r ~max_trips) }

let stmt_shape r =
  if Rng.int r 8 = 0 then S_fuse (List.init (Rng.range r 2 3) (fun _ -> loop_shape r ~max_trips:9))
  else S_nest (nest_shape r)

let func_shape r = List.init (Rng.range r 1 3) (fun _ -> stmt_shape r)

let mk_loop r var (s : loop_shape) = { var; lb = Rng.range r 0 4; trips = s.trips; step = s.step; cmp = s.cmp }

let mk_nest r ~op ~vars dir shapes =
  {
    dir;
    loops = List.map2 (mk_loop r) vars shapes;
    op;
    coefs = List.map (fun _ -> Rng.range r 2 9) shapes;
    pcoef = Rng.range r 1 5;
    k = Rng.range r 0 20;
  }

let mk_op r = if Rng.int r 4 = 0 then Xor else Add

(* Instantiate a function shape: the seed fills in every constant. *)
let mk_func r ~name shape =
  let stmts =
    List.mapi
      (fun si -> function
        | S_nest ns ->
          let vars = List.mapi (fun d _ -> Printf.sprintf "i%d_%d" si d) ns.shapes in
          Nest (mk_nest r ~op:(mk_op r) ~vars ns.dir ns.shapes)
        | S_fuse members ->
          let op = mk_op r in
          Fuse
            (List.mapi
               (fun m s -> mk_nest r ~op ~vars:[ Printf.sprintf "f%d_%d" si m ] Plain [ s ])
               members))
      shape
  in
  { name; init = Rng.range r 0 99; stmts; arg = Rng.range r 1 50; extra_param = false; note = 0 }

(* ---- cold-build: distinct units, a few to 48 functions each --------------- *)

(* Twenty units whose sizes run evenly from 3 to 48 functions, so the
   compile-latency percentiles fall inside a dense spread of unit sizes
   rather than in a gap between two of them. *)
let cold_unit_sizes = [ 3; 5; 7; 9; 12; 14; 16; 18; 20; 22; 24; 26; 28; 30; 32; 35; 38; 41; 44; 48 ]

let cold_corpus ~seed =
  let m = Rng.create makeup_seed in
  let r = Rng.create seed in
  List.mapi
    (fun u size ->
      let shapes = Array.init size (fun _ -> func_shape m) in
      Rng.shuffle r shapes;
      { funcs = Array.to_list (Array.mapi (fun i -> mk_func r ~name:(Printf.sprintf "u%d_f%d" u i)) shapes);
        planted = [] })
    cold_unit_sizes

(* ---- run-heavy: a dozen fixed-size kernels --------------------------------- *)

let run_heavy_kernels ~seed =
  let r = Rng.create seed in
  let init () = { a = Rng.range r 2 13; b = Rng.range r 2 13; c = Rng.range r 0 50; m = Rng.range r 61 127 } in
  [
    Stencil { n = 40; sweeps = 5; dir = Tile [ 8; 8 ]; g = init () };
    Stencil { n = 40; sweeps = 5; dir = Interchange [ 2; 1 ]; g = init () };
    Stencil { n = 40; sweeps = 5; dir = Stripe [ 4; 4 ]; g = init () };
    Matmul { n = 24; dir = Tile [ 4; 4; 4 ]; inner = Plain; x = init (); y = init () };
    Matmul { n = 24; dir = Interchange [ 1; 3; 2 ]; inner = Plain; x = init (); y = init () };
    Matmul { n = 24; dir = Plain; inner = Unroll_partial 4; x = init (); y = init () };
    Dot { n = 500; reps = 40; dir = Unroll_partial 4; x = init (); y = init () };
    Dot { n = 500; reps = 40; dir = Reverse; x = init (); y = init () };
    Dot { n = 500; reps = 40; dir = Stripe [ 16 ]; x = init (); y = init () };
    Fused { n = 400; reps = 30; u = init (); v = init () };
    Workshare { n = 400; reps = 30; sched = "static"; w = init () };
    Workshare { n = 400; reps = 30; sched = "dynamic, 4"; w = init () };
  ]

(* ---- edit-session: one 64-function unit ------------------------------------ *)

let session_accumulators = 52
let session_targets = 4

(* Transform targets: pragma-free depth-2 nests over uniquely named
   induction variables, so a script selector names exactly one loop. *)
let target_func r k =
  let v1 = Printf.sprintf "t%da" k and v2 = Printf.sprintf "t%db" k in
  let shape = { trips = 8; step = 1; cmp = Lt } in
  {
    name = Printf.sprintf "tgt%d" k;
    init = Rng.range r 0 99;
    stmts = [ Nest (mk_nest r ~op:Add ~vars:[ v1; v2 ] Plain [ shape; shape ]) ];
    arg = Rng.range r 1 50;
    extra_param = false;
    note = 0;
  }

let session_unit ~seed =
  let m = Rng.create (makeup_seed + 1) in
  let shapes = Array.init session_accumulators (fun _ -> func_shape m) in
  let r = Rng.create seed in
  Rng.shuffle r shapes;
  let accs = Array.to_list (Array.mapi (fun i s -> mk_func r ~name:(Printf.sprintf "fn%d" i) s) shapes) in
  let targets = List.init session_targets (target_func r) in
  let planted =
    [
      Uninit "bad_uninit0"; Leak "bad_leak0"; Unreachable "bad_unreach0"; Carried ("bad_carried0", Rng.range r 1 9);
      Uninit "bad_uninit1"; Leak "bad_leak1"; Unreachable "bad_unreach1"; Carried ("bad_carried1", Rng.range r 1 9);
    ]
  in
  { funcs = accs @ targets; planted }
