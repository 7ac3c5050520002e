(* The reference evaluator: the value every generated program must
   record, computed with plain Int64 arithmetic over the iteration spaces
   of the program description ([Prog]).  It shares no code with mcc; a
   directive changes only iteration order, so it is ignored here. *)

open Prog

let ( +: ) = Int64.add
let ( *: ) = Int64.mul
let i64 = Int64.of_int

(* The values a loop header takes, by running the header itself. *)
let values l =
  let hi = l.lb + (l.trips * l.step) in
  let start, cond, next =
    match l.cmp with
    | Lt -> (l.lb, (fun v -> v < hi), fun v -> v + l.step)
    | Le -> (l.lb, (fun v -> v <= hi - 1), fun v -> v + l.step)
    | Gt -> (hi, (fun v -> v > l.lb), fun v -> v - l.step)
    | Ne -> (l.lb, (fun v -> v <> l.lb + l.trips), fun v -> v + 1)
  in
  let rec go v acc = if cond v then go (next v) (v :: acc) else List.rev acc in
  go start []

let combine op acc t = match op with Add -> acc +: t | Xor -> Int64.logxor acc t

let eval_nest ~p acc n =
  let base = (i64 p *: i64 n.pcoef) +: i64 n.k in
  let rec go acc partial = function
    | [] -> combine n.op acc partial
    | (l, c) :: rest ->
      List.fold_left (fun acc v -> go acc (partial +: (i64 v *: i64 c)) rest) acc (values l)
  in
  go acc base (List.combine n.loops n.coefs)

let eval_func f =
  List.fold_left
    (fun acc -> function
      | Nest n -> eval_nest ~p:f.arg acc n
      | Fuse ms -> List.fold_left (eval_nest ~p:f.arg) acc ms)
    (i64 f.init) f.stmts

(* main records every function of the unit, in order. *)
let eval_unit u = List.map eval_func u.funcs

let data (d : init) i j = i64 (((i * d.a) + (j * d.b) + d.c) mod d.m)

let eval_kernel = function
  | Stencil { n; sweeps; g = d; _ } ->
    let g = Array.init n (fun i -> Array.init n (fun j -> data d i j)) in
    let h = Array.make_matrix n n 0L in
    for s = 0 to sweeps - 1 do
      for i = 1 to n - 2 do
        for j = 1 to n - 2 do
          h.(i).(j) <-
            Int64.rem
              (g.(i - 1).(j) +: g.(i + 1).(j) +: g.(i).(j - 1) +: g.(i).(j + 1) +: i64 s)
              (i64 d.m)
        done
      done;
      for i = 1 to n - 2 do
        for j = 1 to n - 2 do
          g.(i).(j) <- h.(i).(j)
        done
      done
    done;
    let acc = ref 0L in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        acc := !acc +: (g.(i).(j) *: i64 (i + 1)) +: i64 j
      done
    done;
    [ !acc ]
  | Matmul { n; x; y; _ } ->
    let acc = ref 0L in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let c = ref 0L in
        for k = 0 to n - 1 do
          c := !c +: (data x i k *: data y k j)
        done;
        acc := !acc +: (!c *: i64 (i + (2 * j) + 1))
      done
    done;
    [ !acc ]
  | Dot { n; reps; x; y; _ } ->
    let acc = ref 0L in
    for r = 0 to reps - 1 do
      for i = 0 to n - 1 do
        acc := !acc +: (data x i i *: data y i i) +: i64 r
      done
    done;
    [ !acc ]
  | Fused { n; reps; u; v } ->
    let acc = ref 0L in
    for r = 0 to reps - 1 do
      for i = 0 to n - 1 do
        acc := !acc +: (data u i r *: data v i r)
      done
    done;
    [ !acc ]
  | Workshare { n; reps; w; _ } ->
    let acc = ref 0L in
    for r = 0 to reps - 1 do
      for i = 0 to n - 1 do
        acc := !acc +: (data w i r *: i64 (i + 1))
      done
    done;
    [ !acc ]

(* ---- closed forms, for the self-test ----------------------------------- *)

(* Sum of the values of one loop: lb + t * step for t in [0, trips), or
   [1, trips] when counting down. *)
let loop_sum l =
  let t = i64 l.trips and s = i64 l.step and lb = i64 l.lb in
  match l.cmp with
  | Lt | Le | Ne -> (t *: lb) +: Int64.div (s *: t *: Int64.pred t) 2L
  | Gt -> (t *: lb) +: Int64.div (s *: t *: Int64.succ t) 2L

(* The sum of an [Add] nest's update terms, without iterating: every
   iteration contributes the constant part once, and loop d contributes
   c_d * (sum of its values) * (trip count of every other loop). *)
let closed_form_add ~p n =
  let trips = List.map (fun l -> i64 l.trips) n.loops in
  let all = List.fold_left ( *: ) 1L trips in
  let const = all *: ((i64 p *: i64 n.pcoef) +: i64 n.k) in
  List.fold_left2
    (fun acc l c -> acc +: (i64 c *: loop_sum l *: Int64.div all (i64 l.trips)))
    const n.loops n.coefs
