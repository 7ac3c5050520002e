(* The description of every program the benchmark emits, and its
   rendering to C.  The same description is what [Reference] evaluates,
   so the expected record values never come from mcc.

   Programs use long arithmetic only and every accumulation is + or ^
   over update terms that never read the accumulator, so no loop
   transformation can change the value a program records. *)

type cmp = Lt | Le | Gt | Ne

(* A loop that runs exactly [trips] iterations; [Gt] counts down from
   [lb + trips * step] to [lb + step], [Ne] requires [step = 1]. *)
type loop = { var : string; lb : int; trips : int; step : int; cmp : cmp }

type dir =
  | Plain
  | Unroll_full
  | Unroll_partial of int
  | Tile of int list
  | Stripe of int list
  | Reverse
  | Interchange of int list
  | Parallel_for of string (* schedule clause, "" for none *)

type op = Add | Xor

(* acc op= v1 * c1 + ... + vn * cn + p * pcoef + k, over a perfect nest. *)
type nest = {
  dir : dir;
  loops : loop list;
  op : op;
  coefs : int list;
  pcoef : int;
  k : int;
}

type stmt =
  | Nest of nest
  | Fuse of nest list (* depth-1, [Plain] members sharing one [op] *)

type func = {
  name : string;
  init : int;
  stmts : stmt list;
  arg : int; (* what main passes for p *)
  extra_param : bool; (* a second, unused parameter (signature edits) *)
  note : int; (* revision number in the leading comment (comment edits) *)
}

(* Functions main never calls, each carrying one defect the analyses
   must report (the shapes of examples/leaky.c), or a carried
   dependence that must block [reverse]. *)
type planted =
  | Uninit of string
  | Leak of string
  | Unreachable of string
  | Carried of string * int

let planted_name = function
  | Uninit n | Leak n | Unreachable n | Carried (n, _) -> n

type unit_ = { funcs : func list; planted : planted list }

let pragma = function
  | Plain -> None
  | Unroll_full -> Some "unroll full"
  | Unroll_partial k -> Some (Printf.sprintf "unroll partial(%d)" k)
  | Tile s ->
    Some (Printf.sprintf "tile sizes(%s)" (String.concat ", " (List.map string_of_int s)))
  | Stripe s ->
    Some
      (Printf.sprintf "stripe sizes(%s)" (String.concat ", " (List.map string_of_int s)))
  | Reverse -> Some "reverse"
  | Interchange p ->
    Some
      (Printf.sprintf "interchange permutation(%s)"
         (String.concat ", " (List.map string_of_int p)))
  | Parallel_for "" -> Some "parallel for"
  | Parallel_for s -> Some (Printf.sprintf "parallel for schedule(%s)" s)

let header l =
  let v = l.var in
  let hi = l.lb + (l.trips * l.step) in
  match l.cmp with
  | Lt -> Printf.sprintf "for (long %s = %d; %s < %d; %s += %d)" v l.lb v hi v l.step
  | Le -> Printf.sprintf "for (long %s = %d; %s <= %d; %s += %d)" v l.lb v (hi - 1) v l.step
  | Gt -> Printf.sprintf "for (long %s = %d; %s > %d; %s -= %d)" v hi v l.lb v l.step
  | Ne -> Printf.sprintf "for (long %s = %d; %s != %d; %s += 1)" v l.lb v (l.lb + l.trips) v

let op_text = function Add -> "+=" | Xor -> "^="

let term n =
  String.concat " + "
    (List.map2 (fun l c -> Printf.sprintf "%s * %d" l.var c) n.loops n.coefs
    @ [ Printf.sprintf "p * %d" n.pcoef; string_of_int n.k ])

let render_nest b ind n =
  (match pragma n.dir with
  | Some p -> Printf.bprintf b "%s#pragma omp %s\n" (String.make ind ' ') p
  | None -> ());
  List.iteri
    (fun d l -> Printf.bprintf b "%s%s\n" (String.make (ind + (2 * d)) ' ') (header l))
    n.loops;
  Printf.bprintf b "%sacc %s %s;\n"
    (String.make (ind + (2 * List.length n.loops)) ' ')
    (op_text n.op) (term n)

let render_func b f =
  Printf.bprintf b "/* %s: revision %d */\n" f.name f.note;
  Printf.bprintf b "long %s(long p%s) {\n  long acc = %d;\n" f.name
    (if f.extra_param then ", long unused" else "")
    f.init;
  List.iter
    (function
      | Nest n -> render_nest b 2 n
      | Fuse ms ->
        Buffer.add_string b "  #pragma omp fuse\n  {\n";
        List.iter (render_nest b 4) ms;
        Buffer.add_string b "  }\n")
    f.stmts;
  Buffer.add_string b "  return acc;\n}\n\n"

let render_planted b = function
  | Uninit n ->
    Printf.bprintf b "long %s(long n) {\n  long x;\n  if (n > 0) x = n;\n  return x + 1;\n}\n\n" n
  | Leak n ->
    Printf.bprintf b
      "long %s(long n) {\n\
      \  long *q = malloc(8 * n);\n\
      \  if (n > 64) return -1;\n\
      \  for (long i = 0; i < n; i += 1) q[i] = i;\n\
      \  free(q);\n\
      \  return 0;\n\
       }\n\n"
      n
  | Unreachable n ->
    Printf.bprintf b "long %s(long v) {\n  return v;\n  v = 0;\n  return v;\n}\n\n" n
  | Carried (n, k) ->
    Printf.bprintf b
      "void %s(long *a, long n) {\n\
      \  for (long i = 1; i < n; i += 1) a[i] = a[i - 1] + %d;\n\
       }\n\n"
      n k

let render u =
  let b = Buffer.create 16384 in
  Buffer.add_string b "void record(long x);\n";
  if u.planted <> [] then
    Buffer.add_string b "long *malloc(long n);\nvoid free(long *q);\n";
  Buffer.add_char b '\n';
  List.iter (render_func b) u.funcs;
  List.iter (render_planted b) u.planted;
  Buffer.add_string b "int main(void) {\n";
  List.iter
    (fun f ->
      Printf.bprintf b "  record(%s(%d%s));\n" f.name f.arg
        (if f.extra_param then ", 0" else ""))
    u.funcs;
  Buffer.add_string b "  return 0;\n}\n";
  Buffer.contents b

(* ---- run-heavy kernels ---------------------------------------------------- *)

(* Seeded data: x[i][j] = (i * a + j * b + c) % m. *)
type init = { a : int; b : int; c : int; m : int }

type kernel =
  | Stencil of { n : int; sweeps : int; dir : dir; g : init }
      (* 5-point sweeps of g into h, copied back; [dir] on the update nest *)
  | Matmul of { n : int; dir : dir; inner : dir; x : init; y : init }
      (* c += a * b over (i, j, k); [dir] on the nest, [inner] on k *)
  | Dot of { n : int; reps : int; dir : dir; x : init; y : init }
  | Fused of { n : int; reps : int; u : init; v : init }
  | Workshare of { n : int; reps : int; sched : string; w : init }

let kernel_label = function
  | Stencil { dir; _ } -> "stencil/" ^ Option.value ~default:"plain" (pragma dir)
  | Matmul { dir; inner; _ } ->
    "matmul/"
    ^ Option.value ~default:"plain"
        (match pragma dir with Some p -> Some p | None -> pragma inner)
  | Dot { dir; _ } -> "dot/" ^ Option.value ~default:"plain" (pragma dir)
  | Fused _ -> "fuse"
  | Workshare { sched; _ } -> "parallel for schedule(" ^ sched ^ ")"

let init_expr i j (d : init) =
  Printf.sprintf "(%s * %d + %s * %d + %d) %% %d" i d.a j d.b d.c d.m

let pragma_line ind d =
  match pragma d with
  | Some p -> Printf.sprintf "%s#pragma omp %s\n" (String.make ind ' ') p
  | None -> ""

let render_kernel k =
  let b = Buffer.create 2048 in
  Buffer.add_string b "void record(long x);\n\nint main(void) {\n";
  let p fmt = Printf.bprintf b fmt in
  (match k with
  | Stencil { n; sweeps; dir; g } ->
    p "  long g[%d][%d];\n  long h[%d][%d];\n" n n n n;
    p "  for (long i = 0; i < %d; i += 1)\n    for (long j = 0; j < %d; j += 1) {\n" n n;
    p "      g[i][j] = %s;\n      h[i][j] = 0;\n    }\n" (init_expr "i" "j" g);
    p "  for (long s = 0; s < %d; s += 1) {\n" sweeps;
    p "%s" (pragma_line 4 dir);
    p "    for (long i = 1; i < %d; i += 1)\n      for (long j = 1; j < %d; j += 1)\n" (n - 1)
      (n - 1);
    p "        h[i][j] = (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1] + s) %% %d;\n"
      g.m;
    p "    for (long i = 1; i < %d; i += 1)\n      for (long j = 1; j < %d; j += 1)\n" (n - 1)
      (n - 1);
    p "        g[i][j] = h[i][j];\n  }\n";
    p "  long acc = 0;\n";
    p "  for (long i = 0; i < %d; i += 1)\n    for (long j = 0; j < %d; j += 1)\n" n n;
    p "      acc += g[i][j] * (i + 1) + j;\n"
  | Matmul { n; dir; inner; x; y } ->
    p "  long a[%d][%d];\n  long b[%d][%d];\n  long c[%d][%d];\n" n n n n n n;
    p "  for (long i = 0; i < %d; i += 1)\n    for (long j = 0; j < %d; j += 1) {\n" n n;
    p "      a[i][j] = %s;\n      b[i][j] = %s;\n      c[i][j] = 0;\n    }\n"
      (init_expr "i" "j" x) (init_expr "i" "j" y);
    p "%s" (pragma_line 2 dir);
    p "  for (long i = 0; i < %d; i += 1)\n    for (long j = 0; j < %d; j += 1)" n n;
    (match pragma inner with
    | None ->
      p "\n      for (long k = 0; k < %d; k += 1)\n        c[i][j] += a[i][k] * b[k][j];\n" n
    | Some _ ->
      p " {\n%s" (pragma_line 6 inner);
      p "      for (long k = 0; k < %d; k += 1)\n        c[i][j] += a[i][k] * b[k][j];\n    }\n"
        n);
    p "  long acc = 0;\n";
    p "  for (long i = 0; i < %d; i += 1)\n    for (long j = 0; j < %d; j += 1)\n" n n;
    p "      acc += c[i][j] * (i + 2 * j + 1);\n"
  | Dot { n; reps; dir; x; y } ->
    p "  long x[%d];\n  long y[%d];\n" n n;
    p "  for (long i = 0; i < %d; i += 1) {\n    x[i] = %s;\n    y[i] = %s;\n  }\n" n
      (init_expr "i" "i" x) (init_expr "i" "i" y);
    p "  long acc = 0;\n  for (long r = 0; r < %d; r += 1) {\n" reps;
    p "%s" (pragma_line 4 dir);
    p "    for (long i = 0; i < %d; i += 1)\n      acc += x[i] * y[i] + r;\n  }\n" n
  | Fused { n; reps; u; v } ->
    p "  long u[%d];\n  long v[%d];\n  long acc = 0;\n" n n;
    p "  for (long r = 0; r < %d; r += 1) {\n    #pragma omp fuse\n    {\n" reps;
    p "      for (long i = 0; i < %d; i += 1) u[i] = %s;\n" n (init_expr "i" "r" u);
    p "      for (long i = 0; i < %d; i += 1) v[i] = %s;\n    }\n" n (init_expr "i" "r" v);
    p "    for (long i = 0; i < %d; i += 1)\n      acc += u[i] * v[i];\n  }\n" n
  | Workshare { n; reps; sched; w } ->
    p "  long out[%d];\n  long acc = 0;\n" n;
    p "  for (long r = 0; r < %d; r += 1) {\n" reps;
    p "    #pragma omp parallel for schedule(%s)\n" sched;
    p "    for (long i = 0; i < %d; i += 1)\n      out[i] = %s;\n" n (init_expr "i" "r" w);
    p "    for (long i = 0; i < %d; i += 1)\n      acc += out[i] * (i + 1);\n  }\n" n);
  Buffer.add_string b "  record(acc);\n  return 0;\n}\n";
  Buffer.contents b
