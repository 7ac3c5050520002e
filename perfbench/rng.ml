(* splitmix64: the benchmark's only source of randomness, so a seed fixes
   every generated program and every edit of a session. *)

type t = { mutable s : int64 }

let create seed = { s = Int64.of_int (seed * 0x9E3779B1 + 1) }

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  let z = t.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, n). *)
let int t n = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int n))
let range t lo hi = lo + int t (hi - lo + 1)
let pick t xs = List.nth xs (int t (List.length xs))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done
