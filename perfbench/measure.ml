(* Clock, sample statistics, process memory and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Processor time of this process so far: (user, kernel). *)
let cpu_times () =
  let t = Unix.times () in
  (t.Unix.tms_utime, t.Unix.tms_stime)

(* Linear interpolation between closest ranks. *)
let percentile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
              m.unit_)
          metrics))

(* ---- machine speed ------------------------------------------------------- *)

(* On a machine whose cores are shared with other tenants the same work
   can run 1.5x slower for minutes at a time.  Before each round the
   benchmark times a probe; the reading over [reference_probe_s] is the
   round's slowdown, and the round's times of work that only uses the
   processor are divided by it (rates multiplied), so they read as on a
   machine where the probe takes [reference_probe_s].  The probe is
   allocation-heavy OCaml work like mcc's own -- string maps of 3000 keys
   built and dropped, under fixed GC settings -- that calls no code of
   mcc, so no change to mcc can move it.  It runs in this process, on
   the core the workload runs on, and adds up to 2 MB to a run's peak
   RSS.  It does not see the disk; see [end_to_end] for the times that
   include store I/O. *)
let reference_probe_s = 0.036

module Probe_map = Map.Make (String)

let probe_once () =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  let t0 = now () in
  let total = ref 0 in
  for r = 1 to 20 do
    let m = ref Probe_map.empty in
    for i = 0 to 2999 do
      m := Probe_map.add (string_of_int ((i * 7919) + r)) i !m
    done;
    total := !total + Probe_map.cardinal !m
  done;
  let dt = now () -. t0 in
  Gc.set saved;
  if !total <> 20 * 3000 then failwith "perfbench: probe";
  dt

(* How much slower than the reference the machine runs right now: the
   median of three readings. *)
let slowdown () =
  match List.sort compare (List.init 3 (fun _ -> probe_once ())) with
  | [ _; m; _ ] -> m /. reference_probe_s
  | _ -> assert false

(* The file system has slow phases of its own: creating the same files
   can cost five times the kernel time it did a minute before, while
   work in user space runs no slower.  The file probe writes, each
   through a temporary file renamed into place, what a cold build of the
   edit-session unit leaves in an empty store -- 5 files of 200 KB in
   directories of their own and 201 files of 3.6 KB spread over three
   more, 1.7 MB in all -- and then removes them, untimed.  Its reading is
   the processor time (user and kernel) the writes took, which is almost
   all kernel time; like the probe above it calls no code of mcc.  Its
   slowdown is the reading over [reference_fs_probe_s]. *)
let reference_fs_probe_s = 0.02

let fs_probe_once dir =
  let write sub name bytes =
    let d = Filename.concat dir sub in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    let path = Filename.concat d name in
    Out_channel.with_open_bin (path ^ ".tmp") (fun oc -> Out_channel.output_string oc bytes);
    Sys.rename (path ^ ".tmp") path
  in
  let large = String.make 200_000 'l' and small = String.make 3_600 's' in
  Sys.mkdir dir 0o755;
  let u0, k0 = cpu_times () in
  for i = 0 to 4 do write (Printf.sprintf "l%d" i) "0" large done;
  for i = 0 to 200 do write (Printf.sprintf "s%d" (i mod 3)) (string_of_int i) small done;
  let u1, k1 = cpu_times () in
  Array.iter
    (fun sub ->
      let d = Filename.concat dir sub in
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    (Sys.readdir dir);
  Sys.rmdir dir;
  u1 -. u0 +. (k1 -. k0)

let fs_slowdown dir = fs_probe_once dir /. reference_fs_probe_s

(* ---- rounds -------------------------------------------------------------- *)

(* What a workload's rounds add up to.  Throughputs are medians over
   rounds, so a burst of outside load during part of a run moves them
   less than a whole-run ratio would; [ir_insts] and [run_steps] are
   counted on the first round only, which every run completes, so they
   repeat exactly for a seed.  Before each round the workload's set-up
   is timed once more, so the set-up samples span the whole run rather
   than its first second. *)

(* One finished round: the processor probe's slowdown read before it,
   its set-up's wall time with the processor time the set-up spent in
   user space and in the kernel, the file probe's slowdown read just
   before the set-up (1.0 without the file probe), every compile it
   timed, and its interpreted steps with their time. *)
type round = {
  slowdown : float;
  setup_wall : float;
  setup_user : float;
  setup_kernel : float;
  fs : float;
  compiles : float list;
  steps : int;
  interp_s : float;
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int; (* failed operations whose program or report was wrong *)
  mutable rounds : int;
  mutable done_rounds : round list; (* latest first *)
  mutable round_compiles : float list;
  mutable round_steps : int;
  mutable round_interp_s : float;
  mutable first_insts : int;
  mutable first_steps : int;
}

let compiled t dt = t.round_compiles <- dt :: t.round_compiles

let interpreted t ~steps dt =
  t.round_steps <- t.round_steps + steps;
  t.round_interp_s <- t.round_interp_s +. dt;
  if t.rounds = 0 then t.first_steps <- t.first_steps + steps

let emitted t ~insts = if t.rounds = 0 then t.first_insts <- t.first_insts + insts

type fail = ?wrong:bool -> string -> unit

(* Starts one operation and returns its [fail]: each call reports what
   went wrong, and the operation counts as failed once however many of
   its checks fail.  [~wrong:true] marks a check of what the program
   computes (a record trace, an analysis report), as opposed to a check
   that two compiles print the same IR. *)
let operation t report : fail =
  t.attempted <- t.attempted + 1;
  let counted = ref false and counted_wrong = ref false in
  fun ?(wrong = false) what ->
    if not !counted then begin
      counted := true;
      t.failed <- t.failed + 1
    end;
    if wrong && not !counted_wrong then begin
      counted_wrong := true;
      t.wrong <- t.wrong + 1
    end;
    report what

(* Whole rounds until [seconds] have passed; always at least one.  With
   [fs_probe] (a directory that must not exist), the file probe runs
   there before each set-up. *)
let rounds ?(setup = ignore) ?fs_probe ~seconds f =
  let t =
    { attempted = 0; failed = 0; wrong = 0; rounds = 0; done_rounds = []; round_compiles = [];
      round_steps = 0; round_interp_s = 0.0; first_insts = 0; first_steps = 0 }
  in
  let fs () = match fs_probe with Some dir -> fs_slowdown dir | None -> 1.0 in
  (* The first reading in a process is often far below the rest. *)
  ignore (fs ());
  let stop = now () +. seconds in
  while t.rounds = 0 || now () < stop do
    let slowdown = slowdown () in
    (* Every set-up and round starts from a compacted heap, not from
       whatever garbage the round before left. *)
    Gc.compact ();
    let fs = fs () in
    let u0, k0 = cpu_times () in
    let (), setup_wall = time setup in
    let u1, k1 = cpu_times () in
    f t;
    t.done_rounds <-
      { slowdown; setup_wall; setup_user = u1 -. u0; setup_kernel = k1 -. k0; fs;
        compiles = t.round_compiles; steps = t.round_steps; interp_s = t.round_interp_s }
      :: t.done_rounds;
    t.round_compiles <- [];
    t.round_steps <- 0;
    t.round_interp_s <- 0.0;
    t.rounds <- t.rounds + 1
  done;
  t

(* Each round's times are scaled by the slowdowns read before it.  With
   [~disk:true] the set-up and the compiles read and write a store.  A
   cold build into an empty store spends much of its time in the kernel
   creating files, which follows the file system's phases rather than
   the processor's: the set-up's user time is divided by the processor's
   slowdown, its kernel time by the file probe's, and the time it spent
   off the processor is kept as it is.  The compiles, which write a few
   files each, are not scaled (see perfbench/README.md).  Without
   [~disk], the set-up and the compiles only use the processor and their
   wall times are divided by its slowdown.  The interpreter's rate is
   always multiplied by it. *)
let end_to_end ~disk t =
  let rounds = t.done_rounds in
  let slowdowns = List.map (fun r -> r.slowdown) rounds in
  Printf.eprintf "%d rounds, slowdown %.4f to %.4f, median %.4f\n" t.rounds
    (List.fold_left Float.min infinity slowdowns)
    (List.fold_left Float.max 0.0 slowdowns)
    (median slowdowns);
  if disk then
    Printf.eprintf "median file-system slowdown %.4f\n" (median (List.map (fun r -> r.fs) rounds));
  let setup r =
    if disk then
      (r.setup_user /. r.slowdown) +. (r.setup_kernel /. r.fs)
      +. Float.max 0.0 (r.setup_wall -. r.setup_user -. r.setup_kernel)
    else r.setup_wall /. r.slowdown
  in
  let compile_scale r = if disk then 1.0 else r.slowdown in
  let compile_s =
    List.concat_map (fun r -> List.map (fun dt -> dt /. compile_scale r) r.compiles) rounds
  in
  let compile_rate r =
    float_of_int (List.length r.compiles) /. List.fold_left ( +. ) 0.0 r.compiles *. compile_scale r
  in
  let step_rate r = float_of_int r.steps /. r.interp_s *. r.slowdown in
  [
    metric "setup_s" "s" (median (List.map setup rounds));
    metric "compile_units_per_s" "compiles/s" (median (List.map compile_rate rounds));
    metric "compile_p50_ms" "ms" (1000.0 *. percentile compile_s 0.5);
    metric "compile_p90_ms" "ms" (1000.0 *. percentile compile_s 0.9);
    metric "ir_insts" "count" (float_of_int t.first_insts);
    metric "run_steps" "count" (float_of_int t.first_steps);
    metric "run_steps_per_s" "steps/s" (median (List.map step_rate rounds));
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
  ]
