(* Spans around the benchmark's own calls into each layer, kept in memory
   and written as Chrome trace-event JSON when the run ends.

   Two levels: a root span is one operation (a compile, a program run, a
   session operation); a child is one layer call inside it, or a stage
   time the program itself reported for the operation.  A root's self
   time -- its duration minus its children -- is the time no layer
   accounts for, and is reported as such instead of being spread over
   the layers.  Self times therefore add up to the summed root
   durations exactly. *)

type event = { name : string; ts : float; dur : float; synthetic : bool }

type t = {
  mutable events : event list;
  self : (string, float) Hashtbl.t; (* seconds *)
  alloc : (string, float) Hashtbl.t; (* words *)
  mutable wall : float; (* summed root durations *)
  mutable root_start : float;
  mutable children : float; (* child time inside the open root *)
}

let create () =
  {
    events = [];
    self = Hashtbl.create 64;
    alloc = Hashtbl.create 64;
    wall = 0.0;
    root_start = 0.0;
    children = 0.0;
  }

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Runs [f], returning its result and duration; allocation accrues to
   [name]. *)
let timed t name f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Measure.now () in
  let v = f () in
  let dur = Measure.now () -. t0 in
  bump t.alloc name ((Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8));
  t.events <- { name; ts = t0; dur; synthetic = false } :: t.events;
  (v, dur)

let root t name f =
  t.root_start <- Measure.now ();
  t.children <- 0.0;
  let v, dur = timed t name f in
  t.wall <- t.wall +. dur;
  bump t.self name (dur -. t.children);
  v

let leaf t name f =
  let v, dur = timed t name f in
  t.children <- t.children +. dur;
  bump t.self name dur;
  v

(* A stage time the program reported for the open root's operation;
   drawn after the root's earlier children, since only its length is
   known. *)
let attribute t name dur =
  if dur > 0.0 then begin
    t.events <- { name; ts = t.root_start +. t.children; dur; synthetic = true } :: t.events;
    t.children <- t.children +. dur;
    bump t.self name dur
  end

let self_s t name = Option.value ~default:0.0 (Hashtbl.find_opt t.self name)
let alloc_words t name = Option.value ~default:0.0 (Hashtbl.find_opt t.alloc name)
let count t = List.length t.events

let write_chrome t path =
  let events = List.rev t.events in
  let origin = match events with [] -> 0.0 | e :: _ -> e.ts in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"reported_by_program\": %b}}"
        (if i = 0 then "" else ",\n")
        e.name
        ((e.ts -. origin) *. 1e6)
        (e.dur *. 1e6) e.synthetic)
    events;
  output_string oc "\n]}\n";
  close_out oc
