(** In-memory span recorder for the traced runs.

    A span brackets one call into a layer's public function from the
    benchmark's own code: wall time and the calling domain's
    [Gc.minor_words] delta around the call (both without the speed
    sampler's probes), plus the span that was open when it started. Nothing is written until {!dump}, so recording
    costs two clock reads, two counter reads and a few array stores.
    Self time and self words of a span are its totals minus those of
    its direct children. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable labels : string array; (* id -> name *)
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable start : float array;
  mutable dur : float array;
  mutable words : float array;
  mutable child_dur : float array;
  mutable child_words : float array;
  mutable top : int; (* innermost open span, -1 at top level *)
  origin : float;
}

let create () =
  let cap = 1024 in
  {
    names = Hashtbl.create 32;
    labels = [||];
    n = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0.0;
    dur = Array.make cap 0.0;
    words = Array.make cap 0.0;
    child_dur = Array.make cap 0.0;
    child_words = Array.make cap 0.0;
    top = -1;
    origin = Common.wall ();
  }

(** The id for [label]; look it up once, outside the measured loop. *)
let id t label =
  match Hashtbl.find_opt t.names label with
  | Some i -> i
  | None ->
    let i = Array.length t.labels in
    Hashtbl.replace t.names label i;
    t.labels <- Array.append t.labels [| label |];
    i

let grow t =
  let cap = 2 * Array.length t.name in
  let gi a = Array.append a (Array.make (cap - Array.length a) 0) in
  let gf a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  t.name <- gi t.name;
  t.parent <- gi t.parent;
  t.start <- gf t.start;
  t.dur <- gf t.dur;
  t.words <- gf t.words;
  t.child_dur <- gf t.child_dur;
  t.child_words <- gf t.child_words

(** [record t id f] runs [f ()] as a span named by [id]. *)
let record t id f =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  let parent = t.top in
  t.name.(i) <- id;
  t.parent.(i) <- parent;
  t.child_dur.(i) <- 0.0;
  t.child_words.(i) <- 0.0;
  t.top <- i;
  let w0 = Common.words () in
  let t0 = Common.wall () in
  let r = f () in
  let t1 = Common.wall () in
  let w1 = Common.words () in
  let d = t1 -. t0 and w = w1 -. w0 in
  t.start.(i) <- t0;
  t.dur.(i) <- d;
  t.words.(i) <- w;
  if parent >= 0 then begin
    t.child_dur.(parent) <- t.child_dur.(parent) +. d;
    t.child_words.(parent) <- t.child_words.(parent) +. w
  end;
  t.top <- parent;
  r

type totals = {
  count : int;
  total_s : float;
  self_s : float;
  self_words : float;
}

let zero = { count = 0; total_s = 0.0; self_s = 0.0; self_words = 0.0 }

(** Per-name totals over every recorded span. *)
let totals t label =
  match Hashtbl.find_opt t.names label with
  | None -> zero
  | Some id ->
    let acc = ref zero in
    for i = 0 to t.n - 1 do
      if t.name.(i) = id then
        acc :=
          {
            count = !acc.count + 1;
            total_s = !acc.total_s +. t.dur.(i);
            self_s = !acc.self_s +. (t.dur.(i) -. t.child_dur.(i));
            self_words = !acc.self_words +. (t.words.(i) -. t.child_words.(i));
          }
    done;
    !acc

(** Summed duration of the spans that had no open parent. *)
let top_level_s t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 then s := !s +. t.dur.(i)
  done;
  !s

(** Write every span as one tab-separated row: index, name, parent
    index (-1 at top level), start and duration in microseconds,
    minor words. *)
let dump t path =
  let oc = open_out path in
  output_string oc "index\tname\tparent\tstart_us\tdur_us\tminor_words\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%.3f\t%.3f\t%.0f\n" i t.labels.(t.name.(i)) t.parent.(i)
      ((t.start.(i) -. t.origin) *. 1e6)
      (t.dur.(i) *. 1e6) t.words.(i)
  done;
  close_out oc
