(** Measurement helpers shared by the workloads. *)

(** A correctness gate failed: the run reports [correct = false] and
    exits non-zero instead of printing a metric. *)
exception Gate of string

let gate ok fmt = Printf.ksprintf (fun msg -> if not ok then raise (Gate msg)) fmt

(* ------------------------------------------------------------------ *)
(* Speed sampler *)

(** The probe: about a quarter of a millisecond of fixed work written
    against the standard library only, so no change to the program can
    make it faster. Its four parts mimic the program's mix: string
    formatting and hashing, multi-limb integer products on fresh arrays
    (as in the P-256 field code), short-lived lists, and byte mixing (as
    in hashing and AES). *)
let probe_kernel () =
  let acc = ref 0 in
  let h = Hashtbl.create 16 in
  for i = 1 to 320 do
    let k = string_of_int ((i * 7919) land 0xfffff) in
    Hashtbl.replace h (i land 15) k;
    acc := !acc + String.length k
  done;
  let a = Array.init 9 (fun i -> (i * 0x1234567) land 0x1fffffff) in
  let x = ref a in
  for _ = 1 to 160 do
    let r = Array.make 18 0 and xv = !x in
    for i = 0 to 8 do
      for j = 0 to 8 do
        r.(i + j) <- r.(i + j) + (xv.(i) * a.(j))
      done
    done;
    x := Array.init 9 (fun i -> (r.(i) + (r.(i + 9) lsr 3)) land 0x1fffffff)
  done;
  for i = 1 to 40 do
    acc := !acc + List.length (List.rev (List.init 100 (fun j -> (i, j))))
  done;
  let b = Bytes.create 4096 in
  for r = 1 to 5 do
    for i = 0 to 4095 do
      Bytes.unsafe_set b i (Char.unsafe_chr (((i * r) + !acc) land 0xff));
      acc := ((!acc * 31) + Char.code (Bytes.unsafe_get b ((i * 7) land 0xfff))) land 0xffffff
    done
  done;
  ignore (Sys.opaque_identity (!acc, !x))

(** The probe's typical duration on the 2-vCPU box the benchmark was
    written on. *)
let probe_nominal_s = 0.00025

(* Probe durations since the last [take_scale]. *)
let probes = ref []

(* Running totals of the seconds (slot 0) and minor words (slot 1) spent
   in probes. A float array updates in place, so keeping the totals
   allocates nothing outside the words a probe counts. *)
let spent = Array.make 2 0.0
let in_probe = ref false

let probe () =
  (* A signal landing inside a probe must not start a nested one: its
     time would be subtracted twice. *)
  if not !in_probe then begin
    in_probe := true;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    probe_kernel ();
    let t1 = Unix.gettimeofday () in
    probes := (t1 -. t0) :: !probes;
    spent.(0) <- spent.(0) +. (Unix.gettimeofday () -. t0);
    spent.(1) <- spent.(1) +. (Gc.minor_words () -. w0);
    in_probe := false
  end

(** Sample the machine's speed every 20 ms of wall time for the rest of
    the run. The shared host runs allocation- and multiply-heavy code up
    to 2x slower in phases lasting from a fraction of a second to tens
    of seconds; the probe slows with it. SIGALRM handlers run on the
    main domain at the program's own safe points, so no thread is
    added. Every clock and counter below leaves the probes out. *)
let start_sampler () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe ()));
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.02; it_value = 0.02 })

let stop_sampler () =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigalrm Sys.Signal_default

(** Nominal over the median probe duration since the last call (eight
    more probes are run first, so short repetitions get samples too):
    multiply a time measured over that interval by it to express the
    time at the probe's nominal speed. *)
let take_scale () =
  for _ = 1 to 8 do
    probe ()
  done;
  let sorted = List.sort compare !probes in
  probes := [];
  probe_nominal_s /. List.nth sorted (List.length sorted / 2)

(** Wall seconds, minus the time spent in probes. *)
let wall () = Unix.gettimeofday () -. spent.(0)

(** Process CPU seconds, minus the (wall) time spent in probes. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime -. spent.(0)

(* Words allocated by the calling domain, minus the probes' own.
   [Gc.quick_stat] sums every running domain, so it is never used for
   allocation counts. *)
let words () = Gc.minor_words () -. spent.(1)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let timed f =
  let t0 = wall () in
  let r = f () in
  (wall () -. t0, r)

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "median: empty"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs = exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(** SplitMix64 step over [seed] and a stream number: the workloads
    derive every seed they use (storm, mesh waves, dataset, initial
    weights, invoke order) from the one [--seed] argument. *)
let derive seed k =
  let open Int64 in
  let z = add (of_int seed) (mul (of_int (k + 1)) 0x9e3779b97f4a7c15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(** The highest of p50/p90/p95/p99/p99.9 that has at least ten of [n]
    samples beyond it. *)
let tail_pct n =
  List.fold_left
    (fun acc p -> if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then p else acc)
    50.0 [ 90.0; 95.0; 99.0; 99.9 ]

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = { attempted : int; failed : int; metrics : metric list }

type window = {
  reps : int;
  heap_mb : float; (* heap peak after the first [min_reps] repetitions *)
  probe_us : float; (* median over repetitions of the median probe time *)
}

(** Run [step rep scale] (which returns the seconds it measured) until
    the measured time reaches [seconds] and at least [min_reps]
    repetitions ran. Set-up between repetitions is not counted. Each
    repetition starts from a fully collected heap, so the major-GC work
    it pays for does not depend on the garbage the previous one left
    behind. The step calls [scale ()] once its measured region is over;
    it is {!take_scale} over the repetition.

    The heap peak is read after the first [min_reps] repetitions: a
    fixed amount of work, so it does not grow with how many
    repetitions a fast run fits in. *)
let repeat ~seconds ~min_reps step =
  let measured = ref 0.0 and reps = ref 0 and heap = ref 0.0 and scales = ref [] in
  while !measured < seconds || !reps < min_reps do
    Gc.full_major ();
    probes := [];
    let taken = ref None in
    let scale () =
      match !taken with
      | Some k -> k
      | None ->
        let k = take_scale () in
        taken := Some k;
        k
    in
    measured := !measured +. step !reps scale;
    scales := scale () :: !scales;
    incr reps;
    if !reps = min_reps then heap := heap_peak_mb ()
  done;
  { reps = !reps; heap_mb = !heap; probe_us = probe_nominal_s /. median !scales *. 1e6 }

(** Per-repetition samples of one time metric, kept as measured and at
    the probe's nominal speed. *)
type samples = { mutable raw : float list; mutable scaled : float list }

let samples () = { raw = []; scaled = [] }

let add s ~scale x =
  s.raw <- x :: s.raw;
  s.scaled <- (x *. scale) :: s.scaled

(** [timed] that also gives the seconds at the probe's nominal speed,
    from the probes taken while [f] ran. *)
let timed_scaled f =
  probes := [];
  let dt, r = timed f in
  (dt, dt *. take_scale (), r)

(** Run the workload's set-up [reps] times, each from a fully collected
    heap; the median time at the probe's nominal speed, the median
    measured time and the last result. *)
let setup_median ~reps f =
  let scaled = ref [] and raw = ref [] and last = ref None in
  for _ = 1 to reps do
    Gc.full_major ();
    let dt, at_nominal, r = timed_scaled f in
    scaled := at_nominal :: !scaled;
    raw := dt :: !raw;
    last := Some r
  done;
  (median !scaled, median !raw, Option.get !last)

(** How a pass brackets its steps: bare in the end-to-end run, one span
    per step in the traced run. *)
type wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let bare = { wrap = (fun _ f -> f ()) }

(** Human-readable line for one metric. *)
let say workload name value unit_ = Printf.printf "%s: %s = %.6g %s\n%!" workload name value unit_
