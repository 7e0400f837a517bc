(** attest-full: closed storms of full msg0–msg3 handshakes.

    Every storm of a run is the same input: [Storm.default_config] with
    only the session count, the seed and the lossy link changed, on a
    board built by [Storm.prepare] outside the timed window. Before the
    window one storm runs through {!Deep.drive_storm}, which checks every
    delivered secret and fixes the deterministic outputs that each timed
    [Storm.run_prepared] must then reproduce. *)

open Common
module Storm = Watz.Storm
module Net = Watz_tz.Net

let name = "attest-full"
let sessions = 256

let config ~seed = { Storm.default_config with Storm.sessions; seed = derive seed 1; profile = Net.lossy }

let check_replay (report : Storm.report) (reference : Deep.storm_run) =
  match Deep.storm_mismatch report reference with
  | None -> ()
  | Some field -> gate false "%s: storm diverged from its replay on %s" name field

let check_blobs (d : Deep.storm_run) =
  gate d.Deep.blobs_ok "%s: a completed session decrypted a blob other than the policy secret" name

let sim_lines (d : Deep.storm_run) =
  let arr = d.Deep.latencies in
  let pct = tail_pct (Array.length arr) in
  ( Watz_util.Stats.percentile arr 50.0 /. 1e6,
    Watz_util.Stats.percentile arr pct /. 1e6,
    pct )

let run ~seed ~seconds =
  let cfg = config ~seed in
  let reference = Deep.drive_storm (Storm.prepare ~config:cfg ()) in
  check_blobs reference;
  let setup = samples () and wall_ms = samples () and cpu_ms = samples () in
  let per_words = ref [] in
  let w =
    repeat ~seconds ~min_reps:3 (fun _ scale ->
        let dt, p = timed (fun () -> Storm.prepare ~config:cfg ()) in
        let w0 = words () and c0 = cpu () and t0 = wall () in
        let r = Storm.run_prepared p in
        let t1 = wall () and c1 = cpu () and w1 = words () in
        let scale = scale () in
        add setup ~scale dt;
        check_replay r reference;
        let done_ = float_of_int (max 1 r.Storm.completed) in
        add wall_ms ~scale ((t1 -. t0) *. 1e3 /. done_);
        add cpu_ms ~scale ((c1 -. c0) *. 1e3 /. done_);
        per_words := ((w1 -. w0) /. done_) :: !per_words;
        t1 -. t0)
  in
  let p50, tail, pct = sim_lines reference in
  say name "sessions_per_s (measured)" (1e3 /. median wall_ms.raw) "1/s";
  say name "cpu_us_per_session (measured)" (median cpu_ms.raw *. 1e3) "us";
  say name "minor_words_per_session" (median !per_words) "words";
  say name "sim_p50_ms" p50 "ms";
  say name (Printf.sprintf "sim_tail_ms (p%g)" pct) tail "ms";
  say name "probe" w.probe_us "us";
  Printf.printf "%s: %d storms of %d sessions, %d completed per storm\n" name w.reps sessions
    reference.Deep.completed;
  {
    attempted = w.reps * sessions;
    failed = w.reps * reference.Deep.aborted;
    metrics =
      [
        m "wall_ms_per_op" "ms" (median wall_ms.scaled);
        m "cpu_ms_per_op" "ms" (median cpu_ms.scaled);
        m "minor_words_per_op" "words" (median !per_words);
        m "completion_ratio" "ratio" (float_of_int reference.Deep.completed /. float_of_int sessions);
        m "heap_peak_mb" "MB" w.heap_mb;
        m "setup_s" "s" (median setup.scaled);
      ];
  }

let run_traced ~seed ~seconds ~spans =
  let cfg = config ~seed in
  let sp = Span.create () in
  let warm = Deep.drive_storm (Storm.prepare ~config:cfg ()) in
  check_blobs warm;
  let untraced_k = ref 0.0 and traced_k = ref 0.0 and traced_s = ref 0.0 in
  let completed = ref 0 and frames = ref 0 in
  let last = ref warm and meter = Array.make 4 0.0 and batches = ref 0 and batched = ref 0 in
  let steps = ref 0 and retries = ref 0 and faults = ref 0 in
  let { reps; probe_us; _ } =
    repeat ~seconds ~min_reps:2 (fun rep _ ->
        let untraced () =
          let p = Storm.prepare ~config:cfg () in
          timed_scaled (fun () -> Storm.run_prepared p)
        in
        let profile, counted = Deep.counting cfg.Storm.profile in
        let traced () =
          let pt = Storm.prepare ~config:{ cfg with Storm.profile } () in
          (pt, timed_scaled (fun () -> Deep.drive_storm ~sp pt))
        in
        (* Alternate which of the pair runs first, so the overhead
           estimate does not inherit an order effect. *)
        let (ut, uk, r), (pt, (tt, tk, d)) =
          if rep mod 2 = 0 then
            let u = untraced () in
            (u, traced ())
          else
            let t = traced () in
            (untraced (), t)
        in
        check_replay r d;
        check_blobs d;
        untraced_k := !untraced_k +. uk;
        traced_k := !traced_k +. tk;
        traced_s := !traced_s +. tt;
        completed := !completed + d.Deep.completed;
        frames := !frames + !counted;
        steps := !steps + d.Deep.attester_steps;
        retries := !retries + d.Deep.retries;
        faults := !faults + List.fold_left (fun acc (_, v) -> acc + v) 0 d.Deep.faults;
        Array.iteri (fun i v -> meter.(i) <- meter.(i) +. v) d.Deep.meter;
        (match List.assoc_opt "verify_batch_size" (Watz.Verifier_app.histograms pt.Storm.p_server) with
        | Some h ->
          batches := !batches + Watz_obs.Metrics.Histogram.count h;
          batched := !batched + Watz_obs.Metrics.Histogram.sum h
        | None -> ());
        last := d;
        ut +. tt)
  in
  let per = float_of_int (max 1 !completed) in
  let us label = (Span.totals sp label).Span.self_s *. 1e6 /. per in
  let wd label = (Span.totals sp label).Span.self_words /. per in
  let p50, tail, pct = sim_lines !last in
  let c = Deep.p256_costs (Storm.prepare ~config:cfg ()) ~seed:(derive seed 7) in
  Span.dump sp spans;
  let attempted = 2 * reps * sessions in
  let metrics = [
    m "crypto.ecdh_generate_us" "us" (c.Deep.ecdh_generate_s *. 1e6);
    m "crypto.ecdh_shared_us" "us" (c.Deep.ecdh_shared_s *. 1e6);
    m "crypto.ecdsa_sign_us" "us" (c.Deep.ecdsa_sign_s *. 1e6);
    m "crypto.ecdsa_verify_us" "us" (c.Deep.ecdsa_verify_s *. 1e6);
    m "crypto.ecdsa_verify_batch_us" "us" (c.Deep.ecdsa_verify_batch_s *. 1e6);
    m "crypto.fe256_mul_ns" "ns" (c.Deep.fe256_mul_s *. 1e9);
    m "crypto.fe256_mul_words" "words" c.Deep.fe256_mul_words;
    m "protocol.keygen_us" "us" (meter.(0) /. 1e3 /. per);
    m "protocol.asym_us" "us" (meter.(1) /. 1e3 /. per);
    m "protocol.sym_us" "us" (meter.(2) /. 1e3 /. per);
    m "protocol.mem_us" "us" (meter.(3) /. 1e3 /. per);
    m "verifier_app.step_us" "us" (us "verifier_app.step");
    m "verifier_app.step_words" "words" (wd "verifier_app.step");
    m "attester_app.start_us" "us" (us "attester_app.start");
    m "attester_app.start_words" "words" (wd "attester_app.start");
    m "attester_app.step_us" "us" (us "attester_app.step");
    m "attester_app.step_words" "words" (wd "attester_app.step");
    m "attester_app.step_calls_per_session" "calls" (float_of_int !steps /. per);
    m "service.issue_us" "us" (us "service.issue");
    m "service.issue_words" "words" (wd "service.issue");
    m "verifier_app.batch_size_mean"
      "signatures"
      (if !batches = 0 then 0.0 else float_of_int !batched /. float_of_int !batches);
    m "attester_app.retries_per_session" "retries" (float_of_int !retries /. per);
    m "net.tick_us" "us" (us "net.tick");
    m "net.frames_per_session" "frames" (float_of_int !frames /. per);
    m "net.faults_injected" "faults" (float_of_int !faults /. per);
    m "storm.unattributed_us" "us" ((!traced_s -. Span.top_level_s sp) *. 1e6 /. per);
    m "ref.probe_us" "us" probe_us;
    m "trace.unattributed_pct" "%" (100.0 *. (!traced_s -. Span.top_level_s sp) /. !traced_s);
    m "trace.overhead_pct" "%" (100.0 *. (!traced_k -. !untraced_k) /. !untraced_k);
    m "sim_p50_ms" "ms" p50;
    m "sim_tail_ms" "ms" tail;
    m "sim_tail_pct" "percentile" pct;
  ] in
  { attempted; failed = attempted - (2 * !completed); metrics }
