(** attest-resume: open-loop arrivals that almost all resume in one
    round trip.

    Set-up runs a warm-up wave ([Mesh_storm.run] over a small fixed
    population) that mints every attester's ticket and fills the
    evidence cache. Each timed storm is then [Mesh_storm.run] handed a
    fresh copy of those identities, the cache export and the same STEK
    seed — the way the mesh fleet's second wave runs — so every storm of
    a run is the same input. *)

open Common
module Mesh_storm = Watz_mesh.Mesh_storm
module Net = Watz_tz.Net

let name = "attest-resume"
let population = 16
let warmup_sessions = 128
let sessions = 1024

let config ~seed ~wave ~sessions =
  {
    Mesh_storm.default_config with
    Mesh_storm.sessions;
    population;
    seed = derive seed (2 + wave);
    profile = Net.lossy;
    churn = Mesh_storm.no_churn;
  }

let stek_seed seed = Printf.sprintf "perfbench-stek-%Ld" (derive seed 4)

type warm = { identities : Watz_mesh.Identity.t array; cache : Watz_mesh.Cache.entry list }

let warm_up ~seed =
  let r =
    Mesh_storm.run ~config:(config ~seed ~wave:0 ~sessions:warmup_sessions) ~stek_seed:(stek_seed seed) ()
  in
  { identities = r.Mesh_storm.identities; cache = r.Mesh_storm.cache_export }

let storm ~seed warm =
  Mesh_storm.run
    ~config:(config ~seed ~wave:1 ~sessions)
    ~identities:(Deep.clone_identities warm.identities)
    ~stek_seed:(stek_seed seed) ~cache_seed:warm.cache ()

let drive ?sp ?profile ~seed warm =
  Deep.drive_mesh ?sp ?profile
    ~config:(config ~seed ~wave:1 ~sessions)
    ~identities:(Deep.clone_identities warm.identities)
    ~stek_seed:(stek_seed seed) ~cache_seed:warm.cache ()

let completed (r : Mesh_storm.report) = r.Mesh_storm.completed_resumed + r.Mesh_storm.completed_full

(* The mesh's own safety oracles: no frame may reach a completed
   session, and an attester can only have resumed on an acceptance the
   server actually sent. *)
let check_storm (r : Mesh_storm.report) (reference : Deep.mesh_run) =
  gate (r.Mesh_storm.stray_frames = 0) "%s: %d stray frames" name r.Mesh_storm.stray_frames;
  let accepted = Option.value ~default:0 (List.assoc_opt "resumes_accepted" r.Mesh_storm.server) in
  gate
    (r.Mesh_storm.completed_resumed <= accepted)
    "%s: %d resumes completed against %d server acceptances (forged acceptance)" name
    r.Mesh_storm.completed_resumed accepted;
  match Deep.mesh_mismatch r reference with
  | None -> ()
  | Some field -> gate false "%s: storm diverged from its replay on %s" name field

let check_blobs (d : Deep.mesh_run) =
  gate d.Deep.m_blobs_ok "%s: an established session received a blob other than the policy secret" name

let sim (d : Deep.mesh_run) =
  let pct = tail_pct (Array.length d.Deep.m_latencies) in
  ( Watz_util.Stats.percentile d.Deep.m_latencies 50.0 /. 1e6,
    Watz_util.Stats.percentile d.Deep.m_latencies pct /. 1e6,
    pct )

let run ~seed ~seconds =
  (* The first wave also pays one-time table costs; time five more. *)
  ignore (warm_up ~seed);
  let setup_s, raw_setup_s, warm = setup_median ~reps:5 (fun () -> warm_up ~seed) in
  let reference = drive ~seed warm in
  check_blobs reference;
  let wall_ms = samples () and cpu_ms = samples () and per_words = ref [] and last = ref None in
  let w =
    repeat ~seconds ~min_reps:3 (fun _ scale ->
        let w0 = words () and c0 = cpu () and t0 = wall () in
        let r = storm ~seed warm in
        let t1 = wall () and c1 = cpu () and w1 = words () in
        let scale = scale () in
        check_storm r reference;
        let done_ = float_of_int (max 1 (completed r)) in
        add wall_ms ~scale ((t1 -. t0) *. 1e3 /. done_);
        add cpu_ms ~scale ((c1 -. c0) *. 1e3 /. done_);
        per_words := ((w1 -. w0) /. done_) :: !per_words;
        last := Some r;
        t1 -. t0)
  in
  let r = Option.get !last in
  let p50, tail, pct = sim reference in
  let done_ = completed r in
  say name "sessions_per_s (measured)" (1e3 /. median wall_ms.raw) "1/s";
  say name "cpu_us_per_session (measured)" (median cpu_ms.raw *. 1e3) "us";
  say name "minor_words_per_session" (median !per_words) "words";
  say name "sim_p50_ms" p50 "ms";
  say name (Printf.sprintf "sim_tail_ms (p%g)" pct) tail "ms";
  say name "setup_s (measured)" raw_setup_s "s";
  say name "probe" w.probe_us "us";
  Printf.printf "%s: %d storms of %d arrivals, %d resumed + %d full (%d fell back) per storm\n" name
    w.reps sessions r.Mesh_storm.completed_resumed r.Mesh_storm.completed_full r.Mesh_storm.fallbacks;
  {
    attempted = w.reps * sessions;
    failed = w.reps * (sessions - done_);
    metrics =
      [
        m "wall_ms_per_op" "ms" (median wall_ms.scaled);
        m "cpu_ms_per_op" "ms" (median cpu_ms.scaled);
        m "minor_words_per_op" "words" (median !per_words);
        m "completion_ratio" "ratio" (float_of_int done_ /. float_of_int sessions);
        m "heap_peak_mb" "MB" w.heap_mb;
        m "setup_s" "s" setup_s;
      ];
  }

let run_traced ~seed ~seconds ~spans =
  let sp = Span.create () in
  let warm = warm_up ~seed in
  let reference = drive ~seed warm in
  check_blobs reference;
  let untraced_k = ref 0.0 and traced_k = ref 0.0 and traced_s = ref 0.0 in
  let done_ = ref 0 and frames = ref 0 in
  let steps = ref 0 and faults = ref 0 and resumed = ref 0 and fallbacks = ref 0 in
  let hit_rate = ref 0.0 in
  let { reps; probe_us; _ } =
    repeat ~seconds ~min_reps:2 (fun rep _ ->
        let profile, counted = Deep.counting Net.lossy in
        let untraced () = timed_scaled (fun () -> storm ~seed warm) in
        let traced () = timed_scaled (fun () -> drive ~sp ~profile ~seed warm) in
        let (ut, uk, r), (tt, tk, d) =
          if rep mod 2 = 0 then
            let u = untraced () in
            (u, traced ())
          else
            let t = traced () in
            (untraced (), t)
        in
        check_storm r d;
        check_blobs d;
        untraced_k := !untraced_k +. uk;
        traced_k := !traced_k +. tk;
        traced_s := !traced_s +. tt;
        done_ := !done_ + d.Deep.m_resumed + d.Deep.m_full;
        resumed := !resumed + d.Deep.m_resumed;
        fallbacks := !fallbacks + d.Deep.m_fallbacks;
        frames := !frames + !counted;
        steps := !steps + d.Deep.m_attester_steps;
        faults := !faults + List.fold_left (fun acc (_, v) -> acc + v) 0 d.Deep.m_faults;
        hit_rate := r.Mesh_storm.cache_hit_rate;
        ut +. tt)
  in
  let per = float_of_int (max 1 !done_) in
  let us label = (Span.totals sp label).Span.self_s *. 1e6 /. per in
  let wd label = (Span.totals sp label).Span.self_words /. per in
  let p50, tail, pct = sim reference in
  let c = Deep.resume_costs ~stek_seed:(stek_seed seed) ~seed:(derive seed 8) in
  Span.dump sp spans;
  let attempted = 2 * reps * sessions in
  {
    attempted;
    failed = attempted - (2 * !done_);
    metrics =
      [
        m "mesh_verifier.step_us" "us" (us "mesh_verifier.step");
        m "mesh_verifier.step_words" "words" (wd "mesh_verifier.step");
        m "mesh_attester.start_us" "us" (us "mesh_attester.start");
        m "mesh_attester.start_words" "words" (wd "mesh_attester.start");
        m "mesh_attester.step_us" "us" (us "mesh_attester.step");
        m "mesh_attester.step_words" "words" (wd "mesh_attester.step");
        m "mesh_storm.board_us" "us" (us "mesh_storm.board");
        m "mesh_attester.step_calls_per_session" "calls" (float_of_int !steps /. per);
        m "ticket.mint_us" "us" (c.Deep.mint_s *. 1e6);
        m "ticket.redeem_us" "us" (c.Deep.redeem_s *. 1e6);
        m "resume.bind_mac_us" "us" (c.Deep.bind_mac_s *. 1e6);
        m "resume.open_accept_us" "us" (c.Deep.open_accept_s *. 1e6);
        m "cache.hit_rate" "ratio" !hit_rate;
        m "resume.share" "ratio" (float_of_int !resumed /. per);
        m "resume.fallbacks" "sessions" (float_of_int !fallbacks /. float_of_int reps);
        m "net.tick_us" "us" (us "net.tick");
        m "net.frames_per_session" "frames" (float_of_int !frames /. per);
        m "net.faults_injected" "faults" (float_of_int !faults /. per);
        m "mesh_storm.unattributed_us" "us" ((!traced_s -. Span.top_level_s sp) *. 1e6 /. per);
        m "ref.probe_us" "us" probe_us;
        m "trace.unattributed_pct" "%" (100.0 *. (!traced_s -. Span.top_level_s sp) /. !traced_s);
        m "trace.overhead_pct" "%" (100.0 *. (!traced_k -. !untraced_k) /. !untraced_k);
        m "sim_p50_ms" "ms" p50;
        m "sim_tail_ms" "ms" tail;
        m "sim_tail_pct" "percentile" pct;
      ];
  }
