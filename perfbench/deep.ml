(** Every call below a workload's stable entry point that the benchmark
    makes, in one place.

    The end-to-end runs call only [Storm.prepare]/[run_prepared]/
    [default_config], [Mesh_storm.run]/[default_config]/[no_churn] and
    [Runtime.load]/[invoke]/[cache_clear]/[default_config]. What
    follows is what the correctness gates and the traced runs need on
    top of that:

    - {!drive_storm} re-implements [Storm.run_prepared]'s lock-step tick
      loop (Attester_app.start/step/outcome, Verifier_app.step and its
      session table, Net.tick, Simclock.advance, Protocol meters);
    - {!drive_mesh} re-implements [Mesh_storm.run] without churn
      (Soc.manufacture/boot, Protocol.Verifier.make_policy,
      Mesh_verifier.start/step/counters/cache, Cache.merge_into,
      Mesh_storm.draw_gap/claim_for/sub_refs/sub_measurement,
      Mesh_attester.start/step/outcome);
    - {!clone_identities} copies the mutable [Identity.t] records;
    - the standalone timings call Ecdh, Ecdsa, Fe256/P256.field_ring,
      Gcm, Ticket.make/mint/redeem and Resume.bind_mac/build_accept/
      open_accept directly;
    - the Wasm engine timings call Decode.decode and Validate.validate,
      and the Genann gate reads linear memory through
      Instance.Memory.load_string.

    Merging the two session stacks or retiring a Wasm tier touches only
    this file. *)

module P = Watz_attest.Protocol
module Net = Watz_tz.Net
module Soc = Watz_tz.Soc
module Prng = Watz_util.Prng
module Storm = Watz.Storm
module Attester_app = Watz.Attester_app
module Verifier_app = Watz.Verifier_app
module Mesh_storm = Watz_mesh.Mesh_storm
module Mesh_attester = Watz_mesh.Mesh_attester
module Mesh_verifier = Watz_mesh.Mesh_verifier
module Histogram = Watz_obs.Metrics.Histogram

(** How a driver brackets its calls: [None] runs them bare (the gate
    replays), [Some sp] records one span per call. *)
let wrap sp label =
  match sp with
  | None -> fun f -> f ()
  | Some sp ->
    let id = Span.id sp label in
    fun f -> Span.record sp id f

(** A network fault profile that also counts every segment sent. The
    hook returns its input unchanged, so no fault is recorded and the
    fault PRNG draws are untouched. *)
let counting profile =
  let frames = ref 0 in
  ({ profile with Net.mitm = Some (fun data -> incr frames; data) }, frames)

(* ------------------------------------------------------------------ *)
(* Full-handshake storm *)

type storm_run = {
  completed : int;
  aborted : int;
  retries : int;
  ticks : int;
  faults : (string * int) list;
  server : (string * int) list;
  latencies : float array; (* launch -> msg3 decrypted, sim ns, per completed session *)
  blobs_ok : bool; (* every Done blob is the policy's secret *)
  meter : float array; (* keygen, asym, sym, mem: wall ns summed over both ends *)
  attester_steps : int;
}

let sum_meter acc (m : P.meter) =
  acc.(0) <- acc.(0) +. m.P.keygen_ns;
  acc.(1) <- acc.(1) +. m.P.asym_ns;
  acc.(2) <- acc.(2) +. m.P.sym_ns;
  acc.(3) <- acc.(3) +. m.P.mem_ns

(** The lock-step loop of [Storm.run_prepared] over a prepared board,
    with each layer call bracketed by [sp]. *)
let drive_storm ?sp (p : Storm.prepared) =
  let config = p.Storm.p_config and soc = p.Storm.p_soc and server = p.Storm.p_server in
  let w_tick = wrap sp "net.tick"
  and w_verifier = wrap sp "verifier_app.step"
  and w_attester = wrap sp "attester_app.step"
  and w_start = wrap sp "attester_app.start"
  and w_issue = wrap sp "service.issue"
  and w_books = wrap sp "bench.bookkeeping" in
  let issue ~anchor = w_issue (fun () -> p.Storm.p_issue ~anchor) in
  let attesters = ref [] and launched = ref 0 and steps = ref 0 in
  (* Verifier-side Table III meters, picked up while their sessions are
     live (a finished session leaves the server's table). *)
  let vmeters = Hashtbl.create 64 in
  let collect_meters () =
    Hashtbl.iter
      (fun id (s : Verifier_app.conn_state) ->
        match s.Verifier_app.vsession with
        | Some v when not (Hashtbl.mem vmeters id) -> Hashtbl.replace vmeters id (P.Verifier.meter v)
        | _ -> ())
      server.Verifier_app.sessions
  in
  let launch () =
    let n = min config.Storm.stagger (config.Storm.sessions - !launched) in
    for _ = 1 to n do
      let sid = config.Storm.first_sid + (!launched * config.Storm.sid_stride) in
      incr launched;
      let a =
        w_start (fun () ->
            Attester_app.start ~retry:config.Storm.retry ~sid soc ~port:p.Storm.p_port
              ~random:p.Storm.p_random ~expected_verifier:p.Storm.p_expected_verifier ~issue)
      in
      attesters := a :: !attesters
    done
  in
  let all_terminal () =
    !launched = config.Storm.sessions
    && List.for_all (fun a -> Attester_app.outcome a <> Attester_app.Pending) !attesters
  in
  let ticks = ref 0 in
  while (not (all_terminal ())) && !ticks < config.Storm.max_ticks do
    incr ticks;
    launch ();
    w_tick (fun () -> Net.tick soc.Soc.net);
    w_verifier (fun () -> Verifier_app.step server);
    (* One span per tick around the whole pass over the attesters: the
       loop itself is part of what the layer costs. *)
    w_attester (fun () ->
        List.iter
          (fun a ->
            incr steps;
            Attester_app.step a)
          (List.rev !attesters));
    if sp <> None then w_books collect_meters;
    Watz_tz.Simclock.advance soc.Soc.clock config.Storm.quantum_ns
  done;
  let secret = server.Verifier_app.policy.P.Verifier.secret_blob in
  let meter = Array.make 4 0.0 in
  Hashtbl.iter (fun _ m -> sum_meter meter m) vmeters;
  let completed = ref 0 and blobs_ok = ref true and retries = ref 0 in
  List.iter
    (fun a ->
      retries := !retries + Attester_app.retries a;
      sum_meter meter (P.Attester.meter a.Attester_app.proto);
      match Attester_app.outcome a with
      | Attester_app.Done blob ->
        incr completed;
        if not (String.equal blob secret) then blobs_ok := false
      | _ -> ())
    !attesters;
  (* Same sample order as the storm's report, so float sums agree bit
     for bit. *)
  let latencies =
    List.filter_map
      (fun a ->
        match Attester_app.outcome a with
        | Attester_app.Done _ ->
          Some (Int64.to_float (Int64.sub (Attester_app.finished_ns a) (Attester_app.started_ns a)))
        | _ -> None)
      !attesters
  in
  {
    completed = !completed;
    aborted = config.Storm.sessions - !completed;
    retries = !retries;
    ticks = !ticks;
    faults = Net.fault_counts soc.Soc.net;
    server = Verifier_app.counters server;
    latencies = Array.of_list latencies;
    blobs_ok = !blobs_ok;
    meter;
    attester_steps = !steps;
  }

(** The deterministic outputs of the storm's own report that a replay
    must reproduce exactly; [None] when they agree. *)
let storm_mismatch (r : Storm.report) (d : storm_run) =
  let latency =
    if Array.length d.latencies = 0 then None
    else Some (Watz_util.Stats.summarize (Array.copy d.latencies))
  in
  let fields =
    [
      ("completed", r.Storm.completed = d.completed);
      ("aborted", r.Storm.aborted = d.aborted);
      ("retries", r.Storm.retries = d.retries);
      ("ticks", r.Storm.ticks = d.ticks);
      ("faults", r.Storm.faults = d.faults);
      ("server counters", r.Storm.server = d.server);
      ("sim latency", r.Storm.latency = latency);
    ]
  in
  List.find_map (fun (name, ok) -> if ok then None else Some name) fields

(* ------------------------------------------------------------------ *)
(* Resumption mesh *)

(** Independent copies of the attester records (tickets and resumption
    secrets included), so every timed storm starts from the same
    warm-up state. Key material is immutable and shared. *)
let clone_identities ids =
  Array.map (fun (id : Watz_mesh.Identity.t) -> { id with Watz_mesh.Identity.seed = id.Watz_mesh.Identity.seed }) ids

type mesh_run = {
  m_launched : int;
  m_resumed : int;
  m_full : int;
  m_fallbacks : int;
  m_aborted : int;
  m_retries : int;
  m_ticks : int;
  m_faults : (string * int) list;
  m_server : (string * int) list;
  m_resumed_latency : Histogram.t;
  m_full_latency : Histogram.t;
  m_latencies : float array; (* arrival -> established, sim ns, every completed session *)
  m_blobs_ok : bool;
  m_attester_steps : int;
}

(** [Mesh_storm.run] without churn, with each layer call bracketed by
    [sp]. *)
let drive_mesh ?sp ~(config : Mesh_storm.config) ~identities ~stek_seed ~cache_seed ?profile () =
  let cfg = config in
  let w_tick = wrap sp "net.tick"
  and w_verifier = wrap sp "mesh_verifier.step"
  and w_attester = wrap sp "mesh_attester.step"
  and w_start = wrap sp "mesh_attester.start" in
  let rng = Prng.create cfg.Mesh_storm.seed in
  let port = 7300 in
  (* Board, verifier identity key and server: part of [Mesh_storm.run]'s
     own cost, so part of the untraced timed window too. *)
  let soc, policy, server =
    wrap sp "mesh_storm.board" (fun () ->
        let soc = Soc.manufacture ~seed:(Printf.sprintf "mesh-board-%Ld" cfg.Mesh_storm.seed) () in
        (match Soc.boot soc with Ok _ -> () | Error _ -> failwith "mesh board: boot failed");
        Net.configure soc.Soc.net ~seed:cfg.Mesh_storm.seed
          ~profile:(Option.value profile ~default:cfg.Mesh_storm.profile);
        let policy =
          P.Verifier.make_policy
            ~identity_seed:(Printf.sprintf "mesh-verifier-%Ld" cfg.Mesh_storm.seed)
            ~endorsed_keys:(Array.to_list (Array.map Watz_mesh.Identity.public_key identities))
            ~reference_claims:[ Mesh_storm.claim_for 0 ]
            ~secret_blob:"mesh secret blob" ()
        in
        let server =
          Mesh_verifier.start ~ticket_ttl_ns:cfg.Mesh_storm.ticket_ttl_ns
            ~cache_ttl_ns:cfg.Mesh_storm.cache_ttl_ns ~sub_refs:(Mesh_storm.sub_refs ()) ~stek_seed
            soc ~port ~policy ()
        in
        Watz_mesh.Cache.merge_into (Mesh_verifier.cache server) cache_seed;
        (soc, policy, server))
  in
  let arrivals = Array.make cfg.Mesh_storm.sessions 0L in
  let tns = ref (Int64.to_float (Soc.now_ns soc)) in
  for i = 0 to cfg.Mesh_storm.sessions - 1 do
    tns := !tns +. Mesh_storm.draw_gap cfg rng;
    arrivals.(i) <- Int64.of_float !tns
  done;
  let crypto_rng = Prng.create (Int64.logxor cfg.Mesh_storm.seed 0x5e55104aL) in
  let random n = Prng.bytes crypto_rng n in
  let subclaims_for i =
    List.init cfg.Mesh_storm.subclaims_per_session (fun k ->
        let j = (i + k) mod Mesh_storm.sub_ref_count in
        (Printf.sprintf "module-%d" j, Mesh_storm.sub_measurement j))
  in
  let attesters = ref [] and launched = ref 0 and steps = ref 0 in
  let launch_due () =
    let now = Soc.now_ns soc in
    while !launched < cfg.Mesh_storm.sessions && Int64.compare arrivals.(!launched) now <= 0 do
      let i = !launched in
      incr launched;
      let id = identities.(Prng.int rng (Array.length identities)) in
      let a =
        w_start (fun () ->
            Mesh_attester.start ~retry:cfg.Mesh_storm.retry ~sid:(i + 1) ~subclaims:(subclaims_for i)
              soc ~port ~random ~identity:id ~expected_verifier:policy.P.Verifier.identity_pub ())
      in
      attesters := a :: !attesters
    done
  in
  let all_terminal () =
    !launched = cfg.Mesh_storm.sessions
    && List.for_all (fun a -> Mesh_attester.outcome a <> Mesh_attester.Pending) !attesters
  in
  let ticks = ref 0 in
  while (not (all_terminal ())) && !ticks < cfg.Mesh_storm.max_ticks do
    incr ticks;
    launch_due ();
    w_tick (fun () -> Net.tick soc.Soc.net);
    w_verifier (fun () -> Mesh_verifier.step server);
    w_attester (fun () ->
        List.iter
          (fun a ->
            incr steps;
            Mesh_attester.step a)
          (List.rev !attesters));
    Watz_tz.Simclock.advance soc.Soc.clock cfg.Mesh_storm.quantum_ns
  done;
  let resumed_latency = Histogram.create () and full_latency = Histogram.create () in
  let resumed = ref 0 and full = ref 0 and fallbacks = ref 0 and retries = ref 0 in
  let blobs_ok = ref true and latencies = ref [] in
  List.iter
    (fun a ->
      retries := !retries + Mesh_attester.retries a;
      match Mesh_attester.outcome a with
      | Mesh_attester.Done d ->
        if not (String.equal d.Mesh_attester.blob policy.P.Verifier.secret_blob) then
          blobs_ok := false;
        let lat =
          Int64.to_int (Int64.sub (Mesh_attester.established_ns a) (Mesh_attester.started_ns a))
        in
        latencies := float_of_int lat :: !latencies;
        if d.Mesh_attester.fell_back then incr fallbacks;
        (match d.Mesh_attester.path with
        | Mesh_attester.Resumed ->
          incr resumed;
          Histogram.record resumed_latency lat
        | Mesh_attester.Full_handshake ->
          incr full;
          Histogram.record full_latency lat)
      | _ -> ())
    (List.rev !attesters);
  {
    m_launched = !launched;
    m_resumed = !resumed;
    m_full = !full;
    m_fallbacks = !fallbacks;
    m_aborted = !launched - !resumed - !full;
    m_retries = !retries;
    m_ticks = !ticks;
    m_faults = Net.fault_counts soc.Soc.net;
    m_server = Mesh_verifier.counters server;
    m_resumed_latency = resumed_latency;
    m_full_latency = full_latency;
    m_latencies = Array.of_list !latencies;
    m_blobs_ok = !blobs_ok;
    m_attester_steps = !steps;
  }

let mesh_mismatch (r : Mesh_storm.report) (d : mesh_run) =
  let fields =
    [
      ("launched", r.Mesh_storm.launched = d.m_launched);
      ("resumed", r.Mesh_storm.completed_resumed = d.m_resumed);
      ("full", r.Mesh_storm.completed_full = d.m_full);
      ("fallbacks", r.Mesh_storm.fallbacks = d.m_fallbacks);
      ("aborted", r.Mesh_storm.aborted = d.m_aborted);
      ("retries", r.Mesh_storm.retries = d.m_retries);
      ("ticks", r.Mesh_storm.ticks = d.m_ticks);
      ("faults", r.Mesh_storm.faults = d.m_faults);
      ("server counters", r.Mesh_storm.server = d.m_server);
      ("resumed sim latency", Histogram.equal r.Mesh_storm.resumed_latency d.m_resumed_latency);
      ("full sim latency", Histogram.equal r.Mesh_storm.full_latency d.m_full_latency);
    ]
  in
  List.find_map (fun (name, ok) -> if ok then None else Some name) fields

(* ------------------------------------------------------------------ *)
(* Standalone layer timings *)

(** Mean seconds and minor words per call of [f] over [n] calls. *)
let per_call n f =
  let w0 = Common.words () in
  let t0 = Common.wall () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (f i))
  done;
  let dt = Common.wall () -. t0 in
  let dw = Common.words () -. w0 in
  (dt /. float_of_int n, dw /. float_of_int n)

type p256_costs = {
  ecdh_generate_s : float;
  ecdh_shared_s : float;
  ecdsa_sign_s : float;
  ecdsa_verify_s : float;
  ecdsa_verify_batch_s : float; (* per signature, batches of 4 *)
  fe256_mul_s : float;
  fe256_mul_words : float;
}

(** P-256 costs on a storm's key material: the verifier identity key
    that signs msg1 and that every attester checks. *)
let p256_costs (p : Storm.prepared) ~seed =
  let module C = Watz_crypto in
  let policy = p.Storm.p_server.Verifier_app.policy in
  let priv = policy.P.Verifier.identity_priv and pub = policy.P.Verifier.identity_pub in
  let rng = Prng.create seed in
  let random n = Prng.bytes rng n in
  let n = 24 in
  let kps = Array.init n (fun _ -> C.Ecdh.generate ~random) in
  let msgs = Array.init n (fun i -> Printf.sprintf "perfbench msg1 %d" i) in
  let sigs = Array.map (C.Ecdsa.sign priv) msgs in
  let ecdh_generate_s, _ = per_call n (fun _ -> C.Ecdh.generate ~random) in
  let ecdh_shared_s, _ =
    per_call n (fun i -> C.Ecdh.shared_secret ~priv:kps.(i - 1).C.Ecdh.priv ~peer:pub)
  in
  let ecdsa_sign_s, _ = per_call n (fun i -> C.Ecdsa.sign priv msgs.(i - 1)) in
  let ecdsa_verify_s, _ =
    per_call n (fun i -> C.Ecdsa.verify pub ~msg:msgs.(i - 1) ~signature:sigs.(i - 1))
  in
  let batches = n / 4 in
  let batch_s, _ =
    per_call batches (fun b ->
        C.Ecdsa.verify_batch (Array.init 4 (fun k -> let j = ((b - 1) * 4) + k in (pub, msgs.(j), sigs.(j)))))
  in
  let ring = C.P256.field_ring in
  let a = C.Fe256.of_int ring 0x1234567 and b = C.Fe256.of_int ring 0x7654321 in
  let x = ref a in
  let fe256_mul_s, fe256_mul_words = per_call 200_000 (fun _ -> x := C.Fe256.mul ring !x b) in
  {
    ecdh_generate_s;
    ecdh_shared_s;
    ecdsa_sign_s;
    ecdsa_verify_s;
    ecdsa_verify_batch_s = batch_s /. 4.0;
    fe256_mul_s;
    fe256_mul_words;
  }

type resume_costs = { mint_s : float; redeem_s : float; bind_mac_s : float; open_accept_s : float }

(** Ticket and resume-frame costs, on the storm's STEK seed. *)
let resume_costs ~stek_seed ~seed =
  let rng = Prng.create seed in
  let random n = Prng.bytes rng n in
  let master = Watz_mesh.Ticket.make ~seed:stek_seed in
  let d32 s = Watz_crypto.Sha256.digest s in
  let attester_id = d32 "perfbench attester" and rms = random 16 in
  let n = 2000 in
  let mint () =
    Watz_mesh.Ticket.mint master ~random ~now_ns:0L ~ttl_ns:1_000_000_000L ~attester_id
      ~claim:(d32 "claim") ~boot:(d32 "boot") ~rms
  in
  let ticket = mint () in
  let mint_s, _ = per_call n (fun _ -> mint ()) in
  let redeem_s, _ = per_call n (fun _ -> Watz_mesh.Ticket.redeem master ~now_ns:1L ticket) in
  let nonce_a = random Watz_mesh.Resume.nonce_len in
  let bind_mac_s, _ =
    per_call n (fun _ -> Watz_mesh.Resume.bind_mac ~rms ~attester_id ~nonce_a ~ticket)
  in
  let accept =
    Watz_mesh.Resume.build_accept ~rms ~nonce_a ~nonce_v:(random Watz_mesh.Resume.nonce_len)
      ~iv:(random Watz_mesh.Resume.iv_len) "mesh secret blob"
  in
  let open_accept_s, _ =
    per_call n (fun _ -> Watz_mesh.Resume.open_accept ~rms ~nonce_a accept)
  in
  { mint_s; redeem_s; bind_mac_s; open_accept_s }

(** Seconds to AES-GCM encrypt and decrypt [blob] once. *)
let gcm_costs blob =
  let key = String.sub (Watz_crypto.Sha256.digest "perfbench gcm") 0 16 and iv = String.make 12 'i' in
  let ct, tag = Watz_crypto.Gcm.encrypt ~key ~iv blob in
  let enc_s, _ = per_call 3 (fun _ -> Watz_crypto.Gcm.encrypt ~key ~iv blob) in
  let dec_s, _ = per_call 3 (fun _ -> Watz_crypto.Gcm.decrypt ~key ~iv ~tag ct) in
  (enc_s, dec_s)

(** Seconds to decode and to validate a Wasm binary, each once. *)
let decode_validate_s bytes =
  let t0 = Common.wall () in
  let m = Watz_wasm.Decode.decode bytes in
  let t1 = Common.wall () in
  Watz_wasm.Validate.validate m;
  (t1 -. t0, Common.wall () -. t1)

let read_memory mem ~off ~len = Watz_wasm.Instance.Memory.load_string mem off len
