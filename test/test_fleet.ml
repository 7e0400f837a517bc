(* The domain-sharded verifier fleet: sharding arithmetic, the
   determinism contract (fixed seed => byte-identical merged metrics and
   trace), lossy completion with the joined per-shard reports agreeing
   with the merged registry, and the network layer's single-domain
   ownership rule. *)

module Fleet = Watz.Fleet
module Storm = Watz.Storm
module Net = Watz_tz.Net
module M = Watz_obs.Metrics

let case name f = Alcotest.test_case name `Quick f

let config ?(shards = 2) ?(sessions = 8) ?(trace_capacity = 0) ?(profile = Net.lossy)
    ?(seed = 0xf1ee7L) ?(minor_heap_words = 0) () =
  {
    Fleet.shards;
    storm = { Storm.default_config with Storm.sessions; seed; profile };
    trace_capacity;
    minor_heap_words;
  }

(* --- sharding arithmetic -------------------------------------------- *)

let test_shard_split () =
  Alcotest.(check (list int)) "balanced split, remainder first" [ 3; 3; 2 ]
    (List.init 3 (Fleet.shard_sessions ~total:8 ~shards:3));
  Alcotest.(check int) "split conserves sessions" 64
    (List.fold_left (fun acc k -> acc + Fleet.shard_sessions ~total:64 ~shards:7 k) 0
       (List.init 7 Fun.id));
  let seeds = List.init 8 (Fleet.shard_seed 0xa77e57L) in
  Alcotest.(check int) "derived seeds distinct" 8
    (List.length (List.sort_uniq compare seeds));
  (* sid sharding: ids globally unique and disjoint across shards. *)
  let cfg = config ~shards:3 ~sessions:8 () in
  let sids k =
    let sc = Fleet.shard_config cfg k in
    List.init sc.Storm.sessions (fun i -> sc.Storm.first_sid + (i * sc.Storm.sid_stride))
  in
  let all = List.concat_map sids [ 0; 1; 2 ] in
  Alcotest.(check int) "8 globally unique sids" 8 (List.length (List.sort_uniq compare all))

(* --- determinism: fixed seed => byte-identical merged artifacts ------ *)

let test_fixed_seed_byte_identity () =
  let cfg = config ~shards:2 ~sessions:8 ~trace_capacity:8192 () in
  let r1 = Fleet.run ~config:cfg () in
  let r2 = Fleet.run ~config:cfg () in
  let m1 = Fleet.metrics_json r1 and m2 = Fleet.metrics_json r2 in
  Alcotest.(check bool) "metrics non-trivial" true (String.length m1 > 200);
  Alcotest.(check string) "merged metrics byte-identical" m1 m2;
  let t1 = Fleet.trace_json r1 and t2 = Fleet.trace_json r2 in
  Alcotest.(check bool) "trace non-trivial" true (String.length t1 > 2000);
  Alcotest.(check string) "merged trace byte-identical" t1 t2

(* The GC knob is wall-clock only: an enlarged per-domain minor heap
   must not perturb the simulated artifacts. The session count is
   large enough that retransmission deadlines cross mid-tick (the
   simulated clock advances as sessions do protocol work). *)
let test_minor_heap_byte_identity () =
  let run minor_heap_words =
    let cfg = config ~shards:2 ~sessions:48 ~trace_capacity:65536 ~minor_heap_words () in
    let r = Fleet.run ~config:cfg () in
    (Fleet.metrics_json r, Fleet.trace_json r)
  in
  let m, t = run 0 in
  let m_gc, t_gc = run 1_048_576 in
  Alcotest.(check string) "metrics identical under GC tuning" m m_gc;
  Alcotest.(check string) "trace identical under GC tuning" t t_gc

(* --- lossy completion + joined reports ------------------------------- *)

let test_lossy_completion_and_joined_reports () =
  let cfg = config ~shards:4 ~sessions:16 () in
  let r = Fleet.run ~config:cfg () in
  Alcotest.(check int) "shards" 4 r.Fleet.shards;
  Alcotest.(check int) "session split conserved" 16 r.Fleet.sessions;
  Alcotest.(check bool)
    (Format.asprintf "completion %.1f%% >= 99%%" (100.0 *. Fleet.completion_rate r))
    true
    (Fleet.completion_rate r >= 0.99);
  (* The merged registry agrees with the joined per-shard reports. *)
  Alcotest.(check (list int)) "per-shard reports in shard order" [ 0; 1; 2; 3 ]
    (List.map fst r.Fleet.per_shard);
  let shard_sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 r.Fleet.per_shard in
  let c name = M.Counter.get (M.counter r.Fleet.metrics name) in
  Alcotest.(check int) "per-shard sessions sum to 16" 16 (shard_sum (fun s -> s.Storm.sessions));
  let completed = shard_sum (fun s -> s.Storm.completed) in
  Alcotest.(check int) "per-shard completions = fleet.completed" completed (c "fleet.completed");
  Alcotest.(check int) "per-shard completions = server.sessions_completed" completed
    (c "server.sessions_completed");
  Alcotest.(check bool) "faults were injected" true (c "net.drop" + c "net.delay" > 0)

(* --- Net single-domain ownership ------------------------------------- *)

(* Per-shard GC deltas are per-domain: splitting the same sessions over
   two concurrently running shards must not double-count allocation. *)
let test_gc_words_per_domain () =
  let words_per_session shards =
    let r = Fleet.run ~config:(config ~shards ~sessions:16 ~profile:Net.perfect ()) () in
    Alcotest.(check int) (Printf.sprintf "%d shard(s) complete" shards) 16 r.Fleet.completed;
    List.fold_left (fun acc (_, g) -> acc +. g.Fleet.minor_words) 0.0 r.Fleet.gc_per_shard /. 16.0
  in
  let one = words_per_session 1 and two = words_per_session 2 in
  if Float.abs (two -. one) > 0.1 *. one then
    Alcotest.failf "2-shard minor words/session %.0f not within 10%% of 1-shard %.0f" two one

let test_net_domain_ownership () =
  let net = Net.create () in
  ignore (Net.listen net ~port:9200);
  let foreign =
    Domain.join
      (Domain.spawn (fun () ->
           match Net.tick net with
           | () -> false
           | exception Net.Wrong_domain _ -> true))
  in
  Alcotest.(check bool) "foreign domain rejected" true foreign;
  (* The owning domain is unaffected... *)
  Net.tick net;
  (* ...and adoption transfers ownership wholesale (the escape hatch
     for handing a quiescent board to a worker domain). *)
  let net2 = Net.create () in
  let adopted =
    Domain.join
      (Domain.spawn (fun () ->
           Net.adopt net2;
           match Net.tick net2 with () -> true | exception Net.Wrong_domain _ -> false))
  in
  Alcotest.(check bool) "adopted domain owns the net" true adopted;
  match Net.tick net2 with
  | () -> Alcotest.fail "original domain must lose ownership after adopt"
  | exception Net.Wrong_domain _ -> ()

let suite =
  [
    ( "fleet",
      [
        case "shard split, seeds, sid disjointness" test_shard_split;
        case "fixed seed: merged artifacts byte-identical" test_fixed_seed_byte_identity;
        case "minor heap tuning: artifacts byte-identical" test_minor_heap_byte_identity;
        case "lossy 4x4: completion + joined reports" test_lossy_completion_and_joined_reports;
        case "net enforces single-domain ownership" test_net_domain_ownership;
        case "GC words per session are per-domain" test_gc_words_per_domain;
      ] );
  ]
