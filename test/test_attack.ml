(* Adversarial attestation battery: every scenario must end in a typed
   protocol error - never a completed session, never an escaping
   exception. The first five attack the protocol state machines
   directly (a Dolev-Yao adversary rewriting messages); the last two
   mount transport-level adversaries through the fault-injecting
   network and assert zero completions across a whole storm. *)

module P = Watz_attest.Protocol
module Evidence = Watz_attest.Evidence
module Service = Watz_attest.Service
module Soc = Watz_tz.Soc
module Net = Watz_tz.Net
module Storm = Watz.Storm

let case name f = Alcotest.test_case name `Quick f
let claim = Watz_crypto.Sha256.digest "app"

let booted ?version seed =
  let soc = Soc.manufacture ~seed () in
  (match Soc.boot ?version soc with Ok _ -> () | Error _ -> assert false);
  soc

let rng = Watz_util.Prng.create 0xa77ac4L
let random n = Watz_util.Prng.bytes rng n

(* One honest device and a verifier that endorses it. *)
let setup ?(accept_version = fun _ -> true) () =
  let soc = booted "attack-device" in
  let service = Service.create (Soc.optee soc) in
  let policy =
    P.Verifier.make_policy ~identity_seed:"attack-verifier"
      ~endorsed_keys:[ Service.public_key service ]
      ~reference_claims:[ claim ] ~accept_version ~secret_blob:"the secret" ()
  in
  (service, policy)

let issue service ~anchor = Evidence.encode (Service.issue_evidence service ~anchor ~claim)

(* Drive an honest attester up to (and including) msg2. *)
let honest_msg2 service policy =
  let attester = P.Attester.create ~random ~expected_verifier:policy.P.Verifier.identity_pub () in
  let m0 = P.Attester.msg0 attester in
  let vsession, m1 = Result.get_ok (P.Verifier.handle_msg0 policy ~random m0) in
  let anchor = Result.get_ok (P.Attester.handle_msg1 attester m1) in
  let m2 = Result.get_ok (P.Attester.msg2 attester ~evidence:(issue service ~anchor)) in
  (attester, vsession, m2)

let check_error name expected = function
  | Ok _ -> Alcotest.failf "%s: the attack completed a session" name
  | Error e ->
    if not (expected e) then Alcotest.failf "%s: wrong error: %a" name P.pp_error e

(* 1. A msg2 captured from one session replayed into a fresh verifier
   session: fresh session keys mean the old MAC cannot hold. *)
let test_replay_msg2_fresh_session () =
  let service, policy = setup () in
  let _attacked, vsession1, m2 = honest_msg2 service policy in
  ignore (Result.get_ok (P.Verifier.handle_msg2 vsession1 ~random m2));
  (* The adversary opens a fresh session with its own key share and
     replays the captured msg2. *)
  let adversary = P.Attester.create ~random ~expected_verifier:policy.P.Verifier.identity_pub () in
  let vsession2, _m1 =
    Result.get_ok (P.Verifier.handle_msg0 policy ~random (P.Attester.msg0 adversary))
  in
  check_error "replay" (function P.Bad_mac _ | P.Session_key_mismatch -> true | _ -> false)
    (P.Verifier.handle_msg2 vsession2 ~random m2);
  Alcotest.(check bool) "nothing accepted" true
    (vsession2.P.Verifier.accepted_evidence = None)

(* 2. msg1 with the G_v and V fields swapped: the key shares no longer
   agree, so the session MAC fails before any identity is trusted. *)
let test_swapped_gv_v_in_msg1 () =
  let _service, policy = setup () in
  let attester = P.Attester.create ~random ~expected_verifier:policy.P.Verifier.identity_pub () in
  let m0 = P.Attester.msg0 attester in
  let _vsession, m1 = Result.get_ok (P.Verifier.handle_msg0 policy ~random m0) in
  let gv = String.sub m1 0 65
  and v = String.sub m1 65 65
  and rest = String.sub m1 130 (String.length m1 - 130) in
  let swapped = v ^ gv ^ rest in
  check_error "swapped G_v/V"
    (function P.Bad_mac _ | P.Malformed _ | P.Unexpected_verifier_identity -> true | _ -> false)
    (P.Attester.handle_msg1 attester swapped);
  (* The attester must not have derived a session from the forgery. *)
  check_error "msg2 after forged msg1" (fun _ -> true)
    (P.Attester.msg2 attester ~evidence:"")

(* 3. Evidence signed by a different (unendorsed) device's attestation
   key, for the right anchor and claim. *)
let test_evidence_from_other_device () =
  let _service, policy = setup () in
  let other = Service.create (Soc.optee (booted "other-device")) in
  let attester = P.Attester.create ~random ~expected_verifier:policy.P.Verifier.identity_pub () in
  let vsession, m1 =
    Result.get_ok (P.Verifier.handle_msg0 policy ~random (P.Attester.msg0 attester))
  in
  let anchor = Result.get_ok (P.Attester.handle_msg1 attester m1) in
  let m2 = Result.get_ok (P.Attester.msg2 attester ~evidence:(issue other ~anchor)) in
  check_error "cross-device evidence" (function P.Unknown_device -> true | _ -> false)
    (P.Verifier.handle_msg2 vsession ~random m2);
  Alcotest.(check bool) "nothing accepted" true (vsession.P.Verifier.accepted_evidence = None)

(* 4. A malicious runtime tampers the claim inside otherwise-honest
   evidence (keeping the original signature): the evidence signature
   check must catch it. *)
let test_tampered_claim () =
  let service, policy = setup () in
  let attester = P.Attester.create ~random ~expected_verifier:policy.P.Verifier.identity_pub () in
  let vsession, m1 =
    Result.get_ok (P.Verifier.handle_msg0 policy ~random (P.Attester.msg0 attester))
  in
  let anchor = Result.get_ok (P.Attester.handle_msg1 attester m1) in
  let signed = Service.issue_evidence service ~anchor ~claim in
  let forged =
    {
      signed with
      Evidence.body =
        { signed.Evidence.body with Evidence.claim = Watz_crypto.Sha256.digest "evil" };
    }
  in
  let m2 = Result.get_ok (P.Attester.msg2 attester ~evidence:(Evidence.encode forged)) in
  check_error "tampered claim" (function P.Bad_evidence_signature -> true | _ -> false)
    (P.Verifier.handle_msg2 vsession ~random m2);
  Alcotest.(check bool) "nothing accepted" true (vsession.P.Verifier.accepted_evidence = None)

(* 5. Version downgrade: a genuinely endorsed device running an old,
   vulnerable runtime presents validly signed evidence; the version
   policy must refuse it. *)
let test_version_downgrade () =
  let old_soc = booted ~version:"watz-0.1/optee-2.0" "attack-device-old" in
  let old_service = Service.create (Soc.optee old_soc) in
  let policy =
    P.Verifier.make_policy ~identity_seed:"attack-verifier"
      ~endorsed_keys:[ Service.public_key old_service ]
      ~reference_claims:[ claim ]
      ~accept_version:(fun v -> v = Soc.watz_version)
      ~secret_blob:"the secret" ()
  in
  let attester = P.Attester.create ~random ~expected_verifier:policy.P.Verifier.identity_pub () in
  let vsession, m1 =
    Result.get_ok (P.Verifier.handle_msg0 policy ~random (P.Attester.msg0 attester))
  in
  let anchor = Result.get_ok (P.Attester.handle_msg1 attester m1) in
  let m2 =
    Result.get_ok
      (P.Attester.msg2 attester
         ~evidence:(Evidence.encode (Service.issue_evidence old_service ~anchor ~claim)))
  in
  check_error "downgrade" (function P.Outdated_version _ -> true | _ -> false)
    (P.Verifier.handle_msg2 vsession ~random m2);
  Alcotest.(check bool) "nothing accepted" true (vsession.P.Verifier.accepted_evidence = None)

(* 6. Completed-session resurrection (regression): once msg3 went out,
   the session is terminal. A late-duplicated msg0 must no longer be
   answered with the cached msg1 — replying would reopen the finished
   handshake — while the byte-exact msg2 retransmit keeps its
   idempotent msg3 answer. *)
let test_completed_session_resurrection () =
  let service, policy = setup () in
  let attester, vsession, m2 = honest_msg2 service policy in
  let m0 = P.Attester.msg0 attester in
  (* In flight, the msg0 retransmit is served from the session cache. *)
  Alcotest.(check bool) "retransmit recognised" true (P.Verifier.is_msg0_retransmit vsession m0);
  (match P.Verifier.msg1_reply vsession with
  | Some _ -> ()
  | None -> Alcotest.fail "msg1 must be served while the session is in flight");
  let m3 = Result.get_ok (P.Verifier.handle_msg2 vsession ~random m2) in
  Alcotest.(check bool) "session completed" true (P.Verifier.completed vsession);
  (* Terminal: the very same msg0 now gets no msg1. *)
  Alcotest.(check bool) "retransmit still recognised" true
    (P.Verifier.is_msg0_retransmit vsession m0);
  (match P.Verifier.msg1_reply vsession with
  | None -> ()
  | Some _ -> Alcotest.fail "resurrection: msg1 served after completion");
  (* ...but the msg2 retransmit still answers byte-identically. *)
  match P.Verifier.handle_msg2 vsession ~random m2 with
  | Ok m3' -> Alcotest.(check string) "idempotent msg3" m3 m3'
  | Error e -> Alcotest.failf "msg2 retransmit rejected: %a" P.pp_error e

(* 6b. The same attack against the live server: a duplicated msg0
   arriving on the connection after the handshake finished must be
   counted as stray and ignored — no msg1 on the wire, no abort, the
   completed appraisal stands. [start] builds the server under test:
   the plain listener or the resumption-capable mesh verifier, which
   share one connection state machine. *)
let plain_server soc ~port ~policy = Watz.Verifier_app.start soc ~port ~policy

let resumption_server soc ~port ~policy =
  (Watz_mesh.Mesh_verifier.start ~stek_seed:"stray-stek" soc ~port ~policy ())
    .Watz_mesh.Mesh_verifier.server

let test_server_ignores_stray_msg0 start () =
  let soc = booted "stray-device" in
  let service = Service.create (Soc.optee soc) in
  let policy =
    P.Verifier.make_policy ~identity_seed:"stray-verifier"
      ~endorsed_keys:[ Service.public_key service ]
      ~reference_claims:[ claim ] ~secret_blob:"the secret" ()
  in
  let port = 7200 in
  let server = start soc ~port ~policy in
  let assoc name =
    Option.value ~default:0 (List.assoc_opt name (Watz.Verifier_app.counters server))
  in
  (* Drive one honest handshake by hand over the simulated network. *)
  let attester = P.Attester.create ~random ~expected_verifier:policy.P.Verifier.identity_pub () in
  let conn = Net.connect soc.Soc.net ~port in
  let m0 = P.Attester.msg0 attester in
  Net.send_frame conn m0;
  Watz.Verifier_app.step server;
  let m1 = Option.get (Net.recv_frame conn) in
  let anchor = Result.get_ok (P.Attester.handle_msg1 attester m1) in
  let m2 = Result.get_ok (P.Attester.msg2 attester ~evidence:(issue service ~anchor)) in
  Net.send_frame conn m2;
  Watz.Verifier_app.step server;
  (match P.Attester.handle_msg3 attester (Option.get (Net.recv_frame conn)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "honest handshake failed: %a" P.pp_error e);
  Alcotest.(check int) "one completion" 1 (assoc "sessions_completed");
  (* The late duplicate: byte-identical msg0 on the live connection. *)
  Net.send_frame conn m0;
  Watz.Verifier_app.step server;
  Alcotest.(check (option string)) "no msg1 resurrection" None (Net.recv_frame conn);
  Alcotest.(check int) "stray counted" 1 (assoc "stray_after_complete");
  Alcotest.(check int) "nothing aborted" 0 (assoc "sessions_aborted");
  Alcotest.(check int) "still one completion" 1 (assoc "sessions_completed")

(* 7 & 8. Transport-level adversaries across a whole storm: truncated
   frames and a MITM flipping one byte per message. Zero sessions may
   complete, on either side; every abort must be a typed error. *)
let storm_must_complete_nothing name profile seed =
  let config = { Storm.default_config with Storm.sessions = 16; seed; profile } in
  let r = Storm.run ~config () in
  Alcotest.(check int) (name ^ ": attester completions") 0 r.Storm.completed;
  Alcotest.(check int) (name ^ ": verifier completions") 0
    (Option.value ~default:0 (List.assoc_opt "sessions_completed" r.Storm.server));
  Alcotest.(check bool) (name ^ ": every abort typed") true
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Storm.aborts = 16)

let test_truncated_frames =
  Test_seed.replayable "truncated frames" (fun seed ->
      (* Every segment is truncated-and-killed: no handshake can get
         past msg0, and both sides must fail typed, not hang. *)
      storm_must_complete_nothing "truncate"
        { Net.perfect with Net.truncate_close_p = 1.0 }
        seed)

let test_mitm_flip =
  Test_seed.replayable "mitm flip" (fun seed ->
      match Storm.profile_named "mitm-flip" with
      | None -> Alcotest.fail "mitm-flip profile missing"
      | Some profile -> storm_must_complete_nothing "mitm" profile seed)

let suite =
  [
    ( "attack",
      [
        case "replayed msg2 vs fresh session" test_replay_msg2_fresh_session;
        case "msg1 with G_v/V swapped" test_swapped_gv_v_in_msg1;
        case "evidence from an unendorsed device" test_evidence_from_other_device;
        case "tampered claim, original signature" test_tampered_claim;
        case "stale-version downgrade" test_version_downgrade;
        case "msg0 replay after completion: protocol stays terminal"
          test_completed_session_resurrection;
        case "msg0 replay after completion: server counts it stray"
          (test_server_ignores_stray_msg0 plain_server);
        case "msg0 replay after completion: resumption-capable server counts it stray"
          (test_server_ignores_stray_msg0 resumption_server);
        case "truncated frames: no session completes" test_truncated_frames;
        case "mitm byte flips: no session completes" test_mitm_flip;
      ] );
  ]
