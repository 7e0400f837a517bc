(** The mesh verifier: {!Watz.Verifier_app} started with the mesh's
    resumption capability, fronting the full msg0–msg3 protocol {e and}
    the mesh's three fast paths on the same port:

    - a full handshake mints a resumption ticket (delivered inside
      msg3 via the protocol's [augment] hook) and records the
      appraisal in the evidence {!Cache};
    - a ["WZR0"] first frame takes the 1-RTT resume path: redeem the
      ticket, check the binding MAC and the cache, answer with the
      secret blob under a fresh per-resumption key — or reject with a
      typed reason and close, pushing the attester back to a full
      handshake;
    - ["WZSC"] frames on an established connection (full or resumed)
      are hierarchical sub-claims, appraised against the sub-module
      reference list without any re-handshake.

    This module holds only what the mesh knows: the ticket master, the
    evidence cache, the verdicts over those formats, and the lifecycle
    operations (endorsement, module update, STEK rotation, restart).
    Connections, replies, retransmits, aborts and the metrics registry
    belong to the shared server. Inline appraisal: the server runs with
    [~batch_verify:false]. *)

module P = Watz_attest.Protocol
module Evidence = Watz_attest.Evidence
module Verifier_app = Watz.Verifier_app

type t = {
  server : Verifier_app.t;
  master : Ticket.master ref; (* replaced by [restart] *)
  cache : Cache.t;
  stek_seed : string;
  mutable restarts : int;
}

(* The resume0 verdict: redeem the ticket, match the sealed identity,
   check the binding MAC, the cache and the reference claims, then
   answer the secret blob under a fresh per-resumption key. *)
let resume ~master ~cache ~policy ~random ~now_ns frame =
  let verdict =
    match Resume.parse_resume0 frame with
    | None -> Error Resume.Rj_malformed
    | Some r -> (
      match Ticket.redeem !master ~now_ns r.Resume.r_ticket with
      | Error tr -> Error (Resume.reason_of_ticket_reject tr)
      | Ok body ->
        if not (String.equal body.Ticket.attester_id r.Resume.r_attester_id) then
          Error Resume.Rj_id_mismatch
        else if not (Resume.check_binding ~rms:body.Ticket.rms r) then Error Resume.Rj_bad_binding
        else if
          not
            (Cache.lookup cache ~now_ns ~attester_id:body.Ticket.attester_id
               ~claim:body.Ticket.claim ~boot:body.Ticket.boot)
        then Error Resume.Rj_cache_stale
        else if
          not (List.exists (String.equal body.Ticket.claim) policy.P.Verifier.reference_claims)
        then Error Resume.Rj_policy
        else Ok (body.Ticket.rms, r.Resume.r_nonce_a))
  in
  match verdict with
  | Error reason -> Error (Resume.reason_to_string reason, Resume.build_reject reason)
  | Ok (rms, nonce_a) ->
    let nonce_v = random Resume.nonce_len in
    let iv = random Resume.iv_len in
    Ok
      ( Hier.derive_key ~rms,
        Resume.build_accept ~rms ~nonce_a ~nonce_v ~iv policy.P.Verifier.secret_blob )

(* On a full handshake's acceptance: record the appraisal in the
   evidence cache and seal a ticket for the session's resumption
   secret into msg3. *)
let mint ~master ~cache ~ticket_ttl_ns ~random ~now_ns ~rms (evidence : Evidence.signed) =
  let body = evidence.Evidence.body in
  let attester_id = Identity.attester_id_of_pub body.Evidence.attestation_pubkey in
  let claim = body.Evidence.claim in
  let boot =
    match Identity.boot_digest_of_version body.Evidence.version with
    | Some b -> b
    | None -> Watz_crypto.Sha256.digest "WZ-MESH-NO-TCB"
  in
  Cache.store cache ~now_ns ~attester_id ~claim ~boot;
  let ticket =
    Ticket.mint !master ~random ~now_ns ~ttl_ns:ticket_ttl_ns ~attester_id ~claim ~boot ~rms
  in
  (Resume.seal_trailer ticket, Hier.derive_key ~rms)

let check_subclaim ~sub_refs ~k_sub frame =
  match Hier.verify ~k_sub frame with
  | Error _ -> Error (P.Bad_mac "sub-claim")
  | Ok v when List.exists (String.equal v.Hier.measurement) sub_refs -> Ok ()
  | Ok _ -> Error P.Unknown_measurement

(** Start listening. [stek_seed] derives the ticket master — shards of
    a federated fleet pass the same seed so tickets are portable
    across them. [sub_refs] is the reference list for hierarchical
    sub-claims. *)
let start ?(ticket_ttl_ns = 10_000_000_000L) ?(cache_ttl_ns = 10_000_000_000L) ?(sub_refs = [])
    ~stek_seed soc ~port ~policy () =
  let master = ref (Ticket.make ~seed:stek_seed) in
  let cache = Cache.create ~ttl_ns:cache_ttl_ns () in
  let resumption =
    {
      Verifier_app.is_resume0 = Resume.is_resume0;
      is_subclaim = Hier.is_subclaim;
      resume = resume ~master ~cache;
      mint = mint ~master ~cache ~ticket_ttl_ns;
      check_subclaim = check_subclaim ~sub_refs;
      ack_subclaim = Hier.ack;
    }
  in
  let server = Verifier_app.start ~batch_verify:false ~resumption soc ~port ~policy in
  { server; master; cache; stek_seed; restarts = 0 }

let step t = Verifier_app.step t.server
let counters t = Verifier_app.counters t.server
let metrics t = Verifier_app.metrics t.server
let cache t = t.cache
let ticket_master t = !(t.master)

(** Endorse an additional attestation key (an attester rotated). *)
let endorse t pub =
  Watz_crypto.P256.prepare pub;
  let s = t.server in
  let policy = s.Verifier_app.policy in
  s.Verifier_app.policy <-
    { policy with P.Verifier.endorsed_keys = pub :: policy.P.Verifier.endorsed_keys }

(** Replace the acceptable runtime measurements (module update). *)
let set_reference_claims t claims =
  let s = t.server in
  s.Verifier_app.policy <- { s.Verifier_app.policy with P.Verifier.reference_claims = claims }

(** Rotate the session-ticket key: outstanding tickets reject as
    [rotated] from now on. *)
let rotate_tickets t =
  Watz_obs.Metrics.incr (metrics t) "stek_rotations";
  Ticket.rotate !(t.master)

(** Simulate a verifier restart: every live connection dies, the
    evidence cache is wiped, and a fresh ticket master is derived —
    outstanding tickets become [unknown_key]. *)
let restart t =
  t.restarts <- t.restarts + 1;
  Watz_obs.Metrics.incr (metrics t) "restarts";
  Verifier_app.close_all t.server;
  Cache.clear t.cache;
  t.master := Ticket.make ~seed:(Printf.sprintf "%s:restart%d" t.stek_seed t.restarts)

(** Copy the cache counters into the metrics registry (called by the
    storm before reporting, so one registry carries everything). *)
let snapshot_cache_metrics t =
  let set name v =
    Watz_obs.Metrics.Gauge.set (Watz_obs.Metrics.gauge (metrics t) ("cache." ^ name)) v
  in
  set "size" (Cache.size t.cache);
  set "hits" (Cache.hits t.cache);
  set "misses" (Cache.misses t.cache);
  set "stores" (Cache.stores t.cache);
  set "invalidated" (Cache.invalidated t.cache);
  set "expired" (Cache.expired t.cache);
  set "merged" (Cache.merged t.cache);
  set "tickets_minted" (Ticket.minted !(t.master))
