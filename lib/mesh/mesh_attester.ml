(** The mesh attester: one session of the attested service mesh, as a
    layer over {!Watz.Attester_app}. The driver's link carries the
    session (retransmission, deadlines, backoff, transport-failure
    typing) and its msg0–msg3 leg runs the full handshake; this layer
    adds what only the mesh knows.

    A session holding a ticket opens the link with the 1-RTT resume
    exchange; on any reject — or on losing the connection while
    resuming — it falls back to a full handshake leg on a fresh
    connection, still inside the same logical session (the fallback's
    extra round trip stays in this session's latency). A full handshake
    harvests the ticket sealed into msg3 and the resumption secret from
    the protocol state, stashing both in the {!Identity} for the next
    session. Once established (either path), the session streams its
    hierarchical sub-claims and waits for each ack before the next.
    Where the classic driver aborts on a closed connection, this one
    re-attests from scratch, up to {!full_restart_budget} times. *)

module P = Watz_attest.Protocol
module T = Watz_obs.Trace
module Soc = Watz_tz.Soc
module A = Watz.Attester_app

type stage =
  | Resuming of string (* resume0 outstanding, under this nonce *)
  | Full of A.t (* a msg0–msg3 leg running *)
  | Sub_await (* sub-claim outstanding *)
  | Term

type path = Resumed | Full_handshake

type done_info = {
  path : path;
  blob : string;
  fell_back : bool; (* a resume attempt preceded the full handshake *)
  subclaims_acked : int;
}

type outcome = Pending | Done of done_info | Aborted of P.error

type t = {
  link : A.link;
  identity : Identity.t;
  expected_verifier : Watz_crypto.P256.point;
  random : int -> string;
  mutable subclaims : (string * string) list; (* (name, measurement) left to attest *)
  mutable stage : stage;
  mutable outcome : outcome;
  mutable full_restarts_left : int;
  mutable report : done_info; (* what [Done] reports, filled in as the session goes *)
  mutable k_sub : string;
  started_ns : int64;
  mutable established_ns : int64; (* handshake (either path) done; 0 until then *)
}

let soc t = t.link.A.soc
let trace_instant t name = T.instant (Soc.tracer (soc t)) T.Normal ~session:t.link.A.sid name

let finish t outcome =
  A.close t.link ~aborted:(match outcome with Aborted _ -> true | Done _ | Pending -> false);
  t.outcome <- outcome;
  t.stage <- Term

let abort t err = finish t (Aborted err)

(* How often a session will re-run the whole handshake from scratch
   after the verifier hangs up on it mid-protocol. Churn makes this
   legitimate: a module update or key rotation can invalidate evidence
   that was in flight when the event fired, and the correct client
   behaviour is to re-attest with fresh state, not to give up. *)
let full_restart_budget = 3

(* Start a full handshake leg on the current connection (first
   contact, fallback after a rejected resume, or a restart). Evidence
   is signed by the identity's key in the secure world. *)
let start_full t =
  let soc = soc t and identity = t.identity in
  let leg =
    A.leg t.link ~random:t.random ~expected_verifier:t.expected_verifier ~issue:(fun ~anchor ->
        Soc.smc soc (fun () -> Identity.issue_evidence identity ~anchor))
  in
  t.stage <- Full leg;
  A.send_msg0 leg

(* A rejected (or transport-dead) resume: drop the stale ticket and
   fall back on a fresh connection. *)
let fall_back t =
  t.report <- { t.report with fell_back = true };
  t.identity.Identity.ticket <- None;
  t.identity.Identity.rms <- None;
  trace_instant t "attest.fallback";
  A.reconnect t.link;
  start_full t

(* The link's transport failures. While resuming, a closed connection
   or a frame violation is just the fallback signal (rejects are
   advisory and may themselves be lost); elsewhere, a closed
   connection re-attests from scratch on a fresh one while the budget
   lasts. Everything else ends the session. *)
let on_failure t err =
  match (t.stage, err) with
  | Term, _ -> ()
  | Resuming _, (P.Connection_lost _ | P.Malformed _) -> fall_back t
  | (Full _ | Sub_await), P.Connection_lost _ when t.full_restarts_left > 0 ->
    t.full_restarts_left <- t.full_restarts_left - 1;
    trace_instant t "attest.restart";
    A.reconnect t.link;
    start_full t
  | _ -> abort t err

(* Establishment reached on either path: stream sub-claims, then finish. *)
let next_subclaim t =
  match t.subclaims with
  | [] -> finish t (Done t.report)
  | (name, measurement) :: _ ->
    let frame = Soc.smc (soc t) (fun () -> Hier.make ~k_sub:t.k_sub ~name ~measurement) in
    t.stage <- Sub_await;
    ignore (A.transmit t.link frame ~awaiting:"attester: awaiting sub-claim ack" : bool)

let established t ~path ~rms ~blob =
  t.established_ns <- A.now t.link;
  t.report <- { t.report with path; blob };
  t.k_sub <- Hier.derive_key ~rms;
  next_subclaim t

let handle_frame t frame =
  match t.stage with
  | Term -> ()
  | Resuming nonce_a -> (
    let opened =
      if not (Resume.is_accept frame) then None
      else
        Soc.smc (soc t) (fun () ->
            match t.identity.Identity.rms with
            | Some rms -> Option.map (fun b -> (rms, b)) (Resume.open_accept ~rms ~nonce_a frame)
            | None -> None)
    in
    match opened with
    | Some (rms, blob) ->
      trace_instant t "attest.resumed";
      established t ~path:Resumed ~rms ~blob
    | None ->
      (* A reject, an accept that fails to authenticate (e.g. corrupted
         in flight) or unparseable traffic: the resume path is dead, and
         the full handshake is the safe state. *)
      fall_back t)
  | Full leg -> (
    match A.leg_frame leg frame with
    | A.Pending -> ()
    | A.Aborted e -> abort t e
    | A.Done blob_with_trailer ->
      let blob, ticket = Resume.split_blob blob_with_trailer in
      (* Session keys exist on a completed handshake. *)
      let rms = Option.get (P.Attester.resumption_secret leg.A.proto) in
      t.identity.Identity.ticket <- ticket;
      t.identity.Identity.rms <- Some rms;
      established t ~path:Full_handshake ~rms ~blob)
  | Sub_await ->
    if Hier.check_ack ~k_sub:t.k_sub ~subclaim:t.link.A.outstanding frame then begin
      t.report <- { t.report with subclaims_acked = t.report.subclaims_acked + 1 };
      t.subclaims <- List.tl t.subclaims;
      next_subclaim t
    end
    (* Anything else is late/duplicated traffic (the accept or msg3
       resent, an earlier ack duplicated): ignore, keep waiting. *)

(** Launch one session. With a ticket in the identity the session
    opens with resume0; otherwise it goes straight to msg0.
    [subclaims] are attested in order once the session establishes. *)
let start ?retry ?sid ?(subclaims = []) soc ~port ~random ~identity ~expected_verifier () =
  let link = A.connect ?retry ?sid soc ~port in
  let t =
    {
      link;
      identity;
      expected_verifier;
      random;
      subclaims;
      stage = Term;
      outcome = Pending;
      full_restarts_left = full_restart_budget;
      report = { path = Full_handshake; blob = ""; fell_back = false; subclaims_acked = 0 };
      k_sub = "";
      started_ns = Soc.now_ns soc;
      established_ns = 0L;
    }
  in
  link.A.on_frame <- handle_frame t;
  link.A.on_failure <- on_failure t;
  (match (identity.Identity.ticket, identity.Identity.rms) with
  | Some ticket, Some rms ->
    let nonce_a = random Resume.nonce_len in
    let frame =
      Soc.smc soc (fun () ->
          Resume.build_resume0 ~rms ~attester_id:(Identity.attester_id identity) ~nonce_a ~ticket)
    in
    t.stage <- Resuming nonce_a;
    ignore (A.transmit link frame ~awaiting:"attester: awaiting resume reply" : bool)
  | _ -> start_full t);
  t

(** One scheduling quantum: consume every complete frame, then check
    the retransmission deadline. Terminal states are absorbing. *)
let step t = A.drain t.link

let outcome t = t.outcome
let retries t = t.link.A.retries
let started_ns t = t.started_ns
let established_ns t = t.established_ns
