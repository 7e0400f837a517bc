(** The attester's protocol driver over the (possibly faulty) simulated
    network: a non-blocking state machine with per-state deadlines and
    bounded exponential-backoff retransmission.

    The protocol endpoints in {!Watz_attest.Protocol} are pure; this
    driver supplies everything a lossy transport demands of them:

    - every outbound message is remembered and retransmitted when its
      deadline (on the simulated clock) expires, with the timeout
      growing by [retry.backoff] each attempt, up to
      [retry.max_retries] attempts before the session aborts with
      {!Watz_attest.Protocol.Timed_out};
    - inbound retransmissions (a duplicated or delayed msg1 arriving
      while we await msg3) are recognized through the protocol's
      idempotent handlers and answered by resending msg2 instead of
      corrupting session state;
    - transport failures ({!Watz_tz.Net.Peer_closed}, stream ends,
      frame violations) surface as typed {!Watz_attest.Protocol.error}
      values — never as escaping exceptions.

    The driver has two layers. A {!link} is the retransmitting
    connection: it owns the outstanding frame, its deadline, backoff
    and retry budget, drains complete frames and types every transport
    failure, and hands both to its owner. A {!t} is the msg0–msg3 leg
    over a link. {!start} runs one leg as a whole session that aborts
    on any failure; the attested mesh ([Watz_mesh.Mesh_attester]) owns
    the link itself, may open it with a resumption frame, runs legs on
    it and re-attests when the verifier hangs up. *)

module P = Watz_attest.Protocol
module T = Watz_obs.Trace
module Net = Watz_tz.Net
module Soc = Watz_tz.Soc

type retry = {
  initial_timeout_ns : int64; (* first deadline after a send *)
  backoff : float; (* timeout multiplier per retransmission *)
  max_retries : int; (* retransmissions, not counting the first send *)
}

(* Tuned to the storm scheduler's 1 ms quantum: the first deadline
   covers a max-delay segment both ways, and the total budget
   (~1.2 s of simulated time) stays under the verifier's 2 s session
   eviction. *)
let default_retry = { initial_timeout_ns = 4_000_000L; backoff = 1.6; max_retries = 10 }

(* ------------------------------------------------------------------ *)
(* The retransmitting connection *)

type link = {
  soc : Soc.t;
  port : int;
  sid : int; (* trace correlation id *)
  retry : retry;
  mutable conn : Net.conn;
  mutable live : bool; (* false once the session ended: draining stops *)
  mutable on_frame : string -> unit; (* the owner's reading of each complete frame *)
  mutable on_failure : P.error -> unit;
      (* ... and of a transport failure: [Connection_lost], [Malformed]
         (a frame violation) or [Timed_out] (retry budget spent) *)
  mutable outstanding : string; (* last frame sent; retransmitted on deadline *)
  mutable awaiting : string; (* the [Timed_out] reason while [outstanding] waits *)
  mutable timeout_ns : int64; (* current (backed-off) timeout *)
  mutable deadline_ns : int64;
  mutable retries_left : int;
  mutable retries : int; (* retransmissions performed, for reporting *)
}

let now link = Soc.now_ns link.soc
let tracer link = Soc.tracer link.soc

(** Open a connection to the verifier's port and the ["attest.session"]
    span [sid] labels. Nothing is sent: the owner installs
    [on_frame]/[on_failure] before its first {!transmit}. *)
let connect ?(retry = default_retry) ?(sid = T.no_session) soc ~port =
  T.begin_ (Soc.tracer soc) T.Normal ~session:sid "attest.session";
  {
    soc;
    port;
    sid;
    retry;
    conn = Net.connect soc.Soc.net ~port;
    live = true;
    on_frame = ignore;
    on_failure = ignore;
    outstanding = "";
    awaiting = "";
    timeout_ns = retry.initial_timeout_ns;
    deadline_ns = 0L;
    retries_left = retry.max_retries;
    retries = 0;
  }

let arm link = link.deadline_ns <- Int64.add (now link) link.timeout_ns

(* Send a frame, turning a dead link into the owner's typed failure.
   Returns [false] when the peer had closed. *)
let send link frame =
  match Net.send_frame link.conn frame with
  | () -> true
  | exception Net.Peer_closed ->
    link.on_failure (P.Connection_lost "attester: peer closed");
    false

(** Send the first frame of a new protocol state: it becomes the
    outstanding frame, retransmitted under a fresh backoff until the
    owner transmits the next; [awaiting] names the reply for the
    timeout reason. [false] when the peer had closed (the owner's
    [on_failure] has run). *)
let transmit link frame ~awaiting =
  link.outstanding <- frame;
  link.awaiting <- awaiting;
  link.timeout_ns <- link.retry.initial_timeout_ns;
  link.retries_left <- link.retry.max_retries;
  arm link;
  send link frame

(** Resend the outstanding frame, on its deadline or to answer a
    duplicated request. The deadline restarts (firing the timer on the
    old one would retransmit twice in a row) but the backed-off timeout
    stays: only a new protocol state resets the backoff, via
    {!transmit}. *)
let resend link = if send link link.outstanding then arm link

(** Drop the connection and dial the verifier again, inside the same
    session: the retransmission count carries over. *)
let reconnect link =
  Net.close link.conn;
  link.conn <- Net.connect link.soc.Soc.net ~port:link.port

(** End the session: an ["attest.abort"] instant when it failed, the
    end of its ["attest.session"] span, and the hang-up. *)
let close link ~aborted =
  let trace = tracer link in
  if aborted then T.instant trace T.Normal ~session:link.sid "attest.abort";
  T.end_ trace T.Normal ~session:link.sid "attest.session";
  link.live <- false;
  Net.close link.conn

let on_deadline link =
  if link.retries_left <= 0 then link.on_failure (P.Timed_out link.awaiting)
  else begin
    T.instant (tracer link) T.Normal ~session:link.sid "attest.retransmit";
    link.retries_left <- link.retries_left - 1;
    link.retries <- link.retries + 1;
    link.timeout_ns <- Int64.of_float (Int64.to_float link.timeout_ns *. link.retry.backoff);
    resend link
  end

(** One scheduling quantum of a link: hand every complete frame to the
    owner, then check the retransmission deadline. A closed link is
    absorbing. *)
let rec drain link =
  if link.live then
    match Net.recv_frame_ex link.conn with
    | Net.Frame frame ->
      link.on_frame frame;
      drain link
    | Net.Awaiting -> if Int64.compare (now link) link.deadline_ns >= 0 then on_deadline link
    | Net.Closed_by_peer ->
      link.on_failure (P.Connection_lost "attester: stream ended mid-protocol")
    | Net.Frame_violation e ->
      link.on_failure (P.Malformed (Format.asprintf "frame: %a" Net.pp_frame_error e))

(* ------------------------------------------------------------------ *)
(* The msg0–msg3 leg *)

type phase = Await_msg1 | Await_msg3 | Finished
type outcome = Pending | Done of string | Aborted of P.error

type t = {
  link : link;
  proto : P.Attester.t;
  issue : anchor:string -> string; (* encoded evidence for the anchor *)
  mutable phase : phase;
  mutable outcome : outcome; (* of the session {!start} runs *)
  started_ns : int64;
  mutable msg2_sent_ns : int64; (* phase boundary; 0 until msg2 went out *)
  mutable finished_ns : int64;
}

(** A msg0–msg3 leg on [link], opened by {!send_msg0}. The attester's
    protocol state (ephemeral key generation included) is created in
    the secure world; [issue] must return encoded evidence for the
    session anchor (normally by asking the attestation service). *)
let leg link ~random ~expected_verifier ~issue =
  let proto =
    Soc.smc link.soc (fun () ->
        P.Attester.create ~trace:(tracer link) ~sid:link.sid ~random ~expected_verifier ())
  in
  {
    link;
    proto;
    issue;
    phase = Await_msg1;
    outcome = Pending;
    started_ns = now link;
    msg2_sent_ns = 0L;
    finished_ns = 0L;
  }

let send_msg0 t =
  ignore (transmit t.link (P.Attester.msg0 t.proto) ~awaiting:"attester: awaiting msg1" : bool)

(** Feed one frame to the leg: [Pending] while it runs, [Done blob]
    once msg3 is accepted, [Aborted e] on a protocol error. A send that
    finds the peer gone is reported through the link's [on_failure]
    and leaves the leg [Pending]. *)
let leg_frame t frame =
  let soc = t.link.soc in
  match t.phase with
  | Finished -> Pending
  | Await_msg1 -> (
    match Soc.smc soc (fun () -> P.Attester.handle_msg1 t.proto frame) with
    | Error e -> Aborted e
    | Ok anchor -> (
      let evidence = t.issue ~anchor in
      match Soc.smc soc (fun () -> P.Attester.msg2 t.proto ~evidence) with
      | Error e -> Aborted e
      | Ok m2 ->
        if transmit t.link m2 ~awaiting:"attester: awaiting msg3" then begin
          t.phase <- Await_msg3;
          t.msg2_sent_ns <- now t.link
        end;
        Pending))
  | Await_msg3 -> (
    (* A duplicated/delayed msg1 can land while we await msg3: the
       idempotent handler recognizes the byte-identical retransmit (and
       rejects anything else without touching state), and we answer it
       by resending msg2 rather than mis-parsing it as msg3. *)
    match Soc.smc soc (fun () -> P.Attester.handle_msg1 t.proto frame) with
    | Ok _anchor ->
      resend t.link;
      Pending
    | Error _ -> (
      match Soc.smc soc (fun () -> P.Attester.handle_msg3 t.proto frame) with
      | Ok blob -> Done blob
      | Error e -> Aborted e))

(* ------------------------------------------------------------------ *)
(* The session: one leg, aborted on any failure *)

(* The session and phase spans tile [started_ns, finished_ns]:
   "attest.phase.handshake" runs from msg0 until msg2 is on the wire
   (key exchange, evidence collection, msg2 build), then
   "attest.phase.appraisal" until the session terminates (verifier
   appraisal latency + msg3 handling). The driver runs in the normal
   world, so its spans carry that tag; the protocol work inside smc
   shows up as secure-world spans within. *)
let finish t outcome =
  let trace = tracer t.link in
  (match t.phase with
  | Await_msg1 -> T.end_ trace T.Normal ~session:t.link.sid "attest.phase.handshake"
  | Await_msg3 -> T.end_ trace T.Normal ~session:t.link.sid "attest.phase.appraisal"
  | Finished -> ());
  close t.link ~aborted:(match outcome with Aborted _ -> true | Done _ | Pending -> false);
  t.outcome <- outcome;
  t.phase <- Finished;
  t.finished_ns <- now t.link

let abort t err = finish t (Aborted err)

let on_frame t frame =
  let phase = t.phase in
  match leg_frame t frame with
  | Pending when phase = Await_msg1 && t.phase = Await_msg3 ->
    let trace = tracer t.link in
    T.end_ trace T.Normal ~session:t.link.sid "attest.phase.handshake";
    T.begin_ trace T.Normal ~session:t.link.sid "attest.phase.appraisal"
  | Pending -> ()
  | outcome -> finish t outcome

(** Open a connection to the verifier's port and send msg0: one
    attestation session, which ends with the blob msg3 carries or
    aborts on the first failure. [sid] labels every trace event of the
    session. *)
let start ?retry ?sid soc ~port ~random ~expected_verifier ~issue =
  let link = connect ?retry ?sid soc ~port in
  T.begin_ (tracer link) T.Normal ~session:link.sid "attest.phase.handshake";
  let t = leg link ~random ~expected_verifier ~issue in
  link.on_frame <- on_frame t;
  link.on_failure <- abort t;
  send_msg0 t;
  t

(** One scheduling quantum: consume every complete frame, then check
    the retransmission deadline. Terminal states are absorbing. *)
let step t = drain t.link

let outcome t = t.outcome
let sid t = t.link.sid
let retries t = t.link.retries
let started_ns t = t.started_ns
let finished_ns t = t.finished_ns

(** Phase boundary timestamps for per-phase latency accounting: on a
    completed session, handshake = msg0 → msg2 on the wire, appraisal =
    msg2 → blob received; the two tile the session latency exactly. *)
let msg2_sent_ns t = t.msg2_sent_ns
