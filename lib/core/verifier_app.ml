(** The verifier server (§V "The server"): a normal-world listener in
    front of a verifier trusted application.

    The GP socket API cannot listen for incoming connections, so the
    paper splits the verifier across worlds: the listener accepts TCP
    connections and relays each message into the TEE, where the
    protocol logic runs; replies travel back out through shared
    buffers. Here, [step] plays the listener's event loop: it accepts
    pending connections and relays complete frames inward, charging a
    world round trip per message exactly as the paper observes
    ("the server of the verifier invokes functions inside the TEE once
    received by the TCP server").

    The server is multi-session: every accepted connection gets its own
    per-connection protocol state in a session table. Sessions survive
    retransmitted messages (answered idempotently from the protocol
    caches), are aborted on the first typed protocol error, and are
    evicted once stalled longer than [session_timeout_ns] on the
    simulated clock. A metrics registry records everything the storm bench
    reports: sessions started / completed / aborted / evicted,
    retransmits answered, and transport faults observed.

    Started with a {!resumption} capability, the same listener is the
    attested mesh's verifier: a connection may then open with a
    resumption frame instead of msg0 (the 1-RTT resume), and an
    established connection — full or resumed — carries sub-claims. The
    capability only judges frames (tickets, evidence cache, sub-claim
    MACs); the connection state machine stays this one. *)

module P = Watz_attest.Protocol
module T = Watz_obs.Trace
module Metrics = Watz_obs.Metrics

(** What a resumption-capable verifier adds to the msg0–msg3 handshake,
    as verdicts over frames. The ticket, cache and sub-claim formats
    stay behind these functions; [k_sub] is the established
    connection's opaque sub-claim key. Each verdict runs inside one
    world round trip. *)
type resumption = {
  is_resume0 : string -> bool; (* a connection-opening resumption frame *)
  is_subclaim : string -> bool;
  resume :
    policy:P.Verifier.policy ->
    random:(int -> string) ->
    now_ns:int64 ->
    string ->
    (string * string, string * string) result;
      (* [Ok (k_sub, accept)] or [Error (reason, reject)]: the reject
         reason names the [resume_rejected.*] counter *)
  mint :
    random:(int -> string) ->
    now_ns:int64 ->
    rms:string ->
    Watz_attest.Evidence.signed ->
    string * string;
      (* on a full handshake's acceptance: record the appraisal and
         return (msg3 trailer, k_sub) *)
  check_subclaim : k_sub:string -> string -> (unit, P.error) result;
  ack_subclaim : k_sub:string -> string -> string;
}

(* An established connection of a resumption-capable server: what
   sub-claims and resumption retransmits need. *)
type estab = {
  k_sub : string;
  mutable resume_reply : (string * string) option; (* resume0 -> its accept *)
  sub_acks : (string, string) Hashtbl.t; (* sub-claim -> its ack *)
}

type conn_state = {
  id : int;
  conn : Watz_tz.Net.conn;
  mutable vsession : P.Verifier.session option; (* full-handshake path *)
  mutable estab : estab option; (* set once established with a resumption capability *)
  mutable completed : bool;
  mutable last_activity_ns : int64;
}

type t = {
  soc : Watz_tz.Soc.t;
  port : int;
  mutable policy : P.Verifier.policy;
  rng : Watz_util.Prng.t;
  sessions : (int, conn_state) Hashtbl.t;
  mutable next_id : int;
  batch_verify : bool; (* settle msg2 evidence signatures in batches *)
  resumption : resumption option;
  metrics : Metrics.t; (* server-side counters, dumped by the storm report *)
  mutable served : int; (* completed attestations *)
  mutable rejected : int;
  mutable last_err : P.error option;
}

(* One deferred msg2 appraisal: everything [step] needs to settle the
   evidence-signature check later and then finish the appraisal with
   the precomputed verdict. *)
type pending = {
  p_state : conn_state;
  p_vsession : P.Verifier.session;
  p_frame : string;
  p_key : Watz_crypto.P256.point;
  p_msg : string;
  p_sig : string;
}

(* Simulated-clock inactivity after which a session is evicted. *)
let session_timeout_ns = 2_000_000_000L

(** Start listening. [soc] is the device hosting the verifier (the
    paper co-locates attester and verifier on one board). Stalled
    sessions are evicted after 2 s of simulated-clock inactivity.
    [resumption] adds the mesh's resume and sub-claim paths.

    With [batch_verify] (the default), each [step] collects the pending
    msg2 evidence-signature checks across every session in the pass and
    settles them through {!Watz_crypto.Ecdsa.verify_batch}, amortising
    the endorsed keys' point precomputation and the scalar/field
    inversions across sessions. The batch settle is simulated-time
    neutral: world transitions and spans per appraisal are unchanged,
    only wall-clock work shrinks. *)
let start ?(batch_verify = true) ?resumption soc ~port ~policy =
  ignore (Watz_tz.Net.listen soc.Watz_tz.Soc.net ~port);
  (* Pay the one-time crypto table costs (fixed-base comb, endorsed-key
     windows and combs, identity encoding) at startup, not inside the
     first session's latency. *)
  Watz_crypto.P256.prewarm ();
  List.iter Watz_crypto.P256.prepare policy.P.Verifier.endorsed_keys;
  if batch_verify then List.iter Watz_crypto.P256.prepare_comb policy.P.Verifier.endorsed_keys;
  ignore (Watz_crypto.P256.encode policy.P.Verifier.identity_pub);
  {
    soc;
    port;
    policy;
    rng = Watz_util.Prng.create 0x5eed0fae1L;
    sessions = Hashtbl.create 32;
    next_id = 0;
    batch_verify;
    resumption;
    metrics = Metrics.create ();
    served = 0;
    rejected = 0;
    last_err = None;
  }

let random t n = Watz_util.Prng.bytes t.rng n

(** Counter values, sorted by name (the storm report's "server" rows). *)
let counters t = Metrics.counter_list t.metrics

(** Histogram snapshots, sorted by name (e.g. the batch-verify size
    distribution [verify_batch_size]). *)
let histograms t = Metrics.histograms t.metrics

(** The server's metrics registry, for exporters that want more than
    the counter list. *)
let metrics t = t.metrics

(* Count [counter] and mark [instant] on the session's trace. *)
let event t state counter instant =
  Metrics.incr t.metrics counter;
  T.instant (Watz_tz.Soc.tracer t.soc) T.Normal ~session:state.id instant

let abort t state err =
  t.rejected <- t.rejected + 1;
  t.last_err <- Some err;
  event t state "sessions_aborted" "verifier.abort";
  Watz_tz.Net.close state.conn;
  Hashtbl.remove t.sessions state.id

let drop_session t state reason =
  Metrics.incr t.metrics reason;
  Watz_tz.Net.close state.conn;
  Hashtbl.remove t.sessions state.id

(** Drop every live connection (a verifier restart); each counts as
    [sessions_closed]. *)
let close_all t =
  let live = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
  List.iter (fun s -> drop_session t s "sessions_closed") live

(* Reply to the attester; a dead link while answering aborts the
   session instead of escaping the event loop. *)
let reply t state frame =
  match Watz_tz.Net.send_frame state.conn frame with
  | () -> true
  | exception Watz_tz.Net.Peer_closed ->
    if state.completed then drop_session t state "sessions_closed"
    else abort t state (P.Connection_lost "verifier: peer vanished mid-reply");
    false

(* A byte-exact retransmit: answer again from the reply cache. *)
let answer_retransmit t state frame =
  event t state "retransmits_answered" "verifier.retransmit_answered";
  ignore (reply t state frame)

(* Anything else against a terminal session is stray traffic: never
   aborts (the completed appraisal stands), never answers. *)
let stray t state = event t state "stray_after_complete" "verifier.stray_after_complete"

let establish k_sub = { k_sub; resume_reply = None; sub_acks = Hashtbl.create 4 }

(* The msg3 [augment] hook of a resumption-capable server: on first
   acceptance, record the appraisal and seal a ticket into msg3. *)
let augment t state vsession =
  match t.resumption with
  | None -> None
  | Some r ->
    Some
      (fun evidence ->
        let trailer, k_sub =
          r.mint ~random:(random t) ~now_ns:(Watz_tz.Soc.now_ns t.soc)
            ~rms:(P.Verifier.resumption_secret vsession) evidence
        in
        Metrics.incr t.metrics "tickets_minted";
        state.estab <- Some (establish k_sub);
        trailer)

(* Shared tail of a msg2 appraisal (inline or batch-settled):
   [already] is whether the session had completed before this frame was
   handled — an [Ok] then answers a retransmit, an [Error] is stray
   traffic against a terminal session. *)
let apply_msg2_result t state ~already = function
  | Ok m3 when already -> answer_retransmit t state m3
  | Ok m3 ->
    state.completed <- true;
    t.served <- t.served + 1;
    event t state "sessions_completed" "verifier.accept";
    ignore (reply t state m3)
  | Error _ when already -> stray t state
  | Error e -> abort t state e

let handle_handshake t state frame =
  match state.vsession with
  | None -> (
    (* First message on this connection: msg0, handled in the TEE. *)
    match
      Watz_tz.Soc.smc t.soc (fun () ->
          P.Verifier.handle_msg0
            ~trace:(Watz_tz.Soc.tracer t.soc)
            ~sid:state.id t.policy ~random:(random t) frame)
    with
    | Ok (vsession, m1) ->
      state.vsession <- Some vsession;
      ignore (reply t state m1)
    | Error e -> abort t state e)
  | Some vsession ->
    if P.Verifier.is_msg0_retransmit vsession frame then begin
      match P.Verifier.msg1_reply vsession with
      | Some m1 ->
        (* The attester never saw msg1: answer from the session cache. *)
        answer_retransmit t state m1
      | None ->
        (* Completed sessions are terminal: a late-duplicated msg0 gets
           no reply — answering msg1 here would reopen the finished
           handshake (the resurrection bug). *)
        stray t state
    end
    else begin
      let already = state.completed in
      let augment = augment t state vsession in
      apply_msg2_result t state ~already
        (Watz_tz.Soc.smc t.soc (fun () ->
             P.Verifier.handle_msg2 ?augment vsession ~random:(random t) frame))
    end

(* A resume0 opens a connection in one round trip; on an established
   connection only its byte-exact retransmit is answered. *)
let handle_resume0 t r state frame =
  match state.estab with
  | Some { resume_reply = Some (prev, accept); _ } when String.equal prev frame ->
    answer_retransmit t state accept
  | Some _ -> stray t state
  | None when Option.is_some state.vsession -> stray t state
  | None -> (
    Metrics.incr t.metrics "resume_attempts";
    let now_ns = Watz_tz.Soc.now_ns t.soc in
    match
      Watz_tz.Soc.smc t.soc (fun () -> r.resume ~policy:t.policy ~random:(random t) ~now_ns frame)
    with
    | Error (reason, reject) ->
      event t state ("resume_rejected." ^ reason) "verifier.resume_reject";
      if reply t state reject then
        (* The attester falls back on a fresh connection; this one is
           done. Closing here (not aborting) keeps reject != failure. *)
        drop_session t state "resume_fallbacks"
    | Ok (k_sub, accept) ->
      let e = establish k_sub in
      e.resume_reply <- Some (frame, accept);
      state.estab <- Some e;
      state.completed <- true;
      event t state "resumes_accepted" "verifier.resume_accept";
      ignore (reply t state accept))

(* A hierarchical sub-claim on an established connection, appraised
   without any re-handshake. *)
let handle_subclaim t r state frame =
  match state.estab with
  | None -> abort t state (P.Malformed "verifier: sub-claim before establishment")
  | Some e -> (
    match Hashtbl.find_opt e.sub_acks frame with
    | Some ack -> answer_retransmit t state ack
    | None -> (
      match Watz_tz.Soc.smc t.soc (fun () -> r.check_subclaim ~k_sub:e.k_sub frame) with
      | Error err ->
        Metrics.incr t.metrics "subclaims_rejected";
        abort t state err
      | Ok () ->
        let ack = Watz_tz.Soc.smc t.soc (fun () -> r.ack_subclaim ~k_sub:e.k_sub frame) in
        Hashtbl.replace e.sub_acks frame ack;
        Metrics.incr t.metrics "subclaims_accepted";
        ignore (reply t state ack)))

(* Frame dispatch is unambiguous: msg0 is a 65-byte SEC1 point starting
   with 0x04, every resumption frame starts with an ASCII magic. *)
let handle_frame t state frame =
  match t.resumption with
  | Some r when r.is_resume0 frame -> handle_resume0 t r state frame
  | Some r when r.is_subclaim frame -> handle_subclaim t r state frame
  | _ when Option.is_none state.vsession && Option.is_some state.estab ->
    (* A resumed connection only carries resume0 retransmits and
       sub-claims. *)
    stray t state
  | _ -> handle_handshake t state frame

(* In batch mode: [true] when the frame is a msg2 whose signature check
   was deferred into [pending]; the caller must then stop draining this
   session until the batch settles. Resumption frames never defer: they
   fail the msg2 MAC, so they have no verify triple. *)
let defer_msg2 t pending state frame =
  t.batch_verify
  &&
  match state.vsession with
  | Some v when not (P.Verifier.is_msg0_retransmit v frame) -> (
    match P.Verifier.msg2_verify_triple v frame with
    | Some (key, msg, signature) ->
      pending :=
        {
          p_state = state;
          p_vsession = v;
          p_frame = frame;
          p_key = key;
          p_msg = msg;
          p_sig = signature;
        }
        :: !pending;
      true
    | None -> false)
  | _ -> false

(** One scheduling quantum of the listener: accept pending connections,
    process every complete frame on every live session, and evict the
    stalled ones.

    In [batch_verify] mode the pass is two-phase. The drain over live
    sessions runs each msg2 appraisal only up to its evidence-signature
    check ({!P.Verifier.msg2_verify_triple}) and parks the session
    there — per-connection frame order is preserved by not reading
    further frames from a parked session. Once every session is drained
    or parked, all collected checks settle through one
    {!Watz_crypto.Ecdsa.verify_batch} call, each appraisal completes
    with its precomputed verdict, and the parked sessions drain again
    (which may collect a next round, e.g. a duplicated msg2 now
    answered from the cache). Collection and settle orders follow the
    deterministic session iteration order, so batching keeps the
    fixed-seed determinism contract. *)
let step t =
  let rec accept_all () =
    match Watz_tz.Net.accept t.soc.Watz_tz.Soc.net ~port:t.port with
    | None -> ()
    | Some conn ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Metrics.incr t.metrics "sessions_started";
      Hashtbl.replace t.sessions id
        {
          id;
          conn;
          vsession = None;
          estab = None;
          completed = false;
          last_activity_ns = Watz_tz.Soc.now_ns t.soc;
        };
      accept_all ()
  in
  accept_all ();
  let now = Watz_tz.Soc.now_ns t.soc in
  let live = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
  let pending = ref [] in
  let rec drain state =
    match Watz_tz.Net.recv_frame_ex state.conn with
    | Watz_tz.Net.Frame frame ->
      state.last_activity_ns <- Watz_tz.Soc.now_ns t.soc;
      if not (defer_msg2 t pending state frame) then begin
        handle_frame t state frame;
        if Hashtbl.mem t.sessions state.id then drain state
      end
    | Watz_tz.Net.Awaiting ->
      if Int64.sub now state.last_activity_ns > session_timeout_ns then
        if state.completed then drop_session t state "sessions_closed"
        else begin
          Metrics.incr t.metrics "sessions_evicted";
          abort t state (P.Timed_out "verifier: session stalled")
        end
    | Watz_tz.Net.Closed_by_peer ->
      (* A clean close after completion; anything earlier is a loss. *)
      if state.completed then drop_session t state "sessions_closed"
      else abort t state (P.Connection_lost "verifier: peer closed mid-protocol")
    | Watz_tz.Net.Frame_violation e ->
      Metrics.incr t.metrics "frame_violations";
      abort t state (P.Malformed (Format.asprintf "frame: %a" Watz_tz.Net.pp_frame_error e))
  in
  List.iter drain live;
  let rec settle () =
    match List.rev !pending with
    | [] -> ()
    | batch ->
      pending := [];
      Metrics.observe t.metrics "verify_batch_size" (List.length batch);
      let batch = Array.of_list batch in
      let verdicts =
        Watz_crypto.Ecdsa.verify_batch (Array.map (fun p -> (p.p_key, p.p_msg, p.p_sig)) batch)
      in
      Array.iteri
        (fun i p ->
          if Hashtbl.mem t.sessions p.p_state.id then begin
            let already = p.p_state.completed in
            let augment = augment t p.p_state p.p_vsession in
            apply_msg2_result t p.p_state ~already
              (Watz_tz.Soc.smc t.soc (fun () ->
                   P.Verifier.handle_msg2_with ?augment
                     ~verify:(fun _ _ -> verdicts.(i))
                     p.p_vsession ~random:(random t) p.p_frame));
            if Hashtbl.mem t.sessions p.p_state.id then drain p.p_state
          end)
        batch;
      settle ()
  in
  settle ()

(** Most recent failure across connections, for tests asserting
    rejection reasons. *)
let last_error t = t.last_err
