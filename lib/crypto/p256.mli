(** The NIST P-256 (secp256r1) elliptic curve.

    WaTZ selects this curve (§V) for the attestation key pair (ECDSA),
    the session keys (ECDHE) and the evidence signatures. Points are
    computed in Jacobian coordinates over the {!Fe256} Montgomery
    field, with 4-bit windowed scalar multiplication, a fixed-base comb
    for the generator, and Shamir's trick for the ECDSA-verify shape.
    Every ladder doubles and adds in place into one mutable accumulator
    allocated per call, then returns a fresh immutable point.

    Caution: like the rest of this simulation's crypto, the scalar
    ladders here are *not* constant-time (window digits index tables,
    special cases branch). See DESIGN.md on the fast-path contract. *)

type point
(** A point on the curve, including the point at infinity. Points carry
    a memoized window table (see {!prepare}); the table is part of the
    cache, not the value — {!equal} ignores it. *)

val field_ring : Fe256.ring
(** Montgomery ring for F{_p} — the fast path used by the point ops. *)

val scalar_ring : Fe256.ring
(** Montgomery ring for F{_n}, shared with {!Ecdsa}. *)

val n : Bn.t
(** The group order as an integer. *)

val infinity : point
val is_infinity : point -> bool
val base : point
(** The standard generator G. *)

val of_affine : Bn.t -> Bn.t -> point
(** Raises [Invalid_argument] if the coordinates are not on the curve. *)

val to_affine : point -> (Bn.t * Bn.t) option
(** [None] for the point at infinity. *)

val add : point -> point -> point
val double : point -> point

val mul : Bn.t -> point -> point
(** Scalar multiplication, 4-bit windowed. The scalar is reduced mod
    the group order. Builds (and memoizes) the point's window table. *)

val base_mul : Bn.t -> point
(** [k]G via the fixed-base comb: at most 64 mixed additions. *)

val double_mul : Bn.t -> Bn.t -> point -> point
(** [double_mul u1 u2 q] is [u1]G + [u2]Q — the ECDSA verification
    inner loop. Walks Q's comb when one is memoized (see
    {!prepare_comb}): at most 128 mixed additions and no doublings.
    Otherwise runs a shared doubling ladder (Shamir's trick) over Q's
    window table. *)

val double_mul_batch : (Bn.t * Bn.t * point) array -> (Bn.t * Bn.t) option array
(** [double_mul_batch [| (u1, u2, q); ... |]] computes every
    [u1]G + [u2]Q doubling-free on per-point combs (built and memoized
    on first use, see {!prepare_comb}) and normalises all results with
    a single shared field inversion (Montgomery's trick) — the
    batch-verify workhorse. Each slot holds the affine coordinates of
    its sum, or [None] when the sum is the point at infinity.
    Agrees exactly with per-entry [double_mul] + [to_affine]. *)

val prepare_comb : point -> unit
(** Precompute and memoize the point's full comb ([1..15] * 16^j * P
    for every nibble position), the table behind {!double_mul_batch}
    and, once memoized, behind {!double_mul}: ~64x the window table's
    size, pays for itself once the key verifies more than a couple of
    signatures. Idempotent; a no-op on the point
    at infinity. The same single-domain ownership rule as {!prepare}
    applies — build the comb in the domain that uses it, or before
    spawning. *)

val prepare : point -> unit
(** Precompute and memoize the point's window table so later {!mul} /
    {!double_mul} calls skip table setup. Idempotent; a no-op on the
    point at infinity. Long-lived verifier keys should be prepared
    once and reused.

    Domain ownership: the memo is an unsynchronised per-point cache, so
    a point must not be mutated from two domains at once. Either keep
    every point domain-private (the fleet constructs each shard's keys
    inside the shard's domain) or fully [prepare]/[encode] shared
    points before spawning — [Domain.spawn] publishes everything the
    parent wrote. The generator's comb is the one cross-domain table
    and is published atomically by {!prewarm}. *)

val prewarm : unit -> unit
(** Force the one-time lazy tables (the fixed-base comb for G) so a
    server's first request does not pay their construction. Safe to
    call from any domain (atomic publication; concurrent builders race
    benignly to identical tables). *)

val equal : point -> point -> bool
val on_curve : Bn.t -> Bn.t -> bool

val encode : point -> string
(** Uncompressed SEC 1 encoding: [0x04 || x || y], 65 bytes, memoized
    per point (the first call pays the field inversion; later calls
    return the cached string). Raises [Invalid_argument] on the point
    at infinity. *)

val decode : string -> point option
(** Parses and validates an uncompressed point. *)
