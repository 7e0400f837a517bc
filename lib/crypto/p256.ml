(* Domain parameters from SEC 2 / FIPS 186-4.

   Point arithmetic runs on the {!Fe256} Montgomery field. Hot paths:
   4-bit windowed scalar multiplication, mixed (Z=1) additions against
   affine tables, a lazily-built fixed-base comb for the generator
   (base_mul is 64 mixed adds and no doublings), and Shamir's trick for
   the u1*G + u2*Q shape of ECDSA verification. Points carry a
   memoized affine window table so long-lived keys (verifier identity,
   endorsed attestation keys) pay table setup once across sessions.
   Every ladder doubles and adds in place into one mutable accumulator
   allocated per call; points themselves are never mutated. *)

let p = Bn.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
let n = Bn.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"
let b_coeff = Bn.of_hex "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"
let gx = Bn.of_hex "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
let gy = Bn.of_hex "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"
let field_ring = Fe256.create p
let scalar_ring = Fe256.create n

module Fe = Fe256

let fp = field_ring
let fadd = Fe.add fp
let fmul = Fe.mul fp
let fsqr = Fe.sqr fp
let fe_one = Fe.one fp
let fe_zero = Fe.zero fp
let fe_a = Fe.of_bn fp (Bn.sub p (Bn.of_int 3)) (* a = -3 mod p *)
let fe_b = Fe.of_bn fp b_coeff

(* Affine multiples of a point in Montgomery form, as parallel flat
   coordinate vectors (two allocations per table, however many
   entries); no entry is the point at infinity. Entry d - 1 of a window
   table is dP; entry 15j + d - 1 of a comb is d * 16^j * P. *)
type table = { tx : Fe.vec; ty : Fe.vec }

(* Jacobian coordinates: (X, Y, Z) represents (X/Z^2, Y/Z^3); Z = 0 is
   the point at infinity. [memo] caches the [1..15]P window table for
   this exact point value, [comb_memo] its comb (built on demand for
   keys that verify many signatures, see {!prepare_comb}); [enc]
   caches the uncompressed SEC 1 encoding (each fresh encode costs a
   field inversion, and session keys are encoded several times per
   protocol run). *)
type point = {
  x : Fe.t;
  y : Fe.t;
  z : Fe.t;
  mutable memo : table option;
  mutable enc : string option;
  mutable comb_memo : table option;
}

let jac x y z = { x; y; z; memo = None; enc = None; comb_memo = None }
let infinity = jac (Fe.one fp) (Fe.one fp) (Fe.zero fp)
let is_infinity pt = Fe.is_zero pt.z

let on_curve_fe x y =
  let lhs = fsqr y in
  let rhs = fadd (fmul (fsqr x) x) (fadd (fmul fe_a x) fe_b) in
  Fe.equal lhs rhs

let on_curve x y =
  if Bn.compare x p >= 0 || Bn.compare y p >= 0 then false
  else on_curve_fe (Fe.of_bn fp x) (Fe.of_bn fp y)

let of_affine x y =
  if not (on_curve x y) then invalid_arg "P256.of_affine: point not on curve";
  jac (Fe.of_bn fp x) (Fe.of_bn fp y) (Fe.one fp)

let base = jac (Fe.of_bn fp gx) (Fe.of_bn fp gy) (Fe.one fp)

let to_affine pt =
  if is_infinity pt then None
  else if Fe.equal pt.z fe_one then Some (Fe.to_bn fp pt.x, Fe.to_bn fp pt.y)
  else begin
    let zinv = Fe.inv fp pt.z in
    let zinv2 = fsqr zinv in
    let ax = fmul pt.x zinv2 in
    Fe.mul_into fp zinv2 zinv2 zinv;
    Some (Fe.to_bn fp ax, Fe.to_bn fp (fmul pt.y zinv2))
  end

(* A mutable Jacobian point with private temporaries. Each scalar
   multiplication allocates one, doubles and adds into it in place, and
   copies an immutable {!point} out at the end, so no two domains ever
   share one. *)
type acc = {
  jx : Fe.t;
  jy : Fe.t;
  jz : Fe.t;
  ex : Fe.t; (* ex, ey: the table entry being added *)
  ey : Fe.t;
  t0 : Fe.t;
  t1 : Fe.t;
  t2 : Fe.t;
  t3 : Fe.t;
  t4 : Fe.t;
  t5 : Fe.t;
}

let mul_ d a b = Fe.mul_into fp d a b
let sqr_ d a = Fe.sqr_into fp d a
let add_ d a b = Fe.add_into fp d a b
let sub_ d a b = Fe.sub_into fp d a b

let acc_create () =
  let f () = Fe.zero fp in
  let jx = Fe.one fp and jy = Fe.one fp in
  { jx; jy; jz = f (); ex = f (); ey = f (); t0 = f (); t1 = f (); t2 = f (); t3 = f (); t4 = f ();
    t5 = f () }

let acc_is_infinity a = Fe.is_zero a.jz

let acc_load a x y z =
  Fe.copy_into a.jx x;
  Fe.copy_into a.jy y;
  Fe.copy_into a.jz z

let acc_set_infinity a = acc_load a fe_one fe_one fe_zero

let to_point a =
  if acc_is_infinity a then infinity else jac (Fe.copy a.jx) (Fe.copy a.jy) (Fe.copy a.jz)

(* dbl-2001-b: Jacobian doubling for a = -3; small-constant products
   are addition chains (3M + 5S, no generic constant muls). *)
let acc_double a =
  if acc_is_infinity a || Fe.is_zero a.jy then acc_set_infinity a
  else begin
    let x = a.jx and y = a.jy and z = a.jz in
    let delta = a.t0 and gamma = a.t1 and beta = a.t2 and alpha = a.t3 and t = a.t4 in
    sqr_ delta z;
    sqr_ gamma y;
    mul_ beta x gamma;
    sub_ alpha x delta;
    add_ t x delta;
    mul_ alpha alpha t;
    add_ t alpha alpha;
    add_ alpha t alpha (* alpha = 3 (X - delta) (X + delta) *);
    add_ z y z;
    sqr_ z z;
    sub_ z z gamma;
    sub_ z z delta (* Z3 = (Y + Z)^2 - gamma - delta *);
    add_ beta beta beta;
    add_ beta beta beta (* 4 beta *);
    sqr_ x alpha;
    sub_ x x beta;
    sub_ x x beta (* X3 = alpha^2 - 8 beta *);
    sub_ beta beta x;
    mul_ beta alpha beta;
    sqr_ gamma gamma;
    add_ gamma gamma gamma;
    add_ gamma gamma gamma;
    add_ gamma gamma gamma;
    sub_ y beta gamma (* Y3 = alpha (4 beta - X3) - 8 gamma^2 *)
  end

(* Mixed addition (madd-2007-bl): the second operand is affine (Z = 1),
   saving ~5 field products over the general add. *)
let acc_add_affine a qx qy =
  if acc_is_infinity a then acc_load a qx qy fe_one
  else begin
    let x = a.jx and y = a.jy and z = a.jz in
    let z1z1 = a.t0 and h = a.t1 and r = a.t2 and hh = a.t3 and i = a.t4 and j = a.t5 in
    sqr_ z1z1 z;
    mul_ h qx z1z1 (* u2 *);
    mul_ r z z1z1;
    mul_ r qy r (* s2 *);
    if Fe.equal x h then if Fe.equal y r then acc_double a else acc_set_infinity a
    else begin
      sub_ h h x (* h = u2 - X1 *);
      sqr_ hh h;
      add_ z z h;
      sqr_ z z;
      sub_ z z z1z1;
      sub_ z z hh (* Z3 = (Z1 + h)^2 - z1z1 - hh *);
      add_ i hh hh;
      add_ i i i (* i = 4 hh *);
      mul_ j h i;
      sub_ r r y;
      add_ r r r (* r = 2 (s2 - Y1) *);
      mul_ i x i (* v = X1 i *);
      let yj = z1z1 in
      mul_ yj y j;
      sqr_ x r;
      sub_ x x j;
      sub_ x x i;
      sub_ x x i (* X3 = r^2 - j - 2 v *);
      sub_ i i x;
      mul_ i r i;
      sub_ y i yj;
      sub_ y y yj (* Y3 = r (v - X3) - 2 Y1 j *)
    end
  end

(* add-2007-bl, with the equal/opposite special cases dispatched; an
   affine operand takes the mixed formula. *)
let acc_add a p2 =
  if is_infinity p2 then ()
  else if Fe.equal p2.z fe_one then acc_add_affine a p2.x p2.y
  else if acc_is_infinity a then acc_load a p2.x p2.y p2.z
  else begin
    let x = a.jx and y = a.jy and z = a.jz in
    let z1z1 = a.t0 and z2z2 = a.t1 and u1 = a.t2 and h = a.t3 and s1 = a.t4 and r = a.t5 in
    sqr_ z1z1 z;
    sqr_ z2z2 p2.z;
    mul_ u1 x z2z2;
    mul_ h p2.x z1z1 (* u2 *);
    mul_ s1 z2z2 p2.z;
    mul_ s1 y s1;
    mul_ r z1z1 z;
    mul_ r p2.y r (* s2 *);
    if Fe.equal u1 h then if Fe.equal s1 r then acc_double a else acc_set_infinity a
    else begin
      sub_ h h u1 (* h = u2 - u1 *);
      add_ z z p2.z;
      sqr_ z z;
      sub_ z z z1z1;
      sub_ z z z2z2;
      mul_ z z h (* Z3 = ((Z1 + Z2)^2 - z1z1 - z2z2) h *);
      let i = z1z1 and j = z2z2 in
      add_ i h h;
      sqr_ i i (* i = (2 h)^2 *);
      mul_ j h i;
      sub_ r r s1;
      add_ r r r (* r = 2 (s2 - s1) *);
      mul_ u1 u1 i (* v = u1 i *);
      mul_ s1 s1 j;
      sqr_ x r;
      sub_ x x j;
      sub_ x x u1;
      sub_ x x u1 (* X3 = r^2 - j - 2 v *);
      sub_ u1 u1 x;
      mul_ u1 r u1;
      sub_ y u1 s1;
      sub_ y y s1 (* Y3 = r (v - X3) - 2 s1 j *)
    end
  end

let acc_of pt =
  let a = acc_create () in
  acc_load a pt.x pt.y pt.z;
  a

let double pt =
  let a = acc_of pt in
  acc_double a;
  to_point a

let add p1 p2 =
  let a = acc_of p1 in
  acc_add a p2;
  to_point a

(* Montgomery's batch-inversion trick: one field inversion normalises
   a run of Jacobian coordinates in place (no z may be zero). xs and ys
   become the affine coordinates; zs is left as scratch. *)
let batch_to_affine xs ys zs =
  let k = Fe.length zs in
  let prefix = Fe.vec k in
  let acc = Fe.one fp and t = Fe.zero fp in
  for i = 0 to k - 1 do
    Fe.set prefix i acc;
    Fe.get_into t zs i;
    mul_ acc acc t
  done;
  let inv = Fe.inv fp acc in
  let zinv = acc and zinv2 = Fe.zero fp in
  for i = k - 1 downto 0 do
    Fe.get_into t prefix i;
    mul_ zinv inv t;
    Fe.get_into t zs i;
    mul_ inv inv t;
    sqr_ zinv2 zinv;
    Fe.get_into t xs i;
    mul_ t t zinv2;
    Fe.set xs i t;
    mul_ zinv2 zinv2 zinv;
    Fe.get_into t ys i;
    mul_ t t zinv2;
    Fe.set ys i t
  done

(* The multiples d * 16^j * pt for d = 1..15 and j < rows, stepped
   through on the accumulator [a] and normalised with one batch
   inversion. All scalars d * 16^j stay below n (15 * 16^63 < n), so no
   entry is infinity. *)
let multiples a pt rows =
  let k = 15 * rows in
  let tx = Fe.vec k and ty = Fe.vec k and zs = Fe.vec k in
  acc_load a pt.x pt.y pt.z;
  (* The row's step, 16^j * pt. A private point, never memoized or
     returned, so overwriting its coordinates in place is safe. *)
  let step = jac (Fe.copy pt.x) (Fe.copy pt.y) (Fe.copy pt.z) in
  for e = 0 to k - 1 do
    if e > 0 then acc_add a step;
    if e > 0 && e mod 15 = 0 then begin
      (* next row: 16 * step *)
      Fe.copy_into step.x a.jx;
      Fe.copy_into step.y a.jy;
      Fe.copy_into step.z a.jz
    end;
    Fe.set tx e a.jx;
    Fe.set ty e a.jy;
    Fe.set zs e a.jz
  done;
  batch_to_affine tx ty zs;
  { tx; ty }

(* The [1..15]P window table, memoized on the point; built on [acc]
   when the caller has one to lend. *)
let window_table ?acc pt =
  match pt.memo with
  | Some tbl -> tbl
  | None ->
      let a = match acc with Some a -> a | None -> acc_create () in
      let tbl = multiples a pt 1 in
      pt.memo <- Some tbl;
      tbl

let prepare pt = if not (is_infinity pt) then ignore (window_table pt)

(* Scalars as 64 big-endian nibbles; index 0 is the most significant. *)
let scalar_nibbles k = Bn.to_bytes_be ~len:32 (Bn.mod_ k n)

let nibble s i =
  let b = Char.code (String.unsafe_get s (i lsr 1)) in
  if i land 1 = 0 then b lsr 4 else b land 0xf

let add_entry a tbl e =
  Fe.get_into a.ex tbl.tx e;
  Fe.get_into a.ey tbl.ty e;
  acc_add_affine a a.ex a.ey

let double4 a =
  if not (acc_is_infinity a) then begin
    acc_double a;
    acc_double a;
    acc_double a;
    acc_double a
  end

let mul k pt =
  if is_infinity pt then infinity
  else begin
    let s = scalar_nibbles k in
    let a = acc_create () in
    let tbl = window_table ~acc:a pt in
    acc_set_infinity a;
    for i = 0 to 63 do
      double4 a;
      let d = nibble s i in
      if d > 0 then add_entry a tbl (d - 1)
    done;
    to_point a
  end

(* Fixed-base comb for G. Built lazily (one-time) and batch-inverted
   in a single pass; after that base_mul is at most 64 mixed additions
   and zero doublings.

   The cell is [Atomic] because the comb is the one lazy table shared
   by every fleet domain: the atomic store publishes the fully-built
   (and thereafter immutable) arrays, so a reader either sees [None]
   and builds its own, or sees a complete comb. Concurrent builders
   race benignly — the construction is deterministic, so whichever
   store lands last publishes the same table the loser computed. *)
let comb = Atomic.make None

let get_comb () =
  match Atomic.get comb with
  | Some c -> c
  | None ->
      let c = multiples (acc_create ()) base 64 in
      Atomic.set comb (Some c);
      c

(* Add the comb entry for every nibble of s into a: no doublings. *)
let comb_walk a c s =
  for i = 0 to 63 do
    let d = nibble s i in
    (* nibble index i has significance 63 - i *)
    if d > 0 then add_entry a c ((15 * (63 - i)) + d - 1)
  done

let base_mul k =
  let a = acc_create () in
  comb_walk a (get_comb ()) (scalar_nibbles k);
  to_point a

(* The per-point comb, memoized like the window table but covering all
   64 nibble positions. Costs roughly three Shamir ladders to build;
   every double-scalar multiplication after that drops all 252 ladder
   doublings. *)
let point_comb pt =
  match pt.comb_memo with
  | Some c -> c
  | None ->
      let c = multiples (acc_create ()) pt 64 in
      pt.comb_memo <- Some c;
      c

let prepare_comb pt = if not (is_infinity pt) then ignore (point_comb pt)

(* u1*G + u2*Q with both scalars walking combs: at most 128 mixed
   additions and zero doublings. Needs Q's comb (built on first use);
   profitable once a key verifies more than a couple of signatures. *)
let comb_double_mul u1 u2 q =
  let a = acc_create () in
  comb_walk a (get_comb ()) (scalar_nibbles u1);
  comb_walk a (point_comb q) (scalar_nibbles u2);
  to_point a

(* u1*G + u2*Q, the ECDSA-verify workhorse. A key with a memoized comb
   walks it; otherwise Shamir/Straus interleaving runs one shared
   doubling ladder with window adds from the generator comb's first
   row and from Q's window table. *)
let double_mul u1 u2 q =
  if Option.is_some q.comb_memo then comb_double_mul u1 u2 q
  else begin
    let s1 = scalar_nibbles u1 in
    let s2 = scalar_nibbles u2 in
    let gc = get_comb () in
    let a = acc_create () in
    let qtbl = if is_infinity q then None else Some (window_table ~acc:a q) in
    acc_set_infinity a;
    for i = 0 to 63 do
      double4 a;
      let d1 = nibble s1 i in
      if d1 > 0 then add_entry a gc (d1 - 1);
      let d2 = nibble s2 i in
      match qtbl with Some t when d2 > 0 -> add_entry a t (d2 - 1) | _ -> ()
    done;
    to_point a
  end

(* Batched ECDSA-verify shape: every entry computed doubling-free on
   the combs, then one shared Montgomery batch inversion normalises all
   finite results (amortising the one field inversion a per-signature
   to_affine would pay each). Entries yielding infinity map to None. *)
let double_mul_batch entries =
  let results =
    Array.map
      (fun (u1, u2, q) -> if is_infinity q then double_mul u1 u2 q else comb_double_mul u1 u2 q)
      entries
  in
  let finite = List.filter (fun p -> not (is_infinity p)) (Array.to_list results) in
  let coords f =
    let v = Fe.vec (List.length finite) in
    List.iteri (fun i p -> Fe.set v i (f p)) finite;
    v
  in
  let tx = coords (fun p -> p.x) and ty = coords (fun p -> p.y) in
  batch_to_affine tx ty (coords (fun p -> p.z));
  let j = ref 0 in
  Array.map
    (fun p ->
      if is_infinity p then None
      else begin
        let e = !j in
        incr j;
        Some (Fe.to_bn fp (Fe.get tx e), Fe.to_bn fp (Fe.get ty e))
      end)
    results

(* Cross-multiplied comparison: x1*z2^2 = x2*z1^2 (and same for y with
   cubes) avoids any inversion. *)
let equal p1 p2 =
  match (is_infinity p1, is_infinity p2) with
  | true, true -> true
  | true, false | false, true -> false
  | false, false ->
      let z1z1 = fsqr p1.z in
      let z2z2 = fsqr p2.z in
      Fe.equal (fmul p1.x z2z2) (fmul p2.x z1z1)
      && Fe.equal (fmul p1.y (fmul z2z2 p2.z)) (fmul p2.y (fmul z1z1 p1.z))

let encode pt =
  match pt.enc with
  | Some s -> s
  | None -> (
    match to_affine pt with
    | None -> invalid_arg "P256.encode: point at infinity"
    | Some (x, y) ->
      let s = "\x04" ^ Bn.to_bytes_be ~len:32 x ^ Bn.to_bytes_be ~len:32 y in
      pt.enc <- Some s;
      s)

let decode s =
  if String.length s <> 65 || s.[0] <> '\x04' then None
  else begin
    let x = Bn.of_bytes_be (String.sub s 1 32) in
    let y = Bn.of_bytes_be (String.sub s 33 32) in
    if on_curve x y then begin
      (* a decoded point re-encodes to its own input for free *)
      let pt = jac (Fe.of_bn fp x) (Fe.of_bn fp y) (Fe.one fp) in
      pt.enc <- Some s;
      Some pt
    end
    else None
  end

(* Force the one-time lazy tables (the fixed-base comb) so a server's
   first session does not pay their construction inside its latency. *)
let prewarm () = ignore (get_comb ())
