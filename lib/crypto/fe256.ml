(* Montgomery arithmetic for 256-bit prime rings.

   Elements are 9 little-endian limbs of 29 bits each (beta = 2^29,
   R = 2^261), stored in native ints. Products use separated operand
   scanning (SOS): the 17-column schoolbook product is written out
   straight-line into local lets, then 9 reduction rows clear its low
   half. A column sums at most 9 products below 2^58 plus the rows'
   additions and carries, which stays below 2^62 inside OCaml's 63-bit
   int, so nothing is boxed and nothing is allocated. One module
   backs both P-256 rings: the field mod p, which gets a reduction and
   an inversion specialised to p, and the scalar ring mod n. Values
   are kept fully reduced, so limb-array equality is value equality. *)

let limbs = 9
let limb_bits = 29
let limb_mask = (1 lsl limb_bits) - 1

type t = int array

type ring = {
  m : int array; (* modulus limbs *)
  m_bn : Bn.t;
  n0 : int; (* -m^-1 mod beta *)
  p256 : bool; (* m is the P-256 field prime: use redc_p and inv_p *)
  r2 : t; (* R^2 mod m, ordinary representation *)
  one_m : t; (* R mod m: the Montgomery image of 1 *)
  inv_digits : int array; (* m - 2 as big-endian 4-bit digits *)
}

let limbs_of_bn v =
  let s = Bn.to_bytes_be ~len:32 v in
  let out = Array.make limbs 0 in
  let acc = ref 0 and bits = ref 0 and li = ref 0 in
  for i = 31 downto 0 do
    acc := !acc lor (Char.code s.[i] lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      out.(!li) <- !acc land limb_mask;
      incr li;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits
    end
  done;
  if !bits > 0 then out.(!li) <- !acc;
  out

let bn_of_limbs a =
  let b = Bytes.make 33 '\000' in
  let acc = ref 0 and bits = ref 0 and bi = ref 32 in
  for i = 0 to limbs - 1 do
    acc := !acc lor (a.(i) lsl !bits);
    bits := !bits + limb_bits;
    while !bits >= 8 do
      Bytes.set b !bi (Char.unsafe_chr (!acc land 0xff));
      decr bi;
      acc := !acc lsr 8;
      bits := !bits - 8
    done
  done;
  if !bits > 0 then Bytes.set b !bi (Char.unsafe_chr (!acc land 0xff));
  Bn.of_bytes_be (Bytes.unsafe_to_string b)

external g : int array -> int -> int = "%array_unsafe_get"
external s : int array -> int -> int -> unit = "%array_unsafe_set"

let ge a b =
  let i = ref (limbs - 1) in
  while !i > 0 && g a !i = g b !i do
    decr i
  done;
  g a !i >= g b !i

(* a <- a - b assuming a >= b. *)
let sub_in_place a b =
  let borrow = ref 0 in
  for i = 0 to limbs - 1 do
    let d = g a i - g b i - !borrow in
    s a i (d land limb_mask);
    borrow := -(d asr limb_bits)
  done

(* p = 2^256 - 2^224 + 2^192 + 2^96 - 1 in 29-bit limbs:
   [beta-1; beta-1; beta-1; 2^9-1; 0; 0; 2^18; 2^29-2^21; 2^24-1]. *)
let p_limbs =
  let b = 1 lsl limb_bits in
  [| b - 1; b - 1; b - 1; (1 lsl 9) - 1; 0; 0; 1 lsl 18; b - (1 lsl 21); (1 lsl 24) - 1 |]

(* Write r (< 2m, limbs normalised) to dst, less m when r >= m. *)
let store_reduced dst m r0 r1 r2 r3 r4 r5 r6 r7 r8 =
  let d0 = r0 - g m 0 in
  let d1 = r1 - g m 1 + (d0 asr limb_bits) in
  let d2 = r2 - g m 2 + (d1 asr limb_bits) in
  let d3 = r3 - g m 3 + (d2 asr limb_bits) in
  let d4 = r4 - g m 4 + (d3 asr limb_bits) in
  let d5 = r5 - g m 5 + (d4 asr limb_bits) in
  let d6 = r6 - g m 6 + (d5 asr limb_bits) in
  let d7 = r7 - g m 7 + (d6 asr limb_bits) in
  let d8 = r8 - g m 8 + (d7 asr limb_bits) in
  if d8 < 0 then begin
    s dst 0 r0; s dst 1 r1; s dst 2 r2; s dst 3 r3; s dst 4 r4;
    s dst 5 r5; s dst 6 r6; s dst 7 r7; s dst 8 r8
  end
  else begin
    s dst 0 (d0 land limb_mask); s dst 1 (d1 land limb_mask); s dst 2 (d2 land limb_mask);
    s dst 3 (d3 land limb_mask); s dst 4 (d4 land limb_mask); s dst 5 (d5 land limb_mask);
    s dst 6 (d6 land limb_mask); s dst 7 (d7 land limb_mask); s dst 8 d8
  end

(* Reduction mod p. Since p = -1 mod beta, -p^-1 = 1 and each row's
   quotient q is the low 29 bits of its column. Limbs 0-3 of p sum to
   2^9 beta^3 - 1, so adding q p beta^i turns column i into the carry
   (c_i lsr 29) for column i+1 and adds q shifted into columns i+3,
   i+6, i+7 and i+8: no multiplications. Columns start unnormalised
   (below 9 * 2^58); the rows add under 2^59 more. *)
let redc_p dst c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16 =
  let q = c0 land limb_mask in
  let c1 = c1 + (c0 lsr 29)
  and c3 = c3 + (q lsl 9)
  and c6 = c6 + (q lsl 18)
  and c7 = c7 + (q lsl 29) - (q lsl 21)
  and c8 = c8 + (q lsl 24) - q in
  let q = c1 land limb_mask in
  let c2 = c2 + (c1 lsr 29)
  and c4 = c4 + (q lsl 9)
  and c7 = c7 + (q lsl 18)
  and c8 = c8 + (q lsl 29) - (q lsl 21)
  and c9 = c9 + (q lsl 24) - q in
  let q = c2 land limb_mask in
  let c3 = c3 + (c2 lsr 29)
  and c5 = c5 + (q lsl 9)
  and c8 = c8 + (q lsl 18)
  and c9 = c9 + (q lsl 29) - (q lsl 21)
  and c10 = c10 + (q lsl 24) - q in
  let q = c3 land limb_mask in
  let c4 = c4 + (c3 lsr 29)
  and c6 = c6 + (q lsl 9)
  and c9 = c9 + (q lsl 18)
  and c10 = c10 + (q lsl 29) - (q lsl 21)
  and c11 = c11 + (q lsl 24) - q in
  let q = c4 land limb_mask in
  let c5 = c5 + (c4 lsr 29)
  and c7 = c7 + (q lsl 9)
  and c10 = c10 + (q lsl 18)
  and c11 = c11 + (q lsl 29) - (q lsl 21)
  and c12 = c12 + (q lsl 24) - q in
  let q = c5 land limb_mask in
  let c6 = c6 + (c5 lsr 29)
  and c8 = c8 + (q lsl 9)
  and c11 = c11 + (q lsl 18)
  and c12 = c12 + (q lsl 29) - (q lsl 21)
  and c13 = c13 + (q lsl 24) - q in
  let q = c6 land limb_mask in
  let c7 = c7 + (c6 lsr 29)
  and c9 = c9 + (q lsl 9)
  and c12 = c12 + (q lsl 18)
  and c13 = c13 + (q lsl 29) - (q lsl 21)
  and c14 = c14 + (q lsl 24) - q in
  let q = c7 land limb_mask in
  let c8 = c8 + (c7 lsr 29)
  and c10 = c10 + (q lsl 9)
  and c13 = c13 + (q lsl 18)
  and c14 = c14 + (q lsl 29) - (q lsl 21)
  and c15 = c15 + (q lsl 24) - q in
  let q = c8 land limb_mask in
  let c9 = c9 + (c8 lsr 29)
  and c11 = c11 + (q lsl 9)
  and c14 = c14 + (q lsl 18)
  and c15 = c15 + (q lsl 29) - (q lsl 21)
  and c16 = c16 + (q lsl 24) - q in
  let r0 = c9 land limb_mask and c10 = c10 + (c9 lsr 29) in
  let r1 = c10 land limb_mask and c11 = c11 + (c10 lsr 29) in
  let r2 = c11 land limb_mask and c12 = c12 + (c11 lsr 29) in
  let r3 = c12 land limb_mask and c13 = c13 + (c12 lsr 29) in
  let r4 = c13 land limb_mask and c14 = c14 + (c13 lsr 29) in
  let r5 = c14 land limb_mask and c15 = c15 + (c14 lsr 29) in
  let r6 = c15 land limb_mask and c16 = c16 + (c15 lsr 29) in
  store_reduced dst p_limbs r0 r1 r2 r3 r4 r5 r6 (c16 land limb_mask) (c16 lsr 29)


(* Generic reduction (the scalar ring mod n): normalise the product to
   29-bit limbs, then 9 rows of q = c_i n0 mod beta, c += q m beta^i. *)
let redc r dst c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16 =
  let m = r.m and n0 = r.n0 in
  let m0 = g m 0 and m1 = g m 1 and m2 = g m 2 and m3 = g m 3 and m4 = g m 4
  and m5 = g m 5 and m6 = g m 6 and m7 = g m 7 and m8 = g m 8 in
  let c0 = c0 land limb_mask and c1 = c1 + (c0 lsr 29) in
  let c1 = c1 land limb_mask and c2 = c2 + (c1 lsr 29) in
  let c2 = c2 land limb_mask and c3 = c3 + (c2 lsr 29) in
  let c3 = c3 land limb_mask and c4 = c4 + (c3 lsr 29) in
  let c4 = c4 land limb_mask and c5 = c5 + (c4 lsr 29) in
  let c5 = c5 land limb_mask and c6 = c6 + (c5 lsr 29) in
  let c6 = c6 land limb_mask and c7 = c7 + (c6 lsr 29) in
  let c7 = c7 land limb_mask and c8 = c8 + (c7 lsr 29) in
  let c8 = c8 land limb_mask and c9 = c9 + (c8 lsr 29) in
  let c9 = c9 land limb_mask and c10 = c10 + (c9 lsr 29) in
  let c10 = c10 land limb_mask and c11 = c11 + (c10 lsr 29) in
  let c11 = c11 land limb_mask and c12 = c12 + (c11 lsr 29) in
  let c12 = c12 land limb_mask and c13 = c13 + (c12 lsr 29) in
  let c13 = c13 land limb_mask and c14 = c14 + (c13 lsr 29) in
  let c14 = c14 land limb_mask and c15 = c15 + (c14 lsr 29) in
  let c15 = c15 land limb_mask and c16 = c16 + (c15 lsr 29) in
  let c16 = c16 land limb_mask and c17 = c16 lsr 29 in
  let q = (c0 * n0) land limb_mask in
  let c1 = c1 + (q * m1) + ((c0 + (q * m0)) lsr 29)
  and c2 = c2 + (q * m2)
  and c3 = c3 + (q * m3)
  and c4 = c4 + (q * m4)
  and c5 = c5 + (q * m5)
  and c6 = c6 + (q * m6)
  and c7 = c7 + (q * m7)
  and c8 = c8 + (q * m8) in
  let q = (c1 * n0) land limb_mask in
  let c2 = c2 + (q * m1) + ((c1 + (q * m0)) lsr 29)
  and c3 = c3 + (q * m2)
  and c4 = c4 + (q * m3)
  and c5 = c5 + (q * m4)
  and c6 = c6 + (q * m5)
  and c7 = c7 + (q * m6)
  and c8 = c8 + (q * m7)
  and c9 = c9 + (q * m8) in
  let q = (c2 * n0) land limb_mask in
  let c3 = c3 + (q * m1) + ((c2 + (q * m0)) lsr 29)
  and c4 = c4 + (q * m2)
  and c5 = c5 + (q * m3)
  and c6 = c6 + (q * m4)
  and c7 = c7 + (q * m5)
  and c8 = c8 + (q * m6)
  and c9 = c9 + (q * m7)
  and c10 = c10 + (q * m8) in
  let q = (c3 * n0) land limb_mask in
  let c4 = c4 + (q * m1) + ((c3 + (q * m0)) lsr 29)
  and c5 = c5 + (q * m2)
  and c6 = c6 + (q * m3)
  and c7 = c7 + (q * m4)
  and c8 = c8 + (q * m5)
  and c9 = c9 + (q * m6)
  and c10 = c10 + (q * m7)
  and c11 = c11 + (q * m8) in
  let q = (c4 * n0) land limb_mask in
  let c5 = c5 + (q * m1) + ((c4 + (q * m0)) lsr 29)
  and c6 = c6 + (q * m2)
  and c7 = c7 + (q * m3)
  and c8 = c8 + (q * m4)
  and c9 = c9 + (q * m5)
  and c10 = c10 + (q * m6)
  and c11 = c11 + (q * m7)
  and c12 = c12 + (q * m8) in
  let q = (c5 * n0) land limb_mask in
  let c6 = c6 + (q * m1) + ((c5 + (q * m0)) lsr 29)
  and c7 = c7 + (q * m2)
  and c8 = c8 + (q * m3)
  and c9 = c9 + (q * m4)
  and c10 = c10 + (q * m5)
  and c11 = c11 + (q * m6)
  and c12 = c12 + (q * m7)
  and c13 = c13 + (q * m8) in
  let q = (c6 * n0) land limb_mask in
  let c7 = c7 + (q * m1) + ((c6 + (q * m0)) lsr 29)
  and c8 = c8 + (q * m2)
  and c9 = c9 + (q * m3)
  and c10 = c10 + (q * m4)
  and c11 = c11 + (q * m5)
  and c12 = c12 + (q * m6)
  and c13 = c13 + (q * m7)
  and c14 = c14 + (q * m8) in
  let q = (c7 * n0) land limb_mask in
  let c8 = c8 + (q * m1) + ((c7 + (q * m0)) lsr 29)
  and c9 = c9 + (q * m2)
  and c10 = c10 + (q * m3)
  and c11 = c11 + (q * m4)
  and c12 = c12 + (q * m5)
  and c13 = c13 + (q * m6)
  and c14 = c14 + (q * m7)
  and c15 = c15 + (q * m8) in
  let q = (c8 * n0) land limb_mask in
  let c9 = c9 + (q * m1) + ((c8 + (q * m0)) lsr 29)
  and c10 = c10 + (q * m2)
  and c11 = c11 + (q * m3)
  and c12 = c12 + (q * m4)
  and c13 = c13 + (q * m5)
  and c14 = c14 + (q * m6)
  and c15 = c15 + (q * m7)
  and c16 = c16 + (q * m8) in
  let r0 = c9 land limb_mask and c10 = c10 + (c9 lsr 29) in
  let r1 = c10 land limb_mask and c11 = c11 + (c10 lsr 29) in
  let r2 = c11 land limb_mask and c12 = c12 + (c11 lsr 29) in
  let r3 = c12 land limb_mask and c13 = c13 + (c12 lsr 29) in
  let r4 = c13 land limb_mask and c14 = c14 + (c13 lsr 29) in
  let r5 = c14 land limb_mask and c15 = c15 + (c14 lsr 29) in
  let r6 = c15 land limb_mask and c16 = c16 + (c15 lsr 29) in
  store_reduced dst m r0 r1 r2 r3 r4 r5 r6 (c16 land limb_mask) ((c16 lsr 29) + c17)

(* [dst] may alias [a] and/or [b]: every operand limb is read before
   the first store. *)
let mul_into r dst a b =
  let a0 = g a 0 and a1 = g a 1 and a2 = g a 2 and a3 = g a 3 and a4 = g a 4
  and a5 = g a 5 and a6 = g a 6 and a7 = g a 7 and a8 = g a 8 in
  let b0 = g b 0 and b1 = g b 1 and b2 = g b 2 and b3 = g b 3 and b4 = g b 4
  and b5 = g b 5 and b6 = g b 6 and b7 = g b 7 and b8 = g b 8 in
  let c0 = a0 * b0 in
  let c1 = (a0 * b1) + (a1 * b0) in
  let c2 = (a0 * b2) + (a1 * b1) + (a2 * b0) in
  let c3 = (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0) in
  let c4 = (a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0) in
  let c5 = (a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1) + (a5 * b0) in
  let c6 = (a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2) + (a5 * b1) + (a6 * b0) in
  let c7 = (a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4)
    + (a4 * b3) + (a5 * b2) + (a6 * b1) + (a7 * b0) in
  let c8 = (a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5)
    + (a4 * b4) + (a5 * b3) + (a6 * b2) + (a7 * b1) + (a8 * b0) in
  let c9 = (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5)
    + (a5 * b4) + (a6 * b3) + (a7 * b2) + (a8 * b1) in
  let c10 = (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5) + (a6 * b4) + (a7 * b3) + (a8 * b2) in
  let c11 = (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5) + (a7 * b4) + (a8 * b3) in
  let c12 = (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5) + (a8 * b4) in
  let c13 = (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5) in
  let c14 = (a6 * b8) + (a7 * b7) + (a8 * b6) in
  let c15 = (a7 * b8) + (a8 * b7) in
  let c16 = a8 * b8 in
  if r.p256 then redc_p dst c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16
  else redc r dst c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16

(* Squaring computes each cross product once, against a doubled limb. *)
let sqr_into r dst a =
  let a0 = g a 0 and a1 = g a 1 and a2 = g a 2 and a3 = g a 3 and a4 = g a 4
  and a5 = g a 5 and a6 = g a 6 and a7 = g a 7 and a8 = g a 8 in
  let d0 = a0 lsl 1 and d1 = a1 lsl 1 and d2 = a2 lsl 1 and d3 = a3 lsl 1 and d4 = a4 lsl 1
  and d5 = a5 lsl 1 and d6 = a6 lsl 1 and d7 = a7 lsl 1 in
  let c0 = a0 * a0 in
  let c1 = d0 * a1 in
  let c2 = (d0 * a2) + (a1 * a1) in
  let c3 = (d0 * a3) + (d1 * a2) in
  let c4 = (d0 * a4) + (d1 * a3) + (a2 * a2) in
  let c5 = (d0 * a5) + (d1 * a4) + (d2 * a3) in
  let c6 = (d0 * a6) + (d1 * a5) + (d2 * a4) + (a3 * a3) in
  let c7 = (d0 * a7) + (d1 * a6) + (d2 * a5) + (d3 * a4) in
  let c8 = (d0 * a8) + (d1 * a7) + (d2 * a6) + (d3 * a5) + (a4 * a4) in
  let c9 = (d1 * a8) + (d2 * a7) + (d3 * a6) + (d4 * a5) in
  let c10 = (d2 * a8) + (d3 * a7) + (d4 * a6) + (a5 * a5) in
  let c11 = (d3 * a8) + (d4 * a7) + (d5 * a6) in
  let c12 = (d4 * a8) + (d5 * a7) + (a6 * a6) in
  let c13 = (d5 * a8) + (d6 * a7) in
  let c14 = (d6 * a8) + (a7 * a7) in
  let c15 = d7 * a8 in
  let c16 = a8 * a8 in
  if r.p256 then redc_p dst c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16
  else redc r dst c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16

let add_into r dst a b =
  let c = ref 0 in
  for i = 0 to limbs - 1 do
    let v = g a i + g b i + !c in
    s dst i (v land limb_mask);
    c := v lsr limb_bits
  done;
  (* a + b < 2m < 2^257 leaves no carry out of limb 8 *)
  if ge dst r.m then sub_in_place dst r.m

let sub_into r dst a b =
  let borrow = ref 0 in
  for i = 0 to limbs - 1 do
    let d = g a i - g b i - !borrow in
    s dst i (d land limb_mask);
    borrow := -(d asr limb_bits)
  done;
  if !borrow <> 0 then begin
    let c = ref 0 in
    for i = 0 to limbs - 1 do
      let v = g dst i + g r.m i + !c in
      s dst i (v land limb_mask);
      c := v lsr limb_bits
    done
  end

let copy_into dst a = Array.blit a 0 dst 0 limbs
let zero _ = Array.make limbs 0
let one r = Array.copy r.one_m
let copy = Array.copy

(* Element i of a vector is limbs [9i, 9i + 9) of one flat array. *)
type vec = int array

let vec n = Array.make (limbs * n) 0
let length v = Array.length v / limbs

(* Explicit int loops: [Array.blit] would not know the arrays hold only
   ints and would go through the write barrier for every limb of a
   vector that lives in the major heap. *)
let check v i = if i < 0 || limbs * (i + 1) > Array.length v then invalid_arg "Fe256: vector index"

let get_into dst v i =
  check v i;
  let o = limbs * i in
  for k = 0 to limbs - 1 do
    s dst k (g v (o + k))
  done

let get v i =
  let d = Array.make limbs 0 in
  get_into d v i;
  d

let set v i a =
  check v i;
  let o = limbs * i in
  for k = 0 to limbs - 1 do
    s v (o + k) (g a k)
  done

let mul r a b =
  let d = Array.make limbs 0 in
  mul_into r d a b;
  d

let sqr r a =
  let d = Array.make limbs 0 in
  sqr_into r d a;
  d

let add r a b =
  let d = Array.make limbs 0 in
  add_into r d a b;
  d

let sub r a b =
  let d = Array.make limbs 0 in
  sub_into r d a b;
  d

let is_zero a =
  let acc = ref 0 in
  for i = 0 to limbs - 1 do
    acc := !acc lor g a i
  done;
  !acc = 0

let equal a b =
  let acc = ref 0 in
  for i = 0 to limbs - 1 do
    acc := !acc lor (g a i lxor g b i)
  done;
  !acc = 0

(* Big-endian 4-bit digits of e, most significant first. *)
let digits_of_bn e =
  let bytes = Bn.to_bytes_be ~len:32 e in
  Array.init 64 (fun i ->
      let b = Char.code bytes.[i lsr 1] in
      if i land 1 = 0 then b lsr 4 else b land 0xf)

let create m_bn =
  if Bn.is_zero m_bn || not (Bn.testbit m_bn 0) then
    invalid_arg "Fe256.create: modulus must be odd";
  if Bn.bit_length m_bn > 256 || Bn.compare m_bn (Bn.of_int 3) < 0 then
    invalid_arg "Fe256.create: modulus out of range";
  let m = limbs_of_bn m_bn in
  let m0 = m.(0) in
  (* Newton's iteration doubles the valid bit-width each round:
     odd m0 is its own inverse mod 8, so 5 rounds cover 29 bits. *)
  let inv = ref m0 in
  for _ = 1 to 5 do
    let p = (m0 * !inv) land limb_mask in
    inv := (!inv * (2 - p)) land limb_mask
  done;
  let n0 = ((1 lsl limb_bits) - !inv) land limb_mask in
  let mont_bits = limbs * limb_bits in
  let r2 = limbs_of_bn (Bn.mod_ (Bn.shift_left Bn.one (2 * mont_bits)) m_bn) in
  let one_m = limbs_of_bn (Bn.mod_ (Bn.shift_left Bn.one mont_bits) m_bn) in
  {
    m;
    m_bn;
    n0;
    p256 = m = p_limbs;
    r2;
    one_m;
    inv_digits = digits_of_bn (Bn.sub m_bn (Bn.of_int 2));
  }

let modulus r = r.m_bn

let of_bn r v =
  let v = if Bn.compare v r.m_bn >= 0 then Bn.mod_ v r.m_bn else v in
  let a = limbs_of_bn v in
  mul_into r a a r.r2;
  a

let of_int r i = of_bn r (Bn.of_int i)

let to_bn r a =
  let o = Array.make limbs 0 in
  o.(0) <- 1;
  mul_into r o a o;
  bn_of_limbs o

(* dst <- a^(2^k), k >= 1 *)
let sqr_n_into r dst a k =
  sqr_into r dst a;
  for _ = 2 to k do
    sqr_into r dst dst
  done

(* a^(p-2) by the standard addition chain for the P-256 prime (255
   squarings and 12 products, as in Go's fiat-crypto P-256); names give
   the exponent in binary, or xN for N one bits. *)
let inv_p r a =
  let x11 = sqr r a in
  mul_into r x11 x11 a;
  let x111 = sqr r x11 in
  mul_into r x111 x111 a;
  let x6 = Array.make limbs 0 in
  sqr_n_into r x6 x111 3;
  mul_into r x6 x6 x111;
  let x12 = Array.make limbs 0 in
  sqr_n_into r x12 x6 6;
  mul_into r x12 x12 x6;
  let x15 = x6 in
  sqr_n_into r x15 x12 3;
  mul_into r x15 x15 x111;
  let x16 = x111 in
  sqr_into r x16 x15;
  mul_into r x16 x16 a;
  let x32 = x12 in
  sqr_n_into r x32 x16 16;
  mul_into r x32 x32 x16;
  let i53 = x11 in
  sqr_n_into r i53 x32 15;
  let x47 = x16 in
  mul_into r x47 x15 i53;
  let t = x32 in
  sqr_n_into r t i53 17;
  mul_into r t t a;
  sqr_n_into r t t 143;
  mul_into r t t x47;
  sqr_n_into r t t 47;
  mul_into r t t x47;
  sqr_n_into r t t 2;
  mul_into r t t a;
  t

(* a^e for e given as big-endian 4-bit digits: a fixed 4-bit window,
   4 squarings and at most one product per digit. *)
let pow_digits r a digits =
  let tbl = Array.make 15 a in
  for d = 1 to 14 do
    tbl.(d) <- mul r tbl.(d - 1) a
  done;
  let res = Array.copy r.one_m in
  Array.iteri
    (fun i d ->
      if i > 0 then sqr_n_into r res res 4;
      if d > 0 then mul_into r res res tbl.(d - 1))
    digits;
  res

(* Fermat inversion a^(m-2): valid for the prime moduli we use (the
   P-256 field prime and group order). *)
let inv r a = if r.p256 then inv_p r a else pow_digits r a r.inv_digits
