(* Little-endian limbs in base 2^26, normalized: the most significant
   limb is non-zero and zero is the empty array. 26-bit limbs keep
   products (52 bits) plus long accumulation carries well inside the
   63-bit native int. *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let is_zero a = Array.length a = 0

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bn.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n land limb_mask) :: limbs (n lsr limb_bits) in
  Array.of_list (limbs n)

let one = of_int 1

let to_int a =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((acc lsl limb_bits) lor a.(i))
  in
  let n = Array.length a in
  let bits = if n = 0 then 0 else (n - 1) * limb_bits + (let rec w k = if a.(n-1) lsr k = 0 then k else w (k+1) in w 0) in
  if bits > 62 then invalid_arg "Bn.to_int: too large";
  go (n - 1) 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0
let limb_count a = Array.length a

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  normalize out

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if compare a b < 0 then invalid_arg "Bn.sub: underflow";
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let t = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      (* Propagate the final carry; it may itself exceed one limb. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = out.(!k) + !carry in
        out.(!k) <- t land limb_mask;
        carry := t lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else
    let top = a.(n - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((n - 1) * limb_bits) + width 0

let testbit a i =
  let limb = i / limb_bits and bit = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr bit) land 1 = 1

let shift_left_limbs a k =
  if is_zero a || k = 0 then a else Array.append (Array.make k 0) a

let shift_right_limbs a k =
  let n = Array.length a in
  if k >= n then zero else Array.sub a k (n - k)

let truncate_limbs a k = normalize (if Array.length a <= k then a else Array.sub a 0 k)

let shift_left a bits =
  if is_zero a then zero
  else begin
    let limbs = bits / limb_bits and rem = bits mod limb_bits in
    let base = shift_left_limbs a limbs in
    if rem = 0 then base
    else begin
      let n = Array.length base in
      let out = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        let v = base.(i) lsl rem in
        out.(i) <- out.(i) lor (v land limb_mask);
        out.(i + 1) <- v lsr limb_bits
      done;
      normalize out
    end
  end

let shift_right a bits =
  let limbs = bits / limb_bits and rem = bits mod limb_bits in
  let base = shift_right_limbs a limbs in
  if rem = 0 then base
  else begin
    let n = Array.length base in
    let out = Array.make n 0 in
    for i = 0 to n - 1 do
      let lo = base.(i) lsr rem in
      let hi = if i + 1 < n then (base.(i + 1) lsl (limb_bits - rem)) land limb_mask else 0 in
      out.(i) <- lo lor hi
    done;
    normalize out
  end

(* Binary long division: walk the dividend bits from most significant to
   least, maintaining the running remainder. O(bits * limbs); fine for
   the <=521-bit operands this library sees. *)
let div_mod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let bits = bit_length a in
    let q = Array.make (Array.length a) 0 in
    let r = ref zero in
    for i = bits - 1 downto 0 do
      let shifted = shift_left !r 1 in
      let shifted = if testbit a i then add shifted one else shifted in
      if compare shifted b >= 0 then begin
        r := sub shifted b;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
      else r := shifted
    done;
    (normalize q, !r)
  end

let mod_ a b = snd (div_mod a b)

(* Bytes straight into limbs, least significant byte first. *)
let of_bytes_be s =
  let n = String.length s in
  let out = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and bits = ref 0 and li = ref 0 in
  for i = n - 1 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      out.(!li) <- !acc land limb_mask;
      incr li;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits
    end
  done;
  if !bits > 0 then out.(!li) <- !acc;
  normalize out

let to_bytes_be ~len a =
  if bit_length a > 8 * len then invalid_arg "Bn.to_bytes_be: value too large";
  String.init len (fun i ->
      let bit = 8 * (len - 1 - i) in
      let limb = bit / limb_bits and off = bit mod limb_bits in
      let lo = if limb < Array.length a then a.(limb) lsr off else 0 in
      let hi =
        if off > limb_bits - 8 && limb + 1 < Array.length a then
          a.(limb + 1) lsl (limb_bits - off)
        else 0
      in
      Char.chr ((lo lor hi) land 0xff))

let of_hex h =
  let h = if String.length h mod 2 = 1 then "0" ^ h else h in
  of_bytes_be (Watz_util.Hex.decode h)

let to_hex a =
  if is_zero a then "0"
  else
    let len = (bit_length a + 7) / 8 in
    let s = Watz_util.Hex.encode (to_bytes_be ~len a) in
    (* Strip at most one leading zero digit introduced by byte padding. *)
    if String.length s > 1 && s.[0] = '0' then String.sub s 1 (String.length s - 1) else s

let pp ppf a = Format.pp_print_string ppf (to_hex a)
