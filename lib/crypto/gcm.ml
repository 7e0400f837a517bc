(* AES-GCM as one fused pass: CTR and GHASH per 16-byte block.

   128-bit values are 4 big-endian 32-bit words in native ints. Each
   block is read as four words, xored with the counter's keystream words
   from Aes.encrypt_words, written out, and its ciphertext words go
   straight into the GHASH accumulator; nothing is allocated per block.

   GHASH is Shoup's 4-bit method: per key, a 16-entry table of nibble
   multiples of the hash subkey H turns each block product into 32
   shift-and-xor steps instead of 128 conditional bit steps; the rem4
   table folds the four bits shifted out of the reflected polynomial
   back in (coefficients of 0xE1 = x^128 + x^7 + x^2 + x + 1). *)

let mask32 = 0xffffffff

let rem4 =
  [| 0x0000; 0x1c20; 0x3840; 0x2460; 0x7080; 0x6ca0; 0x48c0; 0x54e0;
     0xe100; 0xfd20; 0xd940; 0xc560; 0x9180; 0x8da0; 0xa9c0; 0xb5e0 |]

external g : int array -> int -> int = "%array_unsafe_get"

(* Flat 16x4 table: entry j at t.(4j .. 4j+3) is (j as a 4-bit
   polynomial) * H, most significant word first. *)
type hkey = int array

(* Big-endian word at [off], reading bytes past the end as zero: the
   zero padding of a part's last block. *)
let word_of s off =
  let get i = if off + i < String.length s then Char.code s.[off + i] else 0 in
  (get 0 lsl 24) lor (get 1 lsl 16) lor (get 2 lsl 8) lor get 3

(* Multiply by x in the reflected representation: shift right one bit,
   folding the dropped bit back via the 0xE1 reduction byte. *)
let mul_x w =
  let lsb = w.(3) land 1 in
  w.(3) <- (w.(3) lsr 1) lor ((w.(2) land 1) lsl 31);
  w.(2) <- (w.(2) lsr 1) lor ((w.(1) land 1) lsl 31);
  w.(1) <- (w.(1) lsr 1) lor ((w.(0) land 1) lsl 31);
  w.(0) <- (w.(0) lsr 1) lxor (lsb * 0xe1000000)

(* [w] holds the words of H and is consumed. *)
let build_htab w =
  let t = Array.make 64 0 in
  let set j = Array.blit w 0 t (4 * j) 4 in
  (* bit 3 of a nibble is the x^0 coefficient: entry 8 is H itself,
     entries 4, 2, 1 are H*x, H*x^2, H*x^3. *)
  set 8;
  mul_x w;
  set 4;
  mul_x w;
  set 2;
  mul_x w;
  set 1;
  List.iter
    (fun i ->
      for j = 1 to i - 1 do
        for k = 0 to 3 do
          t.((4 * (i + j)) + k) <- t.((4 * i) + k) lxor t.((4 * j) + k)
        done
      done)
    [ 2; 4; 8 ];
  t

(* z <- z * H. The nibbles of z are consumed most-reduced-first (w
   holds what is left of the current word) while the product
   accumulates in four locals; z is only overwritten at the end, so
   reading and accumulating never alias. Every index is a nibble times
   four, in bounds of the 64-entry table; z always has four words. *)
let gmul (t : hkey) (z : int array) =
  let d0 = 4 * (g z 3 land 0xf) in
  let z0 = ref (g t d0) and z1 = ref (g t (d0 + 1)) in
  let z2 = ref (g t (d0 + 2)) and z3 = ref (g t (d0 + 3)) in
  let w = ref (g z 3 lsr 4) and left = ref 7 and word = ref 3 in
  for _ = 1 to 31 do
    if !left = 0 then begin
      decr word;
      w := g z !word;
      left := 8
    end;
    let rem = !z3 land 0xf in
    z3 := (!z3 lsr 4) lor ((!z2 land 0xf) lsl 28);
    z2 := (!z2 lsr 4) lor ((!z1 land 0xf) lsl 28);
    z1 := (!z1 lsr 4) lor ((!z0 land 0xf) lsl 28);
    z0 := (!z0 lsr 4) lxor (g rem4 rem lsl 16);
    let d = 4 * (!w land 0xf) in
    w := !w lsr 4;
    decr left;
    z0 := !z0 lxor g t d;
    z1 := !z1 lxor g t (d + 1);
    z2 := !z2 lxor g t (d + 2);
    z3 := !z3 lxor g t (d + 3)
  done;
  z.(0) <- !z0;
  z.(1) <- !z1;
  z.(2) <- !z2;
  z.(3) <- !z3

(* Absorb a part as zero-padded 16-byte blocks, like the reference
   GHASH does per data part. *)
let ghash_absorb t z s =
  for i = 0 to ((String.length s + 15) / 16) - 1 do
    let base = 16 * i in
    z.(0) <- z.(0) lxor word_of s base;
    z.(1) <- z.(1) lxor word_of s (base + 4);
    z.(2) <- z.(2) lxor word_of s (base + 8);
    z.(3) <- z.(3) lxor word_of s (base + 12);
    gmul t z
  done

(* The closing block: bit lengths of the AAD and the ciphertext. *)
let absorb_lengths t z aad_len ct_len =
  z.(0) <- z.(0) lxor ((8 * aad_len) lsr 32);
  z.(1) <- z.(1) lxor ((8 * aad_len) land mask32);
  z.(2) <- z.(2) lxor ((8 * ct_len) lsr 32);
  z.(3) <- z.(3) lxor ((8 * ct_len) land mask32);
  gmul t z

let ghash_bytes ~h parts =
  let t = build_htab [| word_of h 0; word_of h 4; word_of h 8; word_of h 12 |] in
  let z = Array.make 4 0 in
  List.iter (ghash_absorb t z) parts;
  Aes.string_of_words z

(* A prepared key: the expanded AES schedule and the H table. *)
type key = { aes : Aes.key; htab : hkey }

let prepare k =
  let aes = Aes.expand_key k in
  let h = Array.make 4 0 in
  Aes.encrypt_words aes 0 0 0 0 h;
  { aes; htab = build_htab h }

let j0_of t iv =
  if String.length iv = 12 then [| Aes.word_at iv 0; Aes.word_at iv 4; Aes.word_at iv 8; 1 |]
  else begin
    if String.length iv = 0 then invalid_arg "Gcm: empty IV";
    let z = Array.make 4 0 in
    ghash_absorb t z iv;
    absorb_lengths t z 0 (String.length iv);
    z
  end

(* out <- input xor keystream, while z absorbs the ciphertext: the
   output when encrypting, the input when decrypting. The counter is
   inc32: only its low word steps, mod 2^32. *)
let crypt { aes; htab = t } j0 z ~decrypt input out =
  let len = String.length input in
  let ks = Array.make 4 0 in
  let c0 = j0.(0) and c1 = j0.(1) and c2 = j0.(2) and ctr = ref j0.(3) in
  for i = 0 to (len / 16) - 1 do
    let off = 16 * i in
    ctr := (!ctr + 1) land mask32;
    Aes.encrypt_words aes c0 c1 c2 !ctr ks;
    let i0 = Aes.word_at input off and i1 = Aes.word_at input (off + 4) in
    let i2 = Aes.word_at input (off + 8) and i3 = Aes.word_at input (off + 12) in
    let o0 = i0 lxor ks.(0) and o1 = i1 lxor ks.(1) in
    let o2 = i2 lxor ks.(2) and o3 = i3 lxor ks.(3) in
    Bytes.set_int32_be out off (Int32.of_int o0);
    Bytes.set_int32_be out (off + 4) (Int32.of_int o1);
    Bytes.set_int32_be out (off + 8) (Int32.of_int o2);
    Bytes.set_int32_be out (off + 12) (Int32.of_int o3);
    if decrypt then begin
      z.(0) <- z.(0) lxor i0;
      z.(1) <- z.(1) lxor i1;
      z.(2) <- z.(2) lxor i2;
      z.(3) <- z.(3) lxor i3
    end
    else begin
      z.(0) <- z.(0) lxor o0;
      z.(1) <- z.(1) lxor o1;
      z.(2) <- z.(2) lxor o2;
      z.(3) <- z.(3) lxor o3
    end;
    gmul t z
  done;
  let tail = len land 15 in
  if tail > 0 then begin
    let off = len - tail in
    ctr := (!ctr + 1) land mask32;
    Aes.encrypt_words aes c0 c1 c2 !ctr ks;
    for k = 0 to 3 do
      let x = word_of input (off + (4 * k)) in
      let valid = max 0 (min 4 (tail - (4 * k))) in
      let o = (x lxor ks.(k)) land ((mask32 lsl (8 * (4 - valid))) land mask32) in
      for j = 0 to valid - 1 do
        Bytes.set out (off + (4 * k) + j) (Char.unsafe_chr ((o lsr (8 * (3 - j))) land 0xff))
      done;
      z.(k) <- z.(k) lxor (if decrypt then x else o)
    done;
    gmul t z
  end

(* The output and the 16-byte tag E(K, J0) xor GHASH(A, C, lengths). *)
let run ({ aes; htab = t } as key) ~iv ~aad ~decrypt input =
  let j0 = j0_of t iv in
  let z = Array.make 4 0 in
  ghash_absorb t z aad;
  let out = Bytes.create (String.length input) in
  crypt key j0 z ~decrypt input out;
  absorb_lengths t z (String.length aad) (String.length input);
  let ek = Array.make 4 0 in
  Aes.encrypt_words aes j0.(0) j0.(1) j0.(2) j0.(3) ek;
  for i = 0 to 3 do
    z.(i) <- z.(i) lxor ek.(i)
  done;
  (out, Aes.string_of_words z)

let encrypt_with key ~iv ?(aad = "") plaintext =
  let ct, tag = run key ~iv ~aad ~decrypt:false plaintext in
  (Bytes.unsafe_to_string ct, tag)

let decrypt_with key ~iv ?(aad = "") ~tag ciphertext =
  let plain, expected = run key ~iv ~aad ~decrypt:true ciphertext in
  (* Constant-time-style comparison: accumulate differences. *)
  let diff = ref (String.length tag lxor 16) in
  String.iteri
    (fun i c -> if i < 16 then diff := !diff lor (Char.code c lxor Char.code expected.[i]))
    tag;
  if !diff = 0 then Some (Bytes.unsafe_to_string plain)
  else begin
    (* The plaintext of a forged message never leaves this function. *)
    Bytes.fill plain 0 (Bytes.length plain) '\000';
    None
  end

let encrypt ~key ~iv ?aad plaintext = encrypt_with (prepare key) ~iv ?aad plaintext
let decrypt ~key ~iv ?aad ~tag ciphertext = decrypt_with (prepare key) ~iv ?aad ~tag ciphertext
