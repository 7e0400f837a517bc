(* FIPS 197 on 32-bit words held in native ints.

   A block is four big-endian column words. One round is the T-table
   form: te0.(x) is the MixColumns column (2s, s, s, 3s) of s = S(x),
   and te1..te3 are its byte rotations, so SubBytes, ShiftRows and
   MixColumns collapse into sixteen lookups and xors. The state lives in
   four locals and the schedule is a flat word array, so a block
   allocates nothing. *)

let mask32 = 0xffffffff

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x1b) land 0xff else b

(* GF(2^8) multiplication with the AES polynomial x^8+x^4+x^3+x+1. *)
let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else go (xtime a) (b lsr 1) (if b land 1 = 1 then acc lxor a else acc)
  in
  go a b 0

(* The S-box is the GF inverse followed by the FIPS affine transform
   b ^ rot1(b) ^ rot2(b) ^ rot3(b) ^ rot4(b) ^ 0x63. *)
let sbox =
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gmul a b = 1 then inv.(a) <- b
    done
  done;
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  Array.map (fun b -> b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63) inv

let ror8 w = (w lsr 8) lor ((w land 0xff) lsl 24)

let te0 =
  Array.map (fun s -> (xtime s lsl 24) lor (s lsl 16) lor (s lsl 8) lor (xtime s lxor s)) sbox

let te1 = Array.map ror8 te0
let te2 = Array.map ror8 te1
let te3 = Array.map ror8 te2

external g : int array -> int -> int = "%array_unsafe_get"

type key = { rounds : int; rk : int array (* 4 * (rounds + 1) words *) }

let word_at s off = Int32.to_int (String.get_int32_be s off) land mask32

let sub_word w =
  (sbox.(w lsr 24) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let expand_key key_bytes =
  let nk =
    match String.length key_bytes with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | _ -> invalid_arg "Aes.expand_key: key must be 16, 24 or 32 bytes"
  in
  let rounds = nk + 6 in
  let rk = Array.make (4 * (rounds + 1)) 0 in
  for i = 0 to nk - 1 do
    rk.(i) <- word_at key_bytes (4 * i)
  done;
  let rcon = ref 1 in
  for i = nk to Array.length rk - 1 do
    let t = rk.(i - 1) in
    let t =
      if i mod nk = 0 then begin
        (* RotWord then SubWord then Rcon. *)
        let t = sub_word (((t lsl 8) lor (t lsr 24)) land mask32) lxor (!rcon lsl 24) in
        rcon := xtime !rcon;
        t
      end
      else if nk > 6 && i mod nk = 4 then sub_word t
      else t
    in
    rk.(i) <- rk.(i - nk) lxor t
  done;
  { rounds; rk }

(* One output column of a full round: the four T-table lookups of the
   shifted rows, xored with round-key word [k]. *)
let column rk a b c d k =
  g te0 (a lsr 24)
  lxor g te1 ((b lsr 16) land 0xff)
  lxor g te2 ((c lsr 8) land 0xff)
  lxor g te3 (d land 0xff)
  lxor g rk k

(* The last round has no MixColumns: plain S-box bytes of shifted rows. *)
let last rk a b c d k =
  (g sbox (a lsr 24) lsl 24)
  lor (g sbox ((b lsr 16) land 0xff) lsl 16)
  lor (g sbox ((c lsr 8) land 0xff) lsl 8)
  lor g sbox (d land 0xff)
  lxor g rk k

(* Every table index is a byte of a word below 2^32: the inputs are
   masked on entry and the tables and schedule hold 32-bit words, so the
   unchecked reads stay in bounds. *)
let encrypt_words { rounds; rk } x0 x1 x2 x3 dst =
  let s0 = ref ((x0 land mask32) lxor g rk 0) in
  let s1 = ref ((x1 land mask32) lxor g rk 1) in
  let s2 = ref ((x2 land mask32) lxor g rk 2) in
  let s3 = ref ((x3 land mask32) lxor g rk 3) in
  for r = 1 to rounds - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and k = 4 * r in
    s0 := column rk a0 a1 a2 a3 k;
    s1 := column rk a1 a2 a3 a0 (k + 1);
    s2 := column rk a2 a3 a0 a1 (k + 2);
    s3 := column rk a3 a0 a1 a2 (k + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and k = 4 * rounds in
  dst.(0) <- last rk a0 a1 a2 a3 k;
  dst.(1) <- last rk a1 a2 a3 a0 (k + 1);
  dst.(2) <- last rk a2 a3 a0 a1 (k + 2);
  dst.(3) <- last rk a3 a0 a1 a2 (k + 3)

let string_of_words w =
  let b = Bytes.create 16 in
  for i = 0 to 3 do
    Bytes.set_int32_be b (4 * i) (Int32.of_int w.(i))
  done;
  Bytes.unsafe_to_string b

let encrypt_block key block =
  if String.length block <> 16 then invalid_arg "Aes: block must be 16 bytes";
  let w = Array.make 4 0 in
  encrypt_words key (word_at block 0) (word_at block 4) (word_at block 8) (word_at block 12) w;
  string_of_words w
