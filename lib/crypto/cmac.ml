(* AES-CMAC on the word core: the chaining value is four big-endian
   words, each message block is xored in as words read straight from
   the message, and K1/K2 are held as words, so no block allocates. *)

let mask32 = 0xffffffff

(* Subkey doubling: shift the 128-bit value left one bit and fold the
   carry back in with 0x87. *)
let double w =
  [| ((w.(0) lsl 1) lor (w.(1) lsr 31)) land mask32;
     ((w.(1) lsl 1) lor (w.(2) lsr 31)) land mask32;
     ((w.(2) lsl 1) lor (w.(3) lsr 31)) land mask32;
     ((w.(3) lsl 1) land mask32) lxor (0x87 * (w.(0) lsr 31)) |]

(* Prepared key: the expanded AES schedule and both subkeys, derived
   once instead of per call (the Kdf derives several labels under one
   KDK; the protocol MACs every message under K_m). *)
type key = { aes : Aes.key; k1 : int array; k2 : int array }

let prepare k =
  if String.length k <> 16 then invalid_arg "Cmac.prepare: key must be 16 bytes";
  let aes = Aes.expand_key k in
  let l = Array.make 4 0 in
  Aes.encrypt_words aes 0 0 0 0 l;
  let k1 = double l in
  { aes; k1; k2 = double k1 }

(* Byte [j] of the last block after 10* padding; [rem] bytes of the
   message remain from [off]. *)
let pad_byte msg off rem j =
  if j < rem then Char.code (String.unsafe_get msg (off + j)) else if j = rem then 0x80 else 0

let padded_word msg off rem k =
  let j = 4 * k in
  (pad_byte msg off rem j lsl 24)
  lor (pad_byte msg off rem (j + 1) lsl 16)
  lor (pad_byte msg off rem (j + 2) lsl 8)
  lor pad_byte msg off rem (j + 3)

let mac_with { aes; k1; k2 } msg =
  let len = String.length msg in
  let n_blocks = if len = 0 then 1 else (len + 15) / 16 in
  let x = Array.make 4 0 in
  for i = 0 to n_blocks - 2 do
    let off = 16 * i in
    Aes.encrypt_words aes
      (x.(0) lxor Aes.word_at msg off)
      (x.(1) lxor Aes.word_at msg (off + 4))
      (x.(2) lxor Aes.word_at msg (off + 8))
      (x.(3) lxor Aes.word_at msg (off + 12))
      x
  done;
  let off = 16 * (n_blocks - 1) in
  let rem = len - off in
  if len > 0 && rem = 16 then
    Aes.encrypt_words aes
      (x.(0) lxor Aes.word_at msg off lxor k1.(0))
      (x.(1) lxor Aes.word_at msg (off + 4) lxor k1.(1))
      (x.(2) lxor Aes.word_at msg (off + 8) lxor k1.(2))
      (x.(3) lxor Aes.word_at msg (off + 12) lxor k1.(3))
      x
  else
    Aes.encrypt_words aes
      (x.(0) lxor padded_word msg off rem 0 lxor k2.(0))
      (x.(1) lxor padded_word msg off rem 1 lxor k2.(1))
      (x.(2) lxor padded_word msg off rem 2 lxor k2.(2))
      (x.(3) lxor padded_word msg off rem 3 lxor k2.(3))
      x;
  Aes.string_of_words x

let mac ~key msg =
  if String.length key <> 16 then invalid_arg "Cmac.mac: key must be 16 bytes";
  mac_with (prepare key) msg

(* Constant-time-style comparison: accumulate differences. *)
let tag_matches ~expected tag =
  let diff = ref (String.length tag lxor 16) in
  String.iteri
    (fun i c -> if i < 16 then diff := !diff lor (Char.code c lxor Char.code expected.[i]))
    tag;
  !diff = 0

let verify_with key ~tag msg = tag_matches ~expected:(mac_with key msg) tag
let verify ~key ~tag msg = tag_matches ~expected:(mac ~key msg) tag
