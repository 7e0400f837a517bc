(** AES block cipher (FIPS 197) for 128-, 192- and 256-bit keys.

    The S-box is derived algebraically from the GF(2{^8}) inverse and
    the FIPS affine transform rather than transcribed, and checked by
    the FIPS 197 known-answer tests. Rounds run as 32-bit T-tables on
    native ints: a block is four big-endian words, and {!encrypt_words}
    allocates nothing. Only block encryption is provided: every mode
    used by WaTZ (CTR, GCM, CMAC) needs just the forward direction.

    Not constant-time: each round indexes the T-tables (the last one the
    S-box) by secret state bytes, so cache timing can leak key material,
    exactly as the byte-oriented S-box lookups it replaced did. That is
    acceptable on this simulated board, which models no cache
    side channel; a real TrustZone port would use the CPU's AES
    instructions or a bitsliced core. *)

type key

val expand_key : string -> key
(** Accepts 16-, 24- or 32-byte keys; raises [Invalid_argument]
    otherwise. *)

val encrypt_words : key -> int -> int -> int -> int -> int array -> unit
(** [encrypt_words key x0 x1 x2 x3 dst] encrypts the block whose
    big-endian 32-bit words are [x0..x3] (only their low 32 bits are
    read) and writes the output words to [dst.(0..3)]. [dst] may be the
    array the inputs were read from. *)

val encrypt_block : key -> string -> string
(** 16-byte block in, 16-byte block out: a wrapper over
    {!encrypt_words}. *)

val word_at : string -> int -> int
(** [word_at s off] is the big-endian 32-bit word at [s.[off..off+3]]. *)

val string_of_words : int array -> string
(** The 16-byte block whose big-endian words are [w.(0..3)]. *)
