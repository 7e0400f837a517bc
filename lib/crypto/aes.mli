(** AES block cipher (FIPS 197) for 128-, 192- and 256-bit keys.

    The S-box is derived algebraically from the GF(2{^8}) inverse and
    the FIPS affine transform rather than transcribed, and checked by
    the FIPS 197 known-answer tests. Only block encryption is
    provided: every mode used by WaTZ (CTR, GCM, CMAC) needs just the
    forward direction. *)

type key

val expand_key : string -> key
(** Accepts 16-, 24- or 32-byte keys; raises [Invalid_argument]
    otherwise. *)

val encrypt_block : key -> string -> string
(** 16-byte block in, 16-byte block out. *)

