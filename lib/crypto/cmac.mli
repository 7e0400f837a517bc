(** AES-CMAC (RFC 4493 / NIST SP 800-38B).

    WaTZ uses AES-CMAC-128 both to authenticate protocol messages and as
    the pseudo-random function of the SGX-style key-derivation schedule
    ({!Kdf}). A prepared {!key} amortises the AES key expansion and
    subkey derivation across calls; blocks chain through the word core
    ({!Aes.encrypt_words}) without allocating. *)

type key

val prepare : string -> key
(** Expand a 16-byte key and derive K1/K2 once. *)

val mac_with : key -> string -> string
(** 16-byte tag under a prepared key. *)

val mac : key:string -> string -> string
(** One-shot [mac ~key msg]: the 16-byte CMAC tag. [key] must be 16
    bytes. *)

val verify_with : key -> tag:string -> string -> bool
(** [verify_with key ~tag msg] checks a 16-byte tag under a prepared
    key, comparing without an early exit. *)

val verify : key:string -> tag:string -> string -> bool
(** One-shot {!verify_with} under a raw 16-byte key. *)
