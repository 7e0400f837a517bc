(** AES-GCM authenticated encryption (NIST SP 800-38D).

    WaTZ uses AES-GCM-128 to protect the secret blob of msg3 in the
    remote-attestation protocol, and the mesh seals its resumption
    tickets with it. Encryption and decryption are one fused pass per
    16-byte block over unboxed 32-bit words: the T-table AES core
    ({!Aes.encrypt_words}) makes the counter's keystream, and the
    ciphertext words feed GHASH, which runs on a per-key 4-bit table
    (Shoup's method). Like {!Aes}, neither is cache-timing
    constant-time. *)

type key
(** A prepared key: the expanded AES schedule and the GHASH table of
    its hash subkey, derived once for any number of messages. *)

val prepare : string -> key
(** Accepts 16-, 24- or 32-byte keys, like {!Aes.expand_key}. *)

val encrypt_with : key -> iv:string -> ?aad:string -> string -> string * string
(** [encrypt_with key ~iv ~aad plaintext] is [(ciphertext, tag)] with a
    16-byte tag. The IV may be any non-empty length; 12 bytes is the
    fast path. *)

val decrypt_with :
  key -> iv:string -> ?aad:string -> tag:string -> string -> string option
(** [decrypt_with key ~iv ~aad ~tag ciphertext] is [Some plaintext] when
    the tag authenticates, [None] otherwise. The tag is checked before
    any plaintext is returned. *)

val encrypt :
  key:string -> iv:string -> ?aad:string -> string -> string * string
(** One-shot {!encrypt_with} under a raw key. *)

val decrypt :
  key:string -> iv:string -> ?aad:string -> tag:string -> string -> string option
(** One-shot {!decrypt_with} under a raw key. *)

val ghash_bytes : h:string -> string list -> string
(** Table-driven GHASH over 16-byte-zero-padded parts under the 16-byte
    hash subkey [h]. Exposed for differential testing against
    {!Refcrypto.Gcm.ghash_bytes}. *)
