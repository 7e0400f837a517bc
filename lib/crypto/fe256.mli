(** Montgomery arithmetic for 256-bit prime rings.

    The fast-path replacement for {!Modring} in the P-256 hot loops:
    9 limbs of 29 bits in native ints, straight-line separated-operand
    Montgomery products with a dedicated squaring, and Fermat inversion.
    One {!ring} instance each backs the P-256 field (mod p, with a
    reduction and an addition-chain inversion specialised to p) and the
    scalar ring (mod n, with a 4-bit window inversion).

    Elements are tied to the ring they were created with; mixing rings
    is a caller bug and silently computes garbage. All values stay
    fully reduced, so {!equal}/{!is_zero} are plain representation
    comparisons.

    The [_into] operations write their result into a caller-owned
    element and allocate nothing; the destination may alias either or
    both operands. The plain operations are wrappers that allocate only
    their result. *)

type t
(** A ring element, internally in Montgomery form. *)

type ring

val create : Bn.t -> ring
(** [create m] for an odd modulus [m], [3 <= m < 2^256]. {!inv} and the
    semantics of the ring additionally assume [m] prime. *)

val modulus : ring -> Bn.t

val zero : ring -> t
val one : ring -> t
val of_bn : ring -> Bn.t -> t
(** Reduces mod [m] first, so any non-negative value is accepted. *)

val of_int : ring -> int -> t
val to_bn : ring -> t -> Bn.t

val add : ring -> t -> t -> t
val sub : ring -> t -> t -> t
val mul : ring -> t -> t -> t
val sqr : ring -> t -> t

val add_into : ring -> t -> t -> t -> unit
(** [add_into r dst a b] sets [dst] to [a + b]. *)

val sub_into : ring -> t -> t -> t -> unit
val mul_into : ring -> t -> t -> t -> unit
val sqr_into : ring -> t -> t -> unit
(** [sqr_into r dst a] sets [dst] to [a * a]. *)

val copy_into : t -> t -> unit
(** [copy_into dst a] overwrites [dst] with [a]. *)

val inv : ring -> t -> t
(** Fermat inversion [a^(m-2)]; requires a prime modulus. [inv zero]
    returns zero. *)

val equal : t -> t -> bool
val is_zero : t -> bool
val copy : t -> t

type vec
(** A fixed-length vector of elements stored flat: one allocation for a
    whole table, where an array of elements costs one per entry. *)

val vec : int -> vec
(** [vec n] holds [n] elements, all zero. *)

val length : vec -> int
val get_into : t -> vec -> int -> unit
(** [get_into dst v i] overwrites [dst] with element [i]. *)

val get : vec -> int -> t
(** A fresh copy of element [i]. *)

val set : vec -> int -> t -> unit
(** [set v i a] overwrites element [i] with [a]. *)
