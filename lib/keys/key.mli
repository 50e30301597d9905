(** Keys: fixed-length byte strings with detailed comparisons.

    The paper models keys as unique, fixed-length sequences of unsigned
    bytes compared byte-wise (§5.2).  A key here is an immutable-by-
    convention [bytes] value.  Comparisons return both the ordering and
    the position of the first difference — the [d(k_i, k_j)] of §3.2 —
    at byte or bit granularity.

    Multi-segment keys (§3.2's extension) are supported through an
    order-preserving flat encoding: fixed-size segments are
    concatenated, variable-size segments are escaped (0x00 -> 0x00 0xFF)
    and 0x00-terminated, so ordinary byte-wise comparison of encoded
    keys equals lexicographic comparison of the segment tuples, and the
    partial-key machinery applies unchanged. *)

type t = bytes

type cmp = Lt | Eq | Gt
(** Comparison outcome, the paper's LT/EQ/GT. *)

val cmp_of_int : int -> cmp
val int_of_cmp : cmp -> int
val flip : cmp -> cmp
(** [flip Lt = Gt], [flip Gt = Lt], [flip Eq = Eq]. *)

val pp_cmp : Format.formatter -> cmp -> unit

(** Allocation-free comparison results: one immediate int
    [(off lsl 2) lor code], with code [0]/[1]/[2] for [Lt]/[Eq]/[Gt]
    (the sign plus one) and [off] the difference offset.  The
    partial-key search core passes states and results in this form;
    the [cmp * int] pairs elsewhere are wrappers over it. *)
module Packed : sig
  val lt : int
  val eq : int
  val gt : int
  val make : int -> int -> int
  (** [make code off]. *)

  val code : int -> int
  val off : int -> int
  val of_cmp : cmp -> int -> int
  val to_cmp : int -> cmp

  val flip : int -> int
  (** Swap [Lt] and [Gt], keeping the offset. *)

  val unpack : int -> cmp * int
end

val length : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
(** Plain lexicographic byte compare (shorter prefix sorts first). *)

val compare_detail : t -> t -> cmp * int
(** [(c, d)] where [d] is the index of the first differing {e byte}
    ([= min-length] when one key is a prefix of the other, or the
    common length when equal). *)

val compare_bit_detail : t -> t -> cmp * int
(** Same, with [d] the offset of the first differing {e bit} (paper's
    [d(k_i,k_j)]); [d = 8*length] when equal (equal lengths assumed for
    the bit view). *)

val sub_compare : t -> from:int -> t -> cmp * int
(** [sub_compare k ~from other] compares [k[from..]] against
    [other[from..]] byte-wise, returning the absolute index of the
    first difference.  Precondition: the keys agree on bytes
    [\[0, from)]. *)

val to_hex : t -> string
val of_string : string -> t
val to_string : t -> string

(** {1 Multi-segment encoding} *)

type segment =
  | Fixed of bytes   (** fixed-width field, compared raw *)
  | Var of bytes     (** variable-width field, escaped + terminated *)

val encode_segments : segment list -> t
(** Order-preserving encoding: comparing encodings byte-wise equals
    comparing segment lists (Fixed segments must have equal widths at
    equal positions for the order guarantee, as in a typed schema). *)

val decode_segments : arity:(([ `Fixed of int | `Var ]) list) -> t -> segment list
(** Inverse of [encode_segments] given the schema.  Raises
    [Invalid_argument] on malformed input. *)
