(** Bit-level operations on byte-string keys.

    Bits are numbered in order of decreasing significance starting at
    bit 0, the most significant bit of byte 0 — the numbering of §3 of
    the paper.  A "packed bit string" stores bit [i] at bit
    [7 - i mod 8] of byte [i / 8], i.e. left-aligned. *)

val get_bit : bytes -> int -> int
(** [get_bit k i] is bit [i] of [k] (0 or 1).  Raises
    [Invalid_argument] when out of range. *)

val first_diff_bit : bytes -> bytes -> int option
(** Offset of the most significant bit at which the two byte strings
    differ; [None] when equal.  For operands of different lengths the
    shorter is treated as zero-padded — callers in this repository only
    compare equal-length keys. *)

val byte_or_zero : bytes -> int -> int
(** Byte [i] of the string, 0 past its end. *)

val bit_or_zero : bytes -> int -> int
(** Bit [i] of the string, 0 past its end. *)

val leading_zeros8 : int -> int
(** Leading zero bits of a byte value in [1, 255]. *)

val extract_bits : bytes -> bit_off:int -> bit_len:int -> bytes
(** [extract_bits k ~bit_off ~bit_len] copies bits
    [\[bit_off, bit_off+bit_len)] of [k] into a fresh packed bit string
    (left-aligned, zero-padded tail).  Bits beyond the end of [k] read
    as 0; [bit_len] may be 0. *)

val compare_bits_at :
  bytes -> bit_off:int -> packed:bytes -> bit_len:int -> int * int
(** [compare_bits_at k ~bit_off ~packed ~bit_len] compares the bit
    sequence of [k] starting at [bit_off] against the first [bit_len]
    bits of the packed bit string, bit by bit.  Returns [(cmp, i)]:
    [cmp] < 0, = 0, > 0, with [i] the index {e relative to [bit_off]} of
    the first differing bit ([= bit_len] when all [bit_len] bits agree,
    in which case [cmp = 0]).  Bits of [k] beyond its end read as 0. *)

val compare_bits_packed : bytes -> bit_off:int -> packed:bytes -> bit_len:int -> int
(** {!val:compare_bits_at} as one allocation-free int:
    [(i lsl 2) lor (cmp + 1)] (the {!Key.Packed} encoding). *)
