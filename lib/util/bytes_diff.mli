(** The first-difference kernel behind every byte-string comparison
    ({!Pk_keys.Key.compare_detail}, [Mem.compare_packed],
    [Mem.compare_read], partial-key encoding).

    Compares 8 bytes per step and finishes byte by byte; allocates
    nothing. *)

val first : bytes -> a_off:int -> bytes -> b_off:int -> len:int -> int
(** [first a ~a_off b ~b_off ~len] is the least [i] in [\[0, len)] with
    [a.[a_off + i] <> b.[b_off + i]], or [len] when the two ranges are
    equal.  Raises [Invalid_argument] if either range is not inside its
    bytes. *)
