(** Partial-key comparison: procedure COMPAREPARTKEY (Fig. 3) with the
    EQ-propagation semantics of Appendix A.

    A comparison is driven by a {e state} [(rel, off)] describing what
    is known about the search key relative to the {e base key} of the
    index key about to be examined (the key visited immediately before
    it):

    - [rel = Lt | Gt]: the search key compared [rel] to the base key
      and [off = d(search, base)], the offset of their first differing
      unit.  The tree guarantees the index key compares the same way to
      the base ([c(k_j, k_b) = c(k_i, k_b)], §3.2), so Theorem 3.1
      applies.
    - [rel = Eq]: the previous comparison was {e unresolved}; the
      search key and the base key (that previous, still-unresolved
      index key) are known to agree on their first [off] units, the
      ordering is unknown, and the index key is greater than the base
      (in-node keys ascend).

    The result has the same shape: [Lt]/[Gt] are {e definite} orderings
    of search vs index key with [off = d(search, index)]; [Eq] means
    unresolved with [off] units known to agree.  Definite equality is
    only ever established by dereferencing the record key.

    Correctness requires the indexed key set to be prefix-free when key
    lengths vary (see {!module:Partial_key}); the implementation claims
    [Lt]/[Gt] only on a definite stored-unit mismatch and degrades to
    [Eq] (forcing a dereference) in every boundary case. *)

(** {1 Packed core}

    States and results travel as one immediate {!Pk_keys.Key.Packed}
    int, [(off lsl 2) lor code]; these functions never allocate and
    are what the index structures' lookups run on. *)

val need_units : int
(** [-1]: the offset-only step could not decide (the difference
    offsets coincide; steps 7-14 of Fig. 3 must consult stored units). *)

val resolve_offset_packed : int -> pk_off:int -> int
(** Offset-only resolution of a packed state against an index key's
    difference offset: Theorem 3.1 (steps 1-6 of Fig. 3) for
    [rel = Lt/Gt], Appendix A cases 1-2 for [rel = Eq].  Returns the
    packed result or {!need_units}. *)

val resolve_units_packed :
  Partial_key.granularity -> search:Pk_keys.Key.t -> int -> pk_len:int -> pk_bits:bytes -> int
(** Value resolution for the [pk_off = off] case, packed.  [pk_bits]
    holds the index key's stored units in its first bytes (packed bits,
    or raw bytes whose first byte is the difference byte); it may be a
    longer reused scratch buffer, since only [pk_len] units are read.
    For bit granularity the implied difference bit is reconstructed
    from the state per Fig. 3 steps 8-11 / Appendix A case 3. *)

(** {1 Tuple wrappers}

    The same procedures over [(rel, off)] pairs, for tests, the
    benchmark ladder and other callers off the lookup path. *)

type resolution =
  | Resolved of Pk_keys.Key.cmp * int
  | Need_units
      (** The difference offsets coincide; the stored value units must
          be consulted ([pk_off = off], steps 7-14 of Fig. 3). *)

val resolve_by_offset :
  rel:Pk_keys.Key.cmp -> off:int -> pk_off:int -> resolution
(** {!val:resolve_offset_packed} over a pair. *)

val resolve_by_units :
  Partial_key.granularity ->
  search:Pk_keys.Key.t ->
  rel:Pk_keys.Key.cmp ->
  off:int ->
  pk_len:int ->
  pk_bits:bytes ->
  Pk_keys.Key.cmp * int
(** {!val:resolve_units_packed} over a pair. *)

val compare_partkey :
  Partial_key.granularity ->
  search:Pk_keys.Key.t ->
  pk:Partial_key.t ->
  rel:Pk_keys.Key.cmp ->
  off:int ->
  Pk_keys.Key.cmp * int
(** The full procedure: offset resolution, falling back to stored
    units.  Convenience composition of the two functions above. *)
