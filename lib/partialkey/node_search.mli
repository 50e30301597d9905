(** In-node search over partial-key entries: procedure FINDNODE
    (Fig. 5) with the FINDBITTREE fallback (§3.3, after Ferguson's Bit
    Trees), plus the naive linear search of §3.3 used as an ablation
    baseline.

    {b Core.}  {!find} runs the search over a per-tree {!cursor}:
    accessor closures built once per tree, mutable aim fields the
    caller re-points at each (node, search key), and mutable result
    fields the search writes.  States and comparison results are
    {!Pk_keys.Key.Packed} ints; the core allocates nothing.

    {b Tuple wrappers.}  {!find_node} / {!naive_find_node} over a
    closure-based {!type:entry_ops} returning pairs, for tests and the
    benchmark ladder: each call builds a throwaway cursor and copies the
    outcome into a {!type:result} record. *)

type cursor = {
  mutable node : int;  (** Aimed node (opaque to the search). *)
  mutable search : Pk_keys.Key.t;  (** Aimed search key. *)
  mutable num_keys : int;  (** Entries searched: [0 .. num_keys). *)
  naive : bool;  (** Run the naive linear search instead (ablation A3). *)
  pk_off : cursor -> int -> int;
      (** Difference-unit offset of entry [i] w.r.t. its base (the
          previous entry; entry 0's base precedes the node). *)
  units : cursor -> int -> int -> int;
      (** [units c i st]: value-unit resolution for entry [i] when its
          [pk_off] equals the packed state's offset (wraps
          {!val:Pk_compare.resolve_units_packed} over the stored units
          of entry [i]). *)
  branch_unit : cursor -> int -> int;
      (** The index key's unit value at its difference offset: [1] for
          bit granularity (in-node keys ascend), the stored difference
          byte for byte granularity, or [-1] when unavailable (byte
          granularity with [l = 0]).  Drives the FINDBITTREE walk. *)
  search_unit : cursor -> int -> int;
      (** Unit of the search key at a given offset (0 past its end). *)
  deref : cursor -> int -> int;
      (** Full comparison of the search key against entry [i]'s record
          key, packed: [c(search, key_i)] and [d(search, key_i)] in
          units.  This is the expensive operation (a cache miss in the
          paper); the search counts every call. *)
  mutable low : int;
      (** Result: search key is (definitely) greater than entry [low];
          [-1] = below every entry. *)
  mutable high : int;
      (** Result: search key is less than entry [high]; [num_keys] =
          above all.  [low = high] signals an exact match there. *)
  mutable off_low : int;
      (** Result: [d(search, key_low)] — or the incoming offset when
          [low = -1].  Propagated to the child whose leftmost key has
          [key_low] as base. *)
  mutable derefs : int;  (** Result: record-key dereferences performed. *)
}

val cursor :
  naive:bool ->
  pk_off:(cursor -> int -> int) ->
  units:(cursor -> int -> int -> int) ->
  branch_unit:(cursor -> int -> int) ->
  search_unit:(cursor -> int -> int) ->
  deref:(cursor -> int -> int) ->
  cursor
(** A cursor with the aim and result fields zeroed.  Build once per
    tree. *)

val find : cursor -> int -> unit
(** [find c st]: FINDNODE (or the naive search when [c.naive]) over
    entries [0 .. c.num_keys) from packed state [st] — the search key
    vs the base of entry 0 ([Gt] in tree descents; [Eq] only for the
    degenerate all-zero search key).  One partial-key sweep tracks
    definite bounds; if it leaves an ambiguous zone, FINDBITTREE
    resolves it with (in the common case) a single dereference.
    Writes [low], [high], [off_low] and [derefs]. *)

(** {1 Tuple wrappers} *)

type entry_ops = {
  mutable num_keys : int;
      (** Mutable so a batched descent can re-aim one [entry_ops]
          record at successive nodes without allocating. *)
  pk_off : int -> int;
      (** Difference-unit offset of entry [i] w.r.t. its base (the
          previous entry; entry 0's base precedes the node). *)
  resolve_units : int -> rel:Pk_keys.Key.cmp -> off:int -> Pk_keys.Key.cmp * int;
      (** Value-unit resolution for entry [i] when [pk_off i = off]
          (wraps {!val:Pk_compare.resolve_by_units} over the stored
          bits of entry [i]). *)
  branch_unit : int -> int;
      (** The index key's unit value at its difference offset: [1] for
          bit granularity (in-node keys ascend), the stored difference
          byte for byte granularity, or [-1] when unavailable (byte
          granularity with [l = 0]).  Drives the FINDBITTREE walk. *)
  search_unit : int -> int;
      (** Unit of the {e search key} at a given offset (0 past its
          end). *)
  deref : int -> Pk_keys.Key.cmp * int;
      (** Full comparison of the search key against entry [i]'s record
          key: [(c(search, key_i), d(search, key_i))] in units.  This
          is the expensive operation (a cache miss in the paper); the
          algorithms count every call. *)
}

type result = {
  low : int;
      (** Search key is (definitely) greater than entry [low];
          [-1] = below every entry. *)
  high : int;
      (** Search key is less than entry [high]; [num_keys] = above all.
          [low = high] signals an exact match at that position. *)
  off_low : int;
      (** [d(search, key_low)] — or the incoming [off0] when
          [low = -1].  Propagated to the child whose leftmost key has
          [key_low] as base. *)
  derefs : int;  (** Record-key dereferences performed. *)
}

val find_node : entry_ops -> rel0:Pk_keys.Key.cmp -> off0:int -> result
(** {!find} over [ops] from state [(rel0, off0)]. *)

val naive_find_node : entry_ops -> rel0:Pk_keys.Key.cmp -> off0:int -> result
(** The "simple linear search" of §3.3 ({!find} with [naive]): every
    unresolved comparison dereferences immediately.  Functionally
    identical results; more dereferences (ablation A3). *)
