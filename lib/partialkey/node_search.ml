module Key = Pk_keys.Key
module P = Key.Packed

type cursor = {
  mutable node : int;
  mutable search : Key.t;
  mutable num_keys : int;
  naive : bool;
  pk_off : cursor -> int -> int;
  units : cursor -> int -> int -> int;
  branch_unit : cursor -> int -> int;
  search_unit : cursor -> int -> int;
  deref : cursor -> int -> int;
  mutable low : int;
  mutable high : int;
  mutable off_low : int;
  mutable derefs : int;
}

let cursor ~naive ~pk_off ~units ~branch_unit ~search_unit ~deref =
  {
    node = 0;
    search = Bytes.empty;
    num_keys = 0;
    naive;
    pk_off;
    units;
    branch_unit;
    search_unit;
    deref;
    low = 0;
    high = 0;
    off_low = 0;
    derefs = 0;
  }

let[@pklint.hot] settle c low high off_low derefs =
  c.low <- low;
  c.high <- high;
  c.off_low <- off_low;
  c.derefs <- derefs

(* COMPAREPARTKEY of the search key against entry [i] from state [st]:
   offset-only first, stored units when the offsets tie. *)
let[@pklint.hot] compare_entry c i st =
  let r = Pk_compare.resolve_offset_packed st ~pk_off:(c.pk_off c i) in
  if r <> Pk_compare.need_units then r else c.units c i st

(* Resolve the search position rightward from entry [start], given the
   definite state [(Gt, off)] w.r.t. entry [start - 1], inside
   [\[start, high)].  Uses offset-only reasoning; when offsets tie it
   consults stored units and, as a last resort, dereferences.  Always
   terminates with a definite answer. *)
let[@pklint.hot] rec resolve_right c start high off derefs =
  if start >= high then settle c (high - 1) high off derefs
  else
    let r = compare_entry c start (P.make P.gt off) in
    let code = P.code r in
    if code = P.lt then settle c (start - 1) start off derefs
    else if code = P.gt then resolve_right c (start + 1) high (P.off r) derefs
    else
      let d = c.deref c start in
      let derefs = derefs + 1 in
      let code = P.code d in
      if code = P.eq then settle c start start (P.off d) derefs
      else if code = P.lt then settle c (start - 1) start off derefs
      else resolve_right c (start + 1) high (P.off d) derefs

(* Resolve leftward from entry [j] down to [lo_bound], given the
   definite state: search < entry [j + 1] with
   [delta = d(search, key_{j+1})].  [off_fallback] is
   [d(search, key_{lo_bound})] from the caller, settled when the scan
   exits the zone at the bottom. *)
let[@pklint.hot] rec resolve_left c j lo_bound delta off_fallback derefs =
  if j <= lo_bound then settle c lo_bound (lo_bound + 1) off_fallback derefs
  else
    (* Entry [j+1]'s pk_off is d(key_{j+1}, key_j); Theorem 3.1 with
       base key_{j+1}: both search and key_j are below it. *)
    let d_next = c.pk_off c (j + 1) in
    if delta > d_next then
      (* search diverges from key_{j+1} later than key_j does: search
         is above key_j. *)
      settle c j (j + 1) d_next derefs
    else if delta < d_next then resolve_left c (j - 1) lo_bound delta off_fallback derefs
    else
      let d = c.deref c j in
      let derefs = derefs + 1 in
      let code = P.code d in
      if code = P.eq then settle c j j (P.off d) derefs
      else if code = P.gt then settle c j (j + 1) (P.off d) derefs
      else resolve_left c (j - 1) lo_bound (P.off d) off_fallback derefs

(* Lower FINDBITTREE branch at entry [i - 1] with difference offset
   [d_i]: skip the subtrie rooted there (all following entries with
   larger difference offsets). *)
let[@pklint.hot] rec skip_subtrie c i hi d_i =
  if i < hi && c.pk_off c i > d_i then skip_subtrie c (i + 1) hi d_i else i

(* Walk the implicit difference-bit trie over entries [i, hi), touching
   no record keys; returns the candidate position.  A negative branch
   unit (byte granularity with l = 0) carries no branch information:
   the candidate keeps moving so the dereference lands inside the
   zone. *)
let[@pklint.hot] rec bit_walk c i hi pos =
  if i >= hi then pos
  else
    let d_i = c.pk_off c i in
    let bu = c.branch_unit c i in
    if bu < 0 || c.search_unit c d_i >= bu then
      (* Search follows the upper branch: candidate moves here. *)
      bit_walk c (i + 1) hi i
    else bit_walk c (skip_subtrie c (i + 1) hi d_i) hi pos

(* FINDBITTREE over the ambiguous zone (lo, hi): entries lo+1..hi-1
   compared unresolved; search > key_lo (with d = off_lo) and
   search < key_hi are known.  Walk the trie, then dereference the
   candidate and settle the exact position from its result. *)
let[@pklint.hot] find_bit_tree c lo hi off_lo =
  let pos = bit_walk c (lo + 1) hi lo in
  let target = if pos = lo then lo + 1 else pos in
  let d = c.deref c target in
  let code = P.code d in
  if code = P.eq then settle c target target (P.off d) 1
  else if code = P.gt then resolve_right c (target + 1) hi (P.off d) 1
  else resolve_left c (target - 1) lo (P.off d) off_lo 1

(* FINDNODE's sweep: [low]/[off_low] is the last definite Gt entry,
   [st] the state against entry [cur]'s base. *)
let[@pklint.hot] rec sweep c n cur low off_low st =
  if cur >= n then
    if n - 1 > low then
      (* Unresolved tail zone (low, n): the virtual upper bound
         behaves as key_n = +infinity. *)
      find_bit_tree c low n off_low
    else settle c low n off_low 0
  else
    let r = compare_entry c cur st in
    let code = P.code r in
    if code = P.lt then
      if cur - low > 1 then find_bit_tree c low cur off_low else settle c low cur off_low 0
    else if code = P.gt then sweep c n (cur + 1) cur (P.off r) r
    else sweep c n (cur + 1) low off_low r

(* The simple linear search: every unresolved comparison dereferences
   immediately. *)
let[@pklint.hot] rec naive_sweep c n cur low off_low st derefs =
  if cur >= n then settle c low n off_low derefs
  else
    let r = compare_entry c cur st in
    let code = P.code r in
    if code = P.lt then settle c low cur off_low derefs
    else if code = P.gt then naive_sweep c n (cur + 1) cur (P.off r) r derefs
    else
      let d = c.deref c cur in
      let derefs = derefs + 1 in
      let code = P.code d in
      if code = P.eq then settle c cur cur (P.off d) derefs
      else if code = P.lt then settle c low cur off_low derefs
      else naive_sweep c n (cur + 1) cur (P.off d) d derefs

let[@pklint.hot] find c st =
  if c.naive then naive_sweep c c.num_keys 0 (-1) (P.off st) st 0
  else sweep c c.num_keys 0 (-1) (P.off st) st

(* {2 Tuple wrappers over closure-based entry_ops} *)

type entry_ops = {
  mutable num_keys : int;
  pk_off : int -> int;
  resolve_units : int -> rel:Pk_keys.Key.cmp -> off:int -> Pk_keys.Key.cmp * int;
  branch_unit : int -> int;
  search_unit : int -> int;
  deref : int -> Pk_keys.Key.cmp * int;
}

type result = { low : int; high : int; off_low : int; derefs : int }

let run ~naive (ops : entry_ops) ~rel0 ~off0 =
  let c =
    cursor ~naive
      ~pk_off:(fun _ i -> ops.pk_off i)
      ~units:(fun _ i st ->
        let r, o = ops.resolve_units i ~rel:(P.to_cmp st) ~off:(P.off st) in
        P.of_cmp r o)
      ~branch_unit:(fun _ i -> ops.branch_unit i)
      ~search_unit:(fun _ u -> ops.search_unit u)
      ~deref:(fun _ i ->
        let r, o = ops.deref i in
        P.of_cmp r o)
  in
  c.num_keys <- ops.num_keys;
  find c (P.of_cmp rel0 off0);
  { low = c.low; high = c.high; off_low = c.off_low; derefs = c.derefs }

let find_node ops ~rel0 ~off0 = run ~naive:false ops ~rel0 ~off0
let naive_find_node ops ~rel0 ~off0 = run ~naive:true ops ~rel0 ~off0
