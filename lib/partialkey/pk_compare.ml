module Key = Pk_keys.Key
module Bitops = Pk_keys.Bitops

module P = Key.Packed

type resolution = Resolved of Key.cmp * int | Need_units

let need_units = -1

let[@pklint.hot] resolve_offset_packed st ~pk_off =
  let off = P.off st in
  if P.code st <> P.eq then
    (* rel = Lt | Gt *)
    if pk_off < off then
      (* Theorem 3.1: the index key diverges from the base earlier
         than the search key does, so the index key sits on the far
         side: c(search, index) = c(base, search). *)
      P.make (P.gt - P.code st) pk_off
    else if pk_off > off then
      (* The index key shares more of the base than the search key:
         c(search, index) = c(search, base). *)
      st
    else need_units
  else if pk_off < off then
    (* The index key diverges from the (unresolved) base at
       [pk_off]; the search key agrees with that base past it.
       Since in-node keys ascend, the index key's unit there is
       greater: search < index (Appendix A case 2). *)
    P.make P.lt pk_off
  else if pk_off > off then
    (* Nothing new can be concluded (Appendix A case 1). *)
    st
  else need_units

let resolve_by_offset ~rel ~off ~pk_off =
  let r = resolve_offset_packed (P.of_cmp rel off) ~pk_off in
  if r = need_units then Need_units else Resolved (P.to_cmp r, P.off r)

let[@pklint.hot] units_bit ~search st ~pk_len ~pk_bits =
  (* The unit at [off] itself: for Lt/Gt states both keys flip the
     base's bit the same way, so it is equal and skipped (Fig. 3 notes
     the difference bit is never stored).  For Eq states the index
     key's bit is 1 (it is greater than its base) while the search
     key's is unknown (Appendix A case 3).  The stored bits are
     compared from bit [off + 1] of the search key; the relative
     packed result shifts by that start. *)
  let off = P.off st in
  let proceed_from = off + 1 in
  if P.code st <> P.eq then
    Bitops.compare_bits_packed search ~bit_off:proceed_from ~packed:pk_bits ~bit_len:pk_len
    + (proceed_from lsl 2)
  else if off >= 8 * Bytes.length search then
    (* Search key exhausted at the implied bit: boundary case,
       degrade to unresolved. *)
    st
  else if Bitops.bit_or_zero search off = 0 then P.make P.lt off
  else
    Bitops.compare_bits_packed search ~bit_off:proceed_from ~packed:pk_bits ~bit_len:pk_len
    + (proceed_from lsl 2)

(* Both keys agree on bytes [0, off); compare from [off] against the
   stored bytes (the first of which is the index key's difference
   byte, stored whole).  A search key ending inside the window is a
   proper prefix of the index key's known prefix, hence smaller. *)
let[@pklint.hot] rec units_byte search slen off pk_len pk_bits i =
  if i = pk_len then P.make P.eq (off + pk_len)
  else if off + i >= slen then P.make P.lt (off + i)
  else
    let s = Char.code (Bytes.get search (off + i)) in
    let j = Char.code (Bytes.get pk_bits i) in
    if s < j then P.make P.lt (off + i)
    else if s > j then P.make P.gt (off + i)
    else units_byte search slen off pk_len pk_bits (i + 1)

let[@pklint.hot] resolve_units_packed g ~search st ~pk_len ~pk_bits =
  match g with
  | Partial_key.Bit -> units_bit ~search st ~pk_len ~pk_bits
  | Partial_key.Byte -> units_byte search (Bytes.length search) (P.off st) pk_len pk_bits 0

let resolve_by_units g ~search ~rel ~off ~pk_len ~pk_bits =
  P.unpack (resolve_units_packed g ~search (P.of_cmp rel off) ~pk_len ~pk_bits)

let compare_partkey g ~search ~(pk : Partial_key.t) ~rel ~off =
  let st = P.of_cmp rel off in
  let r = resolve_offset_packed st ~pk_off:pk.pk_off in
  P.unpack
    (if r <> need_units then r
     else resolve_units_packed g ~search st ~pk_len:pk.pk_len ~pk_bits:pk.pk_bits)
