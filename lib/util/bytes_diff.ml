(* Lanes are compared for equality only, so byte order does not
   matter: the native-endian unchecked load is as good as
   [Bytes.get_int64_le] and skips a bounds check per lane ([first]
   checks the whole ranges once).  [=] at type [int64] compiles to an
   unboxed machine compare (type-specialised, no inlining needed): no
   allocation. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Byte-by-byte finish: inside the lane that differed, or over the
   last [len mod 8] bytes. *)
let[@pklint.hot] rec bytes a a_off b b_off len i =
  if i < len && Bytes.unsafe_get a (a_off + i) = Bytes.unsafe_get b (b_off + i) then
    bytes a a_off b b_off len (i + 1)
  else i

let[@pklint.hot] rec lanes a a_off b b_off len i =
  if i + 8 <= len && (get64u a (a_off + i) : int64) = get64u b (b_off + i) then
    lanes a a_off b b_off len (i + 8)
  else bytes a a_off b b_off len i

let[@inline] [@pklint.hot] first a ~a_off b ~b_off ~len =
  if
    len < 0 || a_off < 0 || b_off < 0
    || a_off > Bytes.length a - len
    || b_off > Bytes.length b - len
  then invalid_arg "Bytes_diff.first" [@pklint.cold];
  lanes a a_off b b_off len 0
