module Key = Pk_keys.Key
module Bitops = Pk_keys.Bitops

type granularity = Bit | Byte

let pp_granularity ppf g =
  Format.pp_print_string ppf (match g with Bit -> "bit" | Byte -> "byte")

type t = { pk_off : int; pk_len : int; pk_bits : bytes }

let units_of_key g k = match g with Bit -> 8 * Bytes.length k | Byte -> Bytes.length k
let l_units g ~l_bytes = match g with Bit -> 8 * l_bytes | Byte -> l_bytes

let diff g a b =
  match g with
  | Bit -> Key.compare_bit_detail a b
  | Byte -> Key.compare_detail a b

let clamp_nonneg n = if n < 0 then 0 else n

let encode g ~l_bytes ~base ~key =
  let c, d = diff g key base in
  (match c with Key.Eq -> invalid_arg "Partial_key.encode: key equals base" | Key.Lt | Key.Gt -> ());
  let l = l_units g ~l_bytes in
  match g with
  | Bit ->
      (* Store the l bits following the difference bit. *)
      let avail = clamp_nonneg (units_of_key Bit key - d - 1) in
      let pk_len = min l avail in
      { pk_off = d; pk_len; pk_bits = Bitops.extract_bits key ~bit_off:(d + 1) ~bit_len:pk_len }
  | Byte ->
      (* Store l bytes starting at the difference byte. *)
      let avail = clamp_nonneg (Bytes.length key - d) in
      let pk_len = min l avail in
      { pk_off = d; pk_len; pk_bits = Bytes.sub key d pk_len }

let zero_key_like k = Bytes.make (Bytes.length k) '\000'

let is_all_zero k =
  let rec go i = i = Bytes.length k || (Bytes.get k i = '\000' && go (i + 1)) in
  go 0

let encode_initial g ~l_bytes ~key =
  if is_all_zero key then
    (* The virtual base equals the key itself: no difference exists;
       represent as "diff at end, nothing stored" which always forces a
       dereference — the safe degenerate case. *)
    { pk_off = units_of_key g key; pk_len = 0; pk_bits = Bytes.empty }
  else encode g ~l_bytes ~base:(zero_key_like key) ~key

(* d(k, 0...0) is the offset of the first nonzero unit — computed by
   direct scan (this runs once per lookup). *)
let[@pklint.hot] rec first_nonzero k len i =
  if i = len || Bytes.get k i <> '\000' then i else first_nonzero k len (i + 1)

let[@pklint.hot] initial_packed g k =
  let len = Bytes.length k in
  let i = first_nonzero k len 0 in
  if i = len then Key.Packed.make Key.Packed.eq (units_of_key g k)
  else
    match g with
    | Byte -> Key.Packed.make Key.Packed.gt i
    | Bit ->
        Key.Packed.make Key.Packed.gt
          ((8 * i) + Bitops.leading_zeros8 (Char.code (Bytes.get k i)))

let initial_state g k = Key.Packed.unpack (initial_packed g k)

(* {2 In-place encoding} — [encode]/[encode_initial] over key bytes
   already sitting in a caller-owned buffer: the maintenance paths'
   form, which allocates nothing.  [encode] stays the validators'
   oracle; the two agree unit for unit (checked by the test suite). *)

let[@inline] byte_at buf off len i = if i < len then Char.code (Bytes.get buf (off + i)) else 0

(* First nonzero byte of the range, or its length. *)
let rec nonzero_byte buf ka len i =
  if i = len || Bytes.get buf (ka + i) <> '\000' then i else nonzero_byte buf ka len (i + 1)

(* First differing bit of the ranges, each zero-padded to [n] bytes;
   -1 when there is none ({!Bitops.first_diff_bit}'s [None]). *)
let rec diff_bit buf ka kl ba bl n i =
  if i = n then -1
  else
    let x = byte_at buf ka kl i lxor byte_at buf ba bl i in
    if x = 0 then diff_bit buf ka kl ba bl n (i + 1) else (8 * i) + Bitops.leading_zeros8 x

let key_equals_base () = invalid_arg "Partial_key.encode: key equals base"

(* [pk_off] of the key against the base, or against the virtual zero
   key when [base_len < 0] — where an all-zero key yields its length
   in units, [encode_initial]'s "diff at end". *)
let diff_into g buf ~key_off ~key_len ~base_off ~base_len =
  match g with
  | Byte ->
      if base_len < 0 then nonzero_byte buf key_off key_len 0
      else
        let common = min key_len base_len in
        let d = Pk_util.Bytes_diff.first buf ~a_off:key_off buf ~b_off:base_off ~len:common in
        if d = common && key_len = base_len then key_equals_base () else d
  | Bit ->
      if base_len < 0 then
        let d = diff_bit buf key_off key_len 0 0 key_len 0 in
        if d < 0 then 8 * key_len else d
      else
        let d = diff_bit buf key_off key_len base_off base_len (max key_len base_len) 0 in
        if d < 0 then key_equals_base () else d

let stored_len g ~l_bytes ~key_len ~pk_off =
  match g with
  | Bit -> min (8 * l_bytes) (clamp_nonneg ((8 * key_len) - pk_off - 1))
  | Byte -> min l_bytes (clamp_nonneg (key_len - pk_off))

let encode_into g ~l_bytes buf ~key_off ~key_len ~base_off ~base_len ~dst =
  let d = diff_into g buf ~key_off ~key_len ~base_off ~base_len in
  let pk_len = stored_len g ~l_bytes ~key_len ~pk_off:d in
  (match g with
  | Byte ->
      Bytes.blit buf (key_off + d) buf dst pk_len;
      Bytes.fill buf (dst + pk_len) (l_bytes - pk_len) '\000'
  | Bit ->
      (* The [pk_len] bits after the difference bit, left-aligned.  Bits
         past the key read as 0 and [pk_len] only stops short of [l]
         at the key's end, so the tail needs no mask. *)
      let s = d + 1 in
      let q = s lsr 3 and r = s land 7 in
      for j = 0 to l_bytes - 1 do
        let hi = byte_at buf key_off key_len (q + j) in
        let lo = byte_at buf key_off key_len (q + j + 1) in
        Bytes.set buf (dst + j) (Char.unsafe_chr (((hi lsl r) lor (lo lsr (8 - r))) land 0xff))
      done);
  d

let reconstructed_prefix_units g t =
  match g with Bit -> t.pk_off + 1 + t.pk_len | Byte -> t.pk_off + t.pk_len
