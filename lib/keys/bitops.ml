(* Number of leading zeros in a byte value (clz8.(0) unused: callers
   only consult it for non-zero xor values). *)
let clz8 =
  let tbl = Array.make 256 8 in
  for v = 1 to 255 do
    let rec go n bit = if bit land v <> 0 then n else go (n + 1) (bit lsr 1) in
    tbl.(v) <- go 0 0x80
  done;
  tbl

let get_bit k i =
  if i < 0 || i >= 8 * Bytes.length k then invalid_arg "Bitops.get_bit";
  let byte = Char.code (Bytes.get k (i lsr 3)) in
  (byte lsr (7 - (i land 7))) land 1

let byte_or_zero k i = if i < Bytes.length k then Char.code (Bytes.get k i) else 0

let first_diff_bit a b =
  let n = max (Bytes.length a) (Bytes.length b) in
  let rec scan i =
    if i = n then None
    else
      let x = byte_or_zero a i lxor byte_or_zero b i in
      if x = 0 then scan (i + 1) else Some ((i * 8) + clz8.(x))
  in
  scan 0

(* Bit [i] of [k], with bits past the end reading as 0. *)
let bit_or_zero k i =
  let byte = byte_or_zero k (i lsr 3) in
  (byte lsr (7 - (i land 7))) land 1

let extract_bits k ~bit_off ~bit_len =
  if bit_off < 0 || bit_len < 0 then invalid_arg "Bitops.extract_bits";
  let out = Bytes.make ((bit_len + 7) / 8) '\000' in
  for i = 0 to bit_len - 1 do
    if bit_or_zero k (bit_off + i) = 1 then begin
      let byte = Char.code (Bytes.get out (i lsr 3)) in
      Bytes.set out (i lsr 3) (Char.chr (byte lor (0x80 lsr (i land 7))))
    end
  done;
  out

let leading_zeros8 x = clz8.(x)

(* Top-level recursion (no closure): the partial-key search core's
   bit-granularity unit comparison. *)
let[@pklint.hot] rec bits_scan k bit_off packed bit_len i =
  if i = bit_len then (bit_len lsl 2) lor 1
  else
    let a = bit_or_zero k (bit_off + i) in
    let b = bit_or_zero packed i in
    if a <> b then (i lsl 2) lor (if a < b then 0 else 2)
    else bits_scan k bit_off packed bit_len (i + 1)

let[@pklint.hot] compare_bits_packed k ~bit_off ~packed ~bit_len =
  bits_scan k bit_off packed bit_len 0

let compare_bits_at k ~bit_off ~packed ~bit_len =
  let p = compare_bits_packed k ~bit_off ~packed ~bit_len in
  ((p land 3) - 1, p lsr 2)
