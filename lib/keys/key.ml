type t = bytes
type cmp = Lt | Eq | Gt

let cmp_of_int n = if n < 0 then Lt else if n > 0 then Gt else Eq
let int_of_cmp = function Lt -> -1 | Eq -> 0 | Gt -> 1
let flip = function Lt -> Gt | Gt -> Lt | Eq -> Eq

module Packed = struct
  let lt = 0
  let eq = 1
  let gt = 2
  let[@inline] make code off = (off lsl 2) lor code
  let[@inline] code p = p land 3
  let[@inline] off p = p lsr 2
  let[@inline] of_cmp c off = make (match c with Lt -> lt | Eq -> eq | Gt -> gt) off
  let[@inline] to_cmp p = match p land 3 with 0 -> Lt | 1 -> Eq | _ -> Gt
  let[@inline] flip p = p + 2 - (2 * (p land 3))
  let unpack p = (to_cmp p, off p)
end

let pp_cmp ppf c =
  Format.pp_print_string ppf (match c with Lt -> "LT" | Eq -> "EQ" | Gt -> "GT")

let length = Bytes.length
let equal = Bytes.equal
let compare = Bytes.compare

(* Both scans run on the one first-difference kernel. *)
let[@inline] detail_from a b from =
  let la = Bytes.length a and lb = Bytes.length b in
  let common = min la lb in
  let i =
    if from >= common then common
    else from + Pk_util.Bytes_diff.first a ~a_off:from b ~b_off:from ~len:(common - from)
  in
  if i < common then ((if Bytes.unsafe_get a i < Bytes.unsafe_get b i then Lt else Gt), i)
  else if la = lb then (Eq, common)
  else if la < lb then (Lt, common)
  else (Gt, common)

let compare_detail a b = detail_from a b 0

let compare_bit_detail a b =
  match Bitops.first_diff_bit a b with
  | None -> (Eq, 8 * Bytes.length a)
  | Some d -> (cmp_of_int (Bytes.compare a b), d)

let sub_compare k ~from other = detail_from k other from

let to_hex k =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (Bytes.to_seq k))))

let of_string = Bytes.of_string
let to_string = Bytes.to_string

type segment = Fixed of bytes | Var of bytes

let encode_segments segs =
  let buf = Buffer.create 32 in
  List.iter
    (fun seg ->
      match seg with
      | Fixed b -> Buffer.add_bytes buf b
      | Var b ->
          Bytes.iter
            (fun c ->
              Buffer.add_char buf c;
              (* Escape embedded NUL so the 0x00 terminator still sorts
                 below any continuation: 0x00 -> 0x00 0xFF. *)
              if c = '\000' then Buffer.add_char buf '\xff')
            b;
          Buffer.add_char buf '\000')
    segs;
  Buffer.to_bytes buf

let decode_segments ~arity k =
  let pos = ref 0 in
  let len = Bytes.length k in
  let take n =
    if !pos + n > len then invalid_arg "Key.decode_segments: truncated";
    let b = Bytes.sub k !pos n in
    pos := !pos + n;
    b
  in
  let take_var () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then invalid_arg "Key.decode_segments: unterminated Var";
      let c = Bytes.get k !pos in
      incr pos;
      if c = '\000' then
        if !pos < len && Bytes.get k !pos = '\xff' then begin
          incr pos;
          Buffer.add_char buf '\000';
          go ()
        end
        else ()
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ();
    Buffer.to_bytes buf
  in
  let segs =
    List.map
      (function `Fixed n -> Fixed (take n) | `Var -> Var (take_var ()))
      arity
  in
  if !pos <> len then invalid_arg "Key.decode_segments: trailing bytes";
  segs
