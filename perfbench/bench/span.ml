(* Span recorder for the traced run.

   Spans are recorded from the benchmark's side of each layer boundary:
   around its own calls into public functions, and inside wrappers of the
   [Index.t] closure records the layers hand each other (the index under
   test, the inner index given to [Index.journaled], the sub-indexes
   built for [Shard.Engine.create]).  A span has a name, a start, an
   end, the span that caused it, and the minor words its domain
   allocated inside it.

   Each writer owns one preallocated buffer — the client one, each shard
   one — so a worker domain never writes state another domain writes.
   The client drains every buffer between operations, when no worker
   runs: [drain] folds the spans into per-name totals, keeps the first
   [dump_cap] for [write] at exit, and empties the buffers. *)

open Common

let cap = 1024
let max_bufs = 64
let dump_cap = 200_000

(* Span names are interned once, before any domain runs. *)
let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_of = Array.make 256 ""

let name s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.replace names s i;
      name_of.(i) <- s;
      i

type buf = {
  idx : int;
  mutable on : bool;
  ids : int array;
  nm : int array;
  parent : int array;
  start : int array;
  stop : int array;
  words : int array;
  units : int array;
  stack : int array;  (* slots of the open spans *)
  mutable depth : int;
  mutable len : int;
  mutable seq : int;
  mutable dropped : int;
}

(* The innermost open span of the client (buffer 0): the parent of a
   span another buffer opens with nothing of its own open, such as a
   sub-index call made for the client's batch on a worker domain. *)
let top = Atomic.make (-1)

let bufs : buf list ref = ref []

let buffer () =
  let idx = List.length !bufs in
  if idx >= max_bufs then invalid_arg "Span.buffer: too many buffers";
  let a () = Array.make cap 0 in
  let b =
    {
      idx;
      on = false;
      ids = a ();
      nm = a ();
      parent = a ();
      start = a ();
      stop = a ();
      words = a ();
      units = a ();
      stack = a ();
      depth = 0;
      len = 0;
      seq = 0;
      dropped = 0;
    }
  in
  bufs := b :: !bufs;
  b

(* The client's buffer: buffer 0, which publishes [top]. *)
let client = buffer ()

let set_on on = List.iter (fun b -> b.on <- on) !bufs

(* Open a span; returns its slot, or -1 when tracing is off or the
   buffer is full (counted as dropped). *)
let enter b nm =
  if not b.on then -1
  else if b.len = cap then begin
    b.dropped <- b.dropped + 1;
    -1
  end
  else begin
    let i = b.len in
    let id = (b.seq * max_bufs) + b.idx in
    b.len <- i + 1;
    b.ids.(i) <- id;
    b.seq <- b.seq + 1;
    b.nm.(i) <- nm;
    b.parent.(i) <-
      (if b.depth > 0 then b.ids.(b.stack.(b.depth - 1))
       else if b.idx = 0 then -1
       else Atomic.get top);
    if b.idx = 0 then Atomic.set top id;
    b.stack.(b.depth) <- i;
    b.depth <- b.depth + 1;
    b.words.(i) <- minor_words ();
    b.start.(i) <- now ();
    i
  end

let leave b i units =
  if i >= 0 then begin
    b.stop.(i) <- now ();
    b.words.(i) <- minor_words () - b.words.(i);
    b.units.(i) <- units;
    b.depth <- b.depth - 1;
    if b.idx = 0 then Atomic.set top (if b.depth > 0 then b.ids.(b.stack.(b.depth - 1)) else -1)
  end

(* After an operation raised past open spans: close them unfinished. *)
let unwind b =
  for k = b.depth - 1 downto 0 do
    let i = b.stack.(k) in
    b.stop.(i) <- b.start.(i)
  done;
  b.depth <- 0;
  if b.idx = 0 then Atomic.set top (-1)

(* Per-name totals.  [self] is each span minus the union of its
   children's intervals; [delay], [child_ns] and [imbalance] describe the
   children of spans that have some (a fan-out): first child start after
   the span's, summed child time, and slowest over mean child. *)
type agg = {
  mutable count : int;
  mutable total : int;
  mutable self : int;
  mutable aw : int;
  mutable au : int;
  mutable fanouts : int;
  mutable delay : int;
  mutable child_ns : int;
  mutable imbalance : float;
}

let aggs =
  Array.init 256 (fun _ ->
      { count = 0; total = 0; self = 0; aw = 0; au = 0; fanouts = 0; delay = 0; child_ns = 0; imbalance = 0. })

let reset () =
  Array.iter
    (fun a ->
      a.count <- 0;
      a.total <- 0;
      a.self <- 0;
      a.aw <- 0;
      a.au <- 0;
      a.fanouts <- 0;
      a.delay <- 0;
      a.child_ns <- 0;
      a.imbalance <- 0.)
    aggs

let agg s = aggs.(name s)

(* Spans kept for the file written at exit. *)
let dump = Array.make_matrix 7 dump_cap 0
let dump_len = ref 0

let drain () =
  let all = List.concat_map (fun b -> List.init b.len (fun i -> (b, i))) !bufs in
  List.iter
    (fun (b, i) ->
      let id = b.ids.(i) and s0 = b.start.(i) and s1 = b.stop.(i) in
      let kids =
        List.filter_map
          (fun (c, j) -> if c.parent.(j) = id then Some (c.start.(j), c.stop.(j)) else None)
          all
        |> List.sort compare
      in
      (* Union of the children's intervals, clipped to this span. *)
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, z) ->
            let a = max a (max hi s0) and z = min z s1 in
            if z > a then (acc + (z - a), z) else (acc, hi))
          (0, min_int) kids
      in
      let a = aggs.(b.nm.(i)) in
      a.count <- a.count + 1;
      a.total <- a.total + (s1 - s0);
      a.self <- a.self + (s1 - s0 - covered);
      a.aw <- a.aw + b.words.(i);
      a.au <- a.au + b.units.(i);
      (match kids with
      | [] -> ()
      | (first, _) :: _ ->
          let durs = List.map (fun (a, z) -> z - a) kids in
          let sum = List.fold_left ( + ) 0 durs in
          let mean = float_of_int sum /. float_of_int (List.length durs) in
          a.fanouts <- a.fanouts + 1;
          a.delay <- a.delay + (first - s0);
          a.child_ns <- a.child_ns + sum;
          a.imbalance <- a.imbalance +. (float_of_int (List.fold_left max 0 durs) /. mean));
      if !dump_len < dump_cap then begin
        let k = !dump_len in
        List.iteri
          (fun r v -> dump.(r).(k) <- v)
          [ id; b.parent.(i); b.nm.(i); s0; s1; b.words.(i); b.units.(i) ];
        incr dump_len
      end)
    all;
  List.iter (fun b -> b.len <- 0) !bufs

let dropped () = List.fold_left (fun acc b -> acc + b.dropped) 0 !bufs

let write path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_ns\tend_ns\tminor_words\tunits\n";
  for k = 0 to !dump_len - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" dump.(0).(k) dump.(1).(k)
      name_of.(dump.(2).(k))
      dump.(3).(k) dump.(4).(k) dump.(5).(k) dump.(6).(k)
  done;
  close_out oc

(* Record a span named [nm] around [f x] on [b], with [units] of work. *)
let around b nm units f x =
  let s = enter b nm in
  match f x with
  | r ->
      leave b s units;
      r
  | exception e ->
      leave b s units;
      raise e

(* The [Index.t] closure record [o] with a span around each operation
   the workloads call, named ["<layer>.<op>"]; [units] is 1 for single
   operations, the batch length for batches and the keys yielded for
   ranges. *)
let wrap b ~layer (o : Index.t) : Index.t =
  let n op = name (layer ^ "." ^ op) in
  let n_insert = n "insert" and n_lookup = n "lookup" and n_delete = n "delete" in
  let n_lookup_into = n "lookup_into" and n_insert_batch = n "insert_batch" in
  let n_delete_batch = n "delete_batch" and n_of_sorted = n "of_sorted" and n_range = n "range" in
  {
    o with
    insert =
      (fun k ~rid ->
        let s = enter b n_insert in
        match o.insert k ~rid with
        | r ->
            leave b s 1;
            r
        | exception e ->
            leave b s 1;
            raise e);
    lookup = (fun k -> around b n_lookup 1 o.lookup k);
    delete = (fun k -> around b n_delete 1 o.delete k);
    lookup_into =
      (fun keys out ->
        let s = enter b n_lookup_into in
        match o.lookup_into keys out with
        | () -> leave b s (Array.length keys)
        | exception e ->
            leave b s (Array.length keys);
            raise e);
    insert_batch =
      (fun keys ~rids ->
        let s = enter b n_insert_batch in
        match o.insert_batch keys ~rids with
        | r ->
            leave b s (Array.length keys);
            r
        | exception e ->
            leave b s (Array.length keys);
            raise e);
    delete_batch = (fun keys -> around b n_delete_batch (Array.length keys) o.delete_batch keys);
    of_sorted =
      (fun ?gap ~fill entries ->
        let s = enter b n_of_sorted in
        match o.of_sorted ?gap ~fill entries with
        | () -> leave b s (Array.length entries)
        | exception e ->
            leave b s (Array.length entries);
            raise e);
    range =
      (fun ~lo ~hi f ->
        let yielded = ref 0 in
        let s = enter b n_range in
        match
          o.range ~lo ~hi (fun ~key ~rid ->
              incr yielded;
              f ~key ~rid)
        with
        | () -> leave b s !yielded
        | exception e ->
            leave b s !yielded;
            raise e);
  }
