(* The layer ladder: one probe set through each rung of the lookup
   stack, from a raw [Bytes] read up to [Index.lookup].  The difference
   between adjacent rungs is the cost that layer adds.

   Rungs 1-4 read random offsets of a region as large as the workload's
   node arena; rung 5 compares a stored record key; rungs 6-7 run the
   paper's COMPAREPARTKEY and FINDNODE over sorted keys held in plain
   arrays; rung 8 is the whole lookup through the [Index.t] closure. *)

open Common
module Arena = Pk_arena.Arena
module Partial_key = Pk_partialkey.Partial_key
module Pk_compare = Pk_partialkey.Pk_compare
module Node_search = Pk_partialkey.Node_search

let probes = 50_000
let reps = 5
let sink = ref 0

(* Median ns per call of [f i] over the probe indexes, after one
   untimed pass that also gives the minor words per call. *)
let rung f =
  let w0 = minor_words () in
  for i = 0 to probes - 1 do
    f i
  done;
  let words = float_of_int (minor_words () - w0) /. float_of_int probes in
  let once () =
    let t0 = now () in
    for i = 0 to probes - 1 do
      f i
    done;
    float_of_int (now () - t0) /. float_of_int probes
  in
  (median (List.init reps (fun _ -> once ())), words)

(* [keys]/[rids]: the workload's live keys and their record ids;
   [arena_bytes]: the size of its node arena; [entries]: keys per node. *)
let run ctx ~records ~(ix : Index.t) ~keys ~rids ~arena_bytes ~entries =
  let rng = Common.rng ctx 3 in
  let n = Array.length keys and klen = Bytes.length keys.(0) in
  let pick () = Random.State.int rng n in
  let size = max 4096 (arena_bytes land lnot 63) in
  let offs = Array.init probes (fun _ -> Random.State.int rng (size / 32) * 32) in
  let raw = Bytes.init size (fun _ -> Char.chr (Random.State.int rng 256)) in
  let arena = Arena.create ~initial_capacity:(size + 64) ~name:"ladder" () in
  let abase = Arena.alloc arena size in
  Arena.blit_from_bytes arena ~src:raw ~src_off:0 ~dst_off:abase ~len:size;
  let region = Mem.new_region (Mem.create ()) ~initial_capacity:(size + 64) ~name:"ladder" () in
  let mbase = Mem.alloc region size in
  (* One key per 32-byte slot, so the compare rung examines every byte
     of an equal key, as the dereference that confirms a match does. *)
  let slot_key s = keys.(s mod n) in
  for s = 0 to (size / 32) - 1 do
    Mem.write_bytes region ~off:(mbase + (s * 32)) ~src:(slot_key s) ~src_off:0 ~len:klen
  done;
  let bytes_ns, bytes_words =
    rung (fun i -> sink := !sink + Int64.to_int (Bytes.get_int64_le raw offs.(i)))
  in
  let arena_ns, arena_words = rung (fun i -> sink := !sink + Arena.get_u64 arena (abase + offs.(i))) in
  let mem_ns, mem_words = rung (fun i -> sink := !sink + Mem.read_u64 region (mbase + offs.(i))) in
  let cmp_key = Array.map (fun o -> slot_key (o / 32)) offs in
  let mem_compare_ns, mem_compare_words =
    rung (fun i ->
        sink :=
          !sink + Mem.compare_sign region ~off:(mbase + offs.(i)) ~len:klen cmp_key.(i) ~key_off:0 ~key_len:klen)
  in
  let rec_pick = Array.init probes (fun _ -> pick ()) in
  let records_ns, records_words =
    rung (fun i ->
        let j = rec_pick.(i) in
        sink := !sink + Record_store.compare_sign records rids.(j) keys.(j))
  in
  let sorted = Array.copy keys in
  Array.sort Key.compare sorted;
  (* COMPAREPARTKEY of a search key against the index key before it,
     with the search state the descent would carry from their base. *)
  let pk_at =
    Array.init probes (fun _ ->
        let i = 1 + Random.State.int rng (n - 2) in
        let pk = Partial_key.encode Byte ~l_bytes:2 ~base:sorted.(i - 1) ~key:sorted.(i) in
        let search = sorted.(i + 1) in
        let _, off = Key.compare_detail search sorted.(i - 1) in
        (pk, search, off))
  in
  let compare_ns, compare_words =
    rung (fun i ->
        let pk, search, off = pk_at.(i) in
        match Pk_compare.compare_partkey Byte ~search ~pk ~rel:Gt ~off with
        | _, d -> sink := !sink + d)
  in
  (* FINDNODE over one node's worth of consecutive sorted keys. *)
  let entries = max 2 (min entries (n / 4)) in
  let nodes =
    Array.init 4096 (fun _ ->
        let s = 1 + Random.State.int rng (n - entries - 1) in
        let ks = Array.sub sorted s entries in
        let pks =
          Array.mapi
            (fun i key ->
              let base = if i = 0 then sorted.(s - 1) else ks.(i - 1) in
              Partial_key.encode Byte ~l_bytes:2 ~base ~key)
            ks
        in
        (sorted.(s - 1), ks, pks))
  in
  let cur = ref nodes.(0) and search = ref keys.(0) in
  let ks () = match !cur with _, ks, _ -> ks and pks () = match !cur with _, _, p -> p in
  let ops =
    {
      Node_search.num_keys = entries;
      pk_off = (fun i -> (pks ()).(i).pk_off);
      resolve_units =
        (fun i ~rel ~off ->
          let pk = (pks ()).(i) in
          Pk_compare.resolve_by_units Byte ~search:!search ~rel ~off ~pk_len:pk.pk_len
            ~pk_bits:pk.pk_bits);
      branch_unit =
        (fun i ->
          let pk = (pks ()).(i) in
          if pk.pk_len > 0 then Char.code (Bytes.get pk.pk_bits 0) else -1);
      search_unit =
        (fun off -> if off < Bytes.length !search then Char.code (Bytes.get !search off) else 0);
      deref = (fun i -> Key.compare_detail !search (ks ()).(i));
    }
  in
  let fn_at =
    Array.init probes (fun _ ->
        let ((base, ks, _) as node) = nodes.(Random.State.int rng (Array.length nodes)) in
        let key = ks.(Random.State.int rng entries) in
        let _, off = Key.compare_detail key base in
        (node, key, off))
  in
  let find_node_ns, find_node_words =
    rung (fun i ->
        let node, key, off0 = fn_at.(i) in
        cur := node;
        search := key;
        let r = Node_search.find_node ops ~rel0:Gt ~off0 in
        sink := !sink + r.low)
  in
  let lookup_pick = Array.init probes (fun _ -> keys.(pick ())) in
  let lookup_ns, _ =
    rung (fun i -> match ix.lookup lookup_pick.(i) with Some r -> sink := !sink + r | None -> ())
  in
  [
    ("ladder.bytes_ns", bytes_ns);
    ("ladder.bytes_words", bytes_words);
    ("ladder.arena_ns", arena_ns);
    ("ladder.arena_words", arena_words);
    ("ladder.mem_ns", mem_ns);
    ("ladder.mem_words", mem_words);
    ("ladder.mem_compare_ns", mem_compare_ns);
    ("ladder.mem_compare_words", mem_compare_words);
    ("records.compare_sign_ns", records_ns);
    ("records.compare_sign_words", records_words);
    ("partialkey.compare_ns", compare_ns);
    ("partialkey.compare_words", compare_words);
    ("partialkey.find_node_ns", find_node_ns);
    ("partialkey.find_node_words", find_node_words);
    ("index.lookup_ns", lookup_ns);
  ]
