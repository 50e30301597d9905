(* Batched access path: group-descent lookups, batched mutations,
   bottom-up bulk load, and the zero-allocation contract. *)

module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng
module Layout = Pk_core.Layout
module Index = Pk_core.Index
module Hybrid = Pk_core.Hybrid
module Record_store = Pk_records.Record_store

let key_len = 12

(* Every scheme x structure, plus the prefix B+-tree and the hybrid. *)
let makers : (string * (Pk_mem.Mem.t -> Record_store.t -> Index.t)) list =
  List.concat_map
    (fun st ->
      List.map
        (fun (sname, scheme) ->
          ( Index.structure_tag st ^ "/" ^ sname,
            fun mem records -> Index.make st scheme mem records ))
        (Support.scheme_matrix ~key_len))
    [ Index.B_tree; Index.T_tree ]
  @ [
      ("B+/prefix", fun mem records -> Index.make_prefix_btree mem records);
      ( "hybrid",
        fun mem records -> Hybrid.make ~key_len:(Some key_len) Index.B_tree mem records );
    ]

let build_index make ~seed ~n =
  let mem, records = Support.make_env () in
  let ix = make mem records in
  let rng = Prng.create (Int64.of_int seed) in
  let keys = Keygen.uniform ~rng ~key_len ~alphabet:8 n in
  Array.iter
    (fun k ->
      let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
      if not (ix.Index.insert k ~rid) then Alcotest.failf "seed insert %s" (Key.to_hex k))
    keys;
  (ix, records, keys)

(* {2 Batched lookup == singles, with deref parity} *)

let check_batch_lookup (name, make) seed =
  let n = 300 in
  let ix, _records, keys = build_index make ~seed ~n in
  let rng = Prng.create (Int64.of_int (seed + 7)) in
  let present = Hashtbl.create n in
  Array.iter (fun k -> Hashtbl.replace present k ()) keys;
  let absent =
    Keygen.uniform ~rng ~key_len ~alphabet:9 100
    |> Array.to_list
    |> List.filter (fun k -> not (Hashtbl.mem present k))
    |> Array.of_list
  in
  let m = 150 in
  (* Mixed batch: present keys (with duplicates) and absent keys. *)
  let probes =
    Array.init m (fun i ->
        if i mod 3 = 2 && Array.length absent > 0 then
          absent.(Prng.int rng (Array.length absent))
        else keys.(Prng.int rng n))
  in
  ix.Index.reset_counters ();
  let singles = Array.map ix.Index.lookup probes in
  let derefs_singles = ix.Index.deref_count () in
  ix.Index.reset_counters ();
  let batched = ix.Index.lookup_batch probes in
  let derefs_batch = ix.Index.deref_count () in
  Array.iteri
    (fun i want ->
      if batched.(i) <> want then
        Alcotest.failf "%s (seed %d): probe %d (%s): batch %s, single %s" name seed i
          (Key.to_hex probes.(i))
          (match batched.(i) with None -> "None" | Some r -> string_of_int r)
          (match want with None -> "None" | Some r -> string_of_int r))
    singles;
  (* A3 still holds on the batched path: same dereference total. *)
  if derefs_batch <> derefs_singles then
    Alcotest.failf "%s (seed %d): batch derefs %d <> singles derefs %d" name seed derefs_batch
      derefs_singles;
  (* lookup_into: sentinel contract and out-array reuse. *)
  let out = Array.make (m + 3) 99 in
  ix.Index.lookup_into probes out;
  Array.iteri
    (fun i want ->
      let expect = match want with None -> -1 | Some r -> r in
      if out.(i) <> expect then Alcotest.failf "%s: lookup_into slot %d" name i)
    singles;
  true

(* {2 Batched mutations == singles in batch order} *)

let dump ix =
  let l = ref [] in
  ix.Index.iter (fun ~key ~rid -> l := (key, rid) :: !l);
  List.rev !l

let check_batch_mutations (name, make) seed =
  let rng = Prng.create (Int64.of_int seed) in
  let pool_n = 260 in
  let pool = Keygen.uniform ~rng ~key_len ~alphabet:6 pool_n in
  let mem_a, rec_a = Support.make_env () in
  let mem_b, rec_b = Support.make_env () in
  let a = make mem_a rec_a and b = make mem_b rec_b in
  (* Identical record-allocation histories keep rids comparable. *)
  let pre = Array.sub pool 0 (pool_n / 2) in
  Array.iter
    (fun k ->
      let ra = Record_store.insert rec_a ~key:k ~payload:Bytes.empty in
      let rb = Record_store.insert rec_b ~key:k ~payload:Bytes.empty in
      ignore (a.Index.insert k ~rid:ra);
      ignore (b.Index.insert k ~rid:rb))
    pre;
  let m = 100 in
  (* Inserts, including keys already present and in-batch duplicates. *)
  let ins = Array.init m (fun _ -> pool.(Prng.int rng pool_n)) in
  let rids_a = Array.map (fun k -> Record_store.insert rec_a ~key:k ~payload:Bytes.empty) ins in
  let rids_b = Array.map (fun k -> Record_store.insert rec_b ~key:k ~payload:Bytes.empty) ins in
  let res_batch = a.Index.insert_batch ins ~rids:rids_a in
  let res_single = Array.mapi (fun i k -> b.Index.insert k ~rid:rids_b.(i)) ins in
  if res_batch <> res_single then Alcotest.failf "%s (seed %d): insert results differ" name seed;
  a.Index.validate ();
  let del = Array.init m (fun _ -> pool.(Prng.int rng pool_n)) in
  let del_batch = a.Index.delete_batch del in
  let del_single = Array.map b.Index.delete del in
  if del_batch <> del_single then Alcotest.failf "%s (seed %d): delete results differ" name seed;
  a.Index.validate ();
  b.Index.validate ();
  if a.Index.count () <> b.Index.count () then
    Alcotest.failf "%s (seed %d): counts %d vs %d" name seed (a.Index.count ())
      (b.Index.count ());
  if dump a <> dump b then Alcotest.failf "%s (seed %d): contents differ" name seed;
  true

(* {2 Bulk load == incremental build} *)

let check_bulk_load (name, make) seed =
  let n = 600 in
  let keys = Support.sorted_keys ~seed ~key_len ~alphabet:8 n in
  List.iter
    (fun fill ->
      let mem, records = Support.make_env () in
      let bulk = make mem records in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      bulk.Index.of_sorted ~fill entries;
      bulk.Index.validate ();
      if bulk.Index.count () <> n then
        Alcotest.failf "%s fill %.2f: count %d" name fill (bulk.Index.count ());
      Array.iter
        (fun (k, rid) ->
          match bulk.Index.lookup k with
          | Some r when r = rid -> ()
          | _ -> Alcotest.failf "%s fill %.2f: lookup %s after bulk load" name fill (Key.to_hex k))
        entries;
      (* The batched path agrees on the bulk-loaded shape too. *)
      let got = bulk.Index.lookup_batch keys in
      Array.iteri
        (fun i r ->
          if r <> Some (snd entries.(i)) then
            Alcotest.failf "%s fill %.2f: batch lookup on bulk" name fill)
        got;
      (* Same contents as an incremental build over shuffled input. *)
      let mem2, rec2 = Support.make_env () in
      let inc = make mem2 rec2 in
      Array.iter
        (fun k ->
          let rid = Record_store.insert rec2 ~key:k ~payload:Bytes.empty in
          if not (inc.Index.insert k ~rid) then Alcotest.failf "%s: incremental insert" name)
        (Support.shuffled ~seed:(seed + 1) keys);
      inc.Index.validate ();
      if inc.Index.count () <> bulk.Index.count () then
        Alcotest.failf "%s fill %.2f: bulk/incremental counts differ" name fill;
      if List.map fst (dump bulk) <> List.map fst (dump inc) then
        Alcotest.failf "%s fill %.2f: bulk/incremental key sequences differ" name fill)
    [ 0.5; 0.75; 1.0 ];
  true

let test_bulk_load_errors () =
  List.iter
    (fun (name, make) ->
      let mem, records = Support.make_env () in
      let ix = make mem records in
      let keys = Support.sorted_keys ~seed:3 ~key_len ~alphabet:8 50 in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      (* Unsorted input is rejected. *)
      let swapped = Array.copy entries in
      let tmp = swapped.(10) in
      swapped.(10) <- swapped.(11);
      swapped.(11) <- tmp;
      (try
         ix.Index.of_sorted ~fill:1.0 swapped;
         Alcotest.failf "%s: unsorted input accepted" name
       with Invalid_argument _ -> ());
      (* Duplicates are rejected (not strictly ascending). *)
      let dup = Array.copy entries in
      dup.(20) <- dup.(21);
      (try
         ix.Index.of_sorted ~fill:1.0 dup;
         Alcotest.failf "%s: duplicate input accepted" name
       with Invalid_argument _ -> ());
      (* Failed validation left the index untouched and loadable. *)
      ix.Index.of_sorted ~fill:1.0 entries;
      ix.Index.validate ();
      (* A second bulk load on a non-empty index is rejected. *)
      try
        ix.Index.of_sorted ~fill:1.0 entries;
        Alcotest.failf "%s: bulk load on non-empty index accepted" name
      with Invalid_argument _ -> ())
    makers

(* Out-of-range fill factors are clamped, not fatal. *)
let test_fill_clamped () =
  List.iter
    (fun fill ->
      let mem, records = Support.make_env () in
      let ix = Index.make Index.B_tree (Layout.Direct { key_len }) mem records in
      let keys = Support.sorted_keys ~seed:11 ~key_len ~alphabet:8 400 in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      ix.Index.of_sorted ~fill entries;
      ix.Index.validate ();
      Alcotest.(check int) "count" 400 (ix.Index.count ()))
    [ -1.0; 0.0; 0.3; 2.5 ]

(* {2 Zero-allocation contract}

   Steady-state [lookup_into] must not allocate per probe (at most 0.1
   minor words) under every B-tree and T-tree scheme: direct, indirect
   and the paper's partial keys at both granularities, flat and
   blocked.  A single [lookup] allocates only its [Some] box.  The one
   remaining exemption is the prefix B+-tree, which materialises
   suffixes. *)

let fresh_keys ~seed ~n =
  let rng = Prng.create (Int64.of_int seed) in
  (rng, Keygen.uniform ~rng ~key_len ~alphabet:8 n)

(* Incrementally inserted index over [n] keys (the shape the direct and
   indirect cases have always used). *)
let inserted make ~n =
  let mem, records = Support.make_env () in
  let ix = make mem records in
  let rng, keys = fresh_keys ~seed:99 ~n in
  Array.iter
    (fun k ->
      let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
      ignore (ix.Index.insert k ~rid))
    keys;
  (ix, rng, keys)

(* Bulk-loaded index, so blocked layouts actually place the nodes. *)
let bulk_loaded make ~n =
  let mem, records = Support.make_env () in
  let ix = make mem records in
  let rng, keys = fresh_keys ~seed:99 ~n in
  let sorted = Array.copy keys in
  Array.sort Key.compare sorted;
  let entries =
    Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) sorted
  in
  ix.Index.of_sorted ~fill:1.0 entries;
  (ix, rng, keys)

let check_lookup_into_alloc sname (ix, rng, keys) =
  let n = Array.length keys in
  let m = 256 in
  let probes = Array.init m (fun _ -> keys.(Prng.int rng n)) in
  let out = Array.make m (-1) in
  (* Warm-up: grow scratch arrays to the batch size. *)
  for _ = 1 to 3 do
    ix.Index.lookup_into probes out
  done;
  let rounds = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ix.Index.lookup_into probes out
  done;
  let delta = Gc.minor_words () -. before in
  let per_probe = delta /. float_of_int (rounds * m) in
  if per_probe > 0.1 then
    Alcotest.failf "%s: %.4f minor words per probe (%.0f over %d probes)" sname per_probe delta
      (rounds * m);
  Array.iter (fun r -> if r < 0 then Alcotest.failf "%s: probe missing" sname) out

let test_zero_alloc () =
  List.iter
    (fun (sname, st, scheme) ->
      check_lookup_into_alloc sname
        (inserted (fun mem records -> Index.make st scheme mem records) ~n:6000))
    [
      ("B/direct", Index.B_tree, Layout.Direct { key_len });
      ("B/indirect", Index.B_tree, Layout.Indirect);
      ("T/direct", Index.T_tree, Layout.Direct { key_len });
      ("T/indirect", Index.T_tree, Layout.Indirect);
    ]

let pk_bit = Layout.Partial { granularity = Pk_partialkey.Partial_key.Bit; l_bytes = 1 }

(* The paper's schemes by registry tag, plus bit-granularity trees. *)
let partial_makers =
  Pk_core.Variants.ensure_registered ();
  List.map
    (fun tag -> (tag, fun mem records -> Index.Registry.build ~key_len tag mem records))
    [ "pkB"; "pkT"; "pkB-blocked"; "pkT-blocked" ]
  @ [
      ("B/pk-bit-l1", fun mem records -> Index.make Index.B_tree pk_bit mem records);
      ("T/pk-bit-l1", fun mem records -> Index.make Index.T_tree pk_bit mem records);
    ]

let test_zero_alloc_partial () =
  List.iter
    (fun (sname, make) ->
      check_lookup_into_alloc sname (inserted make ~n:6000);
      check_lookup_into_alloc (sname ^ " (bulk-loaded)") (bulk_loaded make ~n:6000))
    partial_makers

(* Single lookups: at most the [Some] box (2 words) per hit. *)
let test_single_lookup_alloc () =
  List.iter
    (fun (sname, make) ->
      let ix, rng, keys = bulk_loaded make ~n:6000 in
      let n = Array.length keys in
      let m = 2048 in
      let probes = Array.init m (fun _ -> keys.(Prng.int rng n)) in
      let run () =
        let hits = ref 0 in
        for i = 0 to m - 1 do
          match ix.Index.lookup probes.(i) with Some _ -> incr hits | None -> ()
        done;
        !hits
      in
      ignore (run () : int);
      (* The words the measurement itself boxes, taken off the total. *)
      let overhead =
        let b = Gc.minor_words () in
        Gc.minor_words () -. b
      in
      let before = Gc.minor_words () in
      let hits = run () in
      let delta = Gc.minor_words () -. before -. overhead in
      if hits <> m then Alcotest.failf "%s: %d of %d probes found" sname hits m;
      let per_hit = delta /. float_of_int m in
      if per_hit > 2.0 then
        Alcotest.failf "%s: %.3f minor words per single lookup (%.0f over %d)" sname per_hit delta
          m)
    (partial_makers
    @ List.map
        (fun (sname, st, scheme) -> (sname, fun mem records -> Index.make st scheme mem records))
        [
          ("B/direct", Index.B_tree, Layout.Direct { key_len });
          ("B/indirect", Index.B_tree, Layout.Indirect);
          ("T/direct", Index.T_tree, Layout.Direct { key_len });
          ("T/indirect", Index.T_tree, Layout.Indirect);
        ])

(* {2 Write-path allocation: partial keys cost no more than indirect}

   The undo journal makes every write allocate (a logged copy of the
   bytes it overwrites), so the contract is relative: a steady-state
   pkT / pkB insert or delete may allocate at most 1.5x the minor words
   of the same tree under the indirect scheme, on the same keys and the
   same operations.  Partial-key maintenance itself must add little. *)

let write_words make ~keys ~fresh ~victims =
  let mem, records = Support.make_env () in
  let ix = make mem records in
  let sorted = Array.copy keys in
  Array.sort Key.compare sorted;
  ix.Index.of_sorted ~gap:0.1 ~fill:1.0
    (Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) sorted);
  let rids = Array.map (fun k -> Record_store.insert records ~key:k ~payload:Bytes.empty) fresh in
  let m = Array.length fresh / 2 in
  (* Warm-up: the first half of the fresh keys and victims (grows the
     trees' scratch buffers). *)
  for i = 0 to m - 1 do
    if not (ix.Index.insert fresh.(i) ~rid:rids.(i)) then Alcotest.fail "warm-up insert";
    if not (ix.Index.delete victims.(i)) then Alcotest.fail "warm-up delete"
  done;
  let timed f =
    let before = Gc.minor_words () in
    for i = m to (2 * m) - 1 do
      if not (f i) then Alcotest.failf "write %d refused" i
    done;
    (Gc.minor_words () -. before) /. float_of_int m
  in
  let ins = timed (fun i -> ix.Index.insert fresh.(i) ~rid:rids.(i)) in
  let del = timed (fun i -> ix.Index.delete victims.(i)) in
  ix.Index.validate ();
  (ins, del)

let test_write_path_alloc () =
  Pk_core.Variants.ensure_registered ();
  let rng = Prng.create 17L in
  let all = Keygen.uniform ~rng ~key_len:20 ~alphabet:12 24_000 in
  let keys = Array.sub all 0 20_000 and fresh = Array.sub all 20_000 4_000 in
  let victims = Array.sub (Support.shuffled ~seed:18 keys) 0 4_000 in
  List.iter
    (fun (tag, st) ->
      let ins, del =
        write_words (fun mem records -> Index.Registry.build ~key_len:20 tag mem records)
          ~keys ~fresh ~victims
      in
      let ins0, del0 =
        write_words (fun mem records -> Index.make st Layout.Indirect mem records) ~keys ~fresh
          ~victims
      in
      let check what words floor =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: %.1f minor words/op <= 1.5 x indirect %.1f" tag what words floor)
          true
          (words <= 1.5 *. floor)
      in
      check "insert" ins ins0;
      check "delete" del del0)
    [ ("pkT", Index.T_tree); ("pkB", Index.B_tree) ]

(* {2 Edge cases} *)

let test_empty_and_errors () =
  let mem, records = Support.make_env () in
  let ix = Index.make Index.B_tree (Layout.Direct { key_len }) mem records in
  (* Empty batch. *)
  Alcotest.(check int) "empty batch" 0 (Array.length (ix.Index.lookup_batch [||]));
  Alcotest.(check int) "empty insert" 0
    (Array.length (ix.Index.insert_batch [||] ~rids:[||]));
  (* Batch against an empty index. *)
  let keys = Support.sorted_keys ~seed:5 ~key_len ~alphabet:8 10 in
  Array.iter
    (fun r -> if r <> None then Alcotest.fail "empty index returned a hit")
    (ix.Index.lookup_batch keys);
  (* Mismatched rids. *)
  (try
     ignore (ix.Index.insert_batch keys ~rids:[| 1 |]);
     Alcotest.fail "mismatched rids accepted"
   with Invalid_argument _ -> ());
  (* Undersized out array. *)
  (try
     ix.Index.lookup_into keys (Array.make 3 0);
     Alcotest.fail "undersized out accepted"
   with Invalid_argument _ -> ());
  ignore records

let seeds_for prop pairs =
  List.map
    (fun ((name, _) as maker) ->
      Support.seeded_qtest ~count:12 name (fun seed -> prop maker seed))
    pairs

let () =
  Alcotest.run "pk_batch"
    [
      ("batch-lookup", seeds_for check_batch_lookup makers);
      ("batch-mutations", seeds_for check_batch_mutations makers);
      ("bulk-load", seeds_for check_bulk_load makers);
      ( "bulk-load-edges",
        [
          Alcotest.test_case "errors" `Quick test_bulk_load_errors;
          Alcotest.test_case "fill clamped" `Quick test_fill_clamped;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "direct+indirect lookup_into" `Quick test_zero_alloc;
          Alcotest.test_case "partial-key lookup_into" `Quick test_zero_alloc_partial;
          Alcotest.test_case "single lookup boxes only the hit" `Quick test_single_lookup_alloc;
          Alcotest.test_case "pk writes allocate <= 1.5x indirect" `Quick test_write_path_alloc;
        ] );
      ("edges", [ Alcotest.test_case "empty and errors" `Quick test_empty_and_errors ]);
    ]
