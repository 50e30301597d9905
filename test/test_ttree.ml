(* T-tree unit tests plus model-based conformance across schemes. *)

module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng
module Layout = Pk_core.Layout
module Ttree = Pk_core.Ttree
module Index = Pk_core.Index
module Record_store = Pk_records.Record_store
module Partial_key = Pk_partialkey.Partial_key
module Fault = Pk_fault.Fault

let make_ttree ?(node_bytes = 192) scheme =
  let mem, records = Support.make_env () in
  let t = Ttree.create mem records { Ttree.scheme; node_bytes; naive_search = false; layout = Layout.Flat } in
  (t, records)

let insert_all t records keys =
  Array.iter
    (fun k ->
      let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
      if not (Ttree.insert t k ~rid) then Alcotest.failf "insert %s failed" (Key.to_hex k))
    keys

let pk2 = Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 }

let test_empty () =
  let t, _ = make_ttree pk2 in
  Alcotest.(check int) "count" 0 (Ttree.count t);
  Alcotest.(check int) "height" 0 (Ttree.height t);
  Alcotest.(check (option int)) "lookup" None (Ttree.lookup t (Bytes.of_string "x"));
  Alcotest.(check bool) "delete" false (Ttree.delete t (Bytes.of_string "x"));
  Ttree.validate t

let test_single_node_fill () =
  let t, records = make_ttree pk2 in
  let cap = Ttree.entry_capacity t in
  let keys = Keygen.sequential ~key_len:8 ~start:100 cap in
  insert_all t records keys;
  Alcotest.(check int) "one node" 1 (Ttree.node_count t);
  Alcotest.(check int) "height 1" 1 (Ttree.height t);
  Ttree.validate t;
  Array.iter (fun k -> Alcotest.(check bool) "found" true (Ttree.lookup t k <> None)) keys

let test_overflow_evicts_min () =
  let t, records = make_ttree pk2 in
  let cap = Ttree.entry_capacity t in
  (* Fill one node, then insert a key *inside* its range to force the
     minimum-eviction path. *)
  let keys = Keygen.sequential ~key_len:8 ~start:0 (2 * cap) in
  let evens = Array.init cap (fun i -> keys.(2 * i)) in
  insert_all t records evens;
  let inner = keys.(3) in
  let rid = Record_store.insert records ~key:inner ~payload:Bytes.empty in
  Alcotest.(check bool) "inner insert" true (Ttree.insert t inner ~rid);
  Alcotest.(check bool) "grew nodes" true (Ttree.node_count t >= 2);
  Ttree.validate t;
  Array.iter (fun k -> Alcotest.(check bool) "kept" true (Ttree.lookup t k <> None)) evens;
  Alcotest.(check bool) "inner found" true (Ttree.lookup t inner <> None)

let test_avl_balance_sequential () =
  let t, records = make_ttree pk2 in
  let keys = Keygen.sequential ~key_len:8 ~start:0 4000 in
  insert_all t records keys;
  Ttree.validate t;
  (* ~4000/19 ≈ 210 nodes; AVL height must stay near lg(nodes). *)
  let nodes = Ttree.node_count t in
  let max_height = int_of_float (1.45 *. (log (float_of_int (nodes + 2)) /. log 2.0)) + 2 in
  Alcotest.(check bool)
    (Printf.sprintf "height %d <= %d for %d nodes" (Ttree.height t) max_height nodes)
    true
    (Ttree.height t <= max_height)

let test_random_all_schemes () =
  List.iter
    (fun (name, scheme) ->
      let t, records = make_ttree scheme in
      let rng = Prng.create 88L in
      let keys = Keygen.uniform ~rng ~key_len:12 ~alphabet:12 3000 in
      insert_all t records keys;
      Ttree.validate t;
      Array.iter
        (fun k ->
          if Ttree.lookup t k = None then Alcotest.failf "%s: lost %s" name (Key.to_hex k))
        keys;
      let absent = Keygen.uniform ~rng ~key_len:13 ~alphabet:12 100 in
      Array.iter
        (fun k ->
          if Ttree.lookup t k <> None then Alcotest.failf "%s: phantom %s" name (Key.to_hex k))
        absent)
    (Support.scheme_matrix ~key_len:12)

let test_indirect_derefs_per_level () =
  let t, records = make_ttree Layout.Indirect in
  let rng = Prng.create 3L in
  let keys = Keygen.uniform ~rng ~key_len:12 ~alphabet:220 4000 in
  insert_all t records keys;
  Ttree.reset_counters t;
  for i = 0 to 99 do
    ignore (Ttree.lookup t keys.(i))
  done;
  (* Descent costs one dereference per level plus a final binary
     search: clearly more than the tree height, clearly more than pk. *)
  let per = float_of_int (Ttree.deref_count t) /. 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "indirect T-tree derefs/lookup = %.1f" per)
    true
    (per >= float_of_int (Ttree.height t) *. 0.5 && per <= 24.0)

let test_pk_rare_derefs () =
  let t, records = make_ttree pk2 in
  let rng = Prng.create 4L in
  let keys = Keygen.uniform ~rng ~key_len:12 ~alphabet:220 4000 in
  insert_all t records keys;
  Ttree.reset_counters t;
  for i = 0 to 199 do
    ignore (Ttree.lookup t keys.(i))
  done;
  let per = float_of_int (Ttree.deref_count t) /. 200.0 in
  Alcotest.(check bool) (Printf.sprintf "pkT derefs/lookup = %.2f" per) true (per < 2.0)

let test_iter_sorted_and_range () =
  let t, records = make_ttree pk2 in
  let rng = Prng.create 6L in
  let keys = Keygen.uniform ~rng ~key_len:10 ~alphabet:30 2000 in
  insert_all t records keys;
  let sorted = Array.copy keys in
  Array.sort Key.compare sorted;
  let got = ref [] in
  Ttree.iter t (fun ~key ~rid:_ -> got := key :: !got);
  let got = Array.of_list (List.rev !got) in
  Alcotest.(check int) "all visited" 2000 (Array.length got);
  Array.iteri
    (fun i k ->
      if not (Key.equal k got.(i)) then Alcotest.failf "order mismatch at %d" i)
    sorted;
  (* range scan matches the model *)
  let lo = sorted.(500) and hi = sorted.(1499) in
  let cnt = ref 0 in
  Ttree.range t ~lo ~hi (fun ~key:_ ~rid:_ -> incr cnt);
  Alcotest.(check int) "range size" 1000 !cnt

let test_delete_to_empty () =
  let t, records = make_ttree pk2 in
  let rng = Prng.create 7L in
  let keys = Keygen.uniform ~rng ~key_len:8 ~alphabet:50 2500 in
  insert_all t records keys;
  let order = Support.shuffled ~seed:9 keys in
  Array.iteri
    (fun i k ->
      if not (Ttree.delete t k) then Alcotest.failf "delete %d failed" i;
      if i mod 250 = 0 then Ttree.validate t)
    order;
  Alcotest.(check int) "empty" 0 (Ttree.count t);
  Alcotest.(check int) "no nodes" 0 (Ttree.node_count t);
  Ttree.validate t

let test_mixed_churn () =
  let t, records = make_ttree pk2 in
  let rng = Prng.create 10L in
  let keys = Keygen.uniform ~rng ~key_len:8 ~alphabet:50 1000 in
  let live = Hashtbl.create 1000 in
  for round = 1 to 6000 do
    let k = keys.(Prng.int rng 1000) in
    if Hashtbl.mem live k then begin
      Alcotest.(check bool) "churn delete" true (Ttree.delete t k);
      Hashtbl.remove live k
    end
    else begin
      let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
      Alcotest.(check bool) "churn insert" true (Ttree.insert t k ~rid);
      Hashtbl.replace live k rid
    end;
    if round mod 1000 = 0 then Ttree.validate t
  done;
  Ttree.validate t;
  Alcotest.(check int) "count" (Hashtbl.length live) (Ttree.count t)

let test_space_characteristics () =
  (* Figure 10(b)'s qualitative claims: indirect storage excels in
     space; partial keys take roughly twice the indirect space; direct
     storage grows with key size and exceeds both for 20-byte keys. *)
  let key_len = 20 in
  let build scheme =
    let t, records = make_ttree scheme in
    let rng = Prng.create 11L in
    let keys = Keygen.uniform ~rng ~key_len ~alphabet:220 8000 in
    insert_all t records keys;
    Ttree.validate t;
    float_of_int (Ttree.space_bytes t) /. 8000.0
  in
  let indirect = build Layout.Indirect in
  let pk = build pk2 in
  let direct = build (Layout.Direct { key_len }) in
  Alcotest.(check bool)
    (Printf.sprintf "indirect %.1f < pk %.1f < direct %.1f B/key" indirect pk direct)
    true
    (indirect < pk && pk < direct);
  let ratio = pk /. indirect in
  Alcotest.(check bool)
    (Printf.sprintf "pk ~ 2x indirect (ratio %.2f)" ratio)
    true
    (ratio > 1.4 && ratio < 2.6)


let test_seq_from () =
  let b, records = make_ttree pk2 in
  let keys = Keygen.sequential ~key_len:8 ~start:0 1000 in
  insert_all b records keys;
  (* take 3 from an exact hit *)
  let got = List.of_seq (Seq.take 3 (Ttree.seq_from b keys.(500))) in
  Alcotest.(check int) "exact hit length" 3 (List.length got);
  List.iteri
    (fun i (k, _) -> Alcotest.check Support.key_testable "exact hit keys" keys.(500 + i) k)
    got;
  (* from between keys: sequential keys are dense, use a shorter prefix
     trick: delete one key and start at it *)
  ignore (Ttree.delete b keys.(500));
  (match List.of_seq (Seq.take 1 (Ttree.seq_from b keys.(500))) with
  | [ (k, _) ] -> Alcotest.check Support.key_testable "absent start" keys.(501) k
  | _ -> Alcotest.fail "absent start");
  (* below all / above all *)
  (match List.of_seq (Seq.take 1 (Ttree.seq_from b (Bytes.make 8 '\000'))) with
  | [ (k, _) ] -> Alcotest.check Support.key_testable "below all" keys.(0) k
  | _ -> Alcotest.fail "below all");
  Alcotest.(check int) "above all is empty" 0
    (List.length (List.of_seq (Ttree.seq_from b (Bytes.make 8 '\xff'))));
  (* full scan matches count *)
  Alcotest.(check int) "full cursor scan" 999
    (Seq.length (Ttree.seq_from b (Bytes.make 8 '\000')))

(* {2 Per-operation partial-key invariant}

   Every partial-key T-tree variant, with nodes of 3-6 entries so that
   rotations, slide refills, half-leaf merges, full-node evictions
   ([insert_max]) and greatest-lower-bound pulls ([remove_max]) all
   fire, replayed from a seed against a model: [validate] — which
   re-encodes every stored partial key from the full keys — runs after
   every single insert and delete, and the tree's contents must equal
   the model's.  Keys are 6 bytes over {0x00, 0x40, 0x80, 0xc0}, so
   neighbours share long prefixes and the all-zero key can occur. *)

let pk_variants =
  let p granularity l_bytes = Layout.Partial { granularity; l_bytes } in
  [
    ("pkT", p Partial_key.Byte 2, Layout.Flat);
    ("pkT-blocked", p Partial_key.Byte 2, Layout.blocked_default);
    ("pk-byte-l1", p Partial_key.Byte 1, Layout.Flat);
    ("pk-bit-l1", p Partial_key.Bit 1, Layout.Flat);
    ("pk-bit-l2", p Partial_key.Bit 2, Layout.Flat);
  ]

let per_op_invariant (name, scheme, layout) seed =
  let rng = Prng.create (Int64.of_int seed) in
  let entries = 3 + Prng.int rng 4 in
  let node_bytes = 24 + (entries * Layout.entry_size scheme) in
  let mem, records = Support.make_env () in
  let t = Ttree.create mem records { Ttree.scheme; node_bytes; naive_search = false; layout } in
  let pool = Support.sorted_keys ~seed ~key_len:6 ~alphabet:4 80 in
  let n = Array.length pool in
  let rids = Array.map (fun k -> Record_store.insert records ~key:k ~payload:Bytes.empty) pool in
  let live = Array.make n false in
  let fail step fmt =
    Printf.ksprintf (fun m -> Alcotest.failf "%s seed %d step %d: %s" name seed step m) fmt
  in
  let check step =
    (try Ttree.validate t with Failure m -> fail step "validate: %s" m);
    let got = ref [] in
    Ttree.iter t (fun ~key ~rid -> got := (key, rid) :: !got);
    let expect = ref [] in
    for i = n - 1 downto 0 do
      if live.(i) then expect := (pool.(i), rids.(i)) :: !expect
    done;
    if List.rev !got <> !expect then fail step "contents differ from the model"
  in
  (* A third of the runs start from a gapped bulk load (the blocked
     variant's placement only applies there). *)
  if Prng.int rng 3 = 0 then begin
    let picked = List.filter (fun _ -> Prng.bool rng) (List.init n Fun.id) in
    Ttree.bulk_load t ~gap:0.2 (Array.of_list (List.map (fun i -> (pool.(i), rids.(i))) picked));
    List.iter (fun i -> live.(i) <- true) picked;
    check 0
  end;
  (* Grow, then shrink: deletes drain internal nodes and half-leaves. *)
  for step = 1 to 240 do
    let i = Prng.int rng n in
    if Prng.int rng 100 < (if step <= 120 then 75 else 25) then begin
      if Ttree.insert t pool.(i) ~rid:rids.(i) = live.(i) then fail step "insert %d result" i;
      live.(i) <- true
    end
    else begin
      if Ttree.delete t pool.(i) <> live.(i) then fail step "delete %d result" i;
      live.(i) <- false
    end;
    check step
  done;
  true

let per_op_qtest ((name, _, _) as variant) =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4141 |])
    (QCheck2.Test.make ~name:("per-op pk invariant " ^ name) ~count:25 ~print:string_of_int
       QCheck2.Gen.(int_bound 1_000_000)
       (per_op_invariant variant))

(* The property only means something if the refresh paths run: count
   the T-tree's fault-site hits (arming an unused site turns counting
   on, nothing is injected) over fixed seeds of every variant. *)
let test_per_op_coverage () =
  Fault.reset ();
  Fault.arm "test.count-only" (Fault.One_shot max_int);
  Fun.protect ~finally:(fun () -> Fault.reset ()) (fun () ->
      List.iter (fun v -> for seed = 1 to 6 do ignore (per_op_invariant v seed) done) pk_variants;
      List.iter
        (fun site ->
          Alcotest.(check bool) (Printf.sprintf "%s fired (%d hits)" site (Fault.hits site)) true
            (Fault.hits site > 0))
        [ "ttree.rotate"; "ttree.slide"; "ttree.merge"; "ttree.evict" ])

let conformance name structure scheme ~key_len ~alphabet =
  Alcotest.test_case name `Slow (fun () ->
      Support.conformance_run
        ~make_index:(fun mem records -> Index.make structure scheme mem records)
        ~key_len ~alphabet ~n_keys:400 ~n_ops:3000 ~seed:4321 ())

let () =
  Alcotest.run "pk_ttree"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single node fill" `Quick test_single_node_fill;
          Alcotest.test_case "overflow evicts min" `Quick test_overflow_evicts_min;
          Alcotest.test_case "AVL balance" `Quick test_avl_balance_sequential;
          Alcotest.test_case "random all schemes" `Quick test_random_all_schemes;
          Alcotest.test_case "indirect derefs" `Quick test_indirect_derefs_per_level;
          Alcotest.test_case "pk rare derefs" `Quick test_pk_rare_derefs;
          Alcotest.test_case "iter + range" `Quick test_iter_sorted_and_range;
          Alcotest.test_case "delete to empty" `Quick test_delete_to_empty;
          Alcotest.test_case "mixed churn" `Quick test_mixed_churn;
          Alcotest.test_case "space characteristics" `Quick test_space_characteristics;
          Alcotest.test_case "seq_from cursor" `Quick test_seq_from;
        ] );
      ( "per-op invariant",
        Alcotest.test_case "refresh paths fire" `Quick test_per_op_coverage
        :: List.map per_op_qtest pk_variants );
      ( "conformance",
        List.map
          (fun (name, scheme) ->
            conformance ("T/" ^ name) Index.T_tree scheme ~key_len:10 ~alphabet:8)
          (Support.scheme_matrix ~key_len:10)
        @ [
            conformance "T/pk-byte-l2/high-entropy" Index.T_tree pk2 ~key_len:10 ~alphabet:220;
            conformance "T/pk-bit-l1/low-entropy" Index.T_tree
              (Layout.Partial { granularity = Partial_key.Bit; l_bytes = 1 })
              ~key_len:10 ~alphabet:3;
          ] );
    ]
