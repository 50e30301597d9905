(* churn-pkT-journal: the write path.  A pkT behind [Index.journaled]
   holding a steady-size session table of 200,000 distinct 20-byte keys
   of alphabet 12, each record with an 8-byte payload, bulk-loaded with
   10% leaf gaps.  Traffic: 25% insert of a fresh key, 25% delete of the
   oldest live key (FIFO expiry, record freed), 45% lookup Zipf(0.99)
   over recency rank, 5% range over the next 32 keys from a random live
   key.  After the timed phase the journal is serialized, parsed back
   and recovered with [Index.recover] (kill-and-recover); the recovered
   key -> payload set must equal the oracle's. *)

open Common
module Journal = Pk_journal.Journal
module KM = Map.Make (Bytes)

let n_keys = 200_000
let key_len = 20
let tag = "pkT"
let count_ops = 5_000
let ring_cap = 1 lsl 19
let scan_len = 32

let payload_of serial =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int serial);
  b

(* Cumulative Zipf(0.99) weights of recency ranks 0 (newest) .. n-1. *)
let zipf_cdf n =
  let c = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** 0.99));
    c.(r) <- !acc
  done;
  Array.map (fun x -> x /. !acc) c

let zipf_rank cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type state = {
  records : Record_store.t;
  journal : Journal.t;
  ix : Index.t;
  mem : Mem.t;
  ring : Key.t array;  (* live keys, oldest at [head] *)
  mutable head : int;
  mutable len : int;
  mutable oracle : (int * int) KM.t;  (* key -> (rid, payload serial) *)
}

(* Timed as [setup_s]: from [Mem.create] to a loaded index. *)
let setup ~wrap_inner ~wrap keys =
  let t0 = now () in
  let mem = Mem.create () in
  let records = Record_store.create mem in
  let journal = Journal.create () in
  let inner = wrap_inner (Index.Registry.build ~key_len tag mem records) in
  let ix : Index.t = wrap (Index.journaled journal records inner) in
  let rids = Array.mapi (fun i key -> Record_store.insert records ~key ~payload:(payload_of i)) keys in
  ix.of_sorted ~gap:0.1 ~fill:1.0 (sorted_pairs keys rids);
  let setup_s = seconds_since t0 in
  let ring = Array.make ring_cap Bytes.empty in
  Array.blit keys 0 ring 0 n_keys;
  let oracle = ref KM.empty in
  Array.iteri (fun i key -> oracle := KM.add key (rids.(i), i) !oracle) keys;
  ({ records; journal; ix; mem; ring; head = 0; len = n_keys; oracle = !oracle }, setup_s)

let live st = Array.init st.len (fun i -> st.ring.((st.head + i) land (ring_cap - 1)))

(* The recovered index and store must hold exactly the oracle's keys,
   in order, with their payloads. *)
let verify t st (ix : Index.t) records what =
  let rest = ref (KM.to_seq st.oracle) and ok = ref (ix.count () = KM.cardinal st.oracle) in
  ix.iter (fun ~key ~rid ->
      match !rest () with
      | Seq.Cons ((k, (_, serial)), tl) ->
          rest := tl;
          if not (Bytes.equal k key && Bytes.equal (Record_store.read_payload records rid) (payload_of serial))
          then ok := false
      | Seq.Nil -> ok := false);
  (match !rest () with Seq.Nil -> () | Seq.Cons _ -> ok := false);
  t.attempted <- t.attempted + 1;
  check t !ok what

(* Kill-and-recover: serialize the journal as a crash would leave it,
   parse it back and recover by tag; returns the recovery seconds. *)
let kill_and_recover t st =
  let bytes = Journal.to_bytes st.journal in
  let t0 = now () in
  match Index.recover ~key_len ~tag (Journal.of_bytes bytes) with
  | _, records, ix, _ ->
      let s = seconds_since t0 in
      verify t st ix records "Index.recover";
      Some s
  | exception e ->
      t.attempted <- t.attempted + 1;
      raised t e;
      None

(* [Engine.recover], the code [Index.recover] runs, with its [build] and
   [store_insert] callbacks instrumented: fold (until the first record
   insert), bulk load, tail replay and validation, record inserts. *)
let traced_recover t st bytes =
  let mem = Mem.create () in
  let records = Record_store.create mem in
  let t_built = ref 0 and t_first = ref 0 and bulk = ref 0 and t_bulk_end = ref 0 and store = ref 0 in
  let build () =
    let ix = Index.Registry.build ~key_len tag mem records in
    t_built := now ();
    {
      ix with
      of_sorted =
        (fun ?gap ~fill entries ->
          let a = now () in
          ix.of_sorted ?gap ~fill entries;
          t_bulk_end := now ();
          bulk := !t_bulk_end - a);
    }
  in
  let store_insert ~key ~payload =
    let a = now () in
    if !t_first = 0 then t_first := a;
    let rid = Record_store.insert records ~key ~payload in
    store := !store + (now () - a);
    rid
  in
  let ix, _ =
    Pk_core.Engine.recover ~build ~store_insert ~store_delete:(Record_store.delete records)
      (Journal.of_bytes bytes)
  in
  let t_end = now () in
  verify t st ix records "Engine.recover";
  let s ns = float_of_int ns /. 1e9 in
  [
    ("recover.fold_s", s (!t_first - !t_built));
    ("recover.bulk_load_s", s !bulk);
    ("recover.tail_s", s (t_end - !t_bulk_end));
    ("recover.store_insert_s", s !store);
  ]

let run ctx =
  let t = tally ctx in
  let client = Span.client in
  let n_ins = Span.name "op.insert" and n_del = Span.name "op.delete" in
  let n_lkp = Span.name "op.lookup" and n_scan = Span.name "op.range" in
  let n_rec = Span.name "records.insert" in
  let seen = Hashtbl.create (2 * n_keys) in
  let keys = gen_keys (rng ctx 1) seen ~n:n_keys ~len:key_len ~alphabet:12 in
  let rng = rng ctx 2 in
  let cdf = zipf_cdf n_keys in
  let serial = ref n_keys in
  let ins = Samples.create () and del = Samples.create () in
  let lkp = Samples.create () and scan = Samples.create () in
  let mask = ring_cap - 1 in
  let insert st =
    let key = fresh_key rng seen ~len:key_len ~alphabet:12 in
    let payload = payload_of !serial in
    let s = Span.enter client n_ins in
    let t0 = now () in
    let r = Span.enter client n_rec in
    let rid = Record_store.insert st.records ~key ~payload in
    Span.leave client r 1;
    let ok = st.ix.insert key ~rid in
    let t1 = now () in
    Span.leave client s 1;
    Samples.push ins (t1 - t0);
    if ok then begin
      st.oracle <- KM.add key (rid, !serial) st.oracle;
      st.ring.((st.head + st.len) land mask) <- key;
      st.len <- st.len + 1
    end
    else t.refused <- t.refused + 1;
    incr serial
  in
  let delete st =
    let key = st.ring.(st.head) in
    let rid, _ = KM.find key st.oracle in
    let s = Span.enter client n_del in
    let t0 = now () in
    let ok = st.ix.delete key in
    if ok then Record_store.delete st.records rid;
    let t1 = now () in
    Span.leave client s 1;
    Samples.push del (t1 - t0);
    if ok then begin
      st.oracle <- KM.remove key st.oracle;
      st.head <- (st.head + 1) land mask;
      st.len <- st.len - 1
    end
    else t.refused <- t.refused + 1
  in
  let lookup st =
    let r = zipf_rank cdf (Random.State.float rng 1.0) mod st.len in
    let key = st.ring.((st.head + st.len - 1 - r) land mask) in
    let want = expect t (fst (KM.find key st.oracle)) in
    let s = Span.enter client n_lkp in
    let t0 = now () in
    let got = st.ix.lookup key in
    let t1 = now () in
    Span.leave client s 1;
    Samples.push lkp (t1 - t0);
    check t (match got with Some rid -> rid = want | None -> false) "churn lookup"
  in
  let range st =
    let lo = st.ring.((st.head + Random.State.int rng st.len) land mask) in
    let want = KM.to_seq_from lo st.oracle |> Seq.take scan_len |> List.of_seq in
    let hi = fst (List.nth want (List.length want - 1)) in
    let got = ref [] in
    let s = Span.enter client n_scan in
    let t0 = now () in
    st.ix.range ~lo ~hi (fun ~key ~rid -> got := (key, rid) :: !got);
    let t1 = now () in
    Span.leave client s 1;
    Samples.push scan (t1 - t0);
    check t
      (List.equal
         (fun (k, r) (k', r') -> Bytes.equal k k' && r = r')
         (List.rev !got)
         (List.map (fun (k, (r, _)) -> (k, r)) want))
      "churn range"
  in
  let step st () =
    let u = Random.State.float rng 1.0 in
    (try
       if u < 0.25 then insert st
       else if u < 0.50 then delete st
       else if u < 0.95 then lookup st
       else range st
     with e ->
       Span.unwind client;
       raised t e);
    t.attempted <- t.attempted + 1;
    1
  in
  if not ctx.trace then begin
    let recovers = ref [] and last = ref [] in
    let head =
      Phase.rounds ctx ~setups:7 ~window:0.25 ~samples:[ lkp; ins; del; scan ]
        ~setup:(fun () -> setup ~wrap_inner:Fun.id ~wrap:Fun.id keys)
        ~step
        ~after:(fun st ->
          last := [ bytes_per_key st.ix st.records ];
          Option.iter (fun s -> recovers := s :: !recovers) (kill_and_recover t st))
    in
    {
      e2e =
        head @ latency_metrics "lookup" lkp @ latency_metrics "insert" ins @ latency_metrics "delete" del
        @ latency_metrics "scan" scan
        @ [ { name = "recover_s"; value = median !recovers; unit = "s"; samples = List.length !recovers } ]
        @ !last @ [ failed_frac t ];
      layer = [];
      tally = t;
    }
  end
  else begin
    Span.set_on true;
    let st, _ = setup ~wrap_inner:(Span.wrap client ~layer:"inner") ~wrap:(Span.wrap client ~layer:"ix") keys in
    Span.drain ();
    Span.set_on false;
    let of_sorted_s = float_of_int (Span.agg "ix.of_sorted").total /. 1e9 in
    let unwinds = unwinds_counter st.ix in
    let u0 = Pk_obs.Obs.Counter.value unwinds in
    let b0 = Journal.byte_size st.journal and c0 = Journal.commit_count st.journal in
    Phase.count_pass count_ops (step st);
    let counts =
      [
        ("index.insert_words", Phase.words_per_span "inner.insert");
        ("index.delete_words", Phase.words_per_span "inner.delete");
        ("journal.bytes_per_op", float_of_int (Journal.byte_size st.journal - b0) /. float_of_int count_ops);
        ("journal.commits", float_of_int (Journal.commit_count st.journal - c0));
      ]
    in
    let tie_derefs =
      let _, records, ix, stats =
        Pk_rebuild.Rebuild.recover ~key_len ~tag (Journal.of_bytes (Journal.to_bytes st.journal))
      in
      verify t st ix records "Rebuild.recover";
      float_of_int stats.tie_derefs
    in
    let keys_now = live st in
    let counts = counts @ lookup_counts st.ix (Array.sub keys_now 0 20_000) in
    let cache =
      cache_pass st.mem st.records st.ix ~warm:(Array.sub keys_now 20_000 10_000)
        ~probes:(Array.sub keys_now 30_000 10_000)
    in
    let ladder =
      Ladder.run ctx ~records:st.records ~ix:st.ix ~keys:keys_now
        ~rids:(Array.map (fun k -> fst (KM.find k st.oracle)) keys_now)
        ~arena_bytes:(st.ix.space_bytes ()) ~entries:(entries_per_node ~key_len tag)
    in
    let rest = Phase.halves ctx (step st) in
    let ix_self = (Span.agg "ix.insert").self + (Span.agg "ix.delete").self in
    let ix_count = (Span.agg "ix.insert").count + (Span.agg "ix.delete").count in
    let spans =
      [
        ("records.insert_ns", Phase.ns_per_unit "records.insert");
        ("index.insert_ns", Phase.mean_ns "inner.insert");
        ("index.delete_ns", Phase.mean_ns "inner.delete");
        ("index.scan_ns_per_key", Phase.ns_per_unit "inner.range");
        ("journal.self_ns_per_op", float_of_int ix_self /. float_of_int (max 1 ix_count));
      ]
    in
    let bytes = Journal.to_bytes st.journal in
    let total = kill_and_recover t st in
    let recover = traced_recover t st bytes in
    let t0 = now () in
    let _, records, ix, _ = Pk_rebuild.Rebuild.recover ~key_len ~tag (Journal.of_bytes bytes) in
    let rebuild_s = seconds_since t0 in
    verify t st ix records "Rebuild.recover";
    {
      e2e = [ failed_frac t ];
      layer =
        counts @ cache @ ladder @ rest @ spans @ recover
        @ [
            ("index.of_sorted_s", of_sorted_s);
            ("index.unwinds", float_of_int (Pk_obs.Obs.Counter.value unwinds - u0));
            ("rebuild.tie_derefs", tie_derefs);
            ("rebuild.recover_s", rebuild_s);
            ("recover.total_s", Option.value total ~default:nan);
          ];
      tally = t;
    }
  end
