(* point-read-1m: the paper's headline path.  A pkB over 1,000,000
   distinct 20-byte keys of alphabet 12 (3.6 bits/byte, the paper's
   low-entropy setting), one record per key, loaded at fill 1.0: about
   64 MB of records and 18 MB of nodes, many times a core's L2.  One
   [Index.lookup] per operation, all hits, in a seeded random
   permutation; no journal, no shards, no writes. *)

open Common

let n_keys = 1_000_000
let key_len = 20
let count_lookups = 20_000

type state = { mem : Mem.t; records : Record_store.t; ix : Index.t; rids : int array }

(* Timed as [setup_s]: from [Mem.create] to a loaded index. *)
let setup ~wrap keys =
  let t0 = now () in
  let mem = Mem.create () in
  let records = Record_store.create mem in
  let rids = Array.map (fun key -> Record_store.insert records ~key ~payload:Bytes.empty) keys in
  let ix : Index.t = wrap (Index.Registry.build ~key_len "pkB" mem records) in
  ix.of_sorted ~fill:1.0 (sorted_pairs keys rids);
  ({ mem; records; ix; rids }, seconds_since t0)

let run ctx =
  let t = tally ctx in
  let client = Span.client in
  let n_op = Span.name "op.lookup" in
  let keys = gen_keys (rng ctx 1) (Hashtbl.create n_keys) ~n:n_keys ~len:key_len ~alphabet:12 in
  let order = permutation (rng ctx 2) n_keys in
  let lat = Samples.create () in
  let pos = ref 0 in
  let step st () =
    let j = order.(!pos) in
    pos := (!pos + 1) mod n_keys;
    let key = keys.(j) in
    let s = Span.enter client n_op in
    let t0 = now () in
    (match st.ix.lookup key with
    | r ->
        let t1 = now () in
        Span.leave client s 1;
        Samples.push lat (t1 - t0);
        let want = expect t st.rids.(j) in
        check t (match r with Some rid -> rid = want | None -> false) "point lookup"
    | exception e ->
        Span.unwind client;
        raised t e);
    t.attempted <- t.attempted + 1;
    1
  in
  if not ctx.trace then begin
    let last = ref [] in
    let head =
      Phase.rounds ctx ~setups:3 ~window:0.1 ~samples:[ lat ]
        ~setup:(fun () -> setup ~wrap:Fun.id keys)
        ~step
        ~after:(fun st -> last := [ bytes_per_key st.ix st.records ])
    in
    {
      e2e =
        head @ latency_metrics "lookup" lat @ !last @ [ failed_frac t ];
      layer = [];
      tally = t;
    }
  end
  else begin
    Span.set_on true;
    let st, _ = setup ~wrap:(Span.wrap client ~layer:"ix") keys in
    Span.drain ();
    Span.set_on false;
    let of_sorted_s = float_of_int (Span.agg "ix.of_sorted").total /. 1e9 in
    let probe i = keys.(order.(i)) in
    let unwinds = unwinds_counter st.ix in
    let u0 = Pk_obs.Obs.Counter.value unwinds in
    let counts = lookup_counts st.ix (Array.init count_lookups probe) in
    let cache =
      cache_pass st.mem st.records st.ix
        ~warm:(Array.init 10_000 (fun i -> probe (count_lookups + i)))
        ~probes:(Array.init 10_000 (fun i -> probe (count_lookups + 10_000 + i)))
    in
    let ladder =
      Ladder.run ctx ~records:st.records ~ix:st.ix ~keys ~rids:st.rids
        ~arena_bytes:(st.ix.space_bytes ()) ~entries:(entries_per_node ~key_len "pkB")
    in
    let rest = Phase.halves ctx (step st) in
    {
      e2e = [ failed_frac t ];
      layer =
        counts @ cache @ ladder @ rest
        @ [
            ("index.of_sorted_s", of_sorted_s);
            ("index.unwinds", float_of_int (Pk_obs.Obs.Counter.value unwinds - u0));
          ];
      tally = t;
    }
  end
