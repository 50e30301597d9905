(* sharded-batch: scatter/gather over shards.  [Shard.Engine] with
   [Partition.hash 8] over eight pkB sub-indexes holding 32,768 distinct
   16-byte keys of alphabet 220 (7.8 bits/byte, so partial keys rarely
   dereference): about 2 MiB of records and under 1 MiB of nodes, inside
   a core's L2 — the opposite split from point-read-1m.  90% of calls
   are [lookup_into_domains] batches; the rest alternate an aggregate
   [insert_batch] of fresh keys with a [delete_batch] of as many live
   keys, so the size stays steady.  Batch sizes are log-uniform in
   16..4096.  Every key of a batch counts as one op, and the lookup
   latency percentiles are taken over looked-up keys, each charged its
   batch's time per key: the median then reflects large batches and the
   tail the scatter cost of small ones. *)

open Common
module Shard = Pk_shard.Shard

let n_keys = 32_768
let key_len = 16
let shards = 8
(* The timed traffic fans out over one domain.  With two (the core count
   of the 2-vCPU VM the benchmark was defined on) the spawn-per-call
   fan-out made every end-to-end metric swing by 25-140% between runs of
   the same code, because each batch waits for both cores; the traced
   run measures the two-domain fan-out separately ([fanout_rung]). *)
let domains = 1
let count_calls = 200

type state = {
  records : Record_store.t;
  mem : Mem.t;
  eng : Shard.Engine.t;
  ix : Index.t;
  live : Key.t array;  (* live keys in [0, len) *)
  mutable len : int;
  rid_of : (Key.t, int) Hashtbl.t;
  mutable last_insert : int;  (* size of the insert batch a delete matches; 0 = none *)
}

(* Timed as [setup_s]: from [Mem.create] to a loaded index. *)
let setup ~wrap_sub ~wrap keys =
  let t0 = now () in
  let mem = Mem.create () in
  let records = Record_store.create mem in
  let eng =
    Shard.Engine.create ~tag:"perfbench" ~partition:(Shard.Partition.hash shards) (fun i ->
        wrap_sub i (Index.Registry.build ~key_len "pkB" mem records))
  in
  let ix : Index.t = wrap (Shard.Engine.ops eng) in
  let rids = Array.map (fun key -> Record_store.insert records ~key ~payload:Bytes.empty) keys in
  ix.of_sorted ~fill:1.0 (sorted_pairs keys rids);
  let setup_s = seconds_since t0 in
  let live = Array.make (2 * n_keys) Bytes.empty in
  Array.blit keys 0 live 0 n_keys;
  let rid_of = Hashtbl.create (2 * n_keys) in
  Array.iteri (fun i k -> Hashtbl.replace rid_of k rids.(i)) keys;
  ({ records; mem; eng; ix; live; len = n_keys; rid_of; last_insert = 0 }, setup_s)

(* Keys the shards counted as probed, summed over the per-shard series. *)
let probes_counted () =
  let reg = Pk_obs.Obs.Registry.default in
  List.init shards (fun i ->
      Pk_obs.Obs.Counter.value
        (Pk_obs.Obs.Counter.register ~label:("shard", string_of_int i) reg
           "pk_shard_probes_total{index=\"perfbench\"}"))
  |> List.fold_left ( + ) 0

(* ns per key of [lookup_into_domains] at [d] domains and batch [b] over
   the live keys (median of 5 passes of about 64k keys), and the keys the
   per-shard probe counters missed over those passes. *)
let fanout_rung rng st ~d ~b =
  let calls = max 1 (65_536 / b) in
  let batches = Array.init calls (fun _ -> Array.init b (fun _ -> st.live.(Random.State.int rng st.len))) in
  let out = Array.make b (-1) in
  let pass () =
    let t0 = now () in
    Array.iter (fun ks -> Shard.Engine.lookup_into_domains st.eng ~domains:d ks out) batches;
    float_of_int (now () - t0) /. float_of_int (calls * b)
  in
  let p0 = probes_counted () in
  let ns = median (List.init 5 (fun _ -> pass ())) in
  (ns, (5 * calls * b) - (probes_counted () - p0))

let run ctx =
  let t = tally ctx in
  let client = Span.client in
  let n_lookup = Span.name "op.lookup_batch" and n_ins = Span.name "op.insert_batch" in
  let n_del = Span.name "op.delete_batch" and n_rec = Span.name "records.insert" in
  let seen = Hashtbl.create (4 * n_keys) in
  let keys = gen_keys (rng ctx 1) seen ~n:n_keys ~len:key_len ~alphabet:220 in
  let rng = rng ctx 2 in
  let per_key = Samples.create () and batch = Samples.create () in
  let lookup_size = log_uniform_sizes rng ~lo:16 ~hi:4096 ~k:64 in
  let insert_size = log_uniform_sizes rng ~lo:16 ~hi:4096 ~k:64 in
  let lookup st b =
    let ks = Array.init b (fun _ -> st.live.(Random.State.int rng st.len)) in
    let want = Array.map (fun k -> expect t (Hashtbl.find st.rid_of k)) ks in
    let out = Array.make b (-1) in
    let s = Span.enter client n_lookup in
    let t0 = now () in
    Shard.Engine.lookup_into_domains st.eng ~domains ks out;
    let t1 = now () in
    Span.leave client s b;
    Samples.push batch (t1 - t0);
    Samples.push per_key ~weight:b ((t1 - t0) / b);
    let bad = ref 0 in
    Array.iteri (fun i r -> if r <> want.(i) then incr bad) out;
    check t (!bad = 0) (Printf.sprintf "sharded lookup batch (%d of %d keys)" !bad b)
  in
  let insert st b =
    let ks = Array.init b (fun _ -> fresh_key rng seen ~len:key_len ~alphabet:220) in
    let s = Span.enter client n_ins in
    let t0 = now () in
    let r = Span.enter client n_rec in
    let rids = Array.map (fun key -> Record_store.insert st.records ~key ~payload:Bytes.empty) ks in
    Span.leave client r b;
    let ok = st.ix.insert_batch ks ~rids in
    let t1 = now () in
    Span.leave client s b;
    Samples.push batch (t1 - t0);
    Array.iteri
      (fun i k ->
        if ok.(i) then begin
          Hashtbl.replace st.rid_of k rids.(i);
          st.live.(st.len) <- k;
          st.len <- st.len + 1
        end
        else t.refused <- t.refused + 1)
      ks
  in
  let delete st b =
    (* [b] distinct live keys, swapped to the end of the live prefix. *)
    for k = 0 to b - 1 do
      let j = Random.State.int rng (st.len - k) and e = st.len - 1 - k in
      let x = st.live.(j) in
      st.live.(j) <- st.live.(e);
      st.live.(e) <- x
    done;
    let ks = Array.sub st.live (st.len - b) b in
    let rids = Array.map (Hashtbl.find st.rid_of) ks in
    let s = Span.enter client n_del in
    let t0 = now () in
    let ok = st.ix.delete_batch ks in
    Array.iteri (fun i rid -> if ok.(i) then Record_store.delete st.records rid) rids;
    let t1 = now () in
    Span.leave client s b;
    Samples.push batch (t1 - t0);
    st.len <- st.len - b;
    Array.iteri
      (fun i k ->
        if ok.(i) then Hashtbl.remove st.rid_of k
        else begin
          t.refused <- t.refused + 1;
          st.live.(st.len) <- k;
          st.len <- st.len + 1
        end)
      ks
  in
  let step st () =
    let u = Random.State.float rng 1.0 in
    let b =
      try
        if u < 0.9 then begin
          let b = lookup_size () in
          lookup st b;
          b
        end
        else if st.last_insert = 0 then begin
          let b = insert_size () in
          insert st b;
          st.last_insert <- b;
          b
        end
        else begin
          let b = st.last_insert in
          delete st b;
          st.last_insert <- 0;
          b
        end
      with e ->
        Span.unwind client;
        raised t e;
        1
    in
    t.attempted <- t.attempted + b;
    b
  in
  if not ctx.trace then begin
    let last = ref [] in
    let head =
      Phase.rounds ctx ~setups:9 ~window:1.0 ~samples:[ per_key; batch ]
        ~setup:(fun () -> setup ~wrap_sub:(fun _ ix -> ix) ~wrap:Fun.id keys)
        ~step
        ~after:(fun st ->
          (* Measure space at the steady size: finish a pending pair. *)
          if st.last_insert > 0 then delete st st.last_insert;
          st.last_insert <- 0;
          last := [ bytes_per_key st.ix st.records ])
    in
    {
      e2e =
        head @ latency_metrics "lookup" per_key @ latency_metrics "batch" batch @ !last @ [ failed_frac t ];
      layer = [];
      tally = t;
    }
  end
  else begin
    let bufs = Array.init shards (fun _ -> Span.buffer ()) in
    Span.set_on true;
    let st, _ =
      setup ~wrap_sub:(fun i ix -> Span.wrap bufs.(i) ~layer:"sub" ix) ~wrap:(Span.wrap client ~layer:"ix") keys
    in
    Span.drain ();
    Span.set_on false;
    let of_sorted_s = float_of_int (Span.agg "ix.of_sorted").total /. 1e9 in
    let unwinds = List.init shards (fun i -> unwinds_counter (Shard.Engine.sub st.eng i)) in
    let unwound () = List.fold_left (fun acc c -> acc + Pk_obs.Obs.Counter.value c) 0 unwinds in
    let u0 = unwound () in
    Phase.count_pass count_calls (step st);
    let keys_now = Array.sub st.live 0 st.len in
    let counts = lookup_counts st.ix (Array.sub keys_now 0 20_000) in
    let cache =
      cache_pass st.mem st.records st.ix ~warm:(Array.sub keys_now 0 10_000)
        ~probes:(Array.sub keys_now 10_000 10_000)
    in
    let ladder =
      Ladder.run ctx ~records:st.records ~ix:st.ix ~keys:keys_now
        ~rids:(Array.map (Hashtbl.find st.rid_of) keys_now)
        ~arena_bytes:(st.ix.space_bytes ()) ~entries:(entries_per_node ~key_len "pkB")
    in
    let fan_rng = Common.rng ctx 4 in
    let f1_64, _ = fanout_rung fan_rng st ~d:1 ~b:64 in
    let f2_64, loss = fanout_rung fan_rng st ~d:2 ~b:64 in
    let f1_4k, _ = fanout_rung fan_rng st ~d:1 ~b:4096 in
    let f2_4k, _ = fanout_rung fan_rng st ~d:2 ~b:4096 in
    let rest = Phase.halves ctx (step st) in
    let fan = Span.agg "op.lookup_batch" in
    let per_fan x = if fan.fanouts = 0 then 0. else x /. float_of_int fan.fanouts in
    {
      e2e = [ failed_frac t ];
      layer =
        counts @ cache @ ladder @ rest
        @ [
            ("index.lookup_into_ns_per_key", Phase.ns_per_unit "sub.lookup_into");
            ("index.insert_batch_ns_per_key", Phase.ns_per_unit "sub.insert_batch");
            ("index.delete_batch_ns_per_key", Phase.ns_per_unit "sub.delete_batch");
            ("records.insert_ns", Phase.ns_per_unit "records.insert");
            ("shard.self_us_per_batch", float_of_int fan.self /. float_of_int (max 1 fan.count) /. 1e3);
            ("shard.dispatch_us", per_fan (float_of_int fan.delay) /. 1e3);
            ("shard.imbalance", per_fan fan.imbalance);
            ( "shard.busy_frac",
              float_of_int fan.child_ns /. (float_of_int domains *. float_of_int (max 1 fan.total)) );
            ("obs.probe_count_loss", float_of_int loss);
            ("shard.fanout1_ns_per_key_b64", f1_64);
            ("shard.fanout2_ns_per_key_b64", f2_64);
            ("shard.fanout1_ns_per_key_b4096", f1_4k);
            ("shard.fanout2_ns_per_key_b4096", f2_4k);
            ("index.of_sorted_s", of_sorted_s);
            ("index.unwinds", float_of_int (unwound () - u0));
          ];
      tally = t;
    }
  end
