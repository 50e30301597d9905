(* Shared pieces of the benchmark: clock, seeded inputs, latency
   samples, the oracle tally and the metric records a workload returns. *)

module Key = Pk_keys.Key
module Index = Pk_core.Index
module Mem = Pk_mem.Mem
module Record_store = Pk_records.Record_store

type ctx = {
  seed : int;
  seconds : float;  (** Length of the timed phase of one run. *)
  trace : bool;
  plant : bool;  (** Plant one wrong expectation (the oracle self-test). *)
  out : string option;  (** Directory the traced run writes its spans to. *)
}

(* Monotonic nanoseconds; allocation-free. *)
let now () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now () - t0) /. 1e9
let minor_words () = int_of_float (Gc.minor_words ())

(* Every random choice of a run comes from [seed]; [stream] separates
   the key set from the operation sequence so one can change without
   shifting the other. *)
let rng ctx stream = Random.State.make [| ctx.seed; stream |]

(* [n] keys of [len] bytes, each byte one of [alphabet] symbols spread
   over 0..255 (the paper's per-byte entropy setting), distinct from each
   other and from every key already in [seen], which receives them. *)
let fresh_key rng seen ~len ~alphabet =
  let rec draw () =
    let k = Bytes.create len in
    for i = 0 to len - 1 do
      Bytes.set k i (Char.chr (Random.State.int rng alphabet * 256 / alphabet))
    done;
    if Hashtbl.mem seen k then draw ()
    else begin
      Hashtbl.replace seen k ();
      k
    end
  in
  draw ()

let gen_keys rng seen ~n ~len ~alphabet = Array.init n (fun _ -> fresh_key rng seen ~len ~alphabet)

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a


(* Log-uniform sizes in [lo, hi], stratified: each run of [k] draws is
   the same [k] geometrically spaced sizes in a fresh seeded order, so
   runs with different seeds see the same size mix. *)
let log_uniform_sizes rng ~lo ~hi ~k =
  let sizes =
    let ratio = float_of_int hi /. float_of_int lo in
    Array.init k (fun i ->
        int_of_float (Float.round (float_of_int lo *. (ratio ** (float_of_int i /. float_of_int (k - 1))))))
  in
  let next = ref k in
  fun () ->
    if !next = k then begin
      let p = permutation rng k in
      let s = Array.map (fun i -> sizes.(i)) p in
      Array.blit s 0 sizes 0 k;
      next := 0
    end;
    let b = sizes.(!next) in
    incr next;
    b

let sorted_pairs keys rids =
  let pairs = Array.init (Array.length keys) (fun i -> (keys.(i), rids.(i))) in
  Array.sort (fun (a, _) (b, _) -> Key.compare a b) pairs;
  pairs

(* A growable sample of integer nanosecond durations, each carrying a
   weight: the units of work it stands for (1 for a single operation).
   [mark] closes a measurement window at the current sample. *)
module Samples = struct
  type t = { mutable v : int array; mutable w : int array; mutable n : int; mutable marks : int list }

  let create () = { v = Array.make 4096 0; w = Array.make 4096 0; n = 0; marks = [] }

  let grow a n =
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b

  let push ?(weight = 1) s v =
    if s.n = Array.length s.v then begin
      s.v <- grow s.v s.n;
      s.w <- grow s.w s.n
    end;
    s.v.(s.n) <- v;
    s.w.(s.n) <- weight;
    s.n <- s.n + 1

  let count s = s.n
  let mark s = s.marks <- s.n :: s.marks

  (* Nearest-rank percentiles over the weighted units of samples
     [lo, hi), in microseconds. *)
  let range_percentiles_us s lo hi ps =
    let order = Array.init (hi - lo) (fun i -> lo + i) in
    Array.sort (fun i j -> Int.compare s.v.(i) s.v.(j)) order;
    let total = Array.fold_left (fun acc i -> acc + s.w.(i)) 0 order in
    List.map
      (fun p ->
        let target = max 1 (int_of_float (ceil (p *. float_of_int total))) in
        let k = ref 0 and acc = ref 0 in
        while !k < Array.length order && !acc + s.w.(order.(!k)) < target do
          acc := !acc + s.w.(order.(!k));
          incr k
        done;
        if !k < Array.length order then float_of_int s.v.(order.(!k)) /. 1e3 else nan)
      ps

  let percentiles_us s ps = range_percentiles_us s 0 s.n ps

  (* The median of each marked window that holds a sample. *)
  let window_medians_us s =
    let rec go lo = function
      | [] -> []
      | hi :: rest when hi > lo -> List.hd (range_percentiles_us s lo hi [ 0.5 ]) :: go hi rest
      | hi :: rest -> go hi rest
    in
    go 0 (List.rev s.marks)
end

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* On the shared 2-vCPU virtual machine the benchmark was defined on,
   the same lookups ran alternately at full speed and up to 1.5 times
   slower, in stretches of a fraction of a second to a few seconds, as
   other tenants came and went; the share of slow time changed from run
   to run.  A median or mean over a whole run measured that share as
   much as the program.  A run's time metrics are therefore read per
   window of its timed phase (see [Phase.rounds]) and taken from its
   fastest window, so one undisturbed window in a run is enough. *)
let fastest = List.fold_left Float.min infinity
let highest = List.fold_left Float.max neg_infinity

(* Oracle accounting.  [failed] = wrong results + raised exceptions +
   refused operations; any failure makes the run incorrect. *)
type tally = {
  mutable attempted : int;
  mutable wrong : int;
  mutable raised : int;
  mutable refused : int;
  mutable plant : bool;
}

let tally (ctx : ctx) = { attempted = 0; wrong = 0; raised = 0; refused = 0; plant = ctx.plant }
let failed t = t.wrong + t.raised + t.refused

let check t ok what =
  if not ok then begin
    t.wrong <- t.wrong + 1;
    if t.wrong <= 5 then prerr_endline ("pkperf: wrong result: " ^ what)
  end

let raised t e =
  t.raised <- t.raised + 1;
  if t.raised <= 5 then prerr_endline ("pkperf: operation raised " ^ Printexc.to_string e)

(* The expectation for a record id, corrupted exactly once when the
   oracle self-test is on. *)
let expect t rid =
  if t.plant then begin
    t.plant <- false;
    rid + 1
  end
  else rid

(* One end-to-end metric of one workload, with its sample count. *)
type e2e = { name : string; value : float; unit : string; samples : int }

type outcome = {
  e2e : e2e list;
  layer : (string * float) list;  (** Traced run only. *)
  tally : tally;
}

(* [_p50_us] is the median of the fastest window (above); [_p99_us] is
   the tail of the whole run, slow stretches included. *)
let latency_metrics prefix s =
  let n = Samples.count s in
  let p50 =
    match Samples.window_medians_us s with
    | [] -> nan
    | ms -> fastest ms
  in
  [
    { name = prefix ^ "_p50_us"; value = p50; unit = "us"; samples = n };
    { name = prefix ^ "_p99_us"; value = List.hd (Samples.percentiles_us s [ 0.99 ]); unit = "us"; samples = n };
  ]

let setup_metric setups =
  { name = "setup_s"; value = median setups; unit = "s"; samples = List.length setups }

(* [rates] holds the operations per second of each window. *)
let throughput ~ops rates = { name = "ops_per_s"; value = highest rates; unit = "1/s"; samples = ops }

let bytes_per_key (ix : Index.t) records =
  let n = ix.count () in
  {
    name = "bytes_per_key";
    value = float_of_int (ix.space_bytes () + Record_store.live_bytes records) /. float_of_int n;
    unit = "B";
    samples = n;
  }

let failed_frac t =
  {
    name = "failed_frac";
    value = float_of_int (failed t) /. float_of_int (max 1 t.attempted);
    unit = "frac";
    samples = t.attempted;
  }

(* Runtime cost of a timed phase, from [Gc.quick_stat] deltas. *)
let gc_metrics ~ops (g0 : Gc.stat) (g1 : Gc.stat) =
  let per_op x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_words_per_op", per_op (g1.minor_words -. g0.minor_words));
    ("gc.minor_gcs_per_kop", 1000. *. per_op (float_of_int (g1.minor_collections - g0.minor_collections)));
    ("gc.major_gcs", float_of_int (g1.major_collections - g0.major_collections));
    ("gc.top_heap_mb", float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  ]

(* Simulated-cache pass (the paper's Ultra 30 with a 64-entry TLB) over
   a built index: attach the simulator, measure, detach, so timed
   phases never run with it. *)
let cache_pass mem records (ix : Index.t) ~warm ~probes =
  let module Machine = Pk_cachesim.Machine in
  let cache = Pk_cachesim.Cachesim.create (Machine.to_config ~tlb:Machine.default_tlb Machine.ultra30) in
  Mem.set_cache mem (Some cache);
  let s =
    Fun.protect
      ~finally:(fun () -> Mem.set_cache mem None)
      (fun () -> Pk_workload.Workload.measure_cache { mem; cache; records } ix ~warm ~probes)
  in
  [
    ("cachesim.l2_per_lookup", s.l2_per_op);
    ("cachesim.tlb_per_lookup", s.tlb_per_op);
    ("cachesim.sim_ns_per_lookup", s.sim_ns_per_op);
  ]

(* Deref, visit and allocation counts of single lookups over [keys]. *)
let lookup_counts (ix : Index.t) keys =
  let n = float_of_int (Array.length keys) in
  let d0 = ix.deref_count () and v0 = ix.node_visits () in
  let w0 = minor_words () in
  Array.iter (fun k -> ignore (ix.lookup k : int option)) keys;
  let w1 = minor_words () in
  [
    ("index.lookup_words", float_of_int (w1 - w0) /. n);
    ("records.derefs_per_lookup", float_of_int (ix.deref_count () - d0) /. n);
    ("index.visits_per_lookup", float_of_int (ix.node_visits () - v0) /. n);
    ("index.height", float_of_int (ix.height ()));
  ]

(* Entries of one 192-byte node (the library's default node size). *)
let entries_per_node ~key_len tag =
  match (Index.Registry.get tag).entry_bytes key_len with Some e -> max 2 (192 / e) | None -> 8

let unwinds_counter (ix : Index.t) =
  Pk_obs.Obs.Counter.register Pk_obs.Obs.Registry.default
    ("pk_index_unwinds_total{index=\"" ^ ix.tag ^ "\"}")
