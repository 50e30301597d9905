(* Phases shared by the workloads.  A workload supplies [step], which
   performs one closed-loop operation (timing and checking it itself)
   and returns the operations it counts toward [ops_per_s]. *)

open Common

(* Call [step] back to back for [seconds]; returns (ops, wall seconds).
   When [traced], every buffer is drained after each operation. *)
let run_for ~seconds ~traced step =
  let t0 = now () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let ops = ref 0 in
  while now () < deadline do
    ops := !ops + step ();
    if traced then Span.drain ()
  done;
  (!ops, seconds_since t0)

(* [run_for] in windows of about [window] seconds that split [seconds]
   evenly; each window ends with a mark in every one of [samples].
   Returns the operations and the operations per second of each window. *)
let run_windows ~seconds ~window ~samples step =
  let n = max 1 (int_of_float (Float.round (seconds /. window))) in
  let ops = ref 0 and rates = ref [] in
  for _ = 1 to n do
    let o, s = run_for ~seconds:(seconds /. float_of_int n) ~traced:false step in
    List.iter Samples.mark samples;
    ops := !ops + o;
    rates := (float_of_int o /. s) :: !rates
  done;
  (!ops, !rates)

(* The untraced run: [n_rounds] fresh set-ups, with the timed phase split
   evenly over them and each part started from a compacted heap, so
   garbage left by set-up is not collected on the clock.  Each part runs
   in windows of about [window] seconds, each closing a window of every
   one of [samples]; a window must hold enough operations for a steady
   median.  [after] runs off the clock after each part.  Then
   [setups - n_rounds] more set-ups are timed and dropped.  Every set-up
   starts from a compacted heap.  Returns [setup_s] (the median of the
   [setups] set-ups) and [ops_per_s] (the fastest window). *)
let n_rounds = 3

let rounds ctx ~setups:n_setups ~window ~samples ~setup ~step ~after =
  let setups = ref [] and ops = ref 0 and rates = ref [] in
  let timed_setup () =
    Gc.compact ();
    let st, setup_s = setup () in
    setups := setup_s :: !setups;
    st
  in
  for _ = 1 to n_rounds do
    let st = timed_setup () in
    Gc.compact ();
    let o, r = run_windows ~seconds:(ctx.seconds /. float_of_int n_rounds) ~window ~samples (step st) in
    ops := !ops + o;
    rates := r @ !rates;
    after st
  done;
  for _ = n_rounds + 1 to n_setups do
    ignore (timed_setup ())
  done;
  [ setup_metric !setups; throughput ~ops:!ops !rates ]

(* A fixed number of operations with spans on, for the counts that must
   repeat exactly for a seed. *)
let count_pass n step =
  Span.reset ();
  Span.set_on true;
  for _ = 1 to n do
    ignore (step () : int);
    Span.drain ()
  done;
  Span.set_on false

(* The traced run's timed phase: half untraced (runtime counters), half
   traced (spans); the throughput difference is the tracing overhead.
   Leaves the traced half's spans in [Span.aggs]. *)
let halves ctx step =
  let g0 = Gc.quick_stat () in
  let ops1, s1 = run_for ~seconds:(ctx.seconds /. 2.) ~traced:false step in
  let g1 = Gc.quick_stat () in
  Span.reset ();
  Span.set_on true;
  let ops2, s2 = run_for ~seconds:(ctx.seconds /. 2.) ~traced:true step in
  Span.set_on false;
  gc_metrics ~ops:ops1 g0 g1
  @ [ ("trace.overhead_frac", 1. -. (float_of_int ops2 /. s2 /. (float_of_int ops1 /. s1))) ]

(* Per-span-name figures from the traced half. *)
let mean_ns s =
  let a = Span.agg s in
  if a.count = 0 then 0. else float_of_int a.total /. float_of_int a.count

let ns_per_unit s =
  let a = Span.agg s in
  if a.au = 0 then 0. else float_of_int a.total /. float_of_int a.au

let words_per_span s =
  let a = Span.agg s in
  if a.count = 0 then 0. else float_of_int a.aw /. float_of_int a.count
