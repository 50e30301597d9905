(* Tests for the instrumented memory layer: region addressing, typed
   access round-trips, and exact cache charging. *)

module Mem = Pk_mem.Mem
module Cachesim = Pk_cachesim.Cachesim
module Machine = Pk_cachesim.Machine

let make () =
  let cache = Cachesim.create (Machine.to_config Machine.ultra30) in
  let mem = Mem.create ~cache () in
  (mem, cache)

let test_regions_disjoint () =
  let mem, _ = make () in
  let a = Mem.new_region mem ~name:"a" () in
  let b = Mem.new_region mem ~name:"b" () in
  Alcotest.(check bool) "distinct bases" true (Mem.base a <> Mem.base b);
  Alcotest.(check bool) "very far apart" true (abs (Mem.base a - Mem.base b) >= 1 lsl 40);
  Alcotest.(check string) "names kept" "a" (Mem.region_name a)

let test_typed_roundtrip () =
  let mem, _ = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r 64 in
  Mem.write_u8 r off 200;
  Mem.write_u16 r (off + 2) 60000;
  Mem.write_u32 r (off + 4) 123456789;
  Mem.write_u64 r (off + 8) 987654321012345;
  Alcotest.(check int) "u8" 200 (Mem.read_u8 r off);
  Alcotest.(check int) "u16" 60000 (Mem.read_u16 r (off + 2));
  Alcotest.(check int) "u32" 123456789 (Mem.read_u32 r (off + 4));
  Alcotest.(check int) "u64" 987654321012345 (Mem.read_u64 r (off + 8));
  Mem.write_bytes r ~off:(off + 16) ~src:(Bytes.of_string "payload") ~src_off:0 ~len:7;
  Alcotest.(check string) "bytes" "payload" (Bytes.to_string (Mem.read_bytes r ~off:(off + 16) ~len:7))

let test_move_overlap () =
  let mem, _ = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r 32 in
  Mem.write_bytes r ~off ~src:(Bytes.of_string "0123456789") ~src_off:0 ~len:10;
  Mem.move r ~src_off:off ~dst_off:(off + 3) ~len:10;
  Alcotest.(check string) "overlapping move" "0120123456789"
    (Bytes.to_string (Mem.read_bytes r ~off ~len:13))

let test_tracing_gate () =
  let mem, cache = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r 64 in
  (* Tracing off: nothing charged. *)
  ignore (Mem.read_u64 r off);
  Alcotest.(check int) "untraced" 0 (Cachesim.snapshot cache).Cachesim.total_accesses;
  Mem.set_tracing mem true;
  ignore (Mem.read_u64 r off);
  Alcotest.(check int) "traced" 1 (Cachesim.snapshot cache).Cachesim.total_accesses;
  Mem.set_tracing mem false;
  ignore (Mem.read_u64 r off);
  Alcotest.(check int) "off again" 1 (Cachesim.snapshot cache).Cachesim.total_accesses

let test_with_tracing_restores () =
  let mem, cache = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r 8 in
  let result =
    Mem.with_tracing mem true (fun () ->
        ignore (Mem.read_u8 r off);
        "done")
  in
  Alcotest.(check string) "thunk result" "done" result;
  Alcotest.(check bool) "restored off" true (not (Mem.tracing mem));
  Alcotest.(check int) "charged inside" 1 (Cachesim.snapshot cache).Cachesim.total_accesses;
  (* restores even on exception *)
  (try Mem.with_tracing mem true (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (not (Mem.tracing mem))

let test_charging_spans_blocks () =
  let mem, cache = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r ~align:64 256 in
  Mem.set_tracing mem true;
  Cachesim.reset_stats cache;
  (* A 100-byte write from a 64-aligned offset spans exactly 2 blocks. *)
  Mem.write_bytes r ~off ~src:(Bytes.make 100 'x') ~src_off:0 ~len:100;
  Alcotest.(check int) "two blocks" 2 (Cachesim.snapshot cache).Cachesim.total_accesses;
  Mem.set_tracing mem false

let test_same_offsets_different_regions_do_not_conflict () =
  let mem, cache = make () in
  let a = Mem.new_region mem ~name:"a" () in
  let b = Mem.new_region mem ~name:"b" () in
  let oa = Mem.alloc a ~align:64 64 and ob = Mem.alloc b ~align:64 64 in
  Alcotest.(check int) "same offsets" oa ob;
  Mem.set_tracing mem true;
  Cachesim.flush cache;
  Cachesim.reset_stats cache;
  ignore (Mem.read_u8 a oa);
  ignore (Mem.read_u8 b ob);
  ignore (Mem.read_u8 a oa);
  ignore (Mem.read_u8 b ob);
  Mem.set_tracing mem false;
  (* Distinct physical addresses: 2 cold misses then hits — unless the
     direct-mapped cache aliases them (1-TiB strides share set 0!). *)
  let snap = Cachesim.snapshot cache in
  Alcotest.(check int) "four accesses" 4 snap.Cachesim.total_accesses;
  Alcotest.(check bool) "addresses differ" true (Mem.base a + oa <> Mem.base b + ob)

let test_compare_detail_semantics () =
  let mem, _ = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r 16 in
  Mem.write_bytes r ~off ~src:(Bytes.of_string "banana") ~src_off:0 ~len:6;
  let check name probe plen exp_cmp exp_d =
    let c, d = Mem.compare_detail r ~off ~len:6 (Bytes.of_string probe) ~key_off:0 ~key_len:plen in
    Alcotest.(check int) (name ^ " cmp sign") exp_cmp (compare c 0);
    Alcotest.(check int) (name ^ " diff") exp_d d
  in
  check "equal" "banana" 6 0 6;
  check "region less" "banz" 4 (-1) 3;
  check "region greater" "bam" 3 1 2;
  check "probe prefix" "ban" 3 1 3;
  check "region prefix" "bananas" 7 (-1) 6

(* {2 The comparison kernel}

   Every [Mem] comparison is checked against an independent byte scan
   over copies ([ref_packed]) and against [Key.compare_detail]: on the
   live region (the 8-bytes-per-step kernel) and through a snapshot view
   whose live bytes were overwritten after it was taken (the
   shadow-page scan). *)

module Key = Pk_keys.Key
module Fault = Pk_fault.Fault

(* [(diff lsl 2) lor (cmp + 1)] of [a] against [b], one byte at a time. *)
let ref_packed a b =
  let la = Bytes.length a and lb = Bytes.length b in
  let common = min la lb in
  let rec go i =
    if i = common then (common lsl 2) lor if la = lb then 1 else if la < lb then 0 else 2
    else
      let x = Char.code (Bytes.get a i) and y = Char.code (Bytes.get b i) in
      if x <> y then (i lsl 2) lor if x < y then 0 else 2 else go (i + 1)
  in
  go 0

(* The bytes of [a] the reference scan examines: [compare_packed]'s
   charge. *)
let examined a b =
  let d = ref_packed a b lsr 2 in
  if d < min (Bytes.length a) (Bytes.length b) then d + 1 else d

(* Every comparison of region bytes [off, off + |stored|) — holding
   [stored] — against [probe], placed at [key_off] of a larger buffer
   for the offset forms. *)
let check_compares what r ~off stored ~key_off probe =
  let len = Bytes.length stored and key_len = Bytes.length probe in
  let pbuf = Bytes.make (key_off + key_len + 3) '\xa5' in
  Bytes.blit probe 0 pbuf key_off key_len;
  let want = ref_packed stored probe in
  let sign = (want land 3) - 1 and diff = want lsr 2 in
  let name s = Printf.sprintf "%s %s %S vs %S" what s (Bytes.to_string stored) (Bytes.to_string probe) in
  Alcotest.(check int) (name "compare_packed") want
    (Mem.compare_packed r ~off ~len pbuf ~key_off ~key_len);
  Alcotest.(check int) (name "compare_sign") sign
    (Mem.compare_sign r ~off ~len pbuf ~key_off ~key_len);
  Alcotest.(check (pair int int)) (name "compare_detail") (sign, diff)
    (Mem.compare_detail r ~off ~len pbuf ~key_off ~key_len);
  Alcotest.(check int) (name "compare_read") sign (Mem.compare_read r ~off ~len probe);
  let c, d = Key.compare_detail stored probe in
  Alcotest.(check (pair int int)) (name "Key.compare_detail") (sign, diff) (Key.int_of_cmp c, d)

(* Live region first; then a view is taken, the live bytes are
   scrambled, and the view must still compare as [stored]. *)
let check_live_and_view r ~off stored ~key_off probe =
  let len = Bytes.length stored in
  Mem.write_bytes r ~off ~src:stored ~src_off:0 ~len;
  check_compares "live" r ~off stored ~key_off probe;
  let v = Mem.snapshot_view r in
  let scrambled = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5a)) stored in
  Mem.write_bytes r ~off ~src:scrambled ~src_off:0 ~len;
  check_compares "view" v ~off stored ~key_off probe;
  Mem.release_view v

let kernel_region () =
  let mem, _ = make () in
  let r = Mem.new_region mem ~name:"r" () in
  (r, Mem.alloc r 256)

let test_kernel_every_position () =
  let r, base = kernel_region () in
  (* Stored/probe byte pairs at the difference: across the sign bit,
     in the top bit alone (bit 63 of a little-endian lane at its byte
     7), at the extremes, and the smallest steps. *)
  let pairs =
    [ (0x7f, 0x80); (0x80, 0x7f); (0x7f, 0xff); (0x80, 0x00); (0x00, 0xff); (0xff, 0xfe); (0x01, 0x00) ]
  in
  for len = 0 to 40 do
    let stored = Bytes.init len (fun i -> Char.chr (((i * 37) + 0x90) land 0xff)) in
    (* Unaligned on both sides, and aligned. *)
    List.iter
      (fun (skew, key_off) ->
        let off = base + skew in
        check_live_and_view r ~off stored ~key_off (Bytes.copy stored);
        for p = 0 to len - 1 do
          List.iter
            (fun (x, y) ->
              let s = Bytes.copy stored and q = Bytes.copy stored in
              Bytes.set s p (Char.chr x);
              Bytes.set q p (Char.chr y);
              check_live_and_view r ~off s ~key_off q)
            pairs;
          (* Each operand a strict prefix of the other. *)
          check_live_and_view r ~off (Bytes.sub stored 0 p) ~key_off stored;
          check_live_and_view r ~off stored ~key_off (Bytes.sub stored 0 p)
        done)
      [ (3, 5); (0, 0) ]
  done

let test_kernel_random =
  Support.seeded_qtest ~count:500 "compare kernel matches byte scan" (fun seed ->
      let r, base = kernel_region () in
      let rng = Random.State.make [| seed |] in
      let byte () =
        if Random.State.bool rng then 0x80 + Random.State.int rng 128 else Random.State.int rng 256
      in
      let la = Random.State.int rng 41 in
      let lb = if Random.State.bool rng then la else Random.State.int rng 41 in
      let stored = Bytes.init la (fun _ -> Char.chr (byte ())) in
      let probe =
        Bytes.init lb (fun i -> if i < la then Bytes.get stored i else Char.chr (byte ()))
      in
      let common = min la lb in
      if common > 0 && Random.State.int rng 4 > 0 then begin
        let p = Random.State.int rng common in
        let rec fresh () =
          let v = byte () in
          if v = Char.code (Bytes.get stored p) then fresh () else v
        in
        Bytes.set probe p (Char.chr (fresh ()))
      end;
      check_live_and_view r ~off:(base + Random.State.int rng 16) stored
        ~key_off:(Random.State.int rng 16) probe;
      true)

(* Under tracing, each comparison must feed the simulator exactly the
   range the byte scan charged: the examined prefix for the offset
   forms, the whole range for [compare_read].  A second simulator fed
   those ranges by [Mem.touch] must end with identical counts. *)
let test_kernel_charges () =
  let config = Machine.to_config Machine.ultra30 in
  let sim = Cachesim.create config and ref_sim = Cachesim.create config in
  let mem = Mem.create ~cache:sim () and ref_mem = Mem.create ~cache:ref_sim () in
  let r = Mem.new_region mem ~name:"r" () and ref_r = Mem.new_region ref_mem ~name:"r" () in
  let size = 8192 in
  let base = Mem.alloc r size in
  Alcotest.(check int) "same layout" base (Mem.alloc ref_r size);
  let rng = Random.State.make [| 42 |] in
  let content = Bytes.init size (fun _ -> Char.chr (Random.State.int rng 4)) in
  Mem.write_bytes r ~off:base ~src:content ~src_off:0 ~len:size;
  let v = Mem.snapshot_view r in
  Mem.set_tracing mem true;
  Mem.set_tracing ref_mem true;
  for k = 1 to 3000 do
    let at = Random.State.int rng (size - 48) in
    let off = base + at in
    let len = Random.State.int rng 41 in
    let stored = Bytes.sub content at len in
    let probe = Bytes.sub content at (Random.State.int rng 41) in
    if Bytes.length probe > 0 && Random.State.bool rng then
      Bytes.set probe (Random.State.int rng (Bytes.length probe)) '\xff';
    let key_len = Bytes.length probe in
    let reg = if k mod 5 = 0 then v else r in
    match k mod 4 with
    | 0 ->
        ignore (Mem.compare_read reg ~off ~len probe);
        Mem.touch ref_r ~off ~len
    | 1 ->
        ignore (Mem.compare_sign reg ~off ~len probe ~key_off:0 ~key_len);
        Mem.touch ref_r ~off ~len:(examined stored probe)
    | 2 ->
        ignore (Mem.compare_detail reg ~off ~len probe ~key_off:0 ~key_len);
        Mem.touch ref_r ~off ~len:(examined stored probe)
    | _ ->
        ignore (Mem.compare_packed reg ~off ~len probe ~key_off:0 ~key_len);
        Mem.touch ref_r ~off ~len:(examined stored probe)
  done;
  Mem.set_tracing mem false;
  Mem.release_view v;
  let got = Cachesim.snapshot sim and want = Cachesim.snapshot ref_sim in
  Alcotest.(check bool) "some blocks charged" true (want.Cachesim.total_accesses > 1000);
  Alcotest.(check int) "block touches" want.Cachesim.total_accesses got.Cachesim.total_accesses;
  Alcotest.(check int) "tlb accesses" want.Cachesim.tlb_accesses got.Cachesim.tlb_accesses;
  Alcotest.(check int) "tlb misses" want.Cachesim.tlb_misses got.Cachesim.tlb_misses;
  Array.iteri
    (fun i (l : Cachesim.level_counts) ->
      let g = got.Cachesim.per_level.(i) in
      Alcotest.(check int) (l.Cachesim.name ^ " accesses") l.Cachesim.accesses g.Cachesim.accesses;
      Alcotest.(check int) (l.Cachesim.name ^ " misses") l.Cachesim.misses g.Cachesim.misses)
    want.Cachesim.per_level;
  Alcotest.(check (float 0.0)) "simulated ns" want.Cachesim.sim_ns got.Cachesim.sim_ns

(* A 40-byte key equal but for its last byte: the kernel runs four
   whole lanes and a byte tail. *)
let kernel_fixture () =
  let r, off = kernel_region () in
  let key = Bytes.init 40 (fun i -> Char.chr (0x80 + i)) in
  Mem.write_bytes r ~off ~src:key ~src_off:0 ~len:40;
  let probe = Bytes.copy key in
  Bytes.set probe 39 '\xff';
  (r, off, probe)

let each_compare r ~off probe =
  let len = Bytes.length probe in
  [
    ("compare_packed", fun () -> Mem.compare_packed r ~off ~len probe ~key_off:0 ~key_len:len);
    ("compare_sign", fun () -> Mem.compare_sign r ~off ~len probe ~key_off:0 ~key_len:len);
    ("compare_read", fun () -> Mem.compare_read r ~off ~len probe);
  ]

let test_kernel_one_fault_hit () =
  let r, off, probe = kernel_fixture () in
  let v = Mem.snapshot_view r in
  Fault.reset ();
  (* Armed but never firing: [hits] counts every evaluation. *)
  Fault.arm "mem.read" (Fault.Every_nth max_int);
  Fun.protect
    ~finally:(fun () -> Fault.reset ())
    (fun () ->
      let once what f =
        let h = Fault.hits "mem.read" in
        f ();
        Alcotest.(check int) (what ^ " adds one mem.read hit") (h + 1) (Fault.hits "mem.read")
      in
      List.iter
        (fun (reg, where) ->
          List.iter (fun (name, f) -> once (where ^ " " ^ name) (fun () -> ignore (f ())))
            (each_compare reg ~off probe);
          once (where ^ " compare_detail") (fun () ->
              ignore (Mem.compare_detail reg ~off ~len:40 probe ~key_off:0 ~key_len:40)))
        [ (r, "live"); (v, "view") ])

let test_kernel_no_alloc () =
  let r, off, probe = kernel_fixture () in
  let v = Mem.snapshot_view r in
  let sink = ref 0 in
  List.iter
    (fun (reg, where) ->
      List.iter
        (fun (name, f) ->
          let overhead =
            let b = Gc.minor_words () in
            Gc.minor_words () -. b
          in
          let before = Gc.minor_words () in
          for _ = 1 to 10_000 do
            sink := !sink + f ()
          done;
          let words = Gc.minor_words () -. before -. overhead in
          Alcotest.(check (float 0.0)) (where ^ " " ^ name ^ ": minor words per 10k") 0.0 words)
        (each_compare reg ~off probe))
    [ (r, "live"); (v, "view") ];
  Alcotest.(check bool) "results consumed" true (!sink <> 0)

let () =
  Alcotest.run "pk_mem"
    [
      ( "mem",
        [
          Alcotest.test_case "regions disjoint" `Quick test_regions_disjoint;
          Alcotest.test_case "typed roundtrip" `Quick test_typed_roundtrip;
          Alcotest.test_case "overlapping move" `Quick test_move_overlap;
          Alcotest.test_case "tracing gate" `Quick test_tracing_gate;
          Alcotest.test_case "with_tracing restores" `Quick test_with_tracing_restores;
          Alcotest.test_case "block-span charging" `Quick test_charging_spans_blocks;
          Alcotest.test_case "region address separation" `Quick test_same_offsets_different_regions_do_not_conflict;
          Alcotest.test_case "compare_detail" `Quick test_compare_detail_semantics;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "difference at every position" `Quick test_kernel_every_position;
          test_kernel_random;
          Alcotest.test_case "charges match byte scan" `Quick test_kernel_charges;
          Alcotest.test_case "one mem.read hit per call" `Quick test_kernel_one_fault_hit;
          Alcotest.test_case "10k calls allocate nothing" `Quick test_kernel_no_alloc;
        ] );
    ]
