module Mem = Pk_mem.Mem
module Fault = Pk_fault.Fault
module Key = Pk_keys.Key
module Record_store = Pk_records.Record_store
module Partial_key = Pk_partialkey.Partial_key
module Node_search = Pk_partialkey.Node_search
module Counters = Engine.Counters
module Scratch = Engine.Scratch
module Entries = Engine.Entries
module Tgroup = Engine.Tgroup

type config = {
  scheme : Layout.scheme;
  node_bytes : int;
  naive_search : bool;
  layout : Layout.policy; (* where bulk loads place nodes; inserts always bump-alloc *)
}

let default_config scheme =
  { scheme; node_bytes = 192; naive_search = false; layout = Layout.Flat }

type t = {
  reg : Mem.region;
  records : Record_store.t;
  cfg : config;
  ec : Entries.ctx;
  sc : Scratch.t;
  cu : Node_search.cursor;
      (* FINDNODE cursor over entries [1..n) of the last Gt ancestor (its
         leftmost key is the base), re-aimed per (node, probe) *)
  max_entries : int;
  min_internal : int;
  mutable root : int;
  mutable n_nodes : int;
  mutable n_keys : int;
  mutable td : Tgroup.driver option;
}

let null = Pk_arena.Arena.null

(* Node layout: [0:num u16][2:height u8][3..7:pad][8:left u64]
   [16:right u64][24:entries]. *)
let entries_at = 24

let create mem records cfg =
  let esz = Layout.entry_size cfg.scheme in
  let max_entries = (cfg.node_bytes - entries_at) / esz in
  if max_entries < 2 then
    invalid_arg
      (Printf.sprintf "Ttree.create: node of %d bytes holds %d entries under scheme %s"
         cfg.node_bytes max_entries (Layout.scheme_tag cfg.scheme));
  let reg =
    Mem.new_region mem ~initial_capacity:(1 lsl 20) ~name:("ttree-" ^ Layout.scheme_tag cfg.scheme)
      ()
  in
  let ec =
    Entries.make ~name:"Ttree" ~reg ~records ~scheme:cfg.scheme ~entries_at (Counters.create ())
  in
  {
    reg;
    records;
    cfg;
    ec;
    sc = Scratch.create ();
    cu = Entries.cursor ec ~shift:1 ~naive:cfg.naive_search;
    max_entries;
    min_internal = max 1 (max_entries - 2);
    root = null;
    n_nodes = 0;
    n_keys = 0;
    td = None;
  }

let scheme t = t.cfg.scheme
let record_store t = t.records
let count t = t.n_keys
let node_count t = t.n_nodes
let space_bytes t = Mem.live_bytes t.reg
let entry_capacity t = t.max_entries
let cnt t = t.ec.Entries.cnt
let deref_count t = (cnt t).Counters.derefs
let node_visits t = (cnt t).Counters.visits
let reset_counters t = Counters.reset (cnt t)
let visit t node = Counters.visit (cnt t) node

(* {2 Node accessors} *)

let[@inline] num_keys t node = Mem.read_u16 t.reg node
let set_num_keys t node n = Mem.write_u16 t.reg node n
let node_height t node = if node = null then 0 else Mem.read_u8 t.reg (node + 2)
let set_node_height t node h = Mem.write_u8 t.reg (node + 2) h
let[@inline] left t node = Mem.read_u64 t.reg (node + 8)
let set_left t node v = Mem.write_u64 t.reg (node + 8) v
let[@inline] right t node = Mem.read_u64 t.reg (node + 16)
let set_right t node v = Mem.write_u64 t.reg (node + 16) v
let height t = node_height t t.root
let is_leaf t node = left t node = null && right t node = null

let init_node t node =
  Mem.write_u16 t.reg node 0;
  set_node_height t node 1;
  set_left t node null;
  set_right t node null;
  t.n_nodes <- t.n_nodes + 1;
  node

let alloc_node t = init_node t (Mem.alloc t.reg ~align:64 t.cfg.node_bytes)

(* Bulk-load allocation: at the plan's target offset when one exists
   (blocked layouts), plain bump allocation otherwise. *)
let alloc_node_at t plan ~level ~index =
  match Layout.Placement.offset plan ~level ~index with
  | None -> alloc_node t
  | Some off -> init_node t (Mem.alloc_at t.reg ~off t.cfg.node_bytes)

let free_node t node =
  Mem.free t.reg node t.cfg.node_bytes;
  t.n_nodes <- t.n_nodes - 1

let rec_ptr t node i = Entries.rec_ptr t.ec node i
let entry_key t node i = Entries.entry_key t.ec node i
let is_partial t = Entries.is_partial t.ec

(* Key payload of an entry about to move to another node: only the
   direct scheme stores it inline ([write_entry] ignores it otherwise),
   so the other schemes skip the record read. *)
let moved_key t node i =
  match t.cfg.scheme with
  | Layout.Direct _ -> entry_key t node i
  | Layout.Indirect | Layout.Partial _ -> Bytes.empty

(* {2 Partial-key maintenance (§4.1)} — scheme arithmetic lives in
   {!module:Engine.Entries}; here only the base-key rules.

   pk(X, i > 0) is derived from X's records i - 1 and i, and is
   refreshed by the local edits ([insert_at], [remove_at], merges).
   pk(X, 0) is derived from exactly two records: X's first record and
   its parent's first record (the virtual zero key, [null], at the
   root).  So entry 0 is refreshed only where one of those can have
   changed:
   - each recursive step ([insert_rec], [delete_rec], [insert_max],
     [remove_max]) notes its node's first record [r0] on entry and ends
     in [settle]: the children's entry 0 when the node's own first
     record moved, and the subtree root's entry 0 against [base] when
     the root node or its first record differ;
   - a rotation refreshes the two nodes whose parent changed;
   - [slide_fill] refreshes both children after pulling records into
     position 0.
   A child settled against a [base] that its parent's first record
   later replaces is covered by the parent's own children refresh. *)

(* Recompute the partial key of entry [i] of [node] ([null]: no-op);
   [base] is the record address entry 0 is based on — the parent's
   first record, [null] (virtual zero key) at the root. *)
let fix_pk t node i ~base =
  if is_partial t && node <> null then Entries.fix_pk t.ec node i ~n:(num_keys t node) ~base

(* Re-derive both children's entry 0 against [node]'s first record. *)
let fix_children t node =
  if is_partial t then begin
    let r = rec_ptr t node 0 in
    fix_pk t (left t node) 0 ~base:r;
    fix_pk t (right t node) 0 ~base:r
  end

(* A recursive step's [r0]: the node's first record (partial schemes
   only; the plain schemes have nothing to refresh). *)
let first_rec t node = if is_partial t then rec_ptr t node 0 else null

(* {2 Raw entry movement} *)

let blit_entries t ~src ~src_i ~dst ~dst_i ~n = Entries.blit_entries t.ec ~src ~src_i ~dst ~dst_i ~n
let write_entry t node i ~key ~rid = Entries.write_entry t.ec node i ~key ~rid

(* Insert an entry at position [i]; fixes the local partial keys of
   positions i and i+1 (entry 0, which needs the parent's first record,
   is [settle]'s job). *)
let insert_at t node i ~key ~rid =
  let n = num_keys t node in
  blit_entries t ~src:node ~src_i:i ~dst:node ~dst_i:(i + 1) ~n:(n - i);
  write_entry t node i ~key ~rid;
  set_num_keys t node (n + 1);
  if i > 0 then fix_pk t node i ~base:null;
  fix_pk t node (i + 1) ~base:null

let remove_at t node i =
  let n = num_keys t node in
  blit_entries t ~src:node ~src_i:(i + 1) ~dst:node ~dst_i:i ~n:(n - i - 1);
  set_num_keys t node (n - 1);
  if i > 0 then fix_pk t node i ~base:null

(* {2 AVL rebalancing} *)

let update_height t node =
  set_node_height t node (1 + max (node_height t (left t node)) (node_height t (right t node)))

let balance_factor t node = node_height t (left t node) - node_height t (right t node)

(* Rotations return the new subtree root.  Inside, the nodes whose
   parent changed get their entry-0 partial keys refreshed; the caller
   refreshes the returned root against its own parent. *)
let rotate_right t z =
  Fault.point "ttree.rotate";
  let y = left t z in
  set_left t z (right t y);
  (* Mid-rotation: [z] has dropped its left child but [y] does not yet
     point at [z].  An injection here must unwind. *)
  Fault.point "ttree.rotate.mid";
  set_right t y z;
  update_height t z;
  update_height t y;
  if is_partial t then begin
    fix_pk t z 0 ~base:(rec_ptr t y 0);
    fix_pk t (left t z) 0 ~base:(rec_ptr t z 0)
  end;
  y

let rotate_left t z =
  Fault.point "ttree.rotate";
  let y = right t z in
  set_right t z (left t y);
  Fault.point "ttree.rotate.mid";
  set_left t y z;
  update_height t z;
  update_height t y;
  if is_partial t then begin
    fix_pk t z 0 ~base:(rec_ptr t y 0);
    fix_pk t (right t z) 0 ~base:(rec_ptr t z 0)
  end;
  y

(* Merge a half-leaf with its single child when the combined entries
   fit in one node.  AVL balance guarantees the child is a leaf. *)
let merge_half_leaf t node =
  let l = left t node and r = right t node in
  let child = if l <> null then l else r in
  let n = num_keys t node and cn = num_keys t child in
  if is_leaf t child && n + cn <= t.max_entries then begin
    Fault.point "ttree.merge";
    if l <> null then begin
      (* Prepend the left child's (smaller) entries. *)
      blit_entries t ~src:node ~src_i:0 ~dst:node ~dst_i:cn ~n;
      blit_entries t ~src:child ~src_i:0 ~dst:node ~dst_i:0 ~n:cn;
      set_left t node null;
      set_num_keys t node (n + cn);
      (* Seam: the old first entry now follows the child's last. *)
      fix_pk t node cn ~base:null
    end
    else begin
      blit_entries t ~src:child ~src_i:0 ~dst:node ~dst_i:n ~n:cn;
      set_right t node null;
      set_num_keys t node (n + cn);
      fix_pk t node n ~base:null
    end;
    free_node t child
  end

let needs_fill t node =
  left t node <> null && right t node <> null && num_keys t node < t.min_internal

(* A T-tree special case: an inner node that becomes the subtree root
   through a rotation — or gains a second child — may hold very few
   entries (it can be a freshly created leaf).  Refill it so that no
   internal node stays below the occupancy minimum (Lehman–Carey's
   "special rotation").  Each pull takes the subtree's greatest lower
   bound — [remove_max] of the left child — which keeps the ordering
   invariants for any left-subtree shape; a plain entry blit from the
   left child is only sound when that child has no right subtree.  If
   the left subtree drains completely the node degrades to a (legal)
   half-leaf and the loop stops.  Mutually recursive with [rebalance]
   and the removal helpers it reuses. *)
let rec slide_fill t node =
  if node <> null && needs_fill t node then begin
    while needs_fill t node do
      Fault.point "ttree.slide";
      let l', (k, rid) = remove_max t (left t node) ~base:(rec_ptr t node 0) in
      set_left t node l';
      insert_at t node 0 ~key:k ~rid
    done;
    (* Position 0 now holds a record pulled from the left subtree: the
       children's base changed. *)
    fix_children t node
  end

(* Rotations and refills leave every partial key of the returned
   subtree valid except the new root's entry 0, which [settle] (the
   caller) derives against the parent. *)
and rebalance t node =
  let bf = balance_factor t node in
  let node' =
    if bf > 1 then begin
      if balance_factor t (left t node) < 0 then set_left t node (rotate_left t (left t node));
      rotate_right t node
    end
    else if bf < -1 then begin
      if balance_factor t (right t node) > 0 then set_right t node (rotate_right t (right t node));
      rotate_left t node
    end
    else begin
      update_height t node;
      node
    end
  in
  slide_fill t node';
  (* Refilling can shrink the left subtree: refresh the height and
     re-check the balance before publishing the new root. *)
  update_height t node';
  if abs (balance_factor t node') > 1 then rebalance t node' else node'

(* End of a recursive step over [node] (first record [r0] on entry)
   whose edits left [node'] in its place ([null]: subtree emptied):
   refresh the children's entry 0 if [node] kept its place but its
   first record moved, rebalance, then refresh the subtree root's
   entry 0 against [base] if the root node or its first record
   changed.  (A rotation can lift the node holding [r0] — an evicted
   minimum in a fresh leaf — to the root, so both are compared.) *)
and settle t node ~r0 ~base node' =
  if node' = null then null
  else if not (is_partial t) then rebalance t node'
  else begin
    if node' = node && rec_ptr t node' 0 <> r0 then fix_children t node';
    let root = rebalance t node' in
    if root <> node || rec_ptr t root 0 <> r0 then fix_pk t root 0 ~base;
    root
  end

(* Lehman–Carey case analysis after removing an entry from a node:
   - internal (two children) below minimum occupancy: refill with the
     subtree's greatest lower bound (max of the left subtree);
   - half-leaf (one child): merge the child's entries in when they fit;
   - leaf left empty: splice the node out.
   [fix_after_removal] applies these rules and returns the replacement
   subtree root; the removal helpers use it on every node they drain
   (and [settle] the result). *)
and fix_after_removal t node =
  let n = num_keys t node in
  let l = left t node and r = right t node in
  if n = 0 && l = null && r = null then begin
    free_node t node;
    null
  end
  else begin
    if l <> null && r <> null && n < t.min_internal then begin
      (* Internal: pull the greatest lower bound up into position 0.
         The new first record changes the children's base, which the
         caller's [settle] refreshes. *)
      let l', (k, rid) = remove_max t l ~base:(if n = 0 then null else rec_ptr t node 0) in
      set_left t node l';
      insert_at t node 0 ~key:k ~rid
    end;
    let l = left t node and r = right t node in
    if n > 0 && (l = null) <> (r = null) then merge_half_leaf t node;
    if num_keys t node = 0 then begin
      (* Still empty: node had exactly one child and no keys. *)
      let l = left t node and r = right t node in
      let repl = if l <> null then l else r in
      free_node t node;
      repl
    end
    else node
  end

(* Remove and return the greatest entry of the subtree (its key is
   only read under the direct scheme, see [moved_key]). *)
and remove_max t node ~base =
  let r0 = first_rec t node in
  let n = num_keys t node in
  if right t node <> null then begin
    let r, kv = remove_max t (right t node) ~base:r0 in
    set_right t node r;
    (settle t node ~r0 ~base node, kv)
  end
  else begin
    let kv = (moved_key t node (n - 1), rec_ptr t node (n - 1)) in
    remove_at t node (n - 1);
    (settle t node ~r0 ~base (fix_after_removal t node), kv)
  end

(* {2 Insert} *)

let locate t node key = Entries.locate t.ec node ~n:(num_keys t node) key

let new_leaf t ~key ~rid ~base =
  let node = alloc_node t in
  write_entry t node 0 ~key ~rid;
  set_num_keys t node 1;
  fix_pk t node 0 ~base;
  node

(* Insert [key] into the subtree's greatest-lower-bound position: the
   rightmost node (used for the evicted minimum of a full bounding
   node; the evicted key exceeds everything in this subtree). *)
let rec insert_max t node ~key ~rid ~base =
  if node = null then new_leaf t ~key ~rid ~base
  else begin
    let r0 = first_rec t node in
    (if right t node <> null then set_right t node (insert_max t (right t node) ~key ~rid ~base:r0)
     else if num_keys t node < t.max_entries then insert_at t node (num_keys t node) ~key ~rid
     else set_right t node (new_leaf t ~key ~rid ~base:r0));
    settle t node ~r0 ~base node
  end

exception Duplicate

let save t = (t.root, t.n_nodes, t.n_keys)

let restore t (root, nn, nk) =
  t.root <- root;
  t.n_nodes <- nn;
  t.n_keys <- nk

(* Exception safety: snapshot the scalar header, run under the arena
   undo journal, restore both on any escaping exception.  [Duplicate] /
   [Not_present] are raised before any mutation and handled inside the
   guarded thunk, so they commit a no-op. *)
let guarded t f =
  Engine.guarded ~reg:t.reg ~cnt:(cnt t) ~save:(fun () -> save t) ~restore:(restore t) f

let rec insert_rec t node key rid ~base =
  if node = null then new_leaf t ~key ~rid ~base
  else begin
    let r0 = first_rec t node in
    let n = num_keys t node in
    let c0 = Entries.key_sign t.ec node 0 key in
    let cl = if n = 0 then -1 else Entries.key_sign t.ec node (n - 1) key in
    (if c0 = 0 then raise Duplicate
     else if c0 < 0 then begin
       if left t node <> null then set_left t node (insert_rec t (left t node) key rid ~base:r0)
       else if n < t.max_entries then insert_at t node 0 ~key ~rid
       else set_left t node (new_leaf t ~key ~rid ~base:r0)
     end
     else if cl = 0 then raise Duplicate
     else if cl > 0 then begin
       if right t node <> null then set_right t node (insert_rec t (right t node) key rid ~base:r0)
       else if n < t.max_entries then insert_at t node n ~key ~rid
       else set_right t node (new_leaf t ~key ~rid ~base:r0)
     end
     else begin
       (* Bounding node. *)
       let pos, found = locate t node key in
       if found then raise Duplicate;
       if n < t.max_entries then insert_at t node pos ~key ~rid
       else begin
         (* Full: evict the minimum to the left subtree (its greatest
            lower bound node), then insert.  The left child's base moves
            with the first record; [settle] refreshes it. *)
         Fault.point "ttree.evict";
         let ev_key = moved_key t node 0 and ev_rid = rec_ptr t node 0 in
         remove_at t node 0;
         insert_at t node (pos - 1) ~key ~rid;
         let l =
           insert_max t (left t node) ~key:ev_key ~rid:ev_rid ~base:(first_rec t node)
         in
         set_left t node l
       end
     end);
    settle t node ~r0 ~base node
  end

let insert t key ~rid =
  (match t.cfg.scheme with
  | Layout.Direct { key_len } when Bytes.length key <> key_len ->
      invalid_arg
        (Printf.sprintf "Ttree.insert: direct scheme expects %d-byte keys, got %d" key_len
           (Bytes.length key))
  | _ -> ());
  guarded t (fun () ->
      match insert_rec t t.root key rid ~base:null with
      | root ->
          t.root <- root;
          t.n_keys <- t.n_keys + 1;
          true
      | exception Duplicate -> false)

(* {2 Delete}

   The Lehman–Carey removal case analysis lives in [fix_after_removal]
   above (mutually recursive with [rebalance]); the helpers below walk
   to the key and apply it on every node they drain. *)

exception Not_present

let rec delete_rec t node key ~base =
  if node = null then raise Not_present
  else begin
    let r0 = first_rec t node in
    let n = num_keys t node in
    let c0 = Entries.key_sign t.ec node 0 key in
    let cl = if n = 0 then 1 else Entries.key_sign t.ec node (n - 1) key in
    let node' =
      if c0 < 0 then begin
        set_left t node (delete_rec t (left t node) key ~base:r0);
        node
      end
      else if cl > 0 then begin
        set_right t node (delete_rec t (right t node) key ~base:r0);
        node
      end
      else begin
        let pos, found = locate t node key in
        if not found then raise Not_present;
        remove_at t node pos;
        fix_after_removal t node
      end
    in
    settle t node ~r0 ~base node'
  end

let delete t key =
  guarded t (fun () ->
      match delete_rec t t.root key ~base:null with
      | root ->
          t.root <- root;
          t.n_keys <- t.n_keys - 1;
          true
      | exception Not_present -> false)

(* {2 Lookup}

   Both descents are top-level recursions returning the rid or [-1];
   [lookup] boxes only the final [Some rid].  [la]/[la_off]: the last
   node left via a greater-than branch and the resolved offset there. *)

(* FINDTTREE's final step: FINDNODE over entries [1..n) of the last Gt
   ancestor [la], whose leftmost key is their base. *)
let[@pklint.hot] final_partial t la la_off =
  let cu = t.cu in
  cu.Node_search.node <- la;
  cu.Node_search.num_keys <- num_keys t la - 1;
  Node_search.find cu (Key.Packed.make Key.Packed.gt la_off);
  if cu.Node_search.low = cu.Node_search.high then rec_ptr t la (cu.Node_search.low + 1) else -1

(* FINDTTREE (Fig. 7). *)
let[@pklint.hot] rec descend_partial t node la la_off st =
  if node = null then if la = null then -1 else final_partial t la la_off
  else begin
    visit t node;
    let r = Entries.head_pk_cmp t.ec node t.cu.Node_search.search st in
    let code = Key.Packed.code r in
    if code = Key.Packed.eq then rec_ptr t node 0
    else if code = Key.Packed.lt then descend_partial t (left t node) la la_off r
    else descend_partial t (right t node) node (Key.Packed.off r) r
  end

(* Binary search among entries [lo, hi) of [node]; rid or -1. *)
let[@pklint.hot] rec tresolve t node probe lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let c = Entries.probe_sign t.ec node probe mid in
    if c = 0 then rec_ptr t node mid
    else if c < 0 then tresolve t node probe lo mid
    else tresolve t node probe (mid + 1) hi

(* Direct / indirect: single comparison per level against entry 0. *)
let[@pklint.hot] rec descend_plain t node la probe =
  if node = null then if la = null then -1 else tresolve t la probe 1 (num_keys t la)
  else begin
    visit t node;
    let c = Entries.probe_sign t.ec node probe 0 in
    if c = 0 then rec_ptr t node 0
    else if c < 0 then descend_plain t (left t node) la probe
    else descend_plain t (right t node) node probe
  end

let[@pklint.hot] lookup_rid t search =
  if t.root = null then -1
  else
    match t.cfg.scheme with
    | Layout.Partial _ ->
        t.cu.Node_search.search <- search;
        descend_partial t t.root null 0 (Partial_key.initial_packed t.ec.Entries.gran search)
    | Layout.Direct _ | Layout.Indirect -> descend_plain t t.root null search

let lookup t search =
  let r = lookup_rid t search in
  if r < 0 then None else Some r

(* {2 Batched lookup hooks (group descent)}

   The engine ({!module:Engine.Tgroup}) splits the sorted batch at
   every node into below / equal / above segments against the leftmost
   entry; probes of one segment share their whole path, hence also the
   last-Gt-ancestor node — only the offset at that ancestor is
   per-probe state.  As in {!module:Btree}, every scheme is
   allocation-free: sign comparisons for direct/indirect, packed
   per-probe states and the tree's cursor for partial keys. *)

let[@pklint.hot] plain_classify t node slot =
  let sc = t.sc in
  let c = Entries.probe_sign t.ec node sc.Scratch.keys.(slot) 0 in
  sc.Scratch.sign.(slot) <- c;
  if c = 0 then sc.Scratch.out.(slot) <- rec_ptr t node 0

let[@pklint.hot] plain_final t la slot =
  let sc = t.sc in
  sc.Scratch.out.(slot) <-
    (if la = null then -1 else tresolve t la sc.Scratch.keys.(slot) 1 (num_keys t la))

let[@pklint.hot] partial_classify t node slot =
  let sc = t.sc in
  let r = Entries.head_pk_cmp t.ec node sc.Scratch.keys.(slot) sc.Scratch.st.(slot) in
  let code = Key.Packed.code r in
  if code = Key.Packed.eq then begin
    sc.Scratch.out.(slot) <- rec_ptr t node 0;
    sc.Scratch.sign.(slot) <- 0
  end
  else begin
    sc.Scratch.st.(slot) <- r;
    if code = Key.Packed.lt then sc.Scratch.sign.(slot) <- -1
    else begin
      sc.Scratch.la.(slot) <- Key.Packed.off r;
      sc.Scratch.sign.(slot) <- 1
    end
  end

let[@pklint.hot] partial_final t la slot =
  let sc = t.sc in
  if la = null then sc.Scratch.out.(slot) <- -1
  else begin
    t.cu.Node_search.search <- sc.Scratch.keys.(slot);
    sc.Scratch.out.(slot) <- final_partial t la sc.Scratch.la.(slot)
  end

let tdriver t =
  match t.td with
  | Some d -> d
  | None ->
      let common classify final =
        { Tgroup.sc = t.sc; left = left t; right = right t; visit = visit t; classify; final }
      in
      let d =
        match t.cfg.scheme with
        | Layout.Direct _ | Layout.Indirect ->
            common (fun node slot -> plain_classify t node slot) (fun la slot -> plain_final t la slot)
        | Layout.Partial _ ->
            common
              (fun node slot -> partial_classify t node slot)
              (fun la slot -> partial_final t la slot)
      in
      t.td <- Some d;
      d

(* {2 Bottom-up bulk load}

   Cut the sorted entries into chunks of [fill * capacity] (clamped to
   [[min_internal, capacity]]) and build the balanced midpoint BST over
   the chunks.  Only the last chunk can be smaller than the internal
   minimum, and the midpoint construction always places the last chunk
   with no right child — a leaf or half-leaf, which carries no
   occupancy minimum (Lehman–Carey).  Partial keys follow §4.1: entry 0
   is based on the parent node's leftmost key, later entries on their
   in-node predecessor — all derived from sorted neighbours. *)

(* Chunk size and count shared by [load_sorted] and [load_shape]. *)
let chunking t ~fill n =
  let cap = t.max_entries in
  let c = max 1 (max t.min_internal (min cap (int_of_float (fill *. float_of_int cap)))) in
  (c, (n + c - 1) / c)

(* A recursion depth bound far above any balanced midpoint BST this
   arena can hold (depth <= log2 m + 1). *)
let max_depth = 64

(* Predict the BST level structure [load_sorted] will build.  A
   pre-order walk of the midpoint recursion visits each depth's nodes
   left to right, which is exactly the planner's per-level (BFS)
   enumeration: reserving child indices at the parent's visit and
   appending the node's own range at its visit keeps both sides in the
   same order. *)
let load_shape t ~fill entries =
  let _, m = chunking t ~fill (Array.length entries) in
  let acc = Array.make max_depth [] in
  let next_idx = Array.make max_depth 0 in
  let deepest = ref 0 in
  let rec walk clo chi d =
    if clo < chi then begin
      if !deepest < d then deepest := d;
      let mid = (clo + chi) / 2 in
      let nl = if clo < mid then 1 else 0 and nr = if mid + 1 < chi then 1 else 0 in
      let base = next_idx.(d + 1) in
      next_idx.(d + 1) <- base + nl + nr;
      acc.(d) <- (base, base + nl + nr) :: acc.(d);
      walk clo mid (d + 1);
      walk (mid + 1) chi (d + 1)
    end
  in
  walk 0 m 0;
  {
    Layout.shape_node_bytes = t.cfg.node_bytes;
    shape_levels = Array.init (!deepest + 1) (fun d -> Array.of_list (List.rev acc.(d)));
  }

let load_sorted t ~fill ~plan entries =
  let n = Array.length entries in
  let c, m = chunking t ~fill n in
  (* Per-depth child-index counters mirroring [load_shape]'s walk, so
     node (depth, idx) lands on the same planner coordinate. *)
  let next_idx = Array.make max_depth 0 in
  (* Chunk [i] holds entries [i*c, min ((i+1)*c, n)). *)
  let rec build clo chi ~base ~d ~idx =
    if clo >= chi then (null, 0)
    else begin
      let mid = (clo + chi) / 2 in
      let start = mid * c in
      let sz = min c (n - start) in
      let node = alloc_node_at t plan ~level:d ~index:idx in
      for j = 0 to sz - 1 do
        write_entry t node j ~key:(fst entries.(start + j)) ~rid:(snd entries.(start + j))
      done;
      set_num_keys t node sz;
      if is_partial t then begin
        fix_pk t node 0 ~base;
        for j = 1 to sz - 1 do
          fix_pk t node j ~base:null
        done
      end;
      let k0 = snd entries.(start) in
      let nl = if clo < mid then 1 else 0 and nr = if mid + 1 < chi then 1 else 0 in
      let cbase = next_idx.(d + 1) in
      next_idx.(d + 1) <- cbase + nl + nr;
      let l, hl = build clo mid ~base:k0 ~d:(d + 1) ~idx:cbase in
      let r, hr = build (mid + 1) chi ~base:k0 ~d:(d + 1) ~idx:(cbase + nl) in
      set_left t node l;
      set_right t node r;
      let h = 1 + max hl hr in
      set_node_height t node h;
      (node, h)
    end
  in
  let root, _ = build 0 m ~base:null ~d:0 ~idx:0 in
  t.root <- root;
  t.n_keys <- n

(* {2 Cursor primitives}

   A frame (node, i) means: emit entries [i..), then walk the node's
   right subtree, then pop. *)

let rec push_spine t node stack =
  if node = null then stack else push_spine t (left t node) ((node, 0) :: stack)

let rec seek_from t from node stack =
  if node = null then stack
  else
    let n = num_keys t node in
    let c0 = Entries.key_sign t.ec node 0 from in
    let cl = Entries.key_sign t.ec node (n - 1) from in
    if c0 < 0 then seek_from t from (left t node) ((node, 0) :: stack)
    else if cl > 0 then seek_from t from (right t node) stack
    else
      let pos, _ = locate t node from in
      (node, pos) :: stack

(* {2 Validation} *)

let validate t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let total = ref 0 in
  let nodes = ref 0 in
  let rec walk node ~lo ~hi ~base =
    if node = null then 0
    else begin
      incr nodes;
      let n = num_keys t node in
      if n = 0 then fail "node %d empty" node;
      if n > t.max_entries then fail "node %d overfull" node;
      (* Only two-child (internal) nodes carry the occupancy
         guarantee; half-leaves merge with their child when possible
         instead (Lehman–Carey). *)
      if left t node <> null && right t node <> null && n < t.min_internal then
        fail "internal node %d underfull: %d < %d" node n t.min_internal;
      total := !total + n;
      let keys = Array.init n (fun i -> entry_key t node i) in
      Array.iteri
        (fun i k ->
          if i > 0 && Key.compare keys.(i - 1) k >= 0 then
            fail "node %d out of order at %d" node i;
          (match lo with
          | Some b when Key.compare k b <= 0 -> fail "node %d entry %d below range" node i
          | _ -> ());
          (match hi with
          | Some b when Key.compare k b >= 0 -> fail "node %d entry %d above range" node i
          | _ -> ());
          if is_partial t then
            Entries.check_pk t.ec node i ~key:k ~base:(if i = 0 then base else Some keys.(i - 1)))
        keys;
      let k0 = Some keys.(0) in
      let hl = walk (left t node) ~lo ~hi:(Some keys.(0)) ~base:k0 in
      let hr = walk (right t node) ~lo:(Some keys.(n - 1)) ~hi ~base:k0 in
      if abs (hl - hr) > 1 then fail "node %d unbalanced: %d vs %d" node hl hr;
      let h = 1 + max hl hr in
      if h <> node_height t node then
        fail "node %d stored height %d, actual %d" node (node_height t node) h;
      h
    end
  in
  ignore (walk t.root ~lo:None ~hi:None ~base:None);
  if !total <> t.n_keys then fail "key count mismatch: walked %d, recorded %d" !total t.n_keys;
  if !nodes <> t.n_nodes then fail "node count mismatch: walked %d, recorded %d" !nodes t.n_nodes

(* Free every node and reset the header to the empty-tree state (the
   compaction teardown).  Arena frees go through the region's undo
   journal, so an enclosing engine guard rolls a partial clear back. *)
let clear t =
  let rec free_subtree node =
    if node <> null then begin
      free_subtree (left t node);
      free_subtree (right t node);
      free_node t node
    end
  in
  free_subtree t.root;
  t.root <- null;
  t.n_keys <- 0

(* {2 Engine plug-in} *)

module Structure = struct
  type nonrec t = t
  type snap = int * int * int

  let name = "Ttree"
  let region t = t.reg
  let counters = cnt
  let scratch t = t.sc
  let root t = t.root
  let save = save
  let restore = restore
  let insert = insert
  let lookup = lookup
  let delete = delete

  let prepare_batch t keys n =
    let sc = t.sc in
    sc.Scratch.perm <- Engine.ensure_int sc.Scratch.perm n;
    sc.Scratch.sign <- Engine.ensure_int sc.Scratch.sign n;
    if is_partial t then begin
      sc.Scratch.st <- Engine.ensure_int sc.Scratch.st n;
      sc.Scratch.la <- Engine.ensure_int sc.Scratch.la n;
      for i = 0 to n - 1 do
        sc.Scratch.st.(i) <- Partial_key.initial_packed t.ec.Entries.gran keys.(i)
      done
    end

  let descend t n = Tgroup.drive (tdriver t) t.root null 0 n

  let check_load_key t k =
    match t.cfg.scheme with
    | Layout.Direct { key_len } ->
        if Bytes.length k <> key_len then
          invalid_arg
            (Printf.sprintf "Ttree.bulk_load: direct scheme expects %d-byte keys, got %d" key_len
               (Bytes.length k))
    | Layout.Indirect | Layout.Partial _ -> ()

  let layout_policy t = t.cfg.layout
  let load_shape = load_shape
  let load_sorted = load_sorted
  let clear = clear

  let cursor_start t = function
    | None -> push_spine t t.root []
    | Some from -> seek_from t from t.root []

  let frame_entries = num_keys
  let frame_entry t node i = (entry_key t node i, rec_ptr t node i)
  let advance _ node i rest = (node, i + 1) :: rest
  let exhausted t node rest = push_spine t (right t node) rest
  let records t = t.records

  (* Header clone over the snapshot-view regions: pinned scalar state,
     fresh caches/scratch so nothing reaches back into the live tree. *)
  let snapshot_view t ~reg ~records =
    let ec =
      Entries.make ~name:"Ttree" ~reg ~records ~scheme:t.cfg.scheme ~entries_at
        (Counters.create ())
    in
    {
      t with
      reg;
      records;
      ec;
      sc = Scratch.create ();
      cu = Entries.cursor ec ~shift:1 ~naive:t.cfg.naive_search;
      td = None;
    }

  let count = count
  let height = height
  let node_count = node_count
  let space_bytes = space_bytes
  let validate = validate
end

include Engine.Make (Structure)
