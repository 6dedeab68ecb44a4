//! Order-statistic rank structures for sub-linear delta application.
//!
//! The differential layer ([`crate::delta`]) turns base-table edits into
//! positional edit scripts ([`crate::delta::Patch`]) and pushes them through
//! each operator's cached state. Two maintenance problems there are
//! naturally *rank* problems:
//!
//! * **Select/Project lineage** — "child row `i` survived the predicate;
//!   which output position is it at?" is `rank(i)` over the set of
//!   surviving child positions.
//! * **Aggregate/Pivot output order** — group output order is first-seen
//!   input order, so "which output row does group `g` occupy?" is the rank
//!   of `g`'s first occurrence among all first occurrences.
//!
//! Both are answered by [`RankList`], a weight-augmented order-statistic
//! list (an implicit treap): a sequence that supports positional insert and
//! delete, position lookup for a stable node handle, and prefix-weight
//! queries, all in `O(log n)`. Setting each element's weight to `1` when it
//! "counts" (a row passing a filter, a row opening a group) and `0`
//! otherwise makes `weight_before(pos)` exactly the rank query both
//! problems need. [`FirstSeenIndex`] layers per-key occurrence tracking on
//! top for the aggregate/pivot case, including group death, revival, and
//! first-occurrence promotion.
//!
//! DESIGN.md §15 documents the maintenance contract built on these
//! structures; `crates/relational/src/delta.rs` is the consumer.
//!
//! # Example
//!
//! ```
//! use guava_relational::rank::RankList;
//!
//! // Child rows 0..5; rows 1 and 3 pass a filter (weight 1).
//! let (mut lineage, _ids) =
//!     RankList::from_entries((0..5).map(|i| (i, u32::from(i == 1 || i == 3))));
//! assert_eq!(lineage.total_weight(), 2); // two output rows
//! assert_eq!(lineage.weight_before(3), 1); // child row 3 is output row 1
//!
//! // A new passing child row arrives at position 2: output position is
//! // the number of passing rows before it.
//! assert_eq!(lineage.weight_before(2), 1);
//! lineage.insert_at(2, 9, 1);
//! assert_eq!(lineage.total_weight(), 3);
//! // Old child row 3 (now at position 4) shifted to output row 2.
//! assert_eq!(lineage.weight_before(4), 2);
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::table::Row;
use crate::value::Value;

/// Sentinel for "no node" in the arena.
const NIL: u32 = u32::MAX;

/// Stable handle to an element of a [`RankList`].
///
/// Handles stay valid across inserts and deletes of *other* elements and
/// are only invalidated when their own element is removed (the slot may
/// then be recycled by a later insert).
pub type NodeId = u32;

#[derive(Clone, Debug)]
struct Node<T> {
    value: T,
    prio: u32,
    left: u32,
    right: u32,
    parent: u32,
    /// Subtree size (number of nodes, including self).
    size: u32,
    /// This node's own weight.
    weight: u32,
    /// Subtree weight sum (including self).
    wsum: u32,
}

/// A weight-augmented order-statistic list (implicit treap).
///
/// Maintains a sequence of `T` values addressable by position, where every
/// element carries a `u32` weight (a list never
/// outgrows `u32` node ids, so neither do its weight sums at weight ≤ 1). All operations are `O(log n)` expected
/// (deterministic pseudo-random priorities), except bulk construction
/// ([`RankList::from_entries`], `O(n)`) and iteration.
///
/// Invariants (checked by the unit-test oracle):
///
/// * In-order traversal yields elements in sequence order; positions are
///   `0..len()`.
/// * `weight_before(p)` is the sum of weights of elements at positions
///   `< p`; `weight_before(len()) == total_weight()`.
/// * [`NodeId`] handles returned by [`RankList::insert_at`] /
///   [`RankList::from_entries`] remain valid until that element is removed,
///   and [`RankList::pos_of`] always reports the handle's *current*
///   position.
#[derive(Clone, Debug)]
pub struct RankList<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    root: u32,
    rng: u64,
}

impl<T> Default for RankList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RankList<T> {
    /// Creates an empty list.
    pub fn new() -> Self {
        RankList {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Bulk-builds a list from `(value, weight)` entries in sequence order.
    ///
    /// `O(n)` via right-spine cartesian-tree construction. Returns the list
    /// and the [`NodeId`] of every entry in sequence order, so callers can
    /// record stable handles without `O(n log n)` position lookups.
    pub fn from_entries(entries: impl IntoIterator<Item = (T, u32)>) -> (Self, Vec<NodeId>) {
        let entries = entries.into_iter();
        let mut list = Self::new();
        list.nodes.reserve_exact(entries.size_hint().0);
        let mut ids = Vec::with_capacity(entries.size_hint().0);
        let mut spine: Vec<u32> = Vec::new();
        for (value, weight) in entries {
            let id = list.alloc(value, weight);
            ids.push(id);
            let mut adopted = NIL;
            while let Some(&top) = spine.last() {
                if list.nodes[top as usize].prio > list.nodes[id as usize].prio {
                    adopted = spine.pop().unwrap();
                } else {
                    break;
                }
            }
            list.nodes[id as usize].left = adopted;
            if adopted != NIL {
                list.nodes[adopted as usize].parent = id;
            }
            if let Some(&top) = spine.last() {
                list.nodes[top as usize].right = id;
                list.nodes[id as usize].parent = top;
            } else {
                list.root = id;
            }
            spine.push(id);
        }
        // Fix subtree aggregates bottom-up: reverse pre-order visits every
        // child before its parent.
        if list.root != NIL {
            let mut order = Vec::with_capacity(ids.len());
            let mut stack = vec![list.root];
            while let Some(x) = stack.pop() {
                order.push(x);
                let n = &list.nodes[x as usize];
                if n.left != NIL {
                    stack.push(n.left);
                }
                if n.right != NIL {
                    stack.push(n.right);
                }
            }
            for &x in order.iter().rev() {
                list.pull(x);
            }
        }
        (list, ids)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        if self.root == NIL {
            0
        } else {
            self.nodes[self.root as usize].size as usize
        }
    }

    /// `true` when the list holds no elements.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Sum of all element weights.
    pub fn total_weight(&self) -> u32 {
        if self.root == NIL {
            0
        } else {
            self.nodes[self.root as usize].wsum
        }
    }

    /// Sum of the weights of elements at positions `< pos`.
    ///
    /// `pos` may equal `len()`, in which case this is [`total_weight`].
    ///
    /// [`total_weight`]: RankList::total_weight
    pub fn weight_before(&self, pos: usize) -> u32 {
        debug_assert!(pos <= self.len());
        let mut acc = 0u32;
        let mut k = pos;
        let mut cur = self.root;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            let ls = self.size_of(n.left) as usize;
            if k <= ls {
                cur = n.left;
            } else {
                acc += self.wsum_of(n.left) + n.weight;
                k -= ls + 1;
                cur = n.right;
            }
        }
        acc
    }

    /// The element at `pos`.
    ///
    /// Panics if `pos >= len()`.
    pub fn get(&self, pos: usize) -> &T {
        &self.nodes[self.node_at(pos) as usize].value
    }

    /// The handle of the element at `pos`.
    ///
    /// Panics if `pos >= len()`.
    pub fn id_at(&self, pos: usize) -> NodeId {
        self.node_at(pos)
    }

    /// The element addressed by `id`.
    pub fn value_of(&self, id: NodeId) -> &T {
        &self.nodes[id as usize].value
    }

    /// The weight of the element addressed by `id`.
    pub fn weight_of(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].weight
    }

    /// The current position of the element addressed by `id`.
    ///
    /// `O(log n)` walk to the root via parent pointers. The handle must be
    /// live (not removed).
    pub fn pos_of(&self, id: NodeId) -> usize {
        let mut pos = self.size_of(self.nodes[id as usize].left) as usize;
        let mut cur = id;
        loop {
            let p = self.nodes[cur as usize].parent;
            if p == NIL {
                break;
            }
            if self.nodes[p as usize].right == cur {
                pos += self.size_of(self.nodes[p as usize].left) as usize + 1;
            }
            cur = p;
        }
        pos
    }

    /// Inserts `value` with `weight` so it ends up at position `pos`
    /// (existing elements at `>= pos` shift right). Returns a stable
    /// handle. Panics if `pos > len()`.
    pub fn insert_at(&mut self, pos: usize, value: T, weight: u32) -> NodeId {
        debug_assert!(pos <= self.len());
        let id = self.alloc(value, weight);
        if self.root == NIL {
            self.root = id;
            return id;
        }
        let mut k = pos;
        let mut cur = self.root;
        loop {
            let n = &self.nodes[cur as usize];
            let ls = self.size_of(n.left) as usize;
            if k <= ls {
                if n.left == NIL {
                    self.nodes[cur as usize].left = id;
                    break;
                }
                cur = n.left;
            } else {
                k -= ls + 1;
                if n.right == NIL {
                    self.nodes[cur as usize].right = id;
                    break;
                }
                cur = n.right;
            }
        }
        self.nodes[id as usize].parent = cur;
        // Propagate the new node's contribution to every ancestor.
        let w = self.nodes[id as usize].weight;
        let mut up = cur;
        while up != NIL {
            self.nodes[up as usize].size += 1;
            self.nodes[up as usize].wsum += w;
            up = self.nodes[up as usize].parent;
        }
        // Restore the heap property (min priority on top).
        while {
            let p = self.nodes[id as usize].parent;
            p != NIL && self.nodes[id as usize].prio < self.nodes[p as usize].prio
        } {
            self.rotate_up(id);
        }
        id
    }

    /// Removes and returns the element (and its weight) at `pos`
    /// (elements at `> pos` shift left). Panics if `pos >= len()`.
    pub fn remove_at(&mut self, pos: usize) -> (T, u32)
    where
        T: Default,
    {
        let id = self.node_at(pos);
        // Rotate the victim down to a leaf, keeping the heap property
        // among the other nodes.
        loop {
            let n = &self.nodes[id as usize];
            let (l, r) = (n.left, n.right);
            if l == NIL && r == NIL {
                break;
            }
            let child = if l != NIL
                && (r == NIL || self.nodes[l as usize].prio < self.nodes[r as usize].prio)
            {
                l
            } else {
                r
            };
            self.rotate_up(child);
        }
        // Detach the leaf and strip its contribution from all ancestors.
        let parent = self.nodes[id as usize].parent;
        let w = self.nodes[id as usize].weight;
        if parent == NIL {
            self.root = NIL;
        } else {
            if self.nodes[parent as usize].left == id {
                self.nodes[parent as usize].left = NIL;
            } else {
                self.nodes[parent as usize].right = NIL;
            }
            let mut up = parent;
            while up != NIL {
                self.nodes[up as usize].size -= 1;
                self.nodes[up as usize].wsum -= w;
                up = self.nodes[up as usize].parent;
            }
        }
        self.free.push(id);
        let value = {
            let slot = &mut self.nodes[id as usize];
            slot.parent = NIL;
            slot.left = NIL;
            slot.right = NIL;
            std::mem::take(&mut slot.value)
        };
        (value, w)
    }

    /// Sets the weight of the element addressed by `id`, updating ancestor
    /// sums in `O(log n)`.
    pub fn set_weight(&mut self, id: NodeId, weight: u32) {
        let old = self.nodes[id as usize].weight;
        if old == weight {
            return;
        }
        self.nodes[id as usize].weight = weight;
        let mut cur = id;
        while cur != NIL {
            let n = &mut self.nodes[cur as usize];
            n.wsum = n.wsum + weight - old;
            cur = n.parent;
        }
    }

    /// In-order iteration over all elements.
    pub fn iter(&self) -> RankIter<'_, T> {
        RankIter {
            list: self,
            stack: Vec::new(),
            cur: self.root,
            weighted_only: false,
        }
    }

    /// In-order iteration over elements with weight `> 0`, skipping whole
    /// zero-weight subtrees — `O(k log n)` for `k` weighted elements rather
    /// than `O(n)`.
    pub fn iter_weighted(&self) -> RankIter<'_, T> {
        RankIter {
            list: self,
            stack: Vec::new(),
            cur: if self.wsum_of(self.root) > 0 {
                self.root
            } else {
                NIL
            },
            weighted_only: true,
        }
    }

    fn node_at(&self, pos: usize) -> u32 {
        debug_assert!(pos < self.len());
        let mut k = pos;
        let mut cur = self.root;
        loop {
            let n = &self.nodes[cur as usize];
            let ls = self.size_of(n.left) as usize;
            if k < ls {
                cur = n.left;
            } else if k == ls {
                return cur;
            } else {
                k -= ls + 1;
                cur = n.right;
            }
        }
    }

    fn size_of(&self, id: u32) -> u32 {
        if id == NIL {
            0
        } else {
            self.nodes[id as usize].size
        }
    }

    fn wsum_of(&self, id: u32) -> u32 {
        if id == NIL {
            0
        } else {
            self.nodes[id as usize].wsum
        }
    }

    fn pull(&mut self, x: u32) {
        let (l, r) = {
            let n = &self.nodes[x as usize];
            (n.left, n.right)
        };
        let size = 1 + self.size_of(l) + self.size_of(r);
        let wsum = self.nodes[x as usize].weight + self.wsum_of(l) + self.wsum_of(r);
        let n = &mut self.nodes[x as usize];
        n.size = size;
        n.wsum = wsum;
    }

    /// Rotates `x` above its parent, preserving in-order sequence and
    /// repairing size/weight aggregates locally.
    fn rotate_up(&mut self, x: u32) {
        let p = self.nodes[x as usize].parent;
        debug_assert!(p != NIL);
        let g = self.nodes[p as usize].parent;
        if self.nodes[p as usize].left == x {
            let b = self.nodes[x as usize].right;
            self.nodes[p as usize].left = b;
            if b != NIL {
                self.nodes[b as usize].parent = p;
            }
            self.nodes[x as usize].right = p;
        } else {
            let b = self.nodes[x as usize].left;
            self.nodes[p as usize].right = b;
            if b != NIL {
                self.nodes[b as usize].parent = p;
            }
            self.nodes[x as usize].left = p;
        }
        self.nodes[p as usize].parent = x;
        self.nodes[x as usize].parent = g;
        if g == NIL {
            self.root = x;
        } else if self.nodes[g as usize].left == p {
            self.nodes[g as usize].left = x;
        } else {
            self.nodes[g as usize].right = x;
        }
        self.pull(p);
        self.pull(x);
    }

    fn alloc(&mut self, value: T, weight: u32) -> u32 {
        // splitmix64: deterministic priorities so rebuilds and refreshes
        // are reproducible across runs and machines.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        // The high half: a node is 12 bytes lighter for it, and a
        // treap's balance does not need more than 32 random bits.
        let prio = ((z ^ (z >> 31)) >> 32) as u32;
        let node = Node {
            value,
            prio,
            left: NIL,
            right: NIL,
            parent: NIL,
            size: 1,
            weight,
            wsum: weight,
        };
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            // The arena of a resident plan is the size of its input and
            // lives as long as the plan: grow it by a quarter, not by
            // doubling, so it never idles at twice what it holds.
            if self.nodes.len() == self.nodes.capacity() {
                self.nodes.reserve_exact(self.nodes.len() / 4 + 16);
            }
            let id = self.nodes.len() as u32;
            self.nodes.push(node);
            id
        }
    }
}

/// In-order iterator over a [`RankList`]; see [`RankList::iter`] and
/// [`RankList::iter_weighted`].
pub struct RankIter<'a, T> {
    list: &'a RankList<T>,
    stack: Vec<u32>,
    cur: u32,
    weighted_only: bool,
}

impl<'a, T> Iterator for RankIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            while self.cur != NIL {
                let n = &self.list.nodes[self.cur as usize];
                if self.weighted_only && n.wsum == 0 {
                    self.cur = NIL;
                    break;
                }
                self.stack.push(self.cur);
                self.cur = n.left;
            }
            let x = self.stack.pop()?;
            let n = &self.list.nodes[x as usize];
            self.cur = n.right;
            if !self.weighted_only || n.weight > 0 {
                return Some(&n.value);
            }
        }
    }
}

/// Persistent first-occurrence tracking over an operator's input rows.
///
/// Stores the input sequence in a [`RankList`] — per row its group key and
/// a payload `T`, whatever the operator keeps of the row: the columns an
/// aggregate folds, one cast cell for a pivot — where an entry's weight
/// is `1` iff it is the *first* live occurrence of its key. Each key's
/// live occurrences form an indexed binary min-heap ordered by input
/// position, whose root is the key's first occurrence: inserting or
/// removing *other* rows never changes the relative order of a key's live
/// rows, so the heap stays valid between edits. A key is stored once and
/// shared by all its occurrences. This makes the aggregate/pivot order
/// queries sub-linear:
///
/// * a group's output rank is `weight_before(pos(first))` — `O(log n)`;
/// * the number of live groups is `total_weight()`;
/// * groups in output order are [`FirstSeenIndex::keys_in_order`] —
///   `O(groups · log n)`;
/// * a row insert or remove is `O(log k · log n)` for a key with `k`
///   occurrences, electing the next first occurrence included: it is the
///   heap's new root.
///
/// The index is equivalent, at every point, to recomputing first-seen
/// order from scratch over its current row sequence (the unit-test oracle
/// below, and the property suite in `tests/refresh_incremental.rs`
/// against rebuilds).
#[derive(Clone, Debug)]
pub struct FirstSeenIndex<T = Row> {
    rows: RankList<(Arc<[Value]>, T)>,
    /// Per key, its live occurrence nodes as a min-heap by input position.
    keys: HashMap<Arc<[Value]>, Vec<NodeId>>,
    /// Back-reference: node id → its index in its key's heap, for O(1)
    /// location on removal. Node ids are dense arena indices.
    slot: Vec<u32>,
}

/// Moves the node at `heap[at]`, which sits at position `me` in `rows`,
/// up or down until `heap` is a min-heap by position again, keeping
/// `slot` in step. `O(log k · log n)`: every comparison reads a position.
fn sift<T>(rows: &RankList<T>, heap: &mut [NodeId], slot: &mut [u32], mut at: usize, me: usize) {
    let mut swap = |heap: &mut [NodeId], a: usize, b: usize| {
        heap.swap(a, b);
        slot[heap[a] as usize] = a as u32;
        slot[heap[b] as usize] = b as u32;
    };
    while at > 0 && rows.pos_of(heap[(at - 1) / 2]) > me {
        swap(heap, at, (at - 1) / 2);
        at = (at - 1) / 2;
    }
    loop {
        let (l, r) = (2 * at + 1, 2 * at + 2);
        let Some(lp) = heap.get(l).map(|&n| rows.pos_of(n)) else {
            break;
        };
        let (child, pos) = match heap.get(r).map(|&n| rows.pos_of(n)) {
            Some(rp) if rp < lp => (r, rp),
            _ => (l, lp),
        };
        if pos > me {
            break;
        }
        swap(heap, at, child);
        at = child;
    }
}

impl<T> FirstSeenIndex<T> {
    /// Builds the index over `(group key, payload)` entries in input
    /// order. `O(n)` plus hashing.
    pub fn from_entries(entries: impl IntoIterator<Item = (Vec<Value>, T)>) -> Self {
        let mut keys: HashMap<Arc<[Value]>, Vec<NodeId>> = HashMap::new();
        // Two passes: intern the keys and flag first occurrences (so the
        // bulk build sees the weights), then fill the heaps once node ids
        // exist — in input order, so each is sorted and a heap already.
        let mut interned: HashSet<Arc<[Value]>> = HashSet::new();
        let weighted =
            entries
                .into_iter()
                .map(|(key, payload)| match interned.get(key.as_slice()) {
                    Some(shared) => ((Arc::clone(shared), payload), 0),
                    None => {
                        let shared: Arc<[Value]> = key.into();
                        interned.insert(Arc::clone(&shared));
                        ((shared, payload), 1)
                    }
                });
        let (list, ids) = RankList::from_entries(weighted);
        let mut slot = vec![0; ids.len()];
        for &id in &ids {
            let heap = keys.entry(Arc::clone(&list.value_of(id).0)).or_default();
            slot[id as usize] = heap.len() as u32;
            heap.push(id);
        }
        FirstSeenIndex {
            rows: list,
            keys,
            slot,
        }
    }

    /// Number of input rows currently indexed.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The group key and payload of the input row at `pos`. `O(log n)`.
    pub fn get(&self, pos: usize) -> (&[Value], &T) {
        let (key, payload) = self.rows.get(pos);
        (key, payload)
    }

    /// The output rank `key`'s group currently occupies (its first
    /// occurrence's rank among all first occurrences), or `None` if the
    /// key has no live occurrence. `O(log n)`.
    pub fn rank_of(&self, key: &[Value]) -> Option<usize> {
        let &first = self.keys.get(key)?.first()?;
        Some(self.rows.weight_before(self.rows.pos_of(first)) as usize)
    }

    /// Removes the row at `pos`, returning its key and payload. When it
    /// was its key's first occurrence, the heap's new root — the next
    /// occurrence — becomes first; when it was the last, the group dies.
    /// `O(log k · log n)`.
    pub fn remove(&mut self, pos: usize) -> (Arc<[Value]>, T)
    where
        T: Default,
    {
        let id = self.rows.id_at(pos);
        let ((key, payload), was_first) = self.rows.remove_at(pos);
        if let Some(heap) = self.keys.get_mut(&key) {
            // The heap's last node fills the hole and sifts; `id` has left
            // the list already, and no comparison reads it.
            let at = self.slot[id as usize] as usize;
            if let Some(last) = heap.pop().filter(|&last| last != id) {
                heap[at] = last;
                self.slot[last as usize] = at as u32;
                sift(&self.rows, heap, &mut self.slot, at, self.rows.pos_of(last));
            }
            match heap.first() {
                None => {
                    self.keys.remove(&key);
                }
                Some(&next) if was_first == 1 => self.rows.set_weight(next, 1),
                Some(_) => {}
            }
        }
        (key, payload)
    }

    /// Inserts a row with group key `key` at `pos`. It becomes its key's
    /// first occurrence when no live row of the key precedes it — a new
    /// group, or a promotion in front of the old first. `O(log k · log n)`.
    pub fn insert(&mut self, pos: usize, key: Vec<Value>, payload: T) {
        let shared: Arc<[Value]> = match self.keys.get_key_value(key.as_slice()) {
            Some((shared, _)) => Arc::clone(shared),
            None => key.into(),
        };
        let id = self.rows.insert_at(pos, (Arc::clone(&shared), payload), 0);
        let heap = self.keys.entry(shared).or_default();
        let old_first = heap.first().copied();
        if self.slot.len() <= id as usize {
            self.slot.resize(id as usize + 1, 0);
        }
        self.slot[id as usize] = heap.len() as u32;
        heap.push(id);
        let at = heap.len() - 1;
        sift(&self.rows, heap, &mut self.slot, at, pos);
        if heap[0] == id {
            if let Some(old) = old_first {
                self.rows.set_weight(old, 0);
            }
            self.rows.set_weight(id, 1);
        }
    }

    /// The payloads of `key`'s occurrences, in input order.
    /// `O(k log n + k log k)`.
    pub fn occurrences(&self, key: &[Value]) -> Vec<&T> {
        let Some(heap) = self.keys.get(key) else {
            return Vec::new();
        };
        let mut nodes: Vec<(usize, NodeId)> =
            heap.iter().map(|&n| (self.rows.pos_of(n), n)).collect();
        nodes.sort_unstable();
        nodes
            .into_iter()
            .map(|(_, n)| &self.rows.value_of(n).1)
            .collect()
    }

    /// The key of every live group, in group output order.
    /// `O(groups · log n)` — zero-weight subtrees are skipped.
    pub fn keys_in_order(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter_weighted().map(|(key, _)| &**key)
    }

    /// The key and payload of every input row, in input order. `O(n)`;
    /// used only by full-recompute fallbacks.
    pub fn entries_in_order(&self) -> impl Iterator<Item = (&[Value], &T)> {
        self.rows.iter().map(|(key, payload)| (&**key, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG so oracle tests reproduce without an external
    /// proptest dependency.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn ranklist_matches_vec_oracle() {
        let mut rng = Lcg(7);
        for round in 0..20 {
            let mut list: RankList<u64> = RankList::new();
            let mut oracle: Vec<(u64, u32)> = Vec::new();
            let mut ids: Vec<NodeId> = Vec::new();
            for step in 0..400 {
                let op = rng.next() % 4;
                if op < 2 || oracle.is_empty() {
                    let pos = (rng.next() as usize) % (oracle.len() + 1);
                    let v = rng.next();
                    let w = (rng.next() % 3) as u32;
                    let id = list.insert_at(pos, v, w);
                    oracle.insert(pos, (v, w));
                    ids.insert(pos, id);
                } else if op == 2 {
                    let pos = (rng.next() as usize) % oracle.len();
                    let (v, w) = list.remove_at(pos);
                    let (ov, ow) = oracle.remove(pos);
                    ids.remove(pos);
                    assert_eq!((v, w), (ov, ow), "round {round} step {step}");
                } else {
                    let pos = (rng.next() as usize) % oracle.len();
                    let w = (rng.next() % 3) as u32;
                    list.set_weight(ids[pos], w);
                    oracle[pos].1 = w;
                }
                assert_eq!(list.len(), oracle.len());
                let total: u32 = oracle.iter().map(|&(_, w)| w).sum();
                assert_eq!(list.total_weight(), total);
                let probe = (rng.next() as usize) % (oracle.len() + 1);
                let prefix: u32 = oracle[..probe].iter().map(|&(_, w)| w).sum();
                assert_eq!(
                    list.weight_before(probe),
                    prefix,
                    "round {round} step {step}"
                );
                if !oracle.is_empty() {
                    let p = (rng.next() as usize) % oracle.len();
                    assert_eq!(*list.get(p), oracle[p].0);
                    assert_eq!(list.pos_of(ids[p]), p);
                }
            }
            let collected: Vec<u64> = list.iter().copied().collect();
            let expected: Vec<u64> = oracle.iter().map(|&(v, _)| v).collect();
            assert_eq!(collected, expected);
            let weighted: Vec<u64> = list.iter_weighted().copied().collect();
            let expected_w: Vec<u64> = oracle
                .iter()
                .filter(|&&(_, w)| w > 0)
                .map(|&(v, _)| v)
                .collect();
            assert_eq!(weighted, expected_w);
        }
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let mut rng = Lcg(99);
        let entries: Vec<(u64, u32)> = (0..1000)
            .map(|_| (rng.next(), (rng.next() % 2) as u32))
            .collect();
        let (bulk, ids) = RankList::from_entries(entries.iter().copied());
        assert_eq!(bulk.len(), entries.len());
        assert_eq!(
            bulk.total_weight(),
            entries.iter().map(|&(_, w)| w).sum::<u32>()
        );
        for (pos, &id) in ids.iter().enumerate() {
            assert_eq!(bulk.pos_of(id), pos);
            assert_eq!(*bulk.value_of(id), entries[pos].0);
        }
        for probe in [0, 1, 17, 500, 999, 1000] {
            let prefix: u32 = entries[..probe].iter().map(|&(_, w)| w).sum();
            assert_eq!(bulk.weight_before(probe), prefix);
        }
        let collected: Vec<u64> = bulk.iter().copied().collect();
        let expected: Vec<u64> = entries.iter().map(|&(v, _)| v).collect();
        assert_eq!(collected, expected);
    }

    fn fs_oracle(rows: &[Row]) -> Vec<Vec<Value>> {
        let mut seen = Vec::new();
        for r in rows {
            let key = vec![r[0].clone()];
            if !seen.contains(&key) {
                seen.push(key);
            }
        }
        seen
    }

    /// A row enters the index keyed on its first column, whole.
    fn entry(row: &Row) -> (Vec<Value>, Row) {
        (vec![row[0].clone()], row.clone())
    }

    #[test]
    fn first_seen_index_matches_oracle() {
        let mut rng = Lcg(42);
        for round in 0..20 {
            let mut oracle: Vec<Row> = Vec::new();
            let mut idx: FirstSeenIndex = FirstSeenIndex::from_entries(Vec::new());
            for step in 0..300 {
                if !rng.next().is_multiple_of(3) || oracle.is_empty() {
                    let pos = (rng.next() as usize) % (oracle.len() + 1);
                    // Low-cardinality keys so deaths/revivals/promotions
                    // happen often.
                    let row = vec![
                        Value::Int((rng.next() % 4) as i64),
                        Value::Int(rng.next() as i64),
                    ];
                    let (key, payload) = entry(&row);
                    idx.insert(pos, key, payload);
                    oracle.insert(pos, row);
                } else {
                    let pos = (rng.next() as usize) % oracle.len();
                    let (key, row) = idx.remove(pos);
                    let expect = oracle.remove(pos);
                    assert_eq!((&*key, &row), (&expect[..1], &expect));
                }
                let expect_order = fs_oracle(&oracle);
                assert_eq!(
                    idx.rows.total_weight() as usize,
                    expect_order.len(),
                    "round {round} step {step}"
                );
                let got_order: Vec<Vec<Value>> =
                    idx.keys_in_order().map(<[Value]>::to_vec).collect();
                assert_eq!(got_order, expect_order, "round {round} step {step}");
                assert!(idx.entries_in_order().map(|(_, row)| row).eq(oracle.iter()));
                for (rank, key) in expect_order.iter().enumerate() {
                    assert_eq!(idx.rank_of(key), Some(rank));
                    let occs = idx.occurrences(key);
                    assert!(!occs.is_empty());
                    let oracle_occs: Vec<&Row> =
                        oracle.iter().filter(|r| r[..1] == key[..]).collect();
                    assert_eq!(occs, oracle_occs);
                }
            }
            // A bulk build over the same sequence is the same index.
            let bulk: FirstSeenIndex = FirstSeenIndex::from_entries(oracle.iter().map(entry));
            assert!(bulk.keys_in_order().eq(idx.keys_in_order()));
            assert!(bulk.entries_in_order().eq(idx.entries_in_order()));
        }
    }

    /// Where the index keeps `key`'s first occurrence: its heap's root.
    fn first_pos<T>(idx: &FirstSeenIndex<T>, key: &[Value]) -> Option<usize> {
        idx.keys.get(key).map(|heap| idx.rows.pos_of(heap[0]))
    }

    /// Every key's first occurrence, rank and occurrences against a
    /// from-scratch pass over the oracle's `(key, payload)` sequence.
    fn assert_matches(idx: &FirstSeenIndex<u64>, oracle: &[(i64, u64)], at: &str) {
        let mut order: Vec<i64> = Vec::new();
        for &(k, _) in oracle {
            if !order.contains(&k) {
                order.push(k);
            }
        }
        assert_eq!(idx.len(), oracle.len(), "{at}");
        assert_eq!(idx.rows.total_weight() as usize, order.len(), "{at}");
        for (rank, &k) in order.iter().enumerate() {
            let key = [Value::Int(k)];
            let first = oracle.iter().position(|&(o, _)| o == k);
            assert_eq!(first_pos(idx, &key), first, "{at}: first of {k}");
            assert_eq!(idx.rank_of(&key), Some(rank), "{at}: rank of {k}");
            let want: Vec<&u64> = oracle
                .iter()
                .filter(|(o, _)| *o == k)
                .map(|(_, p)| p)
                .collect();
            assert_eq!(idx.occurrences(&key), want, "{at}: occurrences of {k}");
        }
        assert_eq!(idx.rank_of(&[Value::Int(-1)]), None, "{at}");
    }

    /// The per-key heaps against a `Vec` oracle, on the shapes that make a
    /// scan for the next first occurrence expensive or a wrong election
    /// visible: the first occurrence of a 1 000-row group removed again
    /// and again, and a rare key whose two rows sit at opposite ends of
    /// the list, mixed with random inserts and removes.
    #[test]
    fn first_seen_heaps_match_a_vec_oracle() {
        let mut rng = Lcg(2024);
        // Key 0: 1 000 rows; keys 1..=5 sprinkled in between; key 9 at
        // both ends only.
        let mut oracle: Vec<(i64, u64)> = vec![(9, 0)];
        for i in 1..=1_200u64 {
            let k = if i % 6 == 0 {
                (i / 6 % 5 + 1) as i64
            } else {
                0
            };
            oracle.push((k, i));
        }
        oracle.push((9, 9_999));
        let entries = |o: &[(i64, u64)]| -> Vec<(Vec<Value>, u64)> {
            o.iter().map(|&(k, p)| (vec![Value::Int(k)], p)).collect()
        };
        let mut idx = FirstSeenIndex::from_entries(entries(&oracle));
        assert_matches(&idx, &oracle, "bulk build");
        let mut payload = 10_000u64;
        for step in 0..240 {
            let at = format!("step {step}");
            let pos = match step % 4 {
                // Retire a chosen key's first occurrence: the big group's,
                // the rare key's (its next row is at the far end), or a
                // random key's.
                0 | 1 if !oracle.is_empty() => {
                    let k = [0, 9, (rng.next() % 6) as i64][step % 3];
                    oracle.iter().position(|&(o, _)| o == k)
                }
                2 if !oracle.is_empty() => Some((rng.next() as usize) % oracle.len()),
                _ => None,
            };
            match pos {
                Some(pos) => {
                    let (key, got) = idx.remove(pos);
                    let (k, want) = oracle.remove(pos);
                    assert_eq!((&*key, got), (&[Value::Int(k)][..], want), "{at}");
                }
                None => {
                    // Insert a row of a low-cardinality key — sometimes in
                    // front of its key's first, sometimes the rare key at
                    // either end, sometimes a dead key come back.
                    let k = (rng.next() % 11) as i64;
                    let pos = match rng.next() % 3 {
                        0 => 0,
                        1 => oracle.len(),
                        _ => (rng.next() as usize) % (oracle.len() + 1),
                    };
                    payload += 1;
                    idx.insert(pos, vec![Value::Int(k)], payload);
                    oracle.insert(pos, (k, payload));
                }
            }
            assert_matches(&idx, &oracle, &at);
        }
        // The same sequence built in bulk is the same index.
        let bulk = FirstSeenIndex::from_entries(entries(&oracle));
        assert!(bulk.keys_in_order().eq(idx.keys_in_order()));
        assert!(bulk.entries_in_order().eq(idx.entries_in_order()));
    }

    #[test]
    fn first_seen_death_then_revival_moves_group_to_end() {
        let rows = [
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Int(1), Value::Int(30)],
        ];
        let mut idx: FirstSeenIndex = FirstSeenIndex::from_entries(rows.iter().map(entry));
        assert_eq!(idx.rank_of(&[Value::Int(1)]), Some(0));
        // Kill group 1 entirely…
        idx.remove(2);
        assert_eq!(idx.rank_of(&[Value::Int(1)]), Some(0));
        idx.remove(0);
        assert_eq!(idx.rank_of(&[Value::Int(1)]), None);
        // …then revive it with an appended row: it must now rank AFTER
        // group 2, matching a from-scratch first-seen pass.
        let (key, payload) = entry(&vec![Value::Int(1), Value::Int(40)]);
        idx.insert(1, key, payload);
        assert_eq!(idx.rank_of(&[Value::Int(2)]), Some(0));
        assert_eq!(idx.rank_of(&[Value::Int(1)]), Some(1));
    }
}
