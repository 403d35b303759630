//! Dense, hash-free transaction storage shared by Velodrome's dependence
//! graph ([`crate::VGraph`]) and AeroDrome's clock graph.
//!
//! A [`VTxId`] already packs its thread and per-thread sequence number, and
//! each thread's transactions begin in sequence order. So the store keeps
//! one *window* per thread: a ring buffer of nodes plus the sequence number
//! of its first slot. A lookup is two index computations, never a hash.
//!
//! The collector keeps exactly the forward closure of its roots. Every
//! transaction has an edge to its thread's next one, so whatever survives a
//! pass is a suffix of each thread's window (up to the thread's newest
//! transaction, which is always a root). The sweep turns unmarked nodes
//! into dead slots and pops each window's dead prefix; a dead slot between
//! live ones (only possible with hand-picked roots, or when a caller skips
//! sequence numbers) stays as a hole until the prefix before it dies. Popped
//! nodes go to a spare pool with their edge vectors and payloads, so a warm
//! begin, edge, cycle search or collector pass allocates nothing.
//!
//! Marking and cycle search share one epoch-stamped visit mark per node and
//! one retained stack: a node is visited when its stamp equals the current
//! epoch, so starting a traversal is one counter bump. When the counter
//! wraps, every stamp is cleared once.
//!
//! Besides storage, the store owns what both graphs need identically: the
//! edge bookkeeping for blame (each node's first in/out edge order), the
//! cycle search that reconstructs a violation, the blame rule, and the
//! collector with its adaptive [`CollectPacer`].

use crate::graph::{VTxId, VViolation};
use dc_runtime::ids::{MethodId, ThreadId};
use dc_runtime::pacer::CollectPacer;
use dc_runtime::spec::TxKind;
use std::collections::VecDeque;
use std::fmt;

fn seq_of(id: VTxId) -> u64 {
    id.0 >> 16
}

/// One transaction in a [`TxStore`]: the graph fields both checkers share
/// plus a checker-specific payload.
#[derive(Debug)]
pub struct TxNode<X> {
    /// Regular (with its method) or unary.
    pub kind: TxKind,
    /// Checker-specific payload (AeroDrome's vector clock).
    pub extra: X,
    /// Out-edges in insertion order (the cycle search visits them in this
    /// order, which fixes the reported cycle and hence blame).
    out: Vec<VTxId>,
    /// Orders of this node's earliest outgoing/incoming cross edges.
    first_out: Option<u32>,
    first_in: Option<u32>,
    live: bool,
    stamp: u32,
    parent: VTxId,
}

impl<X> TxNode<X> {
    /// Out-edges (intra-thread and cross) in insertion order.
    pub fn out(&self) -> &[VTxId] {
        &self.out
    }
}

impl<X: Default> TxNode<X> {
    fn dead() -> Self {
        TxNode {
            kind: TxKind::Unary,
            out: Vec::new(),
            first_out: None,
            first_in: None,
            extra: X::default(),
            live: false,
            stamp: 0,
            parent: VTxId::NONE,
        }
    }
}

/// What [`TxStore::link`] did with an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Link {
    /// A new cross edge was recorded.
    Added,
    /// The edge already existed; nothing new can follow from it.
    Duplicate,
    /// Self edge, a missing endpoint, or a collected source: no edge was
    /// recorded (a collected source can never be part of a future cycle).
    Ignored,
}

/// One thread's transactions: `nodes[i]` holds sequence number `base + i`.
#[derive(Debug)]
struct Window<X> {
    base: u64,
    nodes: VecDeque<TxNode<X>>,
}

/// Per-thread windows of transaction nodes (see the module docs).
pub struct TxStore<X> {
    windows: Vec<Window<X>>,
    /// Nodes popped by the sweep, reused by [`TxStore::begin`] with their
    /// edge-vector capacity and payload.
    spare: Vec<TxNode<X>>,
    live: usize,
    epoch: u32,
    /// Mark and search stack, retained across calls.
    stack: Vec<VTxId>,
    next_order: u32,
    pacer: CollectPacer,
    collect_passes: u64,
    collect_scanned: u64,
}

impl<X> fmt::Debug for TxStore<X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxStore")
            .field("live", &self.live)
            .field("threads", &self.windows.len())
            .finish()
    }
}

impl<X: Default> Default for TxStore<X> {
    fn default() -> Self {
        TxStore::new(0)
    }
}

impl<X: Default> TxStore<X> {
    /// An empty store whose pacer makes [`TxStore::collect_due`] true after
    /// `max(every, survivors / 2)` begins (0 disables pacing).
    pub fn new(every: u32) -> Self {
        TxStore {
            windows: Vec::new(),
            spare: Vec::new(),
            live: 0,
            epoch: 0,
            stack: Vec::new(),
            next_order: 0,
            pacer: CollectPacer::new(every),
            collect_passes: 0,
            collect_scanned: 0,
        }
    }

    /// Live transaction count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no transaction is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Window position of `id` if it names a slot (live or dead).
    #[inline]
    fn locate(&self, id: VTxId) -> Option<(usize, usize)> {
        if !id.is_some() {
            return None;
        }
        let t = id.thread().index();
        let w = self.windows.get(t)?;
        let off = seq_of(id).checked_sub(w.base)?;
        let off = usize::try_from(off).ok()?;
        (off < w.nodes.len()).then_some((t, off))
    }

    /// The live node `id`, if any.
    #[inline]
    pub fn get(&self, id: VTxId) -> Option<&TxNode<X>> {
        let (t, off) = self.locate(id)?;
        let n = &self.windows[t].nodes[off];
        n.live.then_some(n)
    }

    /// The live node `id`, mutably.
    #[inline]
    pub fn get_mut(&mut self, id: VTxId) -> Option<&mut TxNode<X>> {
        let (t, off) = self.locate(id)?;
        let n = &mut self.windows[t].nodes[off];
        n.live.then_some(n)
    }

    /// True if `id` is live.
    pub fn contains(&self, id: VTxId) -> bool {
        self.get(id).is_some()
    }

    fn fresh_node(&mut self) -> TxNode<X> {
        let mut n = self.spare.pop().unwrap_or_else(TxNode::dead);
        n.out.clear();
        n.first_out = None;
        n.first_in = None;
        n.live = false;
        n.stamp = 0;
        n.parent = VTxId::NONE;
        n
    }

    /// Registers transaction `id`, adds the intra-thread edge from the
    /// thread's previous transaction `prev` (if still live) and counts one
    /// event toward the pacer. Returns the new node so the caller can fill
    /// its payload (a reused node keeps its old payload).
    ///
    /// Sequence numbers must grow per thread; skipped numbers become dead
    /// holes.
    ///
    /// # Panics
    ///
    /// If `id` is [`VTxId::NONE`] or not newer than its thread's newest
    /// transaction.
    pub fn begin(&mut self, id: VTxId, kind: TxKind, prev: VTxId) -> &mut TxNode<X> {
        assert!(id.is_some(), "VTxId::NONE names no transaction");
        let t = id.thread().index();
        let seq = seq_of(id);
        if self.windows.len() <= t {
            self.windows.resize_with(t + 1, || Window {
                base: 0,
                nodes: VecDeque::new(),
            });
        }
        if self.windows[t].nodes.is_empty() {
            self.windows[t].base = seq;
        }
        let w = &self.windows[t];
        let next = w.base + w.nodes.len() as u64;
        assert!(seq >= next, "{id:?} is not newer than its thread's newest");
        for _ in next..seq {
            let hole = self.fresh_node();
            self.windows[t].nodes.push_back(hole);
        }
        let mut node = self.fresh_node();
        node.kind = kind;
        node.live = true;
        self.windows[t].nodes.push_back(node);
        self.live += 1;
        self.pacer.tick();
        if let Some(p) = self.get_mut(prev) {
            p.out.push(id);
        }
        self.windows[t].nodes.back_mut().expect("just pushed")
    }

    /// Records the cross edge `src → dst` for blame and cycle search.
    ///
    /// Every edge between two distinct transactions takes the next edge
    /// order, and a live `dst` remembers its first in-edge even when `src`
    /// was already collected. That keeps blame identical whatever the
    /// collector's pacing: with collection off, the same edge would have
    /// taken that order and set that `first_in`.
    pub fn link(&mut self, src: VTxId, dst: VTxId) -> Link {
        if src == dst || !src.is_some() || !self.contains(dst) {
            return Link::Ignored;
        }
        let order = self.next_order;
        self.next_order += 1;
        let Some(s) = self.get_mut(src) else {
            self.get_mut(dst)
                .expect("dst is live")
                .first_in
                .get_or_insert(order);
            return Link::Ignored;
        };
        if s.out.contains(&dst) {
            return Link::Duplicate;
        }
        s.out.push(dst);
        s.first_out.get_or_insert(order);
        self.get_mut(dst)
            .expect("dst is live")
            .first_in
            .get_or_insert(order);
        Link::Added
    }

    /// Starts a traversal: a fresh epoch, so no node counts as visited.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for n in self.windows.iter_mut().flat_map(|w| w.nodes.iter_mut()) {
                n.stamp = 0;
            }
            self.epoch = 1;
        }
        self.epoch
    }

    /// Path `dst … src` closing the cycle through edge `src → dst`, found by
    /// depth-first search from `dst` over live out-edges in insertion order.
    pub fn find_cycle(&mut self, src: VTxId, dst: VTxId) -> Option<Vec<VTxId>> {
        let epoch = self.next_epoch();
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        if let Some(d) = self.get_mut(dst) {
            d.stamp = epoch;
            stack.push(dst);
        }
        let mut found = false;
        while let Some(v) = stack.pop() {
            if v == src {
                found = true;
                break;
            }
            let out = std::mem::take(&mut self.get_mut(v).expect("pushed live").out);
            for &w in &out {
                if let Some(n) = self.get_mut(w) {
                    if n.stamp != epoch {
                        n.stamp = epoch;
                        n.parent = v;
                        stack.push(w);
                    }
                }
            }
            self.get_mut(v).expect("pushed live").out = out;
        }
        self.stack = stack;
        if !found {
            return None;
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.get(cur).expect("on the search tree").parent;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// The violation for a cycle: its members with their kinds, and blame.
    /// A member is blamed when its first outgoing edge precedes its first
    /// incoming edge; if none is, every member's method is.
    pub fn report(&self, cycle: &[VTxId]) -> VViolation {
        let members: Vec<(VTxId, TxKind)> = cycle
            .iter()
            .map(|&tx| (tx, self.get(tx).expect("cycle member is live").kind))
            .collect();
        let mut blamed: Vec<MethodId> = cycle
            .iter()
            .filter_map(|&tx| {
                let n = self.get(tx).expect("cycle member is live");
                matches!((n.first_out, n.first_in), (Some(o), Some(i)) if o < i)
                    .then(|| n.kind.method())
                    .flatten()
            })
            .collect();
        if blamed.is_empty() {
            blamed = members.iter().filter_map(|(_, k)| k.method()).collect();
        }
        blamed.sort();
        blamed.dedup();
        VViolation {
            cycle: members,
            blamed_methods: blamed,
        }
    }

    /// True when enough transactions began since the last pass for another
    /// to pay for itself.
    pub fn collect_due(&self) -> bool {
        self.pacer.due()
    }

    /// Collector passes run so far.
    pub fn collect_passes(&self) -> u64 {
        self.collect_passes
    }

    /// Window slots the collector's sweeps examined so far (live, dead and
    /// holes): its total work.
    pub fn collect_scanned(&self) -> u64 {
        self.collect_scanned
    }

    /// Reclaims transactions unreachable via out-edges from every thread's
    /// newest transaction. Edges only ever end at a thread's current
    /// transaction, which is its newest, so these are exactly the checkers'
    /// roots — and reading them from the store (not from registers
    /// published after the begin) leaves no window in which a just-begun
    /// transaction is missed. Returns the number collected.
    pub fn collect(&mut self) -> usize {
        let epoch = self.next_epoch();
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        for t in 0..self.windows.len() {
            let w = &self.windows[t];
            if !w.nodes.is_empty() {
                let seq = w.base + w.nodes.len() as u64 - 1;
                self.mark(VTxId::new(ThreadId(t as u16), seq), epoch, &mut stack);
            }
        }
        self.mark_and_sweep(stack, epoch)
    }

    /// [`TxStore::collect`] from hand-picked roots, which can leave holes.
    #[cfg(test)]
    fn collect_from(&mut self, roots: impl IntoIterator<Item = VTxId>) -> usize {
        let epoch = self.next_epoch();
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        for r in roots {
            self.mark(r, epoch, &mut stack);
        }
        self.mark_and_sweep(stack, epoch)
    }

    /// Stamps `id` with `epoch` and queues it, unless it is not live or
    /// already stamped.
    fn mark(&mut self, id: VTxId, epoch: u32, stack: &mut Vec<VTxId>) {
        if let Some(n) = self.get_mut(id) {
            if n.stamp != epoch {
                n.stamp = epoch;
                stack.push(id);
            }
        }
    }

    fn mark_and_sweep(&mut self, mut stack: Vec<VTxId>, epoch: u32) -> usize {
        while let Some(v) = stack.pop() {
            let out = std::mem::take(&mut self.get_mut(v).expect("marked live").out);
            for &w in &out {
                self.mark(w, epoch, &mut stack);
            }
            self.get_mut(v).expect("marked live").out = out;
        }
        self.stack = stack;
        let mut collected = 0;
        let mut scanned = 0;
        for w in &mut self.windows {
            scanned += w.nodes.len();
            for n in w.nodes.iter_mut() {
                if n.live && n.stamp != epoch {
                    n.live = false;
                    n.out.clear();
                    collected += 1;
                }
            }
            while w.nodes.front().is_some_and(|n| !n.live) {
                self.spare.push(w.nodes.pop_front().expect("front exists"));
                w.base += 1;
            }
        }
        self.live -= collected;
        self.pacer.after_collect(self.live);
        self.collect_passes += 1;
        self.collect_scanned += scanned as u64;
        collected
    }

    #[cfg(test)]
    fn window_len(&self, t: usize) -> usize {
        self.windows.get(t).map_or(0, |w| w.nodes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn id(t: ThreadId, seq: u64) -> VTxId {
        VTxId::new(t, seq)
    }

    /// A chain `seq 1..=n` on thread `t`, each linked to its predecessor.
    fn chain(s: &mut TxStore<u32>, t: ThreadId, n: u64) {
        for seq in 1..=n {
            let prev = if seq > 1 { id(t, seq - 1) } else { VTxId::NONE };
            s.begin(id(t, seq), TxKind::Unary, prev);
        }
    }

    #[test]
    fn skipped_sequence_numbers_are_holes() {
        let mut s: TxStore<u32> = TxStore::new(0);
        s.begin(id(T0, 3), TxKind::Unary, VTxId::NONE);
        s.begin(id(T0, 6), TxKind::Unary, id(T0, 3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.window_len(0), 4, "seqs 3..=6 with 4 and 5 as holes");
        for seq in [1, 2, 4, 5, 7] {
            assert!(!s.contains(id(T0, seq)), "seq {seq} is not live");
        }
        assert_eq!(s.get(id(T0, 3)).unwrap().out, vec![id(T0, 6)]);
        assert!(!s.contains(id(T1, 3)), "other threads have no window");
        assert!(!s.contains(VTxId::NONE));
        // Edges naming holes are ignored.
        assert_eq!(s.link(id(T0, 4), id(T0, 6)), Link::Ignored);
    }

    #[test]
    fn sweep_pops_the_dead_prefix_and_leaves_inner_holes() {
        let mut s: TxStore<u32> = TxStore::new(0);
        chain(&mut s, T0, 5);
        // Root seq 2 only: 1 dies, 2..=5 survive through intra edges.
        assert_eq!(s.collect_from([id(T0, 2)]), 1);
        assert_eq!(s.window_len(0), 4, "seq 1 popped");
        // Cut the chain: 4's out-edge dropped by hand leaves 5 unreachable
        // from 3 — rooting 3 and 5 keeps both but kills nothing between.
        s.get_mut(id(T0, 4)).unwrap().out.clear();
        assert_eq!(s.collect_from([id(T0, 5)]), 3, "2, 3 and 4 die");
        assert_eq!(s.window_len(0), 1, "whole dead prefix popped");
        // An inner hole: live 6, dead 7, live 8 — the hole stays.
        s.begin(id(T0, 6), TxKind::Unary, id(T0, 5));
        s.begin(id(T0, 7), TxKind::Unary, id(T0, 6));
        s.begin(id(T0, 8), TxKind::Unary, VTxId::NONE);
        s.get_mut(id(T0, 6)).unwrap().out.clear();
        assert_eq!(s.collect_from([id(T0, 5), id(T0, 8)]), 1, "only 7 dies");
        assert_eq!(s.window_len(0), 4, "5..=8 with 7 a hole");
        assert!(!s.contains(id(T0, 7)));
        assert!(s.contains(id(T0, 8)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn collected_ids_look_up_as_absent() {
        let mut s: TxStore<u32> = TxStore::new(0);
        chain(&mut s, T0, 3);
        chain(&mut s, T1, 1);
        assert_eq!(s.link(id(T0, 1), id(T1, 1)), Link::Added);
        assert_eq!(s.collect(), 2, "T0's 1 and 2");
        assert!(s.get(id(T0, 1)).is_none());
        assert!(s.get_mut(id(T0, 2)).is_none());
        assert!(s.contains(id(T0, 3)) && s.contains(id(T1, 1)));
        // A collected source still stamps the destination's first in-edge
        // (blame must not depend on when collection ran), and takes an
        // order, so the next live edge's order matches a no-collection run.
        assert_eq!(s.link(id(T0, 1), id(T1, 1)), Link::Ignored);
        assert_eq!(s.get(id(T1, 1)).unwrap().first_in, Some(0));
        assert_eq!(s.link(id(T1, 1), id(T0, 3)), Link::Added);
        assert_eq!(s.get(id(T0, 3)).unwrap().first_in, Some(2));
        // Edges into a collected id are ignored and take no order.
        assert_eq!(s.link(id(T0, 3), id(T0, 2)), Link::Ignored);
        assert_eq!(s.link(id(T0, 3), id(T1, 1)), Link::Added);
        assert_eq!(s.get(id(T0, 3)).unwrap().first_out, Some(3));
    }

    #[test]
    fn popped_nodes_are_reused_clean() {
        let mut s: TxStore<u32> = TxStore::new(0);
        chain(&mut s, T0, 2);
        s.begin(id(T1, 1), TxKind::Unary, VTxId::NONE).extra = 7;
        assert_eq!(s.link(id(T0, 1), id(T1, 1)), Link::Added);
        assert_eq!(s.collect_from([id(T0, 2)]), 2, "T0's 1 and T1's 1");
        assert_eq!(s.window_len(1), 0);
        // The next begin reuses a popped node: edges, blame orders and
        // liveness reset, the payload is the caller's to overwrite.
        let n = s.begin(id(T1, 2), TxKind::Regular(MethodId(4)), VTxId::NONE);
        assert!(n.out.is_empty());
        assert_eq!((n.first_out, n.first_in), (None, None));
        assert_eq!(n.kind, TxKind::Regular(MethodId(4)));
        assert!(s.contains(id(T1, 2)));
        assert!(!s.contains(id(T1, 1)), "base moved past the popped prefix");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn mark_survives_epoch_wrap() {
        let mut s: TxStore<u32> = TxStore::new(0);
        chain(&mut s, T0, 3);
        // The first pass stamps the whole chain with epoch 1.
        assert_eq!(s.collect_from([id(T0, 1)]), 0);
        assert_eq!(s.epoch, 1);
        // Run the counter to the wrap: the next epoch is 1 again, so the
        // wrap must clear the stale stamps or the old chain reads marked.
        s.epoch = u32::MAX;
        s.begin(id(T0, 4), TxKind::Unary, VTxId::NONE);
        assert_eq!(s.collect_from([id(T0, 4)]), 3, "the old chain is unmarked");
        assert_eq!(s.epoch, 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn search_survives_epoch_wrap() {
        let mut s: TxStore<u32> = TxStore::new(0);
        chain(&mut s, T0, 2);
        chain(&mut s, T1, 1);
        s.begin(id(ThreadId(2), 1), TxKind::Unary, VTxId::NONE);
        assert_eq!(s.link(id(T1, 1), id(T0, 1)), Link::Added);
        // A failed search at epoch 1 stamps T1's 1 and T0's 1 and 2.
        assert_eq!(s.find_cycle(id(ThreadId(2), 1), id(T1, 1)), None);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.link(id(T0, 2), id(T1, 1)), Link::Added);
        // The epoch wraps back to 1: stale stamps must not hide the path.
        s.epoch = u32::MAX;
        let cycle = s.find_cycle(id(T0, 2), id(T1, 1)).expect("cycle");
        assert_eq!(s.epoch, 1);
        assert_eq!(cycle, vec![id(T1, 1), id(T0, 1), id(T0, 2)]);
    }

    #[test]
    fn search_follows_out_edges_in_insertion_order() {
        // dst reaches src two ways; the later-pushed branch is popped first
        // (depth-first, last out-edge first), fixing the reported path.
        let mut s: TxStore<u32> = TxStore::new(0);
        let (d, a, b, src) = (id(T0, 1), id(T1, 1), id(ThreadId(2), 1), id(ThreadId(3), 1));
        for &x in &[d, a, b, src] {
            s.begin(x, TxKind::Unary, VTxId::NONE);
        }
        for (x, y) in [(d, a), (d, b), (a, src), (b, src)] {
            assert_eq!(s.link(x, y), Link::Added);
        }
        assert_eq!(s.find_cycle(src, d), Some(vec![d, b, src]));
    }

    #[test]
    fn pacer_counts_begins_and_passes_count_their_scan() {
        let mut s: TxStore<u32> = TxStore::new(4);
        chain(&mut s, T0, 3);
        assert!(!s.collect_due());
        s.begin(id(T0, 4), TxKind::Unary, id(T0, 3));
        assert!(s.collect_due());
        assert_eq!(s.collect(), 3);
        assert!(!s.collect_due());
        assert_eq!((s.collect_passes, s.collect_scanned), (1, 4));
    }

    #[test]
    #[should_panic(expected = "not newer")]
    fn begin_rejects_a_reused_sequence_number() {
        let mut s: TxStore<u32> = TxStore::new(0);
        chain(&mut s, T0, 2);
        s.begin(id(T0, 2), TxKind::Unary, VTxId::NONE);
    }
}
