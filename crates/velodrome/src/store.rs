//! Velodrome's and AeroDrome's transaction store: the shared per-thread
//! [`Windows`] plus what both checkers' graphs need identically.
//!
//! A [`VTxId`] packs its thread and per-thread sequence number the way
//! [`dc_runtime::window::pack`] does, so a lookup is a window index, never
//! a hash. On top of the windows the store keeps the edge bookkeeping for
//! blame (each node's first in/out edge order), the cycle search that
//! reconstructs a violation, the blame rule, and the collector with its
//! adaptive [`CollectPacer`]. Intra-thread edges are explicit out-edges
//! here (AeroDrome propagates clocks along them), so the collector marks
//! with the windows' epoch stamps and sweeps every slot.

use crate::graph::{VTxId, VViolation};
use dc_runtime::ids::MethodId;
use dc_runtime::pacer::CollectPacer;
use dc_runtime::spec::TxKind;
use dc_runtime::window::{Recycle, Windows};
use std::fmt;

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
    parent: VTxId,
}

impl<X> TxNode<X> {
    /// Out-edges (intra-thread and cross) in insertion order.
    pub fn out(&self) -> &[VTxId] {
        &self.out
    }
}

impl<X: Default> Default for TxNode<X> {
    fn default() -> Self {
        TxNode {
            kind: TxKind::Unary,
            extra: X::default(),
            out: Vec::new(),
            first_out: None,
            first_in: None,
            parent: VTxId::NONE,
        }
    }
}

impl<X: Default> Recycle for TxNode<X> {
    /// Drops edges and blame orders; the payload stays for the next
    /// occupant to overwrite (AeroDrome reuses the clock slice).
    fn recycle(&mut self) {
        self.out.clear();
        self.first_out = None;
        self.first_in = None;
        self.parent = VTxId::NONE;
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

/// Per-thread windows of transaction nodes with blame bookkeeping, cycle
/// search and a paced collector (see the module docs).
pub struct TxStore<X> {
    windows: Windows<TxNode<X>>,
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
            .field("windows", &self.windows)
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
            windows: Windows::new(),
            stack: Vec::new(),
            next_order: 0,
            pacer: CollectPacer::new(every),
            collect_passes: 0,
            collect_scanned: 0,
        }
    }

    /// Live transaction count.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True if no transaction is live.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The live node `id`, if any.
    #[inline]
    pub fn get(&self, id: VTxId) -> Option<&TxNode<X>> {
        self.windows.get(id.0)
    }

    /// The live node `id`, mutably.
    #[inline]
    pub fn get_mut(&mut self, id: VTxId) -> Option<&mut TxNode<X>> {
        self.windows.get_mut(id.0)
    }

    /// True if `id` is live.
    pub fn contains(&self, id: VTxId) -> bool {
        self.windows.contains(id.0)
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
        self.windows.push(id.0).kind = kind;
        self.pacer.tick();
        if let Some(p) = self.get_mut(prev) {
            p.out.push(id);
        }
        self.get_mut(id).expect("just pushed")
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

    /// Path `dst … src` closing the cycle through edge `src → dst`, found by
    /// depth-first search from `dst` over live out-edges in insertion order.
    pub fn find_cycle(&mut self, src: VTxId, dst: VTxId) -> Option<Vec<VTxId>> {
        let epoch = self.windows.next_epoch();
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        if self.windows.visit(dst.0, epoch).is_some() {
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
                if let Some(n) = self.windows.visit(w.0, epoch) {
                    n.parent = v;
                    stack.push(w);
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
        let epoch = self.windows.next_epoch();
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        for t in 0..self.windows.threads() {
            if let Some(newest) = self.windows.newest(t) {
                self.mark(VTxId(newest), epoch, &mut stack);
            }
        }
        self.mark_and_sweep(stack, epoch)
    }

    /// [`TxStore::collect`] from hand-picked roots, which can leave holes.
    #[cfg(test)]
    fn collect_from(&mut self, roots: impl IntoIterator<Item = VTxId>) -> usize {
        let epoch = self.windows.next_epoch();
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
        if self.windows.visit(id.0, epoch).is_some() {
            stack.push(id);
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
        let (collected, scanned) = self.windows.sweep_unstamped(epoch);
        self.pacer.after_collect(self.windows.len());
        self.collect_passes += 1;
        self.collect_scanned += scanned as u64;
        collected
    }

    #[cfg(test)]
    fn window_len(&self, t: usize) -> usize {
        self.windows.span(t).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::ids::ThreadId;

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
