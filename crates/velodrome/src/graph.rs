//! Velodrome's transaction dependence graph with online cycle detection.
//!
//! Velodrome builds a graph of transactions at run time: intra-thread edges
//! between consecutive transactions of a thread and cross-thread edges for
//! each detected dependence. A cycle is a sound and precise
//! conflict-serializability violation (paper §2), reported with blame
//! assignment. Transactions unreachable from any thread's current
//! transaction are reclaimed (the paper treats metadata references as weak
//! references). Nodes live in the hash-free per-thread [`TxStore`].

use crate::store::{Link, TxStore};
use dc_runtime::ids::{MethodId, ThreadId};
use dc_runtime::spec::TxKind;
use dc_runtime::window;
use std::fmt;

/// A Velodrome transaction id: per-thread sequence number packed with the
/// thread id ([`dc_runtime::window::pack`]), so the owning thread is
/// recoverable without a lookup.
/// `VTxId(0)` means "none".
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VTxId(pub u64);

impl VTxId {
    /// The reserved "no transaction" value.
    pub const NONE: VTxId = VTxId(0);

    /// Packs a (thread, sequence) pair; `seq` must be ≥ 1.
    pub fn new(thread: ThreadId, seq: u64) -> Self {
        VTxId(window::pack(thread, seq))
    }

    /// True unless this is [`VTxId::NONE`].
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// The owning thread.
    #[inline]
    pub fn thread(self) -> ThreadId {
        window::thread_of(self.0)
    }
}

impl fmt::Debug for VTxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VTx{}@{}", window::seq_of(self.0), self.thread().0)
    }
}

/// A violation found by Velodrome: the cycle members and the blamed
/// methods (for iterative refinement).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VViolation {
    /// Cycle members with their kinds.
    pub cycle: Vec<(VTxId, TxKind)>,
    /// Blamed methods.
    pub blamed_methods: Vec<MethodId>,
}

impl VViolation {
    /// Static identity for cross-trial deduplication.
    pub fn static_key(&self) -> Vec<Option<MethodId>> {
        let mut key: Vec<Option<MethodId>> = self.cycle.iter().map(|(_, k)| k.method()).collect();
        key.sort();
        key
    }
}

/// The dependence graph: transactions in a per-thread [`TxStore`] plus
/// Velodrome's counters.
#[derive(Default)]
pub struct VGraph {
    store: TxStore<()>,
    /// Cross-thread dependence edges added.
    pub cross_edges: u64,
    /// Cycles detected.
    pub cycles: u64,
}

impl fmt::Debug for VGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VGraph")
            .field("nodes", &self.store.len())
            .finish()
    }
}

impl VGraph {
    /// Creates an empty graph (collection pacing disabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph whose collector is due after
    /// `max(every, survivors / 2)` transaction begins (0 disables it).
    pub fn paced(every: u32) -> Self {
        VGraph {
            store: TxStore::new(every),
            ..VGraph::default()
        }
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Registers a new transaction, adding the intra-thread edge from the
    /// thread's previous transaction.
    pub fn begin(&mut self, id: VTxId, kind: TxKind, prev: VTxId) {
        self.store.begin(id, kind, prev);
    }

    /// Adds a cross-thread dependence edge and checks for a cycle through
    /// it. Returns the violation if one is found. Edges to/from collected
    /// transactions are ignored (they cannot be in a future cycle).
    pub fn add_cross_edge(
        &mut self,
        src: VTxId,
        dst: VTxId,
        detect_cycles: bool,
    ) -> Option<VViolation> {
        if self.store.link(src, dst) != Link::Added {
            return None; // duplicate edges cannot close a new cycle
        }
        self.cross_edges += 1;
        if !detect_cycles {
            return None;
        }
        let cycle = self.store.find_cycle(src, dst)?;
        self.cycles += 1;
        Some(self.store.report(&cycle))
    }

    /// True when enough transactions began since the last collection for
    /// another pass to pay for itself.
    pub fn collect_due(&self) -> bool {
        self.store.collect_due()
    }

    /// Reclaims transactions unreachable via outgoing edges from every
    /// thread's newest (current) transaction. Returns the number collected.
    pub fn collect(&mut self) -> usize {
        self.store.collect()
    }

    /// Collector passes run so far.
    pub fn collect_passes(&self) -> u64 {
        self.store.collect_passes()
    }

    /// Window slots the collector's passes scanned so far.
    pub fn collect_scanned(&self) -> u64 {
        self.store.collect_scanned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn reg(m: u32) -> TxKind {
        TxKind::Regular(MethodId(m))
    }

    #[test]
    fn vtxid_packs_thread_and_seq() {
        let id = VTxId::new(ThreadId(3), 9);
        assert_eq!(id.thread(), ThreadId(3));
        assert!(id.is_some());
        assert!(!VTxId::NONE.is_some());
        assert_eq!(format!("{id:?}"), "VTx9@3");
    }

    #[test]
    fn two_transaction_cycle_is_reported_with_blame() {
        let mut g = VGraph::new();
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        assert!(g.add_cross_edge(a, b, true).is_none());
        let v = g.add_cross_edge(b, a, true).expect("cycle");
        assert_eq!(v.cycle.len(), 2);
        // a's out-edge (order 0) precedes its in-edge (order 1): a blamed.
        assert_eq!(v.blamed_methods, vec![MethodId(0)]);
        assert_eq!(g.cycles, 1);
        assert_eq!(g.cross_edges, 2);
    }

    #[test]
    fn duplicate_edges_do_not_re_report() {
        let mut g = VGraph::new();
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        g.add_cross_edge(a, b, true);
        g.add_cross_edge(b, a, true);
        assert!(g.add_cross_edge(b, a, true).is_none(), "duplicate");
        assert_eq!(g.cross_edges, 2);
    }

    #[test]
    fn cycle_through_intra_thread_edges() {
        // a1 →intra a2 on T0; cross a2→b, cross b→a1: cycle a1,a2,b.
        let mut g = VGraph::new();
        let a1 = VTxId::new(T0, 1);
        let a2 = VTxId::new(T0, 2);
        let b = VTxId::new(T1, 1);
        g.begin(a1, reg(0), VTxId::NONE);
        g.begin(b, reg(2), VTxId::NONE);
        g.add_cross_edge(b, a1, true); // b → a1 first
        g.begin(a2, reg(1), a1); // intra a1 → a2
        let v = g.add_cross_edge(a2, b, true).expect("cycle via intra edge");
        assert_eq!(v.cycle.len(), 3);
    }

    #[test]
    fn detection_can_be_disabled() {
        let mut g = VGraph::new();
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        g.add_cross_edge(a, b, false);
        assert!(g.add_cross_edge(b, a, false).is_none());
        assert_eq!(g.cycles, 0);
        assert_eq!(g.cross_edges, 2, "edges still tracked");
    }

    #[test]
    fn collect_reclaims_unreachable() {
        let mut g = VGraph::new();
        let a1 = VTxId::new(T0, 1);
        let a2 = VTxId::new(T0, 2);
        g.begin(a1, reg(0), VTxId::NONE);
        g.begin(a2, reg(0), a1);
        // Root is a2 (current): a1 has only an edge *to* a2, so from a2
        // nothing reaches a1 — a1 collected.
        assert_eq!(g.collect(), 1);
        assert_eq!(g.len(), 1);
        // Edges naming a1 are now ignored.
        assert!(g.add_cross_edge(a1, a2, true).is_none());
    }

    #[test]
    fn unary_only_cycle_blames_nothing_but_reports() {
        let mut g = VGraph::new();
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, TxKind::Unary, VTxId::NONE);
        g.begin(b, TxKind::Unary, VTxId::NONE);
        g.add_cross_edge(a, b, true);
        let v = g.add_cross_edge(b, a, true).expect("cycle");
        assert!(v.blamed_methods.is_empty());
        assert_eq!(v.static_key(), vec![None, None]);
    }
}
