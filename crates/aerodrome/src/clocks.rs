//! AeroDrome's vector-clock view of the transaction dependence graph.
//!
//! Where Velodrome answers "did this edge close a cycle?" with a graph
//! search, AeroDrome answers it with a constant-time clock comparison
//! (Mathur & Viswanathan, *Atomicity Checking in Linear Time using Vector
//! Clocks*). Each transaction `T` of thread `t` carries a vector clock
//! `C_T` where `C_T[u] = s` means "thread `u`'s transaction with sequence
//! number `s` (and, by program order, every earlier one) must precede `T`
//! in any serialization". The clock is reflexive: `C_T[t] = seq(T)`.
//!
//! Adding a dependence edge `src → dst` then detects a cycle in O(1):
//! `dst` is already an ancestor of `src` exactly when
//! `C_src[thread(dst)] ≥ seq(dst)` — because `dst` is its thread's newest
//! transaction, no later transaction of that thread exists that could
//! account for the component. After the check, `C_src` is joined into
//! `C_dst` and the join is propagated transitively along out-edges until
//! clocks stop changing, which keeps the invariant "clock = exact ancestor
//! set" that the O(1) check relies on. Propagation must follow out-edges
//! into *finished* transactions too: a finished transaction never gains a
//! new in-edge (edges always terminate at the accessing thread's current
//! transaction), but its ancestor set can still grow through an existing
//! in-edge whose source is live.
//!
//! Out-edge lists are retained for propagation, which also lets a detected
//! cycle be reconstructed (Velodrome's DFS, run only on actual
//! violations) so blame assignment is bit-comparable with the baseline.
//! Records live in Velodrome's [`TxStore`] on the shared per-thread
//! transaction windows, so a lookup is an index computation and the
//! collector recycles clock slices.

use dc_runtime::spec::TxKind;
use dc_velodrome::{Link, TxStore, VTxId, VViolation};
use std::fmt;

fn seq_of(id: VTxId) -> u64 {
    dc_runtime::window::seq_of(id.0)
}

/// The clock-annotated dependence graph: Velodrome's per-thread
/// [`TxStore`] with a vector clock as each node's payload.
/// `clock[u]` = highest sequence number of thread `u` known to precede the
/// transaction (reflexive in the owner's component).
pub struct ClockGraph {
    n_threads: usize,
    store: TxStore<Box<[u64]>>,
    scratch: Vec<u64>,
    work: Vec<(VTxId, VTxId)>,
    /// Cross-thread dependence edges added.
    pub cross_edges: u64,
    /// Cycles detected.
    pub cycles: u64,
    /// Clock joins performed (edge joins + transitive propagation).
    pub joins: u64,
    /// Joins that were transitive propagation rather than direct edges.
    pub propagated: u64,
}

impl fmt::Debug for ClockGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClockGraph")
            .field("records", &self.store.len())
            .field("threads", &self.n_threads)
            .finish()
    }
}

impl ClockGraph {
    /// Creates an empty graph for `n_threads` threads (collection pacing
    /// disabled).
    pub fn new(n_threads: usize) -> Self {
        Self::paced(n_threads, 0)
    }

    /// Creates an empty graph whose collector is due after
    /// `max(every, survivors / 2)` transaction begins (0 disables it).
    pub fn paced(n_threads: usize, every: u32) -> Self {
        ClockGraph {
            n_threads,
            store: TxStore::new(every),
            scratch: Vec::new(),
            work: Vec::new(),
            cross_edges: 0,
            cycles: 0,
            joins: 0,
            propagated: 0,
        }
    }

    /// Live record count.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no records are live.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Registers a new transaction: its clock starts as the program-order
    /// predecessor's clock (the predecessor is finished, so its clock is
    /// final) advanced to its own sequence number. Nodes reclaimed by the
    /// collector come back with their clock slices, so a warm begin
    /// allocates nothing.
    pub fn begin(&mut self, id: VTxId, kind: TxKind, prev: VTxId) {
        let n = self.n_threads;
        self.scratch.clear();
        match self.store.get(prev) {
            Some(p) => self.scratch.extend_from_slice(&p.extra),
            None => self.scratch.resize(n, 0),
        }
        let clock = &mut self.store.begin(id, kind, prev).extra;
        if clock.len() != n {
            *clock = vec![0; n].into_boxed_slice();
        }
        clock.copy_from_slice(&self.scratch);
        let t = id.thread().index();
        if t < n {
            clock[t] = seq_of(id);
        }
    }

    /// Adds a cross-thread dependence edge, runs the O(1) clock cycle
    /// check, and joins + propagates clocks. Returns the violation if the
    /// edge closed a cycle. Edges to/from collected transactions are
    /// ignored (they cannot be in a future cycle).
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
        // O(1) cycle test: dst is an ancestor of src iff src's clock
        // already covers dst's thread at or past dst's sequence number
        // (dst is its thread's newest transaction, so no later transaction
        // could account for the component).
        let dt = dst.thread().index();
        let cyclic = {
            let s = &self.store.get(src).expect("linked source is live").extra;
            dt < s.len() && s[dt] >= seq_of(dst)
        };
        self.join_and_propagate(src, dst);
        if !(detect_cycles && cyclic) {
            return None;
        }
        self.cycles += 1;
        // Only runs on a confirmed violation: Velodrome's own search, so
        // the reconstructed cycle (and hence blame) is identical.
        let cycle = self.store.find_cycle(src, dst)?;
        Some(self.store.report(&cycle))
    }

    /// Joins `from`'s clock into `to`, then propagates any growth along
    /// out-edges until clocks stop changing. Terminates because clocks are
    /// monotone and bounded by the current per-thread sequence numbers.
    fn join_and_propagate(&mut self, src: VTxId, dst: VTxId) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut work = std::mem::take(&mut self.work);
        work.clear();
        work.push((src, dst));
        let mut direct = true;
        while let Some((from, to)) = work.pop() {
            let Some(f) = self.store.get(from) else {
                direct = false;
                continue;
            };
            scratch.clear();
            scratch.extend_from_slice(&f.extra);
            let Some(t) = self.store.get_mut(to) else {
                direct = false;
                continue;
            };
            let mut changed = false;
            for (slot, &v) in t.extra.iter_mut().zip(scratch.iter()) {
                if v > *slot {
                    *slot = v;
                    changed = true;
                }
            }
            self.joins += 1;
            if !direct {
                self.propagated += 1;
            }
            direct = false;
            if changed {
                work.extend(t.out().iter().map(|&next| (to, next)));
            }
        }
        self.scratch = scratch;
        self.work = work;
    }

    /// True when enough transactions began since the last collection for
    /// another pass to pay for itself.
    pub fn collect_due(&self) -> bool {
        self.store.collect_due()
    }

    /// Reclaims transactions unreachable via outgoing edges from every
    /// thread's newest (current) transaction. Returns the number collected.
    /// Sound for the clock invariant: every in-edge terminates at a
    /// currently-live transaction, so anything reachable from the roots —
    /// everything a future join could touch — stays resident.
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
    use dc_runtime::ids::{MethodId, ThreadId};

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    fn reg(m: u32) -> TxKind {
        TxKind::Regular(MethodId(m))
    }

    #[test]
    fn two_transaction_cycle_is_reported_with_blame() {
        let mut g = ClockGraph::new(2);
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        assert!(g.add_cross_edge(a, b, true).is_none());
        let v = g.add_cross_edge(b, a, true).expect("cycle");
        assert_eq!(v.cycle.len(), 2);
        assert_eq!(v.blamed_methods, vec![MethodId(0)]);
        assert_eq!(g.cycles, 1);
        assert_eq!(g.cross_edges, 2);
    }

    #[test]
    fn duplicate_edges_do_not_re_report() {
        let mut g = ClockGraph::new(2);
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
        // a1 →intra a2 on T0; cross b→a1, cross a2→b: cycle a1,a2,b.
        let mut g = ClockGraph::new(2);
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

    /// The case that makes eager transitive propagation load-bearing:
    /// b's snapshot of a's ancestors predates the c→a edge, so without
    /// propagation the closing edge b→c would not see c as an ancestor.
    #[test]
    fn propagation_closes_cycles_through_stale_snapshots() {
        let mut g = ClockGraph::new(3);
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        let c = VTxId::new(T2, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        g.begin(c, reg(2), VTxId::NONE);
        assert!(g.add_cross_edge(a, b, true).is_none()); // b learns a
        assert!(g.add_cross_edge(c, a, true).is_none()); // a learns c; must flow on to b
        let v = g.add_cross_edge(b, c, true).expect("cycle b→c→a→b");
        assert_eq!(v.cycle.len(), 3);
        assert!(g.propagated > 0, "the c→a join must propagate a→b");
    }

    #[test]
    fn detection_can_be_disabled() {
        let mut g = ClockGraph::new(2);
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
        let mut g = ClockGraph::new(1);
        let a1 = VTxId::new(T0, 1);
        let a2 = VTxId::new(T0, 2);
        g.begin(a1, reg(0), VTxId::NONE);
        g.begin(a2, reg(0), a1);
        assert_eq!(g.collect(), 1);
        assert_eq!(g.len(), 1);
        assert!(g.add_cross_edge(a1, a2, true).is_none());
    }

    #[test]
    fn unary_only_cycle_blames_nothing_but_reports() {
        let mut g = ClockGraph::new(2);
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, TxKind::Unary, VTxId::NONE);
        g.begin(b, TxKind::Unary, VTxId::NONE);
        g.add_cross_edge(a, b, true);
        let v = g.add_cross_edge(b, a, true).expect("cycle");
        assert!(v.blamed_methods.is_empty());
        assert_eq!(v.static_key(), vec![None, None]);
    }

    #[test]
    fn clocks_stay_exact_ancestor_sets() {
        // a→b, b→c: c's clock must cover a transitively at edge time.
        let mut g = ClockGraph::new(3);
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        let c = VTxId::new(T2, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        g.begin(c, reg(2), VTxId::NONE);
        g.add_cross_edge(a, b, true);
        g.add_cross_edge(b, c, true);
        // Closing c→a must be an O(1) positive without any propagation
        // having been necessary (the join at b→c carried a along).
        let v = g.add_cross_edge(c, a, true).expect("cycle");
        assert_eq!(v.cycle.len(), 3);
    }
}
