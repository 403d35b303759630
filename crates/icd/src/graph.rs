//! The imprecise dependence graph (IDG) and its maintenance.
//!
//! Nodes are transactions; edges are intra-thread program-order edges plus
//! the cross-thread edges ICD derives from Octet transitions (Figure 4).
//! When a transaction finishes, [`Graph::scc_from`] computes the maximal
//! strongly connected component containing it, exploring only finished
//! transactions (§3.2.3) — sound because a finished transaction never gains
//! incoming edges, so a cycle is fully present exactly when its last member
//! finishes.
//!
//! [`Graph::collect`] reclaims transactions the way the paper relies on the
//! JVM's GC: transactions are kept while reachable — following outgoing-edge
//! references — from a *root*: a thread's current transaction, a `lastRdEx`
//! reference, or `gLastRdSh`. Every edge's source is a root when the edge is
//! created, and edges only ever point *to* then-current transactions, so a
//! transaction that becomes unreachable can never regain reachability and
//! can never appear in a future cycle; it is dropped with its log.
//!
//! # Storage
//!
//! Nodes live in the per-thread [`Windows`] shared with the baselines: a
//! [`TxId`] packs `(seq << 16) | thread`, so a lookup is
//! `windows[thread][seq - base]`, never a hash. The intra-thread edge is
//! implicit: node `(t, s)`'s program-order successor is `(t, s + 1)`,
//! present exactly when that transaction began while `(t, s)` was live.
//! Each node records how many explicit out-edges it had when its successor
//! began, so traversals visit the successor at the position the explicit
//! edge would have had, and SCC reports list it with the positions it
//! would have carried (`src_pos` = the predecessor's final log length,
//! `dst_pos` = 0).
//!
//! Because of the implicit successor, whatever reaches `(t, s)` reaches
//! every later transaction of `t`: survivors of a collection are a suffix
//! of each window. The mark phase therefore tracks only each thread's
//! lowest reached sequence number, expanding each survivor once, and the
//! sweep pops each window's dead prefix without visiting survivors.
//!
//! Tarjan's per-node state (visit index, lowlink, on-stack bit) lives in the
//! node, valid only when the node's epoch stamp is current, so "clearing"
//! between passes is one counter bump. The DFS stack, frame and component
//! buffers are retained across calls, and collected nodes return to the
//! windows' spare pool with their edge vectors and log buffer. In steady
//! state insertion, edges, finishing, [`Graph::scc_from`] and the collector
//! therefore perform no heap allocation.

use crate::types::{
    Edge, EdgeKind, LogEntry, ReplayConstraint, SccReport, TxId, TxKind, TxSnapshot,
};
use dc_runtime::pacer::CollectPacer;
use dc_runtime::window::{Recycle, Windows};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Table-3 counters the graph maintains. They live behind an `Arc` of
/// atomics so readers ([`crate::Icd::cross_edges`], [`crate::Icd::scc_count`])
/// never need the graph lock — the graph may be owned by the pipeline's
/// dedicated apply thread while application threads poll the counters.
#[derive(Debug, Default)]
pub struct GraphCounters {
    /// Cross-thread edges added (Table 3 column).
    pub cross_edges: AtomicU64,
    /// SCCs with ≥ 2 transactions detected (Table 3 column).
    pub scc_count: AtomicU64,
}

/// `TxNode::succ_at` while the thread's next transaction has not begun.
const NO_SUCC: u32 = u32::MAX;

/// One IDG node. Its thread and sequence number are its id's.
#[derive(Debug)]
pub struct TxNode {
    /// Regular or unary.
    pub kind: TxKind,
    /// True once the transaction has ended.
    pub finished: bool,
    /// Explicit outgoing edges (cross-thread, plus any intra-thread edge a
    /// caller adds by hand); the program-order successor is implicit.
    pub out: Vec<Edge>,
    /// Incoming cross-thread edges, self-contained for replay constraints
    /// (the source may be collected later).
    pub in_cross: Vec<ReplayConstraint>,
    /// Final read/write log (set when the transaction finishes).
    pub log: Arc<Vec<LogEntry>>,
    /// Final log length (valid once finished).
    pub final_len: u32,
    /// Incoming edges added while the node has been live (implicit intra +
    /// explicit). Never decremented, so after a collection it may
    /// overcount — it is only ever used to *skip* cycle detection when
    /// zero, and a node with zero recorded in-edges certainly has none.
    in_count: u32,
    /// `out.len()` when the successor began: the implicit edge's position
    /// among the out-edges ([`NO_SUCC`] until then).
    succ_at: u32,
    /// Tarjan visit index and lowlink, valid under the current epoch.
    index: u32,
    lowlink: u32,
    on_stack: bool,
}

impl Default for TxNode {
    fn default() -> Self {
        TxNode {
            kind: TxKind::Unary,
            finished: false,
            out: Vec::new(),
            in_cross: Vec::new(),
            log: Arc::default(),
            final_len: 0,
            in_count: 0,
            succ_at: NO_SUCC,
            index: 0,
            lowlink: 0,
            on_stack: false,
        }
    }
}

impl Recycle for TxNode {
    /// Clears edges and the log, keeping their buffers. A log still shared
    /// with an SCC snapshot is left to the snapshot.
    fn recycle(&mut self) {
        self.finished = false;
        self.out.clear();
        self.in_cross.clear();
        match Arc::get_mut(&mut self.log) {
            Some(log) => log.clear(),
            None => self.log = Arc::default(),
        }
        self.final_len = 0;
        self.in_count = 0;
        self.succ_at = NO_SUCC;
    }
}

impl TxNode {
    /// True if the node has an out-edge, the implicit successor included.
    fn has_out(&self) -> bool {
        !self.out.is_empty() || self.succ_at != NO_SUCC
    }

    /// Out-degree, the implicit successor included.
    fn degree(&self) -> usize {
        self.out.len() + usize::from(self.succ_at != NO_SUCC)
    }

    /// The `i`th out-neighbour of node `id` in edge-creation order, the
    /// implicit successor at position `succ_at`.
    #[inline]
    fn neighbour(&self, id: TxId, i: usize) -> TxId {
        let at = self.succ_at as usize;
        if self.succ_at == NO_SUCC || i < at {
            self.out[i].dst
        } else if i == at {
            id.succ()
        } else {
            self.out[i - 1].dst
        }
    }
}

/// A structurally invalid finish: the op stream named a transaction the
/// graph does not know, or one that already finished. Surfaced as a checked
/// error so a malformed op stream degrades into a reported failure instead
/// of a panic on the graph-owner thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinishError {
    /// No live node carries this id (never inserted, or already collected
    /// while unfinished — impossible for well-formed streams).
    UnknownTx(TxId),
    /// The node was already marked finished.
    AlreadyFinished(TxId),
}

impl std::fmt::Display for FinishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FinishError::UnknownTx(id) => write!(f, "finishing unknown tx {id:?}"),
            FinishError::AlreadyFinished(id) => write!(f, "tx {id:?} finished twice"),
        }
    }
}

impl std::error::Error for FinishError {}

/// Outcome of [`Graph::scc_probe`]: whether Tarjan ran and what it found.
#[derive(Debug)]
pub enum SccProbe {
    /// Tarjan was skipped: the root is missing, unfinished, or trivially
    /// acyclic (no incoming or no outgoing edges — it cannot be on a
    /// cycle). Exactly the cases where a full traversal would report
    /// nothing.
    Skipped,
    /// Tarjan ran; the root's SCC has fewer than two members.
    NoCycle,
    /// Tarjan ran and found the root's SCC (≥ 2 members).
    Cycle(SccReport),
}

/// Traversal buffers retained across calls.
#[derive(Debug, Default)]
struct Scratch {
    /// Tarjan's component stack.
    stack: Vec<TxId>,
    /// DFS frames: (node, cursor into its out-neighbours).
    frames: Vec<(TxId, u32)>,
    /// The root's component.
    component: Vec<TxId>,
    /// Collector worklist.
    work: Vec<TxId>,
    /// Collector: each thread's lowest reached sequence number.
    low: Vec<u64>,
}

/// The IDG plus the `gLastRdSh` register (§3.2.2).
#[derive(Debug, Default)]
pub struct Graph {
    windows: Windows<TxNode>,
    /// Last transaction (across all threads) to move an object to RdSh.
    pub g_last_rd_sh: TxId,
    counters: Arc<GraphCounters>,
    scratch: Scratch,
    /// Collector cadence, counted in transaction finishes. Travels with
    /// the graph, so whichever lock or owner thread guards the graph also
    /// guards its pacing.
    pacer: CollectPacer,
}

impl Graph {
    /// Creates an empty graph (collection pacing disabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the collector cadence: [`Graph::collect_due`] turns true after
    /// `max(every, survivors / 2)` finishes (0 disables pacing).
    pub fn paced(mut self, every: u32) -> Self {
        self.pacer = CollectPacer::new(every);
        self
    }

    /// True when enough transactions finished since the last
    /// [`Graph::collect`] for another pass to pay for itself.
    pub fn collect_due(&self) -> bool {
        self.pacer.due()
    }

    /// The shared counter cell, for lock-free readers.
    pub fn counters(&self) -> Arc<GraphCounters> {
        Arc::clone(&self.counters)
    }

    /// Cross-thread edges added (Table 3 column).
    pub fn cross_edges(&self) -> u64 {
        self.counters.cross_edges.load(Ordering::Relaxed)
    }

    /// SCCs with ≥ 2 transactions detected (Table 3 column).
    pub fn scc_count(&self) -> u64 {
        self.counters.scc_count.load(Ordering::Relaxed)
    }

    /// Number of live (uncollected) transactions.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True if no transactions are live.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// `(first seq, slot count)` of thread `t`'s window (tests and
    /// diagnostics: survivors of a collection are a suffix of it).
    pub fn window(&self, t: usize) -> (u64, usize) {
        self.windows.span(t)
    }

    /// Window slots across all threads: what a collector pass accounts as
    /// swept.
    pub fn window_slots(&self) -> usize {
        (0..self.windows.threads())
            .map(|t| self.windows.span(t).1)
            .sum()
    }

    /// Access a node (tests/diagnostics).
    pub fn node(&self, id: TxId) -> Option<&TxNode> {
        self.windows.get(id.0)
    }

    /// Inserts transaction `id`, unfinished, with the implicit edge from
    /// its thread's previous transaction if that one is still live.
    ///
    /// # Panics
    ///
    /// If `id` is [`TxId::NONE`] or not newer than its thread's newest
    /// transaction.
    pub fn insert(&mut self, id: TxId, kind: TxKind) {
        let in_count = match self.windows.get_mut(id.pred().0) {
            Some(pred) => {
                debug_assert!(pred.finished, "{id:?} began before its predecessor ended");
                debug_assert_eq!(pred.succ_at, NO_SUCC);
                pred.succ_at = u32::try_from(pred.out.len()).expect("out-degree overflow");
                1
            }
            None => 0,
        };
        let node = self.windows.push(id.0);
        node.kind = kind;
        node.in_count = in_count;
    }

    /// Adds an edge. Self-edges are dropped (a transaction trivially
    /// depends on itself). Missing endpoints (already collected) are
    /// ignored — a collected source cannot be part of a future cycle.
    pub fn add_edge(&mut self, edge: Edge) {
        if edge.src == edge.dst || !self.windows.contains(edge.dst.0) {
            return;
        }
        let Some(src) = self.windows.get_mut(edge.src.0) else {
            return;
        };
        src.out.push(edge);
        let dst = self.windows.get_mut(edge.dst.0).expect("dst is live");
        dst.in_count += 1;
        if edge.kind == EdgeKind::Cross {
            self.counters.cross_edges.fetch_add(1, Ordering::Relaxed);
            dst.in_cross.push(ReplayConstraint {
                dst: edge.dst,
                dst_pos: edge.dst_pos,
                src: edge.src,
                src_thread: edge.src.thread(),
                src_seq: edge.src.seq(),
                src_pos: edge.src_pos,
            });
        }
    }

    /// Marks `id` finished and stores its final log. Returns an empty
    /// buffer for the caller's next log: the one the node kept from its
    /// previous occupant, so a warm finish allocates nothing. A finish
    /// naming an unknown or already-finished transaction is a malformed op
    /// stream, reported as a checked error rather than a panic.
    pub fn finish(
        &mut self,
        id: TxId,
        mut log: Vec<LogEntry>,
    ) -> Result<Vec<LogEntry>, FinishError> {
        let Some(node) = self.windows.get_mut(id.0) else {
            return Err(FinishError::UnknownTx(id));
        };
        if node.finished {
            return Err(FinishError::AlreadyFinished(id));
        }
        node.finished = true;
        node.final_len = u32::try_from(log.len()).expect("log too long");
        match Arc::get_mut(&mut node.log) {
            Some(kept) => std::mem::swap(kept, &mut log),
            None => node.log = Arc::new(std::mem::take(&mut log)),
        }
        debug_assert!(log.is_empty(), "recycled logs are cleared");
        self.pacer.tick();
        Ok(log)
    }

    /// Computes the maximal SCC containing `root`, exploring finished
    /// transactions only. Returns `None` unless the SCC has ≥ 2 members.
    pub fn scc_from(&mut self, root: TxId) -> Option<SccReport> {
        match self.scc_probe(root) {
            SccProbe::Cycle(report) => Some(report),
            SccProbe::Skipped | SccProbe::NoCycle => None,
        }
    }

    /// The first finished out-neighbour of `v` at or after `cursor`, and
    /// the cursor past it.
    #[inline]
    fn next_finished(&self, v: TxId, cursor: u32) -> (Option<TxId>, u32) {
        let node = self.windows.get(v.0).expect("DFS frames hold live nodes");
        let mut cur = cursor as usize;
        while cur < node.degree() {
            let w = node.neighbour(v, cur);
            cur += 1;
            if self.windows.get(w.0).is_some_and(|n| n.finished) {
                return (Some(w), cur as u32);
            }
        }
        (None, cur as u32)
    }

    /// Like [`Graph::scc_from`], distinguishing "Tarjan skipped by the
    /// trivial pre-filter" from "Tarjan ran and found nothing" so callers
    /// can account for skipped traversals.
    ///
    /// The pre-filter is exact: a finished transaction with no incoming or
    /// no outgoing edges cannot be on a cycle, so the skipped traversal
    /// would have returned the root alone. (`in_count` may overcount after
    /// a collection, which only makes the filter more conservative.)
    pub fn scc_probe(&mut self, root: TxId) -> SccProbe {
        match self.windows.get(root.0) {
            Some(n) if n.finished && n.in_count > 0 && n.has_out() => {}
            _ => return SccProbe::Skipped,
        }
        // Iterative Tarjan restricted to finished nodes reachable from
        // root, with per-node state in the nodes under a fresh epoch.
        let epoch = self.windows.next_epoch();
        let mut t = std::mem::take(&mut self.scratch);
        debug_assert!(t.stack.is_empty() && t.frames.is_empty());
        t.component.clear();
        let mut next_index = 1u32;
        let r = self.windows.visit(root.0, epoch).expect("root is live");
        (r.index, r.lowlink, r.on_stack) = (0, 0, true);
        t.stack.push(root);
        t.frames.push((root, 0));

        while let Some(&(v, cursor)) = t.frames.last() {
            let (next_child, cursor) = self.next_finished(v, cursor);
            t.frames.last_mut().expect("frame exists").1 = cursor;
            match next_child {
                Some(w) => match self.windows.visit(w.0, epoch) {
                    Some(wn) => {
                        (wn.index, wn.lowlink, wn.on_stack) = (next_index, next_index, true);
                        next_index += 1;
                        t.stack.push(w);
                        t.frames.push((w, 0));
                    }
                    None => {
                        // Already visited this traversal.
                        let wn = self.windows.get(w.0).expect("child is live");
                        if wn.on_stack {
                            let w_index = wn.index;
                            let vn = self.windows.get_mut(v.0).expect("frame is live");
                            vn.lowlink = vn.lowlink.min(w_index);
                        }
                    }
                },
                None => {
                    t.frames.pop();
                    let vn = self.windows.get(v.0).expect("frame is live");
                    let (v_low, v_index) = (vn.lowlink, vn.index);
                    if let Some(&(parent, _)) = t.frames.last() {
                        let pn = self.windows.get_mut(parent.0).expect("frame is live");
                        pn.lowlink = pn.lowlink.min(v_low);
                    }
                    if v_low == v_index {
                        // Pop one SCC off the Tarjan stack. The root has
                        // visit index 0, so its SCC is headed by the root
                        // itself and popped exactly at `v == root`; other
                        // components are discarded as they pop.
                        loop {
                            let w = t.stack.pop().expect("tarjan stack underflow");
                            self.windows.get_mut(w.0).expect("stacked").on_stack = false;
                            if v == root {
                                t.component.push(w);
                            }
                            if w == v {
                                break;
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(t.stack.is_empty(), "tarjan stack drained");

        if t.component.len() < 2 {
            self.scratch = t;
            return SccProbe::NoCycle;
        }
        self.counters.scc_count.fetch_add(1, Ordering::Relaxed);
        let report = self.snapshot_component(&t.component);
        self.scratch = t;
        SccProbe::Cycle(report)
    }

    /// Snapshots *every* finished transaction and all edges among them —
    /// the "PCD-only" variant of §5.4, where PCD processes every executed
    /// transaction rather than just ICD's SCCs.
    pub fn snapshot_all_finished(&mut self) -> SccReport {
        let component: Vec<TxId> = self
            .windows
            .iter()
            .filter(|(_, n)| n.finished)
            .map(|(id, _)| TxId(id))
            .collect();
        self.snapshot_component(&component)
    }

    fn snapshot_component(&mut self, component: &[TxId]) -> SccReport {
        let epoch = self.windows.next_epoch();
        for &id in component {
            self.windows.visit(id.0, epoch);
        }
        let member =
            |w: &Windows<TxNode>, id: TxId| w.get_stamped(id.0, epoch).is_some_and(|s| s.1);
        let mut txs: Vec<TxSnapshot> = component
            .iter()
            .map(|&id| {
                let n = self.windows.get(id.0).expect("member is live");
                TxSnapshot {
                    id,
                    thread: id.thread(),
                    kind: n.kind,
                    seq: id.seq(),
                    log: Arc::clone(&n.log),
                }
            })
            .collect();
        txs.sort_by_key(|t| (t.thread, t.seq));
        let mut edges = Vec::new();
        let mut constraints = Vec::new();
        for &id in component {
            let node = self.windows.get(id.0).expect("member is live");
            for i in 0..node.degree() {
                let dst = node.neighbour(id, i);
                if !member(&self.windows, dst) {
                    continue;
                }
                edges.push(if i == node.succ_at as usize {
                    Edge {
                        src: id,
                        src_pos: node.final_len,
                        dst,
                        dst_pos: 0,
                        kind: EdgeKind::Intra,
                    }
                } else {
                    node.out[i - usize::from(i > node.succ_at as usize)]
                });
            }
            constraints.extend(node.in_cross.iter().copied());
        }
        SccReport {
            txs,
            edges,
            constraints,
        }
    }

    /// Drops finished transactions unreachable from the roots via outgoing
    /// edges (the JVM-reachability semantics the paper relies on), popping
    /// them into the spare pool, and restarts the pacer from the survivor
    /// count. Returns the number collected. Each thread's newest
    /// transaction is a root too while it is unfinished (it is the thread's
    /// current one).
    ///
    /// Reaching `(t, s)` reaches `(t, s + 1 ..)` through the implicit
    /// successor edges, so marking only lowers each thread's reached
    /// watermark, expanding every survivor's explicit out-edges once, and
    /// the sweep pops everything below the watermark.
    pub fn collect(&mut self, roots: impl IntoIterator<Item = TxId>) -> usize {
        let mut sc = std::mem::take(&mut self.scratch);
        let threads = self.windows.threads();
        sc.low.clear();
        sc.work.clear();
        for t in 0..threads {
            let (base, len) = self.windows.span(t);
            sc.low.push(base + len as u64);
            if let Some(newest) = self.windows.newest(t) {
                if self.windows.get(newest).is_some_and(|n| !n.finished) {
                    sc.work.push(TxId(newest));
                }
            }
        }
        sc.work.extend(roots);
        while let Some(r) = sc.work.pop() {
            let t = r.thread().index();
            if !self.windows.contains(r.0) || r.seq() >= sc.low[t] {
                continue; // collected earlier, or already reached
            }
            let (lo, hi) = (r.seq(), sc.low[t]);
            sc.low[t] = lo;
            for seq in lo..hi {
                let Some(n) = self.windows.get(TxId::new(r.thread(), seq).0) else {
                    continue;
                };
                for e in &n.out {
                    let d = e.dst;
                    if sc.low.get(d.thread().index()).is_some_and(|&l| d.seq() < l) {
                        sc.work.push(d);
                    }
                }
            }
        }
        let mut collected = 0;
        for t in 0..threads {
            collected += self.windows.pop_below(t, sc.low[t]);
        }
        self.scratch = sc;
        self.pacer.after_collect(self.len());
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::ids::{ObjId, ThreadId};

    /// Transaction `i`: the first transaction of thread `i`, so tests of
    /// cross edges see no implicit intra-thread edges.
    fn tx(i: u64) -> TxId {
        TxId::new(ThreadId(i as u16), 1)
    }

    fn edge(src: u64, dst: u64) -> Edge {
        Edge {
            src: tx(src),
            src_pos: 0,
            dst: tx(dst),
            dst_pos: 0,
            kind: EdgeKind::Cross,
        }
    }

    fn graph_with(n: u64) -> Graph {
        let mut g = Graph::new();
        for i in 1..=n {
            g.insert(tx(i), TxKind::Unary);
        }
        g
    }

    fn finish_all(g: &mut Graph, n: u64) {
        for i in 1..=n {
            g.finish(tx(i), vec![]).unwrap();
        }
    }

    /// Runs thread `t`'s transactions `1..=n` one after another, each
    /// finished before the next begins; the last stays unfinished.
    fn thread_chain(g: &mut Graph, t: u16, n: u64) {
        for seq in 1..=n {
            if seq > 1 {
                g.finish(TxId::new(ThreadId(t), seq - 1), vec![]).unwrap();
            }
            g.insert(TxId::new(ThreadId(t), seq), TxKind::Unary);
        }
    }

    #[test]
    fn two_cycle_is_detected_when_last_member_finishes() {
        let mut g = graph_with(2);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 1));
        g.finish(tx(1), vec![]).unwrap();
        // Tx2 unfinished: no SCC yet.
        assert!(g.scc_from(tx(1)).is_none());
        g.finish(tx(2), vec![]).unwrap();
        let scc = g.scc_from(tx(2)).expect("cycle complete");
        assert_eq!(scc.len(), 2);
        assert_eq!(scc.edges.len(), 2);
        assert_eq!(g.scc_count(), 1);
    }

    #[test]
    fn self_edges_are_dropped() {
        let mut g = graph_with(1);
        g.add_edge(edge(1, 1));
        g.finish(tx(1), vec![]).unwrap();
        assert!(g.scc_from(tx(1)).is_none());
        assert_eq!(g.cross_edges(), 0);
    }

    #[test]
    fn path_without_cycle_yields_no_scc() {
        let mut g = graph_with(3);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 3));
        finish_all(&mut g, 3);
        assert!(g.scc_from(tx(3)).is_none());
        assert!(g.scc_from(tx(1)).is_none());
    }

    #[test]
    fn maximal_scc_is_found_not_just_a_cycle() {
        // 1→2→3→1 and 2→4→2: one SCC of size 4.
        let mut g = graph_with(4);
        for (s, d) in [(1, 2), (2, 3), (3, 1), (2, 4), (4, 2)] {
            g.add_edge(edge(s, d));
        }
        finish_all(&mut g, 4);
        let scc = g.scc_from(tx(1)).unwrap();
        assert_eq!(scc.len(), 4);
    }

    #[test]
    fn scc_excludes_unfinished_members_until_they_finish() {
        let mut g = graph_with(3);
        for (s, d) in [(1, 2), (2, 3), (3, 1)] {
            g.add_edge(edge(s, d));
        }
        g.finish(tx(1), vec![]).unwrap();
        g.finish(tx(2), vec![]).unwrap();
        assert!(g.scc_from(tx(2)).is_none(), "3 unfinished breaks the loop");
        g.finish(tx(3), vec![]).unwrap();
        assert_eq!(g.scc_from(tx(3)).unwrap().len(), 3);
    }

    #[test]
    fn snapshot_carries_logs_and_internal_edges_only() {
        let mut g = graph_with(3);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 1));
        g.add_edge(edge(2, 3)); // leaves the SCC
        g.finish(tx(1), vec![LogEntry::new(ObjId(9), 0, true, false)])
            .unwrap();
        g.finish(tx(2), vec![]).unwrap();
        g.finish(tx(3), vec![]).unwrap();
        let scc = g.scc_from(tx(2)).unwrap();
        assert_eq!(scc.len(), 2);
        assert_eq!(scc.edges.len(), 2, "edge 2→3 excluded");
        let t1 = scc.txs.iter().find(|t| t.id == tx(1)).unwrap();
        assert_eq!(t1.log.len(), 1);
    }

    #[test]
    fn intra_thread_edges_are_implicit_and_reported_in_place() {
        // T0 runs a then b; T1 runs c. Cross c→a and b→c close a cycle
        // through the implicit a→b edge.
        let t0 = ThreadId(0);
        let (a, b, c) = (TxId::new(t0, 1), TxId::new(t0, 2), tx(1));
        let mut g = Graph::new();
        g.insert(a, TxKind::Unary);
        g.insert(c, TxKind::Unary);
        let cross = |src, dst| Edge {
            src,
            src_pos: 1,
            dst,
            dst_pos: 0,
            kind: EdgeKind::Cross,
        };
        g.add_edge(cross(c, a));
        g.finish(a, vec![LogEntry::new(ObjId(1), 0, false, false)])
            .unwrap();
        g.insert(b, TxKind::Unary);
        assert!(g.node(a).unwrap().out.is_empty(), "no stored intra edge");
        g.add_edge(cross(b, c));
        g.finish(b, vec![]).unwrap();
        g.finish(c, vec![]).unwrap();
        let scc = g.scc_from(c).expect("a → b → c → a");
        assert_eq!(scc.len(), 3);
        let intra: Vec<&Edge> = scc
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Intra)
            .collect();
        assert_eq!(intra.len(), 1);
        assert_eq!(
            (
                intra[0].src,
                intra[0].src_pos,
                intra[0].dst,
                intra[0].dst_pos
            ),
            (a, 1, b, 0),
            "src_pos is the predecessor's final log length"
        );
        // Only cross edges become replay constraints.
        assert_eq!(scc.constraints.len(), 2);
    }

    #[test]
    fn implicit_successor_keeps_its_creation_position() {
        // Edges out of `a` before and after its successor began: reports
        // list them in creation order, the intra edge between them.
        let t0 = ThreadId(0);
        let (a, b) = (TxId::new(t0, 1), TxId::new(t0, 2));
        let (c, d) = (tx(1), tx(2));
        let mut g = Graph::new();
        for x in [a, c, d] {
            g.insert(x, TxKind::Unary);
        }
        let cross = |src, dst| Edge {
            src,
            src_pos: 0,
            dst,
            dst_pos: 0,
            kind: EdgeKind::Cross,
        };
        g.add_edge(cross(a, c));
        g.finish(a, vec![]).unwrap();
        g.insert(b, TxKind::Unary);
        g.add_edge(cross(a, d));
        g.add_edge(cross(b, c));
        g.add_edge(cross(c, a));
        g.add_edge(cross(d, a));
        for x in [c, d, b] {
            g.finish(x, vec![]).unwrap();
        }
        let scc = g.scc_from(a).expect("a, b, c and d form one SCC");
        assert_eq!(scc.len(), 4);
        let out_of_a: Vec<TxId> = scc
            .edges
            .iter()
            .filter(|e| e.src == a)
            .map(|e| e.dst)
            .collect();
        assert_eq!(out_of_a, vec![c, b, d], "creation order, b implicit");
    }

    #[test]
    fn collect_drops_only_unreachable_finished_txs() {
        let mut g = graph_with(4);
        // 2 is a root and points at 1; 3 is isolated; 4 is unfinished.
        g.add_edge(edge(2, 1));
        g.finish(tx(1), vec![]).unwrap();
        g.finish(tx(2), vec![]).unwrap();
        g.finish(tx(3), vec![]).unwrap();
        let collected = g.collect([tx(2)]);
        assert_eq!(collected, 1, "only Tx3 is collectable");
        assert!(g.node(tx(1)).is_some(), "root Tx2 reaches Tx1");
        assert!(g.node(tx(3)).is_none());
        assert!(g.node(tx(4)).is_some(), "unfinished is kept");
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn collect_pops_each_threads_dead_prefix() {
        // T0 runs 1..=5 (5 current); T1's only tx points at T0's 3. Rooting
        // T1's tx keeps T0's 3..=5 — a suffix — and pops 1 and 2.
        let mut g = Graph::new();
        thread_chain(&mut g, 0, 3);
        g.insert(tx(1), TxKind::Unary);
        g.add_edge(Edge {
            src: tx(1),
            src_pos: 0,
            dst: TxId::new(ThreadId(0), 3),
            dst_pos: 0,
            kind: EdgeKind::Cross,
        });
        g.finish(tx(1), vec![]).unwrap();
        for seq in 4..=5 {
            g.finish(TxId::new(ThreadId(0), seq - 1), vec![]).unwrap();
            g.insert(TxId::new(ThreadId(0), seq), TxKind::Unary);
        }
        assert_eq!(g.window(0), (1, 5));
        assert_eq!(g.collect([tx(1)]), 2);
        assert_eq!(g.window(0), (3, 3), "survivors are a suffix");
        assert_eq!(g.window(1), (1, 1));
        // Without the root only the current transaction survives.
        assert_eq!(g.collect([]), 3, "T0's 3 and 4, T1's tx");
        assert_eq!(g.window(0), (5, 1));
        assert_eq!(g.window(1), (2, 0));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn collect_ignores_collected_and_unknown_roots() {
        let mut g = Graph::new();
        thread_chain(&mut g, 0, 3);
        assert_eq!(g.collect([]), 2);
        // A stale root below the window must not re-mark the survivors'
        // predecessors (there are none) nor panic; unknown threads neither.
        let stale = TxId::new(ThreadId(0), 1);
        assert_eq!(g.collect([stale, tx(7), TxId::NONE]), 0);
        assert_eq!(g.window(0), (3, 1));
    }

    #[test]
    fn collect_keeps_pending_cycle_members() {
        // Cycle in progress: 2 (current, root) → 1, and 1 → 2 back; both
        // stay until the SCC is detected and the roots move on.
        let mut g = graph_with(2);
        g.add_edge(edge(2, 1));
        g.add_edge(edge(1, 2));
        g.finish(tx(1), vec![]).unwrap();
        assert_eq!(g.collect([tx(2)]), 0);
    }

    #[test]
    fn edges_to_collected_nodes_are_ignored() {
        let mut g = graph_with(2);
        g.finish(tx(1), vec![]).unwrap();
        assert_eq!(g.collect([tx(2)]), 1);
        // Adding an edge naming the collected node is a no-op.
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 1));
        assert_eq!(g.node(tx(2)).unwrap().out.len(), 0);
    }

    #[test]
    fn cross_edge_stat_counts_only_cross_edges() {
        let mut g = graph_with(2);
        g.add_edge(Edge {
            src: tx(1),
            src_pos: 0,
            dst: tx(2),
            dst_pos: 0,
            kind: EdgeKind::Intra,
        });
        g.add_edge(edge(2, 1));
        assert_eq!(g.cross_edges(), 1);
    }

    #[test]
    fn trivial_pre_filter_skips_tarjan_exactly_when_it_would_find_nothing() {
        let mut g = graph_with(3);
        // Tx1 → Tx2 → Tx3: every node lacks an in- or out-edge, or both
        // ends but no cycle.
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 3));
        finish_all(&mut g, 3);
        assert!(matches!(g.scc_probe(tx(1)), SccProbe::Skipped), "no in");
        assert!(matches!(g.scc_probe(tx(3)), SccProbe::Skipped), "no out");
        assert!(
            matches!(g.scc_probe(tx(2)), SccProbe::NoCycle),
            "both ends present: Tarjan runs and finds nothing"
        );
        // Unknown / unfinished roots are also skips.
        assert!(matches!(g.scc_probe(tx(9)), SccProbe::Skipped));
    }

    #[test]
    fn pre_filter_counts_the_implicit_edges() {
        // T0: 1 → 2 → 3, all finished: 2 has an implicit in- and out-edge,
        // so Tarjan runs; 1 has no in-edge and 3 no out-edge.
        let mut g = Graph::new();
        thread_chain(&mut g, 0, 3);
        g.finish(TxId::new(ThreadId(0), 3), vec![]).unwrap();
        let at = |s| TxId::new(ThreadId(0), s);
        assert!(matches!(g.scc_probe(at(1)), SccProbe::Skipped));
        assert!(matches!(g.scc_probe(at(2)), SccProbe::NoCycle));
        assert!(matches!(g.scc_probe(at(3)), SccProbe::Skipped));
    }

    #[test]
    fn collected_nodes_are_reused_without_stale_state() {
        let mut g = graph_with(2);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 1));
        g.finish(tx(1), vec![LogEntry::new(ObjId(3), 0, true, false)])
            .unwrap();
        g.finish(tx(2), vec![]).unwrap();
        let scc = g.scc_from(tx(2)).expect("cycle");
        assert_eq!(scc.len(), 2);
        drop(scc);
        // Neither tx is a root: both are collected into the spare pool.
        assert_eq!(g.collect([]), 2);
        assert_eq!(g.len(), 0);
        // Their threads' next transactions reuse the popped nodes…
        let (n1, n2) = (TxId::new(ThreadId(1), 2), TxId::new(ThreadId(2), 2));
        g.insert(n1, TxKind::Unary);
        g.insert(n2, TxKind::Unary);
        for n in [n1, n2] {
            let node = g.node(n).unwrap();
            assert!(node.out.is_empty() && node.in_cross.is_empty());
            assert!(node.log.is_empty() && !node.finished);
        }
        // …with no implicit edge from the collected predecessors, and no
        // stale traversal state: a fresh chain is not the old cycle…
        g.add_edge(Edge {
            dst: n2,
            src: n1,
            ..edge(1, 2)
        });
        g.finish(n1, vec![]).unwrap();
        g.finish(n2, vec![]).unwrap();
        assert!(g.scc_from(n2).is_none(), "no cycle among new txs");
        assert!(matches!(g.scc_probe(n1), SccProbe::Skipped), "no in-edge");
    }

    #[test]
    fn finish_hands_back_the_recycled_log_buffer() {
        let mut g = Graph::new();
        thread_chain(&mut g, 0, 1);
        let log: Vec<LogEntry> = (0..16)
            .map(|i| LogEntry::new(ObjId(i), 0, false, false))
            .collect();
        let spare = g.finish(TxId::new(ThreadId(0), 1), log).unwrap();
        assert!(spare.is_empty());
        g.insert(TxId::new(ThreadId(0), 2), TxKind::Unary);
        assert_eq!(g.collect([]), 1);
        // The next insert reuses the collected node; finishing it returns
        // the first transaction's buffer, cleared but with its capacity.
        g.finish(TxId::new(ThreadId(0), 2), vec![]).unwrap();
        g.insert(TxId::new(ThreadId(0), 3), TxKind::Unary);
        let spare = g.finish(TxId::new(ThreadId(0), 3), spare).unwrap();
        assert!(spare.is_empty() && spare.capacity() >= 16);
    }

    #[test]
    fn malformed_finishes_are_checked_errors() {
        let mut g = graph_with(1);
        assert_eq!(g.finish(tx(9), vec![]), Err(FinishError::UnknownTx(tx(9))));
        g.finish(tx(1), vec![]).unwrap();
        assert_eq!(
            g.finish(tx(1), vec![]),
            Err(FinishError::AlreadyFinished(tx(1)))
        );
    }
}
