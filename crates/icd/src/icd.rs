//! The ICD analysis: transaction lifecycle, Figure-4 edge procedures,
//! read/write logging with duplicate elision, and SCC detection at
//! transaction end.
//!
//! One [`Icd`] instance is shared by all threads. Hot, owner-only state
//! (the current transaction's log and the elision table) lives in per-thread
//! slots behind `UnsafeCell`; the cross-thread-visible registers —
//! `currTX(T)`, `T.lastRdEx`, the published log length — are atomics, read
//! by other threads only during Octet coordination (when the owner is at a
//! safe point or held).
//!
//! Graph maintenance has two modes ([`PipelineMode`]): in `Sync` mode
//! application threads mutate the IDG under a global mutex (rare relative to
//! accesses — Table 3: edges ≪ accesses — which is what makes ICD cheap);
//! in `Pipelined` mode they only enqueue ticketed operations and a dedicated
//! graph-owner thread (see [`crate::pipeline`]) applies them, so SCC
//! detection and the collector leave the application hot path entirely. The
//! [`IcdStats::graph_locks`] counter proves the difference: it counts every
//! hot-path graph-mutex acquisition by an application thread and stays at
//! zero in pipelined mode.

use crate::graph::{Graph, GraphCounters, SccProbe};
use crate::pipeline::{GraphOp, PipelineError, PipelineHandle, PipelineMode, PosSnapshot, SccSink};
use crate::types::{Edge, EdgeKind, LogEntry, SccReport, TxId, TxKind};
use dc_obs::{EventKind, PipelineObs, Stage};
use dc_runtime::heap::CellLayout;
use dc_runtime::ids::{CellId, MethodId, ObjId, ThreadId};
use parking_lot::{Mutex, MutexGuard};
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Configuration for one ICD instance.
#[derive(Clone, Copy, Debug)]
pub struct IcdConfig {
    /// Record read/write logs (single-run mode and the second run of
    /// multi-run mode). The first run of multi-run mode turns this off —
    /// that is its entire performance advantage (§3.1).
    pub logging: bool,
    /// Minimum transaction-collector cadence in transaction ends (0
    /// disables collection). Passes adapt: the next runs after
    /// `max(collect_every, survivors / 2)` ends.
    pub collect_every: u32,
    /// Detect SCCs when transactions end. Disabled for the §5.4
    /// array-overhead comparison and the PCD-only variant.
    pub detect_sccs: bool,
    /// Where graph maintenance runs: on the application threads under a
    /// mutex (`Sync`) or on a dedicated graph-owner thread (`Pipelined`).
    pub pipeline: PipelineMode,
}

impl Default for IcdConfig {
    fn default() -> Self {
        IcdConfig {
            logging: true,
            collect_every: 128,
            detect_sccs: true,
            pipeline: PipelineMode::Sync,
        }
    }
}

/// Aggregated run statistics (Table 3 columns).
#[derive(Debug, Default)]
pub struct IcdStats {
    /// Regular (non-unary) transactions started.
    pub regular_txs: AtomicU64,
    /// Unary (merged) transactions started.
    pub unary_txs: AtomicU64,
    /// Instrumented accesses inside regular transactions.
    pub regular_accesses: AtomicU64,
    /// Instrumented accesses in non-transactional (unary) context.
    pub unary_accesses: AtomicU64,
    /// Read/write log entries actually recorded (after elision) — the
    /// paper's main memory cost ("GC time" analog in Figure 7).
    pub log_entries: AtomicU64,
    /// Transactions reclaimed by the collector.
    pub collected_txs: AtomicU64,
    /// Collector passes run (deterministic under the det engine in `Sync`
    /// mode: pacing depends only on the transaction stream).
    pub collect_passes: AtomicU64,
    /// Graph slots the collector's passes scanned — its total work, which
    /// adaptive pacing keeps linear in the number of transactions.
    pub collect_scanned: AtomicU64,
    /// Hot-path graph-mutex acquisitions by application threads (transaction
    /// lifecycle, edge procedures, the collector). Zero in
    /// [`PipelineMode::Pipelined`] — the pipeline's acceptance counter.
    pub graph_locks: AtomicU64,
}

/// One thread's cross-thread-visible registers. Padded so coordination
/// traffic on one thread's registers does not false-share with another's.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct ThreadRegs {
    /// `currTX(T)`; stays pointing at the last transaction after it ends so
    /// coordination against an idle/finished thread still finds a source.
    pub(crate) current_tx: AtomicU64,
    /// `T.lastRdEx`: last transaction of `T` to move an object into RdEx-T.
    pub(crate) last_rd_ex: AtomicU64,
    /// Bumped by whoever attaches an edge to this thread's *current*
    /// transaction; drives unary-transaction cutting and elision epochs.
    pub(crate) edge_events: AtomicU32,
    /// Published length of the current transaction's log.
    pub(crate) log_len: AtomicU32,
}

/// All threads' registers, shared with the pipeline's graph-owner thread
/// (which reads them as collector roots).
#[derive(Debug)]
pub(crate) struct Registers {
    pub(crate) threads: Box<[ThreadRegs]>,
}

/// Per-thread local (owner-only) state.
struct Local {
    log: Vec<LogEntry>,
    /// Duplicate-elision table keyed by (obj, cell): used until a
    /// [`CellLayout`] is attached (tests, standalone use).
    elision: HashMap<(ObjId, CellId), (u32, bool)>,
    /// Flat duplicate-elision table (`epoch << 1 | wrote` per layout slot);
    /// the fast path when a layout is attached. Sized at thread begin (or
    /// by the cold fallback if the layout arrived later) so the hot loop
    /// never re-checks the lazy init.
    elision_flat: Vec<u64>,
    /// Bumped at transaction start and whenever the owner observes a new
    /// edge on its current transaction; stale elision entries simply
    /// mismatch.
    epoch: u32,
    /// `edge_events` value last observed by the owner.
    seen_edge_events: u32,
    kind: TxKind,
    /// Per-thread transaction sequence number.
    seq: u64,
    /// Pipelined mode: ticketed graph ops buffered during the current hook,
    /// flushed as one batch before the hook returns.
    pending: Vec<(u64, GraphOp)>,
    regular_accesses: u64,
    unary_accesses: u64,
    log_entries: u64,
}

impl Local {
    /// Advances the elision epoch. On u32 wrap the new epoch would collide
    /// with stale table entries stamped billions of accesses ago, letting
    /// them spuriously elide a fresh access (and silently drop a log
    /// entry), so both elision tables are cleared. The epoch then restarts
    /// at 1, never 0: flat slots are zero-initialized and decode as
    /// `(epoch 0, no write)`, which must never match a live epoch.
    #[inline]
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.elision_flat.fill(0);
            self.elision.clear();
            self.epoch = 1;
        }
    }
}

#[repr(align(128))]
struct Slot {
    local: UnsafeCell<Local>,
}

// SAFETY: `local` is only ever accessed by the owning thread (all &self
// methods touching it take the owner's ThreadId and are called by the
// engine on that thread).
unsafe impl Sync for Slot {}

impl Slot {
    fn new() -> Self {
        Slot {
            local: UnsafeCell::new(Local {
                log: Vec::new(),
                elision: HashMap::new(),
                elision_flat: Vec::new(),
                epoch: 0,
                seen_edge_events: 0,
                kind: TxKind::Unary,
                seq: 0,
                pending: Vec::new(),
                regular_accesses: 0,
                unary_accesses: 0,
                log_entries: 0,
            }),
        }
    }
}

/// The imprecise-cycle-detection analysis.
pub struct Icd {
    slots: Box<[Slot]>,
    regs: Arc<Registers>,
    layout: OnceLock<CellLayout>,
    /// The IDG in `Sync` mode. In `Pipelined` mode this holds a placeholder
    /// until [`Icd::drain_pipeline`] moves the real graph back in.
    graph: Mutex<Graph>,
    /// Lock-free Table-3 counters shared with the graph (wherever it lives).
    counters: Arc<GraphCounters>,
    pipeline: Option<PipelineHandle>,
    next_tx: AtomicU64,
    config: IcdConfig,
    stats: Arc<IcdStats>,
    obs: Option<Arc<PipelineObs>>,
}

impl std::fmt::Debug for Icd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Icd")
            .field("threads", &self.slots.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Icd {
    /// Creates an ICD instance for `n_threads` threads.
    ///
    /// In [`PipelineMode::Pipelined`] without a sink, detected SCCs are
    /// dropped (useful for overhead measurement only); use
    /// [`Icd::with_scc_sink`] to receive them.
    pub fn new(n_threads: usize, config: IcdConfig) -> Self {
        Self::build(n_threads, config, None, None)
    }

    /// Creates an ICD instance whose detected SCCs are delivered to `sink`
    /// on the graph-owner thread ([`PipelineMode::Pipelined`] only — in
    /// `Sync` mode the hooks return reports directly and `sink` is unused).
    pub fn with_scc_sink(n_threads: usize, config: IcdConfig, sink: SccSink) -> Self {
        Self::build(n_threads, config, Some(sink), None)
    }

    /// Like [`Icd::with_scc_sink`] with an optional observability registry
    /// shared with the rest of the checker; `None` means observability is
    /// off and the analysis runs exactly the uninstrumented code.
    pub fn with_observability(
        n_threads: usize,
        config: IcdConfig,
        sink: Option<SccSink>,
        obs: Option<Arc<PipelineObs>>,
    ) -> Self {
        Self::build(n_threads, config, sink, obs)
    }

    fn build(
        n_threads: usize,
        config: IcdConfig,
        sink: Option<SccSink>,
        obs: Option<Arc<PipelineObs>>,
    ) -> Self {
        let regs = Arc::new(Registers {
            threads: (0..n_threads).map(|_| ThreadRegs::default()).collect(),
        });
        let stats = Arc::new(IcdStats::default());
        // The graph carries its own collector pacing (counted in finishes),
        // so the pacer sits under whichever mutex or owner thread holds it.
        let graph = Graph::new().paced(config.collect_every);
        let counters = graph.counters();
        let (graph, pipeline) = match config.pipeline {
            PipelineMode::Sync => (graph, None),
            PipelineMode::Pipelined => (
                Graph::new(),
                Some(PipelineHandle::spawn(
                    graph,
                    Arc::clone(&regs),
                    Arc::clone(&stats),
                    config,
                    sink,
                    obs.clone(),
                )),
            ),
        };
        Icd {
            slots: (0..n_threads).map(|_| Slot::new()).collect(),
            regs,
            layout: OnceLock::new(),
            graph: Mutex::new(graph),
            counters,
            pipeline,
            next_tx: AtomicU64::new(1),
            config,
            stats,
            obs,
        }
    }

    /// Counts one graph op that the synchronous path creates and applies at
    /// the same program point, keeping `ops_enqueued == ops_applied`
    /// invariant across both pipeline modes.
    #[inline]
    fn observe_sync_op(&self) {
        if let Some(obs) = &self.obs {
            obs.graph.ops_enqueued.inc();
            obs.graph.ops_applied.inc();
        }
    }

    /// Run statistics.
    pub fn stats(&self) -> &IcdStats {
        &self.stats
    }

    /// Attaches the heap's cell layout, switching duplicate elision to a
    /// flat side table (call once at run start).
    pub fn attach_layout(&self, layout: CellLayout) {
        let _ = self.layout.set(layout);
    }

    /// Cross-thread IDG edges added so far (Table 3). Lock-free.
    pub fn cross_edges(&self) -> u64 {
        self.counters.cross_edges.load(Ordering::Relaxed)
    }

    /// IDG SCCs (≥ 2 transactions) detected so far (Table 3). Lock-free.
    pub fn scc_count(&self) -> u64 {
        self.counters.scc_count.load(Ordering::Relaxed)
    }

    /// `currTX(T)`.
    pub fn current_tx(&self, t: ThreadId) -> TxId {
        TxId(
            self.regs.threads[t.index()]
                .current_tx
                .load(Ordering::Acquire),
        )
    }

    /// Drains the asynchronous pipeline (no-op in `Sync` mode): waits until
    /// every enqueued operation is applied, stops the graph-owner thread
    /// (dropping the SCC sink), and moves the final graph back under this
    /// instance's mutex for post-run readers. Call only after every
    /// application thread has finished its last hook (joined). Returns the
    /// first structural op-stream error the owner hit, if any.
    pub fn drain_pipeline(&self) -> Option<PipelineError> {
        if let Some(p) = &self.pipeline {
            p.shutdown_into(&self.graph)
        } else {
            None
        }
    }

    /// Snapshot of every finished transaction with its log and the edges
    /// among them (the §5.4 "PCD-only" variant). Call after all threads
    /// have ended (and, in pipelined mode, after [`Icd::drain_pipeline`]);
    /// requires `collect_every == 0` so nothing was reclaimed.
    pub fn snapshot_all_finished(&self) -> SccReport {
        self.graph.lock().snapshot_all_finished()
    }

    /// Acquires the graph mutex on an application-thread hot path, counting
    /// the acquisition (the pipelined configuration exists to keep this at
    /// zero).
    fn lock_graph(&self) -> MutexGuard<'_, Graph> {
        self.stats.graph_locks.fetch_add(1, Ordering::Relaxed);
        self.graph.lock()
    }

    /// SAFETY: must only be called from code running on thread `t`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn local(&self, t: ThreadId) -> &mut Local {
        &mut *self.slots[t.index()].local.get()
    }

    /// Flushes thread `t`'s buffered graph ops to the owner (pipelined
    /// mode). Every public hook that can create ops calls this before
    /// returning, so tickets never linger in a private buffer.
    #[inline]
    fn flush(&self, t: ThreadId) {
        if let Some(p) = &self.pipeline {
            // SAFETY: called on thread t.
            let local = unsafe { self.local(t) };
            if !local.pending.is_empty() {
                // Swaps in a pooled buffer (capacity intact), so steady-state
                // flushes never reallocate the pending batch.
                p.send_batch(&mut local.pending);
            }
        }
    }

    /// Per-thread `(currTX, published log length)` snapshot for rare ops
    /// whose edge source is resolved by the graph owner at apply time.
    fn pos_snapshot(&self) -> PosSnapshot {
        self.regs
            .threads
            .iter()
            .map(|r| {
                (
                    r.current_tx.load(Ordering::Acquire),
                    r.log_len.load(Ordering::Acquire),
                )
            })
            .collect()
    }

    // ----- transaction lifecycle -------------------------------------------

    /// Thread start: opens the thread's first unary transaction.
    pub fn thread_begin(&self, t: ThreadId) -> Option<SccReport> {
        let report = self.begin_tx(t, TxKind::Unary);
        self.flush(t);
        // Hoist the flat elision table's allocation off the record_access
        // hot loop: in the checker flow the layout is attached before any
        // thread begins, and this runs on the owner thread (mutating the
        // slot here is safe; doing it in `attach_layout` would not be).
        if let Some(layout) = self.layout.get() {
            // SAFETY: called on thread t.
            let local = unsafe { self.local(t) };
            if local.elision_flat.is_empty() && layout.total() > 0 {
                local.elision_flat = vec![0; layout.total() as usize];
            }
        }
        report
    }

    /// Thread exit: ends the current transaction (its id stays visible as a
    /// coordination source) and folds local counters into global stats.
    pub fn thread_end(&self, t: ThreadId) -> Option<SccReport> {
        let report = self.end_current_tx(t);
        self.flush(t);
        // SAFETY: called on thread t.
        let local = unsafe { self.local(t) };
        self.stats
            .regular_accesses
            .fetch_add(local.regular_accesses, Ordering::Relaxed);
        self.stats
            .unary_accesses
            .fetch_add(local.unary_accesses, Ordering::Relaxed);
        self.stats
            .log_entries
            .fetch_add(local.log_entries, Ordering::Relaxed);
        local.regular_accesses = 0;
        local.unary_accesses = 0;
        local.log_entries = 0;
        report
    }

    /// A regular transaction rooted at `method` begins (atomic method
    /// entered from non-transactional context).
    pub fn begin_regular(&self, t: ThreadId, method: MethodId) -> Option<SccReport> {
        let report = self.end_current_tx(t);
        let r2 = self.begin_tx(t, TxKind::Regular(method));
        debug_assert!(r2.is_none(), "begin_tx after end cannot detect an SCC");
        self.flush(t);
        report
    }

    /// The regular transaction ends; a fresh unary transaction opens
    /// immediately (paper §4: "At method end, it creates a new unary
    /// transaction").
    pub fn end_regular(&self, t: ThreadId) -> Option<SccReport> {
        let report = self.end_current_tx(t);
        let r2 = self.begin_tx(t, TxKind::Unary);
        debug_assert!(r2.is_none());
        self.flush(t);
        report
    }

    fn begin_tx(&self, t: ThreadId, kind: TxKind) -> Option<SccReport> {
        let regs = &self.regs.threads[t.index()];
        let id = TxId(self.next_tx.fetch_add(1, Ordering::Relaxed));
        // SAFETY: called on thread t.
        let local = unsafe { self.local(t) };
        local.seq += 1;
        local.kind = kind;
        local.bump_epoch();
        local.seen_edge_events = regs.edge_events.load(Ordering::Acquire);
        debug_assert!(local.log.is_empty(), "log must be drained at tx end");
        match kind {
            TxKind::Regular(_) => {
                self.stats.regular_txs.fetch_add(1, Ordering::Relaxed);
            }
            TxKind::Unary => {
                self.stats.unary_txs.fetch_add(1, Ordering::Relaxed);
            }
        }
        let prev = TxId(regs.current_tx.load(Ordering::Acquire));
        if let Some(p) = &self.pipeline {
            let ticket = p.ticket();
            local.pending.push((
                ticket,
                GraphOp::Insert {
                    id,
                    thread: t,
                    kind,
                    seq: local.seq,
                    prev,
                },
            ));
        } else {
            self.observe_sync_op();
            let mut graph = self.lock_graph();
            graph.insert(id, t, kind, local.seq);
            if prev.is_some() {
                let src_pos = graph.node(prev).map_or(0, |n| n.final_len);
                graph.add_edge(Edge {
                    src: prev,
                    src_pos,
                    dst: id,
                    dst_pos: 0,
                    kind: EdgeKind::Intra,
                });
            }
        }
        regs.log_len.store(0, Ordering::Release);
        regs.current_tx.store(id.0, Ordering::Release);
        None
    }

    /// Ends the current transaction: moves its log into the graph, runs SCC
    /// detection from it (§3.2.3), and periodically runs the collector. In
    /// pipelined mode both happen on the graph owner and this returns
    /// `None`; reports reach the sink instead.
    fn end_current_tx(&self, t: ThreadId) -> Option<SccReport> {
        let id = TxId(
            self.regs.threads[t.index()]
                .current_tx
                .load(Ordering::Acquire),
        );
        if !id.is_some() {
            return None;
        }
        // SAFETY: called on thread t.
        let local = unsafe { self.local(t) };
        let log = std::mem::take(&mut local.log);
        if let Some(p) = &self.pipeline {
            let ticket = p.ticket();
            local.pending.push((ticket, GraphOp::Finish { id, log }));
            return None;
        }
        self.observe_sync_op();
        let mut graph = self.lock_graph();
        // Sync mode runs in-process with the hooks, so a malformed finish
        // here is a checker bug, not a recoverable op-stream failure.
        graph.finish(id, log).expect("finishing unknown tx");
        let report = if self.config.detect_sccs {
            let t0 = self.obs.as_ref().and_then(|o| o.clock());
            let probe = graph.scc_probe(id);
            if let Some(obs) = &self.obs {
                obs.graph.scc_latency.record_elapsed(t0);
                match &probe {
                    SccProbe::Skipped => obs.graph.sccs_skipped_trivial.inc(),
                    SccProbe::NoCycle => {}
                    SccProbe::Cycle(r) => {
                        obs.graph.sccs_detected.inc();
                        obs.trace(Stage::Graph, EventKind::SccDetected, r.len() as u64);
                    }
                }
            }
            match probe {
                SccProbe::Cycle(report) => Some(report),
                SccProbe::Skipped | SccProbe::NoCycle => None,
            }
        } else {
            None
        };
        // The finish above ticked the graph's pacer; a due pass runs in the
        // same critical section, so pacing and roots are read under the
        // lock every mutation takes.
        if graph.collect_due() {
            self.run_collector(&mut graph);
        }
        report
    }

    /// One synchronous collector pass, rooted at every thread's registers.
    #[cold]
    fn run_collector(&self, graph: &mut Graph) {
        let roots = self.regs.threads.iter().flat_map(|r| {
            [
                TxId(r.current_tx.load(Ordering::Acquire)),
                TxId(r.last_rd_ex.load(Ordering::Acquire)),
            ]
        });
        crate::pipeline::collect_pass(graph, roots, &self.stats, self.obs.as_deref());
    }

    // ----- access instrumentation ------------------------------------------

    /// Fused-kernel probe: `true` when no new edge has been attached to
    /// `t`'s current transaction since its last access, i.e. when
    /// [`Icd::before_access`] would be a no-op. The checker's fast path
    /// folds this single load-and-compare into its combined per-access
    /// check and skips `before_access` entirely on `true`.
    #[inline]
    pub fn edge_events_unchanged(&self, t: ThreadId) -> bool {
        let events = self.regs.threads[t.index()]
            .edge_events
            .load(Ordering::Acquire);
        // SAFETY: called on thread t.
        let local = unsafe { self.local(t) };
        events == local.seen_edge_events
    }

    /// Must run before each access's Octet barrier: observes edges attached
    /// to the current transaction since the last access, bumping the elision
    /// epoch and — in unary context — cutting the merged unary transaction
    /// (paper §4's merging rule).
    #[inline]
    pub fn before_access(&self, t: ThreadId) -> Option<SccReport> {
        let regs = &self.regs.threads[t.index()];
        let events = regs.edge_events.load(Ordering::Acquire);
        // SAFETY: called on thread t.
        let local = unsafe { self.local(t) };
        if events == local.seen_edge_events {
            return None;
        }
        local.seen_edge_events = events;
        local.bump_epoch();
        if local.kind == TxKind::Unary {
            let report = self.end_current_tx(t);
            let r2 = self.begin_tx(t, TxKind::Unary);
            debug_assert!(r2.is_none());
            self.flush(t);
            report
        } else {
            None
        }
    }

    /// Records the access in the current transaction's read/write log
    /// (after the Octet barrier). `force` bypasses duplicate elision — set
    /// when the barrier reported a possible dependence, so the dependence's
    /// sink entry lands at a log position after the edge.
    #[inline]
    pub fn record_access(
        &self,
        t: ThreadId,
        obj: ObjId,
        cell: CellId,
        is_write: bool,
        is_sync: bool,
        force: bool,
    ) {
        let regs = &self.regs.threads[t.index()];
        // SAFETY: called on thread t.
        let local = unsafe { self.local(t) };
        match local.kind {
            TxKind::Regular(_) => local.regular_accesses += 1,
            TxKind::Unary => local.unary_accesses += 1,
        }
        if !self.config.logging {
            return;
        }
        let epoch = local.epoch;
        // Hot branch: the flat table exists (allocated at thread begin when
        // a layout is attached), so the probe is one load, one compare and
        // at most one core-local store — the lazy-init check is hoisted to
        // the cold fallback below.
        let grows = if !local.elision_flat.is_empty() {
            let layout = self
                .layout
                .get()
                .expect("a flat elision table implies an attached layout");
            let slot_idx = layout.slot(obj, cell) as usize;
            let packed = local.elision_flat[slot_idx];
            let (e, wrote) = ((packed >> 1) as u32, packed & 1 != 0);
            if !force && e == epoch && (wrote || !is_write) {
                false // already covered this epoch
            } else {
                local.elision_flat[slot_idx] =
                    (u64::from(epoch) << 1) | u64::from(is_write || (wrote && e == epoch));
                true
            }
        } else {
            Self::elide_cold(self.layout.get(), local, obj, cell, is_write, force, epoch)
        };
        // Single tail: the shared log-length atomic is written only when the
        // log actually grows, so elided accesses (the common case in tight
        // loops) never touch it and stay core-local.
        if !grows {
            return;
        }
        local.log.push(LogEntry::new(obj, cell, is_write, is_sync));
        local.log_entries += 1;
        regs.log_len
            .store(local.log.len() as u32, Ordering::Release);
    }

    /// Out-of-line elision fallback for threads without a flat table: first
    /// access after a late-attached layout (allocates the table), or
    /// layout-free standalone use (HashMap keyed by `(obj, cell)`).
    #[cold]
    fn elide_cold(
        layout: Option<&CellLayout>,
        local: &mut Local,
        obj: ObjId,
        cell: CellId,
        is_write: bool,
        force: bool,
        epoch: u32,
    ) -> bool {
        if let Some(layout) = layout {
            if layout.total() > 0 {
                local.elision_flat = vec![0; layout.total() as usize];
                // Freshly zeroed slots decode as (epoch 0, no write) and a
                // live epoch is never 0, so this access always logs.
                local.elision_flat[layout.slot(obj, cell) as usize] =
                    (u64::from(epoch) << 1) | u64::from(is_write);
                return true;
            }
        }
        let covered = !force
            && local
                .elision
                .get(&(obj, cell))
                .is_some_and(|&(e, wrote)| e == epoch && (wrote || !is_write));
        if covered {
            false
        } else {
            local.elision.insert((obj, cell), (epoch, is_write));
            true
        }
    }

    // ----- Figure 4: edge-creation procedures ------------------------------

    /// `handleConflictingTransition` (Figure 4): adds an IDG edge from
    /// `currTX(resp)` to `currTX(req)`. Runs on the responder at its safe
    /// point (explicit protocol) or on the requester while holding the
    /// blocked responder (implicit protocol) — either way both ends are
    /// stable.
    pub fn handle_conflicting(&self, resp: ThreadId, req: ThreadId) {
        let src = self.current_tx(resp);
        let dst = self.current_tx(req);
        if !src.is_some() || !dst.is_some() || src == dst {
            return;
        }
        let src_pos = self.regs.threads[resp.index()]
            .log_len
            .load(Ordering::Acquire);
        let dst_pos = self.regs.threads[req.index()]
            .log_len
            .load(Ordering::Acquire);
        if let Some(p) = &self.pipeline {
            // Direct send: this may run on either coordination participant,
            // so it must not touch a thread-local buffer.
            p.send_one(GraphOp::Cross {
                src,
                src_pos,
                dst,
                dst_pos,
            });
        } else {
            self.observe_sync_op();
            self.lock_graph().add_edge(Edge {
                src,
                src_pos,
                dst,
                dst_pos,
                kind: EdgeKind::Cross,
            });
        }
        self.note_edge_event(resp, src);
        self.note_edge_event(req, dst);
    }

    /// [`Icd::handle_conflicting`] for a coalesced run of slow-path requests
    /// answered at one Octet safe point: the same per-request semantics
    /// (tickets drawn in request order, edge events noted per request), but
    /// all Cross ops ride in one pooled batch over one transport send
    /// instead of one send per request.
    pub fn handle_conflicting_all(&self, resp: ThreadId, reqs: &[ThreadId]) {
        let Some(p) = &self.pipeline else {
            for &req in reqs {
                self.handle_conflicting(resp, req);
            }
            return;
        };
        if let [req] = reqs {
            self.handle_conflicting(resp, *req);
            return;
        }
        let mut batch = p.take_batch();
        for &req in reqs {
            let src = self.current_tx(resp);
            let dst = self.current_tx(req);
            if !src.is_some() || !dst.is_some() || src == dst {
                continue;
            }
            let src_pos = self.regs.threads[resp.index()]
                .log_len
                .load(Ordering::Acquire);
            let dst_pos = self.regs.threads[req.index()]
                .log_len
                .load(Ordering::Acquire);
            batch.push((
                p.ticket(),
                GraphOp::Cross {
                    src,
                    src_pos,
                    dst,
                    dst_pos,
                },
            ));
            self.note_edge_event(resp, src);
            self.note_edge_event(req, dst);
        }
        p.send_taken(batch);
    }

    /// `handleUpgradingTransition` (Figure 4): on `RdEx T1 → RdSh`, adds
    /// edges `T1.lastRdEx → currTX(t)` and `gLastRdSh → currTX(t)`, then
    /// updates `gLastRdSh` — ordering all transitions to RdSh.
    pub fn handle_upgrading(&self, t: ThreadId, prev_owner: ThreadId) {
        let cur = self.current_tx(t);
        if !cur.is_some() {
            return;
        }
        let dst_pos = self.regs.threads[t.index()].log_len.load(Ordering::Acquire);
        let last_rd_ex = TxId(
            self.regs.threads[prev_owner.index()]
                .last_rd_ex
                .load(Ordering::Acquire),
        );
        if let Some(p) = &self.pipeline {
            p.send_one(GraphOp::Upgrade {
                cur,
                dst_pos,
                last_rd_ex,
                snap: self.pos_snapshot(),
            });
        } else {
            self.observe_sync_op();
            let mut graph = self.lock_graph();
            if last_rd_ex.is_some() && last_rd_ex != cur {
                let src_pos = self.edge_src_pos(&graph, prev_owner, last_rd_ex);
                graph.add_edge(Edge {
                    src: last_rd_ex,
                    src_pos,
                    dst: cur,
                    dst_pos,
                    kind: EdgeKind::Cross,
                });
            }
            let g = graph.g_last_rd_sh;
            if g.is_some() && g != cur {
                let src_pos = self.any_src_pos(&graph, g);
                graph.add_edge(Edge {
                    src: g,
                    src_pos,
                    dst: cur,
                    dst_pos,
                    kind: EdgeKind::Cross,
                });
            }
            graph.g_last_rd_sh = cur;
        }
        if last_rd_ex.is_some() {
            self.note_edge_event(prev_owner, last_rd_ex);
        }
        self.note_edge_event(t, cur);
    }

    /// `handleFenceTransition` (Figure 4): adds `gLastRdSh → currTX(t)`.
    pub fn handle_fence(&self, t: ThreadId) {
        let cur = self.current_tx(t);
        if !cur.is_some() {
            return;
        }
        let dst_pos = self.regs.threads[t.index()].log_len.load(Ordering::Acquire);
        if let Some(p) = &self.pipeline {
            p.send_one(GraphOp::Fence {
                cur,
                dst_pos,
                snap: self.pos_snapshot(),
            });
        } else {
            self.observe_sync_op();
            let mut graph = self.lock_graph();
            let g = graph.g_last_rd_sh;
            if g.is_some() && g != cur {
                let src_pos = self.any_src_pos(&graph, g);
                graph.add_edge(Edge {
                    src: g,
                    src_pos,
                    dst: cur,
                    dst_pos,
                    kind: EdgeKind::Cross,
                });
            }
        }
        self.note_edge_event(t, cur);
    }

    /// Records that `t`'s current transaction moved an object into
    /// RdEx-`t` (updates `t.lastRdEx`; Figure 4's conflicting handler).
    pub fn note_rdex_claim(&self, t: ThreadId) {
        let regs = &self.regs.threads[t.index()];
        let cur = regs.current_tx.load(Ordering::Acquire);
        regs.last_rd_ex.store(cur, Ordering::Release);
    }

    /// Bumps the thread's edge counter if `tx` is still its current
    /// transaction (drives unary cutting and elision epochs).
    fn note_edge_event(&self, t: ThreadId, tx: TxId) {
        let regs = &self.regs.threads[t.index()];
        if regs.current_tx.load(Ordering::Acquire) == tx.0 {
            regs.edge_events.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Log position to use for an edge out of `tx` owned by thread `owner`:
    /// the live published length if `tx` is still current, else its final
    /// length.
    fn edge_src_pos(&self, graph: &Graph, owner: ThreadId, tx: TxId) -> u32 {
        let regs = &self.regs.threads[owner.index()];
        if regs.current_tx.load(Ordering::Acquire) == tx.0 {
            regs.log_len.load(Ordering::Acquire)
        } else {
            graph.node(tx).map_or(0, |n| n.final_len)
        }
    }

    /// Like [`Self::edge_src_pos`] when the owning thread is not known
    /// statically (the `gLastRdSh` register).
    fn any_src_pos(&self, graph: &Graph, tx: TxId) -> u32 {
        match graph.node(tx) {
            Some(node) => self.edge_src_pos(graph, node.thread, tx),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const O: ObjId = ObjId(0);
    const M: MethodId = MethodId(0);

    fn icd(n: usize) -> Icd {
        let icd = Icd::new(n, IcdConfig::default());
        for i in 0..n {
            icd.thread_begin(ThreadId::from_index(i));
        }
        icd
    }

    #[test]
    fn threads_open_unary_transactions_at_start() {
        let icd = icd(2);
        assert!(icd.current_tx(T0).is_some());
        assert_ne!(icd.current_tx(T0), icd.current_tx(T1));
        assert_eq!(icd.stats().unary_txs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn regular_tx_lifecycle_counts_and_chains() {
        let icd = icd(1);
        let unary = icd.current_tx(T0);
        icd.begin_regular(T0, M);
        let reg = icd.current_tx(T0);
        assert_ne!(unary, reg);
        icd.end_regular(T0);
        let unary2 = icd.current_tx(T0);
        assert_ne!(reg, unary2);
        assert_eq!(icd.stats().regular_txs.load(Ordering::Relaxed), 1);
        assert_eq!(icd.stats().unary_txs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn duplicate_reads_are_elided_but_writes_after_reads_are_not() {
        let icd = icd(1);
        icd.record_access(T0, O, 0, false, false, false);
        icd.record_access(T0, O, 0, false, false, false); // elided
        icd.record_access(T0, O, 0, true, false, false); // write after read: logged
        icd.record_access(T0, O, 0, false, false, false); // read after write: elided
        icd.record_access(T0, O, 1, false, false, false); // different cell: logged
        assert_eq!(icd.stats().unary_txs.load(Ordering::Relaxed), 1);
        // Log length published: 3 entries.
        assert_eq!(icd.regs.threads[0].log_len.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn force_bypasses_elision() {
        let icd = icd(1);
        icd.record_access(T0, O, 0, false, false, false);
        icd.record_access(T0, O, 0, false, false, true); // forced: logged again
        assert_eq!(icd.regs.threads[0].log_len.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn new_transaction_resets_elision_epoch() {
        let icd = icd(1);
        icd.record_access(T0, O, 0, false, false, false);
        icd.begin_regular(T0, M);
        icd.record_access(T0, O, 0, false, false, false); // new tx: logged
        assert_eq!(icd.regs.threads[0].log_len.load(Ordering::Relaxed), 1);
    }

    /// Drives the elision epoch through a full u32 wrap and back to `stale`,
    /// the epoch a table entry was stamped with earlier. Without the wrap
    /// handling in `Local::bump_epoch` that entry would spuriously elide the
    /// next access to its cell and silently drop a log entry.
    fn wrap_epoch_back_to(icd: &Icd, stale: u32) {
        // SAFETY: the test runs on the thread owning slot 0.
        unsafe { icd.local(T0) }.epoch = u32::MAX;
        while unsafe { icd.local(T0) }.epoch != stale {
            icd.begin_regular(T0, M); // one epoch bump per begin
        }
    }

    #[test]
    fn epoch_wrap_clears_hash_elision_table() {
        let icd = icd(1);
        icd.record_access(T0, O, 0, false, false, false);
        let stale = unsafe { icd.local(T0) }.epoch;
        wrap_epoch_back_to(&icd, stale);
        assert!(
            unsafe { icd.local(T0) }.elision.is_empty(),
            "wrap must clear the hash elision table"
        );
        icd.record_access(T0, O, 0, false, false, false);
        assert_eq!(
            icd.regs.threads[0].log_len.load(Ordering::Relaxed),
            1,
            "a stale pre-wrap elision entry must not elide this access"
        );
    }

    #[test]
    fn epoch_wrap_clears_flat_elision_table() {
        use dc_runtime::heap::{Heap, ObjKind};
        let icd = icd(1);
        let heap = Heap::new(&[ObjKind::Plain { fields: 2 }], 1);
        icd.attach_layout(CellLayout::new(&heap));
        icd.record_access(T0, O, 0, false, false, false);
        let stale = unsafe { icd.local(T0) }.epoch;
        wrap_epoch_back_to(&icd, stale);
        icd.record_access(T0, O, 0, false, false, false);
        assert_eq!(
            icd.regs.threads[0].log_len.load(Ordering::Relaxed),
            1,
            "a stale pre-wrap flat slot must not elide this access"
        );
    }

    #[test]
    fn conflicting_edge_cuts_merged_unary_transaction() {
        let icd = icd(2);
        icd.record_access(T0, O, 0, true, false, false);
        let tx_before = icd.current_tx(T0);
        // T1's conflicting access: edge T0's tx → T1's tx.
        icd.handle_conflicting(T0, T1);
        // T0's next access observes the edge and cuts its unary tx.
        assert!(icd.before_access(T0).is_none(), "path, not a cycle");
        assert_ne!(icd.current_tx(T0), tx_before);
        // T1's next access also observes its incoming edge and cuts.
        let t1_before = icd.current_tx(T1);
        icd.before_access(T1);
        assert_ne!(icd.current_tx(T1), t1_before);
    }

    #[test]
    fn regular_transactions_are_not_cut_by_edges() {
        let icd = icd(2);
        icd.begin_regular(T0, M);
        let reg = icd.current_tx(T0);
        icd.handle_conflicting(T0, T1);
        icd.before_access(T0);
        assert_eq!(icd.current_tx(T0), reg, "regular tx must survive edges");
    }

    #[test]
    fn mutual_conflicts_form_an_scc_reported_once() {
        let icd = icd(2);
        icd.begin_regular(T0, M);
        icd.begin_regular(T1, MethodId(1));
        icd.record_access(T0, O, 0, true, false, false);
        // T1 writes O: conflicting, edge T0→T1.
        icd.handle_conflicting(T0, T1);
        icd.record_access(T1, O, 0, true, false, true);
        // T0 reads back: edge T1→T0.
        icd.handle_conflicting(T1, T0);
        icd.record_access(T0, O, 0, false, false, true);
        // End T0: T1 still unfinished → no SCC yet.
        assert!(icd.end_regular(T0).is_none());
        // End T1: SCC of the two regular transactions.
        let scc = icd.end_regular(T1).expect("cycle detected");
        assert_eq!(scc.len(), 2);
        assert!(scc.txs.iter().all(|t| t.kind.is_regular()));
        assert_eq!(icd.scc_count(), 1);
        assert_eq!(icd.cross_edges(), 2);
    }

    #[test]
    fn lastrdex_is_tracked_per_thread() {
        let icd = icd(2);
        icd.note_rdex_claim(T1);
        assert_eq!(
            TxId(icd.regs.threads[1].last_rd_ex.load(Ordering::Relaxed)),
            icd.current_tx(T1)
        );
        assert_eq!(icd.regs.threads[0].last_rd_ex.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn upgrading_adds_edges_from_lastrdex_and_glastrdsh() {
        let icd = icd(3);
        // T0 claims RdEx in its current tx.
        icd.note_rdex_claim(T0);
        let t0_tx = icd.current_tx(T0);
        // T1 upgrades the object to RdSh: edge T0.lastRdEx → currTX(T1).
        icd.handle_upgrading(T1, T0);
        let t1_tx = icd.current_tx(T1);
        {
            let g = icd.graph.lock();
            let out: Vec<_> = g.node(t0_tx).unwrap().out.iter().map(|e| e.dst).collect();
            assert!(out.contains(&t1_tx));
            assert_eq!(g.g_last_rd_sh, t1_tx);
        }
        // T2 takes a fence: edge gLastRdSh (= T1's tx) → currTX(T2).
        icd.handle_fence(T2_ID);
        let t2_tx = icd.current_tx(T2_ID);
        let g = icd.graph.lock();
        let out: Vec<_> = g.node(t1_tx).unwrap().out.iter().map(|e| e.dst).collect();
        assert!(out.contains(&t2_tx));
    }

    const T2_ID: ThreadId = ThreadId(2);

    #[test]
    fn edge_positions_snapshot_log_lengths() {
        let icd = icd(2);
        icd.record_access(T0, O, 0, true, false, false);
        icd.record_access(T0, ObjId(1), 0, true, false, false);
        icd.handle_conflicting(T0, T1);
        let g = icd.graph.lock();
        let t0_tx = TxId(icd.regs.threads[0].current_tx.load(Ordering::Relaxed));
        let e = g.node(t0_tx).unwrap().out[0];
        assert_eq!(e.src_pos, 2, "source logged two entries before the edge");
        assert_eq!(e.dst_pos, 0, "sink logged nothing yet");
    }

    #[test]
    fn collector_runs_and_reclaims() {
        let icd = Icd::new(
            1,
            IcdConfig {
                logging: false,
                collect_every: 8,
                ..IcdConfig::default()
            },
        );
        icd.thread_begin(T0);
        for i in 0..64 {
            icd.begin_regular(T0, MethodId(i));
            icd.end_regular(T0);
        }
        assert!(
            icd.stats().collected_txs.load(Ordering::Relaxed) > 0,
            "isolated finished transactions must be reclaimed"
        );
    }

    #[test]
    fn logging_off_records_counts_but_no_entries() {
        let icd = Icd::new(
            1,
            IcdConfig {
                logging: false,
                collect_every: 0,
                ..IcdConfig::default()
            },
        );
        icd.thread_begin(T0);
        icd.record_access(T0, O, 0, true, false, false);
        icd.thread_end(T0);
        assert_eq!(icd.stats().unary_accesses.load(Ordering::Relaxed), 1);
        assert_eq!(icd.stats().log_entries.load(Ordering::Relaxed), 0);
    }

    // ----- pipelined mode ---------------------------------------------------

    fn pipelined_config() -> IcdConfig {
        IcdConfig {
            pipeline: PipelineMode::Pipelined,
            ..IcdConfig::default()
        }
    }

    #[test]
    fn pipelined_delivers_sccs_via_sink_without_app_thread_graph_locks() {
        let reports: Arc<Mutex<Vec<SccReport>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_reports = Arc::clone(&reports);
        let icd = Icd::with_scc_sink(
            2,
            pipelined_config(),
            Box::new(move |r| sink_reports.lock().push(r)),
        );
        icd.thread_begin(T0);
        icd.thread_begin(T1);
        icd.begin_regular(T0, M);
        icd.begin_regular(T1, MethodId(1));
        icd.record_access(T0, O, 0, true, false, false);
        icd.handle_conflicting(T0, T1);
        icd.record_access(T1, O, 0, true, false, true);
        icd.handle_conflicting(T1, T0);
        icd.record_access(T0, O, 0, false, false, true);
        assert!(icd.end_regular(T0).is_none(), "reports go to the sink");
        assert!(icd.end_regular(T1).is_none(), "reports go to the sink");
        icd.thread_end(T0);
        icd.thread_end(T1);
        let _ = icd.drain_pipeline();
        let reports = reports.lock();
        assert_eq!(reports.len(), 1, "one SCC, reported once");
        assert_eq!(reports[0].len(), 2);
        assert_eq!(icd.scc_count(), 1);
        assert_eq!(icd.cross_edges(), 2);
        assert_eq!(
            icd.stats().graph_locks.load(Ordering::Relaxed),
            0,
            "pipelined application threads must never take the graph lock"
        );
    }

    #[test]
    fn sync_mode_counts_app_thread_graph_locks() {
        let icd = icd(1);
        icd.begin_regular(T0, M);
        icd.end_regular(T0);
        assert!(icd.stats().graph_locks.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn drained_graph_is_visible_to_post_run_readers() {
        let icd = Icd::new(
            1,
            IcdConfig {
                collect_every: 0,
                ..pipelined_config()
            },
        );
        icd.thread_begin(T0);
        icd.begin_regular(T0, M);
        icd.record_access(T0, O, 0, true, false, false);
        icd.end_regular(T0);
        icd.thread_end(T0);
        let _ = icd.drain_pipeline();
        let snap = icd.snapshot_all_finished();
        assert!(
            snap.txs
                .iter()
                .any(|t| t.kind.is_regular() && t.log.len() == 1),
            "the drained graph holds the finished regular tx and its log"
        );
        // Repeated drains are a no-op.
        let _ = icd.drain_pipeline();
    }

    #[test]
    fn pipelined_upgrade_and_fence_resolve_on_the_owner() {
        let icd = Icd::new(3, pipelined_config());
        for i in 0..3 {
            icd.thread_begin(ThreadId::from_index(i));
        }
        icd.note_rdex_claim(T0);
        let t0_tx = icd.current_tx(T0);
        icd.handle_upgrading(T1, T0);
        let t1_tx = icd.current_tx(T1);
        icd.handle_fence(T2_ID);
        let t2_tx = icd.current_tx(T2_ID);
        for i in 0..3 {
            icd.thread_end(ThreadId::from_index(i));
        }
        let _ = icd.drain_pipeline();
        let g = icd.graph.lock();
        let t0_out: Vec<_> = g.node(t0_tx).unwrap().out.iter().map(|e| e.dst).collect();
        assert!(t0_out.contains(&t1_tx), "lastRdEx edge applied by owner");
        let t1_out: Vec<_> = g.node(t1_tx).unwrap().out.iter().map(|e| e.dst).collect();
        assert!(t1_out.contains(&t2_tx), "gLastRdSh fence edge applied");
        assert_eq!(g.g_last_rd_sh, t1_tx);
    }

    /// Regression for `resolve_src_pos`: an Upgrade whose source thread sits
    /// at the *highest* register index must resolve the source's live
    /// (snapshot) log length, not a short-snapshot fallback and not the
    /// final length the source reaches later.
    #[test]
    fn pipelined_upgrade_resolves_live_source_at_highest_thread_index() {
        let icd = Icd::new(
            3,
            IcdConfig {
                collect_every: 0,
                ..pipelined_config()
            },
        );
        for i in 0..3 {
            icd.thread_begin(ThreadId::from_index(i));
        }
        // T2 (highest index) logs two entries and claims RdEx in its
        // still-live current transaction.
        icd.record_access(T2_ID, O, 0, true, false, false);
        icd.record_access(T2_ID, O, 1, true, false, false);
        icd.note_rdex_claim(T2_ID);
        let t2_tx = icd.current_tx(T2_ID);
        // T0 upgrades: snapshot sees T2 live at length 2.
        icd.handle_upgrading(T0, T2_ID);
        let t0_tx = icd.current_tx(T0);
        // T2 keeps logging before it ends, so its final length differs from
        // the snapshot length.
        icd.record_access(T2_ID, O, 2, true, false, false);
        for i in 0..3 {
            icd.thread_end(ThreadId::from_index(i));
        }
        let _ = icd.drain_pipeline();
        let g = icd.graph.lock();
        assert_eq!(g.node(t2_tx).unwrap().final_len, 3);
        let edge = g
            .node(t2_tx)
            .unwrap()
            .out
            .iter()
            .find(|e| e.dst == t0_tx)
            .expect("upgrade edge applied");
        assert_eq!(
            edge.src_pos, 2,
            "edge out of a live source uses its snapshot position"
        );
    }

    /// A coalesced safe-point drain produces exactly the edges the
    /// per-request path would, in the same request order.
    #[test]
    fn coalesced_conflicting_run_matches_individual_sends() {
        let run = |coalesced: bool| {
            let icd = Icd::new(3, pipelined_config());
            for i in 0..3 {
                icd.thread_begin(ThreadId::from_index(i));
            }
            icd.record_access(T0, O, 0, true, false, false);
            if coalesced {
                icd.handle_conflicting_all(T0, &[T1, T2_ID]);
            } else {
                icd.handle_conflicting(T0, T1);
                icd.handle_conflicting(T0, T2_ID);
            }
            let t0_tx = icd.current_tx(T0);
            let dsts = [icd.current_tx(T1), icd.current_tx(T2_ID)];
            for i in 0..3 {
                icd.thread_end(ThreadId::from_index(i));
            }
            let _ = icd.drain_pipeline();
            let g = icd.graph.lock();
            let out: Vec<_> = g
                .node(t0_tx)
                .unwrap()
                .out
                .iter()
                .map(|e| (e.dst, e.src_pos, e.dst_pos))
                .collect();
            (out, dsts, icd.cross_edges())
        };
        let (solo_edges, solo_dsts, solo_cross) = run(false);
        let (batch_edges, batch_dsts, batch_cross) = run(true);
        assert_eq!(solo_dsts, batch_dsts);
        assert_eq!(solo_edges, batch_edges, "same edges in the same order");
        assert_eq!(solo_cross, batch_cross);
        assert_eq!(batch_cross, 2);
    }
}
