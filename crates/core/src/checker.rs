//! The DoubleChecker [`Checker`]: Octet + ICD (+ logging) + PCD composed
//! into one analysis, configurable into every mode the paper evaluates.
//!
//! * **Single-run mode** — ICD with read/write logging; every ICD SCC is
//!   handed to PCD in the same run. Fully sound and precise (§3.1).
//! * **First run of multi-run mode** — ICD without logging or PCD; collects
//!   the *static transaction information* (methods of regular transactions
//!   in imprecise cycles + whether any unary transaction was in a cycle).
//! * **Second run of multi-run mode** — like single-run, but instruments
//!   only the transactions named by the first run's static information.
//! * **PCD-only variant** (§5.4) — ICD's cycle detection is bypassed as a
//!   filter: PCD processes every executed transaction at run end.

use crate::report::{DcStats, StaticTxInfo};
use dc_icd::{Icd, IcdConfig, PipelineError, PipelineMode, SccReport, SccSink};
use dc_obs::{EventKind, ObsLevel, PipelineObs, PipelineReport, Stage, TraceEvent};
use dc_octet::{BarrierOutcome, CoordinationMode, OctetState, Protocol, TransitionSink};
use dc_pcd::{replay_scc, ReplayPool, ReplayStats, Violation};
use dc_runtime::checker::Checker;
use dc_runtime::heap::Heap;
use dc_runtime::ids::{AccessKind, CellId, MethodId, ObjId, ThreadId, SYNC_CELL};
use dc_runtime::spec::{AtomicitySpec, EnterOutcome, ExitOutcome, TxFilter, TxTracker};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Configuration of a DoubleChecker instance.
#[derive(Clone, Debug)]
pub struct DcConfig {
    /// Record read/write logs (off in the first run of multi-run mode).
    pub logging: bool,
    /// Hand ICD SCCs to PCD in this run.
    pub run_pcd: bool,
    /// Run PCD over *all* transactions at run end (§5.4 PCD-only variant;
    /// forces `collect_every = 0` behaviour).
    pub pcd_only: bool,
    /// Which transactions to instrument.
    pub filter: TxFilter,
    /// Instrument array accesses (off by default, matching the paper).
    pub instrument_arrays: bool,
    /// Detect SCCs in the IDG (disabled only for the §5.4 array-overhead
    /// comparison).
    pub detect_cycles: bool,
    /// Transaction-collector cadence (0 disables).
    pub collect_every: u32,
    /// Octet coordination mode: `Threaded` under the real engine,
    /// `Immediate` under the deterministic engine.
    pub coordination: CoordinationMode,
    /// Run graph maintenance, SCC detection, and PCD replay asynchronously:
    /// application threads enqueue graph operations for a dedicated
    /// graph-owner thread, and SCC reports go to a small PCD replay pool.
    /// Off by default (the deterministic engine and the interleaving tests
    /// use the synchronous path).
    pub pipelined: bool,
    /// How much the pipeline observability layer records. `Off` (the
    /// default) compiles to a single pointer test per instrumentation site;
    /// no level changes checker results.
    pub observability: ObsLevel,
    /// Octet's per-thread ownership inline cache (hit = no state-word
    /// load). `false` restores the exact uncached barrier — the oracle for
    /// the cache's safe-point argument (§3.2.1). On by default.
    pub barrier_cache: bool,
}

/// How pipelined-mode graph ops reach the owner thread. The ring is the
/// only transport; only `perfbench/` still names this enum.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpTransport {
    /// The bounded MPSC ring.
    #[default]
    Ring,
}

impl DcConfig {
    /// Single-run mode: ICD + logging + PCD, everything instrumented.
    pub fn single_run(coordination: CoordinationMode) -> Self {
        DcConfig {
            logging: true,
            run_pcd: true,
            pcd_only: false,
            filter: TxFilter::all(),
            instrument_arrays: false,
            detect_cycles: true,
            collect_every: 128,
            coordination,
            pipelined: false,
            observability: ObsLevel::Off,
            barrier_cache: true,
        }
    }

    /// Returns this configuration with the asynchronous analysis pipeline
    /// switched on or off.
    pub fn with_pipelined(mut self, pipelined: bool) -> Self {
        self.pipelined = pipelined;
        self
    }

    /// Returns this configuration with the given observability level.
    pub fn with_observability(mut self, level: ObsLevel) -> Self {
        self.observability = level;
        self
    }

    /// Identity: the ring is the only op transport. Only `perfbench/`
    /// still calls this.
    #[doc(hidden)]
    pub fn with_op_transport(self, _transport: OpTransport) -> Self {
        self
    }

    /// Identity for `shards == 1`: the IDG has exactly one owner. Only
    /// `perfbench/` still calls this.
    ///
    /// # Panics
    ///
    /// Panics unless `shards == 1`.
    #[doc(hidden)]
    pub fn with_shards(self, shards: u32) -> Self {
        assert_eq!(
            shards, 1,
            "the IDG has a single owner; sharding was removed"
        );
        self
    }

    /// Returns this configuration with Octet's ownership inline cache
    /// switched on or off.
    pub fn with_barrier_cache(mut self, barrier_cache: bool) -> Self {
        self.barrier_cache = barrier_cache;
        self
    }

    /// First run of multi-run mode: ICD only, no logging.
    pub fn first_run(coordination: CoordinationMode) -> Self {
        DcConfig {
            logging: false,
            run_pcd: false,
            ..Self::single_run(coordination)
        }
    }

    /// Second run of multi-run mode: like single-run restricted to the
    /// first run's static transaction information.
    pub fn second_run(info: &StaticTxInfo, coordination: CoordinationMode) -> Self {
        DcConfig {
            filter: info.to_filter(),
            ..Self::single_run(coordination)
        }
    }

    /// The §5.4 PCD-only straw man: no ICD filtering; PCD replays the whole
    /// execution at run end.
    pub fn pcd_only(coordination: CoordinationMode) -> Self {
        DcConfig {
            pcd_only: true,
            run_pcd: false, // per-SCC replay disabled; one bulk replay at end
            collect_every: 0,
            ..Self::single_run(coordination)
        }
    }
}

/// The transition sink wired into Octet: delivers coordination events to
/// ICD's `handleConflictingTransition`.
#[derive(Debug)]
pub struct IcdSink(Arc<Icd>);

impl TransitionSink for IcdSink {
    fn conflicting(&self, resp: ThreadId, req: ThreadId) {
        self.0.handle_conflicting(resp, req);
    }

    fn conflicting_all(&self, resp: ThreadId, reqs: &[ThreadId]) {
        self.0.handle_conflicting_all(resp, reqs);
    }
}

/// Per-thread instrumentation context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Context {
    /// Accesses are analyzed (inside a covered regular transaction, or
    /// unary context with unary instrumentation on).
    Instrumented,
    /// Accesses are skipped (uncovered transaction / filtered unary).
    Skipped,
}

struct Local {
    tracker: TxTracker,
    context: Context,
}

#[repr(align(128))]
struct Slot {
    local: UnsafeCell<Local>,
}

// SAFETY: `local` is only accessed by the owning thread.
unsafe impl Sync for Slot {}

/// The composed DoubleChecker analysis.
pub struct DoubleChecker {
    config: DcConfig,
    spec: AtomicitySpec,
    icd: Arc<Icd>,
    octet: OnceLock<Protocol<IcdSink>>,
    /// Per-object "conflate cells" flags (arrays etc.), sized at run_begin.
    conflated: OnceLock<Vec<bool>>,
    slots: Box<[Slot]>,
    violations: Mutex<Vec<Violation>>,
    pcd_stats: Mutex<ReplayStats>,
    /// Shared with the pipelined SCC sink (graph-owner thread), hence `Arc`.
    static_info: Arc<Mutex<StaticTxInfo>>,
    /// Shared with the pipelined SCC sink, hence `Arc`.
    sccs_to_pcd: Arc<AtomicU64>,
    /// The PCD replay pool (pipelined mode with `run_pcd`); taken at
    /// `run_end`.
    pool: Mutex<Option<ReplayPool>>,
    /// Observability registry shared with Octet, the ICD pipeline, and the
    /// replay pool; `None` when the level is `Off`.
    obs: Option<Arc<PipelineObs>>,
    /// First structural op-stream error the pipeline hit (pipelined mode
    /// only); captured at `run_end`'s drain.
    pipeline_error: Mutex<Option<PipelineError>>,
    n_threads: usize,
}

impl std::fmt::Debug for DoubleChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoubleChecker")
            .field("threads", &self.n_threads)
            .field("config", &self.config)
            .finish()
    }
}

impl DoubleChecker {
    /// Creates a DoubleChecker for `n_threads` threads under `spec`.
    pub fn new(n_threads: usize, spec: AtomicitySpec, config: DcConfig) -> Self {
        let icd_config = IcdConfig {
            logging: config.logging,
            collect_every: if config.pcd_only {
                0
            } else {
                config.collect_every
            },
            detect_sccs: config.detect_cycles && !config.pcd_only,
            pipeline: if config.pipelined {
                PipelineMode::Pipelined
            } else {
                PipelineMode::Sync
            },
        };
        let static_info = Arc::new(Mutex::new(StaticTxInfo::default()));
        let sccs_to_pcd = Arc::new(AtomicU64::new(0));
        let obs = PipelineObs::new(config.observability);
        let (icd, pool) = if config.pipelined {
            // SCCs are detected on the graph-owner thread; the sink absorbs
            // static transaction info there and forwards the report to the
            // PCD replay pool (when this run executes PCD at all).
            let pool = config.run_pcd.then(|| ReplayPool::with_obs(2, obs.clone()));
            let handle = pool.as_ref().map(ReplayPool::handle);
            let info = Arc::clone(&static_info);
            let counter = Arc::clone(&sccs_to_pcd);
            let sink: SccSink = Box::new(move |scc: SccReport| {
                info.lock().absorb_scc(&scc);
                if let Some(handle) = &handle {
                    counter.fetch_add(1, Ordering::Relaxed);
                    handle.submit(scc);
                }
            });
            (
                Icd::with_observability(n_threads, icd_config, Some(sink), obs.clone()),
                pool,
            )
        } else {
            (
                Icd::with_observability(n_threads, icd_config, None, obs.clone()),
                None,
            )
        };
        let icd = Arc::new(icd);
        DoubleChecker {
            config,
            spec,
            icd,
            octet: OnceLock::new(),
            conflated: OnceLock::new(),
            slots: (0..n_threads)
                .map(|_| Slot {
                    local: UnsafeCell::new(Local {
                        tracker: TxTracker::new(),
                        context: Context::Skipped,
                    }),
                })
                .collect(),
            violations: Mutex::new(Vec::new()),
            pcd_stats: Mutex::new(ReplayStats::default()),
            static_info,
            sccs_to_pcd,
            pool: Mutex::new(pool),
            obs,
            pipeline_error: Mutex::new(None),
            n_threads,
        }
    }

    /// The first structural op-stream error the pipeline hit, if any.
    /// `None` until `run_end` has drained the pipeline, and always `None`
    /// in synchronous mode. A `Some` means the analysis results cover only
    /// the prefix applied before the error — incomplete, not wrong.
    pub fn pipeline_error(&self) -> Option<PipelineError> {
        *self.pipeline_error.lock()
    }

    /// The pipeline observability report, or `None` when observability is
    /// off. Complete once `run_end` returned (the pipeline has drained).
    pub fn pipeline_report(&self) -> Option<PipelineReport> {
        self.obs.as_ref().map(|o| o.report())
    }

    /// The trace ring's events (oldest first). Empty below
    /// [`ObsLevel::Full`].
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.obs
            .as_ref()
            .map(|o| o.trace_events())
            .unwrap_or_default()
    }

    /// The precise violations found, deduplicated by static identity.
    pub fn violations(&self) -> Vec<Violation> {
        let all = self.violations.lock();
        let mut seen = std::collections::HashSet::new();
        all.iter()
            .filter(|v| seen.insert(v.static_key()))
            .cloned()
            .collect()
    }

    /// The static transaction information collected for multi-run mode.
    pub fn static_info(&self) -> StaticTxInfo {
        self.static_info.lock().clone()
    }

    /// Run statistics (Table 3 columns plus analysis internals).
    pub fn stats(&self) -> DcStats {
        let icd = self.icd.stats();
        DcStats {
            regular_txs: icd.regular_txs.load(Ordering::Relaxed),
            unary_txs: icd.unary_txs.load(Ordering::Relaxed),
            regular_accesses: icd.regular_accesses.load(Ordering::Relaxed),
            unary_accesses: icd.unary_accesses.load(Ordering::Relaxed),
            log_entries: icd.log_entries.load(Ordering::Relaxed),
            collected_txs: icd.collected_txs.load(Ordering::Relaxed),
            collect_passes: icd.collect_passes.load(Ordering::Relaxed),
            collect_scanned: icd.collect_scanned.load(Ordering::Relaxed),
            idg_cross_edges: self.icd.cross_edges(),
            icd_sccs: self.icd.scc_count(),
            sccs_to_pcd: self.sccs_to_pcd.load(Ordering::Relaxed),
            graph_locks: icd.graph_locks.load(Ordering::Relaxed),
            pcd: *self.pcd_stats.lock(),
        }
    }

    /// SAFETY: must only be called from code running on thread `t`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn local(&self, t: ThreadId) -> &mut Local {
        &mut *self.slots[t.index()].local.get()
    }

    fn octet(&self) -> &Protocol<IcdSink> {
        self.octet.get().expect("run_begin initializes octet")
    }

    /// Consumes an SCC report: records static info (first run) and runs PCD
    /// (single-run / second run).
    fn process_scc(&self, scc: Option<SccReport>) {
        let Some(scc) = scc else { return };
        {
            let mut info = self.static_info.lock();
            info.absorb_scc(&scc);
        }
        if self.config.run_pcd {
            self.sccs_to_pcd.fetch_add(1, Ordering::Relaxed);
            let (violations, stats) = self.replay_observed(&scc);
            if !violations.is_empty() {
                self.violations.lock().extend(violations);
            }
            self.pcd_stats.lock().merge(stats);
        }
    }

    /// Inline (synchronous-path) replay of one SCC with the same replay
    /// metrics the pool's workers record, so `submitted == completed` holds
    /// in every mode.
    fn replay_observed(&self, scc: &SccReport) -> (Vec<Violation>, ReplayStats) {
        let t0 = self.obs.as_ref().and_then(|o| o.clock());
        if let Some(obs) = &self.obs {
            obs.replay.submitted.inc();
            obs.trace(Stage::Replay, EventKind::ReplaySubmit, scc.len() as u64);
        }
        let (violations, stats) = replay_scc(scc);
        if let Some(obs) = &self.obs {
            obs.replay.latency.record_elapsed(t0);
            obs.replay.completed.inc();
            obs.replay.violations.add(violations.len() as u64);
            obs.trace(
                Stage::Replay,
                EventKind::ReplayDone,
                violations.len() as u64,
            );
        }
        (violations, stats)
    }

    /// The instrumented access body shared by plain, array, and sync hooks.
    #[inline]
    fn access(&self, t: ThreadId, obj: ObjId, cell: CellId, kind: AccessKind, is_sync: bool) {
        // SAFETY: called on thread t.
        let local = unsafe { self.local(t) };
        if local.context == Context::Skipped {
            return;
        }
        // Fused fast path: one combined per-access check. No new ICD edge
        // events (so `before_access` would be a no-op) plus an
        // ownership-inline-cache hit (so the Octet barrier would classify
        // same-state without touching the state word) feed the elision
        // probe and the log tail directly — the whole hot kernel is
        // core-local. Anything else takes the full slow kernel.
        if self.icd.edge_events_unchanged(t) && self.octet().cache_probe(t, obj, kind) {
            self.record(t, obj, cell, kind, is_sync, false);
            return;
        }
        self.access_slow(t, obj, cell, kind, is_sync);
    }

    /// The full per-access kernel: unary merging / elision-epoch
    /// maintenance, the uncached Octet barrier (the inline cache was
    /// already probed — a hit with *changed* edge events still lands here
    /// so the unary cut happens first), Figure-4 post-processing, then the
    /// log tail.
    fn access_slow(&self, t: ThreadId, obj: ObjId, cell: CellId, kind: AccessKind, is_sync: bool) {
        // Unary merging / elision-epoch maintenance; may cut the unary tx.
        let scc = self.icd.before_access(t);
        if scc.is_some() {
            self.process_scc(scc);
        }
        // Octet barrier at object granularity, then Figure-4 post-processing.
        let outcome = self.octet().access_uncached(t, obj, kind);
        let mut force_log = false;
        match outcome {
            BarrierOutcome::Same => {}
            BarrierOutcome::FirstTouch => {
                if kind == AccessKind::Read {
                    self.icd.note_rdex_claim(t);
                }
            }
            BarrierOutcome::UpgradedToWrEx => {}
            BarrierOutcome::UpgradedToRdSh { prev_owner, .. } => {
                self.icd.handle_upgrading(t, prev_owner);
                force_log = true;
            }
            BarrierOutcome::Fence { .. } => {
                self.icd.handle_fence(t);
                force_log = true;
            }
            BarrierOutcome::Conflicting { new, .. } => {
                if let OctetState::RdEx(owner) = new {
                    debug_assert_eq!(owner, t);
                    self.icd.note_rdex_claim(t);
                }
                force_log = true;
            }
        }
        self.record(t, obj, cell, kind, is_sync, force_log);
    }

    /// Log the access at field granularity (arrays conflated), shared by
    /// the fused fast path and the slow kernel.
    #[inline]
    fn record(
        &self,
        t: ThreadId,
        obj: ObjId,
        cell: CellId,
        kind: AccessKind,
        is_sync: bool,
        force_log: bool,
    ) {
        let log_cell = if self
            .conflated
            .get()
            .is_some_and(|c| c.get(obj.index()).copied().unwrap_or(false))
        {
            if is_sync {
                SYNC_CELL
            } else {
                0
            }
        } else {
            cell
        };
        self.icd
            .record_access(t, obj, log_cell, kind.is_write(), is_sync, force_log);
    }

    /// Recomputes the thread's instrumentation context from its transaction
    /// state and the configured filter.
    fn refresh_context(&self, local: &mut Local) {
        local.context = match local.tracker.transaction_method() {
            Some(m) => {
                if self.config.filter.covers_method(m) {
                    Context::Instrumented
                } else {
                    Context::Skipped
                }
            }
            None => {
                if self.config.filter.instrument_unary {
                    Context::Instrumented
                } else {
                    Context::Skipped
                }
            }
        };
    }
}

impl Checker for DoubleChecker {
    fn run_begin(&self, heap: &Heap) {
        if let Some(obs) = &self.obs {
            obs.checker.runs_begun.inc();
            obs.trace(Stage::Checker, EventKind::RunBegin, self.n_threads as u64);
        }
        let _ = self.octet.set(Protocol::with_config(
            heap.len(),
            self.n_threads,
            self.config.coordination,
            IcdSink(Arc::clone(&self.icd)),
            self.obs.clone(),
            self.config.barrier_cache,
        ));
        let conflated: Vec<bool> = (0..heap.len())
            .map(|i| heap.kind(ObjId::from_index(i)).conflates_cells())
            .collect();
        let _ = self.conflated.set(conflated);
        self.icd
            .attach_layout(dc_runtime::heap::CellLayout::new(heap));
    }

    fn run_end(&self) {
        // Pipelined mode: stop the graph owner first (applying every queued
        // graph op and emitting the remaining SCCs, which drops the sink's
        // replay handle), then drain the PCD pool. After this, violations,
        // static info, and stats are as complete as in synchronous mode.
        let t0 = self.obs.as_ref().and_then(|o| o.clock());
        if let Some(e) = self.icd.drain_pipeline() {
            self.pipeline_error.lock().get_or_insert(e);
        }
        if let Some(pool) = self.pool.lock().take() {
            let (violations, stats) = pool.drain();
            if !violations.is_empty() {
                self.violations.lock().extend(violations);
            }
            self.pcd_stats.lock().merge(stats);
        }
        if self.config.pcd_only {
            // Straw-man variant: replay every executed transaction.
            let all = self.icd.snapshot_all_finished();
            self.sccs_to_pcd.fetch_add(1, Ordering::Relaxed);
            let (violations, stats) = self.replay_observed(&all);
            if !violations.is_empty() {
                self.violations.lock().extend(violations);
            }
            self.pcd_stats.lock().merge(stats);
        }
        if let Some(obs) = &self.obs {
            obs.checker.runs_ended.inc();
            let drain_ns = t0.map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if let Some(ns) = drain_ns {
                obs.checker.drain_latency.record(ns);
            }
            obs.trace(Stage::Checker, EventKind::RunEnd, drain_ns.unwrap_or(0));
        }
    }

    fn thread_begin(&self, t: ThreadId) {
        self.octet().thread_begin(t);
        let scc = self.icd.thread_begin(t);
        debug_assert!(scc.is_none());
        // SAFETY: called on thread t.
        let local = unsafe { self.local(t) };
        self.refresh_context(local);
    }

    fn thread_end(&self, t: ThreadId) {
        let scc = self.icd.thread_end(t);
        self.process_scc(scc);
        self.octet().thread_end(t);
    }

    fn enter_method(&self, t: ThreadId, m: MethodId) {
        // SAFETY: called on thread t.
        let local = unsafe { self.local(t) };
        if let EnterOutcome::BeginTransaction(method) = local.tracker.enter(m, &self.spec) {
            self.refresh_context(local);
            if local.context == Context::Instrumented {
                let scc = self.icd.begin_regular(t, method);
                self.process_scc(scc);
            }
        }
    }

    fn exit_method(&self, t: ThreadId, m: MethodId) {
        // SAFETY: called on thread t.
        let local = unsafe { self.local(t) };
        if let ExitOutcome::EndTransaction(_) = local.tracker.exit(m) {
            if local.context == Context::Instrumented {
                let scc = self.icd.end_regular(t);
                self.process_scc(scc);
            }
            self.refresh_context(local);
        }
    }

    #[inline]
    fn read(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        self.access(t, obj, cell, AccessKind::Read, false);
    }

    #[inline]
    fn write(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        self.access(t, obj, cell, AccessKind::Write, false);
    }

    fn array_read(&self, t: ThreadId, obj: ObjId, index: CellId) {
        if self.config.instrument_arrays {
            self.access(t, obj, index, AccessKind::Read, false);
        }
    }

    fn array_write(&self, t: ThreadId, obj: ObjId, index: CellId) {
        if self.config.instrument_arrays {
            self.access(t, obj, index, AccessKind::Write, false);
        }
    }

    fn sync_acquire(&self, t: ThreadId, obj: ObjId) {
        self.access(t, obj, SYNC_CELL, AccessKind::Read, true);
    }

    fn sync_release(&self, t: ThreadId, obj: ObjId) {
        self.access(t, obj, SYNC_CELL, AccessKind::Write, true);
    }

    #[inline]
    fn safe_point(&self, t: ThreadId) {
        self.octet().safe_point(t);
    }

    fn before_block(&self, t: ThreadId) {
        self.octet().before_block(t);
    }

    fn after_unblock(&self, t: ThreadId) {
        self.octet().after_unblock(t);
    }
}
