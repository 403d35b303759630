//! `dc-obs` — the pipeline observability layer of the DoubleChecker
//! reproduction.
//!
//! PR 1 moved SCC detection and PCD replay onto an asynchronous pipeline;
//! this crate makes that pipeline auditable (in the spirit of the per-stage
//! accounting that Fast Atomicity Monitoring and RegionTrack use to back
//! their overhead claims): events observed vs. events analyzed per stage,
//! queue depths with high-watermarks, stage latency distributions, and a
//! bounded trace of pipeline events. It is entirely self-contained (no
//! dependencies, not even the workspace shims) so every analysis crate can
//! use it without widening the dependency policy.
//!
//! # Levels
//!
//! * [`ObsLevel::Off`] — nothing is allocated; [`PipelineObs::new`] returns
//!   `None` and every call site holding an `Option<Arc<PipelineObs>>`
//!   short-circuits on `None`. The hot path is exactly the uninstrumented
//!   code.
//! * [`ObsLevel::Counters`] — counters and gauges (relaxed atomic RMWs, no
//!   clock reads). Histograms and the trace ring stay inert.
//! * [`ObsLevel::Full`] — everything: stage latency histograms (which cost
//!   two `Instant::now` reads per timed operation) and the trace ring.
//!
//! The cardinal rule, enforced by the differential test suite: no level may
//! ever change checker *results* — violations, static transaction info, and
//! run statistics must be bit-identical with observability off.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
mod ring;

pub use metrics::{Counter, Gauge, GaugeSummary, Histogram, HistogramSummary};
pub use ring::{EventKind, Stage, TraceEvent, TraceRing};

use std::sync::Arc;
use std::time::Instant;

/// How much the observability layer records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsLevel {
    /// No-op: no registry is allocated at all.
    #[default]
    Off,
    /// Counters and queue gauges only (no clock reads).
    Counters,
    /// Counters, gauges, stage latency histograms, and the trace ring.
    Full,
}

impl ObsLevel {
    /// Parses `off` / `counters` / `full`.
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s {
            "off" => Some(ObsLevel::Off),
            "counters" => Some(ObsLevel::Counters),
            "full" => Some(ObsLevel::Full),
            _ => None,
        }
    }

    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Counters => "counters",
            ObsLevel::Full => "full",
        }
    }
}

/// Octet-layer metrics: slow-path state transitions by kind. The uncached
/// same-state fast path is deliberately uncounted — it must stay
/// write-free; inline-cache hit/flush tallies accrue thread-locally and
/// fold in once per thread at thread end.
#[derive(Debug, Default)]
pub struct OctetMetrics {
    /// First-touch claims of free objects.
    pub first_touch: Counter,
    /// Upgrading transitions (`RdEx→WrEx` and `RdEx→RdSh`).
    pub upgrades: Counter,
    /// Fence transitions on read-shared objects.
    pub fences: Counter,
    /// Conflicting transitions (coordination protocol runs).
    pub conflicts: Counter,
    /// Extra conflicting requests folded into a coalesced safe-point drain
    /// (`drained - 1` per multi-request drain).
    pub coalesced: Counter,
    /// Ownership-inline-cache hits (state-word load elided; folded at
    /// thread end).
    pub cache_hits: Counter,
    /// Ownership-inline-cache flushes of a non-empty cache (folded at
    /// thread end).
    pub cache_flushes: Counter,
}

/// ICD graph-pipeline metrics, covering both the synchronous path (ops
/// "enqueue" and apply at the same program point) and the pipelined path
/// (application threads enqueue, the graph-owner thread applies).
#[derive(Debug, Default)]
pub struct GraphMetrics {
    /// Graph operations created (insert/finish/cross/upgrade/fence).
    pub ops_enqueued: Counter,
    /// Graph operations applied to the IDG.
    pub ops_applied: Counter,
    /// Batches flushed from application threads (pipelined mode).
    pub batches: Counter,
    /// Single ops sent outside a batch (pipelined mode).
    pub singles: Counter,
    /// Sends that found the op ring full and had to spin/yield.
    pub ring_full_waits: Counter,
    /// Batch buffers parked in the reuse pool.
    pub pooled_buffers: Gauge,
    /// Ops in flight: enqueued but not yet applied.
    pub queue_depth: Gauge,
    /// Graph-owner reorder-buffer size (out-of-ticket-order arrivals).
    pub reorder_depth: Gauge,
    /// SCCs (≥ 2 transactions) detected by Tarjan.
    pub sccs_detected: Counter,
    /// Transaction finishes where the trivial pre-filter (no incoming or no
    /// outgoing edge) skipped the Tarjan traversal entirely.
    pub sccs_skipped_trivial: Counter,
    /// Tarjan SCC detection latency per transaction finish (ns).
    pub scc_latency: Histogram,
    /// Transaction-collector pass latency (ns).
    pub collect_latency: Histogram,
    /// Transport send latency per batch/single (ns).
    pub enqueue_latency: Histogram,
    /// Graph-owner apply latency per op (ns).
    pub apply_latency: Histogram,
}

/// PCD replay metrics (pool workers in pipelined mode, inline replay in
/// synchronous mode).
#[derive(Debug, Default)]
pub struct ReplayMetrics {
    /// SCC reports submitted for replay.
    pub submitted: Counter,
    /// SCC reports whose replay completed.
    pub completed: Counter,
    /// Replay-pool queue depth (submitted, not yet picked up).
    pub queue_depth: Gauge,
    /// Per-SCC replay latency (ns).
    pub latency: Histogram,
    /// Precise violations found by replay.
    pub violations: Counter,
}

/// Checker lifecycle metrics.
#[derive(Debug, Default)]
pub struct CheckerMetrics {
    /// `run_begin` invocations.
    pub runs_begun: Counter,
    /// `run_end` invocations (pipeline fully drained).
    pub runs_ended: Counter,
    /// `run_end` drain latency: stopping the graph owner + draining the
    /// replay pool (ns).
    pub drain_latency: Histogram,
}

/// The observability registry one checker instance threads through Octet,
/// the ICD pipeline, the PCD replay pool, and its own lifecycle hooks.
#[derive(Debug)]
pub struct PipelineObs {
    level: ObsLevel,
    /// Octet state transitions.
    pub octet: OctetMetrics,
    /// ICD graph pipeline.
    pub graph: GraphMetrics,
    /// PCD replay.
    pub replay: ReplayMetrics,
    /// Checker lifecycle.
    pub checker: CheckerMetrics,
    trace: TraceRing,
}

/// Default trace-ring capacity (slots).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl PipelineObs {
    /// Creates a registry for `level`, or `None` for [`ObsLevel::Off`] —
    /// callers hold an `Option<Arc<PipelineObs>>`, so `off` costs exactly
    /// one pointer test at each instrumentation site.
    pub fn new(level: ObsLevel) -> Option<Arc<PipelineObs>> {
        Self::with_trace_capacity(level, DEFAULT_TRACE_CAPACITY)
    }

    /// Like [`PipelineObs::new`] with an explicit trace-ring capacity.
    pub fn with_trace_capacity(level: ObsLevel, capacity: usize) -> Option<Arc<PipelineObs>> {
        match level {
            ObsLevel::Off => None,
            _ => Some(Arc::new(PipelineObs {
                level,
                octet: OctetMetrics::default(),
                graph: GraphMetrics::default(),
                replay: ReplayMetrics::default(),
                checker: CheckerMetrics::default(),
                trace: TraceRing::new(capacity),
            })),
        }
    }

    /// The registry's level (never [`ObsLevel::Off`]).
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// A timing origin for a latency histogram — `Some` only at
    /// [`ObsLevel::Full`], so [`Histogram::record_elapsed`] is a no-op at
    /// `Counters` and no clock is ever read.
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        match self.level {
            ObsLevel::Full => Some(Instant::now()),
            _ => None,
        }
    }

    /// Records a trace event ([`ObsLevel::Full`] only).
    #[inline]
    pub fn trace(&self, stage: Stage, kind: EventKind, value: u64) {
        if self.level == ObsLevel::Full {
            self.trace.record(stage, kind, value);
        }
    }

    /// The trace ring's current contents, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.snapshot()
    }

    /// Total trace events ever recorded (may exceed the ring's capacity).
    pub fn trace_recorded(&self) -> u64 {
        self.trace.recorded()
    }

    /// Snapshots every metric into a plain-data [`PipelineReport`].
    pub fn report(&self) -> PipelineReport {
        PipelineReport {
            level: self.level,
            octet: OctetReport {
                first_touch: self.octet.first_touch.get(),
                upgrades: self.octet.upgrades.get(),
                fences: self.octet.fences.get(),
                conflicts: self.octet.conflicts.get(),
                coalesced: self.octet.coalesced.get(),
                cache_hits: self.octet.cache_hits.get(),
                cache_flushes: self.octet.cache_flushes.get(),
            },
            graph: GraphReport {
                ops_enqueued: self.graph.ops_enqueued.get(),
                ops_applied: self.graph.ops_applied.get(),
                batches: self.graph.batches.get(),
                singles: self.graph.singles.get(),
                ring_full_waits: self.graph.ring_full_waits.get(),
                pooled_buffers: self.graph.pooled_buffers.summary(),
                queue_depth: self.graph.queue_depth.summary(),
                reorder_depth: self.graph.reorder_depth.summary(),
                sccs_detected: self.graph.sccs_detected.get(),
                sccs_skipped_trivial: self.graph.sccs_skipped_trivial.get(),
                scc_latency: self.graph.scc_latency.summary(),
                collect_latency: self.graph.collect_latency.summary(),
                enqueue_latency: self.graph.enqueue_latency.summary(),
                apply_latency: self.graph.apply_latency.summary(),
            },
            replay: ReplayReport {
                submitted: self.replay.submitted.get(),
                completed: self.replay.completed.get(),
                queue_depth: self.replay.queue_depth.summary(),
                latency: self.replay.latency.summary(),
                violations: self.replay.violations.get(),
            },
            checker: CheckerReport {
                runs_begun: self.checker.runs_begun.get(),
                runs_ended: self.checker.runs_ended.get(),
                drain_latency: self.checker.drain_latency.summary(),
            },
            trace_recorded: self.trace.recorded(),
        }
    }
}

/// Octet section of a [`PipelineReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OctetReport {
    /// First-touch claims.
    pub first_touch: u64,
    /// Upgrading transitions.
    pub upgrades: u64,
    /// Fence transitions.
    pub fences: u64,
    /// Conflicting transitions.
    pub conflicts: u64,
    /// Requests folded into coalesced drains.
    pub coalesced: u64,
    /// Ownership-inline-cache hits.
    pub cache_hits: u64,
    /// Ownership-inline-cache flushes (non-empty only).
    pub cache_flushes: u64,
}

/// Graph-pipeline section of a [`PipelineReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphReport {
    /// Graph ops created.
    pub ops_enqueued: u64,
    /// Graph ops applied.
    pub ops_applied: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Single ops sent outside a batch.
    pub singles: u64,
    /// Full-ring backpressure waits.
    pub ring_full_waits: u64,
    /// Pooled batch buffers.
    pub pooled_buffers: GaugeSummary,
    /// Ops in flight.
    pub queue_depth: GaugeSummary,
    /// Reorder-buffer depth.
    pub reorder_depth: GaugeSummary,
    /// SCCs detected.
    pub sccs_detected: u64,
    /// Tarjan traversals skipped by the trivial pre-filter.
    pub sccs_skipped_trivial: u64,
    /// SCC-detection latency.
    pub scc_latency: HistogramSummary,
    /// Collector-pass latency.
    pub collect_latency: HistogramSummary,
    /// Transport send latency.
    pub enqueue_latency: HistogramSummary,
    /// Graph-owner apply latency.
    pub apply_latency: HistogramSummary,
}

/// Replay section of a [`PipelineReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// SCCs submitted.
    pub submitted: u64,
    /// Replays completed.
    pub completed: u64,
    /// Replay queue depth.
    pub queue_depth: GaugeSummary,
    /// Per-SCC replay latency.
    pub latency: HistogramSummary,
    /// Violations found.
    pub violations: u64,
}

/// Checker section of a [`PipelineReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckerReport {
    /// Runs begun.
    pub runs_begun: u64,
    /// Runs ended.
    pub runs_ended: u64,
    /// Drain latency at `run_end`.
    pub drain_latency: HistogramSummary,
}

/// A plain-data, stable-schema snapshot of every pipeline metric —
/// everything is `u64`/`i64`, so reports are `Eq`-comparable in tests and
/// serialize without floating-point noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineReport {
    /// The level the registry ran at.
    pub level: ObsLevel,
    /// Octet state transitions.
    pub octet: OctetReport,
    /// Graph pipeline.
    pub graph: GraphReport,
    /// PCD replay.
    pub replay: ReplayReport,
    /// Checker lifecycle.
    pub checker: CheckerReport,
    /// Total trace events recorded.
    pub trace_recorded: u64,
}

impl Default for PipelineReport {
    fn default() -> Self {
        PipelineReport {
            level: ObsLevel::Off,
            octet: OctetReport::default(),
            graph: GraphReport::default(),
            replay: ReplayReport::default(),
            checker: CheckerReport::default(),
            trace_recorded: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_allocates_nothing() {
        assert!(PipelineObs::new(ObsLevel::Off).is_none());
    }

    #[test]
    fn counters_level_disables_clock_and_trace() {
        let obs = PipelineObs::new(ObsLevel::Counters).unwrap();
        assert!(obs.clock().is_none());
        obs.trace(Stage::Graph, EventKind::BatchSent, 1);
        assert_eq!(obs.trace_recorded(), 0);
        obs.graph.ops_enqueued.inc();
        assert_eq!(obs.report().graph.ops_enqueued, 1);
    }

    #[test]
    fn full_level_enables_clock_and_trace() {
        let obs = PipelineObs::new(ObsLevel::Full).unwrap();
        assert!(obs.clock().is_some());
        obs.trace(Stage::Replay, EventKind::ReplaySubmit, 2);
        assert_eq!(obs.trace_recorded(), 1);
        assert_eq!(obs.trace_events()[0].value, 2);
    }

    #[test]
    fn report_snapshots_all_sections() {
        let obs = PipelineObs::new(ObsLevel::Full).unwrap();
        obs.octet.conflicts.add(3);
        obs.graph.queue_depth.add(5);
        obs.graph.queue_depth.dec();
        obs.replay.submitted.inc();
        obs.replay.latency.record(1000);
        obs.checker.runs_begun.inc();
        let r = obs.report();
        assert_eq!(r.level, ObsLevel::Full);
        assert_eq!(r.octet.conflicts, 3);
        assert_eq!(r.graph.queue_depth.current, 4);
        assert_eq!(r.graph.queue_depth.high_watermark, 5);
        assert_eq!(r.replay.submitted, 1);
        assert_eq!(r.replay.latency.count, 1);
        assert_eq!(r.checker.runs_begun, 1);
    }

    #[test]
    fn level_round_trips_through_names() {
        for level in [ObsLevel::Off, ObsLevel::Counters, ObsLevel::Full] {
            assert_eq!(ObsLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(ObsLevel::parse("verbose"), None);
    }
}
