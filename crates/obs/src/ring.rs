//! A fixed-size lock-free ring of pipeline trace events.
//!
//! Writers claim a slot with one `fetch_add` on the global sequence counter
//! and publish the slot's fields individually; the slot's own sequence word
//! is written *last* with `Release`, so a reader that observes it with
//! `Acquire` also observes the fields. A snapshot re-checks the sequence
//! word after reading the payload and drops slots that were overwritten
//! mid-read — the ring never blocks a writer for a reader.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which pipeline component emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Octet barrier / coordination layer.
    Octet = 0,
    /// ICD graph pipeline (app-side batching + graph-owner thread).
    Graph = 1,
    /// PCD replay pool.
    Replay = 2,
    /// Checker lifecycle (run begin/end, drain).
    Checker = 3,
}

impl Stage {
    /// Stable lower-case name used in trace output.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Octet => "octet",
            Stage::Graph => "graph",
            Stage::Replay => "replay",
            Stage::Checker => "checker",
        }
    }

    fn from_u8(v: u8) -> Stage {
        match v {
            0 => Stage::Octet,
            1 => Stage::Graph,
            2 => Stage::Replay,
            _ => Stage::Checker,
        }
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// An Octet slow-path transition (value = transition discriminant).
    Transition = 0,
    /// A batch of graph ops left an application thread (value = batch len).
    BatchSent = 1,
    /// The graph owner detected an SCC (value = member count).
    SccDetected = 2,
    /// The graph owner ran the collector (value = transactions reclaimed).
    CollectRun = 3,
    /// An SCC was submitted to the replay pool (value = member count).
    ReplaySubmit = 4,
    /// A replay finished (value = violations found).
    ReplayDone = 5,
    /// The checker's run began (value = thread count).
    RunBegin = 6,
    /// The checker's run ended and the pipeline fully drained
    /// (value = drain nanoseconds).
    RunEnd = 7,
}

impl EventKind {
    /// Stable lower-case name used in trace output.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Transition => "transition",
            EventKind::BatchSent => "batch_sent",
            EventKind::SccDetected => "scc_detected",
            EventKind::CollectRun => "collect_run",
            EventKind::ReplaySubmit => "replay_submit",
            EventKind::ReplayDone => "replay_done",
            EventKind::RunBegin => "run_begin",
            EventKind::RunEnd => "run_end",
        }
    }

    fn from_u8(v: u8) -> EventKind {
        match v {
            0 => EventKind::Transition,
            1 => EventKind::BatchSent,
            2 => EventKind::SccDetected,
            3 => EventKind::CollectRun,
            4 => EventKind::ReplaySubmit,
            5 => EventKind::ReplayDone,
            6 => EventKind::RunBegin,
            _ => EventKind::RunEnd,
        }
    }
}

/// One decoded trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global publication order (gaps mean the ring wrapped).
    pub seq: u64,
    /// Nanoseconds since the ring (≈ the checker) was created.
    pub t_ns: u64,
    /// Emitting component.
    pub stage: Stage,
    /// Event type.
    pub kind: EventKind,
    /// Event-specific payload (see [`EventKind`]).
    pub value: u64,
}

const EMPTY: u64 = u64::MAX;

#[repr(align(64))]
#[derive(Debug)]
struct Slot {
    /// Sequence stamp, written last with `Release`; `EMPTY` = never used.
    seq: AtomicU64,
    t_ns: AtomicU64,
    /// `stage << 8 | kind`.
    tag: AtomicU64,
    value: AtomicU64,
}

/// The fixed-size lock-free trace ring.
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Slot]>,
    next: AtomicU64,
    epoch: Instant,
}

impl TraceRing {
    /// Creates a ring of `capacity` slots (rounded up to a power of two so
    /// the slot index is a mask).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        TraceRing {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(EMPTY),
                    t_ns: AtomicU64::new(0),
                    tag: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect(),
            next: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (≥ the number still in the ring).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Records one event. Wait-free: one `fetch_add` plus plain stores.
    pub fn record(&self, stage: Stage, kind: EventKind, value: u64) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        // Invalidate while the payload is torn, then publish seq last.
        slot.seq.store(EMPTY, Ordering::Release);
        slot.t_ns.store(
            u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        slot.tag.store(
            u64::from(stage as u8) << 8 | u64::from(kind as u8),
            Ordering::Relaxed,
        );
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
    }

    /// The events currently in the ring, oldest first. Slots overwritten
    /// while being read are dropped rather than returned torn.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == EMPTY {
                continue;
            }
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let tag = slot.tag.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // overwritten mid-read
            }
            events.push(TraceEvent {
                seq,
                t_ns,
                stage: Stage::from_u8((tag >> 8) as u8),
                kind: EventKind::from_u8((tag & 0xff) as u8),
                value,
            });
        }
        events.sort_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = TraceRing::new(8);
        ring.record(Stage::Graph, EventKind::BatchSent, 3);
        ring.record(Stage::Replay, EventKind::ReplaySubmit, 2);
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, Stage::Graph);
        assert_eq!(events[0].kind, EventKind::BatchSent);
        assert_eq!(events[0].value, 3);
        assert_eq!(events[1].seq, 1);
        assert!(events[0].t_ns <= events[1].t_ns);
    }

    #[test]
    fn wraps_keeping_the_newest_events() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.record(Stage::Octet, EventKind::Transition, i);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(ring.recorded(), 10);
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![6, 7, 8, 9], "oldest events overwritten");
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    // Stage/kind/value correlated so tearing is detectable.
                    let kind = if t % 2 == 0 {
                        EventKind::BatchSent
                    } else {
                        EventKind::ReplayDone
                    };
                    ring.record(Stage::Graph, kind, i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = ring.snapshot();
        assert!(!events.is_empty());
        for e in events {
            assert_eq!(e.stage, Stage::Graph);
            assert!(e.value < 5_000);
            assert!(matches!(
                e.kind,
                EventKind::BatchSent | EventKind::ReplayDone
            ));
        }
        assert_eq!(ring.recorded(), 20_000);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Stage::Replay.as_str(), "replay");
        assert_eq!(EventKind::SccDetected.as_str(), "scc_detected");
    }
}
