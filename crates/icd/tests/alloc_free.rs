//! Steady-state allocation freedom: once the transaction windows, their
//! spare pool and the traversal buffers are warm, cycle probes that find no
//! cycle and collector runs must not touch the heap at all. (A probe that
//! *does* find a cycle necessarily allocates its `SccReport`.) The same
//! holds for a whole synchronous transaction round — insert, implicit
//! intra-thread edge, cross edge, finish, probe, and a paced collection
//! that reclaims — and for the whole pipelined enqueue→apply path: pooled
//! batches over the fixed-capacity ring, the reorder scoreboard, and the
//! graph-owner apply loop.

use dc_icd::graph::Graph;
use dc_icd::{Edge, EdgeKind, Icd, IcdConfig, PipelineMode, TxId, TxKind};
use dc_obs::{ObsLevel, PipelineObs};
use dc_runtime::ids::{MethodId, ThreadId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

thread_local! {
    // const-init: a lazily-initialized thread_local would itself allocate
    // on first use, recursing into the allocator under measurement.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide allocation count: the pipelined test must also see the
/// graph-owner thread's allocations, which a thread-local cannot.
static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests in this file: the global counter would otherwise
/// pick up a concurrently running sibling's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn global_allocations() -> u64 {
    GLOBAL_ALLOCS.load(Ordering::Relaxed)
}

fn cross(src: TxId, dst: TxId) -> Edge {
    Edge {
        src,
        src_pos: 0,
        dst,
        dst_pos: 0,
        kind: EdgeKind::Cross,
    }
}

/// One round of work: two threads each run a regular transaction,
/// with one cross-thread coordination event between them. In pipelined
/// mode every hook flushes through the op ring. Both transactions finish,
/// so the collector keeps the graph bounded.
fn round(icd: &Icd, t0: ThreadId, t1: ThreadId) {
    icd.begin_regular(t0, MethodId(0));
    icd.begin_regular(t1, MethodId(1));
    icd.handle_conflicting(t0, t1);
    icd.end_regular(t0);
    icd.end_regular(t1);
}

/// Spins until the graph owner has applied everything enqueued so far.
fn await_drain(obs: &PipelineObs) {
    let target = obs.graph.ops_enqueued.get();
    while obs.graph.ops_applied.get() < target {
        std::hint::spin_loop();
    }
}

#[test]
fn warm_pipelined_enqueue_apply_path_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let obs = PipelineObs::new(ObsLevel::Counters).expect("counters level");
    // Logging off (the first-run configuration): op payloads are empty logs,
    // so the steady state exercises the ring, the reorder scoreboard,
    // slab reuse, SCC probes, and the collector — and none of it may touch
    // the heap once warm.
    let icd = Icd::with_observability(
        2,
        IcdConfig {
            logging: false,
            collect_every: 8,
            pipeline: PipelineMode::Pipelined,
            ..IcdConfig::default()
        },
        None,
        Some(std::sync::Arc::clone(&obs)),
    );
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    icd.thread_begin(t0);
    icd.thread_begin(t1);

    // Warm-up: fill the batch pool, size the ring/reorder/slab/scratch, and
    // reach the collector's steady state.
    for _ in 0..512 {
        round(&icd, t0, t1);
    }
    await_drain(&obs);

    // The apply loop runs on the owner thread concurrently with our sends,
    // so measure whole enqueue→apply windows; allow a couple of retries for
    // one-off lazy initialization that the warm-up happened not to reach.
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = global_allocations();
        for _ in 0..256 {
            round(&icd, t0, t1);
        }
        await_drain(&obs);
        best = best.min(global_allocations() - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "steady-state pipelined enqueue→apply must be allocation-free"
    );

    icd.thread_end(t0);
    icd.thread_end(t1);
    let _ = icd.drain_pipeline();
}

#[test]
fn warm_sync_round_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Synchronous mode: the hooks mutate the graph on this thread, so the
    // thread-local count sees every allocation. Logging off (the first-run
    // configuration) keeps the logs empty.
    let icd = Icd::new(
        2,
        IcdConfig {
            logging: false,
            collect_every: 8,
            ..IcdConfig::default()
        },
    );
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    icd.thread_begin(t0);
    icd.thread_begin(t1);
    // Warm-up: grow the windows, the spare pool and the traversal buffers
    // to their steady-state sizes.
    for _ in 0..512 {
        round(&icd, t0, t1);
    }
    let collected = icd.stats().collected_txs.load(Ordering::Relaxed);
    let before = allocations();
    for _ in 0..256 {
        round(&icd, t0, t1);
    }
    assert_eq!(
        allocations(),
        before,
        "a warm synchronous transaction round must be allocation-free"
    );
    assert!(
        icd.stats().collected_txs.load(Ordering::Relaxed) > collected,
        "the measured rounds include collector passes that reclaim"
    );
    icd.thread_end(t0);
    icd.thread_end(t1);
}

#[test]
fn warm_scc_probe_and_collect_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Two threads of 32 transactions each, chained by their implicit
    // program-order edges, plus a cross edge from each T0 transaction to
    // its T1 peer: every interior node has both an incoming and an
    // outgoing edge, so probes run full Tarjan traversals (not the trivial
    // pre-filter) yet never find a cycle.
    let n = 32u64;
    let at = |t: u16, seq: u64| TxId::new(ThreadId(t), seq);
    let mut g = Graph::new();
    for seq in 1..=n {
        for t in 0..2 {
            if seq > 1 {
                g.finish(at(t, seq - 1), vec![]).unwrap();
            }
            g.insert(at(t, seq), TxKind::Unary);
        }
        g.add_edge(cross(at(0, seq), at(1, seq)));
    }
    g.finish(at(0, n), vec![]).unwrap();
    g.finish(at(1, n), vec![]).unwrap();

    // Warm-up: size the DFS stack and the collector's buffers.
    for seq in 1..=n {
        for t in 0..2 {
            assert!(g.scc_from(at(t, seq)).is_none(), "no cycle");
        }
    }
    assert_eq!(
        g.collect([at(0, 1)]),
        0,
        "the first transaction reaches all"
    );

    let before = allocations();
    for _ in 0..100 {
        for seq in 1..=n {
            for t in 0..2 {
                g.scc_from(at(t, seq));
            }
        }
    }
    assert_eq!(
        allocations(),
        before,
        "steady-state scc_from must be allocation-free"
    );

    let before = allocations();
    for _ in 0..100 {
        g.collect([at(0, 1)]);
    }
    assert_eq!(
        allocations(),
        before,
        "a collector run reclaiming nothing must be allocation-free"
    );
}
