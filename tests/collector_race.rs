//! The transaction collector vs. in-flight operations.
//!
//! In pipelined mode the collector runs on the graph-owner thread while
//! application threads still have Cross/Upgrade/Fence ops in flight (in
//! pending batches, in the op ring, or parked in the reorder scoreboard).
//! A collector pass must never reclaim a transaction such an op still
//! references in a way that changes the analysis: with the collection
//! cadence forced to its most aggressive setting, the pipelined run must
//! still match the synchronous run bit for bit.

use dc_core::{run_doublechecker, DcConfig, ExecPlan, ObsLevel};
use dc_runtime::engine::det::Schedule;
use dc_runtime::heap::ObjKind;
use dc_runtime::program::{Op, Program, ProgramBuilder};
use dc_runtime::spec::AtomicitySpec;
use dc_workloads::{by_name, Scale};
use doublechecker_repro as _;
use proptest::prelude::*;
use std::collections::HashSet;

/// A `DcConfig` that collects after every transaction finish — the collector
/// runs constantly, maximizing windows where it races in-flight ops.
fn aggressive(plan: &ExecPlan, pipelined: bool) -> DcConfig {
    let mut config = DcConfig::single_run(plan.coordination()).with_pipelined(pipelined);
    config.collect_every = 1;
    config
}

/// Real OS threads, collector on every finish: Octet coordination keeps
/// Cross/Upgrade ops in flight from arbitrary threads while the owner
/// collects. The run must stay off the app-side graph mutex, drain fully,
/// and actually exercise both collection and cross-thread edges — with
/// observability off (the production path) and full (every site live).
#[test]
fn aggressive_collection_is_stable_under_real_threads() {
    let wl = by_name("tsp", Scale::Tiny).unwrap();
    let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
    for level in [ObsLevel::Off, ObsLevel::Full] {
        for round in 0..8 {
            let report = run_doublechecker(
                &wl.program,
                &spec,
                aggressive(&ExecPlan::Real, true).with_observability(level),
                &ExecPlan::Real,
            )
            .unwrap();
            let ctx = format!("obs {level:?} round {round}");
            assert_eq!(report.stats.graph_locks, 0, "{ctx}");
            assert!(report.stats.collected_txs > 0, "{ctx}: collector never ran");
            assert_eq!(report.pipeline_error, None, "{ctx}");
            if level == ObsLevel::Off {
                assert!(report.pipeline.is_none(), "{ctx}: off must report nothing");
                continue;
            }
            let p = report.pipeline.expect("full level reports");
            assert_eq!(
                p.graph.ops_enqueued, p.graph.ops_applied,
                "{ctx}: pipeline failed to drain"
            );
            assert_eq!(p.replay.submitted, p.replay.completed, "{ctx}");
        }
    }
}

/// One primitive op of a generated atomic method. The mix is chosen to
/// provoke every edge-producing Octet transition: plain reads/writes create
/// conflicting (Cross) and upgrading transitions, the lock section adds
/// fence-heavy read-shared traffic.
#[derive(Clone, Debug)]
enum GenOp {
    Read(u8, u8),
    Write(u8, u8),
    Compute(u8),
    LockedRmw(u8),
}

fn gen_method() -> impl Strategy<Value = Vec<GenOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..2, 0u8..2).prop_map(|(o, f)| GenOp::Read(o, f)),
            (0u8..2, 0u8..2).prop_map(|(o, f)| GenOp::Write(o, f)),
            (1u8..20).prop_map(GenOp::Compute),
            (0u8..2).prop_map(GenOp::LockedRmw),
        ],
        1..6,
    )
}

fn gen_program() -> impl Strategy<Value = (Vec<Vec<GenOp>>, usize, u8)> {
    (
        prop::collection::vec(gen_method(), 2..5),
        2usize..4, // threads
        1u8..6,    // loop iterations
    )
}

fn build(methods: &[Vec<GenOp>], threads: usize, iters: u8) -> (Program, AtomicitySpec) {
    let mut b = ProgramBuilder::new();
    let shared: Vec<_> = (0..2)
        .map(|_| b.object(ObjKind::Plain { fields: 2 }))
        .collect();
    let lock = b.object(ObjKind::Monitor);
    let method_ids: Vec<_> = methods
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            let body: Vec<Op> = ops
                .iter()
                .flat_map(|op| match *op {
                    GenOp::Read(o, f) => vec![Op::Read(shared[o as usize], u32::from(f))],
                    GenOp::Write(o, f) => vec![Op::Write(shared[o as usize], u32::from(f))],
                    GenOp::Compute(u) => vec![Op::Compute(u32::from(u))],
                    GenOp::LockedRmw(o) => vec![
                        Op::Acquire(lock),
                        Op::Read(shared[o as usize], 0),
                        Op::Write(shared[o as usize], 0),
                        Op::Release(lock),
                    ],
                })
                .collect();
            b.method(format!("gen{i}"), body)
        })
        .collect();
    let mut entries = Vec::new();
    for t in 0..threads {
        let body = vec![Op::Loop {
            count: u32::from(iters),
            body: method_ids
                .iter()
                .enumerate()
                .filter(|(k, _)| (k + t) % 2 == 0 || threads == 2)
                .map(|(_, &m)| Op::Call(m))
                .collect(),
        }];
        entries.push(b.method(format!("entry{t}"), body));
    }
    for &e in &entries {
        b.thread(e);
    }
    let program = b.build().expect("generated program is valid");
    let spec = AtomicitySpec::excluding(entries);
    (program, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On any generated program and schedule, collecting after *every*
    /// finish while ops are in flight changes nothing: the pipelined run
    /// matches the synchronous run at the same cadence — violations, static
    /// transaction info, and every stat except thread-timing noise.
    #[test]
    fn racing_collector_matches_synchronous((methods, threads, iters) in gen_program(), seed in 0u64..1000) {
        let (program, spec) = build(&methods, threads, iters);
        let plan = ExecPlan::Det(Schedule::random(seed));
        let sync = run_doublechecker(&program, &spec, aggressive(&plan, false), &plan)
            .expect("sync run");
        let piped = run_doublechecker(&program, &spec, aggressive(&plan, true), &plan)
            .expect("pipelined run");
        let sync_keys: HashSet<_> = sync.violations.iter().map(|v| v.static_key()).collect();
        let piped_keys: HashSet<_> = piped.violations.iter().map(|v| v.static_key()).collect();
        prop_assert_eq!(sync_keys, piped_keys, "violation sets diverge");
        prop_assert_eq!(&sync.static_info, &piped.static_info, "static info diverges");
        prop_assert_eq!(piped.stats.graph_locks, 0u64, "app threads locked the graph");
        // Cycle-relevant state must be identical (SCCs cannot be lost), but
        // the raw cross-edge count may run slightly lower pipelined: an
        // in-flight edge whose source was already collected — possible only
        // once that source is finished, unreachable, and provably outside
        // any future cycle — is dropped at apply time.
        prop_assert_eq!(sync.stats.icd_sccs, piped.stats.icd_sccs, "SCCs lost or invented");
        prop_assert!(
            piped.stats.idg_cross_edges <= sync.stats.idg_cross_edges,
            "pipelined mode invented cross edges ({} > {})",
            piped.stats.idg_cross_edges,
            sync.stats.idg_cross_edges
        );
    }
}
