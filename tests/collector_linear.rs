//! The transaction collectors stay linear, and their pacing never changes a
//! verdict.
//!
//! The hard case for a collector is a graph where almost nothing is
//! collectable. Here the main thread forks workers and then blocks in
//! `Join`; its current transaction is a collector root with an edge into
//! the last-forked worker, and the workers' shared read-modify-writes link
//! every later transaction to it. So the graph only grows. A fixed cadence
//! re-scans the whole graph every few hundred transactions (quadratic);
//! adaptive pacing waits for `max(collect_every, survivors / 2)` events
//! before the next pass, which bounds the total scan by a constant times
//! the transaction count. The deterministic work counters
//! (`collect_passes`, `collect_scanned`) check that bound directly, for
//! ICD, Velodrome and AeroDrome alike.
//!
//! Collection only reclaims transactions that can never join a future
//! cycle, so when (or whether) it runs must not change what the online
//! checkers report: cycle members and blame included.

use dc_aerodrome::{AeroConfig, AeroDrome};
use dc_core::{run_doublechecker, DcConfig, ExecPlan};
use dc_runtime::engine::det::{run_det, Schedule};
use dc_runtime::heap::ObjKind;
use dc_runtime::program::{Op, Program, ProgramBuilder};
use dc_runtime::spec::AtomicitySpec;
use dc_velodrome::{VViolation, Velodrome, VelodromeConfig};
use dc_workloads::{by_name, Scale};
use doublechecker_repro as _;
use std::sync::atomic::Ordering;

const WORKERS: usize = 3;

/// Main forks `WORKERS` workers and joins them. Each worker runs `iters`
/// atomic read-modify-writes of one shared field — racy, so det schedules
/// produce cycles — with private work in between.
fn stale_root_program(iters: u32) -> (Program, AtomicitySpec) {
    let mut b = ProgramBuilder::new();
    let shared = b.object(ObjKind::Plain { fields: 1 });
    let mut entries = Vec::new();
    for w in 0..WORKERS {
        let private = b.object(ObjKind::Plain { fields: 1 });
        let update = b.method(
            format!("update{w}"),
            vec![Op::Read(shared, 0), Op::Write(shared, 0)],
        );
        let entry = b.method(
            format!("worker{w}"),
            vec![Op::Loop {
                count: iters,
                body: vec![Op::Call(update), Op::Write(private, 0)],
            }],
        );
        entries.push(entry);
    }
    let ids: Vec<_> = entries.iter().map(|&m| b.forked_thread(m)).collect();
    let mut main_body: Vec<Op> = ids.iter().map(|&t| Op::Fork(t)).collect();
    main_body.extend(ids.iter().map(|&t| Op::Join(t)));
    let main = b.method("main", main_body);
    entries.push(main);
    b.thread(main);
    let program = b.build().expect("valid program");
    (program, AtomicitySpec::excluding(entries))
}

/// `scanned ≤ 4·txs + collect_every·passes`: the bound adaptive pacing
/// guarantees (each pass scans at most the survivors of the last pass plus
/// the transactions since, and waits for at least half as many events as
/// it left behind).
fn assert_linear(who: &str, seed: u64, txs: u64, passes: u64, scanned: u64, every: u64) {
    assert!(passes > 0, "{who} seed {seed}: the collector never ran");
    let bound = 4 * txs + every * passes;
    assert!(
        scanned <= bound,
        "{who} seed {seed}: collector scanned {scanned} slots over {passes} passes \
         for {txs} transactions (bound {bound})"
    );
}

#[test]
fn collector_work_is_linear_with_a_stale_root() {
    let (program, spec) = stale_root_program(3000);
    let n = program.threads.len();
    for seed in 0..3u64 {
        let schedule = Schedule::random(seed);

        let velo_config = VelodromeConfig::default();
        let every = u64::from(velo_config.collect_every);
        let v = Velodrome::new(n, spec.clone(), velo_config);
        run_det(&program, &v, &schedule).expect("velodrome run");
        let s = v.stats();
        assert_linear(
            "velodrome",
            seed,
            s.transactions.load(Ordering::Relaxed),
            s.collect_passes.load(Ordering::Relaxed),
            s.collect_scanned.load(Ordering::Relaxed),
            every,
        );

        let aero_config = AeroConfig::default();
        let every = u64::from(aero_config.collect_every);
        let a = AeroDrome::new(n, spec.clone(), aero_config);
        run_det(&program, &a, &schedule).expect("aerodrome run");
        let s = a.stats();
        assert_linear(
            "aerodrome",
            seed,
            s.transactions.load(Ordering::Relaxed),
            s.collect_passes.load(Ordering::Relaxed),
            s.collect_scanned.load(Ordering::Relaxed),
            every,
        );

        let plan = ExecPlan::Det(schedule);
        let config = DcConfig::single_run(plan.coordination());
        let every = u64::from(config.collect_every);
        let report = run_doublechecker(&program, &spec, config, &plan).expect("icd run");
        let s = report.stats;
        assert_linear(
            "icd",
            seed,
            s.regular_txs + s.unary_txs,
            s.collect_passes,
            s.collect_scanned,
            every,
        );
    }
}

/// Every violation a run reported, in report order, with its cycle members
/// and blame.
fn velodrome_run(
    program: &Program,
    spec: &AtomicitySpec,
    seed: u64,
    every: u32,
) -> Vec<VViolation> {
    let config = VelodromeConfig {
        collect_every: every,
        ..VelodromeConfig::default()
    };
    let v = Velodrome::new(program.threads.len(), spec.clone(), config);
    run_det(program, &v, &Schedule::random(seed)).expect("velodrome run");
    v.violations()
}

fn aerodrome_run(
    program: &Program,
    spec: &AtomicitySpec,
    seed: u64,
    every: u32,
) -> Vec<VViolation> {
    let config = AeroConfig {
        collect_every: every,
        ..AeroConfig::default()
    };
    let a = AeroDrome::new(program.threads.len(), spec.clone(), config);
    run_det(program, &a, &Schedule::random(seed)).expect("aerodrome run");
    a.violations()
}

#[test]
fn collection_pacing_never_changes_a_verdict() {
    let mut cases: Vec<(String, Program, AtomicitySpec)> = Vec::new();
    let (program, spec) = stale_root_program(200);
    cases.push(("stale-root".into(), program, spec));
    for name in ["tsp", "hsqldb6", "xalan6", "avrora9"] {
        let wl = by_name(name, Scale::Tiny).expect("suite workload");
        let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
        cases.push((name.into(), wl.program, spec));
    }
    let mut found = 0;
    for (name, program, spec) in &cases {
        for seed in 0..4u64 {
            let reference = velodrome_run(program, spec, seed, 0);
            found += reference.len();
            for every in [0, 1, 256] {
                let ctx = format!("{name} seed {seed} collect_every {every}");
                assert_eq!(
                    velodrome_run(program, spec, seed, every),
                    reference,
                    "{ctx}: velodrome"
                );
                assert_eq!(
                    aerodrome_run(program, spec, seed, every),
                    reference,
                    "{ctx}: aerodrome"
                );
            }
        }
    }
    assert!(found > 0, "the racy schedules must produce violations");
}
