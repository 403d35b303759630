//! The four workloads: programs, per-execution inputs derived from the
//! seed, and known answers computed without the checkers under test.
//! See `perfbench/README.md` for why each workload was chosen.

use crate::exec::{Expected, Input, Source};
use crate::spans::Spans;
use dc_core::{initial_spec, ExecPlan};
use dc_histories::{generate, AnomalyMode, GenHistoryParams};
use dc_pcd::{analyze_trace, OfflineConfig};
use dc_runtime::engine::det::{run_det, Schedule};
use dc_runtime::ids::{CellId, MethodId, ThreadId};
use dc_runtime::program::{Op, Program};
use dc_runtime::spec::AtomicitySpec;
use dc_runtime::trace::TraceChecker;
use dc_workloads::builder::{churn, locked, repeat, rmw};
use dc_workloads::{dacapo, Scale, WorkloadBuilder};
use std::collections::BTreeSet;

pub const WORKLOADS: [&str; 4] = ["local-real", "contended-det", "contended-real", "histories"];

/// Schedules per `contended-det` run; each costs one offline-oracle pass
/// in set-up.
const DET_SCHEDULES: u64 = 5;
/// Histories per `histories` run (a multiple of the four anomaly modes).
const HISTORIES: u64 = 8;
/// Outer iterations of the `contended-real` workers.
pub const CONTENDED_ITERS: u32 = 800;
/// Outer iterations of the `contended-real` copy the set-up oracle checks.
const CONTENDED_ORACLE_ITERS: u32 = 40;
/// Seeded random det schedules of that copy.
const CONTENDED_ORACLE_SCHEDULES: u64 = 3;

/// A workload ready to measure.
pub struct Setup {
    pub inputs: Vec<Input>,
    /// Whether the untraced run pairs the pipelined configuration. Off
    /// where the graph-owner thread would add a third runnable thread on
    /// a two-core host.
    pub pipelined_pair: bool,
}

/// SplitMix64: derives the per-execution seeds from the run's seed.
fn derive(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1))
        .wrapping_add(0x5851_f42d_4c95_7f2d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Violation keys the offline oracle finds on `schedule`.
fn oracle(
    program: &Program,
    spec: &AtomicitySpec,
    schedule: &Schedule,
) -> Result<Vec<Vec<Option<MethodId>>>, String> {
    let trace = TraceChecker::new();
    run_det(program, &trace, schedule).map_err(|e| format!("oracle run: {e}"))?;
    let report = analyze_trace(&trace.into_events(), spec, OfflineConfig::default());
    Ok(report.violations.iter().map(|v| v.static_key()).collect())
}

pub fn setup(name: &str, seed: u64, spans: &Spans) -> Result<Setup, String> {
    match name {
        "local-real" => local_real(seed, spans),
        "contended-det" => contended_det(seed, spans),
        "contended-real" => contended_real(seed, spans),
        "histories" => histories(seed, spans),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// `jython9` at full scale on real threads: one worker, the main thread
/// blocked in join, ~99% thread-local accesses. No racy methods, so the known
/// answer is "no violation"; the offline oracle confirms it on a det
/// schedule of the same generator at tiny scale.
fn local_real(seed: u64, spans: &Spans) -> Result<Setup, String> {
    let wl = spans.span("workload build", None, 0, |_| dacapo::jython9(Scale::Full));
    let spec = initial_spec(&wl.program, &wl.extra_exclusions);
    let keys = spans.span("oracle", None, 0, |_| {
        let tiny = dacapo::jython9(Scale::Tiny);
        let tiny_spec = initial_spec(&tiny.program, &tiny.extra_exclusions);
        oracle(
            &tiny.program,
            &tiny_spec,
            &Schedule::random(derive(seed, 0)),
        )
    })?;
    if !keys.is_empty() {
        return Err(format!("oracle found violations in jython9: {keys:?}"));
    }
    Ok(Setup {
        inputs: vec![Input {
            label: "jython9/full/real".into(),
            source: Source::Program {
                program: wl.program,
                spec,
                plan: ExecPlan::Real,
            },
            expected: Expected::Exists(false),
        }],
        pipelined_pair: true,
    })
}

/// `avrora9` at full scale under the deterministic engine: five virtual
/// threads on one OS thread, seeded random schedules. The known answer is
/// violation existence from the offline oracle on the same schedule.
fn contended_det(seed: u64, spans: &Spans) -> Result<Setup, String> {
    let wl = spans.span("workload build", None, 0, |_| dacapo::avrora9(Scale::Full));
    let spec = initial_spec(&wl.program, &wl.extra_exclusions);
    let mut inputs = Vec::new();
    for i in 0..DET_SCHEDULES {
        let s = derive(seed, i);
        let schedule = Schedule::random(s);
        let keys = spans.span("oracle", None, 0, |_| oracle(&wl.program, &spec, &schedule))?;
        inputs.push(Input {
            label: format!("avrora9/full/det schedule {s}"),
            source: Source::Program {
                program: wl.program.clone(),
                spec: spec.clone(),
                plan: ExecPlan::Det(schedule),
            },
            expected: Expected::Exists(!keys.is_empty()),
        });
    }
    Ok(Setup {
        inputs,
        pipelined_pair: true,
    })
}

/// The `contended-real` program: two workers (plus the main thread blocked
/// in join), each iteration doing private churn, one lock-protected op,
/// ping-pong on its own field of one shared object, and the seeded racy
/// read-modify-write methods. Returns the program, its spec, and the racy
/// methods.
fn contended_program(seed: u64, iters: u32) -> (Program, AtomicitySpec, BTreeSet<MethodId>) {
    const WORKERS: usize = 2;
    let mut w = WorkloadBuilder::new("contended-real");
    let lock = w.monitor();
    let shared = w.object(4);
    let pingpong = w.object(16);
    let racy_obj = w.object(16);

    // The seed picks how many racy methods there are, which cell each
    // one races on, and the order each worker calls them in.
    let mut r = derive(seed, 1000);
    let n_racy = 3 + (r % 3) as usize;
    let mut cells: Vec<CellId> = (0..16).collect();
    for k in (1..cells.len()).rev() {
        r = derive(r, k as u64);
        cells.swap(k, (r % (k as u64 + 1)) as usize);
    }
    let racy: Vec<MethodId> = (0..n_racy)
        .map(|k| {
            w.method(
                format!("contended.racyUpdate{k}"),
                rmw(racy_obj, cells[k], 4),
            )
        })
        .collect();
    let locked_op = w.method(
        "contended.lockedOp",
        locked(
            lock,
            vec![Op::Read(shared, 0), Op::Write(shared, 1), Op::Compute(3)],
        ),
    );

    let mut entries = Vec::new();
    for i in 0..WORKERS {
        let private = w.objects(8, 8);
        let local = w.method(
            format!("contended.localWork{i}"),
            vec![churn(&private, 8, 16, 4)],
        );
        let ping = w.method(
            format!("contended.pingPong{i}"),
            vec![repeat(
                16,
                vec![
                    Op::Write(pingpong, i as CellId),
                    Op::Read(pingpong, i as CellId),
                ],
            )],
        );
        let mut order = racy.clone();
        r = derive(r, 2000 + i as u64);
        order.rotate_left((r % n_racy as u64) as usize);
        let mut body = vec![Op::Call(local), Op::Call(locked_op), Op::Call(ping)];
        body.extend(order.into_iter().map(Op::Call));
        entries.push(w.excluded_method(format!("contended.worker{i}"), vec![repeat(iters, body)]));
    }
    let mut main_body = Vec::new();
    for i in 0..WORKERS {
        main_body.push(Op::Fork(ThreadId((i + 1) as u16)));
    }
    for i in 0..WORKERS {
        main_body.push(Op::Join(ThreadId((i + 1) as u16)));
    }
    let main = w.excluded_method("contended.main", main_body);
    w.thread(main);
    for e in entries {
        w.forked_thread(e);
    }
    let wl = w.build(true);
    let spec = initial_spec(&wl.program, &wl.extra_exclusions);
    (wl.program, spec, racy.into_iter().collect())
}

/// Checks the `contended-real` precision rule against the offline oracle:
/// on each det schedule of the program at `iters` iterations, every cycle
/// the oracle finds must contain a seeded racy method. Returns how many
/// oracle cycles confirmed the rule.
pub fn confirm_precision_rule(
    seed: u64,
    iters: u32,
    schedules: &[Schedule],
    spans: &Spans,
) -> Result<usize, String> {
    let (program, spec, racy) = contended_program(seed, iters);
    let mut confirmed = 0;
    for schedule in schedules {
        let keys = spans.span("oracle", None, 0, |_| oracle(&program, &spec, schedule))?;
        for key in &keys {
            if !key.iter().any(|m| m.is_some_and(|m| racy.contains(&m))) {
                return Err(format!("precision rule fails: oracle cycle {key:?}"));
            }
        }
        confirmed += keys.len();
    }
    Ok(confirmed)
}

/// Two workers on real threads under real conflicts. The known answer is
/// precision by construction: every reported cycle contains a seeded racy
/// method. Set-up checks that no oracle cycle breaks that rule on small det
/// schedules of the same program (racy overlaps are rare there, so the
/// check may find no cycle at all); `--self-test` confirms the rule on a
/// racy cycle of the full-size program.
fn contended_real(seed: u64, spans: &Spans) -> Result<Setup, String> {
    let (program, spec, racy) = spans.span("workload build", None, 0, |_| {
        contended_program(seed, CONTENDED_ITERS)
    });
    let schedules: Vec<Schedule> = (0..CONTENDED_ORACLE_SCHEDULES)
        .map(|i| Schedule::random(derive(seed, 3000 + i)))
        .collect();
    confirm_precision_rule(seed, CONTENDED_ORACLE_ITERS, &schedules, spans)?;
    Ok(Setup {
        inputs: vec![Input {
            label: format!("contended-real/{CONTENDED_ITERS} iterations/real"),
            source: Source::Program {
                program,
                spec,
                plan: ExecPlan::Real,
            },
            expected: Expected::Within(racy),
        }],
        pipelined_pair: false,
    })
}

/// Generated dbcop-style histories, 2 sessions and ~2,000 transactions
/// each. The run's seed picks the first anomaly mode; the inputs cycle
/// through all four, so every run weighs them equally. The known answer is
/// the generator's.
fn histories(seed: u64, spans: &Spans) -> Result<Setup, String> {
    let inputs = (0..HISTORIES)
        .map(|i| {
            let s = derive(seed, i);
            let mode = AnomalyMode::ALL[(seed.wrapping_add(i) % 4) as usize];
            let text = spans.span("history generate", None, 0, |_| {
                generate(&GenHistoryParams {
                    seed: s,
                    sessions: 2,
                    base_txs: 4000,
                    ops_per_tx: 1,
                    keys: 16,
                    mode,
                })
                .history
                .to_json()
            });
            Input {
                label: format!("history {} seed {s}", mode.as_str()),
                source: Source::History { text },
                expected: Expected::Exists(mode.expected().violation()),
            }
        })
        .collect();
    Ok(Setup {
        inputs,
        pipelined_pair: true,
    })
}
