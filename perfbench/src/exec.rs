//! One checked execution: build the checker, run the engine, assemble the
//! report, and judge the verdict against the known answer.

use crate::octet_only::OctetOnly;
use crate::spans::Spans;
use dc_aerodrome::{AeroConfig, AeroDrome};
use dc_core::{DcConfig, DcReport, DoubleChecker, ExecPlan, ObsLevel, OpTransport};
use dc_octet::CoordinationMode;
use dc_runtime::checker::{Checker, NopChecker};
use dc_runtime::engine::det::{run_det, DetError};
use dc_runtime::engine::real::run_real;
use dc_runtime::engine::RunStats;
use dc_runtime::ids::MethodId;
use dc_runtime::program::Program;
use dc_runtime::spec::{AtomicitySpec, TxFilter};
use dc_velodrome::{VViolation, Variant, Velodrome, VelodromeConfig};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Every configuration the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Config {
    /// The unmodified program (`NopChecker`).
    Nop,
    /// Octet barriers over `NullSink` (ladder rung).
    OctetOnly,
    /// First run of multi-run mode: ICD without logging or PCD.
    FirstRun,
    /// Single-run with `run_pcd: false`: ICD plus logging (ladder rung).
    SingleNoPcd,
    /// Single-run DoubleChecker, synchronous (the CLI default).
    Single,
    /// Single-run with the asynchronous pipeline.
    Pipelined,
    /// The Velodrome baseline.
    Velodrome,
    /// The AeroDrome vector-clock checker.
    AeroDrome,
    /// `Single` at `ObsLevel::Full` (traced run only).
    SingleTraced,
    /// `Pipelined` at `ObsLevel::Full` (traced run only).
    PipelinedTraced,
    /// `AeroDrome` with per-join latency timing (traced run only).
    AeroDromeTraced,
}

impl Config {
    pub fn name(self) -> &'static str {
        match self {
            Config::Nop => "nop",
            Config::OctetOnly => "octet-only",
            Config::FirstRun => "first-run",
            Config::SingleNoPcd => "single-run-no-pcd",
            Config::Single => "single-run",
            Config::Pipelined => "pipelined",
            Config::Velodrome => "velodrome",
            Config::AeroDrome => "aerodrome",
            Config::SingleTraced => "single-run-traced",
            Config::PipelinedTraced => "pipelined-traced",
            Config::AeroDromeTraced => "aerodrome-traced",
        }
    }

    /// The pinned `DcConfig` of a DoubleChecker configuration. Every knob
    /// the library would otherwise take from a process-wide default is set
    /// here explicitly.
    pub fn dc_config(self, coordination: CoordinationMode) -> Option<DcConfig> {
        use Config::*;
        let base = match self {
            FirstRun => DcConfig::first_run(coordination),
            SingleNoPcd | Single | Pipelined | SingleTraced | PipelinedTraced => {
                DcConfig::single_run(coordination)
            }
            Nop | OctetOnly | Velodrome | AeroDrome | AeroDromeTraced => return None,
        };
        let traced = matches!(self, SingleTraced | PipelinedTraced);
        Some(
            DcConfig {
                run_pcd: !matches!(self, FirstRun | SingleNoPcd),
                ..base
            }
            .with_pipelined(matches!(self, Pipelined | PipelinedTraced))
            .with_observability(if traced {
                ObsLevel::Full
            } else {
                ObsLevel::Off
            })
            .with_op_transport(OpTransport::Ring)
            .with_shards(1)
            .with_barrier_cache(true),
        )
    }

    /// Whether the configuration reports violations (and so has its
    /// verdict compared with the known answer's existence/precision).
    fn reports_violations(self) -> bool {
        matches!(
            self,
            Config::Single
                | Config::Pipelined
                | Config::Velodrome
                | Config::AeroDrome
                | Config::SingleTraced
                | Config::PipelinedTraced
                | Config::AeroDromeTraced
        )
    }
}

/// The Velodrome configuration, pinned field by field.
fn velodrome_config() -> VelodromeConfig {
    VelodromeConfig {
        variant: Variant::Sound,
        instrument_arrays: false,
        detect_cycles: true,
        filter: TxFilter::all(),
        collect_every: 256,
    }
}

/// The AeroDrome configuration, pinned field by field.
fn aerodrome_config(time_joins: bool) -> AeroConfig {
    AeroConfig {
        instrument_arrays: false,
        detect_cycles: true,
        filter: TxFilter::all(),
        collect_every: 256,
        time_joins,
    }
}

/// The known answer for one input, computed without the checkers under
/// test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// Whether a violation exists (offline oracle on the same schedule,
    /// or the history generator's verdict).
    Exists(bool),
    /// Precision by construction: every reported cycle must contain one
    /// of these methods (the seeded racy ones). Existence is not known.
    Within(BTreeSet<MethodId>),
}

impl Expected {
    /// A deliberately wrong answer, for the self-test.
    pub fn flipped(&self) -> Expected {
        match self {
            Expected::Exists(b) => Expected::Exists(!b),
            Expected::Within(_) => Expected::Within(BTreeSet::new()),
        }
    }
}

/// What one input gives the engine.
pub enum Source {
    /// A program built during set-up.
    Program {
        program: Program,
        spec: AtomicitySpec,
        plan: ExecPlan,
    },
    /// A dbcop-style history as JSON text; each execution parses and
    /// lowers it inside the verdict clock.
    History { text: String },
}

/// One per-execution input and its known answer.
pub struct Input {
    pub label: String,
    pub source: Source,
    pub expected: Expected,
}

/// Layer details an execution exposes to the traced run.
#[derive(Default)]
pub struct Details {
    pub dc: Option<DcReport>,
    pub aero_joins: Option<(u64, u64)>,
    pub history_bytes: u64,
}

/// The measured outcome of one execution.
pub struct Outcome {
    /// Parse and lower (histories only), in ns.
    pub prepare_ns: u64,
    /// Checker construction + engine run + report assembly, in ns.
    pub run_ns: u64,
    /// Events (`RunStats::total_accesses`).
    pub events: u64,
    /// Whether the engine ran to the end and the report was assembled, so
    /// the times are usable even if the verdict was wrong.
    pub completed: bool,
    /// `Err` when the execution failed: wrong verdict, pipeline error,
    /// `DetError`, or panic.
    pub result: Result<(), String>,
    pub details: Details,
}

impl Outcome {
    /// Time from the start of the execution to its finished report.
    pub fn verdict_ns(&self) -> u64 {
        self.prepare_ns + self.run_ns
    }
}

/// What a configuration reported, before judging.
struct Reported {
    run: RunStats,
    keys: Vec<Vec<Option<MethodId>>>,
    icd_sccs: Option<u64>,
    pipeline_error: Option<String>,
    details: Details,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn run_engine<C: Checker>(
    program: &Program,
    checker: &C,
    plan: &ExecPlan,
    spans: &Spans,
    parent: Option<u32>,
    exec: u64,
) -> Result<RunStats, DetError> {
    spans.span("engine run", parent, exec, |_| match plan {
        ExecPlan::Real => Ok(run_real(program, checker)),
        ExecPlan::Det(schedule) => run_det(program, checker, schedule),
    })
}

/// Violation keys of a Velodrome or AeroDrome report.
fn static_keys(violations: &[VViolation]) -> Vec<Vec<Option<MethodId>>> {
    violations.iter().map(VViolation::static_key).collect()
}

/// Runs `config` on one program; everything here is inside the run clock.
fn run_config(
    config: Config,
    program: &Program,
    spec: &AtomicitySpec,
    plan: &ExecPlan,
    spans: &Spans,
    parent: Option<u32>,
    exec: u64,
) -> Result<Reported, DetError> {
    let n = program.threads.len();
    let plain = |run: RunStats| Reported {
        run,
        keys: Vec::new(),
        icd_sccs: None,
        pipeline_error: None,
        details: Details::default(),
    };
    match config {
        Config::Nop => run_engine(program, &NopChecker, plan, spans, parent, exec).map(plain),
        Config::OctetOnly => {
            let checker = OctetOnly::new(n, plan.coordination());
            run_engine(program, &checker, plan, spans, parent, exec).map(plain)
        }
        Config::Velodrome => {
            let checker = Velodrome::new(n, spec.clone(), velodrome_config());
            let run = run_engine(program, &checker, plan, spans, parent, exec)?;
            let keys = spans.span("report assembly", parent, exec, |_| {
                static_keys(&checker.violations())
            });
            Ok(Reported { keys, ..plain(run) })
        }
        Config::AeroDrome | Config::AeroDromeTraced => {
            let traced = config == Config::AeroDromeTraced;
            let checker = AeroDrome::new(n, spec.clone(), aerodrome_config(traced));
            let run = run_engine(program, &checker, plan, spans, parent, exec)?;
            let keys = spans.span("report assembly", parent, exec, |_| {
                static_keys(&checker.violations())
            });
            let details = Details {
                aero_joins: traced.then(|| {
                    (
                        checker.clock_joins(),
                        checker.stats().clock_join_latency.summary().p99,
                    )
                }),
                ..Details::default()
            };
            Ok(Reported {
                keys,
                details,
                ..plain(run)
            })
        }
        _ => {
            let dc_config = config
                .dc_config(plan.coordination())
                .expect("every other configuration is a DoubleChecker mode");
            let checker = DoubleChecker::new(n, spec.clone(), dc_config);
            let run = run_engine(program, &checker, plan, spans, parent, exec)?;
            let report = spans.span("report assembly", parent, exec, |_| DcReport {
                violations: checker.violations(),
                static_info: checker.static_info(),
                stats: checker.stats(),
                run,
                pipeline: checker.pipeline_report(),
                trace: checker.trace_events(),
                pipeline_error: checker.pipeline_error(),
            });
            Ok(Reported {
                run,
                keys: report.violations.iter().map(|v| v.static_key()).collect(),
                icd_sccs: Some(report.stats.icd_sccs),
                pipeline_error: report.pipeline_error.map(|e| e.to_string()),
                details: Details {
                    dc: Some(report),
                    ..Details::default()
                },
            })
        }
    }
}

/// Compares what a configuration reported with the known answer.
fn judge(config: Config, expected: &Expected, r: &Reported) -> Result<(), String> {
    if let Some(e) = &r.pipeline_error {
        return Err(format!("pipeline error: {e}"));
    }
    if !config.reports_violations() {
        if !r.keys.is_empty() {
            return Err(format!("{} reported violations", config.name()));
        }
        // ICD is sound: a real violation must surface as an imprecise SCC.
        if let (Expected::Exists(true), Some(0)) = (expected, r.icd_sccs) {
            return Err("a violation exists but ICD found no SCC".into());
        }
        return Ok(());
    }
    match expected {
        Expected::Exists(exists) => {
            let found = !r.keys.is_empty();
            if found != *exists {
                return Err(format!("found={found}, known answer exists={exists}"));
            }
        }
        Expected::Within(racy) => {
            for key in &r.keys {
                if !key.iter().any(|m| m.is_some_and(|m| racy.contains(&m))) {
                    return Err(format!(
                        "imprecise violation {key:?}: no seeded racy method"
                    ));
                }
            }
        }
    }
    Ok(())
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Runs `config` on `input` and judges it against `expected`.
pub fn execute(
    config: Config,
    input: &Input,
    expected: &Expected,
    spans: &Spans,
    exec: u64,
) -> Outcome {
    spans.span("execution", None, exec, |parent| {
        let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
            match &input.source {
                Source::Program {
                    program,
                    spec,
                    plan,
                } => {
                    let t = Instant::now();
                    let r = run_config(config, program, spec, plan, spans, parent, exec);
                    Ok((0, ns_since(t), r, 0))
                }
                Source::History { text } => {
                    let t = Instant::now();
                    let history = spans
                        .span("parse", parent, exec, |_| {
                            dc_histories::History::parse(text)
                        })
                        .map_err(|e| format!("parse: {e}"))?;
                    let lowered = spans
                        .span("lower", parent, exec, |_| dc_histories::lower(&history))
                        .map_err(|e| format!("lower: {e}"))?;
                    let plan = ExecPlan::Det(lowered.schedule);
                    let prepare_ns = ns_since(t);
                    let t = Instant::now();
                    let r = run_config(
                        config,
                        &lowered.program,
                        &lowered.spec,
                        &plan,
                        spans,
                        parent,
                        exec,
                    );
                    Ok((prepare_ns, ns_since(t), r, text.len() as u64))
                }
            }
        }));
        let failed = |prepare_ns, run_ns, msg| Outcome {
            prepare_ns,
            run_ns,
            events: 0,
            completed: false,
            result: Err(msg),
            details: Details::default(),
        };
        match attempt {
            Err(p) => failed(0, 0, format!("panic: {}", panic_message(&*p))),
            Ok(Err(msg)) => failed(0, 0, msg),
            Ok(Ok((prepare_ns, run_ns, Err(e), _))) => {
                failed(prepare_ns, run_ns, format!("DetError: {e}"))
            }
            Ok(Ok((prepare_ns, run_ns, Ok(reported), bytes))) => {
                let result = judge(config, expected, &reported);
                let mut details = reported.details;
                details.history_bytes = bytes;
                Outcome {
                    prepare_ns,
                    run_ns,
                    events: reported.run.total_accesses(),
                    completed: true,
                    result,
                    details,
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reported(keys: Vec<Vec<Option<MethodId>>>, sccs: Option<u64>) -> Reported {
        Reported {
            run: RunStats::default(),
            keys,
            icd_sccs: sccs,
            pipeline_error: None,
            details: Details::default(),
        }
    }

    #[test]
    fn wrong_existence_is_an_error() {
        let r = reported(vec![vec![Some(MethodId(1)), Some(MethodId(2))]], Some(3));
        assert!(judge(Config::Single, &Expected::Exists(true), &r).is_ok());
        assert!(judge(Config::Single, &Expected::Exists(false), &r).is_err());
        let clean = reported(vec![], Some(0));
        assert!(judge(Config::Velodrome, &Expected::Exists(true), &clean).is_err());
    }

    #[test]
    fn precision_rule_needs_a_racy_method_in_every_cycle() {
        let racy: BTreeSet<MethodId> = [MethodId(7)].into_iter().collect();
        let ok = reported(vec![vec![None, Some(MethodId(7))]], Some(1));
        let bad = reported(vec![vec![None, Some(MethodId(3))]], Some(1));
        assert!(judge(Config::Pipelined, &Expected::Within(racy.clone()), &ok).is_ok());
        assert!(judge(Config::Pipelined, &Expected::Within(racy), &bad).is_err());
    }

    #[test]
    fn first_run_must_find_an_scc_when_a_violation_exists() {
        let none = reported(vec![], Some(0));
        assert!(judge(Config::FirstRun, &Expected::Exists(true), &none).is_err());
        assert!(judge(Config::FirstRun, &Expected::Exists(false), &none).is_ok());
    }

    #[test]
    fn pipeline_error_is_an_error() {
        let mut r = reported(vec![], Some(0));
        r.pipeline_error = Some("stale ticket".into());
        assert!(judge(Config::Pipelined, &Expected::Exists(false), &r).is_err());
    }
}
