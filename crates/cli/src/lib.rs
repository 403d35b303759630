//! Library backing the `dc` command-line tool: argument parsing and the
//! subcommand implementations, kept separate from `main` for testability.
//!
//! Subcommands:
//!
//! * `dc list` — the benchmark workloads and their shapes;
//! * `dc check --workload <name> [--checker <which>] [--seed N] …` — run
//!   one checker over one workload and report violations;
//! * `dc refine --workload <name> …` — iterative refinement (Figure 6);
//! * `dc trace --workload <name> …` — record and print an execution trace,
//!   with the offline oracle's verdict.
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to stay within
//! the workspace's dependency policy. Each subcommand declares the keys it
//! accepts; any other key is a usage error rather than a silent no-op.

#![warn(missing_docs)]

use dc_aerodrome::{AeroConfig, AeroDrome};
use dc_core::{
    run_doublechecker, stats_to_json, trace_event_to_json, DcConfig, DcReport, ExecPlan, ObsLevel,
    ReportedViolation, StaticTxInfo,
};
use dc_octet::CoordinationMode;
use dc_pcd::{analyze_trace, OfflineConfig};
use dc_runtime::engine::det::Schedule;
use dc_runtime::program::Program;
use dc_runtime::spec::AtomicitySpec;
use dc_runtime::trace::TraceChecker;
use dc_velodrome::{Variant, Velodrome, VelodromeConfig};
use dc_workloads::{by_name, Scale, Workload};
use std::fmt::Write as _;

/// Everything that can go wrong while handling a command.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Unknown subcommand or malformed flags; the message is user-facing.
    Usage(String),
    /// The command ran but failed (unknown workload, deadlock, …).
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `--key value` pairs from raw arguments, accepting only the
    /// keys in `accepted`.
    ///
    /// # Errors
    ///
    /// Rejects positional arguments, dangling `--key`s, and keys not in
    /// `accepted`.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument {a:?}")));
            };
            if !accepted.contains(&key) {
                return Err(CliError::Usage(format!(
                    "unknown flag --{key}; accepted: --{}",
                    accepted.join(", --")
                )));
            }
            let Some(value) = it.next() else {
                return Err(CliError::Usage(format!("--{key} needs a value")));
            };
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    /// The value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} expects a number, got {v:?}"))),
        }
    }

    fn scale(&self) -> Result<Scale, CliError> {
        match self.get("scale") {
            None | Some("tiny") => Ok(Scale::Tiny),
            Some("small") => Ok(Scale::Small),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(CliError::Usage(format!(
                "--scale must be tiny|small|full, got {other:?}"
            ))),
        }
    }

    fn workload(&self) -> Result<Workload, CliError> {
        let name = self
            .get("workload")
            .ok_or_else(|| CliError::Usage("--workload <name> is required".into()))?;
        by_name(name, self.scale()?).ok_or_else(|| {
            CliError::Failed(format!(
                "unknown workload {name:?}; `dc list` shows the available ones"
            ))
        })
    }
}

/// Top-level usage text.
pub fn usage() -> &'static str {
    "usage: dc <command> [--key value …]\n\
     commands:\n\
       list                         list benchmark workloads\n\
       check   --workload <name>    run one checker over one execution\n\
               | --history <file>   … or replay an imported dc-history JSON\n\
                                    file (fixed interleaving; excludes\n\
                                    --workload/--seed/--engine real)\n\
               [--checker dc|single|first-run|second-run|pcd-only|\n\
                          velodrome|velodrome-unsound|aerodrome]\n\
               [--seed N] [--scale tiny|small|full] [--engine det|real]\n\
               [--pipelined on|off]  async graph/SCC/PCD pipeline (DoubleChecker modes)\n\
               [--barrier-cache on|off]  Octet ownership inline cache (default on)\n\
               [--obs off|counters|full]  pipeline observability level\n\
               [--stats-json <path>] write stats + pipeline metrics as JSON\n\
               [--trace-out <path>]  write the pipeline trace as JSON lines (implies --obs full)\n\
       refine  --workload <name>    iterative refinement (Figure 6)\n\
               [--window N] [--scale tiny|small|full]\n\
       trace   --workload <name>    record a trace; offline-oracle verdict\n\
               [--seed N] [--limit N] [--scale tiny|small|full]"
}

/// Dispatches a command line (without the program name). Returns the text
/// to print on success.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed invocations, [`CliError::Failed`] for
/// runtime failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    type Command = fn(&Flags) -> Result<String, CliError>;
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage(usage().into()));
    };
    let (accepted, cmd): (&[&str], Command) = match command.as_str() {
        "list" => (&["scale"], cmd_list),
        "check" => (
            &[
                "workload",
                "history",
                "checker",
                "seed",
                "scale",
                "engine",
                "pipelined",
                "barrier-cache",
                "obs",
                "stats-json",
                "trace-out",
            ],
            cmd_check,
        ),
        "refine" => (&["workload", "window", "scale"], cmd_refine),
        "trace" => (&["workload", "seed", "limit", "scale"], cmd_trace),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command {other:?}\n{}",
                usage()
            )))
        }
    };
    cmd(&Flags::parse(rest, accepted)?)
}

fn cmd_list(flags: &Flags) -> Result<String, CliError> {
    let scale = flags.scale()?;
    let mut out = String::new();
    writeln!(
        out,
        "{:<12} {:>8} {:>9} {:>12}  notes",
        "name", "threads", "methods", "dynamic ops"
    )
    .ok();
    for wl in dc_workloads::all(scale) {
        writeln!(
            out,
            "{:<12} {:>8} {:>9} {:>12}  {}",
            wl.name,
            wl.program.threads.len(),
            wl.program.methods.len(),
            wl.program.dynamic_op_count(),
            if wl.compute_bound {
                "compute-bound"
            } else {
                "excluded from Figure 7"
            },
        )
        .ok();
    }
    Ok(out)
}

fn spec_for(wl: &Workload) -> AtomicitySpec {
    dc_core::initial_spec(&wl.program, &wl.extra_exclusions)
}

fn plan(flags: &Flags) -> Result<ExecPlan, CliError> {
    let seed = flags.u64_or("seed", 42)?;
    match flags.get("engine") {
        None | Some("det") => Ok(ExecPlan::Det(Schedule::random(seed))),
        Some("real") => Ok(ExecPlan::Real),
        Some(other) => Err(CliError::Usage(format!(
            "--engine must be det|real, got {other:?}"
        ))),
    }
}

/// Observability-related `check` flags: level override plus output paths.
struct ObsFlags {
    level: Option<ObsLevel>,
    stats_json: Option<String>,
    trace_out: Option<String>,
}

impl ObsFlags {
    fn parse(flags: &Flags) -> Result<ObsFlags, CliError> {
        let level = match flags.get("obs") {
            None => None,
            Some(v) => Some(ObsLevel::parse(v).ok_or_else(|| {
                CliError::Usage(format!("--obs must be off|counters|full, got {v:?}"))
            })?),
        };
        Ok(ObsFlags {
            level,
            stats_json: flags.get("stats-json").map(String::from),
            trace_out: flags.get("trace-out").map(String::from),
        })
    }

    fn any(&self) -> bool {
        self.level.is_some() || self.stats_json.is_some() || self.trace_out.is_some()
    }

    /// The effective level: `--trace-out` needs the trace ring (`full`);
    /// `--stats-json` needs at least counters to have anything to report.
    fn effective(&self, default: ObsLevel) -> ObsLevel {
        let level = self.level.unwrap_or(default);
        if self.trace_out.is_some() {
            ObsLevel::Full
        } else if self.stats_json.is_some() && level == ObsLevel::Off {
            ObsLevel::Counters
        } else {
            level
        }
    }
}

/// What `check` runs on: a named benchmark workload or an imported history.
struct CheckTarget {
    program: Program,
    spec: AtomicitySpec,
    plan: ExecPlan,
    /// `Some` when the target came from `--history`: the parsed history,
    /// used for the summary line and expected-verdict enforcement.
    history: Option<dc_histories::History>,
}

fn check_target(flags: &Flags) -> Result<CheckTarget, CliError> {
    let Some(path) = flags.get("history") else {
        let wl = flags.workload()?;
        let spec = spec_for(&wl);
        return Ok(CheckTarget {
            program: wl.program,
            spec,
            plan: plan(flags)?,
            history: None,
        });
    };
    if flags.get("workload").is_some() {
        return Err(CliError::Usage(
            "--history and --workload are mutually exclusive".into(),
        ));
    }
    // A history fixes its own interleaving; flags that pick one are
    // contradictions, not no-ops.
    if flags.get("seed").is_some() {
        return Err(CliError::Usage(
            "--seed has no effect with --history: the interleaving is fixed by the file".into(),
        ));
    }
    if matches!(flags.get("engine"), Some("real")) {
        return Err(CliError::Usage(
            "--engine real cannot replay a history: the interleaving is fixed by the file".into(),
        ));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("reading {path:?}: {e}")))?;
    let (history, lowered) = dc_histories::import(&text)
        .map_err(|e| CliError::Usage(format!("invalid history {path:?}: {e}")))?;
    Ok(CheckTarget {
        program: lowered.program,
        spec: lowered.spec,
        plan: ExecPlan::Det(lowered.schedule),
        history: Some(history),
    })
}

fn cmd_check(flags: &Flags) -> Result<String, CliError> {
    let CheckTarget {
        program,
        spec,
        plan,
        history,
    } = check_target(flags)?;
    let checker = flags.get("checker").unwrap_or("single");
    let obs_flags = ObsFlags::parse(flags)?;
    let mut out = String::new();
    if let Some(h) = &history {
        writeln!(
            out,
            "history: {} — {} session(s), {} transaction(s), {} event(s)",
            h.name.as_deref().unwrap_or("<unnamed>"),
            h.sessions.len(),
            h.transaction_count(),
            h.event_count(),
        )
        .ok();
    }
    let found_violation;

    let describe_violation = |out: &mut String, cycle_methods: &[String], blamed: &[String]| {
        writeln!(
            out,
            "violation: cycle through [{}], blamed [{}]",
            cycle_methods.join(", "),
            blamed.join(", ")
        )
        .ok();
    };

    match checker {
        "velodrome" | "velodrome-unsound" | "aerodrome" => {
            if obs_flags.any() {
                return Err(CliError::Usage(
                    "--obs/--stats-json/--trace-out apply only to DoubleChecker checkers".into(),
                ));
            }
            let (violations, summary) = if checker == "aerodrome" {
                let a = AeroDrome::new(program.threads.len(), spec, AeroConfig::default());
                run_plan(&program, &a, &plan)?;
                let violations = a.violations();
                let summary = format!(
                    "{}: {} violation(s), {} cross edges, {} clock joins ({} propagated)",
                    checker,
                    violations.len(),
                    a.cross_edges(),
                    a.clock_joins(),
                    a.propagated_joins(),
                );
                (violations, summary)
            } else {
                let config = VelodromeConfig {
                    variant: if checker == "velodrome" {
                        Variant::Sound
                    } else {
                        Variant::Unsound
                    },
                    ..VelodromeConfig::default()
                };
                let v = Velodrome::new(program.threads.len(), spec, config);
                run_plan(&program, &v, &plan)?;
                let violations = v.violations();
                let summary = format!(
                    "{}: {} violation(s), {} cross edges",
                    checker,
                    violations.len(),
                    v.cross_edges()
                );
                (violations, summary)
            };
            for violation in &violations {
                let methods: Vec<String> = violation
                    .cycle
                    .iter()
                    .map(|(_, k)| method_name(&program, k.method()))
                    .collect();
                let blamed: Vec<String> = violation
                    .blamed_methods
                    .iter()
                    .map(|m| program.method_name(*m).to_string())
                    .collect();
                describe_violation(&mut out, &methods, &blamed);
            }
            writeln!(out, "{summary}").ok();
            found_violation = !violations.is_empty();
        }
        _ => {
            let coordination = match plan {
                ExecPlan::Real => CoordinationMode::Threaded,
                ExecPlan::Det(_) => CoordinationMode::Immediate,
            };
            let config = match checker {
                "single" | "dc" => DcConfig::single_run(coordination),
                "first-run" => DcConfig::first_run(coordination),
                "second-run" => {
                    // Derive static info from a handful of first runs. A
                    // history has exactly one meaningful interleaving, so
                    // its first run replays the same scripted plan.
                    let first_plans: Vec<ExecPlan> = if history.is_some() {
                        vec![plan.clone()]
                    } else {
                        (0..4u64)
                            .map(|s| ExecPlan::Det(Schedule::random(s)))
                            .collect()
                    };
                    let mut info = StaticTxInfo::default();
                    for p in &first_plans {
                        let r = run_doublechecker(
                            &program,
                            &spec,
                            DcConfig::first_run(CoordinationMode::Immediate),
                            p,
                        )
                        .map_err(|e| CliError::Failed(e.to_string()))?;
                        info.union(&r.static_info);
                    }
                    DcConfig::second_run(&info, coordination)
                }
                "pcd-only" => DcConfig::pcd_only(coordination),
                other => return Err(CliError::Usage(format!("unknown --checker {other:?}"))),
            };
            let config = match flags.get("pipelined") {
                None | Some("off") => config,
                Some("on") => config.with_pipelined(true),
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "--pipelined must be on|off, got {other:?}"
                    )))
                }
            };
            let config = match flags.get("barrier-cache") {
                None => config,
                Some("on") => config.with_barrier_cache(true),
                Some("off") => config.with_barrier_cache(false),
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "--barrier-cache must be on|off, got {other:?}"
                    )))
                }
            };
            let level = obs_flags.effective(config.observability);
            let config = config.with_observability(level);
            let report = run_doublechecker(&program, &spec, config, &plan)
                .map_err(|e| CliError::Failed(e.to_string()))?;
            found_violation = !report.violations.is_empty();
            out.push_str(&finish_check(checker, &program, &report, &obs_flags)?);
        }
    }
    // `first-run` never reports violations and `velodrome-unsound` may
    // legitimately miss them, so the expected verdict binds every other
    // checker only.
    let verdict_binds = !matches!(checker, "first-run" | "velodrome-unsound");
    if let Some(expected) = history
        .as_ref()
        .and_then(|h| h.expected)
        .filter(|_| verdict_binds)
    {
        if expected.violation() != found_violation {
            return Err(CliError::Failed(format!(
                "history expects {} but the {} checker found {}",
                expected.as_str(),
                checker,
                if found_violation {
                    "a violation"
                } else {
                    "no violation"
                },
            )));
        }
        writeln!(out, "expected verdict: {} — matched", expected.as_str()).ok();
    }
    Ok(out)
}

/// Runs any plain [`Checker`] under the selected execution plan.
fn run_plan(
    program: &Program,
    checker: &impl dc_runtime::checker::Checker,
    plan: &ExecPlan,
) -> Result<(), CliError> {
    match plan {
        ExecPlan::Real => {
            dc_runtime::engine::real::run_real(program, checker);
            Ok(())
        }
        ExecPlan::Det(schedule) => dc_runtime::engine::det::run_det(program, checker, schedule)
            .map(|_| ())
            .map_err(|e| CliError::Failed(e.to_string())),
    }
}

/// Writes the `check` artifacts and renders the report for a DoubleChecker
/// run. Split from [`cmd_check`] so a synthetic [`DcReport`] — e.g. one
/// carrying a pipeline error, which no healthy run produces — can exercise
/// the full reporting path.
///
/// A drained pipeline error fails the command *after* the artifacts are
/// written: `--stats-json` carries the error (never a clean-looking
/// document), and the process exit code is nonzero.
fn finish_check(
    checker: &str,
    program: &Program,
    report: &DcReport,
    obs_flags: &ObsFlags,
) -> Result<String, CliError> {
    let mut out = String::new();
    if let Some(path) = &obs_flags.stats_json {
        let doc = stats_to_json(
            report.stats,
            report.pipeline.as_ref(),
            report.pipeline_error.as_ref(),
        );
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| CliError::Failed(format!("writing {path:?}: {e}")))?;
    }
    if let Some(path) = &obs_flags.trace_out {
        let mut lines = String::new();
        for event in &report.trace {
            writeln!(lines, "{}", trace_event_to_json(event)).ok();
        }
        std::fs::write(path, lines)
            .map_err(|e| CliError::Failed(format!("writing {path:?}: {e}")))?;
    }
    if let Some(err) = &report.pipeline_error {
        return Err(CliError::Failed(format!(
            "analysis pipeline failed: {err}; results are a prefix of the run"
        )));
    }
    if let Some(p) = &report.pipeline {
        writeln!(
            out,
            "pipeline: level {}, graph ops {}/{} (queue hwm {}, {} ring-full waits), \
             {} SCCs detected, replay {}/{} (queue hwm {}), {} trace events",
            p.level.as_str(),
            p.graph.ops_applied,
            p.graph.ops_enqueued,
            p.graph.queue_depth.high_watermark,
            p.graph.ring_full_waits,
            p.graph.sccs_detected,
            p.replay.completed,
            p.replay.submitted,
            p.replay.queue_depth.high_watermark,
            p.trace_recorded,
        )
        .ok();
    }
    for violation in &report.violations {
        let methods: Vec<String> = violation
            .cycle
            .iter()
            .map(|m| method_name(program, m.kind.method()))
            .collect();
        let blamed: Vec<String> = violation
            .blamed_methods()
            .iter()
            .map(|m| program.method_name(*m).to_string())
            .collect();
        let mut line = String::new();
        writeln!(
            line,
            "violation: cycle through [{}], blamed [{}]",
            methods.join(", "),
            blamed.join(", ")
        )
        .ok();
        out.push_str(&line);
    }
    let s = &report.stats;
    writeln!(
        out,
        "{}: {} violation(s); {} regular tx, {} unary tx, {} accesses, \
         {} IDG edges, {} SCCs ({} to PCD), {} log entries, {} app-thread graph locks",
        checker,
        report.violations.len(),
        s.regular_txs,
        s.unary_txs,
        s.regular_accesses + s.unary_accesses,
        s.idg_cross_edges,
        s.icd_sccs,
        s.sccs_to_pcd,
        s.log_entries,
        s.graph_locks,
    )
    .ok();
    Ok(out)
}

fn method_name(program: &Program, m: Option<dc_runtime::ids::MethodId>) -> String {
    match m {
        Some(m) => program.method_name(m).to_string(),
        None => "<non-transactional>".into(),
    }
}

fn cmd_refine(flags: &Flags) -> Result<String, CliError> {
    let wl = flags.workload()?;
    let window = u32::try_from(flags.u64_or("window", 5)?)
        .map_err(|_| CliError::Usage("--window too large".into()))?;
    let start = spec_for(&wl);
    let mut seed = 0u64;
    let program = &wl.program;
    let result = dc_core::iterative_refinement(start, window, 32, |spec, _| {
        seed += 1;
        let report = run_doublechecker(
            program,
            spec,
            DcConfig::single_run(CoordinationMode::Immediate),
            &ExecPlan::Det(Schedule::random(seed)),
        )
        .expect("refinement trial");
        report
            .violations
            .iter()
            .map(|v| ReportedViolation {
                blamed: v.blamed_methods(),
                key: v.static_key(),
            })
            .collect()
    });
    let mut out = String::new();
    writeln!(
        out,
        "{}: {} round(s), {} trial(s), {} distinct violation(s)",
        wl.name,
        result.rounds,
        result.trials,
        result.distinct_violations()
    )
    .ok();
    let mut excluded: Vec<&str> = result
        .final_spec
        .excluded()
        .map(|m| wl.program.method_name(m))
        .collect();
    excluded.sort_unstable();
    writeln!(out, "final specification excludes: {excluded:?}").ok();
    Ok(out)
}

fn cmd_trace(flags: &Flags) -> Result<String, CliError> {
    let wl = flags.workload()?;
    let seed = flags.u64_or("seed", 42)?;
    // Checked like --window: `as usize` would silently truncate an
    // over-large value (to 0 on 32-bit, arbitrary elsewhere) instead of
    // telling the user.
    let limit = u32::try_from(flags.u64_or("limit", 40)?)
        .map_err(|_| CliError::Usage("--limit too large".into()))? as usize;
    let trace = TraceChecker::new();
    dc_runtime::engine::det::run_det(&wl.program, &trace, &Schedule::random(seed))
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let events = trace.into_events();
    let spec = spec_for(&wl);
    let report = analyze_trace(&events, &spec, OfflineConfig::default());
    let mut out = String::new();
    writeln!(
        out,
        "{}: {} events; offline oracle: {} violation(s), {} transactions, {} precise edges",
        wl.name,
        events.len(),
        report.violations.len(),
        report.transactions,
        report.edges
    )
    .ok();
    for e in events.iter().take(limit) {
        writeln!(out, "  {e:?}").ok();
    }
    if events.len() > limit {
        writeln!(out, "  … {} more (raise --limit)", events.len() - limit).ok();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_key_value_pairs() {
        let f = Flags::parse(&argv("--workload tsp --seed 7"), &["workload", "seed"]).unwrap();
        assert_eq!(f.get("workload"), Some("tsp"));
        assert_eq!(f.get("seed"), Some("7"));
        assert_eq!(f.get("missing"), None);
    }

    #[test]
    fn flags_reject_positional_and_dangling() {
        assert!(matches!(
            Flags::parse(&argv("positional"), &["key"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Flags::parse(&argv("--key"), &["key"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        // A typo, and the removed sharding and transport knobs: each must
        // fail loudly instead of silently running the default.
        for extra in [
            "--seeed 3",
            "--bogus-flag 1",
            "--shards 2",
            "--shards 1",
            "--transport ring",
            "--transport channel",
        ] {
            let err = run(&argv(&format!("check --workload tsp {extra}"))).unwrap_err();
            let key = extra.split_whitespace().next().unwrap();
            assert!(
                matches!(err, CliError::Usage(ref m) if m.contains(&format!("unknown flag {key}"))),
                "{extra}: {err:?}"
            );
        }
        // Keys are per command: --seed is a `check`/`trace` flag, not a
        // `refine` one.
        assert!(matches!(
            run(&argv("refine --workload elevator --seed 1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv("list --workload tsp")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn empty_invocation_prints_usage() {
        let err = run(&[]).unwrap_err();
        assert!(matches!(err, CliError::Usage(m) if m.contains("usage")));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert!(matches!(run(&argv("bogus")), Err(CliError::Usage(_))));
    }

    #[test]
    fn list_includes_all_nineteen() {
        let out = run(&argv("list")).unwrap();
        for name in ["eclipse6", "tsp", "raytracer", "philo"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("excluded from Figure 7"));
    }

    #[test]
    fn check_single_runs_and_reports() {
        let out = run(&argv("check --workload tsp --seed 3")).unwrap();
        assert!(out.contains("single:"), "{out}");
        assert!(out.contains("IDG edges"));
    }

    #[test]
    fn check_pipelined_reports_zero_graph_locks() {
        let out = run(&argv("check --workload tsp --seed 3 --pipelined on")).unwrap();
        assert!(out.contains("0 app-thread graph locks"), "{out}");
        let sync = run(&argv("check --workload tsp --seed 3 --pipelined off")).unwrap();
        assert!(!sync.contains("0 app-thread graph locks"), "{sync}");
        assert!(matches!(
            run(&argv("check --workload tsp --pipelined maybe")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn check_obs_flag_prints_pipeline_summary() {
        let out = run(&argv("check --workload tsp --seed 3 --obs full")).unwrap();
        assert!(out.contains("pipeline: level full"), "{out}");
        assert!(out.contains("trace events"), "{out}");
        let off = run(&argv("check --workload tsp --seed 3 --obs off")).unwrap();
        assert!(!off.contains("pipeline: level"), "{off}");
        assert!(matches!(
            run(&argv("check --workload tsp --obs verbose")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn effective_level_upgrades_are_exact() {
        let flags = |level, stats_json: bool, trace_out: bool| ObsFlags {
            level,
            stats_json: stats_json.then(|| "s.json".into()),
            trace_out: trace_out.then(|| "t.jsonl".into()),
        };
        // --stats-json lifts Off to Counters, leaves higher levels alone.
        assert_eq!(
            flags(None, true, false).effective(ObsLevel::Off),
            ObsLevel::Counters
        );
        assert_eq!(
            flags(None, true, false).effective(ObsLevel::Full),
            ObsLevel::Full
        );
        // --trace-out always needs the trace ring.
        assert_eq!(
            flags(Some(ObsLevel::Off), false, true).effective(ObsLevel::Off),
            ObsLevel::Full
        );
        // An explicit --obs wins over the default.
        assert_eq!(
            flags(Some(ObsLevel::Counters), false, false).effective(ObsLevel::Full),
            ObsLevel::Counters
        );
        assert_eq!(
            flags(None, false, false).effective(ObsLevel::Off),
            ObsLevel::Off
        );
    }

    #[test]
    fn check_stats_json_writes_stable_schema() {
        let dir = std::env::temp_dir().join("dc-cli-test-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let path_str = path.to_str().unwrap();
        run(&argv(&format!(
            "check --workload tsp --seed 3 --pipelined on --stats-json {path_str}"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = serde_json::from_str(&text).unwrap();
        assert!(doc.get("regular_txs").and_then(|v| v.as_u64()).is_some());
        let pipeline = doc.get("pipeline").expect("pipeline member");
        // --stats-json without --obs implies exactly the counters level.
        assert_eq!(
            pipeline.get("level").and_then(|v| v.as_str()),
            Some("counters")
        );
        for section in ["octet", "graph", "replay", "checker"] {
            assert!(pipeline.get(section).is_some(), "missing {section}");
        }
        let graph = pipeline.get("graph").unwrap();
        assert_eq!(
            graph.get("ops_enqueued"),
            graph.get("ops_applied"),
            "pipeline fully drained"
        );
        assert!(graph
            .get("ring_full_waits")
            .and_then(|v| v.as_u64())
            .is_some());
        assert!(graph.get("singles").and_then(|v| v.as_u64()).is_some());
        let pooled = graph.get("pooled_buffers").expect("pooled_buffers gauge");
        assert!(pooled
            .get("high_watermark")
            .and_then(|v| v.as_u64())
            .is_some());
        let octet = pipeline.get("octet").unwrap();
        assert!(octet.get("coalesced").and_then(|v| v.as_u64()).is_some());
        assert!(octet.get("cache_hits").and_then(|v| v.as_u64()).is_some());
        assert!(octet
            .get("cache_flushes")
            .and_then(|v| v.as_u64())
            .is_some());
        for gone in [
            "shards",
            "shard_merges",
            "shard_queue_depth",
            "shard_busy_ns",
        ] {
            assert!(graph.get(gone).is_none(), "removed key {gone} is back");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_trace_out_writes_json_lines_and_implies_full() {
        let dir = std::env::temp_dir().join("dc-cli-test-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path_str = path.to_str().unwrap();
        let out = run(&argv(&format!(
            "check --workload tsp --seed 3 --pipelined on --trace-out {path_str}"
        )))
        .unwrap();
        assert!(out.contains("pipeline: level full"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty(), "trace must contain events");
        for line in text.lines() {
            let event = serde_json::from_str(line).unwrap();
            assert!(event.get("seq").is_some());
            assert!(event.get("stage").and_then(|v| v.as_str()).is_some());
            assert!(event.get("kind").and_then(|v| v.as_str()).is_some());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn obs_flags_are_rejected_for_velodrome() {
        for checker in ["velodrome", "aerodrome"] {
            for flag in ["--obs full", "--stats-json /tmp/x", "--trace-out /tmp/y"] {
                assert!(
                    matches!(
                        run(&argv(&format!(
                            "check --workload tsp --checker {checker} {flag}"
                        ))),
                        Err(CliError::Usage(_))
                    ),
                    "{flag} must be rejected for {checker}"
                );
            }
        }
    }

    #[test]
    fn check_velodrome_runs() {
        let out = run(&argv(
            "check --workload hsqldb6 --checker velodrome --seed 1",
        ))
        .unwrap();
        assert!(out.contains("velodrome:"), "{out}");
    }

    #[test]
    fn check_aerodrome_runs_and_reports_joins() {
        let out = run(&argv(
            "check --workload hsqldb6 --checker aerodrome --seed 1",
        ))
        .unwrap();
        assert!(out.contains("aerodrome:"), "{out}");
        assert!(out.contains("clock joins"), "{out}");
    }

    #[test]
    fn check_aerodrome_and_velodrome_report_identical_violations() {
        for wl in ["hsqldb6", "tsp", "sor"] {
            let velo = run(&argv(&format!(
                "check --workload {wl} --checker velodrome --seed 5"
            )))
            .unwrap();
            let aero = run(&argv(&format!(
                "check --workload {wl} --checker aerodrome --seed 5"
            )))
            .unwrap();
            let lines = |s: &str| -> Vec<String> {
                s.lines()
                    .filter(|l| l.starts_with("violation:"))
                    .map(String::from)
                    .collect()
            };
            assert_eq!(lines(&velo), lines(&aero), "{wl}: violation lines");
        }
    }

    #[test]
    fn check_dc_alias_matches_single() {
        let single = run(&argv("check --workload tsp --seed 3 --checker single")).unwrap();
        let dc = run(&argv("check --workload tsp --seed 3 --checker dc")).unwrap();
        assert_eq!(
            single.replace("single:", "checker:"),
            dc.replace("dc:", "checker:")
        );
    }

    #[test]
    fn pipeline_error_fails_the_command_with_the_error_in_stats_json() {
        use dc_core::{DcStats, PipelineError};
        let dir = std::env::temp_dir().join("dc-cli-test-pipeline-error");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let wl = dc_workloads::by_name("tsp", Scale::Tiny).unwrap();
        // No healthy run produces a malformed op stream, so drive the
        // reporting path with a synthetic report carrying the drained
        // error — the same shape `run_doublechecker` returns when the
        // pipeline hits one.
        let report = DcReport {
            violations: Vec::new(),
            static_info: StaticTxInfo::default(),
            stats: DcStats::default(),
            run: dc_runtime::engine::RunStats::default(),
            pipeline: None,
            trace: Vec::new(),
            pipeline_error: Some(PipelineError::DuplicateTicket { ticket: 7 }),
        };
        let obs = ObsFlags {
            level: None,
            stats_json: Some(path.to_str().unwrap().into()),
            trace_out: None,
        };
        let err = finish_check("single", &wl.program, &report, &obs).unwrap_err();
        assert!(
            matches!(err, CliError::Failed(ref m) if m.contains("duplicate op ticket 7")),
            "{err:?}"
        );
        // The artifact was still written, and it carries the error rather
        // than looking like a clean run.
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("pipeline_error").and_then(|v| v.as_str()),
            Some("duplicate op ticket 7"),
            "{doc}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn healthy_run_stats_json_reports_null_pipeline_error() {
        let dir = std::env::temp_dir().join("dc-cli-test-healthy-error");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let path_str = path.to_str().unwrap();
        run(&argv(&format!(
            "check --workload tsp --seed 3 --pipelined on --stats-json {path_str}"
        )))
        .unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let member = doc.get("pipeline_error").expect("member always present");
        assert!(
            matches!(member, serde_json::Value::Null),
            "healthy run must report null, got {member}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_unknown_workload_fails_cleanly() {
        let err = run(&argv("check --workload nope")).unwrap_err();
        assert!(matches!(err, CliError::Failed(m) if m.contains("unknown workload")));
    }

    #[test]
    fn trace_prints_prefix_and_oracle_verdict() {
        let out = run(&argv("trace --workload philo --seed 1 --limit 5")).unwrap();
        assert!(out.contains("offline oracle"), "{out}");
        assert!(out.contains("more (raise --limit)"));
    }

    #[test]
    fn trace_limit_overflow_is_a_usage_error_not_silent_truncation() {
        // 5e9 exceeds u32: the old `as usize` cast silently truncated it.
        let err = run(&argv("trace --workload philo --seed 1 --limit 5000000000")).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(ref m) if m.contains("--limit")),
            "{err:?}"
        );
        assert!(matches!(
            run(&argv("trace --workload philo --limit nope")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn check_barrier_cache_flag_preserves_results_and_rejects_garbage() {
        let default = run(&argv("check --workload tsp --seed 3")).unwrap();
        let on = run(&argv("check --workload tsp --seed 3 --barrier-cache on")).unwrap();
        let off = run(&argv("check --workload tsp --seed 3 --barrier-cache off")).unwrap();
        // The inline cache is a pure performance knob: identical summary
        // output with it on, off, or defaulted.
        assert_eq!(default, on);
        assert_eq!(on, off);
        assert!(matches!(
            run(&argv("check --workload tsp --barrier-cache maybe")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn refine_converges_on_elevator() {
        let out = run(&argv("refine --workload elevator --window 4")).unwrap();
        assert!(out.contains("final specification excludes"), "{out}");
    }

    // ---- --history ----------------------------------------------------

    fn lost_update_history() -> String {
        r#"{
          "format": "dc-history",
          "version": 1,
          "name": "lost-update",
          "expected": "violation",
          "sessions": [
            [ {"id": 1, "events": [{"op": "r", "key": "x", "value": 0},
                                   {"op": "w", "key": "x", "value": 1}]} ],
            [ {"id": 2, "events": [{"op": "r", "key": "x", "value": 0},
                                   {"op": "w", "key": "x", "value": 2}]} ]
          ]
        }"#
        .to_string()
    }

    /// Writes `text` to a fresh temp file and returns its path as a string.
    fn history_file(name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join("dc-cli-test-histories");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn check_history_replays_and_matches_expected_verdict() {
        let path = history_file("lost-update.json", &lost_update_history());
        let out = run(&argv(&format!("check --history {path}"))).unwrap();
        assert!(out.contains("history: lost-update"), "{out}");
        assert!(
            out.contains("2 session(s), 2 transaction(s), 4 event(s)"),
            "{out}"
        );
        assert!(out.contains("violation: cycle through"), "{out}");
        assert!(
            out.contains("expected verdict: violation — matched"),
            "{out}"
        );
    }

    #[test]
    fn check_history_runs_every_checker() {
        let path = history_file("lost-update-all.json", &lost_update_history());
        for checker in [
            "single",
            "dc",
            "second-run",
            "pcd-only",
            "velodrome",
            "aerodrome",
        ] {
            let out = run(&argv(&format!(
                "check --history {path} --checker {checker}"
            )))
            .unwrap_or_else(|e| panic!("{checker}: {e:?}"));
            assert!(
                out.contains("expected verdict: violation — matched"),
                "{checker}:\n{out}"
            );
        }
        // first-run reports no violations by design; the expected verdict
        // must not bind it.
        let out = run(&argv(&format!(
            "check --history {path} --checker first-run"
        )))
        .unwrap();
        assert!(!out.contains("expected verdict"), "{out}");
    }

    #[test]
    fn check_history_composes_with_pipeline_flags_and_stats_json() {
        let path = history_file("lost-update-pipe.json", &lost_update_history());
        let stats = std::env::temp_dir()
            .join("dc-cli-test-histories")
            .join("stats.json");
        let stats_str = stats.to_str().unwrap();
        let out = run(&argv(&format!(
            "check --history {path} --pipelined on --stats-json {stats_str}"
        )))
        .unwrap();
        assert!(
            out.contains("expected verdict: violation — matched"),
            "{out}"
        );
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
        assert!(
            matches!(doc.get("pipeline_error"), Some(serde_json::Value::Null)),
            "{doc}"
        );
        assert!(doc.get("regular_txs").and_then(|v| v.as_u64()).is_some());
        std::fs::remove_file(&stats).ok();
    }

    #[test]
    fn check_history_expected_mismatch_fails_the_command() {
        // Claim serializable on a violating history: the run must fail.
        let text = lost_update_history().replace("\"violation\"", "\"serializable\"");
        let path = history_file("mismatch.json", &text);
        let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
        assert!(
            matches!(err, CliError::Failed(ref m) if m.contains("expects serializable")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_truncated_json_is_a_usage_error() {
        let text = lost_update_history();
        let path = history_file("truncated.json", &text[..text.len() / 2]);
        let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(ref m) if m.contains("invalid JSON")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_unknown_version_is_a_usage_error() {
        let text = lost_update_history().replace("\"version\": 1", "\"version\": 99");
        let path = history_file("version99.json", &text);
        let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(ref m) if m.contains("unknown schema version 99")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_duplicate_tx_id_is_a_usage_error() {
        let text = lost_update_history().replace("\"id\": 2", "\"id\": 1");
        let path = history_file("dup-id.json", &text);
        let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(ref m) if m.contains("duplicate transaction id 1")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_read_of_never_written_key_is_a_usage_error() {
        let text = lost_update_history().replace(
            r#"{"op": "r", "key": "x", "value": 0},
                                   {"op": "w", "key": "x", "value": 2}"#,
            r#"{"op": "r", "key": "ghost", "value": 9}"#,
        );
        let path = history_file("never-written.json", &text);
        let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(ref m) if m.contains("never-written value 9")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_missing_file_fails_cleanly() {
        let err = run(&argv("check --history /nonexistent/h.json")).unwrap_err();
        assert!(
            matches!(err, CliError::Failed(ref m) if m.contains("reading")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_conflicting_flags_are_usage_errors() {
        let path = history_file("conflicts.json", &lost_update_history());
        for extra in ["--workload tsp", "--seed 3", "--engine real"] {
            let err = run(&argv(&format!("check --history {path} {extra}"))).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{extra}: {err:?}");
        }
        // --engine det is redundant but not contradictory.
        assert!(run(&argv(&format!("check --history {path} --engine det"))).is_ok());
    }
}
