//! The repository benchmark: paired Figure 7 slowdowns with checked
//! verdicts (`--trace 0`) and a per-crate layer ladder (`--trace 1`).
//!
//! ```text
//! dc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dc-perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod exec;
mod octet_only;
mod spans;
mod stats;
mod workloads;

use dc_core::{DcReport, PipelineReport};
use exec::{execute, Config, Outcome};
use spans::Spans;
use stats::{median, median_u64, quartiles, tail};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{confirm_precision_rule, setup, Setup, CONTENDED_ITERS, WORKLOADS};

/// Environment variables the library reads once into process globals. A
/// stray one would silently change what is measured, so none may be set.
const LIBRARY_ENV: [&str; 8] = [
    "DC_OBS",
    "DC_TRACE",
    "DC_TRANSPORT",
    "DC_SHARDS",
    "DC_BARRIER_CACHE",
    "DC_DEBUG_SCC",
    "DC_DEBUG_SCC_SIZE",
    "DC_DEBUG_COLLECT",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Rounds measured even when `--seconds` runs out first.
const MIN_ROUNDS: usize = 3;

/// Each paired configuration and the end-to-end metric of its ratio, in
/// the order a round runs them. Single-run, the Figure 7 number, runs
/// twice per round for twice the samples.
const PAIRED: [(Config, &str); 6] = [
    (Config::Single, "slowdown"),
    (Config::FirstRun, "slowdown.first_run"),
    (Config::Pipelined, "slowdown.pipelined"),
    (Config::Velodrome, "slowdown.velodrome"),
    (Config::AeroDrome, "slowdown.aerodrome"),
    (Config::Single, "slowdown"),
];

/// The ladder's rungs, each traced run beside its untraced twin, then the
/// baselines. A round runs them in this order on one input, and the next
/// round in reverse, so adjacent rungs run back to back and linear drift
/// in host speed cancels in their differences.
const LADDER: [Config; 11] = [
    Config::Nop,
    Config::OctetOnly,
    Config::FirstRun,
    Config::SingleNoPcd,
    Config::Single,
    Config::SingleTraced,
    Config::Pipelined,
    Config::PipelinedTraced,
    Config::Velodrome,
    Config::AeroDrome,
    Config::AeroDromeTraced,
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-test") {
        return Ok(None);
    }
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let number =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    }))
}

/// The commit of the checkout, read from `.git` in the working directory
/// (a checkout without `.git` prints "unknown").
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| format!("unknown ({r})")),
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Attempted and failed checked executions, in total and per
/// configuration, with the first few errors.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    by_config: BTreeMap<Config, (u64, u64)>,
    errors: Vec<String>,
}

impl Tally {
    /// Counts a checked execution.
    fn checked(&mut self, config: Config, label: &str, o: &Outcome) {
        self.attempted += 1;
        self.by_config.entry(config).or_default().0 += 1;
        self.note(config, label, o)
    }

    /// Counts a failed base run against its pair (a base run is not itself
    /// a checked execution).
    fn base(&mut self, label: &str, o: &Outcome) {
        self.by_config.entry(Config::Nop).or_default().0 += 1;
        self.note(Config::Nop, label, o)
    }

    fn note(&mut self, config: Config, label: &str, o: &Outcome) {
        if let Err(e) = &o.result {
            self.failed += 1;
            self.by_config.entry(config).or_default().1 += 1;
            if self.errors.len() < 8 {
                self.errors
                    .push(format!("{} on {label}: {e}", config.name()));
            }
        }
    }
}

/// Metric name → (value, unit), in output order.
type Metrics = Vec<(String, f64, &'static str)>;

fn print_result(tally: &Tally, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.1.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn warm_up(s: &Setup, spans: &Spans) {
    // Fill caches and finish lazy allocation before anything is timed.
    for config in [Config::Nop, Config::Single] {
        let input = &s.inputs[0];
        let _ = execute(config, input, &input.expected, spans, 0);
    }
}

fn main() -> ExitCode {
    if let Some(var) = LIBRARY_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("refusing to start: {var} is set, and the library would read it into a process-wide default");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return self_test(),
        Err(e) => {
            eprintln!(
                "usage: dc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# dc-perfbench commit={} nproc={nproc} workload={} seed={} seconds={} trace={}",
        commit(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let configs: Vec<Config> = if args.trace {
        LADDER.to_vec()
    } else {
        let paired = PAIRED[..PAIRED.len() - 1].iter().map(|&(c, _)| c);
        std::iter::once(Config::Nop).chain(paired).collect()
    };
    for c in configs {
        match c.dc_config(dc_octet::CoordinationMode::Threaded) {
            Some(dc) => println!(
                "# config {}: {dc:?} (coordination follows the engine)",
                c.name()
            ),
            None => println!("# config {}", c.name()),
        }
    }

    let spans = Spans::new(args.trace);
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..repeats {
        // Drop the previous set-up first, so each one starts from the same
        // heap.
        drop(ready.take());
        let t = Instant::now();
        let s = match setup(&args.workload, args.seed, &spans) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("set-up failed: {e}");
                return ExitCode::from(1);
            }
        };
        warm_up(&s, &spans);
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let s = ready.expect("at least one set-up");
    for input in &s.inputs {
        println!("# input {}: known answer {:?}", input.label, input.expected);
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (tally, metrics) = if args.trace {
        traced(&s, &spans, deadline)
    } else {
        let (tally, mut metrics) = untraced(&s, &spans, deadline);
        let samples: Vec<String> = setup_s.iter().map(|t| format!("{t:.3}")).collect();
        println!(
            "setup_s = {:.3} s (median of {}, in order: {})",
            median(&setup_s),
            setup_s.len(),
            samples.join(" ")
        );
        metrics.push(("setup_s".into(), median(&setup_s), "s"));
        let rss = peak_rss_mb();
        println!("peak_rss_mb = {rss:.1} MB");
        metrics.push(("peak_rss_mb".into(), rss, "MB"));
        (tally, metrics)
    };
    for e in &tally.errors {
        println!("# failure: {e}");
    }
    for (config, (attempted, failed)) in &tally.by_config {
        if *failed > 0 {
            println!(
                "# {}: {failed} of {attempted} executions failed",
                config.name()
            );
        }
    }
    println!(
        "verdict_error_rate = {} ({} failed of {} checked executions)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    if args.trace {
        let path = format!(
            "perfbench/results/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        );
        let written = std::fs::create_dir_all("perfbench/results")
            .and_then(|()| std::fs::write(&path, spans.to_jsonl()));
        match written {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => println!("# spans not written to {path}: {e}"),
        }
        for (name, ms) in spans.self_time_ms() {
            println!("# span self time {name}: {ms:.3} ms");
        }
    }
    print_result(&tally, &metrics);
    ExitCode::SUCCESS
}

/// Paired base/checked executions on the same input, order alternated.
fn untraced(s: &Setup, spans: &Spans, deadline: Instant) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut ratios: BTreeMap<Config, Vec<f64>> = BTreeMap::new();
    let mut verdict_ms = Vec::new();
    let mut base_ms = Vec::new();
    let mut events = Vec::new();
    let mut events_per_s = Vec::new();
    let mut exec = 0u64;
    let mut round = 0usize;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        let input = &s.inputs[round % s.inputs.len()];
        let mut run = |c| {
            exec += 1;
            execute(c, input, &input.expected, spans, exec)
        };
        // Base and checked runs alternate, B C B C … B, so every checked
        // run has a base run right before and right after it; its pair
        // ratio divides by the mean of the two. Host-speed drift slower
        // than one pair cancels, and neither order is favoured.
        let mut before = run(Config::Nop);
        tally.base(&input.label, &before);
        for &(config, _) in &PAIRED {
            if config == Config::Pipelined && !s.pipelined_pair {
                continue;
            }
            let checked = run(config);
            let after = run(Config::Nop);
            tally.checked(config, &input.label, &checked);
            tally.base(&input.label, &after);
            // A wrong verdict is counted above; its times are still valid.
            if before.completed && checked.completed && after.completed {
                let base_ns = (before.run_ns + after.run_ns) as f64 / 2.0;
                base_ms.push(base_ns / 1e6);
                events.push(checked.events as f64);
                ratios
                    .entry(config)
                    .or_default()
                    .push(checked.run_ns as f64 / base_ns);
                if config == Config::Single {
                    verdict_ms.push(checked.verdict_ns() as f64 / 1e6);
                    events_per_s.push(checked.events as f64 / (checked.run_ns as f64 / 1e9));
                }
            }
            before = after;
        }
        round += 1;
    }
    println!(
        "# {round} rounds of {} pairs; {:.0} events per execution; base run {:.2} ms",
        PAIRED.len(),
        median(&events),
        median(&base_ms)
    );

    let mut metrics = Metrics::new();
    for (config, name) in &PAIRED[..PAIRED.len() - 1] {
        if *config == Config::Pipelined && !s.pipelined_pair {
            println!("{name}: not measured on this workload");
            continue;
        }
        let r = ratios.get(config).map(Vec::as_slice).unwrap_or(&[]);
        let (q1, q3) = quartiles(r);
        println!(
            "{name} = {:.4}x (q1 {q1:.4}, q3 {q3:.4}, n={} pairs; {} vs nop)",
            median(r),
            r.len(),
            config.name()
        );
        metrics.push((name.to_string(), median(r), "x"));
    }
    // Absolute rates and latencies follow the host's speed, which drifts
    // by more than a tenth from run to run on a shared host; they are
    // printed for reading but are not part of the result's metrics.
    println!(
        "checked_events_per_s = {:.0} events/s (single-run, n={}; not gated)",
        median(&events_per_s),
        events_per_s.len()
    );
    println!(
        "verdict_ms_p50 = {:.3} ms (single-run, n={}; not gated)",
        median(&verdict_ms),
        verdict_ms.len()
    );
    match tail(&verdict_ms) {
        Some((p, v)) => println!(
            "verdict_ms_tail = {v:.3} ms (p{p}, n={}; not gated)",
            verdict_ms.len()
        ),
        None => println!(
            "verdict_ms_tail: no percentile has ten samples beyond it (n={})",
            verdict_ms.len()
        ),
    }
    (tally, metrics)
}

/// Per-event cost of a layer: the time between two ladder rungs.
const STEPS: [(&str, Config, Config); 7] = [
    ("octet.barrier_ns_per_event", Config::Nop, Config::OctetOnly),
    ("icd.ns_per_event", Config::OctetOnly, Config::FirstRun),
    (
        "icd.log_ns_per_event",
        Config::FirstRun,
        Config::SingleNoPcd,
    ),
    ("pcd.ns_per_event", Config::SingleNoPcd, Config::Single),
    ("pipeline.ns_per_event", Config::Single, Config::Pipelined),
    ("velodrome.ns_per_event", Config::Nop, Config::Velodrome),
    ("aerodrome.ns_per_event", Config::Nop, Config::AeroDrome),
];

/// The observability report of a traced run.
fn obs(r: &DcReport) -> PipelineReport {
    r.pipeline.expect("traced runs observe at Full")
}

/// A per-layer row read from one traced run's report.
type ReportRow = (&'static str, fn(&DcReport) -> u64, &'static str);

/// Counts and histogram percentiles (power-of-two bucket bounds, unit
/// `ns-bucket`) from the traced single-run report.
const SINGLE_ROWS: [ReportRow; 19] = [
    ("octet.first_touch", |r| obs(r).octet.first_touch, "count"),
    ("octet.upgrades", |r| obs(r).octet.upgrades, "count"),
    ("octet.fences", |r| obs(r).octet.fences, "count"),
    ("octet.conflicts", |r| obs(r).octet.conflicts, "count"),
    ("octet.cache_hits", |r| obs(r).octet.cache_hits, "count"),
    (
        "octet.cache_flushes",
        |r| obs(r).octet.cache_flushes,
        "count",
    ),
    (
        "icd.txs",
        |r| r.stats.regular_txs + r.stats.unary_txs,
        "count",
    ),
    ("icd.cross_edges", |r| r.stats.idg_cross_edges, "count"),
    ("icd.sccs", |r| r.stats.icd_sccs, "count"),
    ("icd.collected_txs", |r| r.stats.collected_txs, "count"),
    (
        "icd.scc_ns_p50",
        |r| obs(r).graph.scc_latency.p50,
        "ns-bucket",
    ),
    (
        "icd.scc_ns_p99",
        |r| obs(r).graph.scc_latency.p99,
        "ns-bucket",
    ),
    (
        "icd.collect_ns_p99",
        |r| obs(r).graph.collect_latency.p99,
        "ns-bucket",
    ),
    ("icd.log_entries", |r| r.stats.log_entries, "count"),
    ("pcd.sccs_replayed", |r| r.stats.sccs_to_pcd, "count"),
    ("pcd.replayed_txs", |r| r.stats.pcd.txs, "count"),
    ("pcd.replayed_entries", |r| r.stats.pcd.entries, "count"),
    ("pcd.cycles", |r| r.stats.pcd.cycles, "count"),
    (
        "pcd.replay_ns_p99",
        |r| obs(r).replay.latency.p99,
        "ns-bucket",
    ),
];

/// The same from the traced pipelined report.
const PIPELINED_ROWS: [ReportRow; 5] = [
    (
        "pipeline.enqueue_ns_p99",
        |r| obs(r).graph.enqueue_latency.p99,
        "ns-bucket",
    ),
    (
        "pipeline.apply_ns_p99",
        |r| obs(r).graph.apply_latency.p99,
        "ns-bucket",
    ),
    (
        "pipeline.ring_full_waits",
        |r| obs(r).graph.ring_full_waits,
        "count",
    ),
    (
        "pipeline.queue_hwm",
        |r| u64::try_from(obs(r).graph.queue_depth.high_watermark).unwrap_or(0),
        "count",
    ),
    (
        "pipeline.drain_ns_p99",
        |r| obs(r).checker.drain_latency.p99,
        "ns-bucket",
    ),
];

/// The layer ladder and the traced runs, all rungs on one input per round.
fn traced(s: &Setup, spans: &Spans, deadline: Instant) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut rounds: Vec<BTreeMap<Config, Outcome>> = Vec::new();
    let mut exec = 0u64;
    let mut r = 0usize;
    while r < MIN_ROUNDS || Instant::now() < deadline {
        let input = &s.inputs[r % s.inputs.len()];
        let mut order = LADDER;
        if r % 2 == 1 {
            order.reverse();
        }
        let mut outcomes = BTreeMap::new();
        for config in order {
            exec += 1;
            let o = execute(config, input, &input.expected, spans, exec);
            if config == Config::Nop {
                tally.base(&input.label, &o);
            } else {
                tally.checked(config, &input.label, &o);
            }
            outcomes.insert(config, o);
        }
        // Only rounds in which every rung ran to the end are compared; a
        // wrong verdict is counted but its times and counts stand.
        if outcomes.values().all(|o| o.completed) {
            rounds.push(outcomes);
        }
        r += 1;
    }
    println!(
        "# {r} ladder rounds of {} executions, {} ran to the end",
        LADDER.len(),
        rounds.len()
    );

    let mut metrics = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        println!("{name} = {value} {unit}");
        metrics.push((name.to_string(), value, unit));
    };
    let events = |r: &BTreeMap<Config, Outcome>| r[&Config::Nop].events as f64;
    let rung = |c: Config| -> Vec<f64> {
        rounds
            .iter()
            .map(|r| r[&c].run_ns as f64 / events(r))
            .collect()
    };
    let step = |a: Config, b: Config| -> f64 {
        let d: Vec<f64> = rounds
            .iter()
            .map(|r| (r[&b].run_ns as f64 - r[&a].run_ns as f64) / events(r))
            .collect();
        median(&d)
    };
    put(
        "runtime.base_ns_per_event",
        median(&rung(Config::Nop)),
        "ns/event",
    );
    for (name, a, b) in STEPS {
        put(name, step(a, b), "ns/event");
    }
    let overhead: Vec<f64> = rounds
        .iter()
        .map(|r| r[&Config::SingleTraced].run_ns as f64 / r[&Config::Single].run_ns as f64)
        .collect();
    put("trace_overhead", median(&overhead), "x");

    // Counters and histograms from the traced DoubleChecker runs.
    let reports = |c: Config| -> Vec<&DcReport> {
        rounds
            .iter()
            .filter_map(|r| r[&c].details.dc.as_ref())
            .collect()
    };
    let single = reports(Config::SingleTraced);
    let piped = reports(Config::PipelinedTraced);
    for (rows, runs) in [(&SINGLE_ROWS[..], &single), (&PIPELINED_ROWS[..], &piped)] {
        for &(name, pick, unit) in rows {
            let values: Vec<u64> = runs.iter().map(|r| pick(r)).collect();
            put(name, median_u64(&values), unit);
        }
    }
    let hit_ratio: Vec<f64> = single
        .iter()
        .map(|r| {
            let instrumented = r.stats.regular_accesses + r.stats.unary_accesses;
            obs(r).octet.cache_hits as f64 / instrumented.max(1) as f64
        })
        .collect();
    put("octet.cache_hit_ratio", median(&hit_ratio), "fraction");
    let useful: Vec<f64> = single
        .iter()
        .map(|r| r.stats.pcd.cycles as f64 / r.stats.sccs_to_pcd.max(1) as f64)
        .collect();
    put("pcd.useful_replay_ratio", median(&useful), "fraction");
    let joins: Vec<(u64, u64)> = rounds
        .iter()
        .filter_map(|r| r[&Config::AeroDromeTraced].details.aero_joins)
        .collect();
    put(
        "aerodrome.clock_joins",
        median_u64(&joins.iter().map(|j| j.0).collect::<Vec<_>>()),
        "count",
    );
    put(
        "aerodrome.clock_join_ns_p99",
        median_u64(&joins.iter().map(|j| j.1).collect::<Vec<_>>()),
        "ns-bucket",
    );

    // History parse and lower, from the spans (zero on program workloads).
    let parse = spans.durations_ms("parse");
    let lower = spans.durations_ms("lower");
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    put("histories.parse_ms", or_zero(&parse), "ms");
    put("histories.lower_ms", or_zero(&lower), "ms");
    let bytes: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.values().map(|o| o.details.history_bytes as f64))
        .filter(|&b| b > 0.0)
        .collect();
    let mb_per_s = if parse.is_empty() || bytes.is_empty() {
        0.0
    } else {
        median(&bytes) / 1e6 / (or_zero(&parse) / 1e3)
    };
    put("histories.parse_mb_per_s", mb_per_s, "MB/s");
    (tally, metrics)
}

/// Shows that a deliberately wrong known answer is counted as an error:
/// for each workload whose answer is a known existence verdict, one
/// single-run execution is judged against the right answer (must pass)
/// and against the flipped one (must count one failure). Then confirms
/// the `contended-real` precision rule with the offline oracle.
fn self_test() -> ExitCode {
    let spans = Spans::new(false);
    let mut ok = true;
    for workload in ["histories", "contended-det", "local-real"] {
        let s = match setup(workload, 1, &spans) {
            Ok(s) => s,
            Err(e) => {
                println!("self-test {workload}: set-up failed: {e}");
                ok = false;
                continue;
            }
        };
        let input = &s.inputs[0];
        let mut right = Tally::default();
        let o = execute(Config::Single, input, &input.expected, &spans, 1);
        right.checked(Config::Single, &input.label, &o);
        let mut wrong = Tally::default();
        let o = execute(Config::Single, input, &input.expected.flipped(), &spans, 2);
        wrong.checked(Config::Single, &input.label, &o);
        let pass = right.failed == 0 && wrong.failed == 1 && wrong.attempted == 1;
        println!(
            "self-test {workload}: right answer {}/{} failed, wrong answer {}/{} failed{}: {}",
            right.failed,
            right.attempted,
            wrong.failed,
            wrong.attempted,
            wrong
                .errors
                .first()
                .map_or(String::new(), |e| format!(" ({e})")),
            if pass { "ok" } else { "FAILED" }
        );
        ok &= pass;
    }
    // The contended-real precision rule, on racy cycles of the full-size
    // program (the small copy checked in set-up may show none).
    let schedule = dc_runtime::engine::det::Schedule::random(1);
    match confirm_precision_rule(1, CONTENDED_ITERS, &[schedule], &spans) {
        Ok(n) if n > 0 => {
            println!(
                "self-test contended-real: the oracle's {n} cycles all contain a racy method: ok"
            )
        }
        Ok(_) => {
            println!("self-test contended-real: the oracle found no cycle to confirm the rule on: FAILED");
            ok = false;
        }
        Err(e) => {
            println!("self-test contended-real: {e}: FAILED");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
