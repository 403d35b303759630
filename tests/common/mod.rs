//! Shared harness for the differential test suites.
//!
//! Every suite that compares checkers on one deterministic interleaving
//! funnels through [`assert_three_way`]: Velodrome (online graph search)
//! and AeroDrome (vector clocks) must agree bit for bit on deduplicated
//! violation keys *and* blame, and both must agree with DoubleChecker
//! single-run mode and the offline trace oracle on violation existence.
//! Existence — not multiplicity — is the DC comparison because
//! DoubleChecker reports imprecise SCCs refined by replay, so how many
//! distinct static cycles it attributes to one tangle may legitimately
//! differ from the online checkers (see DESIGN.md §Checkers).

#![allow(dead_code)]

pub mod gen;

use std::collections::BTreeSet;

use dc_aerodrome::{AeroConfig, AeroDrome};
use dc_core::{run_doublechecker, run_single, DcConfig, DcReport, DcStats, ExecPlan, ObsLevel};
use dc_octet::CoordinationMode;
use dc_pcd::{analyze_trace, OfflineConfig};
use dc_runtime::engine::det::{run_det, Schedule};
use dc_runtime::ids::MethodId;
use dc_runtime::program::Program;
use dc_runtime::spec::AtomicitySpec;
use dc_runtime::trace::{Tee, TraceChecker, TraceEvent};
use dc_velodrome::{Velodrome, VelodromeConfig};

/// A checker's answer reduced to what the oracles compare: deduplicated
/// static cycle keys and blamed-method sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Deduplicated static cycle identities.
    pub keys: BTreeSet<Vec<Option<MethodId>>>,
    /// Blamed-method sets, one per deduplicated violation.
    pub blames: BTreeSet<Vec<MethodId>>,
}

impl Verdict {
    /// Whether any violation was reported.
    pub fn found(&self) -> bool {
        !self.keys.is_empty()
    }
}

/// Runs Velodrome on the schedule, also recording the event trace the
/// offline oracle replays — both observers literally see the same stream.
pub fn velodrome_verdict_with_trace(
    program: &Program,
    spec: &AtomicitySpec,
    schedule: &Schedule,
) -> (Verdict, Vec<TraceEvent>) {
    let tee = Tee::new(
        Velodrome::new(
            program.threads.len(),
            spec.clone(),
            VelodromeConfig::default(),
        ),
        TraceChecker::new(),
    );
    run_det(program, &tee, schedule).expect("velodrome run");
    let violations = tee.a.violations();
    let verdict = Verdict {
        keys: violations.iter().map(|v| v.static_key()).collect(),
        blames: violations
            .iter()
            .map(|v| v.blamed_methods.clone())
            .collect(),
    };
    (verdict, tee.b.events())
}

/// Runs AeroDrome on the schedule.
pub fn aerodrome_verdict(program: &Program, spec: &AtomicitySpec, schedule: &Schedule) -> Verdict {
    let aero = AeroDrome::new(program.threads.len(), spec.clone(), AeroConfig::default());
    run_det(program, &aero, schedule).expect("aerodrome run");
    let violations = aero.violations();
    Verdict {
        keys: violations.iter().map(|v| v.static_key()).collect(),
        blames: violations
            .iter()
            .map(|v| v.blamed_methods.clone())
            .collect(),
    }
}

/// Reduces a DoubleChecker report to the comparable verdict.
pub fn doublechecker_verdict(report: &DcReport) -> Verdict {
    Verdict {
        keys: report.violations.iter().map(|v| v.static_key()).collect(),
        blames: report
            .violations
            .iter()
            .map(|v| v.blamed_methods())
            .collect(),
    }
}

/// Deduplicated violation keys of a DoubleChecker report (for the
/// pure-performance-change equivalences, which compare DC against DC).
pub fn violation_keys(report: &DcReport) -> BTreeSet<Vec<Option<MethodId>>> {
    report.violations.iter().map(|v| v.static_key()).collect()
}

/// Zeroes the collector's timing-dependent counters (reclaim count,
/// passes, slots scanned) so otherwise bit-identical configurations compare
/// equal.
pub fn scrub_collected(mut stats: DcStats) -> DcStats {
    stats.collected_txs = 0;
    stats.collect_passes = 0;
    stats.collect_scanned = 0;
    stats
}

/// The central three-way differential assertion (see module docs).
/// `ctx` prefixes every failure message.
pub fn assert_three_way(ctx: &str, program: &Program, spec: &AtomicitySpec, schedule: &Schedule) {
    let (velo, trace) = velodrome_verdict_with_trace(program, spec, schedule);
    let aero = aerodrome_verdict(program, spec, schedule);
    assert_eq!(
        velo.keys, aero.keys,
        "{ctx}: velodrome vs aerodrome violation keys"
    );
    assert_eq!(
        velo.blames, aero.blames,
        "{ctx}: velodrome vs aerodrome blame"
    );

    let offline = analyze_trace(&trace, spec, OfflineConfig::default());
    assert_eq!(
        velo.found(),
        !offline.violations.is_empty(),
        "{ctx}: online checkers vs offline oracle (existence)"
    );

    let dc = run_single(program, spec, &ExecPlan::Det(schedule.clone())).expect("dc run");
    assert_eq!(
        velo.found(),
        !dc.violations.is_empty(),
        "{ctx}: online checkers vs doublechecker (existence)"
    );
}

/// History-import oracle: the full three-way assertion on the lowered
/// program, the expected violation-existence verdict from every checker,
/// and the pipelined DoubleChecker at observability off and full — each
/// healthy (no pipeline error) and agreeing on existence.
pub fn assert_history_verdict(ctx: &str, lowered: &dc_histories::Lowered, expect_violation: bool) {
    let program = &lowered.program;
    let spec = &lowered.spec;
    let schedule = &lowered.schedule;
    assert_three_way(ctx, program, spec, schedule);
    let (velo, _) = velodrome_verdict_with_trace(program, spec, schedule);
    assert_eq!(
        velo.found(),
        expect_violation,
        "{ctx}: expected verdict vs the (already three-way-agreed) checkers"
    );
    for level in [ObsLevel::Off, ObsLevel::Full] {
        let config = DcConfig::single_run(CoordinationMode::Immediate)
            .with_pipelined(true)
            .with_observability(level);
        let report = run_doublechecker(program, spec, config, &ExecPlan::Det(schedule.clone()))
            .unwrap_or_else(|e| panic!("{ctx}: obs {level:?}: {e}"));
        assert_eq!(report.pipeline_error, None, "{ctx}: obs {level:?}");
        assert_eq!(
            !report.violations.is_empty(),
            expect_violation,
            "{ctx}: pipelined obs {level:?} (existence)"
        );
    }
}
