//! Golden counts for ICD's transaction store.
//!
//! A change to how the IDG stores transactions (ids, lookups, edges,
//! collection) must not change what the analysis computes. This file pins,
//! for a few deterministic workloads and seeds, the Table-3 counts, the
//! violation static keys and the multi-run static transaction information
//! in three modes: single-run, first run and pipelined single-run. The
//! expected lines were recorded from the slab-and-hash-map IDG that the
//! per-thread windows replaced.
//!
//! The collector's reclaim count and pass count are pinned too in the
//! synchronous modes, where pacing depends only on the transaction stream.
//! Pipelined collection runs on the graph-owner thread whenever it catches
//! up, so those two counts are left out there. `collect_scanned` is never
//! pinned: it counts the slots a pass visits, which is the storage's own
//! cost, not an analysis result.

use dc_core::{initial_spec, run_doublechecker, DcConfig, DcReport, ExecPlan};
use dc_histories::gen::{generate, AnomalyMode, GenHistoryParams};
use dc_histories::lower;
use dc_runtime::engine::det::Schedule;
use dc_runtime::program::Program;
use dc_runtime::spec::AtomicitySpec;
use dc_workloads::{by_name, Scale};
use doublechecker_repro as _;

#[derive(Clone, Copy, Debug)]
enum Mode {
    Single,
    FirstRun,
    Pipelined,
}

fn config(mode: Mode, plan: &ExecPlan) -> DcConfig {
    let c = plan.coordination();
    match mode {
        Mode::Single => DcConfig::single_run(c),
        Mode::FirstRun => DcConfig::first_run(c),
        Mode::Pipelined => DcConfig::single_run(c).with_pipelined(true),
    }
}

/// One line per run: every pinned quantity in a fixed order.
fn render(case: &str, mode: Mode, r: &DcReport) -> String {
    let s = r.stats;
    let collector = match mode {
        Mode::Single | Mode::FirstRun => format!(" coll={}/{}", s.collected_txs, s.collect_passes),
        Mode::Pipelined => String::new(),
    };
    let mut keys: Vec<String> = r
        .violations
        .iter()
        .map(|v| {
            let members: Vec<String> = v
                .static_key()
                .iter()
                .map(|m| m.map_or("u".to_string(), |m| m.0.to_string()))
                .collect();
            members.join("+")
        })
        .collect();
    keys.sort();
    let mut methods: Vec<u32> = r.static_info.methods.iter().map(|m| m.0).collect();
    methods.sort_unstable();
    format!(
        "{case} {mode:?}: reg={} un={} acc={}/{} cross={} sccs={} to_pcd={} log={}{collector} \
         keys=[{}] info={methods:?}{}",
        s.regular_txs,
        s.unary_txs,
        s.regular_accesses,
        s.unary_accesses,
        s.idg_cross_edges,
        s.icd_sccs,
        s.sccs_to_pcd,
        s.log_entries,
        keys.join(","),
        if r.static_info.any_unary { "+u" } else { "" },
    )
}

fn run_all(
    case: &str,
    program: &Program,
    spec: &AtomicitySpec,
    schedule: &Schedule,
) -> Vec<String> {
    let plan = ExecPlan::Det(schedule.clone());
    [Mode::Single, Mode::FirstRun, Mode::Pipelined]
        .into_iter()
        .map(|mode| {
            let report = run_doublechecker(program, spec, config(mode, &plan), &plan)
                .unwrap_or_else(|e| panic!("{case} {mode:?}: {e}"));
            assert_eq!(report.pipeline_error, None, "{case} {mode:?}");
            render(case, mode, &report)
        })
        .collect()
}

fn observed() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, seeds) in [("avrora9", [0u64, 1]), ("hsqldb6", [2, 5]), ("tsp", [1, 3])] {
        let wl = by_name(name, Scale::Tiny).expect("known workload");
        let spec = initial_spec(&wl.program, &wl.extra_exclusions);
        for seed in seeds {
            let case = format!("{name}/{seed}");
            lines.extend(run_all(&case, &wl.program, &spec, &Schedule::random(seed)));
        }
    }
    for (mode, seed) in [
        (AnomalyMode::LostUpdate, 11u64),
        (AnomalyMode::WriteSkew, 12),
    ] {
        let history = generate(&GenHistoryParams {
            seed,
            sessions: 2,
            base_txs: 300,
            ops_per_tx: 2,
            keys: 8,
            mode,
        })
        .history;
        let lowered = lower(&history).expect("generated histories lower");
        let case = format!("{}/{seed}", mode.as_str());
        lines.extend(run_all(
            &case,
            &lowered.program,
            &lowered.spec,
            &lowered.schedule,
        ));
    }
    lines
}

const GOLDEN: &str = "\
avrora9/0 Single: reg=540 un=735 acc=14688/485 cross=645 sccs=28 to_pcd=28 log=4437 coll=8/5 keys=[3+3,u+u+1] info=[0, 1, 2, 3, 5, 6, 9, 12, 14, 15]+u
avrora9/0 FirstRun: reg=540 un=735 acc=14688/485 cross=645 sccs=28 to_pcd=0 log=0 coll=8/5 keys=[] info=[0, 1, 2, 3, 5, 6, 9, 12, 14, 15]+u
avrora9/0 Pipelined: reg=540 un=735 acc=14688/485 cross=645 sccs=28 to_pcd=28 log=4437 keys=[3+3,u+u+1] info=[0, 1, 2, 3, 5, 6, 9, 12, 14, 15]+u
avrora9/1 Single: reg=540 un=680 acc=14688/485 cross=564 sccs=27 to_pcd=27 log=4406 coll=13/5 keys=[2+2,u+0,u+3,u+u+3] info=[0, 1, 2, 3, 6, 8, 12, 14]+u
avrora9/1 FirstRun: reg=540 un=680 acc=14688/485 cross=564 sccs=27 to_pcd=0 log=0 coll=13/5 keys=[] info=[0, 1, 2, 3, 6, 8, 12, 14]+u
avrora9/1 Pipelined: reg=540 un=680 acc=14688/485 cross=564 sccs=27 to_pcd=27 log=4406 keys=[2+2,u+0,u+3,u+u+3] info=[0, 1, 2, 3, 6, 8, 12, 14]+u
hsqldb6/2 Single: reg=228 un=243 acc=74376/53 cross=147 sccs=6 to_pcd=6 log=3683 coll=4/3 keys=[2+2,4+4] info=[0, 1, 2, 3, 4, 5]+u
hsqldb6/2 FirstRun: reg=228 un=243 acc=74376/53 cross=147 sccs=6 to_pcd=0 log=0 coll=4/3 keys=[] info=[0, 1, 2, 3, 4, 5]+u
hsqldb6/2 Pipelined: reg=228 un=243 acc=74376/53 cross=147 sccs=6 to_pcd=6 log=3683 keys=[2+2,4+4] info=[0, 1, 2, 3, 4, 5]+u
hsqldb6/5 Single: reg=228 un=246 acc=74376/53 cross=147 sccs=7 to_pcd=7 log=4013 coll=7/3 keys=[1+1] info=[1, 3, 5, 7, 8, 11]+u
hsqldb6/5 FirstRun: reg=228 un=246 acc=74376/53 cross=147 sccs=7 to_pcd=0 log=0 coll=7/3 keys=[] info=[1, 3, 5, 7, 8, 11]+u
hsqldb6/5 Pipelined: reg=228 un=246 acc=74376/53 cross=147 sccs=7 to_pcd=7 log=4013 keys=[1+1] info=[1, 3, 5, 7, 8, 11]+u
tsp/1 Single: reg=408 un=412 acc=28080/4 cross=134 sccs=4 to_pcd=4 log=2630 coll=656/6 keys=[] info=[0, 2, 3, 4, 5, 10]+u
tsp/1 FirstRun: reg=408 un=412 acc=28080/4 cross=134 sccs=4 to_pcd=0 log=0 coll=656/6 keys=[] info=[0, 2, 3, 4, 5, 10]+u
tsp/1 Pipelined: reg=408 un=412 acc=28080/4 cross=134 sccs=4 to_pcd=4 log=2630 keys=[] info=[0, 2, 3, 4, 5, 10]+u
tsp/3 Single: reg=408 un=413 acc=28080/4 cross=178 sccs=14 to_pcd=14 log=2671 coll=656/6 keys=[] info=[0, 1, 2, 3, 4, 5, 12]+u
tsp/3 FirstRun: reg=408 un=413 acc=28080/4 cross=178 sccs=14 to_pcd=0 log=0 coll=656/6 keys=[] info=[0, 1, 2, 3, 4, 5, 12]+u
tsp/3 Pipelined: reg=408 un=413 acc=28080/4 cross=178 sccs=14 to_pcd=14 log=2671 keys=[] info=[0, 1, 2, 3, 4, 5, 12]+u
lost-update/11 Single: reg=302 un=304 acc=1204/2 cross=477 sccs=1 to_pcd=1 log=1197 coll=506/4 keys=[155+302] info=[155, 299, 300, 301, 302]+u
lost-update/11 FirstRun: reg=302 un=304 acc=1204/2 cross=477 sccs=1 to_pcd=0 log=0 coll=506/4 keys=[] info=[155, 299, 300, 301, 302]+u
lost-update/11 Pipelined: reg=302 un=304 acc=1204/2 cross=477 sccs=1 to_pcd=1 log=1197 keys=[155+302] info=[155, 299, 300, 301, 302]+u
write-skew/12 Single: reg=302 un=304 acc=1206/2 cross=452 sccs=1 to_pcd=1 log=1189 coll=502/4 keys=[145+302] info=[145, 302]
write-skew/12 FirstRun: reg=302 un=304 acc=1206/2 cross=452 sccs=1 to_pcd=0 log=0 coll=502/4 keys=[] info=[145, 302]
write-skew/12 Pipelined: reg=302 un=304 acc=1206/2 cross=452 sccs=1 to_pcd=1 log=1189 keys=[145+302] info=[145, 302]
";

#[test]
fn icd_counts_keys_and_static_info_match_the_golden_lines() {
    let got = observed();
    let want: Vec<&str> = GOLDEN.lines().collect();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
    assert_eq!(got.len(), want.len(), "observed:\n{}", got.join("\n"));
}
