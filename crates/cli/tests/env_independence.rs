//! The library's behaviour depends only on its configuration, never on the
//! process environment: the `dc` binary prints the same report, and counts
//! the same barrier-cache hits, with or without the environment variables
//! that used to seed `DcConfig`'s defaults.

use std::path::PathBuf;
use std::process::Command;

/// Variables (minus their `DC_` prefix) the library once read into
/// process-wide defaults, each set to a value that changed behaviour.
const STALE_ENV: [(&str, &str); 4] = [
    ("OBS", "full"),
    ("BARRIER_CACHE", "off"),
    ("TRANSPORT", "channel"),
    ("SHARDS", "2"),
];

/// Runs `dc check` on `tsp` (pipelined, counters) with exactly `env`,
/// returning its stdout and the `--stats-json` document.
fn check(env: &[(&str, &str)], tag: &str) -> (String, serde_json::Value) {
    let env = env.iter().map(|&(k, v)| (format!("DC_{k}"), v));
    let stats: PathBuf = std::env::temp_dir().join(format!(
        "dc-env-independence-{}-{tag}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_dc"))
        .args(["check", "--workload", "tsp", "--pipelined", "on"])
        .args(["--obs", "counters", "--stats-json"])
        .arg(&stats)
        .env_clear()
        .envs(env)
        .output()
        .expect("spawn dc");
    assert!(
        out.status.success(),
        "{tag}: dc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = serde_json::from_str(&std::fs::read_to_string(&stats).expect("stats-json written"))
        .expect("stats-json parses");
    std::fs::remove_file(&stats).ok();
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), doc)
}

/// Masks the `pipeline:` line's queue high-watermarks and ring-full waits:
/// they depend on how the OS scheduled the graph owner, not on any setting.
fn mask_timing(stdout: &str) -> String {
    let mut words: Vec<&str> = stdout.split(' ').collect();
    for i in 1..words.len() {
        if words[i - 1] == "hwm" {
            words[i] = "_";
        }
        if words[i] == "ring-full" {
            words[i - 1] = "_";
        }
    }
    words.join(" ")
}

fn cache_hits(doc: &serde_json::Value) -> Option<u64> {
    doc.get("pipeline")?
        .get("octet")?
        .get("cache_hits")?
        .as_u64()
}

#[test]
fn stale_library_env_vars_change_nothing() {
    let (clean_out, clean_doc) = check(&[], "clean");
    let (dirty_out, dirty_doc) = check(&STALE_ENV, "dirty");
    assert_eq!(
        mask_timing(&clean_out),
        mask_timing(&dirty_out),
        "stdout depends on the environment"
    );
    let hits = cache_hits(&clean_doc).expect("octet.cache_hits present");
    assert!(hits > 0, "the inline cache is on by default");
    assert_eq!(
        Some(hits),
        cache_hits(&dirty_doc),
        "octet.cache_hits depends on the environment"
    );
}
