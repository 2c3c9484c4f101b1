//! Byte-exact golden corpus for the `abdex` binary.
//!
//! Runs a fixed command matrix (every batch shape, plain and with
//! `--seeds`, at small `--cycles`) and compares what each invocation
//! leaves behind — stdout, stderr, the exit code and every file it
//! writes (`--json`, `--record`, `trace generate -o`, `trace --out`) —
//! byte for byte against `tests/golden/` at the repository root.
//!
//! Regenerate the corpus after an intended output change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q -p abdex --test golden
//! ```
//!
//! and review the diff: a changed byte is a behaviour change. Every
//! invocation runs in one scratch directory with relative paths, so no
//! host path, timing or cache tally reaches a captured byte.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One invocation: its corpus name, its arguments and the files it
/// writes into the scratch directory.
struct Case {
    name: &'static str,
    args: &'static [&'static str],
    outputs: &'static [&'static str],
}

const POLICIES: &str = "nodvs;tdvs:threshold=1400;queue;proportional:kp=6";
const TRAFFICS: &str = "low;constant:rate=500;burst:period_s=0.001;flash";

/// The matrix, in execution order: later cases read files earlier ones
/// wrote (`trace analyze` the generated trace, `obs summarize` the
/// recording, `check` and `analyze` the legacy trace).
const CASES: &[Case] = &[
    Case {
        name: "run",
        args: &[
            "run",
            "--traffic",
            "low",
            "--policy",
            "tdvs:threshold=1200",
            "--cycles",
            "200000",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "run_seeds3",
        args: &[
            "run", "--cycles", "150000", "--seeds", "3", "--json", "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "run_record",
        args: &[
            "run",
            "--policy",
            "queue",
            "--cycles",
            "150000",
            "--record",
            "run.jsonl",
        ],
        outputs: &["run.jsonl"],
    },
    Case {
        name: "replicate_seeds3",
        args: &[
            "replicate",
            "--policy",
            "edvs",
            "--cycles",
            "150000",
            "--seeds",
            "3",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "sweep_tdvs",
        args: &["sweep", "--cycles", "100000", "--json", "out.json"],
        outputs: &["out.json"],
    },
    Case {
        name: "sweep_tdvs_seeds2",
        args: &[
            "sweep", "--cycles", "100000", "--seeds", "2", "--json", "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "sweep_policies",
        args: &[
            "sweep",
            "--policies",
            POLICIES,
            "--traffic",
            "medium",
            "--cycles",
            "150000",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "sweep_policies_seeds2",
        args: &[
            "sweep",
            "--policies",
            POLICIES,
            "--traffic",
            "medium",
            "--cycles",
            "150000",
            "--seeds",
            "2",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "sweep_traffics",
        args: &[
            "sweep",
            "--traffics",
            TRAFFICS,
            "--policy",
            "tdvs",
            "--cycles",
            "150000",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "sweep_traffics_seeds2",
        args: &[
            "sweep",
            "--traffics",
            TRAFFICS,
            "--policy",
            "tdvs",
            "--cycles",
            "150000",
            "--seeds",
            "2",
            "--ci",
            "90",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "sweep_failing_cell",
        args: &[
            "sweep",
            "--traffics",
            "low;trace:path=/no/such/golden.trace",
            "--cycles",
            "100000",
            "--json",
            "fail.json",
        ],
        outputs: &[],
    },
    Case {
        name: "compare",
        args: &["compare", "--cycles", "100000", "--json", "out.json"],
        outputs: &["out.json"],
    },
    Case {
        name: "compare_seeds2",
        args: &[
            "compare", "--cycles", "100000", "--seeds", "2", "--json", "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "compare_traffics",
        args: &[
            "compare",
            "--traffics",
            "low;constant:rate=900",
            "--cycles",
            "100000",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "compare_traffics_seeds2",
        args: &[
            "compare",
            "--traffics",
            "low;constant:rate=900",
            "--cycles",
            "100000",
            "--seeds",
            "2",
            "--ci",
            "99",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "scenario_run",
        args: &[
            "scenario",
            "run",
            "burst-storm",
            "--cycles",
            "200000",
            "--seeds",
            "2",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "fleet_run",
        args: &[
            "fleet",
            "run",
            "--chips",
            "3",
            "--dispatch",
            "hash:flows=64",
            "--cycles",
            "150000",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "fleet_run_seeds2",
        args: &[
            "fleet",
            "run",
            "--chips",
            "3",
            "--fleet-policy",
            "cap-realloc:budget=3.5,period=50000",
            "--cycles",
            "150000",
            "--seeds",
            "2",
            "--json",
            "out.json",
        ],
        outputs: &["out.json"],
    },
    Case {
        name: "fleet_record",
        args: &[
            "fleet",
            "run",
            "--chips",
            "2",
            "--cycles",
            "150000",
            "--record",
            "fleet.jsonl",
        ],
        outputs: &["fleet.jsonl"],
    },
    Case {
        name: "trace_generate",
        args: &[
            "trace",
            "generate",
            "--traffic",
            "stochastic:gap=pareto:alpha=1.3,scale=2,size=lognormal:mu=6",
            "--cycles",
            "200000",
            "-o",
            "gen.trace",
        ],
        outputs: &["gen.trace"],
    },
    Case {
        name: "trace_analyze",
        args: &["trace", "analyze", "gen.trace", "--json", "out.json"],
        outputs: &["out.json"],
    },
    Case {
        name: "obs_summarize",
        args: &["obs", "summarize", "run.jsonl", "--json", "out.json"],
        outputs: &["out.json"],
    },
    // The registry listings, and one spec error per lookup rule: an
    // unknown name lists the registry, an unknown key lists the
    // entry's accepted keys, and a nested entry's error keeps its own.
    Case {
        name: "list_policies",
        args: &["policies"],
        outputs: &[],
    },
    Case {
        name: "list_traffics",
        args: &["traffics"],
        outputs: &[],
    },
    Case {
        name: "list_fleet_dispatchers",
        args: &["fleet", "dispatchers"],
        outputs: &[],
    },
    Case {
        name: "list_fleet_policies",
        args: &["fleet", "policies"],
        outputs: &[],
    },
    Case {
        name: "err_policy_name",
        args: &["run", "--policy", "bogus", "--cycles", "1000"],
        outputs: &[],
    },
    Case {
        name: "err_policy_key",
        args: &["run", "--policy", "tdvs:typo=1", "--cycles", "1000"],
        outputs: &[],
    },
    Case {
        name: "err_traffic_key",
        args: &["run", "--traffic", "stochastic:bogus=2", "--cycles", "1000"],
        outputs: &[],
    },
    Case {
        name: "err_traffic_nested_dist_key",
        args: &[
            "run",
            "--traffic",
            "stochastic:gap=pareto:alpha=1.3,bogus=2",
            "--cycles",
            "1000",
        ],
        outputs: &[],
    },
    Case {
        name: "err_schedule_child_key",
        args: &[
            "run",
            "--traffic",
            "schedule:segments=[burst:typo=1@0..]",
            "--cycles",
            "1000",
        ],
        outputs: &[],
    },
    Case {
        name: "err_dispatch_key",
        args: &[
            "fleet",
            "run",
            "--dispatch",
            "hash:typo=1",
            "--cycles",
            "1000",
        ],
        outputs: &[],
    },
    Case {
        name: "err_fleet_policy_name",
        args: &["fleet", "run", "--fleet-policy", "nope", "--cycles", "1000"],
        outputs: &[],
    },
    Case {
        name: "err_dist_name",
        args: &[
            "trace",
            "generate",
            "--traffic",
            "stochastic:gap=nodist",
            "--cycles",
            "1000",
        ],
        outputs: &[],
    },
    // The LOC commands: the legacy flag-form `trace` writes a NePSim
    // event trace, and `check`/`analyze` read it back.
    Case {
        name: "trace_legacy",
        args: &[
            "trace",
            "--benchmark",
            "ipfwdr",
            "--traffic",
            "medium",
            "--cycles",
            "100000",
            "--out",
            "loc.trace",
        ],
        outputs: &["loc.trace"],
    },
    Case {
        name: "check_pass",
        args: &[
            "check",
            "--formula",
            "energy(forward[i+1]) - energy(forward[i]) >= 0",
            "--trace",
            "loc.trace",
        ],
        outputs: &[],
    },
    Case {
        name: "check_violated",
        args: &[
            "check",
            "--formula",
            "time(forward[i+1]) - time(forward[i]) < 1",
            "--trace",
            "loc.trace",
        ],
        outputs: &[],
    },
    Case {
        name: "analyze_dist",
        args: &[
            "analyze",
            "--formula",
            "time(forward[i+10]) - time(forward[i]) dist== (0, 60, 6)",
            "--trace",
            "loc.trace",
        ],
        outputs: &[],
    },
    Case {
        name: "codegen",
        args: &[
            "codegen",
            "--formula",
            "time(forward[i+1]) - time(forward[i]) <= 50",
        ],
        outputs: &[],
    },
    Case {
        name: "list_scenarios",
        args: &["scenario", "list"],
        outputs: &[],
    },
    Case {
        name: "help",
        args: &["help"],
        outputs: &[],
    },
    // CLI misuse: an unknown flag, a flag of another command, a flag
    // without its value, a stray positional and an unknown subcommand.
    Case {
        name: "err_unknown_flag",
        args: &["run", "--bogus", "1"],
        outputs: &[],
    },
    Case {
        name: "err_foreign_flag",
        args: &["compare", "--benchmark", "nat"],
        outputs: &[],
    },
    Case {
        name: "err_missing_value",
        args: &["run", "--cycles"],
        outputs: &[],
    },
    Case {
        name: "err_stray_positional",
        args: &["scenario", "list", "extra"],
        outputs: &[],
    },
    Case {
        name: "err_unknown_subcommand",
        args: &["fleet", "explode"],
        outputs: &[],
    },
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Runs one case in `dir` and returns its captured artifacts as
/// `(corpus file name, bytes)` pairs.
fn capture(case: &Case, dir: &Path) -> Vec<(String, Vec<u8>)> {
    for file in case.outputs {
        let _ = std::fs::remove_file(dir.join(file));
    }
    let out = Command::new(env!("CARGO_BIN_EXE_abdex"))
        .args(case.args)
        .current_dir(dir)
        .output()
        .expect("abdex binary runs");
    let exit = match out.status.code() {
        Some(code) => format!("{code}\n"),
        None => "killed by a signal\n".to_owned(),
    };
    let mut artifacts = vec![
        (format!("{}.stdout", case.name), out.stdout),
        (format!("{}.stderr", case.name), out.stderr),
        (format!("{}.exit", case.name), exit.into_bytes()),
    ];
    for file in case.outputs {
        let bytes = std::fs::read(dir.join(file))
            .unwrap_or_else(|e| panic!("{}: expected output {file}: {e}", case.name));
        artifacts.push((format!("{}.{file}", case.name), bytes));
    }
    artifacts
}

/// The line number and both versions of the first differing line, for
/// a readable failure message.
fn first_difference(want: &[u8], got: &[u8]) -> String {
    let want = String::from_utf8_lossy(want);
    let got = String::from_utf8_lossy(got);
    let mut want_lines = want.lines();
    let mut got_lines = got.lines();
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => {}
            (None, None) => return "identical lines, differing line endings".to_owned(),
            (w, g) => {
                let clip = |s: Option<&str>| {
                    s.map_or_else(|| "<missing>".to_owned(), |s| s.chars().take(240).collect())
                };
                return format!(
                    "line {line}\n      want: {}\n       got: {}",
                    clip(w),
                    clip(g)
                );
            }
        }
    }
    unreachable!("the loop returns")
}

#[test]
fn cli_outputs_match_the_golden_corpus() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1");
    let work = std::env::temp_dir().join(format!("abdex-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("scratch dir");
    let golden = golden_dir();

    let mut produced = Vec::new();
    let mut mismatches = Vec::new();
    for case in CASES {
        for (name, bytes) in capture(case, &work) {
            let path = golden.join(&name);
            if update {
                std::fs::create_dir_all(&golden).expect("golden dir");
                std::fs::write(&path, &bytes).expect("write golden file");
            } else {
                match std::fs::read(&path) {
                    Ok(want) if want == bytes => {}
                    Ok(want) => mismatches.push(format!(
                        "{name}: differs at {}",
                        first_difference(&want, &bytes)
                    )),
                    Err(e) => mismatches.push(format!("{name}: no golden file ({e})")),
                }
            }
            produced.push(name);
        }
    }
    let _ = std::fs::remove_dir_all(&work);

    // Every corpus file belongs to a case: a stale file would pass
    // unchecked forever.
    let mut stale = Vec::new();
    for entry in std::fs::read_dir(&golden).expect("golden dir exists") {
        let name = entry
            .expect("dir entry")
            .file_name()
            .to_string_lossy()
            .into_owned();
        if !produced.contains(&name) {
            if update {
                std::fs::remove_file(golden.join(&name)).expect("remove stale golden file");
            } else {
                stale.push(name);
            }
        }
    }
    assert!(
        stale.is_empty(),
        "golden files no case produces (run with UPDATE_GOLDEN=1 to prune): {stale:?}"
    );
    assert!(
        mismatches.is_empty(),
        "{} golden file(s) differ (rerun with UPDATE_GOLDEN=1 only for an intended change):\n  {}",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}
