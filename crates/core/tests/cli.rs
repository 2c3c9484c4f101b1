//! Integration tests for the `abdex` command-line binary.

use std::process::Command;

fn abdex() -> Command {
    Command::new(env!("CARGO_BIN_EXE_abdex"))
}

#[test]
fn help_prints_usage() {
    let out = abdex().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("sweep"));
}

#[test]
fn no_args_fails_with_usage() {
    let out = abdex().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = abdex().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn run_reports_metrics() {
    let out = abdex()
        .args([
            "run",
            "--benchmark",
            "nat",
            "--traffic",
            "low",
            "--cycles",
            "200000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mean power"));
    assert!(text.contains("throughput"));
}

#[test]
fn policies_lists_the_registry() {
    let out = abdex().arg("policies").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["nodvs", "tdvs", "edvs", "combined", "queue", "proportional"] {
        assert!(text.contains(name), "missing policy '{name}'");
    }
    assert!(text.contains("threshold"));
    assert!(text.contains("kp"));
}

#[test]
fn run_accepts_policy_spec_grammar() {
    let out = abdex()
        .args([
            "run",
            "--policy",
            "queue:high=0.8,low=0.1",
            "--traffic",
            "low",
            "--cycles",
            "300000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("QDVS"), "unexpected output: {text}");
}

#[test]
fn run_rejects_legacy_flags_with_spec_grammar() {
    // --window would be silently ignored here; the CLI must refuse
    // rather than run a different configuration than requested.
    let out = abdex()
        .args([
            "run", "--policy", "queue", "--window", "20000", "--cycles", "100000",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--window"), "unhelpful error: {text}");
    assert!(
        text.contains("spec"),
        "should point at the spec grammar: {text}"
    );
}

#[test]
fn run_rejects_threshold_with_bare_edvs() {
    // EDVS has no threshold; accepting-and-dropping it would run a
    // different configuration than requested.
    let out = abdex()
        .args([
            "run",
            "--policy",
            "edvs",
            "--threshold",
            "500",
            "--cycles",
            "100000",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--threshold"), "unhelpful error: {text}");
}

#[test]
fn commands_reject_options_they_would_ignore() {
    // `--policy` (singular) is not a sweep option; without this guard the
    // command would silently run the full default TDVS grid instead.
    let out = abdex()
        .args(["sweep", "--policy", "nodvs;proportional:kp=6"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--policy"), "unhelpful error: {text}");

    let out = abdex()
        .args(["compare", "--benchmark", "nat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--benchmark"));

    // Kernel counters are part of `--profile-summary`; there is no
    // separate flag for them.
    let out = abdex()
        .args(["run", "--cycles", "100000", "--obs-stats"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--obs-stats"));
}

#[test]
fn run_rejects_bad_policy_spec() {
    let out = abdex()
        .args(["run", "--policy", "tdvs:flux=9"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("flux"), "unhelpful error: {text}");
}

#[test]
fn sweep_over_policy_specs_renders_table() {
    let out = abdex()
        .args([
            "sweep",
            "--policies",
            "nodvs;proportional:kp=6",
            "--traffic",
            "low",
            "--cycles",
            "200000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("policy_spec"));
    assert!(text.contains("nodvs"));
    assert!(text.contains("proportional:target=0.1,kp=6,ki=0.5,window=40000"));
}

#[test]
fn run_rejects_bad_benchmark() {
    let out = abdex()
        .args(["run", "--benchmark", "quake"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

#[test]
fn trace_check_analyze_pipeline() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace_path = dir.join("trace.txt");

    let out = abdex()
        .args([
            "trace",
            "--cycles",
            "200000",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace_path.exists());

    // A true assertion passes (exit 0)...
    let out = abdex()
        .args([
            "check",
            "--formula",
            "energy(forward[i+1]) - energy(forward[i]) >= 0",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    // ...a false one fails (exit 1).
    let out = abdex()
        .args([
            "check",
            "--formula",
            "energy(forward[i+1]) - energy(forward[i]) < 0",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    // The analyzer prints a distribution table.
    let out = abdex()
        .args([
            "analyze",
            "--formula",
            "time(forward[i+10]) - time(forward[i]) dist== (0, 200, 20)",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("%"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_accepts_jobs_and_writes_json() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let json_path = dir.join("sweep.json");

    let out = abdex()
        .args([
            "sweep",
            "--policies",
            "nodvs;queue",
            "--traffic",
            "low",
            "--cycles",
            "200000",
            "--jobs",
            "2",
            "--progress",
            "dot",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The human table still lands on stdout, progress on stderr.
    assert!(String::from_utf8_lossy(&out.stdout).contains("policy_spec"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("2 jobs"));

    let doc = std::fs::read_to_string(&json_path).expect("JSON written");
    assert!(doc.contains("\"kind\":\"spec_sweep\""), "{doc}");
    assert!(doc.contains("\"cells\":2"), "{doc}");
    assert!(doc.contains("\"mean_power_w\":"), "{doc}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_writes_experiment_json() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-runjson-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let json_path = dir.join("run.json");

    let out = abdex()
        .args([
            "run",
            "--benchmark",
            "nat",
            "--traffic",
            "low",
            "--cycles",
            "200000",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&json_path).expect("JSON written");
    assert!(doc.contains("\"kind\":\"experiment\""), "{doc}");
    assert!(doc.contains("\"benchmark\":\"nat\""), "{doc}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_json_path_fails_before_the_batch_runs() {
    // The preflight must reject the path in milliseconds instead of
    // discovering it after a paper-length sweep; note the full-length
    // --cycles default would take minutes if the batch actually ran.
    let out = abdex()
        .args([
            "sweep",
            "--policies",
            "nodvs",
            "--json",
            "/no/such/dir/out.json",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("cannot write"), "unhelpful error: {text}");
    // The sweep never ran, so no table was printed.
    assert!(!String::from_utf8_lossy(&out.stdout).contains("policy_spec"));
}

#[test]
fn sweep_rejects_bad_progress_mode() {
    // `stats` is no progress mode: runner telemetry is part of
    // `--profile-summary`.
    for (command, mode) in [("sweep", "loud"), ("replicate", "stats")] {
        let out = abdex()
            .args([command, "--progress", mode, "--cycles", "100000"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{command} --progress {mode}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("progress mode"), "unhelpful error: {text}");
    }
}

#[test]
fn run_rejects_jobs_option_it_would_ignore() {
    // `run` is a single simulation; silently accepting --jobs would
    // suggest parallelism that does not exist.
    let out = abdex()
        .args(["run", "--jobs", "4", "--cycles", "100000"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
}

#[test]
fn codegen_emits_rust_source() {
    let out = abdex()
        .args([
            "codegen",
            "--formula",
            "cycle(deq[i]) - cycle(enq[i]) <= 50",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fn main()"));
}

#[test]
fn oversized_analysis_periods_exit_one_with_a_message() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-bins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace_path = dir.join("trace.txt");
    let trace: String = (0..20u64)
        .map(|k| format!("{} {k} 0 {k} 0 forward\n", k * 600))
        .collect();
    std::fs::write(&trace_path, trace).expect("trace written");

    // 1e24 bins once wrapped `nbins + 2`; 1e13 bins asked for 80 TB.
    for period in ["(0, 1e18, 1e-6)", "(0, 10, 1e-12)"] {
        let formula = format!("time(forward[i+1]) - time(forward[i]) dist== {period}");
        let analyze = [
            "analyze",
            "--formula",
            &formula,
            "--trace",
            trace_path.to_str().unwrap(),
        ];
        let codegen = ["codegen", "--formula", &formula];
        for args in [&analyze[..], &codegen[..]] {
            let out = abdex().args(args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains("invalid analysis period"),
                "{args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(
                out.stdout.is_empty(),
                "{args:?} printed a program or a table"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_formulas_exit_one_with_a_parse_error() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace_path = dir.join("trace.txt");
    let trace: String = (0..20u64)
        .map(|k| format!("{} {k} 0 {k} 0 forward\n", k * 600))
        .collect();
    std::fs::write(&trace_path, trace).expect("trace written");
    let trace = trace_path.to_str().unwrap();

    // Each of these once overflowed the stack and aborted (exit 134).
    let atom = "time(forward[i])";
    for body in [
        format!("{}{atom}{}", "(".repeat(10_000), ")".repeat(10_000)),
        format!("{}{atom}", "-".repeat(30_000)),
        format!("{}{atom}", "1+".repeat(59_999)),
    ] {
        let assertion = format!("{body} <= 1");
        let dist = format!("{body} dist== (0, 100, 1)");
        for args in [
            ["codegen", "--formula", &assertion, "", ""],
            ["codegen", "--formula", &dist, "", ""],
            ["check", "--formula", &assertion, "--trace", trace],
            ["analyze", "--formula", &dist, "--trace", trace],
        ] {
            let args: Vec<&str> = args.into_iter().filter(|a| !a.is_empty()).collect();
            let out = abdex().args(&args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{}: {stderr}", args[0]);
            assert!(
                stderr.contains("nested deeper than 256 levels"),
                "{}: {stderr}",
                args[0]
            );
            assert!(out.stdout.is_empty(), "{} printed output", args[0]);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_accepts_traffic_spec_grammar() {
    // The acceptance spec of the traffic-API redesign: a model that did
    // not exist before the TrafficModel trait opened this axis.
    let out = abdex()
        .args([
            "run",
            "--traffic",
            "burst:on_mbps=1800,off_mbps=120,period_s=2",
            "--cycles",
            "300000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("burst:"), "unexpected output: {text}");
    assert!(text.contains("mean power"), "unexpected output: {text}");
}

#[test]
fn traffics_lists_the_registry() {
    let out = abdex().arg("traffics").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "low", "medium", "high", "mmpp", "diurnal", "burst", "flash", "constant", "trace",
    ] {
        assert!(text.contains(name), "missing traffic model '{name}'");
    }
    assert!(text.contains("on_mbps"));
    assert!(text.contains("peak_mbps"));
}

#[test]
fn benchmark_and_traffic_names_are_case_insensitive() {
    let out = abdex()
        .args([
            "run",
            "--benchmark",
            "NAT",
            "--traffic",
            "Low",
            "--policy",
            "QDVS",
            "--cycles",
            "200000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unknown_names_list_the_registries() {
    let out = abdex()
        .args(["run", "--traffic", "tsunami"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("tsunami"), "unhelpful error: {text}");
    assert!(text.contains("burst"), "should list traffic models: {text}");

    let out = abdex()
        .args(["run", "--benchmark", "quake"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("ipfwdr"), "should list benchmarks: {text}");

    let out = abdex()
        .args(["run", "--policy", "warp"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("tdvs"), "should list policies: {text}");
}

#[test]
fn sweep_over_traffic_specs_renders_table_and_json() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-traffics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let json_path = dir.join("traffics.json");

    let out = abdex()
        .args([
            "sweep",
            "--traffics",
            "low;constant:rate=500;burst:period_s=0.001",
            "--policy",
            "tdvs:threshold=1200",
            "--cycles",
            "200000",
            "--jobs",
            "2",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("traffic_spec"), "{text}");
    assert!(
        text.contains("constant:rate=500,size=576,ports=16"),
        "{text}"
    );

    let doc = std::fs::read_to_string(&json_path).expect("JSON written");
    assert!(doc.contains("\"kind\":\"traffic_sweep\""), "{doc}");
    assert!(doc.contains("\"schema_version\":9"), "{doc}");
    assert!(doc.contains("\"traffic_model\":\"burst\""), "{doc}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_rejects_ambiguous_axis_combinations() {
    // Both axes at once: ambiguous.
    let out = abdex()
        .args(["sweep", "--policies", "nodvs", "--traffics", "low"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("--policies") && text.contains("--traffics"),
        "{text}"
    );

    // --traffic (singular) would be silently ignored next to --traffics.
    let out = abdex()
        .args(["sweep", "--traffics", "low;high", "--traffic", "medium"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--traffic "));
}

#[test]
fn every_json_document_carries_the_schema_version() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let run_json = dir.join("run.json");
    let out = abdex()
        .args([
            "run",
            "--traffic",
            "low",
            "--cycles",
            "200000",
            "--json",
            run_json.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let doc = std::fs::read_to_string(&run_json).expect("JSON written");
    assert!(doc.contains("\"schema_version\":9"), "{doc}");

    let sweep_json = dir.join("sweep.json");
    let out = abdex()
        .args([
            "sweep",
            "--policies",
            "nodvs",
            "--traffic",
            "low",
            "--cycles",
            "200000",
            "--json",
            sweep_json.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let doc = std::fs::read_to_string(&sweep_json).expect("JSON written");
    assert!(doc.contains("\"schema_version\":9"), "{doc}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_replay_round_trips_through_the_cli() {
    // `abdex trace --out F` then `--traffic trace:path=F`: the recorded
    // workflow of paper §3.2, end to end through the open traffic API.
    let dir = std::env::temp_dir().join(format!("abdex-cli-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let pkt_path = dir.join("packets.txt");

    // Record a packet trace with the library (the CLI's `trace` command
    // emits simulator event traces; packet recordings come from the
    // traffic API).
    let spec: abdex::TrafficSpec = "mmpp:rate=700".parse().unwrap();
    let recorded = abdex::traffic::RecordedTrace::record(
        spec.model().unwrap().stream(5),
        abdex::desim::SimTime::from_ms(2),
    );
    std::fs::write(&pkt_path, recorded.to_text()).expect("write packets");

    let out = abdex()
        .args([
            "run",
            "--traffic",
            &format!("trace:path={}", pkt_path.display()),
            "--cycles",
            "300000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A missing file fails with the unbuildable-spec error, not a panic
    // at parse time.
    let out = abdex()
        .args([
            "run",
            "--traffic",
            "trace:path=/no/such/file.txt",
            "--cycles",
            "1000",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_generate_then_analyze_is_jobs_invariant() {
    // The PR-8 acceptance pipeline: synthesize a stochastic trace, then
    // analyze it — the schema-7 JSON document must be byte-identical
    // for any worker count.
    let dir = std::env::temp_dir().join(format!("abdex-cli-tracegen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace_path = dir.join("t.trace");

    let out = abdex()
        .args([
            "trace",
            "generate",
            "--traffic",
            "stochastic:gap=pareto:alpha=1.3,size=lognormal:mu=6,sigma=1.2",
            "--cycles",
            "2000000",
            "-o",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let header = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(header.starts_with("# abdex-trace v1\n"), "{header:.80}");
    assert!(
        header.contains("# traffic: stochastic:gap="),
        "missing provenance"
    );

    let analyze = |jobs: &str| {
        let out = abdex()
            .args([
                "trace",
                "analyze",
                trace_path.to_str().unwrap(),
                "--json",
                "-",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let serial = analyze("1");
    let parallel = analyze("4");
    assert_eq!(serial, parallel, "analysis must not depend on --jobs");
    let doc = String::from_utf8_lossy(&serial);
    assert!(doc.contains("\"schema_version\":9"), "{doc}");
    assert!(doc.contains("\"kind\":\"trace_analysis\""), "{doc}");
    assert!(doc.contains("\"gap_us\":{\"mean\":"), "{doc}");
    assert!(doc.contains("\"hurst\":"), "{doc}");
    // The human table moved to stderr (--json - owns stdout).
    let table = abdex()
        .args(["trace", "analyze", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(table.status.success());
    let text = String::from_utf8_lossy(&table.stdout);
    assert!(text.contains("gap_us"), "{text}");
    assert!(text.contains("hurst estimate"), "{text}");

    // A missing or malformed trace leaves nothing at the --json path.
    let malformed = dir.join("bad.trace");
    std::fs::write(&malformed, "1000 64\n").unwrap();
    let json = dir.join("analysis.json");
    for input in [dir.join("missing.trace"), malformed] {
        let out = abdex()
            .args(["trace", "analyze", input.to_str().unwrap()])
            .args(["--json", json.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{}", input.display());
        assert!(!json.exists(), "{} left a --json file", input.display());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generated_trace_replays_byte_identically() {
    // Simulating `trace:file=t.trace` must reproduce the direct
    // stochastic run bit-for-bit: the recording covers every arrival
    // the simulator would consume at the same seed and horizon.
    let dir = std::env::temp_dir().join(format!("abdex-cli-replayid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace_path = dir.join("t.trace");
    let spec = "stochastic:gap=pareto:alpha=1.3,size=lognormal:mu=6,sigma=1.2";
    let cycles = "400000";
    let seed = "9";

    let out = abdex()
        .args([
            "trace",
            "generate",
            "--traffic",
            spec,
            "--cycles",
            cycles,
            "--seed",
            seed,
            "-o",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let run = |traffic: &str| {
        let out = abdex()
            .args([
                "run",
                "--traffic",
                traffic,
                "--cycles",
                cycles,
                "--seed",
                seed,
                "--json",
                "-",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = String::from_utf8_lossy(&out.stdout).into_owned();
        // The documents differ only in their traffic spec string;
        // every measured quantity lives under "metrics".
        let start = doc.find("\"metrics\":").expect("metrics object");
        doc[start..].to_owned()
    };
    let direct = run(spec);
    let replayed = run(&format!("trace:file={}", trace_path.display()));
    assert_eq!(direct, replayed, "replay must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replicate_reports_per_metric_intervals() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-replicate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let json_path = dir.join("replicate.json");

    let out = abdex()
        .args([
            "replicate",
            "--benchmark",
            "ipfwdr",
            "--traffic",
            "high",
            "--policy",
            "tdvs:threshold=1400",
            "--cycles",
            "200000",
            "--seeds",
            "4",
            "--ci",
            "99",
            "--jobs",
            "2",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 replicates of seed 42"), "{text}");
    assert!(text.contains("99% CI"), "{text}");
    assert!(text.contains("mean_power_w"), "{text}");

    let doc = std::fs::read_to_string(&json_path).expect("JSON written");
    assert!(doc.contains("\"kind\":\"replicated_run\""), "{doc}");
    assert!(doc.contains("\"schema_version\":9"), "{doc}");
    assert!(doc.contains("\"seeds\":4"), "{doc}");
    assert!(doc.contains("\"ci_level\":99"), "{doc}");
    assert!(doc.contains("\"half_width\":"), "{doc}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_with_seeds_replicates_serially() {
    let out = abdex()
        .args([
            "run",
            "--traffic",
            "low",
            "--cycles",
            "200000",
            "--seeds",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 replicates"), "{text}");
    assert!(text.contains("half_width"), "{text}");
}

#[test]
fn zero_cycles_is_rejected_by_every_command_that_takes_it() {
    // A run of no cycles measures nothing: every command that reads
    // `--cycles` rejects 0 with one message, before it writes anything.
    let dir = std::env::temp_dir().join(format!("abdex-cli-zero-cycles-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out");
    let out_file = path.to_str().unwrap();
    let commands: [&[&str]; 8] = [
        &["run", "--json", out_file],
        &["replicate", "--json", out_file],
        &["sweep", "--json", out_file],
        &["compare", "--json", out_file],
        &["trace", "generate", "--out", out_file],
        &["trace", "--out", out_file],
        &["scenario", "run", "diurnal-day", "--json", out_file],
        &["fleet", "run", "--json", out_file],
    ];
    for command in commands {
        let out = abdex()
            .args(command)
            .args(["--cycles", "0"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command:?}: {stderr}");
        assert!(
            stderr.contains("--cycles must be positive"),
            "{command:?}: {stderr}"
        );
        assert!(!path.exists(), "{command:?} left {out_file} behind");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replication_flag_misuse_is_rejected() {
    // --ci without enough replicates would report a zero-width interval.
    let out = abdex()
        .args(["run", "--cycles", "1000", "--ci", "95"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seeds >= 2"));

    // Zero replicates is meaningless.
    let out = abdex()
        .args(["sweep", "--cycles", "1000", "--seeds", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one replicate"));

    // `replicate` exists to produce intervals; one seed cannot.
    let out = abdex()
        .args(["replicate", "--cycles", "1000", "--seeds", "1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("abdex run"));

    // Unsupported level names the supported ones.
    let out = abdex()
        .args([
            "replicate",
            "--cycles",
            "1000",
            "--seeds",
            "2",
            "--ci",
            "80",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("90, 95, 99"));
}

#[test]
fn replicated_sweep_writes_axis_tagged_document() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-repsweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let json_path = dir.join("repsweep.json");

    let out = abdex()
        .args([
            "sweep",
            "--policies",
            "nodvs;queue",
            "--traffic",
            "low",
            "--cycles",
            "150000",
            "--seeds",
            "2",
            "--jobs",
            "2",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("policy_spec"), "{text}");
    assert!(text.contains('±'), "{text}");

    let doc = std::fs::read_to_string(&json_path).expect("JSON written");
    assert!(doc.contains("\"kind\":\"replicated_sweep\""), "{doc}");
    assert!(doc.contains("\"axis\":\"policies\""), "{doc}");
    assert!(doc.contains("\"seeds\":2"), "{doc}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_list_shows_the_builtin_library() {
    let out = abdex()
        .args(["scenario", "list"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["diurnal-day", "flash-noon", "burst-storm", "steady-cbr"] {
        assert!(text.contains(name), "missing scenario '{name}'");
    }
    assert!(text.contains("schedule:segments=["), "{text}");
}

#[test]
fn scenario_run_rejects_unknown_names_and_bad_subcommands() {
    let out = abdex()
        .args(["scenario", "run", "no-such-scenario", "--cycles", "1000"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("no-such-scenario"), "{text}");
    assert!(text.contains("diurnal-day"), "should list builtins: {text}");

    let out = abdex()
        .args(["scenario", "explode"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("run"),
        "should name the subcommands"
    );

    // Options it would ignore are rejected like everywhere else.
    let out = abdex()
        .args(["scenario", "run", "steady-cbr", "--traffic", "low"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--traffic"));
}

#[test]
fn scenario_run_reports_segments_and_writes_schema_6_json() {
    // The PR-5 acceptance gate, CLI edition: `scenario run diurnal-day
    // --seeds K --ci 95 --json -` puts a schema-6 scenario document
    // with per-segment and whole-run mean±half-width metrics on
    // stdout, byte-identical between --jobs 1 and --jobs 4. (--cycles
    // shrinks the horizon to keep the gate fast; determinism.rs guards
    // the library-level multi-segment fold as well.)
    let run = |jobs: &str| {
        let out = abdex()
            .args([
                "scenario",
                "run",
                "diurnal-day",
                "--cycles",
                "2500000",
                "--seeds",
                "4",
                "--ci",
                "95",
                "--jobs",
                jobs,
                "--json",
                "-",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (serial_doc, serial_err) = run("1");
    let (parallel_doc, _) = run("4");

    // stdout is exactly one JSON document (pipeable without a temp
    // file); the human table moved to stderr.
    assert!(serial_doc.starts_with('{'), "{serial_doc}");
    assert_eq!(
        serial_doc.trim_end().matches('\n').count(),
        0,
        "{serial_doc}"
    );
    assert!(serial_err.contains("whole-run"), "{serial_err}");
    assert!(serial_err.contains("policy nodvs"), "{serial_err}");

    for key in [
        "\"schema_version\":9",
        "\"kind\":\"scenario\"",
        "\"scenario\":\"diurnal-day\"",
        "\"seeds\":4",
        "\"ci_level\":95",
        "\"plan\":[",
        "\"segments\":2",
        "\"whole\":{",
        "\"half_width\":",
        "\"failed\":0",
    ] {
        assert!(serial_doc.contains(key), "missing {key} in {serial_doc}");
    }
    // 2.5e6 cycles clip diurnal-day to two windows; every policy block
    // carries one metrics object per window plus the whole-run one.
    assert_eq!(
        serial_doc.matches("\"start_cycles\":2000000").count(),
        1 + 3
    );

    assert_eq!(
        serial_doc, parallel_doc,
        "scenario JSON diverged across --jobs"
    );
}

#[test]
fn scenario_run_accepts_a_toml_file() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-scenario-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("my-scenario.toml");
    std::fs::write(
        &path,
        "name = \"file-scenario\"\n\
         summary = \"from disk\"\n\
         traffic = \"schedule:segments=[low@0..150000; constant:rate=900@150000..]\"\n\
         policies = \"nodvs\"\n\
         cycles = 300000\n\
         seeds = 2\n",
    )
    .expect("write scenario file");

    let out = abdex()
        .args(["scenario", "run", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("scenario file-scenario"), "{text}");
    assert!(text.contains("constant:rate=900"), "{text}");
    assert!(text.contains("whole-run"), "{text}");

    // A malformed file reports the offending key, not a panic.
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, "name = \"x\"\ntraffic = \"low\"\n").expect("write bad file");
    let out = abdex()
        .args(["scenario", "run", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("policies"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_dash_pipes_every_command_kind() {
    // `--json -` must put exactly the document on stdout for the other
    // subcommands too (the scenario test covers `scenario run`).
    let out = abdex()
        .args([
            "run",
            "--traffic",
            "low",
            "--cycles",
            "200000",
            "--json",
            "-",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.starts_with('{'), "{doc}");
    assert!(doc.contains("\"kind\":\"experiment\""), "{doc}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("mean power"));

    let out = abdex()
        .args([
            "sweep",
            "--policies",
            "nodvs",
            "--traffic",
            "low",
            "--cycles",
            "200000",
            "--json",
            "-",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.starts_with('{'), "{doc}");
    assert!(doc.contains("\"kind\":\"spec_sweep\""), "{doc}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("policy_spec"));
}

#[test]
fn replicated_compare_is_bit_identical_across_jobs() {
    // The PR-4 acceptance gate: `compare --seeds K --ci 95 --json` must
    // produce a schema-6 `replicated_compare` document whose per-cell
    // means and half-widths are byte-for-byte identical between
    // `--jobs 1` and `--jobs N`.
    let dir = std::env::temp_dir().join(format!("abdex-cli-repcmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let run = |jobs: &str, path: &std::path::Path| {
        let out = abdex()
            .args([
                "compare",
                "--traffics",
                "low",
                "--cycles",
                "150000",
                "--seeds",
                "3",
                "--ci",
                "95",
                "--jobs",
                jobs,
                "--json",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let serial_json = dir.join("serial.json");
    let parallel_json = dir.join("parallel.json");
    let serial_table = run("1", &serial_json);
    let parallel_table = run("4", &parallel_json);

    assert_eq!(serial_table, parallel_table, "tables diverged");
    let serial = std::fs::read_to_string(&serial_json).expect("JSON written");
    let parallel = std::fs::read_to_string(&parallel_json).expect("JSON written");
    assert!(
        serial.contains("\"kind\":\"replicated_compare\""),
        "{serial}"
    );
    assert!(serial.contains("\"schema_version\":9"), "{serial}");
    assert!(serial.contains("\"half_width\":"), "{serial}");
    assert_eq!(serial, parallel, "JSON documents diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_listings_show_dispatchers_and_policies() {
    let out = abdex()
        .args(["fleet", "dispatchers"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["round-robin", "hash", "least-loaded"] {
        assert!(text.contains(name), "missing dispatcher '{name}': {text}");
    }
    assert!(text.contains("flows"), "{text}");

    let out = abdex()
        .args(["fleet", "policies"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["none", "static-cap", "cap-realloc"] {
        assert!(text.contains(name), "missing fleet policy '{name}': {text}");
    }
    assert!(text.contains("budget"), "{text}");
    assert!(text.contains("period"), "{text}");
}

#[test]
fn fleet_run_rejects_bad_specs_and_misuse() {
    // An unknown dispatcher fails fast and lists the registered names.
    let out = abdex()
        .args(["fleet", "run", "--dispatch", "teleport", "--cycles", "1000"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("teleport"), "{text}");
    assert!(text.contains("least-loaded"), "should list known: {text}");

    // Same for fleet policies.
    let out = abdex()
        .args([
            "fleet",
            "run",
            "--fleet-policy",
            "chaos",
            "--cycles",
            "1000",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("chaos"), "{text}");
    assert!(text.contains("cap-realloc"), "should list known: {text}");

    // An empty fleet is refused before anything runs.
    let out = abdex()
        .args(["fleet", "run", "--chips", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--chips"));

    // Options it would ignore are rejected like everywhere else.
    let out = abdex()
        .args(["fleet", "run", "--threshold", "900"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threshold"));

    let out = abdex()
        .args(["fleet", "explode"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("dispatchers"),
        "should name the subcommands"
    );
}

#[test]
fn fleet_run_reports_table_and_writes_schema_6_json() {
    let out = abdex()
        .args([
            "fleet",
            "run",
            "--chips",
            "4",
            "--dispatch",
            "least-loaded",
            "--fleet-policy",
            "static-cap:budget=5",
            "--cycles",
            "200000",
            "--json",
            "-",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.starts_with('{'), "{doc}");
    for key in [
        "\"schema_version\":9",
        "\"kind\":\"fleet\"",
        "\"chips\":4",
        "\"dispatch\":\"least-loaded:flows=256\"",
        "\"fleet_policy\":\"static-cap:budget=5\"",
        "\"metrics\":{",
        "\"imbalance\":{",
        "\"per_chip\":[",
        "\"share\":",
        "\"queue_depth\":{\"p50\":",
        "\"failed\":0",
    ] {
        assert!(doc.contains(key), "missing {key} in {doc}");
    }
    // The human table moves to stderr under `--json -`.
    let table = String::from_utf8_lossy(&out.stderr);
    assert!(table.contains("fleet chips=4"), "{table}");
    assert!(table.contains("imbalance"), "{table}");
    assert!(table.contains("q_p99"), "{table}");
}

#[test]
fn fleet_run_is_bit_identical_across_jobs() {
    // The PR-6 acceptance gate, CLI edition: `fleet run --chips 64
    // --dispatch least-loaded --seeds 4 --ci 95 --json -` puts a
    // schema-6 fleet document on stdout, byte-identical between
    // --jobs 1 and --jobs 4. (--cycles shrinks the horizon to keep the
    // gate fast; determinism.rs guards the library-level fold as
    // well.)
    let run = |jobs: &str| {
        let out = abdex()
            .args([
                "fleet",
                "run",
                "--chips",
                "64",
                "--dispatch",
                "least-loaded",
                "--seeds",
                "4",
                "--ci",
                "95",
                "--cycles",
                "100000",
                "--jobs",
                jobs,
                "--json",
                "-",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (serial_doc, serial_table) = run("1");
    let (parallel_doc, parallel_table) = run("4");
    assert!(serial_doc.contains("\"kind\":\"fleet\""), "{serial_doc}");
    assert!(serial_doc.contains("\"chips\":64"), "{serial_doc}");
    assert!(serial_doc.contains("\"seeds\":4"), "{serial_doc}");
    assert!(serial_doc.contains("\"ci_level\":95"), "{serial_doc}");
    assert_eq!(serial_doc, parallel_doc, "JSON documents diverged");
    assert_eq!(serial_table, parallel_table, "tables diverged");
}

#[test]
fn run_record_exports_schema_6_jsonl_without_touching_stdout() {
    let dir = std::env::temp_dir().join(format!("abdex-cli-record-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let record_path = dir.join("run.jsonl");

    let base_args = ["run", "--traffic", "low", "--cycles", "200000"];
    let plain = abdex().args(base_args).output().expect("binary runs");
    assert!(plain.status.success());

    let out = abdex()
        .args(base_args)
        .args(["--record", record_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Recording is pure observation: stdout is byte-identical to the
    // unrecorded invocation (the export note goes to stderr).
    assert_eq!(plain.stdout, out.stdout, "stdout changed under --record");

    let doc = std::fs::read_to_string(&record_path).expect("JSONL written");
    let lines: Vec<&str> = doc.lines().collect();
    assert!(lines.len() > 1, "header plus at least one sample: {doc}");
    assert!(lines[0].contains("\"schema_version\":9"), "{}", lines[0]);
    assert!(lines[0].contains("\"kind\":\"record\""), "{}", lines[0]);
    assert!(lines[0].contains("\"source\":\"run\""), "{}", lines[0]);
    assert!(lines[0].contains("\"power_w\""), "{}", lines[0]);
    assert!(
        lines[1].starts_with("{\"series\":0,\"channel\":"),
        "{}",
        lines[1]
    );
    assert!(doc.contains("\"channel\":\"queue_depth\""), "{doc}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_flag_is_rejected_where_it_would_be_ignored() {
    // Sweeps do not record; silently accepting --record would promise
    // an export that never happens.
    let out = abdex()
        .args(["sweep", "--record", "/tmp/x.jsonl", "--cycles", "1000"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--record"));

    // An unwritable record path fails in the preflight, before the run.
    let out = abdex()
        .args(["run", "--record", "/no/such/dir/out.jsonl"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot write"));
}

#[test]
fn recorded_jsonl_is_byte_identical_across_jobs() {
    // The --record acceptance gate, CLI edition: the exported document
    // is a pure function of the batch description, so fleet and
    // scenario exports are byte-identical between --jobs 1 and
    // --jobs 4 (determinism.rs guards the library-level recordings).
    let dir = std::env::temp_dir().join(format!("abdex-cli-recjobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let fleet = |jobs: &str, path: &std::path::Path| {
        let out = abdex()
            .args([
                "fleet",
                "run",
                "--chips",
                "3",
                "--seeds",
                "2",
                "--cycles",
                "150000",
                "--jobs",
                jobs,
                "--record",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(path).expect("JSONL written")
    };
    let serial = fleet("1", &dir.join("fleet1.jsonl"));
    let parallel = fleet("4", &dir.join("fleet4.jsonl"));
    assert!(serial.contains("\"source\":\"fleet\""), "{serial}");
    assert!(serial.contains("\"rep1/chip2\""), "{serial}");
    assert_eq!(serial, parallel, "fleet record diverged across --jobs");

    let scenario = |jobs: &str, path: &std::path::Path| {
        let out = abdex()
            .args([
                "scenario",
                "run",
                "steady-cbr",
                "--seeds",
                "2",
                "--cycles",
                "150000",
                "--jobs",
                jobs,
                "--record",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(path).expect("JSONL written")
    };
    let serial = scenario("1", &dir.join("scen1.jsonl"));
    let parallel = scenario("4", &dir.join("scen4.jsonl"));
    assert!(serial.contains("\"source\":\"scenario\""), "{serial}");
    assert!(serial.contains("/rep1\""), "{serial}");
    assert_eq!(serial, parallel, "scenario record diverged across --jobs");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_sweep_warm_pass_hits_everything_with_identical_stdout() {
    // The ISSUE's acceptance gate: a warm re-run of a cached sweep
    // performs zero simulations (all hits, zero misses on stderr) and
    // its stdout — tables and `--json -` document alike — is
    // byte-identical to the cold pass.
    let dir = std::env::temp_dir().join(format!("abdex-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache_dir = dir.join("store");
    let pass = || {
        abdex()
            .args([
                "sweep",
                "--seeds",
                "2",
                "--cycles",
                "200000",
                "--json",
                "-",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs")
    };
    let cold = pass();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(
        cold_err.contains("cache: 0 hits, 32 misses, 32 stores (0.0% hit rate)"),
        "{cold_err}"
    );

    let warm = pass();
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("cache: 32 hits, 0 misses, 0 stores (100.0% hit rate)"),
        "{warm_err}"
    );
    assert_eq!(cold.stdout, warm.stdout, "cached stdout diverged");

    // The stats subcommand reports the persisted lifetime tallies.
    let stats = abdex()
        .args(["cache", "stats", "--cache-dir", cache_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("entries   : 32"), "{text}");
    assert!(
        text.contains("lifetime  : 32 hits, 32 misses, 32 stores (50.0% hit rate)"),
        "{text}"
    );

    // gc to zero bytes evicts everything; clear on the empty store is
    // benign.
    let gc = abdex()
        .args([
            "cache",
            "gc",
            "--max-bytes",
            "0",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(gc.status.success());
    assert!(
        String::from_utf8_lossy(&gc.stdout).contains("evicted 32 entries"),
        "{}",
        String::from_utf8_lossy(&gc.stdout)
    );
    let clear = abdex()
        .args(["cache", "clear", "--cache-dir", cache_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(clear.status.success());
    assert!(
        String::from_utf8_lossy(&clear.stdout).contains("removed 0 entries"),
        "{}",
        String::from_utf8_lossy(&clear.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_flag_conflicts_and_misuse_are_rejected() {
    // --cache and --no-cache together is a contradiction.
    let out = abdex()
        .args(["run", "--cycles", "100000", "--cache", "--no-cache"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("contradict"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // gc without a budget has nothing to enforce.
    let out = abdex().args(["cache", "gc"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--max-bytes"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Unknown cache subcommands are named in the error.
    let out = abdex()
        .args(["cache", "defrost"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("defrost"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn profile_never_touches_stdout_on_run_sweep_or_fleet() {
    // The profiler's hard invariant: arming `--profile` (and
    // `--profile-summary`) changes nothing on stdout — the trace goes
    // to its file, the summary to stderr. Pinned across the three
    // execution shapes: a serial run, a pooled sweep (with a cold
    // cache, so cache-lookup spans exist), and a fleet run.
    let dir = std::env::temp_dir().join(format!("abdex-cli-prof-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let compare = |label: &str, args: &[&str], extra: &[&str]| {
        let plain = abdex().args(args).output().expect("binary runs");
        assert!(
            plain.status.success(),
            "{label}: {}",
            String::from_utf8_lossy(&plain.stderr)
        );
        let profiled = abdex()
            .args(args)
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            profiled.status.success(),
            "{label}: {}",
            String::from_utf8_lossy(&profiled.stderr)
        );
        assert_eq!(
            plain.stdout, profiled.stdout,
            "{label}: stdout changed under --profile"
        );
        String::from_utf8_lossy(&profiled.stderr).into_owned()
    };

    let run_trace = dir.join("run.prof.json");
    let err = compare(
        "run",
        &["run", "--traffic", "low", "--cycles", "150000"],
        &[
            "--profile",
            run_trace.to_str().unwrap(),
            "--profile-summary",
        ],
    );
    assert!(err.contains("wrote Chrome trace"), "{err}");
    assert!(err.contains("profile:"), "{err}");
    assert!(err.contains("phase"), "{err}");

    let sweep_trace = dir.join("sweep.prof.json");
    let cache_dir = dir.join("store");
    compare(
        "sweep",
        &[
            "sweep",
            "--policies",
            "nodvs;tdvs:threshold=1400",
            "--cycles",
            "120000",
        ],
        &[
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--profile",
            sweep_trace.to_str().unwrap(),
        ],
    );
    // The sweep trace is a structurally valid Chrome Trace Event
    // document carrying the pipeline's phases.
    let doc = std::fs::read_to_string(&sweep_trace).expect("trace written");
    assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(doc.trim_end().ends_with("]}"), "{doc}");
    for span in [
        "parse",
        "plan",
        "simulate",
        "fold",
        "render",
        "cache.lookup",
    ] {
        assert!(
            doc.contains(&format!("\"name\":\"{span}")),
            "no {span} span: {doc}"
        );
    }
    assert!(doc.contains("\"ph\":\"X\""), "{doc}");
    assert!(
        doc.contains("\"ph\":\"C\""),
        "counter events missing: {doc}"
    );
    assert!(doc.contains("\"dur\":"), "{doc}");

    // A capping fleet gathers its telemetry in pool jobs: one
    // `telemetry` span per chip and replicate, beside each `simulate`.
    let fleet_trace = dir.join("fleet.prof.json");
    compare(
        "fleet",
        &[
            "fleet",
            "run",
            "--chips",
            "2",
            "--fleet-policy",
            "cap-realloc:budget=2,period=40000",
            "--seeds",
            "2",
            "--cycles",
            "120000",
        ],
        &["--profile", fleet_trace.to_str().unwrap()],
    );
    let doc = std::fs::read_to_string(&fleet_trace).expect("trace written");
    assert_eq!(doc.matches("\"name\":\"simulate\"").count(), 4, "{doc}");
    assert_eq!(doc.matches("\"name\":\"telemetry\"").count(), 4, "{doc}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_summary_folds_a_sweeps_jobs_into_one_row() {
    // A 16-cell sweep runs 16 jobs of one phase: the summary must print
    // one `job` row with a count of 16 (not one single-count row per
    // cell label), while the trace keeps each job's label as an arg.
    let dir = std::env::temp_dir().join(format!("abdex-cli-prof-jobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("sweep.prof.json");
    let out = abdex()
        .args(["sweep", "--cycles", "60000", "--profile"])
        .arg(&trace)
        .arg("--profile-summary")
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let rows: Vec<&str> = err
        .lines()
        .filter(|line| line.split_whitespace().next() == Some("job"))
        .collect();
    assert_eq!(rows.len(), 1, "{err}");
    assert_eq!(rows[0].split_whitespace().nth(1), Some("16"), "{err}");
    assert!(
        !err.contains("ipfwdr/high"),
        "a cell label became a phase: {err}"
    );

    let doc = std::fs::read_to_string(&trace).expect("trace written");
    assert_eq!(doc.matches("\"name\":\"job\"").count(), 16, "{doc}");
    assert!(
        doc.contains(
            "\"args\":{\"label\":\"ipfwdr/high tdvs:threshold=800,window=20000 \
             cycles=60000 seed=42\"}"
        ),
        "{doc}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_summary_shows_the_cache_publish_and_decode_phases() {
    // A cold cached compare publishes every replicate it simulates; the
    // warm rerun decodes every hit. Each phase is one summary row.
    let dir = std::env::temp_dir().join(format!("abdex-cli-prof-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.join("store");
    let summary = || {
        let out = abdex()
            .args([
                "compare",
                "--traffics",
                "low",
                "--seeds",
                "2",
                "--cycles",
                "60000",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
                "--profile-summary",
            ])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{err}");
        err
    };
    // The call count of `phase`'s row, if the summary has one.
    let calls = |err: &str, phase: &str| {
        err.lines().find_map(|line| {
            let mut cols = line.split_whitespace();
            (cols.next() == Some(phase)).then(|| cols.next().unwrap().to_owned())
        })
    };
    // 6 policies x 4 benchmarks x 1 traffic x 2 seeds.
    let cold = summary();
    assert!(
        cold.contains("cache: 0 hits, 48 misses, 48 stores"),
        "{cold}"
    );
    assert_eq!(
        calls(&cold, "cache.publish").as_deref(),
        Some("48"),
        "{cold}"
    );
    assert_eq!(calls(&cold, "cache.decode"), None, "{cold}");
    let warm = summary();
    assert!(
        warm.contains("cache: 48 hits, 0 misses, 0 stores"),
        "{warm}"
    );
    assert_eq!(
        calls(&warm, "cache.decode").as_deref(),
        Some("48"),
        "{warm}"
    );
    assert_eq!(calls(&warm, "cache.publish"), None, "{warm}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_flag_is_global_and_preflighted() {
    // Every subcommand accepts the pair — including the five flagless
    // listing commands.
    let listings: [&[&str]; 5] = [
        &["policies"],
        &["traffics"],
        &["scenario", "list"],
        &["fleet", "dispatchers"],
        &["fleet", "policies"],
    ];
    for listing in listings {
        let out = abdex()
            .args(listing)
            .arg("--profile-summary")
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{listing:?}: {stderr}");
        assert!(stderr.contains("profile:"), "{listing:?}: {stderr}");
    }
    let dir = std::env::temp_dir().join(format!("abdex-cli-listprof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("p.json");
    let out = abdex()
        .args(["fleet", "policies", "--profile", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists(), "no Chrome trace written");
    let _ = std::fs::remove_dir_all(&dir);
    // A stray positional argument is still an error.
    let out = abdex()
        .args(["scenario", "list", "extra"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("'extra'"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // An unwritable trace path fails in the preflight, before a
    // potentially long batch runs.
    let out = abdex()
        .args([
            "run",
            "--cycles",
            "100000",
            "--profile",
            "/no/such/dir/p.json",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot write"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn obs_summarize_json_is_byte_identical_across_jobs() {
    // The analyzer acceptance gate: `obs summarize --json -` emits a
    // schema-9 document bit-identical between --jobs 1 and --jobs 4.
    let dir = std::env::temp_dir().join(format!("abdex-cli-summ-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let record_path = dir.join("rec.jsonl");

    let out = abdex()
        .args([
            "replicate",
            "--traffic",
            "low",
            "--cycles",
            "200000",
            "--seeds",
            "3",
            "--record",
            record_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let summarize = |jobs: &str| {
        let out = abdex()
            .args([
                "obs",
                "summarize",
                record_path.to_str().unwrap(),
                "--json",
                "-",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // `--json -` moves the human table to stderr.
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("record summary"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let serial = summarize("1");
    let parallel = summarize("4");
    assert_eq!(serial, parallel, "obs_summary diverged across --jobs");
    assert!(serial.contains("\"schema_version\":9"), "{serial}");
    assert!(serial.contains("\"kind\":\"obs_summary\""), "{serial}");
    assert!(serial.contains("\"channel\":\"power_w\""), "{serial}");
    assert!(serial.contains("\"p99\":"), "{serial}");

    // The human table stands alone too.
    let table = abdex()
        .args(["obs", "summarize", record_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(table.status.success());
    let text = String::from_utf8_lossy(&table.stdout);
    assert!(
        text.contains("record summary: source run, 3 series"),
        "{text}"
    );
    assert!(text.contains("power_w"), "{text}");

    // Damaged or non-record input is rejected with a pointed error.
    let bogus = dir.join("bogus.jsonl");
    std::fs::write(&bogus, "{\"kind\":\"other\"}\n").unwrap();
    let out = abdex()
        .args(["obs", "summarize", bogus.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not a record document"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // So is a sample line of 100,000 nested brackets: the JSON parser's
    // nesting cap rejects it before it can overflow the stack, and the
    // error names the line with a short excerpt instead of echoing it.
    let header = std::fs::read_to_string(&record_path)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_owned();
    let deep = dir.join("deep.jsonl");
    std::fs::write(&deep, format!("{header}\n{}\n", "[".repeat(100_000))).unwrap();
    let out = abdex()
        .args(["obs", "summarize", deep.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    let excerpt: String = err.chars().take(300).collect();
    assert_eq!(out.status.code(), Some(1), "{excerpt}");
    assert!(err.contains("malformed sample line: [[["), "{excerpt}");
    assert!(!err.contains("overflowed"), "{excerpt}");
    assert!(
        err.contains(&format!(
            "line 2: malformed sample line: {}…",
            "[".repeat(80)
        )),
        "{excerpt}"
    );
    assert!(
        out.stderr.len() < 1024,
        "{} bytes of stderr",
        out.stderr.len()
    );
    for jobs in ["1", "4"] {
        let again = abdex()
            .args(["obs", "summarize", deep.to_str().unwrap(), "--jobs", jobs])
            .output()
            .expect("binary runs");
        assert_eq!(again.stderr, out.stderr, "--jobs {jobs}");
    }
    // A missing or malformed recording leaves nothing at the --json path.
    let json = dir.join("summary.json");
    for input in [dir.join("missing.jsonl"), bogus, deep] {
        let out = abdex()
            .args(["obs", "summarize", input.to_str().unwrap()])
            .args(["--json", json.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{}", input.display());
        assert!(!json.exists(), "{} left a --json file", input.display());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `replicate --seeds 4 --jobs 2` plain and under `--profile-summary`,
/// asserts both succeed with the same stdout, and returns the profiled
/// run's stderr: the one stderr telemetry report.
fn profiled_replicate_stderr() -> String {
    let args = [
        "replicate",
        "--traffic",
        "low",
        "--cycles",
        "150000",
        "--seeds",
        "4",
        "--jobs",
        "2",
    ];
    let plain = abdex().args(args).output().expect("binary runs");
    assert!(plain.status.success());
    let out = abdex()
        .args(args)
        .arg("--profile-summary")
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{err}");
    assert_eq!(plain.stdout, out.stdout, "stdout changed under profiling");
    err
}

#[test]
fn profile_summary_reports_kernel_counters() {
    // Next to the phase table, `--profile-summary` shows the kernel work
    // and simulated cycles of exactly the simulations this invocation ran.
    let err = profiled_replicate_stderr();
    assert!(err.contains("counter kernel.events_scheduled = "), "{err}");
    assert!(err.contains("counter kernel.events_processed = "), "{err}");
    assert!(err.contains("counter simulate.cycles = 600000\n"), "{err}");
}

#[test]
fn profile_summary_reports_thread_busy_time() {
    // The per-thread line: each thread's busy time over the wall span.
    let err = profiled_replicate_stderr();
    let threads = err
        .lines()
        .find(|l| l.trim_start().starts_with("thread busy over "))
        .unwrap_or_else(|| panic!("no per-thread line: {err}"));
    // The main thread and at least one worker ran outermost spans.
    assert!(threads.matches(" ms (").count() >= 2, "{threads}");
}

#[test]
fn concurrent_cached_sweeps_persist_every_lookup() {
    // Two processes share one cache directory: whatever each finds or
    // publishes, the store's lifetime tallies must add up to the sum of
    // both processes' `cache:` lines.
    let dir = std::env::temp_dir().join(format!("abdex-cli-cache-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.join("store");
    let sweep = || {
        abdex()
            .args([
                "sweep",
                "--policies",
                "nodvs;tdvs;edvs",
                "--cycles",
                "100000",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary starts")
    };
    let (first, second) = (sweep(), sweep());
    let mut total = [0u64; 3];
    for child in [first, second] {
        let out = child.wait_with_output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{err}");
        let line = err
            .lines()
            .find_map(|l| l.strip_prefix("cache: "))
            .unwrap_or_else(|| panic!("no cache line: {err}"));
        let counts: Vec<u64> = line
            .split(", ")
            .map(|part| part.split(' ').next().unwrap().parse().unwrap())
            .collect();
        for (sum, n) in total.iter_mut().zip(counts) {
            *sum += n;
        }
    }
    assert_eq!(total[0] + total[1], 6, "each process looks up 3 cells");
    let stats = abdex()
        .args(["cache", "stats", "--cache-dir", cache_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&stats.stdout);
    let lifetime = format!(
        "lifetime  : {} hits, {} misses, {} stores",
        total[0], total[1], total[2]
    );
    assert!(text.contains(&lifetime), "{lifetime:?} not in {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_stdout_ends_the_command_without_a_panic() {
    // The reader is dropped before the child starts, so the child's
    // first stdout write fails with a broken pipe. Each command still
    // exits with the status its work earns, without a panic.
    let dir = std::env::temp_dir().join(format!("abdex-cli-epipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("loc.trace");
    let out = abdex()
        .args(["trace", "--cycles", "100000", "--out"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let violated = "time(forward[i+1]) - time(forward[i]) < 1";
    let cases: [(&[&str], i32); 3] = [
        (&["policies"], 0),
        (&["trace", "generate", "--cycles", "200000"], 0),
        (&["check", "--formula", violated, "--trace"], 1),
    ];
    for (args, code) in cases {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let mut command = abdex();
        command.args(args).stdout(writer);
        if args[0] == "check" {
            command.arg(&trace);
        }
        let out = command.output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{args:?}: {stderr}");
        if code == 1 {
            assert_eq!(stderr, "error: assertion violated\n", "{args:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_full_stdout_is_one_error_line_not_a_panic() {
    // A stdout write that fails for another reason than a closed pipe,
    // here a full device behind a redirect, fails the invocation with
    // one error line and exit status 1.
    let cases: [&[&str]; 2] = [&["policies"], &["run", "--cycles", "1000", "--json", "-"]];
    for args in cases {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens");
        let out = abdex()
            .args(args)
            .stdout(full)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let errors: Vec<&str> = stderr
            .lines()
            .filter(|line| line.starts_with("error:"))
            .collect();
        assert_eq!(
            errors,
            ["error: cannot write to stdout: No space left on device (os error 28)"],
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_full_stderr_changes_no_exit_status_and_no_stdout() {
    // Stderr is where a failure would be reported, so a write to it
    // that fails is dropped: each command exits as it would with a
    // working stderr, and its stdout is the same bytes.
    let dir = std::env::temp_dir().join(format!("abdex-cli-errfull-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cache_dir = dir.join("store");
    let json = dir.join("out.json");
    let json = json.to_str().unwrap();
    let sweep = [
        "sweep",
        "--cycles",
        "20000",
        "--policies",
        "nodvs",
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ];
    let progress = [&sweep[..], &["--progress", "lines"]].concat();
    let to_file = [&sweep[..], &["--json", json]].concat();
    // Each case with the stderr line it writes, which the run on
    // `/dev/full` then fails to write.
    let cases: [(&[&str], i32, &str); 4] = [
        (&sweep, 0, "cache: "),
        (&progress, 0, "batch done: "),
        (&to_file, 0, "bytes of JSON to"),
        (&["run", "--bogus", "1"], 1, "error: "),
    ];
    for (args, code, line) in cases {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens");
        let on_full = abdex()
            .args(args)
            .stderr(full)
            .output()
            .expect("binary runs");
        let err_path = dir.join("stderr.txt");
        let err_file = std::fs::File::create(&err_path).expect("stderr file");
        let on_file = abdex()
            .args(args)
            .stderr(err_file)
            .output()
            .expect("binary runs");
        let stderr = std::fs::read_to_string(&err_path).expect("stderr file reads");
        assert_eq!(on_file.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(line), "{args:?}: {stderr}");
        assert_eq!(on_full.status.code(), Some(code), "{args:?}");
        assert_eq!(on_full.stdout, on_file.stdout, "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flag_given_twice_is_rejected() {
    // The second value would silently win; a repeated switch is as
    // likely a slip. Both fail before anything runs.
    for (args, flag) in [
        (
            ["run", "--cycles", "1000", "--cycles", "2000"].as_slice(),
            "--cycles",
        ),
        (
            &["run", "--cycles", "1000", "--no-cache", "--no-cache"],
            "--no-cache",
        ),
    ] {
        let out = abdex().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {flag} given twice\n")
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
