//! `abdex` — command-line front end for the design-exploration library.
//!
//! ```text
//! abdex run       --benchmark ipfwdr --traffic high --policy queue:high=0.8 [--cycles N]
//! abdex run       --traffic burst:on_mbps=1800,off_mbps=120,period_s=2 [--record FILE]
//! abdex run       --traffic "schedule:segments=[low@0..2e6; flash@2e6..4e6; low@4e6..]"
//! abdex replicate --policy tdvs:threshold=1400 --seeds 16 --ci 99 [--jobs N]
//! abdex sweep     --benchmark ipfwdr --traffic high [--cycles N] [--seed S] [--jobs N]
//! abdex sweep     --policies "nodvs;tdvs:threshold=1400;proportional:kp=6" [--seeds K]
//! abdex sweep     --traffics "low;burst;flash:peak_mbps=2000" [--policy tdvs]
//! abdex compare   [--traffics "low;high;flash"] [--seeds K] [--ci 90|95|99] [--json FILE]
//! abdex scenario  run <name|file.toml> [--cycles N] [--seeds K] [--ci L] [--jobs N] [--json FILE|-]
//! abdex scenario  list
//! abdex fleet     run [--chips N] [--dispatch SPEC] [--fleet-policy SPEC] [--seeds K] [--ci L] [--jobs N] [--json FILE|-]
//! abdex fleet     dispatchers
//! abdex fleet     policies
//! abdex cache     stats|clear [--cache-dir DIR]
//! abdex cache     gc --max-bytes N [--cache-dir DIR]
//! abdex obs       summarize rec.jsonl [--json FILE|-] [--jobs N]
//! abdex policies
//! abdex traffics
//! abdex trace     generate --traffic "stochastic:gap=pareto:alpha=1.3,size=lognormal:mu=6" -o t.trace
//! abdex trace     analyze t.trace [--json FILE|-] [--jobs N]
//! abdex trace     --benchmark url --traffic medium [--cycles N] [--out FILE]
//! abdex check     --formula "cycle(deq[i]) - cycle(enq[i]) <= 50" --trace FILE
//! abdex analyze   --formula "... dist== (a, b, s)" --trace FILE
//! abdex codegen   --formula "..."
//! ```
//!
//! `--policy` and `--traffic` accept the full spec grammar
//! `name[:key=val,...]` of [`PolicySpec::parse`] and
//! [`TrafficSpec::parse`]; `abdex policies` / `abdex traffics` list
//! every registered policy and traffic model with their parameters.
//! Names are case-insensitive; `low|medium|high` remain shorthands for
//! the paper's traffic levels.
//!
//! Sweeps and comparisons execute on the [`xrun`] thread pool: `--jobs`
//! picks the worker count (default: one per CPU; results are
//! bit-identical for any value), `--progress` selects a stderr progress
//! style, and `--json` writes the results as a machine-readable document
//! next to the human tables. `--record` additionally exports the
//! recorded per-window timeseries as schema-versioned JSONL (`run`,
//! `replicate`, `scenario run`, `fleet run`; byte-identical for any
//! `--jobs`).
//!
//! `--seeds K` replicates every cell K times over seed-derived streams
//! (`derive_seed(seed, i)`) and reports each metric as a `mean ±
//! half-width` Student-t confidence interval at the `--ci` level
//! (90/95/99, default 95). `abdex replicate` is the single-cell form
//! with full per-metric statistics (and, unlike `run`, a `--jobs`
//! flag).
//!
//! `abdex scenario run <name|file>` executes a time-varying composite
//! scenario (see `abdex scenario list` for the built-in library): each
//! policy × replicate simulates the whole horizon once, snapshotted at
//! the schedule's segment boundaries, and the tables/JSON report
//! per-segment metric breakdowns alongside the whole-run numbers.
//!
//! `abdex fleet run` simulates `--chips` NPUs behind a load balancer:
//! `--dispatch` shards the aggregate `--traffic` stream across the
//! chips (see `abdex fleet dispatchers`), every chip runs its own
//! `--policy`, and `--fleet-policy` turns a fleet-wide watt budget into
//! per-chip power caps (see `abdex fleet policies`). Results are
//! bit-identical for any `--jobs` value.
//!
//! `--cache` (or any `--cache-dir`) consults a content-addressed result
//! store before simulating and publishes fresh results after: a warm
//! re-run of `run`/`replicate`/`sweep`/`compare`/`scenario run`/
//! `fleet run` performs zero simulations yet produces byte-identical
//! stdout. Hit/miss/store tallies land on stderr; `abdex cache
//! stats|gc|clear` manage the store. `--record` always re-simulates
//! single-chip paths so exported recordings are first-hand (fleet runs
//! cache their recordings alongside the reports).
//!
//! `--json -` writes the machine-readable document to **stdout** (the
//! human-readable tables move to stderr), so any command's results pipe
//! without a temp file: `abdex scenario run diurnal-day --json - | jq .`
//!
//! `--profile FILE` (any command) writes a Chrome Trace Event JSON of
//! the invocation's phases — parse/plan/simulate/fold/render spans,
//! per-job worker spans, cache-lookup hit/miss spans — viewable in
//! Perfetto or `chrome://tracing`; `--profile-summary` prints the one
//! stderr telemetry report: the per-phase wall-time table, each
//! thread's busy time and utilisation, and the counters (cache
//! lookups, the event kernel's work, simulated cycles). Both are pure
//! observability: stdout stays byte-identical to an unprofiled
//! invocation. `abdex obs summarize <record.jsonl>` closes the
//! `--record` loop, folding an exported recording back into
//! per-channel statistics (bit-identical for any `--jobs`).

use std::collections::HashMap;
use std::process::ExitCode;

use abdex::ccache::write_atomic;
use abdex::compare::ComparisonConfig;
use abdex::fleet::{run_fleet, DispatchRegistry, FleetConfig, FleetPolicyRegistry};
use abdex::json::{
    experiment_json, fleet_json, grid_json, replicated_run_json, scenario_json, trace_analysis_json,
};
use abdex::nepsim::{Benchmark, NpuConfig, Simulator, TraceConfig};
use abdex::record::{
    fleet_record_series, record_jsonl, scenario_record_series, try_replicated_run_recorded,
    RecordedSeries,
};
use abdex::scenario::{self, Scenario};
use abdex::sweep::{power_surface, throughput_surface};
use abdex::tables::{
    render_fleet, render_grid, render_replicated_run, render_scenario, render_surface,
    render_trace_analysis,
};
use abdex::traceio::{analyze_trace, generate_trace};
use abdex::traffic::RecordedTrace;
use abdex::{
    optimal_tdvs, run_grid, run_replicated_experiments, Axis, ConfidenceLevel, DesignPriority,
    Experiment, Grid, JobError, PolicyRegistry, PolicySpec, ProgressMode, Runner, TdvsGrid,
    TrafficRegistry, TrafficSpec, PAPER_RUN_CYCLES,
};
use loc::{parse, Analyzer, Checker, Trace};

const USAGE: &str = "\
abdex — assertion-based design exploration of DVS in NPU architectures

USAGE:
    abdex <run|replicate|sweep|compare|scenario|fleet|cache|obs|policies|traffics|trace|check|analyze|codegen> [OPTIONS]

SCENARIOS:
    abdex scenario run <name|file.toml>  run a time-varying composite scenario
                                         (per-segment metric breakdowns; the
                                         usual --cycles/--seed/--seeds/--ci/
                                         --jobs/--progress/--json apply)
    abdex scenario list                  list the built-in scenario library

FLEETS:
    abdex fleet run                      simulate --chips NPUs behind a load
                                         balancer: --dispatch shards the
                                         aggregate --traffic stream, each chip
                                         runs --policy, --fleet-policy caps
                                         chip power from a fleet watt budget
                                         (plus --benchmark/--cycles/--seed/
                                         --seeds/--ci/--jobs/--progress/--json)
    abdex fleet dispatchers              list the registered dispatchers
    abdex fleet policies                 list the registered fleet policies

CACHE:
    abdex cache stats                    entry count, bytes and lifetime
                                         hit/miss/store tallies of the store
    abdex cache gc --max-bytes <N>       evict oldest entries until the store
                                         fits in N bytes
    abdex cache clear                    remove every cache entry
                                         (all three honour --cache-dir)

OBSERVABILITY:
    abdex obs summarize <record.jsonl>   per-channel n/min/mean/max and sketch
                                         p50/p95/p99 of a --record export
                                         (--json FILE|-, --jobs N; output is
                                         byte-identical for any worker count)

TRACES:
    abdex trace generate                 record --traffic's packet stream
                                         (--seed, --cycles of 600 MHz base
                                         clock) as a replayable trace file
                                         (--out/-o FILE, else stdout); replay
                                         it with --traffic trace:file=FILE
    abdex trace analyze <file>           inter-arrival/size statistics and a
                                         Hurst-style burstiness proxy of a
                                         recorded trace (--json FILE|-,
                                         --jobs N; output is byte-identical
                                         for any worker count)
    abdex trace --benchmark ...          legacy: LOC-event trace of one run
                                         (--traffic/--cycles/--seed/--out)

OPTIONS (where applicable):
    --benchmark <ipfwdr|url|nat|md4>   benchmark application [ipfwdr]
    --traffic   <spec>                 traffic-model spec [high]
                                       grammar: name[:key=val,...], e.g.
                                       burst:on_mbps=1800,off_mbps=120
                                       (low|medium|high = paper levels;
                                       see `abdex traffics` for names/keys)
    --traffics  <spec;spec;...>        traffic-spec sweep list (sweep,
                                       compare)
    --policy    <spec>                 DVS policy spec (run; also fixes the
                                       policy of sweep --traffics) [nodvs]
                                       grammar: name[:key=val,...], e.g.
                                       tdvs:threshold=1400,window=40000
                                       (see `abdex policies` for names/keys)
    --policies  <spec;spec;...>        policy-spec sweep list (sweep)
    --chips     <N>                    fleet size (fleet run) [8]
    --dispatch  <spec>                 dispatcher sharding the aggregate
                                       stream (fleet run) [round-robin]
                                       grammar: name[:key=val,...], e.g.
                                       least-loaded:flows=512 (see
                                       `abdex fleet dispatchers`)
    --fleet-policy <spec>              fleet-wide power policy (fleet run)
                                       [none], e.g. cap-realloc:budget=8
                                       (see `abdex fleet policies`)
    --threshold <Mbps>                 legacy: TDVS top threshold, only with
                                       bare --policy tdvs [1000]
    --window    <cycles>               legacy: monitor window, only with bare
                                       --policy tdvs|edvs [40000]
    --cycles    <N>                    cycles per configuration [8000000]
    --seed      <N>                    experiment seed [42]
    --seeds     <K>                    replicates per cell over derived
                                       seeds; metrics become mean ± CI
                                       (run/sweep/compare [1],
                                       replicate [8])
    --ci        <90|95|99>             confidence level of the reported
                                       intervals (needs --seeds >= 2) [95]
    --jobs      <N>                    parallel workers for
                                       replicate/sweep/compare
                                       (0 = one per CPU) [0]
    --progress  <quiet|dot|line>       batch progress on stderr [quiet]
    --json      <file|->               also write results as JSON
                                       (run/replicate/sweep/compare/
                                       scenario run); `-` writes the
                                       document to stdout and moves the
                                       human tables to stderr
    --cache                            reuse cached results and cache fresh
                                       ones (run/replicate/sweep/compare/
                                       scenario run/fleet run); warm runs
                                       skip simulation with byte-identical
                                       stdout; tallies go to stderr
    --no-cache                         force caching off
    --cache-dir <dir>                  cache directory [.abdex-cache];
                                       implies --cache
    --record    <file>                 also write the recorded per-window
                                       timeseries as JSONL (run/replicate/
                                       scenario run/fleet run); byte-
                                       identical for any --jobs value
    --profile   <file>                 write a Chrome Trace Event JSON of
                                       this invocation's phases (every
                                       command; open in Perfetto or
                                       chrome://tracing); stdout stays
                                       byte-identical to an unprofiled run
    --profile-summary                  print the telemetry report on
                                       stderr: per-phase wall time
                                       (count/total/self/mean), per-thread
                                       busy time and utilisation, and the
                                       counters (cache lookups, kernel
                                       events, simulated cycles)
    --formula   <text>                 LOC formula (check/analyze/codegen)
    --trace     <file>                 trace file in NePSim text format
    --out       <file>                 output path (trace)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Arm the profiler before any work so the `parse` span and every
    // later phase land in the trace. The raw-args scan (rather than the
    // per-command option parser) is deliberate: the flags are global,
    // and the export must happen even when a command fails early.
    let profiling = args
        .iter()
        .any(|a| a == "--profile" || a == "--profile-summary");
    if profiling {
        abdex::obs::prof::set_enabled(true);
    }
    let mut result = dispatch(&args);
    if profiling {
        // The command's work is over; exporting now captures every
        // span, including the worker threads' (each thread flushes its
        // spans whenever its span stack empties). A failed export fails
        // the invocation, but never eats the command's own error.
        if let Err(e) = finish_profile(&args) {
            result = result.and(Err(e));
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // An empty message means usage was already printed.
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Writes the drained profile: the Chrome trace to the `--profile`
/// path and/or the per-phase summary table to stderr. Everything lands
/// on stderr or the file — stdout stays byte-identical to an
/// unprofiled invocation.
fn finish_profile(args: &[String]) -> Result<(), String> {
    let profile = abdex::obs::prof::drain();
    if let Some(i) = args.iter().position(|a| a == "--profile") {
        let path = args
            .get(i + 1)
            .ok_or_else(|| "--profile needs a value".to_owned())?;
        write_atomic(path, profile.chrome_trace_json().as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote Chrome trace of {} span(s) to {path} (open in Perfetto or chrome://tracing)",
            profile.spans.len()
        );
    }
    if args.iter().any(|a| a == "--profile-summary") {
        eprint!("{}", profile.summary_table());
    }
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return Err(String::new());
    };
    // `scenario`, `fleet`, `trace` and `obs` take positional arguments
    // (`run <name|file>`, `analyze <file>`, `summarize <file>`), so
    // they dispatch before the flag-only parser below.
    if ["scenario", "fleet", "trace", "cache", "obs"].contains(&command.as_str()) {
        return match command.as_str() {
            "scenario" => cmd_scenario(rest),
            "fleet" => cmd_fleet(rest),
            "cache" => cmd_cache(rest),
            "obs" => cmd_obs(rest),
            _ => cmd_trace_dispatch(rest),
        };
    }
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return Err(String::new());
        }
    };
    // Every command rejects options it would otherwise silently ignore
    // (`sweep --policy ...` must not quietly run the default TDVS grid).
    let result = match command.as_str() {
        "run" => check_opts(
            &opts,
            &[
                "benchmark",
                "traffic",
                "policy",
                "threshold",
                "window",
                "cycles",
                "seed",
                "seeds",
                "ci",
                "json",
                "record",
                "cache",
                "no-cache",
                "cache-dir",
            ],
        )
        .and_then(|()| cmd_run(&opts)),
        "replicate" => check_opts(
            &opts,
            &[
                "benchmark",
                "traffic",
                "policy",
                "cycles",
                "seed",
                "seeds",
                "ci",
                "jobs",
                "progress",
                "json",
                "record",
                "cache",
                "no-cache",
                "cache-dir",
            ],
        )
        .and_then(|()| cmd_replicate(&opts)),
        "sweep" => check_opts(
            &opts,
            &[
                "benchmark",
                "traffic",
                "traffics",
                "policy",
                "policies",
                "cycles",
                "seed",
                "seeds",
                "ci",
                "jobs",
                "progress",
                "json",
                "cache",
                "no-cache",
                "cache-dir",
            ],
        )
        .and_then(|()| cmd_sweep(&opts)),
        "compare" => check_opts(
            &opts,
            &[
                "traffics",
                "cycles",
                "seed",
                "seeds",
                "ci",
                "jobs",
                "progress",
                "json",
                "cache",
                "no-cache",
                "cache-dir",
            ],
        )
        .and_then(|()| cmd_compare(&opts)),
        "policies" => check_opts(&opts, &[]).and_then(|()| cmd_policies()),
        "traffics" => check_opts(&opts, &[]).and_then(|()| cmd_traffics()),
        "check" => check_opts(&opts, &["formula", "trace"]).and_then(|()| cmd_check(&opts)),
        "analyze" => check_opts(&opts, &["formula", "trace"]).and_then(|()| cmd_analyze(&opts)),
        "codegen" => check_opts(&opts, &["formula"]).and_then(|()| cmd_codegen(&opts)),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    result
}

type Opts = HashMap<String, String>;

/// The flags that are switches rather than `--flag value` pairs.
const VALUELESS_FLAGS: &[&str] = &["cache", "no-cache", "profile-summary"];

/// The global profiling flags, accepted by every command (see
/// [`check_opts`]).
const PROFILE_FLAGS: &[&str] = &["profile", "profile-summary"];

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let _prof = abdex::obs::prof::span("parse");
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, found '{flag}'"));
        };
        if VALUELESS_FLAGS.contains(&name) {
            opts.insert(name.to_owned(), String::new());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        opts.insert(name.to_owned(), value.clone());
    }
    Ok(opts)
}

fn check_opts(opts: &Opts, allowed: &[&str]) -> Result<(), String> {
    // The profiling flags are global: every command accepts them, so
    // they are allowed by construction rather than listed per command.
    let mut stray: Vec<&str> = opts
        .keys()
        .map(String::as_str)
        .filter(|key| !allowed.contains(key) && !PROFILE_FLAGS.contains(key))
        .collect();
    stray.sort_unstable();
    match stray.first() {
        None => Ok(()),
        Some(key) => Err(format!(
            "--{key} is not an option of this command (see `abdex help`)"
        )),
    }
}

fn benchmark(opts: &Opts) -> Result<Benchmark, String> {
    match opts.get("benchmark") {
        None => Ok(Benchmark::Ipfwdr),
        // Case-insensitive; the error lists every known benchmark.
        Some(name) => name.parse(),
    }
}

fn traffic(opts: &Opts) -> Result<TrafficSpec, String> {
    match opts.get("traffic") {
        None => Ok(TrafficSpec::parse("high").expect("builtin level")),
        Some(spec) => parse_traffic(spec),
    }
}

/// Parses a traffic spec and preflights that its model actually builds
/// (a `trace:` file is read here), so a bad spec fails in milliseconds
/// instead of panicking mid-batch.
fn parse_traffic(spec: &str) -> Result<TrafficSpec, String> {
    let spec = TrafficSpec::parse(spec).map_err(|e| e.to_string())?;
    spec.model().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Parses a `spec;spec;...` list with the given per-item parser.
fn spec_list<T>(list: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    list.split(';')
        .filter(|s| !s.trim().is_empty())
        .map(parse)
        .collect()
}

fn number<T: std::str::FromStr>(opts: &Opts, name: &str, default: T) -> Result<T, String> {
    match opts.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{name}: bad value '{v}'")),
    }
}

/// Reads `--cycles` (`default` when absent) for every command that
/// takes it. Zero is rejected: a run of no cycles measures nothing, and
/// its all-zero table would report a chip that draws no power.
fn cycles(opts: &Opts, default: u64) -> Result<u64, String> {
    match number(opts, "cycles", default)? {
        0 => Err("--cycles must be positive".to_owned()),
        cycles => Ok(cycles),
    }
}

fn policy(opts: &Opts) -> Result<PolicySpec, String> {
    // Bare `tdvs`/`edvs` keep honouring the legacy standalone flags they
    // actually use; any other combination would silently ignore a flag,
    // so it is rejected — a run must never execute with a different
    // configuration than the user asked for.
    let (spec, consumed): (Option<String>, &[&str]) = match opts.get("policy").map(String::as_str) {
        None => (None, &[]),
        Some("tdvs") => {
            let threshold: f64 = number(opts, "threshold", 1000.0)?;
            let window: u64 = number(opts, "window", 40_000)?;
            (
                Some(format!("tdvs:threshold={threshold},window={window}")),
                &["threshold", "window"],
            )
        }
        Some("edvs") => {
            let window: u64 = number(opts, "window", 40_000)?;
            (Some(format!("edvs:window={window}")), &["window"])
        }
        Some(other) => (Some(other.to_owned()), &[]),
    };
    if let Some(stray) = ["threshold", "window"]
        .into_iter()
        .find(|f| opts.contains_key(*f) && !consumed.contains(f))
    {
        return Err(format!(
            "--{stray} does not apply to this policy; put the parameter in the \
             spec instead, e.g. --policy tdvs:threshold=1400,window=20000",
        ));
    }
    match spec {
        None => Ok(PolicySpec::NoDvs),
        Some(spec) => PolicySpec::parse(&spec).map_err(|e| e.to_string()),
    }
}

/// Parses `--seeds` (replicates per cell, `default_seeds` when absent)
/// and `--ci` (confidence level, 95 % when absent). `--ci` without at
/// least two replicates would report a meaningless zero-width interval,
/// so that combination is rejected instead of silently honoured.
fn replication_opts(opts: &Opts, default_seeds: u64) -> Result<(u64, ConfidenceLevel), String> {
    let seeds: u64 = number(opts, "seeds", default_seeds)?;
    if seeds == 0 {
        return Err("--seeds needs at least one replicate".to_owned());
    }
    let level: ConfidenceLevel = match opts.get("ci") {
        None => ConfidenceLevel::default(),
        Some(v) => {
            if seeds < 2 {
                return Err(
                    "--ci needs --seeds >= 2 (one replicate carries no variance)".to_owned(),
                );
            }
            v.parse()?
        }
    };
    Ok((seeds, level))
}

/// Builds the result cache from `--cache`/`--no-cache`/`--cache-dir`.
/// Caching is off by default; `--cache` or a `--cache-dir` turns it on,
/// `--no-cache` forces it off, and asking for both ways at once is
/// rejected rather than silently resolved.
fn cache(opts: &Opts) -> Result<Option<abdex::Cache>, String> {
    if opts.contains_key("cache") && opts.contains_key("no-cache") {
        return Err("--cache and --no-cache contradict each other".to_owned());
    }
    if opts.contains_key("no-cache")
        || !(opts.contains_key("cache") || opts.contains_key("cache-dir"))
    {
        return Ok(None);
    }
    let dir = opts
        .get("cache-dir")
        .map(String::as_str)
        .unwrap_or(abdex::ccache::DEFAULT_DIR);
    abdex::Cache::open(dir).map(Some)
}

/// Attaches the `--cache` result store to a runner, when asked for.
fn with_cache(runner: Runner, opts: &Opts) -> Result<Runner, String> {
    match cache(opts)? {
        None => Ok(runner),
        Some(cache) => Ok(runner.with_cache(cache)),
    }
}

/// Prints this invocation's cache tallies on stderr and folds them into
/// the store's persisted lifetime counters (what `abdex cache stats`
/// reads). Stdout stays byte-identical to an uncached run — the
/// counters are deliberately stderr-only.
fn report_cache(cache: Option<&abdex::Cache>) {
    let Some(cache) = cache else { return };
    eprintln!("cache: {}", cache.counters());
    cache.flush_counters();
}

/// Builds the batch runner from `--jobs`, `--progress` and the cache
/// flags.
fn runner(opts: &Opts) -> Result<Runner, String> {
    let jobs: usize = number(opts, "jobs", 0)?;
    let progress: ProgressMode = match opts.get("progress") {
        None => ProgressMode::Quiet,
        Some(v) => v.parse()?,
    };
    with_cache(
        Runner::new()
            .with_workers(jobs)
            .with_progress_mode(progress),
        opts,
    )
}

/// `true` when `--json -` claims stdout for the machine document (the
/// human-readable output then goes to stderr so stdout stays pipeable).
fn json_to_stdout(opts: &Opts) -> bool {
    opts.get("json").is_some_and(|path| path == "-")
}

/// Prints a block of human-readable output: stdout normally, stderr
/// when `--json -` reserves stdout for the JSON document.
fn emit(opts: &Opts, text: &str) {
    let _prof = abdex::obs::prof::span("render");
    if json_to_stdout(opts) {
        eprintln!("{text}");
    } else {
        println!("{text}");
    }
}

/// Fails fast when the `--json`, `--record` or `--profile` path is
/// unwritable,
/// *before* a potentially minutes-long batch runs. Opens in append
/// mode so an existing file is probed without being truncated. `-`
/// (stdout) needs no probe.
fn preflight_json(opts: &Opts) -> Result<(), String> {
    for key in ["json", "record", "profile"] {
        if let Some(path) = opts.get(key) {
            if key == "json" && path == "-" {
                continue;
            }
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    Ok(())
}

/// Writes the recorded timeseries to the `--record` path, if given.
/// The byte count lands on stderr so stdout stays identical to an
/// unrecorded invocation.
fn write_record(opts: &Opts, source: &str, series: &[RecordedSeries]) -> Result<(), String> {
    let Some(path) = opts.get("record") else {
        return Ok(());
    };
    let doc = record_jsonl(source, series);
    write_atomic(path, doc.as_bytes()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "wrote {} bytes of record JSONL ({} series) to {path}",
        doc.len(),
        series.len()
    );
    Ok(())
}

/// Writes the rendered JSON document to the `--json` path, if given;
/// `-` prints the document to stdout (and nothing else lands there —
/// see [`emit`]), so results pipe without a temp file.
fn write_json(opts: &Opts, render: impl FnOnce() -> String) -> Result<(), String> {
    let render = || {
        let _prof = abdex::obs::prof::span("render");
        render()
    };
    match opts.get("json").map(String::as_str) {
        None => Ok(()),
        Some("-") => {
            println!("{}", render());
            Ok(())
        }
        Some(path) => {
            let doc = render();
            write_atomic(path, doc.as_bytes()).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {} bytes of JSON to {path}", doc.len());
            Ok(())
        }
    }
}

/// Finishes a batch command: prints every per-cell failure to stderr
/// (always — even when the `--json` write also failed), then reports
/// the first error. The completed cells were already rendered by the
/// caller, so partial results survive any failure mode.
fn finish_batch(
    pool: &Runner,
    json: Result<(), String>,
    errors: Vec<JobError>,
) -> Result<(), String> {
    report_cache(pool.cache());
    for e in &errors {
        eprintln!("cell failed: {e}");
    }
    match (json, errors.len()) {
        (json, 0) => json,
        (Ok(()), n) => Err(format!("{n} cell(s) failed")),
        (Err(j), n) => Err(format!("{j}; additionally {n} cell(s) failed")),
    }
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let plan = abdex::obs::prof::span("plan");
    let experiment = Experiment {
        benchmark: benchmark(opts)?,
        traffic: traffic(opts)?,
        policy: policy(opts)?,
        cycles: cycles(opts, PAPER_RUN_CYCLES)?,
        seed: number(opts, "seed", 42)?,
    };
    let (seeds, level) = replication_opts(opts, 1)?;
    preflight_json(opts)?;
    drop(plan);
    if seeds > 1 {
        // `run` stays a deliberately serial command (no --jobs); the
        // replicates execute inline. `abdex replicate` is the parallel
        // form.
        let pool = with_cache(Runner::serial(), opts)?;
        return finish_replicated_run(opts, &pool, &experiment, seeds, level);
    }
    // The recorded path is taken only on request, so a plain `run`
    // keeps the exact execution (and output bytes) it always had. It
    // also bypasses the cache: a recording export must come from a real
    // simulation of this invocation.
    let cache = cache(opts)?;
    let (r, series) = if opts.contains_key("record") {
        let (r, recording) = experiment.run_recorded();
        (
            r,
            vec![RecordedSeries {
                label: "rep0".to_owned(),
                recording,
            }],
        )
    } else {
        (abdex::run_cached(cache.as_ref(), &experiment), Vec::new())
    };
    let mut text = format!(
        "{} @ {} under {} for {} cycles (seed {})\n",
        experiment.benchmark, experiment.traffic, r.sim.policy, experiment.cycles, experiment.seed
    );
    text.push_str(&format!(
        "  offered        : {:9.1} Mbps\n",
        r.sim.offered_mbps()
    ));
    text.push_str(&format!(
        "  throughput     : {:9.1} Mbps\n",
        r.sim.throughput_mbps()
    ));
    text.push_str(&format!(
        "  mean power     : {:9.3} W\n",
        r.sim.mean_power_w()
    ));
    text.push_str(&format!("  p80 power      : {:9.3} W\n", r.p80_power_w()));
    text.push_str(&format!(
        "  p80 throughput : {:9.1} Mbps\n",
        r.p80_throughput_mbps()
    ));
    text.push_str(&format!("  loss ratio     : {:9.4}\n", r.sim.loss_ratio()));
    text.push_str(&format!(
        "  rx idle        : {:9.3}\n",
        r.sim.rx_idle_fraction()
    ));
    text.push_str(&format!("  VF switches    : {:9}", r.sim.total_switches));
    emit(opts, &text);
    report_cache(cache.as_ref());
    write_record(opts, "run", &series)?;
    write_json(opts, || experiment_json(&r))
}

/// Replicates one cell `--seeds` times: the interval-estimate form of
/// `run`, with `--jobs`/`--progress` since the replicates are a batch.
fn cmd_replicate(opts: &Opts) -> Result<(), String> {
    let plan = abdex::obs::prof::span("plan");
    let experiment = Experiment {
        benchmark: benchmark(opts)?,
        traffic: traffic(opts)?,
        policy: policy(opts)?,
        cycles: cycles(opts, PAPER_RUN_CYCLES)?,
        seed: number(opts, "seed", 42)?,
    };
    let (seeds, level) = replication_opts(opts, 8)?;
    if seeds < 2 {
        return Err("replicate needs --seeds >= 2; use `abdex run` for a single seed".to_owned());
    }
    let pool = runner(opts)?;
    preflight_json(opts)?;
    drop(plan);
    finish_replicated_run(opts, &pool, &experiment, seeds, level)
}

/// Shared tail of `run --seeds K` and `replicate`: execute, render the
/// per-metric table, write the `replicated_run` document.
fn finish_replicated_run(
    opts: &Opts,
    pool: &Runner,
    experiment: &Experiment,
    seeds: u64,
    level: ConfidenceLevel,
) -> Result<(), String> {
    let (replicated, series) = if opts.contains_key("record") {
        try_replicated_run_recorded(pool, experiment, seeds).map_err(|e| e.to_string())?
    } else {
        let replicated = run_replicated_experiments(pool, vec![experiment.clone()], seeds)
            .pop()
            .expect("one experiment yields one outcome")
            .map_err(|e| e.to_string())?;
        (replicated, Vec::new())
    };
    emit(
        opts,
        &format!(
            "{} @ {} under {} for {} cycles ({} replicates of seed {}, {} CI)\n{}",
            experiment.benchmark,
            experiment.traffic,
            experiment.policy.spec_string(),
            experiment.cycles,
            seeds,
            experiment.seed,
            level,
            render_replicated_run(&replicated, level),
        ),
    );
    report_cache(pool.cache());
    write_record(opts, "run", &series)?;
    write_json(opts, || replicated_run_json(&replicated, level))
}

fn cmd_sweep(opts: &Opts) -> Result<(), String> {
    // Validate every flag — including the optional spec lists — before
    // preflight_json touches the disk, so a bad option never leaves a
    // stray empty output file.
    let plan = abdex::obs::prof::span("plan");
    let pool = runner(opts)?;
    let bench = benchmark(opts)?;
    let level = traffic(opts)?;
    let cycles = cycles(opts, PAPER_RUN_CYCLES)?;
    let seed = number(opts, "seed", 42)?;
    let (seeds, ci) = replication_opts(opts, 1)?;
    let specs: Option<Vec<PolicySpec>> = opts
        .get("policies")
        .map(|list| spec_list(list, |s| PolicySpec::parse(s).map_err(|e| e.to_string())))
        .transpose()?;
    if specs.as_ref().is_some_and(Vec::is_empty) {
        return Err("--policies needs at least one spec".to_owned());
    }
    let traffics: Option<Vec<TrafficSpec>> = opts
        .get("traffics")
        .map(|list| spec_list(list, parse_traffic))
        .transpose()?;
    if traffics.as_ref().is_some_and(Vec::is_empty) {
        return Err("--traffics needs at least one spec".to_owned());
    }
    if specs.is_some() && traffics.is_some() {
        return Err("pick one sweep axis: --policies or --traffics".to_owned());
    }
    // `--policy` fixes the policy of a traffic sweep and nothing else;
    // `--traffic` fixes the traffic of the policy/TDVS sweeps. Reject
    // the combinations that would be silently ignored.
    if opts.contains_key("policy") && traffics.is_none() {
        return Err(
            "--policy only applies with --traffics; use --policies for a policy sweep".to_owned(),
        );
    }
    if opts.contains_key("traffic") && traffics.is_some() {
        return Err("--traffic does not apply with --traffics (the list is the axis)".to_owned());
    }
    let grid = match (specs, traffics) {
        (Some(specs), _) => Grid::policies(bench, &level, &specs, cycles, seed),
        // A `--traffics` list sweeps the traffic axis under one policy.
        (_, Some(traffics)) => Grid::traffics(bench, &traffics, &policy(opts)?, cycles, seed),
        // The paper's TDVS threshold x window grid.
        (None, None) => Grid::tdvs(bench, &level, &TdvsGrid::default(), cycles, seed),
    };
    preflight_json(opts)?;
    drop(plan);
    finish_grid(opts, &pool, &grid, seeds, ci)
}

fn cmd_compare(opts: &Opts) -> Result<(), String> {
    let plan = abdex::obs::prof::span("plan");
    let cfg = ComparisonConfig {
        cycles: cycles(opts, PAPER_RUN_CYCLES)?,
        seed: number(opts, "seed", 42)?,
        ..ComparisonConfig::default()
    };
    // The paper's three levels by default; any spec list on demand.
    let traffics: Vec<TrafficSpec> = match opts.get("traffics") {
        None => TrafficSpec::paper_levels().to_vec(),
        Some(list) => {
            let traffics = spec_list(list, parse_traffic)?;
            if traffics.is_empty() {
                return Err("--traffics needs at least one spec".to_owned());
            }
            traffics
        }
    };
    let pool = runner(opts)?;
    let (seeds, ci) = replication_opts(opts, 1)?;
    let grid = Grid::compare(&Benchmark::ALL, &traffics, &cfg);
    preflight_json(opts)?;
    drop(plan);
    finish_grid(opts, &pool, &grid, seeds, ci)
}

/// The shared tail of `sweep` and `compare`: run the grid, print its
/// table (plus the Fig. 8/9 surfaces and both optima for a plain TDVS
/// sweep), write its `--json` document and report failed cells.
fn finish_grid(
    opts: &Opts,
    pool: &Runner,
    grid: &Grid,
    seeds: u64,
    ci: ConfidenceLevel,
) -> Result<(), String> {
    let run = run_grid(pool, grid, seeds);
    emit(opts, &render_grid(&run, ci));
    if let (Axis::Tdvs, Some(cells)) = (run.axis, run.plain()) {
        emit(
            opts,
            &render_surface(&power_surface(cells), "p80 power (W)"),
        );
        emit(
            opts,
            &render_surface(&throughput_surface(cells), "p80 throughput (Mbps)"),
        );
        for (p, label) in [
            (DesignPriority::Performance, "performance"),
            (DesignPriority::Power, "power"),
        ] {
            if let Some((threshold, window)) =
                optimal_tdvs(cells, p).and_then(|best| best.experiment.tdvs_point())
            {
                emit(
                    opts,
                    &format!(
                        "optimal ({label}): threshold {threshold} Mbps, window {window} cycles"
                    ),
                );
            }
        }
    }
    let json = write_json(opts, || grid_json(&run, ci));
    finish_batch(pool, json, run.failures)
}

/// Dispatches the `scenario` command: `run <name|file>` and `list`.
fn cmd_scenario(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("scenario needs a subcommand: `run <name|file>` or `list`".to_owned());
    };
    match sub.as_str() {
        "list" => {
            check_opts(&parse_opts(rest)?, &[])?;
            cmd_scenario_list();
            Ok(())
        }
        "run" => {
            let Some((target, rest)) = rest.split_first() else {
                return Err(format!(
                    "scenario run needs a <name|file.toml> (builtin: {})",
                    scenario::builtin_names()
                ));
            };
            let opts = parse_opts(rest)?;
            check_opts(
                &opts,
                &[
                    "cycles",
                    "seed",
                    "seeds",
                    "ci",
                    "jobs",
                    "progress",
                    "json",
                    "record",
                    "cache",
                    "no-cache",
                    "cache-dir",
                ],
            )?;
            cmd_scenario_run(target, &opts)
        }
        other => Err(format!(
            "unknown scenario subcommand '{other}' (expected `run` or `list`)"
        )),
    }
}

/// Resolves a scenario target: a built-in name first, then a TOML file
/// path.
fn resolve_scenario(target: &str) -> Result<Scenario, String> {
    if let Some(found) = scenario::builtin(target) {
        return Ok(found);
    }
    if std::path::Path::new(target).exists() {
        return Scenario::load(target);
    }
    Err(format!(
        "unknown scenario '{target}' (builtin: {}; or pass a scenario TOML file path)",
        scenario::builtin_names()
    ))
}

fn cmd_scenario_run(target: &str, opts: &Opts) -> Result<(), String> {
    let plan = abdex::obs::prof::span("plan");
    let mut scenario = resolve_scenario(target)?;
    // CLI flags override the scenario's own run parameters.
    scenario.cycles = cycles(opts, scenario.cycles)?;
    scenario.seed = number(opts, "seed", scenario.seed)?;
    let (seeds, ci) = replication_opts(opts, scenario.seeds)?;
    scenario.seeds = seeds;
    let pool = runner(opts)?;
    preflight_json(opts)?;
    drop(plan);
    // The recorded runner is taken only with `--record`, so a plain
    // `scenario run` keeps the exact execution it always had.
    let (run, errors) = if opts.contains_key("record") {
        let (run, errors, recordings) = scenario::try_run_scenario_recorded(&pool, &scenario);
        write_record(
            opts,
            "scenario",
            &scenario_record_series(&scenario, &recordings),
        )?;
        (run, errors)
    } else {
        scenario::try_run_scenario(&pool, &scenario)
    };
    emit(opts, &render_scenario(&run, ci));
    let json = write_json(opts, || scenario_json(&run, ci, &errors));
    finish_batch(&pool, json, errors)
}

fn cmd_scenario_list() {
    println!("built-in scenarios (run with `abdex scenario run <name>`):\n");
    for s in scenario::builtin_scenarios() {
        println!("{:<12} {}", s.name, s.summary);
        println!(
            "    {} on {}, {} policies, {} cycles, {} seed(s)",
            s.traffic.name(),
            s.benchmark,
            s.policies.len(),
            s.cycles,
            s.seeds
        );
        println!("    traffic  {}", s.traffic.spec_string());
        let policies: Vec<String> = s.policies.iter().map(PolicySpec::spec_string).collect();
        println!("    policies {}\n", policies.join(";"));
    }
    println!(
        "a TOML file works too (`abdex scenario run my.toml`); its fields are\n\
         name/summary/benchmark/traffic/policies/cycles/seed/seeds — the same\n\
         shape `scenario::Scenario::to_toml_string` renders."
    );
}

/// Dispatches the `fleet` command: `run`, `dispatchers` and
/// `policies`.
fn cmd_fleet(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err(
            "fleet needs a subcommand: `run [OPTIONS]`, `dispatchers` or `policies`".to_owned(),
        );
    };
    match sub.as_str() {
        "run" => {
            let opts = parse_opts(rest)?;
            check_opts(
                &opts,
                &[
                    "chips",
                    "dispatch",
                    "benchmark",
                    "traffic",
                    "policy",
                    "fleet-policy",
                    "cycles",
                    "seed",
                    "seeds",
                    "ci",
                    "jobs",
                    "progress",
                    "json",
                    "record",
                    "cache",
                    "no-cache",
                    "cache-dir",
                ],
            )?;
            cmd_fleet_run(&opts)
        }
        "dispatchers" => {
            check_opts(&parse_opts(rest)?, &[])?;
            cmd_fleet_dispatchers();
            Ok(())
        }
        "policies" => {
            check_opts(&parse_opts(rest)?, &[])?;
            cmd_fleet_policies();
            Ok(())
        }
        other => Err(format!(
            "unknown fleet subcommand '{other}' (expected `run`, `dispatchers` or `policies`)"
        )),
    }
}

fn cmd_fleet_run(opts: &Opts) -> Result<(), String> {
    let plan = abdex::obs::prof::span("plan");
    let mut config = FleetConfig::new(number(opts, "chips", 8)?);
    if config.chips == 0 {
        return Err("--chips needs at least one chip".to_owned());
    }
    if let Some(spec) = opts.get("dispatch") {
        config.dispatch = abdex::DispatchSpec::parse(spec).map_err(|e| e.to_string())?;
    }
    config.benchmark = benchmark(opts)?;
    config.traffic = traffic(opts)?;
    config.policy = policy(opts)?;
    if let Some(spec) = opts.get("fleet-policy") {
        config.fleet_policy = abdex::FleetPolicySpec::parse(spec).map_err(|e| e.to_string())?;
    }
    config.cycles = cycles(opts, config.cycles)?;
    config.seed = number(opts, "seed", config.seed)?;
    let (seeds, ci) = replication_opts(opts, 1)?;
    let pool = runner(opts)?;
    preflight_json(opts)?;
    drop(plan);
    let outcome = run_fleet(&config, seeds as usize, &pool);
    emit(opts, &render_fleet(&outcome.report, ci));
    write_record(opts, "fleet", &fleet_record_series(&outcome))?;
    let json = write_json(opts, || fleet_json(&outcome, ci));
    finish_batch(&pool, json, outcome.errors)
}

/// Dispatches the `cache` command: `stats`, `gc --max-bytes N` and
/// `clear`, all against `--cache-dir` (default `.abdex-cache/`).
fn cmd_cache(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err(
            "cache needs a subcommand: `stats`, `gc --max-bytes <N>` or `clear`".to_owned(),
        );
    };
    let opts = parse_opts(rest)?;
    let open = |opts: &Opts| -> Result<abdex::Cache, String> {
        let dir = opts
            .get("cache-dir")
            .map(String::as_str)
            .unwrap_or(abdex::ccache::DEFAULT_DIR);
        abdex::Cache::open(dir)
    };
    match sub.as_str() {
        "stats" => {
            check_opts(&opts, &["cache-dir"])?;
            let cache = open(&opts)?;
            let stats = cache.stats();
            println!("cache dir : {}", cache.root().display());
            println!("epoch     : {}", cache.epoch());
            println!("entries   : {}", stats.entries);
            println!("bytes     : {}", stats.bytes);
            println!("lifetime  : {}", cache.persisted_counters());
            Ok(())
        }
        "gc" => {
            check_opts(&opts, &["cache-dir", "max-bytes"])?;
            if !opts.contains_key("max-bytes") {
                return Err("cache gc needs --max-bytes <N>".to_owned());
            }
            let max_bytes: u64 = number(&opts, "max-bytes", 0)?;
            let cache = open(&opts)?;
            let removed = cache.gc(max_bytes);
            let left = cache.stats();
            println!(
                "evicted {} entries ({} bytes); {} entries ({} bytes) remain",
                removed.entries, removed.bytes, left.entries, left.bytes
            );
            Ok(())
        }
        "clear" => {
            check_opts(&opts, &["cache-dir"])?;
            let cache = open(&opts)?;
            let removed = cache.clear();
            println!("removed {removed} entries");
            Ok(())
        }
        other => Err(format!(
            "unknown cache subcommand '{other}' (expected `stats`, `gc` or `clear`)"
        )),
    }
}

/// Dispatches the `obs` command: `summarize <record.jsonl>`.
fn cmd_obs(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("obs needs a subcommand: `summarize <record.jsonl>`".to_owned());
    };
    match sub.as_str() {
        "summarize" => {
            let Some((path, flags)) = rest.split_first() else {
                return Err(
                    "obs summarize needs a recording: `abdex obs summarize <record.jsonl> \
                     [--json FILE|-] [--jobs N]`"
                        .to_owned(),
                );
            };
            if path.starts_with("--") {
                return Err(format!(
                    "obs summarize takes the record file first, found flag '{path}'"
                ));
            }
            let opts = parse_opts(flags)?;
            check_opts(&opts, &["json", "jobs", "progress"])?;
            cmd_obs_summarize(path, &opts)
        }
        other => Err(format!(
            "unknown obs subcommand '{other}' (expected `summarize`)"
        )),
    }
}

/// `obs summarize`: fold a `--record` JSONL export back into
/// per-channel statistics (table and/or `obs_summary` JSON document).
fn cmd_obs_summarize(path: &str, opts: &Opts) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let pool = runner(opts)?;
    let summary =
        abdex::summarize::summarize_record(&text, &pool).map_err(|e| format!("{path}: {e}"))?;
    emit(opts, abdex::summarize::render_summary(&summary).trim_end());
    write_json(opts, || abdex::summarize::render_summary_json(&summary))
}

fn cmd_fleet_dispatchers() {
    let registry = DispatchRegistry::builtin();
    println!("registered dispatchers (spec grammar: name[:key=val,...]):\n");
    for info in registry.infos() {
        let aliases = if info.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", info.aliases.join(", "))
        };
        println!("{:<14} {}{}", info.name, info.summary, aliases);
        for p in info.params {
            println!("    {:<12} [{}] {}", p.key, p.default, p.help);
        }
        println!();
    }
}

fn cmd_fleet_policies() {
    let registry = FleetPolicyRegistry::builtin();
    println!("registered fleet policies (spec grammar: name[:key=val,...]):\n");
    for info in registry.infos() {
        let aliases = if info.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", info.aliases.join(", "))
        };
        println!("{:<14} {}{}", info.name, info.summary, aliases);
        for p in info.params {
            println!("    {:<12} [{}] {}", p.key, p.default, p.help);
        }
        println!();
    }
}

fn cmd_policies() -> Result<(), String> {
    let registry = PolicyRegistry::builtin();
    println!("registered DVS policies (spec grammar: name[:key=val,...]):\n");
    for info in registry.infos() {
        let aliases = if info.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", info.aliases.join(", "))
        };
        println!(
            "{:<14} {:<6} {}{}",
            info.name,
            info.kind.to_string(),
            info.summary,
            aliases
        );
        for p in info.params {
            println!("    {:<12} [{}] {}", p.key, p.default, p.help);
        }
        println!();
    }
    Ok(())
}

fn cmd_traffics() -> Result<(), String> {
    let registry = TrafficRegistry::builtin();
    println!("registered traffic models (spec grammar: name[:key=val,...]):\n");
    for info in registry.infos() {
        let aliases = if info.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", info.aliases.join(", "))
        };
        println!("{:<14} {}{}", info.name, info.summary, aliases);
        for p in info.params {
            println!("    {:<12} [{}] {}", p.key, p.default, p.help);
        }
        println!();
    }
    Ok(())
}

/// `trace` grew positional subcommands (`generate`, `analyze`) around
/// the original flag-only LOC-event form; a leading flag (or nothing)
/// keeps the legacy behaviour byte-for-byte.
fn cmd_trace_dispatch(rest: &[String]) -> Result<(), String> {
    match rest.first().map(String::as_str) {
        Some("generate") => {
            // `-o` is the conventional shorthand for `--out`.
            let args: Vec<String> = rest[1..]
                .iter()
                .map(|a| {
                    if a == "-o" {
                        "--out".to_owned()
                    } else {
                        a.clone()
                    }
                })
                .collect();
            let opts = parse_opts(&args)?;
            check_opts(&opts, &["traffic", "cycles", "seed", "out"])?;
            cmd_trace_generate(&opts)
        }
        Some("analyze") => {
            let Some((path, flags)) = rest[1..].split_first() else {
                return Err(
                    "trace analyze needs a trace file: `abdex trace analyze <file> \
                     [--json FILE|-] [--jobs N]`"
                        .to_owned(),
                );
            };
            if path.starts_with("--") {
                return Err(format!(
                    "trace analyze takes the trace file first, found flag '{path}'"
                ));
            }
            let opts = parse_opts(flags)?;
            check_opts(&opts, &["json", "jobs", "progress"])?;
            cmd_trace_analyze(path, &opts)
        }
        None => cmd_trace(&Opts::new()),
        Some(flag) if flag.starts_with("--") => {
            let opts = parse_opts(rest)?;
            check_opts(&opts, &["benchmark", "traffic", "cycles", "seed", "out"])?;
            cmd_trace(&opts)
        }
        Some(other) => Err(format!(
            "unknown trace subcommand '{other}' (expected `generate`, `analyze`, \
             or the legacy flag form `abdex trace --benchmark ...`)"
        )),
    }
}

/// `trace generate`: materialise a traffic spec into a replayable
/// recorded-trace file.
fn cmd_trace_generate(opts: &Opts) -> Result<(), String> {
    let spec = traffic(opts)?;
    let cycles = cycles(opts, 1_000_000)?;
    let seed: u64 = number(opts, "seed", 42)?;
    let (trace, text) = generate_trace(&spec, cycles, seed)?;
    match opts.get("out") {
        Some(path) => {
            write_atomic(path, text.as_bytes()).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "recorded {} packets of `{}` (seed {seed}, {cycles} cycles) to {path}",
                trace.len(),
                spec.spec_string()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `trace analyze`: characterise a recorded trace file (table and/or
/// `trace_analysis` JSON document).
fn cmd_trace_analyze(path: &str, opts: &Opts) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = RecordedTrace::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
    let runner = runner(opts)?;
    let analysis =
        analyze_trace(&trace, &runner).with_provenance(abdex::traceio::parse_provenance(&text));
    emit(opts, &render_trace_analysis(path, &analysis));
    write_json(opts, || trace_analysis_json(path, &analysis))
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let config = NpuConfig::builder()
        .benchmark(benchmark(opts)?)
        .seed(number(opts, "seed", 42)?)
        .traffic(traffic(opts)?)
        .trace(TraceConfig {
            emit_fifo: true,
            emit_pipeline: false,
        })
        .build();
    let cycles = cycles(opts, 1_000_000)?;
    let mut sim = Simulator::new(config);
    let _ = sim.run_cycles(cycles);
    let text = sim.into_trace().to_text();
    match opts.get("out") {
        Some(path) => {
            write_atomic(path, text.as_bytes()).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {} bytes to {path}", text.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn load_trace(opts: &Opts) -> Result<Trace, String> {
    let path = opts
        .get("trace")
        .ok_or_else(|| "--trace <file> is required".to_owned())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Trace::from_text(&text)
}

fn formula(opts: &Opts) -> Result<loc::Formula, String> {
    let text = opts
        .get("formula")
        .ok_or_else(|| "--formula <text> is required".to_owned())?;
    parse(text).map_err(|e| e.to_string())
}

fn cmd_check(opts: &Opts) -> Result<(), String> {
    let formula = formula(opts)?;
    let trace = load_trace(opts)?;
    let report = Checker::from_formula(&formula)
        .map_err(|e| e.to_string())?
        .check(&trace);
    println!("formula    : {formula}");
    println!("instances  : {}", report.instances);
    println!("violations : {}", report.violation_count);
    if report.passed() {
        println!("PASS");
        Ok(())
    } else {
        for v in report.violations.iter().take(10) {
            println!("  violated at i = {}", v.index);
        }
        Err("assertion violated".to_owned())
    }
}

fn cmd_analyze(opts: &Opts) -> Result<(), String> {
    let formula = formula(opts)?;
    let trace = load_trace(opts)?;
    let report = Analyzer::from_formula(&formula)
        .map_err(|e| e.to_string())?
        .analyze(&trace);
    println!("formula   : {formula}");
    println!("instances : {}", report.total_instances());
    print!("{}", report.to_table());
    Ok(())
}

fn cmd_codegen(opts: &Opts) -> Result<(), String> {
    let formula = formula(opts)?;
    let source = loc::codegen::generate(&formula).map_err(|e| e.to_string())?;
    print!("{source}");
    Ok(())
}
