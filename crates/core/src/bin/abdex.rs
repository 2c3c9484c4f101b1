//! `abdex` — command-line front end for the design-exploration library.
//!
//! Two const tables declare the whole command line. [`COMMANDS`] has one
//! row per command path: its operand, the flags it accepts and its
//! handler. [`FLAGS`] has one entry per flag: its value placeholder (or
//! none, for a switch) and its help text. [`dispatch`] matches the row,
//! takes the operand and parses the flags once; a flag outside the row,
//! a flag given twice, a missing value and a stray positional are
//! errors. `abdex help` renders both tables, so adding a flag to a
//! command is a table edit. Rules that depend on values stay in the
//! handlers: `--ci` needs `--seeds >= 2`, the legacy `--threshold` and
//! `--window` need a bare `tdvs`/`edvs` policy, a sweep takes one axis,
//! and `--cache` contradicts `--no-cache`. Stdout goes through one
//! writer, which stops writing, without a panic, once the reader closes
//! the pipe.
//!
//! ```text
//! abdex run       --benchmark ipfwdr --traffic high --policy queue:high=0.8 --cycles 2000000
//! abdex run       --traffic "schedule:segments=[low@0..2e6; flash@2e6..4e6; low@4e6..]"
//! abdex replicate --policy tdvs:threshold=1400 --seeds 16 --ci 99 --jobs 4
//! abdex sweep     --policies "nodvs;tdvs:threshold=1400;proportional:kp=6" --seeds 4
//! abdex compare   --traffics "low;high;flash" --json results.json
//! abdex scenario  run diurnal-day --json - | jq .
//! abdex fleet     run --chips 8 --dispatch least-loaded --fleet-policy cap-realloc:budget=8
//! abdex trace     generate --traffic "stochastic:gap=pareto:alpha=1.3" -o t.trace
//! abdex check     --formula "energy(forward[i+1]) - energy(forward[i]) >= 0" --trace FILE
//! ```
//!
//! `--policy`, `--traffic`, `--dispatch` and `--fleet-policy` take the
//! spec grammar `name[:key=val,...]` ([`PolicySpec::parse`],
//! [`TrafficSpec::parse`]); the listing commands show every registered
//! name with its keys. Batches run on the [`xrun`] thread pool, and every
//! table, `--json` document and `--record` export is byte-identical for
//! any `--jobs` value and for a cold or warm `--cache`. `--seeds K`
//! replicates every cell over `derive_seed(seed, i)` streams and reports
//! Student-t intervals at the `--ci` level. `--profile`,
//! `--profile-summary` and the cache tallies write only to stderr or
//! their file, so stdout stays byte-identical to a plain invocation.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use abdex::ccache::write_atomic;
use abdex::compare::ComparisonConfig;
use abdex::fleet::{run_fleet, FleetConfig, Params, Registry, DISPATCHERS, FLEET_POLICIES};
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
    Experiment, Grid, JobError, PolicySpec, ProgressMode, Runner, TdvsGrid, TrafficSpec,
    PAPER_RUN_CYCLES, POLICIES, TRAFFIC_MODELS,
};
use loc::{parse, Analyzer, Checker, Trace};

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// A flag of the flag table: its name without the leading `--`, the
/// placeholder of its value (`None` for a switch), its help text, and
/// whether every command accepts it.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
    everywhere: bool,
}

const fn flag(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        help,
        everywhere: false,
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        help,
        everywhere: false,
    }
}

impl Flag {
    const fn everywhere(self) -> Flag {
        Flag {
            everywhere: true,
            ..self
        }
    }
}

/// Every flag of every command. Each row of [`COMMANDS`] names the flags
/// it accepts; `help` lists each flag's commands from those rows.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("benchmark", "<ipfwdr|url|nat|md4>", "benchmark application [ipfwdr]"),
    flag("traffic", "<spec>", "traffic-model spec [high]; grammar name[:key=val,...], e.g. \
        burst:on_mbps=1800,off_mbps=120 (low|medium|high are the paper's levels; see \
        `abdex traffics` for names and keys)"),
    flag("traffics", "<spec;spec;...>", "traffic-spec sweep list"),
    flag("policy", "<spec>", "DVS policy spec [nodvs]; grammar name[:key=val,...], e.g. \
        tdvs:threshold=1400,window=40000 (see `abdex policies` for names and keys); in \
        sweep it fixes the policy of a --traffics sweep"),
    flag("policies", "<spec;spec;...>", "policy-spec sweep list"),
    flag("chips", "<N>", "fleet size [8]"),
    flag("dispatch", "<spec>", "dispatcher sharding the aggregate stream [round-robin], \
        e.g. least-loaded:flows=512 (see `abdex fleet dispatchers`)"),
    flag("fleet-policy", "<spec>", "fleet-wide power policy [none], e.g. \
        cap-realloc:budget=8 (see `abdex fleet policies`)"),
    flag("threshold", "<Mbps>", "legacy: TDVS top threshold, only with bare --policy tdvs \
        [1000]"),
    flag("window", "<cycles>", "legacy: monitor window, only with bare --policy tdvs|edvs \
        [40000]"),
    flag("cycles", "<N>", "cycles per configuration [8000000; fleet run and trace: \
        1000000; scenario run: the scenario's own]"),
    flag("seed", "<N>", "experiment seed [42]"),
    flag("seeds", "<K>", "replicates per cell over derived seeds; metrics become mean ± \
        CI [1; replicate: 8]"),
    flag("ci", "<90|95|99>", "confidence level of the reported intervals (needs --seeds \
        >= 2) [95]"),
    flag("jobs", "<N>", "parallel workers, 0 = one per CPU; output is byte-identical for \
        any value [0]"),
    flag("progress", "<quiet|dot|line>", "batch progress on stderr [quiet]"),
    flag("json", "<file|->", "also write results as JSON; `-` writes the document to \
        stdout and moves the human tables to stderr"),
    switch("cache", "reuse cached results and cache fresh ones; warm runs skip \
        simulation with byte-identical stdout; tallies go to stderr"),
    switch("no-cache", "force caching off"),
    flag("cache-dir", "<dir>", "cache directory [.abdex-cache]; implies --cache"),
    flag("max-bytes", "<N>", "evict the oldest entries until the store fits in N bytes"),
    flag("record", "<file>", "also write the recorded per-window timeseries as JSONL; \
        byte-identical for any --jobs value"),
    flag("profile", "<file>", "write a Chrome Trace Event JSON of this invocation's \
        phases (open in Perfetto or chrome://tracing); stdout stays byte-identical to an \
        unprofiled run").everywhere(),
    switch("profile-summary", "print the telemetry report on stderr: per-phase wall \
        time (count/total/self/mean), per-thread busy time and utilisation, and the \
        counters (cache lookups, kernel events, simulated cycles)").everywhere(),
    flag("formula", "<text>", "LOC formula"),
    flag("trace", "<file>", "trace file in NePSim text format"),
    flag("out", "<file>", "output path (-o for short) [stdout]"),
];

/// A row of the command table: its path of words, its positional
/// operand, the flags it accepts besides the global ones (names from
/// [`FLAGS`], space-separated), a one-line summary and its handler.
struct Command {
    path: &'static str,
    operand: Option<&'static str>,
    flags: &'static str,
    about: &'static str,
    run: fn(&Opts) -> Result<(), String>,
}

impl Command {
    fn accepts(&self, flag: &Flag) -> bool {
        flag.everywhere || self.flags.split_whitespace().any(|name| name == flag.name)
    }
}

/// Every command `abdex` runs: [`dispatch`] routes by the path, parses
/// the row's operand and flags, and calls its handler; `help` renders
/// this table and [`FLAGS`].
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { path: "run", operand: None, run: cmd_run,
        flags: "benchmark traffic policy threshold window cycles seed seeds ci json record \
            cache no-cache cache-dir",
        about: "one experiment: --benchmark under --traffic and --policy; --seeds K \
            replicates it serially" },
    Command { path: "replicate", operand: None, run: cmd_replicate,
        flags: "benchmark traffic policy cycles seed seeds ci jobs progress json record \
            cache no-cache cache-dir",
        about: "one cell over --seeds replicates with per-metric confidence intervals" },
    Command { path: "sweep", operand: None, run: cmd_sweep,
        flags: "benchmark traffic traffics policy policies cycles seed seeds ci jobs \
            progress json cache no-cache cache-dir",
        about: "the paper's TDVS threshold x window grid with its power and throughput \
            surfaces and both optima, or a --policies or --traffics sweep" },
    Command { path: "compare", operand: None, run: cmd_compare,
        flags: "traffics cycles seed seeds ci jobs progress json cache no-cache cache-dir",
        about: "every policy on every benchmark at each traffic level (Fig. 11)" },
    Command { path: "scenario run", operand: Some("<name|file.toml>"), run: cmd_scenario_run,
        flags: "cycles seed seeds ci jobs progress json record cache no-cache cache-dir",
        about: "run a time-varying composite scenario, with per-segment metric breakdowns" },
    Command { path: "scenario list", operand: None, run: cmd_scenario_list, flags: "",
        about: "list the built-in scenario library" },
    Command { path: "fleet run", operand: None, run: cmd_fleet_run,
        flags: "chips dispatch fleet-policy benchmark traffic policy cycles seed seeds ci \
            jobs progress json record cache no-cache cache-dir",
        about: "simulate --chips NPUs behind a load balancer: --dispatch shards the \
            aggregate --traffic stream, each chip runs --policy, and --fleet-policy caps \
            chip power from a fleet watt budget" },
    Command { path: "fleet dispatchers", operand: None, flags: "",
        run: |_| cmd_list("dispatchers", &DISPATCHERS, None),
        about: "list the registered dispatchers" },
    Command { path: "fleet policies", operand: None, flags: "",
        run: |_| cmd_list("fleet policies", &FLEET_POLICIES, None),
        about: "list the registered fleet policies" },
    Command { path: "cache stats", operand: None, run: cmd_cache_stats, flags: "cache-dir",
        about: "entry count, bytes and lifetime hit/miss/store tallies of the store" },
    Command { path: "cache gc", operand: None, run: cmd_cache_gc, flags: "cache-dir max-bytes",
        about: "evict the oldest entries until the store fits in --max-bytes" },
    Command { path: "cache clear", operand: None, run: cmd_cache_clear, flags: "cache-dir",
        about: "remove every cache entry" },
    Command { path: "obs summarize", operand: Some("<record.jsonl>"), run: cmd_obs_summarize,
        flags: "json jobs progress",
        about: "per-channel n/min/mean/max and sketch p50/p95/p99 of a --record export" },
    Command { path: "policies", operand: None, flags: "",
        run: |_| cmd_list("DVS policies", &POLICIES, Some(|s: &PolicySpec| s.kind().to_string())),
        about: "list the registered DVS policies and their parameters" },
    Command { path: "traffics", operand: None, flags: "",
        run: |_| cmd_list("traffic models", &TRAFFIC_MODELS, None),
        about: "list the registered traffic models and their parameters" },
    Command { path: "trace generate", operand: None, run: cmd_trace_generate,
        flags: "traffic cycles seed out",
        about: "record --traffic's packet stream as a replayable trace file; replay it \
            with --traffic trace:file=FILE" },
    Command { path: "trace analyze", operand: Some("<file>"), run: cmd_trace_analyze,
        flags: "json jobs progress",
        about: "inter-arrival and size statistics and a Hurst-style burstiness proxy of a \
            recorded trace" },
    Command { path: "trace", operand: None, run: cmd_trace,
        flags: "benchmark traffic cycles seed out",
        about: "legacy: the LOC-event trace of one run" },
    Command { path: "check", operand: None, run: cmd_check, flags: "formula trace",
        about: "check a LOC assertion over a trace file; exit 1 when it is violated" },
    Command { path: "analyze", operand: None, run: cmd_analyze, flags: "formula trace",
        about: "the distribution of a LOC formula's values over a trace file" },
    Command { path: "codegen", operand: None, run: cmd_codegen, flags: "formula",
        about: "Rust source of a standalone checker for a LOC formula" },
    Command { path: "help", operand: None, run: |_| { out!("{}", usage()); Ok(()) }, flags: "",
        about: "print this help (also --help, -h)" },
];

/// Set once stdout's reader has gone away; see [`write_stdout`].
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout for [`out!`] and [`outln!`]. Unlike `print!`, which
/// panics when the reader has closed the pipe (`abdex policies | head
/// -1`), this drops the write and every later one, so the invocation
/// still ends with the exit status its work earned.
fn write_stdout(args: std::fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => STDOUT_CLOSED.store(true, Ordering::Relaxed),
        result => result.unwrap_or_else(|e| panic!("failed printing to stdout: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Arm the profiler before any work so the `parse` span and every
    // later phase land in the trace. The raw-args scan (rather than the
    // command's parsed flags) is deliberate: the flags are global, and
    // the export must happen even when a command fails early.
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

/// Routes `args` to its row of [`COMMANDS`], parses the row's operand
/// and flags, and runs its handler. Without arguments it prints the
/// help on stderr and fails.
fn dispatch(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        eprint!("{}", usage());
        return Err(String::new());
    }
    let (command, rest) = find_command(args)?;
    let opts = parse_opts(command, rest)?;
    (command.run)(&opts)
}

/// Finds the row `args` names and returns it with the arguments after
/// its path. A word after a command group names a subcommand; a group
/// with a row of its own (the legacy `trace`) runs that row when a flag
/// or nothing follows.
fn find_command(args: &[String]) -> Result<(&'static Command, &[String]), String> {
    let group = match args[0].as_str() {
        "--help" | "-h" => "help",
        word => word,
    };
    let mut bare = None;
    let mut subs = Vec::new();
    for command in COMMANDS {
        match command.path.split_once(' ') {
            None if command.path == group => bare = Some(command),
            Some((head, sub)) if head == group => subs.push((sub, command)),
            _ => {}
        }
    }
    let expected = || {
        let names: Vec<String> = subs.iter().map(|(sub, _)| format!("`{sub}`")).collect();
        match names.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
            _ => names.concat(),
        }
    };
    match args.get(1) {
        Some(word) if !subs.is_empty() && !word.starts_with('-') => {
            match subs.iter().find(|(sub, _)| sub == word) {
                Some((_, command)) => Ok((command, &args[2..])),
                None => Err(format!(
                    "unknown {group} subcommand '{word}' (expected {})",
                    expected()
                )),
            }
        }
        _ => match bare {
            Some(command) => Ok((command, &args[1..])),
            None if subs.is_empty() => Err(format!("unknown command '{group}'")),
            None => Err(format!("{group} needs a subcommand: {}", expected())),
        },
    }
}

/// One invocation's parsed arguments: the row's operand (empty when it
/// takes none) and the flags given, by name (a switch maps to "").
struct Opts {
    operand: String,
    flags: HashMap<&'static str, String>,
}

impl Opts {
    fn get(&self, name: &str) -> Option<&String> {
        self.flags.get(name)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

/// Parses the arguments after a command's path: its operand first, then
/// flags from its row (`-o` is short for `--out`). A flag outside the
/// row, a flag given twice, a missing value and a stray positional are
/// errors.
fn parse_opts(command: &Command, args: &[String]) -> Result<Opts, String> {
    let _prof = abdex::obs::prof::span("parse");
    let (operand, args) = match (command.operand, args.split_first()) {
        (None, _) => (String::new(), args),
        (Some(operand), None) => {
            return Err(format!(
                "{} needs {operand}: `abdex {} {operand} [OPTIONS]`",
                command.path, command.path
            ))
        }
        (Some(operand), Some((first, _))) if first.starts_with("--") => {
            return Err(format!(
                "{} takes {operand} first, found flag '{first}'",
                command.path
            ))
        }
        (Some(_), Some((first, rest))) => (first.clone(), rest),
    };
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = match arg.as_str() {
            "-o" => "out",
            arg => arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, found '{arg}'"))?,
        };
        let Some(flag) = FLAGS
            .iter()
            .find(|flag| flag.name == name && command.accepts(flag))
        else {
            return Err(format!(
                "--{name} is not an option of this command (see `abdex help`)"
            ));
        };
        let value = match flag.value {
            None => String::new(),
            Some(_) => it
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone(),
        };
        if flags.insert(flag.name, value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(Opts { operand, flags })
}

/// The column where help text starts, and the width it wraps at.
const HELP_INDENT: usize = 39;
const HELP_WIDTH: usize = 79;

/// Renders `abdex help` from the two tables: every command with its
/// operand and summary, then every flag with its value, its help and
/// the commands that accept it.
fn usage() -> String {
    let mut text = String::from(
        "abdex — assertion-based design exploration of DVS in NPU architectures\n\n\
         USAGE:\n    abdex <command> [OPTIONS]\n\nCOMMANDS:\n",
    );
    for command in COMMANDS {
        let head = match command.operand {
            Some(operand) => format!("{} {operand}", command.path),
            None => command.path.to_owned(),
        };
        help_entry(&mut text, &head, command.about.split_whitespace());
    }
    text.push_str("\nOPTIONS:\n");
    for flag in FLAGS {
        let head = match flag.value {
            Some(value) => format!("--{:<9} {value}", flag.name),
            None => format!("--{}", flag.name),
        };
        help_entry(&mut text, &head, flag.help.split_whitespace());
        let users: Vec<&str> = if flag.everywhere {
            vec!["every command"]
        } else {
            COMMANDS
                .iter()
                .filter(|command| command.accepts(flag))
                .map(|command| command.path)
                .collect()
        };
        // Wrapped after the commas only, so no path breaks across lines.
        let users = format!("({})", users.join(", "));
        help_entry(
            &mut text,
            "",
            users.split_inclusive(", ").map(str::trim_end),
        );
    }
    text
}

/// Appends one help entry: `head` in the left column, then `chunks`
/// joined by spaces and wrapped into the right one.
fn help_entry<'a>(text: &mut String, head: &str, chunks: impl IntoIterator<Item = &'a str>) {
    let mut line = format!("    {head}");
    let mut empty = true;
    for chunk in chunks {
        let width = line.chars().count();
        if empty && width < HELP_INDENT {
            line.push_str(&" ".repeat(HELP_INDENT - width));
        } else if empty || width + 1 + chunk.chars().count() > HELP_WIDTH {
            text.push_str(&line);
            text.push('\n');
            line = " ".repeat(HELP_INDENT);
        } else {
            line.push(' ');
        }
        line.push_str(chunk);
        empty = false;
    }
    text.push_str(&line);
    text.push('\n');
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
        .find(|f| opts.has(f) && !consumed.contains(f))
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
    if opts.has("cache") && opts.has("no-cache") {
        return Err("--cache and --no-cache contradict each other".to_owned());
    }
    if opts.has("no-cache") || !(opts.has("cache") || opts.has("cache-dir")) {
        return Ok(None);
    }
    open_cache(opts).map(Some)
}

/// Opens the result store at `--cache-dir` (default `.abdex-cache/`).
fn open_cache(opts: &Opts) -> Result<abdex::Cache, String> {
    let dir = opts
        .get("cache-dir")
        .map(String::as_str)
        .unwrap_or(abdex::ccache::DEFAULT_DIR);
    abdex::Cache::open(dir)
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
        outln!("{text}");
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
            outln!("{}", render());
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
    let (r, series) = if opts.has("record") {
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
    let (replicated, series) = if opts.has("record") {
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
    if opts.has("policy") && traffics.is_none() {
        return Err(
            "--policy only applies with --traffics; use --policies for a policy sweep".to_owned(),
        );
    }
    if opts.has("traffic") && traffics.is_some() {
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

fn cmd_scenario_run(opts: &Opts) -> Result<(), String> {
    let plan = abdex::obs::prof::span("plan");
    let mut scenario = resolve_scenario(&opts.operand)?;
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
    let (run, errors) = if opts.has("record") {
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

fn cmd_scenario_list(_: &Opts) -> Result<(), String> {
    outln!("built-in scenarios (run with `abdex scenario run <name>`):\n");
    for s in scenario::builtin_scenarios() {
        outln!("{:<12} {}", s.name, s.summary);
        outln!(
            "    {} on {}, {} policies, {} cycles, {} seed(s)",
            s.traffic.name(),
            s.benchmark,
            s.policies.len(),
            s.cycles,
            s.seeds
        );
        outln!("    traffic  {}", s.traffic.spec_string());
        let policies: Vec<String> = s.policies.iter().map(PolicySpec::spec_string).collect();
        outln!("    policies {}\n", policies.join(";"));
    }
    outln!(
        "a TOML file works too (`abdex scenario run my.toml`); its fields are\n\
         name/summary/benchmark/traffic/policies/cycles/seed/seeds — the same\n\
         shape `scenario::Scenario::to_toml_string` renders."
    );
    Ok(())
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

fn cmd_cache_stats(opts: &Opts) -> Result<(), String> {
    let cache = open_cache(opts)?;
    let stats = cache.stats();
    outln!("cache dir : {}", cache.root().display());
    outln!("epoch     : {}", cache.epoch());
    outln!("entries   : {}", stats.entries);
    outln!("bytes     : {}", stats.bytes);
    outln!("lifetime  : {}", cache.persisted_counters());
    Ok(())
}

fn cmd_cache_gc(opts: &Opts) -> Result<(), String> {
    if !opts.has("max-bytes") {
        return Err("cache gc needs --max-bytes <N>".to_owned());
    }
    let max_bytes: u64 = number(opts, "max-bytes", 0)?;
    let cache = open_cache(opts)?;
    let removed = cache.gc(max_bytes);
    let left = cache.stats();
    outln!(
        "evicted {} entries ({} bytes); {} entries ({} bytes) remain",
        removed.entries,
        removed.bytes,
        left.entries,
        left.bytes
    );
    Ok(())
}

fn cmd_cache_clear(opts: &Opts) -> Result<(), String> {
    let removed = open_cache(opts)?.clear();
    outln!("removed {removed} entries");
    Ok(())
}

/// `obs summarize`: fold a `--record` JSONL export back into
/// per-channel statistics (table and/or `obs_summary` JSON document).
fn cmd_obs_summarize(opts: &Opts) -> Result<(), String> {
    let path = &opts.operand;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let pool = runner(opts)?;
    let summary =
        abdex::summarize::summarize_record(&text, &pool).map_err(|e| format!("{path}: {e}"))?;
    emit(opts, abdex::summarize::render_summary(&summary).trim_end());
    write_json(opts, || abdex::summarize::render_summary_json(&summary))
}

/// Lists a spec registry: each entry's name, summary and aliases, then
/// its accepted keys. With `kind`, a column after the name shows `kind`
/// of the entry's default spec (`abdex policies` shows each policy's
/// family there).
fn cmd_list<S>(
    title: &str,
    registry: &Registry<S>,
    kind: Option<fn(&S) -> String>,
) -> Result<(), String> {
    outln!("registered {title} (spec grammar: name[:key=val,...]):\n");
    for entry in registry.entries() {
        let kind = match kind {
            Some(kind) => {
                let spec = (entry.build)(Params::default()).map_err(|e| e.to_string())?;
                format!("{:<6} ", kind(&spec))
            }
            None => String::new(),
        };
        let aliases = if entry.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", entry.aliases.join(", "))
        };
        outln!("{:<14} {kind}{}{aliases}", entry.name, entry.summary);
        for p in entry.params {
            outln!("    {:<12} [{}] {}", p.key, p.default, p.help);
        }
        outln!();
    }
    Ok(())
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
            outln!(
                "recorded {} packets of `{}` (seed {seed}, {cycles} cycles) to {path}",
                trace.len(),
                spec.spec_string()
            );
        }
        None => out!("{text}"),
    }
    Ok(())
}

/// `trace analyze`: characterise a recorded trace file (table and/or
/// `trace_analysis` JSON document).
fn cmd_trace_analyze(opts: &Opts) -> Result<(), String> {
    let path = &opts.operand;
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
            outln!("wrote {} bytes to {path}", text.len());
        }
        None => out!("{text}"),
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
    outln!("formula    : {formula}");
    outln!("instances  : {}", report.instances);
    outln!("violations : {}", report.violation_count);
    if report.passed() {
        outln!("PASS");
        Ok(())
    } else {
        for v in report.violations.iter().take(10) {
            outln!("  violated at i = {}", v.index);
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
    outln!("formula   : {formula}");
    outln!("instances : {}", report.total_instances());
    out!("{}", report.to_table());
    Ok(())
}

fn cmd_codegen(opts: &Opts) -> Result<(), String> {
    let formula = formula(opts)?;
    let source = loc::codegen::generate(&formula).map_err(|e| e.to_string())?;
    out!("{source}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn every_row_flag_is_declared_and_every_flag_is_used() {
        for command in COMMANDS {
            for name in command.flags.split_whitespace() {
                assert!(
                    FLAGS.iter().any(|flag| flag.name == name),
                    "`{}` names the undeclared flag --{name}",
                    command.path
                );
            }
        }
        for flag in FLAGS {
            assert!(
                flag.everywhere || COMMANDS.iter().any(|command| command.accepts(flag)),
                "no command accepts --{}",
                flag.name
            );
        }
    }

    #[test]
    fn every_path_is_unique_and_routes_to_its_row() {
        for (i, command) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[..i].iter().all(|other| other.path != command.path),
                "two rows share the path `{}`",
                command.path
            );
            let words = args(&command.path.split(' ').collect::<Vec<_>>());
            let (found, rest) = find_command(&words).expect("a row's path routes");
            assert_eq!(found.path, command.path);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn a_flag_outside_the_row_is_rejected() {
        for command in COMMANDS {
            for flag in FLAGS.iter().filter(|flag| !command.accepts(flag)) {
                let mut words = Vec::new();
                if command.operand.is_some() {
                    words.push("operand");
                }
                let name = format!("--{}", flag.name);
                words.extend([name.as_str(), "1"]);
                let Err(e) = parse_opts(command, &args(&words)) else {
                    panic!("`{}` accepted {name}", command.path);
                };
                assert_eq!(
                    e,
                    format!("{name} is not an option of this command (see `abdex help`)")
                );
            }
        }
    }

    #[test]
    fn help_lists_every_command_and_flag() {
        let text = usage();
        for command in COMMANDS {
            assert!(
                text.contains(&format!("    {}", command.path)),
                "{}",
                command.path
            );
        }
        for flag in FLAGS {
            assert!(
                text.contains(&format!("    --{}", flag.name)),
                "--{}",
                flag.name
            );
        }
        assert!(text.lines().all(|line| line.chars().count() <= HELP_WIDTH));
    }
}
