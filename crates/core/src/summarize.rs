//! The `--record` loop closer behind `abdex obs summarize`: re-reads a
//! `--record` JSONL export and reports per-channel sample statistics.
//!
//! A recording is cheap to produce but raw — one line per sample. This
//! module folds it back into a compact per-channel summary
//! (n/min/mean/max plus log2-sketch p50/p95/p99 via
//! [`obs::HistogramSketch`]), the same shape `trace analyze` gives a
//! packet trace.
//!
//! The fold is chunked over **fixed line-count boundaries** and the
//! partials are merged in chunk order, exactly like
//! [`crate::traceio::analyze_trace`]: chunk geometry depends only on
//! the document, never on the worker count, so the summary — and the
//! `obs_summary` JSON document — is bit-identical for any `--jobs`
//! value.

use obs::HistogramSketch;
use xrun::{Job, Runner};

use crate::json::{array, header, Obj};

/// Sample lines per fold chunk. Fixed — see the module docs.
const SUMMARIZE_CHUNK: usize = 65_536;

/// The most bytes of a sample line an error message quotes.
const EXCERPT_BYTES: usize = 80;

/// One channel's folded statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSummary {
    /// Channel name, in the recording header's order.
    pub channel: String,
    /// Recorded samples of this channel across every series.
    pub n: u64,
    /// Smallest sample (`None` when the channel has no samples).
    pub min: Option<f64>,
    /// Arithmetic mean.
    pub mean: Option<f64>,
    /// Largest sample.
    pub max: Option<f64>,
    /// Median from the log2 histogram sketch.
    pub p50: Option<f64>,
    /// 95th percentile.
    pub p95: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
}

/// The summary of one recording document.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSummary {
    /// The header's `source` (`run`, `sweep`, `scenario`, `fleet`,
    /// ...).
    pub source: String,
    /// The header's `schema_version` — the version the *producing*
    /// binary wrote, which may differ from this binary's.
    pub input_schema_version: u64,
    /// Series labels, in header order.
    pub series: Vec<String>,
    /// Total sample lines folded.
    pub samples: u64,
    /// Per-channel statistics, in the header's channel order.
    pub channels: Vec<ChannelSummary>,
}

/// One channel's mergeable partial. `sum` is an order-sensitive float
/// fold — the caller merges partials in chunk order so the total
/// reproduces the serial fold bit-for-bit; everything else merges
/// exactly in any order.
#[derive(Debug, Clone)]
struct ChannelFold {
    n: u64,
    min: f64,
    max: f64,
    sum: f64,
    sketch: HistogramSketch,
}

impl ChannelFold {
    fn new() -> Self {
        ChannelFold {
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            sketch: HistogramSketch::new(),
        }
    }

    fn push(&mut self, value: f64) {
        self.n += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        self.sketch.record(value);
    }

    fn merge(&mut self, other: &ChannelFold) {
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.sketch.merge(&other.sketch);
    }
}

/// At most [`EXCERPT_BYTES`] of `s`, cut on a char boundary, with `…`
/// appended when cut: an error quotes a line, never echoes it whole.
fn excerpt(s: &str) -> String {
    if s.len() <= EXCERPT_BYTES {
        return s.to_owned();
    }
    let mut end = EXCERPT_BYTES;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// The 1-based number of `line`, a line `str::lines` cut from `text`.
fn line_number(text: &str, line: &str) -> usize {
    let offset = line.as_ptr() as usize - text.as_ptr() as usize;
    text.as_bytes()[..offset]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Folds one chunk of sample lines (cut from `text`) against the
/// header's channel list. Strict: a line that is not a well-formed
/// sample of a known channel fails the whole summary — a recording is
/// machine-written, so damage should surface, not silently skew the
/// statistics. The error names the line by its number in `text`.
fn fold_chunk(text: &str, channels: &[String], lines: &[&str]) -> Result<Vec<ChannelFold>, String> {
    let mut folds: Vec<ChannelFold> = channels.iter().map(|_| ChannelFold::new()).collect();
    for line in lines {
        let fail = |what: String| format!("line {}: {what}", line_number(text, line));
        let sample = ccache::json::Value::parse(line)
            .ok_or_else(|| fail(format!("malformed sample line: {}", excerpt(line))))?;
        let channel = sample
            .str_of("channel")
            .ok_or_else(|| fail(format!("sample line without a channel: {}", excerpt(line))))?;
        let value = sample.f64_of("value").ok_or_else(|| {
            fail(format!(
                "sample line without a finite value: {}",
                excerpt(line)
            ))
        })?;
        let index = channels
            .iter()
            .position(|c| c == channel)
            .ok_or_else(|| fail(format!("sample of unknown channel {:?}", excerpt(channel))))?;
        folds[index].push(value);
    }
    Ok(folds)
}

/// Summarizes a `--record` JSONL document on the given runner.
///
/// Chunk boundaries are fixed and partials merge in chunk order, so
/// the result is bit-identical for any worker count.
///
/// # Errors
///
/// Returns a message when the header is missing or is not a `record`
/// document, or when any sample line is malformed.
pub fn summarize_record(text: &str, runner: &Runner) -> Result<RecordSummary, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty recording: no header line")?;
    let header = ccache::json::Value::parse(header_line)
        .ok_or("malformed recording header (not a JSON object)")?;
    if header.str_of("kind") != Some("record") {
        return Err(format!(
            "not a record document (kind {:?}; expected \"record\")",
            header.str_of("kind").unwrap_or("<missing>")
        ));
    }
    let source = header
        .str_of("source")
        .ok_or("recording header without a source")?
        .to_owned();
    let input_schema_version = header
        .u64_of("schema_version")
        .ok_or("recording header without a schema_version")?;
    let series: Vec<String> = header
        .arr_of("series")
        .ok_or("recording header without a series list")?
        .iter()
        .map(|v| v.as_str().map(str::to_owned))
        .collect::<Option<_>>()
        .ok_or("recording header with a non-string series label")?;
    let channels: Vec<String> = header
        .arr_of("channels")
        .ok_or("recording header without a channels list")?
        .iter()
        .map(|v| v.as_str().map(str::to_owned))
        .collect::<Option<_>>()
        .ok_or("recording header with a non-string channel name")?;

    let samples: Vec<&str> = lines.collect();
    let jobs: Vec<Job<'_, Result<Vec<ChannelFold>, String>>> = samples
        .chunks(SUMMARIZE_CHUNK)
        .enumerate()
        .map(|(i, chunk)| {
            let channels = &channels;
            Job::new(format!("chunk {i}"), move || {
                fold_chunk(text, channels, chunk)
            })
        })
        .collect();
    let mut results = runner.run(jobs);
    let _prof = obs::prof::span("fold");
    results.sort_by_key(|r| r.index);
    let mut totals: Vec<ChannelFold> = channels.iter().map(|_| ChannelFold::new()).collect();
    for result in results {
        let part = result.outcome.expect("summarize chunk panicked")?;
        for (total, partial) in totals.iter_mut().zip(&part) {
            total.merge(partial);
        }
    }
    Ok(RecordSummary {
        source,
        input_schema_version,
        series,
        samples: samples.len() as u64,
        channels: channels
            .into_iter()
            .zip(totals)
            .map(|(channel, fold)| ChannelSummary {
                channel,
                n: fold.n,
                min: (fold.n > 0).then_some(fold.min),
                mean: (fold.n > 0).then(|| fold.sum / fold.n as f64),
                max: (fold.n > 0).then_some(fold.max),
                p50: fold.sketch.p50(),
                p95: fold.sketch.p95(),
                p99: fold.sketch.p99(),
            })
            .collect(),
    })
}

fn cell(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |v| format!("{v:.4}"))
}

/// Renders the human-facing summary table.
#[must_use]
pub fn render_summary(summary: &RecordSummary) -> String {
    let mut out = format!(
        "record summary: source {}, {} series, {} sample(s)\n",
        summary.source,
        summary.series.len(),
        summary.samples
    );
    out.push_str(&format!(
        "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "channel", "n", "min", "mean", "max", "p50", "p95", "p99"
    ));
    for c in &summary.channels {
        out.push_str(&format!(
            "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            c.channel,
            c.n,
            cell(c.min),
            cell(c.mean),
            cell(c.max),
            cell(c.p50),
            cell(c.p95),
            cell(c.p99),
        ));
    }
    out
}

fn opt_num(obj: Obj, key: &str, value: Option<f64>) -> Obj {
    // `Obj::num` renders non-finite as null, which is exactly the
    // wire shape an absent statistic should have.
    obj.num(key, value.unwrap_or(f64::NAN))
}

/// Renders the `obs_summary` JSON document (one line, versioned under
/// [`crate::SCHEMA_VERSION`]). Pure function of the summary, so the document
/// is byte-identical for any worker count.
#[must_use]
pub fn render_summary_json(summary: &RecordSummary) -> String {
    let labels: Vec<String> = summary
        .series
        .iter()
        .map(|l| format!("\"{}\"", obs::prof::escape_json(l)))
        .collect();
    let channels: Vec<String> = summary
        .channels
        .iter()
        .map(|c| {
            let obj = Obj::new().str("channel", &c.channel).int("n", c.n);
            let obj = opt_num(obj, "min", c.min);
            let obj = opt_num(obj, "mean", c.mean);
            let obj = opt_num(obj, "max", c.max);
            let obj = opt_num(obj, "p50", c.p50);
            let obj = opt_num(obj, "p95", c.p95);
            opt_num(obj, "p99", c.p99).finish()
        })
        .collect();
    header("obs_summary")
        .str("source", &summary.source)
        .int("input_schema_version", summary.input_schema_version)
        .raw("series", &array(&labels))
        .int("samples", summary.samples)
        .raw("channels", &array(&channels))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::json::SCHEMA_VERSION;
    use crate::record::{record_jsonl, try_replicated_run_recorded};
    use nepsim::{Benchmark, PolicySpec};

    fn recording() -> String {
        let experiment = Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: traffic::TrafficLevel::High.into(),
            policy: PolicySpec::NoDvs,
            cycles: 300_000,
            seed: 7,
        };
        let (_, series) = try_replicated_run_recorded(&Runner::serial(), &experiment, 2).unwrap();
        record_jsonl("run", &series)
    }

    #[test]
    fn summary_is_worker_count_invariant() {
        let doc = recording();
        let serial = summarize_record(&doc, &Runner::serial()).unwrap();
        let parallel = summarize_record(&doc, &Runner::new().with_workers(4)).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(render_summary_json(&serial), render_summary_json(&parallel));
        assert_eq!(serial.source, "run");
        assert_eq!(serial.series.len(), 2);
        assert!(serial.samples > 0);
        let power = serial
            .channels
            .iter()
            .find(|c| c.channel == "power_w")
            .expect("power_w is always recorded");
        assert!(power.n > 0);
        assert!(power.min.unwrap() <= power.mean.unwrap());
        assert!(power.mean.unwrap() <= power.max.unwrap());
        assert!(power.p50.is_some());
    }

    #[test]
    fn json_document_is_versioned_and_complete() {
        let summary = summarize_record(&recording(), &Runner::serial()).unwrap();
        let json = render_summary_json(&summary);
        assert!(json.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")));
        assert!(json.contains("\"kind\":\"obs_summary\""));
        assert!(json.contains("\"source\":\"run\""));
        assert!(json.contains("\"channel\":\"power_w\""));
        assert!(json.ends_with('}'));
        let parsed = ccache::json::Value::parse(&json).expect("valid JSON");
        assert_eq!(parsed.u64_of("schema_version"), Some(SCHEMA_VERSION));
        assert_eq!(
            parsed.arr_of("channels").unwrap().len(),
            obs::Channel::ALL.len()
        );
    }

    #[test]
    fn header_only_recordings_summarize_to_empty_channels() {
        let doc = record_jsonl("run", &[]);
        let summary = summarize_record(&doc, &Runner::serial()).unwrap();
        assert_eq!(summary.samples, 0);
        assert!(summary.channels.iter().all(|c| c.n == 0 && c.min.is_none()));
        // Absent statistics render as null, not as a number.
        assert!(render_summary_json(&summary).contains("\"min\":null"));
        assert!(render_summary(&summary).contains(" -"));
    }

    #[test]
    fn damaged_documents_are_rejected() {
        let doc = recording();
        assert!(summarize_record("", &Runner::serial()).is_err());
        assert!(summarize_record("{\"kind\":\"other\"}", &Runner::serial()).is_err());
        let truncated = format!("{}\n{{\"series\":0,\"chan", doc.trim_end());
        assert!(summarize_record(&truncated, &Runner::serial()).is_err());
        let alien = format!(
            "{}{{\"series\":0,\"channel\":\"nope\",\"cycle\":1,\"value\":2}}\n",
            doc
        );
        assert!(summarize_record(&alien, &Runner::serial())
            .unwrap_err()
            .contains("unknown channel"));
    }

    #[test]
    fn errors_name_the_first_bad_line_with_a_bounded_excerpt() {
        let header = recording().lines().next().unwrap().to_owned();
        let good = "{\"series\":0,\"channel\":\"power_w\",\"cycle\":1,\"value\":2}";
        // A blank line still counts, a multi-byte char straddles the
        // cut, and a second bad line sits in a later fold chunk.
        let bad = format!("{}é{}", "x".repeat(EXCERPT_BYTES - 1), "y".repeat(1000));
        let mut doc = format!("{header}\n\n{good}\n{bad}\n");
        for _ in 0..SUMMARIZE_CHUNK + 10 {
            doc.push_str(good);
            doc.push('\n');
        }
        doc.push_str("[[\n");
        let want = format!(
            "line 4: malformed sample line: {}…",
            "x".repeat(EXCERPT_BYTES - 1)
        );
        for workers in [1, 4] {
            let runner = Runner::new().with_workers(workers);
            assert_eq!(summarize_record(&doc, &runner).unwrap_err(), want);
        }

        let doc = format!("{header}\n{}\n", good.replace("power_w", &"c".repeat(500)));
        let err = summarize_record(&doc, &Runner::serial()).unwrap_err();
        assert!(
            err.starts_with("line 2: sample of unknown channel \"ccc"),
            "{err}"
        );
        assert!(err.len() < 2 * EXCERPT_BYTES, "{err}");
        assert_eq!(excerpt("short"), "short");
    }
}
