//! A dependency-free hierarchical span profiler with Chrome-trace
//! export.
//!
//! Host-side wall-time attribution for the whole pipeline: callers open
//! RAII [`SpanGuard`]s ([`span`]) around phases ("parse", "simulate",
//! "fold", ...), guards nest on a thread-local stack, and every thread
//! buffers its closed spans locally. A thread's buffer flushes into a
//! process global whenever its span stack empties — so every span a
//! thread has finished is visible to [`drain`], whether or not the
//! thread is still alive — and [`drain`] merges them into a [`Profile`]
//! that renders as
//!
//! * **Chrome Trace Event Format JSON** ([`Profile::chrome_trace_json`])
//!   — complete `"ph":"X"` events with `pid`/`tid`/`ts`/`dur` in
//!   microseconds plus `"ph":"C"` counter events, loadable in Perfetto
//!   or `chrome://tracing` as-is — and
//! * a human per-phase summary table ([`Profile::summary_table`]) with
//!   count, total, self-time (total minus time spent in child spans)
//!   and mean per phase.
//!
//! The profiler is **off by default**: [`span`] costs one relaxed
//! atomic load until [`set_enabled`]`(true)` arms it (the CLI does this
//! for `--profile`/`--profile-summary`). Profiles measure wall-clock
//! time, so they are inherently non-deterministic — which is why they
//! only ever leave the process through stderr or a dedicated trace
//! file, never through the deterministic stdout documents
//! (`crates/core/tests/cli.rs` pins stdout byte-identity with and
//! without `--profile`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide arm switch; spans are recorded only while `true`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Next profiler thread id; small stable ids (1, 2, ...) in thread
/// registration order beat the opaque OS ids in a trace viewer.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The timestamp origin every `ts` is measured from. Pinned at first
/// use (normally the [`set_enabled`] call in `main`), so traces start
/// near t=0.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Closed spans flushed from exited threads plus all counter samples.
struct Global {
    spans: Vec<SpanRec>,
    counters: Vec<CounterRec>,
    /// Running cumulative value per counter name (counter events carry
    /// the post-increment total, which is what plots well).
    totals: BTreeMap<String, f64>,
}

fn global() -> &'static Mutex<Global> {
    static GLOBAL: OnceLock<Mutex<Global>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        Mutex::new(Global {
            spans: Vec::new(),
            counters: Vec::new(),
            totals: BTreeMap::new(),
        })
    })
}

/// A span still on some thread's stack.
struct OpenSpan {
    name: String,
    label: Option<String>,
    start: Instant,
    /// Total microseconds spent in already-closed direct children —
    /// subtracted from this span's duration to get its self-time.
    child_us: u64,
}

/// Per-thread buffer: the open-span stack and the closed spans waiting
/// for it to empty, when they flush into [`Global`].
struct ThreadBuf {
    tid: u64,
    stack: Vec<OpenSpan>,
    done: Vec<SpanRec>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            done: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.done.is_empty() {
            return;
        }
        let mut g = global().lock().expect("profiler registry poisoned");
        g.spans.append(&mut self.done);
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Arms (or disarms) the profiler process-wide. Also pins the trace
/// epoch on first arming so timestamps start near zero.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One closed span: a complete Chrome-trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Phase name ("simulate", "fold", "job", ...).
    pub name: String,
    /// The instance this span timed (a job's cell label, ...), exported
    /// as the Chrome-trace event's `args.label`; phases aggregate by
    /// name alone.
    pub label: Option<String>,
    /// Profiler thread id (registration order, starting at 1).
    pub tid: u64,
    /// Start, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Duration minus time spent in direct child spans.
    pub self_us: u64,
}

/// One counter sample: a Chrome-trace `"ph":"C"` event carrying the
/// cumulative total after the increment.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRec {
    /// Counter name ("cache.hits", ...).
    pub name: String,
    /// Profiler thread id of the incrementing thread.
    pub tid: u64,
    /// Sample time, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Cumulative value after this increment.
    pub total: f64,
}

/// RAII guard for one span: opened by [`span`], the span closes (and is
/// recorded) when the guard drops. Guards are `!Send` — a span lives
/// and dies on one thread's stack.
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Renames the span before it closes — for phases whose identity is
    /// only known at the end, like a cache probe resolving to
    /// `cache.lookup.hit` or `cache.lookup.miss`. Call before opening any child span
    /// (the rename applies to the innermost open span).
    pub fn set_name(&mut self, name: &str) {
        if !self.active {
            return;
        }
        BUF.with(|b| {
            if let Some(top) = b.borrow_mut().stack.last_mut() {
                top.name.clear();
                top.name.push_str(name);
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            let Some(open) = b.stack.pop() else { return };
            let dur_us = u64::try_from(open.start.elapsed().as_micros()).unwrap_or(u64::MAX);
            let ts_us =
                u64::try_from(open.start.duration_since(epoch()).as_micros()).unwrap_or(u64::MAX);
            let self_us = dur_us.saturating_sub(open.child_us);
            if let Some(parent) = b.stack.last_mut() {
                parent.child_us = parent.child_us.saturating_add(dur_us);
            }
            let tid = b.tid;
            b.done.push(SpanRec {
                name: open.name,
                label: open.label,
                tid,
                ts_us,
                dur_us,
                self_us,
            });
            if b.stack.is_empty() {
                b.flush();
            }
        });
    }
}

/// Opens a span named `name` on the calling thread; it closes when the
/// returned guard drops. A no-op (one atomic load, no allocation) while
/// the profiler is disarmed.
#[must_use]
pub fn span(name: &str) -> SpanGuard {
    open(name, None)
}

/// [`span`] for one instance of a repeated phase: the span aggregates
/// under `name` (one summary row for every job of a batch, say) and
/// carries `label` (which job) into the Chrome trace's `args`.
#[must_use]
pub fn span_with_label(name: &str, label: &str) -> SpanGuard {
    open(name, Some(label))
}

fn open(name: &str, label: Option<&str>) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            active: false,
            _not_send: PhantomData,
        };
    }
    BUF.with(|b| {
        b.borrow_mut().stack.push(OpenSpan {
            name: name.to_owned(),
            label: label.map(str::to_owned),
            start: Instant::now(),
            child_us: 0,
        });
    });
    SpanGuard {
        active: true,
        _not_send: PhantomData,
    }
}

/// Increments the named counter by `delta` and records a counter event
/// carrying the new cumulative total. A no-op while disarmed.
pub fn count(name: &str, delta: f64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let ts_us = u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX);
    let tid = BUF.with(|b| b.borrow().tid);
    let mut g = global().lock().expect("profiler registry poisoned");
    let total = {
        let slot = g.totals.entry(name.to_owned()).or_insert(0.0);
        *slot += delta;
        *slot
    };
    g.counters.push(CounterRec {
        name: name.to_owned(),
        tid,
        ts_us,
        total,
    });
}

/// Takes every recorded event process-wide, leaving the profiler empty:
/// every span any thread has closed, except those nested in a span
/// still open on another thread (still-open spans survive and land in
/// a later drain).
#[must_use]
pub fn drain() -> Profile {
    BUF.with(|b| b.borrow_mut().flush());
    let mut g = global().lock().expect("profiler registry poisoned");
    let mut spans = std::mem::take(&mut g.spans);
    let counters = std::mem::take(&mut g.counters);
    g.totals.clear();
    drop(g);
    // Merged buffers arrive in thread-exit order; (ts, tid, name) makes
    // the export stable and chronological.
    spans.sort_by(|a, b| (a.ts_us, a.tid, a.name.as_str()).cmp(&(b.ts_us, b.tid, b.name.as_str())));
    Profile { spans, counters }
}

/// Every event recorded between arming and [`drain`].
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Closed spans, sorted by (start, tid, name).
    pub spans: Vec<SpanRec>,
    /// Counter samples in record order.
    pub counters: Vec<CounterRec>,
}

/// Escapes a string for a JSON string literal (the profiler is
/// dependency-free, so it carries its own four-line escaper).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Profile {
    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Final cumulative value per counter name.
    #[must_use]
    pub fn counter_totals(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for c in &self.counters {
            totals.insert(c.name.clone(), c.total);
        }
        totals
    }

    /// Renders the profile as Chrome Trace Event Format JSON: one
    /// complete (`"ph":"X"`) event per span and one counter
    /// (`"ph":"C"`) event per counter sample, all under `pid` 1 with
    /// microsecond timestamps. The document loads directly in Perfetto
    /// (<https://ui.perfetto.dev>) or `chrome://tracing`.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"abdex\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{}",
                escape_json(&s.name),
                s.tid,
                s.ts_us,
                s.dur_us
            );
            if let Some(label) = &s.label {
                let _ = write!(out, ",\"args\":{{\"label\":\"{}\"}}", escape_json(label));
            }
            out.push('}');
        }
        for c in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let total = if c.total.is_finite() { c.total } else { 0.0 };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"abdex\",\"ph\":\"C\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"args\":{{\"value\":{total}}}}}",
                escape_json(&c.name),
                c.tid,
                c.ts_us
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Renders the human per-phase summary: one row per span name with
    /// count, total time, self-time and mean, heaviest self-time first,
    /// plus the final counter totals. Intended for stderr.
    #[must_use]
    pub fn summary_table(&self) -> String {
        struct Row {
            count: u64,
            total_us: u64,
            self_us: u64,
        }
        let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
        for s in &self.spans {
            let row = rows.entry(&s.name).or_insert(Row {
                count: 0,
                total_us: 0,
                self_us: 0,
            });
            row.count += 1;
            row.total_us += s.dur_us;
            row.self_us += s.self_us;
        }
        let mut sorted: Vec<(&str, Row)> = rows.into_iter().collect();
        sorted.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
        let ms = |us: u64| us as f64 / 1000.0;
        let mut out = format!(
            "profile: {} span(s) across {} phase(s)\n",
            self.spans.len(),
            sorted.len()
        );
        let _ = writeln!(
            out,
            "  {:<36} {:>7} {:>12} {:>12} {:>12}",
            "phase", "count", "total ms", "self ms", "mean ms"
        );
        for (name, row) in &sorted {
            let _ = writeln!(
                out,
                "  {:<36} {:>7} {:>12.3} {:>12.3} {:>12.3}",
                name,
                row.count,
                ms(row.total_us),
                ms(row.self_us),
                ms(row.total_us) / row.count as f64
            );
        }
        for (name, total) in self.counter_totals() {
            let _ = writeln!(out, "  counter {name} = {total}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that arm the global profiler; unit tests in
    /// this binary run concurrently and would otherwise see each
    /// other's spans mid-drain.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_spans_record_nothing() {
        let _serial = lock();
        set_enabled(false);
        {
            let _s = span("prof-test-disarmed");
        }
        count("prof-test-disarmed-counter", 1.0);
        let profile = drain();
        assert!(!profile.spans.iter().any(|s| s.name == "prof-test-disarmed"));
        assert!(!profile
            .counters
            .iter()
            .any(|c| c.name == "prof-test-disarmed-counter"));
    }

    #[test]
    fn nested_spans_attribute_self_time_to_the_parent() {
        let _serial = lock();
        set_enabled(true);
        {
            let _outer = span("prof-test-outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = span("prof-test-inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        set_enabled(false);
        let profile = drain();
        let outer = profile
            .spans
            .iter()
            .find(|s| s.name == "prof-test-outer")
            .expect("outer span recorded");
        let inner = profile
            .spans
            .iter()
            .find(|s| s.name == "prof-test-inner")
            .expect("inner span recorded");
        assert!(outer.dur_us >= inner.dur_us, "parent covers child");
        assert!(
            outer.self_us <= outer.dur_us - inner.dur_us,
            "self-time excludes the child: self {} dur {} child {}",
            outer.self_us,
            outer.dur_us,
            inner.dur_us
        );
        assert_eq!(inner.self_us, inner.dur_us, "leaf self-time is its total");
    }

    #[test]
    fn worker_thread_spans_merge_on_thread_exit() {
        let _serial = lock();
        set_enabled(true);
        std::thread::scope(|scope| {
            for i in 0..3 {
                scope.spawn(move || {
                    let _s = span(&format!("prof-test-worker-{i}"));
                });
            }
        });
        set_enabled(false);
        let profile = drain();
        for i in 0..3 {
            assert!(
                profile
                    .spans
                    .iter()
                    .any(|s| s.name == format!("prof-test-worker-{i}")),
                "worker {i} span survived the thread"
            );
        }
    }

    #[test]
    fn spans_of_a_live_worker_thread_reach_drain() {
        // The worker finishes its span, then stays alive across the
        // drain: the span must not wait for the thread to exit.
        let _serial = lock();
        set_enabled(true);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            drop(span("prof-test-live-worker"));
            done_tx.send(()).unwrap();
            let _ = exit_rx.recv();
        });
        done_rx.recv().unwrap();
        set_enabled(false);
        let profile = drain();
        exit_tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(
            profile
                .spans
                .iter()
                .any(|s| s.name == "prof-test-live-worker"),
            "a closed span of a live thread was missing from the drain"
        );
    }

    #[test]
    fn labeled_spans_aggregate_by_name_and_export_the_label() {
        let _serial = lock();
        set_enabled(true);
        for job in ["cell \"a\"", "cell b"] {
            drop(span_with_label("prof-test-job", job));
        }
        set_enabled(false);
        let profile = drain();
        let jobs: Vec<&SpanRec> = profile
            .spans
            .iter()
            .filter(|s| s.name == "prof-test-job")
            .collect();
        assert_eq!(jobs.len(), 2);
        let table = profile.summary_table();
        let row = table
            .lines()
            .find(|l| l.trim_start().starts_with("prof-test-job"))
            .expect("one summary row for the phase");
        assert_eq!(row.split_whitespace().nth(1), Some("2"), "{table}");
        let json = profile.chrome_trace_json();
        assert!(
            json.contains("\"args\":{\"label\":\"cell \\\"a\\\"\"}}"),
            "{json}"
        );
        assert!(json.contains("\"args\":{\"label\":\"cell b\"}}"), "{json}");
    }

    #[test]
    fn rename_and_counters_land_in_the_export() {
        let _serial = lock();
        set_enabled(true);
        {
            let mut s = span("prof-test-probe");
            s.set_name("prof-test-hit");
        }
        count("prof-test-hits", 1.0);
        count("prof-test-hits", 1.0);
        set_enabled(false);
        let profile = drain();
        assert!(profile.spans.iter().any(|s| s.name == "prof-test-hit"));
        assert!(!profile.spans.iter().any(|s| s.name == "prof-test-probe"));
        assert_eq!(profile.counter_totals().get("prof-test-hits"), Some(&2.0));
        let json = profile.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"prof-test-hit\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        let table = profile.summary_table();
        assert!(table.contains("prof-test-hit"));
        assert!(table.contains("counter prof-test-hits = 2"));
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
