//! Standalone checker/analyzer source generation.
//!
//! The paper's tool flow generates stand-alone C++ checkers from LOC
//! formulas so they can run against trace files "independent of any
//! simulation language and platform" (§2.3). This module mirrors that step
//! for Rust: [`generate`] emits a single self-contained `.rs` file (no
//! dependencies beyond `std`) that reads a NePSim-format trace file and
//! either checks the assertion or prints the distribution table.
//!
//! The embedded logic is a transliteration of [`crate::Checker`] /
//! [`crate::Analyzer`] specialised to the one formula being compiled: the
//! expression tree is emitted as straight-line Rust code.

use std::fmt::Write as _;

use crate::analyzer::bin_count;
use crate::ast::{AnnotKey, BinOp, BoolExpr, CmpOp, DistRel, Expr, Formula};
use crate::error::EvalError;

/// Generates a self-contained Rust program for `formula`.
///
/// The program expects one command-line argument: the path of a trace file
/// in the format of [`crate::Trace::to_text`]. For assertion formulas it
/// exits non-zero when violations exist; for distribution formulas it
/// prints the binned percentages.
///
/// # Errors
///
/// [`EvalError::InvalidPeriod`] when a distribution formula's analysis
/// period is one [`crate::Analyzer::from_formula`] rejects too.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = loc::parse("cycle(deq[i]) - cycle(enq[i]) <= 50")?;
/// let source = loc::codegen::generate(&f)?;
/// assert!(source.contains("fn main()"));
/// # Ok(())
/// # }
/// ```
pub fn generate(formula: &Formula) -> Result<String, EvalError> {
    let mut out = String::new();
    let _ = writeln!(out, "//! Auto-generated LOC trace tool.");
    let _ = writeln!(out, "//! Formula: {formula}");
    let _ = writeln!(out, "//! Generated by abdex-loc; do not edit.");
    out.push_str(PRELUDE);
    emit_event_table(&mut out, formula);
    match formula {
        Formula::Assert(body) => emit_checker_main(&mut out, body),
        Formula::Dist {
            expr,
            rel,
            min,
            max,
            step,
        } => {
            let nbins = bin_count(*min, *max, *step)?;
            emit_analyzer_main(&mut out, expr, *rel, *min, *max, *step, nbins);
        }
    }
    Ok(out)
}

/// Shared trace-reading scaffold embedded in every generated program.
const PRELUDE: &str = r#"
use std::collections::VecDeque;

#[derive(Clone, Default)]
struct Annots {
    cycle: f64,
    time: f64,
    energy: f64,
    total_pkt: f64,
    total_bit: f64,
}

struct EventBuf {
    name: &'static str,
    min_off: i64,
    max_off: i64,
    base: i64,
    count: i64,
    buf: VecDeque<Annots>,
}

fn parse_line(line: &str) -> Option<(String, Annots)> {
    let cols: Vec<&str> = line.split_whitespace().collect();
    if cols.len() < 6 || cols[0] == "cycle" {
        return None;
    }
    Some((
        cols[5..].join(" "),
        Annots {
            cycle: cols[0].parse().ok()?,
            time: cols[1].parse().ok()?,
            energy: cols[2].parse().ok()?,
            total_pkt: cols[3].parse().ok()?,
            total_bit: cols[4].parse().ok()?,
        },
    ))
}
"#;

fn collect_events(formula: &Formula) -> Vec<(String, i64, i64)> {
    let mut events: Vec<(String, i64, i64)> = Vec::new();
    formula.visit_annots(
        &mut |_, ev, off| match events.iter_mut().find(|(name, _, _)| name == ev) {
            Some((_, lo, hi)) => {
                *lo = (*lo).min(off);
                *hi = (*hi).max(off);
            }
            None => events.push((ev.to_owned(), off, off)),
        },
    );
    events
}

fn emit_event_table(out: &mut String, formula: &Formula) {
    let events = collect_events(formula);
    let first_i = events
        .iter()
        .map(|(_, lo, _)| (-lo).max(0))
        .max()
        .unwrap_or(0);
    let _ = writeln!(out, "const FIRST_I: i64 = {first_i};");
    let _ = writeln!(out, "fn make_events() -> Vec<EventBuf> {{ vec![");
    for (name, lo, hi) in &events {
        let _ = writeln!(
            out,
            "    EventBuf {{ name: {name:?}, min_off: {lo}, max_off: {hi}, base: 0, count: 0, buf: VecDeque::new() }},"
        );
    }
    let _ = writeln!(out, "] }}");
    out.push_str(
        r#"
fn ready(events: &[EventBuf], i: i64) -> bool {
    events.iter().all(|e| e.count > i + e.max_off)
}

fn advance(events: &mut [EventBuf], next_i: i64) {
    for e in events.iter_mut() {
        let keep_from = (next_i + e.min_off).max(0);
        while e.base < keep_from && !e.buf.is_empty() {
            e.buf.pop_front();
            e.base += 1;
        }
    }
}

fn annot(events: &[EventBuf], name: &str, i: i64, off: i64, field: usize) -> f64 {
    let e = events.iter().find(|e| e.name == name).unwrap();
    let idx = i + off - e.base;
    if idx < 0 { return f64::NAN; }
    match e.buf.get(idx as usize) {
        None => f64::NAN,
        Some(a) => match field {
            0 => a.cycle,
            1 => a.time,
            2 => a.energy,
            3 => a.total_pkt,
            _ => a.total_bit,
        },
    }
}
"#,
    );
}

fn annot_field_index(key: &AnnotKey) -> usize {
    match key {
        AnnotKey::Cycle => 0,
        AnnotKey::Time => 1,
        AnnotKey::Energy => 2,
        AnnotKey::TotalPkt => 3,
        AnnotKey::TotalBit => 4,
        // Custom annotations are not carried by the 6-column text format;
        // generated code reads them as total_bit's slot would NaN out, so
        // map them to an out-of-range field that yields total_bit. Instead,
        // be explicit: generated tools do not support custom annotations.
        AnnotKey::Custom(_) => usize::MAX,
    }
}

/// Emits a Rust expression string evaluating `expr` at instance `i`.
fn emit_expr(expr: &Expr) -> String {
    match expr {
        Expr::Const(c) => format!("({c:?}f64)"),
        Expr::Annot { key, event, offset } => {
            let field = annot_field_index(key);
            if field == usize::MAX {
                // Unsupported in the standalone text format.
                "(f64::NAN)".to_owned()
            } else {
                format!("annot(&events, {event:?}, i, {offset}, {field})")
            }
        }
        Expr::Neg(e) => format!("(-{})", emit_expr(e)),
        Expr::Binary { op, lhs, rhs } => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!("({} {sym} {})", emit_expr(lhs), emit_expr(rhs))
        }
    }
}

fn emit_bool(b: &BoolExpr) -> String {
    match b {
        BoolExpr::Cmp { op, lhs, rhs } => {
            let sym = match op {
                CmpOp::Le => "<=",
                CmpOp::Lt => "<",
                CmpOp::Ge => ">=",
                CmpOp::Gt => ">",
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
            };
            format!("({} {sym} {})", emit_expr(lhs), emit_expr(rhs))
        }
        BoolExpr::And(a, b) => format!("({} && {})", emit_bool(a), emit_bool(b)),
        BoolExpr::Or(a, b) => format!("({} || {})", emit_bool(a), emit_bool(b)),
        BoolExpr::Not(a) => format!("(!{})", emit_bool(a)),
    }
}

fn emit_feed_loop(out: &mut String, per_instance: &str) {
    let _ = writeln!(
        out,
        r#"
fn main() {{
    let path = std::env::args().nth(1).expect("usage: checker <trace-file>");
    let text = std::fs::read_to_string(&path).expect("cannot read trace file");
    let mut events = make_events();
    let mut i: i64 = FIRST_I;
    let mut instances: u64 = 0;
    let mut state = State::default();
    for line in text.lines() {{
        let Some((name, annots)) = parse_line(line) else {{ continue; }};
        let Some(e) = events.iter_mut().find(|e| e.name == name) else {{ continue; }};
        e.buf.push_back(annots);
        e.count += 1;
        while ready(&events, i) {{
            instances += 1;
            {per_instance}
            i += 1;
            advance(&mut events, i);
        }}
    }}
    state.report(instances);
}}"#
    );
}

fn emit_checker_main(out: &mut String, body: &BoolExpr) {
    let cond = emit_bool(body);
    let _ = writeln!(
        out,
        r#"
#[derive(Default)]
struct State {{
    violations: u64,
}}

impl State {{
    fn report(&self, instances: u64) {{
        println!("instances: {{instances}}");
        println!("violations: {{}}", self.violations);
        if self.violations > 0 {{
            std::process::exit(1);
        }}
    }}
}}"#
    );
    let step =
        format!("if !{cond} {{ state.violations += 1; eprintln!(\"violation at i={{i}}\"); }}");
    emit_feed_loop(out, &step);
}

fn emit_analyzer_main(
    out: &mut String,
    expr: &Expr,
    rel: DistRel,
    min: f64,
    max: f64,
    step: f64,
    nbins: usize,
) {
    let value = emit_expr(expr);
    let rel_tag = match rel {
        DistRel::Eq => 0,
        DistRel::Le => 1,
        DistRel::Ge => 2,
    };
    let _ = writeln!(
        out,
        r#"
const MIN: f64 = {min:?};
const MAX: f64 = {max:?};
const STEP: f64 = {step:?};
const NBINS: usize = {nbins};
const REL: u8 = {rel_tag}; // 0: dist==, 1: dist<=, 2: dist>=

#[derive(Default)]
struct State {{
    counts: Vec<u64>,
    values: Vec<f64>,
}}

impl State {{
    fn record(&mut self, v: f64) {{
        if self.counts.is_empty() {{
            self.counts = vec![0; NBINS + 2];
        }}
        if v.is_nan() {{
            return;
        }}
        self.values.push(v);
        let idx = if v <= MIN {{
            0
        }} else if v > MAX {{
            NBINS + 1
        }} else {{
            (((v - MIN) / STEP).ceil() as usize).clamp(1, NBINS)
        }};
        self.counts[idx] += 1;
    }}

    fn report(&self, instances: u64) {{
        let total = instances.max(1) as f64;
        match REL {{
            0 => {{
                for (k, c) in self.counts.iter().enumerate() {{
                    let lo = if k == 0 {{ f64::NEG_INFINITY }} else {{ MIN + STEP * (k as f64 - 1.0) }};
                    let hi = if k == NBINS + 1 {{ f64::INFINITY }} else {{ MIN + STEP * k as f64 }};
                    println!("({{lo:.4}}, {{hi:.4}}] : {{:.2}}%", *c as f64 / total * 100.0);
                }}
            }}
            _ => {{
                for k in 0..=NBINS {{
                    let edge = MIN + STEP * k as f64;
                    let n = if REL == 1 {{
                        self.values.iter().filter(|v| **v <= edge).count()
                    }} else {{
                        self.values.iter().filter(|v| **v >= edge).count()
                    }};
                    println!("edge {{edge:.4}} : {{:.2}}%", n as f64 / total * 100.0);
                }}
            }}
        }}
    }}
}}"#
    );
    let step_code = format!("state.record({value});");
    emit_feed_loop(out, &step_code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn generates_checker_source() {
        let f = parse("cycle(deq[i]) - cycle(enq[i]) <= 50").unwrap();
        let src = generate(&f).unwrap();
        assert!(src.contains("fn main()"));
        assert!(src.contains("violations"));
        assert!(src.contains("\"deq\""));
        assert!(src.contains("\"enq\""));
        // Formula is documented in the header.
        assert!(src.contains("cycle(deq[i])"));
    }

    #[test]
    fn generates_analyzer_source_with_period_constants() {
        let f = parse(
            "(energy(forward[i+100]) - energy(forward[i])) / \
             (time(forward[i+100]) - time(forward[i])) dist== (0.5, 2.25, 0.01)",
        )
        .unwrap();
        let src = generate(&f).unwrap();
        assert!(src.contains("const MIN: f64 = 0.5;"));
        assert!(src.contains("const MAX: f64 = 2.25;"));
        assert!(src.contains("const STEP: f64 = 0.01;"));
        assert!(src.contains("const NBINS: usize = 175;"));
        assert!(src.contains("annot(&events, \"forward\", i, 100, 2)"));
    }

    #[test]
    fn generation_is_deterministic() {
        let f = parse("time(a[i]) - time(b[i-3]) dist>= (0, 9, 3)").unwrap();
        assert_eq!(generate(&f).unwrap(), generate(&f).unwrap());
    }

    #[test]
    fn dist_rel_tags() {
        for (text, tag) in [
            ("dist==", "REL: u8 = 0"),
            ("dist<=", "REL: u8 = 1"),
            ("dist>=", "REL: u8 = 2"),
        ] {
            let f = parse(&format!("time(a[i]) {text} (0, 1, 0.5)")).unwrap();
            assert!(generate(&f).unwrap().contains(tag), "{text}");
        }
    }

    #[test]
    fn first_i_accounts_for_negative_offsets() {
        let f = parse("time(a[i-5]) <= time(a[i])").unwrap();
        let src = generate(&f).unwrap();
        assert!(src.contains("const FIRST_I: i64 = 5;"));
    }
}
