//! Logic of Constraints (LOC): an assertion language for quantitative
//! analysis of simulation traces, extended with the three *distribution
//! operators* introduced by Yu et al. (DATE 2005).
//!
//! LOC formulas quantify over a single index variable `i` ranging over the
//! instances of named trace events, and constrain arithmetic over per-event
//! *annotations* (`cycle`, `time`, `energy`, `total_pkt`, `total_bit`, or
//! custom ones). From a formula this crate automatically generates:
//!
//! * a **trace checker** ([`Checker`]) that reports every violating
//!   instance, and
//! * a **distribution analyzer** ([`Analyzer`]) that bins the value of the
//!   formula's left-hand side over an analysis period `(min, max, step)`
//!   — the paper's `dist==`, `dist<=`, `dist>=` operators.
//!
//! # Formula syntax
//!
//! ```text
//! // latency assertion (paper §2.3):
//! cycle(deq[i]) - cycle(enq[i]) <= 50
//!
//! // power distribution, paper formula (2):
//! (energy(forward[i+100]) - energy(forward[i]))
//!   / (time(forward[i+100]) - time(forward[i])) dist== (0.5, 2.25, 0.01)
//! ```
//!
//! # Example
//!
//! ```
//! use loc::{parse, Analyzer, Annotations, TraceRecord};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let formula = parse("time(forward[i+2]) - time(forward[i]) dist== (0.0, 10.0, 1.0)")?;
//! let mut analyzer = Analyzer::from_formula(&formula)?;
//! for k in 0..10u64 {
//!     let mut a = Annotations::default();
//!     a.time = k as f64; // one event per microsecond
//!     analyzer.push(&TraceRecord::new("forward", a));
//! }
//! let report = analyzer.finish();
//! assert_eq!(report.total_instances(), 8); // i = 0..=7
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyzer;
pub mod ast;
pub mod bank;
pub mod checker;
pub mod codegen;
mod error;
mod eval;
mod lexer;
mod parser;
pub mod trace;

pub use analyzer::{Analyzer, BinStat, DistParts, DistributionReport};
pub use ast::{AnnotKey, BinOp, BoolExpr, CmpOp, DistRel, Expr, Formula};
pub use bank::{AnalyzerBank, BankResults};
pub use checker::{CheckReport, Checker, Violation};
pub use error::{EvalError, ParseError};
pub use parser::{parse, MAX_DEPTH};
pub use trace::{Annotations, Trace, TraceRecord};
