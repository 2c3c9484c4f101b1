//! Error types for formula parsing and evaluation.

use std::error::Error;
use std::fmt;

/// An error produced while parsing a formula from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the source where the error was detected.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(position: usize, message: impl Into<String>) -> Self {
        ParseError {
            position,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl Error for ParseError {}

/// An error produced while building or running a checker/analyzer.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The formula kind does not match the tool (e.g. building an
    /// [`crate::Analyzer`] from an assertion formula).
    WrongFormulaKind {
        /// What the tool expected ("distribution" or "assertion").
        expected: &'static str,
    },
    /// A distribution period was invalid (`step <= 0`, `max <= min`, a
    /// non-finite bound, or a bin count outside 1 to 2^20).
    InvalidPeriod {
        /// Lower bound given.
        min: f64,
        /// Upper bound given.
        max: f64,
        /// Step given.
        step: f64,
    },
    /// The formula references no events, so the index variable `i` ranges
    /// over nothing.
    NoEvents,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::WrongFormulaKind { expected } => {
                write!(f, "formula kind mismatch: expected a {expected} formula")
            }
            EvalError::InvalidPeriod { min, max, step } => {
                write!(
                    f,
                    "invalid analysis period ({min}, {max}, {step}): need finite bounds, \
                     step > 0, max > min and 1 to {} bins",
                    crate::analyzer::MAX_BINS
                )
            }
            EvalError::NoEvents => write!(f, "formula references no trace events"),
        }
    }
}

impl Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let p = ParseError::new(7, "unexpected token");
        assert_eq!(p.to_string(), "parse error at byte 7: unexpected token");
        let e = EvalError::InvalidPeriod {
            min: 1.0,
            max: 0.0,
            step: 0.1,
        };
        assert!(e.to_string().contains("invalid analysis period"));
        assert!(EvalError::NoEvents.to_string().contains("no trace events"));
        let w = EvalError::WrongFormulaKind {
            expected: "distribution",
        };
        assert!(w.to_string().contains("distribution"));
    }
}
