//! Error type shared across the workspace.

use crate::interval::Time;
use std::fmt;

/// Errors produced when constructing instances or validating packings.
#[derive(Debug, Clone, PartialEq)]
pub enum DbpError {
    /// An interval with `start >= end` was supplied.
    EmptyInterval {
        /// The offending start time.
        start: Time,
        /// The offending end time.
        end: Time,
    },
    /// An interval whose length `end − start` overflows `i64`, or whose
    /// endpoints a shift or a hull would push out of the `i64` range (a
    /// shift reports its endpoints saturated at that range).
    IntervalOverflow {
        /// The offending start time.
        start: Time,
        /// The offending end time.
        end: Time,
    },
    /// An item size outside `(0, 1]`, or an unrepresentable ratio.
    InvalidSize {
        /// What was wrong with the size.
        what: String,
    },
    /// Two items in one instance share an id.
    DuplicateItemId {
        /// The duplicated id.
        id: u32,
    },
    /// A packing placed an unknown item, or missed/duplicated an item.
    PackingCoverage {
        /// Which coverage rule was violated.
        what: String,
    },
    /// A bin exceeds capacity at some time.
    CapacityExceeded {
        /// The offending bin index.
        bin: usize,
        /// A time at which the level exceeds capacity.
        at: Time,
        /// The offending level, as a fraction of capacity.
        level: f64,
    },
    /// An online packer made an infeasible or out-of-range decision.
    BadDecision {
        /// What was wrong with the decision.
        what: String,
    },
    /// Malformed trace file.
    Trace {
        /// 1-based line number of the malformed entry (0 for I/O errors).
        line: usize,
        /// Parse failure description.
        what: String,
    },
    /// A filesystem operation failed (create, write, sync, rename,
    /// read, list or truncate), as opposed to its bytes failing to parse.
    Io {
        /// The operation, its path and the OS error.
        what: String,
    },
    /// An algorithm-specific internal invariant failed (a bug).
    Internal {
        /// The violated invariant.
        what: String,
    },
    /// A configuration parameter outside its documented domain (e.g. a
    /// size-distribution bound outside `(0, 1]`, or a zero-tick billing
    /// hour). Reported by validating constructors so bad parameters fail
    /// at configuration time instead of panicking deep inside a sweep.
    InvalidParameter {
        /// Which parameter was rejected and why.
        what: String,
    },
}

impl fmt::Display for DbpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbpError::EmptyInterval { start, end } => {
                write!(f, "empty interval [{start}, {end}): start must precede end")
            }
            DbpError::IntervalOverflow { start, end } => {
                write!(f, "interval [{start}, {end}) overflows the i64 tick range")
            }
            DbpError::InvalidSize { what } => write!(f, "invalid size: {what}"),
            DbpError::DuplicateItemId { id } => write!(f, "duplicate item id {id}"),
            DbpError::PackingCoverage { what } => write!(f, "packing coverage error: {what}"),
            DbpError::CapacityExceeded { bin, at, level } => {
                write!(f, "bin {bin} exceeds capacity at t={at} (level {level:.6})")
            }
            DbpError::BadDecision { what } => write!(f, "bad online decision: {what}"),
            DbpError::Trace { line, what } => write!(f, "trace parse error at line {line}: {what}"),
            DbpError::Io { what } => write!(f, "I/O error: {what}"),
            DbpError::Internal { what } => write!(f, "internal invariant violated: {what}"),
            DbpError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for DbpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DbpError::CapacityExceeded {
            bin: 3,
            at: 17,
            level: 1.25,
        };
        let s = e.to_string();
        assert!(s.contains("bin 3"));
        assert!(s.contains("t=17"));
    }
}
