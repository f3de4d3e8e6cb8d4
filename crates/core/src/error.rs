//! Error types shared across the workspace.

use std::fmt;

/// Convenient result alias for fallible `dslice` operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the core model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An attribute value was not a finite number (NaN or infinite).
    NonFiniteAttribute(f64),
    /// A partition was requested with zero slices.
    EmptyPartition,
    /// Partition boundaries were not strictly increasing within `(0, 1)`.
    InvalidBoundaries(String),
    /// Slice fractions did not sum to 1 (within tolerance) or contained a
    /// non-positive fraction.
    InvalidFractions(String),
    /// A normalized rank or random value fell outside `(0, 1]`.
    OutOfRange {
        /// Short description of the quantity that was out of range.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A protocol was configured with out-of-range parameters (window,
    /// decay factor, strike limit, ...).
    InvalidProtocol(String),
    /// A latency model was configured with out-of-range parameters (e.g. a
    /// uniform range whose minimum exceeds its maximum).
    InvalidLatency(String),
    /// A network-fault injection was configured with out-of-range
    /// parameters (band count, drop rate, region index, ...).
    InvalidFault(String),
    /// A view was created with a capacity of zero.
    ZeroViewCapacity,
    /// An operation referenced a node that does not exist.
    UnknownNode(crate::NodeId),
    /// A raw node id at or above `u32::MAX`, beyond the id range.
    IdOutOfRange(u64),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NonFiniteAttribute(v) => {
                write!(f, "attribute value must be finite, got {v}")
            }
            Error::EmptyPartition => write!(f, "a partition must contain at least one slice"),
            Error::InvalidBoundaries(msg) => write!(f, "invalid partition boundaries: {msg}"),
            Error::InvalidFractions(msg) => write!(f, "invalid slice fractions: {msg}"),
            Error::OutOfRange { what, value } => {
                write!(f, "{what} must lie in (0, 1], got {value}")
            }
            Error::InvalidProtocol(msg) => write!(f, "invalid protocol configuration: {msg}"),
            Error::InvalidLatency(msg) => write!(f, "invalid latency model: {msg}"),
            Error::InvalidFault(msg) => write!(f, "invalid network fault: {msg}"),
            Error::ZeroViewCapacity => write!(f, "view capacity must be at least 1"),
            Error::UnknownNode(id) => write!(f, "unknown node {id}"),
            Error::IdOutOfRange(raw) => write!(f, "node id {raw} is out of range"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::NonFiniteAttribute(f64::NAN), "finite"),
            (Error::EmptyPartition, "at least one"),
            (
                Error::InvalidBoundaries("0.5 repeated".into()),
                "0.5 repeated",
            ),
            (Error::InvalidFractions("sum 0.9".into()), "sum 0.9"),
            (
                Error::InvalidProtocol("window must be at least 1".into()),
                "protocol",
            ),
            (
                Error::InvalidLatency("uniform range 5-2 is inverted".into()),
                "latency",
            ),
            (
                Error::InvalidFault("at least 2 bands".into()),
                "network fault",
            ),
            (
                Error::OutOfRange {
                    what: "random value",
                    value: 1.5,
                },
                "random value",
            ),
            (Error::ZeroViewCapacity, "capacity"),
            (Error::UnknownNode(NodeId::new(3)), "3"),
            (Error::IdOutOfRange(1 << 32), "4294967296"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_std_error<E: std::error::Error>(_: &E) {}
        assert_std_error(&Error::EmptyPartition);
    }
}
