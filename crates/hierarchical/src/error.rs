//! Errors of the hierarchical interface.

use std::fmt;

/// Convenient alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by DL/I parsing, schema validation and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Syntax error in DBD or call text.
    Parse {
        /// What went wrong.
        msg: String,
        /// Byte offset into the source.
        offset: usize,
    },
    /// Schema validation failure.
    InvalidSchema(String),
    /// A call referenced an unknown segment type.
    UnknownSegment(String),
    /// A call referenced an unknown field of a segment.
    UnknownField {
        /// The segment searched.
        segment: String,
        /// The missing field.
        field: String,
    },
    /// A value does not fit a field's declared type.
    TypeMismatch {
        /// The segment.
        segment: String,
        /// The field.
        field: String,
        /// The declared type, rendered.
        expected: String,
        /// The offending value, rendered.
        got: String,
    },
    /// No segment satisfied the call (the IMS `GE` status).
    NotFound {
        /// The segment sought.
        segment: String,
    },
    /// A call needed positioning that is not established (no current
    /// parent / no current segment).
    NoPosition {
        /// What position was needed.
        what: String,
    },
    /// ISRT would duplicate a sequence-field value under the same
    /// parent (the IMS `II` status).
    SegmentExists {
        /// The segment type.
        segment: String,
        /// The sequence field.
        field: String,
    },
    /// Kernel-level failure.
    Kernel(abdl::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { msg, offset } => {
                write!(f, "DL/I syntax error at byte {offset}: {msg}")
            }
            Error::InvalidSchema(msg) => write!(f, "invalid hierarchical schema: {msg}"),
            Error::UnknownSegment(s) => write!(f, "unknown segment type `{s}`"),
            Error::UnknownField { segment, field } => {
                write!(f, "segment `{segment}` has no field `{field}`")
            }
            Error::TypeMismatch { segment, field, expected, got } => {
                write!(f, "value {got} does not fit `{segment}.{field}` (declared {expected})")
            }
            Error::NotFound { segment } => write!(f, "status GE: no `{segment}` satisfied the call"),
            Error::NoPosition { what } => write!(f, "no position established for {what}"),
            Error::SegmentExists { segment, field } => write!(
                f,
                "status II: a `{segment}` with that `{field}` already exists under the current parent"
            ),
            Error::Kernel(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<abdl::Error> for Error {
    fn from(e: abdl::Error) -> Self {
        match e {
            abdl::Error::Parse { msg, offset } => Error::Parse { msg, offset },
            e => Error::Kernel(e),
        }
    }
}
