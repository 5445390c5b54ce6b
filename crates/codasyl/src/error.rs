//! Errors for network schema handling and CODASYL-DML parsing.

use std::fmt;

/// Convenient alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the network-model layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Syntax error in schema DDL or DML text.
    Parse {
        /// What went wrong.
        msg: String,
        /// Byte offset into the source.
        offset: usize,
    },
    /// Schema validation failure (dangling set owner/member, duplicate
    /// names, bad uniqueness group, …).
    InvalidSchema(String),
    /// A statement referenced an unknown record type.
    UnknownRecord(String),
    /// A statement referenced an unknown set type.
    UnknownSet(String),
    /// A statement referenced an unknown data item of a record type.
    UnknownItem {
        /// The record type searched.
        record: String,
        /// The missing item.
        item: String,
    },
    /// A supplied value does not fit the declared data-item type.
    TypeMismatch {
        /// The record type.
        record: String,
        /// The data item.
        item: String,
        /// The declared type, rendered.
        expected: String,
        /// The offending value, rendered.
        got: String,
    },
    /// A kernel-level failure surfaced through the network interface.
    Kernel(abdl::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { msg, offset } => write!(f, "syntax error at byte {offset}: {msg}"),
            Error::InvalidSchema(msg) => write!(f, "invalid network schema: {msg}"),
            Error::UnknownRecord(r) => write!(f, "unknown record type `{r}`"),
            Error::UnknownSet(s) => write!(f, "unknown set type `{s}`"),
            Error::UnknownItem { record, item } => {
                write!(f, "record type `{record}` has no data item `{item}`")
            }
            Error::TypeMismatch { record, item, expected, got } => {
                write!(f, "value {got} does not fit `{record}.{item}` (declared {expected})")
            }
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
