//! Errors of the relational interface.

use std::fmt;

/// Convenient alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by SQL parsing, schema validation and translation.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Syntax error in SQL text.
    Parse {
        /// What went wrong.
        msg: String,
        /// Byte offset into the source.
        offset: usize,
    },
    /// Schema validation failure.
    InvalidSchema(String),
    /// A statement referenced an unknown table.
    UnknownTable(String),
    /// A statement referenced an unknown column of a table.
    UnknownColumn {
        /// The table searched.
        table: String,
        /// The missing column.
        column: String,
    },
    /// A supplied value does not fit the declared column type.
    TypeMismatch {
        /// The table.
        table: String,
        /// The column.
        column: String,
        /// The declared type, rendered.
        expected: String,
        /// The offending value, rendered.
        got: String,
    },
    /// INSERT column/value count mismatch.
    ArityMismatch {
        /// The table.
        table: String,
        /// Columns given.
        columns: usize,
        /// Values given.
        values: usize,
    },
    /// Kernel-level failure (duplicate primary keys, …).
    Kernel(abdl::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { msg, offset } => write!(f, "SQL syntax error at byte {offset}: {msg}"),
            Error::InvalidSchema(msg) => write!(f, "invalid relational schema: {msg}"),
            Error::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            Error::UnknownColumn { table, column } => {
                write!(f, "table `{table}` has no column `{column}`")
            }
            Error::TypeMismatch { table, column, expected, got } => {
                write!(f, "value {got} does not fit `{table}.{column}` (declared {expected})")
            }
            Error::ArityMismatch { table, columns, values } => write!(
                f,
                "INSERT into `{table}` lists {columns} column(s) but {values} value(s)"
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
