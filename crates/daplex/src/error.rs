//! Errors for the functional-model layer.

use std::fmt;

/// Convenient alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by Daplex parsing, schema validation and DML handling.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Syntax error in Daplex DDL or DML text.
    Parse {
        /// What went wrong.
        msg: String,
        /// Byte offset into the source.
        offset: usize,
    },
    /// Schema validation failure.
    InvalidSchema(String),
    /// A statement referenced an unknown entity type or subtype.
    UnknownEntity(String),
    /// A statement referenced an unknown function of an entity.
    UnknownFunction {
        /// The entity searched.
        entity: String,
        /// The missing function.
        function: String,
    },
    /// A value does not fit the declared range/type of a function.
    ValueOutOfRange {
        /// The function.
        function: String,
        /// The offending value, rendered.
        got: String,
        /// Why it does not fit.
        why: String,
    },
    /// A DESTROY was aborted because the entity is referenced by a
    /// database function ("if the entity being deleted is referenced by
    /// a database function, then the DESTROY statement is aborted").
    DestroyReferenced {
        /// The entity type.
        entity: String,
        /// The referencing function.
        function: String,
    },
    /// An overlap-constraint violation: the entity already belongs to a
    /// disjoint terminal subtype.
    OverlapViolation {
        /// Subtype being added.
        subtype: String,
        /// Conflicting subtype the entity already belongs to.
        conflicting: String,
    },
    /// A kernel-level failure surfaced through the functional interface
    /// (duplicate keys, missing FILE keywords, …).
    Kernel(abdl::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { msg, offset } => write!(f, "syntax error at byte {offset}: {msg}"),
            Error::InvalidSchema(msg) => write!(f, "invalid functional schema: {msg}"),
            Error::UnknownEntity(e) => write!(f, "unknown entity type `{e}`"),
            Error::UnknownFunction { entity, function } => {
                write!(f, "entity `{entity}` has no function `{function}`")
            }
            Error::ValueOutOfRange { function, got, why } => {
                write!(f, "value {got} is not valid for function `{function}`: {why}")
            }
            Error::DestroyReferenced { entity, function } => write!(
                f,
                "DESTROY aborted: `{entity}` entity is referenced by database function `{function}`"
            ),
            Error::OverlapViolation { subtype, conflicting } => write!(
                f,
                "overlap violation: entity already belongs to `{conflicting}`, which is disjoint from `{subtype}`"
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
