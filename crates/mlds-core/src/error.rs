//! The top-level MLDS error type.

use std::fmt;

/// Convenient alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced to MLDS users.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The DDL was not parseable as any supported data model.
    UnrecognizedDdl {
        /// Error from the network (CODASYL) DDL parser.
        network: String,
        /// Error from the functional (Daplex) DDL parser.
        functional: String,
    },
    /// No database of the given name exists in either schema list.
    UnknownDatabase(String),
    /// A database of the given name already exists.
    DatabaseExists(String),
    /// The session's database was dropped after the session connected
    /// (a database created anew under the same name is another one).
    StaleSession(String),
    /// Network-model layer error.
    Codasyl(codasyl::Error),
    /// Functional-model layer error.
    Daplex(daplex::Error),
    /// CODASYL-DML translation/execution error.
    Translator(translator::Error),
    /// Relational-model layer error.
    Relational(relational::Error),
    /// Hierarchical-model layer error.
    Hierarchical(dli::Error),
    /// Schema transformation error.
    Transform(String),
    /// Kernel error.
    Kernel(abdl::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnrecognizedDdl { network, functional } => write!(
                f,
                "DDL not recognized by any data model (network parser: {network}; \
                 functional parser: {functional})"
            ),
            Error::UnknownDatabase(name) => write!(f, "no database named `{name}`"),
            Error::DatabaseExists(name) => write!(f, "database `{name}` already exists"),
            Error::StaleSession(name) => {
                write!(f, "database `{name}` was dropped after this session connected")
            }
            Error::Codasyl(e) => write!(f, "{e}"),
            Error::Daplex(e) => write!(f, "{e}"),
            Error::Translator(e) => write!(f, "{e}"),
            Error::Relational(e) => write!(f, "{e}"),
            Error::Hierarchical(e) => write!(f, "{e}"),
            Error::Transform(e) => write!(f, "{e}"),
            Error::Kernel(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<codasyl::Error> for Error {
    fn from(e: codasyl::Error) -> Self {
        Error::Codasyl(e)
    }
}

impl From<daplex::Error> for Error {
    fn from(e: daplex::Error) -> Self {
        Error::Daplex(e)
    }
}

impl From<translator::Error> for Error {
    fn from(e: translator::Error) -> Self {
        Error::Translator(e)
    }
}

impl From<abdl::Error> for Error {
    fn from(e: abdl::Error) -> Self {
        Error::Kernel(e)
    }
}

impl From<relational::Error> for Error {
    fn from(e: relational::Error) -> Self {
        Error::Relational(e)
    }
}

impl From<dli::Error> for Error {
    fn from(e: dli::Error) -> Self {
        Error::Hierarchical(e)
    }
}
