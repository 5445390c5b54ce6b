//! Per-user sessions — the `user_info`/`li_info` structures of Chapter
//! IV.B, one per open language interface.

use translator::{RunUnit, Translator};

/// What one executed user statement produced, for display.
#[derive(Debug, Clone)]
pub struct StatementOutput {
    /// The statement as parsed.
    pub statement: String,
    /// The verb (for per-statement accounting).
    pub verb: String,
    /// The ABDL requests KMS generated, rendered in canonical text.
    pub abdl: Vec<String>,
    /// KFS-formatted result (empty for pure-currency statements).
    pub display: String,
    /// Records affected by a mutation.
    pub affected: usize,
    /// True when the kernel answered in degraded mode: some records
    /// have no live replica, so results may be incomplete until a
    /// backend is restarted (always `false` on a single-site kernel).
    pub degraded: bool,
}

/// A CODASYL-DML session: the `dml_info` of the thesis — currency
/// table, UWA, result buffers and the translator bound to the session's
/// database.
pub struct CodasylSession {
    /// The user id.
    pub uid: String,
    /// The database this session is bound to.
    pub database: String,
    /// The registration of `database` the session connected to.
    pub(crate) db_id: u64,
    pub(crate) translator: Translator,
    pub(crate) run_unit: RunUnit,
    /// Statement/requests history (per-verb counts for E10).
    pub history: Vec<(String, usize)>,
}

impl CodasylSession {
    pub(crate) fn new(uid: &str, database: &str, db_id: u64, translator: Translator) -> Self {
        CodasylSession {
            uid: uid.to_owned(),
            database: database.to_owned(),
            db_id,
            translator,
            run_unit: RunUnit::new(),
            history: Vec::new(),
        }
    }

    /// The network schema the session operates over (for a functional
    /// database, the transformed schema).
    pub fn schema(&self) -> &codasyl::NetworkSchema {
        self.translator.schema()
    }

    /// True when this session accesses a functional database through
    /// CODASYL-DML (the thesis's cross-model path).
    pub fn is_cross_model(&self) -> bool {
        self.translator.mode() == translator::TargetMode::AbFunctional
    }

    /// The session's currency table (read-only view).
    pub fn cit(&self) -> &codasyl::CurrencyTable {
        &self.run_unit.cit
    }

    /// The session's user work area (read-only view).
    pub fn uwa(&self) -> &codasyl::Uwa {
        &self.run_unit.uwa
    }
}

/// A Daplex session: the `dap_info` of the thesis.
pub struct DaplexSession {
    /// The user id.
    pub uid: String,
    /// The database this session is bound to.
    pub database: String,
    /// The registration of `database` the session connected to.
    pub(crate) db_id: u64,
    pub(crate) loader: daplex::ab_map::Loader,
}

impl DaplexSession {
    pub(crate) fn new(uid: &str, database: &str, db_id: u64, loader: daplex::ab_map::Loader) -> Self {
        DaplexSession { uid: uid.to_owned(), database: database.to_owned(), db_id, loader }
    }

    /// The functional schema the session operates over.
    pub fn schema(&self) -> &daplex::FunctionalSchema {
        self.loader.schema()
    }
}

/// A SQL session: the `sql_info` slot of the thesis's `li_info` union.
pub struct SqlSession {
    /// The user id.
    pub uid: String,
    /// The database this session is bound to.
    pub database: String,
    /// The registration of `database` the session connected to.
    pub(crate) db_id: u64,
    pub(crate) translator: relational::SqlTranslator,
}

impl SqlSession {
    pub(crate) fn new(uid: &str, database: &str, db_id: u64, translator: relational::SqlTranslator) -> Self {
        SqlSession { uid: uid.to_owned(), database: database.to_owned(), db_id, translator }
    }

    /// The relational schema the session operates over.
    pub fn schema(&self) -> &relational::RelSchema {
        self.translator.schema()
    }
}

/// A DL/I session wrapper: the `dli_info` slot of the thesis's
/// `li_info` union (positional state included).
pub struct HierSession {
    /// The user id.
    pub uid: String,
    /// The database this session is bound to.
    pub database: String,
    /// The registration of `database` the session connected to.
    pub(crate) db_id: u64,
    pub(crate) session: dli::DliSession,
}

impl HierSession {
    pub(crate) fn new(uid: &str, database: &str, db_id: u64, session: dli::DliSession) -> Self {
        HierSession { uid: uid.to_owned(), database: database.to_owned(), db_id, session }
    }

    /// The hierarchical schema the session operates over.
    pub fn schema(&self) -> &dli::HierSchema {
        self.session.schema()
    }

    /// The DL/I positional state.
    pub fn dli(&self) -> &dli::DliSession {
        &self.session
    }
}
