//! LIL + the assembled MLDS.
//!
//! Every language interface is the same pipeline over one kernel, so
//! LIL states each of its decisions once: one registry of databases in
//! all four data models, one connect rule that binds a session to a
//! database's own schema or to its one derived view, and one
//! per-statement driver that scopes the kernel to the session's
//! database, runs the language's step and stamps the answer's health.

use crate::error::{Error, Result};
use crate::kfs;
use crate::namespace::{kernel_file, NamespacedKernel};
use crate::session::{CodasylSession, DaplexSession, HierSession, SqlSession, StatementOutput};
use abdl::Kernel;
use codasyl::dml::Statement;
use codasyl::NetworkSchema;
use daplex::FunctionalSchema;
use std::sync::atomic::{AtomicU64, Ordering};
use translator::Translator;

/// The four data models, in [`Mlds::database_names`] order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Model {
    Network,
    Functional,
    Relational,
    Hierarchical,
}

/// A database schema in one of the four data models (the thesis's
/// `dbid_node` union).
enum Schema {
    Network(NetworkSchema),
    Functional(FunctionalSchema),
    Relational(relational::RelSchema),
    Hierarchical(dli::HierSchema),
}

impl Schema {
    /// Parse a DDL of any model. The leading keyword discriminates the
    /// four DDLs, so the parsers are tried in order.
    fn parse(ddl: &str) -> Result<Schema> {
        codasyl::ddl::parse_schema(ddl).map(Schema::Network).or_else(|net| {
            daplex::ddl::parse_schema(ddl).map(Schema::Functional).or_else(|fun| {
                relational::ddl::parse_schema(ddl)
                    .map(Schema::Relational)
                    .or_else(|_| dli::ddl::parse_schema(ddl).map(Schema::Hierarchical))
                    .map_err(|_| Error::UnrecognizedDdl {
                        network: net.to_string(),
                        functional: fun.to_string(),
                    })
            })
        })
    }

    fn name(&self) -> &str {
        match self {
            Schema::Network(s) => &s.name,
            Schema::Functional(s) => &s.name,
            Schema::Relational(s) => &s.name,
            Schema::Hierarchical(s) => &s.name,
        }
    }

    fn model(&self) -> Model {
        match self {
            Schema::Network(_) => Model::Network,
            Schema::Functional(_) => Model::Functional,
            Schema::Relational(_) => Model::Relational,
            Schema::Hierarchical(_) => Model::Hierarchical,
        }
    }

    /// Create the database's kernel files: the AB(model) mapping of its
    /// KMS.
    fn install<K: Kernel>(&self, kernel: &mut K) {
        match self {
            Schema::Network(s) => codasyl::ab_map::install(s, kernel),
            Schema::Functional(s) => daplex::ab_map::install(s, kernel),
            Schema::Relational(s) => relational::ab_map::install(s, kernel),
            Schema::Hierarchical(s) => dli::ab_map::install(s, kernel),
        }
    }

    /// The kernel files [`install`](Self::install) creates, unscoped.
    fn files(&self) -> Vec<String> {
        match self {
            Schema::Network(s) => s.records.iter().map(|r| r.name.clone()).collect(),
            Schema::Functional(s) => {
                let links = s.m2m_pairs().into_iter().map(|p| p.link);
                s.entity_like_names().into_iter().map(str::to_owned).chain(links).collect()
            }
            Schema::Relational(s) => s.tables.iter().map(|t| t.name.clone()).collect(),
            Schema::Hierarchical(s) => s.segments.iter().map(|seg| seg.name.clone()).collect(),
        }
    }

    /// This schema's view in `model`, if it has one: a functional
    /// database's network schema (the thesis's transformation), a
    /// network database's functional schema (its reverse), or a
    /// hierarchical database's read-only relational view (the Zawis
    /// edge). `None` without deriving anything when there is none.
    fn view(&self, model: Model) -> Option<Result<Schema>> {
        let view = match (self, model) {
            (Schema::Functional(s), Model::Network) => transform::transform(s).map(Schema::Network),
            (Schema::Network(s), Model::Functional) => transform::reverse(s).map(Schema::Functional),
            (Schema::Hierarchical(s), Model::Relational) => {
                transform::relational_view(s).map(Schema::Relational)
            }
            _ => return None,
        };
        Some(view.map_err(|e| Error::Transform(e.to_string())))
    }
}

/// Registration ids, unique across every [`Mlds`] of the process.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One registered database.
struct Database {
    /// Kept by every session opened on this registration: once the
    /// database is dropped (and perhaps created anew), no registration
    /// has the id and the session is stale.
    id: u64,
    schema: Schema,
    /// The one view another model's sessions use, derived on the first
    /// such connect and kept: the direct-language-interface strategy
    /// transforms a schema once, not per transaction.
    view: Option<Schema>,
}

/// The Multi-Lingual Database System.
///
/// Generic over its kernel database system: a single [`abdl::Store`]
/// or the multi-backend [`mbds::Controller`] (over threads, backend
/// processes or deterministic simulated backends).
pub struct Mlds<K: Kernel = abdl::Store> {
    kernel: K,
    /// Every loaded database, in creation order.
    databases: Vec<Database>,
}

impl Mlds<abdl::Store> {
    /// An MLDS over a single-site kernel store.
    pub fn single_backend() -> Self {
        Mlds::with_kernel(abdl::Store::new())
    }

    /// Serialize the kernel as restorable ABDL text (schemas are not
    /// part of the dump; recreate them with [`Mlds::create_database`]
    /// before restoring).
    pub fn dump_kernel(&self) -> String {
        abdl::engine::dump(&self.kernel)
    }

    /// Replace the kernel with a previously dumped state.
    pub fn restore_kernel(&mut self, text: &str) -> Result<()> {
        self.kernel = abdl::engine::restore(text)?;
        Ok(())
    }
}

impl Mlds<mbds::Controller> {
    /// An MLDS over a controller of simulated backends (default
    /// replication, default cost model): deterministic, with a virtual
    /// clock instead of threads.
    pub fn simulated_backend(backends: usize) -> Self {
        let k = mbds::DEFAULT_REPLICATION.min(backends);
        Mlds::with_kernel(mbds::Controller::simulated(backends, k, mbds::CostModel::default()))
    }

    /// An MLDS over the threaded multi-backend kernel.
    pub fn multi_backend(backends: usize) -> Self {
        Mlds::with_kernel(mbds::Controller::new(backends))
    }

    /// An MLDS over a *durable* multi-backend kernel: every directory
    /// mutation is written to a checksummed write-ahead log under
    /// `dir` so the controller can be rebuilt with
    /// [`Mlds::recover_backend`] after a crash. `dir` must not already
    /// hold controller state.
    pub fn durable_backend(backends: usize, dir: impl AsRef<std::path::Path>) -> Result<Self> {
        Ok(Mlds::with_kernel(mbds::Controller::durable(
            backends,
            mbds::DEFAULT_REPLICATION,
            dir,
        )?))
    }

    /// An MLDS whose kernel is recovered from the write-ahead log in
    /// `dir` (written by a previous [`Mlds::durable_backend`]
    /// controller). Database schemas are not part of the kernel log —
    /// recreate them with [`Mlds::create_database`], as after
    /// [`Mlds::restore_kernel`].
    pub fn recover_backend(dir: impl AsRef<std::path::Path>) -> Result<Self> {
        Ok(Mlds::with_kernel(mbds::Controller::recover(dir)?))
    }

    /// Replace the kernel in place with one recovered from `dir`,
    /// keeping loaded schemas, transformation caches and open sessions
    /// (currency indicators stay valid — the log preserves every
    /// database key). This is the shell's `.recover` path: simulate a
    /// controller crash, rebuild from the log, and carry on mid-run.
    pub fn recover_kernel(&mut self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        self.kernel = mbds::Controller::recover(dir)?;
        Ok(())
    }

    /// An MLDS over the **out-of-process** multi-backend kernel: the
    /// backend workers run as separate OS processes (`mbds-backend`)
    /// reached over the checksummed TCP wire protocol, with retries,
    /// idempotent request ids and injectable network faults. The same
    /// controller the threaded kernel uses — only the transport
    /// differs.
    pub fn tcp_backend(backends: usize) -> Result<Self> {
        Ok(Mlds::with_kernel(mbds::Controller::over_tcp(
            backends,
            mbds::DEFAULT_REPLICATION.min(backends),
        )?))
    }

    /// Set how long the kernel waits for one backend reply window
    /// before demoting the backend a health step (the shell's
    /// `.timeout` path).
    pub fn set_reply_timeout(&mut self, timeout: std::time::Duration) {
        self.kernel.set_reply_timeout(timeout);
    }

    /// Set how many retransmissions the socket transport attempts
    /// inside one reply window (ignored by the lossless in-process
    /// bus).
    pub fn set_retry_budget(&mut self, budget: u32) {
        self.kernel.set_retry_budget(budget);
    }

    /// A hot standby tailing this system's write-ahead log through its
    /// own reader handle on `dir` (the directory given to
    /// [`Mlds::durable_backend`]). Keep it fresh with
    /// [`mbds::Standby::poll`]; on controller failure hand it to
    /// [`Mlds::promote`]. The shell's `.standby` path.
    pub fn standby_of(&self, dir: impl AsRef<std::path::Path>) -> Result<mbds::Standby> {
        Ok(self.kernel.standby(Box::new(mbds::FileLog::open(dir)?))?)
    }

    /// Fail over to `standby`: epoch-fenced promotion installs a new
    /// controller over the existing backends (no log replay) and the
    /// demoted kernel is dropped. Loaded schemas, caches and open
    /// sessions survive, exactly as with [`Mlds::recover_kernel`] —
    /// but warm. The shell's `.promote` path.
    pub fn promote(&mut self, standby: mbds::Standby) -> Result<()> {
        // Promote *before* replacing the kernel: the fence must rise
        // while the primary still exists, so its drop detaches from
        // the shared backend threads instead of shutting them down.
        self.kernel = standby.promote()?;
        Ok(())
    }
}

impl<K: Kernel> Mlds<K> {
    /// An MLDS over an arbitrary kernel.
    pub fn with_kernel(kernel: K) -> Self {
        Mlds { kernel, databases: Vec::new() }
    }

    /// Direct access to the kernel (KC's downstream).
    pub fn kernel_mut(&mut self) -> &mut K {
        &mut self.kernel
    }

    /// The kernel's availability view: backend count, unavailable
    /// backends, and whether any record currently has no live replica
    /// (degraded mode). A single-site kernel always reports one healthy
    /// backend.
    pub fn health(&self) -> abdl::engine::KernelHealth {
        self.kernel.health()
    }

    /// Cumulative kernel work counters — requests executed, records
    /// examined, and backend messages sent (always 0 messages on a
    /// single-site kernel). The shell's `.stats` prints these.
    pub fn exec_totals(&self) -> abdl::ExecTotals {
        self.kernel.exec_totals()
    }

    fn database(&self, db: &str) -> Option<&Database> {
        self.databases.iter().find(|d| d.schema.name() == db)
    }

    /// Names of all loaded databases: network, then functional, then
    /// relational, then hierarchical, each model in creation order.
    pub fn database_names(&self) -> Vec<&str> {
        let mut dbs: Vec<&Database> = self.databases.iter().collect();
        dbs.sort_by_key(|d| d.schema.model());
        dbs.into_iter().map(|d| d.schema.name()).collect()
    }

    /// Load a new database, auto-detecting the data model of the DDL
    /// ("the user indicates that a new database is to be created …
    /// KMS \[transforms\] the UDM-database definition into an equivalent
    /// KDM database definition"). Returns the database name.
    pub fn create_database(&mut self, ddl: &str) -> Result<String> {
        let schema = Schema::parse(ddl)?;
        let name = schema.name().to_owned();
        if self.database(&name).is_some() {
            return Err(Error::DatabaseExists(name));
        }
        schema.install(&mut NamespacedKernel::new(&mut self.kernel, &name));
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.databases.push(Database { id, schema, view: None });
        Ok(name)
    }

    /// The network schema of a loaded network database.
    pub fn network_schema(&self, db: &str) -> Option<&NetworkSchema> {
        let Schema::Network(s) = &self.database(db)?.schema else { return None };
        Some(s)
    }

    /// The functional schema of a loaded functional database.
    pub fn functional_schema(&self, db: &str) -> Option<&FunctionalSchema> {
        let Schema::Functional(s) = &self.database(db)?.schema else { return None };
        Some(s)
    }

    /// The relational schema of a loaded relational database.
    pub fn relational_schema(&self, db: &str) -> Option<&relational::RelSchema> {
        let Schema::Relational(s) = &self.database(db)?.schema else { return None };
        Some(s)
    }

    /// The hierarchical schema of a loaded hierarchical database.
    pub fn hierarchical_schema(&self, db: &str) -> Option<&dli::HierSchema> {
        let Schema::Hierarchical(s) = &self.database(db)?.schema else { return None };
        Some(s)
    }

    /// The cached transformed schema of a functional database (present
    /// after the first CODASYL connection).
    pub fn transformed_schema(&self, db: &str) -> Option<&NetworkSchema> {
        let Some(Schema::Network(s)) = &self.database(db)?.view else { return None };
        Some(s)
    }

    /// The cached reverse-transformed (functional) schema of a network
    /// database (present after the first Daplex connection).
    pub fn reversed_schema(&self, db: &str) -> Option<&FunctionalSchema> {
        let Some(Schema::Functional(s)) = &self.database(db)?.view else { return None };
        Some(s)
    }

    /// The cached relational view of a hierarchical database (present
    /// after the first SQL connection).
    pub fn sql_view(&self, db: &str) -> Option<&relational::RelSchema> {
        let Some(Schema::Relational(s)) = &self.database(db)?.view else { return None };
        Some(s)
    }

    /// The connect rule of every interface: a session of `model` binds
    /// to the database's own schema when that is its model; otherwise
    /// to the database's view, derived once, when the view has that
    /// model; otherwise there is no such database for it (and no view
    /// is derived). Answers the registration id, whether the schema is
    /// the view, and the schema.
    fn bind(&mut self, db: &str, model: Model) -> Result<(u64, bool, &Schema)> {
        let unknown = || Error::UnknownDatabase(db.to_owned());
        let d = self.databases.iter_mut().find(|d| d.schema.name() == db).ok_or_else(unknown)?;
        if d.schema.model() == model {
            return Ok((d.id, false, &d.schema));
        }
        if d.view.is_none() {
            d.view = d.schema.view(model).transpose()?;
        }
        match &d.view {
            Some(view) if view.model() == model => Ok((d.id, true, view)),
            _ => Err(unknown()),
        }
    }

    /// Open a CODASYL-DML session. LIL "first searches the existing
    /// network schemas; … if the desired database is not found …, the
    /// list of functional schemas is then searched. If the desired
    /// database is found to be an existing functional database, a
    /// mapping process is initiated in order to transform the
    /// functional schema into a network schema."
    pub fn connect_codasyl(&mut self, uid: &str, db: &str) -> Result<CodasylSession> {
        let (id, view, Schema::Network(net)) = self.bind(db, Model::Network)? else {
            unreachable!("bind answers a schema of the model asked for")
        };
        let translator =
            if view { Translator::for_functional(net.clone()) } else { Translator::for_network(net.clone()) };
        Ok(CodasylSession::new(uid, db, id, translator))
    }

    /// Open a Daplex session. Functional databases connect directly;
    /// a *network* database is reverse-transformed (once) into a
    /// functional view — the other direction of the MMDS matrix the
    /// thesis's conclusion sketches. (The member-side kernel layout
    /// makes the `AB(network)` store directly Daplex-interpretable.)
    pub fn connect_daplex(&mut self, uid: &str, db: &str) -> Result<DaplexSession> {
        let (id, _, Schema::Functional(fun)) = self.bind(db, Model::Functional)? else {
            unreachable!("bind answers a schema of the model asked for")
        };
        Ok(DaplexSession::new(uid, db, id, daplex::ab_map::Loader::new(fun.clone())))
    }

    /// Open a SQL session. Relational databases connect directly; a
    /// *hierarchical* database is exposed through a read-only
    /// relational view (the Zawis edge the thesis's conclusion cites:
    /// "accessing a hierarchical database via SQL transactions").
    pub fn connect_sql(&mut self, uid: &str, db: &str) -> Result<SqlSession> {
        let (id, _, Schema::Relational(rel)) = self.bind(db, Model::Relational)? else {
            unreachable!("bind answers a schema of the model asked for")
        };
        Ok(SqlSession::new(uid, db, id, relational::SqlTranslator::new(rel.clone())))
    }

    /// Open a DL/I session on a hierarchical database.
    pub fn connect_dli(&mut self, uid: &str, db: &str) -> Result<HierSession> {
        let (id, _, Schema::Hierarchical(hier)) = self.bind(db, Model::Hierarchical)? else {
            unreachable!("bind answers a schema of the model asked for")
        };
        Ok(HierSession::new(uid, db, id, dli::DliSession::new(hier.clone())))
    }

    /// The per-statement driver of every interface: refuse a session
    /// whose database is gone (dropped, or dropped and created anew),
    /// run the language's `step` over the kernel scoped to the
    /// database, and stamp whether the kernel answered degraded.
    fn drive(
        &mut self,
        db: &str,
        id: u64,
        step: impl FnOnce(&mut NamespacedKernel<'_, K>) -> Result<StatementOutput>,
    ) -> Result<StatementOutput> {
        if !self.databases.iter().any(|d| d.id == id) {
            return Err(Error::StaleSession(db.to_owned()));
        }
        let mut out = step(&mut NamespacedKernel::new(&mut self.kernel, db))?;
        out.degraded = self.kernel.health().degraded;
        Ok(out)
    }

    /// Execute a CODASYL-DML script (one statement per line / `;`).
    pub fn execute_codasyl(
        &mut self,
        session: &mut CodasylSession,
        script: &str,
    ) -> Result<Vec<StatementOutput>> {
        let statements = codasyl::dml::parse_statements(script)?;
        statements.iter().map(|s| self.execute_codasyl_statement(session, s)).collect()
    }

    /// Execute one parsed CODASYL-DML statement.
    pub fn execute_codasyl_statement(
        &mut self,
        session: &mut CodasylSession,
        stmt: &Statement,
    ) -> Result<StatementOutput> {
        self.drive(&session.database, session.db_id, |ns| {
            let out = session.translator.execute(&mut session.run_unit, ns, stmt)?;
            session.history.push((stmt.verb().to_owned(), out.requests.len()));
            let display = match (&out.found, out.stored_key) {
                (Some((rt, key, rec)), _) => {
                    kfs::format_network_record(session.translator.schema(), rt, *key, rec)
                }
                (None, Some(key)) => format!("stored #{key}"),
                (None, None) if out.affected > 0 => format!("{} record(s) affected", out.affected),
                _ => String::new(),
            };
            Ok(output(stmt.to_string(), stmt.verb(), &out.requests, display, out.affected))
        })
    }

    /// Execute a Daplex DML script.
    pub fn execute_daplex(
        &mut self,
        session: &mut DaplexSession,
        script: &str,
    ) -> Result<Vec<StatementOutput>> {
        use daplex::dml::Outcome;
        let statements = daplex::dml::parse_statements(script)?;
        let step = |stmt| {
            self.drive(&session.database, session.db_id, |ns| {
                let mut interp = daplex::dml::Interpreter::new(&mut session.loader, ns);
                let outcome = interp.execute(stmt)?;
                let (display, affected) = match &outcome {
                    Outcome::Rows(rows) => (kfs::format_daplex_rows(stmt, rows), rows.len()),
                    Outcome::Affected(keys) => {
                        (format!("{} entity(ies) affected", keys.len()), keys.len())
                    }
                };
                let requests = interp.take_requests();
                Ok(output(format!("{stmt:?}"), daplex_verb(stmt), &requests, display, affected))
            })
        };
        statements.iter().map(step).collect()
    }

    /// Execute a SQL script.
    pub fn execute_sql(
        &mut self,
        session: &mut SqlSession,
        script: &str,
    ) -> Result<Vec<StatementOutput>> {
        let statements = relational::dml::parse_statements(script)?;
        let step = |stmt| {
            self.drive(&session.database, session.db_id, |ns| {
                let rs = session.translator.execute(ns, stmt)?;
                let affected = rs.affected.max(rs.rows.len());
                Ok(output(format!("{stmt:?}"), sql_verb(stmt), &rs.requests, rs.to_string(), affected))
            })
        };
        statements.iter().map(step).collect()
    }

    /// Execute a DL/I call script.
    pub fn execute_dli(
        &mut self,
        session: &mut HierSession,
        script: &str,
    ) -> Result<Vec<StatementOutput>> {
        let calls = dli::calls::parse_calls(script)?;
        let step = |call| {
            self.drive(&session.database, session.db_id, |ns| {
                let res = session.session.execute(ns, call)?;
                let display = match &res.found {
                    Some((seg, key, rec)) => {
                        kfs::format_segment(session.session.schema(), seg, *key, rec)
                    }
                    None if res.affected > 0 => format!("{} segment(s) affected", res.affected),
                    None => String::new(),
                };
                Ok(output(format!("{call:?}"), call.verb(), &res.requests, display, res.affected))
            })
        };
        calls.iter().map(step).collect()
    }

    /// Drop a database: delete its kernel files' records and remove it
    /// (and its view) from the registry. Open sessions on it become
    /// stale: their next statement fails with
    /// [`Error::StaleSession`], even once a database of the same name
    /// is created anew.
    pub fn drop_database(&mut self, db: &str) -> Result<()> {
        let at = self
            .databases
            .iter()
            .position(|d| d.schema.name() == db)
            .ok_or_else(|| Error::UnknownDatabase(db.to_owned()))?;
        for file in self.databases[at].schema.files() {
            self.kernel.execute(&abdl::Request::Delete {
                query: abdl::Query::conjunction(vec![abdl::Predicate::eq(
                    abdl::FILE_ATTR,
                    abdl::Value::str(kernel_file(db, &file)),
                )]),
            })?;
        }
        self.databases.remove(at);
        Ok(())
    }

    /// Convenience: populate a loaded University functional database
    /// with the thesis's sample data.
    pub fn populate_university(&mut self, db: &str) -> Result<daplex::university::UniversityKeys> {
        let schema = self
            .functional_schema(db)
            .cloned()
            .ok_or_else(|| Error::UnknownDatabase(db.to_owned()))?;
        let mut loader = daplex::ab_map::Loader::new(schema);
        let mut ns = NamespacedKernel::new(&mut self.kernel, db);
        Ok(daplex::university::populate(&mut loader, &mut ns)?)
    }
}

/// One statement's output, before the driver stamps `degraded`.
fn output(
    statement: String,
    verb: &str,
    requests: &[abdl::Request],
    display: String,
    affected: usize,
) -> StatementOutput {
    let abdl = requests.iter().map(ToString::to_string).collect();
    StatementOutput { statement, verb: verb.to_owned(), abdl, display, affected, degraded: false }
}

fn sql_verb(stmt: &relational::dml::SqlStatement) -> &'static str {
    use relational::dml::SqlStatement::*;
    match stmt {
        Select { .. } => "SELECT",
        Insert { .. } => "INSERT",
        Update { .. } => "UPDATE",
        Delete { .. } => "DELETE",
    }
}

fn daplex_verb(stmt: &daplex::dml::DaplexStatement) -> &'static str {
    use daplex::dml::DaplexStatement::*;
    match stmt {
        ForEach { .. } => "FOR EACH",
        Create { .. } => "CREATE",
        Assign { .. } => "ASSIGN",
        Destroy { .. } => "DESTROY",
        Include { .. } => "INCLUDE",
        Exclude { .. } => "EXCLUDE",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn university_mlds() -> Mlds {
        let mut m = Mlds::single_backend();
        m.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
        m.populate_university("university").unwrap();
        m
    }

    #[test]
    fn create_database_detects_the_model() {
        let mut m = Mlds::single_backend();
        let name = m.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
        assert_eq!(name, "university");
        assert!(m.functional_schema("university").is_some());
        assert!(m.network_schema("university").is_none());

        let net = "SCHEMA NAME IS airline. RECORD NAME IS flight. 02 num TYPE IS FIXED.";
        let name = m.create_database(net).unwrap();
        assert_eq!(name, "airline");
        assert!(m.network_schema("airline").is_some());
        assert_eq!(m.database_names(), vec!["airline", "university"]);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut m = university_mlds();
        let err = m.create_database(daplex::university::UNIVERSITY_DDL).unwrap_err();
        assert!(matches!(err, Error::DatabaseExists(_)));
    }

    #[test]
    fn garbage_ddl_reports_both_parsers() {
        let mut m = Mlds::single_backend();
        let err = m.create_database("HELLO WORLD").unwrap_err();
        assert!(matches!(err, Error::UnrecognizedDdl { .. }));
    }

    #[test]
    fn codasyl_connection_to_functional_db_transforms_once() {
        let mut m = university_mlds();
        assert!(m.transformed_schema("university").is_none());
        let s1 = m.connect_codasyl("u1", "university").unwrap();
        assert!(s1.is_cross_model());
        assert!(m.transformed_schema("university").is_some());
        // Second connection reuses the cache (same schema value).
        let s2 = m.connect_codasyl("u2", "university").unwrap();
        assert_eq!(s1.schema(), s2.schema());
    }

    #[test]
    fn unknown_database_is_reported() {
        let mut m = Mlds::single_backend();
        assert!(matches!(
            m.connect_codasyl("u", "ghost"),
            Err(Error::UnknownDatabase(_))
        ));
        assert!(matches!(m.connect_daplex("u", "ghost"), Err(Error::UnknownDatabase(_))));
    }

    #[test]
    fn thesis_quickstart_transaction_end_to_end() {
        let mut m = university_mlds();
        let mut session = m.connect_codasyl("coker", "university").unwrap();
        let out = m
            .execute_codasyl(
                &mut session,
                "MOVE 'Advanced Database' TO title IN course\n\
                 FIND ANY course USING title IN course\n\
                 GET course",
            )
            .unwrap();
        assert_eq!(out.len(), 3);
        assert!(out[1].abdl[0].contains("RETRIEVE"));
        assert!(out[2].display.contains("title = 'Advanced Database'"));
        assert!(out[2].display.contains("credits = 4"));
        // KFS hides the kernel bookkeeping keywords.
        assert!(!out[2].display.contains("FILE"));
        assert!(!out[2].display.contains("system_course"));
    }

    #[test]
    fn daplex_and_codasyl_sessions_share_the_database() {
        let mut m = university_mlds();
        // Daplex user creates a student …
        let mut dap = m.connect_daplex("shipman", "university").unwrap();
        m.execute_daplex(
            &mut dap,
            "CREATE student (name := 'Newhart', age := 24, major := 'Physics');",
        )
        .unwrap();
        // … and the CODASYL user immediately sees it.
        let mut net = m.connect_codasyl("coker", "university").unwrap();
        let out = m
            .execute_codasyl(
                &mut net,
                "MOVE 'Physics' TO major IN student\nFIND ANY student USING major IN student",
            )
            .unwrap();
        assert!(out[1].display.contains("major = 'Physics'"));
        // And vice versa: the CODASYL user stores a course; the Daplex
        // user reads it.
        m.execute_codasyl(
            &mut net,
            "MOVE 'Compilers' TO title IN course\n\
             MOVE 'S88' TO semester IN course\n\
             MOVE 3 TO credits IN course\n\
             STORE course",
        )
        .unwrap();
        let rows = m
            .execute_daplex(
                &mut dap,
                "FOR EACH course SUCH THAT title(course) = 'Compilers' PRINT credits(course);",
            )
            .unwrap();
        assert!(rows[0].display.contains("credits = 3"));
    }

    #[test]
    fn native_network_database_works_alongside() {
        let mut m = university_mlds();
        m.create_database(
            "SCHEMA NAME IS airline.
             RECORD NAME IS flight.
               02 num TYPE IS FIXED.
               02 dest TYPE IS CHARACTER 20.
             SET NAME IS system_flight.
               OWNER IS SYSTEM.
               MEMBER IS flight.
               INSERTION IS AUTOMATIC.
               RETENTION IS FIXED.
               SET SELECTION IS BY APPLICATION.",
        )
        .unwrap();
        let mut s = m.connect_codasyl("pilot", "airline").unwrap();
        assert!(!s.is_cross_model());
        m.execute_codasyl(
            &mut s,
            "MOVE 101 TO num IN flight\nMOVE 'Monterey' TO dest IN flight\nSTORE flight",
        )
        .unwrap();
        let out = m
            .execute_codasyl(&mut s, "FIND FIRST flight WITHIN system_flight")
            .unwrap();
        assert!(out[0].display.contains("dest = 'Monterey'"));
    }

    #[test]
    fn runs_on_the_multi_backend_kernel() {
        let mut m = Mlds::multi_backend(4);
        m.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
        m.populate_university("university").unwrap();
        let mut s = m.connect_codasyl("u", "university").unwrap();
        let out = m
            .execute_codasyl(
                &mut s,
                "MOVE 'Advanced Database' TO title IN course\n\
                 FIND ANY course USING title IN course\nGET course",
            )
            .unwrap();
        assert!(out[2].display.contains("credits = 4"));
    }

    #[test]
    fn drop_database_clears_registry_and_data() {
        let mut m = university_mlds();
        assert!(m.kernel_mut().file_len(&crate::kernel_file("university", "student")) > 0);
        m.drop_database("university").unwrap();
        assert!(m.database_names().is_empty());
        assert_eq!(m.kernel_mut().file_len(&crate::kernel_file("university", "student")), 0);
        assert_eq!(m.kernel_mut().file_len(&crate::kernel_file("university", "LINK_1")), 0);
        assert!(matches!(
            m.connect_codasyl("u", "university"),
            Err(Error::UnknownDatabase(_))
        ));
        // The name is reusable.
        m.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
        assert!(matches!(m.drop_database("ghost"), Err(Error::UnknownDatabase(_))));
    }

    const SUPPLIERS: &str = "CREATE DATABASE suppliers;
        CREATE TABLE supplier (sno INTEGER NOT NULL, sname CHAR(20), PRIMARY KEY (sno));";
    const SCHOOL: &str = "HIERARCHY NAME IS school.
        SEGMENT department.
          02 dno TYPE IS FIXED.
          SEQUENCE IS dno.";

    /// A database dropped under open sessions leaves all four of them
    /// stale, and a database created anew under the same name is not
    /// the one they connected to: they stay stale and write nothing
    /// into it.
    #[test]
    fn sessions_on_a_dropped_database_are_stale() {
        let mut m = university_mlds();
        m.create_database(SUPPLIERS).unwrap();
        m.create_database(SCHOOL).unwrap();
        let mut cod = m.connect_codasyl("u", "university").unwrap();
        let mut dap = m.connect_daplex("u", "university").unwrap();
        let mut sql = m.connect_sql("u", "suppliers").unwrap();
        let mut dli = m.connect_dli("u", "school").unwrap();
        let store = "MOVE 'Compilers' TO title IN course\nSTORE course";
        for _ in 0..2 {
            for db in ["university", "suppliers", "school"] {
                m.drop_database(db).unwrap();
            }
            let stale = |db: &str| Err(Error::StaleSession(db.to_owned()));
            assert_eq!(m.execute_codasyl(&mut cod, store).map(|_| ()), stale("university"));
            assert_eq!(
                m.execute_daplex(&mut dap, "CREATE student (name := 'Newhart');").map(|_| ()),
                stale("university")
            );
            assert_eq!(
                m.execute_sql(&mut sql, "INSERT INTO supplier (sno) VALUES (1);").map(|_| ()),
                stale("suppliers")
            );
            assert_eq!(m.execute_dli(&mut dli, "ISRT department (dno = 1)").map(|_| ()), stale("school"));
            for ddl in [daplex::university::UNIVERSITY_DDL, SUPPLIERS, SCHOOL] {
                m.create_database(ddl).unwrap();
            }
            for (db, file) in
                [("university", "course"), ("university", "person"), ("suppliers", "supplier"), ("school", "department")]
            {
                assert_eq!(m.kernel_mut().file_len(&crate::kernel_file(db, file)), 0, "{db}.{file}");
            }
        }
        // A session opened on the new database works.
        let mut cod = m.connect_codasyl("u", "university").unwrap();
        assert!(m.execute_codasyl(&mut cod, store).unwrap()[1].display.starts_with("stored #"));
        assert_eq!(m.kernel_mut().file_len(&crate::kernel_file("university", "course")), 1);
    }

    /// A session of a model the database neither has nor has a view in
    /// finds no database, and derives no view on the way.
    #[test]
    fn a_wrong_model_connect_derives_no_view() {
        let mut m = university_mlds();
        m.create_database(SUPPLIERS).unwrap();
        m.create_database(SCHOOL).unwrap();
        m.create_database("SCHEMA NAME IS airline. RECORD NAME IS flight. 02 num TYPE IS FIXED.")
            .unwrap();
        assert_eq!(m.database_names(), vec!["airline", "university", "suppliers", "school"]);
        for (db, unknown) in [
            ("university", [m.connect_sql("u", "university").err(), m.connect_dli("u", "university").err()]),
            ("airline", [m.connect_sql("u", "airline").err(), m.connect_dli("u", "airline").err()]),
            ("school", [m.connect_codasyl("u", "school").err(), m.connect_daplex("u", "school").err()]),
        ] {
            for err in unknown {
                assert_eq!(err, Some(Error::UnknownDatabase(db.to_owned())));
            }
        }
        assert!(m.connect_dli("u", "suppliers").is_err());
        assert!(m.transformed_schema("university").is_none());
        assert!(m.reversed_schema("airline").is_none());
        assert!(m.sql_view("school").is_none());
    }

    #[test]
    fn history_records_request_fanout() {
        let mut m = university_mlds();
        let mut s = m.connect_codasyl("u", "university").unwrap();
        m.execute_codasyl(
            &mut s,
            "MOVE 'F87' TO semester IN course\nFIND ANY course USING semester IN course",
        )
        .unwrap();
        assert_eq!(s.history, vec![("MOVE".to_owned(), 0), ("FIND ANY".to_owned(), 1)]);
    }
}
