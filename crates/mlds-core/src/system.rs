//! LIL + the assembled MLDS.

use crate::error::{Error, Result};
use crate::kfs;
use crate::namespace::{kernel_file, NamespacedKernel};
use crate::session::{CodasylSession, DaplexSession, HierSession, SqlSession, StatementOutput};
use abdl::Kernel;
use codasyl::dml::Statement;
use codasyl::NetworkSchema;
use daplex::FunctionalSchema;
use std::collections::HashMap;
use translator::Translator;

/// The Multi-Lingual Database System.
///
/// Generic over its kernel database system: a single [`abdl::Store`]
/// or the multi-backend [`mbds::Controller`] (over threads, backend
/// processes or deterministic simulated backends).
pub struct Mlds<K: Kernel = abdl::Store> {
    kernel: K,
    network_dbs: Vec<NetworkSchema>,
    functional_dbs: Vec<FunctionalSchema>,
    relational_dbs: Vec<relational::RelSchema>,
    hierarchical_dbs: Vec<dli::HierSchema>,
    /// One-step transformation cache: the direct-language-interface
    /// strategy transforms a functional schema once, not per
    /// transaction.
    transformed: HashMap<String, NetworkSchema>,
    /// The reverse cache: functional views of network databases, for
    /// Daplex sessions on network data (the MMDS matrix's other
    /// direction).
    reversed: HashMap<String, FunctionalSchema>,
    /// Relational views of hierarchical databases, for SQL sessions on
    /// hierarchical data (the Zawis edge of the matrix).
    sql_views: HashMap<String, relational::RelSchema>,
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
        Mlds {
            kernel,
            network_dbs: Vec::new(),
            functional_dbs: Vec::new(),
            relational_dbs: Vec::new(),
            hierarchical_dbs: Vec::new(),
            transformed: HashMap::new(),
            reversed: HashMap::new(),
            sql_views: HashMap::new(),
        }
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

    /// Names of all loaded databases (network first, then functional —
    /// LIL's search order).
    pub fn database_names(&self) -> Vec<&str> {
        self.network_dbs
            .iter()
            .map(|s| s.name.as_str())
            .chain(self.functional_dbs.iter().map(|s| s.name.as_str()))
            .chain(self.relational_dbs.iter().map(|s| s.name.as_str()))
            .chain(self.hierarchical_dbs.iter().map(|s| s.name.as_str()))
            .collect()
    }

    fn name_taken(&self, name: &str) -> bool {
        self.network_dbs.iter().any(|s| s.name == name)
            || self.functional_dbs.iter().any(|s| s.name == name)
            || self.relational_dbs.iter().any(|s| s.name == name)
            || self.hierarchical_dbs.iter().any(|s| s.name == name)
    }

    /// Load a new database, auto-detecting the data model of the DDL
    /// ("the user indicates that a new database is to be created …
    /// KMS \[transforms\] the UDM-database definition into an equivalent
    /// KDM database definition"). Returns the database name.
    pub fn create_database(&mut self, ddl: &str) -> Result<String> {
        // The leading keyword discriminates the four DDLs of the
        // thesis's dbid_node union; fall through the parsers in order.
        match codasyl::ddl::parse_schema(ddl) {
            Ok(schema) => self.install_network(schema),
            Err(net_err) => match daplex::ddl::parse_schema(ddl) {
                Ok(schema) => self.install_functional(schema),
                Err(fun_err) => {
                    if let Ok(schema) = relational::ddl::parse_schema(ddl) {
                        return self.install_relational(schema);
                    }
                    if let Ok(schema) = dli::ddl::parse_schema(ddl) {
                        return self.install_hierarchical(schema);
                    }
                    Err(Error::UnrecognizedDdl {
                        network: net_err.to_string(),
                        functional: fun_err.to_string(),
                    })
                }
            },
        }
    }

    /// Load a new relational database from SQL DDL.
    pub fn create_relational_database(&mut self, ddl: &str) -> Result<String> {
        let schema = relational::ddl::parse_schema(ddl)?;
        self.install_relational(schema)
    }

    /// Load a new hierarchical database from a DBD.
    pub fn create_hierarchical_database(&mut self, ddl: &str) -> Result<String> {
        let schema = dli::ddl::parse_schema(ddl)?;
        self.install_hierarchical(schema)
    }

    /// Load a new network database from CODASYL DDL.
    pub fn create_network_database(&mut self, ddl: &str) -> Result<String> {
        let schema = codasyl::ddl::parse_schema(ddl)?;
        self.install_network(schema)
    }

    /// Load a new functional database from Daplex DDL.
    pub fn create_functional_database(&mut self, ddl: &str) -> Result<String> {
        let schema = daplex::ddl::parse_schema(ddl)?;
        self.install_functional(schema)
    }

    fn install_network(&mut self, schema: NetworkSchema) -> Result<String> {
        if self.name_taken(&schema.name) {
            return Err(Error::DatabaseExists(schema.name));
        }
        codasyl::ab_map::install(&schema, &mut NamespacedKernel::new(&mut self.kernel, &schema.name));
        let name = schema.name.clone();
        self.network_dbs.push(schema);
        Ok(name)
    }

    fn install_functional(&mut self, schema: FunctionalSchema) -> Result<String> {
        if self.name_taken(&schema.name) {
            return Err(Error::DatabaseExists(schema.name));
        }
        daplex::ab_map::install(&schema, &mut NamespacedKernel::new(&mut self.kernel, &schema.name));
        let name = schema.name.clone();
        self.functional_dbs.push(schema);
        Ok(name)
    }

    fn install_relational(&mut self, schema: relational::RelSchema) -> Result<String> {
        if self.name_taken(&schema.name) {
            return Err(Error::DatabaseExists(schema.name));
        }
        relational::ab_map::install(&schema, &mut NamespacedKernel::new(&mut self.kernel, &schema.name));
        let name = schema.name.clone();
        self.relational_dbs.push(schema);
        Ok(name)
    }

    fn install_hierarchical(&mut self, schema: dli::HierSchema) -> Result<String> {
        if self.name_taken(&schema.name) {
            return Err(Error::DatabaseExists(schema.name));
        }
        dli::ab_map::install(&schema, &mut NamespacedKernel::new(&mut self.kernel, &schema.name));
        let name = schema.name.clone();
        self.hierarchical_dbs.push(schema);
        Ok(name)
    }

    /// The relational schema of a loaded relational database.
    pub fn relational_schema(&self, db: &str) -> Option<&relational::RelSchema> {
        self.relational_dbs.iter().find(|s| s.name == db)
    }

    /// The hierarchical schema of a loaded hierarchical database.
    pub fn hierarchical_schema(&self, db: &str) -> Option<&dli::HierSchema> {
        self.hierarchical_dbs.iter().find(|s| s.name == db)
    }

    /// Open a SQL session. Relational databases connect directly; a
    /// *hierarchical* database is exposed through a read-only
    /// relational view (the Zawis edge the thesis's conclusion cites:
    /// "accessing a hierarchical database via SQL transactions").
    pub fn connect_sql(&mut self, uid: &str, db: &str) -> Result<SqlSession> {
        if let Some(schema) = self.relational_dbs.iter().find(|s| s.name == db).cloned() {
            return Ok(SqlSession::new(uid, db, relational::SqlTranslator::new(schema)));
        }
        if let Some(hier) = self.hierarchical_dbs.iter().find(|s| s.name == db).cloned() {
            let view = match self.sql_views.get(db) {
                Some(v) => v.clone(),
                None => {
                    let v = transform::relational_view(&hier)
                        .map_err(|e| Error::Transform(e.to_string()))?;
                    self.sql_views.insert(db.to_owned(), v.clone());
                    v
                }
            };
            return Ok(SqlSession::new(uid, db, relational::SqlTranslator::new(view)));
        }
        Err(Error::UnknownDatabase(db.to_owned()))
    }

    /// The cached relational view of a hierarchical database (present
    /// after the first SQL connection).
    pub fn sql_view(&self, db: &str) -> Option<&relational::RelSchema> {
        self.sql_views.get(db)
    }

    /// Open a DL/I session on a hierarchical database.
    pub fn connect_dli(&mut self, uid: &str, db: &str) -> Result<HierSession> {
        let schema = self
            .hierarchical_dbs
            .iter()
            .find(|s| s.name == db)
            .cloned()
            .ok_or_else(|| Error::UnknownDatabase(db.to_owned()))?;
        Ok(HierSession::new(uid, db, dli::DliSession::new(schema)))
    }

    /// Execute a SQL script.
    pub fn execute_sql(
        &mut self,
        session: &mut SqlSession,
        script: &str,
    ) -> Result<Vec<StatementOutput>> {
        let statements = relational::dml::parse_statements(script)?;
        let mut out = Vec::with_capacity(statements.len());
        for stmt in &statements {
            let mut ns = NamespacedKernel::new(&mut self.kernel, &session.database);
            let rs = session.translator.execute(&mut ns, stmt)?;
            out.push(StatementOutput {
                statement: format!("{stmt:?}"),
                verb: sql_verb(stmt).to_owned(),
                abdl: rs.requests.iter().map(ToString::to_string).collect(),
                display: rs.to_string(),
                affected: rs.affected.max(rs.rows.len()),
                degraded: self.kernel.health().degraded,
            });
        }
        Ok(out)
    }

    /// Execute a DL/I call script.
    pub fn execute_dli(
        &mut self,
        session: &mut HierSession,
        script: &str,
    ) -> Result<Vec<StatementOutput>> {
        let calls = dli::calls::parse_calls(script)?;
        let mut out = Vec::with_capacity(calls.len());
        for call in &calls {
            let mut ns = NamespacedKernel::new(&mut self.kernel, &session.database);
            let res = session.session.execute(&mut ns, call)?;
            let display = match &res.found {
                Some((seg, key, rec)) => {
                    let fields = session
                        .session
                        .schema()
                        .segment(seg)
                        .map(|sg| {
                            sg.fields
                                .iter()
                                .map(|f| format!("{} = {}", f.name, rec.get_or_null(&f.name)))
                                .collect::<Vec<_>>()
                                .join(", ")
                        })
                        .unwrap_or_default();
                    format!("{seg} #{key} ( {fields} )")
                }
                None if res.affected > 0 => format!("{} segment(s) affected", res.affected),
                None => String::new(),
            };
            out.push(StatementOutput {
                statement: format!("{call:?}"),
                verb: call.verb().to_owned(),
                abdl: res.requests.iter().map(ToString::to_string).collect(),
                display,
                affected: res.affected,
                degraded: self.kernel.health().degraded,
            });
        }
        Ok(out)
    }

    /// The functional schema of a loaded functional database.
    pub fn functional_schema(&self, db: &str) -> Option<&FunctionalSchema> {
        self.functional_dbs.iter().find(|s| s.name == db)
    }

    /// The network schema of a loaded network database.
    pub fn network_schema(&self, db: &str) -> Option<&NetworkSchema> {
        self.network_dbs.iter().find(|s| s.name == db)
    }

    /// The cached transformed schema of a functional database (present
    /// after the first CODASYL connection).
    pub fn transformed_schema(&self, db: &str) -> Option<&NetworkSchema> {
        self.transformed.get(db)
    }

    /// Open a CODASYL-DML session. LIL "first searches the existing
    /// network schemas; … if the desired database is not found …, the
    /// list of functional schemas is then searched. If the desired
    /// database is found to be an existing functional database, a
    /// mapping process is initiated in order to transform the
    /// functional schema into a network schema."
    pub fn connect_codasyl(&mut self, uid: &str, db: &str) -> Result<CodasylSession> {
        if let Some(schema) = self.network_dbs.iter().find(|s| s.name == db) {
            return Ok(CodasylSession::new(uid, db, Translator::for_network(schema.clone())));
        }
        if let Some(schema) = self.functional_dbs.iter().find(|s| s.name == db).cloned() {
            let net = match self.transformed.get(db) {
                Some(net) => net.clone(),
                None => {
                    let net = transform::transform(&schema)
                        .map_err(|e| Error::Transform(e.to_string()))?;
                    self.transformed.insert(db.to_owned(), net.clone());
                    net
                }
            };
            return Ok(CodasylSession::new(uid, db, Translator::for_functional(net)));
        }
        Err(Error::UnknownDatabase(db.to_owned()))
    }

    /// Open a Daplex session. Functional databases connect directly;
    /// a *network* database is reverse-transformed (once) into a
    /// functional view — the other direction of the MMDS matrix the
    /// thesis's conclusion sketches. (The member-side kernel layout
    /// makes the `AB(network)` store directly Daplex-interpretable.)
    pub fn connect_daplex(&mut self, uid: &str, db: &str) -> Result<DaplexSession> {
        if let Some(schema) = self.functional_dbs.iter().find(|s| s.name == db).cloned() {
            return Ok(DaplexSession::new(uid, db, daplex::ab_map::Loader::new(schema)));
        }
        if let Some(net) = self.network_dbs.iter().find(|s| s.name == db).cloned() {
            let fun = match self.reversed.get(db) {
                Some(fun) => fun.clone(),
                None => {
                    let fun = transform::reverse(&net)
                        .map_err(|e| Error::Transform(e.to_string()))?;
                    self.reversed.insert(db.to_owned(), fun.clone());
                    fun
                }
            };
            return Ok(DaplexSession::new(uid, db, daplex::ab_map::Loader::new(fun)));
        }
        Err(Error::UnknownDatabase(db.to_owned()))
    }

    /// The cached reverse-transformed (functional) schema of a network
    /// database (present after the first Daplex connection).
    pub fn reversed_schema(&self, db: &str) -> Option<&FunctionalSchema> {
        self.reversed.get(db)
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
        let mut ns = NamespacedKernel::new(&mut self.kernel, &session.database);
        let out = session.translator.execute(&mut session.run_unit, &mut ns, stmt)?;
        session.record_history(stmt, &out);
        let display = match (&out.found, out.stored_key) {
            (Some((rt, key, rec)), _) => {
                kfs::format_network_record(session.translator.schema(), rt, *key, rec)
            }
            (None, Some(key)) => format!("stored #{key}"),
            (None, None) if out.affected > 0 => format!("{} record(s) affected", out.affected),
            _ => String::new(),
        };
        Ok(StatementOutput {
            statement: stmt.to_string(),
            verb: stmt.verb().to_owned(),
            abdl: out.requests.iter().map(ToString::to_string).collect(),
            display,
            affected: out.affected,
            degraded: self.kernel.health().degraded,
        })
    }

    /// Execute a Daplex DML script.
    pub fn execute_daplex(
        &mut self,
        session: &mut DaplexSession,
        script: &str,
    ) -> Result<Vec<StatementOutput>> {
        let statements = daplex::dml::parse_statements(script)?;
        let mut outputs = Vec::with_capacity(statements.len());
        for stmt in &statements {
            let (outcome, requests) = {
                let mut ns = NamespacedKernel::new(&mut self.kernel, &session.database);
                let mut interp = daplex::dml::Interpreter::new(&mut session.loader, &mut ns);
                (interp.execute(stmt)?, interp.take_requests())
            };
            let display = match &outcome {
                daplex::dml::Outcome::Rows(rows) => {
                    let print: Vec<String> = match stmt {
                        daplex::dml::DaplexStatement::ForEach { print, .. } => print
                            .iter()
                            .map(|path| {
                                // Render `f` for plain functions and
                                // `f(g(x))` for composed paths.
                                if path.len() == 1 {
                                    return path[0].clone();
                                }
                                let mut s = String::new();
                                for p in path {
                                    s.push_str(p);
                                    s.push('(');
                                }
                                s.push('x');
                                s.push_str(&")".repeat(path.len()));
                                s
                            })
                            .collect(),
                        _ => Vec::new(),
                    };
                    rows.iter()
                        .map(|r| kfs::format_daplex_row(&print, &r.values))
                        .collect::<Vec<_>>()
                        .join("\n")
                }
                daplex::dml::Outcome::Affected(keys) => {
                    format!("{} entity(ies) affected", keys.len())
                }
            };
            let affected = match &outcome {
                daplex::dml::Outcome::Affected(keys) => keys.len(),
                daplex::dml::Outcome::Rows(rows) => rows.len(),
            };
            outputs.push(StatementOutput {
                statement: format!("{stmt:?}"),
                verb: daplex_verb(stmt).to_owned(),
                abdl: requests.iter().map(ToString::to_string).collect(),
                display,
                affected,
                degraded: self.kernel.health().degraded,
            });
        }
        Ok(outputs)
    }

    /// Drop a database: remove its schema from the registry (and the
    /// transformation cache) and delete its kernel files' records.
    /// Open sessions on it become stale.
    pub fn drop_database(&mut self, db: &str) -> Result<()> {
        let files: Vec<String> = if let Some(s) = self.network_schema(db) {
            s.records.iter().map(|r| r.name.clone()).collect()
        } else if let Some(s) = self.functional_schema(db) {
            let mut f: Vec<String> =
                s.entity_like_names().iter().map(|n| (*n).to_owned()).collect();
            f.extend(s.m2m_pairs().into_iter().map(|p| p.link));
            f
        } else if let Some(s) = self.relational_schema(db) {
            s.tables.iter().map(|t| t.name.clone()).collect()
        } else if let Some(s) = self.hierarchical_schema(db) {
            s.segments.iter().map(|seg| seg.name.clone()).collect()
        } else {
            return Err(Error::UnknownDatabase(db.to_owned()));
        };
        for file in files {
            self.kernel.execute(&abdl::Request::Delete {
                query: abdl::Query::conjunction(vec![abdl::Predicate::eq(
                    abdl::FILE_ATTR,
                    abdl::Value::str(kernel_file(db, &file)),
                )]),
            })?;
        }
        self.network_dbs.retain(|s| s.name != db);
        self.functional_dbs.retain(|s| s.name != db);
        self.relational_dbs.retain(|s| s.name != db);
        self.hierarchical_dbs.retain(|s| s.name != db);
        self.transformed.remove(db);
        self.reversed.remove(db);
        self.sql_views.remove(db);
        Ok(())
    }

    /// Convenience: populate a loaded University functional database
    /// with the thesis's sample data.
    pub fn populate_university(&mut self, db: &str) -> Result<daplex::university::UniversityKeys> {
        let schema = self
            .functional_dbs
            .iter()
            .find(|s| s.name == db)
            .cloned()
            .ok_or_else(|| Error::UnknownDatabase(db.to_owned()))?;
        let mut loader = daplex::ab_map::Loader::new(schema);
        let mut ns = NamespacedKernel::new(&mut self.kernel, db);
        Ok(daplex::university::populate(&mut loader, &mut ns)?)
    }
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
