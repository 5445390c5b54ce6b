//! A Daplex DML subset — the MLDS functional language interface.
//!
//! The thesis builds on the existing Daplex interface of MLDS (Refs 19,
//! 21); this module provides that substrate: a small Daplex-flavoured
//! manipulation language translated onto the `AB(functional)` kernel
//! layout. Statements:
//!
//! ```text
//! FOR EACH student SUCH THAT major(student) = 'Computer Science'
//!     PRINT name(student), gpa(student);
//! CREATE student (name := 'Jones', age := 21, major := 'CS');
//! ASSIGN gpa(student) := 3.9 SUCH THAT name(student) = 'Jones';
//! DESTROY student SUCH THAT name(student) = 'Jones';
//! INCLUDE course SUCH THAT title(course) = 'DB'
//!     IN teaching(faculty) SUCH THAT ename(faculty) = 'Hsiao';
//! EXCLUDE course SUCH THAT title(course) = 'DB'
//!     IN teaching(faculty) SUCH THAT ename(faculty) = 'Hsiao';
//! ```
//!
//! Predicates compare *scalar* functions (own or inherited) against
//! literals; inherited functions transparently join through the
//! ancestor files on the shared artificial key.

use crate::ab_map::{entity_query, fn_storage, FnStorage, Loader};
use crate::error::{Error, Result};
use crate::names;
use crate::schema::FunctionalSchema;
use crate::DIALECT;
use abdl::parse::{Cursor, Tok};
use abdl::{Conjunction, Kernel, Predicate, Query, RelOp, Request, TargetList, Value, FILE_ATTR};
use std::collections::BTreeSet;
use std::fmt;

/// A predicate `f1(f2(…(var)…)) relop literal` — Daplex's function
/// composition. `path` is outermost-first: `dname(dept(faculty))` is
/// `["dname", "dept"]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FnPredicate {
    /// The applied function path, outermost first (length ≥ 1).
    pub path: Vec<String>,
    /// Relational operator.
    pub op: RelOp,
    /// Literal compared against.
    pub value: Value,
}

impl FnPredicate {
    /// The outermost (scalar) function of the path.
    pub fn function(&self) -> &str {
        &self.path[0]
    }
}

impl fmt::Display for FnPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.path {
            write!(f, "{p}(")?;
        }
        write!(f, "x")?;
        for _ in &self.path {
            write!(f, ")")?;
        }
        write!(f, " {} {}", self.op, self.value)
    }
}

/// One entity designator: a type plus a (possibly empty) SUCH THAT
/// conjunction.
#[derive(Debug, Clone, PartialEq)]
pub struct Designator {
    /// The entity type or subtype ranged over.
    pub entity: String,
    /// Conjoined predicates (empty = every entity of the type).
    pub predicates: Vec<FnPredicate>,
}

/// A Daplex DML statement.
#[derive(Debug, Clone, PartialEq)]
pub enum DaplexStatement {
    /// `FOR EACH d PRINT f1(x), …, fn(x);` — print items may be
    /// composed paths like `dname(dept(x))`.
    ForEach {
        /// What to iterate.
        designator: Designator,
        /// Function paths printed per entity (outermost first).
        print: Vec<Vec<String>>,
    },
    /// `CREATE type (f1 := v1, …);`
    Create {
        /// Entity type created.
        entity: String,
        /// Function assignments.
        values: Vec<(String, Value)>,
    },
    /// `ASSIGN f(type) := v SUCH THAT …;`
    Assign {
        /// Target designator (the type carries the SUCH THAT).
        designator: Designator,
        /// Function assigned.
        function: String,
        /// New value.
        value: Value,
    },
    /// `DESTROY d;`
    Destroy {
        /// What to destroy.
        designator: Designator,
    },
    /// `INCLUDE member-designator IN f(owner-type) SUCH THAT …;`
    Include {
        /// The entity being included (the function's argument side
        /// resolves through [`Loader::link`]).
        member: Designator,
        /// The multi-valued (or single-valued) function.
        function: String,
        /// The entity whose function set gains the member.
        owner: Designator,
    },
    /// `EXCLUDE member-designator IN f(owner-type) SUCH THAT …;`
    Exclude {
        /// The entity being excluded.
        member: Designator,
        /// The function.
        function: String,
        /// The entity whose function set loses the member.
        owner: Designator,
    },
}

/// One row of FOR EACH output: the entity key plus the printed values
/// (set-valued functions print every value, comma-joined).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The entity's artificial key.
    pub key: i64,
    /// Printed values, in PRINT order.
    pub values: Vec<Value>,
}

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// FOR EACH rows.
    Rows(Vec<Row>),
    /// Keys affected by CREATE/ASSIGN/DESTROY/INCLUDE/EXCLUDE.
    Affected(Vec<i64>),
}

// ----- parsing -------------------------------------------------------

/// Parse a sequence of Daplex DML statements.
pub fn parse_statements(src: &str) -> Result<Vec<DaplexStatement>> {
    let mut c = Cursor::new(src, &DIALECT)?;
    let mut out = Vec::new();
    c.eat_semis();
    while !c.at_eof() {
        out.push(parse_statement(&mut c)?);
        c.eat_semis();
    }
    Ok(out)
}

fn parse_statement(c: &mut Cursor) -> Result<DaplexStatement> {
    if c.eat_kw("FOR") {
        c.expect_kw("EACH")?;
        let designator = parse_designator(c)?;
        c.expect_kw("PRINT")?;
        let print = parse_fn_list(c)?;
        c.expect_tok(Tok::Semi, "`;`")?;
        return Ok(DaplexStatement::ForEach { designator, print });
    }
    if c.eat_kw("CREATE") {
        let entity = c.name("entity type")?;
        c.expect_tok(Tok::LParen, "`(` opening assignments")?;
        let mut values = Vec::new();
        loop {
            let f = c.name("function name")?;
            c.expect_tok(Tok::Assign, "`:=`")?;
            values.push((f, parse_literal(c)?));
            if !c.eat(Tok::Comma) {
                break;
            }
        }
        c.expect_tok(Tok::RParen, "`)` closing assignments")?;
        c.expect_tok(Tok::Semi, "`;`")?;
        return Ok(DaplexStatement::Create { entity, values });
    }
    if c.eat_kw("ASSIGN") {
        let function = c.name("function name")?;
        c.expect_tok(Tok::LParen, "`(`")?;
        let entity = c.name("entity type")?;
        c.expect_tok(Tok::RParen, "`)`")?;
        c.expect_tok(Tok::Assign, "`:=`")?;
        let value = parse_literal(c)?;
        let predicates = parse_such_that(c, &entity)?;
        c.expect_tok(Tok::Semi, "`;`")?;
        return Ok(DaplexStatement::Assign {
            designator: Designator { entity, predicates },
            function,
            value,
        });
    }
    if c.eat_kw("DESTROY") {
        let designator = parse_designator(c)?;
        c.expect_tok(Tok::Semi, "`;`")?;
        return Ok(DaplexStatement::Destroy { designator });
    }
    let include = if c.eat_kw("INCLUDE") {
        true
    } else if c.eat_kw("EXCLUDE") {
        false
    } else {
        return Err(c.err(format!(
            "expected FOR EACH, CREATE, ASSIGN, DESTROY, INCLUDE or EXCLUDE, found {:?}",
            c.peek()
        )));
    };
    let member = parse_designator(c)?;
    c.expect_kw("IN")?;
    let function = c.name("function name")?;
    c.expect_tok(Tok::LParen, "`(`")?;
    let owner_entity = c.name("entity type")?;
    c.expect_tok(Tok::RParen, "`)`")?;
    let owner_preds = parse_such_that(c, &owner_entity)?;
    c.expect_tok(Tok::Semi, "`;`")?;
    let owner = Designator { entity: owner_entity, predicates: owner_preds };
    Ok(if include {
        DaplexStatement::Include { member, function, owner }
    } else {
        DaplexStatement::Exclude { member, function, owner }
    })
}

fn parse_designator(c: &mut Cursor) -> Result<Designator> {
    let entity = c.name("entity type")?;
    let predicates = parse_such_that(c, &entity)?;
    Ok(Designator { entity, predicates })
}

fn parse_such_that(c: &mut Cursor, entity: &str) -> Result<Vec<FnPredicate>> {
    if !c.eat_kw("SUCH") {
        return Ok(Vec::new());
    }
    c.expect_kw("THAT")?;
    let mut preds = Vec::new();
    loop {
        // A function path: f1(f2(…(var)…)).
        let mut path = vec![c.name("function name")?];
        c.expect_tok(Tok::LParen, "`(`")?;
        let mut depth = 1usize;
        loop {
            let word = c.name("function name or entity variable")?;
            if c.eat(Tok::LParen) {
                depth += 1;
                path.push(word);
                continue;
            }
            // Innermost word is the entity variable.
            if word != entity {
                return Err(c.err(format!(
                    "predicate variable `{word}` does not match designator type `{entity}`"
                )));
            }
            break;
        }
        for _ in 0..depth {
            c.expect_tok(Tok::RParen, "`)`")?;
        }
        let tok = c.bump();
        let op = tok.relop().ok_or_else(|| {
            c.err::<Error>(format!("expected relational operator, found {tok:?}"))
        })?;
        let value = parse_literal(c)?;
        preds.push(FnPredicate { path, op, value });
        if !c.eat_kw("AND") {
            break;
        }
    }
    Ok(preds)
}

fn parse_fn_list(c: &mut Cursor) -> Result<Vec<Vec<String>>> {
    let mut out = Vec::new();
    loop {
        let mut path = vec![c.name("function name")?];
        // Optional (possibly nested) application syntax: f(g(var)).
        if c.eat(Tok::LParen) {
            let mut depth = 1usize;
            loop {
                let word = c.name("function name or entity variable")?;
                if c.eat(Tok::LParen) {
                    depth += 1;
                    path.push(word);
                } else {
                    break; // innermost word is the entity variable
                }
            }
            for _ in 0..depth {
                c.expect_tok(Tok::RParen, "`)`")?;
            }
        }
        out.push(path);
        if !c.eat(Tok::Comma) {
            break;
        }
    }
    Ok(out)
}

fn parse_literal(c: &mut Cursor) -> Result<Value> {
    for boolean in ["true", "false"] {
        if c.eat_kw(boolean) {
            return Ok(Value::str(boolean));
        }
    }
    Ok(c.literal("literal")?)
}

/// Render a multi-valued path result as a single display value (one
/// value stays itself; several join comma-separated, like set-valued
/// read_function results).
fn join_values(mut vals: Vec<Value>) -> Value {
    match vals.len() {
        0 => Value::Null,
        1 => vals.pop().expect("one value"),
        _ => Value::Str(
            vals.iter()
                .map(|v| match v {
                    Value::Str(s) => s.clone(),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join(", "),
        ),
    }
}

// ----- execution -----------------------------------------------------

/// Keys per key-equality disjunction when `resolve` checks that seed
/// keys drawn from an ancestor's file belong to the designator's own
/// file: one request per this many keys.
const MEMBERSHIP_CHUNK: usize = 64;

/// A kernel view that logs every request it forwards, so a statement
/// can report the ABDL it issued (as the CODASYL KMS reports
/// `StepOutput::requests`).
struct Logged<'a, K: Kernel> {
    inner: &'a mut K,
    requests: Vec<Request>,
}

impl<K: Kernel> Kernel for Logged<'_, K> {
    fn create_file(&mut self, name: &str) {
        self.inner.create_file(name);
    }

    fn add_unique_constraint(&mut self, file: &str, attrs: Vec<String>) {
        self.inner.add_unique_constraint(file, attrs);
    }

    fn reserve_key(&mut self) -> abdl::DbKey {
        self.inner.reserve_key()
    }

    fn execute(&mut self, request: &Request) -> abdl::Result<abdl::Response> {
        self.requests.push(request.clone());
        self.inner.execute(request)
    }

    fn health(&self) -> abdl::KernelHealth {
        self.inner.health()
    }

    fn exec_totals(&self) -> abdl::ExecTotals {
        self.inner.exec_totals()
    }
}

/// The Daplex DML interpreter: resolves designators to entity keys on
/// the `AB(functional)` store and applies [`Loader`] operations.
pub struct Interpreter<'a, K: Kernel> {
    loader: &'a mut Loader,
    store: Logged<'a, K>,
}

impl<'a, K: Kernel> Interpreter<'a, K> {
    /// Wrap a loader and its kernel.
    pub fn new(loader: &'a mut Loader, store: &'a mut K) -> Self {
        Interpreter { loader, store: Logged { inner: store, requests: Vec::new() } }
    }

    /// The ABDL requests issued since the last call, in execution
    /// order (auxiliary retrievals included).
    pub fn take_requests(&mut self) -> Vec<Request> {
        std::mem::take(&mut self.store.requests)
    }

    /// Execute one statement.
    pub fn execute(&mut self, stmt: &DaplexStatement) -> Result<Outcome> {
        match stmt {
            DaplexStatement::ForEach { designator, print } => {
                let keys = self.resolve(designator)?;
                let mut rows = Vec::with_capacity(keys.len());
                for key in keys {
                    let mut values = Vec::with_capacity(print.len());
                    for path in print {
                        if path.len() == 1 {
                            values.push(self.read_function(&designator.entity, key, &path[0])?);
                        } else {
                            let vals = self.path_values(&designator.entity, key, path)?;
                            values.push(join_values(vals));
                        }
                    }
                    rows.push(Row { key, values });
                }
                Ok(Outcome::Rows(rows))
            }
            DaplexStatement::Create { entity, values } => {
                let pairs: Vec<(&str, Value)> =
                    values.iter().map(|(f, v)| (f.as_str(), v.clone())).collect();
                let key = self.loader.create_entity(&mut self.store, entity, &pairs)?;
                Ok(Outcome::Affected(vec![key]))
            }
            DaplexStatement::Assign { designator, function, value } => {
                let keys = self.resolve(designator)?;
                for &key in &keys {
                    self.loader.set_function(
                        &mut self.store,
                        &designator.entity,
                        key,
                        function,
                        value.clone(),
                    )?;
                }
                Ok(Outcome::Affected(keys))
            }
            DaplexStatement::Destroy { designator } => {
                let keys = self.resolve(designator)?;
                for &key in &keys {
                    self.loader.destroy(&mut self.store, &designator.entity, key)?;
                }
                Ok(Outcome::Affected(keys))
            }
            DaplexStatement::Include { member, function, owner } => {
                self.in_or_exclude(member, function, owner, true)
            }
            DaplexStatement::Exclude { member, function, owner } => {
                self.in_or_exclude(member, function, owner, false)
            }
        }
    }

    fn in_or_exclude(
        &mut self,
        member: &Designator,
        function: &str,
        owner: &Designator,
        include: bool,
    ) -> Result<Outcome> {
        let member_keys = self.resolve(member)?;
        let owner_keys = self.resolve(owner)?;
        // `INCLUDE m IN f(o)`: `f` is usually declared on `o` (a
        // set-valued function), but for set-derived single-valued
        // functions (reverse-transformed network sets) it lives on the
        // member and ranges over `o` — accept both orientations.
        let schema = self.loader.schema();
        let on_owner = schema.function(&owner.entity, function).is_some();
        let on_member = !on_owner
            && schema
                .function(&member.entity, function)
                .is_some_and(|f| schema.entity_range(f) == Some(owner.entity.as_str()));
        if !on_owner && !on_member {
            return Err(Error::UnknownFunction {
                entity: owner.entity.clone(),
                function: function.to_owned(),
            });
        }
        let mut affected = Vec::new();
        for &o in &owner_keys {
            for &m in &member_keys {
                let (ty, from, to) = if on_owner {
                    (&owner.entity, o, m)
                } else {
                    (&member.entity, m, o)
                };
                if include {
                    self.loader.link(&mut self.store, ty, from, function, to)?;
                } else {
                    self.loader.unlink(&mut self.store, ty, from, function, to)?;
                }
                affected.push(m);
            }
        }
        Ok(Outcome::Affected(affected))
    }

    /// Resolve a designator to the sorted set of matching entity keys.
    ///
    /// Set-at-a-time, cheapest equivalent translation first:
    /// 1. each single-function predicate becomes one kernel retrieve on
    ///    the file declaring the function, filtered through the
    ///    kernel's directory index; the key sets are intersected (and
    ///    the rest skipped once the intersection is empty);
    /// 2. when none of those files is the designator's own (a
    ///    subtype ranged over by supertype functions, `name(student)`),
    ///    the seed keys are checked against the designator's file with
    ///    key-equality disjunctions of [`MEMBERSHIP_CHUNK`] keys;
    /// 3. composed-path predicates are evaluated last, per surviving
    ///    entity.
    ///
    /// Only a designator without single-function predicates scans its
    /// whole file.
    pub fn resolve(&mut self, d: &Designator) -> Result<Vec<i64>> {
        let schema = self.loader.schema();
        schema.require_entity_like(&d.entity)?;
        let mut indexed = Vec::new();
        let mut composed = Vec::new();
        for pred in &d.predicates {
            if pred.path.len() == 1 {
                indexed.push((predicate_file(schema, &d.entity, pred)?, pred));
            } else {
                composed.push(pred);
            }
        }
        let mut keys = if indexed.is_empty() {
            keys_in_file(&mut self.store, &d.entity, None)?
        } else {
            let mut seed: Option<BTreeSet<i64>> = None;
            for (file, pred) in &indexed {
                if seed.as_ref().is_some_and(BTreeSet::is_empty) {
                    break;
                }
                let p = Predicate::new(pred.function().to_owned(), pred.op, pred.value.clone());
                let matching = keys_in_file(&mut self.store, file, Some(p))?;
                seed = Some(match seed {
                    None => matching,
                    Some(s) => s.intersection(&matching).copied().collect(),
                });
            }
            let seed = seed.unwrap_or_default();
            if indexed.iter().any(|(file, _)| *file == d.entity) {
                seed
            } else {
                keys_among(&mut self.store, &d.entity, &seed)?
            }
        };
        for pred in composed {
            // Function composition: evaluate the path per entity;
            // set-valued steps are existential ("some related entity
            // satisfies").
            let mut surviving = BTreeSet::new();
            for &k in &keys {
                let values = self.path_values(&d.entity, k, &pred.path)?;
                if values.iter().any(|v| pred.op.eval(v, &pred.value)) {
                    surviving.insert(k);
                }
            }
            keys = surviving;
        }
        Ok(keys.into_iter().collect())
    }

    /// Evaluate a function path (outermost first) on one entity: the
    /// entity-valued inner steps are followed through the kernel, then
    /// the outermost function's value(s) are returned. Set-valued steps
    /// fan out (all related entities contribute).
    pub fn path_values(&mut self, entity: &str, key: i64, path: &[String]) -> Result<Vec<Value>> {
        let mut ty = entity.to_owned();
        let mut keys = vec![key];
        // Inner steps (innermost first): all must be entity-valued.
        for f in path.iter().skip(1).rev() {
            let mut next_ty = None;
            let mut next_keys = BTreeSet::new();
            for &k in &keys {
                let (target, related) = self.related_keys(&ty, k, f)?;
                next_ty = Some(target);
                next_keys.extend(related);
            }
            match next_ty {
                Some(t) => {
                    ty = t;
                    keys = next_keys.into_iter().collect();
                }
                None => {
                    // No entities left to follow; resolve the target
                    // type for the remaining steps anyway.
                    let schema = self.loader.schema();
                    let func = schema.require_function(&ty, f)?;
                    ty = schema
                        .entity_range(func)
                        .ok_or_else(|| Error::UnknownFunction {
                            entity: ty.clone(),
                            function: f.clone(),
                        })?
                        .to_owned();
                    keys = Vec::new();
                }
            }
        }
        let mut out = Vec::new();
        for &k in &keys {
            out.extend(self.scalar_values(&ty, k, &path[0])?);
        }
        Ok(out)
    }

    /// Follow an entity-valued function from one entity: returns the
    /// target entity type and the related keys.
    fn related_keys(&mut self, entity: &str, key: i64, function: &str) -> Result<(String, Vec<i64>)> {
        let schema = self.loader.schema();
        let f = schema.require_function(entity, function)?;
        let range = schema
            .entity_range(f)
            .ok_or_else(|| Error::ValueOutOfRange {
                function: function.to_owned(),
                got: format!("#{key}"),
                why: "inner path steps must be entity-valued".into(),
            })?
            .to_owned();
        let (query, attr) = match fn_storage(schema, entity, f)? {
            FnStorage::MemberAttr { file, .. } => (entity_query(&file, key), function.to_owned()),
            FnStorage::RangeMemberAttr { file, .. } => {
                let q = Query::conjunction(vec![
                    Predicate::eq(FILE_ATTR, Value::str(file.clone())),
                    Predicate::eq(function.to_owned(), Value::Int(key)),
                ]);
                (q, names::key_attr(&file).to_owned())
            }
            FnStorage::Link { pair } => {
                let (own_attr, other_attr) = if pair.left_function == function {
                    (pair.left_function, pair.right_function)
                } else {
                    (pair.right_function, pair.left_function)
                };
                let q = Query::conjunction(vec![
                    Predicate::eq(FILE_ATTR, Value::str(pair.link)),
                    Predicate::eq(own_attr, Value::Int(key)),
                ]);
                (q, other_attr)
            }
            other => {
                return Err(Error::ValueOutOfRange {
                    function: function.to_owned(),
                    got: format!("#{key}"),
                    why: format!("inner path steps must be entity-valued (storage {other:?})"),
                })
            }
        };
        let resp = self.store.execute(&retrieve(query, &attr)).map_err(Error::Kernel)?;
        let keys: BTreeSet<i64> = resp
            .records()
            .iter()
            .filter_map(|(_, r)| r.get(&attr).and_then(Value::as_int))
            .collect();
        Ok((range, keys.into_iter().collect()))
    }

    /// All raw values of a function on one entity (repeated records of
    /// scalar multi-valued functions each contribute; entity-valued
    /// functions yield the related entity keys as integers).
    fn scalar_values(&mut self, entity: &str, key: i64, function: &str) -> Result<Vec<Value>> {
        let schema = self.loader.schema();
        let f = schema.require_function(entity, function)?;
        match fn_storage(schema, entity, f)? {
            FnStorage::ScalarAttr { file }
            | FnStorage::ScalarMultiAttr { file }
            | FnStorage::MemberAttr { file, .. } => {
                let resp = self
                    .store
                    .execute(&retrieve(entity_query(&file, key), function))
                    .map_err(Error::Kernel)?;
                let mut vals: Vec<Value> = Vec::new();
                for (_, r) in resp.records() {
                    let v = r.get_or_null(function).clone();
                    if !v.is_null() && !vals.contains(&v) {
                        vals.push(v);
                    }
                }
                Ok(vals)
            }
            FnStorage::RangeMemberAttr { .. } | FnStorage::Link { .. } => {
                let (_, keys) = self.related_keys(entity, key, function)?;
                Ok(keys.into_iter().map(Value::Int).collect())
            }
        }
    }

    /// Read a function's value(s) for an entity: scalars read from the
    /// declaring file (joining through the hierarchy); scalar
    /// multi-valued functions return their values comma-joined;
    /// entity-valued functions return the related entity key(s).
    pub fn read_function(&mut self, entity: &str, key: i64, function: &str) -> Result<Value> {
        let schema = self.loader.schema();
        let f = schema.require_function(entity, function)?;
        match fn_storage(schema, entity, f)? {
            FnStorage::ScalarAttr { file } | FnStorage::MemberAttr { file, .. } => {
                let resp = self
                    .store
                    .execute(&retrieve(entity_query(&file, key), function))
                    .map_err(Error::Kernel)?;
                Ok(resp
                    .records()
                    .first()
                    .map(|(_, r)| r.get_or_null(function).clone())
                    .unwrap_or(Value::Null))
            }
            FnStorage::ScalarMultiAttr { file } => {
                let resp = self
                    .store
                    .execute(&retrieve(entity_query(&file, key), function))
                    .map_err(Error::Kernel)?;
                let mut vals: Vec<String> = resp
                    .records()
                    .iter()
                    .filter_map(|(_, r)| {
                        let v = r.get_or_null(function);
                        (!v.is_null()).then(|| match v {
                            Value::Str(s) => s.clone(),
                            other => other.to_string(),
                        })
                    })
                    .collect();
                vals.sort();
                vals.dedup();
                Ok(Value::Str(vals.join(", ")))
            }
            FnStorage::RangeMemberAttr { .. } | FnStorage::Link { .. } => {
                let (_, keys) = self.related_keys(entity, key, function)?;
                Ok(Value::Str(
                    keys.iter().map(|k| format!("#{k}")).collect::<Vec<_>>().join(", "),
                ))
            }
        }
    }
}

/// A RETRIEVE of `query` projected to the one attribute the caller
/// reads.
fn retrieve(query: Query, attr: &str) -> Request {
    Request::Retrieve { query, target: TargetList::attrs([attr]), by: None }
}

/// The kernel file a single-function predicate filters: the file
/// declaring the function (an ancestor's for inherited functions).
fn predicate_file(schema: &FunctionalSchema, entity: &str, pred: &FnPredicate) -> Result<String> {
    let f = schema.require_function(entity, pred.function())?;
    match fn_storage(schema, entity, f)? {
        FnStorage::ScalarAttr { file }
        | FnStorage::ScalarMultiAttr { file }
        | FnStorage::MemberAttr { file, .. } => Ok(file),
        other => Err(Error::ValueOutOfRange {
            function: pred.function().to_owned(),
            got: pred.value.to_string(),
            why: format!("cannot apply predicates to storage {other:?}"),
        }),
    }
}

/// Keys of entities in `file` (repeated records deduplicated),
/// optionally restricted by a predicate.
fn keys_in_file<K: Kernel>(
    store: &mut K,
    file: &str,
    pred: Option<Predicate>,
) -> Result<BTreeSet<i64>> {
    let mut q = Query::conjunction(vec![Predicate::eq(FILE_ATTR, Value::str(file))]);
    if let Some(p) = pred {
        q = q.and_predicate(p);
    }
    key_set(store, file, q)
}

/// The subset of `keys` present in `file`: one retrieve per
/// [`MEMBERSHIP_CHUNK`] keys, each a disjunction of key equalities.
fn keys_among<K: Kernel>(store: &mut K, file: &str, keys: &BTreeSet<i64>) -> Result<BTreeSet<i64>> {
    let keys: Vec<i64> = keys.iter().copied().collect();
    let mut out = BTreeSet::new();
    for chunk in keys.chunks(MEMBERSHIP_CHUNK) {
        let q = Query::new(
            chunk
                .iter()
                .map(|&k| {
                    Conjunction::new(vec![
                        Predicate::eq(FILE_ATTR, Value::str(file)),
                        Predicate::eq(names::key_attr(file).to_owned(), Value::Int(k)),
                    ])
                })
                .collect(),
        );
        out.extend(key_set(store, file, q)?);
    }
    Ok(out)
}

/// The distinct entity keys of `file`'s records matching `query`.
fn key_set<K: Kernel>(store: &mut K, file: &str, query: Query) -> Result<BTreeSet<i64>> {
    let attr = names::key_attr(file);
    let resp = store.execute(&retrieve(query, attr)).map_err(Error::Kernel)?;
    Ok(resp
        .records()
        .iter()
        .filter_map(|(_, r)| r.get(attr).and_then(Value::as_int))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::university;

    fn run(src: &str) -> (Vec<Outcome>, Loader, abdl::Store) {
        let (mut loader, mut store, _) = university::sample_database().unwrap();
        let stmts = parse_statements(src).unwrap();
        let mut outcomes = Vec::new();
        {
            let mut interp = Interpreter::new(&mut loader, &mut store);
            for s in &stmts {
                outcomes.push(interp.execute(s).unwrap());
            }
        }
        (outcomes, loader, store)
    }

    #[test]
    fn non_ascii_literal_decodes_as_utf8() {
        let stmts = parse_statements("CREATE student (name := 'Müller');").unwrap();
        let [DaplexStatement::Create { values, .. }] = &stmts[..] else { panic!("{stmts:?}") };
        assert_eq!(values, &vec![("name".to_owned(), Value::str("Müller"))]);
    }

    #[test]
    fn for_each_filters_and_prints_with_inheritance() {
        let (outcomes, _, _) = run(
            "FOR EACH student SUCH THAT major(student) = 'Computer Science' \
             PRINT name(student), gpa(student);",
        );
        let Outcome::Rows(rows) = &outcomes[0] else { panic!("expected rows") };
        assert_eq!(rows.len(), 3, "Coker, Rodeck, Zawis");
        // `name` is inherited from person; values must resolve.
        let names: Vec<&Value> = rows.iter().map(|r| &r.values[0]).collect();
        assert!(names.contains(&&Value::str("Coker")));
        assert!(names.iter().all(|v| !v.is_null()));
    }

    #[test]
    fn predicates_on_inherited_functions_join_through_ancestors() {
        let (outcomes, _, _) = run(
            "FOR EACH student SUCH THAT age(student) >= 27 PRINT name(student);",
        );
        let Outcome::Rows(rows) = &outcomes[0] else { panic!("expected rows") };
        assert_eq!(rows.len(), 2, "Coker (28) and Rodeck (27)");
    }

    #[test]
    fn create_assign_destroy_lifecycle() {
        let (outcomes, _, store) = run(
            "CREATE student (name := 'Jones', age := 22, major := 'History', gpa := 2.9);\
             ASSIGN gpa(student) := 3.1 SUCH THAT name(student) = 'Jones';\
             FOR EACH student SUCH THAT name(student) = 'Jones' PRINT gpa(student);\
             DESTROY student SUCH THAT name(student) = 'Jones';",
        );
        let Outcome::Affected(created) = &outcomes[0] else { panic!("expected keys") };
        assert_eq!(created.len(), 1);
        let Outcome::Rows(rows) = &outcomes[2] else { panic!("expected rows") };
        assert_eq!(rows[0].values[0], Value::Float(3.1));
        let Outcome::Affected(destroyed) = &outcomes[3] else { panic!("expected keys") };
        assert_eq!(destroyed, created);
        assert_eq!(store.file_len("student"), 4, "back to the original four");
    }

    #[test]
    fn scalar_multi_valued_prints_all_values() {
        let (outcomes, _, _) = run(
            "FOR EACH faculty SUCH THAT ename(faculty) = 'Hsiao' PRINT degrees(faculty);",
        );
        let Outcome::Rows(rows) = &outcomes[0] else { panic!("expected rows") };
        assert_eq!(rows.len(), 1, "repeated records deduplicate to one entity");
        assert_eq!(rows[0].values[0], Value::str("BS, PhD"));
    }

    #[test]
    fn include_and_exclude_maintain_link_pairs() {
        let (outcomes, _, store) = run(
            "INCLUDE course SUCH THAT title(course) = 'Linear Algebra' \
                 IN teaching(faculty) SUCH THAT ename(faculty) = 'Hsiao';\
             FOR EACH faculty SUCH THAT ename(faculty) = 'Hsiao' PRINT teaching(faculty);\
             EXCLUDE course SUCH THAT title(course) = 'Linear Algebra' \
                 IN teaching(faculty) SUCH THAT ename(faculty) = 'Hsiao';",
        );
        assert!(matches!(&outcomes[0], Outcome::Affected(k) if k.len() == 1));
        let Outcome::Rows(rows) = &outcomes[1] else { panic!("expected rows") };
        // Hsiao now teaches 3 courses.
        let taught = rows[0].values[0].as_str().unwrap();
        assert_eq!(taught.split(", ").count(), 3);
        assert_eq!(store.file_len("LINK_1"), 5, "back to five pairs after EXCLUDE");
    }

    #[test]
    fn destroy_referenced_entity_is_aborted() {
        let (mut loader, mut store, _) = university::sample_database().unwrap();
        let stmts =
            parse_statements("DESTROY faculty SUCH THAT ename(faculty) = 'Hsiao';").unwrap();
        let mut interp = Interpreter::new(&mut loader, &mut store);
        let err = interp.execute(&stmts[0]).unwrap_err();
        assert!(matches!(err, Error::DestroyReferenced { .. }));
    }

    #[test]
    fn function_composition_follows_single_valued_paths() {
        // Students whose advisor works in the Computer Science
        // department: dname(dept(advisor(student))).
        let (outcomes, _, _) = run(
            "FOR EACH student SUCH THAT dname(dept(advisor(student))) = 'Computer Science' \
             PRINT name(student);",
        );
        let Outcome::Rows(rows) = &outcomes[0] else { panic!("expected rows") };
        // Coker & Zawis (advisor Hsiao, CS) and Rodeck (advisor Lum, CS).
        assert_eq!(rows.len(), 3, "{rows:?}");
    }

    #[test]
    fn function_composition_is_existential_over_sets() {
        // Faculty teaching a 3-credit course: credits(teaching(faculty)).
        let (outcomes, _, _) = run(
            "FOR EACH faculty SUCH THAT credits(teaching(faculty)) = 3 \
             PRINT ename(faculty);",
        );
        let Outcome::Rows(rows) = &outcomes[0] else { panic!("expected rows") };
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!(rows[0].values[0], Value::str("Marshall"));
    }

    #[test]
    fn composition_through_inverse_m2m_side() {
        // Courses taught by a full professor: rank(taught_by(course)).
        let (outcomes, _, _) = run(
            "FOR EACH course SUCH THAT rank(taught_by(course)) = 'full' \
             PRINT title(course);",
        );
        let Outcome::Rows(rows) = &outcomes[0] else { panic!("expected rows") };
        let titles: Vec<&Value> = rows.iter().map(|r| &r.values[0]).collect();
        // Hsiao (full) teaches Advanced Database + Database Design;
        // Marshall (full) teaches Linear Algebra.
        assert_eq!(rows.len(), 3, "{titles:?}");
    }

    #[test]
    fn composition_rejects_scalar_inner_step() {
        let (mut loader, mut store, _) = university::sample_database().unwrap();
        let stmts = parse_statements(
            "FOR EACH student SUCH THAT name(gpa(student)) = 'x' PRINT name(student);",
        )
        .unwrap();
        let mut interp = Interpreter::new(&mut loader, &mut store);
        assert!(interp.execute(&stmts[0]).is_err());
    }

    #[test]
    fn print_accepts_composed_paths() {
        let (outcomes, _, _) = run(
            "FOR EACH student SUCH THAT name(student) = 'Coker' \
             PRINT name(student), dname(dept(advisor(student)));",
        );
        let Outcome::Rows(rows) = &outcomes[0] else { panic!("expected rows") };
        assert_eq!(rows[0].values[0], Value::str("Coker"));
        assert_eq!(rows[0].values[1], Value::str("Computer Science"));
    }

    #[test]
    fn print_path_over_sets_joins_values() {
        let (outcomes, _, _) = run(
            "FOR EACH faculty SUCH THAT ename(faculty) = 'Hsiao' \
             PRINT title(teaching(faculty));",
        );
        let Outcome::Rows(rows) = &outcomes[0] else { panic!("expected rows") };
        let v = rows[0].values[0].as_str().unwrap();
        assert!(v.contains("Advanced Database") && v.contains("Database Design"), "{v}");
    }

    /// The scan-first resolution `resolve` replaced, kept as its
    /// equivalence oracle: start from every key of the designator's
    /// file, then filter predicate by predicate in written order.
    fn resolve_by_scan<K: Kernel>(
        interp: &mut Interpreter<'_, K>,
        d: &Designator,
    ) -> Result<Vec<i64>> {
        interp.loader.schema().require_entity_like(&d.entity)?;
        let mut keys = keys_in_file(&mut interp.store, &d.entity, None)?;
        for pred in &d.predicates {
            if pred.path.len() == 1 {
                let file = predicate_file(interp.loader.schema(), &d.entity, pred)?;
                let p = Predicate::new(pred.function().to_owned(), pred.op, pred.value.clone());
                let matching = keys_in_file(&mut interp.store, &file, Some(p))?;
                keys.retain(|k| matching.contains(k));
            } else {
                let mut surviving = BTreeSet::new();
                for &k in &keys {
                    let values = interp.path_values(&d.entity, k, &pred.path)?;
                    if values.iter().any(|v| pred.op.eval(v, &pred.value)) {
                        surviving.insert(k);
                    }
                }
                keys = surviving;
            }
        }
        Ok(keys.into_iter().collect())
    }

    /// Students enrolled beyond the sample four: enough that an
    /// unselective predicate spans several membership chunks.
    const EXTRA_STUDENTS: usize = 150;

    /// The sample University plus `EXTRA_STUDENTS` students named
    /// `s_{i}` and plain persons (no student record) named like some of
    /// them, so a supertype predicate's seed holds non-members.
    fn grown_university<K: Kernel>(mut kernel: K) -> (Loader, K) {
        let schema = university::schema();
        crate::ab_map::install(&schema, &mut kernel);
        let mut loader = Loader::new(schema);
        let keys = university::populate(&mut loader, &mut kernel).unwrap();
        let majors = ["Computer Science", "Mathematics", "History"];
        for i in 0..EXTRA_STUDENTS {
            let k = loader
                .create_entity(
                    &mut kernel,
                    "student",
                    &[
                        ("name", Value::str(format!("s_{i}"))),
                        ("age", Value::Int(18 + (i % 23) as i64)),
                        ("major", Value::str(majors[i % majors.len()])),
                        ("gpa", Value::Float(2.0 + (i % 20) as f64 / 10.0)),
                    ],
                )
                .unwrap();
            let advisor = keys.faculty[i % keys.faculty.len()];
            loader.link(&mut kernel, "student", k, "advisor", advisor).unwrap();
        }
        for i in (0..EXTRA_STUDENTS).step_by(7) {
            loader
                .create_entity(
                    &mut kernel,
                    "person",
                    &[
                        ("name", Value::str(format!("s_{i}"))),
                        ("age", Value::Int(30 + (i % 40) as i64)),
                    ],
                )
                .unwrap();
        }
        (loader, kernel)
    }

    /// A random predicate over `entity`: supertype and subtype
    /// functions, composed paths, hitting and missing values, and
    /// unselective comparisons.
    fn random_predicate(rng: &mut abdl::prng::Prng, entity: &str) -> FnPredicate {
        let pred = |path: &[&str], op: RelOp, value: Value| FnPredicate {
            path: path.iter().map(|p| (*p).to_owned()).collect(),
            op,
            value,
        };
        let ops = [RelOp::Eq, RelOp::Ne, RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge];
        let op = ops[rng.index(ops.len())];
        let name = match rng.index(4) {
            0 => Value::str("Coker"),
            1 => Value::str("nobody"),
            _ => Value::str(format!("s_{}", rng.index(EXTRA_STUDENTS + 10))),
        };
        let pick = |rng: &mut abdl::prng::Prng, values: &[&str]| {
            Value::str(values[rng.index(values.len())])
        };
        match (entity, rng.index(6)) {
            ("student" | "person", 0) => pred(&["name"], RelOp::Eq, name),
            ("student" | "person", 1) => pred(&["age"], op, Value::Int(rng.gen_range(15, 45))),
            ("student" | "person", 2) => pred(&["name"], RelOp::Ne, Value::str("nobody")),
            ("student", 3) => {
                let m = pick(rng, &["Computer Science", "Mathematics", "History", "Music"]);
                pred(&["major"], RelOp::Eq, m)
            }
            ("student", 4) => pred(&["gpa"], op, Value::Float(1.5 + rng.index(30) as f64 / 10.0)),
            ("student", _) => {
                let d = pick(rng, &["Computer Science", "Mathematics", "Nowhere"]);
                pred(&["dname", "dept", "advisor"], RelOp::Eq, d)
            }
            ("person", _) => pred(&["age"], RelOp::Ge, Value::Int(18)),
            ("faculty", 0) => pred(&["degrees"], RelOp::Eq, pick(rng, &["PhD", "BS", "MA"])),
            ("faculty", 1) => {
                pred(&["rank"], RelOp::Eq, pick(rng, &["full", "associate", "assistant"]))
            }
            ("faculty", 2) => {
                pred(&["salary"], op, Value::Float(rng.gen_range(55_000, 70_000) as f64))
            }
            ("faculty", 3) => pred(&["ename"], RelOp::Eq, pick(rng, &["Hsiao", "Lum", "Baker"])),
            ("faculty", _) => pred(&["credits", "teaching"], op, Value::Int(rng.gen_range(2, 6))),
            (_, 0 | 1) => pred(&["credits"], op, Value::Int(rng.gen_range(2, 6))),
            (_, 2 | 3) => pred(&["title"], RelOp::Eq, pick(rng, &["Linear Algebra", "Compilers"])),
            (_, _) => pred(&["rank", "taught_by"], RelOp::Eq, Value::str("full")),
        }
    }

    /// Seeded designators with 0–3 predicates agree with the scan-first
    /// oracle, key for key, on `kernel`.
    fn resolve_matches_scan_first<K: Kernel>(kernel: K, seed: u64) {
        let (mut loader, mut kernel) = grown_university(kernel);
        let mut interp = Interpreter::new(&mut loader, &mut kernel);
        let mut rng = abdl::prng::Prng::seed_from_u64(seed);
        let entities = ["student", "student", "student", "person", "faculty", "course"];
        let (mut hits, mut misses) = (0, 0);
        for case in 0..60 {
            let entity = entities[rng.index(entities.len())];
            let predicates =
                (0..rng.index(4)).map(|_| random_predicate(&mut rng, entity)).collect();
            let d = Designator { entity: entity.to_owned(), predicates };
            let got = interp.resolve(&d).unwrap();
            let want = resolve_by_scan(&mut interp, &d).unwrap();
            assert_eq!(got, want, "case {case}: {d:?}");
            if got.is_empty() {
                misses += 1;
            } else {
                hits += 1;
            }
        }
        assert!(hits >= 10 && misses >= 5, "seed {seed}: {hits} hits, {misses} misses");
        // The unselective supertype predicate spans several chunks and
        // drops the plain persons named like students.
        let all = Designator {
            entity: "student".into(),
            predicates: vec![FnPredicate {
                path: vec!["name".into()],
                op: RelOp::Ne,
                value: Value::str(""),
            }],
        };
        assert_eq!(interp.resolve(&all).unwrap().len(), 4 + EXTRA_STUDENTS);
        const { assert!(4 + EXTRA_STUDENTS > 2 * MEMBERSHIP_CHUNK) };
        // Malformed designators still fail, whichever resolution runs.
        for bad in [
            "FOR EACH student SUCH THAT ghost(student) = 1 PRINT name(student);",
            "FOR EACH faculty SUCH THAT teaching(faculty) = 1 PRINT ename(faculty);",
            "FOR EACH ghost SUCH THAT name(ghost) = 'x' PRINT name(ghost);",
        ] {
            let [DaplexStatement::ForEach { designator, .. }] = &parse_statements(bad).unwrap()[..]
            else {
                panic!("{bad}")
            };
            assert!(interp.resolve(designator).is_err(), "{bad}");
            assert!(resolve_by_scan(&mut interp, designator).is_err(), "{bad}");
        }
    }

    #[test]
    fn resolve_matches_scan_first_on_a_store() {
        for seed in [1, 2, 3] {
            resolve_matches_scan_first(abdl::Store::new(), seed);
        }
    }

    #[test]
    fn resolve_matches_scan_first_on_a_replicated_controller() {
        let cluster = || mbds::Controller::simulated(4, 2, mbds::CostModel::default());
        for seed in [1, 2] {
            resolve_matches_scan_first(cluster(), seed);
        }
    }

    #[test]
    fn supertype_predicate_checks_membership_instead_of_scanning() {
        let (mut loader, mut store, keys) = university::sample_database().unwrap();
        let mut interp = Interpreter::new(&mut loader, &mut store);
        // A plain person who shares a student's name.
        let stmts = parse_statements(
            "CREATE person (name := 'Coker', age := 40);\
             FOR EACH student SUCH THAT name(student) = 'Coker' PRINT major(student);",
        )
        .unwrap();
        interp.execute(&stmts[0]).unwrap();
        interp.take_requests();
        let Outcome::Rows(rows) = interp.execute(&stmts[1]).unwrap() else { panic!("rows") };
        assert_eq!(rows.iter().map(|r| r.key).collect::<Vec<_>>(), vec![keys.students[0]]);
        let issued: Vec<String> = interp.take_requests().iter().map(ToString::to_string).collect();
        assert_eq!(issued.len(), 3, "seed, membership, one read: {issued:?}");
        let seed = "RETRIEVE ((FILE = 'person') and (name = 'Coker')) (person)";
        assert_eq!(issued[0], seed, "{issued:?}");
        let membership = "RETRIEVE (((FILE = 'student') and (student = ";
        assert!(issued[1].starts_with(membership), "{issued:?}");
        let scan = "RETRIEVE ((FILE = 'student')) ";
        assert!(issued.iter().all(|r| !r.starts_with(scan)), "{issued:?}");
    }

    #[test]
    fn parse_rejects_variable_mismatch() {
        assert!(parse_statements(
            "FOR EACH student SUCH THAT major(course) = 'CS' PRINT name(student);"
        )
        .is_err());
    }
}
