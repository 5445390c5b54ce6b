//! Statement-by-statement translation (the KMS mapping of Chapter VI).

use crate::error::{Error, Result};
use crate::run_unit::{Rb, RunUnit};
use abdl::{Kernel, Modifier, Predicate, Query, Record, Request, Response, Value, FILE_ATTR};
use codasyl::ab_map::{coerce, key_attr, SYSTEM_OWNER_KEY};
use codasyl::dml::{GetSpec, Position, Statement};
use codasyl::schema::{Insertion, NetworkSchema, Owner, Retention, SetOrigin, SetType};

/// Which kernel layout the translation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetMode {
    /// A native network database in the `AB(network)` layout (the Emdi
    /// baseline translation).
    AbNetwork,
    /// A functional database in the `AB(functional)` layout, accessed
    /// through its transformed network schema (the thesis's modified
    /// translation).
    AbFunctional,
}

/// What one executed statement produced.
#[derive(Debug, Clone, Default)]
pub struct StepOutput {
    /// The ABDL requests generated (auxiliary retrievals included), in
    /// execution order.
    pub requests: Vec<Request>,
    /// The record located (FIND) or delivered (GET): record type,
    /// entity key, and its kernel representative.
    pub found: Option<(String, i64, Record)>,
    /// Records affected by a mutation (STORE/CONNECT/DISCONNECT/
    /// MODIFY/ERASE).
    pub affected: usize,
    /// The entity key assigned by a STORE.
    pub stored_key: Option<i64>,
}

/// The KMS: translates CODASYL-DML statements into ABDL requests and
/// executes them against a kernel.
#[derive(Debug, Clone)]
pub struct Translator {
    schema: NetworkSchema,
    mode: TargetMode,
}

impl Translator {
    /// A translator for a native network database.
    pub fn for_network(schema: NetworkSchema) -> Self {
        Translator { schema, mode: TargetMode::AbNetwork }
    }

    /// A translator for a transformed functional database.
    pub fn for_functional(schema: NetworkSchema) -> Self {
        Translator { schema, mode: TargetMode::AbFunctional }
    }

    /// Choose the mode from the schema's provenance metadata.
    pub fn auto(schema: NetworkSchema) -> Self {
        let mode = if schema.is_transformed() {
            TargetMode::AbFunctional
        } else {
            TargetMode::AbNetwork
        };
        Translator { schema, mode }
    }

    /// The network schema the translator operates over.
    pub fn schema(&self) -> &NetworkSchema {
        &self.schema
    }

    /// The target mode.
    pub fn mode(&self) -> TargetMode {
        self.mode
    }

    /// Execute one statement on behalf of a run-unit.
    pub fn execute<K: Kernel>(
        &self,
        ru: &mut RunUnit,
        kernel: &mut K,
        stmt: &Statement,
    ) -> Result<StepOutput> {
        match stmt {
            Statement::Move { value, item, record } => self.exec_move(ru, record, item, value),
            Statement::FindAny { record, items } => self.find_any(ru, kernel, record, items),
            Statement::FindCurrent { record, set } => self.find_current(ru, record, set),
            Statement::FindDuplicate { set, items, record } => {
                self.find_duplicate(ru, set, items, record)
            }
            Statement::FindPosition { pos, record, set } => {
                self.find_position(ru, kernel, *pos, record, set)
            }
            Statement::FindOwner { set } => self.find_owner(ru, kernel, set),
            Statement::FindWithinCurrent { record, set, items } => {
                self.find_within_current(ru, kernel, record, set, items)
            }
            Statement::Get { spec } => self.get(ru, kernel, spec),
            Statement::Store { record } => self.store(ru, kernel, record),
            Statement::Connect { record, sets } => self.connect(ru, kernel, record, sets),
            Statement::Disconnect { record, sets } => self.disconnect(ru, kernel, record, sets),
            Statement::ModifyRecord { record } => self.modify(ru, kernel, record, None),
            Statement::ModifyItems { items, record } => {
                self.modify(ru, kernel, record, Some(items))
            }
            Statement::Erase { record, all } => self.erase(ru, kernel, record, *all),
        }
    }

    // ----- helpers ----------------------------------------------------

    fn run<K: Kernel>(
        &self,
        kernel: &mut K,
        out: &mut StepOutput,
        req: Request,
    ) -> Result<Response> {
        let resp = kernel.execute(&req)?;
        out.requests.push(req);
        Ok(resp)
    }

    /// Deduplicate a retrieval into (key, representative record) rows.
    /// In `AB(functional)` an entity with scalar multi-valued functions
    /// is several kernel records under one entity key; navigation and
    /// currency address the entity, not the copies.
    /// The sort is stable, so each key keeps its first-returned record
    /// as representative; only the representatives are copied.
    fn rows(&self, record_type: &str, resp: &Response) -> Vec<(i64, Record)> {
        let mut rows: Vec<(i64, &Record)> = resp
            .records()
            .iter()
            .filter_map(|(_, rec)| {
                Some((rec.get(key_attr(record_type)).and_then(Value::as_int)?, rec))
            })
            .collect();
        rows.sort_by_key(|(k, _)| *k);
        rows.dedup_by_key(|(k, _)| *k);
        rows.into_iter().map(|(k, rec)| (k, rec.clone())).collect()
    }

    /// The current of the run-unit, checked to be of `record_type`.
    fn run_unit_of(&self, ru: &RunUnit, record_type: &str) -> Result<i64> {
        let cur = ru
            .cit
            .run_unit()
            .ok_or_else(|| Error::NoCurrency { what: "run-unit".to_owned() })?;
        if cur.record != record_type {
            return Err(Error::WrongRunUnitType {
                expected: record_type.to_owned(),
                actual: cur.record.clone(),
            });
        }
        Ok(cur.key)
    }

    /// Query addressing all kernel records of an entity.
    fn entity_query(&self, record_type: &str, key: i64) -> Query {
        Query::conjunction(vec![
            Predicate::eq(FILE_ATTR, Value::str(record_type)),
            Predicate::eq(key_attr(record_type).to_owned(), Value::Int(key)),
        ])
    }

    /// Update every currency a freshly found record establishes.
    fn establish_currency(&self, ru: &mut RunUnit, record_type: &str, key: i64, rec: &Record) {
        ru.cit.make_current(record_type, key);
        for set in self.schema.sets_with_member(record_type) {
            if let Some(owner) = rec.get(&set.name).and_then(Value::as_int) {
                ru.cit.set_member(&set.name, owner, record_type, key);
            }
        }
        for set in self.schema.sets_with_owner(record_type) {
            ru.cit.set_owner(&set.name, key);
        }
    }

    /// The current occurrence owner key of a set (SYSTEM sets own the
    /// single occurrence `SYSTEM_OWNER_KEY`).
    fn occurrence_owner(&self, ru: &RunUnit, set: &SetType) -> Result<i64> {
        match &set.owner {
            Owner::System => Ok(SYSTEM_OWNER_KEY),
            Owner::Record(_) => ru
                .cit
                .set(&set.name)
                .and_then(|sc| sc.owner_key)
                .ok_or_else(|| Error::NoCurrency { what: format!("set {}", set.name) }),
        }
    }

    /// Retrieve the member rows of a set occurrence.
    fn retrieve_occurrence<K: Kernel>(
        &self,
        kernel: &mut K,
        out: &mut StepOutput,
        set: &SetType,
        owner_key: i64,
    ) -> Result<Vec<(i64, Record)>> {
        let query = Query::conjunction(vec![
            Predicate::eq(FILE_ATTR, Value::str(set.member.clone())),
            Predicate::eq(set.name.clone(), Value::Int(owner_key)),
        ]);
        let resp = self.run(kernel, out, Request::retrieve_all(query))?;
        Ok(self.rows(&set.member, &resp))
    }

    // ----- MOVE ---------------------------------------------------------

    fn exec_move(
        &self,
        ru: &mut RunUnit,
        record: &str,
        item: &str,
        value: &Value,
    ) -> Result<StepOutput> {
        let rt = self.schema.require_record(record)?;
        rt.require_attr(item)?;
        ru.uwa.set(record, item, value.clone());
        Ok(StepOutput::default())
    }

    // ----- FIND ANY (§VI.B.1) --------------------------------------------

    fn find_any<K: Kernel>(
        &self,
        ru: &mut RunUnit,
        kernel: &mut K,
        record: &str,
        items: &[String],
    ) -> Result<StepOutput> {
        let rt = self.schema.require_record(record)?;
        let mut predicates = vec![Predicate::eq(FILE_ATTR, Value::str(record))];
        for item in items {
            rt.require_attr(item)?;
            predicates.push(Predicate::eq(item.clone(), ru.uwa.get(record, item)));
        }
        let mut out = StepOutput::default();
        let resp =
            self.run(kernel, &mut out, Request::retrieve_all(Query::conjunction(predicates)))?;
        let rows = self.rows(record, &resp);
        if rows.is_empty() {
            return Err(Error::EndOfSet { set: format!("FIND ANY {record}") });
        }
        let (key, rec) = rows[0].clone();
        ru.rb_record.insert(record.to_owned(), Rb { rows, pos: Some(0) });
        self.establish_currency(ru, record, key, &rec);
        out.found = Some((record.to_owned(), key, rec));
        Ok(out)
    }

    // ----- FIND CURRENT (§VI.B.2) ------------------------------------------

    fn find_current(&self, ru: &mut RunUnit, record: &str, set: &str) -> Result<StepOutput> {
        let s = self.schema.require_set(set)?;
        if s.member != record {
            return Err(Error::NotMember { record: record.to_owned(), set: set.to_owned() });
        }
        let member = ru
            .cit
            .set(set)
            .and_then(|sc| sc.member.clone())
            .ok_or_else(|| Error::NoCurrency { what: format!("set {set}") })?;
        // "The only function of this statement is to update CIT."
        ru.cit.set_run_unit(&member.record, member.key);
        Ok(StepOutput::default())
    }

    // ----- FIND DUPLICATE WITHIN (§VI.B.3) -----------------------------------

    fn find_duplicate(
        &self,
        ru: &mut RunUnit,
        set: &str,
        items: &[String],
        record: &str,
    ) -> Result<StepOutput> {
        let s = self.schema.require_set(set)?;
        if s.member != record {
            return Err(Error::NotMember { record: record.to_owned(), set: set.to_owned() });
        }
        let rt = self.schema.require_record(record)?;
        for item in items {
            rt.require_attr(item)?;
        }
        // "A basic assumption is that the requested records have
        // previously been located by another FIND and are therefore
        // already resident in RB."
        let rb = ru
            .rb_set
            .get(set)
            .ok_or_else(|| Error::NoCurrency { what: format!("set {set} (no RB)") })?;
        let Some(pos) = rb.pos else {
            return Err(Error::NoCurrency { what: format!("set {set} (no current member)") });
        };
        let current = rb.rows[pos].1.clone();
        let next = rb.rows.iter().enumerate().skip(pos + 1).find(|(_, (_, rec))| {
            items.iter().all(|i| rec.get_or_null(i) == current.get_or_null(i))
        });
        let Some((new_pos, (key, rec))) = next else {
            return Err(Error::EndOfSet { set: set.to_owned() });
        };
        let (key, rec) = (*key, rec.clone());
        let owner = self.occurrence_owner(ru, s)?;
        ru.rb_set.get_mut(set).expect("checked above").pos = Some(new_pos);
        self.establish_currency(ru, record, key, &rec);
        ru.cit.set_member(set, owner, record, key);
        Ok(StepOutput {
            found: Some((record.to_owned(), key, rec)),
            ..StepOutput::default()
        })
    }

    // ----- FIND FIRST/LAST/NEXT/PRIOR (§VI.B.4) ------------------------------

    fn find_position<K: Kernel>(
        &self,
        ru: &mut RunUnit,
        kernel: &mut K,
        pos: Position,
        record: &str,
        set: &str,
    ) -> Result<StepOutput> {
        let s = self.schema.require_set(set)?.clone();
        if s.member != record {
            return Err(Error::NotMember { record: record.to_owned(), set: set.to_owned() });
        }
        let owner = self.occurrence_owner(ru, &s)?;
        let mut out = StepOutput::default();

        let refresh = matches!(pos, Position::First | Position::Last) || !ru.rb_set.contains_key(set);
        if refresh {
            let rows = self.retrieve_occurrence(kernel, &mut out, &s, owner)?;
            // Preserve the navigation position across a refresh by
            // re-locating the current member.
            let cur_key = ru.cit.set(set).and_then(|sc| sc.member.as_ref()).map(|m| m.key);
            let pos0 = cur_key.and_then(|k| rows.iter().position(|(key, _)| *key == k));
            ru.rb_set.insert(set.to_owned(), Rb { rows, pos: pos0 });
        }
        let rb = ru.rb_set.get(set).expect("inserted above");
        if rb.rows.is_empty() {
            return Err(Error::EndOfSet { set: set.to_owned() });
        }
        let new_pos = match (pos, rb.pos) {
            (Position::First, _) => 0,
            (Position::Last, _) => rb.rows.len() - 1,
            (Position::Next, None) => 0,
            (Position::Next, Some(p)) => {
                if p + 1 >= rb.rows.len() {
                    return Err(Error::EndOfSet { set: set.to_owned() });
                }
                p + 1
            }
            (Position::Prior, None) => rb.rows.len() - 1,
            (Position::Prior, Some(p)) => {
                if p == 0 {
                    return Err(Error::EndOfSet { set: set.to_owned() });
                }
                p - 1
            }
        };
        let (key, rec) = rb.rows[new_pos].clone();
        ru.rb_set.get_mut(set).expect("present").pos = Some(new_pos);
        self.establish_currency(ru, record, key, &rec);
        ru.cit.set_member(set, owner, record, key);
        out.found = Some((record.to_owned(), key, rec));
        Ok(out)
    }

    // ----- FIND OWNER (§VI.B.5) ------------------------------------------

    fn find_owner<K: Kernel>(
        &self,
        ru: &mut RunUnit,
        kernel: &mut K,
        set: &str,
    ) -> Result<StepOutput> {
        let s = self.schema.require_set(set)?.clone();
        let Owner::Record(owner_type) = &s.owner else {
            return Err(Error::SystemOwned { set: set.to_owned() });
        };
        let owner_key = ru
            .cit
            .set(set)
            .and_then(|sc| sc.owner_key)
            .ok_or_else(|| Error::NoCurrency { what: format!("set {set}") })?;
        let mut out = StepOutput::default();
        let resp = self.run(
            kernel,
            &mut out,
            Request::retrieve_all(self.entity_query(owner_type, owner_key)),
        )?;
        let rows = self.rows(owner_type, &resp);
        let Some((key, rec)) = rows.first().cloned() else {
            return Err(Error::EndOfSet { set: set.to_owned() });
        };
        self.establish_currency(ru, owner_type, key, &rec);
        out.found = Some((owner_type.clone(), key, rec));
        Ok(out)
    }

    // ----- FIND WITHIN CURRENT (§VI.B.6) -----------------------------------

    fn find_within_current<K: Kernel>(
        &self,
        ru: &mut RunUnit,
        kernel: &mut K,
        record: &str,
        set: &str,
        items: &[String],
    ) -> Result<StepOutput> {
        let s = self.schema.require_set(set)?.clone();
        if s.member != record {
            return Err(Error::NotMember { record: record.to_owned(), set: set.to_owned() });
        }
        let rt = self.schema.require_record(record)?;
        let owner = self.occurrence_owner(ru, &s)?;
        let mut predicates = vec![
            Predicate::eq(FILE_ATTR, Value::str(record)),
            Predicate::eq(set.to_owned(), Value::Int(owner)),
        ];
        for item in items {
            rt.require_attr(item)?;
            predicates.push(Predicate::eq(item.clone(), ru.uwa.get(record, item)));
        }
        let mut out = StepOutput::default();
        let resp =
            self.run(kernel, &mut out, Request::retrieve_all(Query::conjunction(predicates)))?;
        let rows = self.rows(record, &resp);
        if rows.is_empty() {
            return Err(Error::EndOfSet { set: set.to_owned() });
        }
        let (key, rec) = rows[0].clone();
        ru.rb_set.insert(set.to_owned(), Rb { rows, pos: Some(0) });
        self.establish_currency(ru, record, key, &rec);
        ru.cit.set_member(set, owner, record, key);
        out.found = Some((record.to_owned(), key, rec));
        Ok(out)
    }

    // ----- GET (§VI.C) ----------------------------------------------------

    fn get<K: Kernel>(&self, ru: &mut RunUnit, kernel: &mut K, spec: &GetSpec) -> Result<StepOutput> {
        let cur = ru
            .cit
            .run_unit()
            .ok_or_else(|| Error::NoCurrency { what: "run-unit".to_owned() })?
            .clone();
        match spec {
            GetSpec::Record(r) if *r != cur.record => {
                return Err(Error::WrongRunUnitType {
                    expected: r.clone(),
                    actual: cur.record.clone(),
                });
            }
            GetSpec::Items { record, .. } if *record != cur.record => {
                return Err(Error::WrongRunUnitType {
                    expected: record.clone(),
                    actual: cur.record.clone(),
                });
            }
            _ => {}
        }
        let mut out = StepOutput::default();
        let resp = self.run(
            kernel,
            &mut out,
            Request::retrieve_all(self.entity_query(&cur.record, cur.key)),
        )?;
        let rows = self.rows(&cur.record, &resp);
        let Some((key, rec)) = rows.first().cloned() else {
            return Err(Error::EndOfSet { set: "current of run-unit".to_owned() });
        };
        match spec {
            GetSpec::Items { items, record } => {
                let rt = self.schema.require_record(record)?;
                for item in items {
                    rt.require_attr(item)?;
                }
                ru.uwa.load_items(record, &rec, items.iter().map(String::as_str));
            }
            _ => ru.uwa.load_record(&cur.record, &rec),
        }
        out.found = Some((cur.record.clone(), key, rec));
        Ok(out)
    }

    // ----- STORE (§VI.G) ---------------------------------------------------

    fn store<K: Kernel>(&self, ru: &mut RunUnit, kernel: &mut K, record: &str) -> Result<StepOutput> {
        let rt = self.schema.require_record(record)?.clone();
        let mut out = StepOutput::default();

        // Duplicate-condition auxiliary retrievals: one per uniqueness
        // group whose items all carry UWA values.
        for group in &rt.unique_groups {
            let values: Vec<(String, Value)> =
                group.iter().map(|i| (i.clone(), ru.uwa.get(record, i))).collect();
            if values.iter().any(|(_, v)| v.is_null()) {
                continue;
            }
            let mut predicates = vec![Predicate::eq(FILE_ATTR, Value::str(record))];
            for (item, v) in &values {
                predicates.push(Predicate::eq(item.clone(), v.clone()));
            }
            let resp = self.run(
                kernel,
                &mut out,
                Request::Retrieve {
                    query: Query::conjunction(predicates),
                    target: abdl::TargetList::attrs([key_attr(record)]),
                    by: None,
                },
            )?;
            if !resp.records().is_empty() {
                return Err(Error::DuplicateViolation {
                    record: record.to_owned(),
                    items: group.clone(),
                });
            }
        }

        // Entity key assignment. In the functional target, a subtype
        // record shares its supertype's entity key through the
        // automatic ISA set; the current ISA occurrence supplies it.
        let isa_sets: Vec<&SetType> = self
            .schema
            .sets_with_member(record)
            .filter(|s| matches!(s.origin, SetOrigin::Isa { .. }))
            .collect();
        let key = if self.mode == TargetMode::AbFunctional && !isa_sets.is_empty() {
            let mut key: Option<i64> = None;
            for s in &isa_sets {
                let owner = ru
                    .cit
                    .set(&s.name)
                    .and_then(|sc| sc.owner_key)
                    .ok_or_else(|| Error::NoCurrency { what: format!("set {}", s.name) })?;
                match key {
                    None => key = Some(owner),
                    Some(k) if k != owner => {
                        return Err(Error::NoCurrency {
                            what: format!(
                                "consistent ISA occurrence for {record} (owners #{k} and #{owner} differ)"
                            ),
                        })
                    }
                    _ => {}
                }
            }
            key.expect("at least one ISA set")
        } else {
            kernel.reserve_key().0 as i64
        };

        // Overlap-table verification (functional targets, §V.E/§VI.G).
        if self.mode == TargetMode::AbFunctional && !isa_sets.is_empty() {
            for sibling in self.overlap_siblings(record) {
                let resp = self.run(
                    kernel,
                    &mut out,
                    Request::Retrieve {
                        query: self.entity_query(&sibling, key),
                        target: abdl::TargetList::attrs([key_attr(&sibling)]),
                        by: None,
                    },
                )?;
                if !resp.records().is_empty()
                    && !self.schema.overlaps.iter().any(|o| o.allows(record, &sibling))
                {
                    return Err(Error::OverlapViolation {
                        subtype: record.to_owned(),
                        conflicting: sibling,
                    });
                }
            }
            // Reject storing the same subtype part twice.
            let resp = self.run(
                kernel,
                &mut out,
                Request::Retrieve {
                    query: self.entity_query(record, key),
                    target: abdl::TargetList::attrs([key_attr(record)]),
                    by: None,
                },
            )?;
            if !resp.records().is_empty() {
                return Err(Error::DuplicateViolation {
                    record: record.to_owned(),
                    items: vec![key_attr(record).to_owned()],
                });
            }
        }

        // Assemble the kernel record: FILE, key, UWA data items and the
        // initial set links per insertion mode.
        let mut rec = Record::new();
        rec.set(FILE_ATTR, Value::str(record));
        rec.set(key_attr(record).to_owned(), Value::Int(key));
        for attr in &rt.attrs {
            let v = ru.uwa.get(record, &attr.name);
            if !v.is_null() {
                rec.set(attr.name.clone(), coerce(&rt, &attr.name, v)?);
            }
        }
        for s in self.schema.sets_with_member(record) {
            let link = match (&s.insertion, &s.owner, &s.origin) {
                (Insertion::Automatic, Owner::System, _) => Value::Int(SYSTEM_OWNER_KEY),
                (Insertion::Automatic, Owner::Record(_), SetOrigin::Isa { .. }) => Value::Int(key),
                (Insertion::Automatic, Owner::Record(_), _) => {
                    // Native automatic set: connect to the current
                    // occurrence (set selection is BY APPLICATION).
                    Value::Int(self.occurrence_owner(ru, s)?)
                }
                (Insertion::Manual, _, _) => Value::Null,
            };
            rec.set(s.name.clone(), link);
        }
        self.run(kernel, &mut out, Request::Insert { record: rec.clone() })?;
        out.affected = 1;
        out.stored_key = Some(key);
        self.establish_currency(ru, record, key, &rec);
        ru.invalidate_buffers_for(record, &self.schema);
        Ok(out)
    }

    /// Subtype record types that could conflict with `record` under the
    /// overlap rules: reachable through a shared ISA ancestor, excluding
    /// `record`'s own ancestors and descendants.
    fn overlap_siblings(&self, record: &str) -> Vec<String> {
        let ancestors = self.isa_ancestors(record);
        let descendants = self.isa_descendants(record);
        let mut family = std::collections::BTreeSet::new();
        for anc in &ancestors {
            for desc in self.isa_descendants(anc) {
                family.insert(desc);
            }
        }
        family
            .into_iter()
            .filter(|s| {
                s != record && !ancestors.contains(s) && !descendants.contains(s)
            })
            .collect()
    }

    fn isa_ancestors(&self, record: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut queue = vec![record.to_owned()];
        while let Some(next) = queue.pop() {
            for s in self.schema.sets_with_member(&next) {
                if let SetOrigin::Isa { supertype, .. } = &s.origin {
                    if !out.contains(supertype) {
                        out.push(supertype.clone());
                        queue.push(supertype.clone());
                    }
                }
            }
        }
        out
    }

    fn isa_descendants(&self, record: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut queue = vec![record.to_owned()];
        while let Some(next) = queue.pop() {
            for s in self.schema.sets_with_owner(&next) {
                if let SetOrigin::Isa { subtype, .. } = &s.origin {
                    if !out.contains(subtype) {
                        out.push(subtype.clone());
                        queue.push(subtype.clone());
                    }
                }
            }
        }
        out
    }

    // ----- CONNECT (§VI.D) ---------------------------------------------------

    fn connect<K: Kernel>(
        &self,
        ru: &mut RunUnit,
        kernel: &mut K,
        record: &str,
        sets: &[String],
    ) -> Result<StepOutput> {
        let key = self.run_unit_of(ru, record)?;
        let mut out = StepOutput::default();
        for set in sets {
            let s = self.schema.require_set(set)?.clone();
            if s.member != record {
                return Err(Error::NotMember { record: record.to_owned(), set: set.clone() });
            }
            // "Sets with an insertion clause of automatic cannot be
            // used in CONNECT statements" — this rejects ISA sets in
            // the functional target.
            if s.insertion != Insertion::Manual {
                return Err(Error::InsertionNotManual { set: set.clone() });
            }
            let owner = self.occurrence_owner(ru, &s)?;
            // "We will update all records whose database key is the
            // same as the database key of the current of the run-unit"
            // — the entity-key query reaches every repeated record.
            let resp = self.run(
                kernel,
                &mut out,
                Request::Update {
                    query: self.entity_query(record, key),
                    modifier: Modifier::new(set.clone(), Value::Int(owner)),
                },
            )?;
            out.affected += resp.affected;
            ru.cit.set_member(set, owner, record, key);
            ru.rb_set.remove(set);
        }
        Ok(out)
    }

    // ----- DISCONNECT (§VI.E) --------------------------------------------------

    fn disconnect<K: Kernel>(
        &self,
        ru: &mut RunUnit,
        kernel: &mut K,
        record: &str,
        sets: &[String],
    ) -> Result<StepOutput> {
        let key = self.run_unit_of(ru, record)?;
        let mut out = StepOutput::default();
        for set in sets {
            let s = self.schema.require_set(set)?.clone();
            if s.member != record {
                return Err(Error::NotMember { record: record.to_owned(), set: set.clone() });
            }
            if s.retention == Retention::Fixed {
                return Err(Error::RetentionFixed { set: set.clone() });
            }
            let resp = self.run(
                kernel,
                &mut out,
                Request::Update {
                    query: self.entity_query(record, key),
                    modifier: Modifier::new(set.clone(), Value::Null),
                },
            )?;
            out.affected += resp.affected;
            ru.cit.clear_set_member(set);
            ru.rb_set.remove(set);
        }
        Ok(out)
    }

    // ----- MODIFY (§VI.F) ---------------------------------------------------

    fn modify<K: Kernel>(
        &self,
        ru: &mut RunUnit,
        kernel: &mut K,
        record: &str,
        items: Option<&[String]>,
    ) -> Result<StepOutput> {
        let rt = self.schema.require_record(record)?.clone();
        let key = self.run_unit_of(ru, record)?;
        let mut out = StepOutput::default();
        let targets: Vec<(String, Value)> = match items {
            // MODIFY i1, …, in IN r — the listed items, verbatim from
            // the UWA (NULL permitted: it clears the value).
            Some(items) => {
                let mut t = Vec::with_capacity(items.len());
                for item in items {
                    rt.require_attr(item)?;
                    t.push((item.clone(), ru.uwa.get(record, item)));
                }
                t
            }
            // MODIFY r — every data item the user has supplied.
            None => rt
                .attrs
                .iter()
                .filter_map(|a| {
                    let v = ru.uwa.get(record, &a.name);
                    (!v.is_null()).then_some((a.name.clone(), v))
                })
                .collect(),
        };
        // "The above UPDATE request is repeated for each field of the
        // record that is to be modified."
        for (item, value) in targets {
            let value =
                if value.is_null() { Value::Null } else { coerce(&rt, &item, value)? };
            let resp = self.run(
                kernel,
                &mut out,
                Request::Update {
                    query: self.entity_query(record, key),
                    modifier: Modifier::new(item, value),
                },
            )?;
            out.affected = out.affected.max(resp.affected);
        }
        ru.invalidate_buffers_for(record, &self.schema);
        Ok(out)
    }

    // ----- ERASE (§VI.H) -----------------------------------------------------

    fn erase<K: Kernel>(
        &self,
        ru: &mut RunUnit,
        kernel: &mut K,
        record: &str,
        all: bool,
    ) -> Result<StepOutput> {
        if all && self.mode == TargetMode::AbFunctional {
            // "The constraints imposed by CODASYL-DML clash with those
            // imposed by Daplex … the statement is not translated."
            return Err(Error::EraseAllUnsupported);
        }
        let key = self.run_unit_of(ru, record)?;
        let mut out = StepOutput::default();
        if all {
            self.erase_cascade(kernel, &mut out, record, key, &mut Vec::new())?;
        } else {
            // Constraint auxiliary retrievals: the record may not own a
            // non-empty set occurrence. For functional targets this is
            // simultaneously the Daplex reference check (function sets
            // owned by the record hold the references to it) and the
            // hierarchy check (ISA sets owned by it hold its subtype
            // records).
            for s in self.schema.sets_with_owner(record) {
                let resp = self.run(
                    kernel,
                    &mut out,
                    Request::Retrieve {
                        query: Query::conjunction(vec![
                            Predicate::eq(FILE_ATTR, Value::str(s.member.clone())),
                            Predicate::eq(s.name.clone(), Value::Int(key)),
                        ]),
                        target: abdl::TargetList::attrs([s.name.clone()]),
                        by: None,
                    },
                )?;
                if !resp.records().is_empty() {
                    return Err(Error::EraseOwnerNotEmpty { set: s.name.clone() });
                }
            }
            let resp = self.run(
                kernel,
                &mut out,
                Request::Delete { query: self.entity_query(record, key) },
            )?;
            out.affected += resp.affected;
        }
        ru.cit.forget(record, key);
        ru.invalidate_buffers_for(record, &self.schema);
        Ok(out)
    }

    /// ERASE ALL cascade (network targets): delete the record and,
    /// recursively, every member of every set occurrence it owns.
    fn erase_cascade<K: Kernel>(
        &self,
        kernel: &mut K,
        out: &mut StepOutput,
        record: &str,
        key: i64,
        visiting: &mut Vec<(String, i64)>,
    ) -> Result<()> {
        if visiting.iter().any(|(r, k)| r == record && *k == key) {
            return Ok(()); // cycle guard
        }
        visiting.push((record.to_owned(), key));
        let owned: Vec<SetType> = self.schema.sets_with_owner(record).cloned().collect();
        for s in owned {
            let members = self.retrieve_occurrence(kernel, out, &s, key)?;
            for (mkey, _) in members {
                self.erase_cascade(kernel, out, &s.member, mkey, visiting)?;
            }
        }
        let resp =
            self.run(kernel, out, Request::Delete { query: self.entity_query(record, key) })?;
        out.affected += resp.affected;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abdl::engine::ExecStats;
    use abdl::{DbKey, Store};
    use daplex::university;

    fn faculty_rows(resp: &Response) -> Vec<(i64, Record)> {
        let net = transform::transform(&university::schema()).unwrap();
        Translator::for_functional(net).rows("faculty", resp)
    }

    #[test]
    fn repeated_records_give_one_row_per_entity_in_key_order() {
        // Hsiao's faculty part is one kernel record per degree.
        let (_, mut store, keys): (_, Store, _) = university::sample_database().unwrap();
        let resp = store
            .execute(&Request::retrieve_all(Query::conjunction(vec![Predicate::eq(
                FILE_ATTR,
                Value::str("faculty"),
            )])))
            .unwrap();
        assert_eq!(resp.records().len(), 4, "Hsiao's two degrees are two records");
        let rows = faculty_rows(&resp);
        let row_keys: Vec<i64> = rows.iter().map(|(k, _)| *k).collect();
        let mut want = keys.faculty.clone();
        want.sort_unstable();
        assert_eq!(row_keys, want);
        let hsiao = &rows.iter().find(|(k, _)| *k == keys.faculty[0]).unwrap().1;
        assert_eq!(hsiao.get("degrees"), Some(&Value::str("BS")), "first-returned record");
    }

    #[test]
    fn the_first_returned_record_represents_its_key() {
        let rec = |key: i64, degree: &str| {
            Record::from_pairs([("FILE", Value::str("faculty"))])
                .with("faculty", Value::Int(key))
                .with("degrees", Value::str(degree))
        };
        // Keys arrive out of order, each repeated, one record without
        // the key attribute.
        let resp = Response::with_records(
            vec![
                (DbKey(1), rec(9, "PhD")),
                (DbKey(2), rec(3, "MS")),
                (DbKey(3), rec(9, "BS")),
                (DbKey(4), Record::from_pairs([("FILE", Value::str("faculty"))])),
                (DbKey(5), rec(3, "BA")),
                (DbKey(6), rec(5, "MA")),
            ],
            ExecStats::default(),
        );
        let rows: Vec<(i64, Value)> = faculty_rows(&resp)
            .into_iter()
            .map(|(k, r)| (k, r.get_or_null("degrees").clone()))
            .collect();
        assert_eq!(
            rows,
            vec![(3, Value::str("MS")), (5, Value::str("MA")), (9, Value::str("PhD"))]
        );
    }
}
