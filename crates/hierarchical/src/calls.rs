//! DL/I calls: AST, parser, and the positional session executor.

use crate::ab_map::{coerce, key_attr};
use crate::error::{Error, Result};
use crate::schema::{arc_attr, HierSchema};
use crate::DIALECT;
use abdl::parse::{Cursor, Tok};
use abdl::{Kernel, Modifier, Predicate, Query, Record, RelOp, Request, Value, FILE_ATTR};
use std::collections::HashMap;

/// A segment search argument: a segment name plus optional field
/// qualifications.
#[derive(Debug, Clone, PartialEq)]
pub struct Ssa {
    /// The segment type.
    pub segment: String,
    /// Field qualifications (empty = unqualified).
    pub preds: Vec<(String, RelOp, Value)>,
}

/// A DL/I call.
#[derive(Debug, Clone, PartialEq)]
pub enum DliCall {
    /// `GU ssa ssa …` — get unique: descend a qualified path.
    Gu {
        /// The SSA path; the last element names the target segment.
        path: Vec<Ssa>,
    },
    /// `GN ssa` — get next occurrence of a segment type.
    Gn {
        /// Target (possibly qualified).
        ssa: Ssa,
    },
    /// `GNP ssa` — get next within the current parent.
    Gnp {
        /// Target (possibly qualified).
        ssa: Ssa,
    },
    /// `ISRT seg (field = value, …)` — insert under the current parent.
    Isrt {
        /// Segment type.
        segment: String,
        /// Field values.
        values: Vec<(String, Value)>,
    },
    /// `REPL seg (field = value, …)` — replace fields of the current
    /// segment.
    Repl {
        /// Segment type.
        segment: String,
        /// Field values.
        values: Vec<(String, Value)>,
    },
    /// `DLET seg` — delete the current segment and its subtree.
    Dlet {
        /// Segment type.
        segment: String,
    },
}

impl DliCall {
    /// The call verb.
    pub fn verb(&self) -> &'static str {
        match self {
            DliCall::Gu { .. } => "GU",
            DliCall::Gn { .. } => "GN",
            DliCall::Gnp { .. } => "GNP",
            DliCall::Isrt { .. } => "ISRT",
            DliCall::Repl { .. } => "REPL",
            DliCall::Dlet { .. } => "DLET",
        }
    }
}

/// Parse a script of DL/I calls (one per line, `;`/`.` tolerated).
pub fn parse_calls(src: &str) -> Result<Vec<DliCall>> {
    let mut c = Cursor::new(src, &DIALECT)?;
    let mut out = Vec::new();
    c.eat_terminators();
    while !c.at_eof() {
        out.push(parse_call(&mut c)?);
        c.eat_terminators();
    }
    Ok(out)
}

fn parse_call(c: &mut Cursor) -> Result<DliCall> {
    let verb = c.name("DL/I verb")?;
    match verb.to_ascii_uppercase().as_str() {
        "GU" => {
            let mut path = vec![parse_ssa(c)?];
            // Further SSAs until the next call verb (verbs are reserved).
            while matches!(c.peek(), Tok::Word(w) if !is_verb(w)) {
                path.push(parse_ssa(c)?);
            }
            Ok(DliCall::Gu { path })
        }
        "GN" => Ok(DliCall::Gn { ssa: parse_ssa(c)? }),
        "GNP" => Ok(DliCall::Gnp { ssa: parse_ssa(c)? }),
        "ISRT" => {
            let segment = c.name("segment name")?;
            let values = parse_assignments(c)?;
            Ok(DliCall::Isrt { segment, values })
        }
        "REPL" => {
            let segment = c.name("segment name")?;
            let values = parse_assignments(c)?;
            Ok(DliCall::Repl { segment, values })
        }
        "DLET" => Ok(DliCall::Dlet { segment: c.name("segment name")? }),
        other => Err(c.err(format!("unknown DL/I verb `{other}`"))),
    }
}

fn is_verb(word: &str) -> bool {
    ["GU", "GN", "GNP", "ISRT", "REPL", "DLET"]
        .iter()
        .any(|v| word.eq_ignore_ascii_case(v))
}

fn parse_ssa(c: &mut Cursor) -> Result<Ssa> {
    let segment = c.name("segment name")?;
    let mut preds = Vec::new();
    if c.eat(Tok::LParen) {
        loop {
            let field = c.name("field name")?;
            let tok = c.bump();
            let op = tok.relop().ok_or_else(|| {
                c.err::<Error>(format!("expected relational operator, found {tok:?}"))
            })?;
            preds.push((field, op, c.literal("literal")?));
            if !c.eat(Tok::Comma) {
                break;
            }
        }
        c.expect_tok(Tok::RParen, "`)` closing SSA")?;
    }
    Ok(Ssa { segment, preds })
}

fn parse_assignments(c: &mut Cursor) -> Result<Vec<(String, Value)>> {
    c.expect_tok(Tok::LParen, "`(` opening field list")?;
    let mut out = Vec::new();
    loop {
        let field = c.name("field name")?;
        c.expect_tok(Tok::Eq, "`=`")?;
        out.push((field, c.literal("literal")?));
        if !c.eat(Tok::Comma) {
            break;
        }
    }
    c.expect_tok(Tok::RParen, "`)` closing field list")?;
    Ok(out)
}

/// What one executed call produced.
#[derive(Debug, Clone, Default)]
pub struct DliOutput {
    /// The ABDL requests generated.
    pub requests: Vec<Request>,
    /// The segment delivered (GU/GN/GNP): type, key and record.
    pub found: Option<(String, i64, Record)>,
    /// Records affected by ISRT/REPL/DLET (DLET counts the subtree).
    pub affected: usize,
}

/// A DL/I session: the positional state (current occurrence per segment
/// type, current of run-unit, and the hierarchic GN position).
pub struct DliSession {
    schema: HierSchema,
    current: HashMap<String, i64>,
    run_unit: Option<(String, i64)>,
    /// Last key delivered per segment type — GN continues after it.
    gn_pos: HashMap<String, i64>,
}

impl DliSession {
    /// A session over a validated schema.
    pub fn new(schema: HierSchema) -> Self {
        DliSession { schema, current: HashMap::new(), run_unit: None, gn_pos: HashMap::new() }
    }

    /// The schema.
    pub fn schema(&self) -> &HierSchema {
        &self.schema
    }

    /// Current of the run-unit: (segment, key).
    pub fn run_unit(&self) -> Option<(&str, i64)> {
        self.run_unit.as_ref().map(|(s, k)| (s.as_str(), *k))
    }

    /// Rewind every position to the start of the database (a fresh
    /// hierarchic sweep; positions otherwise persist across calls —
    /// ISRT, like every IMS call, establishes position at its target).
    pub fn reset_position(&mut self) {
        self.current.clear();
        self.gn_pos.clear();
        self.run_unit = None;
    }

    /// Execute one call.
    pub fn execute<K: Kernel>(&mut self, kernel: &mut K, call: &DliCall) -> Result<DliOutput> {
        match call {
            DliCall::Gu { path } => self.gu(kernel, path),
            DliCall::Gn { ssa } => self.gn(kernel, ssa, false),
            DliCall::Gnp { ssa } => self.gn(kernel, ssa, true),
            DliCall::Isrt { segment, values } => self.isrt(kernel, segment, values),
            DliCall::Repl { segment, values } => self.repl(kernel, segment, values),
            DliCall::Dlet { segment } => self.dlet(kernel, segment),
        }
    }

    // ----- retrieval ----------------------------------------------------

    fn ssa_query(&self, ssa: &Ssa, extra: Vec<Predicate>) -> Result<Query> {
        let seg = self.schema.require_segment(&ssa.segment)?;
        let mut predicates = vec![Predicate::eq(FILE_ATTR, Value::str(seg.name.clone()))];
        predicates.extend(extra);
        for (field, op, v) in &ssa.preds {
            let v = if v.is_null() { Value::Null } else { coerce(seg, field, v.clone())? };
            predicates.push(Predicate::new(field.clone(), *op, v));
        }
        Ok(Query::conjunction(predicates))
    }

    fn first_match<K: Kernel>(
        &self,
        kernel: &mut K,
        out: &mut DliOutput,
        query: Query,
        segment: &str,
    ) -> Result<Option<(i64, Record)>> {
        let req = Request::retrieve_all(query);
        let resp = kernel.execute(&req)?;
        out.requests.push(req);
        let mut best: Option<(i64, Record)> = None;
        for (_, rec) in resp.records() {
            let Some(key) = rec.get(key_attr(segment)).and_then(Value::as_int) else { continue };
            if best.as_ref().is_none_or(|(k, _)| key < *k) {
                best = Some((key, rec.clone()));
            }
        }
        Ok(best)
    }

    /// Establish position after delivering a segment: the segment (and
    /// its immediate parent, whose key the record carries in the
    /// parent-arc keyword) become current; the GN position advances.
    /// Ancestors above the parent are resolved lazily by GU/GNP.
    fn deliver(&mut self, segment: &str, key: i64, rec: &Record) {
        self.current.insert(segment.to_owned(), key);
        self.gn_pos.insert(segment.to_owned(), key);
        self.run_unit = Some((segment.to_owned(), key));
        if let Some(parent) = self.schema.segment(segment).and_then(|s| s.parent.clone()) {
            let arc = arc_attr(&parent, segment);
            if let Some(pkey) = rec.get(&arc).and_then(Value::as_int) {
                self.current.insert(parent, pkey);
            }
        }
    }

    fn gu<K: Kernel>(&mut self, kernel: &mut K, path: &[Ssa]) -> Result<DliOutput> {
        if path.is_empty() {
            return Err(Error::NoPosition { what: "GU needs at least one SSA".into() });
        }
        // Validate parent-child consecutiveness.
        for pair in path.windows(2) {
            let child = self.schema.require_segment(&pair[1].segment)?;
            if child.parent.as_deref() != Some(pair[0].segment.as_str()) {
                return Err(Error::InvalidSchema(format!(
                    "`{}` is not a child of `{}` in the hierarchy",
                    pair[1].segment, pair[0].segment
                )));
            }
        }
        let mut out = DliOutput::default();
        let found = self.descend(kernel, &mut out, path, 0, None)?;
        let Some(chain) = found else {
            return Err(Error::NotFound { segment: path.last().expect("non-empty").segment.clone() });
        };
        // Establish currency along the whole path.
        for (ssa, (key, _)) in path.iter().zip(&chain) {
            self.current.insert(ssa.segment.clone(), *key);
            self.gn_pos.insert(ssa.segment.clone(), *key);
        }
        let (key, rec) = chain.last().expect("non-empty").clone();
        let target = &path.last().expect("non-empty").segment;
        self.run_unit = Some((target.clone(), key));
        out.found = Some((target.clone(), key, rec));
        Ok(out)
    }

    /// Depth-first search for the first path (in key order at every
    /// level) satisfying all SSAs. Returns the (key, record) chain.
    fn descend<K: Kernel>(
        &self,
        kernel: &mut K,
        out: &mut DliOutput,
        path: &[Ssa],
        level: usize,
        parent_key: Option<i64>,
    ) -> Result<Option<Vec<(i64, Record)>>> {
        let ssa = &path[level];
        let seg = self.schema.require_segment(&ssa.segment)?.clone();
        let mut extra = Vec::new();
        if let (Some(pkey), Some(parent)) = (parent_key, &seg.parent) {
            extra.push(Predicate::eq(arc_attr(parent, &seg.name), Value::Int(pkey)));
        }
        let req = Request::retrieve_all(self.ssa_query(ssa, extra)?);
        let resp = kernel.execute(&req)?;
        out.requests.push(req);
        let mut candidates: Vec<(i64, Record)> = resp
            .records()
            .iter()
            .filter_map(|(_, rec)| {
                rec.get(key_attr(&seg.name)).and_then(Value::as_int).map(|k| (k, rec.clone()))
            })
            .collect();
        candidates.sort_by_key(|(k, _)| *k);
        for (key, rec) in candidates {
            if level + 1 == path.len() {
                return Ok(Some(vec![(key, rec)]));
            }
            if let Some(mut tail) = self.descend(kernel, out, path, level + 1, Some(key))? {
                let mut chain = vec![(key, rec)];
                chain.append(&mut tail);
                return Ok(Some(chain));
            }
        }
        Ok(None)
    }

    fn gn<K: Kernel>(&mut self, kernel: &mut K, ssa: &Ssa, within_parent: bool) -> Result<DliOutput> {
        let seg = self.schema.require_segment(&ssa.segment)?.clone();
        let mut extra = Vec::new();
        if within_parent {
            let parent = seg.parent.clone().ok_or_else(|| Error::NoPosition {
                what: format!("GNP on root segment `{}`", seg.name),
            })?;
            let pkey = *self
                .current
                .get(&parent)
                .ok_or_else(|| Error::NoPosition { what: format!("parent `{parent}`") })?;
            extra.push(Predicate::eq(arc_attr(&parent, &seg.name), Value::Int(pkey)));
        }
        if let Some(pos) = self.gn_pos.get(&seg.name) {
            extra.push(Predicate::new(
                key_attr(&seg.name).to_owned(),
                RelOp::Gt,
                Value::Int(*pos),
            ));
        }
        let mut out = DliOutput::default();
        let query = self.ssa_query(ssa, extra)?;
        match self.first_match(kernel, &mut out, query, &seg.name)? {
            Some((key, rec)) => {
                self.deliver(&seg.name, key, &rec);
                out.found = Some((seg.name.clone(), key, rec));
                Ok(out)
            }
            None => Err(Error::NotFound { segment: seg.name.clone() }),
        }
    }

    // ----- mutation -------------------------------------------------------

    fn isrt<K: Kernel>(
        &mut self,
        kernel: &mut K,
        segment: &str,
        values: &[(String, Value)],
    ) -> Result<DliOutput> {
        let seg = self.schema.require_segment(segment)?.clone();
        let mut out = DliOutput::default();
        let parent_key = match &seg.parent {
            Some(parent) => Some(*self.current.get(parent).ok_or_else(|| Error::NoPosition {
                what: format!("parent `{parent}` (establish it with GU/GN first)"),
            })?),
            None => None,
        };
        // Sequence-field uniqueness within the parent occurrence.
        if let Some(seq) = &seg.sequence {
            if let Some((_, v)) = values.iter().find(|(f, _)| f == seq) {
                let mut predicates = vec![
                    Predicate::eq(FILE_ATTR, Value::str(seg.name.clone())),
                    Predicate::eq(seq.clone(), coerce(&seg, seq, v.clone())?),
                ];
                if let (Some(pkey), Some(parent)) = (parent_key, &seg.parent) {
                    predicates.push(Predicate::eq(arc_attr(parent, &seg.name), Value::Int(pkey)));
                }
                let req = Request::Retrieve {
                    query: Query::conjunction(predicates),
                    target: abdl::TargetList::attrs([key_attr(&seg.name)]),
                    by: None,
                };
                let resp = kernel.execute(&req)?;
                out.requests.push(req);
                if !resp.records().is_empty() {
                    return Err(Error::SegmentExists {
                        segment: seg.name.clone(),
                        field: seq.clone(),
                    });
                }
            }
        }
        let key = kernel.reserve_key().0 as i64;
        let mut rec = Record::new();
        rec.set(FILE_ATTR, Value::str(seg.name.clone()));
        rec.set(key_attr(&seg.name).to_owned(), Value::Int(key));
        for (field, v) in values {
            let v = coerce(&seg, field, v.clone())?;
            if !v.is_null() {
                rec.set(field.clone(), v);
            }
        }
        if let (Some(pkey), Some(parent)) = (parent_key, &seg.parent) {
            rec.set(arc_attr(parent, &seg.name), Value::Int(pkey));
        }
        let req = Request::Insert { record: rec.clone() };
        kernel.execute(&req)?;
        out.requests.push(req);
        out.affected = 1;
        self.deliver(&seg.name, key, &rec);
        Ok(out)
    }

    fn repl<K: Kernel>(
        &mut self,
        kernel: &mut K,
        segment: &str,
        values: &[(String, Value)],
    ) -> Result<DliOutput> {
        let seg = self.schema.require_segment(segment)?.clone();
        let Some((cur_seg, key)) = &self.run_unit else {
            return Err(Error::NoPosition { what: "run-unit (REPL needs a prior get)".into() });
        };
        if cur_seg != segment {
            return Err(Error::NoPosition {
                what: format!("current segment is `{cur_seg}`, REPL names `{segment}`"),
            });
        }
        let key = *key;
        let mut out = DliOutput::default();
        for (field, v) in values {
            let v = if v.is_null() { Value::Null } else { coerce(&seg, field, v.clone())? };
            let req = Request::Update {
                query: Query::conjunction(vec![
                    Predicate::eq(FILE_ATTR, Value::str(seg.name.clone())),
                    Predicate::eq(key_attr(&seg.name).to_owned(), Value::Int(key)),
                ]),
                modifier: Modifier::new(field.clone(), v),
            };
            let resp = kernel.execute(&req)?;
            out.affected = out.affected.max(resp.affected);
            out.requests.push(req);
        }
        Ok(out)
    }

    fn dlet<K: Kernel>(&mut self, kernel: &mut K, segment: &str) -> Result<DliOutput> {
        self.schema.require_segment(segment)?;
        let Some((cur_seg, key)) = self.run_unit.clone() else {
            return Err(Error::NoPosition { what: "run-unit (DLET needs a prior get)".into() });
        };
        if cur_seg != segment {
            return Err(Error::NoPosition {
                what: format!("current segment is `{cur_seg}`, DLET names `{segment}`"),
            });
        }
        let mut out = DliOutput::default();
        self.delete_subtree(kernel, &mut out, segment, key)?;
        self.run_unit = None;
        self.current.remove(segment);
        Ok(out)
    }

    /// "When a segment is deleted, all of its dependents are deleted."
    fn delete_subtree<K: Kernel>(
        &self,
        kernel: &mut K,
        out: &mut DliOutput,
        segment: &str,
        key: i64,
    ) -> Result<()> {
        let children: Vec<String> =
            self.schema.children(segment).map(|s| s.name.clone()).collect();
        for child in children {
            let req = Request::Retrieve {
                query: Query::conjunction(vec![
                    Predicate::eq(FILE_ATTR, Value::str(child.clone())),
                    Predicate::eq(arc_attr(segment, &child), Value::Int(key)),
                ]),
                target: abdl::TargetList::attrs([key_attr(&child)]),
                by: None,
            };
            let resp = kernel.execute(&req)?;
            out.requests.push(req);
            let keys: Vec<i64> = resp
                .records()
                .iter()
                .filter_map(|(_, r)| r.get(key_attr(&child)).and_then(Value::as_int))
                .collect();
            for ck in keys {
                self.delete_subtree(kernel, out, &child, ck)?;
            }
        }
        let req = Request::Delete {
            query: Query::conjunction(vec![
                Predicate::eq(FILE_ATTR, Value::str(segment)),
                Predicate::eq(key_attr(segment).to_owned(), Value::Int(key)),
            ]),
        };
        let resp = kernel.execute(&req)?;
        out.affected += resp.affected;
        out.requests.push(req);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abdl::Store;

    fn school() -> (DliSession, Store) {
        let schema = crate::ddl::parse_schema(
            "HIERARCHY NAME IS school.
             SEGMENT department.
               02 dno TYPE IS FIXED.
               02 dname TYPE IS CHARACTER 20.
               SEQUENCE IS dno.
             SEGMENT course PARENT IS department.
               02 cno TYPE IS FIXED.
               02 title TYPE IS CHARACTER 30.
               SEQUENCE IS cno.
             SEGMENT enrollment PARENT IS course.
               02 student TYPE IS CHARACTER 20.",
        )
        .unwrap();
        let mut store = Store::new();
        crate::ab_map::install(&schema, &mut store);
        let mut session = DliSession::new(schema);
        let script = "
            ISRT department (dno = 1, dname = 'CS')
            ISRT course (cno = 10, title = 'Databases')
            ISRT enrollment (student = 'Coker')
            ISRT enrollment (student = 'Emdi')
            ISRT course (cno = 20, title = 'Compilers')
            ISRT department (dno = 2, dname = 'Math')
            ISRT course (cno = 10, title = 'Algebra')";
        for call in parse_calls(script).unwrap() {
            session.execute(&mut store, &call).unwrap();
        }
        session.reset_position();
        (session, store)
    }

    #[test]
    fn non_ascii_literal_decodes_as_utf8() {
        let calls = parse_calls("ISRT course (title = 'Müller')").unwrap();
        let [DliCall::Isrt { values, .. }] = &calls[..] else { panic!("{calls:?}") };
        assert_eq!(values, &vec![("title".to_owned(), Value::str("Müller"))]);
    }

    #[test]
    fn isrt_builds_the_tree_under_current_parents() {
        let (_, mut store) = school();
        assert_eq!(store.file_len("department"), 2);
        assert_eq!(store.file_len("course"), 3);
        assert_eq!(store.file_len("enrollment"), 2);
        // Each course carries its parent arc.
        let resp = store
            .execute(&abdl::parse::parse_request("RETRIEVE (FILE = course) (*)").unwrap())
            .unwrap();
        assert!(resp
            .records()
            .iter()
            .all(|(_, r)| r.get("department_course").is_some()));
    }

    #[test]
    fn gu_descends_a_qualified_path() {
        let (mut s, mut store) = school();
        let calls = parse_calls(
            "GU department (dname = 'CS') course (cno = 10) enrollment (student = 'Emdi')",
        )
        .unwrap();
        let out = s.execute(&mut store, &calls[0]).unwrap();
        let (seg, _, rec) = out.found.unwrap();
        assert_eq!(seg, "enrollment");
        assert_eq!(rec.get("student"), Some(&Value::str("Emdi")));
        // CS course 10, not Math's course 10.
        let calls = parse_calls("GU department (dname = 'Math') course (cno = 10)").unwrap();
        let out = s.execute(&mut store, &calls[0]).unwrap();
        assert_eq!(out.found.unwrap().2.get("title"), Some(&Value::str("Algebra")));
    }

    #[test]
    fn gu_not_found_is_ge_status() {
        let (mut s, mut store) = school();
        let calls = parse_calls("GU department (dname = 'CS') course (cno = 99)").unwrap();
        assert!(matches!(
            s.execute(&mut store, &calls[0]),
            Err(Error::NotFound { .. })
        ));
    }

    #[test]
    fn gn_sweeps_a_segment_type_in_key_order() {
        let (mut s, mut store) = school();
        let gn = parse_calls("GN course").unwrap();
        let mut titles = Vec::new();
        loop {
            match s.execute(&mut store, &gn[0]) {
                Ok(out) => titles.push(
                    out.found.unwrap().2.get("title").unwrap().as_str().unwrap().to_owned(),
                ),
                Err(Error::NotFound { .. }) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(titles, vec!["Databases", "Compilers", "Algebra"]);
    }

    #[test]
    fn gnp_restricts_to_the_current_parent() {
        let (mut s, mut store) = school();
        let gu = parse_calls("GU department (dname = 'CS')").unwrap();
        s.execute(&mut store, &gu[0]).unwrap();
        let gnp = parse_calls("GNP course").unwrap();
        let mut titles = Vec::new();
        loop {
            match s.execute(&mut store, &gnp[0]) {
                Ok(out) => titles.push(
                    out.found.unwrap().2.get("title").unwrap().as_str().unwrap().to_owned(),
                ),
                Err(Error::NotFound { .. }) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(titles, vec!["Databases", "Compilers"], "Algebra is under Math");
    }

    #[test]
    fn qualified_gn_filters() {
        let (mut s, mut store) = school();
        let gn = parse_calls("GN course (cno = 10)").unwrap();
        let out = s.execute(&mut store, &gn[0]).unwrap();
        assert_eq!(out.found.unwrap().2.get("title"), Some(&Value::str("Databases")));
        let out = s.execute(&mut store, &gn[0]).unwrap();
        assert_eq!(out.found.unwrap().2.get("title"), Some(&Value::str("Algebra")));
        assert!(matches!(s.execute(&mut store, &gn[0]), Err(Error::NotFound { .. })));
    }

    #[test]
    fn repl_updates_current_segment() {
        let (mut s, mut store) = school();
        let calls = parse_calls(
            "GU department (dname = 'CS') course (cno = 20)\n\
             REPL course (title = 'Compilers II')",
        )
        .unwrap();
        s.execute(&mut store, &calls[0]).unwrap();
        let out = s.execute(&mut store, &calls[1]).unwrap();
        assert_eq!(out.affected, 1);
        assert_eq!(out.requests.len(), 1, "one UPDATE per field");
        let check = parse_calls("GU department (dname = 'CS') course (title = 'Compilers II')")
            .unwrap();
        s.execute(&mut store, &check[0]).unwrap();
    }

    #[test]
    fn dlet_cascades_to_dependents() {
        let (mut s, mut store) = school();
        let calls = parse_calls("GU department (dname = 'CS')\nDLET department").unwrap();
        s.execute(&mut store, &calls[0]).unwrap();
        let out = s.execute(&mut store, &calls[1]).unwrap();
        assert_eq!(out.affected, 5, "department + 2 courses + 2 enrollments");
        assert_eq!(store.file_len("department"), 1);
        assert_eq!(store.file_len("course"), 1);
        assert_eq!(store.file_len("enrollment"), 0);
    }

    #[test]
    fn isrt_enforces_sequence_uniqueness_within_parent() {
        let (mut s, mut store) = school();
        let calls = parse_calls(
            "GU department (dname = 'CS')\nISRT course (cno = 10, title = 'Dup')",
        )
        .unwrap();
        s.execute(&mut store, &calls[0]).unwrap();
        assert!(matches!(
            s.execute(&mut store, &calls[1]),
            Err(Error::SegmentExists { .. })
        ));
        // The same cno under the other department is fine.
        let calls = parse_calls(
            "GU department (dname = 'Math')\nISRT course (cno = 20, title = 'Calculus')",
        )
        .unwrap();
        s.execute(&mut store, &calls[0]).unwrap();
        s.execute(&mut store, &calls[1]).unwrap();
    }

    #[test]
    fn isrt_without_parent_position_fails() {
        let schema = crate::ddl::parse_schema(
            "HIERARCHY NAME IS h. SEGMENT a. 02 x TYPE IS FIXED.
             SEGMENT b PARENT IS a. 02 y TYPE IS FIXED.",
        )
        .unwrap();
        let mut store = Store::new();
        crate::ab_map::install(&schema, &mut store);
        let mut s = DliSession::new(schema);
        let calls = parse_calls("ISRT b (y = 1)").unwrap();
        assert!(matches!(
            s.execute(&mut store, &calls[0]),
            Err(Error::NoPosition { .. })
        ));
    }

    #[test]
    fn gu_rejects_non_child_paths() {
        let (mut s, mut store) = school();
        let calls = parse_calls("GU department (dno = 1) enrollment (student = 'x')").unwrap();
        assert!(matches!(
            s.execute(&mut store, &calls[0]),
            Err(Error::InvalidSchema(_))
        ));
    }
}
