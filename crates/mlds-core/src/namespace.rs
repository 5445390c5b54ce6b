//! Per-database kernel namespacing.
//!
//! MLDS "allows the user to access and interact with numerous
//! databases" over one kernel. Kernel files are a single flat
//! namespace, so two databases may well both declare a `department`;
//! LIL therefore routes every request through a namespacing adapter
//! that prefixes kernel file names with the database name
//! (`university.department`) on the way in and strips the prefix on
//! the way out. The language interfaces never see the prefix.
//!
//! The mapping itself lives in [`Namespace`], a plain value that does
//! not borrow the kernel. That separation matters to the concurrent
//! service layer: the admission workers map requests from *several* sessions
//! (each with its own database prefix) before handing the whole group
//! to `Kernel::execute_batch`, which a borrowing adapter could not
//! express. [`NamespacedKernel`] composes a `Namespace` with a kernel
//! borrow for the ordinary one-statement-at-a-time paths.

use abdl::{DbKey, Kernel, Record, Request, Response, Value, FILE_ATTR};

/// The kernel file name of `file` within database `db`.
pub fn kernel_file(db: &str, file: &str) -> String {
    format!("{db}.{file}")
}

/// The request/response mapping for one database — prefixes kernel
/// file names on the way in, strips them on the way out. Owns no
/// kernel; pure data.
#[derive(Debug, Clone)]
pub struct Namespace {
    prefix: String,
}

impl Namespace {
    /// The namespace of database `db`.
    pub fn new(db: &str) -> Self {
        Namespace { prefix: format!("{db}.") }
    }

    fn add_prefix(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    fn map_value_in(&self, v: &mut Value) {
        if let Value::Str(s) = v {
            *s = self.add_prefix(s);
        }
    }

    fn map_query_in(&self, q: &mut abdl::Query) {
        for conj in &mut q.disjuncts {
            for pred in &mut conj.predicates {
                if pred.attr == FILE_ATTR {
                    self.map_value_in(&mut pred.value);
                }
            }
        }
    }

    fn map_record_in(&self, rec: &mut Record) {
        if let Some(file) = rec.file().map(str::to_owned) {
            rec.set(FILE_ATTR, Value::str(self.add_prefix(&file)));
        }
    }

    fn map_record_out(&self, rec: &mut Record) {
        if let Some(stripped) = rec.file().and_then(|f| f.strip_prefix(&self.prefix)) {
            let stripped = Value::str(stripped);
            rec.set(FILE_ATTR, stripped);
        }
    }

    /// `request` with every file name scoped into this database.
    pub fn map_request_in(&self, req: &Request) -> Request {
        let mut req = req.clone();
        match &mut req {
            Request::Insert { record } => self.map_record_in(record),
            Request::Delete { query } => self.map_query_in(query),
            Request::Update { query, .. } => self.map_query_in(query),
            Request::Retrieve { query, .. } => self.map_query_in(query),
            Request::RetrieveCommon { left, right, .. } => {
                self.map_query_in(left);
                self.map_query_in(right);
            }
        }
        req
    }

    /// `resp` with this database's prefix stripped from returned
    /// records, in place: the records are not copied, and every other
    /// field (availability, message count) passes through untouched.
    pub fn map_response_out(&self, mut resp: Response) -> Response {
        for (_, rec) in resp.records_mut() {
            self.map_record_out(rec);
        }
        resp
    }
}

/// A kernel view scoped to one database.
pub struct NamespacedKernel<'a, K: Kernel> {
    inner: &'a mut K,
    ns: Namespace,
}

impl<'a, K: Kernel> NamespacedKernel<'a, K> {
    /// Scope `inner` to database `db`.
    pub fn new(inner: &'a mut K, db: &str) -> Self {
        NamespacedKernel { inner, ns: Namespace::new(db) }
    }
}

impl<K: Kernel> Kernel for NamespacedKernel<'_, K> {
    fn create_file(&mut self, name: &str) {
        let name = self.ns.add_prefix(name);
        self.inner.create_file(&name);
    }

    fn add_unique_constraint(&mut self, file: &str, attrs: Vec<String>) {
        let file = self.ns.add_prefix(file);
        self.inner.add_unique_constraint(&file, attrs);
    }

    fn reserve_key(&mut self) -> DbKey {
        self.inner.reserve_key()
    }

    fn execute(&mut self, request: &Request) -> abdl::Result<Response> {
        let mapped = self.ns.map_request_in(request);
        let resp = self.inner.execute(&mapped)?;
        Ok(self.ns.map_response_out(resp))
    }

    fn execute_batch(&mut self, requests: &[Request]) -> Vec<abdl::Result<Response>> {
        let mapped: Vec<Request> = requests.iter().map(|r| self.ns.map_request_in(r)).collect();
        self.inner
            .execute_batch(&mapped)
            .into_iter()
            .map(|r| r.map(|resp| self.ns.map_response_out(resp)))
            .collect()
    }

    fn health(&self) -> abdl::engine::KernelHealth {
        self.inner.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abdl::parse::parse_request;
    use abdl::Store;

    #[test]
    fn two_databases_with_the_same_file_name_stay_apart() {
        let mut store = Store::new();
        for (db, v) in [("a", 1i64), ("b", 2i64)] {
            let mut ns = NamespacedKernel::new(&mut store, db);
            ns.create_file("t");
            ns.execute(&Request::Insert {
                record: Record::from_pairs([("FILE", Value::str("t"))])
                    .with("t", Value::Int(v)),
            })
            .unwrap();
        }
        let mut ns_a = NamespacedKernel::new(&mut store, "a");
        let resp = ns_a.execute(&parse_request("RETRIEVE (FILE = t) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 1);
        assert_eq!(resp.records()[0].1.get("t"), Some(&Value::Int(1)));
        // The record comes back with the *unprefixed* file name.
        assert_eq!(resp.records()[0].1.file(), Some("t"));
        // Raw kernel view shows the prefixed files.
        assert!(store.file_names().any(|f| f == "a.t"));
        assert!(store.file_names().any(|f| f == "b.t"));
    }

    #[test]
    fn constraints_are_scoped() {
        let mut store = Store::new();
        {
            let mut ns = NamespacedKernel::new(&mut store, "a");
            ns.create_file("t");
            ns.add_unique_constraint("t", vec!["x".into()]);
            ns.execute(&parse_request("INSERT (<FILE, t>, <t, 1>, <x, 5>)").unwrap()).unwrap();
            let err =
                ns.execute(&parse_request("INSERT (<FILE, t>, <t, 2>, <x, 5>)").unwrap());
            assert!(err.is_err());
        }
        // Database b has no such constraint.
        let mut ns = NamespacedKernel::new(&mut store, "b");
        ns.create_file("t");
        ns.execute(&parse_request("INSERT (<FILE, t>, <t, 1>, <x, 5>)").unwrap()).unwrap();
        ns.execute(&parse_request("INSERT (<FILE, t>, <t, 2>, <x, 5>)").unwrap()).unwrap();
    }

    #[test]
    fn retrieve_common_maps_both_sides() {
        let mut store = Store::new();
        let mut ns = NamespacedKernel::new(&mut store, "db");
        ns.create_file("l");
        ns.create_file("r");
        ns.execute(&parse_request("INSERT (<FILE, l>, <l, 1>, <j, 7>, <a, 'x'>)").unwrap())
            .unwrap();
        ns.execute(&parse_request("INSERT (<FILE, r>, <r, 1>, <j, 7>, <b, 'y'>)").unwrap())
            .unwrap();
        let resp = ns
            .execute(
                &parse_request(
                    "RETRIEVE-COMMON ((FILE = l)) (j) COMMON ((FILE = r)) (j) (a, b)",
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(resp.records().len(), 1);
    }

    #[test]
    fn batch_maps_every_request_and_response() {
        let mut store = Store::new();
        let mut ns = NamespacedKernel::new(&mut store, "db");
        ns.create_file("t");
        let reqs = vec![
            parse_request("INSERT (<FILE, t>, <t, 1>)").unwrap(),
            parse_request("INSERT (<FILE, t>, <t, 2>)").unwrap(),
            parse_request("RETRIEVE (FILE = t) (*)").unwrap(),
        ];
        let results = ns.execute_batch(&reqs);
        assert_eq!(results.len(), 3);
        let recs = results[2].as_ref().unwrap().records().to_vec();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|(_, r)| r.file() == Some("t")), "prefix stripped on the way out");
        assert!(store.file_names().any(|f| f == "db.t"));
    }

    #[test]
    fn response_mapping_strips_in_place_and_keeps_every_field() {
        let ns = Namespace::new("db");
        let mut resp = Response::with_records(
            vec![
                (
                    DbKey(7),
                    Record::from_pairs([("FILE", Value::str("db.t"))]).with("t", Value::Int(1)),
                ),
                (DbKey(8), Record::from_pairs([("t", Value::Int(2))])),
            ],
            Default::default(),
        );
        resp.degraded = true;
        resp.unavailable_backends = vec![2];
        resp.messages_sent = 3;
        let out = ns.map_response_out(resp);
        assert_eq!(out.records()[0].1.file(), Some("t"));
        assert_eq!(out.records()[0].1.get("t"), Some(&Value::Int(1)));
        let projected = Record::from_pairs([("t", Value::Int(2))]);
        assert_eq!(out.records()[1].1, projected, "a record without FILE passes unchanged");
        assert!(out.degraded);
        assert_eq!(out.unavailable_backends, vec![2]);
        assert_eq!(out.messages_sent, 3);
    }
}
