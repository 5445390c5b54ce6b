//! The experiment harness: one function per table/figure of the thesis
//! (E1–E14 of DESIGN.md's experiment index), plus the failover (E16),
//! model-checker (E19) and elastic-cluster (E21) tables. Each returns
//! the rendered table; the `experiments` binary prints them. Throughput
//! and latency are measured by the benchmark (`perfbench/`), not here.

use crate::workload;
use abdl::{Kernel, Store};
use std::fmt::Write as _;
use std::time::Instant;

/// Experiment ids with one-line descriptions.
pub const EXPERIMENTS: [(&str, &str); 17] = [
    ("e1", "Figure 2.1/2.2 — the University Daplex schema census"),
    ("e2", "Figure 2.3 — ABDM records, keyword predicates and DNF queries"),
    ("e3", "Figure 3.3 — the AB(functional) University kernel layout"),
    ("e4", "Figure 5.1 — the transformed network schema"),
    ("e5", "Figures 5.2–5.5 — per-construct transformation examples"),
    ("e6", "Chapter VI — worked CODASYL-DML→ABDL translations"),
    ("e7", "MBDS claim 1 — response time vs number of backends"),
    ("e8", "MBDS claim 2 — response-time invariance under proportional growth"),
    ("e9", "§III.B — mapping-strategy ablation (one-step vs per-transaction)"),
    ("e10", "Chapter VI — ABDL request fan-out per CODASYL-DML statement"),
    ("e11", "Figure 1.2 — one kernel, five languages: per-interface ABDL fan-out"),
    ("e12", "Directory-index ablation — records examined, indexed vs full scan"),
    ("e13", "Fault tolerance — availability vs replication factor, and recovery cost"),
    ("e14", "Durability — controller recovery time vs WAL length and snapshot interval"),
    ("e16", "Failover — hot-standby promotion vs cold recovery under churn"),
    ("e19", "Model checker — failover state-space growth and every model's mutation kill table"),
    ("e21", "Elastic cluster — online add and drain under traffic vs a static cluster"),
];

/// Run one experiment by id.
pub fn run_experiment(id: &str) -> Option<String> {
    match id {
        "e1" => Some(e1()),
        "e2" => Some(e2()),
        "e3" => Some(e3()),
        "e4" => Some(e4()),
        "e5" => Some(e5()),
        "e6" => Some(e6()),
        "e7" => Some(e7()),
        "e8" => Some(e8()),
        "e9" => Some(e9()),
        "e10" => Some(e10()),
        "e11" => Some(e11()),
        "e12" => Some(e12()),
        "e13" => Some(e13()),
        "e14" => Some(e14()),
        "e16" => Some(e16()),
        "e19" => Some(e19()),
        "e21" => Some(e21()),
        _ => None,
    }
}

// ----- E1 -------------------------------------------------------------

/// Schema census of the University database.
pub fn e1() -> String {
    let s = daplex::university::schema();
    let mut out = String::new();
    let _ = writeln!(out, "database: {}", s.name);
    let _ = writeln!(out, "{:<16} {:<14} {:<30}", "construct", "kind", "detail");
    for n in &s.non_entities {
        let kind = if n.constant { "constant" } else { "non-entity" };
        let _ = writeln!(out, "{:<16} {:<14} {:?}", n.name, kind, n.kind);
    }
    for e in &s.entities {
        let fns: Vec<&str> = e.functions.iter().map(|f| f.name.as_str()).collect();
        let _ = writeln!(out, "{:<16} {:<14} functions: {}", e.name, "entity", fns.join(", "));
    }
    for sub in &s.subtypes {
        let fns: Vec<&str> = sub.functions.iter().map(|f| f.name.as_str()).collect();
        let _ = writeln!(
            out,
            "{:<16} {:<14} ISA {}; functions: {}",
            sub.name,
            "subtype",
            sub.supertypes.join(", "),
            fns.join(", ")
        );
    }
    for u in &s.uniques {
        let _ = writeln!(out, "{:<16} {:<14} {} WITHIN {}", "UNIQUE", "constraint", u.functions.join(", "), u.within);
    }
    for o in &s.overlaps {
        let _ = writeln!(out, "{:<16} {:<14} {} WITH {}", "OVERLAP", "constraint", o.left.join(", "), o.right.join(", "));
    }
    let pairs = s.m2m_pairs();
    for p in &pairs {
        let _ = writeln!(
            out,
            "{:<16} {:<14} {}.{} ↔ {}.{}",
            p.link, "m:n pair", p.left_entity, p.left_function, p.right_entity, p.right_function
        );
    }
    out
}

// ----- E2 -------------------------------------------------------------

/// The ABDM record format and query semantics, demonstrated.
pub fn e2() -> String {
    use abdl::{Predicate, Query, Record, RelOp, Value};
    let mut out = String::new();
    let mut rec = Record::from_pairs([
        ("FILE", Value::str("course")),
        ("course", Value::Int(17)),
        ("title", Value::str("Advanced Database")),
        ("credits", Value::Int(4)),
    ]);
    rec.body = Some("offered in Spanagel Hall".into());
    let _ = writeln!(out, "an ABDM record (attribute-value pairs + record body):");
    let _ = writeln!(out, "  {rec}");
    let queries = [
        "((FILE = course) and (title = 'Advanced Database'))",
        "((FILE = course) and (credits > 4))",
        "(((FILE = course) and (credits >= 4)) or ((FILE = course) and (title = 'x')))",
    ];
    let _ = writeln!(out, "\nkeyword predicates / DNF queries against it:");
    for q in queries {
        let query: Query = match abdl::parse::parse_request(&format!("RETRIEVE {q} (*)")) {
            Ok(abdl::Request::Retrieve { query, .. }) => query,
            _ => unreachable!("static query"),
        };
        let _ = writeln!(out, "  {q:<75} -> {}", query.matches(&rec));
    }
    let p = Predicate::new("credits", RelOp::Le, Value::Float(4.5));
    let _ = writeln!(out, "  cross-type numeric predicate (credits <= 4.5)               -> {}", p.matches(&rec));
    out
}

// ----- E3 -------------------------------------------------------------

/// The `AB(functional)` layout: per-file kernel attributes, observed
/// from a populated store (asterisked values of Figure 3.3 are the
/// relationship-dependent entity keys).
pub fn e3() -> String {
    let (_, mut store, _) = daplex::university::sample_database().expect("sample db");
    let mut out = String::new();
    let _ = writeln!(out, "{:<16} {:>8}  kernel attributes", "file", "records");
    let files: Vec<String> = store.file_names().map(str::to_owned).collect();
    for file in files {
        let resp = store
            .execute(&abdl::Request::retrieve_all(abdl::Query::conjunction(vec![
                abdl::Predicate::eq(abdl::FILE_ATTR, abdl::Value::str(file.clone())),
            ])))
            .expect("retrieve all");
        let mut attrs: Vec<String> = Vec::new();
        for (_, rec) in resp.records() {
            for a in rec.attrs() {
                if !attrs.iter().any(|x| x == a) {
                    attrs.push(a.to_owned());
                }
            }
        }
        let _ = writeln!(out, "{:<16} {:>8}  <{}>", file, resp.records().len(), attrs.join(">, <"));
    }
    out
}

// ----- E4 -------------------------------------------------------------

/// Figure 5.1: the transformed network schema, in DDL.
pub fn e4() -> String {
    let net = transform::transform(&daplex::university::schema()).expect("transform");
    codasyl::ddl::print_schema(&net)
}

// ----- E5 -------------------------------------------------------------

/// Figures 5.2–5.5: one entity type and one subtype with their network
/// representations.
pub fn e5() -> String {
    let s = daplex::university::schema();
    let net = transform::transform(&s).expect("transform");
    let mut out = String::new();

    let _ = writeln!(out, "-- Figure 5.2/5.3: the `course` entity type --");
    let _ = writeln!(out, "functional declaration:");
    for f in s.own_functions("course") {
        let set = if f.set_valued { "SET OF " } else { "" };
        let _ = writeln!(out, "    {} : {set}{:?};", f.name, f.range);
    }
    let _ = writeln!(out, "network representation:");
    let course = net.record("course").expect("course record");
    for a in &course.attrs {
        let dup = if a.dup_allowed { "" } else { "   [DUPLICATES NOT ALLOWED]" };
        let _ = writeln!(out, "    02 {} TYPE IS {}.{dup}", a.name, a.typ);
    }
    for set in net.sets.iter().filter(|x| x.member == "course" || x.owner.record() == Some("course")) {
        let _ = writeln!(
            out,
            "    SET {} (owner {}, member {}, {}/{})",
            set.name, set.owner, set.member, set.insertion, set.retention
        );
    }

    let _ = writeln!(out, "\n-- Figure 5.4/5.5: the `student` entity subtype --");
    let _ = writeln!(out, "functional declaration: ENTITY SUBTYPE OF person");
    for f in s.own_functions("student") {
        let _ = writeln!(out, "    {} : {:?};", f.name, f.range);
    }
    let _ = writeln!(out, "network representation:");
    let student = net.record("student").expect("student record");
    for a in &student.attrs {
        let _ = writeln!(out, "    02 {} TYPE IS {}.", a.name, a.typ);
    }
    for set in net.sets.iter().filter(|x| x.member == "student") {
        let _ = writeln!(
            out,
            "    SET {} (owner {}, member {}, {}/{})",
            set.name, set.owner, set.member, set.insertion, set.retention
        );
    }
    out
}

// ----- E6 -------------------------------------------------------------

/// The worked Chapter-VI examples with their generated ABDL.
pub fn e6() -> String {
    let mut m = mlds::Mlds::single_backend();
    m.create_database(daplex::university::UNIVERSITY_DDL).expect("create");
    m.populate_university("university").expect("populate");
    let mut s = m.connect_codasyl("coker", "university").expect("connect");

    let scripts = [
        ("FIND ANY (§VI.B.1)", "MOVE 'Advanced Database' TO title IN course\nFIND ANY course USING title IN course"),
        ("GET (§VI.C)", "GET course"),
        ("FIND FIRST (§VI.B.4)", "FIND FIRST course WITHIN system_course"),
        ("FIND NEXT (from RB)", "FIND NEXT course WITHIN system_course"),
        ("FIND CURRENT (§VI.B.2)", "FIND CURRENT course WITHIN system_course"),
        ("FIND OWNER (§VI.B.5)", "MOVE 'Computer Science' TO major IN student\nFIND ANY student USING major IN student\nFIND OWNER WITHIN advisor"),
        ("STORE (§VI.G)", "MOVE 'Compilers' TO title IN course\nMOVE 'S88' TO semester IN course\nMOVE 3 TO credits IN course\nSTORE course"),
        ("MODIFY (§VI.F)", "MOVE 4 TO credits IN course\nMODIFY credits IN course"),
        ("DISCONNECT (§VI.E)", "MOVE 'Mathematics' TO major IN student\nFIND ANY student USING major IN student\nDISCONNECT student FROM advisor"),
        ("CONNECT (§VI.D)", "CONNECT student TO advisor"),
        ("ERASE (§VI.H)", "MOVE 'Compilers' TO title IN course\nFIND ANY course USING title IN course\nERASE course"),
    ];
    let mut out = String::new();
    for (label, script) in scripts {
        let _ = writeln!(out, "== {label} ==");
        match m.execute_codasyl(&mut s, script) {
            Ok(results) => {
                for r in results {
                    let _ = writeln!(out, "  > {}", r.statement);
                    for req in &r.abdl {
                        let _ = writeln!(out, "      {req}");
                    }
                    if !r.display.is_empty() {
                        let _ = writeln!(out, "      => {}", r.display);
                    }
                }
            }
            Err(e) => {
                let _ = writeln!(out, "  !! {e}");
            }
        }
    }
    out
}

// ----- E7 / E8 ---------------------------------------------------------

const E7_DB: usize = 40_000;
const E7_SELECT: usize = 4_000;
const BACKENDS: [usize; 7] = [1, 2, 4, 6, 8, 12, 16];

/// A controller over `n` simulated backends keeping `k` copies of each
/// record, on the default cost model.
fn simulated(n: usize, k: usize) -> mbds::Controller {
    mbds::Controller::simulated(n, k, mbds::CostModel::default())
}

/// MBDS claim 1: response time vs backends, fixed database.
pub fn e7() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "database: {E7_DB} records; retrieval selects {E7_SELECT}");
    let _ = writeln!(out, "{:>9} {:>16} {:>9} {:>7}", "backends", "response (ms)", "speedup", "ideal");
    let mut base = None;
    for n in BACKENDS {
        let mut cluster = simulated(n, 1);
        workload::load_flat(&mut cluster, E7_DB);
        let clock = cluster.clock().expect("a simulated cluster has a clock");
        clock.reset();
        cluster.execute(&workload::range_retrieval(E7_SELECT)).expect("retrieval");
        let ms = clock.last_response_us() / 1000.0;
        let base_ms = *base.get_or_insert(ms);
        let _ = writeln!(out, "{n:>9} {ms:>16.1} {:>8.2}x {n:>6}x", base_ms / ms);
    }
    out
}

/// MBDS claim 2: response-time invariance under proportional growth.
pub fn e8() -> String {
    let per_backend = E7_DB / 8;
    let mut out = String::new();
    let _ = writeln!(out, "{per_backend} records and {} selected per backend", E7_SELECT / 8);
    let _ = writeln!(out, "{:>9} {:>10} {:>16} {:>8}", "backends", "records", "response (ms)", "ratio");
    let mut base = None;
    for n in BACKENDS {
        let mut cluster = simulated(n, 1);
        workload::load_flat(&mut cluster, per_backend * n);
        let clock = cluster.clock().expect("a simulated cluster has a clock");
        clock.reset();
        cluster.execute(&workload::range_retrieval((E7_SELECT / 8) * n)).expect("retrieval");
        let ms = clock.last_response_us() / 1000.0;
        let base_ms = *base.get_or_insert(ms);
        let _ = writeln!(out, "{n:>9} {:>10} {ms:>16.1} {:>8.3}", per_backend * n, ms / base_ms);
    }
    out
}

// ----- E9 -------------------------------------------------------------

/// Mapping-strategy ablation: the thesis chose the direct language
/// interface for its "one-step schema transformation". Compare
/// transform-once-then-run against retransform-per-transaction (the
/// high-level-preprocessing proxy) over K transactions.
pub fn e9() -> String {
    let schema = daplex::university::schema();
    let script = "MOVE 'CS' TO major IN student\nFIND ANY student USING major IN student";
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>22} {:>26} {:>9}",
        "K txns", "direct one-step (ms)", "per-transaction remap (ms)", "overhead"
    );
    for k in [1usize, 10, 100, 1000] {
        // Shared data store for both strategies.
        let mut store = Store::new();
        daplex::ab_map::install(&schema, &mut store);
        workload::load_university_scaled(&mut store, workload::Scale::of(200), 1);
        let stmts = codasyl::dml::parse_statements(script).expect("script");

        // Direct: transform once, run K transactions.
        let start = Instant::now();
        let net = transform::transform(&schema).expect("transform");
        let t = translator::Translator::for_functional(net);
        for _ in 0..k {
            let mut ru = translator::RunUnit::new();
            for stmt in &stmts {
                let _ = t.execute(&mut ru, &mut store, stmt);
            }
        }
        let direct = start.elapsed().as_secs_f64() * 1000.0;

        // Proxy: retransform the schema for every transaction.
        let start = Instant::now();
        for _ in 0..k {
            let net = transform::transform(&schema).expect("transform");
            let t = translator::Translator::for_functional(net);
            let mut ru = translator::RunUnit::new();
            for stmt in &stmts {
                let _ = t.execute(&mut ru, &mut store, stmt);
            }
        }
        let per_txn = start.elapsed().as_secs_f64() * 1000.0;
        let _ = writeln!(
            out,
            "{k:>6} {direct:>22.2} {per_txn:>26.2} {:>8.2}x",
            per_txn / direct.max(1e-9)
        );
    }
    out
}

// ----- E10 ------------------------------------------------------------

/// ABDL request fan-out per CODASYL-DML statement type over a generated
/// workload.
pub fn e10() -> String {
    let mut store = Store::new();
    daplex::ab_map::install(&daplex::university::schema(), &mut store);
    workload::load_university_scaled(&mut store, workload::Scale::of(200), 42);
    let net = transform::transform(&daplex::university::schema()).expect("transform");
    let t = translator::Translator::for_functional(net);
    let mut ru = translator::RunUnit::new();

    let script = workload::codasyl_script(2_000, 9);
    let stmts = codasyl::dml::parse_statements(&script).expect("generated script");
    let mut per_verb: std::collections::BTreeMap<&'static str, (usize, usize, usize, usize)> =
        Default::default();
    for stmt in &stmts {
        if let Ok(out) = t.execute(&mut ru, &mut store, stmt) {
            let n = out.requests.len();
            let e = per_verb.entry(stmt.verb()).or_insert((0, usize::MAX, 0, 0));
            e.0 += 1; // count
            e.1 = e.1.min(n);
            e.2 = e.2.max(n);
            e.3 += n; // total
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>6} {:>6} {:>8}",
        "statement", "executed", "min", "max", "avg ABDL"
    );
    for (verb, (count, min, max, total)) in per_verb {
        let _ = writeln!(
            out,
            "{verb:<22} {count:>8} {min:>6} {max:>6} {:>8.2}",
            total as f64 / count as f64
        );
    }
    out
}

// ----- E11 ------------------------------------------------------------

/// The Figure-1.2 claim made measurable: the same MLDS instance serves
/// all four model-based languages (plus raw ABDL); this table shows a
/// canonical workload per interface and the ABDL requests each
/// statement generated.
pub fn e11() -> String {
    let mut m = mlds::Mlds::single_backend();
    m.create_database(daplex::university::UNIVERSITY_DDL).expect("functional db");
    m.populate_university("university").expect("populate");
    m.create_database(
        "CREATE DATABASE suppliers;
         CREATE TABLE supplier (sno INTEGER NOT NULL, sname CHAR(20), city CHAR(15),
                                PRIMARY KEY (sno));",
    )
    .expect("relational db");
    m.create_database(
        "HIERARCHY NAME IS school.
         SEGMENT department.
           02 dno TYPE IS FIXED.
           SEQUENCE IS dno.
         SEGMENT course PARENT IS department.
           02 cno TYPE IS FIXED.
           02 title TYPE IS CHARACTER 30.",
    )
    .expect("hierarchical db");

    let mut out = String::new();
    let _ = writeln!(out, "{:<12} {:<58} {:>6}", "language", "statement", "ABDL");

    // CODASYL-DML (cross-model, on the functional database).
    let mut net = m.connect_codasyl("u", "university").expect("connect");
    let net_script = "MOVE 'F87' TO semester IN course
                      FIND ANY course USING semester IN course
                      GET course";
    for r in m.execute_codasyl(&mut net, net_script).expect("codasyl") {
        let _ = writeln!(out, "{:<12} {:<58} {:>6}", "CODASYL-DML", r.statement, r.abdl.len());
    }

    // Daplex.
    let mut dap = m.connect_daplex("u", "university").expect("connect");
    for (label, script) in [
        ("FOR EACH student SUCH THAT … PRINT …",
         "FOR EACH student SUCH THAT major(student) = 'Computer Science' PRINT name(student);"),
        ("CREATE person (…)", "CREATE person (name := 'E11', age := 30);"),
    ] {
        let r = &m.execute_daplex(&mut dap, script).expect("daplex")[0];
        let _ = writeln!(out, "{:<12} {:<58} {:>6}", "Daplex", label, r.abdl.len());
    }

    // SQL.
    let mut sql = m.connect_sql("u", "suppliers").expect("connect");
    for script in [
        "INSERT INTO supplier (sno, sname, city) VALUES (1, 'Smith', 'London');",
        "SELECT sname FROM supplier WHERE city = 'London';",
        "UPDATE supplier SET city = 'Paris', sname = 'S' WHERE sno = 1;",
        "DELETE FROM supplier WHERE sno = 1;",
    ] {
        let r = &m.execute_sql(&mut sql, script).expect("sql")[0];
        let _ = writeln!(out, "{:<12} {:<58} {:>6}", "SQL", script.trim_end_matches(';'), r.abdl.len());
    }

    // DL/I.
    let mut ims = m.connect_dli("u", "school").expect("connect");
    for script in [
        "ISRT department (dno = 1)",
        "ISRT course (cno = 10, title = 'Databases')",
        "GU department (dno = 1) course (cno = 10)",
        "REPL course (title = 'DB II')",
        "DLET course",
    ] {
        let r = &m.execute_dli(&mut ims, script).expect("dli")[0];
        let _ = writeln!(out, "{:<12} {:<58} {:>6}", "DL/I", script, r.abdl.len());
    }
    out
}

// ----- E12 ------------------------------------------------------------

/// The directory-index design decision (DESIGN.md §2), measured
/// deterministically: per-request records examined by the kernel with
/// directory indexes vs full scans, over growing files.
pub fn e12() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>9} {:<28} {:>14} {:>12} {:>9}",
        "records", "request", "scan examined", "indexed", "ratio"
    );
    for n in [1_000usize, 10_000, 40_000] {
        for (label, req_text) in [
            ("point (payload = 7)", "RETRIEVE ((FILE = f) and (payload = 7)) (*)"),
            ("range (f < 100)", "RETRIEVE ((FILE = f) and (f < 100)) (*)"),
        ] {
            let req = abdl::parse::parse_request(req_text).expect("static request");
            let mut scan_examined = 0;
            let mut idx_examined = 0;
            for (indexing, slot) in
                [(false, &mut scan_examined), (true, &mut idx_examined)]
            {
                let mut store = Store::with_indexing(indexing);
                store.create_file("f");
                for i in 0..n {
                    let rec = abdl::Record::from_pairs([("FILE", abdl::Value::str("f"))])
                        .with("f", abdl::Value::Int(i as i64))
                        .with("payload", abdl::Value::Int(((i * 37) % 1000) as i64));
                    store.execute(&abdl::Request::Insert { record: rec }).expect("load");
                }
                let resp = store.execute(&req).expect("query");
                *slot = resp.stats.records_examined;
            }
            let _ = writeln!(
                out,
                "{n:>9} {label:<28} {scan_examined:>14} {idx_examined:>12} {:>8.0}x",
                scan_examined as f64 / idx_examined.max(1) as f64
            );
        }
    }
    out
}

// ----- E13 ------------------------------------------------------------

/// Fault tolerance in the deterministic simulator: what fraction of a
/// database stays answerable as backends fail, for replication factors
/// k = 1 (the paper's unreplicated MBDS), 2 (the default) and 3 — and
/// what recovery (restart + re-replication from surviving replicas)
/// costs in simulated time. Failures kill adjacent backends, the worst
/// case for adjacent replica groups.
pub fn e13() -> String {
    const N: usize = E13_BACKENDS;
    const DB: usize = 8_000;
    let mut out = String::new();
    let _ = writeln!(out, "{N} backends, {DB} records; killed backends are adjacent");
    let _ = writeln!(
        out,
        "{:>2} {:>9} {:>18} {:>10} {:>9}",
        "k", "failures", "records visible", "coverage", "degraded"
    );
    for k in [1usize, 2, 3] {
        for failures in [0usize, 1, 2, 3] {
            let mut cluster = simulated(N, k);
            workload::load_flat(&mut cluster, DB);
            for b in 0..failures {
                cluster.kill_backend(b);
            }
            let resp = cluster
                .execute(&workload::range_retrieval(DB))
                .expect("a live backend remains");
            let visible = resp.records().len();
            let _ = writeln!(
                out,
                "{k:>2} {failures:>9} {visible:>13}/{DB} {:>9.1}% {:>9}",
                100.0 * visible as f64 / DB as f64,
                resp.degraded
            );
        }
    }
    let _ = writeln!(out, "\nrecovery (k = 2): restart one backend, re-replicate from survivors");
    let _ = writeln!(out, "{:>9} {:>22}", "records", "recovery time (sim ms)");
    for db in E13_RECOVERY_DB {
        let _ = writeln!(out, "{db:>9} {:>22.1}", e13_recovery_ms(E13_BACKENDS, db));
    }
    out
}

/// Database sizes of E13's recovery table.
const E13_RECOVERY_DB: [usize; 3] = [1_000, 4_000, 16_000];
const E13_BACKENDS: usize = 8;

/// Simulated time (ms) to restart one killed backend of an `n`-backend,
/// k = 2 cluster holding `db` records: every round of the restart —
/// schema replay, one key fetch per replica-group window, one copy per
/// record.
fn e13_recovery_ms(n: usize, db: usize) -> f64 {
    let mut cluster = simulated(n, 2);
    workload::load_flat(&mut cluster, db);
    cluster.kill_backend(0);
    let clock = cluster.clock().expect("a simulated cluster has a clock");
    clock.reset();
    cluster.restart_backend(0).expect("restart");
    clock.total_us() / 1000.0
}

// ----- E14 ------------------------------------------------------------

/// Durability cost: wall-clock time for `Controller::recover` as a
/// function of write-ahead-log length, with and without snapshot
/// compaction.
///
/// Two regimes. A growing database (insert-only log): the snapshot
/// holds the same records the log would replay, so compaction shortens
/// the log but recovery stays linear in *database size* either way. A
/// stable database under churn (update-heavy log): without snapshots
/// recovery re-executes every update and grows linearly with the log;
/// with compaction it is bounded by snapshot interval + database size
/// — the textbook case for checkpointing.
pub fn e14() -> String {
    let recover_ms = |inserts: usize, updates: usize, snapshot_every: u64| {
        let log = mbds::MemLog::new();
        let mut c =
            mbds::Controller::durable_with(4, 2, log.clone()).expect("durable controller");
        c.set_snapshot_every(snapshot_every);
        workload::load_flat(&mut c, inserts);
        for u in 0..updates {
            let req = abdl::parse::parse_request(&format!(
                "UPDATE ((FILE = f) and (f = {})) (payload = {})",
                u % inserts,
                u % 1000
            ))
            .expect("static update");
            c.execute(&req).expect("update");
        }
        drop(c);
        let entries = log.log_len();
        let start = Instant::now();
        drop(mbds::Controller::recover_with(log).expect("recover"));
        (entries, start.elapsed().as_secs_f64() * 1000.0)
    };
    let cadence = |n: u64| if n == 0 { "off".to_owned() } else { n.to_string() };

    let mut out = String::new();
    let _ = writeln!(out, "4 backends, k = 2; durable controller over an in-memory log\n");
    let _ = writeln!(out, "growing database: N inserts, log length = N");
    let _ = writeln!(
        out,
        "{:>8} {:>15} {:>13} {:>14}",
        "inserts", "snapshot every", "log entries", "recovery (ms)"
    );
    for inserts in [500usize, 2_000, 8_000] {
        for snapshot_every in [0u64, 1_000] {
            let (entries, ms) = recover_ms(inserts, 0, snapshot_every);
            let _ = writeln!(
                out,
                "{inserts:>8} {:>15} {entries:>13} {ms:>14.1}",
                cadence(snapshot_every)
            );
        }
    }
    let _ = writeln!(out, "\nstable database (500 records) under churn: log length = updates");
    let _ = writeln!(
        out,
        "{:>8} {:>15} {:>13} {:>14}",
        "updates", "snapshot every", "log entries", "recovery (ms)"
    );
    for updates in [1_000usize, 4_000, 16_000] {
        for snapshot_every in [0u64, 1_000] {
            let (entries, ms) = recover_ms(500, updates, snapshot_every);
            let _ = writeln!(
                out,
                "{updates:>8} {:>15} {entries:>13} {ms:>14.1}",
                cadence(snapshot_every)
            );
        }
    }
    out
}

// ----- E16 ------------------------------------------------------------

/// The outcome of one E16 regime: what promotion and cold recovery
/// each had to do, and what they took.
struct E16Regime {
    /// Log lines since the last snapshot when the primary died.
    entries: usize,
    /// Log records the standby applied while tailing.
    shipped: u64,
    /// Bytes of log the standby had not consumed when it was promoted.
    bytes_behind: u64,
    /// Log entries cold recovery reads and replays.
    replayed: usize,
    promote_ms: f64,
    recover_ms: f64,
    /// The promoted and the recovered controller hold the same state.
    digests_match: bool,
}

/// One E16 regime: a stable 500-record database under `updates` of
/// churn, a standby tailing the log throughout.
///
/// Both paths run on the *same* log: promotion first (the primary is
/// still alive, so its drop detaches from the shared backends), then
/// `Controller::recover_with` replaying the identical snapshot + suffix
/// into a fresh cluster.
fn e16_measure(updates: usize, snapshot_every: u64) -> E16Regime {
    const RECORDS: usize = 500;
    let log = mbds::MemLog::new();
    let mut c = mbds::Controller::durable_with(4, 2, log.clone()).expect("durable controller");
    c.set_snapshot_every(snapshot_every);
    workload::load_flat(&mut c, RECORDS);
    let mut sb = c.standby(Box::new(log.clone())).expect("standby");
    for u in 0..updates {
        let req = abdl::parse::parse_request(&format!(
            "UPDATE ((FILE = f) and (f = {})) (payload = {})",
            u % RECORDS,
            u % 1000
        ))
        .expect("static update");
        c.execute(&req).expect("update");
        // Continuous tailing at a realistic cadence: the standby stays
        // warm, so promotion has at most a batch of entries to absorb.
        if u % 64 == 0 {
            sb.poll().expect("poll");
        }
    }
    sb.poll().expect("final poll");
    let lag = sb.lag();
    let entries = log.log_len();

    let start = Instant::now();
    let mut p = sb.promote().expect("promote");
    let promote_ms = start.elapsed().as_secs_f64() * 1000.0;
    drop(c); // demoted: detaches from the backends the promoted controller now owns
    let promoted = p.state_digest().expect("promoted digest");
    drop(p);

    let (_, log_entries, _) = mbds::Wal::load(Box::new(log.clone())).expect("load the log");
    let start = Instant::now();
    let mut r = mbds::Controller::recover_with(log).expect("recover");
    let recover_ms = start.elapsed().as_secs_f64() * 1000.0;
    E16Regime {
        entries,
        shipped: lag.records_shipped,
        bytes_behind: lag.bytes_behind,
        replayed: log_entries.len(),
        promote_ms,
        recover_ms,
        digests_match: r.state_digest().expect("recovered digest") == promoted,
    }
}

/// Failover: epoch-fenced hot-standby promotion versus cold WAL replay,
/// over the same stable-database churn regimes as E14.
pub fn e16() -> String {
    let cadence = |n: u64| if n == 0 { "off".to_owned() } else { n.to_string() };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "4 backends, k = 2; stable database (500 records) under churn;\n\
         standby tails the log during the run, then the primary dies\n"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>15} {:>12} {:>8} {:>8} {:>10} {:>13} {:>12} {:>9} {:>6}",
        "updates",
        "snapshot every",
        "log entries",
        "shipped",
        "behind",
        "replayed",
        "promote (ms)",
        "recover (ms)",
        "speedup",
        "state"
    );
    for updates in [1_000usize, 4_000, 16_000] {
        for snapshot_every in [0u64, 1_000] {
            let r = e16_measure(updates, snapshot_every);
            let _ = writeln!(
                out,
                "{updates:>8} {:>15} {:>12} {:>8} {:>8} {:>10} {:>13.2} {:>12.1} {:>8.0}x {:>6}",
                cadence(snapshot_every),
                r.entries,
                r.shipped,
                r.bytes_behind,
                r.replayed,
                r.promote_ms,
                r.recover_ms,
                r.recover_ms / r.promote_ms,
                if r.digests_match { "same" } else { "DIFFER" }
            );
        }
    }
    let _ = writeln!(
        out,
        "\nbehind = log bytes the standby had not consumed at promotion (promotion replays \
         only those); replayed = log entries cold recovery reads and re-executes"
    );
    out
}

// ----- E19 ------------------------------------------------------------

/// Model checker: exhaust the failover model at growing depth
/// bounds (the real protocol — both invariants must hold), then run
/// every model's CI configuration — the shipped protocol, which must
/// hold and reach its coverage facts, and every mutation in its
/// catalogue, which must be killed — and record how short each
/// counterexample trace is.
pub fn e19() -> String {
    use mbds::model::flight::FlightConfig;
    use mbds::model::rebalance::RebalanceConfig;
    use mbds::model::{check, Model, ModelConfig};

    /// One kill-table row per catalogue entry of `M`, shipped protocol
    /// first; returns how many rows met their expectation.
    fn kill_rows<M: Model>(out: &mut String) -> usize {
        let mutants = M::MUTATIONS.iter().map(|&(m, _)| M::with_mutation(m));
        let mut met = 0;
        for cfg in std::iter::once(M::small()).chain(mutants) {
            let report = check(&cfg);
            let (invariant, trace_len) = match &report.counterexample {
                Some(ce) => (format!("I{}", ce.invariant()), ce.trace.len()),
                None => ("-".to_owned(), 0),
            };
            let verdict = match (cfg.mutation() == Default::default(), report.as_expected()) {
                (true, true) => "holds",
                (true, false) => "VIOLATED",
                (false, true) => "caught",
                (false, false) => "MISSED",
            };
            met += usize::from(report.as_expected());
            let _ = writeln!(
                out,
                "{:<10} {:<28} {:>9} {:>10} {:>9} {:>10}",
                M::NAME,
                cfg.mutation_name(),
                invariant,
                trace_len,
                report.states,
                verdict
            );
        }
        met
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "failover model: 1 primary, 1 standby, 2 backends, 4 writes, 1 crash, 1 snapshot\n"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>12} {:>9} {:>9} {:>10}",
        "depth", "states", "transitions", "frontier", "ms", "verdict"
    );
    let mut protocol_holds = true;
    for depth in [8u32, 10, 12, 13, 14, 16] {
        let config = ModelConfig { depth, ..ModelConfig::small() };
        let report = check(&config);
        let holds = report.counterexample.is_none();
        protocol_holds &= holds;
        let _ = writeln!(
            out,
            "{depth:>6} {:>10} {:>12} {:>9} {:>9} {:>10}",
            report.states,
            report.transitions,
            report.frontier_peak,
            report.elapsed.as_millis(),
            if holds { "holds" } else { "VIOLATED" }
        );
    }

    let _ = writeln!(
        out,
        "\nmutation kill table (each model's CI configuration; failover depth {}):",
        ModelConfig::small().depth
    );
    let _ = writeln!(
        out,
        "{:<10} {:<28} {:>9} {:>10} {:>9} {:>10}",
        "model", "mutation", "invariant", "trace len", "states", "verdict"
    );
    let met = kill_rows::<ModelConfig>(&mut out)
        + kill_rows::<FlightConfig>(&mut out)
        + kill_rows::<RebalanceConfig>(&mut out);
    let rows = 3
        + ModelConfig::MUTATIONS.len()
        + FlightConfig::MUTATIONS.len()
        + RebalanceConfig::MUTATIONS.len();
    let _ = writeln!(
        out,
        "\nfailover protocol {} both invariants at every depth; {met} of {rows} kill-table rows \
         as expected (each protocol holds with its coverage facts reached, each mutation caught)",
        if protocol_holds { "holds" } else { "VIOLATES" }
    );
    out
}

// ----- E21 ------------------------------------------------------------

/// Working set of the elastic run.
const E21_ROWS: i64 = 2_000;

/// What one rebalance phase of E21 cost while its moves were queued.
struct E21Phase {
    /// Foreground batches run until the queue drained.
    batches: u64,
    /// Group retargets committed.
    groups: u64,
    /// Record bytes shipped to new members.
    bytes: u64,
    /// Batch members refused a flight because a move was pending.
    stalls: u64,
}

/// What one E21 run moved, and whether it kept the data.
struct E21Run {
    add: E21Phase,
    drain: E21Phase,
    compression: mbds::CompressionStats,
    /// The elastic run's placement-independent digest matched a static
    /// cluster that executed the same workload with no membership
    /// changes.
    matches_static: bool,
}

/// Foreground batch for the elastic run: 64 requests, 90% key-scoped
/// point reads over the seeded working set, 10% fresh unique inserts
/// (whose keys are pushed onto `inserted` so a static replay can
/// reproduce the run).
fn e21_batch(probe: &mut i64, next_key: &mut i64, inserted: &mut Vec<i64>) -> Vec<abdl::Request> {
    let mut batch = Vec::with_capacity(64);
    for i in 0..64 {
        if i % 10 == 9 {
            *next_key += 1;
            inserted.push(*next_key);
            batch.push(abdl::Request::Insert {
                record: abdl::Record::from_pairs([("FILE", abdl::Value::str("t"))])
                    .with("u", abdl::Value::Int(*next_key))
                    .with("v", abdl::Value::Int(*next_key % 997)),
            });
        } else {
            *probe += 7919; // a prime stride scatters probes over the set
            batch.push(
                abdl::parse::parse_request(&format!(
                    "RETRIEVE ((FILE = t) and (u = {})) (*)",
                    *probe % E21_ROWS
                ))
                .unwrap(),
            );
        }
    }
    batch
}

/// A 3-backend in-memory controller with `E21_ROWS` unique-keyed
/// records in file `t`, seeded through the batch path. Each foreground
/// request piggybacks at most one 8-record move bracket, so the groups
/// move in many chunks.
fn e21_controller() -> mbds::Controller {
    let mut c = mbds::Controller::new(3);
    c.set_move_chunk(8);
    c.create_file("t");
    c.add_unique_constraint("t", vec!["u".to_owned()]);
    let seed: Vec<abdl::Request> = (0..E21_ROWS)
        .map(|u| abdl::Request::Insert {
            record: abdl::Record::from_pairs([("FILE", abdl::Value::str("t"))])
                .with("u", abdl::Value::Int(u))
                .with("v", abdl::Value::Int(u * 37 % 997)),
        })
        .collect();
    for chunk in seed.chunks(256) {
        for res in c.execute_batch(chunk) {
            res.expect("e21 seed insert");
        }
    }
    c
}

/// Seed the working set on 3 backends, then add a backend and drain
/// backend 0 with foreground traffic flowing — the controller
/// amortizes the queued group moves behind each request. A fresh
/// 3-backend cluster then replays the same logical workload and the
/// placement-independent digests are compared.
fn e21_run() -> E21Run {
    let mut c = e21_controller();
    let compression = c.directory_compression();
    let mut probe = 0i64;
    let mut next_key = E21_ROWS;
    let mut inserted: Vec<i64> = Vec::new();
    // Foreground batches until the rebalance queue drains.
    let mut drive = |c: &mut mbds::Controller| {
        let t0 = c.exec_totals();
        let mut batches = 0;
        while c.rebalance_pending() > 0 {
            for res in c.execute_batch(&e21_batch(&mut probe, &mut next_key, &mut inserted)) {
                res.expect("e21 foreground request");
            }
            batches += 1;
        }
        let t1 = c.exec_totals();
        E21Phase {
            batches,
            groups: t1.groups_moved - t0.groups_moved,
            bytes: t1.move_bytes - t0.move_bytes,
            stalls: t1.rebalance_stalls - t0.rebalance_stalls,
        }
    };
    c.add_backend().expect("e21 add backend");
    let add = drive(&mut c);
    c.drain_backend(0).expect("e21 drain backend 0");
    let drain = drive(&mut c);

    let mut s = e21_controller();
    let extra: Vec<abdl::Request> = inserted
        .iter()
        .map(|&u| abdl::Request::Insert {
            record: abdl::Record::from_pairs([("FILE", abdl::Value::str("t"))])
                .with("u", abdl::Value::Int(u))
                .with("v", abdl::Value::Int(u % 997)),
        })
        .collect();
    for chunk in extra.chunks(256) {
        for res in s.execute_batch(chunk) {
            res.expect("e21 static replay insert");
        }
    }
    let matches_static =
        s.logical_digest().expect("static digest") == c.logical_digest().expect("elastic digest");
    E21Run { add, drain, compression, matches_static }
}

/// Elastic cluster: an online add and drain under foreground traffic,
/// checked against a static cluster.
pub fn e21() -> String {
    let r = e21_run();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "elastic cluster: 3 in-memory backends (k = 2), {E21_ROWS} seeded rows, 64-request \
         foreground batches (90% point reads / 10% fresh inserts); .addbackend then .drain 0 \
         with traffic flowing, 8-record move chunks amortized behind each request\n"
    );
    let _ = writeln!(
        out,
        "{:<7} {:>8} {:>13} {:>14} {:>9}",
        "phase", "batches", "groups moved", "bytes shipped", "stalled"
    );
    for (name, p) in [("add", &r.add), ("drain", &r.drain)] {
        let _ = writeln!(
            out,
            "{name:<7} {:>8} {:>13} {:>14} {:>9}",
            p.batches, p.groups, p.bytes, p.stalls
        );
    }
    let m = &r.compression;
    let _ = writeln!(
        out,
        "\ndirectory map: {} entries, flat ~{} B vs compressed ~{} B ({} run(s) + {} overlay)",
        m.entries, m.flat_bytes, m.resident_bytes, m.runs, m.overlay
    );
    let _ = writeln!(
        out,
        "elastic digest {} the static cluster's",
        if r.matches_static { "matches" } else { "DIVERGED from" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_runs() {
        for (id, _) in EXPERIMENTS {
            if id == "e9" || id == "e21" {
                continue; // timing sweep / covered by its own test
            }
            let out = run_experiment(id).unwrap_or_else(|| panic!("missing {id}"));
            assert!(!out.trim().is_empty(), "{id} produced no output");
        }
    }

    #[test]
    fn e7_shape_is_reciprocal_and_e8_flat() {
        let e7 = e7();
        // Extract speedups from the table: last backend row should be
        // close to 16x.
        let last = e7.lines().last().unwrap();
        let speedup: f64 = last
            .split_whitespace()
            .nth(2)
            .unwrap()
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(speedup > 10.0, "E7 final speedup too small: {speedup} in\n{e7}");

        let e8 = e8();
        let last = e8.lines().last().unwrap();
        let ratio: f64 = last.split_whitespace().nth(3).unwrap().parse().unwrap();
        assert!((0.9..1.2).contains(&ratio), "E8 drifted: {ratio} in\n{e8}");
    }

    /// EXPERIMENTS.md's E13 claim: recovering a backend costs simulated
    /// time that grows with the volume it re-replicates.
    #[test]
    fn e13_recovery_grows_with_the_re_replicated_volume() {
        let ms = E13_RECOVERY_DB.map(|db| e13_recovery_ms(E13_BACKENDS, db));
        assert!(ms[0] > 0.0 && ms[0] < ms[1] && ms[1] < ms[2], "recovery times {ms:?}");
    }

    #[test]
    fn e16_promotion_beats_cold_recovery() {
        // Counted, not timed: the warm standby has consumed the whole
        // log when it is promoted, so promotion replays nothing, while
        // cold recovery reads and replays every logged entry — and both
        // arrive at the same state.
        let r = e16_measure(1_000, 0);
        assert_eq!(r.bytes_behind, 0, "the standby still had log to absorb");
        assert!(r.entries >= 1_000, "the churn was not logged: {} entries", r.entries);
        assert_eq!(r.replayed, r.entries, "cold recovery must read the whole log");
        assert!(r.digests_match, "promoted and recovered controllers diverged");
    }

    #[test]
    fn e21_elastic_run_matches_the_static_cluster() {
        // Groups actually moved, bytes actually shipped, and the elastic
        // run's placement-independent digest matches a static cluster
        // that executed the same workload.
        let r = e21_run();
        assert!(r.add.groups + r.drain.groups > 0, "add + drain moved no groups");
        assert!(r.add.bytes + r.drain.bytes > 0, "group moves shipped no record bytes");
        assert!(r.matches_static, "elastic digest diverged from the static cluster");
        assert_eq!(r.compression.entries, E21_ROWS as u64);
    }

    #[test]
    fn e10_fanout_matches_chapter_vi_expectations() {
        let table = e10();
        // FIND CURRENT must be 0 requests; FIND ANY exactly 1.
        for line in table.lines() {
            if line.starts_with("FIND CURRENT") {
                assert!(line.contains(" 0 "), "FIND CURRENT row: {line}");
            }
            if line.starts_with("FIND ANY") {
                let avg: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
                assert!((avg - 1.0).abs() < 1e-9, "FIND ANY avg: {line}");
            }
        }
    }
}
