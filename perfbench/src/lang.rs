//! `lang_university`: the paper's claim — four data-model languages
//! running as LIL → KMS → KC → KFS pipelines over one ABDL kernel.
//!
//! One client, one `Mlds` over an in-process 4-backend controller (no
//! WAL) holding a functional University database, a relational
//! database and a hierarchical database. The statement mix is 50 %
//! CODASYL-DML through the cross-model transform (the statement blocks
//! of `workload::codasyl_script`), 10 % Daplex `FOR EACH … SUCH THAT`,
//! 20 % SQL (point SELECT / INSERT / UPDATE) and 20 % DL/I (GU / GN /
//! ISRT). Every statement's outcome — end of
//! set and no-currency statuses included — must equal the outcome of
//! the same statement sequence on `Mlds::single_backend()`.

use crate::report::{self, Fnv, Outcome};
use crate::trace::{self, AsController, TracedKernel};
use crate::{secs, Deck, Meter, Stop};
use mlds::abdl::prng::Prng;
use mlds::abdl::Kernel;
use mlds::mbds::Controller;
use mlds::session::{CodasylSession, DaplexSession, HierSession, SqlSession, StatementOutput};
use mlds::{Mlds, NamespacedKernel};
use mlds_bench::workload::{self, Scale};
use std::time::Instant;

const BACKENDS: usize = 4;
const REPLICATION: usize = 2;

const SQL_DDL: &str = "
CREATE DATABASE staff;
CREATE TABLE emp (
    eno INTEGER NOT NULL, ename CHAR(20), dept INTEGER, salary INTEGER, PRIMARY KEY (eno));
";

const DBD: &str = "
HIERARCHY NAME IS school.
SEGMENT department.
  02 dno TYPE IS FIXED.
  02 dname TYPE IS CHARACTER 20.
  SEQUENCE IS dno.
SEGMENT course PARENT IS department.
  02 cno TYPE IS FIXED.
  02 title TYPE IS CHARACTER 30.
  SEQUENCE IS cno.
";

#[derive(Debug, Clone)]
pub struct Config {
    /// University scale (`workload::Scale::of`).
    pub students: usize,
    /// Seeded `emp` rows.
    pub sql_rows: u64,
    /// Seeded departments, each with `courses_per_dept` courses.
    pub departments: u64,
    pub courses_per_dept: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

impl Config {
    /// ~5k students (6.6k entities), 5k SQL rows, 5.1k segments.
    pub fn full() -> Self {
        Config {
            students: 5_000,
            sql_rows: 5_000,
            departments: 100,
            courses_per_dept: 50,
            setup_repeats: crate::SETUP_REPEATS,
        }
    }

    /// A small instance for the equivalence tests.
    pub fn small() -> Self {
        Config {
            students: 200,
            sql_rows: 200,
            departments: 10,
            courses_per_dept: 10,
            setup_repeats: 1,
        }
    }
}

/// The four interfaces a statement can go to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Iface {
    Codasyl,
    Daplex,
    Sql,
    Dli,
}

const IFACES: [(Iface, &str); 4] = [
    (Iface::Codasyl, "codasyl"),
    (Iface::Daplex, "daplex"),
    (Iface::Sql, "sql"),
    (Iface::Dli, "dli"),
];

impl Iface {
    fn stmt_span(self) -> &'static str {
        match self {
            Iface::Codasyl => "codasyl.stmt",
            Iface::Daplex => "daplex.stmt",
            Iface::Sql => "sql.stmt",
            Iface::Dli => "dli.stmt",
        }
    }

    fn parse_span(self) -> &'static str {
        match self {
            Iface::Codasyl => "codasyl.parse",
            Iface::Daplex => "daplex.parse",
            Iface::Sql => "sql.parse",
            Iface::Dli => "dli.parse",
        }
    }
}

/// One system under test with its four open sessions.
struct Db<K: Kernel> {
    m: Mlds<K>,
    cod: CodasylSession,
    dap: DaplexSession,
    sql: SqlSession,
    dli: HierSession,
}

fn setup<K: Kernel>(kernel: K, cfg: &Config, seed: u64) -> Result<Db<K>, String> {
    let e = |what: &str, err: mlds::Error| format!("set-up: {what}: {err}");
    let mut m = Mlds::with_kernel(kernel);
    let uni = m
        .create_database(mlds::daplex::university::UNIVERSITY_DDL)
        .map_err(|x| e("university", x))?;
    workload::load_university_scaled(
        &mut NamespacedKernel::new(m.kernel_mut(), &uni),
        Scale::of(cfg.students),
        seed,
    );
    let staff = m.create_database(SQL_DDL).map_err(|x| e("staff", x))?;
    let mut sql = m
        .connect_sql("codd", &staff)
        .map_err(|x| e("connect sql", x))?;
    let mut rng = Prng::seed_from_u64(seed ^ 0x5157);
    let rows: Vec<String> = (0..cfg.sql_rows)
        .map(|k| {
            format!(
                "INSERT INTO emp (eno, ename, dept, salary) VALUES ({k}, 'emp_{k}', {}, {});",
                k % 50,
                rng.gen_range(20_000, 90_000)
            )
        })
        .collect();
    for chunk in rows.chunks(250) {
        m.execute_sql(&mut sql, &chunk.join("\n"))
            .map_err(|x| e("seed emp", x))?;
    }
    let school = m.create_database(DBD).map_err(|x| e("school", x))?;
    let mut dli = m
        .connect_dli("ibm", &school)
        .map_err(|x| e("connect dli", x))?;
    for d in 0..cfg.departments {
        let mut script = format!("ISRT department (dno = {d}, dname = 'dept_{d}')\n");
        for c in 0..cfg.courses_per_dept {
            script.push_str(&format!(
                "ISRT course (cno = {}, title = 'course_{d}_{c}')\n",
                d * 1000 + c
            ));
        }
        m.execute_dli(&mut dli, &script)
            .map_err(|x| e("seed school", x))?;
    }
    m.execute_dli(&mut dli, "GU department (dno = 0)")
        .map_err(|x| e("position dli", x))?;
    // The first CODASYL connection to the functional database runs the
    // schema transform (cached for later connections).
    let cod = m
        .connect_codasyl("coker", &uni)
        .map_err(|x| e("connect codasyl", x))?;
    let dap = m
        .connect_daplex("shipman", &uni)
        .map_err(|x| e("connect daplex", x))?;
    Ok(Db {
        m,
        cod,
        dap,
        sql,
        dli,
    })
}

/// Interface shares per ten statements: 50 % CODASYL, 10 % Daplex,
/// 20 % SQL, 20 % DL/I.
const MIX: [Iface; 10] = [
    Iface::Codasyl,
    Iface::Codasyl,
    Iface::Codasyl,
    Iface::Codasyl,
    Iface::Codasyl,
    Iface::Daplex,
    Iface::Sql,
    Iface::Sql,
    Iface::Dli,
    Iface::Dli,
];

/// The CODASYL-DML statement blocks of `workload::codasyl_script`, with
/// its weights (the student lookup twice). Each block establishes the
/// currency its later statements need.
#[derive(Debug, Clone, Copy)]
enum Block {
    GetStudent,
    CourseScan,
    StudentOwner,
    AdvisorWalk,
    StorePerson,
    ModifyGpa,
    CurrentPerson,
    FirstPerson,
    Disconnect,
}

const BLOCKS: [Block; 10] = [
    Block::GetStudent,
    Block::GetStudent,
    Block::CourseScan,
    Block::StudentOwner,
    Block::AdvisorWalk,
    Block::StorePerson,
    Block::ModifyGpa,
    Block::CurrentPerson,
    Block::FirstPerson,
    Block::Disconnect,
];

#[derive(Debug, Clone, Copy)]
enum SqlOp {
    Select,
    Insert,
    Update,
}

#[derive(Debug, Clone, Copy)]
enum DliOp {
    Gu,
    Gn,
    Isrt,
}

/// The seeded statement stream. Every kind is dealt from a [`Deck`], so
/// each run holds the same mix: per ten statements the interface
/// shares above, per ten CODASYL blocks the generator's ten blocks,
/// per four SQL statements two point SELECTs, an INSERT and an UPDATE,
/// per ten DL/I calls four GUs, three GNs and three ISRTs, and Daplex
/// alternating student and course lookups.
struct Gen {
    rng: Prng,
    seed: u64,
    cfg: Config,
    mix: Deck<Iface>,
    blocks: Deck<Block>,
    sql: Deck<SqlOp>,
    dli: Deck<DliOp>,
    daplex: Deck<bool>,
    /// CODASYL statements of the current block, next first.
    pending: std::collections::VecDeque<String>,
    stored: u64,
    next_eno: u64,
    next_cno: u64,
}

impl Gen {
    fn new(cfg: &Config, seed: u64) -> Self {
        Gen {
            rng: Prng::seed_from_u64(seed ^ 0x1a46),
            seed,
            cfg: cfg.clone(),
            mix: Deck::new(&MIX),
            blocks: Deck::new(&BLOCKS),
            sql: Deck::new(&[SqlOp::Select, SqlOp::Select, SqlOp::Insert, SqlOp::Update]),
            dli: Deck::new(&[
                DliOp::Gu,
                DliOp::Gu,
                DliOp::Gu,
                DliOp::Gu,
                DliOp::Gn,
                DliOp::Gn,
                DliOp::Gn,
                DliOp::Isrt,
                DliOp::Isrt,
                DliOp::Isrt,
            ]),
            daplex: Deck::new(&[true, false]),
            pending: Default::default(),
            stored: 0,
            next_eno: cfg.sql_rows,
            next_cno: 1_000_000,
        }
    }

    fn codasyl_block(&mut self) {
        let major = *self.rng.pick(&workload::MAJORS);
        let find_student = [
            format!("MOVE '{major}' TO major IN student"),
            "FIND ANY student USING major IN student".to_owned(),
        ];
        let tail: Vec<String> = match self.blocks.draw(&mut self.rng) {
            Block::GetStudent => vec!["GET student".into()],
            Block::CourseScan => {
                self.pending.extend([
                    "FIND FIRST course WITHIN system_course".to_owned(),
                    "FIND NEXT course WITHIN system_course".to_owned(),
                ]);
                return;
            }
            Block::StudentOwner => vec!["FIND OWNER WITHIN person_student".into()],
            Block::AdvisorWalk => {
                vec![
                    "FIND OWNER WITHIN advisor".into(),
                    "FIND FIRST student WITHIN advisor".into(),
                ]
            }
            Block::StorePerson => {
                self.stored += 1;
                self.pending.extend([
                    format!("MOVE 'gen_{}_{}' TO name IN person", self.seed, self.stored),
                    format!("MOVE {} TO age IN person", self.rng.gen_range(17, 60)),
                    "STORE person".to_owned(),
                ]);
                return;
            }
            Block::ModifyGpa => vec![
                format!(
                    "MOVE {} TO gpa IN student",
                    self.rng.gen_range(20, 40) as f64 / 10.0
                ),
                "MODIFY gpa IN student".into(),
            ],
            Block::CurrentPerson => vec!["FIND CURRENT student WITHIN person_student".into()],
            Block::FirstPerson => {
                self.pending.extend([
                    "FIND FIRST person WITHIN system_person".to_owned(),
                    "GET name IN person".to_owned(),
                ]);
                return;
            }
            Block::Disconnect => vec![
                "DISCONNECT student FROM advisor".into(),
                "FIND OWNER WITHIN person_student".into(),
            ],
        };
        self.pending.extend(find_student);
        self.pending.extend(tail);
    }

    fn next(&mut self) -> (Iface, String) {
        let iface = self.mix.draw(&mut self.rng);
        let cfg = &self.cfg;
        let text = match iface {
            Iface::Codasyl => {
                if self.pending.is_empty() {
                    self.codasyl_block();
                }
                self.pending.pop_front().expect("a block has statements")
            }
            Iface::Daplex => {
                if self.daplex.draw(&mut self.rng) {
                    let i = self.rng.index(cfg.students);
                    format!("FOR EACH student SUCH THAT name(student) = 'student_{i}' PRINT major(student), age(student);")
                } else {
                    let i = self.rng.index(cfg.students / 5 + 1);
                    format!("FOR EACH course SUCH THAT title(course) = 'course_{i}' PRINT credits(course);")
                }
            }
            Iface::Sql => {
                let k = self.rng.index(cfg.sql_rows as usize);
                match self.sql.draw(&mut self.rng) {
                    SqlOp::Select => format!("SELECT ename, salary FROM emp WHERE eno = {k};"),
                    SqlOp::Insert => {
                        let eno = self.next_eno;
                        self.next_eno += 1;
                        format!(
                            "INSERT INTO emp (eno, ename, dept, salary) VALUES ({eno}, 'emp_{eno}', {}, {});",
                            eno % 50,
                            self.rng.gen_range(20_000, 90_000)
                        )
                    }
                    SqlOp::Update => {
                        format!(
                            "UPDATE emp SET salary = {} WHERE eno = {k};",
                            self.rng.gen_range(20_000, 90_000)
                        )
                    }
                }
            }
            Iface::Dli => match self.dli.draw(&mut self.rng) {
                DliOp::Gu => {
                    let d = self.rng.index(cfg.departments as usize) as u64;
                    let c = self.rng.index(cfg.courses_per_dept as usize) as u64;
                    format!("GU department (dno = {d}) course (cno = {})", d * 1000 + c)
                }
                DliOp::Gn => "GN course".to_owned(),
                DliOp::Isrt => {
                    let cno = self.next_cno;
                    self.next_cno += 1;
                    format!("ISRT course (cno = {cno}, title = 'new_{cno}')")
                }
            },
        };
        (iface, text)
    }
}

/// Run one statement; returns its normalized outcome. With tracing on,
/// the statement is a `<iface>.stmt` span. CODASYL text is parsed by
/// the benchmark (a child `codasyl.parse` span) and the parsed
/// statement executed; the other interfaces take text, so their
/// `<iface>.parse` span times the same parse entry point on the same
/// text just before the statement, as a sibling.
fn exec<K: Kernel>(db: &mut Db<K>, iface: Iface, text: &str) -> String {
    if iface != Iface::Codasyl && trace::enabled() {
        let s = trace::open(iface.parse_span());
        let ok = match iface {
            Iface::Sql => mlds::relational::dml::parse_statements(text).is_ok(),
            Iface::Dli => mlds::dli::calls::parse_calls(text).is_ok(),
            _ => mlds::daplex::dml::parse_statements(text).is_ok(),
        };
        s.close();
        debug_assert!(ok, "generated statement must parse: {text}");
    }
    let span = trace::open(iface.stmt_span());
    let result: Result<Vec<StatementOutput>, mlds::Error> = match iface {
        Iface::Codasyl => {
            let p = trace::open(iface.parse_span());
            let parsed = mlds::codasyl::dml::parse_statements(text);
            p.close();
            parsed.map_err(mlds::Error::from).and_then(|stmts| {
                stmts
                    .iter()
                    .map(|s| db.m.execute_codasyl_statement(&mut db.cod, s))
                    .collect()
            })
        }
        Iface::Daplex => db.m.execute_daplex(&mut db.dap, text),
        Iface::Sql => db.m.execute_sql(&mut db.sql, text),
        Iface::Dli => db.m.execute_dli(&mut db.dli, text),
    };
    span.close();
    match result {
        Ok(outs) => outs
            .iter()
            .map(|o| format!("ok {} [{}] affected={}", o.verb, o.display, o.affected))
            .collect::<Vec<_>>()
            .join("; "),
        Err(e) => format!("err {} {e}", status_of(&e).unwrap_or("error")),
    }
}

/// The error outcomes that are legitimate statuses of a random walk
/// (and so count as correct when the oracle agrees): CODASYL end of
/// set / no currency / not a member, DL/I segment not found.
fn status_of(e: &mlds::Error) -> Option<&'static str> {
    use mlds::translator::Error as T;
    match e {
        mlds::Error::Translator(T::EndOfSet { .. }) => Some("end-of-set"),
        mlds::Error::Translator(T::NoCurrency { .. }) => Some("no-currency"),
        mlds::Error::Translator(T::NotMember { .. }) => Some("not-member"),
        mlds::Error::Hierarchical(mlds::dli::Error::NotFound { .. }) => Some("not-found"),
        _ => None,
    }
}

pub fn run(cfg: &Config, seed: u64, stop: Stop, trace_on: bool) -> Result<Outcome, String> {
    let controller = || Controller::with_replication(BACKENDS, REPLICATION);
    if trace_on {
        run_with(cfg, seed, stop, true, || TracedKernel::new(controller()))
    } else {
        run_with(cfg, seed, stop, false, controller)
    }
}

fn run_with<K: Kernel + AsController>(
    cfg: &Config,
    seed: u64,
    stop: Stop,
    trace_on: bool,
    kernel: impl Fn() -> K,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setup_repeats.max(1) {
        drop(built.take());
        let (db, s) = secs(|| setup(kernel(), cfg, seed));
        built = Some(db?);
        setups.push(s);
    }
    let db = built.expect("at least one set-up");
    out.set("setup_s", report::median(&setups));
    out.note(format!(
        "University scale {} + {} SQL rows + {} segments on {BACKENDS} in-process backends (k = {REPLICATION}); \
         set-up {:.3} s (median of {}: {setups:.3?})",
        cfg.students,
        cfg.sql_rows,
        cfg.departments * (cfg.courses_per_dept + 1),
        report::median(&setups),
        setups.len()
    ));
    if trace_on {
        let schema = mlds::daplex::university::schema();
        let times: Vec<f64> = (0..5)
            .map(|_| {
                secs(|| mlds::transform::transform(&schema).expect("university transforms")).1 * 1e3
            })
            .collect();
        out.set("transform.ms", report::median(&times));
    }
    measure(db, cfg, seed, stop, trace_on, out)
}

fn measure<K: Kernel + AsController>(
    mut db: Db<K>,
    cfg: &Config,
    seed: u64,
    stop: Stop,
    trace_on: bool,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mut gen = Gen::new(cfg, seed);
    let mut ops: Vec<(Iface, String, String)> = Vec::new();
    let t0 = db.m.kernel_mut().controller().exec_totals();
    let mut meter = Meter::new(stop, trace_on);
    while meter.more() {
        let (iface, text) = gen.next();
        let t = Instant::now();
        let outcome = exec(&mut db, iface, &text);
        meter.done(t.elapsed());
        ops.push((iface, text, outcome));
    }
    trace::set_enabled(false);
    let spans = if trace_on { trace::take() } else { Vec::new() };
    let t1 = db.m.kernel_mut().controller().exec_totals();
    let d = crate::batch::delta(&t0, &t1);
    meter.report(&mut out, "language statement");

    // The oracle: the same statements, in the same order, on one
    // single-site store loaded identically.
    let mut oracle = setup(mlds::abdl::Store::new(), cfg, seed)?;
    let mut answers = Fnv::default();
    let mut failed = 0u64;
    let mut statuses = std::collections::BTreeMap::<&str, u64>::new();
    for (i, (iface, text, live)) in ops.iter().enumerate() {
        let expected = exec(&mut oracle, *iface, text);
        let bad_error = live.starts_with("err error");
        if *live != expected || bad_error {
            failed += 1;
            if failed <= 5 {
                out.note(format!(
                    "op {i} `{text}`: got `{live}`, single-site oracle `{expected}`"
                ));
            }
        }
        if let Some(rest) = live.strip_prefix("err ") {
            *statuses
                .entry(rest.split(' ').next().unwrap_or(""))
                .or_default() += 1;
        }
        answers.add(live.as_bytes());
    }
    out.attempted = ops.len() as u64;
    out.failed = failed;
    out.correct = failed == 0;
    out.note(format!(
        "failed_ratio {} ({failed} of {} statements); status outcomes: {statuses:?}",
        report::ratio(failed as f64, ops.len() as f64),
        ops.len()
    ));
    out.answer_digest = answers.0;
    let digest =
        db.m.kernel_mut()
            .controller()
            .logical_digest()
            .map_err(|e| format!("logical digest: {e}"))?;
    out.state_digest = Fnv::of(&digest);

    out.set(
        "kernel.messages_per_request",
        report::ratio(d.messages_sent as f64, d.requests as f64),
    );
    out.set(
        "store.examined_per_request",
        report::ratio(d.records_examined as f64, d.requests as f64),
    );
    crate::clean_bus(&d)?;
    if trace_on {
        per_interface(&spans, &mut out);
        trace::write_spans(&crate::spans_path("lang_university"), &spans)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}

/// Each interface's statement budget from the spans: statement time,
/// parse time, time inside the kernel wrapper, and the rest (KMS + KC +
/// KFS self time), plus fan-out and selectivity.
fn per_interface(spans: &[trace::Span], out: &mut Outcome) {
    let agg = trace::aggregate(spans);
    for (iface, name) in IFACES {
        let stmt = agg.get(iface.stmt_span()).copied().unwrap_or_default();
        let parse = agg.get(iface.parse_span()).copied().unwrap_or_default();
        let kernel = trace::children_of(spans, iface.stmt_span(), "kernel.");
        let per = |ns: u64| report::ratio(ns as f64 / 1e3, stmt.count as f64);
        let stmt_us = per(stmt.total_ns);
        let parse_us = report::ratio(parse.total_ns as f64 / 1e3, parse.count as f64);
        let kernel_us = per(kernel.total_ns);
        let kms_us = stmt_us - parse_us - kernel_us;
        let per_stmt = report::ratio(kernel.n as f64, stmt.count as f64);
        let selectivity = report::ratio(kernel.x as f64, kernel.y as f64);
        out.set(format!("{name}.stmt_us"), stmt_us);
        out.set(format!("{name}.parse_us"), parse_us);
        out.set(format!("{name}.kernel_us"), kernel_us);
        out.set(format!("{name}.kms_us"), kms_us);
        out.set(format!("{name}.requests_per_stmt"), per_stmt);
        out.set(format!("{name}.examined_per_returned"), selectivity);
        out.note(format!(
            "{name}: {} stmts, {stmt_us:.1} us = parse {parse_us:.1} + kms {kms_us:.1} + kernel {kernel_us:.1}; \
             {per_stmt:.2} requests/stmt, {selectivity:.1} examined/returned",
            stmt.count
        ));
    }
}
