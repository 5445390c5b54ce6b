//! `mlds-shell` — an interactive MLDS terminal.
//!
//! The thesis's LIL "supports user interaction with the system via a
//! user-selected data model with transactions written in a
//! corresponding user data language"; this binary is that loop. Lines
//! starting with `.` are shell commands; everything else is handed to
//! the open session's language interface (CODASYL-DML, Daplex, SQL or
//! DL/I).
//!
//! ```text
//! cargo run -p mlds-core --bin mlds-shell                 # interactive
//! cargo run -p mlds-core --bin mlds-shell -- script.mlds  # batch
//! ```
//!
//! The commands are listed once, in the `HELP` text that `.help` prints.

use mlds::abdl::{parse::parse_request, prng::Prng, Kernel};
use mlds::{
    daplex, mbds, CodasylSession, DaplexSession, HierSession, Mlds, MldsService, NamespacedKernel,
    ServiceReport, SqlSession,
};
use std::io::{BufRead, Write};

enum Session {
    None,
    Codasyl(Box<CodasylSession>),
    Daplex(Box<DaplexSession>),
    Sql(Box<SqlSession>),
    Dli(Box<HierSession>),
}

/// The shell's kernel: a single in-memory store (default) or a durable
/// multi-backend controller with a write-ahead log (`.durable`).
enum Kern {
    Single(Box<Mlds>),
    Durable(Box<Mlds<mbds::Controller>>),
}

/// Run `$body` with `$m` bound to the active `Mlds`, whichever kernel
/// backs it — every MLDS operation is kernel-generic.
macro_rules! with_mlds {
    ($kern:expr, $m:ident, $body:expr) => {
        match $kern {
            Kern::Single($m) => $body,
            Kern::Durable($m) => $body,
        }
    };
}

struct Shell {
    kern: Kern,
    session: Session,
    echo_abdl: bool,
    /// A hot standby tailing the durable kernel's WAL (`.standby`),
    /// consumed by `.promote`.
    standby: Option<Box<mbds::Standby>>,
    /// Admission log and per-session roster from the last `.spawn`.
    last_spawn: Option<ServiceReport>,
    /// Monotonic key base so repeated `.spawn`s insert fresh keys.
    spawn_seq: u64,
}

fn main() {
    let mut shell = Shell {
        kern: Kern::Single(Box::new(Mlds::single_backend())),
        session: Session::None,
        echo_abdl: true,
        standby: None,
        last_spawn: None,
        spawn_seq: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = args.first() {
        match std::fs::read_to_string(path) {
            Ok(script) => {
                for line in script.lines() {
                    shell.dispatch(line);
                }
            }
            Err(e) => eprintln!("cannot read `{path}`: {e}"),
        }
        return;
    }

    println!("MLDS — the Multi-Lingual Database System (type .help)");
    let stdin = std::io::stdin();
    loop {
        print!("mlds> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        if !shell.dispatch(&line) {
            break;
        }
    }
}

impl Shell {
    /// Handle one input line; false means quit.
    fn dispatch(&mut self, line: &str) -> bool {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return true;
        }
        if let Some(cmd) = line.strip_prefix('.') {
            return self.command(cmd);
        }
        self.statement(line);
        true
    }

    fn command(&mut self, cmd: &str) -> bool {
        let mut words = cmd.split_whitespace();
        match words.next() {
            Some("help") => print!("{}", HELP),
            Some("quit") | Some("exit") => return false,
            Some("demo") => with_mlds!(&mut self.kern, m, {
                match m.create_database(daplex::university::UNIVERSITY_DDL) {
                    Ok(db) => {
                        if let Err(e) = m.populate_university(&db) {
                            eprintln!("populate failed: {e}");
                        } else {
                            println!("loaded and populated `{db}`; try `.open {db}`");
                        }
                    }
                    Err(e) => eprintln!("{e}"),
                }
            }),
            Some("create") => match words.next() {
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(ddl) => with_mlds!(&mut self.kern, m, {
                        match m.create_database(&ddl) {
                            Ok(db) => println!("created `{db}`"),
                            Err(e) => eprintln!("{e}"),
                        }
                    }),
                    Err(e) => eprintln!("cannot read `{path}`: {e}"),
                },
                None => eprintln!("usage: .create <ddl-file>"),
            },
            Some("open") => {
                let Some(db) = words.next() else {
                    eprintln!("usage: .open <db> [codasyl|daplex|sql|dli]");
                    return true;
                };
                let opened = with_mlds!(&mut self.kern, m, match words.next().unwrap_or("codasyl") {
                    "codasyl" => m.connect_codasyl("shell", db).map(|s| {
                        let via = if s.is_cross_model() {
                            "CODASYL-DML (functional database, schema transformed)"
                        } else {
                            "CODASYL-DML"
                        };
                        (via, Session::Codasyl(Box::new(s)))
                    }),
                    "daplex" => m.connect_daplex("shell", db).map(|s| ("Daplex", Session::Daplex(Box::new(s)))),
                    "sql" => m.connect_sql("shell", db).map(|s| ("SQL", Session::Sql(Box::new(s)))),
                    "dli" => m.connect_dli("shell", db).map(|s| ("DL/I", Session::Dli(Box::new(s)))),
                    other => {
                        eprintln!("unknown language `{other}` (codasyl|daplex|sql|dli)");
                        return true;
                    }
                });
                match opened {
                    Ok((via, session)) => {
                        println!("opened `{db}` via {via}");
                        self.session = session;
                    }
                    Err(e) => eprintln!("{e}"),
                }
            }
            Some("dbs") => with_mlds!(&mut self.kern, m, {
                for name in m.database_names() {
                    let kind = if m.functional_schema(name).is_some() {
                        "functional"
                    } else if m.relational_schema(name).is_some() {
                        "relational"
                    } else if m.hierarchical_schema(name).is_some() {
                        "hierarchical"
                    } else {
                        "network"
                    };
                    println!("{name} ({kind})");
                }
            }),
            Some("schema") => match words.next() {
                Some(db) => with_mlds!(&mut self.kern, m, {
                    if let Some(s) = m.functional_schema(db) {
                        print!("{}", daplex::ddl::print_schema(s));
                    } else if let Some(s) = m.network_schema(db) {
                        print!("{}", mlds::codasyl::ddl::print_schema(s));
                    } else if let Some(s) = m.relational_schema(db) {
                        print!("{}", mlds::relational::ddl::print_schema(s));
                    } else if let Some(s) = m.hierarchical_schema(db) {
                        print!("{}", mlds::dli::ddl::print_schema(s));
                    } else {
                        eprintln!("no database named `{db}`");
                    }
                }),
                None => eprintln!("usage: .schema <db>"),
            },
            Some("transformed") => match words.next() {
                Some(db) => with_mlds!(&mut self.kern, m, {
                    match m.connect_codasyl("shell-peek", db) {
                        Ok(s) => print!("{}", mlds::codasyl::ddl::print_schema(s.schema())),
                        Err(e) => eprintln!("{e}"),
                    }
                }),
                None => eprintln!("usage: .transformed <db>"),
            },
            Some("functional") => match words.next() {
                Some(db) => with_mlds!(&mut self.kern, m, {
                    match m.connect_daplex("shell-peek", db) {
                        Ok(s) => print!("{}", daplex::ddl::print_schema(s.schema())),
                        Err(e) => eprintln!("{e}"),
                    }
                }),
                None => eprintln!("usage: .functional <db>"),
            },
            Some("stats") => {
                with_mlds!(&self.kern, m, {
                    let t = m.exec_totals();
                    let h = m.health();
                    println!(
                        "requests executed:  {}\nrecords examined:   {}\nbackend messages:   {}\n\
                         wal appends:        {} ({} batches, {} syncs, {} snapshots)\n\
                         reply timeouts:     {} ({} retries, {} ms in backoff)\n\
                         backends:           {} ({} down{})",
                        t.requests,
                        t.records_examined,
                        t.messages_sent,
                        t.wal_appends,
                        t.wal_batches,
                        t.wal_syncs,
                        t.wal_snapshots,
                        t.reply_timeouts,
                        t.retries,
                        t.backoff_ms,
                        h.backends,
                        h.unavailable.len(),
                        if h.degraded { ", degraded" } else { "" }
                    );
                    println!(
                        "scheduler:          {} batched request(s) in {} flight(s) \
                         (max {} in flight, {} conflict stall(s), wal max batch {})",
                        t.batched_requests,
                        t.sched_flights,
                        t.sched_max_flight,
                        t.conflict_stalls,
                        t.wal_max_batch
                    );
                    println!(
                        "read pipeline:      {} read flight(s), {} mixed flight(s), \
                         {} probe(s) ({} failover(s))",
                        t.sched_read_flights,
                        t.sched_mixed_flights,
                        t.read_probes,
                        t.read_probe_failovers
                    );
                });
                if let Kern::Durable(m) = &mut self.kern {
                    let k = m.kernel_mut();
                    let t = k.exec_totals();
                    let (records, groups, bytes) = k.directory_stats();
                    println!(
                        "controller epoch:   {}\ndirectory:          {records} record(s) in \
                         {groups} replica group(s), ~{bytes} bytes resident",
                        k.epoch()
                    );
                    let cz = k.directory_compression();
                    println!(
                        "directory map:      {} entr(ies) flat ~{} B -> compressed ~{} B \
                         ({} run(s), {} overlay)",
                        cz.entries, cz.flat_bytes, cz.resident_bytes, cz.runs, cz.overlay
                    );
                    let pending = k.rebalance_pending();
                    println!(
                        "rebalance:          {} group(s) moved, {} byte(s) shipped, \
                         {} stalled request(s), {} move(s) pending",
                        t.groups_moved, t.move_bytes, t.rebalance_stalls, pending
                    );
                    let probes = k.read_probe_counts();
                    if probes.iter().any(|&c| c > 0) {
                        let cells: Vec<String> = probes
                            .iter()
                            .enumerate()
                            .map(|(i, c)| format!("b{i}={c}"))
                            .collect();
                        println!("read probes/backend: {}", cells.join(" "));
                    }
                }
                if let Some(sb) = &self.standby {
                    let lag = sb.lag();
                    println!(
                        "standby lag:        {} record(s) shipped, {} bytes behind, {} µs applying",
                        lag.records_shipped, lag.bytes_behind, lag.apply_micros
                    );
                }
            }
            Some("abdl") => match words.next() {
                Some("on") => self.echo_abdl = true,
                Some("off") => self.echo_abdl = false,
                _ => eprintln!("usage: .abdl on|off"),
            },
            Some("spawn") => {
                let n = words.next().and_then(|w| w.parse::<usize>().ok()).unwrap_or(8);
                let per = words.next().and_then(|w| w.parse::<usize>().ok()).unwrap_or(25);
                let read_pct =
                    words.next().and_then(|w| w.parse::<u64>().ok()).unwrap_or(25);
                if n == 0 || per == 0 || read_pct > 100 {
                    eprintln!("usage: .spawn <sessions> [requests-per-session] [read%]");
                    return true;
                }
                let base = self.spawn_seq;
                self.spawn_seq += (n * per) as u64;
                // The service layer owns the Mlds while sessions run;
                // swap a throwaway in, then swap the real one back.
                match &mut self.kern {
                    Kern::Single(m) => {
                        let mlds = std::mem::replace(m.as_mut(), Mlds::single_backend());
                        let (mlds, report) = run_spawn(mlds, n, per, base, read_pct);
                        **m = mlds;
                        self.last_spawn = Some(report);
                    }
                    Kern::Durable(m) => {
                        let dummy = Mlds::with_kernel(mbds::Controller::new(1));
                        let mlds = std::mem::replace(m.as_mut(), dummy);
                        let (mlds, report) = run_spawn(mlds, n, per, base, read_pct);
                        **m = mlds;
                        self.last_spawn = Some(report);
                    }
                }
            }
            Some("sessions") => match &self.last_spawn {
                Some(report) => {
                    println!("session  uid       db       requests  errors");
                    for s in &report.sessions {
                        println!(
                            "{:<8} {:<9} {:<8} {:<9} {}",
                            s.id, s.uid, s.db, s.requests, s.errors
                        );
                    }
                    println!("{} request(s) in the admission log", report.admissions.len());
                }
                None => eprintln!("no spawn yet (.spawn <n> first)"),
            },
            Some("save") => match (words.next(), &mut self.kern) {
                (Some(path), Kern::Single(m)) => {
                    let text = mlds::abdl::engine::dump(m.kernel_mut());
                    match std::fs::write(path, text) {
                        Ok(()) => println!("kernel saved to `{path}`"),
                        Err(e) => eprintln!("cannot write `{path}`: {e}"),
                    }
                }
                (Some(_), Kern::Durable(_)) => {
                    eprintln!(".save works on the single-store kernel; a durable kernel \
                               already persists itself in its log directory")
                }
                (None, _) => eprintln!("usage: .save <path>"),
            },
            Some("load") => match (words.next(), &mut self.kern) {
                (Some(path), Kern::Single(m)) => match std::fs::read_to_string(path) {
                    Ok(text) => match mlds::abdl::engine::restore(&text) {
                        Ok(store) => {
                            *m.kernel_mut() = store;
                            println!("kernel restored from `{path}` (schemas are not part of \
                                      dumps; .create them before .open)");
                        }
                        Err(e) => eprintln!("{e}"),
                    },
                    Err(e) => eprintln!("cannot read `{path}`: {e}"),
                },
                (Some(_), Kern::Durable(_)) => {
                    eprintln!(".load works on the single-store kernel; use .recover <dir> to \
                               rebuild a durable kernel from its log")
                }
                (None, _) => eprintln!("usage: .load <path>"),
            },
            Some("tcp") => {
                let backends = words.next().and_then(|w| w.parse().ok()).unwrap_or(4);
                match Mlds::tcp_backend(backends) {
                    Ok(m) => {
                        self.kern = Kern::Durable(Box::new(m));
                        self.session = Session::None;
                        self.standby = None;
                        println!(
                            "{backends} backend processes spawned over the TCP transport \
                             (fresh kernel: .create or .demo, then .open; .timeout tunes \
                             the reply window)"
                        );
                    }
                    Err(e) => eprintln!("{e}"),
                }
            }
            Some("timeout") => match (words.next().and_then(|w| w.parse::<u64>().ok()), &mut self.kern)
            {
                (Some(ms), Kern::Durable(m)) if ms > 0 => {
                    m.set_reply_timeout(std::time::Duration::from_millis(ms));
                    println!("reply window set to {ms} ms (two expired windows demote a backend)");
                }
                (Some(_), Kern::Single(_)) => {
                    eprintln!(".timeout requires a multi-backend kernel (.durable or .tcp first)")
                }
                _ => eprintln!("usage: .timeout <ms>"),
            },
            Some("durable") => match words.next() {
                Some(dir) => {
                    let backends = words.next().and_then(|w| w.parse().ok()).unwrap_or(4);
                    match Mlds::durable_backend(backends, dir) {
                        Ok(m) => {
                            self.kern = Kern::Durable(Box::new(m));
                            self.session = Session::None;
                            self.standby = None;
                            println!(
                                "durable {backends}-backend kernel logging to `{dir}` \
                                 (fresh kernel: .create or .demo, then .open)"
                            );
                        }
                        Err(e) => eprintln!("{e}"),
                    }
                }
                None => eprintln!("usage: .durable <dir> [backends]"),
            },
            Some("recover") => match words.next() {
                Some(dir) => match &mut self.kern {
                    // Mid-run crash simulation: swap the kernel in
                    // place; schemas and open sessions (currency
                    // indicators included) carry across.
                    Kern::Durable(m) => match m.recover_kernel(dir) {
                        Ok(()) => println!(
                            "kernel recovered from `{dir}` (schemas and sessions kept)"
                        ),
                        Err(e) => eprintln!("{e}"),
                    },
                    Kern::Single(_) => match Mlds::recover_backend(dir) {
                        Ok(m) => {
                            self.kern = Kern::Durable(Box::new(m));
                            self.session = Session::None;
                            println!(
                                "kernel recovered from `{dir}` (schemas are not part of the \
                                 log; .create them before .open)"
                            );
                        }
                        Err(e) => eprintln!("{e}"),
                    },
                },
                None => eprintln!("usage: .recover <dir>"),
            },
            Some("standby") => match (words.next(), &self.kern) {
                (Some(dir), Kern::Durable(m)) => match m.standby_of(dir) {
                    Ok(sb) => {
                        self.standby = Some(Box::new(sb));
                        println!(
                            "standby attached, tailing `{dir}` (.lag to check, .promote to \
                             fail over)"
                        );
                    }
                    Err(e) => eprintln!("{e}"),
                },
                (Some(_), Kern::Single(_)) => {
                    eprintln!(".standby requires a durable kernel (.durable <dir> first)")
                }
                (None, _) => eprintln!("usage: .standby <dir>"),
            },
            Some("lag") => match &mut self.standby {
                Some(sb) => match sb.poll() {
                    Ok(n) => {
                        let lag = sb.lag();
                        println!(
                            "shipped {} record(s) total ({n} this poll), {} bytes behind, \
                             {} µs applying",
                            lag.records_shipped, lag.bytes_behind, lag.apply_micros
                        );
                    }
                    Err(e) => eprintln!("{e}"),
                },
                None => eprintln!("no standby attached (.standby <dir>)"),
            },
            Some("promote") => match (self.standby.take(), &mut self.kern) {
                (Some(sb), Kern::Durable(m)) => match m.promote(*sb) {
                    Ok(()) => println!(
                        "standby promoted: epoch-fenced controller installed over the \
                         existing backends (schemas and sessions kept)"
                    ),
                    Err(e) => eprintln!("{e}"),
                },
                (Some(_), Kern::Single(_)) => {
                    eprintln!(".promote requires a durable kernel")
                }
                (None, _) => eprintln!("no standby attached (.standby <dir>)"),
            },
            Some("addbackend") => match &mut self.kern {
                Kern::Durable(m) => {
                    let k = m.kernel_mut();
                    let before = k.exec_totals().groups_moved;
                    match k.add_backend().and_then(|i| k.finish_rebalance().map(|()| i)) {
                        Ok(i) => {
                            let moved = k.exec_totals().groups_moved - before;
                            println!(
                                "backend {i} joined; {moved} group(s) rebalanced onto it \
                                 (.stats for move totals)"
                            );
                        }
                        Err(e) => eprintln!("{e}"),
                    }
                }
                Kern::Single(_) => {
                    eprintln!(".addbackend requires a multi-backend kernel (.durable or .tcp first)")
                }
            },
            Some("drain") => match (words.next().and_then(|w| w.parse::<usize>().ok()), &mut self.kern)
            {
                (Some(i), Kern::Durable(m)) => {
                    let k = m.kernel_mut();
                    let before = k.exec_totals().groups_moved;
                    match k.drain_backend(i).and_then(|()| k.finish_rebalance()) {
                        Ok(()) => {
                            let moved = k.exec_totals().groups_moved - before;
                            println!(
                                "backend {i} drained and retired; {moved} group(s) moved away \
                                 (.stats for move totals)"
                            );
                        }
                        Err(e) => eprintln!("{e}"),
                    }
                }
                (Some(_), Kern::Single(_)) => {
                    eprintln!(".drain requires a multi-backend kernel (.durable or .tcp first)")
                }
                _ => eprintln!("usage: .drain <backend-id>"),
            },
            other => eprintln!("unknown command {other:?} (try .help)"),
        }
        true
    }

    fn statement(&mut self, line: &str) {
        let Shell { kern, session, echo_abdl, .. } = self;
        let outputs = match session {
            Session::None => {
                return eprintln!("no open session (try `.demo` then `.open university`)")
            }
            Session::Codasyl(s) => with_mlds!(kern, m, m.execute_codasyl(s, line)),
            Session::Daplex(s) => with_mlds!(kern, m, m.execute_daplex(s, line)),
            Session::Sql(s) => with_mlds!(kern, m, m.execute_sql(s, line)),
            Session::Dli(s) => with_mlds!(kern, m, m.execute_dli(s, line)),
        };
        match outputs {
            Ok(outputs) => {
                for out in outputs {
                    if *echo_abdl {
                        for req in &out.abdl {
                            println!("  ABDL: {req}");
                        }
                    }
                    if !out.display.is_empty() {
                        println!("{}", out.display);
                    } else if matches!(session, Session::Daplex(_)) {
                        // A Daplex query that found nothing still answers.
                        println!("({} affected)", out.affected);
                    }
                }
            }
            Err(e) => eprintln!("{e}"),
        }
    }
}

/// Drive `n` concurrent sessions through the service layer: each
/// session thread runs a seeded insert/retrieve mix (`read_pct`% reads
/// — mostly key-scoped point reads the scheduler can probe, plus the
/// odd full scan) against a scratch `spawn` database, so `.stats`
/// afterwards shows the scheduler's flight, probe and group-commit
/// counters on real contention.
fn run_spawn<K: Kernel + Send + 'static>(
    mut mlds: Mlds<K>,
    n: usize,
    per: usize,
    base: u64,
    read_pct: u64,
) -> (Mlds<K>, ServiceReport) {
    {
        let mut ns = NamespacedKernel::new(mlds.kernel_mut(), "spawn");
        ns.create_file("t");
        // Key the scratch file so point reads are key-scoped (single-
        // backend probes) and repeat spawns stay conflict-realistic.
        ns.add_unique_constraint("t", vec!["u".into()]);
    }
    let mut svc = MldsService::start(mlds);
    let start = std::time::Instant::now();
    let mut handles = Vec::with_capacity(n);
    for s in 0..n {
        let session = svc.open(&format!("spawn-{s}"), "spawn");
        handles.push(std::thread::spawn(move || {
            let mut rng = Prng::seed_from_u64(0x5AA5 + s as u64);
            let mut errors = 0usize;
            let mut inserted: Vec<u64> = Vec::new();
            for i in 0..per {
                let text = if rng.gen_range(0, 100) < read_pct as i64 {
                    if rng.gen_range(0, 8) == 0 || inserted.is_empty() {
                        "RETRIEVE (FILE = t) (*)".to_owned()
                    } else {
                        let k = inserted[rng.gen_range(0, inserted.len() as i64) as usize];
                        format!("RETRIEVE ((FILE = t) and (u = {k})) (*)")
                    }
                } else {
                    let key = base + (s * per + i) as u64;
                    inserted.push(key);
                    format!("INSERT (<FILE, t>, <u, {key}>, <owner, {s}>)")
                };
                let req = parse_request(&text).expect("spawn workload request parses");
                if session.submit(req).is_err() {
                    errors += 1;
                }
            }
            errors
        }));
    }
    let mut errors = 0usize;
    for h in handles {
        errors += h.join().unwrap_or(0);
    }
    let elapsed = start.elapsed();
    let (mlds, report) = svc.into_parts();
    let total = n * per;
    let rate = total as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "{n} session(s) x {per} request(s) in {:.1} ms ({rate:.0} req/s, {errors} error(s)); \
         .sessions for the roster, .stats for scheduler occupancy",
        elapsed.as_secs_f64() * 1e3
    );
    (mlds, report)
}

const HELP: &str = "\
.help                         this text
.demo                         load + populate the University database
.create <path>                load a database from a DDL file (model auto-detected)
.open <db> [codasyl|daplex|sql|dli]   open a session (default codasyl)
.dbs                          list databases
.schema <db>                  print a database's schema
.transformed <db>             print a functional database's transformed network schema
.functional <db>              print a network database's reverse-transformed Daplex schema
.abdl on|off                  echo generated ABDL requests (default on)
.spawn <n> [requests] [read%] drive <n> concurrent sessions through the service layer
.sessions                     per-session roster from the last .spawn
.stats                        kernel work counters (requests, records, scheduler occupancy)
.save <path> / .load <path>   dump / restore the kernel as ABDL text
.durable <dir> [backends]     switch to a durable multi-backend kernel (WAL in <dir>)
.tcp [backends]               switch to out-of-process backends over the TCP transport
.timeout <ms>                 set the multi-backend kernel's reply window
.recover <dir>                rebuild the kernel from the write-ahead log in <dir>
.standby <dir>                attach a hot standby tailing the WAL in <dir>
.lag                          ship pending log records and print replication lag
.promote                      fail over: promote the standby over the live backends
.addbackend                   grow the cluster: add a backend and rebalance onto it
.drain <id>                   shrink the cluster: move backend <id>'s groups away
.quit                         exit
Anything else is a statement for the open session, e.g.:
  MOVE 'Advanced Database' TO title IN course
  FIND ANY course USING title IN course
  GET course
or, in a Daplex session:
  FOR EACH student SUCH THAT major(student) = 'Computer Science' PRINT name(student);
";
