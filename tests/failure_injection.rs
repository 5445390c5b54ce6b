//! Failure injection: backend loss under the full MLDS stack, and
//! malformed-input sweeps across every parser.
//!
//! With k-way replicated placement (default k = 2) a single backend
//! failure must lose *nothing*: the full query suite keeps returning
//! exactly what a never-failed system would, with `degraded == false`.
//! Only when every replica of some record is dead may results shrink —
//! and then the response must say so (`degraded == true`), never return
//! a silent partial answer.

use mlds::abdl::Kernel;
use mlds::mbds::{Controller, FaultPlan};
use mlds::{daplex, Mlds};
use std::time::Duration;

fn count_courses(m: &mut Mlds<Controller>, s: &mut mlds::CodasylSession) -> usize {
    let mut n = 0;
    if m.execute_codasyl(s, "FIND FIRST course WITHIN system_course").is_ok() {
        n = 1;
        while m.execute_codasyl(s, "FIND NEXT course WITHIN system_course").is_ok() {
            n += 1;
        }
    }
    n
}

#[test]
fn mlds_survives_backend_loss_without_data_loss() {
    let mut m = Mlds::multi_backend(4);
    m.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
    m.populate_university("university").unwrap();
    let mut s = m.connect_codasyl("u", "university").unwrap();

    assert_eq!(count_courses(&mut m, &mut s), 4);

    m.kernel_mut().kill_backend(1);
    assert_eq!(m.kernel_mut().alive_count(), 3);

    // Every record had a replica outside backend 1: nothing is lost and
    // the system does not consider itself degraded.
    assert_eq!(count_courses(&mut m, &mut s), 4, "replication must hide a single failure");
    assert!(!m.health().degraded);
    assert_eq!(m.health().unavailable, vec![1]);

    // New work still executes (placed on the survivors).
    m.execute_codasyl(
        &mut s,
        "MOVE 'Recovery' TO title IN course\n\
         MOVE 'S89' TO semester IN course\n\
         MOVE 3 TO credits IN course\n\
         STORE course",
    )
    .unwrap();
    assert_eq!(count_courses(&mut m, &mut s), 5);

    // Recovery restores full redundancy: after restarting backend 1, a
    // *different* backend can die and still nothing is lost.
    m.kernel_mut().restart_backend(1).unwrap();
    assert_eq!(m.kernel_mut().alive_count(), 4);
    assert!(!m.health().degraded);
    m.kernel_mut().kill_backend(2);
    assert_eq!(count_courses(&mut m, &mut s), 5, "second failure after recovery loses nothing");
    assert!(!m.health().degraded);
}

#[test]
fn degraded_mode_is_reported_not_silent() {
    let mut m = Mlds::multi_backend(4);
    m.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
    m.populate_university("university").unwrap();
    m.create_database(
        "CREATE DATABASE suppliers;
         CREATE TABLE supplier (sno INTEGER NOT NULL, sname CHAR(20), PRIMARY KEY (sno));",
    )
    .unwrap();
    m.create_database(
        "HIERARCHY NAME IS school.
         SEGMENT department.
           02 dno TYPE IS FIXED.
           SEQUENCE IS dno.",
    )
    .unwrap();
    let mut s = m.connect_codasyl("u", "university").unwrap();
    let mut sql = m.connect_sql("u", "suppliers").unwrap();
    let mut dli = m.connect_dli("u", "school").unwrap();
    let mut dap = m.connect_daplex("u", "university").unwrap();
    for i in 1..=4 {
        m.execute_sql(&mut sql, &format!("INSERT INTO supplier (sno, sname) VALUES ({i}, 'S{i}');"))
            .unwrap();
        m.execute_dli(&mut dli, &format!("ISRT department (dno = {i})")).unwrap();
    }

    // Replica groups are adjacent pairs; killing two adjacent backends
    // removes both copies of some records.
    m.kernel_mut().kill_backend(1);
    m.kernel_mut().kill_backend(2);
    let h = m.health();
    assert_eq!(h.unavailable, vec![1, 2]);
    assert!(h.degraded, "losing a whole replica group must be reported");

    // The flag reaches the per-statement output the language
    // interfaces hand to the user.
    let out = m.execute_codasyl(&mut s, "FIND FIRST course WITHIN system_course").unwrap();
    assert!(out.last().unwrap().degraded);
    // Every interface stamps it alike.
    let out = m.execute_sql(&mut sql, "SELECT sname FROM supplier;").unwrap();
    assert!(out.last().unwrap().degraded, "SQL");
    let out = m.execute_dli(&mut dli, "GU department").unwrap();
    assert!(out.last().unwrap().degraded, "DL/I");
    let out = m.execute_daplex(&mut dap, "FOR EACH course PRINT title(course);").unwrap();
    assert!(out.last().unwrap().degraded, "Daplex");
}

#[test]
fn seeded_fault_plan_is_deterministic_in_the_threaded_controller() {
    let run = || {
        let mut c = Controller::new(4);
        c.set_reply_timeout(Duration::from_millis(50));
        c.set_fault_plan(FaultPlan::seeded(11, 4, 30));
        c.create_file("f");
        let mut log = Vec::new();
        for i in 0..25i64 {
            let rec = mlds::abdl::Record::from_pairs([("FILE", mlds::abdl::Value::str("f"))])
                .with("f", mlds::abdl::Value::Int(i));
            // Inserts may legitimately fail while a fault fires; the
            // *sequence* of outcomes must be identical across runs.
            let ins = c.execute(&mlds::abdl::Request::Insert { record: rec });
            log.push(format!("ins {} {}", i, ins.is_ok()));
            if i % 5 == 4 {
                let resp = c
                    .execute(
                        &mlds::abdl::parse::parse_request("RETRIEVE (FILE = f) (COUNT(f))")
                            .unwrap(),
                    )
                    .unwrap();
                log.push(format!(
                    "count {:?} unavailable {:?} degraded {}",
                    resp.groups, resp.unavailable_backends, resp.degraded
                ));
            }
        }
        log
    };
    assert_eq!(run(), run(), "same seed, same failure schedule, same answers");
}

#[test]
fn malformed_codasyl_dml_never_panics() {
    let mut m = Mlds::single_backend();
    m.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
    let mut s = m.connect_codasyl("u", "university").unwrap();
    for src in [
        "FIND",
        "FIND ANY",
        "FIND ANY course USING",
        "FIND ANY course USING title IN student",
        "GET title IN",
        "MOVE TO x IN y",
        "MOVE 'v' TO ghost IN course",
        "MOVE 'v' TO title IN ghost",
        "STORE",
        "CONNECT student advisor",
        "DISCONNECT student FROM",
        "MODIFY a, b",
        "ERASE",
        "FROBNICATE course",
        "FIND ANY course USING title IN course EXTRA",
        "FIND OWNER WITHIN system_course", // SYSTEM owner
        "FIND FIRST student WITHIN teaching", // wrong member
    ] {
        let res = m.execute_codasyl(&mut s, src);
        assert!(res.is_err(), "`{src}` should fail cleanly");
    }
}

#[test]
fn malformed_ddl_never_panics() {
    for src in [
        "",
        "DATABASE",
        "DATABASE x IS",
        "DATABASE x IS TYPE y IS ENTITY",
        "DATABASE x IS TYPE y IS ENTITY f END ENTITY; END DATABASE;",
        "SCHEMA NAME IS",
        "SCHEMA NAME IS x. RECORD NAME IS r. 02 a TYPE IS.",
        "SCHEMA NAME IS x. SET NAME IS s. OWNER IS a.",
        "TYPE x IS INTEGER;",
        "DATABASE x IS TYPE a IS ENTITY f : INTEGER; END ENTITY; OVERLAP a WITH a; END DATABASE;",
    ] {
        let mut m = Mlds::single_backend();
        assert!(m.create_database(src).is_err(), "`{src}` should fail cleanly");
    }
}

#[test]
fn malformed_daplex_dml_never_panics() {
    let mut m = Mlds::single_backend();
    m.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
    let mut s = m.connect_daplex("u", "university").unwrap();
    // Each malformed statement keeps its diagnosis (None: it runs).
    for (src, error) in [
        ("FOR EACH;", Some("expected entity type")),
        ("FOR EACH student PRINT;", Some("expected function name")),
        ("FOR EACH ghost PRINT name(ghost);", Some("unknown entity type `ghost`")),
        (
            "FOR EACH student SUCH THAT ghost(student) = 1 PRINT name(student);",
            Some("entity `student` has no function `ghost`"),
        ),
        ("CREATE student name := 'x';", Some("expected `(` opening assignments")),
        ("CREATE student (ghost := 1);", Some("entity `student` has no function `ghost`")),
        ("CREATE student (age := 5);", Some("outside range 16..99")), // out of range
        ("DESTROY;", Some("expected entity type")),
        ("ASSIGN gpa(student) := ;", Some("expected literal")),
        // Missing SUCH THAT is fine syntactically, and both designators
        // are empty.
        ("INCLUDE course IN teaching(faculty);", None),
    ] {
        // The requirement is no panic, no partial corruption, and the
        // same diagnosis.
        match (m.execute_daplex(&mut s, src), error) {
            (Err(e), Some(want)) => assert!(e.to_string().contains(want), "{src}: {e}"),
            (Ok(_), None) => {}
            (got, want) => panic!("{src}: got {got:?}, want error {want:?}"),
        }
    }
    // The database is still healthy.
    m.populate_university("university").unwrap();
    let rows = m
        .execute_daplex(&mut s, "FOR EACH student PRINT name(student);")
        .unwrap();
    assert_eq!(rows[0].affected, 4);
}

#[test]
fn killing_all_but_one_backend_still_serves() {
    let mut c = Controller::new(3);
    c.create_file("f");
    for i in 0..9i64 {
        c.execute(&mlds::abdl::Request::Insert {
            record: mlds::abdl::Record::from_pairs([(
                "FILE",
                mlds::abdl::Value::str("f"),
            )])
            .with("f", mlds::abdl::Value::Int(i)),
        })
        .unwrap();
    }
    // Nine records on replica groups (0,1), (1,2), (2,0); killing 0
    // and 2 leaves only backend 1, which holds the six records of the
    // two groups it belongs to.
    c.kill_backend(0);
    c.kill_backend(2);
    let resp = c
        .execute(&mlds::abdl::parse::parse_request("RETRIEVE (FILE = f) (*)").unwrap())
        .unwrap();
    assert_eq!(resp.records().len(), 6, "backend 1's replicas survive");
    assert!(resp.degraded, "the other three records have no live replica");
    assert_eq!(resp.unavailable_backends, vec![0, 2]);
}

/// A small replicated controller preloaded with `n` records on file
/// `f`, for the restart edge-case tests.
fn loaded_controller(backends: usize, k: usize, n: i64) -> Controller {
    let mut c = Controller::with_replication(backends, k);
    c.create_file("f");
    for i in 0..n {
        c.execute(&mlds::abdl::Request::Insert {
            record: mlds::abdl::Record::from_pairs([(
                "FILE",
                mlds::abdl::Value::str("f"),
            )])
            .with("f", mlds::abdl::Value::Int(i)),
        })
        .unwrap();
    }
    c
}

fn count_f(c: &mut Controller) -> usize {
    c.execute(&mlds::abdl::parse::parse_request("RETRIEVE (FILE = f) (*)").unwrap())
        .unwrap()
        .records()
        .len()
}

#[test]
fn restarting_an_alive_backend_is_a_no_op() {
    let mut c = loaded_controller(3, 2, 9);
    assert_eq!(c.alive_count(), 3);
    c.restart_backend(1).unwrap();
    assert_eq!(c.alive_count(), 3);
    assert_eq!(count_f(&mut c), 9, "a redundant restart must not disturb data");
}

#[test]
fn restart_with_k1_cannot_resurrect_lost_data() {
    // Unreplicated: killing a backend genuinely destroys its third of
    // the records, and a restart has no surviving replica to copy from.
    let mut c = loaded_controller(3, 1, 9);
    c.kill_backend(1);
    assert_eq!(count_f(&mut c), 6);
    c.restart_backend(1).unwrap();
    assert_eq!(c.alive_count(), 3, "the backend itself is back in service");
    assert_eq!(count_f(&mut c), 6, "its records are gone for good with k = 1");
    // The restarted backend rejoins empty but serviceable: new inserts
    // spread over all three backends again.
    for i in 100..103i64 {
        c.execute(&mlds::abdl::Request::Insert {
            record: mlds::abdl::Record::from_pairs([(
                "FILE",
                mlds::abdl::Value::str("f"),
            )])
            .with("f", mlds::abdl::Value::Int(i)),
        })
        .unwrap();
    }
    assert_eq!(count_f(&mut c), 9);
}

#[test]
fn double_kill_of_both_replicas_loses_the_group_despite_restart() {
    // k = 2 on 3 backends: groups (0,1), (1,2), (2,0). Killing 0 and 1
    // destroys both replicas of the three group-(0,1) records; the
    // other six keep one live copy on backend 2.
    let mut c = loaded_controller(3, 2, 9);
    c.kill_backend(0);
    c.kill_backend(1);
    let resp = c
        .execute(&mlds::abdl::parse::parse_request("RETRIEVE (FILE = f) (*)").unwrap())
        .unwrap();
    assert_eq!(resp.records().len(), 6);
    assert!(resp.degraded);
    // Restarting both brings the backends back and re-replicates every
    // record that still has a donor — but the group whose two replicas
    // both died has no donor and stays lost.
    c.restart_backend(0).unwrap();
    c.restart_backend(1).unwrap();
    assert_eq!(c.alive_count(), 3);
    let resp = c
        .execute(&mlds::abdl::parse::parse_request("RETRIEVE (FILE = f) (*)").unwrap())
        .unwrap();
    assert_eq!(resp.records().len(), 6, "no donor, no resurrection");
}

/// A fault plan that spans a restart fires on the same messages over
/// every link: the restarted backend counts from 0, and its schema
/// replay, the survivors' scan and the copies back all run through the
/// plan. Here its 4th message (the second record copied back) crashes
/// it, so the restart fails alike over threads and over simulated
/// backends, and both clusters end in the same state.
#[test]
fn a_fault_plan_spanning_a_restart_fires_alike_over_threads_and_simulated_backends() {
    use mlds::mbds::{CostModel, FaultKind};
    let run = |mut c: Controller| {
        let insert = |c: &mut Controller, i: i64| {
            let record = mlds::abdl::Record::from_pairs([("FILE", mlds::abdl::Value::str("f"))])
                .with("f", mlds::abdl::Value::Int(i));
            c.execute(&mlds::abdl::Request::Insert { record }).unwrap();
        };
        c.create_file("f");
        (0..6).for_each(|i| insert(&mut c, i));
        c.kill_backend(1);
        c.set_fault_plan(FaultPlan::new().with(1, 4, FaultKind::Crash));
        let err = c.restart_backend(1).unwrap_err();
        assert!(err.to_string().contains("backend 1 died during recovery"), "{err}");
        (6..12).for_each(|i| insert(&mut c, i));
        assert_eq!(c.alive_count(), 2);
        c.state_digest().unwrap()
    };
    let threads = run(Controller::with_timeouts(3, 2, Duration::from_millis(200)));
    let simulated = run(Controller::simulated(3, 2, CostModel::default()));
    assert_eq!(threads, simulated);
}

// ---------------------------------------------------------------------------
// Degraded-mode parallel reads: a backend dying mid read-wave.
// ---------------------------------------------------------------------------

/// A backend crashing *between* the staged send and the reply — the
/// worst moment for the parallel read pipeline — must cost nothing: the
/// collect phase sees the closed channel, the finish phase fails each
/// lost probe over to a surviving replica, and every read in the batch
/// still answers exactly what a serial, never-failed run would.
#[test]
fn backend_crash_mid_read_wave_fails_over_probes_and_matches_serial() {
    use mlds::abdl::parse::parse_request;
    use mlds::abdl::{Record, Request, Value};
    use mlds::mbds::FaultKind;

    let seed = |c: &mut Controller| {
        c.create_file("t");
        c.add_unique_constraint("t", vec!["u".to_owned()]);
        for i in 0..8i64 {
            c.execute(&Request::Insert {
                record: Record::from_pairs([("FILE", Value::str("t"))])
                    .with("u", Value::Int(i)),
            })
            .unwrap();
        }
    };

    // Two backends, full replication: every record has a surviving
    // replica whichever backend dies.
    let mut c = Controller::with_replication(2, 2);
    seed(&mut c);
    // Backend 0 has processed 9 messages (create-file + 8 replicated
    // inserts); its next message is a staged probe from the read wave
    // below, and the crash fires with the whole wave in flight.
    c.set_fault_plan(FaultPlan::new().with(0, 10, FaultKind::Crash));

    let reads: Vec<Request> = (0..8)
        .map(|i| {
            parse_request(&format!("RETRIEVE ((FILE = t) and (u = {i})) (*)")).unwrap()
        })
        .collect();
    let results = c.execute_batch(&reads);
    for (i, r) in results.iter().enumerate() {
        let resp = r.as_ref().unwrap_or_else(|e| panic!("read {i} failed: {e}"));
        assert_eq!(resp.records().len(), 1, "read {i} lost its record to the crash");
    }

    let t = c.exec_totals();
    assert!(t.sched_read_flights >= 1, "reads never formed a flight: {t:?}");
    assert!(t.read_probe_failovers >= 1, "the crash never cost a probe failover: {t:?}");

    // Restart the dead backend (the survivor re-replicates as donor)
    // and pin the digest against a clean serial run of the same work.
    // The plan must be cleared first: a restarted worker counts its
    // messages from zero and would replay the crash mid-recovery.
    c.set_fault_plan(FaultPlan::new());
    c.restart_backend(0).unwrap();
    let mut serial = Controller::with_replication(2, 2);
    seed(&mut serial);
    for r in &reads {
        serial.execute(r).unwrap();
    }
    assert_eq!(c.state_digest().unwrap(), serial.state_digest().unwrap());
    assert_eq!(c.unique_index_digest(), serial.unique_index_digest());
}
