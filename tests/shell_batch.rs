//! Drive the `mlds-shell` binary in batch mode: the user-facing LIL
//! loop, exercised end-to-end as a process.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A new, empty directory for one call. The tests of this binary run as
/// threads of one process, so the pid alone does not tell them apart.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mlds-shell-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_shell(script: &str) -> (String, String) {
    let dir = fresh_dir("test");
    let path = dir.join("script.mlds");
    std::fs::write(&path, script).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mlds-shell"))
        .arg(&path)
        .output()
        .expect("shell runs");
    let _ = std::fs::remove_dir_all(&dir);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn batch_script_runs_the_demo_pipeline() {
    let (stdout, stderr) = run_shell(
        "# batch demo\n\
         .demo\n\
         .dbs\n\
         .open university\n\
         MOVE 'Advanced Database' TO title IN course\n\
         FIND ANY course USING title IN course\n\
         GET course\n\
         .open university daplex\n\
         FOR EACH student SUCH THAT major(student) = 'Computer Science' PRINT name(student);\n\
         .quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("university (functional)"), "{stdout}");
    assert!(stdout.contains("cross-model") || stdout.contains("schema transformed"), "{stdout}");
    assert!(stdout.contains("title = 'Advanced Database'"), "{stdout}");
    assert!(stdout.contains("name = 'Coker'"), "{stdout}");
}

#[test]
fn batch_script_reports_errors_without_dying() {
    let (stdout, stderr) = run_shell(
        ".demo\n\
         .open ghost\n\
         .open university\n\
         FROBNICATE course\n\
         FIND ANY course USING ghost_item IN course\n\
         MOVE 'F87' TO semester IN course\n\
         FIND ANY course USING semester IN course\n",
    );
    assert!(stderr.contains("no database named `ghost`"), "{stderr}");
    assert!(stderr.contains("FROBNICATE") || stderr.contains("unknown"), "{stderr}");
    assert!(stderr.contains("ghost_item"), "{stderr}");
    // The session survived all of it.
    assert!(stdout.contains("semester = 'F87'"), "{stdout}");
}

/// Durable-kernel satellite: a CODASYL run unit's currency indicators
/// stay valid across `.recover` — the WAL preserves every database
/// key, and the shell swaps the kernel in place without touching open
/// sessions.
#[test]
fn codasyl_currency_survives_controller_recovery() {
    let dir = fresh_dir("recover");
    let wal = dir.join("wal");
    let (stdout, stderr) = run_shell(&format!(
        ".durable {wal} 4\n\
         .demo\n\
         .open university\n\
         MOVE 'Advanced Database' TO title IN course\n\
         FIND ANY course USING title IN course\n\
         .recover {wal}\n\
         GET course\n\
         FIND FIRST course WITHIN system_course\n\
         FIND NEXT course WITHIN system_course\n\
         .quit\n",
        wal = wal.display()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("durable 4-backend kernel"), "{stdout}");
    assert!(stdout.contains("schemas and sessions kept"), "{stdout}");
    // GET after .recover reads through the pre-crash currency
    // indicator: the found course is still current of run unit.
    assert!(stdout.contains("title = 'Advanced Database'"), "{stdout}");
    // And fresh FINDs keep walking the recovered sets: GET plus two
    // FINDs each print a course record.
    assert!(stdout.matches("title = ").count() >= 3, "{stdout}");
}

/// `.stats` surfaces the kernel work counters. The single-store kernel
/// never sends backend messages; a durable multi-backend kernel running
/// the same demo must report a non-zero message count.
#[test]
fn stats_reports_kernel_work_counters() {
    let field = |stdout: &str, name: &str| -> u64 {
        stdout
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("no `{name}` line in {stdout}"))
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("unparsable `{name}` line in {stdout}"))
    };

    let (stdout, stderr) = run_shell(".demo\n.stats\n.quit\n");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(field(&stdout, "requests executed:") > 0, "{stdout}");
    assert_eq!(field(&stdout, "backend messages:"), 0, "{stdout}");

    let dir = fresh_dir("stats");
    let wal = dir.join("wal");
    let (stdout, stderr) =
        run_shell(&format!(".durable {} 4\n.demo\n.stats\n.quit\n", wal.display()));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(field(&stdout, "requests executed:") > 0, "{stdout}");
    assert!(field(&stdout, "backend messages:") > 0, "{stdout}");
    assert!(stdout.contains("backends:           4 (0 down)"), "{stdout}");
}

#[test]
fn save_and_load_round_trip_through_the_shell() {
    let dir = fresh_dir("save");
    let dump = dir.join("kernel.abdl");
    let (_, stderr) = run_shell(&format!(
        ".demo\n.save {}\n.quit\n",
        dump.display()
    ));
    assert!(stderr.is_empty(), "stderr: {stderr}");
    let (stdout, stderr) = run_shell(&format!(
        ".demo\n.load {}\n.open university\n\
         MOVE 'Advanced Database' TO title IN course\n\
         FIND ANY course USING title IN course\n",
        dump.display()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("title = 'Advanced Database'"), "{stdout}");
}

/// The whole LIL surface of the shell, pinned byte for byte: `.demo`,
/// `.create` of a SQL DDL and a DBD, `.dbs`, `.schema`, `.abdl on`, and
/// `.open` in all four languages, each running a statement that prints
/// a result and one that does not (SQL and DL/I always print a line:
/// their mutations answer with an affected count), plus the connect
/// errors (unknown database, wrong model, unknown language).
#[test]
fn shell_transcript_is_pinned() {
    let dir = fresh_dir("transcript");
    let sql = dir.join("suppliers.sql");
    let dbd = dir.join("school.dbd");
    std::fs::write(
        &sql,
        "CREATE DATABASE suppliers;\n\
         CREATE TABLE supplier (sno INTEGER NOT NULL, sname CHAR(20), city CHAR(15), \
         PRIMARY KEY (sno));\n",
    )
    .unwrap();
    std::fs::write(
        &dbd,
        "HIERARCHY NAME IS school.\n\
         SEGMENT department.\n  02 dno TYPE IS FIXED.\n  02 dname TYPE IS CHARACTER 20.\n  \
         SEQUENCE IS dno.\n\
         SEGMENT course PARENT IS department.\n  02 cno TYPE IS FIXED.\n  \
         02 title TYPE IS CHARACTER 30.\n",
    )
    .unwrap();
    let (stdout, stderr) = run_shell(&format!(
        ".demo\n\
         .create {sql}\n\
         .create {dbd}\n\
         .dbs\n\
         .schema suppliers\n\
         .schema school\n\
         .abdl on\n\
         .open university\n\
         MOVE 'Advanced Database' TO title IN course\n\
         FIND ANY course USING title IN course\n\
         .open university daplex\n\
         FOR EACH student SUCH THAT major(student) = 'Computer Science' PRINT name(student);\n\
         FOR EACH student SUCH THAT name(student) = 'Nobody' PRINT name(student);\n\
         .open suppliers sql\n\
         INSERT INTO supplier (sno, sname, city) VALUES (1, 'Smith', 'London');\n\
         SELECT sname FROM supplier WHERE city = 'London';\n\
         .open school dli\n\
         ISRT department (dno = 1, dname = 'CS')\n\
         GU department (dno = 1)\n\
         GU department (dno = 9)\n\
         .open school sql\n\
         SELECT dname FROM department;\n\
         .open ghost\n\
         .open suppliers codasyl\n\
         .open university cobol\n\
         .quit\n",
        sql = sql.display(),
        dbd = dbd.display(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let transcript = format!("{stdout}--- stderr ---\n{stderr}");
    assert_eq!(transcript, include_str!("expected/shell_transcript.txt"));
}
