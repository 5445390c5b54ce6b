//! Request and examined-record counts of the Daplex statements the
//! `lang_university` benchmark issues: a designator resolves from its
//! indexed predicates, never from a scan of the whole entity file.

use mlds::daplex::university::UNIVERSITY_DDL;
use mlds::{Mlds, NamespacedKernel};
use mlds_bench::workload::{load_university_scaled, Scale};

const STUDENTS: usize = 2000;

fn scaled_university() -> (Mlds, mlds::DaplexSession) {
    let mut m = Mlds::single_backend();
    let uni = m.create_database(UNIVERSITY_DDL).expect("university schema");
    load_university_scaled(
        &mut NamespacedKernel::new(m.kernel_mut(), &uni),
        Scale::of(STUDENTS),
        3,
    );
    let dap = m.connect_daplex("u", &uni).expect("connect");
    (m, dap)
}

#[test]
fn a_student_by_name_costs_four_indexed_requests() {
    let (mut m, mut dap) = scaled_university();
    let before = m.exec_totals().records_examined;
    let out = m
        .execute_daplex(
            &mut dap,
            "FOR EACH student SUCH THAT name(student) = 'student_1234' PRINT major(student), age(student);",
        )
        .expect("statement runs");
    let examined = m.exec_totals().records_examined - before;
    assert_eq!(out[0].affected, 1, "{}", out[0].display);
    assert!(examined <= 8, "{examined} records examined for one student of {STUDENTS}");
    // Seed from the name index on `person`, check the seed keys are
    // students, then read `major` (student) and `age` (person).
    assert_eq!(out[0].abdl.len(), 4, "{:#?}", out[0].abdl);
    assert!(
        out[0].abdl.iter().all(|r| !r.starts_with("RETRIEVE ((FILE = 'student')) ")),
        "a whole-file scan: {:#?}",
        out[0].abdl
    );
}

#[test]
fn a_course_by_title_costs_two_requests() {
    let (mut m, mut dap) = scaled_university();
    let out = m
        .execute_daplex(
            &mut dap,
            "FOR EACH course SUCH THAT title(course) = 'course_17' PRINT credits(course);",
        )
        .expect("statement runs");
    assert_eq!(out[0].affected, 1, "{}", out[0].display);
    assert_eq!(out[0].abdl.len(), 2, "{:#?}", out[0].abdl);
}
