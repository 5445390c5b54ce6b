//! KFS — the Kernel Formatting System.
//!
//! "KFS reformats the results into UDM format and displays them, via
//! LIL, to the user." Kernel records are attribute–value pair lists;
//! the network user expects record-occurrence displays shaped by the
//! record type declaration, the Daplex user expects function-value
//! rows, and the DL/I user expects segment occurrences.

use abdl::{Record, Value};
use codasyl::schema::{NetworkSchema, RecordType};
use daplex::dml::{DaplexStatement, Row};

/// Format a kernel record as a network record occurrence:
/// `course #3 ( title = 'Advanced Database', semester = 'F87', credits = 4 )`.
///
/// Only the record type's declared data items are shown — the kernel
/// bookkeeping keywords (FILE, the key attribute, set links) stay
/// hidden, exactly as the network user's view of the transformed
/// functional database demands.
pub fn format_network_record(schema: &NetworkSchema, record_type: &str, key: i64, rec: &Record) -> String {
    match schema.record(record_type) {
        Some(rt) => format!("{record_type} #{key} ( {} )", items_of(rt, rec)),
        None => format!("{record_type} #{key} {rec}"),
    }
}

fn items_of(rt: &RecordType, rec: &Record) -> String {
    rt.attrs
        .iter()
        .map(|a| format!("{} = {}", a.name, rec.get_or_null(&a.name)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Format a Daplex FOR EACH row: `name = 'Coker', gpa = 3.6`.
pub fn format_daplex_row(print: &[String], values: &[Value]) -> String {
    print
        .iter()
        .zip(values)
        .map(|(f, v)| format!("{f} = {v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Format the rows a Daplex FOR EACH printed, one per line, each value
/// named as printed: `f` for a plain function, `f(g(x))` for a composed
/// path.
pub fn format_daplex_rows(stmt: &DaplexStatement, rows: &[Row]) -> String {
    let print: Vec<String> = match stmt {
        DaplexStatement::ForEach { print, .. } => print
            .iter()
            .map(|path| match path.as_slice() {
                [f] => f.clone(),
                _ => format!("{}(x{}", path.join("("), ")".repeat(path.len())),
            })
            .collect(),
        _ => Vec::new(),
    };
    rows.iter().map(|r| format_daplex_row(&print, &r.values)).collect::<Vec<_>>().join("\n")
}

/// Format a DL/I segment occurrence:
/// `course #58 ( cno = 20, title = 'Compilers' )`, showing the segment
/// type's declared fields only.
pub fn format_segment(schema: &dli::HierSchema, segment: &str, key: i64, rec: &Record) -> String {
    let fields = schema
        .segment(segment)
        .map(|sg| {
            sg.fields
                .iter()
                .map(|f| format!("{} = {}", f.name, rec.get_or_null(&f.name)))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .unwrap_or_default();
    format!("{segment} #{key} ( {fields} )")
}

#[cfg(test)]
mod tests {
    use super::*;
    use codasyl::schema::{AttrType, NetAttrType};

    fn schema() -> NetworkSchema {
        let mut s = NetworkSchema::new("t");
        let mut rt = RecordType::new("course");
        rt.attrs.push(AttrType::new("title", NetAttrType::Char { len: 30 }));
        rt.attrs.push(AttrType::new("credits", NetAttrType::Int));
        s.records.push(rt);
        s
    }

    #[test]
    fn network_record_display_hides_kernel_keywords() {
        let s = schema();
        let rec = Record::from_pairs([
            ("FILE", Value::str("course")),
            ("course", Value::Int(3)),
            ("title", Value::str("Advanced Database")),
            ("credits", Value::Int(4)),
            ("system_course", Value::Int(0)),
        ]);
        let text = format_network_record(&s, "course", 3, &rec);
        assert_eq!(text, "course #3 ( title = 'Advanced Database', credits = 4 )");
        assert!(!text.contains("system_course"));
    }

    #[test]
    fn missing_items_render_as_null() {
        let s = schema();
        let rec = Record::from_pairs([("title", Value::str("X"))]);
        let text = format_network_record(&s, "course", 1, &rec);
        assert!(text.contains("credits = NULL"));
    }

    #[test]
    fn daplex_row_pairs_functions_with_values() {
        let text = format_daplex_row(
            &["name".into(), "gpa".into()],
            &[Value::str("Coker"), Value::Float(3.6)],
        );
        assert_eq!(text, "name = 'Coker', gpa = 3.6");
    }

    #[test]
    fn unknown_record_type_falls_back_to_raw() {
        let s = schema();
        let rec = Record::from_pairs([("x", Value::Int(1))]);
        let text = format_network_record(&s, "ghost", 9, &rec);
        assert!(text.starts_with("ghost #9 (<x, 1>)"));
    }
}
