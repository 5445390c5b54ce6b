//! Typed attribute values.
//!
//! The thesis's C implementation stores every value as a character string
//! tagged `I`/`F`/`S`; here values are typed so the non-entity integrity
//! constraints of the functional model (Chapter V.C) survive the trip
//! through the kernel without string re-parsing.

use std::cmp::Ordering;
use std::fmt;

/// A single attribute value of an ABDM keyword.
///
/// Values form a total order so that range predicates (`<`, `<=`, `>`,
/// `>=`) and the kernel's per-attribute directory indexes behave
/// deterministically even across types: `Null < Int ≈ Float < Str`.
/// Integer/float comparisons are numeric; everything else orders by type
/// first, then within type.
#[derive(Debug, Clone)]
pub enum Value {
    /// The null value ("does not identify a record / no value").
    Null,
    /// A (signed) integer — the network `FIXED` / Daplex `INTEGER` type.
    Int(i64),
    /// A floating-point number — network `FLOAT` / Daplex `FLOAT`.
    Float(f64),
    /// A character string — network `CHARACTER(n)` / Daplex `STRING`,
    /// also used for enumeration literals and booleans.
    Str(String),
}

impl Value {
    /// String value helper.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// True when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by aggregates: integers and floats only.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Rank used for cross-type ordering.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            // Numeric cross-comparison: totalize NaN as greatest float.
            (Int(a), Float(b)) => cmp_f64(*a as f64, *b),
            (Float(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Float(a), Float(b)) => cmp_f64(*a, *b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash integral floats like ints so Int(2) == Float(2.0)
            // hashes consistently with Eq.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                // Normalize -0.0 to 0.0 to match Eq.
                let f = if *f == 0.0 { 0.0 } else { *f };
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| {
        // NaN sorts greatest; two NaNs are equal.
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => unreachable!("partial_cmp on non-NaN floats"),
        }
    })
}

impl fmt::Display for Value {
    /// Canonical ABDL rendering: strings are single-quoted with `''`
    /// escaping, finite floats always carry a decimal point or an
    /// exponent (so they re-parse as floats), `NULL` is literal.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => write!(f, "{x:.1}"),
            Value::Float(x) if x.fract() == 0.0 => write!(f, "{x:e}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Str(if v { "true" } else { "false" }.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_numeric() {
        assert!(Value::Int(2) < Value::Int(3));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(2.5) < Value::Int(3));
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::str(""));
        assert!(Value::str("a") < Value::str("b"));
    }

    #[test]
    fn nan_sorts_greatest_among_numbers() {
        assert!(Value::Float(f64::NAN) > Value::Float(f64::INFINITY));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        // But still below strings (type rank).
        assert!(Value::Float(f64::NAN) < Value::str(""));
    }

    #[test]
    fn display_escapes_quotes() {
        assert_eq!(Value::str("O'Brien").to_string(), "'O''Brien'");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Float(4.0).to_string(), "4.0");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn hash_agrees_with_eq_for_mixed_numerics() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(2));
        assert!(set.contains(&Value::Float(2.0)));
    }
}
