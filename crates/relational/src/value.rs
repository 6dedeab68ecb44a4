//! Typed scalar values and data types for the relational substrate.
//!
//! The paper's contributor databases, temporary databases (Figure 6), and
//! study-schema tables (Figure 7) all hold rows of scalar values. We use a
//! compact enum with a *total* ordering (nulls sort first) so that values can
//! be used as keys in sorted containers, joins, and indexes without panics.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Logical type of a column or a scalar value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean (`yes/no` controls such as check boxes).
    Bool,
    /// 64-bit signed integer (counts, codes, "packs per day").
    Int,
    /// 64-bit float (measurements, derived quantities such as tumor volume).
    Float,
    /// UTF-8 text (free-text boxes, drop-down captions).
    Text,
    /// Calendar date stored as days since 1970-01-01 (procedure dates).
    Date,
}

impl DataType {
    /// Human-readable name, used in error messages and schema printouts.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Date => "DATE",
        }
    }

    /// Whether a value of type `from` may be stored in a column of type
    /// `self` without an explicit cast. We allow Int → Float widening,
    /// mirroring what SQL implementations do implicitly.
    pub fn accepts(self, from: DataType) -> bool {
        self == from || (self == DataType::Float && from == DataType::Int)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar value, nullable. `Null` is typeless: it is accepted by every
/// column type, compares less than every other value, and propagates through
/// arithmetic — the behaviour analysts see for unanswered UI controls.
///
/// Text is shared, not owned: cloning a `Text` cell bumps a reference
/// count, so row copies, projections and segment dictionaries all point
/// at one allocation per distinct string a source created.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    /// Days since the Unix epoch; see [`Value::date_from_ymd`].
    Date(i64),
}

impl Value {
    /// The dynamic type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Constructor for text values. Passing an `Arc<str>` shares it;
    /// passing a `&str` or `String` makes one allocation.
    pub fn text(s: impl Into<Arc<str>>) -> Value {
        Value::Text(s.into())
    }

    /// Build a `Date` from a calendar date using a proleptic Gregorian
    /// civil-day count (Howard Hinnant's `days_from_civil` algorithm).
    pub fn date_from_ymd(year: i32, month: u32, day: u32) -> Value {
        Value::Date(days_from_civil(year, month, day))
    }

    /// Numeric view used by arithmetic: integers widen to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style equality: `Null` equals nothing (returns `None`), numeric
    /// types compare by value across Int/Float.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// SQL-style ordering comparison: `None` when either side is null or the
    /// types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Total ordering over *all* values: `Null` first, then Bool, numbers
    /// (Int and Float interleaved by numeric value), Text, Date. Used for
    /// sorting, grouping, and index keys, where every pair must compare.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Text(_) => 3,
                Date(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.total_cmp(&y)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialEq for Value {
    /// Structural equality consistent with [`Value::total_cmp`] (so `Null ==
    /// Null` and `Int(1) == Float(1.0)`). SQL three-valued equality is
    /// [`Value::sql_eq`].
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash identically when numerically equal,
            // because total_cmp treats them as equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

/// Dates render as ISO-8601; floats keep a trailing `.0` so they stay
/// distinguishable from ints in printed tables.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => f.write_str(s),
            Value::Date(d) => {
                let (y, m, dd) = civil_from_days(*d);
                write!(f, "{y:04}-{m:02}-{dd:02}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::text(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::text(s)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map_or(Value::Null, Into::into)
    }
}

/// Days since 1970-01-01 for a proleptic Gregorian calendar date.
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
pub fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    ((y + i64::from(m <= 2)) as i32, m as u32, d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        let mut vs = [
            Value::Int(3),
            Value::Null,
            Value::text("a"),
            Value::Bool(true),
        ];
        vs.sort();
        assert!(vs[0].is_null());
        assert_eq!(vs[1], Value::Bool(true));
    }

    #[test]
    fn int_float_numeric_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Int(3).total_cmp(&Value::Float(2.5)),
            Ordering::Greater
        );
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn sql_cmp_across_numeric_types() {
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::text("a").sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2000, 2, 29),
            (2006, 3, 26),
            (1899, 12, 31),
            (2026, 7, 6),
        ] {
            let v = Value::date_from_ymd(y, m, d);
            if let Value::Date(z) = v {
                assert_eq!(civil_from_days(z), (y, m, d));
            } else {
                unreachable!()
            }
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
    }

    #[test]
    fn date_display_iso() {
        assert_eq!(Value::date_from_ymd(2006, 3, 26).to_string(), "2006-03-26");
    }

    #[test]
    fn display_distinguishes_float() {
        assert_eq!(Value::Int(2).to_string(), "2");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.25).to_string(), "2.25");
    }

    #[test]
    fn accepts_widening() {
        assert!(DataType::Float.accepts(DataType::Int));
        assert!(!DataType::Int.accepts(DataType::Float));
        assert!(DataType::Text.accepts(DataType::Text));
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::Int(2));
        assert!(s.contains(&Value::Float(2.0)));
    }

    #[test]
    fn text_cells_are_shared_and_value_is_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        let a = Value::text("Heavy smoker");
        let b = a.clone();
        match (&a, &b) {
            (Value::Text(x), Value::Text(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn option_into_value() {
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(5i64)), Value::Int(5));
    }
}
