//! Minimal CSV import/export — the hand-off format between the warehouse
//! and the analysts' statistical packages (Section 2: "extract relevant
//! reports for import into a statistical package").
//!
//! Supports RFC-4180-style quoting. NULL is the empty unquoted field; an
//! empty *quoted* field is the empty string.

use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::table::{Row, Table};
use crate::value::Value;

/// Serialize a table to CSV with a header row.
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .map(|c| escape(&c.name))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in table.iter_rows() {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Text(s) => escape(s),
                v => v.to_string(),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn escape(s: &str) -> String {
    if s.is_empty() || s.contains([',', '"', '\n', '\r']) {
        let mut e = String::with_capacity(s.len() + 2);
        e.push('"');
        for c in s.chars() {
            if c == '"' {
                e.push('"');
            }
            e.push(c);
        }
        e.push('"');
        e
    } else {
        s.to_owned()
    }
}

/// Parse CSV text into a table with the given schema. The header row must
/// match the schema's column names in order; each field is cast to the
/// column's type (empty unquoted = NULL).
pub fn from_csv(schema: Schema, text: &str) -> RelResult<Table> {
    let mut records = parse_records(text)?;
    if records.is_empty() {
        return Err(RelError::Csv("missing header row".into()));
    }
    let header = records.remove(0);
    let expected = schema.column_names();
    let got: Vec<&str> = header.iter().map(|f| f.text.as_str()).collect();
    if got != expected {
        return Err(RelError::Csv(format!(
            "header mismatch: expected {expected:?}, got {got:?}"
        )));
    }
    let mut rows: Vec<Row> = Vec::with_capacity(records.len());
    for rec in records {
        if rec.len() != schema.arity() {
            return Err(RelError::Csv(format!(
                "record has {} fields, schema has {}",
                rec.len(),
                schema.arity()
            )));
        }
        let mut row = Vec::with_capacity(rec.len());
        for (field, col) in rec.into_iter().zip(schema.columns()) {
            let v = if field.text.is_empty() && !field.quoted {
                Value::Null
            } else {
                crate::algebra::cast_text(&field.text, col.data_type)?
            };
            row.push(v);
        }
        rows.push(row);
    }
    Table::from_rows(schema, rows)
}

struct Field {
    text: String,
    quoted: bool,
}

fn parse_records(text: &str) -> RelResult<Vec<Vec<Field>>> {
    let mut records = Vec::new();
    let mut record: Vec<Field> = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                c => field.push(c),
            }
            continue;
        }
        match c {
            '"' if field.is_empty() && !quoted => {
                in_quotes = true;
                quoted = true;
            }
            '"' => return Err(RelError::Csv("stray quote mid-field".into())),
            ',' => {
                record.push(Field {
                    text: std::mem::take(&mut field),
                    quoted,
                });
                quoted = false;
            }
            '\r' => {}
            '\n' => {
                record.push(Field {
                    text: std::mem::take(&mut field),
                    quoted,
                });
                quoted = false;
                records.push(std::mem::take(&mut record));
            }
            c => field.push(c),
        }
    }
    if in_quotes {
        return Err(RelError::Csv("unterminated quoted field".into()));
    }
    if !field.is_empty() || quoted || !record.is_empty() {
        record.push(Field {
            text: field,
            quoted,
        });
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(
            "export",
            vec![
                Column::new("id", DataType::Int),
                Column::new("note", DataType::Text),
                Column::new("flag", DataType::Bool),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_with_nulls_and_quoting() {
        let t = Table::from_rows(
            schema(),
            vec![
                vec![1.into(), "plain".into(), true.into()],
                vec![2.into(), "has, comma".into(), false.into()],
                vec![3.into(), "has \"quote\"".into(), Value::Null],
                vec![Value::Null, "".into(), true.into()],
            ],
        )
        .unwrap();
        let csv = to_csv(&t);
        let back = from_csv(schema(), &csv).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_quoted_is_empty_string_not_null() {
        let csv = "id,note,flag\n1,\"\",TRUE\n2,,FALSE\n";
        let t = from_csv(schema(), csv).unwrap();
        assert_eq!(t.row_at(0).unwrap()[1], Value::text(""));
        assert!(t.row_at(1).unwrap()[1].is_null());
    }

    #[test]
    fn header_mismatch_rejected() {
        let csv = "id,wrong,flag\n";
        assert!(matches!(from_csv(schema(), csv), Err(RelError::Csv(_))));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let csv = "id,note,flag\n1,x\n";
        assert!(matches!(from_csv(schema(), csv), Err(RelError::Csv(_))));
    }

    #[test]
    fn bad_cast_reported() {
        let csv = "id,note,flag\nnotanint,x,TRUE\n";
        assert!(from_csv(schema(), csv).is_err());
    }

    #[test]
    fn crlf_and_missing_trailing_newline() {
        let csv = "id,note,flag\r\n1,x,TRUE\r\n2,y,FALSE";
        let t = from_csv(schema(), csv).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let t = Table::from_rows(
            schema(),
            vec![vec![1.into(), "line1\nline2".into(), true.into()]],
        )
        .unwrap();
        let back = from_csv(schema(), &to_csv(&t)).unwrap();
        assert_eq!(back.row_at(0).unwrap()[1], Value::text("line1\nline2"));
    }
}
