//! Plan explanation: render a plan as an indented operator tree.
//!
//! Backs the `guava explain` CLI subcommand. Each node prints its
//! operator and — in analyze mode — the *actual* row count obtained by
//! materializing the node's subtree with the oracle evaluator. Scan
//! leaves additionally print the table's physical
//! [`TableLayout`](crate::table::TableLayout): how many chunks and
//! zero-copy windows the scan walks and how much of the table is sealed.
//! A join prints where its probe rows find their partners: a hash index
//! over its right input (`[build: right]`), or the primary-key index of
//! the stored table its right side scans (`[probe: key of <table>]`),
//! decided by the same schema test `compile` applies. There are no
//! estimates: plans are fixed by the definitions that build them, not
//! chosen from statistics (DESIGN.md §17).

use crate::algebra::{JoinKind, Plan};
use crate::database::Database;
use crate::error::RelResult;
use crate::optimize::keyed_lookup;

/// Render `plan` as an indented operator tree. With `analyze`, every
/// node's subtree is additionally evaluated via
/// [`Plan::eval_materialized`] and its actual row count printed (scan
/// leaves also print the scanned table's layout); a failing plan fails
/// the explain with the same error the query itself would raise.
pub fn explain_plan(plan: &Plan, db: &Database, analyze: bool) -> RelResult<String> {
    let mut out = String::new();
    render(plan, db, analyze, 0, &mut out)?;
    Ok(out)
}

fn render(
    plan: &Plan,
    db: &Database,
    analyze: bool,
    depth: usize,
    out: &mut String,
) -> RelResult<()> {
    let mut line = format!("{:indent$}{}", "", label(plan, db), indent = depth * 2);
    if analyze {
        let actual = plan.eval_materialized(db)?.len();
        line.push_str(&format!("  [actual rows={actual}]"));
        if let Plan::Scan(name) = plan {
            line.push_str(&format!("  [layout: {}]", db.table(name)?.layout()));
        }
    }
    out.push_str(&line);
    out.push('\n');
    for child in plan.children() {
        render(child, db, analyze, depth + 1, out)?;
    }
    Ok(())
}

fn label(plan: &Plan, db: &Database) -> String {
    match plan {
        Plan::Scan(name) => format!("Scan {name}"),
        Plan::Values { rows, .. } => format!("Values [{} rows]", rows.len()),
        Plan::Select { predicate, .. } => format!("Select {predicate}"),
        Plan::Project { columns, .. } => {
            let names: Vec<&str> = columns.iter().map(|(a, _)| a.as_str()).collect();
            format!("Project [{}]", names.join(", "))
        }
        Plan::Rename { table, columns, .. } => match table {
            Some(t) => format!("Rename → {t} ({} columns)", columns.len()),
            None => format!("Rename ({} columns)", columns.len()),
        },
        Plan::Join {
            right, on, kind, ..
        } => {
            let k = match kind {
                JoinKind::Inner => "HashJoin",
                JoinKind::Left => "LeftHashJoin",
            };
            // Where a probe row finds its partners — as `compile` decides.
            let side = match (&**right, keyed_lookup(right, on, db)) {
                (Plan::Scan(name), Some(_)) => format!("[probe: key of {name}]"),
                _ => "[build: right]".to_owned(),
            };
            if on.is_empty() {
                format!("{k} (cross)  {side}")
            } else {
                let pairs: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                format!("{k} on {}  {side}", pairs.join(" AND "))
            }
        }
        Plan::Union { inputs } => format!("Union [{} inputs]", inputs.len()),
        Plan::Distinct { .. } => "Distinct".to_owned(),
        Plan::Unpivot {
            attr_col, val_col, ..
        } => format!("Unpivot → ({attr_col}, {val_col})"),
        Plan::Pivot { attrs, .. } => format!("Pivot [{} attrs]", attrs.len()),
        Plan::AggregateBy {
            group_by,
            aggregates,
            ..
        } => format!(
            "Aggregate by [{}] ({} aggregates)",
            group_by.join(", "),
            aggregates.len()
        ),
        Plan::Sort { by, .. } => format!("Sort [{}]", by.join(", ")),
        Plan::Limit { n, .. } => format!("Limit {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::{Column, Schema};
    use crate::table::Table;
    use crate::value::{DataType, Value};

    #[test]
    fn analyze_reports_each_scan_leafs_layout() {
        let schema = Schema::new("t", vec![Column::new("x", DataType::Int)]).unwrap();
        let mut t = Table::from_rows(schema, (0..10).map(|i| vec![Value::Int(i)])).unwrap();
        t.segments();
        t.delete_where(|r| r[0] == Value::Int(4)).unwrap();
        let mut db = Database::new("d");
        db.create_table(t).unwrap();
        let plan = Plan::scan("t").select(Expr::col("x").ge(Expr::lit(5i64)));
        let plain = explain_plan(&plan, &db, false).unwrap();
        assert!(!plain.contains("layout"), "{plain}");
        let analyzed = explain_plan(&plan, &db, true).unwrap();
        let scan = analyzed.lines().find(|l| l.contains("Scan t")).unwrap();
        assert!(
            scan.contains("[actual rows=9]")
                && scan.contains(
                    "[layout: chunks=1 sealed_spans=1 imaged_columns=0 dead_under_seals=1 small_tail=1]"
                ),
            "{analyzed}"
        );
    }
}
