//! A conservative logical plan optimizer.
//!
//! Pattern-stack decode rewrites (GUAVA's g-tree → physical translation)
//! mechanically produce towers of Rename/Project/Select nodes with the
//! analyst's predicate sitting at the very top. Because our executor
//! materializes every operator, a top-level selection forces full
//! intermediate tables. The optimizer applies a small set of
//! semantics-preserving rules:
//!
//! * **Select fusion** — `σ_p(σ_q(T)) → σ_{CASE WHEN q THEN p ELSE
//!   FALSE}(T)`. The CASE form (not `q AND p`) is load-bearing: AND
//!   evaluates both operands strictly so that dead-branch errors still
//!   surface, which would run `p` on rows the inner select had already
//!   rejected; CASE arms are lazy, so the fused predicate evaluates `p`
//!   on exactly the rows `q` passes — identical results *and* identical
//!   errors;
//! * **Select past Rename** — rewrite predicate columns through the
//!   inverse renaming and push below. Guarded: a predicate naming a
//!   renamed-away source column is invalid above the rename and stays
//!   unoptimized rather than being silently repaired;
//! * **Select into Project** — substitute the projected expressions into
//!   the predicate and push below. Guarded: only fires when every column
//!   the predicate references is produced by the projection — otherwise
//!   the plan is invalid and pushing the bare unknown name below could
//!   resolve it against the wider input schema, erasing the error;
//! * **Select past Union** — distribute into every branch. Guarded:
//!   union applies the left branch's names to every branch's rows
//!   positionally, so this only fires when each branch's output names
//!   are statically derivable (projection/rename towers, as Merge-decode
//!   produces) and identical across branches;
//! * **Select past Sort** — filter before sorting;
//! * **Project fusion** — collapse `π(π(T))` by substitution, guarded
//!   the same way as Select into Project;
//! * **Identity Rename removal** — only above already-keyless inputs,
//!   because every Rename output is keyless and removing one above e.g.
//!   a Scan would resurrect the scanned table's primary key.
//!
//! Equivalence with the unoptimized plan is property-tested in
//! `tests/pattern_roundtrip.rs` (`optimizer_preserves_decode_semantics`)
//! and, including single-fault error parity across all executor lanes, in
//! `tests/optimize_equivalence.rs`; the win is measured by the
//! `pattern_overhead` benchmark's `pattern_decode_optimized` group.

use crate::algebra::Plan;
use crate::expr::Expr;
use std::collections::BTreeMap;

/// Optimize a plan. Always semantics-preserving; at worst returns an
/// equivalent plan of the same shape.
pub fn optimize(plan: &Plan) -> Plan {
    // Apply rules bottom-up repeatedly until a fixed point (the rule set
    // is size-reducing on the select/project/rename alternation, so this
    // terminates quickly).
    let mut current = rewrite(plan);
    for _ in 0..8 {
        let next = rewrite(&current);
        if next == current {
            break;
        }
        current = next;
    }
    current
}

fn rewrite(plan: &Plan) -> Plan {
    // First rewrite the children, then the node itself.
    let node = map_children(plan, &rewrite);
    rewrite_node(node)
}

/// Rebuild `plan` with `f` applied to each direct child.
fn map_children(plan: &Plan, f: &impl Fn(&Plan) -> Plan) -> Plan {
    match plan {
        Plan::Scan(_) | Plan::Values { .. } => plan.clone(),
        Plan::Select { input, predicate } => Plan::Select {
            input: Box::new(f(input)),
            predicate: predicate.clone(),
        },
        Plan::Project { input, columns } => Plan::Project {
            input: Box::new(f(input)),
            columns: columns.clone(),
        },
        Plan::Rename {
            input,
            table,
            columns,
        } => Plan::Rename {
            input: Box::new(f(input)),
            table: table.clone(),
            columns: columns.clone(),
        },
        Plan::Join {
            left,
            right,
            on,
            kind,
        } => Plan::Join {
            left: Box::new(f(left)),
            right: Box::new(f(right)),
            on: on.clone(),
            kind: *kind,
        },
        Plan::Union { inputs } => Plan::Union {
            inputs: inputs.iter().map(f).collect(),
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(f(input)),
        },
        Plan::Unpivot {
            input,
            keys,
            attr_col,
            val_col,
        } => Plan::Unpivot {
            input: Box::new(f(input)),
            keys: keys.clone(),
            attr_col: attr_col.clone(),
            val_col: val_col.clone(),
        },
        Plan::Pivot {
            input,
            keys,
            attr_col,
            val_col,
            attrs,
        } => Plan::Pivot {
            input: Box::new(f(input)),
            keys: keys.clone(),
            attr_col: attr_col.clone(),
            val_col: val_col.clone(),
            attrs: attrs.clone(),
        },
        Plan::AggregateBy {
            input,
            group_by,
            aggregates,
        } => Plan::AggregateBy {
            input: Box::new(f(input)),
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
        },
        Plan::Sort { input, by } => Plan::Sort {
            input: Box::new(f(input)),
            by: by.clone(),
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(f(input)),
            n: *n,
        },
    }
}

fn rewrite_node(plan: Plan) -> Plan {
    match plan {
        Plan::Select { input, predicate } => push_select(*input, predicate),
        Plan::Project { input, columns } => fuse_project(*input, columns),
        // Identity renames still strip the input's primary key (every
        // Rename output is keyless), so removal is only invisible when
        // the input is already keyless.
        Plan::Rename {
            input,
            table,
            columns,
        } if columns.is_empty() && table.is_none() && static_keyless(&input) => *input,
        other => other,
    }
}

/// Push a selection as far down as the safe rules allow.
fn push_select(input: Plan, predicate: Expr) -> Plan {
    match input {
        // σ_p(σ_q(T)) = σ_{CASE WHEN q THEN p ELSE FALSE}(T). A plain
        // `q AND p` would NOT be equivalent: AND evaluates both operands
        // strictly (so dead-branch errors still surface), which would run
        // `p` on rows the inner select rejected — turning e.g.
        // σ_{ghost ≥ k}(σ_{a ≥ k}(T)) from Ok(empty) into a binding error
        // when no row satisfies `a ≥ k`. CASE arms are lazy: `p` is
        // evaluated exactly on the rows where `q` is TRUE, as in the
        // nested plan, and a FALSE/NULL `q` drops the row via the FALSE
        // default.
        Plan::Select {
            input,
            predicate: inner,
        } => push_select(
            *input,
            Expr::Case {
                arms: vec![(inner, predicate)],
                default: Box::new(Expr::lit(false)),
            },
        ),
        // σ_p(ρ(T)) = ρ(σ_{p'}(T)) with columns mapped back. Not pushed
        // when `p` references a renamed-away source name: such a plan is
        // invalid (the name no longer exists above the rename) and pushing
        // would silently repair it, since the name *does* exist below.
        Plan::Rename {
            input,
            table,
            columns,
        } => {
            let repaired = predicate.referenced_columns().iter().any(|c| {
                columns.iter().any(|(from, _)| from == c) && !columns.iter().any(|(_, to)| to == c)
            });
            if repaired {
                return Plan::Select {
                    input: Box::new(Plan::Rename {
                        input,
                        table,
                        columns,
                    }),
                    predicate,
                };
            }
            let reverse: BTreeMap<&str, &str> = columns
                .iter()
                .map(|(from, to)| (to.as_str(), from.as_str()))
                .collect();
            let mapped = predicate.map_columns(&|c| {
                reverse
                    .get(c)
                    .map(|s| (*s).to_owned())
                    .unwrap_or_else(|| c.to_owned())
            });
            Plan::Rename {
                input: Box::new(push_select(*input, mapped)),
                table,
                columns,
            }
        }
        // σ_p(π(T)) = π(σ_{p[cols→exprs]}(T)). Only when every column `p`
        // references is produced by the projection — otherwise the plan is
        // invalid, and substitution would leave the unknown name as a bare
        // reference below the projection, where it may resolve against the
        // wider input schema and erase the error.
        Plan::Project { input, columns } => {
            let by_alias: BTreeMap<&str, &Expr> =
                columns.iter().map(|(a, e)| (a.as_str(), e)).collect();
            if predicate
                .referenced_columns()
                .iter()
                .any(|c| !by_alias.contains_key(c))
            {
                return Plan::Select {
                    input: Box::new(Plan::Project { input, columns }),
                    predicate,
                };
            }
            let substituted = substitute(&predicate, &by_alias);
            Plan::Project {
                input: Box::new(push_select(*input, substituted)),
                columns,
            }
        }
        // σ_p(T1 ∪ T2) = σ_p(T1) ∪ σ_p(T2). Union resolves `p` against the
        // *left* branch's column names but applies it to every branch's
        // rows positionally, so distributing is only sound when each
        // branch demonstrably exposes the same names in the same order —
        // which decode-Merge towers (projections normalizing each vendor
        // branch to the shared logical names) do.
        Plan::Union { inputs } => {
            let names: Option<Vec<Vec<String>>> = inputs.iter().map(static_columns).collect();
            let aligned = names
                .as_ref()
                .is_some_and(|ns| ns.windows(2).all(|w| w[0] == w[1]));
            if aligned {
                Plan::Union {
                    inputs: inputs
                        .into_iter()
                        .map(|p| push_select(p, predicate.clone()))
                        .collect(),
                }
            } else {
                Plan::Select {
                    input: Box::new(Plan::Union { inputs }),
                    predicate,
                }
            }
        }
        // σ_p(sort(T)) = sort(σ_p(T)).
        Plan::Sort { input, by } => Plan::Sort {
            input: Box::new(push_select(*input, predicate)),
            by,
        },
        // σ_p(δ(T)) = δ(σ_p(T)).
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(push_select(*input, predicate)),
        },
        other => Plan::Select {
            input: Box::new(other),
            predicate,
        },
    }
}

/// Whether a plan's output schema is statically known to carry no primary
/// key (Rename/Project/Union/Distinct outputs are always keyless;
/// Select/Sort/Limit pass their input's key through).
fn static_keyless(p: &Plan) -> bool {
    match p {
        Plan::Rename { .. } | Plan::Project { .. } | Plan::Union { .. } | Plan::Distinct { .. } => {
            true
        }
        Plan::Select { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            static_keyless(input)
        }
        _ => false,
    }
}

/// Best-effort static output-column names of a plan, without a catalog.
/// `None` when the names depend on a scanned table's schema.
fn static_columns(p: &Plan) -> Option<Vec<String>> {
    match p {
        Plan::Values { schema, .. } => {
            Some(schema.columns().iter().map(|c| c.name.clone()).collect())
        }
        Plan::Project { columns, .. } => Some(columns.iter().map(|(a, _)| a.clone()).collect()),
        Plan::Rename { input, columns, .. } => {
            let mut cols = static_columns(input)?;
            for (from, to) in columns {
                let idx = cols.iter().position(|c| c == from)?;
                cols[idx] = to.clone();
            }
            Some(cols)
        }
        Plan::Select { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Distinct { input } => static_columns(input),
        _ => None,
    }
}

/// Substitute column references by the expressions a projection binds them
/// to. Callers must ensure every referenced column is bound (see the
/// guards in [`push_select`] and [`fuse_project`]).
fn substitute(e: &Expr, bindings: &BTreeMap<&str, &Expr>) -> Expr {
    match e {
        Expr::Col(c) => bindings
            .get(c.as_str())
            .map(|b| (*b).clone())
            .unwrap_or_else(|| e.clone()),
        Expr::Lit(_) => e.clone(),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(substitute(a, bindings)),
            Box::new(substitute(b, bindings)),
        ),
        Expr::Not(x) => Expr::Not(Box::new(substitute(x, bindings))),
        Expr::Neg(x) => Expr::Neg(Box::new(substitute(x, bindings))),
        Expr::IsNull(x) => Expr::IsNull(Box::new(substitute(x, bindings))),
        Expr::IsNotNull(x) => Expr::IsNotNull(Box::new(substitute(x, bindings))),
        Expr::InList(x, vs) => Expr::InList(Box::new(substitute(x, bindings)), vs.clone()),
        Expr::Coalesce(es) => Expr::Coalesce(es.iter().map(|x| substitute(x, bindings)).collect()),
        Expr::Case { arms, default } => Expr::Case {
            arms: arms
                .iter()
                .map(|(c, v)| (substitute(c, bindings), substitute(v, bindings)))
                .collect(),
            default: Box::new(substitute(default, bindings)),
        },
    }
}

/// Collapse `π_outer(π_inner(T))` by substituting inner expressions into
/// the outer ones.
fn fuse_project(input: Plan, outer: Vec<(String, Expr)>) -> Plan {
    match input {
        Plan::Project {
            input: inner_input,
            columns: inner,
        } => {
            let bindings: BTreeMap<&str, &Expr> =
                inner.iter().map(|(a, e)| (a.as_str(), e)).collect();
            // Fusing is only sound when the outer expressions reference
            // nothing but inner aliases; an unbound reference means the
            // plan is invalid, and substitution would leave it as a bare
            // name that may resolve against the inner *input* schema,
            // erasing the error.
            if outer.iter().any(|(_, e)| {
                e.referenced_columns()
                    .iter()
                    .any(|c| !bindings.contains_key(c))
            }) {
                return Plan::Project {
                    input: Box::new(Plan::Project {
                        input: inner_input,
                        columns: inner,
                    }),
                    columns: outer,
                };
            }
            let fused: Vec<(String, Expr)> = outer
                .iter()
                .map(|(alias, e)| (alias.clone(), substitute(e, &bindings)))
                .collect();
            Plan::Project {
                input: inner_input,
                columns: fused,
            }
        }
        other => Plan::Project {
            input: Box::new(other),
            columns: outer,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::schema::{Column, Schema};
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let schema = Schema::new(
            "t",
            vec![
                Column::required("id", DataType::Int),
                Column::new("x", DataType::Int),
                Column::new("b", DataType::Bool),
            ],
        )
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        let mut d = Database::new("d");
        d.create_table(
            Table::from_rows(
                schema,
                (0..20i64)
                    .map(|i| {
                        vec![
                            Value::Int(i),
                            if i % 5 == 0 {
                                Value::Null
                            } else {
                                Value::Int(i)
                            },
                            Value::Bool(i % 2 == 0),
                        ]
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
        )
        .unwrap();
        d
    }

    fn assert_equivalent(plan: &Plan) {
        let d = db();
        let optimized = optimize(plan);
        let mut a = plan.eval(&d).unwrap().into_rows();
        let mut b = optimized.eval(&d).unwrap().into_rows();
        a.sort();
        b.sort();
        assert_eq!(a, b, "optimizer changed semantics of {plan:?}");
    }

    #[test]
    fn select_fusion() {
        let p = Plan::scan("t")
            .select(Expr::col("x").gt(Expr::lit(3i64)))
            .select(Expr::col("b").eq(Expr::lit(true)));
        let o = optimize(&p);
        // One select directly over the scan.
        match &o {
            Plan::Select { input, .. } => assert!(matches!(**input, Plan::Scan(_))),
            other => panic!("expected fused select, got {other:?}"),
        }
        assert_equivalent(&p);
    }

    #[test]
    fn select_pushed_past_rename() {
        let p = Plan::scan("t")
            .rename_columns(vec![("x", "renamed_x")])
            .select(Expr::col("renamed_x").gt(Expr::lit(5i64)));
        let o = optimize(&p);
        match &o {
            Plan::Rename { input, .. } => {
                assert!(
                    matches!(**input, Plan::Select { .. }),
                    "select below rename"
                )
            }
            other => panic!("expected rename on top, got {other:?}"),
        }
        assert_equivalent(&p);
    }

    #[test]
    fn select_pushed_into_project() {
        let p = Plan::scan("t")
            .project(vec![
                ("id", Expr::col("id")),
                ("double", Expr::col("x").mul(Expr::lit(2i64))),
            ])
            .select(Expr::col("double").gt(Expr::lit(10i64)));
        let o = optimize(&p);
        match &o {
            Plan::Project { input, .. } => {
                assert!(
                    matches!(**input, Plan::Select { .. }),
                    "select below project"
                )
            }
            other => panic!("expected project on top, got {other:?}"),
        }
        assert_equivalent(&p);
    }

    #[test]
    fn select_distributed_over_union() {
        // Merge-decode shape: every branch normalized to the same output
        // names by a projection, so distribution is provably name-safe.
        let branch =
            || Plan::scan("t").project(vec![("id", Expr::col("id")), ("b", Expr::col("b"))]);
        let p = Plan::union(vec![branch(), branch()]).select(Expr::col("b").eq(Expr::lit(false)));
        let o = optimize(&p);
        match &o {
            Plan::Union { inputs } => {
                assert!(inputs.iter().all(|i| matches!(i, Plan::Project { .. })))
            }
            other => panic!("expected union on top, got {other:?}"),
        }
        assert_equivalent(&p);
    }

    #[test]
    fn select_not_distributed_over_name_opaque_union() {
        // Bare scans: branch output names are not statically known, so
        // the selection must stay above the union.
        let p = Plan::union(vec![Plan::scan("t"), Plan::scan("t")])
            .select(Expr::col("b").eq(Expr::lit(false)));
        assert!(matches!(optimize(&p), Plan::Select { .. }));
        assert_equivalent(&p);
    }

    #[test]
    fn invalid_plans_stay_invalid() {
        // Each pushdown rule refuses to "repair" a plan that errors: a
        // predicate on a renamed-away name, a predicate on a column the
        // projection dropped, and an outer projection referencing a
        // column the inner projection dropped.
        let d = db();
        let plans = vec![
            Plan::scan("t")
                .rename_columns(vec![("x", "y")])
                .select(Expr::col("x").gt(Expr::lit(1i64))),
            Plan::scan("t")
                .project(vec![("id", Expr::col("id"))])
                .select(Expr::col("x").gt(Expr::lit(1i64))),
            Plan::scan("t")
                .project(vec![("y", Expr::col("x"))])
                .project(vec![("id", Expr::col("id")), ("y", Expr::col("y"))]),
        ];
        for p in plans {
            assert!(p.eval(&d).is_err(), "fixture plan should be invalid: {p:?}");
            assert!(
                optimize(&p).eval(&d).is_err(),
                "optimizer repaired an invalid plan: {p:?}"
            );
        }
    }

    #[test]
    fn project_fusion() {
        let p = Plan::scan("t")
            .project(vec![("y", Expr::col("x").add(Expr::lit(1i64)))])
            .project(vec![("z", Expr::col("y").mul(Expr::lit(3i64)))]);
        let o = optimize(&p);
        match &o {
            Plan::Project { input, columns } => {
                assert!(matches!(**input, Plan::Scan(_)), "single fused projection");
                assert_eq!(columns.len(), 1);
                assert_eq!(columns[0].0, "z");
            }
            other => panic!("expected fused project, got {other:?}"),
        }
        assert_equivalent(&p);
    }

    #[test]
    fn identity_rename_removed() {
        // Above a keyless input the identity rename is invisible and
        // removed; above a scan it still strips the table's primary key
        // and must stay.
        let keyless = Plan::Rename {
            input: Box::new(Plan::scan("t").project(vec![("id", Expr::col("id"))])),
            table: None,
            columns: vec![],
        };
        assert!(matches!(optimize(&keyless), Plan::Project { .. }));
        let keyed = Plan::Rename {
            input: Box::new(Plan::scan("t")),
            table: None,
            columns: vec![],
        };
        assert_eq!(optimize(&keyed), keyed);
    }

    #[test]
    fn deep_tower_collapses() {
        // The shape decode plans produce: select over rename over project
        // over select over scan.
        let p = Plan::scan("t")
            .select(Expr::col("x").is_not_null())
            .project(vec![("id", Expr::col("id")), ("x", Expr::col("x"))])
            .rename_columns(vec![("x", "packs")])
            .select(Expr::col("packs").ge(Expr::lit(4i64)));
        assert_equivalent(&p);
        // The optimized plan evaluates the filter before projecting.
        let o = optimize(&p);
        fn select_depth(p: &Plan) -> usize {
            match p {
                Plan::Select { input, .. } => 1 + select_depth(input),
                Plan::Project { input, .. }
                | Plan::Rename { input, .. }
                | Plan::Sort { input, .. } => select_depth(input),
                _ => 0,
            }
        }
        assert_eq!(select_depth(&o), 1, "both selects fused below: {o:?}");
    }

    #[test]
    fn aggregates_and_joins_left_untouched() {
        use crate::algebra::{AggFunc, Aggregate, JoinKind};
        let p = Plan::scan("t")
            .join(Plan::scan("t"), vec![("id", "id")], JoinKind::Inner)
            .aggregate(
                &[],
                vec![Aggregate {
                    func: AggFunc::CountAll,
                    alias: "n".into(),
                }],
            );
        assert_eq!(optimize(&p), p, "no rule applies; plan unchanged");
    }
}
