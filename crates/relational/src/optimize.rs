//! Plan rewrites: what runs in place of a plan as written.
//!
//! # The executor's front door — [`prepare`]
//!
//! Pattern-stack decode rewrites (GUAVA's g-tree → physical translation)
//! emit every pattern's *whole* pre-layout tower, and the study compiler
//! projects the nodes a study asks for on top of it: a `Generic` stack
//! copies every EAV row through an audit filter that dropped none, a
//! `Lookup` stack joins a label nobody reads, and each tower level builds
//! a row per report. [`Executor::execute`](crate::exec::Executor::execute)
//! therefore runs [`prepare`]`(plan, db)` instead of `plan` — the same
//! table, the same schema, the same first error. The database is in hand,
//! so every rule resolves real schemas (the pass binds the whole plan
//! first, and a plan that does not bind runs as written: `compile` raises
//! the binding error before a row moves). Five rules act on it. The first
//! moves selections:
//!
//! * **Selection past join** — `σ_C(A ⋈ B) ≡ σ_C(A) ⋈ B`: each top-level
//!   `AND` conjunct of a `Select` directly over a `Join` whose columns one
//!   input owns moves onto that input (the right one under `Inner` only,
//!   through the `<right relation>.<col>` collision prefix), *only if every*
//!   conjunct is [`Expr::infallible`] and BOOL — a moved conjunct runs on
//!   rows the join would have dropped, and strict `AND` ran each conjunct
//!   on every row. Join order, build side and `on` stay as written.
//!
//! The result is bound again. Then, top-down, each node learns what its
//! consumer observes of it — which columns, and whether the relation name
//! and the NOT NULL flags reach anything — and four rules act on that:
//!
//! * **Liveness** — a `Project` output nobody reads is dropped, *only if*
//!   its expression is [`Expr::infallible`] over the resolved input (bound
//!   column, literal, `=`/`<>`/NULL tests, the `CASE` shapes `BoolEncode`
//!   and `NullSentinel` emit). Anything else stays and is evaluated, so a
//!   dead `100 / a` over a zero still fails; and `Pivot` keeps casting
//!   all its attributes — a malformed value under an unread one must
//!   still fail.
//! * **Fusion** — `π ∘ (ρ | σ)* ∘ π` becomes one projection (and the
//!   selections below it) by substituting the inner expressions through
//!   the renames, *only if* every inner expression is infallible:
//!   substitution drops inner outputs nobody reads and moves the others
//!   into `CASE` arms and below selections, where they run on fewer rows.
//!   A selection whose predicate names an unbound column stays where it
//!   is — the error it raises per row names the relation it looked in.
//! * **The identity projection under a pivot** disappears — the pivot
//!   addresses key, attribute and value by name — *only if* nothing above
//!   observes that the projection had made every column nullable. Without
//!   the row build, the scan's windows reach the pivot by reference.
//! * **The unread lookup join** — a `Left` join whose right side is a
//!   `Scan` of a table keyed by exactly the join's right columns, with no
//!   live right column — passes every left row through once, matched or
//!   padded: the left input stands in for it. `Inner` joins drop rows, a
//!   non-key join multiplies them, anything but a bare scan may raise.
//!   The same test (`keyed_lookup`) makes `compile` probe such a table's
//!   primary-key index where the join stays, and `explain` say so.
//!
//! Whatever a rule builds is re-bound and compared with the node as
//! written on exactly what its consumer observes; a difference (a `CASE`
//! over a substituted NULL literal unifies to another type) leaves the
//! subtree as written. The root observes everything, so the root schema —
//! names, types, nullability, key, relation name — is identical by
//! construction, and debug-asserted. The pass is O(plan nodes). It chooses
//! nothing: there is one plan per definition, as before (DESIGN.md §17) —
//! it only stops computing what the definition never asked for, and
//! filters a join's input instead of its output.
//! `tests/decode_parity.rs` holds it to the interpreter — on hand-built
//! fixtures, single faults in unread places included, and on random plans
//! biased so that every rule fires — and a resident
//! [`crate::delta::DeltaPlan`] keeps state for the prepared plan, not the
//! written one.
//!
//! It is the only plan rewriter: DESIGN.md §9 records why the older,
//! catalog-free rules went and what would bring one of them back.

use crate::algebra::{bind_node, keyless, AggFunc, JoinKind, Plan};
use crate::database::Database;
use crate::error::RelResult;
use crate::expr::{BinOp, Expr};
use crate::schema::{Column, Schema};
use crate::table::Table;
use crate::value::DataType;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

/// Substitute column references by the expressions a projection binds them
/// to. Callers must ensure every referenced column is bound (fusion leaves
/// a selection over an unbound name where it is, [`Prepare::project`]).
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

// ---------------------------------------------------------------------------
// What `Executor::execute` does before `compile`: liveness and fusion over
// resolved schemas.
// ---------------------------------------------------------------------------

/// The plan [`Executor::execute`](crate::exec::Executor::execute) runs in
/// place of `plan`: the same table, the same schema and the same first
/// error, computed without building what nobody reads (module docs, *The
/// executor's front door*). `None` means "run `plan` as written": some
/// node does not bind, so the executor's `compile` raises that binding
/// error before any row moves and there is nothing to save.
/// [`DeltaPlan::init`](crate::delta::DeltaPlan::init) runs the same pass,
/// so what stays resident is what the executor would run.
pub fn prepare(plan: &Plan, db: &Database) -> Option<Plan> {
    let mut bound = HashMap::new();
    let root = bind(plan, db, &mut bound).ok()?;
    // Selections move below the joins they sit on first (`push_selections`);
    // what that built is bound again, so every later rule sees it.
    let pushed = push_selections(plan, &bound);
    let plan = match &pushed {
        Some(pushed) => {
            bound.clear();
            bind(pushed, db, &mut bound).ok()?;
            pushed
        }
        None => plan,
    };
    let (prepared, schema) = Prepare { db, bound }.node(plan, &Need::everything());
    debug_assert_eq!(schema, root, "prepare changed the root schema of {plan:?}");
    Some(prepared)
}

/// The stored table a join's right side reads by primary key: `right` is
/// a bare `Scan` of a table whose primary key is exactly the join's right
/// columns, each bound by one pair of `on`. Returns the table and, per key
/// column in primary-key order, the position in `on` of its pair. One
/// decision behind three places: `prepare` drops such a `Left` join when
/// nobody reads its right side, `compile` probes the table's primary-key
/// index instead of hashing its rows, and `explain` prints which.
pub(crate) fn keyed_lookup<'d>(
    right: &Plan,
    on: &[(String, String)],
    db: &'d Database,
) -> Option<(&'d Table, Vec<usize>)> {
    let Plan::Scan(name) = right else {
        return None;
    };
    let table = db.table(name).ok()?;
    let schema = table.schema();
    let order = schema
        .primary_key()
        .iter()
        .map(|&k| {
            let mut pairs = (0..on.len()).filter(|&i| schema.index_of(&on[i].1) == Some(k));
            match (pairs.next(), pairs.next()) {
                (Some(i), None) => Some(i),
                _ => None,
            }
        })
        .collect::<Option<Vec<usize>>>()?;
    (!order.is_empty() && order.len() == on.len()).then_some((table, order))
}

/// Bound schemas of a plan's nodes, by address ([`bind`]).
type Bound = HashMap<*const Plan, Schema>;

/// *Selection past join*: `plan` with every `σ` that sits directly on a
/// `Join` split into its top-level `AND` conjuncts and each conjunct one
/// input owns moved onto that input ([`select_past_join`]) — or `None`
/// where no selection moves. Only the nodes on the way to a moved
/// selection are rebuilt.
fn push_selections(plan: &Plan, bound: &Bound) -> Option<Plan> {
    if let Plan::Select { input, predicate } = plan {
        if let Some(pushed) = select_past_join(input, predicate, bound) {
            return Some(pushed);
        }
    }
    let children: Vec<Option<Plan>> = plan
        .children()
        .into_iter()
        .map(|c| push_selections(c, bound))
        .collect();
    if children.iter().all(Option::is_none) {
        return None;
    }
    // `map_children` visits the children in `children()` order.
    let children = RefCell::new(children.into_iter());
    Some(map_children(plan, &|c| {
        children
            .borrow_mut()
            .next()
            .flatten()
            .unwrap_or_else(|| c.clone())
    }))
}

/// `σ_predicate(join)` with the conjuncts one input owns on that input:
/// σ_C(A ⋈ B) ≡ σ_C(A) ⋈ B. Left-owned conjuncts go left under `Inner`
/// and `Left` joins; right-owned ones go right under `Inner` only (`Left`
/// pads unmatched rows with NULLs), their names mapped back through the
/// `<right relation>.<col>` collision prefix; the rest stay above, in
/// their written order. Join order, build side and `on` stay as written.
///
/// Only when *every* conjunct is [`Expr::infallible`] and BOOL over the
/// join's output: a moved conjunct runs on rows the join would have
/// dropped, and one that stays above no longer runs on the rows a moved
/// one rejects — strict `AND` evaluated both. Then nothing the predicate
/// evaluates can fail, the join raises nothing, and filtering an input
/// keeps its surviving rows in order, so the rows, their order, the schema
/// and the first error are those of the plan as written.
fn select_past_join(join: &Plan, predicate: &Expr, bound: &Bound) -> Option<Plan> {
    let Plan::Join {
        left,
        right,
        on,
        kind,
    } = join
    else {
        return None;
    };
    let schema = &bound[&(join as *const Plan)];
    let mut conjuncts = Vec::new();
    split_conjuncts(predicate, &mut conjuncts);
    if !conjuncts
        .iter()
        .all(|c| c.infallible(schema) && c.infer_type(schema).is_ok_and(|t| t == DataType::Bool))
    {
        return None;
    }
    let split = bound[&(&**left as *const Plan)].arity();
    let rs = &bound[&(&**right as *const Plan)];
    let (mut to_left, mut to_right, mut above) = (Vec::new(), Vec::new(), Vec::new());
    for c in conjuncts {
        let at: Vec<usize> = c
            .referenced_columns()
            .into_iter()
            .filter_map(|n| schema.index_of(n))
            .collect();
        if at.iter().all(|&i| i < split) {
            to_left.push(c.clone());
        } else if *kind == JoinKind::Inner && at.iter().all(|&i| i >= split) {
            to_right.push(c.map_columns(&|n| match schema.index_of(n) {
                Some(i) => rs.columns()[i - split].name.clone(),
                None => n.to_owned(),
            }));
        } else {
            above.push(c.clone());
        }
    }
    if to_left.is_empty() && to_right.is_empty() {
        return None;
    }
    // Each input under what it now owns, moved further where the input is
    // itself a join. Only nodes of the bound plan are looked into.
    let below = |input: &Plan| push_selections(input, bound).unwrap_or_else(|| input.clone());
    let side = |input: &Plan, owned: Vec<Expr>| match conjunction(owned) {
        Some(predicate) => {
            select_past_join(input, &predicate, bound).unwrap_or_else(|| Plan::Select {
                input: Box::new(below(input)),
                predicate,
            })
        }
        None => below(input),
    };
    let join = Plan::Join {
        left: Box::new(side(left, to_left)),
        right: Box::new(side(right, to_right)),
        on: on.clone(),
        kind: *kind,
    };
    Some(match conjunction(above) {
        Some(predicate) => join.select(predicate),
        None => join,
    })
}

/// The top-level `AND` operands of `e`, left to right.
fn split_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Bin(BinOp::And, a, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// The conjuncts `AND`ed left to right; `None` for none.
fn conjunction(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts.into_iter().reduce(Expr::and)
}

/// Bind every node of `plan` children-first — the order the executor's
/// `compile` reports binding errors in — recording each node's output
/// schema under its address. The addresses are only ever compared, and
/// `plan` outlives the map.
fn bind(plan: &Plan, db: &Database, bound: &mut Bound) -> RelResult<Schema> {
    let inputs = plan
        .children()
        .into_iter()
        .map(|c| bind(c, db, bound))
        .collect::<RelResult<Vec<Schema>>>()?;
    let schema = bind_node(plan, &inputs, db)?;
    bound.insert(plan, schema.clone());
    Ok(schema)
}

/// What the consumer of a subplan observes of its output schema. A
/// rewrite below may change everything else.
struct Need {
    /// The columns read, by output name; `None` is the whole column list,
    /// in order.
    cols: Option<BTreeSet<String>>,
    /// Is the relation's name observed? Not below a table `Rename`.
    name: bool,
    /// Are the columns' NOT NULL flags observed? Not below a `Project`,
    /// whose output columns are all nullable.
    nullability: bool,
    /// The consumer is a `Pivot`, which reads its input rows in place and
    /// addresses them by name: an identity `Project` on top of this
    /// subplan only copies rows to be dropped.
    pivot_input: bool,
}

impl Need {
    fn everything() -> Need {
        Need {
            cols: None,
            name: true,
            nullability: true,
            pivot_input: false,
        }
    }

    fn reads(&self, column: &str) -> bool {
        self.cols.as_ref().is_none_or(|c| c.contains(column))
    }

    /// This need, as a consumer that passes its input's schema through
    /// and reads `more` of it itself (`Select`, `Sort`, `Limit`).
    fn through<'a>(&self, more: impl IntoIterator<Item = &'a str>) -> Need {
        Need {
            cols: self.cols.as_ref().map(|c| {
                let more = more.into_iter().map(str::to_owned);
                c.iter().cloned().chain(more).collect()
            }),
            pivot_input: false,
            ..*self
        }
    }

    /// Does `new` look to this consumer exactly like `old`?
    fn satisfied_by(&self, new: &Schema, old: &Schema) -> bool {
        let same = |a: &Column, b: &Column| {
            a.name == b.name
                && a.data_type == b.data_type
                && (!self.nullability || a.nullable == b.nullable)
        };
        (!self.name || new.name == old.name)
            && match &self.cols {
                None if self.name && self.nullability => new == old,
                None => {
                    new.arity() == old.arity()
                        && new
                            .columns()
                            .iter()
                            .zip(old.columns())
                            .all(|(a, b)| same(a, b))
                }
                Some(cols) => cols.iter().all(
                    |c| matches!((new.column(c), old.column(c)), (Ok(a), Ok(b)) if same(a, b)),
                ),
            }
    }
}

/// A projection's expressions under the names its outputs go by.
fn bound_as<'a>(names: &[&'a str], columns: &'a [(String, Expr)]) -> BTreeMap<&'a str, &'a Expr> {
    names
        .iter()
        .copied()
        .zip(columns.iter().map(|(_, e)| e))
        .collect()
}

/// One step of the rewrite at a node.
enum Step {
    /// No rule applies (or none may): the subtree stays exactly as written.
    AsWritten,
    /// The same operator over rewritten inputs (with their schemas).
    Node(Plan, Vec<Schema>),
    /// The operator is gone; its rewritten input stands in for it.
    Replaced(Plan, Schema),
}

struct Prepare<'p> {
    db: &'p Database,
    /// Every node of the plan, bound ([`bind`]).
    bound: Bound,
}

impl Prepare<'_> {
    /// Output schema of a node of the plan being prepared.
    fn schema(&self, plan: &Plan) -> &Schema {
        &self.bound[&(plan as *const Plan)]
    }

    /// Rewrite `plan` for a consumer that observes `need` of it, and
    /// return the result with its schema. Every rule resolves real
    /// schemas, and whatever it builds is re-bound and compared with the
    /// schema as written on exactly what the consumer observes: a rule
    /// that would change a type (`CASE` over a substituted NULL literal
    /// unifies differently) or cannot bind leaves the subtree as written.
    fn node(&self, plan: &Plan, need: &Need) -> (Plan, Schema) {
        let old = self.schema(plan);
        let rewritten = match self.step(plan, need) {
            Step::AsWritten => None,
            Step::Node(node, inputs) => bind_node(&node, &inputs, self.db)
                .ok()
                .map(|schema| (node, schema)),
            Step::Replaced(node, schema) => Some((node, schema)),
        };
        match rewritten {
            Some((node, schema)) if need.satisfied_by(&schema, old) => (node, schema),
            _ => (plan.clone(), old.clone()),
        }
    }

    fn step(&self, plan: &Plan, need: &Need) -> Step {
        // A consumer that is not named below observes its inputs whole:
        // `Distinct` and `Unpivot` read every column, `Union` is positional,
        // and narrowing one side of a `Join` would change which right-hand
        // names collide.
        let whole = Need::everything();
        match plan {
            Plan::Scan(_) | Plan::Values { .. } => Step::AsWritten,
            Plan::Select { input, predicate } => {
                let refs = predicate.referenced_columns();
                // An unbound name only fails when a row reaches it, and the
                // error it raises names the input relation: leave it alone.
                if refs
                    .iter()
                    .any(|c| self.schema(input).index_of(c).is_none())
                {
                    return Step::AsWritten;
                }
                let (input, schema) = self.node(input, &need.through(refs));
                let predicate = predicate.clone();
                Step::Node(
                    Plan::Select {
                        input: Box::new(input),
                        predicate,
                    },
                    vec![schema],
                )
            }
            Plan::Project { input, columns } => self.project(input, columns, need),
            Plan::Rename {
                input,
                table,
                columns,
            } => {
                let source = |n: &String| match columns.iter().find(|(_, to)| to == n) {
                    Some((from, _)) => from.clone(),
                    None => n.clone(),
                };
                let below = Need {
                    cols: need.cols.as_ref().map(|c| c.iter().map(source).collect()),
                    name: need.name && table.is_none(),
                    ..*need
                };
                let (input, schema) = self.node(input, &below);
                // A pair whose source the input no longer produces renamed
                // a column nobody reads.
                let columns = columns
                    .iter()
                    .filter(|(from, _)| schema.index_of(from).is_some())
                    .cloned()
                    .collect();
                let table = table.clone();
                Step::Node(
                    Plan::Rename {
                        input: Box::new(input),
                        table,
                        columns,
                    },
                    vec![schema],
                )
            }
            Plan::Join {
                left,
                right,
                on,
                kind,
            } => {
                if *kind == JoinKind::Left {
                    if let Some(left_only) = self.eliminated_join(plan, left, right, on, need) {
                        return left_only;
                    }
                }
                let (left, ls) = self.node(left, &whole);
                let (right, rs) = self.node(right, &whole);
                let node = Plan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    on: on.clone(),
                    kind: *kind,
                };
                Step::Node(node, vec![ls, rs])
            }
            Plan::Pivot {
                input,
                keys,
                attr_col,
                val_col,
                ..
            } => {
                let reads = keys.iter().chain([attr_col, val_col]).cloned().collect();
                let below = Need {
                    cols: Some(reads),
                    pivot_input: true,
                    ..*need
                };
                self.unary(plan, input, &below)
            }
            Plan::AggregateBy {
                input,
                group_by,
                aggregates,
            } => {
                let sources = aggregates.iter().filter_map(|a| match &a.func {
                    AggFunc::CountAll => None,
                    AggFunc::Count(c)
                    | AggFunc::Sum(c)
                    | AggFunc::Avg(c)
                    | AggFunc::Min(c)
                    | AggFunc::Max(c) => Some(c),
                });
                let reads = group_by.iter().chain(sources).cloned().collect();
                let below = Need {
                    cols: Some(reads),
                    pivot_input: false,
                    ..*need
                };
                self.unary(plan, input, &below)
            }
            Plan::Sort { input, by } => {
                self.unary(plan, input, &need.through(by.iter().map(String::as_str)))
            }
            Plan::Limit { input, .. } => self.unary(plan, input, &need.through([])),
            Plan::Distinct { input } | Plan::Unpivot { input, .. } => {
                self.unary(plan, input, &whole)
            }
            Plan::Union { inputs } => {
                let (inputs, schemas) = inputs.iter().map(|p| self.node(p, &whole)).unzip();
                Step::Node(Plan::Union { inputs }, schemas)
            }
        }
    }

    /// `plan` — a one-input operator that reads its input by name — over
    /// its input rewritten for `below`.
    fn unary(&self, plan: &Plan, input: &Plan, below: &Need) -> Step {
        let (input, schema) = self.node(input, below);
        let input = Cell::new(Some(input));
        let node = map_children(plan, &|_| input.take().expect("a one-input operator"));
        Step::Node(node, vec![schema])
    }

    /// Liveness and fusion at a `Project`.
    ///
    /// *Liveness.* An output nobody reads is dropped only if its
    /// expression is [`Expr::infallible`] over the input as written;
    /// anything else stays and is evaluated, so the error it may raise
    /// still surfaces.
    ///
    /// *An identity projection under a `Pivot`* disappears: what is left
    /// are `name → name` columns the pivot addresses by name anyway, and
    /// without the row build between them the scan's windows reach the
    /// pivot by reference. Only where nothing above observes that the
    /// projection made every column nullable.
    ///
    /// *Fusion.* `π_outer ∘ (ρ | σ)* ∘ π_inner` becomes one projection
    /// over the selections by substituting the inner expressions through
    /// the renames — only when every inner expression is infallible,
    /// because substitution drops the inner outputs nobody reads and moves
    /// the others into `CASE` arms and below the selections, where they
    /// are evaluated on fewer rows. Column renames are substituted away;
    /// the topmost table rename stays, below the fused projection, so the
    /// relation keeps its name. Repeats down the tower.
    fn project(&self, input: &Plan, columns: &[(String, Expr)], need: &Need) -> Step {
        let written = self.schema(input);
        let mut cols: Vec<(String, Expr)> = columns
            .iter()
            .filter(|(alias, e)| need.reads(alias) || !e.infallible(written))
            .cloned()
            .collect();
        if cols.is_empty() {
            // A consumer that reads no column still counts the rows.
            cols.extend(columns.first().cloned());
        }
        let identity = cols.iter().all(
            |(alias, e)| matches!(e, Expr::Col(c) if c == alias && written.index_of(c).is_some()),
        );
        if need.pivot_input && !need.nullability && identity {
            let (input, schema) = self.node(input, need);
            return Step::Replaced(input, schema);
        }

        let mut input = input;
        let mut table = None;
        // Selections passed on the way down, over `input`'s names, lowest first.
        let mut selects: Vec<Expr> = Vec::new();
        'tower: loop {
            // What lies between this projection and the next one down and
            // builds no row, top first.
            let mut free = Vec::new();
            let mut below = input;
            while let Plan::Rename { input, .. } | Plan::Select { input, .. } = below {
                free.push(below);
                below = input;
            }
            let Plan::Project {
                input: inner_input,
                columns: inner,
            } = below
            else {
                break;
            };
            let inner_schema = self.schema(inner_input);
            if !inner.iter().all(|(_, e)| e.infallible(inner_schema)) {
                break;
            }
            // The inner outputs under the names each level above them sees.
            let mut names: Vec<&str> = inner.iter().map(|(alias, _)| alias.as_str()).collect();
            let mut passed = Vec::new();
            for level in free.iter().rev() {
                match level {
                    Plan::Rename { columns: pairs, .. } => {
                        let before = names.clone();
                        for (from, to) in pairs {
                            if let Some(i) = before.iter().position(|n| n == from) {
                                names[i] = to;
                            }
                        }
                    }
                    Plan::Select { predicate, .. } => {
                        let bindings = bound_as(&names, inner);
                        // An unbound name raises, per row, an error naming
                        // the relation it was not found in: it stays there.
                        if predicate
                            .referenced_columns()
                            .iter()
                            .any(|c| !bindings.contains_key(c))
                        {
                            break 'tower;
                        }
                        passed.push(substitute(predicate, &bindings));
                    }
                    _ => unreachable!("only renames and selections were collected"),
                }
            }
            let bindings = bound_as(&names, inner);
            passed.extend(selects.iter().map(|p| substitute(p, &bindings)));
            selects = passed;
            for (_, e) in &mut cols {
                *e = substitute(e, &bindings);
            }
            table = table.or_else(|| {
                free.iter().find_map(|level| match level {
                    Plan::Rename { table, .. } => table.clone(),
                    _ => None,
                })
            });
            input = inner_input;
        }

        let reads = cols
            .iter()
            .map(|(_, e)| e)
            .chain(&selects)
            .flat_map(Expr::referenced_columns)
            .map(str::to_owned)
            .collect();
        let below = Need {
            cols: Some(reads),
            name: need.name && table.is_none(),
            nullability: false,
            pivot_input: false,
        };
        let (mut input, mut schema) = self.node(input, &below);
        for predicate in selects {
            input = Plan::Select {
                input: Box::new(input),
                predicate,
            };
            schema = keyless(schema);
        }
        if table.as_ref().is_some_and(|t| *t != schema.name) {
            input = Plan::Rename {
                input: Box::new(input),
                table,
                columns: Vec::new(),
            };
            match bind_node(&input, &[schema], self.db) {
                Ok(renamed) => schema = renamed,
                Err(_) => return Step::AsWritten,
            }
        }
        Step::Node(
            Plan::Project {
                input: Box::new(input),
                columns: cols,
            },
            vec![schema],
        )
    }

    /// A `Left` join nobody reads the right side of, against a stored
    /// table keyed by exactly the join's right columns, passes every left
    /// row through once — matched or padded — so the left input stands in
    /// for it (under the join's relation name, where that is observed).
    /// The right side must be a bare `Scan` ([`keyed_lookup`]): it bound,
    /// so the table exists and reading it raises nothing.
    fn eliminated_join(
        &self,
        join: &Plan,
        left: &Plan,
        right: &Plan,
        on: &[(String, String)],
        need: &Need,
    ) -> Option<Step> {
        let ls = self.schema(left);
        let reads = need.cols.as_ref()?;
        let sound = keyed_lookup(right, on, self.db).is_some()
            && reads.iter().all(|c| ls.index_of(c).is_some());
        sound.then(|| {
            let (left, schema) = self.node(
                left,
                &Need {
                    name: false,
                    ..need.through([])
                },
            );
            if !need.name {
                return Step::Replaced(left, schema);
            }
            let table = Some(self.schema(join).name.clone());
            Step::Node(
                Plan::Rename {
                    input: Box::new(left),
                    table,
                    columns: Vec::new(),
                },
                vec![schema],
            )
        })
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

    /// `prepare(plan)` evaluates exactly like `plan` as written under the
    /// interpreter: table, schema, or error.
    fn assert_prepared_equivalent(plan: &Plan, d: &Database) -> Plan {
        let prepared = prepare(plan, d).expect("binds");
        match (prepared.eval_materialized(d), plan.eval_materialized(d)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.schema(), b.schema(), "{plan:?}");
                assert_eq!(a, b, "{plan:?}");
            }
            (a, b) => assert_eq!(a.err(), b.err(), "{plan:?}"),
        }
        prepared
    }

    #[test]
    fn prepare_leaves_only_unbound_plans_alone() {
        let d = db();
        // An inline relation binds like a scan and is prepared like one.
        let values = Plan::Values {
            schema: Schema::new("v", vec![Column::new("x", DataType::Int)]).unwrap(),
            rows: vec![vec![Value::Int(1)]],
        };
        assert_prepared_equivalent(&values.project_cols(&["x"]), &d);
        // A binding error anywhere: `compile` will raise it, as written.
        let unbound = Plan::scan("t")
            .project(vec![("g", Expr::col("ghost"))])
            .project_cols(&["g"]);
        assert_eq!(prepare(&unbound, &d), None);
        assert_eq!(prepare(&Plan::scan("nope").project_cols(&["x"]), &d), None);
    }

    #[test]
    fn prepare_fuses_a_decode_tower_into_one_projection_over_the_filter() {
        let d = db();
        // Audit-style filter, a whole-table projection, renames with a
        // table rename among them, a BoolEncode-style CASE, then the two
        // columns the query asked for.
        let decode = Expr::Case {
            arms: vec![(Expr::col("flag").eq(Expr::lit(true)), Expr::lit("Y"))],
            default: Box::new(Expr::Lit(Value::Null)),
        };
        let p = Plan::scan("t")
            .project_cols(&["id", "x", "b"])
            .rename_table("phys")
            .rename_columns(vec![("b", "flag")])
            .select(Expr::col("x").is_not_null())
            .project(vec![
                ("id", Expr::col("id")),
                ("x", Expr::col("x")),
                ("yn", decode),
            ])
            .project_cols(&["id", "yn"]);
        let prepared = assert_prepared_equivalent(&p, &d);
        let Plan::Project { input, columns } = &prepared else {
            panic!("{prepared:?}")
        };
        assert_eq!(columns.len(), 2);
        let Plan::Rename {
            input,
            table,
            columns,
        } = &**input
        else {
            panic!("{prepared:?}")
        };
        assert_eq!((table.as_deref(), columns.len()), (Some("phys"), 0));
        let Plan::Select { input, predicate } = &**input else {
            panic!("{prepared:?}")
        };
        assert_eq!(*predicate, Expr::col("x").is_not_null());
        assert_eq!(**input, Plan::scan("t"));
    }

    #[test]
    fn prepare_keeps_what_could_fail() {
        let d = db();
        // x is NULL on every fifth row, never zero: no fault — but the
        // judgement is static, so the dead division stays and is evaluated.
        let dead_div = Plan::scan("t")
            .project(vec![
                ("id", Expr::col("id")),
                ("q", Expr::lit(1i64).div(Expr::col("x"))),
            ])
            .project_cols(&["id"]);
        assert_eq!(assert_prepared_equivalent(&dead_div, &d), dead_div);
        // A fallible inner expression is not substituted into a CASE arm,
        // where it would run on fewer rows.
        let lazy = Plan::scan("t")
            .project(vec![
                ("b", Expr::col("b")),
                (
                    "q",
                    Expr::lit(1i64).div(Expr::col("x").sub(Expr::lit(3i64))),
                ),
            ])
            .project(vec![(
                "r",
                Expr::Case {
                    arms: vec![(Expr::col("b"), Expr::col("q"))],
                    default: Box::new(Expr::lit(0.0)),
                },
            )]);
        assert!(lazy.eval_materialized(&d).is_err(), "x = 3 divides by zero");
        assert_eq!(assert_prepared_equivalent(&lazy, &d), lazy);
        // A predicate on an unbound name fails per row, naming its input.
        let ghost = Plan::scan("t")
            .project_cols(&["id", "x"])
            .select(Expr::col("ghost").is_null())
            .project_cols(&["id"]);
        assert!(ghost.eval_materialized(&d).is_err());
        assert_prepared_equivalent(&ghost, &d);
        // Substituting a NULL literal would re-type the CASE: left alone.
        let retyped = Plan::scan("t")
            .project(vec![("id", Expr::col("id")), ("n", Expr::Lit(Value::Null))])
            .project(vec![(
                "c",
                Expr::Case {
                    arms: vec![(Expr::col("id").eq(Expr::lit(1i64)), Expr::col("n"))],
                    default: Box::new(Expr::col("id")),
                },
            )]);
        assert_prepared_equivalent(&retyped, &d);
    }

    #[test]
    fn prepare_reads_through_pivot_aggregate_and_sort() {
        use crate::algebra::{AggFunc, Aggregate};
        let d = db();
        let wide = Plan::scan("t").project(vec![
            ("id", Expr::col("id")),
            ("x", Expr::col("x")),
            ("b", Expr::col("b")),
            ("twice", Expr::col("x").mul(Expr::lit(2i64))),
        ]);
        let agg = wide.clone().sort_by(&["x"]).limit(15).aggregate(
            &["b"],
            vec![Aggregate {
                func: AggFunc::Max("x".into()),
                alias: "hi".into(),
            }],
        );
        let prepared = assert_prepared_equivalent(&agg, &d);
        // `id` is dead and infallible; the multiplication is dead but stays.
        let mut node = &prepared;
        while let Some(below) = node.children().first() {
            if let Plan::Project { columns, .. } = node {
                let names: Vec<&str> = columns.iter().map(|(a, _)| a.as_str()).collect();
                assert_eq!(names, ["x", "b", "twice"]);
            }
            node = below;
        }
        // An identity projection under a pivot goes; the pivot's key keeps
        // its place in the output.
        let eav = Plan::Unpivot {
            input: Box::new(Plan::scan("t")),
            keys: vec!["id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
        };
        let pivot = Plan::Pivot {
            input: Box::new(eav.project_cols(&["id", "attr", "val"])),
            keys: vec!["id".into()],
            attr_col: "attr".into(),
            val_col: "val".into(),
            attrs: vec![("x".into(), DataType::Int), ("b".into(), DataType::Bool)],
        };
        // At the root the pivot's key nullability is observed: it stays.
        assert_eq!(assert_prepared_equivalent(&pivot, &d), pivot);
        let read = pivot.project_cols(&["id", "b"]);
        let prepared = assert_prepared_equivalent(&read, &d);
        let Plan::Project { input, .. } = &prepared else {
            panic!("{prepared:?}")
        };
        let Plan::Pivot { input, .. } = &**input else {
            panic!("{prepared:?}")
        };
        assert!(matches!(**input, Plan::Unpivot { .. }), "{prepared:?}");
    }
}
