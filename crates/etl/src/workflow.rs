//! The ETL workflow model.
//!
//! "MultiClass uses the specifications set out by the analyst to create an
//! ETL workflow that is tailored to a specific study. Thus, we can leverage
//! existing ETL" (Section 3). A workflow is a sequence of *stages*; each
//! stage runs components that execute a query over one database and load
//! the result into another — exactly Figure 6's "sequence of three ETL
//! components, each executing a query over the previous one's results",
//! with temporary databases in between.
//!
//! The components of a stage are evaluated one after another, each
//! against the catalog as it stood before the stage; how a component's
//! plan uses the machine is the [`Executor`]'s business, and nothing here
//! spawns a thread.
//!
//! A component's output is a persistent [`Table`] that exists once.
//! [`EtlWorkflow::run_incremental`] keeps a resident [`DeltaPlan`] per
//! component; a refresh moves the plan's cached output by the patch the
//! operators emitted ([`Table::patch`] — new chunks for the delta's
//! rows, everything else shared with the previous generation) and lands
//! *that table* under the target's name, so landing costs O(delta) like
//! the refresh before it, and the plan's cache and the catalog's target
//! are one storage ([`Table::same_storage`]). Whether an input moved is
//! the plan's own question: each of its scans holds the table it last
//! read, so a component whose inputs did not move refreshes to
//! [`Change::Unchanged`] and lands the same storage again. The wholesale
//! path ([`EtlWorkflow::run_on`], and what every fault re-derives its
//! error through) lands the executor's result the same way: renamed, not
//! copied.

use guava_relational::algebra::Plan;
use guava_relational::database::{Catalog, Database};
use guava_relational::delta::{Change, DeltaPlan, DeltaSet, TableChanges};
use guava_relational::error::{RelError, RelResult};
use guava_relational::exec::Executor;
use guava_relational::table::Table;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One ETL component: evaluate `plan` against `source_db`, store the result
/// as `target_table` in `target_db` (created on demand).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EtlComponent {
    pub name: String,
    pub source_db: String,
    pub plan: Plan,
    pub target_db: String,
    pub target_table: String,
}

/// A named stage grouping components that may run in any order (they read
/// only earlier stages' outputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EtlStage {
    pub name: String,
    pub components: Vec<EtlComponent>,
}

/// A complete workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EtlWorkflow {
    pub name: String,
    pub stages: Vec<EtlStage>,
}

/// Execution metrics, one entry per component (used by the benchmarks).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentRun {
    pub component: String,
    pub rows_out: usize,
}

impl EtlWorkflow {
    /// Run the workflow against a catalog that already holds the source
    /// (contributor) databases. Temporary/target databases are created on
    /// demand; the catalog is mutated in place. Returns per-component row
    /// counts.
    ///
    /// Components within a stage are order-independent — they read only
    /// earlier stages' outputs — so each stage evaluates its components in
    /// declaration order against the *pre-stage* catalog, stopping at the
    /// first failure. Loads are then applied in declaration order, so a
    /// failing component aborts the run with the loads declared before it
    /// applied (DESIGN.md §10).
    pub fn run(&self, catalog: &mut Catalog) -> RelResult<Vec<ComponentRun>> {
        self.run_on(catalog, &Executor::new())
    }

    /// [`run`](Self::run) with an explicit [`Executor`] threaded through
    /// every component's plan evaluation.
    pub fn run_on(&self, catalog: &mut Catalog, exec: &Executor) -> RelResult<Vec<ComponentRun>> {
        let mut runs = Vec::new();
        for stage in &self.stages {
            let results = eval_stage(stage, |comp| run_component(comp, catalog, exec));
            // Outputs land as they are: a later stage's scan seals what it
            // meets, and images only the columns its lanes read.
            for (comp, result) in stage.components.iter().zip(results) {
                runs.push(load(catalog, comp, result?)?);
            }
        }
        Ok(runs)
    }

    /// Incremental re-execution: like [`run_on`](Self::run_on), but every
    /// component refreshes differentially through a cached [`DeltaPlan`]
    /// instead of recomputing from scratch — one whose inputs did not
    /// change refreshes to [`Change::Unchanged`] and lands its cached
    /// output again.
    ///
    /// `deltas` describes the base-table changes since the previous call
    /// (from [`guava_relational::delta::DeltaCatalog::take_deltas`]);
    /// changes to intermediate tables are threaded from component to
    /// component automatically. An input with neither is left to the
    /// plan: unchanged only when it is the very storage its scan last read
    /// ([`Table::same_storage`]), read whole otherwise — so an out-of-band
    /// mutation can never slip through and break the byte-identical
    /// guarantee.
    ///
    /// The catalog ends up byte-identical to what [`run_on`](Self::run_on)
    /// produces on the same state — same tables, same row order, same
    /// [`ComponentRun`]s, and on failure the same first error with the
    /// same earlier-stage loads applied. A first call with an empty cache
    /// behaves exactly like `run_on` and populates the cache.
    ///
    /// A failed run spends its `deltas` all the same, and only the
    /// components that landed took them (or what their upstream made of
    /// them) in. The cache forgets every other component — the one that
    /// failed included — so none of them ever patches a state it did not
    /// see; they recompute from the catalog on the next run.
    pub fn run_incremental(
        &self,
        catalog: &mut Catalog,
        deltas: &DeltaSet,
        cache: &mut WorkflowCache,
        exec: &Executor,
    ) -> RelResult<Vec<ComponentRun>> {
        let mut runs = Vec::new();
        let outcome = self.refresh_stages(catalog, deltas, cache, exec, &mut runs);
        if outcome.is_err() {
            cache
                .entries
                .retain(|name, _| runs.iter().any(|r| r.component == *name));
        }
        outcome.map(|()| runs)
    }

    /// The stages of [`run_incremental`](Self::run_incremental), pushing a
    /// [`ComponentRun`] onto `runs` for every component as it lands.
    fn refresh_stages(
        &self,
        catalog: &mut Catalog,
        deltas: &DeltaSet,
        cache: &mut WorkflowCache,
        exec: &Executor,
        runs: &mut Vec<ComponentRun>,
    ) -> RelResult<()> {
        // Changes to target tables produced earlier in THIS run, visible to
        // later stages only — within a stage every component evaluates
        // against the pre-stage catalog, exactly like `run_on`.
        let mut produced: HashMap<(String, String), Change> = HashMap::new();
        for stage in &self.stages {
            let results = eval_stage(stage, |comp| {
                run_component_incremental(comp, catalog, deltas, &produced, cache, exec)
            });
            // Apply loads in declaration order; the first failing component
            // aborts with earlier loads applied, mirroring `run_on`.
            let mut stage_produced = Vec::new();
            for (comp, result) in stage.components.iter().zip(results) {
                let (table, change) = result?;
                runs.push(load(catalog, comp, table)?);
                stage_produced.push(((comp.target_db.clone(), comp.target_table.clone()), change));
            }
            produced.extend(stage_produced);
        }
        Ok(())
    }

    /// Total component count (workflow complexity measure).
    pub fn component_count(&self) -> usize {
        self.stages.iter().map(|s| s.components.len()).sum()
    }

    /// Pretty print the workflow shape — the Figure 6 diagram as text.
    pub fn render(&self) -> String {
        let mut out = format!("ETL workflow `{}`\n", self.name);
        for (i, stage) in self.stages.iter().enumerate() {
            out.push_str(&format!("  Stage {}: {}\n", i + 1, stage.name));
            for c in &stage.components {
                out.push_str(&format!(
                    "    [{}] {} -> {}.{}\n",
                    c.name, c.source_db, c.target_db, c.target_table
                ));
            }
        }
        out
    }
}

/// Evaluate the components of one stage with `eval`, in declaration order,
/// against the pre-stage catalog (loading is the caller's next step).
/// Stops at the first failure: later components are never loaded anyway.
fn eval_stage<T>(
    stage: &EtlStage,
    mut eval: impl FnMut(&EtlComponent) -> RelResult<T>,
) -> Vec<RelResult<T>> {
    let mut results = Vec::with_capacity(stage.components.len());
    for comp in &stage.components {
        let r = eval(comp);
        let failed = r.is_err();
        results.push(r);
        if failed {
            break;
        }
    }
    results
}

/// Land one component's output as its target table (the target database
/// is created on demand).
fn load(catalog: &mut Catalog, comp: &EtlComponent, table: Table) -> RelResult<ComponentRun> {
    if catalog.database(&comp.target_db).is_err() {
        catalog.insert(Database::new(comp.target_db.clone()));
    }
    let target = catalog.database_mut(&comp.target_db)?;
    target.put_table(table);
    Ok(ComponentRun {
        component: comp.name.clone(),
        rows_out: target.table(&comp.target_table)?.len(),
    })
}

/// The database `comp` reads.
fn source<'c>(comp: &EtlComponent, catalog: &'c Catalog) -> RelResult<&'c Database> {
    catalog.database(&comp.source_db).map_err(|_| {
        RelError::Plan(format!(
            "component `{}` reads missing database `{}`",
            comp.name, comp.source_db
        ))
    })
}

/// One component: evaluate its plan over the source database and rename the
/// result to the target table. Pure with respect to the catalog — loading
/// is the caller's job, which is what lets a stage read the pre-stage state.
fn run_component(comp: &EtlComponent, catalog: &Catalog, exec: &Executor) -> RelResult<Table> {
    // Every executor operator validates its own output wherever
    // validation can fail, so the result lands under the target's name
    // as it is — sharing its storage, not re-checked row by row.
    let table = exec
        .execute(&comp.plan, source(comp, catalog)?)?
        .renamed(comp.target_table.clone());
    // A result equal to the target it would replace *is* that target: a
    // re-run that changed nothing keeps the storage, the seals and every
    // `same_storage` fast path downstream, and the two never coexist.
    let standing = catalog
        .database(&comp.target_db)
        .and_then(|db| db.table(&comp.target_table));
    Ok(match standing {
        Ok(old) if *old == table => old.clone(),
        _ => table,
    })
}

/// Per-workflow cache backing [`EtlWorkflow::run_incremental`]: one entry
/// per component name, holding the component definition it was built for
/// and the component's resident [`DeltaPlan`]. The plan's scans know what
/// they last read and its cached output is the landed target, so an entry
/// costs the operators' state and no second copy of any table.
///
/// An entry whose stored component definition no longer matches the
/// workflow (plan edited, source renamed) is treated as a miss and rebuilt
/// from scratch. `Clone` is cheap-ish — tables share their row storage via
/// `Arc`.
#[derive(Default, Clone)]
pub struct WorkflowCache {
    entries: HashMap<String, ComponentCache>,
}

impl WorkflowCache {
    /// Fresh, empty cache. The first `run_incremental` with an empty cache
    /// computes everything from scratch (equivalent to `run_on`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached components.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no component has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `component`'s resident differential plan, once it has run. Its
    /// output shares its storage ([`Table::same_storage`]) with the
    /// component's target in the catalog.
    pub fn plan(&self, component: &str) -> Option<&DeltaPlan> {
        self.entries.get(component).map(|e| &e.dplan)
    }
}

#[derive(Clone)]
struct ComponentCache {
    /// The component definition this entry was built for; a mismatch on
    /// lookup invalidates the entry.
    component: EtlComponent,
    dplan: DeltaPlan,
}

/// Incremental counterpart of [`run_component`]: returns the renamed output
/// table plus the [`Change`] describing how it differs from the cached run
/// (threaded to downstream components that scan this target table).
fn run_component_incremental(
    comp: &EtlComponent,
    catalog: &Catalog,
    deltas: &DeltaSet,
    produced: &HashMap<(String, String), Change>,
    cache: &mut WorkflowCache,
    exec: &Executor,
) -> RelResult<(Table, Change)> {
    let source = source(comp, catalog)?;
    // Claim what is known: recorded deltas (base tables) and changes
    // produced by earlier stages of this run. An input with neither is
    // left to the plan's scan, which compares it with what it last read.
    let mut changes = TableChanges::new();
    for t in comp.plan.scanned_tables() {
        let recorded = deltas
            .get(&comp.source_db, t)
            .map(|d| d.to_change())
            .or_else(|| {
                produced
                    .get(&(comp.source_db.clone(), t.to_owned()))
                    .cloned()
            });
        if let Some(c) = recorded {
            changes.set(t, c);
        }
    }

    match cache.entries.get_mut(&comp.name) {
        // The refresh moves the plan's cached output by the change it
        // returns — O(delta), validated like a rebuild's `from_rows`, and
        // nothing at all when no input moved — and the target is that same
        // table under its own name.
        Some(entry) if entry.component == *comp => {
            match entry.dplan.refresh(source, &changes, exec) {
                Ok(change) => Ok((land(comp, &entry.dplan)?, change)),
                // Whatever went wrong, on whichever row: the wholesale path
                // is the one `run_on` takes, so its verdict is `run_on`'s
                // first error by construction. The plan is poisoned and
                // re-initializes on the next refresh.
                Err(_) => {
                    let table = run_component(comp, catalog, exec)?;
                    Ok((table.clone(), Change::Full(table)))
                }
            }
        }
        _ => {
            let dplan = DeltaPlan::init(&comp.plan, source, exec)?;
            let table = land(comp, &dplan)?;
            let entry = ComponentCache {
                component: comp.clone(),
                dplan,
            };
            cache.entries.insert(comp.name.clone(), entry);
            Ok((table.clone(), Change::Full(table)))
        }
    }
}

/// A component's target table: its plan's cached output under the
/// target's name, sharing the cache's storage — the output rows are
/// resident once across the plan and the catalog.
fn land(comp: &EtlComponent, dplan: &DeltaPlan) -> RelResult<Table> {
    Ok(dplan.output()?.renamed(comp.target_table.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use guava_relational::expr::Expr;
    use guava_relational::prelude::*;

    fn catalog() -> Catalog {
        let mut db = Database::new("src");
        let s = Schema::new(
            "t",
            vec![
                Column::required("id", DataType::Int),
                Column::new("x", DataType::Int),
            ],
        )
        .unwrap();
        db.create_table(
            Table::from_rows(
                s,
                vec![
                    vec![1.into(), 10.into()],
                    vec![2.into(), 20.into()],
                    vec![3.into(), 30.into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let mut c = Catalog::new();
        c.insert(db);
        c
    }

    fn two_stage() -> EtlWorkflow {
        EtlWorkflow {
            name: "demo".into(),
            stages: vec![
                EtlStage {
                    name: "extract".into(),
                    components: vec![EtlComponent {
                        name: "big_x".into(),
                        source_db: "src".into(),
                        plan: Plan::scan("t").select(Expr::col("x").gt(Expr::lit(10i64))),
                        target_db: "tmp1".into(),
                        target_table: "filtered".into(),
                    }],
                },
                EtlStage {
                    name: "load".into(),
                    components: vec![EtlComponent {
                        name: "project".into(),
                        source_db: "tmp1".into(),
                        plan: Plan::scan("filtered").project_cols(&["id"]),
                        target_db: "out".into(),
                        target_table: "result".into(),
                    }],
                },
            ],
        }
    }

    #[test]
    fn pipeline_threads_temporary_databases() {
        let mut cat = catalog();
        let runs = two_stage().run(&mut cat).unwrap();
        assert_eq!(
            runs,
            vec![
                ComponentRun {
                    component: "big_x".into(),
                    rows_out: 2
                },
                ComponentRun {
                    component: "project".into(),
                    rows_out: 2
                },
            ]
        );
        let result = cat.database("out").unwrap().table("result").unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result.schema().column_names(), vec!["id"]);
        // The intermediate database is materialized and inspectable.
        assert!(cat.database("tmp1").unwrap().has_table("filtered"));
    }

    #[test]
    fn run_on_images_only_the_columns_later_stages_read() {
        let mut cat = catalog();
        two_stage().run(&mut cat).unwrap();
        let imaged = |cat: &Catalog, db: &str, t: &str| {
            let layout = cat.database(db).unwrap().table(t).unwrap().layout();
            (layout.sealed_spans, layout.imaged_columns)
        };
        // The extract's `x > 10` is a lane mask: it images `x`, not `id`.
        assert_eq!(imaged(&cat, "src", "t"), (1, 1));
        // The load stage's scan of `tmp1.filtered` feeds a projection, a
        // row walk: the scan seals the chunk and images no column.
        assert_eq!(imaged(&cat, "tmp1", "filtered"), (1, 0));
        // Nothing in the workflow reads `out.result`; a scan seals it when
        // one comes, and a filter images the one column it names.
        assert_eq!(imaged(&cat, "out", "result"), (0, 0));
        Plan::scan("result")
            .select(Expr::col("id").gt(Expr::lit(0i64)))
            .eval(cat.database("out").unwrap())
            .unwrap();
        assert_eq!(imaged(&cat, "out", "result"), (1, 1));
    }

    #[test]
    fn missing_source_db_reported_with_component_name() {
        let mut wf = two_stage();
        wf.stages[0].components[0].source_db = "ghost".into();
        let err = wf.run(&mut catalog()).unwrap_err();
        assert!(err.to_string().contains("big_x"));
    }

    #[test]
    fn component_count_and_render() {
        let wf = two_stage();
        assert_eq!(wf.component_count(), 2);
        let r = wf.render();
        assert!(r.contains("Stage 1: extract"));
        assert!(r.contains("tmp1.filtered"));
    }

    #[test]
    fn rerun_overwrites_targets_idempotently() {
        let mut cat = catalog();
        let wf = two_stage();
        wf.run(&mut cat).unwrap();
        wf.run(&mut cat).unwrap();
        assert_eq!(
            cat.database("out").unwrap().table("result").unwrap().len(),
            2
        );
    }

    /// The source of [`skewed_stage`].
    fn skewed_catalog(n: i64) -> Catalog {
        let mut db = Database::new("src");
        let s = Schema::new(
            "t",
            vec![
                Column::required("id", DataType::Int),
                Column::new("x", DataType::Int),
            ],
        )
        .unwrap();
        let rows: Vec<Row> = (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % 13)])
            .collect();
        db.create_table(Table::from_rows(s, rows).unwrap()).unwrap();
        let mut c = Catalog::new();
        c.insert(db);
        c
    }

    /// Components whose per-component cost is wildly skewed: the first is
    /// the most expensive (a self-join), the rest are trivial filters.
    fn skewed_stage(fail_component: Option<usize>) -> EtlWorkflow {
        let mut components = vec![EtlComponent {
            name: "heavy".into(),
            source_db: "src".into(),
            plan: Plan::scan("t").join(
                Plan::scan("t").rename_columns(vec![("id", "rid"), ("x", "rx")]),
                vec![("x", "rx")],
                JoinKind::Inner,
            ),
            target_db: "out".into(),
            target_table: "joined".into(),
        }];
        for i in 0..6 {
            components.push(EtlComponent {
                name: format!("light_{i}"),
                source_db: "src".into(),
                plan: Plan::scan("t").select(Expr::col("x").eq(Expr::lit(i as i64))),
                target_db: "out".into(),
                target_table: format!("slice_{i}"),
            });
        }
        if let Some(at) = fail_component {
            components[at].plan = Plan::scan("t").project_cols(&["no_such_column"]);
        }
        EtlWorkflow {
            name: "skewed".into(),
            stages: vec![EtlStage {
                name: "fan_out".into(),
                components,
            }],
        }
    }

    #[test]
    fn stage_reads_pre_stage_catalog_and_loads_in_declaration_order() {
        // One stage: `a` and `c` overwrite the table all three read, `b`
        // copies it. Each must see the pre-stage `src.t` (x = 10, 20, 30),
        // not a sibling's output, and `c`'s load must land after `a`'s.
        let comp = |name: &str, plan: Plan, db: &str, table: &str| EtlComponent {
            name: name.into(),
            source_db: "src".into(),
            plan,
            target_db: db.into(),
            target_table: table.into(),
        };
        let above_10 = Plan::scan("t").select(Expr::col("x").gt(Expr::lit(10i64)));
        let below_20 = Plan::scan("t").select(Expr::col("x").lt(Expr::lit(20i64)));
        let mut wf = EtlWorkflow {
            name: "siblings".into(),
            stages: vec![EtlStage {
                name: "only".into(),
                components: vec![
                    comp("a", above_10, "src", "t"),
                    comp("b", Plan::scan("t"), "out", "copy"),
                    comp("c", below_20, "src", "t"),
                ],
            }],
        };
        let ids = |cat: &Catalog, db: &str, table: &str| -> Vec<Value> {
            let t = cat.database(db).unwrap().table(table).unwrap();
            t.iter_rows().map(|r| r[0].clone()).collect()
        };
        let mut cat = catalog();
        let runs = wf.run(&mut cat).unwrap();
        let counts: Vec<_> = runs.iter().map(|r| (&*r.component, r.rows_out)).collect();
        assert_eq!(counts, vec![("a", 2), ("b", 3), ("c", 1)]);
        assert_eq!(ids(&cat, "out", "copy"), vec![1.into(), 2.into(), 3.into()]);
        assert_eq!(ids(&cat, "src", "t"), vec![Value::Int(1)]);

        // Two failing components: the first in declaration order is the
        // error, and exactly the loads declared before it are applied.
        for fault in ["first_fault", "second_fault"] {
            let bad = comp(fault, Plan::scan("t").project_cols(&[fault]), "out", fault);
            wf.stages[0].components.push(bad);
        }
        let mut cat = catalog();
        let err = wf.run(&mut cat).unwrap_err();
        assert!(
            matches!(err, RelError::UnknownColumn { ref column, .. } if column == "first_fault"),
            "unexpected error: {err:?}"
        );
        assert_eq!(ids(&cat, "out", "copy").len(), 3);
        assert_eq!(ids(&cat, "src", "t"), vec![Value::Int(1)]);
    }

    #[test]
    fn failing_component_surfaces_error_not_panic() {
        // Fail the *last* component: earlier components' loads still land,
        // and the error names the plan fault.
        let wf = skewed_stage(Some(6));
        let mut cat = skewed_catalog(100);
        let err = wf.run(&mut cat).unwrap_err();
        assert!(
            matches!(err, RelError::UnknownColumn { ref column, .. } if column == "no_such_column"),
            "unexpected error: {err:?}"
        );
        // Components declared before the failing one were applied, exactly
        // as sequential execution would have left the catalog.
        let out = cat.database("out").unwrap();
        assert!(out.has_table("joined"));
        assert!(out.has_table("slice_4"));
        assert!(!out.has_table("slice_5"));

        // Fail the *first* component: nothing is applied.
        let wf = skewed_stage(Some(0));
        let mut cat = skewed_catalog(100);
        assert!(wf.run(&mut cat).is_err());
        assert!(cat.database("out").is_err());
    }

    /// Every table in every database, in deterministic order — the
    /// "byte-identical" comparison unit for incremental vs. full runs.
    fn all_tables(cat: &Catalog) -> Vec<(String, Vec<Table>)> {
        let mut names: Vec<String> = cat.names().map(str::to_owned).collect();
        names.sort();
        names
            .into_iter()
            .map(|n| {
                let db = cat.database(&n).unwrap();
                (n.to_owned(), db.tables().cloned().collect())
            })
            .collect()
    }

    #[test]
    fn incremental_first_run_matches_full_then_replays() {
        let exec = Executor::new();
        let wf = two_stage();

        let mut full_cat = catalog();
        let full_runs = wf.run_on(&mut full_cat, &exec).unwrap();

        let mut inc_cat = catalog();
        let mut cache = WorkflowCache::new();
        let inc_runs = wf
            .run_incremental(&mut inc_cat, &DeltaSet::new(), &mut cache, &exec)
            .unwrap();
        assert_eq!(inc_runs, full_runs);
        assert_eq!(all_tables(&inc_cat), all_tables(&full_cat));
        assert_eq!(cache.len(), 2);

        // Nothing changed: the second incremental run replays the cached
        // outputs and leaves every table the storage it was.
        let before = all_tables(&inc_cat);
        let replay = wf
            .run_incremental(&mut inc_cat, &DeltaSet::new(), &mut cache, &exec)
            .unwrap();
        assert_eq!(replay, full_runs);
        let after = all_tables(&inc_cat);
        assert_eq!(after, before);
        for ((db, now), (_, was)) in after.iter().zip(&before) {
            for (now, was) in now.iter().zip(was) {
                assert!(now.same_storage(was), "{db}.{}", now.schema().name);
            }
        }

        // The source replaced by an equal copy in new storage, with no
        // delta: the scans read it whole, and the run equals a rebuild.
        let src = inc_cat.database_mut("src").unwrap();
        let t = src.table("t").unwrap();
        let copy = Table::from_rows(t.schema().clone(), t.rows_from(0)).unwrap();
        assert!(copy == *t && !copy.same_storage(t));
        src.put_table(copy);
        let runs = wf
            .run_incremental(&mut inc_cat, &DeltaSet::new(), &mut cache, &exec)
            .unwrap();
        let mut full_cat = Catalog::new();
        full_cat.insert(inc_cat.database("src").unwrap().clone());
        assert_eq!(runs, wf.run_on(&mut full_cat, &exec).unwrap());
        assert_eq!(all_tables(&inc_cat), all_tables(&full_cat));
    }

    #[test]
    fn incremental_refresh_matches_full_rebuild_after_deltas() {
        let exec = Executor::new();
        let wf = two_stage();

        let mut inc_cat = catalog();
        let mut cache = WorkflowCache::new();
        wf.run_incremental(&mut inc_cat, &DeltaSet::new(), &mut cache, &exec)
            .unwrap();

        // Mutate the source through the change-capture wrapper: an insert,
        // a delete, and an update that flips a row across the filter.
        let mut dc = DeltaCatalog::new(inc_cat);
        dc.insert("src", "t", vec![4.into(), 40.into()]).unwrap();
        dc.delete_where("src", "t", |r| r[0] == Value::Int(2))
            .unwrap();
        dc.update_where("src", "t", |r| r[0] == Value::Int(1), |r| r[1] = 99.into())
            .unwrap();
        let deltas = dc.take_deltas();
        let mut inc_cat = dc.into_inner();

        let inc_runs = wf
            .run_incremental(&mut inc_cat, &deltas, &mut cache, &exec)
            .unwrap();

        // Full rebuild on an identical source must agree byte-for-byte.
        let mut full_cat = Catalog::new();
        full_cat.insert(inc_cat.database("src").unwrap().clone());
        let full_runs = wf.run_on(&mut full_cat, &exec).unwrap();
        assert_eq!(inc_runs, full_runs);
        assert_eq!(all_tables(&inc_cat), all_tables(&full_cat));
    }

    #[test]
    fn incremental_error_parity_with_full_run() {
        // A failing component behaves identically incrementally: same
        // error, earlier components' loads applied, later ones not.
        let exec = Executor::new();
        let wf = skewed_stage(Some(5));
        let mut full_cat = skewed_catalog(60);
        let full_err = wf.run_on(&mut full_cat, &exec).unwrap_err();

        let mut inc_cat = skewed_catalog(60);
        let mut cache = WorkflowCache::new();
        let inc_err = wf
            .run_incremental(&mut inc_cat, &DeltaSet::new(), &mut cache, &exec)
            .unwrap_err();
        assert_eq!(inc_err.to_string(), full_err.to_string());
        assert_eq!(all_tables(&inc_cat), all_tables(&full_cat));

        // The failure does not poison unrelated cache entries: fixing the
        // workflow (new component definition) recomputes just that slot.
        let fixed = skewed_stage(None);
        let mut fixed_cat = skewed_catalog(60);
        let runs = fixed
            .run_incremental(&mut fixed_cat, &DeltaSet::new(), &mut cache, &exec)
            .unwrap();
        let mut oracle_cat = skewed_catalog(60);
        let oracle = fixed.run_on(&mut oracle_cat, &exec).unwrap();
        assert_eq!(runs, oracle);
        assert_eq!(all_tables(&fixed_cat), all_tables(&oracle_cat));
    }
}
