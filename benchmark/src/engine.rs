//! `warehouse_trickle` and `analyst_queries` — the live warehouse.
//!
//! Both drive one `Engine` over the CORI naïve form decoded from a
//! pattern-encoded physical database, all sixteen CORI domain classifiers
//! materialized (`MaterializationPolicy::Full`), with standing
//! subscriptions. One operation types 8 new reports through
//! `DataEntrySession`, applies one `Engine::update` (8 inserts, 2
//! `update_where` amendments, 1 `delete_where` retirement — the calls
//! `guava serve` issues) and `sync()`s every subscription.
//!
//! * `warehouse_trickle` stops there (8 subscriptions, **no reads**):
//!   delta capture, store refresh, `apply_delta` install, stats patch and
//!   fan-out do the work; scans and kernels touch only delta rows.
//! * `analyst_queries` (4 subscriptions) then runs a five-query dashboard
//!   through `Session::query` **twice** on the new generation. The warm
//!   pass isolates scan/kernel/blocking cost; the first pass and the
//!   update isolate what installs and reads cost *each other* (sealing,
//!   copy-on-write unsharing) — a gain for one use that taxes the other
//!   shows here and nowhere else.
//!
//! Freshness ends where the workload's consumer sees the new reports: at
//! the last synced mirror on `warehouse_trickle`, at the end of the first
//! dashboard pass on `analyst_queries`. The update-and-sync part alone is
//! kept as the per-layer `warehouse.update_sync_ms_p50`: after reads it
//! is 12 ms of cache-cold pointer chasing whose run-to-run spread on a
//! shared host reaches its own regression bound (see README,
//! *Steadiness*).

use crate::fixture::{
    dashboard, err, BenchResult, DashboardQuery, EngineFixture, NAIVE_TABLE, STUDY_TABLE,
};
use crate::metrics::Workload;
use crate::run::{Bench, Layers, OpSample, RunConfig};
use crate::stats::median;
use crate::trace::Tracer;
use guava::clinical::cori;
use guava::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const NEW_REPORTS: usize = 8;
/// Pushed events are counted over this many traced updates, so the two
/// event counts repeat exactly however many operations a run fits.
const COUNTED_UPDATES: u64 = 25;

/// One update's worth of mutations, replayable against any catalog that
/// holds the naïve form (the engine's, or a shadow copy).
struct Mutation {
    rows: Vec<Row>,
    amend: [i64; 2],
    retire: i64,
    note: Value,
}

impl Mutation {
    fn apply(&self, cat: &mut DeltaCatalog, id_idx: usize, note_idx: usize) -> RelResult<()> {
        for row in &self.rows {
            cat.insert("cori", NAIVE_TABLE, row.clone())?;
        }
        for id in self.amend {
            let key = Value::Int(id);
            cat.update_where(
                "cori",
                NAIVE_TABLE,
                |r| r[id_idx] == key,
                |r| r[note_idx] = self.note.clone(),
            )?;
        }
        let key = Value::Int(self.retire);
        cat.delete_where("cori", NAIVE_TABLE, |r| r[id_idx] == key)?;
        Ok(())
    }
}

pub struct EngineBench {
    fx: EngineFixture,
    /// `Some` on `analyst_queries`.
    dashboard: Option<Vec<DashboardQuery>>,
    id_idx: usize,
    note_idx: usize,
    updates: u64,
    rng: u64,
    /// Traced runs only: one benchmark-owned `DeltaPlan` per subscription,
    /// refreshed with the same changes the engine's resident plans see.
    shadow_plans: Option<Vec<DeltaPlan>>,
    events: u64,
    full_events: u64,
    updates_counted: u64,
    update_sync_ms: Vec<f64>,
    dashboard_first_ms: Vec<f64>,
    dashboard_warm_ms: Vec<f64>,
    /// The last operation's dashboard results, for the oracle check.
    last_results: Vec<Table>,
}

impl EngineBench {
    fn next_mutation(&mut self, rows: Vec<Row>) -> Mutation {
        // Retire the oldest ids in order; amend ids from the upper half
        // of the base load, which is never retired within a run.
        let half = self.fx.base_reports as u64 / 2;
        let mut pick = || {
            self.rng = self
                .rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (half + (self.rng >> 33) % half) as i64
        };
        let amend = [pick(), pick()];
        self.updates += 1;
        Mutation {
            rows,
            amend,
            retire: self.updates as i64,
            note: Value::text(format!("follow-up {}", self.updates)),
        }
    }

    /// What the refresh did to the materialized study table, positionally
    /// — the rule `StudyStore::refresh` documents: rows of deleted
    /// instance ids drop at their old ordinals, new outputs append.
    fn study_table_delta(
        pre: &Table,
        post: &Table,
        naive: &TableDelta,
        id_idx: usize,
    ) -> TableDelta {
        let mut deleted: Vec<(usize, Row)> = Vec::new();
        for (_, row) in &naive.deleted {
            if let Some((pos, mrow)) = pre.key_position(std::slice::from_ref(&row[id_idx])) {
                if !deleted.iter().any(|(p, _)| *p == pos) {
                    deleted.push((pos, mrow.clone()));
                }
            }
        }
        deleted.sort_by_key(|&(p, _)| p);
        TableDelta {
            pre_len: pre.len(),
            inserted: post.rows_from(pre.len() - deleted.len()),
            deleted,
        }
    }

    /// Shadow probes of what `Engine::update` does internally, each timed
    /// from outside on this operation's own inputs, *before* the real
    /// update: capture the delta on a scratch catalog and refresh a clone
    /// of the current store. Returns the base-table changes the refresh
    /// implies and the store it produced. Every reference to the current
    /// generation is dropped on return, so the real update runs (and
    /// frees the old generation) exactly as in an untraced run.
    fn shadow_store(
        &self,
        m: &Mutation,
        tr: &mut Tracer,
    ) -> BenchResult<(TableChanges, StudyStore)> {
        let pre = self.fx.engine.snapshot();
        let mut scratch = Database::new("cori");
        scratch.put_shared(Arc::clone(&pre.store().naive_form));
        let mut catalog = Catalog::new();
        catalog.insert(scratch);
        let mut dc = DeltaCatalog::new(catalog);
        m.apply(&mut dc, self.id_idx, self.note_idx).map_err(err)?;
        let delta = dc
            .take_deltas()
            .get("cori", NAIVE_TABLE)
            .cloned()
            .ok_or("shadow capture recorded no delta")?;

        let refs = self.fx.classifier_refs();
        let mut store = pre.store().clone();
        tr.span("shadow.store_refresh", |_| {
            store.refresh(&delta, &self.fx.entity, &refs)
        })
        .map_err(err)?;

        let (Some(pre_m), Some(post_m)) = (&pre.store().materialized, &store.materialized) else {
            return Err("Full policy keeps a materialized table".into());
        };
        let mut changes = TableChanges::new();
        changes.set(NAIVE_TABLE, delta.to_change());
        changes.set(
            STUDY_TABLE,
            Self::study_table_delta(&pre_m.table, &post_m.table, &delta, self.id_idx).to_change(),
        );
        Ok((changes, store))
    }

    /// After the real update: the shadow store must equal the engine's,
    /// and benchmark-owned `DeltaPlan`s (one per subscription) refresh
    /// from the same changes the engine's resident plans saw.
    fn shadow_plans(
        &mut self,
        changes: &TableChanges,
        store: StudyStore,
        tr: &mut Tracer,
    ) -> BenchResult<()> {
        let post = self.fx.engine.snapshot();
        if store != *post.store() {
            return Err("shadow StudyStore::refresh diverged from the engine's store".into());
        }
        drop(store);
        let plans = self.shadow_plans.as_mut().ok_or("shadow plans not built")?;
        let n = plans.len() as u64;
        let exec = self.fx.engine.executor();
        tr.span_n("shadow.delta_plan_refresh", n, |_| -> BenchResult<()> {
            for p in plans.iter_mut() {
                p.refresh(post.database(), changes, exec).map_err(err)?;
            }
            Ok(())
        })
    }
}

impl Bench for EngineBench {
    fn setup(cfg: &RunConfig, tr: &mut Tracer) -> BenchResult<EngineBench> {
        let analyst = cfg.workload == Workload::AnalystQueries;
        let reports = cfg.sizes().engine_reports;
        let fx = EngineFixture::build(cfg.seed, reports, if analyst { 1 } else { 2 }, tr)?;
        let schema = fx.tool.forms[0].naive_schema();
        let shadow_plans = if cfg.trace {
            let snap = fx.engine.snapshot();
            Some(
                fx.subs
                    .iter()
                    .map(|(i, _)| {
                        DeltaPlan::init(&fx.plans[*i], snap.database(), fx.engine.executor())
                            .map_err(err)
                    })
                    .collect::<BenchResult<Vec<_>>>()?,
            )
        } else {
            None
        };
        Ok(EngineBench {
            dashboard: analyst.then(|| dashboard(reports)),
            id_idx: schema.index_of("instance_id").ok_or("no instance_id")?,
            note_idx: schema
                .index_of("other_complication")
                .ok_or("no other_complication")?,
            fx,
            updates: 0,
            rng: cfg.seed,
            shadow_plans,
            events: 0,
            full_events: 0,
            updates_counted: 0,
            update_sync_ms: Vec::new(),
            dashboard_first_ms: Vec::new(),
            dashboard_warm_ms: Vec::new(),
            last_results: Vec::new(),
        })
    }

    fn op(&mut self, tr: &mut Tracer) -> BenchResult<OpSample> {
        let profiles = self.fx.new_reports.take(NEW_REPORTS);
        let (id_idx, note_idx) = (self.id_idx, self.note_idx);

        // Part one of the operation: the reports are typed in and saved.
        let t = Instant::now();
        let rows = tr.span("op", |tr| {
            let form = &self.fx.tool.forms[0];
            tr.span_n("forms.entry", NEW_REPORTS as u64, |_| {
                profiles
                    .iter()
                    .map(|p| cori::enter(form, p).save().map(|i| i.naive_row(form)))
                    .collect::<Result<Vec<Row>, _>>()
            })
        });
        let entry_ms = t.elapsed().as_secs_f64() * 1e3;
        let m = self.next_mutation(rows.map_err(err)?);

        // Traced runs only, untimed: the shadow probes that need the
        // pre-update state.
        let shadow = match self.shadow_plans {
            Some(_) => Some(self.shadow_store(&m, tr)?),
            None => None,
        };

        // Part two: from the saved reports to the synced mirrors (and,
        // for the analyst, the dashboard on the new generation).
        let saved = Instant::now();
        let mut update_sync_ms = 0.0;
        let mut first_ms = 0.0;
        let mut warm_ms = 0.0;
        let fresh_ms = tr.span("op", |tr| -> BenchResult<f64> {
            tr.span("warehouse.update", |tr| {
                self.fx
                    .engine
                    .update(|cat| tr.span("relational.capture", |_| m.apply(cat, id_idx, note_idx)))
            })
            .map_err(err)?;
            let count = tr.is_on() && self.updates_counted < COUNTED_UPDATES;
            tr.span_n(
                "warehouse.sync",
                self.fx.subs.len() as u64,
                |_| -> BenchResult<()> {
                    for (_, sub) in &mut self.fx.subs {
                        if count {
                            // Same drain as `sync()`, one event at a time, so
                            // full resyncs can be counted exactly.
                            while let Some(event) = sub.try_next().map_err(err)? {
                                self.events += 1;
                                if matches!(event.change, Ok(Change::Full(_))) {
                                    self.full_events += 1;
                                }
                            }
                        } else {
                            sub.sync().map_err(err)?;
                        }
                    }
                    Ok(())
                },
            )?;
            if count {
                self.updates_counted += 1;
            }
            update_sync_ms = saved.elapsed().as_secs_f64() * 1e3;
            let mut fresh_ms = update_sync_ms;

            if let Some(dashboard) = &self.dashboard {
                let first = Instant::now();
                if tr.is_on() {
                    // Sealing is what the first scan of a new generation
                    // pays; done here by hand it gets its own span.
                    let snap = self.fx.session.snapshot();
                    tr.span("relational.seal", |_| {
                        for table in snap.database().tables() {
                            black_box(table.segments());
                        }
                    });
                }
                self.last_results.clear();
                for q in dashboard {
                    let out = tr.span(q.first, |_| self.fx.session.query(&q.plan));
                    self.last_results.push(out.map_err(err)?);
                }
                first_ms = first.elapsed().as_secs_f64() * 1e3;
                // The analyst sees the new reports when the first pass
                // over the new generation has answered.
                fresh_ms = saved.elapsed().as_secs_f64() * 1e3;
                let warm = Instant::now();
                for q in dashboard {
                    let out = tr.span(q.warm, |_| self.fx.session.query(&q.plan));
                    black_box(out.map_err(err)?);
                }
                warm_ms = warm.elapsed().as_secs_f64() * 1e3;
            }
            Ok(fresh_ms)
        })?;
        let op_ms = entry_ms + saved.elapsed().as_secs_f64() * 1e3;
        if !tr.is_on() {
            self.update_sync_ms.push(update_sync_ms);
            if self.dashboard.is_some() {
                self.dashboard_first_ms.push(first_ms);
                self.dashboard_warm_ms.push(warm_ms);
            }
        }
        if let Some((changes, store)) = shadow {
            self.shadow_plans(&changes, store, tr)?;
        }
        Ok(OpSample {
            op_ms,
            fresh_ms,
            units: 1.0,
        })
    }

    fn check(&mut self) -> BenchResult<()> {
        let snap = self.fx.engine.snapshot();
        if snap.generation() != self.updates {
            return Err(format!(
                "{} updates installed {} generations",
                self.updates,
                snap.generation()
            ));
        }
        // 8 inserted − 1 retired per update; amendments keep the count.
        let want_rows = self.fx.base_reports + (NEW_REPORTS - 1) * self.updates as usize;
        if snap.store().naive_form.len() != want_rows {
            return Err(format!(
                "naïve form holds {} rows, expected {want_rows}",
                snap.store().naive_form.len()
            ));
        }
        // Every mirror ≡ re-running its plan on the generation it reports.
        for (i, sub) in &self.fx.subs {
            let fresh = self.fx.session.query(&self.fx.plans[*i]).map_err(err)?;
            if sub.generation() != snap.generation() || sub.rows() != fresh.rows() {
                return Err(format!("subscription on plan {i}: mirror ≠ fresh query"));
            }
        }
        if let Some(plans) = &self.shadow_plans {
            for ((i, sub), plan) in self.fx.subs.iter().zip(plans) {
                if plan.output().map_err(err)?.rows() != sub.rows() {
                    return Err(format!("shadow DeltaPlan {i} diverged from its mirror"));
                }
            }
        }
        // Final store ≡ a from-scratch build over the final naïve form.
        let rebuilt = StudyStore::build(
            "cori",
            (*snap.store().naive_form).clone(),
            &self.fx.entity,
            &self.fx.classifier_refs(),
            MaterializationPolicy::Full,
        )
        .map_err(err)?;
        if rebuilt != *snap.store() {
            return Err("refreshed store ≠ StudyStore::build over the final naïve form".into());
        }
        // Each dashboard query ≡ the materializing interpreter.
        if let Some(dashboard) = &self.dashboard {
            for (q, got) in dashboard.iter().zip(&self.last_results) {
                let want = q.plan.eval_materialized(snap.database()).map_err(err)?;
                if *got != want {
                    return Err(format!("{} ≠ Plan::eval_materialized", q.first));
                }
            }
        }
        Ok(())
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) -> BenchResult<()> {
        // Standalone probes of the set-up layers `Engine::build` calls
        // internally, on the decoded form generation 0 was built from.
        let refs = self.fx.classifier_refs();
        for _ in 0..3 {
            black_box(
                tr.span("multiclass.classify", |_| {
                    materialize("cori", &self.fx.decoded, &self.fx.entity, &refs)
                })
                .map_err(err)?,
            );
            let form = self.fx.decoded.clone();
            black_box(
                tr.span("warehouse.store_build", |_| {
                    StudyStore::build(
                        "cori",
                        form,
                        &self.fx.entity,
                        &refs,
                        MaterializationPolicy::Full,
                    )
                })
                .map_err(err)?,
            );
        }
        let snap = self.fx.engine.snapshot();
        if let Some(dashboard) = &self.dashboard {
            for _ in 0..5 {
                for q in dashboard {
                    black_box(tr.span("relational.optimize", |_| snap.optimize(&q.plan)));
                }
            }
        }

        let op = |name: &str| median(&tr.per_op_self_ms(name));
        let unit = |name: &str| median(&tr.per_unit_ms(name));
        out.insert("forms.entry_us", unit("forms.entry") * 1e3);
        out.insert("gtree.derive_ms", unit("gtree.derive"));
        out.insert("patterns.encode_ms", unit("patterns.encode"));
        out.insert("patterns.decode_ms.cori", unit("patterns.decode_ms.cori"));
        out.insert("multiclass.classify_ms", unit("multiclass.classify"));
        out.insert("warehouse.store_build_ms", unit("warehouse.store_build"));
        out.insert("relational.optimize_us", unit("relational.optimize") * 1e3);
        out.insert("relational.capture_ms", op("relational.capture"));
        out.insert("warehouse.sync_ms", op("warehouse.sync"));
        out.insert("warehouse.update_sync_ms_p50", median(&self.update_sync_ms));
        let store_refresh = op("shadow.store_refresh");
        let plan_refresh = op("shadow.delta_plan_refresh");
        out.insert("warehouse.store_refresh_ms", store_refresh);
        out.insert("relational.delta_plan_refresh_ms", plan_refresh);
        // `warehouse.update`'s self time already excludes the capture
        // closure; what the two shadows do not explain is the swap, the
        // stats patch and the push.
        out.insert(
            "warehouse.engine_residual_ms",
            op("warehouse.update") - store_refresh - plan_refresh,
        );
        let updates = self.updates_counted.max(1) as f64;
        out.insert("warehouse.events_per_update", self.events as f64 / updates);
        out.insert(
            "warehouse.full_resync_share",
            self.full_events as f64 / self.events.max(1) as f64,
        );
        if self.dashboard.is_some() {
            out.insert("relational.seal_ms", op("relational.seal"));
            for q in self.dashboard.iter().flatten() {
                out.insert(q.first, op(q.first));
                out.insert(q.warm, op(q.warm));
            }
            out.insert("dashboard_first_ms_p50", median(&self.dashboard_first_ms));
            out.insert("dashboard_warm_ms_p50", median(&self.dashboard_warm_ms));
        }
        Ok(())
    }
}
