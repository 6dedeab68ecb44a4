//! `etl_stream` — incremental ETL over a steady stream of small deltas.
//!
//! The `study_batch` fixture with Study 1 compiled once and a warm
//! `WorkflowCache`. One operation is a pair of refreshes, one of each
//! class, so every sample does the same work:
//!
//! * `insert` — 4 new reports per contributor are typed in (`enter`),
//!   encoded through the contributor's pattern stack, and their physical
//!   rows added through `DeltaCatalog::insert`; then `run_incremental`;
//! * `amend` — `cori_amend_reports` revises 2 existing CORI reports
//!   (tombstone + amended row each); then `run_incremental`.
//!
//! This uses the delta layer differently from the engine: resident
//! `DeltaPlan`s over whole decode stacks (pivot over EAV, merge/lookup
//! joins) instead of a store patch.

use crate::fixture::{contributors, err, profiles, scaled, BenchResult, NewReports};
use crate::run::{Bench, Layers, OpSample, RunConfig};
use crate::stats::median;
use crate::trace::Tracer;
use guava::clinical::prelude::*;
use guava::clinical::{cori, endopro, gastrolink};
use guava::prelude::*;
use std::time::Instant;

const NEW_PER_CONTRIBUTOR: usize = 4;
const AMENDED: usize = 2;
/// A full `run_on` rebuild is timed (and compared) every this many
/// traced operations.
const REBUILD_EVERY: u64 = 20;

pub struct EtlStream {
    profiles: Vec<Profile>,
    new_reports: NewReports,
    stacks: Vec<PatternStack>,
    compiled: CompiledStudy,
    dc: DeltaCatalog,
    cache: WorkflowCache,
    exec: Executor,
    pairs: u64,
    traced_pairs: u64,
    /// Rows in the first measured pair's captured deltas.
    delta_rows_in: Option<usize>,
}

impl EtlStream {
    /// Type the profiles into each contributor's tool and encode the
    /// resulting one-batch naïve databases into physical rows.
    fn encode_new(&self, new: &[Profile], tr: &mut Tracer) -> BenchResult<Vec<Database>> {
        let n = new.len() as u64;
        let naive = tr.span_n("forms.entry", 3 * n, |_| -> RelResult<_> {
            Ok([
                cori::naive_database(new)?,
                endopro::naive_database(new)?,
                gastrolink::naive_database(new)?,
            ])
        });
        let naive = naive.map_err(err)?;
        tr.span_n("patterns.encode", 3, |_| {
            self.stacks
                .iter()
                .zip(&naive)
                .map(|(stack, db)| stack.encode(db))
                .collect::<RelResult<Vec<_>>>()
        })
        .map_err(err)
    }

    /// Add encoded physical rows to the captured catalog. Rows whose
    /// primary key is already stored (a lookup pattern's fixed code
    /// table) are not new and are skipped.
    fn insert_physical(&mut self, encoded: &[Database]) -> RelResult<()> {
        for db in encoded {
            for table in db.tables() {
                let name = &table.schema().name;
                let key_cols = table.schema().primary_key().to_vec();
                for row in table.iter_rows() {
                    if !key_cols.is_empty() {
                        let key: Vec<Value> = key_cols.iter().map(|&i| row[i].clone()).collect();
                        let stored = self.dc.catalog().database(&db.name)?.table(name)?;
                        if stored.get_by_key(&key).is_some() {
                            continue;
                        }
                    }
                    self.dc.insert(&db.name, name, row.clone())?;
                }
            }
        }
        Ok(())
    }

    fn refresh(&mut self, span: &'static str, tr: &mut Tracer) -> BenchResult<usize> {
        let deltas = self.dc.take_deltas();
        let rows = deltas.total_rows_changed();
        tr.span(span, |_| {
            self.compiled.workflow.run_incremental(
                self.dc.catalog_mut(),
                &deltas,
                &mut self.cache,
                &self.exec,
            )
        })
        .map_err(err)?;
        Ok(rows)
    }

    /// Every component's target table ≡ a from-scratch `run_on` over the
    /// same source state.
    fn compare_with_rebuild(&self, tr: &mut Tracer) -> BenchResult<()> {
        let mut full = self.dc.catalog().clone();
        tr.span("etl.rebuild", |_| {
            self.compiled.workflow.run_on(&mut full, &self.exec)
        })
        .map_err(err)?;
        for comp in self
            .compiled
            .workflow
            .stages
            .iter()
            .flat_map(|s| &s.components)
        {
            let table = |c: &Catalog| {
                c.database(&comp.target_db)
                    .and_then(|db| db.table(&comp.target_table))
                    .cloned()
                    .map_err(err)
            };
            if table(self.dc.catalog())? != table(&full)? {
                return Err(format!(
                    "component `{}`: run_incremental ≠ run_on rebuild",
                    comp.name
                ));
            }
        }
        Ok(())
    }
}

impl Bench for EtlStream {
    fn setup(cfg: &RunConfig, tr: &mut Tracer) -> BenchResult<EtlStream> {
        let reports = cfg.sizes().study_reports;
        let (profiles, pool) = profiles(cfg.seed, reports);
        let contributors = contributors(&profiles, tr)?;
        let compiled = tr
            .span("etl.compile", |_| {
                compile(
                    &study1_definition(&contributors),
                    &study_schema(),
                    &registry(),
                    &bindings(&contributors),
                )
            })
            .map_err(err)?;
        let mut catalog = physical_catalog(&contributors);
        let exec = Executor::new();
        // The cold incremental run populates the per-component caches.
        let mut cache = WorkflowCache::new();
        tr.span("etl.run_incremental.cold", |_| {
            compiled
                .workflow
                .run_incremental(&mut catalog, &DeltaSet::new(), &mut cache, &exec)
        })
        .map_err(err)?;
        Ok(EtlStream {
            new_reports: NewReports::new(pool, reports as i64 + 1),
            stacks: contributors.into_iter().map(|c| c.stack).collect(),
            profiles,
            compiled,
            dc: DeltaCatalog::new(catalog),
            cache,
            exec,
            pairs: 0,
            traced_pairs: 0,
            delta_rows_in: None,
        })
    }

    fn op(&mut self, tr: &mut Tracer) -> BenchResult<OpSample> {
        let new = self.new_reports.take(NEW_PER_CONTRIBUTOR);
        // Walk the base load two reports at a time; every id stays live.
        let first = 1 + (self.pairs as usize * AMENDED) % (self.profiles.len() - AMENDED);
        let ids = [first as i64, first as i64 + 1];
        self.pairs += 1;
        let t = Instant::now();
        let (fresh_ms, delta_rows) = tr.span("op", |tr| -> BenchResult<(f64, usize)> {
            let encoded = self.encode_new(&new, tr)?;
            let saved = Instant::now();
            tr.span("relational.capture", |_| self.insert_physical(&encoded))
                .map_err(err)?;
            let mut rows = self.refresh("etl.run_incremental.insert", tr)?;
            let mut fresh_ms = saved.elapsed().as_secs_f64() * 1e3;

            let saved = Instant::now();
            let note = format!("follow-up {}", self.pairs);
            let revised = tr
                .span("relational.capture", |_| {
                    cori_amend_reports(&mut self.dc, "cori", &ids, &note)
                })
                .map_err(err)?;
            if revised != AMENDED {
                return Err(format!("amended {revised} of {AMENDED} reports"));
            }
            rows += self.refresh("etl.run_incremental.amend", tr)?;
            fresh_ms += saved.elapsed().as_secs_f64() * 1e3;
            Ok((fresh_ms, rows))
        })?;
        let op_ms = t.elapsed().as_secs_f64() * 1e3;
        self.delta_rows_in.get_or_insert(delta_rows);

        if tr.is_on() {
            self.traced_pairs += 1;
            if self.traced_pairs % REBUILD_EVERY == 1 {
                self.compare_with_rebuild(tr)?;
            }
        }
        Ok(OpSample {
            op_ms,
            fresh_ms,
            units: (3 * NEW_PER_CONTRIBUTOR + AMENDED) as f64,
        })
    }

    fn check(&mut self) -> BenchResult<()> {
        self.compare_with_rebuild(&mut Tracer::new(false))?;
        // Ground truth: the funnel over every report ever typed in, once
        // per contributor. Amendments touch no study column.
        let mut all = self.profiles.clone();
        all.extend(self.new_reports.issued.iter().cloned());
        let table = self
            .dc
            .catalog()
            .database(&self.compiled.output_db)
            .and_then(|db| db.table("Procedure"))
            .map_err(err)?;
        let got = Study1Report::from_table(table).map_err(err)?;
        let want = scaled(&Study1Report::expected(&all), self.stacks.len());
        if got != want {
            return Err(format!("Study 1 funnel {got:?}, ground truth {want:?}"));
        }
        Ok(())
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) -> BenchResult<()> {
        let op = |name: &str| median(&tr.per_op_self_ms(name));
        let unit = |name: &str| median(&tr.per_unit_ms(name));
        out.insert("forms.entry_us", unit("forms.entry") * 1e3);
        out.insert("gtree.derive_ms", unit("gtree.derive"));
        out.insert("patterns.encode_ms", op("patterns.encode"));
        out.insert("etl.compile_ms", unit("etl.compile"));
        out.insert("relational.capture_ms", op("relational.capture"));
        let insert = op("etl.run_incremental.insert");
        let amend = op("etl.run_incremental.amend");
        out.insert("etl.run_incremental_ms.insert", insert);
        out.insert("etl.run_incremental_ms.amend", amend);
        let rebuild = unit("etl.rebuild");
        out.insert("etl.rebuild_ms", rebuild);
        out.insert("etl.incremental_speedup", 2.0 * rebuild / (insert + amend));
        out.insert("etl.delta_rows_in", self.delta_rows_in.unwrap_or(0) as f64);
        Ok(())
    }
}
