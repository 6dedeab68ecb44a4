//! `study_batch` — the paper's batch path.
//!
//! One operation compiles Study 1 and Study 2 (`etl::compile`) and runs
//! each workflow cold (`run_on`) over a fresh clone of the three
//! contributors' physical catalog. Pattern decode (pivot over EAV, lookup
//! join, audit filter), expression kernels and blocking operators do
//! nearly all the work; delta capture, generation install and fan-out do
//! none — this is the workload on which an engine-side optimisation
//! predicts *no change*.

use crate::fixture::{contributors, err, profiles, scaled, BenchResult};
use crate::run::{Bench, Layers, OpSample, RunConfig};
use crate::stats::median;
use crate::trace::Tracer;
use guava::clinical::prelude::*;
use guava::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Per-contributor decode metrics (and the spans they are taken from),
/// in `contributors` order.
const DECODE_SPANS: [&str; 3] = [
    "patterns.decode_ms.cori",
    "patterns.decode_ms.endopro",
    "patterns.decode_ms.gastrolink",
];

pub struct StudyBatch {
    profiles: Vec<Profile>,
    contributors: Vec<Contributor>,
    bindings: Vec<ContributorBinding>,
    catalog: Catalog,
    exec: Executor,
    study1: Study,
    study2: Study,
    input_rows: usize,
    /// The last operation's compiled studies and landed catalog, kept for
    /// the output checks.
    last: Option<(CompiledStudy, CompiledStudy, Catalog)>,
    /// Rows read per row landed, from the last operation's component runs.
    rows_examined_per_row_out: f64,
}

impl Bench for StudyBatch {
    fn setup(cfg: &RunConfig, tr: &mut Tracer) -> BenchResult<StudyBatch> {
        let (profiles, _) = profiles(cfg.seed, cfg.sizes().study_reports);
        let contributors = contributors(&profiles, tr)?;
        let catalog = physical_catalog(&contributors);
        Ok(StudyBatch {
            bindings: bindings(&contributors),
            input_rows: contributors.iter().map(|c| c.physical.total_rows()).sum(),
            study1: study1_definition(&contributors),
            study2: study2_definition(&contributors, ExSmokerMeaning::QuitWithinYear),
            exec: Executor::new(),
            catalog,
            contributors,
            profiles,
            last: None,
            rows_examined_per_row_out: 0.0,
        })
    }

    fn op(&mut self, tr: &mut Tracer) -> BenchResult<OpSample> {
        let schema = study_schema();
        let registry = registry();
        let t = Instant::now();
        let (c1, c2, catalog, fresh_ms, runs) = tr.span("op", |tr| -> BenchResult<_> {
            let mut catalog = tr.span("relational.catalog_clone", |_| self.catalog.clone());
            let c1 = tr
                .span("etl.compile", |_| {
                    compile(&self.study1, &schema, &registry, &self.bindings)
                })
                .map_err(err)?;
            let c2 = tr
                .span("etl.compile", |_| {
                    compile(&self.study2, &schema, &registry, &self.bindings)
                })
                .map_err(err)?;
            let ready = Instant::now();
            let runs = tr
                .span("etl.run.study1", |_| {
                    c1.workflow.run_on(&mut catalog, &self.exec)
                })
                .map_err(err)?;
            tr.span("etl.run.study2", |_| {
                c2.workflow.run_on(&mut catalog, &self.exec)
            })
            .map_err(err)?;
            Ok((c1, c2, catalog, ready.elapsed().as_secs_f64() * 1e3, runs))
        })?;
        let op_ms = t.elapsed().as_secs_f64() * 1e3;

        // Every component's output is read once by its successor; the
        // last component's output is what lands.
        let landed = runs.last().map_or(0, |r| r.rows_out);
        let read: usize = self.input_rows + runs.iter().map(|r| r.rows_out).sum::<usize>() - landed;
        self.rows_examined_per_row_out = read as f64 / landed.max(1) as f64;
        self.last = Some((c1, c2, catalog));
        Ok(OpSample {
            op_ms,
            fresh_ms,
            units: self.input_rows as f64,
        })
    }

    fn check(&mut self) -> BenchResult<()> {
        let (c1, c2, catalog) = self.last.as_ref().ok_or("no operation completed")?;
        let table = |c: &CompiledStudy| {
            catalog
                .database(&c.output_db)
                .and_then(|db| db.table("Procedure"))
                .map_err(err)
        };
        let n = self.contributors.len();

        let t1 = table(c1)?;
        let got = Study1Report::from_table(t1).map_err(err)?;
        let want = scaled(&Study1Report::expected(&self.profiles), n);
        if got != want {
            return Err(format!("Study 1 funnel {got:?}, ground truth {want:?}"));
        }
        if !cross_check(c1, &self.study1, &self.contributors, t1).map_err(err)? {
            return Err("Study 1: compiled ETL disagrees with direct_eval".into());
        }

        let t2 = table(c2)?;
        let got = Study2Report::from_table(t2).map_err(err)?;
        let one = Study2Report::expected(&self.profiles, ExSmokerMeaning::QuitWithinYear);
        let want = Study2Report {
            ex_smokers: one.ex_smokers * n,
            with_hypoxia: one.with_hypoxia * n,
        };
        if got != want {
            return Err(format!("Study 2 counts {got:?}, ground truth {want:?}"));
        }
        if !cross_check(c2, &self.study2, &self.contributors, t2).map_err(err)? {
            return Err("Study 2: compiled ETL disagrees with direct_eval".into());
        }
        Ok(())
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) -> BenchResult<()> {
        // Standalone probes of the layers `compile` and `run_on` call
        // internally: the g-tree/pattern rewrite with no execution, and
        // each contributor's full-form decode.
        for _ in 0..5 {
            for c in &self.contributors {
                black_box(
                    tr.span("gtree.derive", |_| GTree::derive(&c.tool))
                        .map_err(err)?,
                );
                let form = &c.tool.forms[0];
                let nodes: Vec<String> = form
                    .naive_schema()
                    .column_names()
                    .into_iter()
                    .filter(|n| *n != INSTANCE_ID)
                    .map(str::to_owned)
                    .collect();
                let query = GTreeQuery::new(form.id.clone(), nodes);
                black_box(
                    tr.span("patterns.rewrite", |_| {
                        c.stack.decode_plan(&query.to_naive_plan())
                    })
                    .map_err(err)?,
                );
            }
        }
        for _ in 0..3 {
            for (c, span) in self.contributors.iter().zip(DECODE_SPANS) {
                let full_form = Plan::scan(c.tool.forms[0].id.clone());
                let decoded = tr
                    .span(span, |_| c.stack.query(&c.physical, &full_form))
                    .map_err(err)?;
                if decoded.len() != self.profiles.len() {
                    return Err(format!(
                        "{}: decoded {} reports of {}",
                        c.name(),
                        decoded.len(),
                        self.profiles.len()
                    ));
                }
            }
        }

        let per_unit_us = |name: &str| median(&tr.per_unit_ms(name)) * 1e3;
        out.insert("forms.entry_us", per_unit_us("forms.entry"));
        out.insert("gtree.derive_ms", median(&tr.per_unit_ms("gtree.derive")));
        out.insert("patterns.rewrite_us", per_unit_us("patterns.rewrite"));
        out.insert(
            "patterns.encode_ms",
            median(&tr.per_unit_ms("patterns.encode")),
        );
        out.insert("etl.compile_ms", median(&tr.per_op_self_ms("etl.compile")));
        out.insert(
            "etl.run_ms.study1",
            median(&tr.per_op_self_ms("etl.run.study1")),
        );
        out.insert(
            "etl.run_ms.study2",
            median(&tr.per_op_self_ms("etl.run.study2")),
        );
        for span in DECODE_SPANS {
            out.insert(span, median(&tr.per_unit_ms(span)));
        }
        out.insert(
            "etl.rows_examined_per_row_out",
            self.rows_examined_per_row_out,
        );
        Ok(())
    }
}
