//! Fixtures the benchmark owns: seeded profiles, the three contributors,
//! and the CORI warehouse engine with its standing queries.
//!
//! Everything is a pure function of `(seed, sizes)`; the program under
//! test only ever receives the generated inputs.

use crate::trace::Tracer;
use guava::clinical::prelude::*;
use guava::clinical::{classifiers, cori, endopro, gastrolink};
use guava::prelude::*;

/// Result type of fixture and workload code: any layer's error, as text.
pub type BenchResult<T> = Result<T, String>;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Fixed data sizes. Op counts follow from `--seconds`, never from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Reports per contributor in `study_batch` / `etl_stream`.
    pub study_reports: usize,
    /// Reports in the CORI warehouse of the two engine workloads.
    pub engine_reports: usize,
}

impl Sizes {
    /// Sized so one set-up stays near 2 s on a 2-core host: the driver
    /// repeats set-up three times in each of its 92 runs.
    pub const FULL: Sizes = Sizes {
        study_reports: 10_000,
        engine_reports: 30_000,
    };

    /// 1/20 of [`Self::FULL`], for `--smoke` and `cargo test`.
    pub const SMOKE: Sizes = Sizes {
        study_reports: 500,
        engine_reports: 1_500,
    };
}

/// Profiles kept aside to be typed in as *new* reports during a run.
const POOL: usize = 2_048;

/// `n` base profiles plus a pool of further ones, from one seeded draw.
pub fn profiles(seed: u64, n: usize) -> (Vec<Profile>, Vec<Profile>) {
    let mut all = generate(
        &GeneratorConfig::default()
            .with_seed(seed)
            .with_size(n + POOL),
    );
    let pool = all.split_off(n);
    (all, pool)
}

/// Hands out pool profiles under fresh, ever-increasing instance ids.
pub struct NewReports {
    pool: Vec<Profile>,
    next_id: i64,
    pub issued: Vec<Profile>,
}

impl NewReports {
    pub fn new(pool: Vec<Profile>, first_id: i64) -> NewReports {
        NewReports {
            pool,
            next_id: first_id,
            issued: Vec::new(),
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Profile> {
        let out: Vec<Profile> = (0..n)
            .map(|_| {
                let mut p = self.pool[self.next_id as usize % self.pool.len()].clone();
                p.id = self.next_id;
                self.next_id += 1;
                p
            })
            .collect();
        self.issued.extend(out.iter().cloned());
        out
    }
}

/// CORI's physical database: encode the naïve form, then revise every
/// 13th report in **one** `audit_revise` batch.
///
/// Same rows as `cori::physical_database` (as a multiset — that function
/// interleaves tombstones and amended rows, this one appends tombstones
/// first), but linear: `physical_database` rescans the table once per
/// revised report and needs minutes at warehouse size.
pub fn cori_physical(naive: &Database, stack: &PatternStack) -> BenchResult<Database> {
    let mut catalog = Catalog::new();
    catalog.insert(stack.encode(naive).map_err(err)?);
    let schema = catalog
        .database("cori")
        .and_then(|db| db.table(cori::PHYSICAL_TABLE))
        .map_err(err)?
        .schema()
        .clone();
    let id_idx = schema.index_of("instance_id").ok_or("no instance_id")?;
    let note_idx = schema
        .index_of("other_complication")
        .ok_or("no other_complication")?;
    let mut dc = DeltaCatalog::new(catalog);
    audit_revise(
        &mut dc,
        "cori",
        cori::PHYSICAL_TABLE,
        cori::AUDIT_FLAG,
        |r| r[id_idx].as_i64().is_some_and(|id| id % 13 == 0),
        |r| r[note_idx] = Value::text("amended report"),
    )
    .map_err(err)?;
    dc.into_inner().database("cori").cloned().map_err(err)
}

/// One contributor: type the profiles into its tool (`forms.entry`),
/// derive the g-tree (`gtree.derive`), encode through its pattern stack
/// (`patterns.encode`) — every layer call in a span.
fn contributor(
    tool: ReportingTool,
    stack: PatternStack,
    reports: u64,
    enter_all: impl FnOnce() -> RelResult<Database>,
    encode: impl FnOnce(&Database, &PatternStack) -> BenchResult<Database>,
    tr: &mut Tracer,
) -> BenchResult<Contributor> {
    let naive = tr
        .span_n("forms.entry", reports, |_| enter_all())
        .map_err(err)?;
    Ok(Contributor {
        tree: tr
            .span("gtree.derive", |_| GTree::derive(&tool))
            .map_err(err)?,
        physical: tr.span("patterns.encode", |_| encode(&naive, &stack))?,
        stack,
        naive,
        tool,
    })
}

/// The three contributors over one profile set.
pub fn contributors(profiles: &[Profile], tr: &mut Tracer) -> BenchResult<Vec<Contributor>> {
    let n = profiles.len() as u64;
    let encode = |naive: &Database, stack: &PatternStack| stack.encode(naive).map_err(err);
    Ok(vec![
        contributor(
            cori::tool(),
            cori::stack().map_err(err)?,
            n,
            || cori::naive_database(profiles),
            cori_physical,
            tr,
        )?,
        contributor(
            endopro::tool(),
            endopro::stack().map_err(err)?,
            n,
            || endopro::naive_database(profiles),
            encode,
            tr,
        )?,
        contributor(
            gastrolink::tool(),
            gastrolink::stack().map_err(err)?,
            n,
            || gastrolink::naive_database(profiles),
            encode,
            tr,
        )?,
    ])
}

/// Each field of a Study 1 funnel times `k` (every contributor holds a
/// copy of the same reality).
pub fn scaled(r: &Study1Report, k: usize) -> Study1Report {
    Study1Report {
        population: r.population * k,
        indicated: r.indicated * k,
        eligible: r.eligible * k,
        hypoxia: r.hypoxia * k,
        surgery: r.surgery * k,
        iv_fluids: r.iv_fluids * k,
        oxygen: r.oxygen * k,
    }
}

/// CORI's entity classifier and all sixteen domain classifiers, bound.
pub fn cori_classifiers(tree: &GTree) -> BenchResult<(BoundClassifier, Vec<BoundClassifier>)> {
    let schema = study_schema();
    let all = classifiers::cori();
    let entity = all
        .iter()
        .find(|c| matches!(c.target, Target::Entity { .. }))
        .ok_or("CORI has no entity classifier")?
        .bind(tree, &schema)
        .map_err(err)?;
    let domain = all
        .iter()
        .filter(|c| matches!(c.target, Target::Domain { .. }))
        .map(|c| c.bind(tree, &schema).map_err(err))
        .collect::<BenchResult<Vec<_>>>()?;
    Ok((entity, domain))
}

/// Name of the materialized study table inside the engine's database.
pub const STUDY_TABLE: &str = "cori__All_Procedures";
/// Name of the naïve form table (the CORI form id).
pub const NAIVE_TABLE: &str = "procedure";

fn count_all() -> Vec<Aggregate> {
    vec![Aggregate {
        func: AggFunc::CountAll,
        alias: "n".into(),
    }]
}

/// The four standing queries clients subscribe to.
pub fn subscription_plans(base_reports: usize) -> Vec<Plan> {
    vec![
        // Naïve-form filter.
        Plan::scan(NAIVE_TABLE).select(
            Expr::col("hypoxia")
                .eq(Expr::lit(true))
                .and(Expr::col("proc_type").eq(Expr::lit(1i64))),
        ),
        // Study-table funnel (Study 1's eligibility steps).
        Plan::scan(STUDY_TABLE).select(
            Expr::col("Kind")
                .eq(Expr::lit("UpperGI"))
                .and(Expr::col("Reflux Indication").eq(Expr::lit(true)))
                .and(Expr::col("Renal Failure").eq(Expr::lit(false)))
                .and(Expr::col("Exams Normal").eq(Expr::lit(true))),
        ),
        // Study-table group-count.
        Plan::scan(STUDY_TABLE).aggregate(&["Kind", "Status"], count_all()),
        // Recent-id range: the newest reports.
        Plan::scan(NAIVE_TABLE)
            .select(Expr::col("instance_id").gt(Expr::lit(base_reports as i64 - 500))),
    ]
}

/// One dashboard query. `first` and `warm` name its per-layer metrics —
/// and the spans its first and warm executions are recorded under.
pub struct DashboardQuery {
    pub first: &'static str,
    pub warm: &'static str,
    pub plan: Plan,
}

/// The analyst's five-query dashboard.
pub fn dashboard(base_reports: usize) -> Vec<DashboardQuery> {
    let lo = (base_reports as i64) * 9 / 10;
    let query = |first, warm, plan| DashboardQuery { first, warm, plan };
    vec![
        query(
            "relational.q_full_scan_ms.first",
            "relational.q_full_scan_ms.warm",
            Plan::scan(NAIVE_TABLE).select(
                Expr::col("cardio_wnl")
                    .eq(Expr::lit(true))
                    .and(Expr::col("abdominal_wnl").eq(Expr::lit(true))),
            ),
        ),
        query(
            "relational.q_zone_prune_ms.first",
            "relational.q_zone_prune_ms.warm",
            Plan::scan(NAIVE_TABLE).select(
                Expr::col("instance_id")
                    .ge(Expr::lit(lo))
                    .and(Expr::col("instance_id").lt(Expr::lit(lo + 500))),
            ),
        ),
        query(
            "relational.q_dict_eq_ms.first",
            "relational.q_dict_eq_ms.warm",
            Plan::scan(STUDY_TABLE).select(Expr::col("Alcohol").eq(Expr::lit("Heavy"))),
        ),
        query(
            "relational.q_group_by_ms.first",
            "relational.q_group_by_ms.warm",
            Plan::scan(STUDY_TABLE).aggregate(&["Kind", "Status"], count_all()),
        ),
        query(
            "relational.q_join_ms.first",
            "relational.q_join_ms.warm",
            Plan::scan(NAIVE_TABLE)
                .join(
                    Plan::scan(STUDY_TABLE),
                    vec![("instance_id", "instance_id")],
                    JoinKind::Inner,
                )
                .select(Expr::col("hypoxia").eq(Expr::lit(true))),
        ),
    ]
}

/// The CORI warehouse as a service, with its subscribers attached.
pub struct EngineFixture {
    pub tool: ReportingTool,
    pub entity: BoundClassifier,
    pub classifiers: Vec<BoundClassifier>,
    pub engine: Engine,
    pub session: Session,
    pub plans: Vec<Plan>,
    /// `(index into plans, mirror)`.
    pub subs: Vec<(usize, Subscription)>,
    pub base_reports: usize,
    pub new_reports: NewReports,
    /// The decoded naïve form the engine was built from (generation 0).
    pub decoded: Table,
}

impl EngineFixture {
    /// Form entry → pattern encode → audit batch → decode through the
    /// stack → classify and build generation 0 → subscribe.
    pub fn build(
        seed: u64,
        reports: usize,
        subs_per_plan: usize,
        tr: &mut Tracer,
    ) -> BenchResult<EngineFixture> {
        let (base, pool) = profiles(seed, reports);
        let tool = cori::tool();
        let tree = tr
            .span("gtree.derive", |_| GTree::derive(&tool))
            .map_err(err)?;
        let stack = cori::stack().map_err(err)?;
        let naive = tr
            .span_n("forms.entry", reports as u64, |_| {
                cori::naive_database(&base)
            })
            .map_err(err)?;
        let physical = tr.span("patterns.encode", |_| cori_physical(&naive, &stack))?;
        let decoded = tr
            .span("patterns.decode_ms.cori", |_| {
                stack.query(&physical, &Plan::scan(NAIVE_TABLE))
            })
            .map_err(err)?;
        let (entity, classifiers) = cori_classifiers(&tree)?;
        let refs: Vec<&BoundClassifier> = classifiers.iter().collect();
        let engine = tr
            .span("warehouse.engine_build", |_| {
                Engine::build(
                    "cori",
                    decoded.clone(),
                    &entity,
                    &refs,
                    EngineConfig::default(),
                )
            })
            .map_err(err)?;
        let session = engine.session();
        let plans = subscription_plans(reports);
        let mut subs = Vec::new();
        tr.span("warehouse.subscribe", |_| -> BenchResult<()> {
            for _ in 0..subs_per_plan {
                for (i, plan) in plans.iter().enumerate() {
                    subs.push((i, session.subscribe(plan).map_err(err)?));
                }
            }
            Ok(())
        })?;
        Ok(EngineFixture {
            tool,
            entity,
            classifiers,
            engine,
            session,
            plans,
            subs,
            base_reports: reports,
            new_reports: NewReports::new(pool, reports as i64 + 1),
            decoded,
        })
    }

    pub fn classifier_refs(&self) -> Vec<&BoundClassifier> {
        self.classifiers.iter().collect()
    }
}
