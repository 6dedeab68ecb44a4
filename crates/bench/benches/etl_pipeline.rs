//! Figure 6 experiment: study compilation and end-to-end ETL execution.
//!
//! Measures (a) compile time — the artifact-to-workflow translation is
//! data-independent and should be flat, and (b) full pipeline execution
//! across dataset sizes — expected to scale linearly in total rows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use guava::clinical::prelude::*;
use guava::etl::prelude::*;
use guava_bench::Fixture;

fn bench_compile(c: &mut Criterion) {
    let fixture = Fixture::new(50);
    let study = study1_definition(&fixture.contributors);
    let schema = study_schema();
    let reg = registry();
    let binds = fixture.bindings();
    c.bench_function("study_compile", |b| {
        b.iter(|| {
            let compiled = compile(black_box(&study), &schema, &reg, &binds).unwrap();
            black_box(compiled.workflow.component_count())
        })
    });
}

fn bench_pipeline_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("etl_pipeline");
    group.sample_size(10);
    for &n in &[100usize, 200, 400, 800] {
        let fixture = Fixture::new(n);
        let study = study1_definition(&fixture.contributors);
        let compiled = compile(&study, &study_schema(), &registry(), &fixture.bindings()).unwrap();
        group.throughput(Throughput::Elements(3 * n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &fixture, |b, fixture| {
            b.iter(|| {
                let mut catalog = fixture.catalog();
                black_box(compiled.workflow.run(&mut catalog).unwrap().len())
            })
        });
    }
    group.finish();
}

fn bench_direct_vs_etl(c: &mut Criterion) {
    // Hypothesis 3's cost side: the compiled pipeline versus the
    // row-at-a-time oracle (which reads the naive databases directly).
    let fixture = Fixture::new(400);
    let study = study1_definition(&fixture.contributors);
    let compiled = compile(&study, &study_schema(), &registry(), &fixture.bindings()).unwrap();
    let naive = naive_map(&fixture.contributors);
    let mut group = c.benchmark_group("etl_vs_direct");
    group.sample_size(10);
    group.bench_function("compiled_etl", |b| {
        b.iter(|| {
            let mut catalog = fixture.catalog();
            compiled.workflow.run(&mut catalog).unwrap();
            black_box(
                catalog
                    .database(&compiled.output_db)
                    .unwrap()
                    .table("Procedure")
                    .unwrap()
                    .len(),
            )
        })
    });
    group.bench_function("direct_eval", |b| {
        b.iter(|| {
            let rows = direct_eval(&compiled, &study, black_box(&naive)).unwrap();
            black_box(rows["Procedure"].len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_pipeline_scale,
    bench_direct_vs_etl
);
criterion_main!(benches);
