#!/usr/bin/env bash
# Repo gate: formatting, lints, docs, tests. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: every public item documented, no broken intra-doc links.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The lane matrix is down to {serial, morsel}: the execution-mode enum,
# adaptive execution, the row-resting scan path and their env variables
# were deleted because no workload of BENCHMARK.json told them apart from
# the default — or, for row storage, because the default beat it (ROADMAP,
# lane-matrix item). The cost-based optimizer (statistics catalog, NDV
# sketch, estimator, join DP) went the same way: its rewrite was the
# identity on every plan the system builds (DESIGN.md §17). Fail if any
# of them comes back.
if grep -rnE 'ExecMode|GUAVA_EXEC_MODE|GUAVA_EXEC_ADAPTIVE|ADAPT_WARMUP|StorageMode|GUAVA_STORAGE|STORAGE_ENV|shared_rows|\.storage\(|StatsCatalog|optimize_with_stats|DistinctSketch|ndv_sketch|patch_stats|cost_plan' \
    --exclude=check.sh \
    crates tests examples scripts README.md DESIGN.md EXPERIMENTS.md; then
  echo "check.sh: a deleted executor lane, knob or optimizer layer reappeared (matches above)" >&2
  exit 1
fi

# The expression-kernel catalog shrank to the traffic (DESIGN.md §11):
# every workload of BENCHMARK.json drives only `column <op> literal`
# conjuncts, bare-column and literal projections and CASE through the
# fused pipeline, so those conjuncts run as lane masks over segment
# storage and everything else is one row walk. The kernel compiler, its
# lane programs and the row-indexed error accumulator they needed were
# deleted; code only — the decision record may still name what went.
if grep -rnE 'ExprProg|StageProg|carry_lane|passthrough_epoch|run_batch_seeded|segment_lanes|ColumnBatch|ErrAcc|generic_bin|eval_bin_vec' \
    --exclude=check.sh \
    crates tests examples scripts; then
  echo "check.sh: a deleted expression-kernel mechanism reappeared (matches above)" >&2
  exit 1
fi

# One parallel mechanism, one configuration handle, no environment
# (DESIGN.md §10): a workflow stage evaluates its components in order and
# only the executor's morsels spawn threads; `Executor` carries the three
# knobs itself and `Executor::threads` is the one way to set a thread
# count; nothing under crates/ reads an environment variable. Code only —
# the decision record may still name what went.
if grep -rnE 'GUAVA_EXEC_THREADS|THREADS_ENV|ExecConfig|eval_with|execute_with|run_with\b|from_env|run_study_parallel|run_workflow_parallel|query_optimized|crossbeam' \
    --exclude=check.sh \
    crates tests examples scripts Cargo.toml \
    || grep -rn 'env::var' crates; then
  echo "check.sh: a deleted configuration path, wrapper entry point or second parallel mechanism reappeared (matches above)" >&2
  exit 1
fi

# One plan rewriter (DESIGN.md §9): what `Executor::execute` runs is
# `optimize::prepare`, and `Snapshot::optimize` returns what it prepares.
# The older catalog-free pass, its seven rules and the bench group that
# timed it fired on no plan the system builds for anything measurable and
# were deleted. Code only — the decision record may still name what went;
# the word boundary keeps `prepare`'s own `push_selections` out of it.
if grep -rnE '\bpush_select\(|fuse_project|static_keyless|static_columns|optimize::optimize|pattern_decode_optimized' \
    --exclude=check.sh \
    crates tests examples scripts; then
  echo "check.sh: a deleted catalog-free rewrite rule or its bench group reappeared (matches above)" >&2
  exit 1
fi

# A refresh lands its change, not its table (DESIGN.md §12/§18): a
# component's output is one persistent table that the plan's cache, the
# workflow cache and the catalog share, moved by `Table::patch`. The
# lazy row-vector cache in front of a plan's output went, and the
# workflow copies no table into a row vector — neither may come back.
if grep -rn 'LazyRows' crates tests examples scripts --exclude=check.sh \
    || grep -n 'rows()\.to_vec()' crates/etl/src/workflow.rs; then
  echo "check.sh: a deleted output cache or a whole-table copy in the ETL workflow reappeared (matches above)" >&2
  exit 1
fi

# A resident plan checks its own inputs (DESIGN.md §12, §15 D6): each
# scan holds the table it last read and calls an unclaimed table
# unchanged only when it is that storage. The workflow cache's input
# snapshots and the fingerprint that confirmed them went — fail if they
# come back.
if grep -rnE 'table_fingerprint|CachedInput|snapshot_inputs|input_unchanged' \
    --exclude=check.sh \
    crates tests examples scripts; then
  echo "check.sh: a deleted workflow input snapshot or table fingerprint reappeared (matches above)" >&2
  exit 1
fi

# The warehouse crate reads tables through `iter_rows`/`rows_from`, not the
# flat view: `Table::rows()` caches a whole-table copy that every clone of
# the table shares (ROADMAP item 5(b)). Non-test code only, comment lines
# skipped as in the panic-site count below.
for f in $(find crates/warehouse/src -name '*.rs' | sort); do
  if awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f" \
      | grep -F '.rows()'; then
    echo "check.sh: non-test warehouse code reads the flat view again (matches above)" >&2
    exit 1
  fi
done

# Sealed segments survive deletes and blocking operators read their input
# by reference (DESIGN.md §14/§18): the survivor-copy re-seal and the
# row-shredding parallel pipeline were *replaced*, not kept beside the new
# paths, and none of it needed `unsafe`. Fail if any of that comes back.
if grep -rnE '\bunsafe\b|seal_over|par_pipeline' crates/relational; then
  echo "check.sh: crates/relational regained unsafe code or a replaced storage path (matches above)" >&2
  exit 1
fi

# A seal is a shell and each column is imaged on first read (DESIGN.md
# §14): a scan that feeds a row walk images nothing, and a workflow lands
# its outputs as they are. Fail if the ETL layer seals its landings again,
# or if anything but `Segment::column` builds a column image — an eager
# whole-segment builder on the scan path.
if grep -rn '\.segments()' crates/etl/src \
    || grep -rn 'Segment::build' crates/relational/src \
    || [ "$(grep -rn 'SegmentColumn::build(' crates | wc -l)" -ne 1 ]; then
  echo "check.sh: the ETL layer seals its outputs again, or a column image is built outside Segment::column (matches above)" >&2
  exit 1
fi

# A DeltaPlan keeps state for the plan the executor runs, builds it in its
# rules' wholesale (`Change::Full`) arms and runs delta rows through the
# executor's stage walk (DESIGN.md §12, §15). Fail if the non-test part of
# delta.rs becomes a second evaluator again: a synthetic inline relation,
# a call into `execute`, or a bottom-up `DNode` init. Comments are skipped
# (the module's doctest compares with `execute`); a `match` arm on
# `Plan::Values` is binding, not constructing.
delta_lines=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; exit }' crates/relational/src/delta.rs)
workflow_lines=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; exit }' crates/etl/src/workflow.rs)
echo "check.sh: delta.rs non-test lines: $delta_lines, workflow.rs: $workflow_lines"
if head -n "$delta_lines" crates/relational/src/delta.rs \
    | grep -nE 'Plan::Values[^=]*$|\.execute\(|^\s+fn init\(' | grep -vE '^[0-9]+:\s*//'; then
  echo "check.sh: delta.rs evaluates through a synthetic plan or a bottom-up init again (matches above)" >&2
  exit 1
fi

# An `Engine` is meant to stay up, so the panic sites in `relational`'s
# non-test code (ROADMAP item 7) may only go down: every `.unwrap()`,
# `.expect(`, `panic!` and `unreachable!` above each file's `#[cfg(test)]`,
# comment lines skipped (doc examples are tests). 49 at the commit that
# started counting; lower the bound when a change removes some.
panic_sites=0
for f in $(find crates/relational/src -name '*.rs' | sort); do
  n=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' "$f" \
    | { grep -oE '\.unwrap\(\)|\.expect\(|panic!|unreachable!' || true; } | wc -l)
  panic_sites=$((panic_sites + n))
done
echo "check.sh: non-test panic sites in crates/relational: $panic_sites"
if [ "$panic_sites" -gt 49 ]; then
  echo "check.sh: crates/relational gained a non-test panic site (more than 49) — return a RelError instead" >&2
  exit 1
fi

# The benchmark snapshot must carry the fused-pipeline axis (DESIGN.md
# §11), the blocking-operator axis (DESIGN.md §13) and the
# resting-storage axis (DESIGN.md §14); a regeneration from a stale
# binary would silently drop them.
for axis in vectorized blocking storage; do
  if ! grep -q "\"$axis\"" BENCH_executor.json; then
    echo "check.sh: BENCH_executor.json lacks the '$axis' axis — regenerate with" >&2
    echo "  cargo run --release -p guava-bench --bin tables -- --bench-executor" >&2
    exit 1
  fi
done

python3 - <<'EOF'
import json, sys
with open("BENCH_executor.json") as f:
    report = json.load(f)
failed = False
# The resting format must not tax reads where the spine says they happen:
# on the first evaluation after an install (DESIGN.md §18). Five dashboard
# shapes over a 30 000-row table after 200 mixed installs, executor vs the
# interpreter over the flat row view; below 1.0x, installs cost the reader
# more than the executor's whole lead (a re-seal per delete, a deep copy
# per blocking input, or unbounded scan parts — DESIGN.md §14 says how
# much of each this gate can and cannot see).
after = [b for b in report["storage"] if b["name"].startswith("after_installs/")]
if len(after) < 5:
    print(
        "check.sh: BENCH_executor.json storage axis lacks the five "
        "'after_installs/*' entries — regenerate with\n"
        "  cargo run --release -p guava-bench --bin tables -- --bench-executor",
        file=sys.stderr,
    )
    failed = True
for b in after:
    if b["speedup"] < 1.0:
        print(
            f"check.sh: storage '{b['name']}' speedup {b['speedup']:.2f}x < 1.0x "
            "— segment storage loses to the interpreter after installs (DESIGN.md §18)",
            file=sys.stderr,
        )
        failed = True
if failed:
    sys.exit(1)
EOF

# The refresh snapshot (DESIGN.md §12) must exist and carry per-entry
# speedups; it gates the incremental-refresh claim in EXPERIMENTS.md.
if ! grep -q '"speedup"' BENCH_refresh.json 2>/dev/null; then
  echo "check.sh: BENCH_refresh.json missing or lacks 'speedup' entries — regenerate with" >&2
  echo "  cargo run --release -p guava-bench --bin tables -- --bench-refresh" >&2
  exit 1
fi

# The sub-linearity axis (DESIGN.md §15), the service axis (DESIGN.md
# §16), and the generation-install axis (DESIGN.md §18) must be present —
# a regeneration from a stale binary would silently drop them.
for axis in delta_scaling service snapshot_install; do
  if ! grep -q "\"$axis\"" BENCH_refresh.json; then
    echo "check.sh: BENCH_refresh.json lacks the '$axis' axis — regenerate with" >&2
    echo "  cargo run --release -p guava-bench --bin tables -- --bench-refresh" >&2
    exit 1
  fi
done

# Regression canary for the §15 rank-index work: every operator-level
# refresh at the 1% delta fixture must beat a full rebuild. A delta_plan
# entry dipping below 1.0x means delta application regressed to
# rebuild-or-worse cost (the pre-§15 group_by_agg failure mode).
python3 - <<'EOF'
import json, sys
with open("BENCH_refresh.json") as f:
    report = json.load(f)
slow = [
    (b["name"], b["speedup"])
    for b in report["benches"]
    if b["group"] == "delta_plan" and b["speedup"] < 1.0
]
if slow:
    for name, s in slow:
        print(
            f"check.sh: delta_plan '{name}' refresh speedup {s:.2f}x < 1.0x "
            "— sub-linear delta application regressed (DESIGN.md §15)",
            file=sys.stderr,
        )
    sys.exit(1)
EOF

# Regression canary for the §16 service layer: the full push cycle (one
# Engine refresh fanning deltas out to four live subscriptions, plus the
# clients applying them) must beat the re-poll strategy (refresh + four
# full plan re-executions). Below 1.0x, push delivery costs more than
# the thing it exists to avoid.
python3 - <<'EOF'
import json, sys
with open("BENCH_refresh.json") as f:
    report = json.load(f)
cycles = [
    b for b in report["benches"]
    if b["group"] == "service" and b["name"].startswith("push_cycle")
]
if not cycles:
    print(
        "check.sh: BENCH_refresh.json has no service 'push_cycle' entry — "
        "regenerate with\n"
        "  cargo run --release -p guava-bench --bin tables -- --bench-refresh",
        file=sys.stderr,
    )
    sys.exit(1)
for b in cycles:
    if b["speedup"] < 1.0:
        print(
            f"check.sh: service '{b['name']}' push speedup {b['speedup']:.2f}x "
            "< 1.0x vs re-poll — subscription delivery regressed (DESIGN.md §16)",
            file=sys.stderr,
        )
        sys.exit(1)
EOF

# Regression canary for the §18 persistent tables: installing a store
# generation over shared structure must beat the pre-refactor clone-based
# install at the 1M-row base. Below 1.0x, the O(delta) install claim is
# gone — apply_delta is copying or re-indexing something O(n) again.
python3 - <<'EOF'
import json, sys
with open("BENCH_refresh.json") as f:
    report = json.load(f)
installs = report.get("snapshot_install", [])
at_1m = [b for b in installs if b["base_rows"] >= 1_000_000]
if not at_1m:
    print(
        "check.sh: BENCH_refresh.json snapshot_install axis has no 1M-base "
        "entry — regenerate with\n"
        "  cargo run --release -p guava-bench --bin tables -- --bench-refresh",
        file=sys.stderr,
    )
    sys.exit(1)
for b in at_1m:
    if b["speedup"] < 1.0:
        print(
            f"check.sh: snapshot_install '{b['name']}' speedup {b['speedup']:.2f}x "
            "< 1.0x vs the clone-based install — generation installs regressed "
            "to O(n) (DESIGN.md §18)",
            file=sys.stderr,
        )
        sys.exit(1)
EOF

# What `Executor::execute` does before `compile` (DESIGN.md §9: selections
# past joins, dead columns, projection towers, the identity projection
# under a pivot, the unread lookup join) and the copy-free filtered windows
# under it (§11) must be invisible — table, schema and first error those of
# the plan as written, single faults in unread places included, on
# hand-built fixtures and on random plans that count how often each rule
# fired. By name, so a renamed or unregistered file fails here instead of
# silently dropping out of the workspace run below.
cargo test -q -p guava --test decode_parity

# Property tests run with a pinned RNG stream so failures reproduce across
# machines; bump the seed deliberately to explore a new stream. This
# includes the executor-vs-oracle equivalence suites, which pin both lanes
# of tests/common/mod.rs ({serial, parallel}) in-process.
PROPTEST_RNG_SEED=0 cargo test -q --workspace

# The committed reproduction output is what the binary prints: every
# figure, table, study and hypothesis at 1000 procedures per contributor,
# byte for byte (EXPERIMENTS.md quotes it). Regenerate with
#   cargo run --release -q -p guava-bench --bin tables -- --size 1000 > tables_output.txt
cargo run --release -q -p guava-bench --bin tables -- --size 1000 | diff - tables_output.txt

# benchmark/ is its own workspace, so the commands above never compile it.
# Its smoke tests (1/20 sizes, all four workloads of BENCHMARK.json with
# their output checks on) fail here when an API it uses disappears.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
