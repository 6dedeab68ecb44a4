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

# One way to measure: timings come from the `benchmark/` crate that
# BENCHMARK.json declares, and `tables` only regenerates the paper's
# artefacts. Its executor and refresh bench axes, the snapshots they wrote
# and the Criterion benches over a vendored stand-in re-ran nothing the
# gates read, so they were deleted, not kept beside the spine. Code only —
# the docs may still name what went, and crates/bench/tests/cli.rs names
# a retired flag to see it refused.
if grep -rnE 'criterion|--bench-executor|--bench-refresh|BENCH_executor|BENCH_refresh' \
    --exclude=check.sh \
    crates scripts Cargo.toml | grep -v '^crates/bench/tests/cli\.rs:'; then
  echo "check.sh: the retired bench system reappeared (matches above)" >&2
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

# A table has two representations, row chunks and their sealed segments
# (DESIGN.md §18, ROADMAP item 5(b)): the cached flat `Vec<Row>` view that
# every clone of a table shared is deleted, and `Table::rows()` is a
# deprecated owned copy that clippy's `-D warnings` above refuses anywhere
# in the workspace. Fail if non-test table.rs regains a cached row vector
# or a `flat` field. Comment lines skipped as in the panic-site count below.
table_code=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' \
  crates/relational/src/table.rs)
if grep -E 'OnceLock<Arc<Vec<Row>>>|^[^:]*:[0-9]+: +(pub(\([a-z]+\))? )?flat *:' <<<"$table_code"; then
  echo "check.sh: non-test table.rs caches a flat row view again (matches above)" >&2
  exit 1
fi

# The warehouse crate classifies with the compiled study's guard and CASE
# expressions on the executor (DESIGN.md §12, *One classifier evaluator*):
# the per-row rule walk stays only as `direct_eval`'s reference, and the
# second output-type rule went with it. Non-test code only, comment lines
# skipped as in the panic-site count below.
for f in $(find crates/warehouse/src -name '*.rs' | sort); do
  code=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f")
  if grep -E '\.classify\(|\.selects\(|eval_row_from|classifier_output_type' <<<"$code"; then
    echo "check.sh: non-test warehouse code classifies by the row walk again (matches above)" >&2
    exit 1
  fi
done

# Form entry looks each control up once (DESIGN.md §8, *Data-entry
# engine*): a session indexes its form when it opens, and a saved
# instance renders its naïve row from the data controls. Fail if non-test
# entry code looks a control up by walking the form again (a `.control(`
# call, like the deleted `FormDef::control`) or builds the naïve schema
# per row. Comment lines skipped as below.
entry_code=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' \
  crates/forms/src/entry.rs)
if grep -E 'naive_schema\(|\.control\(' <<<"$entry_code"; then
  echo "check.sh: non-test form entry walks the form per answer or builds the naïve schema per row again (matches above)" >&2
  exit 1
fi

# Sealed segments survive deletes and blocking operators read their input
# by reference (DESIGN.md §14/§18): the survivor-copy re-seal and the
# row-shredding parallel pipeline were *replaced*, not kept beside the new
# paths, and none of it needed `unsafe`. Fail if any of that comes back.
if grep -rnE '\bunsafe\b|seal_over|par_pipeline' crates/relational; then
  echo "check.sh: crates/relational regained unsafe code or a replaced storage path (matches above)" >&2
  exit 1
fi

# A seal is a shell and each column is imaged on first read (DESIGN.md
# §14): a scan that feeds a row walk images nothing, a pivot images the
# three columns it reads off their dictionary codes, and a workflow lands
# its outputs as they are. Fail if the ETL layer seals its landings again,
# or if anything but `Segment::column` builds a column image — an eager
# whole-segment builder on the scan path, or a second imaging path for
# the pivot.
if grep -rn '\.segments()' crates/etl/src \
    || grep -rn 'Segment::build' crates/relational/src \
    || [ "$(grep -rn 'SegmentColumn::build(' crates | wc -l)" -ne 1 ]; then
  echo "check.sh: the ETL layer seals its outputs again, or a column image is built outside Segment::column (matches above)" >&2
  exit 1
fi

# Text cells are shared, not owned (DESIGN.md §7, §14): `Value::Text`
# holds an `Arc<str>`, so a row clone copies no string, and a segment's
# dictionary and plain-text storage hold the rows' own cells. Fail if an
# owned `Text(String)` cell returns in value.rs or a `Vec<String>` text
# store in segment.rs.
if grep -n 'Text(String)' crates/relational/src/value.rs \
    || grep -n 'Vec<String>' crates/relational/src/segment.rs; then
  echo "check.sh: text cells own their strings again (matches above)" >&2
  exit 1
fi
# A DeltaPlan keeps state for the plan the executor runs, builds it in its
# rules' wholesale (`Change::Full`) arms and runs delta rows through the
# executor's stage walk (DESIGN.md §12, §15). Fail if the non-test part of
# delta.rs becomes a second evaluator again: a synthetic inline relation
# pushed through the executor, or a bottom-up `DNode` init. Comments are
# skipped (the module's doctest compares with `execute`); a `match` arm on
# `Plan::Values` is binding, not constructing. A Join, Sort, Distinct,
# Limit or Unpivot subtree has no delta rule and re-runs on the executor
# whole (`DNode::Rerun`), so non-test delta.rs calls `execute` exactly
# once, and in that arm: the innermost `DNode::` arm above each
# `.execute(` line must be `Rerun`, and there must be one such line.
delta_lines=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; exit }' crates/relational/src/delta.rs)
workflow_lines=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; exit }' crates/etl/src/workflow.rs)
store_lines=$(( $(awk '/^#\[cfg\(test\)\]/ { print NR - 1; exit }' crates/warehouse/src/materialize.rs) \
  + $(awk '/^#\[cfg\(test\)\]/ { print NR - 1; exit }' crates/warehouse/src/refresh.rs) ))
echo "check.sh: delta.rs non-test lines: $delta_lines, workflow.rs: $workflow_lines, materialize.rs + refresh.rs: $store_lines"
if head -n "$delta_lines" crates/relational/src/delta.rs \
    | grep -nE 'Plan::Values[^=]*$|^\s+fn init\(' | grep -vE '^[0-9]+:\s*//'; then
  echo "check.sh: delta.rs evaluates through a synthetic plan or a bottom-up init again (matches above)" >&2
  exit 1
fi
execute_arms=$(awk -v n="$delta_lines" 'NR > n { exit } /^[[:space:]]*\/\// { next }
  /^[[:space:]]*DNode::[A-Za-z]+/ { match($0, /DNode::[A-Za-z]+/); arm = substr($0, RSTART + 7, RLENGTH - 7) }
  /\.execute\(/ { print NR ": " arm }' crates/relational/src/delta.rs)
if [ "$(sed 's/^[0-9]*: //' <<<"$execute_arms")" != "Rerun" ]; then
  echo "check.sh: non-test delta.rs must call \`.execute(\` exactly once, in the DNode::Rerun arm; found (line: arm):" >&2
  echo "${execute_arms:-none}" >&2
  exit 1
fi

# The per-operator kernels a refresh never reached were deleted, not kept
# beside `DNode::Rerun`: the join's probe-side state and the recompute
# kernels for Sort/Distinct/Limit/Unpivot, and the row-vector patching
# that fed them and the old `Vec<Row>` subscription mirror (a mirror is a
# `Table` moved by `Table::patch`). Fail if any returns in non-test code
# under crates/. Comment lines skipped as below.
for f in $(find crates -name '*.rs' -path '*/src/*' | sort); do
  code=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f")
  if grep -E 'RecomputeKernel|probe_left|build_join_index|apply_in_place' <<<"$code"; then
    echo "check.sh: a deleted delta kernel or the row-vector patch path came back (matches above)" >&2
    exit 1
  fi
done

# A grouped operator keeps its group order in O(log n) (DESIGN.md §15,
# *FirstSeenIndex*): each key's occurrences form a heap by input position
# whose root is the first occurrence, and an aggregate's index keeps only
# the columns its aggregates fold. Fail if non-test delta.rs keeps whole
# input rows in the index again, or if non-test rank.rs elects a first
# occurrence by scanning the group (a `min_by_key(` call). Comment lines
# skipped as above.
for f in crates/relational/src/delta.rs crates/relational/src/rank.rs; do
  code=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f")
  if grep -E 'FirstSeenIndex<Row>|min_by_key\(' <<<"$code"; then
    echo "check.sh: a grouped operator copies whole rows into its first-occurrence index or elects a first occurrence by scanning its group again (matches above)" >&2
    exit 1
  fi
done

# A pivot merges its morsels by lane key hash (DESIGN.md §13, *Pivot*):
# each partial slot keeps the hash it was found by, and a collision is
# settled by value equality, so the merge clones no key. Fail if non-test
# morsel.rs merges through a map keyed by cloned `Value` vectors again.
# Comment lines skipped as above.
morsel_code=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' \
  crates/relational/src/exec/morsel.rs)
if grep -F 'HashMap<Vec<Value>' <<<"$morsel_code"; then
  echo "check.sh: non-test morsel.rs merges pivot morsels through a cloned-key map again (matches above)" >&2
  exit 1
fi

# A segment keeps its value-code casts (DESIGN.md §13, *Pivot*): a
# dictionary-coded column holds one lazily filled slot per (code, declared
# type) for every execution and morsel that reads it, so a pivot lays out
# no cast slots of its own. Fail if non-test blocking.rs makes a `OnceLock`
# again. Comment lines skipped as above.
blocking_code=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' \
  crates/relational/src/exec/blocking.rs)
if grep -F 'OnceLock::new(' <<<"$blocking_code"; then
  echo "check.sh: non-test blocking.rs lays out per-execution cast slots again (matches above)" >&2
  exit 1
fi

# A selection shares its source (DESIGN.md §11, §18): a scan emits one
# window per chunk, a batch is a chunk window plus its dead bits, and a
# lane-resolved filter marks the rows it drops dead instead of copying
# the survivors or cutting the window into sub-windows per selected run.
# The run-length threshold, the run finder and the sub-window cut went.
# Fail if any of them comes back.
if grep -rnE 'MIN_SHARED_RUN|long_runs|sub_window' crates/relational; then
  echo "check.sh: a deleted per-run window mechanism came back in crates/relational (matches above)" >&2
  exit 1
fi

# The executor runs operator at a time (DESIGN.md §13): `Op::run` runs a
# node's children to completion, then its kernel. The push protocol in
# front of the kernels — an operator trait with a per-batch push, the
# operator tree it drove, the drive loop and the compile-time pipe/tree
# split — buffered whole inputs and streamed nothing, so it was deleted.
# Fail if any of it comes back in crates/relational. Code only: comment
# lines skipped as in the panic-site count below.
for f in $(find crates/relational -name '*.rs' | sort); do
  if grep -nE 'PhysicalOperator|push_batch|OpTree|fn drive\(|enum Exec\b' "$f" \
      | grep -vE '^[0-9]+:[[:space:]]*//'; then
    echo "check.sh: the push-based operator protocol came back in $f (matches above)" >&2
    exit 1
  fi
done

# An `Engine` is meant to stay up, so the panic sites in `relational`'s
# non-test code (ROADMAP item 7) may only go down: every `.unwrap()`,
# `.expect(`, `panic!` and `unreachable!` above each file's `#[cfg(test)]`,
# comment lines skipped (doc examples are tests). 49 at the commit that
# started counting, 40 since the first-occurrence heaps, 37 since Join and
# the recompute operators re-run on the executor, 34 since a shared window
# carries dead bits (no sub-window cut, no run walk), 33 since dropping an
# intermediate schema's key rebuilds nothing; lower the bound when a
# change removes some.
panic_sites=0
for f in $(find crates/relational/src -name '*.rs' | sort); do
  n=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' "$f" \
    | { grep -oE '\.unwrap\(\)|\.expect\(|panic!|unreachable!' || true; } | wc -l)
  panic_sites=$((panic_sites + n))
done
echo "check.sh: non-test panic sites in crates/relational: $panic_sites"
if [ "$panic_sites" -gt 33 ]; then
  echo "check.sh: crates/relational gained a non-test panic site (more than 33) — return a RelError instead" >&2
  exit 1
fi

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
