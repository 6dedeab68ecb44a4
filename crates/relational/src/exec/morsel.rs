//! Morsel-driven parallel kernels and the work-stealing scheduler behind
//! the executor's parallel path.
//!
//! # Morsels
//!
//! A *morsel* is a contiguous range of at most [`MORSEL_SIZE`] input rows
//! (by default). Morsel boundaries depend only on the input's layout —
//! its length, or for a scan the lengths of the windows it arrived as —
//! and the configured morsel size, **never** on the thread count or on
//! scheduling order, so every run over the same input produces the same
//! morsels. Each kernel here processes morsels independently and merges
//! the per-morsel partial results **strictly in morsel-index order**,
//! which is what makes parallel output byte-identical to serial output:
//!
//! * `run_windows` cuts morsels over a *list* of windows — a scan's
//!   zero-copy chunk windows, dead rows included (a slice skips them) —
//!   never across a window boundary, and returns per-morsel output in
//!   window order: exactly the serial row order, because morsels
//!   are contiguous ranges of consecutive windows. The fused pipeline and
//!   the join probe run on it. (The lane kernels of `exec::blocking` —
//!   join build, aggregation, sort — apply the same rule through
//!   `run_tasks` over one gathered input.)
//! * `par_pivot` cuts its morsels the same way and merges per-morsel wide
//!   rows entity-by-entity in morsel order, by lane key hash: first-seen
//!   entity slots match the serial kernel, and later non-null cells
//!   overwrite earlier ones just as later rows overwrite in a serial pass.
//!
//! Fallible kernels keep **error parity** with the serial path: the error
//! from the lowest-index failing morsel wins, and within a morsel rows are
//! processed in order, so the reported error is the one the globally first
//! failing row raises — the same error the serial executor (and the
//! materializing oracle) reports.
//!
//! # Scheduler
//!
//! `run_tasks` is a small work-stealing scheduler over
//! [`std::thread::scope`]. Morsel indices are split into per-worker
//! contiguous ranges, each guarded by a mutex. A worker pops from the
//! front of its own range; when empty it sweeps its peers and steals the
//! back half of the first non-empty range it finds, parking the remainder
//! in its own (empty) queue so other thieves can steal from it in turn.
//! Results land in per-morsel slots, so nothing about scheduling order is
//! observable in the output. The mutexes are uncontended in the common
//! case — a steal happens once per range imbalance, not once per morsel.

use super::batch::RowRef;
use super::blocking::PivotSlots;
use super::{Executor, BATCH_SIZE};
use crate::error::RelResult;
use crate::schema::Schema;
use crate::table::Row;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Rows per morsel. Matches the executor's batch size so a morsel is one
/// batch worth of work — big enough to amortize scheduling, small enough
/// to rebalance skewed pipelines (a selective filter makes some morsels
/// much cheaper than others).
pub const MORSEL_SIZE: usize = 1024;

/// How many times the work-stealing scheduler has run in this process.
static SCHEDULER_RUNS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of work-stealing scheduler invocations.
///
/// Purely diagnostic: tests and benchmarks read it before and after an
/// evaluation to observe whether the parallel path actually ran (e.g. that
/// a one-thread executor or a sub-threshold input stayed serial). Monotone
/// and racy-by-design; compare deltas, not absolute values, and serialize
/// tests that assert on it.
pub fn scheduler_runs() -> u64 {
    SCHEDULER_RUNS.load(Ordering::Relaxed)
}

/// Number of morsels covering `rows` input rows.
pub(super) fn n_morsels(rows: usize, morsel: usize) -> usize {
    rows.div_ceil(morsel.max(1))
}

/// Half-open row range `[lo, hi)` of morsel `i`.
pub(super) fn morsel_bounds(i: usize, rows: usize, morsel: usize) -> (usize, usize) {
    let m = morsel.max(1);
    (i * m, usize::min((i + 1) * m, rows))
}

/// One worker's pending morsel indices: a contiguous half-open range
/// `[next, end)` behind a mutex. The owner pops from the front; thieves
/// take the back half. Ranges only ever shrink or move wholesale, so no
/// index can be claimed twice.
struct WorkerQueue {
    range: Mutex<(usize, usize)>,
}

impl WorkerQueue {
    fn pop_front(&self) -> Option<usize> {
        let mut r = self.range.lock().unwrap();
        if r.0 < r.1 {
            let i = r.0;
            r.0 += 1;
            Some(i)
        } else {
            None
        }
    }

    /// Detach the back half of the pending range (rounded up), for a thief.
    fn steal_back_half(&self) -> Option<(usize, usize)> {
        let mut r = self.range.lock().unwrap();
        let avail = r.1 - r.0;
        if avail == 0 {
            return None;
        }
        let take = avail.div_ceil(2);
        let stolen = (r.1 - take, r.1);
        r.1 -= take;
        Some(stolen)
    }
}

/// Next morsel for worker `w`: own queue first, then steal. A stolen range
/// is parked in the worker's own (necessarily empty) queue so that other
/// thieves can steal from it in turn.
fn next_task(w: usize, queues: &[WorkerQueue]) -> Option<usize> {
    if let Some(i) = queues[w].pop_front() {
        return Some(i);
    }
    for (v, q) in queues.iter().enumerate() {
        if v == w {
            continue;
        }
        if let Some((lo, hi)) = q.steal_back_half() {
            if lo + 1 < hi {
                *queues[w].range.lock().unwrap() = (lo + 1, hi);
            }
            return Some(lo);
        }
    }
    None
}

/// Run `f(0..n_tasks)` on up to `threads` scoped workers with work
/// stealing, returning the results **indexed by task** — scheduling order
/// is unobservable. With one effective worker (or one task) this runs
/// inline on the caller's thread without touching the scheduler.
pub(super) fn run_tasks<T, F>(n_tasks: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(n_tasks);
    if threads <= 1 {
        return (0..n_tasks).map(f).collect();
    }
    SCHEDULER_RUNS.fetch_add(1, Ordering::Relaxed);
    let queues: Vec<WorkerQueue> = (0..threads)
        .map(|w| WorkerQueue {
            range: Mutex::new((n_tasks * w / threads, n_tasks * (w + 1) / threads)),
        })
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let queues = &queues;
                let slots = &slots;
                let f = &f;
                scope.spawn(move || {
                    while let Some(i) = next_task(w, queues) {
                        let out = f(i);
                        *slots[i].lock().unwrap() = Some(out);
                    }
                })
            })
            .collect();
        // Join each worker before returning. The scope's own wait ends when
        // the closures finish, while the threads may still be exiting; the
        // next kernel's workers then find the allocator's per-thread arenas
        // still attached and make new ones, each keeping its freed memory
        // (`study_batch` `peak_rss_mb` read 189–227 MiB with 4–5 arenas
        // against ~151 MiB with 2, 2-core host). A worker's panic goes on
        // as it was raised.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker panics propagate through scope")
                .expect("scheduler ran every morsel")
        })
        .collect()
}

/// Cut windows of the given lengths into `(window, lo, hi)` slices of at
/// most `size` rows each, in window order; no slice spans two windows and
/// an empty window yields none.
fn window_slices(lens: &[usize], size: usize) -> Vec<(usize, usize, usize)> {
    let mut slices = Vec::new();
    for (w, &len) in lens.iter().enumerate() {
        for m in 0..n_morsels(len, size) {
            let (lo, hi) = morsel_bounds(m, len, size);
            slices.push((w, lo, hi));
        }
    }
    slices
}

/// Run `f(w, lo, hi)` over every slice `lo..hi` of the windows of
/// physical lengths `lens` — the batches a scan (or any child) produced,
/// window `w` of them — and return what each slice made with its window,
/// in window order. Morsel-parallel — slices of at most
/// [`Executor::morsel_size`] rows on the work-stealing scheduler — when
/// the windows *together* clear the parallel threshold; otherwise
/// batch-sized slices inline, stopping at the first error. Either way the
/// error reported is the one of the lowest failing slice, and `f` reports
/// the first failing row within a slice, so it is the error of the
/// globally first failing row — what a single serial pass (and the
/// materializing oracle) reports.
pub(super) fn run_windows<T: Send>(
    lens: &[usize],
    cfg: Executor,
    f: impl Fn(usize, usize, usize) -> RelResult<T> + Sync,
) -> RelResult<Vec<(usize, T)>> {
    let parallel = cfg.parallel_for(lens.iter().sum());
    let size = if parallel {
        cfg.morsel_size
    } else {
        BATCH_SIZE
    };
    let slices = window_slices(lens, size);
    let run = |t: usize| {
        let (w, lo, hi) = slices[t];
        f(w, lo, hi).map(|out| (w, out))
    };
    if parallel {
        run_tasks(slices.len(), cfg.threads, run)
            .into_iter()
            .collect()
    } else {
        (0..slices.len()).map(run).collect()
    }
}

/// Pivot a list of windows of physical lengths `lens` morsel-parallel:
/// `kernel(window, lo, hi)`
/// pivots each slice (`blocking::PivotKernel::pivot_into`) into slots of
/// its own, then the partial wide rows merge entity-by-entity in slice
/// order, found by the lane key hash each slot already carries
/// ([`PivotSlots::merge`]) — first-seen entity order and last-write-wins
/// cells match the serial kernel.
pub(super) fn par_pivot<'k>(
    lens: &[usize],
    cfg: Executor,
    kernel: impl Fn(usize, usize, usize) -> RelResult<PivotSlots<'k>> + Sync,
) -> RelResult<Vec<Row>> {
    let slices = window_slices(lens, cfg.morsel_size);
    let parts = run_tasks(slices.len(), cfg.threads, |t| {
        let (w, lo, hi) = slices[t];
        kernel(w, lo, hi)
    });
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Ok(Vec::new());
    };
    let mut out = first?;
    for part in parts {
        out.merge(part?);
    }
    Ok(out.into_rows())
}

/// Validate rows against `schema` morsel-parallel (union NOT NULL
/// re-checks). Each morsel checks its rows in order and the lowest-index
/// failing morsel's error wins, so the reported violation is the one the
/// globally first offending row raises — same as a serial check.
pub(super) fn par_check_rows<R: RowRef>(
    rows: &[R],
    schema: &Schema,
    cfg: Executor,
) -> RelResult<()> {
    let parts = run_tasks(n_morsels(rows.len(), cfg.morsel_size), cfg.threads, |m| {
        let (lo, hi) = morsel_bounds(m, rows.len(), cfg.morsel_size);
        rows[lo..hi]
            .iter()
            .try_for_each(|r| schema.check_row(r.as_ref()))
    });
    for part in parts {
        part?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_partition_exactly() {
        for (rows, morsel) in [(0, 4), (1, 4), (4, 4), (5, 4), (4099, 1024)] {
            let n = n_morsels(rows, morsel);
            let mut next = 0;
            for m in 0..n {
                let (lo, hi) = morsel_bounds(m, rows, morsel);
                assert_eq!(lo, next, "gap before morsel {m}");
                assert!(hi > lo, "empty morsel {m}");
                next = hi;
            }
            assert_eq!(next, rows, "morsels must cover all {rows} rows");
        }
    }

    #[test]
    fn run_tasks_results_are_task_indexed() {
        for threads in [1, 2, 3, 8] {
            let out = run_tasks(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert_eq!(run_tasks(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn stealing_covers_skewed_queues() {
        // One task is vastly slower than the rest; every index must still
        // appear exactly once regardless of which worker ends up with it.
        let out = run_tasks(64, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn scheduler_counter_moves_only_when_parallel() {
        // The counter is process-wide and other tests of this binary run
        // parallel plans concurrently, so one moved reading proves
        // nothing; inline runs are shown by finding a window in which the
        // counter stood still across them. If they did touch the
        // scheduler, no such window exists.
        let quiet = (0..200).any(|_| {
            let before = scheduler_runs();
            run_tasks(8, 1, |i| i); // serial: inline, no scheduler
            run_tasks(1, 8, |i| i); // one task: inline, no scheduler
            scheduler_runs() == before
        });
        assert!(quiet, "inline runs bumped the scheduler counter");
    }

    #[test]
    fn window_slices_never_span_windows() {
        let lens = [0, 1, BATCH_SIZE + 1, 0, 1];
        for size in [1, 7] {
            let slices = window_slices(&lens, size);
            // Per window: contiguous cover of exactly its rows, in order.
            for (w, &len) in lens.iter().enumerate() {
                let mut next = 0;
                for &(_, lo, hi) in slices.iter().filter(|s| s.0 == w) {
                    assert_eq!(lo, next, "size {size}, window {w}");
                    assert!(hi > lo && hi - lo <= size, "size {size}, window {w}");
                    next = hi;
                }
                assert_eq!(next, len, "size {size}, window {w}");
            }
            // Across windows: window order.
            assert!(slices.windows(2).all(|p| p[0].0 <= p[1].0));
            assert_eq!(
                slices.len(),
                lens.iter().map(|&l| n_morsels(l, size)).sum::<usize>()
            );
        }
    }

    #[test]
    fn run_windows_keeps_window_order_and_first_error() {
        use crate::error::RelError;
        // Windows of 0, 1 and BATCH_SIZE + 1 rows; a slice reports
        // (window, lo, hi).
        let lens = [0, 1, BATCH_SIZE + 1];
        let serial = Executor::new().threads(1);
        for size in [1, 7] {
            let parallel = Executor {
                threads: 3,
                parallel_threshold: 1,
                morsel_size: size,
            };
            for cfg in [serial, parallel] {
                let limit = if cfg.threads > 1 { size } else { BATCH_SIZE };
                let out = run_windows(&lens, cfg, |w, lo, hi| {
                    assert!(lo < hi && hi - lo <= limit && hi <= lens[w]);
                    Ok((lo, hi))
                })
                .unwrap();
                // Every row of every window once, in window order.
                let mut next = (1, 0);
                for (w, (lo, hi)) in out {
                    if next.1 == lens[next.0] {
                        next = (next.0 + 1, 0);
                    }
                    assert_eq!((w, lo), next);
                    next.1 = hi;
                }
                assert_eq!(
                    next,
                    (2, BATCH_SIZE + 1),
                    "size {size}, {} threads",
                    cfg.threads
                );
                // Every slice fails: the error of window 1 (the earlier
                // rows) must be the one reported.
                let err = run_windows(&lens, cfg, |w, lo, _| -> RelResult<()> {
                    Err(RelError::Eval(format!("row {w}.{lo}")))
                })
                .expect_err("every slice fails");
                assert_eq!(err, RelError::Eval("row 1.0".into()));
                // And within a window, the lowest failing slice wins.
                let err = run_windows(&lens, cfg, |_, lo, hi| {
                    if hi > 500 {
                        Err(RelError::Eval(format!("row {}", lo.max(500))))
                    } else {
                        Ok(())
                    }
                })
                .expect_err("every slice fails");
                assert_eq!(err, RelError::Eval("row 500".into()));
            }
        }
    }
}
