//! Opt-in data parallelism over chunked row ranges, on std scoped threads.
//!
//! The crate stays dependency-free: no rayon, no thread pool — each
//! [`map_chunks`] call splits `[0, n)` into fixed-size chunks and fans the
//! chunk closures out over `std::thread::scope` workers; [`fill_chunks`]
//! does the same over one caller-owned row-major output buffer.
//!
//! # The fixed-chunk reduction contract
//!
//! Every parallel hot path in the workspace (logreg batch gradients, TF-IDF
//! vectorisation, the Dawid–Skene E/M-steps, the glasso column sweep, LF
//! application, covariance assembly) routes through [`map_chunks`] under
//! the same three rules, which together make whole training trajectories
//! *machine-independent*:
//!
//! 1. **Chunk boundaries are a pure function of the problem.** They depend
//!    only on `(n, chunk)`, where `chunk` is a compile-time constant of the
//!    kernel — never on the core count, the thread budget, or load. The
//!    same input always produces the same chunks on every machine.
//! 2. **Grouping-sensitive arithmetic is always chunked.** A kernel whose
//!    reduction depends on float grouping (e.g. a gradient sum) accumulates
//!    per-chunk partials and folds them in chunk-index order *in the serial
//!    path too*. Serial execution means "all chunks on the calling thread",
//!    not "a different summation order".
//! 3. **[`Execution`] is a scheduling hint only.** Chunk results come back
//!    in chunk-index order regardless of which worker produced them, so a
//!    sequential fold over [`map_chunks`] output is *bitwise identical*
//!    whether the chunks ran on one thread or sixty-four, with any thread
//!    override in [`Execution::Parallel`].
//!
//! Consequently a session seeded on a laptop replays bit-for-bit on a
//! 64-core server: thread count can change *when* a chunk runs, never
//! *what* it computes or *how* partials combine. The workspace-level
//! `tests/determinism.rs` harness pins this for every kernel (serial vs
//! parallel across thread counts and adversarial chunk sizes) and for a
//! full `Engine` trajectory.
//!
//! Thread count: an explicit [`Execution::Parallel`] `threads` override
//! wins, then `ADP_NUM_THREADS` when set (an operator override, honoured
//! up to 64), else `available_parallelism()` capped at 8 — the kernels
//! here saturate memory bandwidth long before high core counts pay off, so
//! the *default* stays conservative.

use std::ops::Range;
use std::sync::OnceLock;

/// How a [`map_chunks`] call may schedule its chunks.
///
/// Per the module-level contract this is purely a scheduling hint: the
/// chunk decomposition — and therefore every bit of the result — is
/// identical across all variants and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// Run every chunk on the calling thread.
    Serial,
    /// Fan chunks out over scoped worker threads.
    Parallel {
        /// Worker-thread override for this call (clamped to `1..=64`);
        /// `None` uses the process-wide [`max_threads`] budget. Used by the
        /// determinism harness to sweep thread counts inside one process.
        threads: Option<usize>,
    },
}

impl Execution {
    /// [`Execution::Parallel`] with the default thread budget.
    pub fn parallel() -> Self {
        Execution::Parallel { threads: None }
    }

    /// [`Execution::Parallel`] pinned to exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Execution::Parallel {
            threads: Some(threads),
        }
    }
}

/// Worker-thread budget (see module docs): `ADP_NUM_THREADS` verbatim
/// (clamped to 1..=64) when set, else auto-detected and capped at 8.
pub fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("ADP_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.clamp(1, 64);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8)
    })
}

/// [`Execution::Parallel`] (default budget) when `n` is at least
/// `min_parallel` items and the machine has threads to spare;
/// [`Execution::Serial`] otherwise. Callers pick `min_parallel` so
/// thread-spawn overhead can't dominate.
pub fn auto(n: usize, min_parallel: usize) -> Execution {
    if n >= min_parallel && max_threads() > 1 {
        Execution::parallel()
    } else {
        Execution::Serial
    }
}

/// Splits `[0, n)` into `ceil(n / chunk)` consecutive ranges.
pub fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    (0..n.div_ceil(chunk))
        .map(|c| c * chunk..((c + 1) * chunk).min(n))
        .collect()
}

/// Applies `f` to every chunk of `[0, n)` and returns the per-chunk results
/// in chunk-index order. Under [`Execution::Parallel`] the chunks are
/// distributed over scoped threads in contiguous blocks; the output order
/// (and therefore any sequential reduction over it) is identical either
/// way.
pub fn map_chunks<T, F>(n: usize, chunk: usize, exec: Execution, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(n, chunk);
    let threads = workers(exec, ranges.len());
    if threads <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(ranges.len()).collect();
    let per_thread = ranges.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest: &mut [Option<T>] = &mut results;
        let mut start = 0;
        while start < ranges.len() {
            let take = per_thread.min(ranges.len() - start);
            let (mine, tail) = rest.split_at_mut(take);
            rest = tail;
            let my_ranges = &ranges[start..start + take];
            start += take;
            scope.spawn(move || {
                for (slot, r) in mine.iter_mut().zip(my_ranges) {
                    *slot = Some(f(r.clone()));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every chunk ran"))
        .collect()
}

/// Worker threads for `n_chunks` chunks under `exec`.
fn workers(exec: Execution, n_chunks: usize) -> usize {
    match exec {
        Execution::Serial => 1,
        Execution::Parallel { threads } => threads
            .map(|t| t.clamp(1, 64))
            .unwrap_or_else(max_threads)
            .min(n_chunks),
    }
}

/// Fills `out`, a row-major buffer of `width` values per item, chunk by
/// chunk: `f(range, block)` writes the items `range` into `block`, their
/// `range.len() × width` slice of `out`. The chunks and their threads are
/// [`map_chunks`]'s, but the caller owns the one output buffer, so the
/// workers allocate nothing per item. Each item must be a pure function
/// of its index for the result to be the same at every thread count.
///
/// # Panics
/// Panics when `width` is zero or does not divide `out.len()`.
pub fn fill_chunks<T, F>(out: &mut [T], width: usize, chunk: usize, exec: Execution, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(
        width > 0 && out.len() % width == 0,
        "fill_chunks: {} values are not rows of width {width}",
        out.len()
    );
    let ranges = chunk_ranges(out.len() / width, chunk);
    let block = chunk.max(1) * width;
    let threads = workers(exec, ranges.len());
    if threads <= 1 {
        for (r, part) in ranges.iter().zip(out.chunks_mut(block)) {
            f(r.clone(), part);
        }
        return;
    }
    let per_thread = ranges.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        for (mine, part) in ranges
            .chunks(per_thread)
            .zip(out.chunks_mut(per_thread * block))
        {
            scope.spawn(move || {
                for (r, part) in mine.iter().zip(part.chunks_mut(block)) {
                    f(r.clone(), part);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition_exactly() {
        for (n, chunk) in [(0, 4), (1, 4), (4, 4), (5, 4), (1000, 128), (7, 1)] {
            let ranges = chunk_ranges(n, chunk);
            let mut covered = 0;
            for (k, r) in ranges.iter().enumerate() {
                assert_eq!(r.start, covered, "n={n} chunk={chunk}");
                assert!(!r.is_empty());
                assert!(r.len() <= chunk.max(1));
                if k + 1 < ranges.len() {
                    assert_eq!(r.len(), chunk.max(1));
                }
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        // A reduction whose result depends on grouping: summing 1/(i+1)
        // chunk-wise. Serial and parallel must group identically.
        let n = 100_000;
        let run = |exec| {
            map_chunks(n, 1024, exec, |r| {
                r.map(|i| 1.0 / (i as f64 + 1.0)).sum::<f64>()
            })
            .into_iter()
            .fold(0.0_f64, |acc, x| acc + x)
        };
        let serial = run(Execution::Serial);
        let parallel = run(Execution::parallel());
        assert!(
            serial.to_bits() == parallel.to_bits(),
            "serial {serial:e} != parallel {parallel:e}"
        );
        // A thread override changes scheduling, never the bits.
        for threads in [1, 2, 3, 7, 64] {
            let pinned = run(Execution::with_threads(threads));
            assert_eq!(serial.to_bits(), pinned.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn results_come_back_in_chunk_order() {
        let ids = map_chunks(100, 7, Execution::parallel(), |r| r.start);
        let expected: Vec<usize> = (0..100usize.div_ceil(7)).map(|c| c * 7).collect();
        assert_eq!(ids, expected);
        let pinned = map_chunks(100, 7, Execution::with_threads(3), |r| r.start);
        assert_eq!(pinned, expected);
    }

    #[test]
    fn fill_chunks_writes_every_row_at_every_thread_count() {
        let (n, width) = (1000, 3);
        let fill = |exec| {
            let mut out = vec![0.0f64; n * width];
            fill_chunks(&mut out, width, 64, exec, |r, block| {
                assert_eq!(block.len(), r.len() * width);
                for (i, row) in r.zip(block.chunks_mut(width)) {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = (i * width + c) as f64;
                    }
                }
            });
            out
        };
        let expected: Vec<f64> = (0..n * width).map(|k| k as f64).collect();
        assert_eq!(fill(Execution::Serial), expected);
        for threads in [1, 2, 3, 7, 64] {
            assert_eq!(fill(Execution::with_threads(threads)), expected);
        }
        let mut empty: Vec<f64> = vec![];
        fill_chunks(&mut empty, 2, 8, Execution::parallel(), |_, _| {
            panic!("no chunk to fill")
        });
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let out = map_chunks(0, 16, Execution::parallel(), |_| 1u8);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_override_is_clamped() {
        // 0 threads clamps to 1 (serial path), a huge override to 64; both
        // must produce the full chunk-ordered result.
        let a = map_chunks(50, 3, Execution::with_threads(0), |r| r.len());
        let b = map_chunks(50, 3, Execution::with_threads(10_000), |r| r.len());
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<usize>(), 50);
    }

    #[test]
    fn auto_respects_threshold() {
        assert_eq!(auto(10, 1000), Execution::Serial);
        if max_threads() > 1 {
            assert_eq!(auto(10_000, 1000), Execution::parallel());
        }
    }
}
