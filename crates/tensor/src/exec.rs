//! The workspace execution layer: a process-wide, size-capped worker pool
//! with deterministic partitioned dispatch, plus a reusable `f32` scratch
//! buffer pool.
//!
//! Every compute-heavy kernel in the workspace (`matmul`, `im2col`/`col2im`,
//! bilinear resize, pooling, the row-wise normalization kernels, the big
//! reductions) and every coarse experiment fan-out (Table 2 grid, Fig. 13a
//! sweep) dispatches through this module, so the thread budget of the whole
//! process is governed in exactly one place.
//!
//! # Determinism contract
//!
//! Results are bit-identical at any pool width:
//!
//! * [`Pool::par_rows`] partitions an output buffer into contiguous row
//!   spans. Each row is written by exactly one task using the same serial
//!   per-row code, so the partition (and therefore the worker count) cannot
//!   change a single bit of the output.
//! * [`Pool::par_tasks`] hands each index to exactly one worker; tasks must
//!   be independent (all call sites seed per-index RNGs), so scheduling
//!   order is unobservable.
//! * Reductions are chunked at a *fixed* chunk size (see
//!   [`Pool::par_partials`]): partials are computed per chunk and folded in
//!   chunk order, so the grouping — and hence the floating-point rounding —
//!   is a function of the data length only, never of the worker count.
//!
//! # Nesting
//!
//! Dispatch is depth-1: code already running inside a pool worker executes
//! nested dispatches serially. A Table 2 cell running under `par_tasks`
//! therefore trains on plain serial kernels, and the live thread count
//! never exceeds the pool width.
//!
//! # Configuration
//!
//! The width is read once, at first use, from `SOLO_THREADS` (default: the
//! machine's available parallelism, capped at [`MAX_WIDTH`]). Tests and
//! benches can override the width for the current thread with
//! [`with_threads`], which is how the determinism suite proves the
//! bit-identity claim inside one process.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Hard cap on the pool width, whatever `SOLO_THREADS` says.
pub const MAX_WIDTH: usize = 64;

/// Minimum estimated work (scalar ops) before a kernel fans out. Below
/// this, thread spawn/join overhead dominates and the serial path wins.
const MIN_PAR_WORK: usize = 400_000;

/// Buffers larger than this are dropped instead of pooled (16 MiB of f32).
const MAX_POOLED_ELEMS: usize = 1 << 22;

/// Maximum number of idle buffers retained by the pool.
const MAX_POOLED_BUFFERS: usize = 32;

thread_local! {
    /// Set while the current thread is executing inside a pool dispatch;
    /// forces nested dispatches onto the serial path.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread width override installed by [`with_threads`].
    static WIDTH_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide execution pool: a configured worker width plus the
/// scratch-buffer free list. Obtain it through [`pool`].
pub struct Pool {
    width: usize,
    buffers: BufferPool,
}

/// The process-wide pool, initialized on first use.
pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::from_env)
}

/// Runs `f` with the pool width overridden to `n` on the current thread.
///
/// This is the seam the determinism tests use to compare `n = 1` against a
/// wide pool inside a single process; it also lets benches measure the
/// serial baseline without re-spawning the process under `SOLO_THREADS=1`.
/// Nested overrides restore the previous value on exit (including on
/// panic).
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH_OVERRIDE.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(WIDTH_OVERRIDE.with(|w| w.replace(Some(n.max(1)))));
    f()
}

/// Takes a zeroed `f32` buffer of exactly `len` elements from the global
/// scratch pool, reusing a previously recycled allocation when one is
/// large enough.
pub fn take_buf(len: usize) -> Vec<f32> {
    pool().buffers.take("untagged", len)
}

/// Like [`take_buf`], but attributes the handout to `site` in the per-site
/// scratch accounting (see [`site_stats`]). Hot kernels tag their scratch so
/// the bench bin and the memory-regression tests can pin down exactly which
/// call site allocated what.
pub fn take_buf_at(site: &'static str, len: usize) -> Vec<f32> {
    pool().buffers.take(site, len)
}

/// Returns a buffer to the global scratch pool so a later [`take_buf`] can
/// reuse its allocation. Oversized buffers are dropped; see the caps on
/// `MAX_POOLED_ELEMS` and `MAX_POOLED_BUFFERS`.
pub fn recycle_buf(buf: Vec<f32>) {
    pool().buffers.give(buf);
}

/// Snapshot of the execution layer's instrumentation counters.
///
/// All counters are process-wide and monotonic except `live_bytes`; take a
/// snapshot before and after a region and subtract to measure it. Obtained
/// via [`stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Buffers handed out by [`take_buf`] / [`take_buf_at`].
    pub takes: u64,
    /// Handouts that reused a pooled allocation instead of hitting the
    /// system allocator.
    pub reuse_hits: u64,
    /// Total bytes handed out (4 × requested elements per take, whether or
    /// not the allocation was reused).
    pub taken_bytes: u64,
    /// Bytes currently outstanding: taken and not yet recycled. Buffers
    /// that leave the pool's custody for good (e.g. a result `Vec` moved
    /// into a tensor the caller keeps) stay counted until recycled, so this
    /// is an upper bound on pooled-scratch residency.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start.
    pub peak_live_bytes: u64,
    /// Explicit `Tensor::transpose()` materializations. The transpose-free
    /// training-step guarantee is asserted as a zero delta of this counter.
    pub transposes: u64,
}

/// Per-site scratch accounting for one `site` tag passed to
/// [`take_buf_at`]. Obtained via [`site_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteStats {
    /// The tag passed to [`take_buf_at`] (`"untagged"` for plain
    /// [`take_buf`]).
    pub site: &'static str,
    /// Buffers handed out at this site.
    pub takes: u64,
    /// Total bytes handed out at this site.
    pub total_bytes: u64,
    /// Largest single request at this site, in bytes (the per-site peak).
    pub peak_bytes: u64,
}

/// Explicit-transpose materializations, incremented by `Tensor::transpose`.
static TRANSPOSES: AtomicU64 = AtomicU64::new(0);

/// Records one explicit transpose materialization (called by
/// `Tensor::transpose`); visible in [`ExecStats::transposes`].
pub(crate) fn note_transpose() {
    TRANSPOSES.fetch_add(1, Ordering::Relaxed);
}

/// Returns a snapshot of the process-wide execution-layer counters.
pub fn stats() -> ExecStats {
    let mut snap = {
        let inner = lock(&pool().buffers.stats);
        inner.snapshot()
    };
    snap.transposes = TRANSPOSES.load(Ordering::Relaxed);
    snap
}

/// Returns the per-site scratch accounting, in first-use order.
pub fn site_stats() -> Vec<SiteStats> {
    let inner = lock(&pool().buffers.stats);
    inner
        .sites
        .iter()
        .map(|(site, c)| SiteStats {
            site,
            takes: c.takes,
            total_bytes: c.total_bytes,
            peak_bytes: c.peak_bytes,
        })
        .collect()
}

/// Total bytes handed out so far at one site (0 if the site never
/// allocated). Convenience over [`site_stats`] for test assertions.
pub fn site_total_bytes(site: &str) -> u64 {
    site_stats()
        .iter()
        .find(|s| s.site == site)
        .map_or(0, |s| s.total_bytes)
}

impl Pool {
    fn from_env() -> Pool {
        // lint:allow(D1): SOLO_THREADS is the single sanctioned env knob,
        // read exactly once at pool initialization (D1 waiver per DESIGN.md).
        let configured = std::env::var("SOLO_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let width = configured.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Pool {
            width: width.clamp(1, MAX_WIDTH),
            buffers: BufferPool::default(),
        }
    }

    /// The configured worker width (the `SOLO_THREADS` value, defaulted and
    /// capped). Per-thread overrides from [`with_threads`] are not
    /// reflected here; see [`Pool::effective_width`].
    pub fn width(&self) -> usize {
        self.width
    }

    /// The width dispatch will actually use on the current thread: 1 inside
    /// a worker (depth-1 nesting), else the [`with_threads`] override, else
    /// the configured width.
    pub fn effective_width(&self) -> usize {
        if IN_WORKER.with(Cell::get) {
            1
        } else {
            WIDTH_OVERRIDE
                .with(Cell::get)
                .map_or(self.width, |n| n.clamp(1, MAX_WIDTH))
        }
    }

    /// Deterministic row-partitioned dispatch over a mutable output buffer.
    ///
    /// `out` is treated as `out.len() / row_len` contiguous rows; `f(r,
    /// row)` is invoked exactly once per row with a disjoint mutable slice,
    /// in ascending row order within each worker's contiguous span. Because
    /// every row is produced by the same per-row code regardless of the
    /// partition, the result is bit-identical at any worker count.
    ///
    /// `work_per_row` is an estimate of scalar operations per row; the
    /// dispatch stays serial when `rows × work_per_row` is too small to
    /// amortize thread spawn/join.
    ///
    /// # Panics
    ///
    /// Panics if `out` is non-empty and `out.len()` is not a multiple of
    /// `row_len`, or if a row task panics (the panic is propagated).
    pub fn par_rows<T, F>(&self, out: &mut [T], row_len: usize, work_per_row: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Send + Sync,
    {
        self.par_row_spans(out, row_len, 1, work_per_row, |start, span| {
            for (i, row) in span.chunks_mut(row_len).enumerate() {
                f(start + i, row);
            }
        });
    }

    /// Deterministic span-partitioned dispatch: like [`Pool::par_rows`], but
    /// `f(first_row, span)` receives a whole contiguous *span* of rows per
    /// worker instead of one row at a time, and span boundaries are aligned
    /// to multiples of `block_rows` (except the final span, which may end
    /// ragged at the buffer's last row).
    ///
    /// This is the dispatch shape for kernels that tile across rows — the
    /// blocked GEMM processes `MR`-row register tiles, so its spans must
    /// start on an `MR` boundary for the packed-A panels to line up. The
    /// determinism contract is the caller's: `f` must compute each row
    /// identically whatever span it lands in (true for any kernel whose
    /// per-element work does not depend on neighbouring rows), in which
    /// case the result is bit-identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `out` is non-empty and `out.len()` is not a multiple of
    /// `row_len`, if `block_rows` is zero, or if a span task panics (the
    /// panic is propagated).
    pub fn par_row_spans<T, F>(
        &self,
        out: &mut [T],
        row_len: usize,
        block_rows: usize,
        work_per_row: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Send + Sync,
    {
        if out.is_empty() {
            return;
        }
        assert!(row_len > 0, "par_row_spans row_len must be nonzero");
        assert!(block_rows > 0, "par_row_spans block_rows must be nonzero");
        assert_eq!(
            out.len() % row_len,
            0,
            "par_row_spans buffer is not a whole number of rows"
        );
        let rows = out.len() / row_len;
        let blocks = rows.div_ceil(block_rows);
        let workers = self.effective_width().min(blocks);
        if workers <= 1 || rows.saturating_mul(work_per_row) < MIN_PAR_WORK {
            f(0, out);
            return;
        }
        let base = blocks / workers;
        let extra = blocks % workers;
        let result = crossbeam::thread::scope(|s| {
            let f = &f;
            let mut rest = out;
            let mut row0 = 0usize;
            for w in 0..workers {
                let span_blocks = base + usize::from(w < extra);
                let span_rows = (span_blocks * block_rows).min(rows - row0);
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(span_rows * row_len);
                rest = tail;
                let start = row0;
                row0 += span_rows;
                if w + 1 == workers {
                    // The caller works the last span instead of idling at
                    // the join.
                    run_as_worker(|| f(start, chunk));
                } else {
                    s.spawn(move |_| run_as_worker(|| f(start, chunk)));
                }
            }
        });
        // lint:allow(P1): the scope only errs when a span task panicked;
        // re-raising the panic is the only sound continuation.
        result.expect("exec pool span task panicked");
    }

    /// Cost-gated variant of [`Pool::par_tasks`]: stays on the serial path
    /// when `n × work_per_task` estimated scalar ops are too small to
    /// amortize thread spawn/join, exactly like the row dispatchers.
    ///
    /// Use this for fan-outs that appear on latency-sensitive paths with
    /// wildly varying task sizes (e.g. the per-head attention loop, where a
    /// unit-test layer has 2 tokens and a backbone layer has hundreds).
    pub fn par_tasks_costed<T, F>(&self, n: usize, work_per_task: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        if n.saturating_mul(work_per_task) < MIN_PAR_WORK {
            return (0..n).map(f).collect();
        }
        self.par_tasks(n, f)
    }

    /// Deterministic indexed task fan-out: runs `f(0..n)` across up to
    /// `effective_width` workers and returns the results in index order.
    ///
    /// Each index is claimed by exactly one worker from a shared counter,
    /// so every task runs once; tasks must not depend on execution order
    /// (seed per-index RNGs). This is the coarse-grained API the experiment
    /// drivers use for the Table 2 grid and the Fig. 13a sweep.
    pub fn par_tasks<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        let workers = self.effective_width().min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let result = crossbeam::thread::scope(|s| {
            let (f, next, slots) = (&f, &next, &slots);
            for _ in 1..workers {
                s.spawn(move |_| run_as_worker(|| task_loop(n, next, slots, f)));
            }
            run_as_worker(|| task_loop(n, next, slots, f));
        });
        // lint:allow(P1): the scope only errs when a task panicked;
        // re-raising the panic is the only sound continuation.
        result.expect("exec pool task panicked");
        slots
            .into_iter()
            .map(|slot| {
                let inner = slot.into_inner().unwrap_or_else(|e| e.into_inner());
                // lint:allow(P1): unreachable — the counter hands every
                // index to exactly one worker and the scope joined them all.
                inner.expect("every task index was claimed")
            })
            .collect()
    }

    /// Fixed-chunk parallel partials for reductions.
    ///
    /// Splits `0..len` into `⌈len / chunk⌉` spans of `chunk` elements (the
    /// last may be short), computes `f(start, end)` per span — possibly in
    /// parallel — and returns the partials in span order for the caller to
    /// fold serially. Because the chunk boundaries depend only on `len` and
    /// `chunk`, the folded result is identical at any worker count.
    pub fn par_partials<T, F>(&self, len: usize, chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Send + Sync,
    {
        assert!(chunk > 0, "par_partials chunk must be nonzero");
        let spans = len.div_ceil(chunk);
        self.par_tasks(spans, |c| {
            let start = c * chunk;
            f(start, (start + chunk).min(len))
        })
    }
}

fn task_loop<T, F: Fn(usize) -> T>(
    n: usize,
    next: &AtomicUsize,
    slots: &[Mutex<Option<T>>],
    f: &F,
) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let value = f(i);
        *lock(&slots[i]) = Some(value);
    }
}

/// Marks the current thread as a pool worker for the duration of `f`, so
/// nested dispatches stay serial. Restores the previous flag on exit.
fn run_as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
    f()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned lock only means another worker panicked; the panic is
    // propagated by the owning scope, so recovering the data here is sound.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A bounded free list of `f32` buffers so hot kernels reuse allocations
/// across calls instead of hitting the allocator per forward/backward.
///
/// Buffers are handed out zeroed (kernels rely on zero-initialized
/// accumulators), best-fit by capacity. The list is bounded both in count
/// and per-buffer size so a one-off huge temporary cannot pin memory.
#[derive(Default)]
struct BufferPool {
    free: Mutex<Vec<Vec<f32>>>,
    stats: Mutex<StatsInner>,
}

/// Mutable half of [`ExecStats`] plus the per-site table; guarded by
/// `BufferPool::stats` so take/give keep the counters coherent.
#[derive(Default)]
struct StatsInner {
    takes: u64,
    reuse_hits: u64,
    taken_bytes: u64,
    live_bytes: u64,
    peak_live_bytes: u64,
    sites: Vec<(&'static str, SiteCounters)>,
}

#[derive(Default, Clone, Copy)]
struct SiteCounters {
    takes: u64,
    total_bytes: u64,
    peak_bytes: u64,
}

impl StatsInner {
    fn snapshot(&self) -> ExecStats {
        ExecStats {
            takes: self.takes,
            reuse_hits: self.reuse_hits,
            taken_bytes: self.taken_bytes,
            live_bytes: self.live_bytes,
            peak_live_bytes: self.peak_live_bytes,
            transposes: 0,
        }
    }

    fn record_take(&mut self, site: &'static str, bytes: u64, reused: bool) {
        self.takes += 1;
        self.reuse_hits += u64::from(reused);
        self.taken_bytes += bytes;
        self.live_bytes += bytes;
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
        let counters = match self.sites.iter_mut().find(|(s, _)| *s == site) {
            Some((_, c)) => c,
            None => {
                self.sites.push((site, SiteCounters::default()));
                // lint:allow(P1): just pushed, the vector is non-empty.
                &mut self.sites.last_mut().expect("just pushed").1
            }
        };
        counters.takes += 1;
        counters.total_bytes += bytes;
        counters.peak_bytes = counters.peak_bytes.max(bytes);
    }

    fn record_give(&mut self, bytes: u64) {
        // Buffers constructed outside the pool may be recycled into it;
        // saturate rather than double-book them as negative residency.
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }
}

impl BufferPool {
    fn take(&self, site: &'static str, len: usize) -> Vec<f32> {
        let mut free = lock(&self.free);
        let mut best: Option<usize> = None;
        for (i, buf) in free.iter().enumerate() {
            if buf.capacity() >= len && best.is_none_or(|j| free[j].capacity() > buf.capacity()) {
                best = Some(i);
            }
        }
        let found = best.map(|i| free.swap_remove(i));
        drop(free);
        lock(&self.stats).record_take(site, 4 * len as u64, found.is_some());
        match found {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    fn give(&self, buf: Vec<f32>) {
        lock(&self.stats).record_give(4 * buf.len() as u64);
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_ELEMS {
            return;
        }
        let mut free = lock(&self.free);
        if free.len() < MAX_POOLED_BUFFERS {
            free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_rows_matches_serial_at_any_width() {
        let rows = 37;
        let cols = 19;
        let fill = |r: usize, row: &mut [f32]| {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (r * 31 + c) as f32 * 0.5;
            }
        };
        let mut serial = vec![0.0f32; rows * cols];
        with_threads(1, || pool().par_rows(&mut serial, cols, MIN_PAR_WORK, fill));
        for width in [2, 3, 8] {
            let mut wide = vec![0.0f32; rows * cols];
            with_threads(width, || {
                pool().par_rows(&mut wide, cols, MIN_PAR_WORK, fill)
            });
            assert_eq!(serial, wide, "width {width} diverged");
        }
    }

    #[test]
    fn par_rows_small_work_stays_serial_and_correct() {
        let mut out = vec![0.0f32; 8];
        with_threads(8, || {
            pool().par_rows(&mut out, 2, 1, |r, row| row[0] = r as f32)
        });
        assert_eq!(out, vec![0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn par_rows_empty_output_is_a_noop() {
        let mut out: Vec<f32> = Vec::new();
        pool().par_rows(&mut out, 0, 0, |_, _| unreachable!());
    }

    #[test]
    fn par_row_spans_aligns_spans_to_blocks() {
        // 37 rows in blocks of 4: at width 8 every span but the last must
        // start on a multiple of 4, and every row is visited exactly once.
        let rows = 37;
        let cols = 3;
        let starts = Mutex::new(Vec::new());
        let mut out = vec![0.0f32; rows * cols];
        with_threads(8, || {
            pool().par_row_spans(&mut out, cols, 4, MIN_PAR_WORK, |start, span| {
                lock(&starts).push((start, span.len() / cols));
                for (i, row) in span.chunks_mut(cols).enumerate() {
                    for v in row.iter_mut() {
                        *v += (start + i) as f32;
                    }
                }
            });
        });
        let mut starts = starts.into_inner().unwrap_or_else(|e| e.into_inner());
        starts.sort_unstable();
        let mut next = 0;
        for (start, len) in &starts {
            assert_eq!(*start, next, "span not contiguous");
            assert_eq!(start % 4, 0, "span start {start} not block-aligned");
            next = start + len;
        }
        assert_eq!(next, rows);
        for (r, row) in out.chunks(cols).enumerate() {
            assert!(row.iter().all(|&v| v == r as f32), "row {r} wrong");
        }
    }

    #[test]
    fn par_row_spans_serial_path_sees_whole_buffer() {
        let mut out = vec![0.0f32; 12];
        pool().par_row_spans(&mut out, 3, 2, 1, |start, span| {
            assert_eq!(start, 0);
            assert_eq!(span.len(), 12);
            span[0] = 5.0;
        });
        assert_eq!(out[0], 5.0);
    }

    #[test]
    fn par_tasks_costed_gates_on_work() {
        // Tiny work stays serial (observable via effective_width inside).
        let widths = with_threads(4, || {
            pool().par_tasks_costed(4, 1, |_| pool().effective_width())
        });
        assert!(
            widths.iter().all(|&w| w == 4),
            "small work should stay on the caller thread: {widths:?}"
        );
        let widths = with_threads(4, || {
            pool().par_tasks_costed(4, MIN_PAR_WORK, |_| pool().effective_width())
        });
        assert!(
            widths.iter().all(|&w| w == 1),
            "large work should fan out: {widths:?}"
        );
    }

    #[test]
    fn par_tasks_returns_results_in_index_order() {
        for width in [1, 2, 7] {
            let got = with_threads(width, || pool().par_tasks(23, |i| i * i));
            let want: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn par_partials_boundaries_depend_on_len_only() {
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
        let fold = |width: usize| {
            with_threads(width, || {
                pool()
                    .par_partials(data.len(), 1024, |a, b| data[a..b].iter().sum::<f32>())
                    .iter()
                    .sum::<f32>()
            })
        };
        let one = fold(1);
        for width in [2, 4, 16] {
            assert_eq!(one.to_bits(), fold(width).to_bits(), "width {width}");
        }
    }

    #[test]
    fn nested_dispatch_runs_serially() {
        let depths = with_threads(4, || pool().par_tasks(4, |_| pool().effective_width()));
        // Inside a worker the effective width collapses to 1.
        assert!(depths.iter().all(|&w| w == 1), "{depths:?}");
    }

    #[test]
    fn with_threads_restores_previous_override() {
        with_threads(3, || {
            assert_eq!(pool().effective_width(), 3);
            with_threads(5, || assert_eq!(pool().effective_width(), 5));
            assert_eq!(pool().effective_width(), 3);
        });
    }

    #[test]
    fn buffer_pool_reuses_capacity_and_zeroes() {
        let mut buf = take_buf(256);
        buf.iter_mut().for_each(|v| *v = 7.0);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        recycle_buf(buf);
        let again = take_buf(128);
        // Best-fit may hand a different buffer under concurrent tests, but
        // the returned buffer must always be zeroed and long enough.
        assert_eq!(again.len(), 128);
        assert!(again.iter().all(|&v| v == 0.0));
        let _ = (ptr, cap);
    }

    #[test]
    fn stats_track_takes_and_site_peaks() {
        let before = stats();
        let buf = take_buf_at("exec.test_site", 64);
        let mid = stats();
        // Other tests in the binary share the counters, so assert deltas
        // as lower bounds only.
        assert!(mid.takes >= before.takes + 1);
        assert!(mid.taken_bytes >= before.taken_bytes + 256);
        assert!(mid.peak_live_bytes >= 256);
        recycle_buf(buf);
        let site = site_stats()
            .into_iter()
            .find(|s| s.site == "exec.test_site")
            .expect("tagged site recorded");
        assert!(site.takes >= 1);
        assert!(site.peak_bytes >= 256);
        assert!(site_total_bytes("exec.test_site") >= 256);
        assert_eq!(site_total_bytes("exec.never_used"), 0);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let huge = vec![0.0f32; MAX_POOLED_ELEMS + 1];
        recycle_buf(huge); // must not panic or pin memory
        let fresh = take_buf(4);
        assert_eq!(fresh.len(), 4);
    }
}
