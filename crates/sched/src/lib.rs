//! OpenMP-style data-parallel scheduling over `crossbeam` scoped threads.
//!
//! The P-Tucker paper (Section III-D) parallelizes three sections with
//! OpenMP and is explicit about the *scheduling policy* of each:
//!
//! * cache-table construction and error computation use **static**
//!   scheduling (uniform work per element), and
//! * factor-row updates use **dynamic** scheduling, because the work for row
//!   `iₙ` is proportional to `|Ω⁽ⁿ⁾ᵢₙ|`, which is heavily skewed in real
//!   tensors. Section IV-D measures dynamic scheduling to be ~1.5× faster
//!   than a naive static split on MovieLens.
//!
//! This crate reproduces both policies with safe Rust:
//!
//! * [`Schedule::Static`] assigns each of `T` workers one contiguous block,
//!   exactly like `schedule(static)`.
//! * [`Schedule::Dynamic`] lets workers pull fixed-size chunks from a shared
//!   atomic counter, exactly like `schedule(dynamic, chunk)`. The row
//!   sweep ([`parallel_rows_mut_scheduled`]) treats the chunk as an upper
//!   bound and clamps it to `ceil(rows / (4·workers))`, so a mode with few
//!   rows is still served as at least four claims per worker.
//!
//! Six entry points cover the paper's needs: [`parallel_for`] (indexed
//! side-effect-free tasks), [`parallel_reduce`] (e.g. summing squared errors;
//! its static arm is the fallible block runner [`try_reduce_blocks`])
//! and [`parallel_rows_mut`] (updating disjoint rows of a row-major matrix
//! in place, which is exactly the row-wise ALS update), plus the
//! per-thread-state variants [`parallel_rows_mut_with`] and
//! [`parallel_reduce_with`], which hand every worker a caller-owned state
//! (a scratch arena, an accumulator) so hot loops run without allocating,
//! and [`parallel_rows_mut_balanced`] — static scheduling whose contiguous
//! blocks are balanced by a per-row **weight** (`|Ω⁽ⁿ⁾ᵢ|` for the row
//! update) via [`weighted_blocks`], so skew no longer needs a dynamic
//! queue.
//!
//! ```
//! use ptucker_sched::{parallel_reduce, Schedule};
//!
//! // Sum of squares of 0..1000 on 4 threads.
//! let s = parallel_reduce(
//!     1000,
//!     4,
//!     Schedule::Dynamic { chunk: 64 },
//!     || 0u64,
//!     |acc, i| acc + (i as u64) * (i as u64),
//!     |a, b| a + b,
//! );
//! assert_eq!(s, (0..1000u64).map(|i| i * i).sum());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A dedicated background worker thread processing requests in FIFO order
/// — the I/O half of a double-buffered pipeline.
///
/// The out-of-core fit path uses one of these per windowed sweeper: the
/// main thread submits "refill this buffer from the scratch file" requests
/// and computes on the *other* buffer while the worker reads, overlapping
/// window I/O with the row sweep. The type is deliberately generic (any
/// `Send` request/response) so other producers — a future shard
/// all-reduce, asynchronous artifact writers — can reuse it.
///
/// Requests own everything they need (buffers move through the channel and
/// come back in the response), so the worker holds no borrows and the
/// thread is `'static`. Dropping the `Background` closes the request
/// channel, lets the worker drain what is in flight, and joins it.
///
/// ```
/// use ptucker_sched::Background;
///
/// let worker = Background::spawn(|x: u64| x * 2);
/// worker.submit(21).unwrap();
/// assert_eq!(worker.recv(), Some(42));
/// ```
#[derive(Debug)]
pub struct Background<Req: Send + 'static, Resp: Send + 'static> {
    tx: Option<mpsc::Sender<Req>>,
    rx: mpsc::Receiver<Resp>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl<Req: Send + 'static, Resp: Send + 'static> Background<Req, Resp> {
    /// Spawns the worker thread running `f` on every submitted request,
    /// responses delivered in submission order.
    pub fn spawn<F>(mut f: F) -> Self
    where
        F: FnMut(Req) -> Resp + Send + 'static,
    {
        let (tx, req_rx) = mpsc::channel::<Req>();
        let (resp_tx, rx) = mpsc::channel::<Resp>();
        let handle = std::thread::spawn(move || {
            while let Ok(req) = req_rx.recv() {
                // A closed response channel means the owner is gone;
                // finish quietly.
                if resp_tx.send(f(req)).is_err() {
                    break;
                }
            }
        });
        Background {
            tx: Some(tx),
            rx,
            handle: Some(handle),
        }
    }

    /// Queues a request for the worker. Returns `Err` with the request if
    /// the worker thread has died (it never does unless `f` panicked).
    pub fn submit(&self, req: Req) -> Result<(), Req> {
        match self.tx.as_ref().expect("sender lives until drop").send(req) {
            Ok(()) => Ok(()),
            Err(mpsc::SendError(req)) => Err(req),
        }
    }

    /// Blocks until the next response arrives; `None` if the worker died
    /// with requests outstanding.
    pub fn recv(&self) -> Option<Resp> {
        self.rx.recv().ok()
    }

    /// Waits up to `timeout` for the next response — the deadline-aware
    /// sibling of [`Background::recv`]. A timed-out wait leaves the
    /// response in flight: a later `recv`/`recv_timeout` still collects
    /// it, so callers can probe liveness (heartbeats) without losing the
    /// outstanding request.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> RecvTimeout<Resp> {
        match self.rx.recv_timeout(timeout) {
            Ok(resp) => RecvTimeout::Ready(resp),
            Err(mpsc::RecvTimeoutError::Timeout) => RecvTimeout::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => RecvTimeout::Disconnected,
        }
    }
}

/// Outcome of a [`Background::recv_timeout`] wait.
#[derive(Debug)]
pub enum RecvTimeout<Resp> {
    /// A response arrived within the deadline.
    Ready(Resp),
    /// The deadline elapsed with the worker still running; the response
    /// (if any) is still in flight and can be collected later.
    TimedOut,
    /// The worker thread is gone and no further responses will arrive.
    Disconnected,
}

impl<Req: Send + 'static, Resp: Send + 'static> Drop for Background<Req, Resp> {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Work-distribution policy, mirroring OpenMP's `schedule` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Each thread receives one contiguous block of iterations
    /// (`schedule(static)`): lowest overhead, poor balance under skew.
    Static,
    /// Threads repeatedly claim `chunk` iterations from a shared counter
    /// (`schedule(dynamic, chunk)`): balances skewed workloads.
    Dynamic {
        /// Number of iterations claimed per steal. Must be ≥ 1; a value of
        /// 0 is treated as 1.
        chunk: usize,
    },
}

impl Schedule {
    /// The dynamic policy with a reasonable default chunk for row updates.
    /// The chunk is an upper bound there: [`parallel_rows_mut_scheduled`]
    /// shrinks it on modes too short to give every worker four claims.
    pub fn dynamic() -> Self {
        Schedule::Dynamic { chunk: 8 }
    }

    /// The documented `chunk: 0 ⇒ chunk: 1` clamp, applied as a value
    /// transformation. Every consumption site in this crate normalizes its
    /// schedule through this method before partitioning work, so the clamp
    /// is enforced uniformly rather than re-implemented per entry point.
    #[inline]
    #[must_use]
    pub fn normalized(self) -> Self {
        match self {
            Schedule::Dynamic { chunk } => Schedule::Dynamic {
                chunk: chunk.max(1),
            },
            Schedule::Static => Schedule::Static,
        }
    }
}

/// Splits `n` rows into at most `t` contiguous blocks of near-equal
/// **total weight**, where `weight(i)` is the cost of row `i` (for the
/// P-Tucker row update: `|Ω⁽ⁿ⁾ᵢ|`, the row's observed-entry count).
///
/// This is the static answer to the load-imbalance problem the paper's
/// Section III-D solves with dynamic scheduling: real tensors have heavily
/// skewed slice sizes, so equal-*row-count* blocks leave some workers with
/// most of the nonzeros. Equal-*weight* blocks restore balance while
/// keeping static scheduling's zero queue contention and contiguous memory
/// walk — which is exactly what the streamed slice layout wants.
///
/// Guarantees:
/// * the returned blocks are contiguous, disjoint and cover `0..n` exactly;
/// * every block is non-empty (so there are `min(t, n)` blocks — never an
///   empty degenerate chunk);
/// * all-zero weights degrade to the equal-row-count [`static_block`]
///   partition.
pub fn weighted_blocks(n: usize, t: usize, weight: impl Fn(usize) -> usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let t = t.max(1).min(n);
    let total: usize = (0..n).map(&weight).sum();
    if total == 0 {
        return (0..t).map(|b| static_block(n, t, b)).collect();
    }
    let mut blocks = Vec::with_capacity(t);
    let mut start = 0usize;
    let mut cum = 0usize;
    for b in 0..t - 1 {
        // Cumulative-weight target for the end of block b, reached by
        // walking whole rows (so a block overshoots by at most one row).
        let target = ((b + 1) * total + t / 2) / t;
        // Leave at least one row for each of the remaining blocks.
        let max_end = n - (t - 1 - b);
        let mut end = start;
        while end < max_end && (end == start || cum < target) {
            cum += weight(end);
            end += 1;
        }
        blocks.push((start, end));
        start = end;
    }
    // The last block takes everything left (trailing zero-weight rows
    // included), which is what makes coverage exact by construction.
    blocks.push((start, n));
    blocks
}

/// Splits `n` iterations into `t` contiguous blocks of near-equal size.
/// Returns `(start, end)` for block `b`. Exposed for tests and for the
/// baselines' static partitioning.
pub fn static_block(n: usize, t: usize, b: usize) -> (usize, usize) {
    debug_assert!(t > 0 && b < t);
    let base = n / t;
    let rem = n % t;
    // First `rem` blocks get one extra element.
    let start = b * base + b.min(rem);
    let len = base + usize::from(b < rem);
    (start, (start + len).min(n))
}

/// Effective thread count: at least 1, at most `n` (no idle spawns).
fn effective_threads(threads: usize, n: usize) -> usize {
    threads.max(1).min(n.max(1))
}

/// Runs `f(i)` for every `i in 0..n` using `threads` workers under the given
/// schedule. `f` must be safe to call concurrently on distinct indices.
pub fn parallel_for<F>(n: usize, threads: usize, schedule: Schedule, f: F)
where
    F: Fn(usize) + Sync,
{
    if n == 0 {
        return;
    }
    let t = effective_threads(threads, n);
    if t == 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    match schedule.normalized() {
        Schedule::Static => {
            crossbeam::scope(|s| {
                for b in 0..t {
                    let (lo, hi) = static_block(n, t, b);
                    let f = &f;
                    s.spawn(move |_| {
                        for i in lo..hi {
                            f(i);
                        }
                    });
                }
            })
            .expect("worker panicked in parallel_for(static)");
        }
        Schedule::Dynamic { chunk } => {
            let counter = AtomicUsize::new(0);
            crossbeam::scope(|s| {
                for _ in 0..t {
                    let f = &f;
                    let counter = &counter;
                    s.spawn(move |_| loop {
                        let lo = counter.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        let hi = (lo + chunk).min(n);
                        for i in lo..hi {
                            f(i);
                        }
                    });
                }
            })
            .expect("worker panicked in parallel_for(dynamic)");
        }
    }
}

/// The static-schedule reduction with a **fallible block body**: worker `b`
/// runs `block(init(), static_block(n, t, b))` — handed its whole block as
/// a range, so the body can stream it through a cursor it owns — and the
/// partials combine from `init()` in ascending worker order (one effective
/// thread returns its block's result as is). A pure function of
/// `(n, threads)` and the closures: bitwise reproducible run to run. The
/// engine of [`parallel_reduce`]'s static arm and of the fit's
/// whole-tensor passes, whose entries may sit on disk.
///
/// # Errors
/// The first failed block's error in worker order, after all have joined.
pub fn try_reduce_blocks<T, E, I, B, C>(
    n: usize,
    threads: usize,
    init: I,
    block: B,
    combine: C,
) -> Result<T, E>
where
    T: Send,
    E: Send,
    I: Fn() -> T + Sync,
    B: Fn(T, std::ops::Range<usize>) -> Result<T, E> + Sync,
    C: Fn(T, T) -> T,
{
    let t = effective_threads(threads, n);
    if t == 1 {
        return block(init(), 0..n);
    }
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..t).map(|_| Mutex::new(None)).collect();
    crossbeam::scope(|s| {
        for (b, slot) in slots.iter().enumerate() {
            let (lo, hi) = static_block(n, t, b);
            let (init, block) = (&init, &block);
            s.spawn(move |_| *slot.lock() = Some(block(init(), lo..hi)));
        }
    })
    .expect("worker panicked in try_reduce_blocks");
    let mut acc = init();
    for slot in slots {
        let part = slot.into_inner().expect("every worker fills its slot")?;
        acc = combine(acc, part);
    }
    Ok(acc)
}

/// Parallel fold-then-combine over `0..n`.
///
/// Each worker folds its share with `fold` starting from `init()`; partial
/// results are merged with `combine`. This is how P-Tucker computes the
/// reconstruction error (Section III-D: "each thread computes the error
/// separately ... at the end, P-TUCKER aggregates the partial error").
///
/// Partials land in **worker-indexed slots and combine in ascending worker
/// order**, never in completion order. Under [`Schedule::Static`] worker
/// `b` folds exactly [`static_block`]`(n, t, b)` ([`try_reduce_blocks`]), so
/// the result is a pure function of `(n, threads)` and the closures — bitwise
/// reproducible run to run at every thread count, floating-point sums
/// included. Under [`Schedule::Dynamic`] which indices a worker claims is
/// still a race, so only order-insensitive combines are reproducible there.
pub fn parallel_reduce<T, I, F, C>(
    n: usize,
    threads: usize,
    schedule: Schedule,
    init: I,
    fold: F,
    combine: C,
) -> T
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(T, usize) -> T + Sync,
    C: Fn(T, T) -> T,
{
    let t = effective_threads(threads, n);
    let chunk = match schedule.normalized() {
        Schedule::Dynamic { chunk } if t > 1 => chunk,
        // Static — and the one-worker case of either schedule, which is
        // the same sequential fold.
        _ => {
            let folded = try_reduce_blocks(
                n,
                threads,
                init,
                |acc, block| Ok::<T, std::convert::Infallible>(block.fold(acc, &fold)),
                combine,
            );
            return match folded {
                Ok(acc) => acc,
                Err(never) => match never {},
            };
        }
    };
    let slots: Vec<Mutex<Option<T>>> = (0..t).map(|_| Mutex::new(None)).collect();
    let counter = AtomicUsize::new(0);
    crossbeam::scope(|s| {
        for slot in &slots {
            let init = &init;
            let fold = &fold;
            let counter = &counter;
            s.spawn(move |_| {
                let mut acc = init();
                loop {
                    let lo = counter.fetch_add(chunk, Ordering::Relaxed);
                    if lo >= n {
                        break;
                    }
                    let hi = (lo + chunk).min(n);
                    for i in lo..hi {
                        acc = fold(acc, i);
                    }
                }
                *slot.lock() = Some(acc);
            });
        }
    })
    .expect("worker panicked in parallel_reduce(dynamic)");
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every worker fills its slot"))
        .fold(init(), combine)
}

/// Updates the rows of a row-major matrix in parallel and in place.
///
/// `data` is interpreted as `data.len() / row_len` rows of length `row_len`;
/// worker threads receive disjoint `&mut` row slices, so no synchronization
/// is needed inside `f`. This is the exact shape of P-Tucker's "Section 2"
/// parallelism: all rows of `A⁽ⁿ⁾` are independent of each other, so the rows
/// are distributed across threads and updated concurrently.
///
/// Under [`Schedule::Dynamic`], rows are handed out in chunks from a shared
/// queue so that skewed per-row costs stay balanced; under
/// [`Schedule::Static`] each thread takes one contiguous block of rows.
///
/// # Panics
/// Panics if `row_len == 0` or `data.len() % row_len != 0`.
pub fn parallel_rows_mut<T, F>(
    data: &mut [T],
    row_len: usize,
    threads: usize,
    schedule: Schedule,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    // Stateless rows are the `S = ()` case of the per-thread-state variant.
    let mut states = vec![(); threads.max(1)];
    parallel_rows_mut_with(
        data,
        row_len,
        threads,
        schedule,
        &mut states,
        |_, i, row| f(i, row),
    );
}

/// [`parallel_rows_mut`] with **reusable per-thread state**: worker `b`
/// receives exclusive access to `states[b]` and hands it to every row
/// closure it runs. This is the zero-allocation backbone of the P-Tucker
/// row update: the caller allocates one scratch arena per thread *once per
/// fit*, and every row of every mode of every iteration reuses them —
/// nothing is allocated inside the loop.
///
/// `states` must hold at least `min(threads, n_rows).max(1)` entries;
/// surplus entries are left untouched. Which rows fold into which state
/// depends on the schedule, so states must be combinable independent of
/// assignment (scratch buffers trivially are).
///
/// # Panics
/// Panics if `row_len == 0`, `data.len() % row_len != 0`, or `states` is
/// shorter than the effective worker count.
pub fn parallel_rows_mut_with<T, S, F>(
    data: &mut [T],
    row_len: usize,
    threads: usize,
    schedule: Schedule,
    states: &mut [S],
    f: F,
) where
    T: Send,
    S: Send,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(
        data.len() % row_len,
        0,
        "data length must be a multiple of row_len"
    );
    let n_rows = data.len() / row_len;
    if n_rows == 0 {
        return;
    }
    let t = effective_threads(threads, n_rows);
    assert!(
        states.len() >= t,
        "need at least {t} per-thread states, got {}",
        states.len()
    );
    if t == 1 {
        let state = &mut states[0];
        for (i, row) in data.chunks_mut(row_len).enumerate() {
            f(state, i, row);
        }
        return;
    }
    match schedule.normalized() {
        Schedule::Static => {
            let blocks: Vec<(usize, usize)> = (0..t).map(|b| static_block(n_rows, t, b)).collect();
            run_row_blocks(data, row_len, &blocks, states, &f);
        }
        Schedule::Dynamic { chunk } => {
            // Pre-split into chunk-sized groups of rows behind a queue.
            let mut groups: Vec<(usize, &mut [T])> = Vec::new();
            let mut rest = data;
            let mut row_cursor = 0;
            while !rest.is_empty() {
                let rows_here = chunk.min(rest.len() / row_len);
                let (head, tail) = rest.split_at_mut(rows_here * row_len);
                groups.push((row_cursor, head));
                rest = tail;
                row_cursor += rows_here;
            }
            // Reverse so pop() serves groups in ascending row order.
            groups.reverse();
            let queue = Mutex::new(groups);
            crossbeam::scope(|s| {
                for state in states.iter_mut().take(t) {
                    let f = &f;
                    let queue = &queue;
                    s.spawn(move |_| loop {
                        let next = queue.lock().pop();
                        match next {
                            Some((first_row, block)) => {
                                for (k, row) in block.chunks_mut(row_len).enumerate() {
                                    f(state, first_row + k, row);
                                }
                            }
                            None => break,
                        }
                    });
                }
            })
            .expect("worker panicked in parallel_rows_mut(dynamic)");
        }
    }
}

/// Runs one worker per pre-computed contiguous row block: the shared
/// backbone of [`parallel_rows_mut_with`]'s static arm and
/// [`parallel_rows_mut_balanced`].
fn run_row_blocks<T, S, F>(
    data: &mut [T],
    row_len: usize,
    blocks: &[(usize, usize)],
    states: &mut [S],
    f: &F,
) where
    T: Send,
    S: Send,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(blocks.len());
    let mut rest = data;
    for &(lo, hi) in blocks {
        let (head, tail) = rest.split_at_mut((hi - lo) * row_len);
        parts.push((lo, head));
        rest = tail;
    }
    crossbeam::scope(|s| {
        for ((first_row, block), state) in parts.into_iter().zip(states.iter_mut()) {
            s.spawn(move |_| {
                for (k, row) in block.chunks_mut(row_len).enumerate() {
                    f(state, first_row + k, row);
                }
            });
        }
    })
    .expect("worker panicked in run_row_blocks");
}

/// [`parallel_rows_mut_with`] under **nnz-balanced static scheduling**: rows
/// are split into contiguous blocks of near-equal total `weight` (see
/// [`weighted_blocks`]) instead of near-equal row count. For the P-Tucker
/// row update, `weight(i) = |Ω⁽ⁿ⁾ᵢ|` makes a static sweep balanced under
/// the slice-size skew of real tensors — the problem the paper's dynamic
/// scheduling exists to solve — without a shared work queue.
///
/// Worker `b` receives `states[b]` and the `b`-th block; which rows land in
/// which block depends only on the weights, so results are deterministic
/// for a given `(weights, threads)` — and, because rows are independent,
/// identical to any other schedule's.
///
/// # Panics
/// Panics if `row_len == 0`, `data.len() % row_len != 0`, or `states` is
/// shorter than the effective worker count.
pub fn parallel_rows_mut_balanced<S, F>(
    data: &mut [f64],
    row_len: usize,
    threads: usize,
    weight: impl Fn(usize) -> usize,
    states: &mut [S],
    f: F,
) where
    S: Send,
    F: Fn(&mut S, usize, &mut [f64]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(
        data.len() % row_len,
        0,
        "data length must be a multiple of row_len"
    );
    let n_rows = data.len() / row_len;
    if n_rows == 0 {
        return;
    }
    let t = effective_threads(threads, n_rows);
    assert!(
        states.len() >= t,
        "need at least {t} per-thread states, got {}",
        states.len()
    );
    if t == 1 {
        let state = &mut states[0];
        for (i, row) in data.chunks_mut(row_len).enumerate() {
            f(state, i, row);
        }
        return;
    }
    let blocks = weighted_blocks(n_rows, t, weight);
    run_row_blocks(data, row_len, &blocks, states, &f);
}

/// Schedule-dispatching row sweep: [`Schedule::Static`] routes to
/// [`parallel_rows_mut_balanced`] with the given per-row `weight`
/// (nnz-balanced contiguous blocks), [`Schedule::Dynamic`] to
/// [`parallel_rows_mut_with`]'s chunked queue, its chunk clamped to
/// `ceil(rows / (4·workers))` (never below 1, never above the requested
/// chunk) so a short mode still splits into at least four claims per
/// worker. This is the one place the engine-style "static means
/// weight-balanced, dynamic means enough claims to balance" policy lives,
/// so every row loop (P-Tucker, CP-ALS, …) dispatches identically.
///
/// # Panics
/// As [`parallel_rows_mut_balanced`] / [`parallel_rows_mut_with`].
pub fn parallel_rows_mut_scheduled<S, F>(
    data: &mut [f64],
    row_len: usize,
    threads: usize,
    schedule: Schedule,
    weight: impl Fn(usize) -> usize,
    states: &mut [S],
    f: F,
) where
    S: Send,
    F: Fn(&mut S, usize, &mut [f64]) + Sync,
{
    match schedule.normalized() {
        Schedule::Static => parallel_rows_mut_balanced(data, row_len, threads, weight, states, f),
        Schedule::Dynamic { chunk } => {
            let n_rows = data.len() / row_len.max(1);
            let chunk = balanced_chunk(chunk, n_rows, effective_threads(threads, n_rows));
            let dynamic = Schedule::Dynamic { chunk };
            parallel_rows_mut_with(data, row_len, threads, dynamic, states, f)
        }
    }
}

/// The dynamic row sweep's chunk for `n_rows` rows on `workers` workers:
/// the requested `chunk`, but never more than `ceil(n_rows / (4·workers))`
/// (and never below 1), so every worker can expect at least four claims.
/// A fixed chunk sized for long modes starves a short one — 24 rows in
/// chunks of 8 are three claims, which two workers split 16 : 8. Rows are
/// independent, so the clamp moves no bit of any result.
fn balanced_chunk(chunk: usize, n_rows: usize, workers: usize) -> usize {
    chunk.min(n_rows.div_ceil(4 * workers.max(1))).max(1)
}

/// Fold-only companion of [`parallel_reduce`] with **caller-provided
/// per-worker states**: worker `b` folds the indices it claims into
/// `states[b]` via `fold(&mut states[b], i)`; combining the states (and
/// reusing them across calls) is the caller's business. This is how the
/// S-HOT baseline reuses its `O(J^{N-1})` accumulators across subspace
/// sweeps instead of reallocating them per reduction.
///
/// `states` must hold at least `min(threads, n).max(1)` entries. Under
/// [`Schedule::Dynamic`] the index→state assignment is nondeterministic, so
/// per-state partial results must be combinable in any assignment (sums,
/// maxima, …); under [`Schedule::Static`] worker `b` always receives the
/// `b`-th contiguous block.
///
/// # Panics
/// Panics if `states` is shorter than the effective worker count.
pub fn parallel_reduce_with<S, F>(
    n: usize,
    threads: usize,
    schedule: Schedule,
    states: &mut [S],
    fold: F,
) where
    S: Send,
    F: Fn(&mut S, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let t = effective_threads(threads, n);
    assert!(
        states.len() >= t,
        "need at least {t} per-thread states, got {}",
        states.len()
    );
    if t == 1 {
        let state = &mut states[0];
        for i in 0..n {
            fold(state, i);
        }
        return;
    }
    match schedule.normalized() {
        Schedule::Static => {
            crossbeam::scope(|s| {
                for (b, state) in states.iter_mut().take(t).enumerate() {
                    let (lo, hi) = static_block(n, t, b);
                    let fold = &fold;
                    s.spawn(move |_| {
                        for i in lo..hi {
                            fold(state, i);
                        }
                    });
                }
            })
            .expect("worker panicked in parallel_reduce_with(static)");
        }
        Schedule::Dynamic { chunk } => {
            let counter = AtomicUsize::new(0);
            crossbeam::scope(|s| {
                for state in states.iter_mut().take(t) {
                    let fold = &fold;
                    let counter = &counter;
                    s.spawn(move |_| loop {
                        let lo = counter.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        let hi = (lo + chunk).min(n);
                        for i in lo..hi {
                            fold(state, i);
                        }
                    });
                }
            })
            .expect("worker panicked in parallel_reduce_with(dynamic)");
        }
    }
}

/// A growable set of detached-until-joined worker threads with
/// incremental reaping — the connection-thread registry of a long-lived
/// server, where [`Background`]'s one-thread/FIFO shape does not fit.
///
/// A server accepts connections for as long as it runs; each gets its
/// own thread, and finished threads must be *joined* (not leaked) without
/// blocking the accept loop on the still-running ones. [`ThreadSet::reap`]
/// joins exactly the threads that have already exited — called once per
/// accept-loop turn it keeps the set's size proportional to the number of
/// *live* connections — and [`ThreadSet::join_all`] drains everything at
/// shutdown. Worker panics are counted, never propagated: one misbehaving
/// connection must not take the listener down.
///
/// ```
/// use ptucker_sched::ThreadSet;
///
/// let mut set = ThreadSet::new();
/// for i in 0..4 {
///     set.spawn(move || { let _ = i * i; });
/// }
/// let panicked = set.join_all();
/// assert_eq!(panicked, 0);
/// ```
#[derive(Debug, Default)]
pub struct ThreadSet {
    handles: Vec<std::thread::JoinHandle<()>>,
    panicked: usize,
}

impl ThreadSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawns `f` on a new thread tracked by this set.
    pub fn spawn<F: FnOnce() + Send + 'static>(&mut self, f: F) {
        self.handles.push(std::thread::spawn(f));
    }

    /// Number of threads not yet joined (running or finished-but-unreaped).
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True when every spawned thread has been joined.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Joins every thread that has already finished, without blocking on
    /// the ones still running. Returns how many were reaped. Panicked
    /// workers are absorbed into [`ThreadSet::panics`].
    pub fn reap(&mut self) -> usize {
        let before = self.handles.len();
        let mut i = 0;
        while i < self.handles.len() {
            if self.handles[i].is_finished() {
                if self.handles.swap_remove(i).join().is_err() {
                    self.panicked += 1;
                }
            } else {
                i += 1;
            }
        }
        before - self.handles.len()
    }

    /// Blocks until every tracked thread has exited and joins them all.
    /// Returns the total panic count observed over the set's lifetime.
    pub fn join_all(mut self) -> usize {
        self.drain();
        self.panicked
    }

    /// Total workers that exited by panicking, across all reaps so far.
    pub fn panics(&self) -> usize {
        self.panicked
    }

    fn drain(&mut self) {
        for h in self.handles.drain(..) {
            if h.join().is_err() {
                self.panicked += 1;
            }
        }
    }
}

impl Drop for ThreadSet {
    /// Joins any threads still tracked, so dropping the set cannot leak
    /// running workers past their owner.
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn static_block_partitions_exactly() {
        for n in [0usize, 1, 7, 16, 100, 101] {
            for t in [1usize, 2, 3, 7, 16] {
                let mut covered = vec![false; n];
                let mut prev_end = 0;
                for b in 0..t {
                    let (lo, hi) = static_block(n, t, b);
                    assert_eq!(lo, prev_end, "blocks must be contiguous");
                    prev_end = hi;
                    for slot in covered.iter_mut().take(hi).skip(lo) {
                        assert!(!*slot);
                        *slot = true;
                    }
                }
                assert_eq!(prev_end, n);
                assert!(covered.iter().all(|&c| c));
            }
        }
    }

    #[test]
    fn static_block_sizes_differ_by_at_most_one() {
        let n = 103;
        let t = 10;
        let sizes: Vec<usize> = (0..t)
            .map(|b| {
                let (lo, hi) = static_block(n, t, b);
                hi - lo
            })
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
        assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    #[test]
    fn parallel_for_touches_every_index_once() {
        for sched in [Schedule::Static, Schedule::Dynamic { chunk: 3 }] {
            let n = 1000;
            let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            parallel_for(n, 4, sched, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn parallel_for_zero_and_single() {
        parallel_for(0, 4, Schedule::Static, |_| panic!("must not run"));
        let hit = AtomicU64::new(0);
        parallel_for(1, 8, Schedule::dynamic(), |_| {
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_reduce_matches_serial() {
        for sched in [Schedule::Static, Schedule::Dynamic { chunk: 16 }] {
            for threads in [1, 2, 4, 8] {
                let got = parallel_reduce(
                    10_000,
                    threads,
                    sched,
                    || 0.0f64,
                    |acc, i| acc + (i as f64).sqrt(),
                    |a, b| a + b,
                );
                let want: f64 = (0..10_000).map(|i| (i as f64).sqrt()).sum();
                assert!((got - want).abs() < 1e-6, "t={threads}: {got} vs {want}");
            }
        }
    }

    /// Static partials combine block-ascending, whatever order the workers
    /// finish in: an order-*sensitive* combine (list concatenation) must
    /// reproduce `0..n` exactly, with the early blocks made the slowest.
    #[test]
    fn static_reduce_combines_in_block_order() {
        for threads in [2, 3, 4, 7] {
            for _ in 0..10 {
                let got = parallel_reduce(
                    100,
                    threads,
                    Schedule::Static,
                    Vec::new,
                    |mut acc: Vec<usize>, i| {
                        if i < 100 / threads {
                            std::thread::yield_now();
                        }
                        acc.push(i);
                        acc
                    },
                    |mut a, b| {
                        a.extend(b);
                        a
                    },
                );
                assert_eq!(got, (0..100).collect::<Vec<_>>(), "t={threads}");
            }
        }
    }

    #[test]
    fn parallel_reduce_empty_returns_init() {
        let got = parallel_reduce(0, 4, Schedule::Static, || 42, |a, _| a + 1, |a, b| a + b);
        assert_eq!(got, 42);
    }

    /// A failed block is reported only after every worker ran, and when
    /// several fail the caller sees the lowest worker's error — the
    /// outcome does not depend on which thread lost the race.
    #[test]
    fn try_reduce_blocks_reports_the_first_failed_block_in_worker_order() {
        let ran = AtomicUsize::new(0);
        let got: Result<usize, usize> = try_reduce_blocks(
            100,
            4,
            || 0usize,
            |acc, block| {
                ran.fetch_add(1, Ordering::Relaxed);
                let b = block.start / 25;
                if b % 2 == 1 {
                    Err(b)
                } else {
                    Ok(acc + block.len())
                }
            },
            |a, b| a + b,
        );
        assert_eq!(got, Err(1));
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        let ok: Result<usize, ()> =
            try_reduce_blocks(100, 4, || 0, |acc, b| Ok(acc + b.len()), |a, b| a + b);
        assert_eq!(ok, Ok(100));
    }

    #[test]
    fn rows_mut_updates_each_row_once() {
        for sched in [Schedule::Static, Schedule::Dynamic { chunk: 2 }] {
            for threads in [1, 3, 8] {
                let rows = 37;
                let cols = 5;
                let mut data = vec![0.0; rows * cols];
                parallel_rows_mut(&mut data, cols, threads, sched, |i, row| {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v += (i * cols + j) as f64;
                    }
                });
                for (k, v) in data.iter().enumerate() {
                    assert_eq!(*v, k as f64, "row data incorrect at {k}");
                }
            }
        }
    }

    #[test]
    fn rows_mut_skewed_workload_correct() {
        // Row i does work proportional to i to simulate |Ω_i| skew; verify
        // results are still exact under dynamic scheduling.
        let rows = 64;
        let mut data = vec![0.0; rows * 2];
        parallel_rows_mut(&mut data, 2, 4, Schedule::Dynamic { chunk: 1 }, |i, row| {
            let mut acc = 0.0;
            for k in 0..(i * 50) {
                acc += (k as f64).sin();
            }
            row[0] = i as f64;
            row[1] = acc;
        });
        for i in 0..rows {
            assert_eq!(data[i * 2], i as f64);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of row_len")]
    fn rows_mut_bad_row_len_panics() {
        let mut data = vec![0.0; 7];
        parallel_rows_mut(&mut data, 2, 2, Schedule::Static, |_, _| {});
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let n = 3;
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(n, 64, Schedule::Dynamic { chunk: 10 }, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dynamic_chunk_zero_treated_as_one() {
        let hit = AtomicU64::new(0);
        parallel_for(10, 2, Schedule::Dynamic { chunk: 0 }, |_| {
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn normalized_clamps_zero_chunk_only() {
        assert_eq!(
            Schedule::Dynamic { chunk: 0 }.normalized(),
            Schedule::Dynamic { chunk: 1 }
        );
        assert_eq!(
            Schedule::Dynamic { chunk: 7 }.normalized(),
            Schedule::Dynamic { chunk: 7 }
        );
        assert_eq!(Schedule::Static.normalized(), Schedule::Static);
    }

    /// Regression: the documented "chunk 0 is treated as 1" clamp must hold
    /// at *every* consumption site, not just `parallel_for`. A chunk of 0
    /// fed to the shared counter would spin forever (fetch_add(0) never
    /// advances), so each of these completing proves the clamp.
    #[test]
    fn dynamic_chunk_zero_clamped_at_every_entry_point() {
        let zero = Schedule::Dynamic { chunk: 0 };

        // parallel_reduce
        let sum = parallel_reduce(100, 3, zero, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(sum, 99 * 100 / 2);

        // parallel_rows_mut
        let mut data = vec![0.0; 20 * 3];
        parallel_rows_mut(&mut data, 3, 4, zero, |i, row| {
            row.fill(i as f64);
        });
        for i in 0..20 {
            assert_eq!(data[i * 3], i as f64);
        }

        // parallel_rows_mut_with
        let mut data = vec![0.0; 20 * 2];
        let mut states = vec![0usize; 4];
        parallel_rows_mut_with(&mut data, 2, 4, zero, &mut states, |count, i, row| {
            *count += 1;
            row.fill(i as f64 + 1.0);
        });
        assert_eq!(states.iter().sum::<usize>(), 20);
        assert!(data.iter().all(|&v| v > 0.0));

        // parallel_reduce_with
        let mut states = vec![0u64; 4];
        parallel_reduce_with(100, 4, zero, &mut states, |acc, i| *acc += i as u64);
        assert_eq!(states.iter().sum::<u64>(), 99 * 100 / 2);
    }

    #[test]
    fn rows_mut_with_reuses_states_across_calls() {
        // The engine's pattern: one pool, many sweeps, zero reallocation.
        let mut states: Vec<Vec<f64>> = (0..3).map(|_| Vec::with_capacity(8)).collect();
        let capacities: Vec<usize> = states.iter().map(Vec::capacity).collect();
        for sweep in 0..5 {
            let mut data = vec![0.0; 16 * 4];
            parallel_rows_mut_with(
                &mut data,
                4,
                3,
                Schedule::Dynamic { chunk: 2 },
                &mut states,
                |scratch, i, row| {
                    scratch.clear();
                    scratch.resize(4, i as f64);
                    row.copy_from_slice(scratch);
                },
            );
            for i in 0..16 {
                assert_eq!(data[i * 4], i as f64, "sweep {sweep}");
            }
        }
        // Buffers were reused, not regrown.
        for (s, cap) in states.iter().zip(&capacities) {
            assert_eq!(s.capacity(), *cap);
        }
    }

    #[test]
    fn rows_mut_with_static_assigns_contiguous_blocks() {
        let mut data = vec![0.0; 12 * 2];
        let mut states: Vec<Vec<usize>> = vec![Vec::new(); 3];
        parallel_rows_mut_with(
            &mut data,
            2,
            3,
            Schedule::Static,
            &mut states,
            |seen, i, _| {
                seen.push(i);
            },
        );
        let mut all: Vec<usize> = states.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
        for seen in &states {
            for w in seen.windows(2) {
                assert_eq!(w[1], w[0] + 1, "static blocks must be contiguous");
            }
        }
    }

    #[test]
    fn reduce_with_matches_parallel_reduce() {
        for sched in [Schedule::Static, Schedule::Dynamic { chunk: 16 }] {
            for threads in [1, 2, 4] {
                let want = parallel_reduce(
                    5_000,
                    threads,
                    sched,
                    || 0.0f64,
                    |acc, i| acc + (i as f64).sqrt(),
                    |a, b| a + b,
                );
                let mut states = vec![0.0f64; threads];
                parallel_reduce_with(5_000, threads, sched, &mut states, |acc, i| {
                    *acc += (i as f64).sqrt();
                });
                let got: f64 = states.iter().sum();
                assert!((got - want).abs() < 1e-6, "t={threads}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn reduce_with_zero_n_is_noop() {
        let mut states: Vec<u64> = vec![];
        parallel_reduce_with(0, 4, Schedule::Static, &mut states, |_, _| {
            panic!("must not run")
        });
    }

    #[test]
    #[should_panic(expected = "per-thread states")]
    fn rows_mut_with_too_few_states_panics() {
        let mut data = vec![0.0; 8];
        let mut states = vec![0u8; 1];
        parallel_rows_mut_with(&mut data, 2, 4, Schedule::Static, &mut states, |_, _, _| {});
    }

    #[test]
    fn weighted_blocks_cover_exactly_with_no_empty_chunks() {
        // Skewed, uniform, zero and spiky weight shapes.
        let shapes: Vec<Vec<usize>> = vec![
            (0..64).collect(),                        // linear skew
            vec![1; 37],                              // uniform
            vec![0; 12],                              // all zero
            vec![0, 0, 100, 0, 0, 0, 1, 1, 0, 0],     // one heavy row
            vec![5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9], // heavy ends, zero middle
        ];
        for w in shapes {
            let n = w.len();
            for t in [1usize, 2, 3, 5, 16, 64] {
                let blocks = weighted_blocks(n, t, |i| w[i]);
                assert_eq!(blocks.len(), t.min(n).max(usize::from(n > 0)));
                let mut next = 0;
                for &(lo, hi) in &blocks {
                    assert_eq!(lo, next, "blocks must be contiguous");
                    assert!(hi > lo, "empty chunk ({lo}, {hi}) for w={w:?} t={t}");
                    next = hi;
                }
                assert_eq!(next, n, "blocks must cover all rows");
            }
        }
        assert!(weighted_blocks(0, 4, |_| 1).is_empty());
    }

    #[test]
    fn weighted_blocks_balance_skewed_weights() {
        // Row i weighs i: equal-count blocks would give the last worker
        // ~7/16 of the work; weighted blocks keep every worker near 1/4.
        let n = 256;
        let total: usize = (0..n).sum();
        let blocks = weighted_blocks(n, 4, |i| i);
        // Each boundary lands within one row weight of its cumulative
        // target, so every block is within 2·max_weight of fair share.
        let fair = total / 4;
        let max_w = n - 1;
        for &(lo, hi) in &blocks {
            let w: usize = (lo..hi).sum();
            assert!(
                w <= fair + 2 * max_w && w + 2 * max_w >= fair,
                "block ({lo},{hi}) weight {w} vs fair {fair}"
            );
        }
    }

    #[test]
    fn rows_mut_balanced_matches_unweighted_results() {
        // Rows are independent, so any partition must produce identical
        // data; balanced scheduling only changes who computes what.
        let rows = 41;
        let cols = 3;
        let weights: Vec<usize> = (0..rows).map(|i| (i * 7) % 13).collect();
        for threads in [1usize, 2, 4, 8] {
            let mut a = vec![0.0; rows * cols];
            let mut b = vec![0.0; rows * cols];
            let fill = |_s: &mut (), i: usize, row: &mut [f64]| {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (i * cols + j) as f64;
                }
            };
            let mut states = vec![(); threads];
            parallel_rows_mut_balanced(&mut a, cols, threads, |i| weights[i], &mut states, fill);
            parallel_rows_mut(&mut b, cols, threads, Schedule::Static, |i, row| {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (i * cols + j) as f64;
                }
            });
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn rows_mut_balanced_each_row_once() {
        let rows = 29;
        let mut data = vec![0.0; rows * 2];
        let mut states = vec![0usize; 4];
        parallel_rows_mut_balanced(
            &mut data,
            2,
            4,
            |i| if i < 5 { 50 } else { 1 },
            &mut states,
            |count, i, row| {
                *count += 1;
                row.fill(i as f64 + 1.0);
            },
        );
        assert_eq!(states.iter().sum::<usize>(), rows);
        for i in 0..rows {
            assert_eq!(data[i * 2], i as f64 + 1.0);
        }
    }

    #[test]
    fn background_worker_preserves_fifo_order() {
        let worker = Background::spawn(|(buf, scale): (Vec<f64>, f64)| {
            buf.into_iter().map(|v| v * scale).collect::<Vec<f64>>()
        });
        for i in 0..16 {
            worker.submit((vec![i as f64; 4], 2.0)).unwrap();
        }
        for i in 0..16 {
            let resp = worker.recv().expect("worker alive");
            assert_eq!(resp, vec![2.0 * i as f64; 4]);
        }
    }

    #[test]
    fn background_worker_drop_with_inflight_request_joins() {
        // Dropping with an unconsumed response must not hang or panic.
        let worker = Background::spawn(|x: u32| x + 1);
        worker.submit(1).unwrap();
        drop(worker);
    }

    #[test]
    fn scheduled_dynamic_chunk_is_clamped_on_short_modes() {
        // 24 rows, 2 workers, chunk 8: three claims would split 16 : 8.
        // The clamp serves it as 8 groups of 3.
        assert_eq!(balanced_chunk(8, 24, 2), 3);
        assert!(24usize.div_ceil(balanced_chunk(8, 24, 2)) >= 8);
        // Never above the request, never below 1, untouched on long modes.
        assert_eq!(balanced_chunk(2, 24, 2), 2);
        assert_eq!(balanced_chunk(8, 3, 2), 1);
        assert_eq!(balanced_chunk(8, 0, 2), 1);
        assert_eq!(balanced_chunk(8, 10_000, 2), 8);
        // And the sweep still covers every row exactly once.
        let mut data = vec![0.0f64; 24 * 2];
        let mut states = vec![0usize; 2];
        parallel_rows_mut_scheduled(
            &mut data,
            2,
            2,
            Schedule::Dynamic { chunk: 8 },
            |_| 1,
            &mut states,
            |seen, i, row| {
                *seen += 1;
                row[0] += 1.0;
                row[1] = i as f64;
            },
        );
        assert_eq!(states.iter().sum::<usize>(), 24);
        for (i, row) in data.chunks(2).enumerate() {
            assert_eq!(row, [1.0, i as f64]);
        }
    }

    #[test]
    fn reduce_static_vs_dynamic_same_result() {
        let a = parallel_reduce(
            5000,
            4,
            Schedule::Static,
            || 0u64,
            |acc, i| acc + i as u64,
            |a, b| a + b,
        );
        let b = parallel_reduce(
            5000,
            4,
            Schedule::Dynamic { chunk: 7 },
            || 0u64,
            |acc, i| acc + i as u64,
            |a, b| a + b,
        );
        assert_eq!(a, b);
        assert_eq!(a, 5000u64 * 4999 / 2);
    }

    #[test]
    fn thread_set_joins_all_and_observes_effects() {
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        let mut set = ThreadSet::new();
        for _ in 0..8 {
            let counter = counter.clone();
            set.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(set.join_all(), 0);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn thread_set_reaps_finished_without_blocking_on_live() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let mut set = ThreadSet::new();
        // One thread parked on the channel, three that exit immediately.
        set.spawn(move || {
            let _ = rx.recv();
        });
        for _ in 0..3 {
            set.spawn(|| {});
        }
        // The quick threads finish; reap must collect exactly those.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut reaped = 0;
        while reaped < 3 && std::time::Instant::now() < deadline {
            reaped += set.reap();
            std::thread::yield_now();
        }
        assert_eq!(reaped, 3);
        assert_eq!(set.len(), 1, "the parked thread must still be tracked");
        tx.send(()).unwrap();
        assert_eq!(set.join_all(), 0);
    }

    #[test]
    fn thread_set_counts_panics_instead_of_propagating() {
        let mut set = ThreadSet::new();
        set.spawn(|| panic!("worker blew up"));
        set.spawn(|| {});
        assert_eq!(set.join_all(), 1);
    }
}
