//! The query load generator: one connection, one generator thread.
//!
//! A caller that waits for each reply is a closed loop, and on a two-core
//! box one connection is what repeats (the issue that sized the phases saw
//! two connections swing 21–31K req/s run to run). The open-loop phases send on a
//! fixed schedule over the same blocking connection: a request is *due* at
//! `start + k/rate`, the generator sleeps then spins up to that instant,
//! and latency is timed from the due time — so a stall charges every
//! request queued behind it — with the generator's own lateness reported.

use crate::api::{top_k_select, Client, Predictor, Res, ServeHandle};
use crate::stats::{median, percentile_or_supported};
use crate::workloads::PhaseKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Entries per point request. Batches are sized so that every workload's
/// request carries at least ~0.5 ms of kernel work. While the server works
/// the client's virtual CPU halts, and the hypervisor polls a halted vCPU
/// for an adaptive window (up to ~200 µs) before descheduling it: a reply
/// inside the window wakes the client in microseconds, one outside it in
/// ~100 µs. At 64–256 entries the wide model's requests took ~190 µs —
/// on the edge — and `point_qps` came out bimodal (0.57–1.18 M entries/s,
/// IQR 46 % over ten runs). Well past the window every request pays the
/// slow wake-up and the numbers repeat.
const POINT_BATCH: usize = 1024;
/// Contexts per top-K request (same reasoning: 128 × 270 rows ≈ 0.8 ms).
const TOPK_BATCH: usize = 128;
const TOP_K: usize = 10;
/// The ranked mode: the item-like mode (movies; the 4000-row mode of the
/// wide model).
const TOPK_MODE: usize = 1;
/// One request in this many is kept, with its reply, for verification.
const SAMPLE_EVERY: usize = 16;
/// The publisher's swap interval.
const PUBLISH_EVERY: Duration = Duration::from_millis(50);
/// The tail percentile serving latencies are reported at: at these batch
/// sizes a phase answers a few hundred requests, which supports p90 (ten
/// samples beyond it) and not p99.
const TAIL: f64 = 0.9;
/// An open-loop rate is sustained only if the tail latency from due time
/// stays under this.
const OPEN_TAIL_LIMIT_US: f64 = 10_000.0;

#[derive(Debug, Clone)]
enum Request {
    Point(Vec<usize>),
    TopK(Vec<usize>),
}

/// A request kept for verification: what was asked, what came back, and
/// the snapshot epoch that answered.
#[derive(Debug, Clone)]
struct Sample {
    request: Request,
    epoch: u64,
    values: Vec<f64>,
    items: Vec<(u32, f64)>,
}

/// Draws uniformly random in-range queries for a model of shape `dims`.
struct QueryGen {
    rng: StdRng,
    dims: Vec<usize>,
}

impl QueryGen {
    /// Flat indices of one point batch, `N` per entry.
    fn point(&mut self) -> Vec<usize> {
        let mut flat = Vec::with_capacity(POINT_BATCH * self.dims.len());
        for _ in 0..POINT_BATCH {
            for &d in &self.dims {
                flat.push(self.rng.gen_range(0..d));
            }
        }
        flat
    }

    /// Flat contexts of one top-K batch, `N − 1` per context.
    fn top_k(&mut self) -> Vec<usize> {
        let mut flat = Vec::with_capacity(TOPK_BATCH * (self.dims.len() - 1));
        for _ in 0..TOPK_BATCH {
            for (mode, &d) in self.dims.iter().enumerate() {
                if mode != TOPK_MODE {
                    flat.push(self.rng.gen_range(0..d));
                }
            }
        }
        flat
    }

    /// The `k`-th request of a phase: all points, all top-K, or 4 : 1.
    fn next(&mut self, kind: PhaseKind, k: usize) -> Request {
        let top_k = match kind {
            PhaseKind::Point => false,
            PhaseKind::TopK => true,
            _ => k % 5 == 4,
        };
        if top_k {
            Request::TopK(self.top_k())
        } else {
            Request::Point(self.point())
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    pub seconds: f64,
    pub requests_ok: u64,
    pub requests_failed: u64,
    /// Point entries answered.
    pub entries: u64,
    /// Top-K contexts answered.
    pub contexts: u64,
    /// Per-request latency in µs, ascending (from send time in a closed
    /// loop, from due time in an open loop).
    pub latencies_us: Vec<f64>,
    pub bytes: u64,
    /// Per absorbed stretch: point entries/s, top-K contexts/s, median µs.
    pub stretch_entries_per_s: Vec<f64>,
    pub stretch_contexts_per_s: Vec<f64>,
    pub stretch_p50_us: Vec<f64>,
    /// Sampled replies checked against the local predictor / failed.
    pub verified: u64,
    pub mismatched: u64,
    /// Open loop only: the generator's worst lateness, and whether its
    /// lateness kept growing through the phase.
    pub late_max_us: f64,
    pub backlog_grew: bool,
    /// Publisher phase only: snapshots published, epochs seen advancing,
    /// median publish call in µs.
    pub publishes: u64,
    pub epoch_advanced: bool,
    pub publish_us: f64,
}

impl PhaseResult {
    pub fn requests_per_s(&self) -> f64 {
        self.requests_ok as f64 / self.seconds.max(1e-9)
    }

    /// The best stretch's point entries per second (the phase's own rate
    /// if it was not run in stretches).
    pub fn best_entries_per_s(&self) -> f64 {
        self.stretch_entries_per_s
            .iter()
            .copied()
            .fold(self.entries_per_s(), f64::max)
    }

    /// The best stretch's top-K contexts per second.
    pub fn best_contexts_per_s(&self) -> f64 {
        self.stretch_contexts_per_s
            .iter()
            .copied()
            .fold(self.contexts_per_s(), f64::max)
    }

    /// The lowest stretch median, µs.
    pub fn best_p50_us(&self) -> f64 {
        self.stretch_p50_us
            .iter()
            .copied()
            .fold(self.p50_us(), f64::min)
    }

    pub fn entries_per_s(&self) -> f64 {
        self.entries as f64 / self.seconds.max(1e-9)
    }

    pub fn contexts_per_s(&self) -> f64 {
        self.contexts as f64 / self.seconds.max(1e-9)
    }

    /// Folds another stretch of the same phase kind into this one: counts
    /// and seconds add up, latencies pool, and the stretch's own rates and
    /// median are kept for the best-stretch figures.
    pub fn absorb(&mut self, other: PhaseResult) {
        self.stretch_entries_per_s.push(other.entries_per_s());
        self.stretch_contexts_per_s.push(other.contexts_per_s());
        self.stretch_p50_us.push(other.p50_us());
        self.seconds += other.seconds;
        self.requests_ok += other.requests_ok;
        self.requests_failed += other.requests_failed;
        self.entries += other.entries;
        self.contexts += other.contexts;
        self.bytes += other.bytes;
        self.verified += other.verified;
        self.mismatched += other.mismatched;
        self.latencies_us.extend(other.latencies_us);
        self.latencies_us.sort_by(f64::total_cmp);
    }

    pub fn p50_us(&self) -> f64 {
        percentile_or_supported(&self.latencies_us, 0.5).1
    }

    /// p90 — or the highest percentile this phase's sample count supports.
    pub fn tail_us(&self) -> f64 {
        percentile_or_supported(&self.latencies_us, TAIL).1
    }

    /// Whether an open-loop phase sustained its rate.
    pub fn rate_ok(&self) -> bool {
        self.requests_failed == 0
            && self.requests_ok > 0
            && !self.backlog_grew
            && self.tail_us() <= OPEN_TAIL_LIMIT_US
    }
}

/// What the open-loop bookkeeping derives from each request's due, send
/// and completion times (seconds from phase start).
#[derive(Debug, Clone, PartialEq)]
pub struct OpenAccount {
    /// Completion − due, µs, in request order.
    pub latency_from_due_us: Vec<f64>,
    pub late_max_us: f64,
    pub backlog_grew: bool,
}

/// Lateness is send − due. The backlog "grew" when the generator ran
/// later in the last quarter of the phase than in the first by more than
/// a millisecond of median lateness — a queue that only ever lengthens.
pub fn open_loop_account(due: &[f64], sent: &[f64], done: &[f64]) -> OpenAccount {
    let late: Vec<f64> = due
        .iter()
        .zip(sent)
        .map(|(d, s)| (s - d).max(0.0) * 1e6)
        .collect();
    let quarter = late.len() / 4;
    let backlog_grew =
        quarter > 0 && median(&late[late.len() - quarter..]) > median(&late[..quarter]) + 1000.0;
    OpenAccount {
        latency_from_due_us: due.iter().zip(done).map(|(d, c)| (c - d) * 1e6).collect(),
        late_max_us: late.iter().copied().fold(0.0, f64::max),
        backlog_grew,
    }
}

/// Sleeps until ~200 µs before `at`, then spins: a sleep alone overshoots
/// by the scheduler's wake-up jitter, a spin alone burns the core the
/// server needs.
fn wait_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        match (at - now).checked_sub(SPIN) {
            Some(nap) if !nap.is_zero() => std::thread::sleep(nap),
            _ => std::hint::spin_loop(),
        }
    }
}

/// The serving side of one workload run: the server, its one client, the
/// two snapshots the publisher alternates, and the request generator.
pub struct Session<'a> {
    handle: &'a ServeHandle,
    client: Client,
    /// `snapshots[0]` answers odd epochs (the served model starts at
    /// epoch 1), `snapshots[1]` even ones.
    snapshots: [&'a Predictor; 2],
    gen: QueryGen,
}

impl<'a> Session<'a> {
    pub fn open(
        handle: &'a ServeHandle,
        client: Client,
        snapshots: [&'a Predictor; 2],
        seed: u64,
    ) -> Self {
        let dims = client.dims().to_vec();
        Session {
            handle,
            client,
            snapshots,
            gen: QueryGen {
                rng: StdRng::seed_from_u64(seed),
                dims,
            },
        }
    }

    /// Sends one request; on success returns what to account and, when
    /// asked, the sample to verify later.
    fn send(&mut self, request: &Request, keep: bool) -> Res<(u64, u64, Option<Sample>)> {
        match request {
            Request::Point(flat) => {
                let values = self.client.point_batch(flat).map_err(|e| e.to_string())?;
                let n = values.len() as u64;
                let sample = keep.then(|| Sample {
                    request: request.clone(),
                    epoch: self.client.epoch(),
                    values,
                    items: Vec::new(),
                });
                Ok((n, 0, sample))
            }
            Request::TopK(flat) => {
                let (_, items) = self
                    .client
                    .top_k_batch(TOPK_MODE, flat, TOPK_BATCH, TOP_K)
                    .map_err(|e| e.to_string())?;
                let sample = keep.then(|| Sample {
                    request: request.clone(),
                    epoch: self.client.epoch(),
                    values: Vec::new(),
                    items,
                });
                Ok((0, TOPK_BATCH as u64, sample))
            }
        }
    }

    /// Unmeasured mixed traffic: lets the server's per-connection arena
    /// grow to both request shapes and both threads settle before timing.
    pub fn warm_up(&mut self, seconds: f64) {
        self.run_plain(PhaseKind::Mixed, seconds);
    }

    /// Runs one phase for `seconds`.
    pub fn run(&mut self, kind: PhaseKind, seconds: f64) -> PhaseResult {
        match kind {
            PhaseKind::PublishMixed => self.run_with_publisher(seconds),
            _ => self.run_plain(kind, seconds),
        }
    }

    fn run_with_publisher(&mut self, seconds: f64) -> PhaseResult {
        let handle = self.handle;
        let snapshots = self.snapshots;
        let first_epoch = handle.epoch();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (mut result, publish_secs) = std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                let mut secs = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    // Epoch e is answered by snapshots[(e + 1) % 2]: keep
                    // that true by publishing the other one each time.
                    let next = snapshots[handle.epoch() as usize % 2].clone();
                    let t = Instant::now();
                    handle.publish(next);
                    secs.push(t.elapsed().as_secs_f64());
                    std::thread::sleep(PUBLISH_EVERY);
                }
                secs
            });
            let result = self.run_plain(PhaseKind::PublishMixed, seconds);
            stop.store(true, std::sync::atomic::Ordering::Release);
            (result, publisher.join().expect("publisher thread panicked"))
        });
        result.publishes = publish_secs.len() as u64;
        result.publish_us = median(&publish_secs) * 1e6;
        result.epoch_advanced = handle.epoch() > first_epoch && self.client.epoch() > first_epoch;
        result
    }

    fn run_plain(&mut self, kind: PhaseKind, seconds: f64) -> PhaseResult {
        let mut out = PhaseResult::default();
        let counters = self.client.counters();
        let bytes0 = counters.sent() + counters.received();
        let mut samples = Vec::new();
        let rate = match kind {
            PhaseKind::Open { rate } => Some(rate),
            _ => None,
        };
        let (mut due, mut sent, mut done) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        let mut k = 0usize;
        loop {
            let due_s = rate.map_or(0.0, |r| k as f64 / r);
            if rate.is_some() {
                if due_s >= seconds {
                    break;
                }
                wait_until(start + Duration::from_secs_f64(due_s));
            } else if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let request = self.gen.next(kind, k);
            let t = Instant::now();
            match self.send(&request, k.is_multiple_of(SAMPLE_EVERY)) {
                Ok((entries, contexts, sample)) => {
                    let end = Instant::now();
                    out.requests_ok += 1;
                    out.entries += entries;
                    out.contexts += contexts;
                    samples.extend(sample);
                    if rate.is_some() {
                        due.push(due_s);
                        sent.push((t - start).as_secs_f64());
                        done.push((end - start).as_secs_f64());
                    } else {
                        out.latencies_us.push((end - t).as_secs_f64() * 1e6);
                    }
                }
                Err(_) => {
                    // A failed or refused request misses every latency
                    // limit; a dead connection ends the phase.
                    out.requests_failed += 1;
                    if self.client.info().is_err() {
                        break;
                    }
                }
            }
            k += 1;
        }
        out.seconds = start.elapsed().as_secs_f64();
        if rate.is_some() {
            let account = open_loop_account(&due, &sent, &done);
            out.latencies_us = account.latency_from_due_us;
            out.late_max_us = account.late_max_us;
            out.backlog_grew = account.backlog_grew;
        }
        out.latencies_us.sort_by(f64::total_cmp);
        out.bytes = counters.sent() + counters.received() - bytes0;
        for sample in &samples {
            out.verified += 1;
            if !self.matches_local(sample) {
                out.mismatched += 1;
            }
        }
        out
    }

    /// Bitwise comparison of a sampled reply with the same query answered
    /// in-process on the snapshot whose epoch the reply carries.
    fn matches_local(&self, sample: &Sample) -> bool {
        let predictor = self.snapshots[(sample.epoch as usize + 1) % 2];
        let order = predictor.order();
        match &sample.request {
            Request::Point(flat) => {
                sample.values.len() == flat.len() / order
                    && flat
                        .chunks(order)
                        .zip(&sample.values)
                        .all(|(index, v)| predictor.predict(index).to_bits() == v.to_bits())
            }
            Request::TopK(flat) => {
                let mut local = LocalTopK::new(predictor);
                let k = TOP_K.min(local.scores.len());
                sample.items.len() == TOPK_BATCH * k
                    && flat
                        .chunks(order - 1)
                        .zip(sample.items.chunks(k))
                        .all(|(others, got)| {
                            let want = local.rank(others);
                            want.len() == got.len()
                                && want
                                    .iter()
                                    .zip(got)
                                    .all(|(w, g)| w.0 == g.0 && w.1.to_bits() == g.1.to_bits())
                        })
            }
        }
    }

    /// Replaces the connection with a fresh one. The server answers each
    /// connection from a thread of its own, so this re-rolls which core the
    /// answering thread lands on: on a shared host one virtual CPU can run
    /// at half speed for tens of seconds, and a thread tends to stay where
    /// it started.
    pub fn reconnect(&mut self) -> Res<()> {
        let fresh = crate::api::connect(self.handle)?;
        std::mem::replace(&mut self.client, fresh)
            .goodbye()
            .map_err(|e| e.to_string())
    }

    pub fn close(self) -> Res<()> {
        self.client.goodbye().map_err(|e| e.to_string())
    }
}

/// The in-process top-K: `scores_into` + `top_k_select` with reused
/// buffers — the reference the served replies are checked against and
/// the kernel floor `serve.local_topk_us` times.
pub struct LocalTopK<'a> {
    predictor: &'a Predictor,
    others: Vec<u32>,
    delta: Vec<f64>,
    scores: Vec<f64>,
    ranked: Vec<(u32, f64)>,
}

impl<'a> LocalTopK<'a> {
    pub fn new(predictor: &'a Predictor) -> Self {
        LocalTopK {
            predictor,
            others: Vec::new(),
            delta: vec![0.0; predictor.ranks()[TOPK_MODE]],
            scores: vec![0.0; predictor.dims()[TOPK_MODE]],
            ranked: Vec::new(),
        }
    }

    pub fn rank(&mut self, others: &[usize]) -> &[(u32, f64)] {
        self.others.clear();
        self.others.extend(others.iter().map(|&i| i as u32));
        self.predictor
            .scores_into(&self.others, TOPK_MODE, &mut self.delta, &mut self.scores);
        top_k_select(&self.scores, TOP_K, &mut self.ranked);
        &self.ranked
    }
}

/// In-process kernel floors on random queries: ns per `predict`, and µs
/// per `scores_into` + `top_k_select`, plus µs per bare `top_k_select`.
pub fn local_kernel_floors(predictor: &Predictor, seed: u64) -> (f64, f64, f64) {
    let mut gen = QueryGen {
        rng: StdRng::seed_from_u64(seed),
        dims: predictor.dims(),
    };
    let order = predictor.order();
    let points = gen.point();
    const POINT_ROUNDS: usize = 200;
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..POINT_ROUNDS {
        for index in points.chunks(order) {
            acc += predictor.predict(index);
        }
    }
    std::hint::black_box(acc);
    let point_ns = t.elapsed().as_secs_f64() * 1e9 / (POINT_ROUNDS * POINT_BATCH) as f64;

    let contexts = gen.top_k();
    let mut local = LocalTopK::new(predictor);
    const TOPK_ROUNDS: usize = 50;
    let t = Instant::now();
    for _ in 0..TOPK_ROUNDS {
        for others in contexts.chunks(order - 1) {
            std::hint::black_box(local.rank(others));
        }
    }
    let topk_us = t.elapsed().as_secs_f64() * 1e6 / (TOPK_ROUNDS * TOPK_BATCH) as f64;

    let scores = local.scores.clone();
    let mut ranked = Vec::new();
    const SELECT_ROUNDS: usize = 400;
    let t = Instant::now();
    for _ in 0..SELECT_ROUNDS {
        top_k_select(std::hint::black_box(&scores), TOP_K, &mut ranked);
    }
    let select_us = t.elapsed().as_secs_f64() * 1e6 / SELECT_ROUNDS as f64;
    (point_ns, topk_us, select_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_is_timed_from_due_time() {
        // 1000 req/s: due every 1 ms. The second request is stalled 3 ms
        // behind a slow first one; its latency from due time counts the
        // wait even though its own service took 0.5 ms.
        let due = [0.000, 0.001, 0.002];
        let sent = [0.000, 0.004, 0.0045];
        let done = [0.004, 0.0045, 0.005];
        let a = open_loop_account(&due, &sent, &done);
        let want = [4000.0, 3500.0, 3000.0];
        for (got, want) in a.latency_from_due_us.iter().zip(want) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert!((a.late_max_us - 3000.0).abs() < 1e-6);
        assert!(
            !a.backlog_grew,
            "three requests are too few to call a trend"
        );
    }

    #[test]
    fn growing_lateness_is_a_backlog_and_steady_lateness_is_not() {
        let n = 400;
        let due: Vec<f64> = (0..n).map(|k| k as f64 * 1e-3).collect();
        // Service slower than the schedule: lateness grows 0.1 ms/request.
        let sent: Vec<f64> = (0..n).map(|k| k as f64 * 1.1e-3).collect();
        let done: Vec<f64> = sent.iter().map(|s| s + 1.1e-3).collect();
        assert!(open_loop_account(&due, &sent, &done).backlog_grew);
        // A constant 2 ms of lateness is jitter, not a queue.
        let sent: Vec<f64> = due.iter().map(|d| d + 2e-3).collect();
        let done: Vec<f64> = sent.iter().map(|s| s + 0.5e-3).collect();
        let a = open_loop_account(&due, &sent, &done);
        assert!(!a.backlog_grew);
        assert!((a.late_max_us - 2000.0).abs() < 1e-6);
        // An early send is not negative lateness.
        let a = open_loop_account(&[0.001], &[0.0005], &[0.002]);
        assert_eq!(a.late_max_us, 0.0);
    }

    #[test]
    fn a_rate_is_sustained_only_within_the_tail_limit_and_without_failures() {
        let ok = PhaseResult {
            requests_ok: 2000,
            latencies_us: (0..2000).map(|i| 100.0 + i as f64).collect(),
            ..PhaseResult::default()
        };
        assert!(ok.rate_ok());
        let slow = PhaseResult {
            latencies_us: (0..2000).map(|i| 100.0 + 6.0 * i as f64).collect(),
            ..ok.clone()
        };
        assert!(!slow.rate_ok());
        assert!(!PhaseResult {
            requests_failed: 1,
            ..ok.clone()
        }
        .rate_ok());
        assert!(!PhaseResult {
            backlog_grew: true,
            ..ok
        }
        .rate_ok());
    }

    #[test]
    fn stretches_of_a_phase_pool_into_one_result() {
        let stretch = |secs: f64, lat: &[f64]| PhaseResult {
            seconds: secs,
            requests_ok: lat.len() as u64,
            entries: 100 * lat.len() as u64,
            latencies_us: lat.to_vec(),
            ..PhaseResult::default()
        };
        let mut pooled = stretch(0.5, &[10.0, 30.0]);
        pooled.absorb(stretch(1.5, &[20.0, 40.0, 50.0]));
        assert_eq!(pooled.seconds, 2.0);
        assert_eq!(pooled.entries_per_s(), 250.0);
        assert_eq!(pooled.latencies_us, [10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(pooled.p50_us(), 30.0);
        // Only the second stretch was absorbed *as* a stretch.
        assert_eq!(pooled.stretch_entries_per_s, [200.0]);
        pooled.absorb(stretch(1.0, &[5.0, 6.0, 7.0, 8.0]));
        assert_eq!(pooled.best_entries_per_s(), 400.0);
        assert_eq!(pooled.best_p50_us(), 6.0);
    }

    #[test]
    fn mixed_phases_send_one_top_k_in_five() {
        let mut gen = QueryGen {
            rng: StdRng::seed_from_u64(1),
            dims: vec![10, 8, 4],
        };
        let kinds: Vec<bool> = (0..10)
            .map(|k| matches!(gen.next(PhaseKind::Mixed, k), Request::TopK(_)))
            .collect();
        assert_eq!(kinds.iter().filter(|t| **t).count(), 2);
        assert!(kinds[4] && kinds[9]);
        let Request::Point(flat) = gen.next(PhaseKind::Point, 4) else {
            panic!("a point phase sends only points")
        };
        assert_eq!(flat.len(), POINT_BATCH * 3);
        assert!(flat.chunks(3).all(|i| i[0] < 10 && i[1] < 8 && i[2] < 4));
    }
}
