//! The sharded-fit message set and its wire encoding.
//!
//! Nine messages run a whole fit:
//!
//! | message      | direction | payload                                          |
//! |--------------|-----------|--------------------------------------------------|
//! | `Hello`      | both      | protocol version, worker id, worker count        |
//! | `Plan`       | coord → w | fit options, COO tensor, this worker's row ranges, optional resume checkpoint and fault spec |
//! | `ModeStart`  | coord → w | iteration and mode about to be swept             |
//! | `Rows`       | w → coord | the worker's updated factor rows (+ solve flag); on the last mode, their `hi−lo` squared residuals |
//! | `FactorSync` | coord → w | the merged factor for the mode (+ global flag); on the last mode, all `I_N` squared residuals |
//! | `Stats`      | w → coord | per-worker rows/nnz/wall/byte totals             |
//! | `Shutdown`   | coord → w | clean end of the run                             |
//! | `Heartbeat`  | both      | liveness probe (coordinator) and echo (worker)   |
//! | `Reassign`   | coord → w | the worker's new per-mode row ownership          |
//!
//! Only `Plan` carries bulk data, exactly once per worker; the per-mode
//! steady state is `Rows` + `FactorSync` — `O(I_n·J)` doubles each —
//! plan windows and `Pres` tiles never cross the wire. The residual
//! section (`O(I_N)` doubles, present only on mode `N−1` of a fit whose
//! error folds into that mode's normal equations) is what lets no process
//! run a whole-tensor error pass: every process ends the mode with the same
//! per-row buffer and sums it in row order. Everything is
//! little-endian with `usize` widened to `u64`; COO entries travel in
//! insertion order, which [`ptucker_tensor::SparseTensor::from_flat`]
//! preserves, so a worker's rebuilt tensor (entry ids, mode indexes,
//! plans) is bit-for-bit the coordinator's.

use crate::transport::{Channel, Frame};
use crate::ShardError;
use ptucker::{BudgetPolicy, FitOptions, MemoryBudget, Schedule, StoragePrecision, Variant};
use std::io::{Read, Write};
use std::ops::Range;

/// One protocol message. See the [module docs](self) for the flow.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Handshake: version check plus the receiver's place in the fleet.
    Hello {
        /// [`crate::PROTOCOL_VERSION`] of the sender.
        version: u32,
        /// Zero-based id of the worker this connection belongs to.
        worker_id: u32,
        /// Total worker count `K`.
        workers: u32,
    },
    /// Everything a worker needs to run its replica of the fit.
    Plan(Box<PlanMsg>),
    /// Lockstep marker: the `(iter, mode)` sweep both sides enter next.
    ModeStart {
        /// Zero-based ALS iteration.
        iter: u64,
        /// Mode about to be swept.
        mode: u32,
    },
    /// A worker's updated rows for the mode it just swept.
    Rows(RowsMsg),
    /// The merged factor broadcast after all owners reported.
    FactorSync {
        /// Mode the factor belongs to.
        mode: u32,
        /// False if **any** shard had a failed row solve — every process
        /// abandons the fit identically.
        ok: bool,
        /// The full merged factor, row-major.
        data: Vec<f64>,
        /// The merged squared residual of every row (`I_N` doubles) on
        /// mode `N−1` of a fit whose error folds; `None` otherwise.
        row_sse: Option<Vec<f64>>,
    },
    /// A worker's end-of-run statistics.
    Stats(WorkerStatsMsg),
    /// Clean end of the run.
    Shutdown,
    /// Liveness probe. The coordinator sends one when a worker misses a
    /// frame deadline; a live worker echoes it back from its receive
    /// loop, which is what distinguishes a *slow* worker (echoes) from a
    /// *silent* one (doesn't) before the fault policy declares it dead.
    Heartbeat,
    /// Mid-fit ownership change: the receiving worker's owned row range
    /// per mode, replacing the ranges it got with its plan. Sent under
    /// `Recovery::Reassign` when a dead worker's rows are redistributed
    /// to a surviving neighbor, always *before* the `FactorSync` of the
    /// mode the death was detected in, so the new ownership is in place
    /// before the next mode's sweep.
    Reassign {
        /// The receiver's new owned row range per mode.
        ranges: Vec<Range<usize>>,
    },
}

/// Body of [`Message::Plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanMsg {
    /// The fit configuration, replicated verbatim (same seed ⇒ same RNG
    /// init on every process).
    pub opts: FitOptions,
    /// Tensor dimensions.
    pub dims: Vec<usize>,
    /// Flat COO indices (`order · nnz`), insertion order.
    pub indices: Vec<usize>,
    /// COO values, insertion order.
    pub values: Vec<f64>,
    /// This worker's owned row range per mode.
    pub ranges: Vec<Range<usize>>,
    /// Encoded `ptucker::FitCheckpoint` bytes to resume from instead of
    /// starting at iteration 0 — how a respawned worker (or a whole
    /// sharded fit resuming a checkpointed run) rejoins mid-trajectory,
    /// bitwise. `None` for a fresh fit.
    pub resume: Option<Vec<u8>>,
    /// Fault-injection spec to install on the worker's transport (see
    /// [`parse_fault_spec`]); test/chaos tooling only. `None` in
    /// production.
    pub fault: Option<String>,
}

/// Body of [`Message::Rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowsMsg {
    /// Mode the rows belong to.
    pub mode: u32,
    /// First owned row.
    pub lo: u64,
    /// One past the last owned row.
    pub hi: u64,
    /// Whether every row solve in the range succeeded.
    pub ok: bool,
    /// The owned rows, row-major (`(hi - lo) · J_n` doubles).
    pub data: Vec<f64>,
    /// The owned rows' squared residuals (`hi - lo` doubles) on mode `N−1`
    /// of a fit whose error folds; `None` otherwise.
    pub row_sse: Option<Vec<f64>>,
}

/// Body of [`Message::Stats`]: one worker's contribution to the run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerStatsMsg {
    /// Factor rows this worker updated, summed over modes and iterations.
    pub rows_updated: u64,
    /// Stream positions (observed entries) its sweeps covered, summed
    /// over modes and iterations.
    pub nnz_processed: u64,
    /// Wall-clock seconds from receiving the plan to finishing the fit.
    pub wall_seconds: f64,
    /// Bytes the worker wrote to the coordinator before this message.
    pub bytes_sent: u64,
    /// Bytes the worker read from the coordinator before this message.
    pub bytes_received: u64,
}

// Frame tags. Kept dense and explicit — the wire format is a contract.
const TAG_HELLO: u8 = 1;
const TAG_PLAN: u8 = 2;
const TAG_MODE_START: u8 = 3;
const TAG_ROWS: u8 = 4;
const TAG_FACTOR_SYNC: u8 = 5;
const TAG_STATS: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_HEARTBEAT: u8 = 8;
const TAG_REASSIGN: u8 = 9;

/// Parses a transport fault spec (see
/// [`crate::transport::FaultInjector::parse_with`] for the grammar)
/// bound to the shard message vocabulary: `hello`, `plan`, `modestart`,
/// `rows`, `factorsync`, `stats`, `shutdown`, `heartbeat`, `reassign`,
/// or `any`.
///
/// # Errors
/// A description of the first malformed rule.
pub fn parse_fault_spec(spec: &str) -> Result<crate::transport::FaultInjector, String> {
    crate::transport::FaultInjector::parse_with(spec, tag_by_name)
}

/// Maps a lowercase message name to its frame tag — the vocabulary of
/// [`parse_fault_spec`] specs.
pub(crate) fn tag_by_name(name: &str) -> Option<u8> {
    Some(match name {
        "hello" => TAG_HELLO,
        "plan" => TAG_PLAN,
        "modestart" => TAG_MODE_START,
        "rows" => TAG_ROWS,
        "factorsync" => TAG_FACTOR_SYNC,
        "stats" => TAG_STATS,
        "shutdown" => TAG_SHUTDOWN,
        "heartbeat" => TAG_HEARTBEAT,
        "reassign" => TAG_REASSIGN,
        _ => return None,
    })
}

/// Little-endian byte writer over a growable buffer.
#[derive(Default)]
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn usize_slice(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }
    fn f64_slice(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }
    fn opt_f64_slice(&mut self, v: Option<&[f64]>) {
        match v {
            None => self.bool(false),
            Some(s) => {
                self.bool(true);
                self.f64_slice(s);
            }
        }
    }
    fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.0.extend_from_slice(v);
    }
    fn opt_bytes(&mut self, v: Option<&[u8]>) {
        match v {
            None => self.bool(false),
            Some(b) => {
                self.bool(true);
                self.bytes(b);
            }
        }
    }
}

/// Little-endian cursor over a received payload; every getter checks
/// bounds so truncated or mis-tagged payloads decode to an error, never
/// a panic.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ShardError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ShardError::Protocol("truncated payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ShardError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ShardError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }
    fn u64(&mut self) -> Result<u64, ShardError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }
    fn usize(&mut self) -> Result<usize, ShardError> {
        usize::try_from(self.u64()?)
            .map_err(|_| ShardError::Protocol("u64 field exceeds usize".into()))
    }
    fn f64(&mut self) -> Result<f64, ShardError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }
    fn bool(&mut self) -> Result<bool, ShardError> {
        Ok(self.u8()? != 0)
    }

    /// Length-prefixed element reads guard the count against the bytes
    /// actually present, so a corrupt length cannot force a huge
    /// allocation.
    fn checked_len(&self, elem_bytes: usize) -> Result<usize, ShardError> {
        Ok((self.buf.len() - self.pos) / elem_bytes.max(1))
    }

    fn usize_vec(&mut self) -> Result<Vec<usize>, ShardError> {
        let n = self.usize()?;
        if n > self.checked_len(8)? {
            return Err(ShardError::Protocol(
                "vector length overruns payload".into(),
            ));
        }
        (0..n).map(|_| self.usize()).collect()
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, ShardError> {
        let n = self.usize()?;
        if n > self.checked_len(8)? {
            return Err(ShardError::Protocol(
                "vector length overruns payload".into(),
            ));
        }
        (0..n).map(|_| self.f64()).collect()
    }

    fn opt_f64_vec(&mut self) -> Result<Option<Vec<f64>>, ShardError> {
        if self.bool()? {
            Ok(Some(self.f64_vec()?))
        } else {
            Ok(None)
        }
    }

    fn bytes_vec(&mut self) -> Result<Vec<u8>, ShardError> {
        let n = self.usize()?;
        if n > self.checked_len(1)? {
            return Err(ShardError::Protocol(
                "byte-string length overruns payload".into(),
            ));
        }
        Ok(self.take(n)?.to_vec())
    }

    fn opt_bytes(&mut self) -> Result<Option<Vec<u8>>, ShardError> {
        if self.bool()? {
            Ok(Some(self.bytes_vec()?))
        } else {
            Ok(None)
        }
    }

    fn finish(&self) -> Result<(), ShardError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ShardError::Protocol("trailing bytes in payload".into()))
        }
    }
}

fn encode_opts(e: &mut Enc, o: &FitOptions) {
    e.usize_slice(&o.ranks);
    e.f64(o.lambda);
    e.usize(o.max_iters);
    e.f64(o.tol);
    e.usize(o.threads);
    match o.schedule {
        Schedule::Static => {
            e.u8(0);
            e.usize(0);
        }
        Schedule::Dynamic { chunk } => {
            e.u8(1);
            e.usize(chunk);
        }
    }
    match o.variant {
        Variant::Default => {
            e.u8(0);
            e.f64(0.0);
        }
        Variant::Cache => {
            e.u8(1);
            e.f64(0.0);
        }
        Variant::Approx { truncation_rate } => {
            e.u8(2);
            e.f64(truncation_rate);
        }
    }
    e.u64(o.seed);
    e.usize(o.budget.budget());
    e.u8(match o.budget.policy() {
        BudgetPolicy::Spill => 0,
        BudgetPolicy::Strict => 1,
    });
    e.bool(o.refit_core);
    e.usize(o.sample_stride);
    e.bool(o.prefetch);
    e.u8(match o.precision {
        StoragePrecision::F64 => 0,
        StoragePrecision::F32 => 1,
    });
    // Checkpointing fields, for codec fidelity. The coordinator strips
    // `checkpoint_path`/`resume_from` from the plans it sends (only the
    // coordinator touches checkpoint files; workers resume from in-plan
    // bytes), so workers only ever see `None` here. Paths travel as
    // UTF-8 (lossily, which is moot for the stripped production path).
    e.usize(o.checkpoint_every);
    e.opt_bytes(
        o.checkpoint_path
            .as_ref()
            .map(|p| p.to_string_lossy().into_owned().into_bytes())
            .as_deref(),
    );
    e.opt_bytes(
        o.resume_from
            .as_ref()
            .map(|p| p.to_string_lossy().into_owned().into_bytes())
            .as_deref(),
    );
}

fn decode_opts(d: &mut Dec<'_>) -> Result<FitOptions, ShardError> {
    let ranks = d.usize_vec()?;
    let lambda = d.f64()?;
    let max_iters = d.usize()?;
    let tol = d.f64()?;
    let threads = d.usize()?;
    let schedule = match (d.u8()?, d.usize()?) {
        (0, _) => Schedule::Static,
        (1, chunk) => Schedule::Dynamic { chunk },
        (t, _) => return Err(ShardError::Protocol(format!("bad schedule tag {t}"))),
    };
    let variant = match (d.u8()?, d.f64()?) {
        (0, _) => Variant::Default,
        (1, _) => Variant::Cache,
        (2, truncation_rate) => Variant::Approx { truncation_rate },
        (t, _) => return Err(ShardError::Protocol(format!("bad variant tag {t}"))),
    };
    let seed = d.u64()?;
    let budget_bytes = d.usize()?;
    let policy = match d.u8()? {
        0 => BudgetPolicy::Spill,
        1 => BudgetPolicy::Strict,
        t => return Err(ShardError::Protocol(format!("bad budget policy tag {t}"))),
    };
    let refit_core = d.bool()?;
    let sample_stride = d.usize()?;
    let prefetch = d.bool()?;
    let precision = match d.u8()? {
        0 => StoragePrecision::F64,
        1 => StoragePrecision::F32,
        t => return Err(ShardError::Protocol(format!("bad precision tag {t}"))),
    };
    let checkpoint_every = d.usize()?;
    let utf8_path = |bytes: Vec<u8>| {
        String::from_utf8(bytes)
            .map_err(|_| ShardError::Protocol("checkpoint path is not UTF-8".into()))
    };
    let checkpoint_path = d.opt_bytes()?.map(utf8_path).transpose()?;
    let resume_from = d.opt_bytes()?.map(utf8_path).transpose()?;
    let mut opts = FitOptions::new(ranks)
        .lambda(lambda)
        .max_iters(max_iters)
        .tol(tol)
        .threads(threads)
        .schedule(schedule)
        .variant(variant)
        .seed(seed)
        .budget(MemoryBudget::with_policy(budget_bytes, policy))
        .refit_core(refit_core)
        .sample_stride(sample_stride)
        .prefetch(prefetch)
        .precision(precision)
        .checkpoint_every(checkpoint_every);
    if let Some(p) = checkpoint_path {
        opts = opts.checkpoint_path(p);
    }
    if let Some(p) = resume_from {
        opts = opts.resume_from(p);
    }
    Ok(opts)
}

impl Message {
    /// Encodes into `(tag, payload)` for the framed transport.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut e = Enc::default();
        let tag = match self {
            Message::Hello {
                version,
                worker_id,
                workers,
            } => {
                e.u32(*version);
                e.u32(*worker_id);
                e.u32(*workers);
                TAG_HELLO
            }
            Message::Plan(p) => {
                encode_opts(&mut e, &p.opts);
                e.usize_slice(&p.dims);
                e.usize_slice(&p.indices);
                e.f64_slice(&p.values);
                e.usize(p.ranges.len());
                for r in &p.ranges {
                    e.usize(r.start);
                    e.usize(r.end);
                }
                e.opt_bytes(p.resume.as_deref());
                e.opt_bytes(p.fault.as_ref().map(|s| s.as_bytes()));
                TAG_PLAN
            }
            Message::ModeStart { iter, mode } => {
                e.u64(*iter);
                e.u32(*mode);
                TAG_MODE_START
            }
            Message::Rows(r) => {
                e.u32(r.mode);
                e.u64(r.lo);
                e.u64(r.hi);
                e.bool(r.ok);
                e.f64_slice(&r.data);
                e.opt_f64_slice(r.row_sse.as_deref());
                TAG_ROWS
            }
            Message::FactorSync {
                mode,
                ok,
                data,
                row_sse,
            } => {
                e.u32(*mode);
                e.bool(*ok);
                e.f64_slice(data);
                e.opt_f64_slice(row_sse.as_deref());
                TAG_FACTOR_SYNC
            }
            Message::Stats(s) => {
                e.u64(s.rows_updated);
                e.u64(s.nnz_processed);
                e.f64(s.wall_seconds);
                e.u64(s.bytes_sent);
                e.u64(s.bytes_received);
                TAG_STATS
            }
            Message::Shutdown => TAG_SHUTDOWN,
            Message::Heartbeat => TAG_HEARTBEAT,
            Message::Reassign { ranges } => {
                e.usize(ranges.len());
                for r in ranges {
                    e.usize(r.start);
                    e.usize(r.end);
                }
                TAG_REASSIGN
            }
        };
        (tag, e.0)
    }

    /// Decodes a verified [`Frame`] back into a message.
    ///
    /// # Errors
    /// [`ShardError::Protocol`] on an unknown tag or malformed payload.
    pub fn decode(frame: &Frame) -> Result<Message, ShardError> {
        let mut d = Dec::new(&frame.payload);
        let msg = match frame.tag {
            TAG_HELLO => Message::Hello {
                version: d.u32()?,
                worker_id: d.u32()?,
                workers: d.u32()?,
            },
            TAG_PLAN => {
                let opts = decode_opts(&mut d)?;
                let dims = d.usize_vec()?;
                let indices = d.usize_vec()?;
                let values = d.f64_vec()?;
                let n = d.usize()?;
                let mut ranges = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let start = d.usize()?;
                    let end = d.usize()?;
                    ranges.push(start..end);
                }
                let resume = d.opt_bytes()?;
                let fault = d
                    .opt_bytes()?
                    .map(|b| {
                        String::from_utf8(b)
                            .map_err(|_| ShardError::Protocol("fault spec is not UTF-8".into()))
                    })
                    .transpose()?;
                Message::Plan(Box::new(PlanMsg {
                    opts,
                    dims,
                    indices,
                    values,
                    ranges,
                    resume,
                    fault,
                }))
            }
            TAG_MODE_START => Message::ModeStart {
                iter: d.u64()?,
                mode: d.u32()?,
            },
            TAG_ROWS => Message::Rows(RowsMsg {
                mode: d.u32()?,
                lo: d.u64()?,
                hi: d.u64()?,
                ok: d.bool()?,
                data: d.f64_vec()?,
                row_sse: d.opt_f64_vec()?,
            }),
            TAG_FACTOR_SYNC => Message::FactorSync {
                mode: d.u32()?,
                ok: d.bool()?,
                data: d.f64_vec()?,
                row_sse: d.opt_f64_vec()?,
            },
            TAG_STATS => Message::Stats(WorkerStatsMsg {
                rows_updated: d.u64()?,
                nnz_processed: d.u64()?,
                wall_seconds: d.f64()?,
                bytes_sent: d.u64()?,
                bytes_received: d.u64()?,
            }),
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_HEARTBEAT => Message::Heartbeat,
            TAG_REASSIGN => {
                let n = d.usize()?;
                let mut ranges = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let start = d.usize()?;
                    let end = d.usize()?;
                    ranges.push(start..end);
                }
                Message::Reassign { ranges }
            }
            t => return Err(ShardError::Protocol(format!("unknown frame tag {t}"))),
        };
        d.finish()?;
        Ok(msg)
    }

    /// The message's name, for error reporting.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::Plan(_) => "Plan",
            Message::ModeStart { .. } => "ModeStart",
            Message::Rows(_) => "Rows",
            Message::FactorSync { .. } => "FactorSync",
            Message::Stats(_) => "Stats",
            Message::Shutdown => "Shutdown",
            Message::Heartbeat => "Heartbeat",
            Message::Reassign { .. } => "Reassign",
        }
    }
}

/// Sends one message over a framed channel.
///
/// # Errors
/// Transport I/O failures ([`ShardError::Io`]).
pub fn send<R: Read, W: Write>(chan: &mut Channel<R, W>, msg: &Message) -> Result<(), ShardError> {
    let (tag, payload) = msg.encode();
    chan.send_frame(tag, &payload)?;
    Ok(())
}

/// Receives and decodes one message.
///
/// # Errors
/// Transport I/O failures or a malformed frame.
pub fn recv<R: Read, W: Write>(chan: &mut Channel<R, W>) -> Result<Message, ShardError> {
    Message::decode(&chan.recv_frame()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) {
        let (tag, payload) = msg.encode();
        let back = Message::decode(&Frame { tag, payload }).unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(&Message::Hello {
            version: PROTOCOL_VERSION_FOR_TEST,
            worker_id: 3,
            workers: 4,
        });
        roundtrip(&Message::Plan(Box::new(PlanMsg {
            opts: FitOptions::new(vec![2, 3])
                .lambda(0.02)
                .max_iters(7)
                .tol(1e-6)
                .threads(2)
                .schedule(Schedule::Dynamic { chunk: 5 })
                .variant(Variant::Approx {
                    truncation_rate: 0.25,
                })
                .seed(99)
                .budget(MemoryBudget::with_policy(1 << 20, BudgetPolicy::Strict))
                .refit_core(true)
                .sample_stride(3)
                .prefetch(false)
                .precision(StoragePrecision::F32)
                .checkpoint_every(2)
                .checkpoint_path("/tmp/x.ckpt")
                .resume_from("/tmp/y.ckpt"),
            dims: vec![4, 5],
            indices: vec![0, 1, 3, 4],
            values: vec![1.5, -2.25],
            ranges: vec![0..2, 1..5],
            resume: Some(vec![7, 8, 9]),
            fault: Some("send:rows:1:drop".into()),
        })));
        roundtrip(&Message::ModeStart { iter: 9, mode: 2 });
        roundtrip(&Message::Rows(RowsMsg {
            mode: 1,
            lo: 2,
            hi: 4,
            ok: false,
            data: vec![0.5; 6],
            row_sse: None,
        }));
        roundtrip(&Message::Rows(RowsMsg {
            mode: 2,
            lo: 2,
            hi: 4,
            ok: true,
            data: vec![0.5; 6],
            row_sse: Some(vec![0.25, 0.125]),
        }));
        roundtrip(&Message::FactorSync {
            mode: 0,
            ok: true,
            data: vec![1.0, 2.0, 3.0],
            row_sse: None,
        });
        roundtrip(&Message::FactorSync {
            mode: 2,
            ok: true,
            data: vec![1.0, 2.0, 3.0],
            row_sse: Some(vec![0.75, 0.0, 1.5]),
        });
        roundtrip(&Message::Stats(WorkerStatsMsg {
            rows_updated: 10,
            nnz_processed: 1000,
            wall_seconds: 0.125,
            bytes_sent: 512,
            bytes_received: 256,
        }));
        roundtrip(&Message::Shutdown);
        roundtrip(&Message::Heartbeat);
        roundtrip(&Message::Reassign {
            ranges: vec![0..3, 2..2, 5..9],
        });
    }

    const PROTOCOL_VERSION_FOR_TEST: u32 = crate::PROTOCOL_VERSION;

    #[test]
    fn bad_tags_and_truncation_error() {
        assert!(Message::decode(&Frame {
            tag: 99,
            payload: vec![],
        })
        .is_err());
        let (tag, payload) = Message::ModeStart { iter: 1, mode: 0 }.encode();
        assert!(Message::decode(&Frame {
            tag,
            payload: payload[..payload.len() - 1].to_vec(),
        })
        .is_err());
        // A corrupt vector length must not force a huge allocation.
        let (tag, mut payload) = Message::FactorSync {
            mode: 0,
            ok: true,
            data: vec![1.0],
            row_sse: None,
        }
        .encode();
        payload[5] = 0xff; // inflate the length prefix
        assert!(Message::decode(&Frame { tag, payload }).is_err());
        // … nor the residual section's.
        let (tag, mut payload) = Message::Rows(RowsMsg {
            mode: 2,
            lo: 0,
            hi: 1,
            ok: true,
            data: vec![1.0],
            row_sse: Some(vec![0.5]),
        })
        .encode();
        payload[38] = 0xff;
        assert!(Message::decode(&Frame { tag, payload }).is_err());
    }

    /// The full frame (`[len][tag][payload][checksum]`) `msg` goes out as,
    /// in hex.
    fn wire_hex(msg: &Message) -> String {
        let mut wire = Vec::new();
        send(&mut Channel::new(std::io::empty(), &mut wire), msg).unwrap();
        wire.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// **Frozen wire bytes.** Every shard message as protocol v3 frames
    /// it, captured from the v3 encoder — `Rows` and `FactorSync` both
    /// without and with the squared-residual section. A change to any
    /// message encoding fails here, and must bump `PROTOCOL_VERSION` and
    /// re-capture on purpose.
    #[test]
    fn shard_protocol_v3_wire_format_is_frozen() {
        assert_eq!(crate::PROTOCOL_VERSION, 3);
        let plan = PlanMsg {
            opts: FitOptions::new(vec![2, 2])
                .lambda(0.5)
                .max_iters(3)
                .tol(0.0)
                .threads(2)
                .schedule(Schedule::Dynamic { chunk: 4 })
                .variant(Variant::Default)
                .seed(7)
                .budget(MemoryBudget::new(1 << 20)),
            dims: vec![3, 2],
            indices: vec![0, 1, 2, 0],
            values: vec![1.5, -0.25],
            ranges: vec![0..2, 0..1],
            resume: None,
            fault: None,
        };
        let rows = |row_sse| {
            Message::Rows(RowsMsg {
                mode: 1,
                lo: 1,
                hi: 2,
                ok: true,
                data: vec![0.5, -1.0],
                row_sse,
            })
        };
        let factor_sync = |row_sse| Message::FactorSync {
            mode: 1,
            ok: true,
            data: vec![0.5, -1.0],
            row_sse,
        };
        let frozen: [(&str, Message, &str); 11] = [
            (
                "Hello",
                Message::Hello {
                    version: 3,
                    worker_id: 1,
                    workers: 2,
                },
                "0d000000010300000001000000020000003c7b806fec287f6d",
            ),
            (
                "Plan",
                Message::Plan(Box::new(plan)),
                concat!(
                    "f300000002020000000000000002000000000000000200000000000000000000",
                    "000000e03f030000000000000000000000000000000200000000000000010400",
                    "0000000000000000000000000000000700000000000000000010000000000000",
                    "0001000000000000000100010000000000000000000200000000000000030000",
                    "0000000000020000000000000004000000000000000000000000000000010000",
                    "0000000000020000000000000000000000000000000200000000000000000000",
                    "000000f83f000000000000d0bf02000000000000000000000000000000020000",
                    "0000000000000000000000000001000000000000000000a3599f4e62a17e60",
                ),
            ),
            (
                "ModeStart",
                Message::ModeStart { iter: 5, mode: 1 },
                "0d00000003050000000000000001000000d69c161f3358de36",
            ),
            (
                "Rows",
                rows(None),
                concat!(
                    "2f00000004010000000100000000000000020000000000000001020000000000",
                    "0000000000000000e03f000000000000f0bf0046a52ddf4c4e1d2f",
                ),
            ),
            (
                "Rows + residuals",
                rows(Some(vec![0.75])),
                concat!(
                    "3f00000004010000000100000000000000020000000000000001020000000000",
                    "0000000000000000e03f000000000000f0bf0101000000000000000000000000",
                    "00e83f3d4d4d0e54423042",
                ),
            ),
            (
                "FactorSync",
                factor_sync(None),
                concat!(
                    "1f0000000501000000010200000000000000000000000000e03f000000000000",
                    "f0bf0086cc8c9839d4c86e",
                ),
            ),
            (
                "FactorSync + residuals",
                factor_sync(Some(vec![2.0, 0.75])),
                concat!(
                    "370000000501000000010200000000000000000000000000e03f000000000000",
                    "f0bf0102000000000000000000000000000040000000000000e83f8a45cecc43",
                    "95bec7",
                ),
            ),
            (
                "Stats",
                Message::Stats(WorkerStatsMsg {
                    rows_updated: 12,
                    nnz_processed: 340,
                    wall_seconds: 0.5,
                    bytes_sent: 1024,
                    bytes_received: 2048,
                }),
                concat!(
                    "29000000060c000000000000005401000000000000000000000000e03f000400",
                    "0000000000000800000000000093b3e16d813c6f03",
                ),
            ),
            ("Shutdown", Message::Shutdown, "0100000007c6b201864cba63af"),
            (
                "Heartbeat",
                Message::Heartbeat,
                "010000000877c501864cc563af",
            ),
            (
                "Reassign",
                Message::Reassign {
                    ranges: vec![0..3, 1..1],
                },
                concat!(
                    "2900000009020000000000000000000000000000000300000000000000010000",
                    "000000000001000000000000000583bd559fe5c661",
                ),
            ),
        ];
        for (name, msg, hex) in &frozen {
            assert_eq!(wire_hex(msg), *hex, "{name}");
        }
    }
}
