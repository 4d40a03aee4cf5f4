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

use crate::ShardError;
use ptucker::{BudgetPolicy, FitOptions, MemoryBudget, Schedule, StoragePrecision, Variant};
use ptucker_transport::wire::{self, Dec, Enc};
use ptucker_transport::{Channel, FaultInjector, Frame};
use std::io::{Read, Write};
use std::ops::Range;

/// Version negotiated by the `Hello` exchange; bumped whenever the frame
/// layout or any message encoding changes. Version 2 added the
/// `Heartbeat` and `Reassign` messages and the plan's `resume`/`fault`
/// fields; version 3 the squared-residual section of `Rows` and
/// `FactorSync`.
pub const PROTOCOL_VERSION: u32 = 3;

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

/// Parses a transport fault spec (see [`FaultInjector::parse_with`] for
/// the grammar) bound to the shard message vocabulary: `hello`, `plan`,
/// `modestart`, `rows`, `factorsync`, `stats`, `shutdown`, `heartbeat`,
/// `reassign`, or `any`.
///
/// # Errors
/// A description of the first malformed rule.
pub fn parse_fault_spec(spec: &str) -> Result<FaultInjector, String> {
    FaultInjector::parse_with(spec, tag_by_name)
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

fn encode_opts(e: &mut Enc, o: &FitOptions) {
    e.usizes(&o.ranks);
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

fn decode_opts(d: &mut Dec<'_>) -> wire::Result<FitOptions> {
    let ranks = d.usizes()?;
    let lambda = d.f64()?;
    let max_iters = d.usize()?;
    let tol = d.f64()?;
    let threads = d.usize()?;
    let schedule = match (d.u8()?, d.usize()?) {
        (0, _) => Schedule::Static,
        (1, chunk) => Schedule::Dynamic { chunk },
        (t, _) => return Err(wire::Error::new(format!("bad schedule tag {t}"))),
    };
    let variant = match (d.u8()?, d.f64()?) {
        (0, _) => Variant::Default,
        (1, _) => Variant::Cache,
        (2, truncation_rate) => Variant::Approx { truncation_rate },
        (t, _) => return Err(wire::Error::new(format!("bad variant tag {t}"))),
    };
    let seed = d.u64()?;
    let budget_bytes = d.usize()?;
    let policy = match d.u8()? {
        0 => BudgetPolicy::Spill,
        1 => BudgetPolicy::Strict,
        t => return Err(wire::Error::new(format!("bad budget policy tag {t}"))),
    };
    let refit_core = d.bool()?;
    let sample_stride = d.usize()?;
    let prefetch = d.bool()?;
    let precision = match d.u8()? {
        0 => StoragePrecision::F64,
        1 => StoragePrecision::F32,
        t => return Err(wire::Error::new(format!("bad precision tag {t}"))),
    };
    let checkpoint_every = d.usize()?;
    let checkpoint_path = opt_utf8(d, "checkpoint path")?;
    let resume_from = opt_utf8(d, "checkpoint path")?;
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

/// An optional UTF-8 string, sent as [`Enc::opt_bytes`].
fn opt_utf8(d: &mut Dec<'_>, what: &str) -> wire::Result<Option<String>> {
    d.opt_bytes()?
        .map(|b| {
            String::from_utf8(b.to_vec())
                .map_err(|_| wire::Error::new(format!("{what} is not UTF-8")))
        })
        .transpose()
}

/// Ranges as a `u64` count, then `start`, `end` per range.
fn encode_ranges(e: &mut Enc<'_>, ranges: &[Range<usize>]) {
    e.usize(ranges.len());
    for r in ranges {
        e.usize(r.start);
        e.usize(r.end);
    }
}

fn decode_ranges(d: &mut Dec<'_>) -> wire::Result<Vec<Range<usize>>> {
    let n = d.count(16)?;
    (0..n).map(|_| Ok(d.usize()?..d.usize()?)).collect()
}

impl Message {
    /// Encodes into `(tag, payload)` for the framed transport.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let mut e = Enc(&mut out);
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
                e.usizes(&p.dims);
                e.usizes(&p.indices);
                e.f64s(&p.values);
                encode_ranges(&mut e, &p.ranges);
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
                e.f64s(&r.data);
                e.opt_f64s(r.row_sse.as_deref());
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
                e.f64s(data);
                e.opt_f64s(row_sse.as_deref());
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
                encode_ranges(&mut e, ranges);
                TAG_REASSIGN
            }
        };
        (tag, out)
    }

    /// Decodes a verified [`Frame`] back into a message.
    ///
    /// # Errors
    /// [`ShardError::Protocol`] on an unknown tag or malformed payload.
    pub fn decode(frame: &Frame) -> Result<Message, ShardError> {
        Self::decode_payload(frame.tag, &frame.payload).map_err(|e| ShardError::Protocol(e.0))
    }

    fn decode_payload(tag: u8, payload: &[u8]) -> wire::Result<Message> {
        let mut d = Dec::new(payload);
        let msg = match tag {
            TAG_HELLO => Message::Hello {
                version: d.u32()?,
                worker_id: d.u32()?,
                workers: d.u32()?,
            },
            TAG_PLAN => Message::Plan(Box::new(PlanMsg {
                opts: decode_opts(&mut d)?,
                dims: d.usizes()?,
                indices: d.usizes()?,
                values: d.f64s()?,
                ranges: decode_ranges(&mut d)?,
                resume: d.opt_bytes()?.map(<[u8]>::to_vec),
                fault: opt_utf8(&mut d, "fault spec")?,
            })),
            TAG_MODE_START => Message::ModeStart {
                iter: d.u64()?,
                mode: d.u32()?,
            },
            TAG_ROWS => Message::Rows(RowsMsg {
                mode: d.u32()?,
                lo: d.u64()?,
                hi: d.u64()?,
                ok: d.bool()?,
                data: d.f64s()?,
                row_sse: d.opt_f64s()?,
            }),
            TAG_FACTOR_SYNC => Message::FactorSync {
                mode: d.u32()?,
                ok: d.bool()?,
                data: d.f64s()?,
                row_sse: d.opt_f64s()?,
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
            TAG_REASSIGN => Message::Reassign {
                ranges: decode_ranges(&mut d)?,
            },
            t => return Err(wire::Error::new(format!("unknown frame tag {t}"))),
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
    use ptucker_transport::fnv1a;
    use std::io;

    /// The shard fault-spec grammar must keep resolving shard message
    /// names now that parsing lives behind a resolver seam.
    #[test]
    fn spec_parsing_accepts_the_documented_grammar() {
        let parse = crate::protocol::parse_fault_spec;
        assert!(parse("send:rows:2:drop").is_ok());
        assert!(parse("recv:any:1:corrupt; send:modestart:3:delay:250").is_ok());
        assert!(parse("send:rows:1:kill").is_ok());
        // Malformed specs name the offending rule.
        assert!(parse("sideways:rows:1:drop").is_err());
        assert!(parse("send:nosuchmsg:1:drop").is_err());
        assert!(parse("send:rows:0:drop").is_err());
        assert!(parse("send:rows:1:delay").is_err());
        assert!(parse("send:rows:1:explode").is_err());
    }

    /// Golden-bytes regression for the frame layout: the
    /// transport extraction must not have changed a single wire byte.
    /// `[len: u32 LE][tag][payload][fnv1a(tag ‖ payload): u64 LE]`.
    #[test]
    fn frame_layout_is_bitwise_unchanged_after_the_transport_move() {
        let mut wire = Vec::new();
        Channel::new(io::empty(), &mut wire)
            .send_frame(4, &[0xde, 0xad, 0xbe, 0xef])
            .unwrap();
        let mut expected = vec![5, 0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef];
        expected.extend_from_slice(&fnv1a(&[4, 0xde, 0xad, 0xbe, 0xef]).to_le_bytes());
        assert_eq!(wire, expected);
        // And two published FNV-1a 64 vectors, so a silent change to the
        // hash parameters cannot slip through either.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// Shard protocol messages round-trip unchanged through the extracted
    /// transport.
    #[test]
    fn protocol_v2_roundtrips_through_the_shared_transport() {
        use crate::protocol::Message;
        let msgs = [
            Message::Hello {
                version: PROTOCOL_VERSION,
                worker_id: 3,
                workers: 4,
            },
            Message::ModeStart { iter: 2, mode: 1 },
            Message::Heartbeat,
            Message::Shutdown,
        ];
        let mut wire = Vec::new();
        {
            let mut tx = Channel::new(io::empty(), &mut wire);
            for m in &msgs {
                crate::protocol::send(&mut tx, m).unwrap();
            }
        }
        let mut rx = Channel::new(wire.as_slice(), io::sink());
        for m in &msgs {
            assert_eq!(&crate::protocol::recv(&mut rx).unwrap(), m);
        }
    }

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
