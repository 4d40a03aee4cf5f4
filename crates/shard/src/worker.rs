//! The worker side of a sharded fit: a full deterministic fit replica
//! whose row sweeps are restricted to the shard it owns.
//!
//! A worker does **not** receive factors, plans or windows — it receives
//! the COO tensor and the fit options once ([`crate::protocol::Message::Plan`])
//! and rebuilds everything locally: the same seeded RNG produces the
//! same initial factors and core on every process, and the same plan
//! build yields the same execution plan. The only divergence is which
//! rows each process updates — repaired every mode by the
//! `Rows`/`FactorSync` all-reduce, which on the last mode also merges the
//! rows' squared residuals, so every process sums the same per-row buffer
//! into the same error and takes the same convergence decision without a
//! whole-tensor pass — which is what makes a K-shard fit bitwise identical
//! to the single-process one.
//!
//! Fault tolerance adds three things on this side:
//!
//! - **Heartbeats**: at every receive point, a [`Message::Heartbeat`] is
//!   echoed straight back and the expected message awaited again — that
//!   is how the coordinator distinguishes a slow worker (echo arrives)
//!   from a dead one (pipe error) or a hung one (silence).
//! - **Reassignment**: a [`Message::Reassign`] received while awaiting
//!   `FactorSync` replaces the worker's owned row ranges in place — the
//!   coordinator widens a survivor's shard to absorb a dead neighbour's
//!   rows mid-fit.
//! - **Resume**: a plan may carry an encoded
//!   [`ptucker::FitCheckpoint`]; the worker then joins an in-flight fit
//!   at the checkpoint's iteration instead of iteration 0 (how a
//!   respawned replacement catches up bitwise).

use crate::protocol::{self, Message, PlanMsg, RowsMsg, WorkerStatsMsg};
use crate::{ShardError, PROTOCOL_VERSION};
use ptucker::sync::FitSync;
use ptucker::{FitCheckpoint, FitResult, FitStats, PTucker, PtuckerError};
use ptucker_linalg::LinalgError;
use ptucker_tensor::SparseTensor;
use ptucker_transport::Channel;
use std::io::{Read, Write};
use std::ops::Range;
use std::time::Instant;

/// Converts a transport/protocol failure into the fit error the hooks
/// must return.
fn sync_err(e: ShardError) -> PtuckerError {
    PtuckerError::Sync(e.to_string())
}

/// The error every process returns when **some** shard's row solve
/// failed — the same error a single-process fit returns from its own
/// failed solve, so sharding preserves error semantics.
pub(crate) fn solve_failure() -> PtuckerError {
    PtuckerError::Linalg(LinalgError::Singular { pivot: 0 })
}

pub(crate) fn unexpected(expected: &str, got: &Message) -> ShardError {
    ShardError::Protocol(format!("expected {expected}, got {}", got.name()))
}

/// Observed entries in the owned range, per mode — a sweep of mode `m`
/// touches exactly this many stream positions. Recomputed after a
/// reassignment widens the shard.
fn ranges_nnz(x: &SparseTensor, ranges: &[Range<usize>]) -> Vec<u64> {
    (0..x.order())
        .map(|m| ranges[m].clone().map(|i| x.slice_len(m, i) as u64).sum())
        .collect()
}

/// [`FitSync`] implementation driving one worker's fit replica.
struct WorkerSync<'a, R: Read, W: Write> {
    chan: &'a mut Channel<R, W>,
    x: &'a SparseTensor,
    /// Owned row range per mode.
    ranges: Vec<Range<usize>>,
    /// Precomputed per-mode owned-entry counts (see [`ranges_nnz`]).
    mode_nnz: Vec<u64>,
    rows_updated: u64,
    nnz_processed: u64,
    t_start: Instant,
}

impl<R: Read, W: Write> WorkerSync<'_, R, W> {
    /// Receives the next fit-protocol message, transparently servicing
    /// control traffic: heartbeats are echoed (liveness probes must not
    /// desynchronise the fit conversation) and reassignments are applied
    /// in place, then the wait resumes.
    fn recv_expected(&mut self) -> Result<Message, ShardError> {
        loop {
            match protocol::recv(self.chan)? {
                Message::Heartbeat => protocol::send(self.chan, &Message::Heartbeat)?,
                Message::Reassign { ranges } => self.apply_reassign(ranges)?,
                m => return Ok(m),
            }
        }
    }

    /// Installs a widened shard sent by the coordinator after a peer
    /// died. Validated like the original plan's ranges; `mode_nnz` is
    /// recomputed so the stats stay honest.
    fn apply_reassign(&mut self, ranges: Vec<Range<usize>>) -> Result<(), ShardError> {
        validate_shard_ranges(self.x, &ranges)?;
        self.mode_nnz = ranges_nnz(self.x, &ranges);
        self.ranges = ranges;
        Ok(())
    }
}

/// Checks a per-mode range vector against the tensor's dimensions.
fn validate_shard_ranges(x: &SparseTensor, ranges: &[Range<usize>]) -> Result<(), ShardError> {
    if ranges.len() != x.order() {
        return Err(ShardError::Protocol(format!(
            "{} shard ranges for an order-{} tensor",
            ranges.len(),
            x.order()
        )));
    }
    for (m, r) in ranges.iter().enumerate() {
        if r.start > r.end || r.end > x.dims()[m] {
            return Err(ShardError::Protocol(format!(
                "shard range {r:?} out of bounds for mode {m} ({} rows)",
                x.dims()[m]
            )));
        }
    }
    Ok(())
}

impl<R: Read, W: Write> FitSync for WorkerSync<'_, R, W> {
    fn begin_mode(&mut self, iter: usize, mode: usize) -> ptucker::Result<()> {
        match self.recv_expected().map_err(sync_err)? {
            Message::ModeStart { iter: i, mode: m }
                if i == iter as u64 && m == mode as u32 =>
            {
                Ok(())
            }
            Message::ModeStart { iter: i, mode: m } => Err(PtuckerError::Sync(format!(
                "lockstep broken: coordinator at iter {i} mode {m}, worker at iter {iter} mode {mode}"
            ))),
            m => Err(sync_err(unexpected("ModeStart", &m))),
        }
    }

    fn row_range(&mut self, mode: usize, rows: usize) -> Range<usize> {
        let r = self.ranges[mode].clone();
        debug_assert!(
            r.end <= rows,
            "owned range validated against dims at startup"
        );
        let _ = rows;
        self.rows_updated += (r.end - r.start) as u64;
        self.nnz_processed += self.mode_nnz[mode];
        r
    }

    fn sync_factor(
        &mut self,
        mode: usize,
        j_n: usize,
        data: &mut [f64],
        local_ok: bool,
        resweep: &mut ptucker::sync::Resweep<'_>,
    ) -> ptucker::Result<()> {
        let r = self.ranges[mode].clone();
        let row_sse = resweep.row_sse();
        protocol::send(
            self.chan,
            &Message::Rows(RowsMsg {
                mode: mode as u32,
                lo: r.start as u64,
                hi: r.end as u64,
                ok: local_ok,
                data: data[r.start * j_n..r.end * j_n].to_vec(),
                row_sse: row_sse.map(|sse| sse.to_vec(r.clone())),
            }),
        )
        .map_err(sync_err)?;
        // A Reassign, if one is coming this mode, arrives *before* the
        // FactorSync — recv_expected applies it, so the widened shard is
        // in place before the next mode's row_range is consulted.
        match self.recv_expected().map_err(sync_err)? {
            Message::FactorSync {
                mode: m,
                ok,
                data: merged,
                row_sse: merged_sse,
            } if m == mode as u32 => {
                if !ok {
                    return Err(solve_failure());
                }
                if merged.len() != data.len() {
                    return Err(PtuckerError::Sync(format!(
                        "merged factor has {} doubles, expected {}",
                        merged.len(),
                        data.len()
                    )));
                }
                let want = row_sse.map(|sse| sse.len());
                if merged_sse.as_ref().map(Vec::len) != want {
                    return Err(PtuckerError::Sync(format!(
                        "merged residual section has {:?} doubles, expected {want:?}",
                        merged_sse.as_ref().map(Vec::len)
                    )));
                }
                data.copy_from_slice(&merged);
                if let (Some(sse), Some(merged_sse)) = (row_sse, merged_sse) {
                    sse.copy_from(0, &merged_sse);
                }
                Ok(())
            }
            m => Err(sync_err(unexpected("FactorSync", &m))),
        }
    }

    fn finish(&mut self, stats: &mut FitStats) -> ptucker::Result<()> {
        let counters = self.chan.counters();
        stats.bytes_sent = counters.sent();
        stats.bytes_received = counters.received();
        protocol::send(
            self.chan,
            &Message::Stats(WorkerStatsMsg {
                rows_updated: self.rows_updated,
                nnz_processed: self.nnz_processed,
                wall_seconds: self.t_start.elapsed().as_secs_f64(),
                bytes_sent: counters.sent(),
                bytes_received: counters.received(),
            }),
        )
        .map_err(sync_err)?;
        match self.recv_expected().map_err(sync_err)? {
            Message::Shutdown => Ok(()),
            m => Err(sync_err(unexpected("Shutdown", &m))),
        }
    }
}

/// Runs the worker protocol to completion over an established transport:
/// handshake, plan receipt, the sharded fit replica, stats, shutdown.
/// This is the entire worker — the same function serves a spawned
/// process (stdin/stdout pipes) and an in-process thread worker (a Unix
/// socket pair), which is what lets the thread transport property-test
/// the byte protocol itself.
///
/// # Errors
/// Transport/protocol failures, or any error of the underlying fit.
pub fn worker_loop<R: Read, W: Write>(reader: R, writer: W) -> Result<FitResult, ShardError> {
    let mut chan = Channel::new(reader, writer);
    let (worker_id, workers) = match protocol::recv(&mut chan)? {
        Message::Hello {
            version,
            worker_id,
            workers,
        } => {
            if version != PROTOCOL_VERSION {
                return Err(ShardError::Protocol(format!(
                    "protocol version mismatch: coordinator {version}, worker {PROTOCOL_VERSION}"
                )));
            }
            (worker_id, workers)
        }
        m => return Err(unexpected("Hello", &m)),
    };
    protocol::send(
        &mut chan,
        &Message::Hello {
            version: PROTOCOL_VERSION,
            worker_id,
            workers,
        },
    )?;
    let mut plan = match protocol::recv(&mut chan)? {
        Message::Plan(p) => p,
        m => return Err(unexpected("Plan", &m)),
    };
    // Chaos harness: a plan may carry a fault spec for *this* worker.
    // Installed after the handshake so the rule counters start at the
    // first fit-protocol frame (ModeStart is recv #1).
    if let Some(spec) = plan.fault.take() {
        let inj = protocol::parse_fault_spec(&spec).map_err(ShardError::Protocol)?;
        chan.inject_faults(inj);
    }
    run_shard(&mut chan, *plan)
}

/// Rebuilds the tensor and runs the restricted fit replica.
fn run_shard<R: Read, W: Write>(
    chan: &mut Channel<R, W>,
    plan: PlanMsg,
) -> Result<FitResult, ShardError> {
    let t_start = Instant::now();
    let PlanMsg {
        opts,
        dims,
        indices,
        values,
        ranges,
        resume,
        fault: _,
    } = plan;
    let x =
        SparseTensor::from_flat(dims, indices, values).map_err(|e| ShardError::Fit(e.into()))?;
    validate_shard_ranges(&x, &ranges)?;
    let resume_ckpt = match resume {
        Some(bytes) => Some(FitCheckpoint::decode(&bytes).map_err(ShardError::Fit)?),
        None => None,
    };
    let mode_nnz = ranges_nnz(&x, &ranges);
    let solver = PTucker::new(opts).map_err(ShardError::Fit)?;
    let mut sync = WorkerSync {
        chan,
        x: &x,
        ranges,
        mode_nnz,
        rows_updated: 0,
        nnz_processed: 0,
        t_start,
    };
    solver
        .fit_with_sync_resume(&x, &mut sync, resume_ckpt)
        .map_err(ShardError::Fit)
}
