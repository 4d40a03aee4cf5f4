//! Multi-process sharded P-Tucker fits.
//!
//! A coordinator spawns `K` workers (separate processes over stdio
//! pipes, or in-process threads over a Unix socket pair — both speak the
//! identical byte protocol) and runs the ALS sweep in lockstep with
//! them. Every process holds a full deterministic replica of the fit —
//! same seeded factor/core init, same plans — but each worker only
//! *updates* the factor rows it owns (nnz-balanced via
//! [`ptucker_sched::weighted_blocks`]). After each mode the coordinator
//! gathers the owners' rows, concatenates them (the ranges are disjoint,
//! so the merge involves no floating-point arithmetic and is trivially
//! deterministic) and broadcasts the merged factor before the next mode
//! begins. On the last mode the owners' per-row squared residuals ride
//! along the same way, so the per-iteration error is the row-order sum of
//! one merged buffer on every process and nobody runs a whole-tensor error
//! pass. Only `O(I_n·J)` doubles per mode cross the wire — execution-plan
//! windows and `Pres` rows never do.
//!
//! The result is **bitwise identical** to a single-process
//! [`ptucker::PTucker::fit`] with the same options, for every kernel
//! variant and for resident and spilled placements alike (the Cache
//! variant is resident-only: where its table does not fit, the sharded
//! fit fails as the solo fit does).
//!
//! # Wire
//!
//! The framed transport and the byte codec live in [`ptucker_transport`]
//! (frames, byte counters, read deadlines, fault injection, and its
//! [`ptucker_transport::wire`] module), shared with the serving read
//! path. This crate re-exports the transport types at its root
//! ([`Channel`], [`Frame`], [`fnv1a`], [`FaultInjector`], …) and defines
//! the shard message set and [`PROTOCOL_VERSION`] in [`protocol`].
//!
//! # Fault tolerance
//!
//! With a [`FaultPolicy`] installed, a worker that dies or hangs
//! mid-fit no longer takes the fit down. Deadlines
//! ([`FaultPolicy::frame_timeout`], probed with heartbeats) distinguish
//! a slow worker from a silent one; a condemned worker's owned rows are
//! re-swept by the coordinator's own replica — with the *same* kernel,
//! schedule and window mechanics as the worker would have used, so the
//! fit stays bitwise identical — and then either permanently
//! reassigned to an adjacent surviving worker
//! ([`Recovery::Reassign`]) or handed back to a respawned replacement
//! seeded from an in-memory checkpoint ([`Recovery::Respawn`]). If
//! neither works, the coordinator simply keeps the rows: graceful
//! degradation, never a wrong answer.
//!
//! Checkpoint–resume rides the same machinery: with
//! [`ptucker::FitOptions::checkpoint_path`] set, the coordinator
//! persists [`ptucker::FitCheckpoint`]s at the configured cadence, and
//! [`ptucker::FitOptions::resume_from`] continues an interrupted
//! sharded fit bitwise (workers receive the checkpoint bytes in their
//! plan).
//!
//! ```no_run
//! use ptucker::FitOptions;
//! use ptucker_shard::{FaultPolicy, ShardedFit, WorkerSpawn};
//! # fn demo(x: &ptucker_tensor::SparseTensor) -> Result<(), ptucker_shard::ShardError> {
//! // `worker_guard()` first thing in main() makes any binary shardable.
//! ptucker_shard::worker_guard();
//! let sharded = ShardedFit::new(2, WorkerSpawn::CurrentExe)
//!     .fault_policy(FaultPolicy::default());
//! let out = sharded.fit(x, FitOptions::new(vec![4, 4, 4]).seed(7))?;
//! println!("moved {} bytes", out.fit.stats.bytes_sent);
//! # Ok(()) }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod protocol;
mod worker;

pub use protocol::PROTOCOL_VERSION;
pub use ptucker_transport::{
    fnv1a, ByteCounters, Channel, FaultAction, FaultInjector, FaultPoint, FaultRule, Frame,
};
pub use worker::worker_loop;

use protocol::{Message, PlanMsg, RowsMsg, WorkerStatsMsg};
use ptucker::engine::DirectKernel;
use ptucker::sync::FitSync;
use ptucker::{FitCheckpoint, FitOptions};
use ptucker::{FitResult, FitStats, PTucker, PtuckerError};
use ptucker_sched::{Background, RecvTimeout};
use ptucker_tensor::SparseTensor;
use std::fmt;
use std::io;
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// Argument that flips a [`worker_guard`]-instrumented binary into
/// worker mode when the coordinator re-executes itself.
pub const WORKER_ARG: &str = "--ptucker-shard-worker";

/// Which step of the coordinator↔worker conversation an error occurred
/// in — carried by [`ShardError::Worker`] and [`ShardError::Timeout`]
/// so a failure names its protocol phase, not just its byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// Launching the worker process/thread.
    Spawn,
    /// The version handshake.
    Hello,
    /// Shipping the tensor + options + shard plan.
    Plan,
    /// The per-(iteration, mode) lockstep barrier.
    ModeStart,
    /// Gathering a worker's updated factor rows.
    Rows,
    /// Broadcasting the merged factor.
    FactorSync,
    /// The final stats exchange.
    Stats,
    /// The clean-shutdown message.
    Shutdown,
    /// A liveness probe.
    Heartbeat,
    /// Re-homing a dead worker's rows onto a survivor.
    Reassign,
}

impl fmt::Display for ShardPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ShardPhase::Spawn => "Spawn",
            ShardPhase::Hello => "Hello",
            ShardPhase::Plan => "Plan",
            ShardPhase::ModeStart => "ModeStart",
            ShardPhase::Rows => "Rows",
            ShardPhase::FactorSync => "FactorSync",
            ShardPhase::Stats => "Stats",
            ShardPhase::Shutdown => "Shutdown",
            ShardPhase::Heartbeat => "Heartbeat",
            ShardPhase::Reassign => "Reassign",
        };
        f.write_str(name)
    }
}

/// Anything that can go wrong running a sharded fit.
#[derive(Debug)]
pub enum ShardError {
    /// A transport read/write failed (broken pipe, closed socket, EOF
    /// from a peer that exited early, corrupt frame).
    Io(io::Error),
    /// The byte stream was intact but the conversation was not: version
    /// mismatch, unexpected message, malformed payload, bad shard plan.
    Protocol(String),
    /// The underlying fit failed (on this process or, via the shared
    /// `ok` flag, on a peer).
    Fit(PtuckerError),
    /// A specific worker failed during a specific protocol phase — the
    /// coordinator's attribution wrapper around the underlying cause.
    Worker {
        /// Which worker failed.
        worker: u32,
        /// Which step of the conversation it failed in.
        phase: ShardPhase,
        /// What actually went wrong.
        cause: Box<ShardError>,
    },
    /// A worker stayed silent past every deadline the [`FaultPolicy`]
    /// allowed — alive enough to keep its pipe open, but not answering.
    Timeout {
        /// Which worker went silent.
        worker: u32,
        /// Which message the coordinator was waiting for.
        phase: ShardPhase,
        /// Total time spent waiting (including retries) before giving up.
        waited: Duration,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard transport error: {e}"),
            ShardError::Protocol(msg) => write!(f, "shard protocol error: {msg}"),
            ShardError::Fit(e) => write!(f, "shard fit error: {e}"),
            ShardError::Worker {
                worker,
                phase,
                cause,
            } => write!(f, "worker {worker} failed during {phase}: {cause}"),
            ShardError::Timeout {
                worker,
                phase,
                waited,
            } => write!(
                f,
                "worker {worker} timed out during {phase} after {waited:?}"
            ),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Io(e) => Some(e),
            ShardError::Protocol(_) => None,
            ShardError::Fit(e) => Some(e),
            ShardError::Worker { cause, .. } => Some(cause),
            ShardError::Timeout { .. } => None,
        }
    }
}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// What the coordinator does with a worker it has declared dead.
///
/// Either way, the mode in which the death is detected is first covered
/// by the coordinator's own replica (bitwise, via the driver's resweep
/// hook); `Recovery` decides who owns the rows *afterwards*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Permanently widen an adjacent surviving worker's shard to absorb
    /// the dead worker's rows. Cheap (one small message), but the
    /// survivor's per-mode work grows.
    Reassign,
    /// Spawn a replacement at the end of the iteration, seeded from an
    /// in-memory checkpoint of the coordinator's replica, owning the
    /// same rows. Costs a respawn + checkpoint transfer, but restores
    /// the original balance.
    Respawn,
}

/// Deadlines and recovery strategy for a fault-tolerant sharded fit.
///
/// Installed with [`ShardedFit::fault_policy`]. Without one, any worker
/// failure aborts the fit (the pre-fault-tolerance behaviour) — with
/// one, the coordinator probes silent workers with heartbeats, declares
/// them dead after `worker_retries` missed deadlines, covers their rows
/// itself and recovers per [`Recovery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// How long a single wait for a worker's frame may take before the
    /// coordinator probes it with a heartbeat.
    pub frame_timeout: Duration,
    /// How many consecutive missed deadlines (per wait) before the
    /// worker is declared dead. Also bounds how many times a worker can
    /// buy itself more time with heartbeat echoes alone.
    pub worker_retries: usize,
    /// Extra grace added to each successive retry's deadline.
    pub backoff: Duration,
    /// What to do with a dead worker's rows.
    pub recovery: Recovery,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            frame_timeout: Duration::from_secs(30),
            worker_retries: 3,
            backoff: Duration::from_secs(1),
            recovery: Recovery::Reassign,
        }
    }
}

/// Runs the worker protocol over this process's stdin/stdout. This is
/// what the `ptucker-shard-worker` binary does, and what
/// [`worker_guard`] dispatches to.
///
/// # Errors
/// Transport/protocol failures or any error of the underlying fit.
pub fn worker_stdio() -> Result<FitResult, ShardError> {
    worker_loop(io::stdin().lock(), io::stdout().lock())
}

/// Call this first thing in `main()` to make a binary usable as a
/// [`WorkerSpawn::CurrentExe`] target: if [`WORKER_ARG`] is present on
/// the command line the process runs the worker protocol on its stdio
/// and exits (status 0 on a clean fit, 1 otherwise); if not, it returns
/// immediately and `main()` proceeds as the coordinator.
pub fn worker_guard() {
    if std::env::args().any(|a| a == WORKER_ARG) {
        match worker_stdio() {
            Ok(_) => std::process::exit(0),
            Err(e) => {
                eprintln!("ptucker-shard worker: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// How the coordinator obtains its `K` workers.
#[derive(Debug, Clone)]
pub enum WorkerSpawn {
    /// Spawn the given binary (e.g. `ptucker-shard-worker`, or any
    /// binary that calls [`worker_guard`]) once per worker, speaking the
    /// protocol over its stdin/stdout. [`WORKER_ARG`] is passed so
    /// guarded binaries enter worker mode.
    Binary(PathBuf),
    /// Re-execute [`std::env::current_exe`] with [`WORKER_ARG`]; the
    /// target must call [`worker_guard`] early in `main()`.
    CurrentExe,
    /// Run workers as in-process threads over Unix socket pairs. Same
    /// byte protocol, same framing, same checksums — only the transport
    /// differs — which makes this the cheap way to property-test the
    /// protocol and to benchmark sharding without process startup noise.
    /// (A [`FaultAction::Kill`] injected fault kills the whole process
    /// here; use a process spawn for kill-based chaos tests.)
    Threads,
}

type RecvResp = Result<Message, ShardError>;
type SendResp = Result<(), ShardError>;

/// A connected worker. Reads and writes run on *separate*
/// [`Background`] threads over half-channels of the same transport, so
/// the coordinator can push a heartbeat probe at a worker while a read
/// from it is still pending — the single-threaded I/O loop this
/// replaces could not probe a silent worker at all. Pairing discipline
/// per half: every submit is matched by exactly one collect, in order.
struct WorkerHandle {
    id: u32,
    rx: Option<Background<(), RecvResp>>,
    tx: Option<Background<Box<Message>, SendResp>>,
    rx_counters: ByteCounters,
    tx_counters: ByteCounters,
    child: Option<Child>,
    thread: Option<JoinHandle<Result<FitResult, ShardError>>>,
    /// Thread-transport only: the coordinator's socket endpoint, kept
    /// so teardown can `shutdown()` it — closing a clone's fd does not
    /// unblock a peer's in-flight read, shutdown does.
    socket: Option<UnixStream>,
}

impl WorkerHandle {
    fn from_parts<R, W>(id: u32, reader: R, writer: W) -> Self
    where
        R: io::Read + Send + 'static,
        W: io::Write + Send + 'static,
    {
        let mut rx_chan = Channel::new(reader, io::sink());
        let rx_counters = rx_chan.counters();
        let rx = Background::spawn(move |(): ()| protocol::recv(&mut rx_chan));
        let mut tx_chan = Channel::new(io::empty(), writer);
        let tx_counters = tx_chan.counters();
        let tx = Background::spawn(move |msg: Box<Message>| protocol::send(&mut tx_chan, &msg));
        WorkerHandle {
            id,
            rx: Some(rx),
            tx: Some(tx),
            rx_counters,
            tx_counters,
            child: None,
            thread: None,
            socket: None,
        }
    }

    /// Attributes `cause` to this worker at `phase`.
    fn wrap(&self, phase: ShardPhase, cause: ShardError) -> ShardError {
        ShardError::Worker {
            worker: self.id,
            phase,
            cause: Box::new(cause),
        }
    }

    /// The error for an I/O thread that is gone (died, or already torn
    /// down) — the typed replacement for what used to be a panic.
    fn thread_died(&self, phase: ShardPhase) -> ShardError {
        self.wrap(
            phase,
            ShardError::Protocol("background I/O thread died".into()),
        )
    }

    fn submit_send(&self, phase: ShardPhase, msg: Message) -> Result<(), ShardError> {
        match self.tx.as_ref() {
            Some(tx) => tx
                .submit(Box::new(msg))
                .map_err(|_| self.thread_died(phase)),
            None => Err(self.thread_died(phase)),
        }
    }

    /// Collects the ack of the oldest outstanding send. Without a
    /// policy this blocks; with one, the wait is bounded (generously:
    /// writes only block when a peer stops draining its pipe).
    fn collect_send_ack(
        &self,
        phase: ShardPhase,
        policy: Option<&FaultPolicy>,
    ) -> Result<(), ShardError> {
        let tx = self.tx.as_ref().ok_or_else(|| self.thread_died(phase))?;
        match policy {
            None => match tx.recv() {
                Some(Ok(())) => Ok(()),
                Some(Err(e)) => Err(self.wrap(phase, e)),
                None => Err(self.thread_died(phase)),
            },
            Some(p) => {
                let wait = p.frame_timeout * (p.worker_retries as u32 + 1);
                match tx.recv_timeout(wait) {
                    RecvTimeout::Ready(Ok(())) => Ok(()),
                    RecvTimeout::Ready(Err(e)) => Err(self.wrap(phase, e)),
                    RecvTimeout::Disconnected => Err(self.thread_died(phase)),
                    RecvTimeout::TimedOut => Err(ShardError::Timeout {
                        worker: self.id,
                        phase,
                        waited: wait,
                    }),
                }
            }
        }
    }

    fn send(
        &self,
        phase: ShardPhase,
        policy: Option<&FaultPolicy>,
        msg: Message,
    ) -> Result<(), ShardError> {
        self.submit_send(phase, msg)?;
        self.collect_send_ack(phase, policy)
    }

    fn submit_recv(&self, phase: ShardPhase) -> Result<(), ShardError> {
        match self.rx.as_ref() {
            Some(rx) => rx.submit(()).map_err(|_| self.thread_died(phase)),
            None => Err(self.thread_died(phase)),
        }
    }

    /// Collects the message answering the oldest outstanding
    /// [`WorkerHandle::submit_recv`]. Stale heartbeat echoes are
    /// swallowed (and the recv resubmitted) at every collect point, so
    /// probes can never desynchronise the conversation.
    ///
    /// With a policy, each wait is bounded by `frame_timeout` plus an
    /// escalating backoff; a missed deadline triggers a heartbeat probe
    /// (a dead worker fails the probe write; a hung one accepts it and
    /// keeps burning retries), and `worker_retries` misses condemn the
    /// worker with [`ShardError::Timeout`]. Heartbeat echoes reset the
    /// retry clock at most `worker_retries` times, so a worker that
    /// echoes but never progresses is still condemned eventually.
    fn collect_msg(
        &self,
        phase: ShardPhase,
        policy: Option<&FaultPolicy>,
    ) -> Result<Message, ShardError> {
        let rx = self.rx.as_ref().ok_or_else(|| self.thread_died(phase))?;
        let Some(p) = policy else {
            loop {
                match rx.recv() {
                    Some(Ok(Message::Heartbeat)) => self.submit_recv(phase)?,
                    Some(Ok(m)) => return Ok(m),
                    Some(Err(e)) => return Err(self.wrap(phase, e)),
                    None => return Err(self.thread_died(phase)),
                }
            }
        };
        let mut attempts = 0usize;
        let mut revives = 0usize;
        let mut waited = Duration::ZERO;
        loop {
            let wait = p.frame_timeout + p.backoff * attempts as u32;
            match rx.recv_timeout(wait) {
                RecvTimeout::Ready(Ok(Message::Heartbeat)) => {
                    self.submit_recv(phase)?;
                    if revives < p.worker_retries {
                        revives += 1;
                        attempts = 0;
                    }
                }
                RecvTimeout::Ready(Ok(m)) => return Ok(m),
                RecvTimeout::Ready(Err(e)) => return Err(self.wrap(phase, e)),
                RecvTimeout::Disconnected => return Err(self.thread_died(phase)),
                RecvTimeout::TimedOut => {
                    waited += wait;
                    attempts += 1;
                    if attempts > p.worker_retries {
                        return Err(ShardError::Timeout {
                            worker: self.id,
                            phase,
                            waited,
                        });
                    }
                    self.probe(p)?;
                }
            }
        }
    }

    /// Liveness probe: push a heartbeat at the worker. A dead peer
    /// fails the write (broken pipe); a merely slow or hung one accepts
    /// the bytes — only the recv deadline can condemn it.
    fn probe(&self, p: &FaultPolicy) -> Result<(), ShardError> {
        self.submit_send(ShardPhase::Heartbeat, Message::Heartbeat)?;
        self.collect_send_ack(ShardPhase::Heartbeat, Some(p))
    }

    /// Clean shutdown after a successful fit: the worker has already
    /// been sent `Shutdown`, so it is exiting on its own.
    fn reap(&mut self) -> Result<(), ShardError> {
        drop(self.tx.take());
        drop(self.rx.take());
        drop(self.socket.take());
        if let Some(mut child) = self.child.take() {
            let status = child.wait()?;
            if !status.success() {
                return Err(ShardError::Protocol(format!(
                    "worker {} exited with {status}",
                    self.id
                )));
            }
        }
        if let Some(t) = self.thread.take() {
            match t.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(ShardError::Protocol(format!("worker {} panicked", self.id))),
            }
        }
        Ok(())
    }

    /// Teardown on the error path, deadlock-free even against a worker
    /// that died mid-frame: kill the process (its pipe ends close, so a
    /// pending read unblocks with EOF and a pending write with EPIPE),
    /// shut down the thread-transport socket (unblocks both peers'
    /// reads — a half-closed socket clone would not), then join the I/O
    /// threads and reap, ignoring the worker's own (expected) failure.
    fn abort(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
        if let Some(s) = self.socket.as_ref() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        drop(self.tx.take());
        drop(self.rx.take());
        drop(self.socket.take());
        if let Some(mut child) = self.child.take() {
            let _ = child.wait();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.abort();
    }
}

fn spawn_worker(spawn: &WorkerSpawn, id: u32) -> Result<WorkerHandle, ShardError> {
    match spawn {
        WorkerSpawn::Binary(path) => spawn_process(id, path.clone()),
        WorkerSpawn::CurrentExe => spawn_process(id, std::env::current_exe()?),
        WorkerSpawn::Threads => {
            let (coord, side) = UnixStream::pair()?;
            let reader = side.try_clone()?;
            let thread = std::thread::Builder::new()
                .name(format!("ptucker-shard-worker-{id}"))
                .spawn(move || worker_loop(reader, side))?;
            let mut h = WorkerHandle::from_parts(id, coord.try_clone()?, coord.try_clone()?);
            h.socket = Some(coord);
            h.thread = Some(thread);
            Ok(h)
        }
    }
}

fn spawn_process(id: u32, path: PathBuf) -> Result<WorkerHandle, ShardError> {
    let mut child = Command::new(path)
        .arg(WORKER_ARG)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdin = child
        .stdin
        .take()
        .ok_or_else(|| ShardError::Protocol("spawned worker has no stdin".into()))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| ShardError::Protocol("spawned worker has no stdout".into()))?;
    let mut h = WorkerHandle::from_parts(id, stdout, stdin);
    h.child = Some(child);
    Ok(h)
}

/// Validates a worker's Hello reply.
fn check_hello(h: &WorkerHandle, msg: Message) -> Result<(), ShardError> {
    match msg {
        Message::Hello {
            version, worker_id, ..
        } if version == PROTOCOL_VERSION && worker_id == h.id => Ok(()),
        Message::Hello { version, .. } => Err(ShardError::Protocol(format!(
            "worker {} answered with protocol version {version}, expected {PROTOCOL_VERSION}",
            h.id
        ))),
        m => Err(h.wrap(ShardPhase::Hello, worker::unexpected("Hello", &m))),
    }
}

/// The full handshake, sequentially (used when respawning a
/// replacement; the initial K-worker handshake overlaps its submits).
fn handshake(
    h: &WorkerHandle,
    workers: u32,
    policy: Option<&FaultPolicy>,
) -> Result<(), ShardError> {
    h.send(
        ShardPhase::Hello,
        policy,
        Message::Hello {
            version: PROTOCOL_VERSION,
            worker_id: h.id,
            workers,
        },
    )?;
    h.submit_recv(ShardPhase::Hello)?;
    check_hello(h, h.collect_msg(ShardPhase::Hello, policy)?)
}

/// Gathers and validates one worker's `Rows` message for `mode`; `with_sse`
/// is whether the mode carries the rows' squared residuals.
fn collect_rows(
    h: &WorkerHandle,
    policy: Option<&FaultPolicy>,
    mode: usize,
    expected: &Range<usize>,
    j_n: usize,
    data_len: usize,
    with_sse: bool,
) -> Result<RowsMsg, ShardError> {
    let rows = match h.collect_msg(ShardPhase::Rows, policy)? {
        Message::Rows(r) => r,
        m => return Err(h.wrap(ShardPhase::Rows, worker::unexpected("Rows", &m))),
    };
    let (lo, hi) = (rows.lo as usize, rows.hi as usize);
    if rows.mode as usize != mode || lo != expected.start || hi != expected.end {
        return Err(h.wrap(
            ShardPhase::Rows,
            ShardError::Protocol(format!(
                "sent rows {lo}..{hi} of mode {}, expected {expected:?} of mode {mode}",
                rows.mode
            )),
        ));
    }
    if rows.data.len() != (hi - lo) * j_n || hi * j_n > data_len {
        return Err(h.wrap(
            ShardPhase::Rows,
            ShardError::Protocol(format!(
                "sent {} doubles for rows {lo}..{hi} (J={j_n})",
                rows.data.len()
            )),
        ));
    }
    let sse_len = rows.row_sse.as_ref().map(Vec::len);
    if sse_len != with_sse.then_some(hi - lo) {
        return Err(h.wrap(
            ShardPhase::Rows,
            ShardError::Protocol(format!(
                "sent a residual section of {sse_len:?} doubles for rows {lo}..{hi} of mode \
                 {mode}, which {} one",
                if with_sse { "needs" } else { "has no" }
            )),
        ));
    }
    Ok(rows)
}

/// Re-homes every dead worker's owned ranges onto an adjacent alive
/// worker: the nearest survivor below whose range abuts from the left
/// is widened rightward, else the nearest above abutting from the
/// right is widened leftward; with no adjacent survivor the range
/// stays put (the coordinator keeps re-sweeping it). Dead workers are
/// visited in index order so a chain of deaths cascades downward onto
/// one survivor. Returns the indices of workers whose ranges changed.
fn transfer_ranges(alive: &[bool], ranges: &mut [Vec<Range<usize>>], order: usize) -> Vec<usize> {
    let mut changed = Vec::new();
    for w in 0..ranges.len() {
        if alive[w] {
            continue;
        }
        for m in 0..order {
            let r = ranges[w][m].clone();
            if r.is_empty() {
                continue;
            }
            let below = (0..w).rev().find(|&v| alive[v]);
            let above = (w + 1..ranges.len()).find(|&v| alive[v]);
            let target = match below {
                Some(v) if ranges[v][m].end == r.start => Some((v, true)),
                _ => match above {
                    Some(v) if ranges[v][m].start == r.end => Some((v, false)),
                    _ => None,
                },
            };
            let Some((v, is_below)) = target else {
                continue;
            };
            if is_below {
                ranges[v][m].end = r.end;
            } else {
                ranges[v][m].start = r.start;
            }
            ranges[w][m] = r.start..r.start;
            if !changed.contains(&v) {
                changed.push(v);
            }
        }
    }
    changed
}

/// One worker's seat at the fit: its live handle (`None` once dead),
/// its current row ownership, and whether respawning it has been given
/// up on.
struct WorkerSlot {
    handle: Option<WorkerHandle>,
    ranges: Vec<Range<usize>>,
    abandoned: bool,
}

/// The coordinator's [`FitSync`]: it owns no rows (its `row_range` is
/// empty, so its sweeps touch no plan windows), merges the workers'
/// rows after every mode, and broadcasts the result. Under a
/// [`FaultPolicy`] it is also the recovery state machine: detect (via
/// deadlines) → cover (resweep the dead shard on its own replica) →
/// recover (reassign or respawn).
struct CoordSync<'a> {
    slots: Vec<WorkerSlot>,
    policy: Option<FaultPolicy>,
    spawn: &'a WorkerSpawn,
    x: &'a SparseTensor,
    /// The options workers run with: checkpoint/resume paths stripped
    /// (persistence is the coordinator's job alone).
    plan_opts: FitOptions,
    workers: u32,
    worker_stats: Vec<WorkerStatsMsg>,
    recovered: Vec<String>,
    first_fault: Option<ShardError>,
    /// Byte counters salvaged from aborted workers' channels, so the
    /// final stats still account for traffic to workers that died.
    lost_sent: u64,
    lost_received: u64,
}

impl CoordSync<'_> {
    /// Records the first fatal fault (the typed error the public API
    /// surfaces) and converts it to the driver's error type.
    fn fail(&mut self, e: ShardError) -> PtuckerError {
        let msg = e.to_string();
        if self.first_fault.is_none() {
            self.first_fault = Some(e);
        }
        PtuckerError::Sync(msg)
    }

    /// Declares worker `w` dead: tears its handle down and salvages its
    /// byte counters. Idempotent.
    fn kill_slot(&mut self, w: usize, why: &ShardError) {
        if let Some(mut h) = self.slots[w].handle.take() {
            self.lost_sent += h.tx_counters.sent();
            self.lost_received += h.rx_counters.received();
            h.abort();
            self.recovered.push(format!("worker {w} removed: {why}"));
        }
    }

    /// Sends `msg` to every live worker — submits first so the `K`
    /// writes overlap, then collects the acks. Without a policy the
    /// first failure is fatal; with one, failed workers are killed and
    /// the broadcast succeeds for the survivors.
    fn broadcast(&mut self, phase: ShardPhase, msg: &Message) -> Result<(), ShardError> {
        let mut doomed: Vec<(usize, ShardError)> = Vec::new();
        for (w, s) in self.slots.iter().enumerate() {
            let Some(h) = s.handle.as_ref() else { continue };
            if let Err(e) = h.submit_send(phase, msg.clone()) {
                doomed.push((w, e));
            }
        }
        for (w, s) in self.slots.iter().enumerate() {
            if doomed.iter().any(|(d, _)| *d == w) {
                continue;
            }
            let Some(h) = s.handle.as_ref() else { continue };
            if let Err(e) = h.collect_send_ack(phase, self.policy.as_ref()) {
                doomed.push((w, e));
            }
        }
        if self.policy.is_some() {
            for (w, e) in doomed {
                self.kill_slot(w, &e);
            }
            Ok(())
        } else {
            match doomed.into_iter().next() {
                Some((_, e)) => Err(e),
                None => Ok(()),
            }
        }
    }

    /// Moves dead workers' future row ownership onto adjacent
    /// survivors and tells those survivors, *before* the FactorSync of
    /// the mode in which the deaths were detected — a worker blocked on
    /// that FactorSync applies the reassignment first, so the widened
    /// shard is in place before its next `row_range`.
    fn reassign_dead(&mut self, policy: FaultPolicy) {
        let alive: Vec<bool> = self.slots.iter().map(|s| s.handle.is_some()).collect();
        let mut ranges: Vec<Vec<Range<usize>>> =
            self.slots.iter().map(|s| s.ranges.clone()).collect();
        let changed = transfer_ranges(&alive, &mut ranges, self.x.order());
        for (s, r) in self.slots.iter_mut().zip(ranges) {
            s.ranges = r;
        }
        for v in changed {
            let msg = Message::Reassign {
                ranges: self.slots[v].ranges.clone(),
            };
            let res = match self.slots[v].handle.as_ref() {
                Some(h) => h.send(ShardPhase::Reassign, Some(&policy), msg),
                None => continue,
            };
            match res {
                Ok(()) => self
                    .recovered
                    .push(format!("worker {v} absorbed reassigned rows")),
                Err(e) => self.kill_slot(v, &e),
            }
        }
    }

    /// Spawns a replacement for slot `w`, replays the handshake and a
    /// plan carrying the checkpoint, and seats it. The replacement
    /// resumes at the checkpoint's iteration — in lockstep with
    /// everyone else by construction.
    fn respawn(&mut self, w: usize, ckpt: &[u8], p: &FaultPolicy) -> Result<(), ShardError> {
        let h = spawn_worker(self.spawn, w as u32).map_err(|e| ShardError::Worker {
            worker: w as u32,
            phase: ShardPhase::Spawn,
            cause: Box::new(e),
        })?;
        handshake(&h, self.workers, Some(p))?;
        h.send(
            ShardPhase::Plan,
            Some(p),
            Message::Plan(Box::new(PlanMsg {
                opts: self.plan_opts.clone(),
                dims: self.x.dims().to_vec(),
                indices: self.x.flat_indices().to_vec(),
                values: self.x.values().to_vec(),
                ranges: self.slots[w].ranges.clone(),
                resume: Some(ckpt.to_vec()),
                fault: None,
            })),
        )?;
        self.slots[w].handle = Some(h);
        Ok(())
    }
}

impl FitSync for CoordSync<'_> {
    fn begin_mode(&mut self, iter: usize, mode: usize) -> ptucker::Result<()> {
        self.broadcast(
            ShardPhase::ModeStart,
            &Message::ModeStart {
                iter: iter as u64,
                mode: mode as u32,
            },
        )
        .map_err(|e| self.fail(e))
    }

    fn row_range(&mut self, _mode: usize, _rows: usize) -> Range<usize> {
        0..0
    }

    fn sync_factor(
        &mut self,
        mode: usize,
        j_n: usize,
        data: &mut [f64],
        local_ok: bool,
        resweep: &mut ptucker::sync::Resweep<'_>,
    ) -> ptucker::Result<()> {
        let policy = self.policy;
        let row_sse = resweep.row_sse();
        // Gather: the recvs were all submitted before any collect, so
        // slow workers overlap; the merge order (worker 0..K) is fixed,
        // and the ranges are disjoint, so the merged factor (and residual
        // buffer) is deterministic regardless of arrival order.
        let mut doomed: Vec<(usize, ShardError)> = Vec::new();
        for (w, s) in self.slots.iter().enumerate() {
            let Some(h) = s.handle.as_ref() else { continue };
            if let Err(e) = h.submit_recv(ShardPhase::Rows) {
                doomed.push((w, e));
            }
        }
        let mut ok = local_ok;
        for (w, s) in self.slots.iter().enumerate() {
            if doomed.iter().any(|(d, _)| *d == w) {
                continue;
            }
            let Some(h) = s.handle.as_ref() else { continue };
            let with_sse = row_sse.is_some();
            match collect_rows(
                h,
                policy.as_ref(),
                mode,
                &s.ranges[mode],
                j_n,
                data.len(),
                with_sse,
            ) {
                Ok(rows) => {
                    let (lo, hi) = (rows.lo as usize, rows.hi as usize);
                    data[lo * j_n..hi * j_n].copy_from_slice(&rows.data);
                    if let (Some(dst), Some(src)) = (row_sse, &rows.row_sse) {
                        dst.copy_from(lo, src);
                    }
                    ok &= rows.ok;
                }
                Err(e) => doomed.push((w, e)),
            }
        }
        if policy.is_none() {
            if let Some((_, e)) = doomed.into_iter().next() {
                return Err(self.fail(e));
            }
        } else {
            for (w, e) in doomed {
                self.kill_slot(w, &e);
            }
        }
        // Cover every dead shard on the coordinator's own replica: the
        // resweep hook re-runs the rows with the same kernel, schedule
        // and windows the worker would have used, so the merged factor —
        // and, on the last mode, those rows' squared residuals — is
        // bitwise what the undisturbed fit would have produced.
        for w in 0..self.slots.len() {
            if self.slots[w].handle.is_some() {
                continue;
            }
            let r = self.slots[w].ranges[mode].clone();
            if r.is_empty() {
                continue;
            }
            ok &= resweep.sweep(r, data)?;
        }
        if let Some(p) = policy {
            if p.recovery == Recovery::Reassign {
                self.reassign_dead(p);
            }
        }
        self.broadcast(
            ShardPhase::FactorSync,
            &Message::FactorSync {
                mode: mode as u32,
                ok,
                data: data.to_vec(),
                row_sse: row_sse.map(|sse| sse.to_vec(0..sse.len())),
            },
        )
        .map_err(|e| self.fail(e))?;
        if !ok {
            // Same error a single-process fit returns from its own
            // failed row solve; every worker raises it too.
            return Err(worker::solve_failure());
        }
        Ok(())
    }

    fn end_iter(
        &mut self,
        _iter: usize,
        make_checkpoint: &mut dyn FnMut() -> ptucker::Result<Vec<u8>>,
    ) -> ptucker::Result<()> {
        let Some(p) = self.policy else {
            return Ok(());
        };
        if p.recovery != Recovery::Respawn {
            return Ok(());
        }
        let need: Vec<usize> = (0..self.slots.len())
            .filter(|&w| {
                self.slots[w].handle.is_none()
                    && !self.slots[w].abandoned
                    && self.slots[w].ranges.iter().any(|r| !r.is_empty())
            })
            .collect();
        if need.is_empty() {
            return Ok(());
        }
        let bytes = make_checkpoint()?;
        for w in need {
            match self.respawn(w, &bytes, &p) {
                Ok(()) => self
                    .recovered
                    .push(format!("worker {w} respawned from checkpoint")),
                Err(e) => {
                    // Graceful degradation: stop trying, keep covering
                    // its rows from the coordinator's replica.
                    self.slots[w].abandoned = true;
                    self.recovered.push(format!(
                        "worker {w} could not be respawned ({e}); coordinator keeps its rows"
                    ));
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self, stats: &mut FitStats) -> ptucker::Result<()> {
        let policy = self.policy;
        let mut doomed: Vec<(usize, ShardError)> = Vec::new();
        for (w, s) in self.slots.iter().enumerate() {
            let Some(h) = s.handle.as_ref() else { continue };
            if let Err(e) = h.submit_recv(ShardPhase::Stats) {
                doomed.push((w, e));
            }
        }
        let mut got = Vec::new();
        for (w, s) in self.slots.iter().enumerate() {
            if doomed.iter().any(|(d, _)| *d == w) {
                continue;
            }
            let Some(h) = s.handle.as_ref() else { continue };
            match h.collect_msg(ShardPhase::Stats, policy.as_ref()) {
                Ok(Message::Stats(s)) => got.push(s),
                Ok(m) => doomed.push((w, worker::unexpected("Stats", &m))),
                Err(e) => doomed.push((w, e)),
            }
        }
        if policy.is_none() {
            if let Some((_, e)) = doomed.into_iter().next() {
                return Err(self.fail(e));
            }
        } else {
            for (w, e) in doomed {
                self.kill_slot(w, &e);
            }
        }
        self.worker_stats.extend(got);
        self.broadcast(ShardPhase::Shutdown, &Message::Shutdown)
            .map_err(|e| self.fail(e))?;
        stats.bytes_sent = self.lost_sent
            + self
                .slots
                .iter()
                .filter_map(|s| s.handle.as_ref())
                .map(|h| h.tx_counters.sent())
                .sum::<u64>();
        stats.bytes_received = self.lost_received
            + self
                .slots
                .iter()
                .filter_map(|s| s.handle.as_ref())
                .map(|h| h.rx_counters.received())
                .sum::<u64>();
        Ok(())
    }
}

/// What a sharded fit returns: the fit (bitwise identical to the
/// single-process one, except `FitStats::bytes_sent`/`bytes_received`
/// which report the coordinator's comms volume) plus each worker's
/// share of the work.
#[derive(Debug, Clone)]
pub struct ShardedFitResult {
    /// The fitted model and statistics, from the coordinator's replica.
    pub fit: FitResult,
    /// Per-worker totals, in worker order. Workers that died mid-fit
    /// contribute no entry (their traffic still counts in the fit's
    /// byte totals).
    pub worker_stats: Vec<WorkerStatsMsg>,
    /// Human-readable log of every fault the coordinator survived:
    /// which workers were declared dead and why, which rows were
    /// reassigned, which workers were respawned. Empty for an
    /// undisturbed fit.
    pub recovered: Vec<String>,
}

/// Coordinator for a `K`-worker sharded fit.
#[derive(Debug, Clone)]
pub struct ShardedFit {
    workers: usize,
    spawn: WorkerSpawn,
    policy: Option<FaultPolicy>,
    faults: Vec<(u32, String)>,
}

impl ShardedFit {
    /// A coordinator that will run `workers` workers obtained via
    /// `spawn`. `workers` is clamped to at least 1.
    pub fn new(workers: usize, spawn: WorkerSpawn) -> Self {
        ShardedFit {
            workers: workers.max(1),
            spawn,
            policy: None,
            faults: Vec::new(),
        }
    }

    /// Installs a [`FaultPolicy`]: worker deaths and hangs mid-fit are
    /// survived (and the fit stays bitwise identical) instead of
    /// aborting. Failures during spawn or the initial handshake remain
    /// fatal — a fit that cannot even start has nothing to recover.
    #[must_use]
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Arms a [`FaultInjector`] on `worker`'s transport (chaos
    /// testing): `spec` uses the grammar of
    /// [`protocol::parse_fault_spec`], e.g. `"send:rows:2:drop"` or
    /// `"recv:factorsync:1:kill"`.
    /// Several calls for the same worker are joined into one spec.
    /// Respawned replacements are never re-armed.
    #[must_use]
    pub fn inject_fault(mut self, worker: u32, spec: impl Into<String>) -> Self {
        self.faults.push((worker, spec.into()));
        self
    }

    /// Runs a sharded fit with nnz-balanced row ownership
    /// ([`nnz_balanced_ranges`]).
    ///
    /// # Errors
    /// Spawn/transport/protocol failures, or the fit error every process
    /// raises identically (e.g. a singular row solve on any shard).
    pub fn fit(&self, x: &SparseTensor, opts: FitOptions) -> Result<ShardedFitResult, ShardError> {
        self.fit_with_ranges(x, opts, nnz_balanced_ranges(x, self.workers))
    }

    /// Like [`ShardedFit::fit`] but with explicit row ownership:
    /// `ranges[w][m]` is worker `w`'s rows of mode `m`. Per mode, the
    /// ranges must tile `0..dims[m]` contiguously in worker order
    /// (empty ranges are fine) — that is what makes the merge a plain
    /// concatenation.
    ///
    /// # Errors
    /// As [`ShardedFit::fit`], plus [`ShardError::Protocol`] on a plan
    /// that does not tile every mode or a malformed fault spec.
    pub fn fit_with_ranges(
        &self,
        x: &SparseTensor,
        opts: FitOptions,
        ranges: Vec<Vec<Range<usize>>>,
    ) -> Result<ShardedFitResult, ShardError> {
        validate_ranges(x, self.workers, &ranges)?;
        for (w, spec) in &self.faults {
            if *w as usize >= self.workers {
                return Err(ShardError::Protocol(format!(
                    "fault spec targets worker {w}, but there are only {}",
                    self.workers
                )));
            }
            protocol::parse_fault_spec(spec).map_err(ShardError::Protocol)?;
        }
        // The coordinator owns persistence; workers run with the
        // checkpoint/resume paths stripped and receive resume *bytes*
        // in their plan instead (their stripped options still
        // fingerprint-match a checkpoint made here, by construction).
        let mut plan_opts = opts.clone();
        plan_opts.checkpoint_path = None;
        plan_opts.resume_from = None;
        let resume_bytes = match opts.resume_from.as_ref() {
            Some(p) => Some(FitCheckpoint::load(p).map_err(ShardError::Fit)?.encode()),
            None => None,
        };
        let policy = self.policy;
        let k = self.workers as u32;
        let mut handles = Vec::with_capacity(self.workers);
        for id in 0..k {
            handles.push(
                spawn_worker(&self.spawn, id).map_err(|e| ShardError::Worker {
                    worker: id,
                    phase: ShardPhase::Spawn,
                    cause: Box::new(e),
                })?,
            );
        }
        // Handshake + plan, per worker. Submitting everything before
        // collecting anything overlaps worker startup and plan builds.
        for (w, h) in handles.iter().enumerate() {
            h.submit_send(
                ShardPhase::Hello,
                Message::Hello {
                    version: PROTOCOL_VERSION,
                    worker_id: h.id,
                    workers: k,
                },
            )?;
            h.submit_recv(ShardPhase::Hello)?;
            let specs: Vec<&str> = self
                .faults
                .iter()
                .filter(|(fw, _)| *fw as usize == w)
                .map(|(_, s)| s.as_str())
                .collect();
            h.submit_send(
                ShardPhase::Plan,
                Message::Plan(Box::new(PlanMsg {
                    opts: plan_opts.clone(),
                    dims: x.dims().to_vec(),
                    indices: x.flat_indices().to_vec(),
                    values: x.values().to_vec(),
                    ranges: ranges[w].clone(),
                    resume: resume_bytes.clone(),
                    fault: if specs.is_empty() {
                        None
                    } else {
                        Some(specs.join(";"))
                    },
                })),
            )?;
        }
        for h in &handles {
            h.collect_send_ack(ShardPhase::Hello, None)?;
            check_hello(h, h.collect_msg(ShardPhase::Hello, policy.as_ref())?)?;
            h.collect_send_ack(ShardPhase::Plan, None)?;
        }

        let solver = PTucker::new(opts.clone()).map_err(ShardError::Fit)?;
        let slots: Vec<WorkerSlot> = handles
            .into_iter()
            .zip(ranges)
            .map(|(h, r)| WorkerSlot {
                handle: Some(h),
                ranges: r,
                abandoned: false,
            })
            .collect();
        let mut sync = CoordSync {
            slots,
            policy,
            spawn: &self.spawn,
            x,
            plan_opts,
            workers: k,
            worker_stats: Vec::new(),
            recovered: Vec::new(),
            first_fault: None,
            lost_sent: 0,
            lost_received: 0,
        };
        // Fault-tolerant (or checkpointing/resuming) fits drive the
        // *real* variant kernel on the coordinator: its replica must be
        // able to re-sweep any worker's rows bitwise and to checkpoint
        // kernel state (the Cache `Pres` tables evolve by incremental
        // rescale, which a fresh rebuild does not reproduce bitwise).
        // Without those needs, the coordinator updates no rows, so the
        // `Pres` tables would be pure overhead: it drives every variant
        // with the direct kernel. Approx sweeps with that kernel anyway,
        // and its truncation is a driver step that follows `opts.variant`,
        // so every replica still makes the same truncation decisions.
        let fault_mode =
            policy.is_some() || opts.checkpoint_path.is_some() || opts.resume_from.is_some();
        let fit = if fault_mode {
            solver.fit_with_sync(x, &mut sync)
        } else {
            solver.fit_with_kernel(x, DirectKernel, &mut sync)
        };
        let CoordSync {
            mut slots,
            worker_stats,
            recovered,
            first_fault,
            ..
        } = sync;
        match fit {
            Ok(fit) => {
                for s in &mut slots {
                    if let Some(h) = s.handle.as_mut() {
                        h.reap()?;
                    }
                }
                Ok(ShardedFitResult {
                    fit,
                    worker_stats,
                    recovered,
                })
            }
            Err(e) => {
                for s in &mut slots {
                    if let Some(h) = s.handle.as_mut() {
                        h.abort();
                    }
                }
                Err(first_fault.unwrap_or(ShardError::Fit(e)))
            }
        }
    }
}

/// nnz-balanced row ownership: for every mode, rows are split into `K`
/// contiguous blocks of roughly equal observed-entry count via
/// [`ptucker_sched::weighted_blocks`]. When a mode has fewer rows than
/// workers, the surplus workers own an empty range there.
pub fn nnz_balanced_ranges(x: &SparseTensor, workers: usize) -> Vec<Vec<Range<usize>>> {
    let k = workers.max(1);
    let mut out = vec![Vec::with_capacity(x.order()); k];
    for m in 0..x.order() {
        let dim = x.dims()[m];
        let blocks = ptucker_sched::weighted_blocks(dim, k, |i| x.slice_len(m, i));
        for (w, ranges) in out.iter_mut().enumerate() {
            let r = blocks.get(w).map_or(dim..dim, |&(lo, hi)| lo..hi);
            ranges.push(r);
        }
    }
    out
}

/// Checks that `ranges[w][m]` tiles `0..dims[m]` contiguously in worker
/// order for every mode.
fn validate_ranges(
    x: &SparseTensor,
    workers: usize,
    ranges: &[Vec<Range<usize>>],
) -> Result<(), ShardError> {
    if ranges.len() != workers {
        return Err(ShardError::Protocol(format!(
            "{} range sets for {workers} workers",
            ranges.len()
        )));
    }
    for m in 0..x.order() {
        let dim = x.dims()[m];
        let mut pos = 0usize;
        for (w, rs) in ranges.iter().enumerate() {
            let r = rs.get(m).ok_or_else(|| {
                ShardError::Protocol(format!("worker {w} has no range for mode {m}"))
            })?;
            if r.start != pos || r.end < r.start {
                return Err(ShardError::Protocol(format!(
                    "mode {m}: worker {w} owns {r:?} but the previous worker ended at {pos}"
                )));
            }
            pos = r.end;
        }
        if pos != dim {
            return Err(ShardError::Protocol(format!(
                "mode {m}: ranges cover 0..{pos} of 0..{dim}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptucker_tensor::SparseTensor;

    fn small() -> SparseTensor {
        // 4×3 with lopsided rows: row 0 holds most entries.
        SparseTensor::from_flat(
            vec![4, 3],
            vec![0, 0, 0, 1, 0, 2, 1, 0, 2, 1, 3, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn balanced_ranges_tile_every_mode() {
        let x = small();
        for k in 1..=6 {
            let ranges = nnz_balanced_ranges(&x, k);
            assert_eq!(ranges.len(), k.max(1));
            validate_ranges(&x, k.max(1), &ranges).unwrap();
        }
    }

    #[test]
    fn surplus_workers_get_empty_ranges() {
        let x = small();
        let ranges = nnz_balanced_ranges(&x, 6);
        // Mode 1 has only 3 rows; workers beyond it own nothing there.
        assert!(ranges.iter().filter(|r| r[1].is_empty()).count() >= 3);
        validate_ranges(&x, 6, &ranges).unwrap();
    }

    #[test]
    fn bad_plans_are_rejected() {
        let x = small();
        // Gap.
        let bad = vec![vec![0..1, 0..3], vec![2..4, 3..3]];
        assert!(validate_ranges(&x, 2, &bad).is_err());
        // Short cover.
        let bad = vec![vec![0..1, 0..3], vec![1..3, 3..3]];
        assert!(validate_ranges(&x, 2, &bad).is_err());
        // Wrong worker count.
        assert!(validate_ranges(&x, 2, &[vec![0..4, 0..3]]).is_err());
    }

    #[test]
    fn dead_ranges_move_to_the_adjacent_survivor() {
        // Middle worker dies; its rows go to the survivor below.
        let alive = [true, false, true];
        let mut ranges = vec![vec![0..2, 0..1], vec![2..5, 1..2], vec![5..8, 2..3]];
        let changed = transfer_ranges(&alive, &mut ranges, 2);
        assert_eq!(changed, vec![0]);
        assert_eq!(ranges[0], vec![0..5, 0..2]);
        assert_eq!(ranges[1], vec![2..2, 1..1]);
        assert_eq!(ranges[2], vec![5..8, 2..3]);
    }

    #[test]
    fn dead_first_worker_moves_up() {
        let alive = [false, true];
        let mut ranges = vec![vec![0..4], vec![4..8]];
        let changed = transfer_ranges(&alive, &mut ranges, 1);
        assert_eq!(changed, vec![1]);
        assert_eq!(ranges[1], vec![0..8]);
        assert_eq!(ranges[0], vec![0..0]);
    }

    #[test]
    fn death_chain_cascades_onto_one_survivor() {
        let alive = [true, false, false];
        let mut ranges = vec![vec![0..2], vec![2..4], vec![4..6]];
        let changed = transfer_ranges(&alive, &mut ranges, 1);
        assert_eq!(changed, vec![0]);
        assert_eq!(ranges[0], vec![0..6]);
        assert!(ranges[1][0].is_empty() && ranges[2][0].is_empty());
    }

    #[test]
    fn no_survivor_leaves_ranges_with_the_coordinator() {
        let alive = [false, false];
        let mut ranges = vec![vec![0..3], vec![3..6]];
        let changed = transfer_ranges(&alive, &mut ranges, 1);
        assert!(changed.is_empty());
        assert_eq!(ranges[0], vec![0..3]);
        assert_eq!(ranges[1], vec![3..6]);
    }
}
