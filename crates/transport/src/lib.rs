//! Length-prefixed framed transport with checksums, byte accounting,
//! read deadlines and deterministic fault injection — the wire layer
//! shared by the sharded-fit coordinator (`ptucker-shard`) and the
//! factor-serving read path (`ptucker-serve`).
//!
//! A frame is `[len: u32 LE] [tag: u8] [payload: len-1 bytes]
//! [checksum: u64 LE]` where `len` counts the tag plus the payload and
//! the checksum is FNV-1a 64 over them. The framing carries no type
//! information beyond the tag — each protocol encodes its message
//! bodies through [`wire`] — and no compression: the steady-state traffic is
//! factor rows and query batches, which are already dense.
//!
//! [`Channel`] works over any `Read`/`Write` pair — the stdin/stdout
//! pipes of a spawned worker, or a [`std::os::unix::net::UnixStream`]
//! for in-process thread peers — and counts bytes both ways through
//! shared [`ByteCounters`], so a coordinator or server can report comms
//! volume even after the channel has been moved onto a background I/O
//! thread.
//!
//! The [`wire`] module is the one bounds-checked codec behind every
//! format the workspace speaks — the shard and query message payloads
//! inside frames, fit checkpoints and model files — plus the one
//! [`fnv1a`] every checksum uses.
//!
//! Two seams support fault tolerance and adversarial testing:
//!
//! * [`DeadlineCapable`] exposes descriptor-level read deadlines
//!   ([`Channel::set_read_timeout`]) on transports that have them
//!   (Unix sockets), so a silent peer surfaces as a timed-out read
//!   instead of a forever-blocked thread; pipe transports get the same
//!   protection one layer up, from the caller's deadline-aware response
//!   collection.
//! * [`FaultInjector`] intercepts frames at this, the lowest layer —
//!   dropping, corrupting, delaying them or killing the process — which
//!   is what lets fault-injection test suites exercise every recovery
//!   path deterministically over the *real* framing code. Each protocol
//!   supplies its own message-name vocabulary to
//!   [`FaultInjector::parse_with`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Frames larger than this are rejected as corruption before any
/// allocation happens (1 GiB — far beyond any factor, plan or query
/// message the workspace produces).
const MAX_FRAME_BYTES: u32 = 1 << 30;

pub mod wire;

pub use wire::fnv1a;

/// Monotonic sent/received byte totals of one [`Channel`], shared by
/// reference so they stay readable after the channel moves to a
/// background I/O thread.
#[derive(Debug, Clone, Default)]
pub struct ByteCounters {
    sent: Arc<AtomicU64>,
    received: Arc<AtomicU64>,
}

impl ByteCounters {
    /// Total bytes written so far, framing included.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Total bytes read so far, framing included.
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }
}

/// Where in the transport a fault-injection rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// The rule fires as a frame is written.
    Send,
    /// The rule fires as a frame is read.
    Recv,
}

/// What a matched fault-injection rule does to its frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Silently discard the frame: the sender believes it was delivered,
    /// the receiver never sees it.
    Drop,
    /// Flip one bit of the frame *after* its checksum was computed, so
    /// the receiving side detects the corruption.
    Corrupt,
    /// Stall the frame for the given duration before letting it through
    /// untouched — a hung-but-alive peer.
    Delay(Duration),
    /// SIGKILL the current process mid-protocol: sudden worker death
    /// with no flushing, no unwinding, no goodbye.
    Kill,
}

/// One injection rule: perform [`FaultRule::action`] on the
/// [`FaultRule::nth`] (1-based) frame observed at [`FaultRule::point`]
/// whose tag matches [`FaultRule::tag`] (`None` matches every tag).
/// Each rule fires exactly once.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Send side or receive side of the channel.
    pub point: FaultPoint,
    /// Frame tag to match (`None` = any).
    pub tag: Option<u8>,
    /// 1-based match ordinal at which the rule fires.
    pub nth: u64,
    /// The fault to perform.
    pub action: FaultAction,
}

#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    seen: u64,
    fired: bool,
}

/// Deterministic transport-level fault injection: a rule table consulted
/// by [`Channel::send_frame`] / [`Channel::recv_frame`] on every frame.
/// Cloning shares the table (rules fire once *globally*), so a single
/// injector can be observed from a test while installed in a channel.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    rules: Arc<Mutex<Vec<RuleState>>>,
}

impl FaultInjector {
    /// An injector with no rules (it never fires).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule, builder style.
    #[must_use]
    pub fn rule(self, rule: FaultRule) -> Self {
        self.rules.lock().expect("injector lock").push(RuleState {
            rule,
            seen: 0,
            fired: false,
        });
        self
    }

    /// Parses a fault spec string: `;`-separated rules of the form
    /// `point:tag:nth:action[:millis]`, where `point` is `send` or
    /// `recv`, `tag` is a lowercase message name resolved by
    /// `tag_by_name` (each protocol supplies its own vocabulary — e.g.
    /// `rows`/`factorsync` for the shard protocol, `point`/`topk` for
    /// the query protocol) or `any`, `nth` is the 1-based match ordinal,
    /// and `action` is one of `drop`, `corrupt`, `kill` or `delay` (the
    /// latter taking the stall length in milliseconds as a fifth field).
    /// For example `"send:rows:2:delay:1500"` stalls the second `Rows`
    /// frame this side writes by 1.5 seconds.
    ///
    /// # Errors
    /// A description of the first malformed rule.
    pub fn parse_with(
        spec: &str,
        tag_by_name: impl Fn(&str) -> Option<u8>,
    ) -> Result<Self, String> {
        let mut inj = FaultInjector::new();
        for rule in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            let parts: Vec<&str> = rule.split(':').collect();
            if parts.len() < 4 {
                return Err(format!(
                    "fault rule `{rule}`: expected point:tag:nth:action[:millis]"
                ));
            }
            let point = match parts[0] {
                "send" => FaultPoint::Send,
                "recv" => FaultPoint::Recv,
                p => return Err(format!("fault rule `{rule}`: unknown point `{p}`")),
            };
            let tag = match parts[1] {
                "any" | "*" => None,
                name => Some(
                    tag_by_name(name)
                        .ok_or_else(|| format!("fault rule `{rule}`: unknown message `{name}`"))?,
                ),
            };
            let nth: u64 = parts[2]
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("fault rule `{rule}`: bad ordinal `{}`", parts[2]))?;
            let action = match (parts[3], parts.get(4)) {
                ("drop", None) => FaultAction::Drop,
                ("corrupt", None) => FaultAction::Corrupt,
                ("kill", None) => FaultAction::Kill,
                ("delay", Some(ms)) => FaultAction::Delay(Duration::from_millis(
                    ms.parse()
                        .map_err(|_| format!("fault rule `{rule}`: bad delay `{ms}`"))?,
                )),
                _ => return Err(format!("fault rule `{rule}`: bad action `{}`", parts[3])),
            };
            inj = inj.rule(FaultRule {
                point,
                tag,
                nth,
                action,
            });
        }
        Ok(inj)
    }

    /// Consults the table for a frame with `tag` observed at `point`;
    /// returns the action of the first rule that fires, if any.
    fn fire(&self, point: FaultPoint, tag: u8) -> Option<FaultAction> {
        let mut rules = self.rules.lock().expect("injector lock");
        let mut hit = None;
        for rs in rules.iter_mut() {
            if rs.rule.point != point {
                continue;
            }
            if rs.rule.tag.is_some_and(|t| t != tag) {
                continue;
            }
            rs.seen += 1;
            if hit.is_none() && !rs.fired && rs.seen == rs.rule.nth {
                rs.fired = true;
                hit = Some(rs.rule.action);
            }
        }
        hit
    }
}

/// SIGKILLs the current process — the [`FaultAction::Kill`] endgame. The
/// process dies with no unwinding, exactly like an OOM kill or a crashed
/// node, which is the failure recovery machinery must survive.
fn kill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    // SIGKILL cannot be masked; reaching this line means the `kill`
    // binary itself was unavailable — exit hard instead.
    std::process::exit(137);
}

/// Transports whose read side supports a descriptor-level deadline, so a
/// peer that stops talking surfaces as a timed-out read
/// (`ErrorKind::WouldBlock`/`TimedOut`) instead of a forever-blocked
/// thread. Implemented for [`std::os::unix::net::UnixStream`]; plain
/// pipes have no such knob, which is why pipe-based coordinators also
/// enforce deadlines one layer up when collecting responses.
pub trait DeadlineCapable {
    /// Sets (or, with `None`, clears) the read deadline.
    ///
    /// # Errors
    /// The underlying `setsockopt`-style failure.
    fn set_read_deadline(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl DeadlineCapable for std::os::unix::net::UnixStream {
    fn set_read_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

/// One framed, checksummed, byte-counted duplex connection.
#[derive(Debug)]
pub struct Channel<R, W> {
    reader: R,
    writer: W,
    counters: ByteCounters,
    /// Reusable frame staging buffer (one allocation per connection, not
    /// per message).
    buf: Vec<u8>,
    /// Fault injection hook; `None` outside the fault test/chaos paths.
    faults: Option<FaultInjector>,
}

/// A raw frame: the tag byte plus its payload, checksum already
/// verified.
#[derive(Debug)]
pub struct Frame {
    /// The message tag (assigned by the protocol crate).
    pub tag: u8,
    /// The encoded message body.
    pub payload: Vec<u8>,
}

impl<R: DeadlineCapable, W> Channel<R, W> {
    /// Applies a read deadline to the underlying transport: a
    /// [`Channel::recv_frame`] with no peer bytes for `timeout` fails
    /// with `ErrorKind::WouldBlock` (or `TimedOut`) instead of blocking
    /// forever. `None` restores blocking reads.
    ///
    /// # Errors
    /// The transport's own failure to apply the deadline.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.set_read_deadline(timeout)
    }
}

impl<R: Read, W: Write> Channel<R, W> {
    /// Wraps a `Read`/`Write` pair with fresh byte counters.
    pub fn new(reader: R, writer: W) -> Self {
        Channel {
            reader,
            writer,
            counters: ByteCounters::default(),
            buf: Vec::new(),
            faults: None,
        }
    }

    /// A shared handle to this channel's byte counters.
    pub fn counters(&self) -> ByteCounters {
        self.counters.clone()
    }

    /// Installs a fault injector consulted on every subsequent frame in
    /// both directions.
    pub fn inject_faults(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// Writes one frame (single `write_all` + flush, so a frame is never
    /// interleaved with another writer's bytes).
    ///
    /// # Errors
    /// Propagates transport I/O failures.
    pub fn send_frame(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(1 + payload.len())
            .ok()
            .filter(|&l| l <= MAX_FRAME_BYTES)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        self.buf.clear();
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.push(tag);
        self.buf.extend_from_slice(payload);
        let sum = fnv1a(&self.buf[4..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        if let Some(action) = self
            .faults
            .as_ref()
            .and_then(|f| f.fire(FaultPoint::Send, tag))
        {
            match action {
                FaultAction::Drop => return Ok(()),
                // The checksum is already in the buffer, so flipping a
                // bit of the body makes the receiver reject the frame.
                FaultAction::Corrupt => self.buf[3 + len as usize] ^= 0x40,
                FaultAction::Delay(d) => std::thread::sleep(d),
                FaultAction::Kill => kill_self(),
            }
        }
        self.writer.write_all(&self.buf)?;
        self.writer.flush()?;
        self.counters
            .sent
            .fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Reads one frame, verifying length bounds and the checksum, and
    /// places its payload in `payload` (cleared and reused — the
    /// allocation-free receive path query servers run on). Returns the
    /// frame's tag.
    ///
    /// # Errors
    /// Transport I/O failures, `UnexpectedEof` on a closed peer, or
    /// `InvalidData` on a corrupt frame.
    pub fn recv_frame_into(&mut self, payload: &mut Vec<u8>) -> io::Result<u8> {
        loop {
            let mut head = [0u8; 4];
            self.reader.read_exact(&mut head)?;
            let len = u32::from_le_bytes(head);
            if len == 0 || len > MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad frame length {len}"),
                ));
            }
            self.buf.clear();
            self.buf.resize(len as usize, 0);
            self.reader.read_exact(&mut self.buf)?;
            let mut sum = [0u8; 8];
            self.reader.read_exact(&mut sum)?;
            self.counters
                .received
                .fetch_add(4 + u64::from(len) + 8, Ordering::Relaxed);
            let tag = self.buf[0];
            if let Some(action) = self
                .faults
                .as_ref()
                .and_then(|f| f.fire(FaultPoint::Recv, tag))
            {
                match action {
                    // The frame vanishes before anyone decodes it; keep
                    // reading, as if the peer had never sent it.
                    FaultAction::Drop => continue,
                    FaultAction::Corrupt => self.buf[len as usize - 1] ^= 0x40,
                    FaultAction::Delay(d) => std::thread::sleep(d),
                    FaultAction::Kill => kill_self(),
                }
            }
            if fnv1a(&self.buf) != u64::from_le_bytes(sum) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "frame checksum mismatch",
                ));
            }
            payload.clear();
            payload.extend_from_slice(&self.buf[1..]);
            return Ok(self.buf[0]);
        }
    }

    /// Reads one frame, verifying length bounds and the checksum.
    /// Allocates a fresh payload per frame; hot loops use
    /// [`Channel::recv_frame_into`] instead.
    ///
    /// # Errors
    /// Transport I/O failures, `UnexpectedEof` on a closed peer, or
    /// `InvalidData` on a corrupt frame.
    pub fn recv_frame(&mut self) -> io::Result<Frame> {
        let mut payload = Vec::new();
        let tag = self.recv_frame_into(&mut payload)?;
        Ok(Frame { tag, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(tag: u8, payload: &[u8]) -> Frame {
        let mut wire = Vec::new();
        {
            let mut tx = Channel::new(io::empty(), &mut wire);
            tx.send_frame(tag, payload).unwrap();
            assert_eq!(tx.counters().sent(), wire.len() as u64);
        }
        let mut rx = Channel::new(wire.as_slice(), io::sink());
        let f = rx.recv_frame().unwrap();
        assert_eq!(rx.counters().received(), wire.len() as u64);
        f
    }

    #[test]
    fn frame_roundtrip() {
        let f = roundtrip(7, b"hello shard");
        assert_eq!(f.tag, 7);
        assert_eq!(f.payload, b"hello shard");
        let empty = roundtrip(1, b"");
        assert_eq!(empty.tag, 1);
        assert!(empty.payload.is_empty());
    }

    #[test]
    fn recv_into_reuses_the_caller_buffer() {
        let mut wire = Vec::new();
        {
            let mut tx = Channel::new(io::empty(), &mut wire);
            tx.send_frame(2, b"a longer first payload").unwrap();
            tx.send_frame(5, b"short").unwrap();
        }
        let mut rx = Channel::new(wire.as_slice(), io::sink());
        let mut payload = Vec::new();
        assert_eq!(rx.recv_frame_into(&mut payload).unwrap(), 2);
        assert_eq!(payload, b"a longer first payload");
        let cap = payload.capacity();
        assert_eq!(rx.recv_frame_into(&mut payload).unwrap(), 5);
        assert_eq!(payload, b"short");
        assert_eq!(
            payload.capacity(),
            cap,
            "no reallocation on a smaller frame"
        );
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let mut wire = Vec::new();
        Channel::new(io::empty(), &mut wire)
            .send_frame(3, b"abcdef")
            .unwrap();
        wire[7] ^= 0x40; // flip a payload bit
        let err = Channel::new(wire.as_slice(), io::sink())
            .recv_frame()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut wire = Vec::new();
        Channel::new(io::empty(), &mut wire)
            .send_frame(3, b"abcdef")
            .unwrap();
        wire.truncate(wire.len() - 3);
        let err = Channel::new(wire.as_slice(), io::sink())
            .recv_frame()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        let wire = u32::MAX.to_le_bytes();
        let err = Channel::new(wire.as_slice(), io::sink())
            .recv_frame()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn injector_drops_the_nth_send() {
        let mut wire = Vec::new();
        {
            let mut tx = Channel::new(io::empty(), &mut wire);
            tx.inject_faults(FaultInjector::new().rule(FaultRule {
                point: FaultPoint::Send,
                tag: None,
                nth: 2,
                action: FaultAction::Drop,
            }));
            tx.send_frame(1, b"first").unwrap();
            tx.send_frame(2, b"second").unwrap(); // vanishes
            tx.send_frame(3, b"third").unwrap();
        }
        let mut rx = Channel::new(wire.as_slice(), io::sink());
        assert_eq!(rx.recv_frame().unwrap().tag, 1);
        assert_eq!(rx.recv_frame().unwrap().tag, 3);
    }

    #[test]
    fn injector_corrupts_detectably() {
        let mut wire = Vec::new();
        {
            let mut tx = Channel::new(io::empty(), &mut wire);
            tx.inject_faults(FaultInjector::new().rule(FaultRule {
                point: FaultPoint::Send,
                tag: Some(5),
                nth: 1,
                action: FaultAction::Corrupt,
            }));
            tx.send_frame(4, b"clean").unwrap();
            tx.send_frame(5, b"dirty").unwrap();
        }
        let mut rx = Channel::new(wire.as_slice(), io::sink());
        assert_eq!(rx.recv_frame().unwrap().tag, 4);
        let err = rx.recv_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn injector_drops_on_the_recv_side_too() {
        let mut wire = Vec::new();
        {
            let mut tx = Channel::new(io::empty(), &mut wire);
            tx.send_frame(1, b"skipped").unwrap();
            tx.send_frame(2, b"seen").unwrap();
        }
        let mut rx = Channel::new(wire.as_slice(), io::sink());
        rx.inject_faults(FaultInjector::new().rule(FaultRule {
            point: FaultPoint::Recv,
            tag: Some(1),
            nth: 1,
            action: FaultAction::Drop,
        }));
        assert_eq!(rx.recv_frame().unwrap().tag, 2);
    }

    #[test]
    fn injector_delay_stalls_the_frame() {
        let mut wire = Vec::new();
        let mut tx = Channel::new(io::empty(), &mut wire);
        tx.inject_faults(FaultInjector::new().rule(FaultRule {
            point: FaultPoint::Send,
            tag: None,
            nth: 1,
            action: FaultAction::Delay(Duration::from_millis(60)),
        }));
        let t0 = std::time::Instant::now();
        tx.send_frame(1, b"slow").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn spec_parsing_accepts_the_documented_grammar() {
        let names = |name: &str| match name {
            "rows" => Some(4u8),
            "modestart" => Some(3),
            _ => None,
        };
        assert!(FaultInjector::parse_with("send:rows:2:drop", names).is_ok());
        assert!(
            FaultInjector::parse_with("recv:any:1:corrupt; send:modestart:3:delay:250", names)
                .is_ok()
        );
        assert!(FaultInjector::parse_with("send:rows:1:kill", names).is_ok());
        // Malformed specs name the offending rule.
        assert!(FaultInjector::parse_with("sideways:rows:1:drop", names).is_err());
        assert!(FaultInjector::parse_with("send:nosuchmsg:1:drop", names).is_err());
        assert!(FaultInjector::parse_with("send:rows:0:drop", names).is_err());
        assert!(FaultInjector::parse_with("send:rows:1:delay", names).is_err());
        assert!(FaultInjector::parse_with("send:rows:1:explode", names).is_err());
    }

    #[test]
    fn unix_stream_read_deadline_times_out() {
        let (a, _b) = std::os::unix::net::UnixStream::pair().unwrap();
        let chan = Channel::new(a.try_clone().unwrap(), a);
        chan.set_read_timeout(Some(Duration::from_millis(40)))
            .unwrap();
        let mut chan = chan;
        let err = chan.recv_frame().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected a timeout kind, got {err:?}"
        );
    }
}
