//! The query message family and its wire encoding.
//!
//! Nine messages run a query session:
//!
//! | message      | direction | payload                                           |
//! |--------------|-----------|---------------------------------------------------|
//! | `Hello`      | c → s     | protocol version                                  |
//! | `Welcome`    | s → c     | version, snapshot epoch, dims, ranks, precision   |
//! | `Point`      | c → s     | request id, batch of full indices (flat, `N` each)|
//! | `PointReply` | s → c     | id, epoch, one reconstruction per batch entry     |
//! | `TopK`       | c → s     | id, mode, `K`, batch of contexts (flat, `N−1` each)|
//! | `TopKReply`  | s → c     | id, epoch, effective `K`, `(row, score)` items    |
//! | `Info`       | c → s     | request id (answered with a fresh `Welcome`)      |
//! | `Goodbye`    | c → s     | clean end of the session                          |
//! | `Error`      | s → c     | id of the rejected request, human-readable reason |
//!
//! Sessions open with `Hello`/`Welcome` (version check plus the model's
//! shape), then any number of `Point`/`TopK`/`Info` requests, each
//! answered in order by its reply — or by `Error`, which echoes the
//! request id and leaves the connection usable. `Goodbye` ends the
//! session. Every reply carries the snapshot **epoch** it was answered
//! from, so a client interleaving queries with refit publishes can tell
//! which model version produced each answer.
//!
//! Everything is little-endian with `usize` widened to `u64`; `f64`
//! values travel as raw bits, which is what makes a served point query
//! bitwise-comparable to a local reconstruction. Decoders bound every
//! length prefix by the bytes actually present, so corrupt frames decode
//! to an error — never a panic or a huge allocation.
//!
//! The server's hot path never materializes a [`QueryMessage`]: the
//! `*_into` helpers in this module decode requests into reusable
//! buffers and encode replies into a reusable output vector, keeping the
//! steady state allocation-free. The enum codec (used by clients and
//! tests) shares those helpers, so the two views of the wire format
//! cannot drift apart.

use crate::{Result, ServeError};
use ptucker::StoragePrecision;
use ptucker_transport::wire::{self, Dec, Enc};
use ptucker_transport::{Channel, FaultInjector, Frame};
use std::io::{Read, Write};

/// Version of the query protocol; `Hello`/`Welcome` both carry it and a
/// mismatch is rejected with an `Error` reply before any query runs.
pub const PROTOCOL_VERSION: u32 = 1;

// Frame tags. Kept dense and explicit — the wire format is a contract.
pub(crate) const TAG_HELLO: u8 = 1;
pub(crate) const TAG_WELCOME: u8 = 2;
pub(crate) const TAG_POINT: u8 = 3;
pub(crate) const TAG_POINT_REPLY: u8 = 4;
pub(crate) const TAG_TOPK: u8 = 5;
pub(crate) const TAG_TOPK_REPLY: u8 = 6;
pub(crate) const TAG_INFO: u8 = 7;
pub(crate) const TAG_GOODBYE: u8 = 8;
pub(crate) const TAG_ERROR: u8 = 9;

/// One query-protocol message. See the [module docs](self) for the
/// session flow.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryMessage {
    /// Session opener: the client's protocol version.
    Hello {
        /// [`PROTOCOL_VERSION`] of the client.
        version: u32,
    },
    /// Handshake reply (and the answer to [`QueryMessage::Info`]): the
    /// served model's shape and the current snapshot epoch.
    Welcome {
        /// [`PROTOCOL_VERSION`] of the server.
        version: u32,
        /// Snapshot epoch of the model answering this session right now.
        epoch: u64,
        /// Tensor dimensionalities `I₁ … I_N`.
        dims: Vec<u64>,
        /// Tucker ranks `J₁ … J_N`.
        ranks: Vec<u64>,
        /// Storage precision of the scoring sweep.
        precision: StoragePrecision,
    },
    /// A batch of point-reconstruction queries: `indices` holds the full
    /// `N`-ary index of each entry, flattened in query order.
    Point {
        /// Client-chosen request id, echoed in the reply.
        id: u64,
        /// Flat indices, `N` per query.
        indices: Vec<u64>,
    },
    /// One reconstruction per entry of the matching [`QueryMessage::Point`].
    PointReply {
        /// Echo of the request id.
        id: u64,
        /// Snapshot epoch the batch was answered from.
        epoch: u64,
        /// `x̂` per query, in request order (raw-bits exact).
        values: Vec<f64>,
    },
    /// A batch of top-K queries over one mode: each context fixes the
    /// other `N−1` coordinates (ascending mode order, `mode` skipped).
    TopK {
        /// Client-chosen request id, echoed in the reply.
        id: u64,
        /// The mode whose rows are ranked.
        mode: u32,
        /// Requested K (the server clamps it to the mode's row count).
        k: u32,
        /// Number of contexts in the batch (explicit so order-1 tensors
        /// still carry a well-defined batch size).
        queries: u32,
        /// Flat contexts, `N−1` coordinates per query.
        others: Vec<u64>,
    },
    /// The ranked rows for each context of the matching
    /// [`QueryMessage::TopK`], concatenated in request order.
    TopKReply {
        /// Echo of the request id.
        id: u64,
        /// Snapshot epoch the batch was answered from.
        epoch: u64,
        /// Effective K: `min(requested K, I_mode)` — each context
        /// contributed exactly this many items.
        k: u32,
        /// `(row, score)` pairs: descending score, ascending row on
        /// ties; `k` consecutive items per context.
        items: Vec<(u32, f64)>,
    },
    /// Asks for a fresh [`QueryMessage::Welcome`] — how a long-lived
    /// client observes publishes without issuing a query.
    Info {
        /// Client-chosen request id (the `Welcome` reply carries no id;
        /// replies are strictly in request order).
        id: u64,
    },
    /// Clean end of the session.
    Goodbye,
    /// A rejected request: semantic problems (bad arity, out-of-range
    /// index, unknown mode) keep the connection open; a version-mismatch
    /// `Hello` gets one of these and then the connection closes.
    Error {
        /// Id of the rejected request (`0` during the handshake).
        id: u64,
        /// Human-readable reason.
        message: String,
    },
}

/// Parses a transport fault spec (see
/// [`FaultInjector::parse_with`] for the grammar) bound to the query
/// message vocabulary: `hello`, `welcome`, `point`, `pointreply`,
/// `topk`, `topkreply`, `info`, `goodbye`, `error`, or `any`.
///
/// # Errors
/// A description of the first malformed rule.
pub fn parse_fault_spec(spec: &str) -> std::result::Result<FaultInjector, String> {
    FaultInjector::parse_with(spec, tag_by_name)
}

/// Maps a lowercase message name to its frame tag — the vocabulary of
/// [`parse_fault_spec`] specs.
pub(crate) fn tag_by_name(name: &str) -> Option<u8> {
    Some(match name {
        "hello" => TAG_HELLO,
        "welcome" => TAG_WELCOME,
        "point" => TAG_POINT,
        "pointreply" => TAG_POINT_REPLY,
        "topk" => TAG_TOPK,
        "topkreply" => TAG_TOPK_REPLY,
        "info" => TAG_INFO,
        "goodbye" => TAG_GOODBYE,
        "error" => TAG_ERROR,
        _ => return None,
    })
}

// ---- allocation-free server-side request/reply helpers ----
//
// Each helper is one half of the enum codec below; the enum delegates to
// them so the fast path and the spec-level representation stay in
// lockstep.

/// Header of a decoded [`QueryMessage::TopK`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TopKHeader {
    pub id: u64,
    pub mode: u32,
    pub k: u32,
    pub queries: u32,
}

/// A cleared encoder over a reused output buffer.
fn enc(out: &mut Vec<u8>) -> Enc<'_> {
    out.clear();
    Enc(out)
}

fn precision_tag(precision: StoragePrecision) -> u8 {
    match precision {
        StoragePrecision::F64 => 0,
        StoragePrecision::F32 => 1,
    }
}

pub(crate) fn encode_hello_into(out: &mut Vec<u8>, version: u32) {
    enc(out).u32(version);
}

pub(crate) fn encode_welcome_into(
    out: &mut Vec<u8>,
    version: u32,
    epoch: u64,
    dims: &[usize],
    ranks: &[usize],
    precision: StoragePrecision,
) {
    let mut e = enc(out);
    e.u32(version);
    e.u64(epoch);
    e.u8(precision_tag(precision));
    e.usizes(dims);
    e.usizes(ranks);
}

pub(crate) fn encode_point_into(out: &mut Vec<u8>, id: u64, indices: &[u64]) {
    let mut e = enc(out);
    e.u64(id);
    e.u64s(indices);
}

/// Decodes a `Point` payload: indices land in `indices` (cleared and
/// reused), the request id is returned.
pub(crate) fn decode_point_into(payload: &[u8], indices: &mut Vec<u64>) -> wire::Result<u64> {
    let mut d = Dec::new(payload);
    let id = d.u64()?;
    d.u64s_into(indices)?;
    d.finish()?;
    Ok(id)
}

pub(crate) fn encode_point_reply_into(out: &mut Vec<u8>, id: u64, epoch: u64, values: &[f64]) {
    let mut e = enc(out);
    e.u64(id);
    e.u64(epoch);
    e.f64s(values);
}

pub(crate) fn encode_topk_into(out: &mut Vec<u8>, h: TopKHeader, others: &[u64]) {
    let mut e = enc(out);
    e.u64(h.id);
    e.u32(h.mode);
    e.u32(h.k);
    e.u32(h.queries);
    e.u64s(others);
}

/// Decodes a `TopK` payload: contexts land in `others` (cleared and
/// reused), the header is returned.
pub(crate) fn decode_topk_into(payload: &[u8], others: &mut Vec<u64>) -> wire::Result<TopKHeader> {
    let mut d = Dec::new(payload);
    let h = TopKHeader {
        id: d.u64()?,
        mode: d.u32()?,
        k: d.u32()?,
        queries: d.u32()?,
    };
    d.u64s_into(others)?;
    d.finish()?;
    Ok(h)
}

pub(crate) fn encode_topk_reply_into(
    out: &mut Vec<u8>,
    id: u64,
    epoch: u64,
    k: u32,
    items: &[(u32, f64)],
) {
    let mut e = enc(out);
    e.u64(id);
    e.u64(epoch);
    e.u32(k);
    e.usize(items.len());
    for &(row, score) in items {
        e.u32(row);
        e.f64(score);
    }
}

pub(crate) fn encode_info_into(out: &mut Vec<u8>, id: u64) {
    enc(out).u64(id);
}

pub(crate) fn encode_error_into(out: &mut Vec<u8>, id: u64, message: &str) {
    let mut e = enc(out);
    e.u64(id);
    e.bytes(message.as_bytes());
}

impl QueryMessage {
    /// Encodes into `(tag, payload)` for the framed transport.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let tag = self.encode_into(&mut out);
        (tag, out)
    }

    /// Encodes into a reusable buffer (cleared first); returns the tag.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> u8 {
        match self {
            QueryMessage::Hello { version } => {
                encode_hello_into(out, *version);
                TAG_HELLO
            }
            QueryMessage::Welcome {
                version,
                epoch,
                dims,
                ranks,
                precision,
            } => {
                // encode_welcome_into takes the Predictor's usize shape
                // slices; the enum stores the wire's u64 view, so this
                // arm writes the same layout directly.
                let mut e = enc(out);
                e.u32(*version);
                e.u64(*epoch);
                e.u8(precision_tag(*precision));
                e.u64s(dims);
                e.u64s(ranks);
                TAG_WELCOME
            }
            QueryMessage::Point { id, indices } => {
                encode_point_into(out, *id, indices);
                TAG_POINT
            }
            QueryMessage::PointReply { id, epoch, values } => {
                encode_point_reply_into(out, *id, *epoch, values);
                TAG_POINT_REPLY
            }
            QueryMessage::TopK {
                id,
                mode,
                k,
                queries,
                others,
            } => {
                encode_topk_into(
                    out,
                    TopKHeader {
                        id: *id,
                        mode: *mode,
                        k: *k,
                        queries: *queries,
                    },
                    others,
                );
                TAG_TOPK
            }
            QueryMessage::TopKReply {
                id,
                epoch,
                k,
                items,
            } => {
                encode_topk_reply_into(out, *id, *epoch, *k, items);
                TAG_TOPK_REPLY
            }
            QueryMessage::Info { id } => {
                encode_info_into(out, *id);
                TAG_INFO
            }
            QueryMessage::Goodbye => {
                out.clear();
                TAG_GOODBYE
            }
            QueryMessage::Error { id, message } => {
                encode_error_into(out, *id, message);
                TAG_ERROR
            }
        }
    }

    /// Decodes a verified [`Frame`] back into a message.
    ///
    /// # Errors
    /// [`ServeError::Protocol`] on an unknown tag or malformed payload.
    pub fn decode(frame: &Frame) -> Result<QueryMessage> {
        Self::decode_payload(frame.tag, &frame.payload).map_err(|e| ServeError::Protocol(e.0))
    }

    fn decode_payload(tag: u8, payload: &[u8]) -> wire::Result<QueryMessage> {
        let mut d = Dec::new(payload);
        let msg = match tag {
            TAG_HELLO => QueryMessage::Hello { version: d.u32()? },
            TAG_WELCOME => QueryMessage::Welcome {
                version: d.u32()?,
                epoch: d.u64()?,
                precision: match d.u8()? {
                    0 => StoragePrecision::F64,
                    1 => StoragePrecision::F32,
                    t => return Err(wire::Error::new(format!("bad precision tag {t}"))),
                },
                dims: u64s(&mut d)?,
                ranks: u64s(&mut d)?,
            },
            TAG_POINT => {
                let mut indices = Vec::new();
                let id = decode_point_into(payload, &mut indices)?;
                return Ok(QueryMessage::Point { id, indices });
            }
            TAG_POINT_REPLY => QueryMessage::PointReply {
                id: d.u64()?,
                epoch: d.u64()?,
                values: d.f64s()?,
            },
            TAG_TOPK => {
                let mut others = Vec::new();
                let h = decode_topk_into(payload, &mut others)?;
                return Ok(QueryMessage::TopK {
                    id: h.id,
                    mode: h.mode,
                    k: h.k,
                    queries: h.queries,
                    others,
                });
            }
            TAG_TOPK_REPLY => QueryMessage::TopKReply {
                id: d.u64()?,
                epoch: d.u64()?,
                k: d.u32()?,
                items: {
                    let n = d.count(12)?;
                    (0..n)
                        .map(|_| Ok((d.u32()?, d.f64()?)))
                        .collect::<wire::Result<_>>()?
                },
            },
            TAG_INFO => QueryMessage::Info { id: d.u64()? },
            TAG_GOODBYE => QueryMessage::Goodbye,
            TAG_ERROR => QueryMessage::Error {
                id: d.u64()?,
                message: String::from_utf8(d.bytes()?.to_vec())
                    .map_err(|_| wire::Error::new("error message is not UTF-8"))?,
            },
            t => return Err(wire::Error::new(format!("unknown frame tag {t}"))),
        };
        d.finish()?;
        Ok(msg)
    }

    /// The message's name, for error reporting.
    pub fn name(&self) -> &'static str {
        match self {
            QueryMessage::Hello { .. } => "Hello",
            QueryMessage::Welcome { .. } => "Welcome",
            QueryMessage::Point { .. } => "Point",
            QueryMessage::PointReply { .. } => "PointReply",
            QueryMessage::TopK { .. } => "TopK",
            QueryMessage::TopKReply { .. } => "TopKReply",
            QueryMessage::Info { .. } => "Info",
            QueryMessage::Goodbye => "Goodbye",
            QueryMessage::Error { .. } => "Error",
        }
    }
}

fn u64s(d: &mut Dec<'_>) -> wire::Result<Vec<u64>> {
    let mut v = Vec::new();
    d.u64s_into(&mut v)?;
    Ok(v)
}

/// Sends one message over a framed channel.
///
/// # Errors
/// Transport I/O failures ([`ServeError::Io`]).
pub fn send<R: Read, W: Write>(chan: &mut Channel<R, W>, msg: &QueryMessage) -> Result<()> {
    let (tag, payload) = msg.encode();
    chan.send_frame(tag, &payload)?;
    Ok(())
}

/// Receives and decodes one message.
///
/// # Errors
/// Transport I/O failures or a malformed frame.
pub fn recv<R: Read, W: Write>(chan: &mut Channel<R, W>) -> Result<QueryMessage> {
    QueryMessage::decode(&chan.recv_frame()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &QueryMessage) {
        let (tag, payload) = msg.encode();
        let back = QueryMessage::decode(&Frame { tag, payload }).unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(&QueryMessage::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip(&QueryMessage::Welcome {
            version: PROTOCOL_VERSION,
            epoch: 7,
            dims: vec![100, 80, 60],
            ranks: vec![10, 10, 5],
            precision: StoragePrecision::F32,
        });
        roundtrip(&QueryMessage::Point {
            id: 42,
            indices: vec![3, 1, 4, 1, 5, 9],
        });
        roundtrip(&QueryMessage::PointReply {
            id: 42,
            epoch: 7,
            values: vec![0.25, -1.5],
        });
        roundtrip(&QueryMessage::TopK {
            id: 43,
            mode: 1,
            k: 10,
            queries: 2,
            others: vec![3, 4, 1, 5],
        });
        roundtrip(&QueryMessage::TopKReply {
            id: 43,
            epoch: 7,
            k: 2,
            items: vec![(5, 1.25), (0, 0.5), (9, 9.0), (1, 3.0)],
        });
        roundtrip(&QueryMessage::Info { id: 44 });
        roundtrip(&QueryMessage::Goodbye);
        roundtrip(&QueryMessage::Error {
            id: 45,
            message: "mode 9 out of range".into(),
        });
    }

    #[test]
    fn in_place_helpers_agree_with_the_enum_codec() {
        // Requests: enum encode → in-place decode.
        let (_, payload) = QueryMessage::Point {
            id: 5,
            indices: vec![9, 8, 7],
        }
        .encode();
        let mut idx = vec![99u64; 32];
        assert_eq!(decode_point_into(&payload, &mut idx).unwrap(), 5);
        assert_eq!(idx, vec![9, 8, 7]);

        let (_, payload) = QueryMessage::TopK {
            id: 6,
            mode: 2,
            k: 3,
            queries: 1,
            others: vec![4, 2],
        }
        .encode();
        let mut others = Vec::new();
        let h = decode_topk_into(&payload, &mut others).unwrap();
        assert_eq!(
            h,
            TopKHeader {
                id: 6,
                mode: 2,
                k: 3,
                queries: 1
            }
        );
        assert_eq!(others, vec![4, 2]);

        // Replies: in-place encode → enum decode.
        let mut out = Vec::new();
        encode_point_reply_into(&mut out, 5, 2, &[1.5, -0.25]);
        let back = QueryMessage::decode(&Frame {
            tag: TAG_POINT_REPLY,
            payload: out.clone(),
        })
        .unwrap();
        assert_eq!(
            back,
            QueryMessage::PointReply {
                id: 5,
                epoch: 2,
                values: vec![1.5, -0.25],
            }
        );

        encode_topk_reply_into(&mut out, 6, 2, 2, &[(1, 9.0), (0, 3.0)]);
        let back = QueryMessage::decode(&Frame {
            tag: TAG_TOPK_REPLY,
            payload: out.clone(),
        })
        .unwrap();
        assert_eq!(
            back,
            QueryMessage::TopKReply {
                id: 6,
                epoch: 2,
                k: 2,
                items: vec![(1, 9.0), (0, 3.0)],
            }
        );

        encode_welcome_into(
            &mut out,
            PROTOCOL_VERSION,
            3,
            &[10, 20],
            &[2, 4],
            StoragePrecision::F64,
        );
        let back = QueryMessage::decode(&Frame {
            tag: TAG_WELCOME,
            payload: out.clone(),
        })
        .unwrap();
        assert_eq!(
            back,
            QueryMessage::Welcome {
                version: PROTOCOL_VERSION,
                epoch: 3,
                dims: vec![10, 20],
                ranks: vec![2, 4],
                precision: StoragePrecision::F64,
            }
        );

        encode_error_into(&mut out, 7, "nope");
        let back = QueryMessage::decode(&Frame {
            tag: TAG_ERROR,
            payload: out.clone(),
        })
        .unwrap();
        assert_eq!(
            back,
            QueryMessage::Error {
                id: 7,
                message: "nope".into(),
            }
        );

        // And the enum's Hello arm is the helper.
        let mut hello = Vec::new();
        encode_hello_into(&mut hello, PROTOCOL_VERSION);
        assert_eq!(
            QueryMessage::Hello {
                version: PROTOCOL_VERSION
            }
            .encode()
            .1,
            hello
        );
    }

    #[test]
    fn bad_tags_truncation_and_inflated_counts_error() {
        assert!(QueryMessage::decode(&Frame {
            tag: 99,
            payload: vec![],
        })
        .is_err());

        let (tag, payload) = QueryMessage::Point {
            id: 1,
            indices: vec![2, 3],
        }
        .encode();
        assert!(QueryMessage::decode(&Frame {
            tag,
            payload: payload[..payload.len() - 1].to_vec(),
        })
        .is_err());

        // A corrupt count must not force a huge allocation.
        let (tag, mut payload) = QueryMessage::PointReply {
            id: 1,
            epoch: 0,
            values: vec![1.0],
        }
        .encode();
        payload[21] = 0xff; // inflate the count prefix
        assert!(QueryMessage::decode(&Frame { tag, payload }).is_err());

        // Trailing bytes are a defect, not padding.
        let (tag, mut payload) = QueryMessage::Info { id: 2 }.encode();
        payload.push(0);
        assert!(QueryMessage::decode(&Frame { tag, payload }).is_err());
    }

    /// The full frame (`[len][tag][payload][checksum]`) `msg` goes out as,
    /// in hex.
    fn wire_hex(msg: &QueryMessage) -> String {
        let mut wire = Vec::new();
        send(&mut Channel::new(std::io::empty(), &mut wire), msg).unwrap();
        wire.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// **Frozen wire bytes.** Every query message as protocol v1 frames
    /// it. A change to any message encoding fails here, and must bump
    /// `PROTOCOL_VERSION` and re-capture on purpose.
    #[test]
    fn query_protocol_v1_wire_format_is_frozen() {
        assert_eq!(PROTOCOL_VERSION, 1);
        let frozen: [(&str, QueryMessage, &str); 9] = [
            (
                "Hello",
                QueryMessage::Hello { version: 1 },
                "0500000001010000007d3b12feb6180878",
            ),
            (
                "Welcome",
                QueryMessage::Welcome {
                    version: 1,
                    epoch: 3,
                    dims: vec![5, 4],
                    ranks: vec![2, 1],
                    precision: StoragePrecision::F32,
                },
                concat!(
                    "3e00000002010000000300000000000000010200000000000000050000000000",
                    "0000040000000000000002000000000000000200000000000000010000000000",
                    "000090ae88e94b1b0585",
                ),
            ),
            (
                "Point",
                QueryMessage::Point {
                    id: 9,
                    indices: vec![1, 2, 0, 3],
                },
                concat!(
                    "3100000003090000000000000004000000000000000100000000000000020000",
                    "0000000000000000000000000003000000000000007fc938c76b13cf01",
                ),
            ),
            (
                "PointReply",
                QueryMessage::PointReply {
                    id: 9,
                    epoch: 3,
                    values: vec![0.5, -1.25],
                },
                concat!(
                    "2900000004090000000000000003000000000000000200000000000000000000",
                    "000000e03f000000000000f4bf87f28a4f3cfd36a2",
                ),
            ),
            (
                "TopK",
                QueryMessage::TopK {
                    id: 10,
                    mode: 1,
                    k: 2,
                    queries: 2,
                    others: vec![4, 0],
                },
                concat!(
                    "2d000000050a0000000000000001000000020000000200000002000000000000",
                    "00040000000000000000000000000000007d67466047a0f29b",
                ),
            ),
            (
                "TopKReply",
                QueryMessage::TopKReply {
                    id: 10,
                    epoch: 3,
                    k: 1,
                    items: vec![(2, 0.75), (0, -0.5)],
                },
                concat!(
                    "35000000060a0000000000000003000000000000000100000002000000000000",
                    "0002000000000000000000e83f00000000000000000000e0bfa91c2ae16726d1",
                    "73",
                ),
            ),
            (
                "Info",
                QueryMessage::Info { id: 11 },
                "09000000070b000000000000006d4e4ab360f3a004",
            ),
            (
                "Goodbye",
                QueryMessage::Goodbye,
                "010000000877c501864cc563af",
            ),
            (
                "Error",
                QueryMessage::Error {
                    id: 12,
                    message: "bad mode".into(),
                },
                concat!(
                    "19000000090c000000000000000800000000000000626164206d6f6465866c26",
                    "86d1ba9580",
                ),
            ),
        ];
        for (name, msg, hex) in &frozen {
            assert_eq!(wire_hex(msg), *hex, "{name}");
        }
    }

    #[test]
    fn fault_specs_bind_the_query_vocabulary() {
        assert!(parse_fault_spec("send:point:1:drop").is_ok());
        assert!(parse_fault_spec("recv:topkreply:2:corrupt; send:any:1:delay:10").is_ok());
        assert!(parse_fault_spec("send:rows:1:drop").is_err(), "shard name");
        assert!(parse_fault_spec("send:point:0:drop").is_err());
    }
}
