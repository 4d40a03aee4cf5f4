//! Hostile bytes for every decoder at a trust boundary: the frame
//! (`Channel::recv_frame`), shard messages, query messages, fit
//! checkpoints and model files.
//!
//! Each valid encoding is mutated three ways — truncated at every length,
//! every byte flipped, and the 8 bytes at every offset overwritten with an
//! inflated length (2²⁸, 2⁶¹, `u64::MAX`) — and every mutant must decode
//! to `Ok` or to the format's typed error, never a panic or an abort
//! (which is what an unchecked count driving an allocation ends in).
//! Frames and sealed files get their checksum recomputed after the
//! mutation as well, so the structural decoder behind the checksum is
//! reached, not just the checksum test in front of it.

use ptucker::{
    BudgetPolicy, FitCheckpoint, FitOptions, IterStats, MemoryBudget, PtuckerError, Schedule,
    StoragePrecision, TuckerDecomposition, Variant,
};
use ptucker_linalg::Matrix;
use ptucker_serve::{QueryMessage, ServeError};
use ptucker_shard::protocol::{Message, PlanMsg, RowsMsg, WorkerStatsMsg};
use ptucker_shard::{fnv1a, Channel, Frame, ShardError};
use ptucker_tensor::CoreTensor;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Values written over every 8-byte window: past any real count, past
/// any allocation, and all ones.
const INFLATED: [u64; 3] = [1 << 28, 1 << 61, u64::MAX];

/// Calls `f` with a label and each mutant of `valid`.
fn for_each_mutant(valid: &[u8], mut f: impl FnMut(&str, &[u8])) {
    for len in 0..valid.len() {
        f(&format!("truncated to {len}"), &valid[..len]);
    }
    let mut m = valid.to_vec();
    for i in 0..valid.len() {
        m[i] ^= 0xff;
        f(&format!("byte {i} flipped"), &m);
        m[i] = valid[i];
    }
    for i in 0..valid.len().saturating_sub(7) {
        for v in INFLATED {
            m[i..i + 8].copy_from_slice(&v.to_le_bytes());
            f(&format!("u64 at {i} set to {v:#x}"), &m);
        }
        m[i..i + 8].copy_from_slice(&valid[i..i + 8]);
    }
}

/// Runs `decode` on `bytes`, turning a panic into a test failure that
/// names the mutant.
fn no_panic<T>(what: &str, label: &str, bytes: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    catch_unwind(AssertUnwindSafe(|| decode(bytes))).unwrap_or_else(|_| {
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        panic!("{what} decoder panicked on {label}: {hex}")
    })
}

/// `bytes` with its trailing 8-byte FNV-1a recomputed over the rest — a
/// sealed file whose checksum no longer stands in the decoder's way.
fn resealed(bytes: &[u8]) -> Vec<u8> {
    let mut b = bytes.to_vec();
    if let Some(n) = b.len().checked_sub(8) {
        let sum = fnv1a(&b[..n]);
        b[n..].copy_from_slice(&sum.to_le_bytes());
    }
    b
}

/// `wire` with its frame checksum recomputed, when its length field still
/// spans the bytes present.
fn reframed(wire: &[u8]) -> Vec<u8> {
    let mut b = wire.to_vec();
    if b.len() >= 4 {
        let len = u32::from_le_bytes(b[..4].try_into().unwrap()) as usize;
        if len > 0 && 4 + len + 8 == b.len() {
            let sum = fnv1a(&b[4..4 + len]);
            b[4 + len..].copy_from_slice(&sum.to_le_bytes());
        }
    }
    b
}

fn shard_decode(tag: u8, payload: &[u8]) {
    match Message::decode(&Frame {
        tag,
        payload: payload.to_vec(),
    }) {
        Ok(_) | Err(ShardError::Protocol(_)) => {}
        Err(e) => panic!("shard decode gave an untyped error: {e}"),
    }
}

fn query_decode(tag: u8, payload: &[u8]) {
    match QueryMessage::decode(&Frame {
        tag,
        payload: payload.to_vec(),
    }) {
        Ok(_) | Err(ServeError::Protocol(_)) => {}
        Err(e) => panic!("query decode gave an untyped error: {e}"),
    }
}

fn shard_samples() -> Vec<Message> {
    let plan = PlanMsg {
        opts: FitOptions::new(vec![2, 2])
            .lambda(0.5)
            .max_iters(3)
            .schedule(Schedule::Dynamic { chunk: 4 })
            .variant(Variant::Approx {
                truncation_rate: 0.25,
            })
            .seed(7)
            .budget(MemoryBudget::with_policy(1 << 20, BudgetPolicy::Strict))
            .precision(StoragePrecision::F32)
            .checkpoint_path("a.ckpt"),
        dims: vec![3, 2],
        indices: vec![0, 1, 2, 0],
        values: vec![1.5, -0.25],
        ranges: vec![0..2, 0..1],
        resume: Some(vec![1, 2, 3]),
        fault: Some("send:rows:1:drop".into()),
    };
    vec![
        Message::Hello {
            version: 3,
            worker_id: 1,
            workers: 2,
        },
        Message::Plan(Box::new(plan)),
        Message::ModeStart { iter: 5, mode: 1 },
        Message::Rows(RowsMsg {
            mode: 1,
            lo: 1,
            hi: 2,
            ok: true,
            data: vec![0.5, -1.0],
            row_sse: Some(vec![0.75]),
        }),
        Message::FactorSync {
            mode: 1,
            ok: false,
            data: vec![0.5, -1.0],
            row_sse: None,
        },
        Message::Stats(WorkerStatsMsg {
            rows_updated: 12,
            nnz_processed: 340,
            wall_seconds: 0.5,
            bytes_sent: 1024,
            bytes_received: 2048,
        }),
        Message::Shutdown,
        Message::Heartbeat,
        Message::Reassign {
            ranges: vec![0..3, 1..1],
        },
    ]
}

fn query_samples() -> Vec<QueryMessage> {
    vec![
        QueryMessage::Hello { version: 1 },
        QueryMessage::Welcome {
            version: 1,
            epoch: 3,
            dims: vec![5, 4],
            ranks: vec![2, 1],
            precision: StoragePrecision::F32,
        },
        QueryMessage::Point {
            id: 9,
            indices: vec![1, 2, 0, 3],
        },
        QueryMessage::PointReply {
            id: 9,
            epoch: 3,
            values: vec![0.5, -1.25],
        },
        QueryMessage::TopK {
            id: 10,
            mode: 1,
            k: 2,
            queries: 2,
            others: vec![4, 0],
        },
        QueryMessage::TopKReply {
            id: 10,
            epoch: 3,
            k: 1,
            items: vec![(2, 0.75), (0, -0.5)],
        },
        QueryMessage::Info { id: 11 },
        QueryMessage::Goodbye,
        QueryMessage::Error {
            id: 12,
            message: "bad mode".into(),
        },
    ]
}

fn model() -> TuckerDecomposition {
    TuckerDecomposition {
        factors: vec![
            Matrix::from_vec(2, 2, vec![1.0, -0.5, 0.25, 2.0]).unwrap(),
            Matrix::from_vec(3, 1, vec![0.125, -4.0, 8.0]).unwrap(),
        ],
        core: CoreTensor::from_entries(vec![2, 1], vec![(vec![0, 0], 1.5), (vec![1, 0], -3.0)])
            .unwrap(),
    }
}

fn checkpoint(kernel_aux: Vec<u8>) -> FitCheckpoint {
    let m = model();
    FitCheckpoint {
        fingerprint: 0x0123_4567_89ab_cdef,
        next_iter: 2,
        prev_err: 0.5,
        iterations: vec![IterStats {
            iter: 0,
            reconstruction_error: 1.25,
            seconds: 0.0625,
            core_nnz: 2,
        }],
        factors: m.factors,
        core: m.core,
        kernel_aux,
    }
}

#[test]
fn frames_survive_every_mutation() {
    let mut samples = Vec::new();
    for (tag, payload) in [shard_samples()[1].encode(), query_samples()[1].encode()] {
        let mut wire = Vec::new();
        Channel::new(io::empty(), &mut wire)
            .send_frame(tag, &payload)
            .unwrap();
        samples.push(wire);
    }
    for (s, valid) in samples.iter().enumerate() {
        // Each sample is decoded as the protocol it came from.
        let decode_body: fn(u8, &[u8]) = if s == 0 { shard_decode } else { query_decode };
        for_each_mutant(valid, |label, m| {
            for bytes in [m.to_vec(), reframed(m)] {
                let frame = no_panic("frame", label, &bytes, |b| {
                    Channel::new(b, io::sink()).recv_frame()
                });
                match frame {
                    Ok(f) => no_panic("message", label, &f.payload, |p| decode_body(f.tag, p)),
                    Err(e) => assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "{label}: {e}"
                    ),
                }
            }
        });
    }
}

#[test]
fn shard_messages_survive_every_mutation() {
    for msg in shard_samples() {
        let (tag, valid) = msg.encode();
        for other in 0..=u8::MAX {
            no_panic("shard", "retagged", &valid, |p| shard_decode(other, p));
        }
        for_each_mutant(&valid, |label, m| {
            no_panic("shard", label, m, |p| shard_decode(tag, p));
        });
    }
}

#[test]
fn query_messages_survive_every_mutation() {
    for msg in query_samples() {
        let (tag, valid) = msg.encode();
        for other in 0..=u8::MAX {
            no_panic("query", "retagged", &valid, |p| query_decode(other, p));
        }
        for_each_mutant(&valid, |label, m| {
            no_panic("query", label, m, |p| query_decode(tag, p));
        });
    }
}

#[test]
fn checkpoints_survive_every_mutation() {
    for aux in [Vec::new(), vec![0xa5; 24]] {
        let valid = checkpoint(aux).encode();
        for_each_mutant(&valid, |label, m| {
            for bytes in [m.to_vec(), resealed(m)] {
                match no_panic("checkpoint", label, &bytes, FitCheckpoint::decode) {
                    Ok(_) | Err(PtuckerError::Checkpoint(_)) => {}
                    Err(e) => panic!("{label}: untyped checkpoint error {e}"),
                }
            }
        });
    }
}

#[test]
fn model_files_survive_every_mutation() {
    let valid = model().encode();
    for_each_mutant(&valid, |label, m| {
        for bytes in [m.to_vec(), resealed(m)] {
            match no_panic("model", label, &bytes, TuckerDecomposition::decode) {
                Ok(_) | Err(PtuckerError::Model(_)) => {}
                Err(e) => panic!("{label}: untyped model error {e}"),
            }
        }
    });
}
