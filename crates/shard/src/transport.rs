//! The shard side of the shared wire layer.
//!
//! The framed transport itself — length-prefixed checksummed frames,
//! [`ByteCounters`], read deadlines, [`FaultInjector`] — lives in
//! [`ptucker_transport`] so the factor-serving read path
//! (`ptucker-serve`) speaks the identical framing; this module
//! re-exports it wholesale and adds the two shard-specific pieces: the
//! shard protocol version negotiated by `Hello`, and fault-spec parsing
//! bound to the shard message vocabulary
//! ([`crate::protocol::parse_fault_spec`]).

pub use ptucker_transport::{
    fnv1a, ByteCounters, Channel, DeadlineCapable, FaultAction, FaultInjector, FaultPoint,
    FaultRule, Frame,
};

/// Version negotiated by the `Hello` exchange; bumped whenever the frame
/// layout or any message encoding changes. Version 2 added the
/// `Heartbeat` and `Reassign` messages and the plan's `resume`/`fault`
/// fields; version 3 the squared-residual section of `Rows` and
/// `FactorSync`.
pub const PROTOCOL_VERSION: u32 = 3;

#[cfg(test)]
mod tests {
    use super::*;
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
}
