//! Property-based tests of the wire protocol: the decoders must be total
//! over arbitrary bytes. A networked front-end's framing layer is fed by
//! an untrusted peer (and, under the torture suite's `FaultyStream`, by
//! deliberately truncated and bit-flipped streams), so `frame_payload_len`
//! / `Request::decode` / `Response::decode` must reject every malformed
//! input with a typed [`ProtocolError`] — never a panic — and round-trip
//! every well-formed message exactly.

use crafty_server::protocol::{frame_payload_len, HEADER_LEN, MAX_PAYLOAD};
use crafty_server::{Request, Response, ServerStats};
use proptest::prelude::*;

/// Number of request variants `request_from` can build.
const REQUEST_VARIANTS: u64 = 10;

/// Deterministically builds the `variant`-th request shape from four free
/// field values (unused fields are simply dropped), covering every opcode.
fn request_from(variant: u64, a: u64, b: u64, c: u64, d: u64) -> Request {
    match variant {
        0 => Request::Get { key: a },
        1 => Request::Put { key: a, value: b },
        2 => Request::Delete { key: a },
        3 => Request::Scan { key: a, limit: b },
        4 => Request::Flush,
        5 => Request::Stats,
        6 => Request::Hello { session: a },
        7 => Request::Incr {
            key: a,
            delta: b,
            session: c,
            seq: d,
        },
        8 => Request::SeqPut {
            key: a,
            value: b,
            session: c,
            seq: d,
        },
        _ => Request::SeqDelete {
            key: a,
            session: c,
            seq: d,
        },
    }
}

/// Number of response variants `response_from` can build.
const RESPONSE_VARIANTS: u64 = 6;

/// Deterministically builds the `variant`-th response shape, covering
/// every opcode (the stats report fans one value out over all counters).
fn response_from(variant: u64, a: u64, b: u64) -> Response {
    match variant {
        0 => Response::Found { value: a },
        1 => Response::Missing,
        2 => Response::Scanned { count: a, sum: b },
        3 => Response::Flushed,
        4 => Response::Stats {
            report: ServerStats {
                connections: a,
                requests: b,
                batches: a ^ b,
                flushes: a.wrapping_add(b),
                protocol_errors: a.rotate_left(17),
                latency_count: b.rotate_left(31),
                latency_mean_ns: a.wrapping_mul(3),
                latency_p50_ns: b.wrapping_mul(5),
                latency_p99_ns: a.wrapping_sub(b),
                latency_p999_ns: b.wrapping_sub(a),
                latency_max_ns: !a,
                shed_batches: !b,
                sessions: a & b,
            },
        },
        _ => Response::Welcome {
            session: a,
            last_seq: b,
        },
    }
}

/// Splits an encoded frame into its payload (header stripped), failing the
/// case if the frame does not self-describe.
fn framed_payload(frame: &[u8]) -> Result<&[u8], TestCaseError> {
    match frame_payload_len(frame) {
        Ok(Some(len)) if HEADER_LEN + len == frame.len() => Ok(&frame[HEADER_LEN..]),
        other => Err(TestCaseError::fail(format!(
            "self-encoded frame must be complete and self-describing, got {other:?} for {} bytes",
            frame.len()
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics any decoder: the framing check and
    /// both payload decoders return a value for every input.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = frame_payload_len(&bytes);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Every request round-trips: encode, reframe, decode, compare.
    #[test]
    fn request_round_trips(variant in 0..REQUEST_VARIANTS, a: u64, b: u64, c: u64, d: u64) {
        let req = request_from(variant, a, b, c, d);
        let mut frame = Vec::new();
        req.encode(&mut frame);
        prop_assert!(frame.len() <= HEADER_LEN + MAX_PAYLOAD, "encoded frame within bound");
        prop_assert_eq!(Request::decode(framed_payload(&frame)?), Ok(req));
    }

    /// Every response round-trips.
    #[test]
    fn response_round_trips(variant in 0..RESPONSE_VARIANTS, a: u64, b: u64) {
        let resp = response_from(variant, a, b);
        let mut frame = Vec::new();
        resp.encode(&mut frame);
        prop_assert!(frame.len() <= HEADER_LEN + MAX_PAYLOAD, "encoded frame within bound");
        prop_assert_eq!(Response::decode(framed_payload(&frame)?), Ok(resp));
    }

    /// Truncating a valid frame anywhere never panics: the framing layer
    /// reports "incomplete — read more" (never a complete frame), and a
    /// truncated *payload* handed to the request decoder (as a
    /// desynchronized reader would) yields a typed error, not a panic.
    #[test]
    fn truncation_never_panics(
        variant in 0..REQUEST_VARIANTS,
        a: u64, b: u64, c: u64, d: u64,
        cut_pick: u64,
    ) {
        let req = request_from(variant, a, b, c, d);
        let mut frame = Vec::new();
        req.encode(&mut frame);
        let cut = (cut_pick % frame.len() as u64) as usize;
        let head = &frame[..cut];
        if let Ok(Some(len)) = frame_payload_len(head) {
            prop_assert!(false, "a truncated frame cannot be complete, got len {len}");
        }
        if cut > HEADER_LEN {
            let payload = &frame[HEADER_LEN..cut];
            prop_assert!(Request::decode(payload).is_err(), "short payload is an error");
            let _ = Response::decode(payload);
        }
    }

    /// Flipping any single bit of a valid frame never panics a decoder:
    /// the result is a decoded message (possibly a different one — single
    /// bit flips in u64 fields are not detectable without a checksum) or a
    /// typed error, never a crash.
    #[test]
    fn bit_flips_never_panic(
        variant in 0..REQUEST_VARIANTS,
        a: u64, b: u64, c: u64, d: u64,
        at_pick: u64,
        bit in 0u8..8,
    ) {
        let req = request_from(variant, a, b, c, d);
        let mut frame = Vec::new();
        req.encode(&mut frame);
        let at = (at_pick % frame.len() as u64) as usize;
        frame[at] ^= 1 << bit;
        if let Ok(Some(len)) = frame_payload_len(&frame) {
            let _ = Request::decode(&frame[HEADER_LEN..HEADER_LEN + len]);
            let _ = Response::decode(&frame[HEADER_LEN..HEADER_LEN + len]);
        }
    }

    /// A response payload fed to the request decoder (stream
    /// desynchronization) is always rejected: response opcodes have the
    /// high bit set, which no request opcode uses.
    #[test]
    fn desynchronized_response_is_rejected(variant in 0..RESPONSE_VARIANTS, a: u64, b: u64) {
        let resp = response_from(variant, a, b);
        let mut frame = Vec::new();
        resp.encode(&mut frame);
        prop_assert!(Request::decode(framed_payload(&frame)?).is_err());
    }
}
