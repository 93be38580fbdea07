//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload. A payload is an opcode byte followed by the
//! operation's fixed-width little-endian `u64` fields, so a frame's legal
//! length is fully determined by its opcode and a decoder can reject a
//! malformed or hostile frame without buffering more than
//! [`MAX_PAYLOAD`] bytes.
//!
//! Requests and responses travel the same framing. Responses carry no
//! request identifier: a connection is a pipe, the server answers frames
//! strictly in arrival order, and a pipelining client correlates the
//! `k`-th response with the `k`-th outstanding request — the same
//! discipline as Redis' RESP pipeline.
//!
//! Durability contract: a [`Response`] to a mutating request is sent only
//! after the write's durability fence. Under the server's group-commit
//! window the fence covers the whole pipelined batch, so one drain
//! amortizes across every write the batch contained (see
//! [`crate::server`]).

/// Words in the stats reply, the longest message.
const STATS_WORDS: usize = 13;

/// Largest legal payload: the stats reply's opcode and words. A length
/// prefix above this is a protocol violation, not a request to buffer
/// 4 GiB.
pub const MAX_PAYLOAD: usize = 1 + 8 * STATS_WORDS;

/// Bytes of the length prefix.
pub const HEADER_LEN: usize = 4;

// Request opcodes, contiguous from `OP_GET` to `OP_SEQ_DELETE`.
const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_DELETE: u8 = 0x03;
const OP_SCAN: u8 = 0x04;
const OP_FLUSH: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_HELLO: u8 = 0x07;
const OP_INCR: u8 = 0x08;
const OP_SEQ_PUT: u8 = 0x09;
const OP_SEQ_DELETE: u8 = 0x0A;

// Response opcodes, contiguous from `OP_FOUND` to `OP_WELCOME` (high bit
// set, so a stream desynchronization that feeds a response to the request
// decoder is caught immediately).
const OP_FOUND: u8 = 0x81;
const OP_MISSING: u8 = 0x82;
const OP_SCANNED: u8 = 0x83;
const OP_FLUSHED: u8 = 0x84;
const OP_STATS_REPLY: u8 = 0x85;
const OP_WELCOME: u8 = 0x86;

/// A client request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Request {
    /// Read `key`'s current value.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Durably set `key` to `value`; the response reports the previous
    /// value and is the durability ack.
    Put {
        /// Key to write.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// Durably remove `key`; the response reports the removed value and is
    /// the durability ack.
    Delete {
        /// Key to remove.
        key: u64,
    },
    /// Scan up to `limit` live entries starting at `key`'s probe position;
    /// the response carries the count and value-sum observed.
    Scan {
        /// Scan origin.
        key: u64,
        /// Maximum entries to visit.
        limit: u64,
    },
    /// Force a durability fence now, regardless of batching. The response
    /// acks that everything previously accepted on this connection is
    /// durable.
    Flush,
    /// Read the server's live counters and latency percentiles. Answered
    /// from the server's shared counters without running a transaction,
    /// so it is safe to poll a loaded server.
    Stats,
    /// Session handshake. `session = 0` asks the server to allocate a
    /// fresh session in its persistent session table; a nonzero value
    /// resumes an existing session after a reconnect (or a server
    /// restart), and the [`Response::Welcome`] reply reports the last
    /// sequence number the table has applied — the client's replay point.
    Hello {
        /// Session to resume, or 0 to allocate.
        session: u64,
    },
    /// Durably add `delta` to `key`'s value (missing keys count from 0),
    /// exactly once: the session table dedups replays by `(session, seq)`.
    /// Deliberately non-idempotent at the store level — the operation the
    /// torture suite uses to make a double-apply visible instead of
    /// masked. Responds [`Response::Found`] with the post-increment value.
    Incr {
        /// Key to increment.
        key: u64,
        /// Amount to add (wrapping).
        delta: u64,
        /// Owning session id from the [`Request::Hello`] handshake.
        session: u64,
        /// Per-session sequence number, starting at 1.
        seq: u64,
    },
    /// A [`Request::Put`] guarded by the session table: replays of an
    /// already-applied `(session, seq)` return the cached response instead
    /// of re-executing.
    SeqPut {
        /// Key to write.
        key: u64,
        /// Value to store.
        value: u64,
        /// Owning session id.
        session: u64,
        /// Per-session sequence number, starting at 1.
        seq: u64,
    },
    /// A [`Request::Delete`] guarded by the session table, like
    /// [`Request::SeqPut`].
    SeqDelete {
        /// Key to remove.
        key: u64,
        /// Owning session id.
        session: u64,
        /// Per-session sequence number, starting at 1.
        seq: u64,
    },
}

/// The server's lifetime counters plus a percentile summary of its
/// per-request service latency histogram: the payload of a
/// [`Response::Stats`], and what [`crate::KvServer::stats`] returns in
/// process. All durations are nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests executed.
    pub requests: u64,
    /// Pipelined batches served (each at most one durability fence).
    pub batches: u64,
    /// Durability fences issued, one per batch containing a write or a
    /// `Flush`.
    pub flushes: u64,
    /// Connections dropped for malformed frames, sequence violations or
    /// keys above [`crafty_kv::KEY_MAX`].
    pub protocol_errors: u64,
    /// Latency samples recorded (one per request served).
    pub latency_count: u64,
    /// Mean service latency, rounded to whole nanoseconds.
    pub latency_mean_ns: u64,
    /// Median service latency.
    pub latency_p50_ns: u64,
    /// 99th-percentile service latency.
    pub latency_p99_ns: u64,
    /// 99.9th-percentile service latency.
    pub latency_p999_ns: u64,
    /// Exact maximum service latency.
    pub latency_max_ns: u64,
    /// Retired, always 0: the server sheds no batches. The field keeps
    /// its word on the wire and its place in the reports that print it.
    pub shed_batches: u64,
    /// Sessions allocated by `Hello` handshakes over this server's life.
    pub sessions: u64,
}

impl ServerStats {
    /// Field order on the wire.
    fn fields(&self) -> [u64; STATS_WORDS] {
        [
            self.connections,
            self.requests,
            self.batches,
            self.flushes,
            self.protocol_errors,
            self.latency_count,
            self.latency_mean_ns,
            self.latency_p50_ns,
            self.latency_p99_ns,
            self.latency_p999_ns,
            self.latency_max_ns,
            self.shed_batches,
            self.sessions,
        ]
    }

    /// Mean pipelined-batch depth — the amortization factor group commit
    /// achieved. `1.0` means the server never saw a pipeline.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// A server response. Responses are answered in request order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Response {
    /// The key was present; carries the (previous, for mutations) value.
    Found {
        /// The value read, replaced, or removed.
        value: u64,
    },
    /// The key was absent (for `Get`) or newly inserted (for `Put`).
    Missing,
    /// Result of a `Scan`.
    Scanned {
        /// Live entries visited.
        count: u64,
        /// Sum of the visited values (a checksum the client can verify).
        sum: u64,
    },
    /// Ack of a `Flush` fence.
    Flushed,
    /// Reply to a `Stats` request.
    Stats {
        /// The live counters and latency percentiles.
        report: ServerStats,
    },
    /// Reply to a [`Request::Hello`]. `session = 0` means the requested
    /// resume was refused (the session was never allocated, or its table
    /// slot has been reclaimed); a client must not replay into a refused
    /// session. The allocation itself is fenced before this reply is sent,
    /// so an acknowledged session survives a server crash-restart.
    Welcome {
        /// The allocated or resumed session id (0 = refused).
        session: u64,
        /// The highest sequence number the session table has applied —
        /// everything at or below it is durably done and must not be
        /// re-sent as new work (replays of it get cached responses).
        last_seq: u64,
    },
}

/// A malformed frame or payload. Any of these on a connection is fatal to
/// that connection: framing has lost sync and nothing later can be
/// trusted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolError {
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
    /// The length prefix was zero (every message has at least an opcode).
    Empty,
    /// The opcode byte is not a known message.
    UnknownOp {
        /// The offending opcode.
        op: u8,
    },
    /// The payload length does not match the opcode's fixed layout.
    BadLength {
        /// The offending opcode.
        op: u8,
        /// The payload length received.
        len: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Oversized { len } => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_PAYLOAD}-byte maximum"
                )
            }
            ProtocolError::Empty => write!(f, "empty frame"),
            ProtocolError::UnknownOp { op } => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::BadLength { op, len } => {
                write!(f, "payload length {len} is illegal for opcode {op:#04x}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Appends one frame (`op` byte plus `fields` in order) to `out`.
fn encode_frame(out: &mut Vec<u8>, op: u8, fields: &[u64]) {
    let len = 1 + 8 * fields.len();
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(op);
    for f in fields {
        out.extend_from_slice(&f.to_le_bytes());
    }
}

/// Splits a payload into its opcode and its body's little-endian words,
/// the form each decoder matches its layouts against. A body that is not
/// whole words, or longer than any message, has no words: no layout
/// matches it.
fn split<'w>(
    payload: &[u8],
    words: &'w mut [u64; STATS_WORDS],
) -> Result<(u8, Option<&'w [u64]>), ProtocolError> {
    let (&op, body) = payload.split_first().ok_or(ProtocolError::Empty)?;
    if body.len() % 8 != 0 || body.len() > 8 * STATS_WORDS {
        return Ok((op, None));
    }
    for (word, bytes) in words.iter_mut().zip(body.chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
    }
    Ok((op, Some(&words[..body.len() / 8])))
}

/// Why no layout matched a payload of `len` bytes: the wrong length for an
/// opcode in `known`, or an opcode outside it.
fn mismatch(op: u8, len: usize, known: std::ops::RangeInclusive<u8>) -> ProtocolError {
    if known.contains(&op) {
        ProtocolError::BadLength { op, len }
    } else {
        ProtocolError::UnknownOp { op }
    }
}

/// Checks a length prefix and returns the payload length, if the buffer
/// already holds the complete frame. `Ok(None)` means "incomplete — read
/// more bytes"; a hostile prefix errors without waiting for the payload.
pub fn frame_payload_len(buf: &[u8]) -> Result<Option<usize>, ProtocolError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 {
        return Err(ProtocolError::Empty);
    }
    if len as usize > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized { len });
    }
    if buf.len() < HEADER_LEN + len as usize {
        return Ok(None);
    }
    Ok(Some(len as usize))
}

/// Decodes complete frames from the front of `buf` into `out` until `out`
/// holds `want` messages or no complete frame is left, then drains the
/// bytes it decoded. On an error `buf` is left as it was: the stream has
/// lost sync, and the connection is done.
pub(crate) fn drain_frames<T>(
    buf: &mut Vec<u8>,
    want: usize,
    out: &mut Vec<T>,
    decode: fn(&[u8]) -> Result<T, ProtocolError>,
) -> Result<(), ProtocolError> {
    let mut consumed = 0;
    while out.len() < want {
        let Some(len) = frame_payload_len(&buf[consumed..])? else {
            break;
        };
        let start = consumed + HEADER_LEN;
        out.push(decode(&buf[start..start + len])?);
        consumed = start + len;
    }
    buf.drain(..consumed);
    Ok(())
}

impl Request {
    /// Appends the framed request to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Request::Get { key } => encode_frame(out, OP_GET, &[key]),
            Request::Put { key, value } => encode_frame(out, OP_PUT, &[key, value]),
            Request::Delete { key } => encode_frame(out, OP_DELETE, &[key]),
            Request::Scan { key, limit } => encode_frame(out, OP_SCAN, &[key, limit]),
            Request::Flush => encode_frame(out, OP_FLUSH, &[]),
            Request::Stats => encode_frame(out, OP_STATS, &[]),
            Request::Hello { session } => encode_frame(out, OP_HELLO, &[session]),
            Request::Incr {
                key,
                delta,
                session,
                seq,
            } => encode_frame(out, OP_INCR, &[key, delta, session, seq]),
            Request::SeqPut {
                key,
                value,
                session,
                seq,
            } => encode_frame(out, OP_SEQ_PUT, &[key, value, session, seq]),
            Request::SeqDelete { key, session, seq } => {
                encode_frame(out, OP_SEQ_DELETE, &[key, session, seq])
            }
        }
    }

    /// Whether this request mutates the store (and therefore owes the
    /// client a durability ack). `Hello` counts: a fresh session
    /// allocation writes the persistent session table and must be fenced
    /// before its `Welcome`.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::Put { .. }
                | Request::Delete { .. }
                | Request::Hello { .. }
                | Request::Incr { .. }
                | Request::SeqPut { .. }
                | Request::SeqDelete { .. }
        )
    }

    /// The `(session, seq)` pair of a sequenced (dedup-guarded) request.
    pub fn sequence(&self) -> Option<(u64, u64)> {
        match *self {
            Request::Incr { session, seq, .. }
            | Request::SeqPut { session, seq, .. }
            | Request::SeqDelete { session, seq, .. } => Some((session, seq)),
            _ => None,
        }
    }

    /// The key a request names, if it names one.
    pub(crate) fn key(&self) -> Option<u64> {
        match *self {
            Request::Get { key }
            | Request::Put { key, .. }
            | Request::Delete { key }
            | Request::Scan { key, .. }
            | Request::Incr { key, .. }
            | Request::SeqPut { key, .. }
            | Request::SeqDelete { key, .. } => Some(key),
            Request::Flush | Request::Stats | Request::Hello { .. } => None,
        }
    }

    /// Decodes a request from a complete frame payload (opcode byte
    /// included, length prefix already stripped).
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut words = [0; STATS_WORDS];
        let (op, words) = split(payload, &mut words)?;
        Ok(match (op, words) {
            (OP_GET, Some(&[key])) => Request::Get { key },
            (OP_PUT, Some(&[key, value])) => Request::Put { key, value },
            (OP_DELETE, Some(&[key])) => Request::Delete { key },
            (OP_SCAN, Some(&[key, limit])) => Request::Scan { key, limit },
            (OP_FLUSH, Some(&[])) => Request::Flush,
            (OP_STATS, Some(&[])) => Request::Stats,
            (OP_HELLO, Some(&[session])) => Request::Hello { session },
            (OP_INCR, Some(&[key, delta, session, seq])) => Request::Incr {
                key,
                delta,
                session,
                seq,
            },
            (OP_SEQ_PUT, Some(&[key, value, session, seq])) => Request::SeqPut {
                key,
                value,
                session,
                seq,
            },
            (OP_SEQ_DELETE, Some(&[key, session, seq])) => Request::SeqDelete { key, session, seq },
            _ => return Err(mismatch(op, payload.len(), OP_GET..=OP_SEQ_DELETE)),
        })
    }
}

impl Response {
    /// Appends the framed response to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Response::Found { value } => encode_frame(out, OP_FOUND, &[value]),
            Response::Missing => encode_frame(out, OP_MISSING, &[]),
            Response::Scanned { count, sum } => encode_frame(out, OP_SCANNED, &[count, sum]),
            Response::Flushed => encode_frame(out, OP_FLUSHED, &[]),
            Response::Stats { report } => encode_frame(out, OP_STATS_REPLY, &report.fields()),
            Response::Welcome { session, last_seq } => {
                encode_frame(out, OP_WELCOME, &[session, last_seq])
            }
        }
    }

    /// Decodes a response from a complete frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut words = [0; STATS_WORDS];
        let (op, words) = split(payload, &mut words)?;
        Ok(match (op, words) {
            (OP_FOUND, Some(&[value])) => Response::Found { value },
            (OP_MISSING, Some(&[])) => Response::Missing,
            (OP_SCANNED, Some(&[count, sum])) => Response::Scanned { count, sum },
            (OP_FLUSHED, Some(&[])) => Response::Flushed,
            // One binding per wire word, in `ServerStats::fields` order.
            #[rustfmt::skip]
            (OP_STATS_REPLY, Some(&[
                connections, requests, batches, flushes, protocol_errors,
                latency_count, latency_mean_ns, latency_p50_ns, latency_p99_ns,
                latency_p999_ns, latency_max_ns, shed_batches, sessions,
            ])) => Response::Stats { report: ServerStats {
                connections, requests, batches, flushes, protocol_errors,
                latency_count, latency_mean_ns, latency_p50_ns, latency_p99_ns,
                latency_p999_ns, latency_max_ns, shed_batches, sessions,
            } },
            (OP_WELCOME, Some(&[session, last_seq])) => Response::Welcome { session, last_seq },
            _ => return Err(mismatch(op, payload.len(), OP_FOUND..=OP_WELCOME)),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Get { key: 0 },
            Request::Get { key: u64::MAX },
            Request::Put {
                key: 7,
                value: 0xDEAD_BEEF,
            },
            Request::Delete { key: 42 },
            Request::Scan { key: 9, limit: 16 },
            Request::Flush,
            Request::Stats,
            Request::Hello { session: 0 },
            Request::Hello { session: 17 },
            Request::Incr {
                key: 3,
                delta: 11,
                session: 17,
                seq: 1,
            },
            Request::SeqPut {
                key: 4,
                value: 44,
                session: 17,
                seq: 2,
            },
            Request::SeqDelete {
                key: 4,
                session: 17,
                seq: u64::MAX,
            },
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Found { value: 0 },
            Response::Found { value: u64::MAX },
            Response::Missing,
            Response::Scanned {
                count: 3,
                sum: 1_000_000,
            },
            Response::Flushed,
            Response::Stats {
                report: ServerStats {
                    connections: 1,
                    requests: 1000,
                    batches: 40,
                    flushes: 39,
                    protocol_errors: 0,
                    latency_count: 1000,
                    latency_mean_ns: 52_000,
                    latency_p50_ns: 48_000,
                    latency_p99_ns: 420_000,
                    latency_p999_ns: 1_300_000,
                    latency_max_ns: u64::MAX,
                    shed_batches: 2,
                    sessions: 5,
                },
            },
            Response::Welcome {
                session: 9,
                last_seq: 41,
            },
        ]
    }

    #[test]
    fn requests_round_trip_through_frames() {
        for req in all_requests() {
            let mut wire = Vec::new();
            req.encode(&mut wire);
            let len = frame_payload_len(&wire).expect("valid").expect("complete");
            assert_eq!(wire.len(), HEADER_LEN + len);
            assert_eq!(Request::decode(&wire[HEADER_LEN..]).expect("decode"), req);
        }
    }

    #[test]
    fn responses_round_trip_through_frames() {
        for resp in all_responses() {
            let mut wire = Vec::new();
            resp.encode(&mut wire);
            let len = frame_payload_len(&wire).expect("valid").expect("complete");
            assert_eq!(wire.len(), HEADER_LEN + len);
            assert_eq!(Response::decode(&wire[HEADER_LEN..]).expect("decode"), resp);
        }
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let reqs = all_requests();
        let mut wire = Vec::new();
        for r in &reqs {
            r.encode(&mut wire);
        }
        let mut at = 0;
        let mut decoded = Vec::new();
        while at < wire.len() {
            let len = frame_payload_len(&wire[at..])
                .expect("valid")
                .expect("complete");
            decoded.push(Request::decode(&wire[at + HEADER_LEN..at + HEADER_LEN + len]).unwrap());
            at += HEADER_LEN + len;
        }
        assert_eq!(decoded, reqs);
    }

    #[test]
    fn truncated_frames_wait_for_more_bytes() {
        let mut wire = Vec::new();
        Request::Put { key: 1, value: 2 }.encode(&mut wire);
        for cut in 0..wire.len() {
            assert_eq!(
                frame_payload_len(&wire[..cut]),
                Ok(None),
                "cut at {cut} must read as incomplete"
            );
        }
        assert!(frame_payload_len(&wire).unwrap().is_some());
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_without_buffering() {
        // 4 GiB-ish claimed length: rejected from the prefix alone.
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(
            frame_payload_len(&huge),
            Err(ProtocolError::Oversized { len: u32::MAX })
        );
        let zero = 0u32.to_le_bytes();
        assert_eq!(frame_payload_len(&zero), Err(ProtocolError::Empty));
        // Just above the maximum is rejected too.
        let over = ((MAX_PAYLOAD + 1) as u32).to_le_bytes();
        assert!(matches!(
            frame_payload_len(&over),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn garbage_payloads_are_rejected() {
        // Unknown opcode.
        assert_eq!(
            Request::decode(&[0x7F, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtocolError::UnknownOp { op: 0x7F })
        );
        // A response opcode fed to the request decoder (desync detection).
        assert!(matches!(
            Request::decode(&[OP_FOUND, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtocolError::UnknownOp { .. })
        ));
        // Right opcode, wrong body length.
        assert_eq!(
            Request::decode(&[OP_PUT, 1, 2, 3]),
            Err(ProtocolError::BadLength { op: OP_PUT, len: 4 })
        );
        assert_eq!(
            Request::decode(&[OP_FLUSH, 9]),
            Err(ProtocolError::BadLength {
                op: OP_FLUSH,
                len: 2
            })
        );
        assert_eq!(Request::decode(&[]), Err(ProtocolError::Empty));
        assert!(matches!(
            Response::decode(&[OP_GET, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtocolError::UnknownOp { .. })
        ));
        // The stats reply opcode fed back to the request decoder is caught
        // by its high bit, like every other response (desync detection).
        assert_eq!(
            Request::decode(&[OP_STATS_REPLY; 105]),
            Err(ProtocolError::UnknownOp { op: OP_STATS_REPLY })
        );
        // A stats request smuggling a body is a framing violation: its
        // legal length is opcode-determined, exactly like Flush.
        assert_eq!(
            Request::decode(&[OP_STATS, 1, 2, 3, 4, 5, 6, 7, 8]),
            Err(ProtocolError::BadLength {
                op: OP_STATS,
                len: 9
            })
        );
        // A truncated stats reply (twelve fields instead of thirteen).
        assert_eq!(
            Response::decode(&[OP_STATS_REPLY; 97]),
            Err(ProtocolError::BadLength {
                op: OP_STATS_REPLY,
                len: 97
            })
        );
        // A sequenced put missing its (session, seq) tail is malformed,
        // not silently treated as unsequenced.
        assert_eq!(
            Request::decode(&[OP_SEQ_PUT; 17]),
            Err(ProtocolError::BadLength {
                op: OP_SEQ_PUT,
                len: 17
            })
        );
    }

    /// Checks `decode` on one payload against the legal `(opcode, length)`
    /// pairs of its direction: the opcode's own length decodes and
    /// re-encodes to the same bytes, any other length of a known opcode is
    /// `BadLength`, and any other opcode is `UnknownOp`.
    fn check_decode<T>(
        layouts: &HashMap<u8, usize>,
        payload: &[u8],
        decode: fn(&[u8]) -> Result<T, ProtocolError>,
        encode: fn(&T, &mut Vec<u8>),
    ) {
        let (op, len) = (payload[0], payload.len());
        let got = decode(payload);
        match layouts.get(&op) {
            Some(&legal) if legal == len => {
                let msg = got.unwrap_or_else(|e| panic!("{op:#04x} at its length {len}: {e}"));
                let mut wire = Vec::new();
                encode(&msg, &mut wire);
                assert_eq!(&wire[HEADER_LEN..], payload, "{op:#04x} re-encodes");
            }
            Some(_) => assert_eq!(got.err(), Some(ProtocolError::BadLength { op, len })),
            None => assert_eq!(got.err(), Some(ProtocolError::UnknownOp { op })),
        }
    }

    /// The whole opcode × length matrix, both decoders: every opcode byte
    /// at every payload length up to `MAX_PAYLOAD`, whole words or not.
    /// The legal pairs come from encoding the sample messages, so each
    /// direction's opcodes are unknown to the other decoder.
    #[test]
    fn only_an_opcodes_own_layout_decodes() {
        fn layout(encode: impl FnOnce(&mut Vec<u8>)) -> (u8, usize) {
            let mut wire = Vec::new();
            encode(&mut wire);
            (wire[HEADER_LEN], wire.len() - HEADER_LEN)
        }
        let requests: HashMap<u8, usize> = all_requests()
            .iter()
            .map(|r| layout(|w| r.encode(w)))
            .collect();
        let responses: HashMap<u8, usize> = all_responses()
            .iter()
            .map(|r| layout(|w| r.encode(w)))
            .collect();
        for op in 0..=u8::MAX {
            for len in 1..=MAX_PAYLOAD {
                let payload: Vec<u8> = std::iter::once(op)
                    .chain((1..len).map(|i| (i * 37) as u8))
                    .collect();
                check_decode(&requests, &payload, Request::decode, Request::encode);
                check_decode(&responses, &payload, Response::decode, Response::encode);
            }
        }
    }

    #[test]
    fn sequenced_requests_expose_their_session_and_seq() {
        assert_eq!(
            Request::Incr {
                key: 1,
                delta: 2,
                session: 3,
                seq: 4
            }
            .sequence(),
            Some((3, 4))
        );
        assert_eq!(Request::Get { key: 1 }.sequence(), None);
        assert_eq!(Request::Hello { session: 3 }.sequence(), None);
        assert!(Request::Hello { session: 0 }.is_write());
        assert!(Request::Incr {
            key: 0,
            delta: 1,
            session: 1,
            seq: 1
        }
        .is_write());
        assert!(!Request::Stats.is_write());
    }

    #[test]
    fn errors_render_a_description() {
        for e in [
            ProtocolError::Oversized { len: 99 },
            ProtocolError::Empty,
            ProtocolError::UnknownOp { op: 0x33 },
            ProtocolError::BadLength { op: OP_GET, len: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
