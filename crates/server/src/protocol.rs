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

/// Largest legal payload: the biggest message is the stats reply — an
/// opcode plus thirteen `u64` fields. A length prefix above this is a
/// protocol violation, not a request to buffer 4 GiB.
pub const MAX_PAYLOAD: usize = 105;

/// Bytes of the length prefix.
pub const HEADER_LEN: usize = 4;

// Request opcodes.
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

// Response opcodes (high bit set, so a stream desynchronization that
// feeds a response to the request decoder is caught immediately).
const OP_FOUND: u8 = 0x81;
const OP_MISSING: u8 = 0x82;
const OP_SCANNED: u8 = 0x83;
const OP_FLUSHED: u8 = 0x84;
const OP_STATS_REPLY: u8 = 0x85;
const OP_WELCOME: u8 = 0x86;
const OP_BUSY: u8 = 0x87;

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
    /// from the serving worker's shared state without touching the engine,
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

/// The live-metrics payload of a [`Response::Stats`]: the server's
/// lifetime counters plus a percentile summary of its per-batch service
/// latency histogram. All durations are nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StatsReport {
    /// Connections accepted.
    pub connections: u64,
    /// Requests executed.
    pub requests: u64,
    /// Pipelined batches served (each at most one durability barrier).
    pub batches: u64,
    /// Durability barriers issued for batches containing writes.
    pub flushes: u64,
    /// Connections dropped for malformed frames.
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
    /// Batches answered `BUSY` by the overload shedder without touching
    /// the engine. Nonzero means the in-flight budget was hit; the
    /// committed latency baselines are only meaningful when this is 0.
    pub shed_batches: u64,
    /// Sessions allocated by `Hello` handshakes over this server's life.
    pub sessions: u64,
}

impl StatsReport {
    /// Field order on the wire (and count: thirteen `u64`s).
    fn fields(&self) -> [u64; 13] {
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

    fn from_payload(payload: &[u8]) -> StatsReport {
        let f = |i: usize| read_u64(payload, 1 + 8 * i);
        StatsReport {
            connections: f(0),
            requests: f(1),
            batches: f(2),
            flushes: f(3),
            protocol_errors: f(4),
            latency_count: f(5),
            latency_mean_ns: f(6),
            latency_p50_ns: f(7),
            latency_p99_ns: f(8),
            latency_p999_ns: f(9),
            latency_max_ns: f(10),
            shed_batches: f(11),
            sessions: f(12),
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
        report: StatsReport,
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
    /// The server's in-flight-batch budget is exhausted: the whole batch
    /// was shed without executing anything. Nothing was applied and
    /// nothing was recorded in the session table — retry the identical
    /// batch after backing off.
    Busy,
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

fn read_u64(payload: &[u8], at: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&payload[at..at + 8]);
    u64::from_le_bytes(bytes)
}

/// Appends one frame (`op` byte plus `fields` in order) to `out`.
fn encode_frame(out: &mut Vec<u8>, op: u8, fields: &[u64]) {
    let len = 1 + 8 * fields.len();
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(op);
    for f in fields {
        out.extend_from_slice(&f.to_le_bytes());
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
        let op = *payload.first().ok_or(ProtocolError::Empty)?;
        let body = payload.len() - 1;
        let expect = |fields: usize| -> Result<(), ProtocolError> {
            if body == 8 * fields {
                Ok(())
            } else {
                Err(ProtocolError::BadLength {
                    op,
                    len: payload.len(),
                })
            }
        };
        match op {
            OP_GET => {
                expect(1)?;
                Ok(Request::Get {
                    key: read_u64(payload, 1),
                })
            }
            OP_PUT => {
                expect(2)?;
                Ok(Request::Put {
                    key: read_u64(payload, 1),
                    value: read_u64(payload, 9),
                })
            }
            OP_DELETE => {
                expect(1)?;
                Ok(Request::Delete {
                    key: read_u64(payload, 1),
                })
            }
            OP_SCAN => {
                expect(2)?;
                Ok(Request::Scan {
                    key: read_u64(payload, 1),
                    limit: read_u64(payload, 9),
                })
            }
            OP_FLUSH => {
                expect(0)?;
                Ok(Request::Flush)
            }
            OP_STATS => {
                expect(0)?;
                Ok(Request::Stats)
            }
            OP_HELLO => {
                expect(1)?;
                Ok(Request::Hello {
                    session: read_u64(payload, 1),
                })
            }
            OP_INCR => {
                expect(4)?;
                Ok(Request::Incr {
                    key: read_u64(payload, 1),
                    delta: read_u64(payload, 9),
                    session: read_u64(payload, 17),
                    seq: read_u64(payload, 25),
                })
            }
            OP_SEQ_PUT => {
                expect(4)?;
                Ok(Request::SeqPut {
                    key: read_u64(payload, 1),
                    value: read_u64(payload, 9),
                    session: read_u64(payload, 17),
                    seq: read_u64(payload, 25),
                })
            }
            OP_SEQ_DELETE => {
                expect(3)?;
                Ok(Request::SeqDelete {
                    key: read_u64(payload, 1),
                    session: read_u64(payload, 9),
                    seq: read_u64(payload, 17),
                })
            }
            op => Err(ProtocolError::UnknownOp { op }),
        }
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
            Response::Busy => encode_frame(out, OP_BUSY, &[]),
        }
    }

    /// Decodes a response from a complete frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let op = *payload.first().ok_or(ProtocolError::Empty)?;
        let body = payload.len() - 1;
        let expect = |fields: usize| -> Result<(), ProtocolError> {
            if body == 8 * fields {
                Ok(())
            } else {
                Err(ProtocolError::BadLength {
                    op,
                    len: payload.len(),
                })
            }
        };
        match op {
            OP_FOUND => {
                expect(1)?;
                Ok(Response::Found {
                    value: read_u64(payload, 1),
                })
            }
            OP_MISSING => {
                expect(0)?;
                Ok(Response::Missing)
            }
            OP_SCANNED => {
                expect(2)?;
                Ok(Response::Scanned {
                    count: read_u64(payload, 1),
                    sum: read_u64(payload, 9),
                })
            }
            OP_FLUSHED => {
                expect(0)?;
                Ok(Response::Flushed)
            }
            OP_STATS_REPLY => {
                expect(13)?;
                Ok(Response::Stats {
                    report: StatsReport::from_payload(payload),
                })
            }
            OP_WELCOME => {
                expect(2)?;
                Ok(Response::Welcome {
                    session: read_u64(payload, 1),
                    last_seq: read_u64(payload, 9),
                })
            }
            OP_BUSY => {
                expect(0)?;
                Ok(Response::Busy)
            }
            op => Err(ProtocolError::UnknownOp { op }),
        }
    }
}

#[cfg(test)]
mod tests {
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
                report: StatsReport {
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
            Response::Busy,
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
