//! The resilient client: sessions, retry with backoff, and idempotent
//! replay.
//!
//! [`SessionClient`] is the layer that turns the server's persistent
//! session dedup into an end-to-end **exactly-once** contract. It owns a
//! *connector* (any `FnMut` producing a fresh [`NetStream`] — a plain
//! TCP dial, or a [`crate::FaultyStream`] under the torture harness), a
//! session id obtained via the `Hello` handshake, and a monotonically
//! increasing sequence counter. Every write it issues is a *sequenced*
//! request (`SeqPut` / `SeqDelete` / `Incr`); unacknowledged requests
//! stay in a pending list and are **replayed verbatim** after any
//! timeout or disconnect — the server's session table
//! classifies each replayed sequence number as already-applied and
//! returns the cached response instead of re-executing, so retrying is
//! always safe, even for non-idempotent increments, even across a server
//! crash-restart (the table lives in the persistent heap).
//!
//! Reconnection uses bounded exponential backoff with jitter: a short
//! [`Backoff::snooze`] ramp for the cheap in-process case, then seeded
//! multiplicative-jitter sleeps growing `base_delay · 2^attempt` up to
//! `max_delay`, for at most `max_attempts` attempts. On reconnect the
//! client resumes its session (`Hello { session }`); a refused resume
//! (the server reclaimed the slot) is a **hard error**, not a retry —
//! silently starting a fresh session would forfeit the dedup state that
//! makes replays safe.
//!
//! What this deliberately does not hide: [`ClientError::Unexpected`]
//! responses (protocol misuse) and desyncs that persist across
//! `max_attempts` reconnects. Exactly-once is retry + dedup; when either
//! half is gone, the client fails loudly rather than guessing.

use std::net::TcpStream;
use std::time::Duration;

use crafty_common::wait::Backoff;
use crafty_common::SplitMix64;
use crafty_kv::REPLY_WINDOW;

use crate::client::{expect_value, ClientError, KvClient, NetStream};
use crate::protocol::Request;

/// How hard [`SessionClient`] tries before giving up.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Connection/exchange attempts per operation before surfacing the
    /// last error. At least 1.
    pub max_attempts: u32,
    /// First backoff delay; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling for the doubled delay.
    pub max_delay: Duration,
    /// Per-request read/write deadline applied to every connection
    /// (surfaces as [`ClientError::Timeout`], which triggers replay).
    /// `None` blocks forever — only sensible without fault injection.
    pub request_timeout: Option<Duration>,
    /// Seed for the jitter stream (deterministic per client).
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A tight policy for tests and torture runs: many attempts, short
    /// delays, an aggressive request deadline.
    pub fn quick(jitter_seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 40,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            request_timeout: Some(Duration::from_millis(500)),
            jitter_seed,
        }
    }
}

/// A write in a [`SessionClient::write_batch`] — the sequenced,
/// replay-safe subset of the protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteOp {
    /// `key = value`; acks the previous value.
    Put {
        /// Key to write.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// Remove `key`; acks the removed value.
    Delete {
        /// Key to remove.
        key: u64,
    },
    /// `key += delta` (missing reads as 0); acks the post-increment
    /// value. Non-idempotent — the op that *proves* exactly-once.
    Incr {
        /// Key to increment.
        key: u64,
        /// Amount to add (wrapping).
        delta: u64,
    },
}

/// A session-holding, retrying client. See the module docs for the
/// contract. Generic over the transport so fault-injected streams slot
/// underneath unchanged.
pub struct SessionClient<S: NetStream = TcpStream> {
    connector: Box<dyn FnMut() -> std::io::Result<S> + Send>,
    policy: RetryPolicy,
    jitter: SplitMix64,
    client: Option<KvClient<S>>,
    /// 0 until the first successful handshake.
    session: u64,
    next_seq: u64,
    /// Sequenced requests sent but never acknowledged, in seq order.
    /// Replayed in full after every reconnect; the server's dedup table
    /// makes the replay at-most-once.
    pending: Vec<Request>,
}

impl<S: NetStream> SessionClient<S> {
    /// A client over an arbitrary connector — called for the initial
    /// connection and every reconnect. The connector may return a
    /// different address each time (the torture supervisor moves the
    /// restarted server to a fresh port).
    pub fn new(
        connector: impl FnMut() -> std::io::Result<S> + Send + 'static,
        policy: RetryPolicy,
    ) -> Self {
        SessionClient {
            connector: Box::new(connector),
            jitter: SplitMix64::new(policy.jitter_seed ^ 0x5E55_10C1_1E27_0001),
            policy,
            client: None,
            session: 0,
            next_seq: 1,
            pending: Vec::new(),
        }
    }

    /// The session id, once granted (0 before the first handshake).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sleeps the jittered exponential delay for `attempt` (0-based).
    /// The first attempt gets only the [`Backoff`] snooze ramp — the
    /// common transient (server restarting on the next instruction)
    /// resolves without a scheduled sleep.
    fn backoff_sleep(&mut self, attempt: u32) {
        let mut spin = Backoff::new();
        while !spin.is_completed() {
            spin.snooze();
        }
        if attempt == 0 {
            return;
        }
        let exp = self
            .policy
            .base_delay
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let capped = exp.min(self.policy.max_delay);
        // Multiplicative jitter in [0.5, 1.0): desynchronizes herds of
        // retrying clients without ever shortening below half the ramp.
        let jitter = (500 + self.jitter.next_below(500)) as f64 / 1000.0;
        std::thread::sleep(capped.mul_f64(jitter));
    }

    /// Ensures a connected, handshaken client, reconnecting if needed.
    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.client.is_some() {
            return Ok(());
        }
        let stream = (self.connector)()?;
        let mut client = KvClient::from_stream(stream)?;
        client.set_read_timeout(self.policy.request_timeout)?;
        client.set_write_timeout(self.policy.request_timeout)?;
        let (granted, _last_seq) = client.hello(self.session)?;
        if granted == 0 {
            // The server no longer knows this session: its dedup state is
            // gone, so replaying `pending` could double-apply. Fail loudly.
            return Err(ClientError::Unexpected(format!(
                "session {} expired on the server; exactly-once cannot be preserved",
                self.session
            )));
        }
        self.session = granted;
        self.client = Some(client);
        Ok(())
    }

    /// Durably applies `ops` as one pipelined, sequenced batch and
    /// returns each op's acked value (`Put`/`Delete`: the previous value;
    /// `Incr`: `Some(post-increment)`). Retries through timeouts,
    /// disconnects and server restarts; when this returns
    /// `Ok`, every op was applied **exactly once** and survives any
    /// crash.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or longer than [`REPLY_WINDOW`] — deeper
    /// batches could outrun the server's cached-reply ring and lose
    /// replay responses.
    ///
    /// # Errors
    ///
    /// The last [`ClientError`] once the retry policy is exhausted, or
    /// immediately for non-retryable failures (expired session, protocol
    /// misuse).
    pub fn write_batch(&mut self, ops: &[WriteOp]) -> Result<Vec<Option<u64>>, ClientError> {
        assert!(!ops.is_empty(), "empty write batch");
        assert!(
            ops.len() as u64 <= REPLY_WINDOW,
            "batch of {} exceeds the replayable window of {REPLY_WINDOW}",
            ops.len()
        );
        assert!(self.pending.is_empty(), "a previous batch is still pending");
        for op in ops {
            let seq = self.next_seq;
            self.next_seq += 1;
            // session is patched at send time: the first batch may be
            // sent before the first handshake assigns one.
            self.pending.push(match *op {
                WriteOp::Put { key, value } => Request::SeqPut {
                    key,
                    value,
                    session: 0,
                    seq,
                },
                WriteOp::Delete { key } => Request::SeqDelete {
                    key,
                    session: 0,
                    seq,
                },
                WriteOp::Incr { key, delta } => Request::Incr {
                    key,
                    delta,
                    session: 0,
                    seq,
                },
            });
        }
        let result = self.drive_pending();
        if result.is_ok() {
            self.pending.clear();
        }
        result
    }

    /// Sends every pending sequenced request and collects its acks. The
    /// pending list is moved out of `self` for the duration so the retry
    /// loop can borrow `self` mutably; session ids are stamped fresh per
    /// attempt, because the first attempt learns the id in its handshake.
    fn drive_pending(&mut self) -> Result<Vec<Option<u64>>, ClientError> {
        let pending = std::mem::take(&mut self.pending);
        let count = pending.len();
        let out = self.with_retries(|sid, client| {
            let stamped: Vec<Request> = pending.iter().map(|r| stamp_session(*r, sid)).collect();
            client.send(&stamped)?;
            client.recv(count)?.into_iter().map(expect_value).collect()
        });
        self.pending = pending;
        out
    }

    /// Runs connect + `exchange` attempts (the exchange receives the
    /// granted session id) until one succeeds or the policy is exhausted.
    /// Retryable failures drop the connection — forcing a fresh
    /// handshake — and back off.
    fn with_retries<T>(
        &mut self,
        exchange: impl Fn(u64, &mut KvClient<S>) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut last = ClientError::Disconnected;
        for attempt in 0..self.policy.max_attempts.max(1) {
            self.backoff_sleep(attempt);
            match self.ensure_connected() {
                Ok(()) => {}
                Err(e) if e.is_retryable() => {
                    last = e;
                    continue;
                }
                Err(ClientError::Io(e)) => {
                    last = ClientError::Io(e);
                    continue;
                }
                Err(e) => return Err(e),
            }
            let sid = self.session;
            let client = self.client.as_mut().expect("just connected");
            match exchange(sid, client) {
                Ok(out) => return Ok(out),
                Err(e) if e.is_retryable() || matches!(e, ClientError::Desync(_)) => {
                    // Ambiguous or unusable connection: reconnect and let
                    // the session table sort out what was applied.
                    self.client = None;
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Reads `key` with retries (reads are idempotent, so no sequencing
    /// is needed).
    ///
    /// # Errors
    ///
    /// As [`SessionClient::write_batch`].
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, ClientError> {
        self.with_retries(move |_sid, client| client.get(key))
    }
}

/// Rewrites a sequenced request's session id (requests are staged before
/// the first handshake has granted one).
fn stamp_session(req: Request, sid: u64) -> Request {
    match req {
        Request::Incr {
            key, delta, seq, ..
        } => Request::Incr {
            key,
            delta,
            session: sid,
            seq,
        },
        Request::SeqPut {
            key, value, seq, ..
        } => Request::SeqPut {
            key,
            value,
            session: sid,
            seq,
        },
        Request::SeqDelete { key, seq, .. } => Request::SeqDelete {
            key,
            session: sid,
            seq,
        },
        other => other,
    }
}

impl<S: NetStream> std::fmt::Debug for SessionClient<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionClient")
            .field("session", &self.session)
            .field("next_seq", &self.next_seq)
            .field("pending", &self.pending.len())
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_policy_is_bounded() {
        let p = RetryPolicy::quick(1);
        assert!(p.max_attempts >= 2);
        assert!(p.base_delay <= p.max_delay);
        assert!(p.request_timeout.is_some());
    }

    #[test]
    fn stamping_touches_only_sequenced_requests() {
        let stamped = stamp_session(
            Request::Incr {
                key: 1,
                delta: 2,
                session: 0,
                seq: 9,
            },
            41,
        );
        assert_eq!(stamped.sequence(), Some((41, 9)));
        let get = stamp_session(Request::Get { key: 5 }, 41);
        assert_eq!(get, Request::Get { key: 5 });
    }
}
