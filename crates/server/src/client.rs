//! A pipelining client for the KV wire protocol.
//!
//! [`KvClient`] is a thin, blocking wrapper over one stream: requests are
//! framed with [`Request::encode`] and flushed in a single `write_all`,
//! responses are reassembled from the byte stream and correlated by order.
//! The two halves are independent — [`KvClient::send`] and
//! [`KvClient::recv`] can run with any number of requests in flight, which
//! is what the open-loop load generator uses to keep the server's socket
//! buffer full (and its group-commit windows deep). The convenience calls
//! ([`KvClient::get`], [`KvClient::put`], …) are just `send` + `recv` of
//! depth one.
//!
//! The client is generic over [`NetStream`] — normally a plain
//! [`TcpStream`], but the torture harness substitutes a seeded
//! [`crate::FaultyStream`] to exercise partial frames, stalls, and
//! mid-frame disconnects without touching this code.
//!
//! Failures are *typed* ([`ClientError`]) so retry layers can tell a
//! [`ClientError::Timeout`] (server may or may not have applied the batch;
//! replay it under session dedup) from a [`ClientError::Desync`] (the
//! stream is garbage; reconnecting is the only option).
//! [`ClientError::is_retryable`] encodes that split.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{drain_frames, ProtocolError, Request, Response, ServerStats};

/// Why a client call failed, split along the lines a retry layer cares
/// about. See [`ClientError::is_retryable`].
#[derive(Debug)]
pub enum ClientError {
    /// A configured read/write deadline elapsed. The server may or may
    /// not have applied the in-flight batch — safe to replay only under
    /// session dedup.
    Timeout,
    /// The connection is gone (EOF, reset, broken pipe). Same ambiguity
    /// as [`ClientError::Timeout`]; reconnect and replay.
    Disconnected,
    /// The response byte stream failed to parse. The connection is
    /// unusable; only a reconnect recovers.
    Desync(ProtocolError),
    /// The server answered with a response the call did not expect
    /// (protocol misuse or version skew). Not retryable.
    Unexpected(String),
    /// Any other I/O error.
    Io(std::io::Error),
}

impl ClientError {
    /// True when retrying (after reconnect/backoff as appropriate) can
    /// succeed and — for sequenced writes under session dedup — cannot
    /// double-apply.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Timeout | ClientError::Disconnected)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::Disconnected => write!(f, "connection closed"),
            ClientError::Desync(e) => write!(f, "response stream desynced: {e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => ClientError::Timeout,
            ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe => ClientError::Disconnected,
            _ => ClientError::Io(e),
        }
    }
}

/// The stream surface [`KvClient`] needs from its transport: blocking
/// byte I/O plus the socket knobs the client tunes. [`TcpStream`]
/// implements it directly; [`crate::FaultyStream`] wraps one to inject
/// deterministic network faults underneath an unmodified client.
pub trait NetStream: Read + Write + Send + std::fmt::Debug + Sized {
    /// Duplicates the handle so send and receive halves can live on
    /// different threads.
    ///
    /// # Errors
    ///
    /// Any I/O error from duplicating the handle.
    fn try_clone(&self) -> std::io::Result<Self>;

    /// Bounds every blocking read; `None` blocks forever.
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket option.
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()>;

    /// Bounds every blocking write; `None` blocks forever.
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket option.
    fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()>;

    /// Disables (or re-enables) Nagle batching.
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket option.
    fn set_nodelay(&self, on: bool) -> std::io::Result<()>;
}

impl NetStream for TcpStream {
    fn try_clone(&self) -> std::io::Result<Self> {
        TcpStream::try_clone(self)
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }

    fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, dur)
    }

    fn set_nodelay(&self, on: bool) -> std::io::Result<()> {
        TcpStream::set_nodelay(self, on)
    }
}

/// A blocking, pipelining connection to a [`crate::server::KvServer`].
pub struct KvClient<S: NetStream = TcpStream> {
    stream: S,
    /// Bytes received but not yet parsed into whole frames.
    inbox: Vec<u8>,
    /// Scratch buffer for encoding outgoing frames.
    outbox: Vec<u8>,
}

impl KvClient<TcpStream> {
    /// Connects to the server with `TCP_NODELAY` (latency measurements
    /// must not include Nagle batching delays). No read timeout is set —
    /// open-loop load generators legitimately block long on scheduled
    /// pipelines; resilient callers opt in via
    /// [`KvClient::set_read_timeout`].
    ///
    /// # Errors
    ///
    /// Any I/O error from connecting.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<KvClient> {
        KvClient::from_stream(TcpStream::connect(addr)?)
    }
}

impl<S: NetStream> KvClient<S> {
    /// Wraps an already-established stream (sets `TCP_NODELAY`). This is
    /// how fault-injected or otherwise pre-configured transports enter.
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket option.
    pub fn from_stream(stream: S) -> std::io::Result<KvClient<S>> {
        stream.set_nodelay(true)?;
        Ok(KvClient {
            stream,
            inbox: Vec::with_capacity(4096),
            outbox: Vec::with_capacity(4096),
        })
    }

    /// Bounds every blocking receive: once set, a stalled server surfaces
    /// as [`ClientError::Timeout`] instead of hanging forever. `None`
    /// restores unbounded blocking.
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket option.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// Bounds every blocking send, mirroring
    /// [`KvClient::set_read_timeout`].
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket option.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_write_timeout(dur)
    }

    /// Clones the underlying stream so one thread can [`KvClient::send`]
    /// while another [`KvClient::recv`]s — the split the open-loop driver
    /// needs. The halves share the socket but keep independent buffers.
    ///
    /// # Errors
    ///
    /// Any I/O error from duplicating the socket handle.
    pub fn split(&self) -> std::io::Result<KvClient<S>> {
        Ok(KvClient {
            stream: self.stream.try_clone()?,
            inbox: Vec::with_capacity(4096),
            outbox: Vec::with_capacity(4096),
        })
    }

    /// Writes a batch of requests as one contiguous run of frames. The
    /// caller owes a matching [`KvClient::recv`] of the same count.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] / [`ClientError::Disconnected`] /
    /// [`ClientError::Io`] from the socket write.
    pub fn send(&mut self, requests: &[Request]) -> Result<(), ClientError> {
        self.outbox.clear();
        for r in requests {
            r.encode(&mut self.outbox);
        }
        self.stream.write_all(&self.outbox)?;
        Ok(())
    }

    /// Reads exactly `count` responses, in request order, blocking until
    /// they arrive (or the configured read timeout elapses).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when a read deadline elapses;
    /// [`ClientError::Disconnected`] if the server closes mid-stream;
    /// [`ClientError::Desync`] if a frame fails to parse;
    /// [`ClientError::Io`] for anything else.
    pub fn recv(&mut self, count: usize) -> Result<Vec<Response>, ClientError> {
        let mut responses = Vec::with_capacity(count);
        let mut chunk = [0u8; 4096];
        loop {
            drain_frames(&mut self.inbox, count, &mut responses, Response::decode)
                .map_err(ClientError::Desync)?;
            if responses.len() == count {
                return Ok(responses);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => self.inbox.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// One request, one response.
    ///
    /// # Errors
    ///
    /// As [`KvClient::send`] and [`KvClient::recv`].
    pub fn call(&mut self, request: Request) -> Result<Response, ClientError> {
        self.send(std::slice::from_ref(&request))?;
        let mut responses = self.recv(1)?;
        Ok(responses.remove(0))
    }

    /// Performs the session handshake. `session == 0` asks for a fresh
    /// session; nonzero asks to resume one. Returns the server's
    /// `(session, last_seq)` — `session == 0` in the reply means the
    /// resume was refused (unknown or reclaimed session) and the caller
    /// must start over with a fresh session and a full state rebuild.
    ///
    /// # Errors
    ///
    /// As [`KvClient::call`], plus [`ClientError::Unexpected`] on a
    /// non-`Welcome` response.
    pub fn hello(&mut self, session: u64) -> Result<(u64, u64), ClientError> {
        match self.call(Request::Hello { session })? {
            Response::Welcome { session, last_seq } => Ok((session, last_seq)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Reads `key`; `None` if absent.
    ///
    /// # Errors
    ///
    /// As [`KvClient::call`], plus [`ClientError::Unexpected`] on a
    /// mismatched response.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, ClientError> {
        expect_value(self.call(Request::Get { key })?)
    }

    /// Durably writes `key = value`; returns the previous value. When
    /// this returns, the write has passed the server's durability fence.
    ///
    /// # Errors
    ///
    /// As [`KvClient::call`], plus [`ClientError::Unexpected`] on a
    /// mismatched response.
    pub fn put(&mut self, key: u64, value: u64) -> Result<Option<u64>, ClientError> {
        expect_value(self.call(Request::Put { key, value })?)
    }

    /// Durably removes `key`; returns the removed value.
    ///
    /// # Errors
    ///
    /// As [`KvClient::call`], plus [`ClientError::Unexpected`] on a
    /// mismatched response.
    pub fn delete(&mut self, key: u64) -> Result<Option<u64>, ClientError> {
        expect_value(self.call(Request::Delete { key })?)
    }

    /// Scans up to `limit` entries from `key`'s probe position; returns
    /// `(count, value_sum)`.
    ///
    /// # Errors
    ///
    /// As [`KvClient::call`], plus [`ClientError::Unexpected`] on a
    /// mismatched response.
    pub fn scan(&mut self, key: u64, limit: u64) -> Result<(u64, u64), ClientError> {
        match self.call(Request::Scan { key, limit })? {
            Response::Scanned { count, sum } => Ok((count, sum)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Reads the server's live counters and service-latency percentiles.
    ///
    /// # Errors
    ///
    /// As [`KvClient::call`], plus [`ClientError::Unexpected`] on a
    /// mismatched response.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(Request::Stats)? {
            Response::Stats { report } => Ok(report),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Forces a durability fence for everything previously accepted on
    /// this connection.
    ///
    /// # Errors
    ///
    /// As [`KvClient::call`], plus [`ClientError::Unexpected`] on a
    /// mismatched response.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        match self.call(Request::Flush)? {
            Response::Flushed => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

/// The value a `Get`, `Put`, `Delete` or sequenced write replies with.
pub(crate) fn expect_value(resp: Response) -> Result<Option<u64>, ClientError> {
    match resp {
        Response::Found { value } => Ok(Some(value)),
        Response::Missing => Ok(None),
        other => Err(ClientError::Unexpected(format!("{other:?}"))),
    }
}

impl<S: NetStream> std::fmt::Debug for KvClient<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvClient")
            .field("stream", &self.stream)
            .field("buffered", &self.inbox.len())
            .finish()
    }
}
