//! Tracing from outside: a timing decorator around the `&mut dyn TxnOps`
//! handed to transaction bodies, spans kept in memory, and the Chrome-trace
//! export of one sampled window.
//!
//! The engine calls the body, the body calls `TxnOps`; timing those two
//! boundaries from the benchmark's own files splits every `execute` into
//!
//! ```text
//! execute ─┬─ body ─┬─ txnops   (engine + HTM simulation, per read/write)
//!          │        └─ (self)   body code: KV probing, bank arithmetic
//!          └─ (self)            commit path: log, redo, drains, NVM wait
//! ```
//!
//! without a single line added to the program under test.

use std::sync::OnceLock;
use std::time::Instant;

use crafty_common::{PAddr, TxAbort, TxnOps};

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One span of the sampled window: `parent` indexes the span that caused it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// Per-window totals of the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Time generating the window's inputs, before it starts.
    pub gen_ns: u64,
    /// Time between a window's first and last op.
    pub busy_ns: u64,
    /// Time inside `TmThread::execute`.
    pub execute_ns: u64,
    /// Time inside transaction bodies (all invocations, retries included).
    pub body_ns: u64,
    /// Time inside decorated `TxnOps` calls.
    pub txnops_ns: u64,
    pub txnops_calls: u64,
    pub body_runs: u64,
    /// Client-side time writing requests / waiting for and parsing
    /// responses (`serve-pipe` only).
    pub send_ns: u64,
    pub recv_ns: u64,
}

impl LayerTimes {
    pub fn add(&mut self, o: &LayerTimes) {
        self.gen_ns += o.gen_ns;
        self.busy_ns += o.busy_ns;
        self.execute_ns += o.execute_ns;
        self.body_ns += o.body_ns;
        self.txnops_ns += o.txnops_ns;
        self.txnops_calls += o.txnops_calls;
        self.body_runs += o.body_runs;
        self.send_ns += o.send_ns;
        self.recv_ns += o.recv_ns;
    }

    /// Time the spans account for: whichever boundary the workload crosses.
    pub fn attributed_ns(&self) -> u64 {
        self.execute_ns + self.send_ns + self.recv_ns
    }
}

/// Where a traced window records: the totals always, the spans themselves
/// only for the sampled window.
#[derive(Default)]
pub struct TraceSink {
    pub times: LayerTimes,
    pub spans: Option<Vec<Span>>,
}

impl TraceSink {
    /// Opens a span now (sampled windows only) and returns its index.
    pub fn open(&mut self, name: &'static str, start_ns: u64, parent: Option<u32>) -> Option<u32> {
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(spans.len() as u32 - 1)
    }

    pub fn close(&mut self, span: Option<u32>, end_ns: u64) {
        if let (Some(i), Some(spans)) = (span, self.spans.as_mut()) {
            spans[i as usize].end_ns = end_ns;
        }
    }
}

/// The decorator: forwards every call and charges its duration to the sink.
pub struct TimedOps<'a> {
    pub inner: &'a mut dyn TxnOps,
    pub sink: &'a mut TraceSink,
    pub parent: Option<u32>,
}

impl TimedOps<'_> {
    fn timed<R>(&mut self, name: &'static str, call: impl FnOnce(&mut dyn TxnOps) -> R) -> R {
        let t0 = now_ns();
        let r = call(self.inner);
        let t1 = now_ns();
        self.sink.times.txnops_ns += t1 - t0;
        self.sink.times.txnops_calls += 1;
        let span = self.sink.open(name, t0, self.parent);
        self.sink.close(span, t1);
        r
    }
}

impl TxnOps for TimedOps<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.timed("htm.read", |t| t.read(addr))
    }
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.timed("htm.write", |t| t.write(addr, value))
    }
    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        self.timed("core.alloc", |t| t.alloc(words))
    }
    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.timed("core.dealloc", |t| t.dealloc(addr, words))
    }
}

/// Renders spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
/// complete events in µs, with the causing span's index under `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Zero;
    impl TxnOps for Zero {
        fn read(&mut self, _: PAddr) -> Result<u64, TxAbort> {
            Ok(7)
        }
        fn write(&mut self, _: PAddr, _: u64) -> Result<(), TxAbort> {
            Ok(())
        }
        fn alloc(&mut self, _: u64) -> Result<PAddr, TxAbort> {
            Ok(PAddr::new(8))
        }
        fn dealloc(&mut self, _: PAddr, _: u64) -> Result<(), TxAbort> {
            Ok(())
        }
    }

    #[test]
    fn the_decorator_forwards_counts_and_nests_spans() {
        let mut sink = TraceSink {
            spans: Some(Vec::new()),
            ..TraceSink::default()
        };
        let body = sink.open("kv.body", now_ns(), None);
        let mut inner = Zero;
        let mut ops = TimedOps {
            inner: &mut inner,
            sink: &mut sink,
            parent: body,
        };
        assert_eq!(ops.read(PAddr::new(8)), Ok(7));
        ops.write(PAddr::new(8), 1).unwrap();
        sink.close(body, now_ns());
        assert_eq!(sink.times.txnops_calls, 2);
        let spans = sink.spans.as_ref().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let json = chrome_trace_json(spans);
        assert!(crafty_stats::Json::parse(&json).is_ok(), "{json}");
    }
}
