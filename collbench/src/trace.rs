//! Spans recorded from the benchmark's own code around the calls into each
//! layer, kept in memory and written out when the benchmark ends.
//!
//! Every connection is stop-and-wait, so a request is identified by
//! `(connection, sequence number)`: the n-th frame exchange on a
//! connection has sequence n on both the client and the server side
//! (the `Hello` is 0).

use std::io::{Read, Write};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ldp_analytics::transport::Connect;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub conn: u64,
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The span this one is part of: every stream and connect span lies
    /// inside the client request that caused it; request and job spans
    /// are roots.
    pub fn parent(&self) -> &'static str {
        match self.name {
            "client.request" | "pipeline.run" => "",
            _ => "client.request",
        }
    }

    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Nanoseconds since the first call — the common clock of all spans.
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Spans handed in by finished threads and connections.
#[derive(Debug, Clone, Default)]
pub struct Sink(Arc<Mutex<Vec<Span>>>);

impl Sink {
    pub fn push_all(&self, spans: &mut Vec<Span>) {
        self.0.lock().expect("span sink").append(spans);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.lock().expect("span sink"))
    }
}

/// Which end of a connection a [`Traced`] stream wraps.
#[derive(Debug, Clone, Copy)]
pub enum Side {
    Client,
    Server,
}

/// A `Read + Write` wrapper that times and counts every call into the
/// stream it wraps. The sequence number advances whenever the direction
/// of traffic flips back to the requester's direction.
pub struct Traced<S> {
    inner: S,
    side: Side,
    conn: u64,
    seq: u64,
    last_was_reply: bool,
    spans: Vec<Span>,
    sink: Sink,
}

impl<S> Traced<S> {
    pub fn new(inner: S, side: Side, conn: u64, sink: Sink) -> Self {
        Traced {
            inner,
            side,
            conn,
            seq: 0,
            last_was_reply: false,
            spans: Vec::new(),
            sink,
        }
    }

    fn record(&mut self, name: &'static str, request_dir: bool, start_ns: u64) {
        if request_dir && self.last_was_reply {
            self.seq += 1;
        }
        self.last_was_reply = !request_dir;
        self.spans.push(Span {
            name,
            conn: self.conn,
            seq: self.seq,
            start_ns,
            end_ns: now_ns(),
        });
    }
}

impl<S> Drop for Traced<S> {
    fn drop(&mut self) {
        self.sink.push_all(&mut self.spans);
    }
}

impl<S: Read> Read for Traced<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let start = now_ns();
        let n = self.inner.read(buf)?;
        match self.side {
            Side::Client => self.record("client.read", false, start),
            Side::Server => self.record("server.read", true, start),
        }
        Ok(n)
    }
}

impl<S: Write> Write for Traced<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = now_ns();
        let n = self.inner.write(buf)?;
        match self.side {
            Side::Client => self.record("client.write", true, start),
            Side::Server => self.record("server.write", false, start),
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Names a connection from its stream.
pub type ConnId<S> = Box<dyn FnMut(&S) -> u64 + Send>;

/// A connector that times `Connect::connect` and wraps each stream it
/// returns in a client-side [`Traced`]. `id` names the connection; it is
/// read after each connect.
pub struct TracedConnector<C: Connect> {
    pub inner: C,
    pub sink: Sink,
    pub id: ConnId<C::Stream>,
}

impl<C: Connect> Connect for TracedConnector<C>
where
    C::Stream: Read + Write,
{
    type Stream = Traced<C::Stream>;

    fn connect(&mut self) -> ldp_core::Result<Self::Stream> {
        let start = now_ns();
        let stream = self.inner.connect()?;
        let conn = (self.id)(&stream);
        self.sink.push_all(&mut vec![Span {
            name: "net.connect",
            conn,
            seq: 0,
            start_ns: start,
            end_ns: now_ns(),
        }]);
        Ok(Traced::new(stream, Side::Client, conn, self.sink.clone()))
    }
}

/// Writes spans as tab-separated lines (name, parent, connection,
/// sequence, start ns, end ns), at most `limit` of them.
pub fn write_spans(path: &std::path::Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tparent\tconn\tseq\tstart_ns\tend_ns")?;
    for s in spans.iter().take(limit) {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name,
            s.parent(),
            s.conn,
            s.seq,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Per-request view of one traced stop-and-wait exchange.
#[derive(Debug, Default)]
struct Request {
    total_us: Option<f64>,
    /// Time inside timed stream calls that are not waits for the peer:
    /// every write, and every read after the first one of the exchange.
    busy_us: f64,
    client_first_read: bool,
    server_first_read: bool,
}

/// Transport metrics from the spans of a traced socket phase with
/// `submits` submits; `in_process_us` is the per-submit time the frame
/// codec and the service spend, measured in process.
pub fn transport_metrics(
    spans: &[Span],
    submits: u64,
    in_process_us: f64,
) -> Vec<(&'static str, f64)> {
    use std::collections::HashMap;
    let mut reqs: HashMap<(u64, u64), Request> = HashMap::new();
    let mut calls: HashMap<&'static str, u64> = HashMap::new();
    let (mut read_wait, mut write) = (Vec::new(), Vec::new());
    for s in spans {
        *calls.entry(s.name).or_default() += 1;
        let r = reqs.entry((s.conn, s.seq)).or_default();
        match s.name {
            "client.request" => r.total_us = Some(s.dur_us()),
            "client.write" => r.busy_us += s.dur_us(),
            "server.write" => {
                r.busy_us += s.dur_us();
                write.push(s.dur_us());
            }
            "client.read" if !r.client_first_read => r.client_first_read = true,
            "server.read" if !r.server_first_read => {
                r.server_first_read = true;
                read_wait.push(s.dur_us());
            }
            "client.read" | "server.read" => r.busy_us += s.dur_us(),
            _ => {}
        }
    }
    let unattributed: Vec<f64> = reqs
        .values()
        .filter_map(|r| r.total_us.map(|t| t - r.busy_us))
        .collect();
    let per = |name: &str| calls.get(name).copied().unwrap_or(0) as f64 / submits.max(1) as f64;
    vec![
        ("client.read_calls_per_submit", per("client.read")),
        ("client.write_calls_per_submit", per("client.write")),
        ("server.read_calls_per_submit", per("server.read")),
        ("server.write_calls_per_submit", per("server.write")),
        ("server.read_wait_us_p50", crate::sys::median(&read_wait)),
        ("server.write_us_p50", crate::sys::median(&write)),
        (
            "transport.unattributed_us_p50",
            crate::sys::median(&unattributed) - in_process_us,
        ),
        ("trace.spans", spans.len() as f64),
    ]
}

/// Connection set-up metrics from the spans of traced one-shot users:
/// `Connect::connect`, and the `Hello` exchange (first write to the end
/// of the first reply).
pub fn connection_metrics(spans: &[Span]) -> Vec<(&'static str, f64)> {
    use std::collections::HashMap;
    let mut connect = Vec::new();
    let mut hello: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in spans {
        match (s.name, s.seq) {
            ("net.connect", _) => connect.push(s.dur_us()),
            ("client.write", 0) => {
                let e = hello.entry(s.conn).or_insert((s.start_ns, s.end_ns));
                e.0 = e.0.min(s.start_ns);
            }
            ("client.read", 0) => {
                let e = hello.entry(s.conn).or_insert((s.start_ns, s.end_ns));
                e.1 = e.1.max(s.end_ns);
            }
            _ => {}
        }
    }
    let hello_us: Vec<f64> = hello.values().map(|(a, b)| (b - a) as f64 / 1e3).collect();
    vec![
        ("net.connect_us_p50", crate::sys::median(&connect)),
        ("net.hello_us_p50", crate::sys::median(&hello_us)),
        ("trace.spans", spans.len() as f64),
    ]
}
