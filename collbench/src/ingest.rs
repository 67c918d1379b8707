//! `ingest_tcp`: a closed loop of persistent `ReportClient`s on loopback
//! TCP, each submitting whole canonical blocks of pre-encoded reports back
//! to back, epoch after epoch.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ldp_analytics::service::ReportService;
use ldp_analytics::transport::{
    ClientConfig, ClientStats, ConnHandle, Connect, NetConfig, ReportClient, ReportServer,
    ServerConfig, SubmitOutcome, TcpConnector, TcpReportServer, TransportStats,
};

use crate::data::{self, same_bits, Prepared, EPOCH_USERS};
use crate::trace::{
    now_ns, transport_metrics, write_spans, Side, Sink, Span, Traced, TracedConnector,
};
use crate::{layers, set_up, sys, Args, Outcome};

const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Epochs served before `peak_rss_mb` is read.
const RSS_EPOCHS: u64 = 3;

/// Acks one client can see per second, with a wide margin (loopback TCP
/// without a WAL serves about 25,000 per client on a 2-core host).
const ACKS_PER_S_CAP: f64 = 250_000.0;

/// A running server and what it takes to stop it.
pub enum Server {
    Tcp(TcpReportServer),
    Own(OwnServer),
}

/// `ReportServer` behind the benchmark's own TCP accept loop, which calls
/// `ConnHandle::serve_stream` on one thread per connection (optionally
/// through a server-side [`Traced`] wrapper).
pub struct OwnServer {
    server: ReportServer,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl Server {
    /// `TcpReportServer` on a loopback port.
    pub fn tcp() -> ldp_core::Result<Server> {
        TcpReportServer::bind("127.0.0.1:0", ServerConfig::default(), NetConfig::default())
            .map(Server::Tcp)
    }

    /// `ReportServer::start` behind the benchmark's accept loop, with the
    /// server side of every connection traced into `sink` when given.
    pub fn own(sink: Option<Sink>) -> Server {
        let server = ReportServer::start(ServerConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let stop = Arc::new(AtomicBool::new(false));
        let accept = accept_loop(listener, server.handle(), Arc::clone(&stop), sink);
        Server::Own(OwnServer {
            server,
            addr,
            stop,
            accept,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Server::Tcp(s) => s.local_addr(),
            Server::Own(s) => s.addr,
        }
    }

    pub fn stats(&self) -> Arc<TransportStats> {
        match self {
            Server::Tcp(s) => s.stats(),
            Server::Own(s) => s.server.stats(),
        }
    }

    /// Stops accepting, joins every connection and drains the absorber.
    pub fn finish(self) -> ReportService {
        match self {
            Server::Tcp(s) => s.finish().0,
            Server::Own(s) => {
                s.stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(s.addr);
                s.accept.join().expect("accept loop panicked");
                s.server.finish()
            }
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    handle: ConnHandle,
    stop: Arc<AtomicBool>,
    sink: Option<Sink>,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let mut conns = Vec::new();
        loop {
            let accepted = listener.accept();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok((stream, peer)) = accepted else {
                continue;
            };
            // The same socket options `TcpReportServer` sets.
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let conn = handle.clone();
            let sink = sink.clone();
            conns.push(thread::spawn(move || match sink {
                Some(sink) => conn.serve_stream(&mut Traced::new(
                    stream,
                    Side::Server,
                    u64::from(peer.port()),
                    sink,
                )),
                None => conn.serve_stream(&mut { stream }),
            }));
        }
        drop(handle);
        for c in conns {
            c.join().expect("connection thread panicked");
        }
    })
}

/// What one closed-loop phase did.
#[derive(Debug, Default)]
pub struct Phase {
    pub sent: u64,
    pub admitted: u64,
    pub epochs: u64,
    pub ack_us: Vec<f64>,
    /// Wall time of each epoch: its submits, then the flush.
    pub epoch_s: Vec<f64>,
    /// Peak RSS once [`RSS_EPOCHS`] epochs are flushed (or at the end of
    /// a shorter run): a fixed amount of served work, so the figure does
    /// not grow with throughput through the ledger and the sample buffers.
    pub peak_rss_mb: f64,
    pub client: ClientStats,
    pub shed: u64,
    pub faulted_connections: u64,
    pub corrupt_frames: u64,
    pub rejected_duplicates: u64,
    pub rejected_malformed: u64,
    /// Every check this phase made, with what failed.
    pub errors: Vec<String>,
}

/// Reports per second of the median epoch: an epoch in which the shared
/// host stalled a client moves one sample, not the result.
fn throughput(epoch_users: usize, epoch_s: &[f64]) -> f64 {
    epoch_users as f64 / sys::median(epoch_s)
}

/// Runs the closed loop against `server` for at least `seconds`, then
/// stops it and checks the collected state against the reference.
pub fn run_phase(
    prepared: &Prepared,
    server: Server,
    clients: usize,
    seconds: f64,
    sink: Option<&Sink>,
) -> Phase {
    let addr = server.addr();
    let stats = server.stats();
    let mut phase = drive(prepared, addr, clients, seconds, sink);
    phase.shed = stats.shed();
    phase.faulted_connections = stats.faulted_connections();
    phase.corrupt_frames = stats.corrupt_frames();
    check_service(&server.finish(), prepared, &mut phase);
    phase
}

/// Every epoch holds exactly the reports sent, bit-identical to
/// `Collector::run` on the same seed.
fn check_service(service: &ReportService, prepared: &Prepared, phase: &mut Phase) {
    let mut admitted = 0;
    for epoch in 0..phase.epochs {
        match service.snapshot_epoch(epoch) {
            Ok(snap) => {
                admitted += snap.admitted;
                phase.rejected_duplicates += snap.rejected_duplicates;
                phase.rejected_malformed = snap.rejected_malformed;
                let same = snap
                    .result
                    .as_ref()
                    .is_some_and(|r| same_bits(r, &prepared.reference));
                if snap.admitted != prepared.n as u64 || !same {
                    phase.errors.push(format!(
                        "epoch {epoch}: admitted {} of {}, estimates bit-identical: {same}",
                        snap.admitted, prepared.n
                    ));
                }
            }
            Err(e) => phase
                .errors
                .push(format!("epoch {epoch}: snapshot failed: {e}")),
        }
    }
    if admitted != phase.admitted || admitted != phase.sent {
        phase.errors.push(format!(
            "service admitted {admitted}, clients saw {} Admitted of {} sent",
            phase.admitted, phase.sent
        ));
    }
}

fn connector(addr: SocketAddr) -> TcpConnector {
    TcpConnector::new(addr, IO_TIMEOUT)
}

fn drive(
    prepared: &Prepared,
    addr: SocketAddr,
    clients: usize,
    seconds: f64,
    sink: Option<&Sink>,
) -> Phase {
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let per_client: Vec<Phase> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || match sink {
                    None => client_loop(
                        prepared,
                        connector(addr),
                        c,
                        clients,
                        seconds,
                        start,
                        barrier,
                        stop,
                        None,
                    ),
                    Some(sink) => {
                        let conn_id = Arc::new(AtomicU64::new(0));
                        let id = Arc::clone(&conn_id);
                        let traced = TracedConnector {
                            inner: connector(addr),
                            sink: sink.clone(),
                            id: Box::new(move |s: &TcpStream| {
                                let port = s.local_addr().map_or(0, |a| u64::from(a.port()));
                                id.store(port, Ordering::Relaxed);
                                port
                            }),
                        };
                        client_loop(
                            prepared,
                            traced,
                            c,
                            clients,
                            seconds,
                            start,
                            barrier,
                            stop,
                            Some((sink, &conn_id)),
                        )
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        peak_rss_mb: sys::peak_rss_mb(),
        ack_us: Vec::with_capacity(per_client.iter().map(|p| p.ack_us.len()).sum()),
        ..Phase::default()
    };
    for p in per_client {
        phase.sent += p.sent;
        phase.admitted += p.admitted;
        phase.epochs = phase.epochs.max(p.epochs);
        phase.ack_us.extend(p.ack_us);
        phase.epoch_s.extend(p.epoch_s);
        if p.peak_rss_mb > 0.0 {
            phase.peak_rss_mb = p.peak_rss_mb;
        }
        phase.errors.extend(p.errors);
        crate::add_client_stats(&mut phase.client, p.client);
    }
    phase
}

#[allow(clippy::too_many_arguments)]
fn client_loop<C: Connect>(
    prepared: &Prepared,
    connector: C,
    c: usize,
    clients: usize,
    seconds: f64,
    start: Instant,
    barrier: &Barrier,
    stop: &AtomicBool,
    trace: Option<(&Sink, &AtomicU64)>,
) -> Phase {
    let mut client = ReportClient::new(connector, prepared.hello.clone(), ClientConfig::default())
        .expect("hello is a Hello");
    // Reserved up front (untouched pages cost no RSS) so the buffer never
    // doubles: peak RSS then grows smoothly with the samples taken.
    let mut phase = Phase {
        ack_us: Vec::with_capacity((seconds * ACKS_PER_S_CAP) as usize),
        ..Phase::default()
    };
    let mut spans: Vec<Span> = Vec::new();
    let mut seq = 0u64;
    let mut epoch = 0u64;
    loop {
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let epoch_start = Instant::now();
        for block in prepared.share(c, clients) {
            for (user, report) in &block.users {
                seq += 1;
                let t0 = now_ns();
                let outcome = client.submit(*user, epoch, block.ordinal, report.clone());
                let t1 = now_ns();
                phase.sent += 1;
                phase.ack_us.push((t1 - t0) as f64 / 1e3);
                match outcome {
                    Ok(SubmitOutcome::Admitted) => phase.admitted += 1,
                    Ok(other) => phase
                        .errors
                        .push(format!("user {user} epoch {epoch}: {other:?}")),
                    Err(e) => phase.errors.push(format!("user {user} epoch {epoch}: {e}")),
                }
                if let Some((_, conn)) = trace {
                    spans.push(Span {
                        name: "client.request",
                        conn: conn.load(Ordering::Relaxed),
                        seq,
                        start_ns: t0,
                        end_ns: t1,
                    });
                }
            }
        }
        barrier.wait();
        if c == 0 {
            seq += 1;
            match client.flush_epoch(epoch) {
                Ok(receipt) if receipt.admitted == prepared.n as u64 => {}
                other => phase
                    .errors
                    .push(format!("flush of epoch {epoch}: {other:?}")),
            }
            phase.epoch_s.push(epoch_start.elapsed().as_secs_f64());
            if epoch + 1 == RSS_EPOCHS {
                phase.peak_rss_mb = sys::peak_rss_mb();
            }
            if start.elapsed().as_secs_f64() >= seconds {
                stop.store(true, Ordering::SeqCst);
            }
        }
        epoch += 1;
    }
    client.close();
    phase.client = client.stats();
    phase.epochs = epoch;
    if let Some((sink, _)) = trace {
        sink.push_all(&mut spans);
    }
    phase
}

/// Set-ups timed per run (about 3 s of them; see [`set_up`]).
const SETUP_REPS: usize = 250;

pub fn workload(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = data::run_seed(args.seed);
    // Set-up: generate, pre-encode, start the server. A traced run serves
    // its untraced phases through the benchmark's accept loop, the path
    // its traced phases take, so the two differ only by the tracing.
    let (dataset, blocks, server) = set_up(
        &mut out,
        SETUP_REPS,
        |_| {
            let (dataset, gen) = data::generate(EPOCH_USERS, args.seed);
            let blocks = data::encode(&dataset, seed).expect("reports encode");
            let server = if args.trace {
                Server::own(None)
            } else {
                Server::tcp().expect("server starts")
            };
            ((dataset, blocks, server), gen)
        },
        |(_, _, server)| drop(server.finish()),
    );
    let prepared = Prepared::new(&dataset, blocks, seed, args.workers).expect("reference runs");

    // A traced run alternates untraced and traced phases of a quarter of
    // the time each, so both sample the same stretch of the run.
    let part_s = if args.trace {
        args.seconds / 4.0
    } else {
        args.seconds
    };
    let (cpu0, io0) = (sys::cpu_us(), sys::Io::now());
    let phase = run_phase(&prepared, server, args.workers, part_s, None);
    let (cpu, io) = (sys::cpu_us() - cpu0, sys::Io::now().since(io0));
    out.attempted = phase.sent;
    out.failed = phase.sent - phase.admitted;
    out.errors.extend(phase.errors.iter().cloned());
    out.put("throughput_per_s", throughput(prepared.n, &phase.epoch_s));
    out.put_latency(&phase.ack_us);
    out.put("cpu_us_per_report", cpu / phase.admitted.max(1) as f64);
    out.put(
        "admitted_frac",
        phase.admitted as f64 / phase.sent.max(1) as f64,
    );
    out.put("peak_rss_mb", phase.peak_rss_mb);
    out.put_io(io, phase.admitted);
    if !args.trace {
        return out;
    }

    // Per-layer: the same closed loop through timed stream wrappers on
    // both ends (traced, untraced, traced after the first untraced phase),
    // then the in-process layer probes.
    let sink = Sink::default();
    let (mut untraced_epoch_s, mut traced_epoch_s) = (phase.epoch_s.clone(), Vec::new());
    let mut traced_sent = 0;
    for round in 0..2 {
        if round > 0 {
            let untraced = run_phase(&prepared, Server::own(None), args.workers, part_s, None);
            out.errors.extend(untraced.errors);
            untraced_epoch_s.extend(untraced.epoch_s);
        }
        let traced = run_phase(
            &prepared,
            Server::own(Some(sink.clone())),
            args.workers,
            part_s,
            Some(&sink),
        );
        out.errors.extend(traced.errors);
        traced_sent += traced.sent;
        traced_epoch_s.extend(traced.epoch_s);
    }
    let spans = sink.take();
    let wal_dir = args
        .out_dir
        .join(format!("wal-{}-probe", std::process::id()));
    let layers = layers::measure(&dataset, &prepared, seed, &wal_dir);
    out.errors.extend(layers.errors.iter().cloned());
    out.put_all(&layers.metrics);
    out.put_all(&transport_metrics(
        &spans,
        traced_sent,
        (layers.frame_ns + layers.handle_ns) / 1e3,
    ));
    out.put_all(&[
        ("pipeline.blocks", prepared.blocks.len() as f64),
        ("service.admitted", phase.admitted as f64),
        (
            "service.rejected_duplicates",
            phase.rejected_duplicates as f64,
        ),
        (
            "service.rejected_malformed",
            phase.rejected_malformed as f64,
        ),
        ("transport.shed", phase.shed as f64),
        (
            "transport.faulted_connections",
            phase.faulted_connections as f64,
        ),
        ("transport.corrupt_frames", phase.corrupt_frames as f64),
        (
            "client.overload_pauses",
            phase.client.overload_pauses as f64,
        ),
        ("client.faults", phase.client.faults as f64),
        ("client.duplicate_acks", phase.client.duplicate_acks as f64),
        (
            "trace.overhead_frac",
            1.0 - throughput(prepared.n, &traced_epoch_s)
                / throughput(prepared.n, &untraced_epoch_s),
        ),
    ]);
    let _ = write_spans(
        &args.out_dir.join(format!("spans-{}.tsv", args.workload)),
        &spans,
        200_000,
    );
    out
}
