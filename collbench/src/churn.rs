//! `users_churn`: an open loop of independent users at a fixed arrival
//! rate. Each user opens its own Unix-domain connection to a
//! `UnixReportServer`, sends `Hello` and one `Submit`, and closes.

use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use ldp_analytics::transport::net::unix::{UnixConnector, UnixReportServer};
use ldp_analytics::transport::{
    ClientConfig, ClientStats, Connect, NetConfig, ReportClient, ServerConfig, SubmitOutcome,
};

use crate::data::{self, same_bits, Prepared};
use crate::trace::{connection_metrics, write_spans, Sink, TracedConnector};
use crate::{layers, set_up, sys, Args, Outcome};

/// Users arriving per second: about half the closed-loop capacity of
/// one-report connections on a 2-core host.
pub const RATE_PER_S: f64 = 4_000.0;

/// One user's fate.
struct User {
    late_us: f64,
    latency_us: f64,
    admitted: bool,
    traced: bool,
}

/// What one churn run measured.
#[derive(Debug, Default)]
pub struct Churn {
    pub users: u64,
    pub admitted: u64,
    pub elapsed_s: f64,
    /// Due-to-done latency of every untraced user.
    pub user_us: Vec<f64>,
    pub traced_user_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub maps_per_conn: f64,
    pub rss_kb_per_conn: f64,
    pub finish_s: f64,
    pub faulted_connections: u64,
    pub corrupt_frames: u64,
    pub client: ClientStats,
    pub rejected_duplicates: u64,
    pub rejected_malformed: u64,
    pub errors: Vec<String>,
}

/// Runs the open loop with `threads` generator threads. With `trace`,
/// every other user of each thread connects through a traced connector
/// feeding `sink`, so traced and untraced users share the same moments of
/// the run (and the same number of connections left behind so far).
pub fn run(
    prepared: &Prepared,
    server: UnixReportServer,
    threads: usize,
    trace: bool,
    sink: &Sink,
) -> Churn {
    let path = server.path().to_path_buf();
    let maps0 = sys::maps();
    let rss0 = sys::rss_kb();
    let start = Instant::now();
    let mut client = ClientStats::default();
    let users: Vec<User> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let path = &path;
                s.spawn(move || generator(prepared, path, t, threads, start, trace, sink))
            })
            .collect();
        let mut users = Vec::new();
        for h in handles {
            let (mine, stats) = h.join().expect("generator thread panicked");
            users.extend(mine);
            crate::add_client_stats(&mut client, stats);
        }
        users
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let (maps1, rss1) = (sys::maps(), sys::rss_kb());
    let t = Instant::now();
    let (service, summaries) = server.finish();
    let finish_s = t.elapsed().as_secs_f64();

    let connections = summaries.len() as u64;
    let mut churn = Churn {
        users: users.len() as u64,
        admitted: users.iter().filter(|u| u.admitted).count() as u64,
        elapsed_s,
        maps_per_conn: (maps1 - maps0) / connections.max(1) as f64,
        rss_kb_per_conn: (rss1 - rss0) / connections.max(1) as f64,
        finish_s,
        faulted_connections: summaries.iter().filter(|c| c.fault.is_some()).count() as u64,
        corrupt_frames: summaries.iter().map(|c| c.corrupt_frames).sum(),
        client,
        ..Churn::default()
    };
    for u in &users {
        let latency = if u.admitted {
            u.latency_us
        } else {
            f64::INFINITY
        };
        if u.traced {
            churn.traced_user_us.push(latency);
        } else {
            churn.user_us.push(latency);
        }
        churn.late_us.push(u.late_us);
    }
    match service.snapshot_epoch(0) {
        Ok(snap) => {
            churn.rejected_duplicates = snap.rejected_duplicates;
            churn.rejected_malformed = snap.rejected_malformed;
            if snap.admitted != churn.admitted {
                churn.errors.push(format!(
                    "service admitted {} users, {} users got Admitted",
                    snap.admitted, churn.admitted
                ));
            }
            // Each generator thread sends whole blocks in order, one
            // acknowledged user at a time, so a complete run reproduces
            // `Collector::run` bit for bit.
            let same = snap
                .result
                .as_ref()
                .is_some_and(|r| same_bits(r, &prepared.reference));
            if churn.admitted == prepared.n as u64 && !same {
                churn
                    .errors
                    .push("estimates differ from Collector::run".into());
            }
        }
        Err(e) => churn.errors.push(format!("snapshot failed: {e}")),
    }
    churn
}

fn generator(
    prepared: &Prepared,
    path: &Path,
    t: usize,
    threads: usize,
    start: Instant,
    trace: bool,
    sink: &Sink,
) -> (Vec<User>, ClientStats) {
    let mine: Vec<(u64, u64, &Vec<u8>)> = prepared
        .share(t, threads)
        .flat_map(|b| b.users.iter().map(move |(u, r)| (b.ordinal, *u, r)))
        .collect();
    let mut out = Vec::with_capacity(mine.len());
    let mut stats = ClientStats::default();
    for (k, (ordinal, user, report)) in mine.into_iter().enumerate() {
        let due_s = (k * threads + t) as f64 / RATE_PER_S;
        let due = start + Duration::from_secs_f64(due_s);
        let now = Instant::now();
        if now < due {
            thread::sleep(due - now);
        }
        let late_us = due.elapsed().as_secs_f64() * 1e6;
        let traced = trace && k % 2 == 1;
        let connector = UnixConnector::new(path);
        let (outcome, user_stats) = if traced {
            let id = user;
            one_user(
                TracedConnector {
                    inner: connector,
                    sink: sink.clone(),
                    id: Box::new(move |_| id),
                },
                prepared,
                user,
                ordinal,
                report,
            )
        } else {
            one_user(connector, prepared, user, ordinal, report)
        };
        crate::add_client_stats(&mut stats, user_stats);
        out.push(User {
            late_us,
            latency_us: due.elapsed().as_secs_f64() * 1e6,
            admitted: matches!(outcome, Ok(SubmitOutcome::Admitted)),
            traced,
        });
    }
    (out, stats)
}

/// Connect, `Hello`, one `Submit`, close.
fn one_user<C: Connect>(
    connector: C,
    prepared: &Prepared,
    user: u64,
    ordinal: u64,
    report: &[u8],
) -> (ldp_core::Result<SubmitOutcome>, ClientStats) {
    let mut client = ReportClient::new(connector, prepared.hello.clone(), ClientConfig::default())
        .expect("hello is a Hello");
    let outcome = client.submit(user, 0, ordinal, report.to_vec());
    client.close();
    (outcome, client.stats())
}

/// Set-ups timed per run (about 3 s of them; see [`set_up`]).
const SETUP_REPS: usize = 70;

pub fn workload(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = data::run_seed(args.seed);
    let users = (RATE_PER_S * args.seconds).round() as usize;
    let socket = |rep: usize| {
        args.out_dir
            .join(format!("churn-{}-{rep}.sock", std::process::id()))
    };
    let (dataset, blocks, server) = set_up(
        &mut out,
        SETUP_REPS,
        |rep| {
            let (dataset, gen) = data::generate(users, args.seed);
            let blocks = data::encode(&dataset, seed).expect("reports encode");
            let server =
                UnixReportServer::bind(socket(rep), ServerConfig::default(), NetConfig::default())
                    .expect("server binds");
            ((dataset, blocks, server), gen)
        },
        |(_, _, server)| drop(server.finish()),
    );
    let prepared = Prepared::new(&dataset, blocks, seed, args.workers).expect("reference runs");

    let sink = Sink::default();
    let (cpu0, io0) = (sys::cpu_us(), sys::Io::now());
    let churn = run(&prepared, server, args.workers, args.trace, &sink);
    let (cpu, io) = (sys::cpu_us() - cpu0, sys::Io::now().since(io0));
    out.attempted = churn.users;
    out.failed = churn.users - churn.admitted;
    out.errors.extend(churn.errors.iter().cloned());
    out.put("throughput_per_s", churn.admitted as f64 / churn.elapsed_s);
    out.put_latency(&churn.user_us);
    out.put("cpu_us_per_report", cpu / churn.admitted.max(1) as f64);
    out.put(
        "admitted_frac",
        churn.admitted as f64 / churn.users.max(1) as f64,
    );
    out.put_io(io, churn.admitted);
    if !args.trace {
        return out;
    }

    let spans = sink.take();
    let layers = layers::measure(
        &dataset,
        &prepared,
        seed,
        &args
            .out_dir
            .join(format!("wal-{}-probe", std::process::id())),
    );
    out.errors.extend(layers.errors.iter().cloned());
    out.put_all(&layers.metrics);
    out.put_all(&connection_metrics(&spans));
    out.put_all(&[
        ("pipeline.blocks", prepared.blocks.len() as f64),
        ("service.admitted", churn.admitted as f64),
        (
            "service.rejected_duplicates",
            churn.rejected_duplicates as f64,
        ),
        (
            "service.rejected_malformed",
            churn.rejected_malformed as f64,
        ),
        (
            "transport.faulted_connections",
            churn.faulted_connections as f64,
        ),
        ("transport.corrupt_frames", churn.corrupt_frames as f64),
        (
            "client.overload_pauses",
            churn.client.overload_pauses as f64,
        ),
        ("client.faults", churn.client.faults as f64),
        ("client.duplicate_acks", churn.client.duplicate_acks as f64),
        ("net.maps_per_conn", churn.maps_per_conn),
        ("net.rss_kb_per_conn", churn.rss_kb_per_conn),
        ("net.finish_s", churn.finish_s),
        ("loadgen.late_p99_us", sys::quantile(&churn.late_us, 0.99)),
        (
            "trace.overhead_frac",
            sys::median(&churn.traced_user_us) / sys::median(&churn.user_us) - 1.0,
        ),
    ]);
    let _ = write_spans(&args.out_dir.join("spans-users_churn.tsv"), &spans, 200_000);
    out
}
