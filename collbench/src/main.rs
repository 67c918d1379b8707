//! Collector benchmark: end-to-end and per-layer metrics for the LDP
//! collection stack, one workload per run.
//!
//! ```text
//! cargo run --release --manifest-path collbench/Cargo.toml -- \
//!     --workload <collect_batch|ingest_tcp|users_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics (see `README.md`). The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it records the host. A failed correctness check prints
//! `"correct": false` and exits with code 1.

mod churn;
mod collect;
mod data;
mod ingest;
mod layers;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ldp_analytics::transport::ClientStats;

/// Idle time before each run. On a shared 2-vCPU virtual machine,
/// sustained load in the preceding ~15 s slowed the CPU by up to 45 %
/// (CPU time per `users_churn` user: 109 µs after idling, 196 µs right
/// after 8 s of two busy cores), so every run starts from the same rested
/// state instead of inheriting the previous run's.
const REST: Duration = Duration::from_secs(15);

/// Untimed set-ups before the timed ones. Coming out of [`REST`], the
/// CPU needs a few hundred milliseconds of work to reach speed (one run's
/// `ingest_tcp` set-ups fell from 25 ms to 14 ms over their first 0.3 s),
/// so only set-ups that start after this much work are timed.
const WARM_UP: Duration = Duration::from_secs(1);

/// Every end-to-end metric, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_report", "us"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("admitted_frac", "frac"),
];

/// Every per-layer metric, printed by every traced run (0 where the
/// workload does not cross that layer; see `README.md`).
pub const PER_LAYER: [(&str, &str); 46] = [
    ("data.generate_s", "s"),
    ("session.encode_ns_per_user", "ns"),
    ("session.absorb_ns_per_user", "ns"),
    ("session.snapshot_ms", "ms"),
    ("pipeline.blocks", "count"),
    ("pipeline.speedup", "ratio"),
    ("pipeline.overhead_frac", "frac"),
    ("frame.bytes_per_submit", "B"),
    ("frame.encode_ns_per_submit", "ns"),
    ("frame.decode_ns_per_submit", "ns"),
    ("service.handle_ns_per_submit", "ns"),
    ("ledger.admit_ns", "ns"),
    ("service.admitted", "count"),
    ("service.rejected_duplicates", "count"),
    ("service.rejected_malformed", "count"),
    ("client.read_calls_per_submit", "count"),
    ("client.write_calls_per_submit", "count"),
    ("server.read_calls_per_submit", "count"),
    ("server.write_calls_per_submit", "count"),
    ("server.read_wait_us_p50", "us"),
    ("server.write_us_p50", "us"),
    ("transport.unattributed_us_p50", "us"),
    ("transport.shed", "count"),
    ("transport.faulted_connections", "count"),
    ("transport.corrupt_frames", "count"),
    ("client.overload_pauses", "count"),
    ("client.faults", "count"),
    ("client.duplicate_acks", "count"),
    ("net.connect_us_p50", "us"),
    ("net.hello_us_p50", "us"),
    ("net.maps_per_conn", "count"),
    ("net.rss_kb_per_conn", "kB"),
    ("net.finish_s", "s"),
    ("durable.handle_us_p50", "us"),
    ("durable.handle_us_p99", "us"),
    ("durable.wal_records", "count"),
    ("durable.wal_bytes_per_report", "B"),
    ("durable.checkpoint_ms", "ms"),
    ("recovery.replay_reports_per_s", "1/s"),
    ("recovery.wal_replayed", "count"),
    ("proc.syscr_per_report", "count"),
    ("proc.syscw_per_report", "count"),
    ("proc.disk_write_bytes_per_report", "B"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

/// How a run was asked to measure.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Generator threads and client connections (`available_parallelism`).
    pub workers: usize,
    /// Scratch directory inside the benchmark's own tree.
    pub out_dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra figures printed with the host record: sample counts and the
    /// latency distribution behind the reported median.
    pub detail: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn put_all(&mut self, metrics: &[(&'static str, f64)]) {
        for &(name, value) in metrics {
            self.put(name, value);
        }
    }

    /// The median latency of every sample of the run; the tail goes to
    /// `detail`. Tails are not gated: on a shared 2-vCPU virtual machine,
    /// p99 of every socket workload spread more between runs than the
    /// largest bound a metric may have.
    pub fn put_latency(&mut self, samples_us: &[f64]) {
        self.put("latency_p50_us", sys::median(samples_us));
        self.detail
            .insert("latency_samples", samples_us.len() as f64);
        for (name, q) in [
            ("latency_p90_us", 0.9),
            ("latency_p95_us", 0.95),
            ("latency_p99_us", 0.99),
            ("latency_p999_us", 0.999),
        ] {
            self.detail.insert(name, sys::quantile(samples_us, q));
        }
    }

    /// Process I/O counters over `reports` processed.
    pub fn put_io(&mut self, io: sys::Io, reports: u64) {
        let per = |v: f64| v / reports.max(1) as f64;
        self.put("proc.syscr_per_report", per(io.syscr));
        self.put("proc.syscw_per_report", per(io.syscw));
        self.put("proc.disk_write_bytes_per_report", per(io.write_bytes));
    }
}

/// Adds one client's transport counters to a total.
pub fn add_client_stats(total: &mut ClientStats, s: ClientStats) {
    total.connects += s.connects;
    total.resends += s.resends;
    total.duplicate_acks += s.duplicate_acks;
    total.overload_pauses += s.overload_pauses;
    total.faults += s.faults;
}

/// Runs `build` untimed until [`WARM_UP`] has passed (at least once),
/// then `reps` more times timed, and returns the last set-up; every other
/// one goes to `discard`. The host switches between speed states lasting
/// a tenth of a second to a few seconds (one run's `ingest_tcp` set-ups
/// took 11 ms in one and 15 to 17 ms in another; one process generating
/// 1M users six times took 1.2 to 1.8 s per time), so each workload times
/// about 3 s or more of set-ups and reports their median. `build` gets the set-up's index and returns what
/// it built with its dataset generation time. Records the median set-up
/// wall time as `setup_s` and the median generation time as
/// `data.generate_s`.
pub fn set_up<T>(
    out: &mut Outcome,
    reps: usize,
    mut build: impl FnMut(usize) -> (T, f64),
    mut discard: impl FnMut(T),
) -> T {
    let warm = Instant::now();
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    let mut rep = 0;
    while setup_s.len() < reps {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let timed = warm.elapsed() >= WARM_UP;
        let t = Instant::now();
        let (built, gen) = build(rep);
        if timed {
            setup_s.push(t.elapsed().as_secs_f64());
            generate_s.push(gen);
        }
        kept = Some(built);
        rep += 1;
    }
    out.put("setup_s", sys::median(&setup_s));
    out.put("data.generate_s", sys::median(&generate_s));
    kept.expect("at least one set-up")
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        workers: std::thread::available_parallelism().map_or(1, |p| p.get()),
        out_dir: out_dir(),
    })
}

/// `collbench/out`, relative to the working directory when it lies below
/// it (Unix socket paths are limited to about 100 bytes).
fn out_dir() -> PathBuf {
    let abs = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| abs.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(abs)
}

fn json_number(v: f64) -> String {
    // A failed operation counts as missing every latency limit; it is
    // printed as 10^9 (µs: over 16 minutes) to keep the JSON valid.
    if v.is_finite() {
        format!("{v}")
    } else {
        "1000000000".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("collbench: {e}");
            eprintln!(
                "usage: collbench --workload <collect_batch|ingest_tcp|users_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("collbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let workload: fn(&Args) -> Outcome = match args.workload.as_str() {
        "collect_batch" => collect::workload,
        "ingest_tcp" => ingest::workload,
        "users_churn" => churn::workload,
        other => {
            eprintln!("collbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    std::thread::sleep(REST);
    let mut out = workload(&args);
    out.metrics
        .entry("peak_rss_mb")
        .or_insert_with(sys::peak_rss_mb);

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        // Layers a workload does not cross report 0.
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for e in &out.errors {
        eprintln!("collbench: check failed: {e}");
    }
    let correct = out.errors.is_empty();
    let detail: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    println!(
        "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"detail\": {{{}}}}}",
        sys::host_json(args.workers, &args.out_dir),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        detail.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
