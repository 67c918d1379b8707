//! `collect_batch`: in-process `Collector::run` over a million census users
//! with one worker per core, as a batch job.

use std::time::Instant;

use ldp_analytics::{block_partition, CollectionResult, Collector};

use crate::data::{self, same_bits, Prepared, EPOCH_USERS, SHARDS};
use crate::trace::{now_ns, write_spans, Span};
use crate::{layers, set_up, sys, Args, Outcome};

/// Users per batch job.
pub const USERS: usize = 1_000_000;

/// Set-ups timed per run (each generates the whole dataset: about 10 s of
/// them; see [`set_up`]).
const SETUP_REPS: usize = 7;

fn job(collector: &Collector, dataset: &ldp_data::Dataset, seed: u64) -> (CollectionResult, f64) {
    let t = Instant::now();
    let result = collector
        .run(dataset, seed)
        .expect("census collection succeeds");
    (result, t.elapsed().as_secs_f64())
}

pub fn workload(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = data::run_seed(args.seed);
    let collector = |workers: usize| {
        Collector::new(data::protocol(), data::epsilon()).with_worker_threads(workers)
    };

    let dataset = set_up(
        &mut out,
        SETUP_REPS,
        |_| data::generate(USERS, args.seed),
        drop,
    );

    // Untraced: back-to-back jobs at `workers` workers.
    let parallel = collector(args.workers);
    let (cpu0, io0) = (sys::cpu_us(), sys::Io::now());
    let (reference, first_s) = job(&parallel, &dataset, seed);
    let mut job_s = vec![first_s];
    // A traced run measures untraced for its first half only.
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < untraced_s {
        let (result, s) = job(&parallel, &dataset, seed);
        if !same_bits(&result, &reference) {
            out.errors
                .push("a repeated job changed the estimates".into());
        }
        job_s.push(s);
    }
    let (cpu, io) = (sys::cpu_us() - cpu0, sys::Io::now().since(io0));
    let users = (USERS * job_s.len()) as u64;
    out.attempted = users;
    let job_us: Vec<f64> = job_s.iter().map(|s| s * 1e6).collect();
    out.put("throughput_per_s", USERS as f64 / sys::median(&job_s));
    out.put_latency(&job_us);
    out.put("cpu_us_per_report", cpu / users as f64);
    out.put("admitted_frac", 1.0);
    out.put_io(io, users);
    out.put(
        "pipeline.blocks",
        block_partition(USERS, SHARDS).len() as f64,
    );

    // The worker count must not move a bit.
    let (single, single_s) = job(&collector(1), &dataset, seed);
    if !same_bits(&single, &reference) {
        out.errors
            .push(format!("1 worker and {} workers disagree", args.workers));
    }
    if args.trace {
        traced(args, &dataset, seed, &reference, single_s, &mut out);
    }
    out
}

/// Rotates a traced 1-worker job, a traced `workers`-worker job and an
/// untraced `workers`-worker job (one span per traced job), so the traced
/// and untraced jobs the overhead compares run under the same load; then
/// probes the layers in process.
fn traced(
    args: &Args,
    dataset: &ldp_data::Dataset,
    seed: u64,
    reference: &CollectionResult,
    single_s: f64,
    out: &mut Outcome,
) {
    let mut spans = Vec::new();
    let (mut one, mut many, mut plain) = (vec![single_s], Vec::new(), Vec::new());
    let start = Instant::now();
    let mut seq = 0;
    let collector = |workers: usize| {
        Collector::new(data::protocol(), data::epsilon()).with_worker_threads(workers)
    };
    while start.elapsed().as_secs_f64() < args.seconds / 2.0 || plain.is_empty() {
        for workers in [1, args.workers] {
            let t0 = now_ns();
            let result = collector(workers)
                .run(dataset, seed)
                .expect("census collection succeeds");
            let span = Span {
                name: "pipeline.run",
                conn: workers as u64,
                seq,
                start_ns: t0,
                end_ns: now_ns(),
            };
            if !same_bits(&result, reference) {
                out.errors
                    .push(format!("traced job at {workers} workers disagrees"));
            }
            let s = span.dur_us() / 1e6;
            if workers == 1 {
                one.push(s)
            } else {
                many.push(s)
            }
            spans.push(span);
            seq += 1;
        }
        let (result, s) = job(&collector(args.workers), dataset, seed);
        if !same_bits(&result, reference) {
            out.errors.push("untraced job disagrees".into());
        }
        plain.push(s);
    }
    let many_s = sys::median(&many);
    out.put("pipeline.speedup", sys::median(&one) / many_s);
    out.put("trace.overhead_frac", many_s / sys::median(&plain) - 1.0);
    out.put("trace.spans", spans.len() as f64);
    let _ = write_spans(
        &args.out_dir.join("spans-collect_batch.tsv"),
        &spans,
        usize::MAX,
    );

    let (probe, _) = data::generate(EPOCH_USERS, args.seed);
    let blocks = data::encode(&probe, seed).expect("probe encodes");
    let prepared = Prepared::new(&probe, blocks, seed, args.workers).expect("reference runs");
    let layers = layers::measure(&probe, &prepared, seed, &args.out_dir.join("wal-probe"));
    out.put_all(&layers.metrics);
    out.errors.extend(layers.errors.iter().cloned());
    let busy_s = layers.encode_absorb_ns * 1e-9 * USERS as f64 / args.workers as f64;
    out.put("pipeline.overhead_frac", 1.0 - busy_s / many_s);
}
