//! In-process timings of single layers, driven with the workload's own
//! reports: the session encoder and aggregator, the frame codec, the
//! service, the budget ledger and the durable log.

use std::path::Path;
use std::time::Instant;

use ldp_analytics::durable::{DurableConfig, DurableService, FsyncPolicy, WAL_FILE};
use ldp_analytics::service::{ReportService, ServiceConfig, WireMessage};
use ldp_analytics::{block_partition, block_rng, BudgetLedger, ClientEncoder, Report};
use ldp_core::frame::{self, FrameRead};
use ldp_core::rng::RngBlock;
use ldp_core::AttrValue;
use ldp_data::Dataset;

use crate::data::{epsilon, protocol, same_bits, Prepared, SHARDS};
use crate::sys::{median, quantile};

/// Submits the durable probe appends and fsyncs.
const DURABLE_SUBMITS: usize = 2_000;

/// Per-layer results, in the order they were measured.
#[derive(Debug, Default)]
pub struct Layers {
    pub metrics: Vec<(&'static str, f64)>,
    pub errors: Vec<String>,
    /// Median `encode_into` + `absorb` cost per user, ns.
    pub encode_absorb_ns: f64,
    /// Median in-process `ReportService::handle` cost per submit, ns.
    pub handle_ns: f64,
    pub frame_ns: f64,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

fn ns_per(t: Instant, count: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / count.max(1) as f64
}

/// Runs every in-process layer probe over `dataset` (the users `prepared`
/// was encoded from) with the run seed `seed`.
pub fn measure(dataset: &Dataset, prepared: &Prepared, seed: u64, wal_dir: &Path) -> Layers {
    let mut out = Layers::default();
    session(dataset, prepared, seed, &mut out);
    let msgs: Vec<WireMessage> = prepared
        .blocks
        .iter()
        .flat_map(|b| {
            b.users.iter().map(|(user, report)| WireMessage::Submit {
                user: *user,
                epoch: 0,
                block: b.ordinal,
                report: report.clone(),
            })
        })
        .collect();
    frames(&msgs, &mut out);
    service(&msgs, prepared, &mut out);
    ledger(&msgs, &mut out);
    if let Err(e) = durable(&msgs, prepared, seed, wal_dir, &mut out) {
        out.errors.push(format!("durable probe: {e}"));
    }
    let _ = std::fs::remove_dir_all(wal_dir);
    out
}

fn session(dataset: &Dataset, prepared: &Prepared, seed: u64, out: &mut Layers) {
    let encoder = ClientEncoder::new(protocol(), epsilon(), dataset.schema().attr_specs())
        .expect("BR schema is valid");
    let mut scratch = encoder.scratch();
    let mut encode_ns = 0.0;
    let mut absorb_ns = 0.0;
    let mut total = encoder.aggregator().expect("aggregator");
    for (b, range) in block_partition(dataset.n(), SHARDS).into_iter().enumerate() {
        let tuples: Vec<Vec<AttrValue>> = range
            .map(|i| {
                let mut t = Vec::new();
                dataset.canonical_tuple_into(i, &mut t);
                t
            })
            .collect();
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, b));
        let mut reports: Vec<Report> = vec![encoder.empty_report(); tuples.len()];
        let t = Instant::now();
        for (tuple, report) in tuples.iter().zip(reports.iter_mut()) {
            encoder
                .encode_into(tuple, &mut rng, report, &mut scratch)
                .expect("census tuples fit the schema");
        }
        encode_ns += t.elapsed().as_nanos() as f64;
        let mut agg = encoder
            .aggregator()
            .expect("aggregator")
            .with_ordinal(b as u64);
        let t = Instant::now();
        for report in &reports {
            agg.absorb(report).expect("encoder reports validate");
        }
        absorb_ns += t.elapsed().as_nanos() as f64;
        total.merge(agg).expect("same session");
    }
    let n = dataset.n() as f64;
    let mut snapshot_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let result = total.snapshot().expect("non-empty aggregate");
        snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !same_bits(&result, &prepared.reference) {
            out.errors
                .push("session: encode_into + absorb differs from Collector::run".into());
        }
    }
    out.encode_absorb_ns = (encode_ns + absorb_ns) / n;
    out.put("session.encode_ns_per_user", encode_ns / n);
    out.put("session.absorb_ns_per_user", absorb_ns / n);
    out.put("session.snapshot_ms", median(&snapshot_ms));
}

fn frames(msgs: &[WireMessage], out: &mut Layers) {
    let mut buf = Vec::with_capacity(512);
    let mut bytes = 0usize;
    let t = Instant::now();
    for m in msgs {
        buf.clear();
        m.write_to(&mut buf).expect("vec write");
        bytes += buf.len();
    }
    let encode_ns = ns_per(t, msgs.len());

    let mut stream = Vec::with_capacity(bytes);
    for m in msgs {
        m.write_to(&mut stream).expect("vec write");
    }
    let mut reader = stream.as_slice();
    let mut payload = Vec::new();
    let mut decoded = 0usize;
    let t = Instant::now();
    while let Ok(Some(FrameRead::Valid { kind })) = frame::read_frame(&mut reader, &mut payload) {
        if WireMessage::decode(kind, &payload).is_ok() {
            decoded += 1;
        }
    }
    let decode_ns = ns_per(t, msgs.len());
    if decoded != msgs.len() {
        out.errors.push(format!(
            "frame: decoded {decoded} of {} submits",
            msgs.len()
        ));
    }
    out.frame_ns = encode_ns + decode_ns;
    out.put("frame.bytes_per_submit", bytes as f64 / msgs.len() as f64);
    out.put("frame.encode_ns_per_submit", encode_ns);
    out.put("frame.decode_ns_per_submit", decode_ns);
}

fn service(msgs: &[WireMessage], prepared: &Prepared, out: &mut Layers) {
    let mut svc = ReportService::new(ServiceConfig::default());
    svc.handle(&prepared.hello).expect("hello");
    let t = Instant::now();
    for m in msgs {
        if svc.handle(m).is_err() {
            break;
        }
    }
    out.handle_ns = ns_per(t, msgs.len());
    out.put("service.handle_ns_per_submit", out.handle_ns);
    match svc.snapshot_epoch(0) {
        Ok(snap)
            if snap.admitted == msgs.len() as u64
                && snap
                    .result
                    .as_ref()
                    .is_some_and(|r| same_bits(r, &prepared.reference)) =>
        {
            out.put("service.admitted", snap.admitted as f64);
            out.put(
                "service.rejected_duplicates",
                snap.rejected_duplicates as f64,
            );
            out.put("service.rejected_malformed", snap.rejected_malformed as f64);
        }
        other => out
            .errors
            .push(format!("service probe: unexpected snapshot {other:?}")),
    }
}

fn ledger(msgs: &[WireMessage], out: &mut Layers) {
    let users: Vec<u64> = msgs
        .iter()
        .filter_map(|m| match m {
            WireMessage::Submit { user, .. } => Some(*user),
            _ => None,
        })
        .collect();
    let mut ledger = BudgetLedger::with_key(ServiceConfig::default().ledger_key);
    let epochs = 4u64;
    let t = Instant::now();
    for epoch in 0..epochs {
        for &user in &users {
            let _ = ledger.admit(user, epoch);
        }
    }
    out.put("ledger.admit_ns", ns_per(t, users.len() * epochs as usize));
    if (0..epochs).any(|e| ledger.admitted(e) != users.len() as u64) {
        out.errors
            .push("ledger probe: admitted count differs from users".into());
    }
}

fn durable(
    msgs: &[WireMessage],
    prepared: &Prepared,
    seed: u64,
    dir: &Path,
    out: &mut Layers,
) -> ldp_core::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    let config = DurableConfig {
        service: ServiceConfig::default(),
        fsync: FsyncPolicy::EveryRecord,
        run_seed: seed,
    };
    let (mut svc, _) = DurableService::open(dir, config.clone())?;
    svc.handle(&prepared.hello)?;
    let submits = &msgs[..DURABLE_SUBMITS.min(msgs.len())];
    let mut handle_us = Vec::with_capacity(submits.len());
    for m in submits {
        let t = Instant::now();
        svc.handle(m)?;
        handle_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let records = svc.wal_records();
    drop(svc);
    let wal_bytes = std::fs::metadata(dir.join(WAL_FILE)).map_or(0, |m| m.len());

    let t = Instant::now();
    let (mut svc, report) = DurableService::open(dir, config)?;
    let replay_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    svc.checkpoint()?;
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    if report.wal_replayed != submits.len() as u64 || records != submits.len() as u64 {
        out.errors.push(format!(
            "durable probe: appended {records}, replayed {} of {}",
            report.wal_replayed,
            submits.len()
        ));
    }

    out.put("durable.handle_us_p50", median(&handle_us));
    out.put("durable.handle_us_p99", quantile(&handle_us, 0.99));
    out.put("durable.wal_records", records as f64);
    out.put(
        "durable.wal_bytes_per_report",
        wal_bytes as f64 / records.max(1) as f64,
    );
    out.put("durable.checkpoint_ms", checkpoint_ms);
    out.put(
        "recovery.replay_reports_per_s",
        report.wal_replayed as f64 / replay_s,
    );
    out.put("recovery.wal_replayed", report.wal_replayed as f64);
    Ok(())
}
