//! Workload inputs: the BR census dataset, reports pre-encoded exactly as
//! `Collector::run` would draw them, and the reference estimates the
//! collected results must match bit for bit.

use ldp_analytics::service::{encode_report, WireMessage};
use ldp_analytics::{
    block_partition, block_rng, ClientEncoder, CollectionResult, Collector, Protocol,
};
use ldp_core::rng::RngBlock;
use ldp_core::{AttrValue, Epsilon, NumericKind, OracleKind, Result};
use ldp_data::census::generate_br;
use ldp_data::Dataset;

/// Simulation shards of the canonical block partition (the collector's
/// default).
pub const SHARDS: usize = ldp_analytics::DEFAULT_SHARDS;

/// Users per epoch on `ingest_tcp` (16 blocks of 512) and per
/// in-process layer probe.
pub const EPOCH_USERS: usize = 8_192;

pub fn protocol() -> Protocol {
    Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    }
}

pub fn epsilon() -> Epsilon {
    Epsilon::new(4.0).expect("4 is a valid budget")
}

/// The run seed the reports are drawn with, derived from the workload seed
/// (which itself seeds the dataset).
pub fn run_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1cde
}

/// Generates the BR census dataset, timed.
pub fn generate(n: usize, seed: u64) -> (Dataset, f64) {
    let t = std::time::Instant::now();
    let dataset = generate_br(n, seed).expect("census generator accepts any n > 0");
    (dataset, t.elapsed().as_secs_f64())
}

/// One canonical block: its merge ordinal and its users' `(id, report
/// bytes)` in user order.
pub struct Block {
    pub ordinal: u64,
    pub users: Vec<(u64, Vec<u8>)>,
}

/// Encodes every user with block `b`'s generator `block_rng(seed, b)`, so
/// feeding each block in order into one aggregator partial reproduces
/// `Collector::run(dataset, seed)`.
pub fn encode(dataset: &Dataset, seed: u64) -> Result<Vec<Block>> {
    let specs = dataset.schema().attr_specs();
    let encoder = ClientEncoder::new(protocol(), epsilon(), specs.clone())?;
    let mut report = encoder.empty_report();
    let mut scratch = encoder.scratch();
    let mut tuple: Vec<AttrValue> = Vec::new();
    let mut blocks = Vec::new();
    for (b, range) in block_partition(dataset.n(), SHARDS).into_iter().enumerate() {
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, b));
        let mut users = Vec::with_capacity(range.len());
        for i in range {
            dataset.canonical_tuple_into(i, &mut tuple);
            encoder.encode_into(&tuple, &mut rng, &mut report, &mut scratch)?;
            users.push((i as u64, encode_report(&report, &specs)));
        }
        blocks.push(Block {
            ordinal: b as u64,
            users,
        });
    }
    Ok(blocks)
}

/// A dataset's reports, pre-encoded per canonical block, plus everything a
/// socket run needs to check itself.
pub struct Prepared {
    pub n: usize,
    pub blocks: Vec<Block>,
    pub hello: WireMessage,
    pub reference: CollectionResult,
}

impl Prepared {
    /// Wraps `dataset`'s encoded `blocks` with the `Hello` every
    /// connection opens with and the estimates of `Collector::run` on the
    /// same dataset and seed, which every collected result must match.
    /// The reference is the benchmark's check, not the program's set-up,
    /// so it is computed here and not timed with the set-up.
    pub fn new(
        dataset: &Dataset,
        blocks: Vec<Block>,
        seed: u64,
        workers: usize,
    ) -> Result<Prepared> {
        let reference = Collector::new(protocol(), epsilon())
            .with_worker_threads(workers)
            .run(dataset, seed)?;
        Ok(Prepared {
            n: dataset.n(),
            blocks,
            hello: WireMessage::Hello {
                protocol: protocol(),
                epsilon: epsilon(),
                specs: dataset.schema().attr_specs(),
                epoch: 0,
            },
            reference,
        })
    }

    /// The blocks client `c` of `clients` sends: every `clients`-th block,
    /// whole and in order.
    pub fn share(&self, c: usize, clients: usize) -> impl Iterator<Item = &Block> {
        self.blocks.iter().skip(c).step_by(clients)
    }
}

/// True when two results carry the same estimates, compared bit for bit.
pub fn same_bits(a: &CollectionResult, b: &CollectionResult) -> bool {
    let bits = |r: &CollectionResult| {
        let mut v: Vec<u64> = vec![r.n as u64];
        for (j, m) in &r.means {
            v.push(*j as u64);
            v.push(m.to_bits());
        }
        for (j, f) in &r.frequencies {
            v.push(*j as u64);
            v.extend(f.iter().map(|x| x.to_bits()));
        }
        v
    };
    bits(a) == bits(b)
}
