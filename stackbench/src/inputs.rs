//! Workload definitions and seeded input generation.
//!
//! Every input a run feeds the stack — echo payload sizes, per-client KV
//! op streams, open-loop due times — is generated here from `--seed`
//! before the system is built, so the program under test receives only
//! the generated inputs and the same seed always yields the same inputs.

use kvstore::{ClientWorkload, KvHistOp, YcsbSpec};
use simnet::SplitMix64;

/// Closed-loop depth of the agreement workloads' single client.
pub const AGREE_DEPTH: usize = 30;
/// Echo requests per agree-rubin trial.
pub const AGREE_RUBIN_OPS: usize = 1_000;
/// Echo requests per agree-nio trial.
pub const AGREE_NIO_OPS: usize = 400;
/// Replicas of every group (`ReptorConfig::small()`, f = 1).
pub const REPLICAS: usize = 4;
/// KV clients of both KV workloads.
pub const KV_CLIENTS: usize = 4;
/// Region cells per replica (the read-lease region).
pub const KV_CAPACITY: usize = 256;
/// Ops per client on kv-read (closed loop).
pub const KV_READ_OPS_PER_CLIENT: usize = 10_000;
/// Key space of kv-read: zipfian, fits the region.
pub const KV_READ_KEYS: u64 = 64;
/// Key space of kv-fault: zipfian, larger than the region.
pub const KV_FAULT_KEYS: u64 = 1_000;
/// Offered rate of kv-fault's open loop, over all clients.
pub const KV_FAULT_RATE_OPS_S: f64 = 4_000.0;
/// Ops per client on kv-fault.
pub const KV_FAULT_OPS_PER_CLIENT: usize = 4_000;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PBFT echo over the RUBIN stack, closed loop, web payload mix.
    AgreeRubin,
    /// The same over the NIO/TCP stack.
    AgreeNio,
    /// YCSB-B over the KV service, closed loop, one-sided reads.
    KvRead,
    /// YCSB-A over the durable KV service, open loop, primary crash and
    /// cold restart.
    KvFault,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::AgreeRubin,
        Workload::AgreeNio,
        Workload::KvRead,
        Workload::KvFault,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AgreeRubin => "agree-rubin",
            Workload::AgreeNio => "agree-nio",
            Workload::KvRead => "kv-read",
            Workload::KvFault => "kv-fault",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// True for the two KV workloads.
    pub fn is_kv(self) -> bool {
        matches!(self, Workload::KvRead | Workload::KvFault)
    }

    /// Independent trials (simulations with their own seeds) per run; the
    /// simulated metrics are medians over them. The agreement workloads
    /// need several: the longest completion gap of one trial varies from
    /// seed to seed. On NIO a spurious view change stalls a trial for
    /// about 90 ms at a rate of roughly one per 2 000 ops, so trials are
    /// short and many: the median trial is then reliably one without a
    /// stall, and the stalls show in the per-layer counts (means over
    /// trials) instead of flipping the end-to-end medians from run to run.
    pub fn trials(self) -> usize {
        match self {
            Workload::AgreeRubin => 9,
            Workload::AgreeNio => 21,
            Workload::KvRead | Workload::KvFault => 1,
        }
    }
}

/// Most trials any workload runs; `trial_seed` stays distinct below it.
pub const MAX_TRIALS: usize = 64;

/// The seed of trial `k` of a run seeded `seed`: distinct for every
/// (seed, trial) pair with `k < MAX_TRIALS`.
pub fn trial_seed(seed: u64, k: usize) -> u64 {
    debug_assert!(k < MAX_TRIALS);
    seed.wrapping_mul(MAX_TRIALS as u64).wrapping_add(k as u64)
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these inputs drive.
    pub workload: Workload,
    /// The seed they were generated from (also seeds the simulator).
    pub seed: u64,
    /// agree-*: request payload sizes in submit order.
    pub echo_sizes: Vec<usize>,
    /// kv-*: one op stream per client, in issue order.
    pub kv_ops: Vec<Vec<KvHistOp>>,
    /// kv-fault: per-client due times in ns after the phase start,
    /// parallel to `kv_ops` (empty for closed loops).
    pub due_ns: Vec<Vec<u64>>,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0x5354_4143_4b42_454e);
        let mut inputs = Inputs {
            workload,
            seed,
            echo_sizes: Vec::new(),
            kv_ops: Vec::new(),
            due_ns: Vec::new(),
        };
        match workload {
            Workload::AgreeRubin | Workload::AgreeNio => {
                let ops = if workload == Workload::AgreeRubin {
                    AGREE_RUBIN_OPS
                } else {
                    AGREE_NIO_OPS
                };
                inputs.echo_sizes = (0..ops).map(|_| web_frontend_size(&mut rng)).collect();
            }
            Workload::KvRead => {
                inputs.kv_ops = kv_streams(
                    YcsbSpec::b(KV_READ_KEYS),
                    rng.next_u64(),
                    KV_READ_OPS_PER_CLIENT,
                );
            }
            Workload::KvFault => {
                inputs.kv_ops = kv_streams(
                    YcsbSpec::a(KV_FAULT_KEYS),
                    rng.next_u64(),
                    KV_FAULT_OPS_PER_CLIENT,
                );
                inputs.due_ns = poisson(&mut rng, KV_FAULT_RATE_OPS_S, KV_FAULT_OPS_PER_CLIENT);
            }
        }
        inputs
    }

    /// Total ops the inputs ask for.
    pub fn total_ops(&self) -> usize {
        self.echo_sizes.len() + self.kv_ops.iter().map(Vec::len).sum::<usize>()
    }

    /// The payload of echo request `i`: a pure function of the seed, the
    /// index and the generated size.
    pub fn echo_payload(&self, i: usize) -> Vec<u8> {
        let tag = (i as u64) ^ self.seed.rotate_left(17);
        (0..self.echo_sizes[i])
            .map(|j| (j as u64).wrapping_mul(31).wrapping_add(tag) as u8)
            .collect()
    }

    /// The end of the offered schedule, in ns after the phase start.
    pub fn schedule_end_ns(&self) -> u64 {
        self.due_ns
            .iter()
            .filter_map(|d| d.last().copied())
            .max()
            .unwrap_or(0)
    }

    /// FNV-1a digest of the op stream, for the different-seed check.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for &s in &self.echo_sizes {
            h.u64(s as u64);
        }
        for ops in &self.kv_ops {
            for op in ops {
                match op {
                    KvHistOp::Get { key, .. } => {
                        h.u64(0);
                        h.bytes(key);
                    }
                    KvHistOp::Put { key, val } => {
                        h.u64(1);
                        h.bytes(key);
                        h.bytes(val);
                    }
                    KvHistOp::Del { key } => {
                        h.u64(2);
                        h.bytes(key);
                    }
                }
            }
        }
        for due in &self.due_ns {
            for &d in due {
                h.u64(d);
            }
        }
        h.finish()
    }
}

/// `Mix::WebFrontend`: 70 % 200 B–1 KB, 25 % 8 KB, 5 % 64 KB.
fn web_frontend_size(rng: &mut SplitMix64) -> usize {
    let roll = rng.next_f64();
    if roll < 0.70 {
        200 + rng.next_bounded(825) as usize
    } else if roll < 0.95 {
        8 * 1024
    } else {
        64 * 1024
    }
}

/// Per-client Poisson arrival times (independent users) for a total
/// offered `rate` split evenly over the KV clients.
fn poisson(rng: &mut SplitMix64, rate: f64, ops_per_client: usize) -> Vec<Vec<u64>> {
    let mean_gap_ns = 1e9 * KV_CLIENTS as f64 / rate;
    (0..KV_CLIENTS)
        .map(|_| {
            let mut t = 0.0f64;
            (0..ops_per_client)
                .map(|_| {
                    t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
                    t as u64
                })
                .collect()
        })
        .collect()
}

/// One YCSB stream per KV client. Client node ids follow the replicas,
/// as `KvHarness::build` assigns them; write values embed the id, which
/// keeps every write distinct for the linearizability checker.
fn kv_streams(spec: YcsbSpec, run_seed: u64, ops_per_client: usize) -> Vec<Vec<KvHistOp>> {
    (0..KV_CLIENTS)
        .map(|c| {
            let mut w = ClientWorkload::new((REPLICAS + c) as u32, spec.clone(), run_seed);
            (0..ops_per_client).map(|_| w.next_op()).collect()
        })
        .collect()
}

/// 64-bit FNV-1a, for cheap deterministic fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes raw bytes (length-prefixed).
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes one integer.
    pub fn u64(&mut self, v: u64) {
        for x in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}
