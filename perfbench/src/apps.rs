//! `paper-apps`: the paper's Fig 9 path. Three engine/workload pairs, each
//! logging to BA-WAL on the 2B-SSD and to a synchronous block WAL on the
//! DC-SSD and on the ULL-SSD, driven closed-loop (8 clients; Redis 1).

use twob_core::{TwoBSpec, TwoBSsd};
use twob_db::{EngineCosts, MiniPg, MiniRedis, MiniRocks, PgOp};
use twob_sim::{SimRng, SimTime};
use twob_ssd::{Ssd, SsdConfig};
use twob_wal::{
    BaWal, BlockWal, CommitMode, CommitOutcome, WalConfig, WalError, WalStats, WalWriter,
};
use twob_workloads::{
    ClientPool, LinkbenchConfig, LinkbenchWorkload, YcsbConfig, YcsbOp, YcsbWorkload,
};

use crate::harness::{self, mix, Outcome, RunCfg, FNV_BASIS};
use crate::{paper, trace};

/// Closed-loop clients for the multi-client engines.
const CLIENTS: usize = 8;
/// Transactions per round on each PostgreSQL-style pair.
const PG_TXNS: usize = 4_000;
/// YCSB-A operations per round on each RocksDB-style pair.
const ROCKS_OPS: usize = 4_000;
/// YCSB-A operations per round on each Redis-style pair.
const REDIS_OPS: usize = 2_500;
/// YCSB record count and value size.
const RECORDS: u64 = 500;
const PAYLOAD: usize = 256;
/// Linkbench node count.
const NODES: u64 = 500;

/// The log device behind an engine.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Log {
    /// BA-WAL on the 2B-SSD.
    Ba,
    /// Synchronous block WAL on the DC-SSD.
    Dc,
    /// Synchronous block WAL on the ULL-SSD.
    Ull,
}

impl Log {
    pub const ALL: [Log; 3] = [Log::Ba, Log::Dc, Log::Ull];

    pub fn label(self) -> &'static str {
        match self {
            Log::Ba => "ba",
            Log::Dc => "dc",
            Log::Ull => "ull",
        }
    }
}

/// How the BA-WAL splits the BA-buffer (paper §IV-B): halves for the
/// PostgreSQL-style engine, quarters for RocksDB-style, one whole window
/// for Redis-style.
#[derive(Clone, Copy)]
pub enum Layout {
    Halves,
    Quarters,
    Whole,
}

/// Builds one log, with the device presets of the paper's Fig 9 setup:
/// 2048-page log regions, bench-scale devices, a 2 MiB BA-buffer.
pub fn make_wal(log: Log, layout: Layout) -> Result<Box<dyn WalWriter>, WalError> {
    let cfg = WalConfig {
        region_pages: 2048,
        ..WalConfig::default()
    };
    let block = |ssd: SsdConfig| -> Result<Box<dyn WalWriter>, WalError> {
        Ok(Box::new(BlockWal::new(
            Ssd::new(ssd.bench_scale()),
            cfg,
            CommitMode::Sync,
        )?))
    };
    match log {
        Log::Dc => block(SsdConfig::dc_ssd()),
        Log::Ull => block(SsdConfig::ull_ssd()),
        Log::Ba => {
            let spec = TwoBSpec {
                ba_buffer_bytes: 2 << 20,
                ..TwoBSpec::default()
            };
            let dev = TwoBSsd::new(SsdConfig::base_2b().bench_scale(), spec);
            let pages = (spec.ba_buffer_bytes / 4096) as u32;
            Ok(Box::new(match layout {
                Layout::Halves => BaWal::new(dev, cfg, pages / 2)?,
                Layout::Quarters => BaWal::new(dev, cfg, pages / 4)?,
                Layout::Whole => BaWal::new_single(dev, cfg, pages)?,
            }))
        }
    }
}

/// Delegates to the real log, timing each append as a `wal.append` span.
struct TracedWal(Box<dyn WalWriter>);

impl WalWriter for TracedWal {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        trace::span("wal.append", || self.0.append_commit(now, payload))
    }

    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<CommitOutcome, WalError> {
        trace::span("wal.append", || self.0.append_batch(now, payloads))
    }

    fn scheme(&self) -> String {
        self.0.scheme()
    }

    fn stats(&self) -> WalStats {
        self.0.stats()
    }
}

/// One engine's generated inputs and the read results they must produce.
struct KvInputs {
    load: Vec<(Vec<u8>, Vec<u8>)>,
    ops: Vec<YcsbOp>,
    /// For each op: the value a read must return (`None` for updates).
    expect: Vec<Option<Vec<u8>>>,
}

/// Every input of a round, generated from the seed.
pub struct Inputs {
    pg_load: Vec<Vec<PgOp>>,
    pg_txns: Vec<Vec<PgOp>>,
    rocks: KvInputs,
    redis: KvInputs,
}

fn kv_inputs(seed: u64, ops: usize) -> KvInputs {
    let mut rng = SimRng::seed_from(seed);
    let mut wl = YcsbWorkload::new(YcsbConfig::workload_a(RECORDS, PAYLOAD));
    let load = wl.load_phase(&mut rng);
    let ops: Vec<YcsbOp> = (0..ops).map(|_| wl.next_op(&mut rng)).collect();
    let mut shadow: std::collections::HashMap<Vec<u8>, Vec<u8>> = load.iter().cloned().collect();
    let expect = ops
        .iter()
        .map(|op| match op {
            YcsbOp::Read { key } => Some(shadow.get(key).cloned().unwrap_or_default()),
            YcsbOp::Update { key, value } => {
                shadow.insert(key.clone(), value.clone());
                None
            }
        })
        .collect();
    KvInputs { load, ops, expect }
}

/// Generates every input from `seed` (the `workloads` layer).
pub fn generate(seed: u64) -> Inputs {
    let mut rng = SimRng::seed_from(seed);
    let mut wl = LinkbenchWorkload::new(LinkbenchConfig::standard(NODES));
    let pg_load = wl.load_phase(&mut rng, 2);
    let pg_txns = (0..PG_TXNS).map(|_| wl.next_txn(&mut rng)).collect();
    Inputs {
        pg_load,
        pg_txns,
        rocks: kv_inputs(seed ^ 0x5eed_0001, ROCKS_OPS),
        redis: kv_inputs(seed ^ 0x5eed_0002, REDIS_OPS),
    }
}

enum Db {
    Pg(MiniPg),
    Rocks(MiniRocks),
    Redis(MiniRedis),
}

impl Db {
    fn label(&self) -> &'static str {
        match self {
            Db::Pg(_) => "pg",
            Db::Rocks(_) => "rocks",
            Db::Redis(_) => "redis",
        }
    }

    fn wal_stats(&self) -> WalStats {
        match self {
            Db::Pg(db) => db.wal_stats(),
            Db::Rocks(db) => db.wal_stats(),
            Db::Redis(db) => db.wal_stats(),
        }
    }

    fn state_digest(&self) -> u64 {
        match self {
            Db::Pg(db) => db.state_digest(),
            Db::Rocks(db) => db.state_digest(),
            Db::Redis(db) => db.state_digest(),
        }
    }
}

/// A built and loaded engine, ready for its measured ops.
pub struct Pair {
    log: Log,
    db: Db,
    /// Virtual instant the load phase ended.
    start: SimTime,
    /// Owned `(key, value)` of each update, consumed by the measured ops.
    updates: Vec<Option<(Vec<u8>, Vec<u8>)>>,
}

/// Builds the nine engine/log pairs and runs their load phases.
pub fn setup(inputs: &Inputs) -> Result<Vec<Pair>, String> {
    let mut pairs = Vec::new();
    for log in Log::ALL {
        let wal =
            |layout| make_wal(log, layout).map(|w| Box::new(TracedWal(w)) as Box<dyn WalWriter>);
        let err = |e: &dyn std::fmt::Debug| format!("{} load: {e:?}", log.label());

        let mut pg = MiniPg::new(
            wal(Layout::Halves).map_err(|e| err(&e))?,
            EngineCosts::postgres(),
        );
        let mut t = SimTime::ZERO;
        for txn in &inputs.pg_load {
            t = pg.run_txn(t, txn).map_err(|e| err(&e))?.commit_at;
        }
        pairs.push(Pair {
            log,
            db: Db::Pg(pg),
            start: t,
            updates: Vec::new(),
        });

        let mut rocks = MiniRocks::new(
            wal(Layout::Quarters).map_err(|e| err(&e))?,
            EngineCosts::rocksdb(),
        );
        let mut t = SimTime::ZERO;
        for (k, v) in &inputs.rocks.load {
            t = rocks
                .put(t, k.clone(), v.clone())
                .map_err(|e| err(&e))?
                .commit_at;
        }
        pairs.push(Pair {
            log,
            db: Db::Rocks(rocks),
            start: t,
            updates: owned_updates(&inputs.rocks),
        });

        let mut redis = MiniRedis::new(
            wal(Layout::Whole).map_err(|e| err(&e))?,
            EngineCosts::redis(),
        );
        let mut t = SimTime::ZERO;
        for (k, v) in &inputs.redis.load {
            t = redis
                .set(t, k.clone(), v.clone())
                .map_err(|e| err(&e))?
                .commit_at;
        }
        pairs.push(Pair {
            log,
            db: Db::Redis(redis),
            start: t,
            updates: owned_updates(&inputs.redis),
        });
    }
    Ok(pairs)
}

fn owned_updates(kv: &KvInputs) -> Vec<Option<(Vec<u8>, Vec<u8>)>> {
    kv.ops
        .iter()
        .map(|op| match op {
            YcsbOp::Update { key, value } => Some((key.clone(), value.clone())),
            YcsbOp::Read { .. } => None,
        })
        .collect()
}

/// Modelled results of one pair's measured ops.
pub struct PairResult {
    pub engine: &'static str,
    pub log: Log,
    /// Simulated ops per simulated second.
    pub throughput: f64,
    pub stats: WalStats,
    pub digest: u64,
}

/// What a round of measured ops produced.
pub struct RoundResult {
    pub ops: u64,
    pub errors: u64,
    pub wrong_reads: u64,
    pub pairs: Vec<PairResult>,
}

/// Runs every pair's measured ops, closed-loop. Each op's spans carry the
/// request id `round << 32 | op index`.
pub fn run_round(inputs: &Inputs, pairs: Vec<Pair>, round: u64) -> RoundResult {
    let mut out = RoundResult {
        ops: 0,
        errors: 0,
        wrong_reads: 0,
        pairs: Vec::new(),
    };
    for mut pair in pairs {
        let clients = if matches!(pair.db, Db::Redis(_)) {
            1
        } else {
            CLIENTS
        };
        let mut pool = ClientPool::starting_at(clients, pair.start);
        let (ops, expect): (usize, &[Option<Vec<u8>>]) = match &pair.db {
            Db::Pg(_) => (inputs.pg_txns.len(), &[]),
            Db::Rocks(_) => (inputs.rocks.ops.len(), &inputs.rocks.expect),
            Db::Redis(_) => (inputs.redis.ops.len(), &inputs.redis.expect),
        };
        let kv_ops = match &pair.db {
            Db::Rocks(_) => &inputs.rocks.ops,
            _ => &inputs.redis.ops,
        };
        for i in 0..ops {
            let (client, at) = pool.next_client();
            trace::set_request((round << 32) | (out.ops + out.errors));
            let done = trace::span("db.op", || match &mut pair.db {
                Db::Pg(db) => db
                    .run_txn(at, &inputs.pg_txns[i])
                    .map(|o| (o.commit_at, None)),
                Db::Rocks(db) => match &kv_ops[i] {
                    YcsbOp::Read { key } => Ok(db.get(at, key)).map(|(t, v)| (t, Some(v))),
                    YcsbOp::Update { .. } => {
                        let (key, value) = pair.updates[i].take().unwrap_or_default();
                        db.put(at, key, value).map(|o| (o.commit_at, None))
                    }
                },
                Db::Redis(db) => match &kv_ops[i] {
                    YcsbOp::Read { key } => Ok(db.get(at, key)).map(|(t, v)| (t, Some(v))),
                    YcsbOp::Update { .. } => {
                        let (key, value) = pair.updates[i].take().unwrap_or_default();
                        db.set(at, key, value).map(|o| (o.commit_at, None))
                    }
                },
            });
            match done {
                Ok((commit_at, read)) => {
                    if let Some(value) = read {
                        if value.as_ref() != expect[i].as_ref() {
                            out.wrong_reads += 1;
                        }
                    }
                    pool.complete(client, commit_at);
                    out.ops += 1;
                }
                Err(_) => {
                    out.errors += 1;
                    pool.complete(client, at);
                }
            }
        }
        let span = pool.makespan().saturating_since(pair.start).as_secs_f64();
        out.pairs.push(PairResult {
            engine: pair.db.label(),
            log: pair.log,
            throughput: ops as f64 / span,
            stats: pair.db.wal_stats(),
            digest: pair.db.state_digest(),
        });
    }
    out
}

fn result<'a>(pairs: &'a [PairResult], engine: &str, log: Log) -> &'a PairResult {
    pairs
        .iter()
        .find(|p| p.engine == engine && p.log == log)
        .expect("every engine runs on every log")
}

/// 2B-SSD throughput over DC-SSD and over ULL-SSD throughput for `engine`.
pub fn gains(pairs: &[PairResult], engine: &str) -> (f64, f64) {
    let ba = result(pairs, engine, Log::Ba).throughput;
    (
        ba / result(pairs, engine, Log::Dc).throughput,
        ba / result(pairs, engine, Log::Ull).throughput,
    )
}

fn model_digest(pairs: &[PairResult]) -> u64 {
    pairs.iter().fold(FNV_BASIS, |h, p| {
        let s = p.stats;
        [
            p.throughput.to_bits(),
            p.digest,
            s.commits,
            s.device_page_writes,
            s.device_flushes,
            s.distinct_pages,
            s.commit_time_total.as_nanos(),
        ]
        .into_iter()
        .fold(h, mix)
    })
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut gen_s = Vec::new();
    let mut first: Option<(u64, Vec<PairResult>)> = None;
    let (mut setup_errors, mut mismatched_rounds) = (0, 0);
    let (mut attempted, mut errors, mut wrong_reads) = (0, 0, 0);
    let rounds = harness::rounds(
        cfg,
        |_| {
            let t0 = std::time::Instant::now();
            let inputs = generate(cfg.seed);
            gen_s.push(t0.elapsed().as_secs_f64());
            let pairs = setup(&inputs);
            (inputs, pairs)
        },
        |(inputs, built), round| {
            let Ok(pairs) = built else {
                setup_errors += 1;
                return 0;
            };
            let r = run_round(&inputs, pairs, round);
            attempted += r.ops + r.errors;
            errors += r.errors;
            wrong_reads += r.wrong_reads;
            let digest = model_digest(&r.pairs);
            match &first {
                None => first = Some((digest, r.pairs)),
                Some((d, _)) => mismatched_rounds += u64::from(*d != digest),
            }
            r.ops
        },
    );
    let (digest, pairs) = first.expect("at least one round ran");
    out.model_digest = digest;
    out.rounds = rounds;
    out.attempted = attempted;
    out.failed += errors;
    out.check("engines build and load", setup_errors == 0);
    out.check_ops("reads return the last value written", wrong_reads);
    out.check(
        "every round models the same outputs",
        mismatched_rounds == 0,
    );
    for engine in ["pg", "rocks", "redis"] {
        let digests: Vec<u64> = Log::ALL
            .iter()
            .map(|&l| result(&pairs, engine, l).digest)
            .collect();
        out.check(
            &format!("{engine} state is identical on every log device"),
            digests.iter().all(|&d| d == digests[0]),
        );
    }

    for engine in ["pg", "rocks", "redis"] {
        let (dc, ull) = gains(&pairs, engine);
        out.line(format!("fig9 {engine}: 2B/DC {dc:.3}x  2B/ULL {ull:.3}x"));
    }
    set_layers(&mut out, &pairs, harness::median(&gen_s));
    let fidelity = paper::fidelity(Some(&paper::fig9_gains()));
    out.paper_err_pct = fidelity.err_pct;
    fidelity.report(&mut out);
    out
}

fn set_layers(out: &mut Outcome, pairs: &[PairResult], gen_s: f64) {
    out.layer("workloads.gen_s", gen_s);
    let (wal_s, appends) = trace::total("wal.append");
    let (db_s, _) = trace::total("db.op");
    out.layer("wal.append_s", wal_s);
    out.layer("wal.appends", appends as f64);
    out.layer("db.self_s", (db_s - wal_s).max(0.0));
    for engine in ["pg", "rocks", "redis"] {
        let (dc, ull) = gains(pairs, engine);
        out.layer(&format!("db.gain_vs_dc.{engine}"), dc);
        out.layer(&format!("db.gain_vs_ull.{engine}"), ull);
    }
    for log in Log::ALL {
        let mut total = WalStats::default();
        for p in pairs.iter().filter(|p| p.log == log) {
            total.commits += p.stats.commits;
            total.device_page_writes += p.stats.device_page_writes;
            total.device_flushes += p.stats.device_flushes;
            total.distinct_pages += p.stats.distinct_pages;
            total.commit_time_total += p.stats.commit_time_total;
        }
        let per_commit = |n: u64| n as f64 / total.commits.max(1) as f64;
        let log = log.label();
        out.layer(&format!("wal.log_waf.{log}"), total.log_waf());
        out.layer(
            &format!("wal.page_writes_per_commit.{log}"),
            per_commit(total.device_page_writes),
        );
        out.layer(
            &format!("wal.flushes_per_commit.{log}"),
            per_commit(total.device_flushes),
        );
        out.layer(
            &format!("wal.commit_us.{log}"),
            total.mean_commit_cost().as_micros_f64(),
        );
    }
}
