//! What every workload shares: the run configuration, the round loop that
//! separates set-up from measured work, the result record and its output.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace;

/// One invocation's settings.
pub struct RunCfg {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Host time to spend in measured rounds.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Rounds measured per phase even when one round outlasts the budget.
const MIN_ROUNDS: usize = 3;

/// Every per-layer metric and its unit, in output order. A workload that
/// does not exercise a layer reports 0 for it (see `perfbench/NOTES.md`).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("host.par_threads", "count"),
    ("host.threads_le_cores", "bool"),
    ("host.ref_ms", "ms"),
    ("host.sim_ops_per_s_raw", "1/s"),
    ("host.setup_s_raw", "s"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("workloads.fail_frac", "frac"),
    ("workloads.gen_s", "s"),
    ("workloads.plan_s", "s"),
    ("workloads.serve_p50_us.ba", "us"),
    ("workloads.serve_p50_us.cxl", "us"),
    ("workloads.serve_p50_us.block", "us"),
    ("workloads.serve_p99_us.ba", "us"),
    ("workloads.serve_p99_us.cxl", "us"),
    ("workloads.serve_p99_us.block", "us"),
    ("workloads.serve_p999_us.ba", "us"),
    ("workloads.serve_p999_us.cxl", "us"),
    ("workloads.serve_p999_us.block", "us"),
    ("workloads.deferred", "count"),
    ("workloads.shed", "count"),
    ("db.self_s", "s"),
    ("db.gain_vs_dc.pg", "x"),
    ("db.gain_vs_dc.rocks", "x"),
    ("db.gain_vs_dc.redis", "x"),
    ("db.gain_vs_ull.pg", "x"),
    ("db.gain_vs_ull.rocks", "x"),
    ("db.gain_vs_ull.redis", "x"),
    ("wal.append_s", "s"),
    ("wal.appends", "count"),
    ("wal.log_waf.ba", "x"),
    ("wal.log_waf.dc", "x"),
    ("wal.log_waf.ull", "x"),
    ("wal.page_writes_per_commit.ba", "count"),
    ("wal.page_writes_per_commit.dc", "count"),
    ("wal.page_writes_per_commit.ull", "count"),
    ("wal.flushes_per_commit.ba", "count"),
    ("wal.flushes_per_commit.dc", "count"),
    ("wal.flushes_per_commit.ull", "count"),
    ("wal.commit_us.ba", "us"),
    ("wal.commit_us.dc", "us"),
    ("wal.commit_us.ull", "us"),
    ("sim.drive_s.lockstep", "s"),
    ("sim.drive_s.adaptive", "s"),
    ("sim.drive_s.parallel", "s"),
    ("sim.par_speedup", "x"),
    ("sim.rounds", "count"),
    ("sim.batched_frac", "frac"),
    ("sim.events_per_round", "count"),
    ("sim.clamped_posts", "count"),
    ("repl.run_s", "s"),
    ("repl.commit_p50_us", "us"),
    ("repl.commit_mean_us", "us"),
    ("core.sync_s", "s"),
    ("core.syncs", "count"),
    ("pcie.store_s", "s"),
    ("pcie.stores", "count"),
    ("ssd.write_s", "s"),
    ("ssd.writes", "count"),
    ("ssd.read_s", "s"),
    ("ssd.reads", "count"),
    ("pcie.mmio_write_8b_us", "us"),
    ("pcie.mmio_read_4k_us", "us"),
    ("core.read_dma_4k_us", "us"),
    ("ssd.read_4k_us.dc", "us"),
    ("ssd.read_4k_us.ull", "us"),
    ("ssd.write_us.dc", "us"),
    ("ssd.write_us.ull", "us"),
    ("ssd.write_p99_us", "us"),
    ("ssd.read_p99_us", "us"),
    ("ssd.read_gc_share", "frac"),
    ("core.ba_commit_p99_us", "us"),
    ("ftl.gc_page_moves", "count"),
    ("ftl.erases", "count"),
    ("ftl.waf", "x"),
];

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Simulated operations attempted.
    pub attempted: u64,
    /// Operations that failed: device or engine errors, unreleased
    /// commits, and ops a failed output check covers.
    pub failed: u64,
    /// Operations the admission layer refused (shed) by design.
    pub refused: u64,
    checks: Vec<(String, bool)>,
    /// Every round's set-up time, measured rate and reference time.
    pub rounds: Rounds,
    /// Fold of the workload's modelled outputs.
    pub model_digest: u64,
    /// Mean relative error against the paper's figures, percent.
    pub paper_err_pct: f64,
    layer: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Outcome {
    /// Records a named output check; a failure counts one failed op.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.check_ops(name, u64::from(!ok));
    }

    /// Records a named output check that `bad` ops failed.
    pub fn check_ops(&mut self, name: &str, bad: u64) {
        self.failed += bad;
        self.checks.push((name.to_string(), bad == 0));
    }

    /// Sets a per-layer metric; the name must be in [`LAYER_METRICS`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let &(declared, _) = LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared layer metric {name}"));
        self.layer.insert(declared, value);
    }

    /// Adds a human-readable line to the report.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Prints the report: human-readable lines, then the JSON result line.
    pub fn print(&mut self, workload: &str, cfg: &RunCfg) {
        let nproc = nproc();
        let threads = par_threads();
        self.layer("host.nproc", nproc as f64);
        self.layer("host.par_threads", threads as f64);
        self.layer(
            "host.threads_le_cores",
            f64::from(u8::from(threads <= nproc)),
        );
        let fail_frac = (self.failed + self.refused) as f64 / self.attempted.max(1) as f64;
        self.layer("workloads.fail_frac", fail_frac);
        let adaptive = self
            .layer
            .get("sim.drive_s.adaptive")
            .copied()
            .unwrap_or(0.0);
        let parallel = self
            .layer
            .get("sim.drive_s.parallel")
            .copied()
            .unwrap_or(0.0);
        if adaptive > 0.0 && parallel > 0.0 {
            self.layer("sim.par_speedup", adaptive / parallel);
        }
        let r = &self.rounds;
        let (ref_ms, raw_rate, raw_setup) = (r.ref_s() * 1e3, r.raw_ops_per_s(), r.raw_setup_s());
        let (untraced, traced, setup_s) = (r.ops_per_s(false), r.ops_per_s(true), r.setup_s());
        let (rounds, traced_rounds) = (r.0.len(), r.0.iter().filter(|x| x.traced).count());
        self.layer("host.ref_ms", ref_ms);
        self.layer("host.sim_ops_per_s_raw", raw_rate);
        self.layer("host.setup_s_raw", raw_setup);
        if cfg.trace {
            self.layer("trace.ops_per_s_untraced", untraced);
            self.layer("trace.ops_per_s_traced", traced);
            self.layer("trace.overhead_frac", 1.0 - traced / untraced);
            self.layer("trace.spans", trace::span_count() as f64);
        }

        println!(
            "workload: {workload}  seed: {}  trace: {}",
            cfg.seed,
            u8::from(cfg.trace)
        );
        println!(
            "host: nproc={nproc} parallel_drive={} threads_le_cores={}",
            drive_label(threads),
            threads <= nproc
        );
        for line in &self.lines {
            println!("{line}");
        }
        println!("model_digest: {:016x}", self.model_digest);
        for (name, ok) in &self.checks {
            println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
        }
        println!(
            "fail_frac: {fail_frac} frac  (failed {} + refused {} of {} attempted)",
            self.failed, self.refused, self.attempted
        );
        println!(
            "rounds: {rounds} measured ({traced_rounds} traced); reference {ref_ms:.3} ms (nominal {:.3}); raw ops/s {raw_rate:.0}, raw set-up {raw_setup:.6} s",
            REF_NOMINAL_S * 1e3,
        );

        let mut metrics: Vec<(String, f64, &str)> = Vec::new();
        if cfg.trace {
            for &(name, unit) in LAYER_METRICS {
                let value = self.layer.get(name).copied().unwrap_or(0.0);
                metrics.push((name.to_string(), value, unit));
            }
        } else {
            metrics.push(("sim_ops_per_s".into(), untraced, "1/s"));
            metrics.push(("setup_s".into(), setup_s, "s"));
            metrics.push(("paper_err_pct".into(), self.paper_err_pct, "%"));
        }
        for (name, value, unit) in &metrics {
            println!("metric {name} = {value} {unit}");
        }
        let correct =
            self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok);
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Reference-kernel time that defines the reference host speed: the fast
/// state of the 2-vCPU machine the benchmark was tuned on.
const REF_NOMINAL_S: f64 = 0.004;

/// Fixed host work owned by the benchmark and independent of the program
/// under test (hashing, a B-tree, sorting, small allocations, as the
/// simulator does). Its time after each round measures how fast the host
/// runs at that moment; returns host seconds.
fn reference() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map = std::collections::HashMap::new();
    let mut tree = BTreeMap::new();
    let mut bufs: Vec<Vec<u8>> = Vec::new();
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, i);
        tree.insert(x % 30_000, i);
        if i % 4 == 0 {
            bufs.push(vec![x as u8; 64 + (x % 2048) as usize]);
        }
        if bufs.len() > 256 {
            bufs.swap_remove((x % 256) as usize);
        }
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    std::hint::black_box((keys, tree.len(), bufs.len()));
    t0.elapsed().as_secs_f64()
}

/// One round: host seconds of set-up, simulated ops per host second of
/// the measured part, and host seconds of the reference kernel after it.
pub struct Round {
    setup_s: f64,
    rate: f64,
    ref_s: f64,
    traced: bool,
}

/// Every round of a run.
///
/// The host this benchmark runs on changes speed by up to ~1.5× over tens
/// of seconds, for the program and the reference kernel alike. The
/// reported rate and set-up time are therefore scaled, round by round, to
/// the reference host speed: `rate × ref_s / REF_NOMINAL_S` and
/// `setup_s × REF_NOMINAL_S / ref_s` — simulated ops per second, and
/// seconds, of a host on which the reference kernel takes 4 ms. The raw
/// values are reported beside them.
#[derive(Default)]
pub struct Rounds(Vec<Round>);

impl Rounds {
    /// Median scaled simulated ops per host second of the untraced (or
    /// traced) rounds.
    pub fn ops_per_s(&self, traced: bool) -> f64 {
        let v: Vec<f64> = self
            .0
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.rate * r.ref_s / REF_NOMINAL_S)
            .collect();
        median(&v)
    }

    /// Median scaled set-up seconds.
    pub fn setup_s(&self) -> f64 {
        let v: Vec<f64> = self
            .0
            .iter()
            .map(|r| r.setup_s * REF_NOMINAL_S / r.ref_s)
            .collect();
        median(&v)
    }

    fn raw_ops_per_s(&self) -> f64 {
        let v: Vec<f64> = self
            .0
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.rate)
            .collect();
        median(&v)
    }

    fn raw_setup_s(&self) -> f64 {
        median(&self.0.iter().map(|r| r.setup_s).collect::<Vec<_>>())
    }

    fn ref_s(&self) -> f64 {
        median(&self.0.iter().map(|r| r.ref_s).collect::<Vec<_>>())
    }
}

/// Runs rounds until the measuring budget is spent: each round calls
/// `setup` (timed as set-up, never traced), then `body` on what it built
/// (timed as measured work, traced in the traced phase). `body` returns
/// the simulated ops it completed; then the reference kernel runs. A
/// traced run spends half its budget untraced and half traced, so the
/// tracing overhead is measured.
pub fn rounds<S>(
    cfg: &RunCfg,
    mut setup: impl FnMut(u64) -> S,
    mut body: impl FnMut(S, u64) -> u64,
) -> Rounds {
    let phases = if cfg.trace {
        vec![(false, cfg.seconds / 2), (true, cfg.seconds / 2)]
    } else {
        vec![(false, cfg.seconds)]
    };
    let mut out = Rounds::default();
    let mut round = 0u64;
    for (traced, budget) in phases {
        let wall_cap = budget * 3 + Duration::from_secs(15);
        let start = Instant::now();
        let mut measured = Duration::ZERO;
        let mut n = 0;
        while (measured < budget || n < MIN_ROUNDS) && start.elapsed() < wall_cap {
            let t0 = Instant::now();
            let state = setup(round);
            let setup_s = t0.elapsed().as_secs_f64();
            trace::set_request(round);
            trace::set_enabled(traced);
            let t1 = Instant::now();
            let ops = body(state, round);
            let dt = t1.elapsed();
            trace::set_enabled(false);
            measured += dt;
            n += 1;
            round += 1;
            out.0.push(Round {
                setup_s,
                rate: ops as f64 / dt.as_secs_f64(),
                ref_s: reference(),
                traced,
            });
        }
    }
    out
}

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads requested for a parallel drive: one per core, at most 2 — the
/// load generator is one process using at most two threads.
pub fn par_threads() -> usize {
    nproc().min(2)
}

/// How a parallel drive with `threads` threads is labelled: a drive that
/// falls back to one thread is not called parallel.
pub fn drive_label(threads: usize) -> String {
    if threads >= 2 {
        format!("par{threads}")
    } else {
        "par1 (one thread: not parallel)".into()
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// FNV-1a-style fold for model digests.
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
}

/// Digest seed.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
