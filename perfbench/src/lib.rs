//! The chipmunk-rs benchmark: three workloads (`sweep`, `hunts`,
//! `campaign`) driven through the release library API, each measured end to
//! end and, in traced passes, layer by layer. See `README.md` for the
//! workload rationale and the metric → layer → workload table.
//!
//! A *pass* is one complete unit of a workload's work: set-up (timed on its
//! own), the measured run, and the output checks. The runner in `main.rs`
//! repeats passes for the requested time and reports medians.

use std::collections::BTreeMap;

pub mod campaign;
pub mod host_io;
pub mod hunts;
pub mod proc;
pub mod replay;
pub mod sweep;
pub mod timed;

/// What one pass produced.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Set-up seconds: generating workloads, initialising schedulers or the
    /// store.
    pub setup_s: f64,
    /// Wall seconds of the measured run.
    pub wall_s: f64,
    /// Process user+sys seconds during the measured run.
    pub cpu_s: f64,
    /// Oracle + record + check seconds, summed across workers (0 where the
    /// library does not report them).
    pub busy_s: f64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Committed crash states.
    pub states: u64,
    /// Units attempted (workloads, hunts or tasks).
    pub units: u64,
    /// Units that failed (worker failure, run error, missed hunt, or a
    /// failed output check).
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// Outcome counters and report digests that must not depend on tracing
    /// (compared between traced and untraced passes).
    pub outcome: BTreeMap<String, u64>,
    /// Per-layer metrics by name. Outcome-derived entries are filled on
    /// every pass, wrapper timings only on traced passes.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Records an output-check failure that fails `units` units.
    pub fn fail(&mut self, units: u64, why: String) {
        self.failed += units;
        self.problems.push(why);
    }

    /// Sets a per-layer metric (its unit is in [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// The unit of summed per-worker busy time, so it is never mistaken for
/// wall time.
pub const WORKER_S: &str = "worker-s";

/// Every per-layer metric the traced run reports, with its unit. Layers a
/// workload never runs report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("oracle.busy_s", WORKER_S),
    ("record.busy_s", WORKER_S),
    ("fs.exec.calls", "count"),
    ("fs.exec.busy_s", WORKER_S),
    ("prefix.hits", "count"),
    ("prefix.op_reuse", "count"),
    ("fs.mount.calls", "count"),
    ("fs.mount.busy_s", WORKER_S),
    ("check.mounts_per_state", "ratio"),
    ("fs.walk.calls", "count"),
    ("fs.walk.busy_s", WORKER_S),
    ("fs.probe.calls", "count"),
    ("fs.probe.busy_s", WORKER_S),
    ("check.busy_s", WORKER_S),
    ("check.self_s", WORKER_S),
    ("crashgen.image_ns", "ns"),
    ("crashgen.key_ns", "ns"),
    ("crashgen.sig_ns", "ns"),
    ("dedup.hit_ratio", "ratio"),
    ("memo.hit_ratio", "ratio"),
    ("rep.skip_ratio", "ratio"),
    ("rep.expansions", "count"),
    ("oracle.subtrees_pruned", "count"),
    ("sched.subtrees", "count"),
    ("sched.imbalance", "ratio"),
    ("sched.idle_s", WORKER_S),
    ("sandbox.retries", "count"),
    ("sandbox.fuel_exhausted", "count"),
    ("hostio.write.calls", "count"),
    ("hostio.write.busy_s", "s"),
    ("hostio.append.calls", "count"),
    ("hostio.append.busy_s", "s"),
    ("hostio.read.calls", "count"),
    ("hostio.read.busy_s", "s"),
    ("hostio.meta.calls", "count"),
    ("hostio.meta.busy_s", "s"),
    ("hostio.write.bytes", "bytes"),
    ("hostio.write_amp", "ratio"),
    ("hostio.retries", "count"),
    ("campaign.worker_s", "s"),
    ("campaign.merge_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Summed per-workload outcome counters, shared by the sweep and the hunts.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// Workloads committed.
    pub workloads: u64,
    /// Crash states committed.
    pub states: u64,
    /// Dedup-cache hits.
    pub dedup: u64,
    /// Cross-point memo hits.
    pub memo: u64,
    /// States skipped by representative checking.
    pub rep_skipped: u64,
    /// Representative-class expansions.
    pub rep_expansions: u64,
    /// Prefix-cache resumes.
    pub prefix_hits: u64,
    /// Oracle + record ops skipped by prefix resumes.
    pub prefix_ops_saved: u64,
    /// Sandbox re-checks.
    pub sandbox_retries: u64,
    /// Verdicts involving an exhausted fuel budget.
    pub fuel_exhausted: u64,
    /// Hash-pruned oracle comparisons.
    pub pruned: u64,
    /// Violation reports.
    pub reports: u64,
    /// FNV-1a digest of every report's debug rendering, in commit order.
    pub report_digest: u64,
    /// Oracle seconds, summed across workers.
    pub oracle_s: f64,
    /// Record seconds, summed across workers.
    pub record_s: f64,
    /// Check seconds, summed across workers.
    pub check_s: f64,
}

impl Totals {
    /// Adds one committed workload outcome.
    pub fn add(&mut self, out: &chipmunk::TestOutcome) {
        self.workloads += 1;
        self.states += out.crash_states;
        self.dedup += out.dedup_hits;
        self.memo += out.memo_hits;
        self.rep_skipped += out.rep_skipped;
        self.rep_expansions += out.rep_expansions;
        self.prefix_hits += out.prefix_hits;
        self.prefix_ops_saved += out.prefix_ops_saved;
        self.sandbox_retries += out.sandbox_retries;
        self.fuel_exhausted += out.fuel_exhausted;
        self.pruned += out.oracle_subtrees_pruned;
        self.reports += out.reports.len() as u64;
        for r in &out.reports {
            self.report_digest = fnv(self.report_digest, format!("{r:?}").as_bytes());
        }
        self.oracle_s += out.timing.oracle.as_secs_f64();
        self.record_s += out.timing.record.as_secs_f64();
        self.check_s += out.timing.check.as_secs_f64();
    }

    /// Adds another total (counters and timings).
    pub fn merge(&mut self, o: &Totals) {
        self.workloads += o.workloads;
        self.states += o.states;
        self.dedup += o.dedup;
        self.memo += o.memo;
        self.rep_skipped += o.rep_skipped;
        self.rep_expansions += o.rep_expansions;
        self.prefix_hits += o.prefix_hits;
        self.prefix_ops_saved += o.prefix_ops_saved;
        self.sandbox_retries += o.sandbox_retries;
        self.fuel_exhausted += o.fuel_exhausted;
        self.pruned += o.pruned;
        self.reports += o.reports;
        self.report_digest = fnv(self.report_digest, &o.report_digest.to_le_bytes());
        self.oracle_s += o.oracle_s;
        self.record_s += o.record_s;
        self.check_s += o.check_s;
    }

    /// Oracle + record + check seconds, summed across workers.
    pub fn busy_s(&self) -> f64 {
        self.oracle_s + self.record_s + self.check_s
    }

    /// The tracing-independent counters, by name.
    pub fn outcome(&self, prefix: &str, into: &mut BTreeMap<String, u64>) {
        for (k, v) in [
            ("workloads", self.workloads),
            ("states", self.states),
            ("dedup", self.dedup),
            ("memo", self.memo),
            ("rep_skipped", self.rep_skipped),
            ("rep_expansions", self.rep_expansions),
            ("prefix_hits", self.prefix_hits),
            ("prefix_ops_saved", self.prefix_ops_saved),
            ("sandbox_retries", self.sandbox_retries),
            ("fuel_exhausted", self.fuel_exhausted),
            ("pruned", self.pruned),
            ("reports", self.reports),
            ("report_digest", self.report_digest),
        ] {
            into.insert(format!("{prefix}{k}"), v);
        }
    }

    /// Fills the outcome-derived per-layer metrics.
    pub fn layers(&self, pass: &mut Pass) {
        let states = self.states.max(1) as f64;
        pass.layer("oracle.busy_s", self.oracle_s);
        pass.layer("record.busy_s", self.record_s);
        pass.layer("check.busy_s", self.check_s);
        pass.layer("prefix.hits", self.prefix_hits as f64);
        pass.layer("prefix.op_reuse", self.prefix_ops_saved as f64);
        pass.layer("dedup.hit_ratio", self.dedup as f64 / states);
        pass.layer("memo.hit_ratio", self.memo as f64 / states);
        pass.layer("rep.skip_ratio", self.rep_skipped as f64 / states);
        pass.layer("rep.expansions", self.rep_expansions as f64);
        pass.layer("oracle.subtrees_pruned", self.pruned as f64);
        pass.layer("sandbox.retries", self.sandbox_retries as f64);
        pass.layer("sandbox.fuel_exhausted", self.fuel_exhausted as f64);
    }
}

/// Fills the wrapper-timed per-layer metrics from [`timed::totals`], and
/// `check.self_s` as check time minus mount, walk and probe time.
pub fn fs_layers(pass: &mut Pass, t: &Totals) {
    use timed::Layer;
    let l = timed::totals();
    let get = |x: Layer| l[x as usize];
    for (layer, calls, busy) in [
        (Layer::Exec, "fs.exec.calls", "fs.exec.busy_s"),
        (Layer::Mount, "fs.mount.calls", "fs.mount.busy_s"),
        (Layer::Walk, "fs.walk.calls", "fs.walk.busy_s"),
        (Layer::Probe, "fs.probe.calls", "fs.probe.busy_s"),
    ] {
        pass.layer(calls, get(layer).calls as f64);
        pass.layer(busy, get(layer).busy_s);
    }
    let mount = get(Layer::Mount);
    pass.layer(
        "check.mounts_per_state",
        mount.calls as f64 / t.states.max(1) as f64,
    );
    let checker = mount.busy_s + get(Layer::Walk).busy_s + get(Layer::Probe).busy_s;
    pass.layer("check.self_s", t.check_s - checker);
}

/// Fills the crash-generation per-state costs.
pub fn replay_layers(pass: &mut Pass, r: &replay::ReplayTotals) {
    let [image, key, sig] = r.per_state();
    pass.layer("crashgen.image_ns", image);
    pass.layer("crashgen.key_ns", key);
    pass.layer("crashgen.sig_ns", sig);
}

/// FNV-1a over `bytes`, continuing from `h` (0 starts a fresh chain).
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's only source of seeded randomness.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..v.len()).rev() {
        s = splitmix(s);
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
}

/// Seconds since `t`.
pub fn secs(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
