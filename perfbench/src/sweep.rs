//! `sweep`: every ACE seq-1 + seq-2 strong workload on bug-free NOVA under
//! the default `TestConfig`, scheduled as one batch through
//! `bench::run_batch_cached` with a prefix-tree `Scheduler`.
//!
//! The seed shuffles the batch. The scheduler's plan is a pure function of
//! the workloads' op keys, so every counter is seed-independent and checked
//! exactly at every seed.

use std::time::Instant;

use bench::{dispatch, run_batch_cached, Scheduler, WithKind};
use chipmunk::TestConfig;
use vfs::{fs::FsOptions, FsKind, FsName, Workload};
use workloads::ace::{seq1, seq2, AceMode};

use crate::{fs_layers, proc, replay, replay_layers, secs, shuffle, timed, Pass, Totals};

/// Workloads in the sweep.
pub const WORKLOADS: u64 = 3192;
/// Crash states the sweep commits.
pub const STATES: u64 = 196_860;
/// Crash states served from the dedup cache.
pub const DEDUP_HITS: u64 = 57_695;

/// Every `REPLAY_STRIDE`-th workload (in canonical order) is replayed
/// through the crash generator on traced passes.
const REPLAY_STRIDE: usize = 16;

/// The sweep's workloads in canonical order.
pub fn workloads() -> Vec<Workload> {
    seq1(AceMode::Strong)
        .into_iter()
        .chain(seq2(AceMode::Strong))
        .collect()
}

/// The sweep's checking config at `threads` workers.
pub fn config(threads: usize) -> TestConfig {
    TestConfig::default().with_threads(threads)
}

/// Runs one sweep pass, traced or not.
pub fn pass(seed: u64, threads: usize, traced: bool) -> Pass {
    dispatch(
        FsName::Nova,
        FsOptions::fixed(),
        SweepPass {
            seed,
            threads,
            traced,
        },
    )
}

struct SweepPass {
    seed: u64,
    threads: usize,
    traced: bool,
}

impl WithKind for SweepPass {
    type Out = Pass;

    fn call<K: FsKind>(self, kind: K) -> Pass {
        if self.traced {
            timed::reset();
            run(&timed::TimedKind::new(kind), &self)
        } else {
            run(&kind, &self)
        }
    }
}

/// The set-up: the shuffled batch and a fresh scheduler.
fn prepare<K: FsKind>(kind: &K, seed: u64, cfg: &TestConfig) -> (Vec<Workload>, Scheduler<K>) {
    let mut batch = workloads();
    shuffle(&mut batch, seed);
    (batch, Scheduler::new(kind, cfg))
}

/// Times one set-up alone.
pub fn setup(seed: u64, threads: usize) -> f64 {
    struct Setup(u64, usize);
    impl WithKind for Setup {
        type Out = f64;

        fn call<K: FsKind>(self, kind: K) -> f64 {
            let t = Instant::now();
            let prepared = prepare(&kind, self.0, &config(self.1));
            let s = secs(t);
            drop(prepared);
            s
        }
    }
    dispatch(FsName::Nova, FsOptions::fixed(), Setup(seed, threads))
}

/// Runs `batch` as one scheduled batch, returning the summed outcomes and
/// the number of workloads that reported a violation.
pub fn run_suite<K: FsKind>(
    kind: &K,
    batch: &[Workload],
    cfg: &TestConfig,
    sched: &mut Scheduler<K>,
) -> (Totals, u64) {
    let mut t = Totals::default();
    let mut failed = 0;
    for (out, _cov) in run_batch_cached(kind, batch, cfg, Some(sched)) {
        failed += u64::from(!out.reports.is_empty());
        t.add(&out);
    }
    (t, failed)
}

fn run<K: FsKind>(kind: &K, p: &SweepPass) -> Pass {
    let cfg = config(p.threads);
    let t0 = Instant::now();
    let (batch, mut sched) = prepare(kind, p.seed, &cfg);
    let setup_s = secs(t0);

    let cpu0 = proc::cpu_s();
    let t1 = Instant::now();
    let (t, failed) = run_suite(kind, &batch, &cfg, &mut sched);
    let wall_s = secs(t1);
    let cpu_s = proc::cpu_s() - cpu0;

    let mut pass = Pass {
        setup_s,
        wall_s,
        cpu_s,
        busy_s: t.busy_s(),
        threads: p.threads,
        states: t.states,
        units: t.workloads,
        ..Pass::default()
    };
    if failed > 0 {
        pass.fail(
            failed,
            format!("{failed} workloads reported violations on fixed NOVA"),
        );
    }
    for (what, got, want) in [
        ("workloads", t.workloads, WORKLOADS),
        ("crash states", t.states, STATES),
        ("dedup hits", t.dedup, DEDUP_HITS),
    ] {
        if got != want {
            pass.fail(1, format!("sweep {what}: got {got}, expected {want}"));
        }
    }
    t.outcome("", &mut pass.outcome);
    t.layers(&mut pass);
    pass.layer("sched.subtrees", sched.subtrees as f64);
    let hits = &sched.per_worker_hits;
    let mean = hits.iter().sum::<u64>() as f64 / hits.len().max(1) as f64;
    let max = hits.iter().copied().max().unwrap_or(0) as f64;
    pass.layer("sched.imbalance", if mean > 0.0 { max / mean } else { 1.0 });
    pass.layer("sched.idle_s", p.threads as f64 * wall_s - t.busy_s());
    if p.traced {
        fs_layers(&mut pass, &t);
        let mut r = replay::ReplayTotals::default();
        let canonical = workloads();
        for w in canonical.iter().step_by(REPLAY_STRIDE) {
            replay::replay_workload(kind, w, &cfg, &mut r);
        }
        replay_layers(&mut pass, &r);
    }
    pass
}
