//! `hunts`: figure3's hunt set at one thread. Each unique bug is enabled
//! alone and hunted by ACE (stop on first find) and by the fuzzer (crash
//! state cap 2, no prefix cache).
//!
//! Untraced passes call the release hunt API (`bench::hunt_with_ace`,
//! `bench::hunt_with_fuzzer`). Traced passes run the same hunt loops from
//! this file on a [`TimedKind`], through the same public batch runners, so
//! a traced pass must commit exactly the counters and reports the library
//! hunts do.
//!
//! The workload is deterministic and ignores the benchmark seed. The fuzzer
//! seeds are figure3's, so time-to-find stays comparable from run to run
//! (with other fuzzer seeds one hunt's time-to-find moves by seconds), and
//! the hunts run in figure3's order (a shuffled order moves the peak memory
//! by 15 % through allocator fragmentation). Every hunt is checked exactly.

use std::{
    collections::{BTreeMap, HashSet},
    time::Instant,
};

use bench::{
    dispatch, hunt_with_ace, hunt_with_fuzzer, mode_for, run_batch, run_batch_cached,
    sched_batch_len, HuntResult, Scheduler, WithKind,
};
use chipmunk::TestConfig;
use vfs::{bugs::bug_table, fs::FsOptions, BugId, BugSet, Cov, FsKind, Workload};
use workloads::{
    ace::{seq1, seq2, seq3_metadata, AceMode},
    fuzz::{FuzzConfig, Fuzzer},
};

use crate::{fnv, fs_layers, proc, replay, replay_layers, secs, timed, Pass, Totals};

/// Fuzzer workloads each fuzz hunt may spend.
pub const FUZZ_BUDGET: u64 = 2000;
/// seq-3 metadata workloads each strong-system ACE hunt may sample.
const MAX_SEQ3: usize = 400;
/// Workloads per fuzzer batch, as in the library's fuzz hunt.
const FUZZ_BATCH: usize = 8;

/// A hunt frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// ACE, stop on first find.
    Ace,
    /// The fuzzer.
    Fuzz,
}

/// One hunt of the plan.
#[derive(Debug, Clone, Copy)]
pub struct Hunt {
    /// The bug, enabled alone.
    pub bug: BugId,
    /// The frontend hunting it.
    pub frontend: Frontend,
    /// Fuzzer seed (fuzz hunts only).
    pub fuzz_seed: u64,
}

/// Expected `(bug, frontend, workloads, states, class)` of every hunt.
const EXPECTED: &[(u32, Frontend, u64, u64, &str)] = &[
    (1, Frontend::Ace, 1, 1, "unmountable"),
    (1, Frontend::Fuzz, 1, 1, "unmountable"),
    (2, Frontend::Ace, 1, 8, "corrupt-state"),
    (2, Frontend::Fuzz, 1, 8, "corrupt-state"),
    (3, Frontend::Ace, 16, 433, "unmountable"),
    (3, Frontend::Fuzz, 1, 56, "unmountable"),
    (4, Frontend::Ace, 40, 1409, "atomicity"),
    (4, Frontend::Fuzz, 2, 138, "atomicity"),
    (5, Frontend::Ace, 41, 1460, "atomicity"),
    (5, Frontend::Fuzz, 8, 617, "atomicity"),
    (6, Frontend::Ace, 23, 697, "atomicity"),
    (6, Frontend::Fuzz, 70, 5681, "atomicity"),
    (7, Frontend::Ace, 893, 48510, "atomicity"),
    (7, Frontend::Fuzz, 6, 500, "atomicity"),
    (8, Frontend::Ace, 792, 42836, "atomicity"),
    (8, Frontend::Fuzz, 233, 19273, "atomicity"),
    (9, Frontend::Ace, 35, 1734, "corrupt-state"),
    (9, Frontend::Fuzz, 5, 500, "corrupt-state"),
    (10, Frontend::Ace, 8, 261, "unusable"),
    (10, Frontend::Fuzz, 1, 68, "unusable"),
    (11, Frontend::Ace, 449, 32495, "unusable"),
    (11, Frontend::Fuzz, 23, 2573, "unusable"),
    (12, Frontend::Ace, 893, 68525, "corrupt-state"),
    (12, Frontend::Fuzz, 40, 4342, "corrupt-state"),
    (13, Frontend::Ace, 35, 5309, "unmountable"),
    (13, Frontend::Fuzz, 4, 447, "unmountable"),
    (14, Frontend::Ace, 462, 101558, "synchrony"),
    (14, Frontend::Fuzz, 4, 771, "synchrony"),
    (16, Frontend::Ace, 3, 271, "atomicity"),
    (16, Frontend::Fuzz, 1, 65, "unmountable"),
    (17, Frontend::Ace, 14, 1849, "synchrony"),
    (17, Frontend::Fuzz, 1, 167, "synchrony"),
    (19, Frontend::Fuzz, 15, 1045, "atomicity"),
    (20, Frontend::Fuzz, 2, 180, "atomicity"),
    (21, Frontend::Ace, 1, 3, "synchrony"),
    (21, Frontend::Fuzz, 1, 3, "synchrony"),
    (22, Frontend::Fuzz, 11, 654, "synchrony"),
    (23, Frontend::Fuzz, 166, 11734, "atomicity"),
    (24, Frontend::Ace, 10, 46, "atomicity"),
    (24, Frontend::Fuzz, 1, 9, "atomicity"),
    (25, Frontend::Ace, 785, 14290, "synchrony"),
    (25, Frontend::Fuzz, 1, 36, "atomicity"),
];

/// The hunt plan: one ACE hunt (where ACE can find it) and one fuzz hunt
/// per unique bug, in figure3's order.
pub fn plan() -> Vec<Hunt> {
    let mut groups = std::collections::BTreeSet::new();
    let mut hunts = Vec::new();
    for info in bug_table().iter().filter(|b| groups.insert(b.fix_group)) {
        if info.ace_findable {
            hunts.push(Hunt {
                bug: info.id,
                frontend: Frontend::Ace,
                fuzz_seed: 0,
            });
        }
        let fuzz_seed = 0xf16 + info.id.number() as u64;
        hunts.push(Hunt {
            bug: info.id,
            frontend: Frontend::Fuzz,
            fuzz_seed,
        });
    }
    hunts
}

/// Generates the seq-1 and seq-2 ACE streams of the hunted systems' modes:
/// the hunts' workload-generation cost. (The library hunts generate their
/// streams internally, so the benchmark times the same generation here.)
fn generate(hunts: &[Hunt]) -> usize {
    let mut modes: Vec<AceMode> = Vec::new();
    for h in hunts {
        let m = mode_for(h.bug.info().fs);
        if !modes.contains(&m) {
            modes.push(m);
        }
    }
    modes.iter().map(|&m| seq1(m).len() + seq2(m).count()).sum()
}

/// The result of one hunt, from either path.
#[derive(Debug, Default)]
struct Found {
    /// `Some((class, report digest))` on a find.
    hit: Option<(String, u64)>,
    workloads: u64,
    states: u64,
    /// The workload that triggered the find.
    workload: Option<Workload>,
    totals: Totals,
}

impl Found {
    fn outcome(&self, prefix: &str, into: &mut BTreeMap<String, u64>) {
        self.totals.outcome(prefix, into);
        into.insert(format!("{prefix}workloads_examined"), self.workloads);
        into.insert(format!("{prefix}states_examined"), self.states);
        into.insert(
            format!("{prefix}digest"),
            self.hit.as_ref().map_or(0, |x| x.1),
        );
    }
}

fn ace_cfg() -> TestConfig {
    TestConfig {
        stop_on_first: true,
        ..TestConfig::default()
    }
    .with_threads(1)
}

fn fuzz_cfg() -> TestConfig {
    TestConfig::fuzzing().with_threads(1)
}

fn from_library(r: (Option<HuntResult>, u64, u64)) -> Found {
    let (hit, workloads, states) = r;
    let mut f = Found {
        workloads,
        states,
        ..Found::default()
    };
    if let Some(h) = hit {
        f.hit = Some((
            h.class.clone(),
            fnv(0, format!("{:?}", h.report).as_bytes()),
        ));
        f.workload = Some(h.workload.clone());
        let t = &mut f.totals;
        t.workloads = h.workloads;
        t.states = h.states;
        t.dedup = h.dedup_hits;
        t.memo = h.memo_hits;
        t.rep_skipped = h.rep_skipped;
        t.rep_expansions = h.rep_expansions;
        t.prefix_hits = h.prefix_hits;
        t.prefix_ops_saved = h.prefix_ops_saved;
        t.sandbox_retries = h.sandbox_retries;
        t.fuel_exhausted = h.fuel_exhausted;
        t.pruned = h.oracle_subtrees_pruned;
        t.oracle_s = h.phase.oracle.as_secs_f64();
        t.record_s = h.phase.record.as_secs_f64();
        t.check_s = h.phase.check.as_secs_f64();
    }
    f
}

/// Runs one hunt through the library (untraced) or this file's loops on a
/// timed kind (traced).
fn run_hunt(h: &Hunt, traced: bool) -> Found {
    let opts = FsOptions::with_bugs(BugSet::only(&[h.bug]));
    match (h.frontend, traced) {
        (Frontend::Ace, false) => from_library(hunt_with_ace(h.bug, &ace_cfg(), MAX_SEQ3)),
        (Frontend::Fuzz, false) => from_library(hunt_with_fuzzer(
            h.bug,
            &fuzz_cfg(),
            h.fuzz_seed,
            FUZZ_BUDGET,
        )),
        (Frontend::Ace, true) => dispatch(h.bug.info().fs, opts, TracedAce),
        (Frontend::Fuzz, true) => {
            let opts = FsOptions {
                cov: Cov::enabled(),
                ..opts
            };
            dispatch(h.bug.info().fs, opts, TracedFuzz { seed: h.fuzz_seed })
        }
    }
}

/// The tracing-independent outcome of one hunt: its counters, how far it
/// searched and a digest of its first report.
pub fn hunt_outcome(h: &Hunt, traced: bool) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    run_hunt(h, traced).outcome("", &mut m);
    m
}

/// Times one set-up alone: the hunt plan and its ACE workload streams.
pub fn setup() -> f64 {
    let t = Instant::now();
    std::hint::black_box(generate(&plan()));
    secs(t)
}

/// Runs one hunt pass, traced or not. After each hunt one more set-up is
/// timed into `setups`, so that the set-up samples spread over the pass as
/// the hunts do. Wall and CPU time cover the hunts alone.
pub fn pass(traced: bool, setups: &mut Vec<f64>) -> Pass {
    let setup_s = setup();
    let hunts = plan();

    if traced {
        timed::reset();
    }
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let mut found = Vec::with_capacity(hunts.len());
    for h in &hunts {
        let cpu0 = proc::cpu_s();
        let t = Instant::now();
        found.push(run_hunt(h, traced));
        wall_s += secs(t);
        cpu_s += proc::cpu_s() - cpu0;
        setups.push(setup());
    }

    let mut total = Totals::default();
    let mut pass = Pass {
        setup_s,
        wall_s,
        cpu_s,
        threads: 1,
        ..Pass::default()
    };
    for (h, f) in hunts.iter().zip(&found) {
        let key = format!("{}.{:?}.", h.bug.number(), h.frontend);
        pass.units += 1;
        pass.states += f.states;
        total.merge(&f.totals);
        f.outcome(&key, &mut pass.outcome);
        check(&mut pass, h, f);
    }
    pass.busy_s = total.busy_s();
    total.layers(&mut pass);
    pass.layer("sched.imbalance", 1.0);
    pass.layer("sched.idle_s", wall_s - total.busy_s());
    if traced {
        fs_layers(&mut pass, &total);
        let mut r = replay::ReplayTotals::default();
        for (h, f) in hunts.iter().zip(&found) {
            if let Some(w) = f.workload.as_ref() {
                let opts = FsOptions::with_bugs(BugSet::only(&[h.bug]));
                let ws = std::slice::from_ref(w);
                let cfg = match h.frontend {
                    Frontend::Ace => ace_cfg(),
                    Frontend::Fuzz => fuzz_cfg(),
                };
                let sample = replay::Sample {
                    ws,
                    cfg,
                    acc: &mut r,
                };
                dispatch(h.bug.info().fs, opts, sample);
            }
        }
        replay_layers(&mut pass, &r);
    }
    pass
}

fn check(pass: &mut Pass, h: &Hunt, f: &Found) {
    let n = h.bug.number();
    let Some((class, _)) = &f.hit else {
        pass.fail(1, format!("bug {n} {:?} hunt missed", h.frontend));
        return;
    };
    let want = EXPECTED.iter().find(|e| e.0 == n && e.1 == h.frontend);
    let Some(&(_, _, w, s, c)) = want else {
        pass.fail(
            1,
            format!(
                "no expected result recorded for ({n}, Frontend::{:?}, {}, {}, {class:?})",
                h.frontend, f.workloads, f.states
            ),
        );
        return;
    };
    if (f.workloads, f.states, class.as_str()) != (w, s, c) {
        pass.fail(
            1,
            format!(
                "bug {n} {:?}: found after {} workloads / {} states as {class}, expected {w} / {s} as {c}",
                h.frontend, f.workloads, f.states
            ),
        );
    }
}

/// The library's ACE hunt loop, on a timed kind.
struct TracedAce;

impl WithKind for TracedAce {
    type Out = Found;

    fn call<K: FsKind>(self, kind: K) -> Found {
        let kind = timed::TimedKind::new(kind);
        let cfg = ace_cfg();
        let mode = mode_for(kind.name());
        let seq3: Box<dyn Iterator<Item = Workload>> = if mode == AceMode::Strong {
            Box::new(seq3_metadata().step_by(37).take(MAX_SEQ3))
        } else {
            Box::new(std::iter::empty())
        };
        let mut stream = seq1(mode).into_iter().chain(seq2(mode)).chain(seq3);
        let mut sched = Scheduler::new(&kind, &cfg);
        let batch_len = sched_batch_len(cfg.threads, sched.is_active(), None);
        let mut f = Found::default();
        loop {
            let batch: Vec<Workload> = stream.by_ref().take(batch_len).collect();
            if batch.is_empty() {
                return f;
            }
            let results = run_batch_cached(&kind, &batch, &cfg, Some(&mut sched));
            if commit(&mut f, &batch, results.into_iter().map(|r| r.0)) {
                return f;
            }
        }
    }
}

/// The library's fuzz hunt loop, on a timed kind.
struct TracedFuzz {
    seed: u64,
}

impl WithKind for TracedFuzz {
    type Out = Found;

    fn call<K: FsKind>(self, kind: K) -> Found {
        let kind = timed::TimedKind::new(kind);
        let cfg = fuzz_cfg();
        let mut fuzzer = Fuzzer::new(self.seed, FuzzConfig::default());
        let mut seen = HashSet::new();
        let mut f = Found::default();
        while f.workloads < FUZZ_BUDGET {
            let n = FUZZ_BATCH.min((FUZZ_BUDGET - f.workloads) as usize);
            let batch: Vec<Workload> = (0..n).map(|_| fuzzer.next_workload()).collect();
            for (w, (out, cov)) in batch.iter().zip(run_batch(&kind, &batch, &cfg)) {
                let new = cov.iter().filter(|&&h| seen.insert(h)).count();
                fuzzer.feedback(w, new);
                if commit(&mut f, std::slice::from_ref(w), std::iter::once(out)) {
                    return f;
                }
            }
        }
        f
    }
}

/// Commits outcomes in order until the first report; returns whether one
/// was found.
fn commit(
    f: &mut Found,
    batch: &[Workload],
    outs: impl Iterator<Item = chipmunk::TestOutcome>,
) -> bool {
    for (w, out) in batch.iter().zip(outs) {
        f.workloads += 1;
        f.states += out.crash_states;
        f.totals.add(&out);
        if let Some(r) = out.reports.first() {
            f.hit = Some((
                r.violation.class().to_string(),
                fnv(0, format!("{r:?}").as_bytes()),
            ));
            f.workload = Some(w.clone());
            // The library sums only up to the find and keeps the first report.
            f.totals.reports = 0;
            f.totals.report_digest = 0;
            return true;
        }
    }
    false
}
