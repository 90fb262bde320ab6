//! The traced run must not change what it measures: on a slice of each
//! workload, traced and untraced runs commit identical outcome counters and
//! report digests, and the timing wrapper keeps the prefix cache exactly as
//! live as on the bare kind (SplitFS, which cannot fork, takes the same
//! fallback either way).

use std::{collections::BTreeMap, sync::Arc};

use bench::{
    campaign::{
        hostio::{HostCtx, PassthroughIo},
        runner,
        store::CampaignStore,
        CampaignSpec,
    },
    dispatch, Scheduler, WithKind,
};
use perfbench::{
    host_io::{IoClass, TimedIo},
    hunts::{hunt_outcome, Frontend, Hunt},
    sweep,
    timed::{self, Layer, TimedKind},
};
use vfs::{bugs::bug_table, fs::FsOptions, BugId, BugSet, FsKind, FsName, Workload};

/// A sweep-style scheduled batch run on the bare kind and on the timed kind.
struct Both<'a> {
    ws: &'a [Workload],
}

fn suite<K: FsKind>(kind: &K, ws: &[Workload]) -> BTreeMap<String, u64> {
    let cfg = sweep::config(2);
    let mut sched = Scheduler::new(kind, &cfg);
    let (t, _) = sweep::run_suite(kind, ws, &cfg, &mut sched);
    let mut m = BTreeMap::new();
    t.outcome("", &mut m);
    m
}

impl WithKind for Both<'_> {
    type Out = BTreeMap<String, u64>;

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        suite(&kind, self.ws)
    }
}

struct Timed<'a> {
    ws: &'a [Workload],
}

impl WithKind for Timed<'_> {
    type Out = BTreeMap<String, u64>;

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        suite(&TimedKind::new(kind), self.ws)
    }
}

fn mounts() -> u64 {
    timed::totals()[Layer::Mount as usize].calls
}

/// Runs `ws` on `fs` with `bugs`, untraced then traced, and returns both.
fn both(
    fs: FsName,
    bugs: BugSet,
    ws: &[Workload],
) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let plain = dispatch(fs, FsOptions::with_bugs(bugs), Both { ws });
    let before = mounts();
    let traced = dispatch(fs, FsOptions::with_bugs(bugs), Timed { ws });
    assert!(
        mounts() > before,
        "the traced run must go through the wrapper"
    );
    (plain, traced)
}

fn bug(n: u32) -> BugId {
    bug_table()
        .iter()
        .find(|b| b.id.number() == n)
        .expect("bug in the corpus")
        .id
}

#[test]
fn sweep_slice_is_unchanged_and_keeps_the_prefix_cache() {
    let ws: Vec<Workload> = sweep::workloads().into_iter().step_by(8).collect();
    let (plain, traced) = both(FsName::Nova, BugSet::fixed(), &ws);
    assert_eq!(plain, traced);
    assert!(
        plain["prefix_hits"] > 0,
        "the prefix cache must stay live: {plain:?}"
    );
    assert_eq!(plain["reports"], 0);
}

#[test]
fn bug_enabled_slice_reports_identically() {
    // PMFS with bug 14 enabled (ACE's first find is workload 462): reports
    // on the forking path.
    let ws: Vec<Workload> = sweep::workloads().into_iter().take(500).collect();
    let (plain, traced) = both(FsName::Pmfs, BugSet::only(&[bug(14)]), &ws);
    assert_eq!(plain, traced);
    assert!(
        plain["reports"] > 0,
        "the slice must exercise reports: {plain:?}"
    );
    assert!(plain["prefix_hits"] > 0);
}

#[test]
fn splitfs_takes_the_same_fallback() {
    // SplitFS cannot fork: both runs fall back to plain execution.
    let ws: Vec<Workload> = sweep::workloads().into_iter().take(400).collect();
    let (plain, traced) = both(FsName::SplitFs, BugSet::only(&[bug(24)]), &ws);
    assert_eq!(plain, traced);
    assert_eq!(plain["prefix_hits"], 0);
    assert!(
        plain["reports"] > 0,
        "the slice must exercise reports: {plain:?}"
    );
}

#[test]
fn traced_hunt_loops_match_the_library_hunts() {
    for (n, frontend) in [
        (14, Frontend::Ace),
        (24, Frontend::Ace),
        (22, Frontend::Fuzz),
        (14, Frontend::Fuzz),
    ] {
        let h = Hunt {
            bug: bug(n),
            frontend,
            fuzz_seed: 0xf16 + n as u64,
        };
        let plain = hunt_outcome(&h, false);
        assert_ne!(plain["digest"], 0, "bug {n} {frontend:?} must be found");
        assert_eq!(plain, hunt_outcome(&h, true), "bug {n} {frontend:?}");
    }
}

/// The timed stores, in memory and on the real disk, merge the
/// byte-identical document an untimed store on the real disk does.
#[test]
fn timed_host_io_merges_the_same_campaign() {
    let spec = CampaignSpec {
        fs: FsName::Ext4Dax,
        seq1_take: 12,
        seq2_step: 0,
        fuzz_budget: 8,
        batch: 6,
        bitmap_bits: 1 << 12,
        ..CampaignSpec::default()
    };
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-transparency");
    let _ = std::fs::remove_dir_all(&base);
    let io = Arc::new(TimedIo::default());
    let disk_io = Arc::new(TimedIo::over(PassthroughIo));
    let mut docs = Vec::new();
    for (name, ctx) in [
        ("plain", HostCtx::passthrough()),
        ("timed", HostCtx::with_io(io.clone())),
        ("timed-disk", HostCtx::with_io(disk_io.clone())),
    ] {
        let dir = base.join(name);
        let store = CampaignStore::open_or_init_with(&dir, &spec, ctx).expect("init store");
        let (_, merged) =
            runner::run_and_merge(&store, &runner::RunOpts::default()).expect("campaign");
        docs.push((merged.fingerprint, merged.doc));
    }
    let _ = std::fs::remove_dir_all(&base);
    assert_eq!(docs[0], docs[1]);
    assert_eq!(docs[0], docs[2]);
    for io in [io, disk_io] {
        assert!(io.totals(IoClass::Append).calls > 0);
        assert!(io.bytes_written() > 0);
    }
}
