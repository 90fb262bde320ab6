//! `campaign`: an in-process campaign store, one worker and a merge on
//! as-released ext4-DAX.
//!
//! The spec is the default one (seq-2 step 3, cap 2) on ext4-DAX plus a
//! fuzz budget whose fuzzer seed comes from the benchmark seed. Untraced
//! passes keep the store in memory (see [`crate::host_io`] for why). A
//! traced pass runs the campaign twice with timed host I/O: in memory,
//! which gives the tracing overhead and the runner timings, and in a fresh
//! directory on the real disk ([`disk_store`]), which gives the host-I/O
//! layer. Both must merge the document the untraced passes merge. The
//! checker kinds are built inside the campaign runner, so the campaign
//! reports no `fs.*` layer timings.

use std::{
    path::{Path, PathBuf},
    sync::Arc,
    time::Instant,
};

use bench::{
    campaign::{
        hostio::{HostCtx, HostIo, PassthroughIo, StoreError},
        runner::{self, Merged, RunOpts, WorkerSummary},
        store::CampaignStore,
        wire::COUNTER_NAMES,
        CampaignSpec,
    },
    dispatch,
};
use vfs::{fs::FsOptions, BugSet, FsName, Workload};

use crate::{
    fnv,
    host_io::{MemIo, TimedIo, IO_CLASSES},
    proc, replay, replay_layers, secs, splitmix, Pass,
};

/// Fuzzer workloads in the campaign.
pub const FUZZ_BUDGET: u64 = 64;
/// Merged-document fingerprint at seed 0.
const FINGERPRINT: u64 = 0x4825_4fd1_0547_32fc;
/// Every `REPLAY_STRIDE`-th ACE workload is replayed through the crash
/// generator on traced passes.
const REPLAY_STRIDE: usize = 16;

/// The campaign spec for `seed`.
pub fn spec(seed: u64) -> CampaignSpec {
    let default = CampaignSpec::default();
    CampaignSpec {
        fs: FsName::Ext4Dax,
        fuzz_budget: FUZZ_BUDGET,
        fuzz_seed: if seed == 0 {
            default.fuzz_seed
        } else {
            splitmix(seed)
        },
        ..default
    }
}

fn counter(totals: &[u64; 20], name: &str) -> u64 {
    COUNTER_NAMES
        .iter()
        .position(|&n| n == name)
        .map_or(0, |i| totals[i])
}

/// Where the in-memory store lives.
const STORE: &str = "/campaign-store";

/// Where a traced pass keeps its on-disk store: beside the benchmark
/// binary, inside the build directory.
pub fn disk_store() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_default()
        .join("perfbench-campaign-store")
}

/// The set-up: the ACE population and a fresh store at `dir` over `io`.
fn prepare(
    spec: &CampaignSpec,
    io: Arc<dyn HostIo>,
    dir: &Path,
) -> (Vec<Workload>, Result<CampaignStore, StoreError>) {
    let ace = spec.ace_workloads();
    let store = CampaignStore::open_or_init_with(dir, spec, HostCtx::with_io(io));
    (ace, store)
}

/// Times one set-up alone.
pub fn setup(seed: u64) -> f64 {
    let t = Instant::now();
    let prepared = prepare(&spec(seed), Arc::new(MemIo::default()), Path::new(STORE));
    let s = secs(t);
    drop(prepared);
    s
}

/// A completed campaign: the worker summary, the merge and the store's
/// I/O retries.
type Done = (WorkerSummary, Merged, u64);

/// One campaign: set-up, worker and merge, timed.
struct Run {
    setup_s: f64,
    worker_s: f64,
    merge_s: f64,
    wall_s: f64,
    cpu_s: f64,
    ace: Vec<Workload>,
    /// The completed campaign, or why it failed.
    result: Result<Done, String>,
}

fn run(spec: &CampaignSpec, io: Arc<dyn HostIo>, dir: &Path) -> Run {
    let t0 = Instant::now();
    let (ace, store) = prepare(spec, io, dir);
    let setup_s = secs(t0);
    let store = match store {
        Ok(s) => s,
        Err(e) => {
            return Run {
                setup_s,
                worker_s: 0.0,
                merge_s: 0.0,
                wall_s: 0.0,
                cpu_s: 0.0,
                ace,
                result: Err(format!("store init failed: {e:?}")),
            }
        }
    };
    let opts = RunOpts {
        worker_id: "perfbench".into(),
        ..RunOpts::default()
    };

    let cpu0 = proc::cpu_s();
    let t1 = Instant::now();
    let sum = runner::run_worker(&store, &opts);
    let worker_s = secs(t1);
    let t2 = Instant::now();
    let merged = runner::merge(&store);
    let merge_s = secs(t2);
    let wall_s = secs(t1);
    let cpu_s = proc::cpu_s() - cpu0;
    let result = match (sum, merged) {
        (Ok(s), Ok(m)) => Ok((s, m, store.io.io_retries())),
        (s, m) => Err(format!(
            "campaign failed: worker {:?}, merge {:?}",
            s.err(),
            m.err()
        )),
    };
    Run {
        setup_s,
        worker_s,
        merge_s,
        wall_s,
        cpu_s,
        ace,
        result,
    }
}

/// Checks one campaign's outputs into `pass`; returns its result when it
/// completed. `first_doc` carries the first merge's document digest: every
/// campaign of one run must merge the byte-identical document.
fn check<'a>(
    pass: &mut Pass,
    r: &'a Run,
    seed: u64,
    units: u64,
    first_doc: &mut Option<u64>,
) -> Option<&'a Done> {
    let done = match &r.result {
        Ok(done) => done,
        Err(e) => {
            pass.fail(units, e.clone());
            return None;
        }
    };
    let (sum, merged, _) = done;
    if sum.tasks_abandoned > 0 {
        pass.fail(
            sum.tasks_abandoned,
            format!("{} tasks abandoned", sum.tasks_abandoned),
        );
    }
    let want = r.ace.len() as u64 + FUZZ_BUDGET;
    if merged.workloads != want {
        pass.fail(
            1,
            format!("merged {} workloads, expected {want}", merged.workloads),
        );
    }
    if seed == 0 && merged.fingerprint != FINGERPRINT {
        pass.fail(
            1,
            format!(
                "merged fingerprint {:#x}, expected {FINGERPRINT:#x}",
                merged.fingerprint
            ),
        );
    }
    let doc = fnv(0, merged.doc.as_bytes());
    if *first_doc.get_or_insert(doc) != doc {
        pass.fail(
            1,
            "merged document differs between campaigns of one seed".into(),
        );
    }
    Some(done)
}

/// Runs one campaign pass, traced or not (a traced pass also runs the
/// campaign on the real disk).
pub fn pass(seed: u64, traced: bool, first_doc: &mut Option<u64>) -> Pass {
    let spec = spec(seed);
    let units = spec.total_tasks() as u64;
    let timed_io = Arc::new(TimedIo::default());
    let io: Arc<dyn HostIo> = if traced {
        timed_io.clone()
    } else {
        Arc::new(MemIo::default())
    };
    let r = run(&spec, io, Path::new(STORE));
    let mut pass = Pass {
        setup_s: r.setup_s,
        wall_s: r.wall_s,
        cpu_s: r.cpu_s,
        threads: 1,
        units,
        ..Pass::default()
    };
    let Some((_, merged, _)) = check(&mut pass, &r, seed, units, first_doc) else {
        return pass;
    };

    pass.states = counter(&merged.totals, "crash_states");
    pass.outcome
        .insert("fingerprint".into(), merged.fingerprint);
    pass.outcome
        .insert("doc_digest".into(), fnv(0, merged.doc.as_bytes()));
    pass.outcome.insert("workloads".into(), merged.workloads);
    pass.outcome.insert("reports".into(), merged.reports);
    for (name, v) in COUNTER_NAMES.iter().zip(merged.totals) {
        pass.outcome.insert((*name).into(), v);
    }

    let states = pass.states.max(1) as f64;
    for (metric, name) in [
        ("dedup.hit_ratio", "dedup_hits"),
        ("memo.hit_ratio", "memo_hits"),
        ("rep.skip_ratio", "rep_skipped"),
    ] {
        pass.layer(metric, counter(&merged.totals, name) as f64 / states);
    }
    for (metric, name) in [
        ("rep.expansions", "rep_expansions"),
        ("prefix.hits", "prefix_hits"),
        ("prefix.op_reuse", "prefix_ops_saved"),
        ("sched.subtrees", "sched_subtrees"),
        ("oracle.subtrees_pruned", "oracle_subtrees_pruned"),
        ("sandbox.retries", "sandbox_retries"),
        ("sandbox.fuel_exhausted", "fuel_exhausted"),
    ] {
        pass.layer(metric, counter(&merged.totals, name) as f64);
    }
    pass.layer("campaign.worker_s", r.worker_s);
    pass.layer("campaign.merge_s", r.merge_s);
    if traced {
        disk_layers(&mut pass, &spec, seed, units, first_doc);
        let mut acc = replay::ReplayTotals::default();
        let sample: Vec<Workload> = r.ace.iter().step_by(REPLAY_STRIDE).cloned().collect();
        let opts = FsOptions::with_bugs(BugSet::as_released());
        dispatch(
            spec.fs,
            opts,
            replay::Sample {
                ws: &sample,
                cfg: spec.ace_cfg(1),
                acc: &mut acc,
            },
        );
        replay_layers(&mut pass, &acc);
    }
    pass
}

/// Runs the campaign in a fresh store on the real disk with timed host I/O
/// and fills the host-I/O layer from it.
fn disk_layers(
    pass: &mut Pass,
    spec: &CampaignSpec,
    seed: u64,
    units: u64,
    first_doc: &mut Option<u64>,
) {
    let dir = disk_store();
    let _ = std::fs::remove_dir_all(&dir);
    let io = Arc::new(TimedIo::over(PassthroughIo));
    let r = run(spec, io.clone(), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    pass.units += units;
    let Some((_, merged, retries)) = check(pass, &r, seed, units, first_doc) else {
        return;
    };
    for (class, calls, busy) in IO_CLASSES {
        let t = io.totals(class);
        pass.layer(calls, t.calls as f64);
        pass.layer(busy, t.busy_s);
    }
    let bytes = io.bytes_written() as f64;
    pass.layer("hostio.write.bytes", bytes);
    pass.layer("hostio.write_amp", bytes / merged.doc.len().max(1) as f64);
    pass.layer("hostio.retries", *retries as f64);
}
