//! Per-state crash-generation costs, measured by replaying recorded logs
//! through the public `chipmunk::crashgen` API.
//!
//! Each sampled workload is recorded once on a logging device. At every
//! store fence with in-flight writes, the subsets the checker would visit
//! are enumerated and three loops over them are timed separately: building
//! the image ([`SubsetWalker::goto`]), dedup keying ([`state_key`]) and the
//! behavioural signature ([`SigCache::sig`]). Timing whole loops keeps
//! clock reads out of the per-state figures.

use std::{hint::black_box, time::Instant};

use bench::WithKind;
use chipmunk::{
    crashgen::{coalesce, enumerate_subsets, state_key, PendingWrite, SigCache, SubsetWalker},
    exec::Executor,
    TestConfig,
};
use pmem::PmDevice;
use pmlog::{LogEntry, LogHandle, LoggingPm, Marker, OpRecord};
use vfs::{FsKind, Workload};

/// Summed replay costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTotals {
    /// Crash states enumerated.
    pub states: u64,
    /// Nanoseconds spent building images.
    pub image_ns: u64,
    /// Nanoseconds spent computing dedup keys.
    pub key_ns: u64,
    /// Nanoseconds spent computing behavioural signatures.
    pub sig_ns: u64,
}

impl ReplayTotals {
    /// Per-state nanoseconds for image build, keying and signatures.
    pub fn per_state(&self) -> [f64; 3] {
        let n = self.states.max(1) as f64;
        [
            self.image_ns as f64 / n,
            self.key_ns as f64 / n,
            self.sig_ns as f64 / n,
        ]
    }
}

/// Records `w` on `kind` and replays its crash points into `acc`.
pub fn replay_workload<K: FsKind>(
    kind: &K,
    w: &Workload,
    cfg: &TestConfig,
    acc: &mut ReplayTotals,
) {
    let log = LogHandle::new();
    let Ok(mut fs) = kind.mkfs(LoggingPm::new(PmDevice::new(cfg.device_size), log.clone())) else {
        return;
    };
    let mut ex = Executor::new();
    for (seq, op) in w.ops.iter().enumerate() {
        log.marker(Marker::SyscallBegin(OpRecord {
            seq,
            desc: op.describe(),
        }));
        let r = ex.exec(&mut fs, op, seq);
        log.marker(Marker::SyscallEnd {
            seq,
            ok: r.result.is_ok(),
        });
    }
    drop(fs);
    let log = log.take();

    let mut base = vec![0u8; cfg.device_size as usize];
    let mut base_key = pmem::image_key(&base);
    let mut pending: Vec<PendingWrite> = Vec::new();
    let mut absorbed: Vec<PendingWrite> = Vec::new();
    let mut started = false;
    for e in log.entries() {
        match e {
            LogEntry::Marker(Marker::SyscallBegin(_)) => {
                started = true;
                absorbed.clear();
            }
            LogEntry::Fence => {
                let writes = if cfg.coalesce_data {
                    coalesce(&pending)
                } else {
                    pending.clone()
                };
                if started && !writes.is_empty() {
                    replay_point(&base, base_key, &writes, &absorbed, cfg, acc);
                }
                for w in pending.drain(..) {
                    let range = w.off as usize..w.off as usize + w.data.len();
                    base_key ^= pmem::write_delta(w.off, &base[range.clone()], &w.data);
                    base[range].copy_from_slice(&w.data);
                }
                absorbed.extend(writes);
            }
            e => pending.extend(PendingWrite::from_entry(e)),
        }
    }
}

fn replay_point(
    base: &[u8],
    base_key: pmem::ImageKey,
    writes: &[PendingWrite],
    absorbed: &[PendingWrite],
    cfg: &TestConfig,
    acc: &mut ReplayTotals,
) {
    let subsets = enumerate_subsets(writes.len(), cfg.cap, cfg.max_states_per_point);
    acc.states += subsets.len() as u64;

    let mut walker = SubsetWalker::new(base, base_key);
    let t = Instant::now();
    for s in &subsets {
        walker.goto(writes, s);
        black_box(walker.key());
    }
    acc.image_ns += t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    for s in &subsets {
        black_box(state_key(writes, s));
    }
    acc.key_ns += t.elapsed().as_nanos() as u64;

    let sigs = SigCache::new(writes, absorbed, false);
    let t = Instant::now();
    for s in &subsets {
        black_box(sigs.sig(s));
    }
    acc.sig_ns += t.elapsed().as_nanos() as u64;
}

/// Replays a sample of workloads on the kind `bench::dispatch` builds.
pub struct Sample<'a> {
    /// The workloads.
    pub ws: &'a [Workload],
    /// The checking config whose cap and coalescing the replay follows.
    pub cfg: TestConfig,
    /// Where the costs accumulate.
    pub acc: &'a mut ReplayTotals,
}

impl WithKind for Sample<'_> {
    type Out = ();

    fn call<K: FsKind>(self, kind: K) {
        for w in self.ws {
            replay_workload(&kind, w, &self.cfg, self.acc);
        }
    }
}
