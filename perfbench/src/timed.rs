//! A timing [`FsKind`] wrapper, built like `vfs::ChaosKind`.
//!
//! [`TimedKind`] forwards every factory call to the wrapped kind and wraps
//! each instance in a [`TimedFs`] that times every [`FileSystem`] call. Calls
//! are attributed by *lineage*:
//!
//! * instances from `mkfs` (and their forks) run the oracle and recorded
//!   executions: every call counts as [`Layer::Exec`];
//! * instances from `mount` are crash states under check: `mount` itself is
//!   [`Layer::Mount`], read-only calls are the tree walk ([`Layer::Walk`]),
//!   and the first mutating call starts the usability probe, after which
//!   every call counts as [`Layer::Probe`].
//!
//! `fork_fs` is forwarded, so the prefix cache stays live exactly when it
//! would on the bare kind. The counters are process-global atomics, summed
//! across worker threads.

use std::{
    sync::atomic::{AtomicU64, Ordering},
    time::Instant,
};

use pmem::PmBackend;
use vfs::{
    fs::{FsOptions, Guarantees},
    DirEntry, FallocMode, Fd, FileSystem, FsKind, FsName, FsResult, Metadata, OpenFlags,
};

/// The checker and executor layers the wrapper tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `mkfs` plus every call on a recording/oracle instance.
    Exec,
    /// `mount` (crash recovery) of a crash state.
    Mount,
    /// Read-only calls on a mounted crash state before the probe.
    Walk,
    /// Calls of the usability probe on a mounted crash state.
    Probe,
}

const LAYERS: usize = 4;

struct Counter {
    calls: AtomicU64,
    nanos: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Counter = Counter {
    calls: AtomicU64::new(0),
    nanos: AtomicU64::new(0),
};
static COUNTERS: [Counter; LAYERS] = [ZERO; LAYERS];

fn record(layer: Layer, start: Instant) {
    let c = &COUNTERS[layer as usize];
    c.calls.fetch_add(1, Ordering::Relaxed);
    c.nanos
        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Calls and summed busy time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Calls made.
    pub calls: u64,
    /// Busy seconds, summed across worker threads.
    pub busy_s: f64,
}

/// Per-layer totals since the last [`reset`], indexed by [`Layer`].
pub fn totals() -> [LayerTotals; LAYERS] {
    std::array::from_fn(|i| LayerTotals {
        calls: COUNTERS[i].calls.load(Ordering::Relaxed),
        busy_s: COUNTERS[i].nanos.load(Ordering::Relaxed) as f64 / 1e9,
    })
}

/// Zeroes every layer counter.
pub fn reset() {
    for c in &COUNTERS {
        c.calls.store(0, Ordering::Relaxed);
        c.nanos.store(0, Ordering::Relaxed);
    }
}

/// An [`FsKind`] whose instances time every call (see the module docs).
#[derive(Clone)]
pub struct TimedKind<K> {
    inner: K,
}

impl<K: FsKind> TimedKind<K> {
    /// Wraps `inner`.
    pub fn new(inner: K) -> Self {
        TimedKind { inner }
    }
}

impl<K: FsKind> FsKind for TimedKind<K> {
    type Fs<D: PmBackend> = TimedFs<K::Fs<D>>;

    fn name(&self) -> FsName {
        self.inner.name()
    }

    fn options(&self) -> &FsOptions {
        self.inner.options()
    }

    fn with_options(&self, opts: FsOptions) -> Self {
        TimedKind {
            inner: self.inner.with_options(opts),
        }
    }

    fn guarantees(&self) -> Guarantees {
        self.inner.guarantees()
    }

    fn mkfs<D: PmBackend>(&self, dev: D) -> FsResult<Self::Fs<D>> {
        let t = Instant::now();
        let r = self.inner.mkfs(dev);
        record(Layer::Exec, t);
        r.map(|inner| TimedFs {
            inner,
            recovered: false,
            probing: false,
        })
    }

    fn mount<D: PmBackend>(&self, dev: D) -> FsResult<Self::Fs<D>> {
        let t = Instant::now();
        let r = self.inner.mount(dev);
        record(Layer::Mount, t);
        r.map(|inner| TimedFs {
            inner,
            recovered: true,
            probing: false,
        })
    }

    fn fork_fs<D: PmBackend + Clone>(&self, fs: &Self::Fs<D>) -> Option<Self::Fs<D>> {
        let inner = self.inner.fork_fs(&fs.inner)?;
        Some(TimedFs {
            inner,
            recovered: fs.recovered,
            probing: fs.probing,
        })
    }
}

/// A file-system instance that times each call into its lineage's layer.
pub struct TimedFs<F> {
    inner: F,
    recovered: bool,
    probing: bool,
}

impl<F> TimedFs<F> {
    fn read_layer(&self) -> Layer {
        match (self.recovered, self.probing) {
            (false, _) => Layer::Exec,
            (true, false) => Layer::Walk,
            (true, true) => Layer::Probe,
        }
    }

    fn write_layer(&mut self) -> Layer {
        if self.recovered {
            self.probing = true;
            Layer::Probe
        } else {
            Layer::Exec
        }
    }
}

macro_rules! timed_mut {
    ($self:ident, $call:expr) => {{
        let layer = $self.write_layer();
        let t = Instant::now();
        let r = $call;
        record(layer, t);
        r
    }};
}

macro_rules! timed_ref {
    ($self:ident, $call:expr) => {{
        let layer = $self.read_layer();
        let t = Instant::now();
        let r = $call;
        record(layer, t);
        r
    }};
}

impl<F: FileSystem> FileSystem for TimedFs<F> {
    fn creat(&mut self, path: &str) -> FsResult<()> {
        timed_mut!(self, self.inner.creat(path))
    }
    fn open(&mut self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        timed_mut!(self, self.inner.open(path, flags))
    }
    fn close(&mut self, fd: Fd) -> FsResult<()> {
        timed_mut!(self, self.inner.close(fd))
    }
    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        timed_mut!(self, self.inner.mkdir(path))
    }
    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        timed_mut!(self, self.inner.rmdir(path))
    }
    fn unlink(&mut self, path: &str) -> FsResult<()> {
        timed_mut!(self, self.inner.unlink(path))
    }
    fn link(&mut self, old: &str, new: &str) -> FsResult<()> {
        timed_mut!(self, self.inner.link(old, new))
    }
    fn rename(&mut self, old: &str, new: &str) -> FsResult<()> {
        timed_mut!(self, self.inner.rename(old, new))
    }
    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        timed_mut!(self, self.inner.truncate(path, size))
    }
    fn fallocate(&mut self, fd: Fd, mode: FallocMode, off: u64, len: u64) -> FsResult<()> {
        timed_mut!(self, self.inner.fallocate(fd, mode, off, len))
    }
    fn write(&mut self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        timed_mut!(self, self.inner.write(fd, data))
    }
    fn pwrite(&mut self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        timed_mut!(self, self.inner.pwrite(fd, off, data))
    }
    fn pread(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        timed_ref!(self, self.inner.pread(fd, off, buf))
    }
    fn fsync(&mut self, fd: Fd) -> FsResult<()> {
        timed_mut!(self, self.inner.fsync(fd))
    }
    fn fdatasync(&mut self, fd: Fd) -> FsResult<()> {
        timed_mut!(self, self.inner.fdatasync(fd))
    }
    fn sync(&mut self) -> FsResult<()> {
        timed_mut!(self, self.inner.sync())
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        timed_ref!(self, self.inner.stat(path))
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        timed_ref!(self, self.inner.readdir(path))
    }
    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        timed_ref!(self, self.inner.read_file(path))
    }
    fn setxattr(&mut self, path: &str, name: &str, value: &[u8]) -> FsResult<()> {
        timed_mut!(self, self.inner.setxattr(path, name, value))
    }
    fn removexattr(&mut self, path: &str, name: &str) -> FsResult<()> {
        timed_mut!(self, self.inner.removexattr(path, name))
    }
    fn set_cpu(&mut self, cpu: usize) {
        self.inner.set_cpu(cpu)
    }
}
