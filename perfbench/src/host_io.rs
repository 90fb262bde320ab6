//! Host I/O for the campaign store, plugged in through `HostCtx::with_io`.
//!
//! [`MemIo`] keeps the store's files in memory. On a 2-vCPU Xeon VM with an
//! ext4 disk, durable writes took about half of a campaign pass and their
//! latency changed by 2× from one run to the next, so a store on the real
//! disk cannot meet any run-to-run bound. In memory the campaign still runs
//! every store, journal, queue and merge call. [`TimedIo`] wraps either it
//! or `PassthroughIo` on the real disk and counts calls, busy time and
//! written bytes per kind of operation.

use std::{
    collections::{BTreeMap, BTreeSet},
    io,
    path::{Path, PathBuf},
    sync::{
        atomic::{AtomicU64, Ordering},
        Mutex, MutexGuard,
    },
    time::Instant,
};

use bench::campaign::hostio::HostIo;

/// Files and directories kept in memory.
#[derive(Default)]
pub struct MemIo {
    state: Mutex<MemTree>,
}

#[derive(Default)]
struct MemTree {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl MemIo {
    fn lock(&self) -> MutexGuard<'_, MemTree> {
        self.state
            .lock()
            .expect("no MemIo call panics while holding the lock")
    }
}

impl HostIo for MemIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.lock()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.lock().files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.lock()
            .files
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.lock();
        let bytes = s.files.remove(from).ok_or_else(|| not_found(from))?;
        s.files.insert(to.to_path_buf(), bytes);
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.lock()
            .files
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<bool> {
        let mut s = self.lock();
        if s.files.contains_key(path) {
            return Ok(false);
        }
        s.files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(true)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.lock()
            .dirs
            .extend(path.ancestors().map(Path::to_path_buf));
        Ok(())
    }
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut s = self.lock();
        let f = s.files.get_mut(path).ok_or_else(|| not_found(path))?;
        f.resize(len as usize, 0);
        Ok(())
    }
    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        Ok(self.lock().files.get(path).map(|f| f.len() as u64))
    }
    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        if self.lock().dirs.contains(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }
}

/// The host-I/O operation classes the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub enum IoClass {
    /// Whole-file writes (`write`, `create_new`).
    Write,
    /// Appends (journal checkpoints).
    Append,
    /// Whole-file reads.
    Read,
    /// Everything else: renames, removals, directory syncs, lengths.
    Meta,
}

/// Every class with its call-count and busy-time metric names.
pub const IO_CLASSES: [(IoClass, &str, &str); 4] = [
    (IoClass::Write, "hostio.write.calls", "hostio.write.busy_s"),
    (
        IoClass::Append,
        "hostio.append.calls",
        "hostio.append.busy_s",
    ),
    (IoClass::Read, "hostio.read.calls", "hostio.read.busy_s"),
    (IoClass::Meta, "hostio.meta.calls", "hostio.meta.busy_s"),
];

/// Counters of one [`IoClass`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IoTotals {
    /// Calls made.
    pub calls: u64,
    /// Busy seconds.
    pub busy_s: f64,
}

/// A timing [`HostIo`] over another one (by default a [`MemIo`]).
pub struct TimedIo {
    inner: Box<dyn HostIo>,
    calls: [AtomicU64; 4],
    nanos: [AtomicU64; 4],
    bytes_written: AtomicU64,
}

impl Default for TimedIo {
    fn default() -> Self {
        TimedIo::over(MemIo::default())
    }
}

impl TimedIo {
    /// Times every call into `inner`.
    pub fn over(inner: impl HostIo + 'static) -> Self {
        TimedIo {
            inner: Box::new(inner),
            calls: Default::default(),
            nanos: Default::default(),
            bytes_written: AtomicU64::new(0),
        }
    }

    fn timed<T>(
        &self,
        class: IoClass,
        f: impl FnOnce(&dyn HostIo) -> io::Result<T>,
    ) -> io::Result<T> {
        let t = Instant::now();
        let r = f(self.inner.as_ref());
        self.calls[class as usize].fetch_add(1, Ordering::Relaxed);
        self.nanos[class as usize].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn wrote(&self, bytes: &[u8]) {
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }

    /// Totals of one class.
    pub fn totals(&self, class: IoClass) -> IoTotals {
        IoTotals {
            calls: self.calls[class as usize].load(Ordering::Relaxed),
            busy_s: self.nanos[class as usize].load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Bytes passed to `write`, `append` and `create_new`.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }
}

impl HostIo for TimedIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(IoClass::Read, |io| io.read(path))
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.wrote(bytes);
        self.timed(IoClass::Write, |io| io.write(path, bytes))
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.wrote(bytes);
        self.timed(IoClass::Append, |io| io.append(path, bytes))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(IoClass::Meta, |io| io.rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(IoClass::Meta, |io| io.remove_file(path))
    }
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<bool> {
        self.wrote(bytes);
        self.timed(IoClass::Write, |io| io.create_new(path, bytes))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed(IoClass::Meta, |io| io.create_dir_all(path))
    }
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.timed(IoClass::Meta, |io| io.set_len(path, len))
    }
    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        self.timed(IoClass::Meta, |io| io.file_len(path))
    }
    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        self.timed(IoClass::Meta, |io| io.fsync_dir(path))
    }
}
