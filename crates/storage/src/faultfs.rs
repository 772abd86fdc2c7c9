//! Deterministic storage fault injection behind a small VFS seam.
//!
//! The durable store talks to disk through the [`Vfs`] trait so the same
//! WAL/snapshot protocol runs against two backends:
//!
//! * [`DiskFs`] — the real filesystem (production path for `SET wal_dir`);
//! * [`FaultFs`] — an in-memory model with the crash semantics real disks
//!   have: per file it tracks `synced_len` (bytes guaranteed by a
//!   completed fsync) next to `len`, and a simulated crash keeps the
//!   synced prefix plus a *seeded* prefix of the unsynced bytes — a torn
//!   write at byte granularity.
//!
//! Fault decisions follow the PR 2 discipline: every decision is a pure
//! hash of `(seed, salt, site, counter)` (SplitMix64 finalizer, domain
//! separated by salt), never a draw from a shared stream, so a given
//! [`StorageFaultConfig`] always yields the same torn bytes, the same
//! dropped fsyncs, the same bit flips. Named crash points
//! (`wal:append`, `snapshot:rename`, ...) fire through [`Vfs::crash_site`]
//! calls placed at every write site of the durability protocol; after a
//! crash the filesystem is poisoned until the harness calls
//! [`FaultFs::reopen_after_crash`], which plays the role of the process
//! restart.

use fudj_types::{FudjError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Domain-separation salts for the decision hash.
const SALT_BIT_FLIP: u64 = 0x5354_4F52_4249_5431; // "STORBIT1"
const SALT_FSYNC: u64 = 0x5354_4F52_5359_4E43; // "STORSYNC"
const SALT_TORN: u64 = 0x5354_4F52_544F_524E; // "STORTORN"
const SALT_FLIP_POS: u64 = 0x5354_4F52_504F_5331; // "STORPOS1"

/// SplitMix64 finalizer — the same mixing discipline `fudj_exec::fault`
/// uses for its site hashes.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pure decision word for `(seed, salt, a, b)`.
fn site_word(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    mix(seed ^ salt ^ mix(a).rotate_left(17) ^ mix(b).rotate_left(43))
}

/// Map a decision word to `[0, 1)` and compare against a probability.
fn happens(word: u64, prob: f64) -> bool {
    if prob <= 0.0 {
        return false;
    }
    ((word >> 11) as f64 / (1u64 << 53) as f64) < prob
}

fn path_hash(path: &Path) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    path.hash(&mut h);
    h.finish()
}

/// Seeded fault schedule for the storage layer. Fully deterministic: two
/// runs with the same config and the same operation sequence inject the
/// same faults.
#[derive(Clone, Debug, PartialEq)]
pub struct StorageFaultConfig {
    /// Master seed for every decision hash.
    pub seed: u64,
    /// Probability an appended byte run gets one seeded bit flipped.
    pub bit_flip_prob: f64,
    /// Probability an fsync silently does nothing (the lying-disk model:
    /// it *claims* success but `synced_len` does not advance).
    pub drop_fsync_prob: f64,
    /// Crash on the `hit`-th execution (1-based) of the named site.
    pub crash_point: Option<(String, u64)>,
}

impl StorageFaultConfig {
    /// No faults at all.
    pub fn quiet(seed: u64) -> Self {
        StorageFaultConfig {
            seed,
            bit_flip_prob: 0.0,
            drop_fsync_prob: 0.0,
            crash_point: None,
        }
    }

    /// The `\chaos disk <seed>` profile: occasional bit flips and dropped
    /// fsyncs, no hard crash.
    pub fn chaos(seed: u64) -> Self {
        StorageFaultConfig {
            seed,
            bit_flip_prob: 0.02,
            drop_fsync_prob: 0.05,
            crash_point: None,
        }
    }

    /// Crash deterministically at the `hit`-th execution of `site`.
    pub fn crash_at(seed: u64, site: impl Into<String>, hit: u64) -> Self {
        StorageFaultConfig {
            seed,
            bit_flip_prob: 0.0,
            drop_fsync_prob: 0.0,
            crash_point: Some((site.into(), hit.max(1))),
        }
    }
}

/// Counters the fault layer feeds into `DurabilityStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VfsFaultCounters {
    /// Bit flips injected into appended bytes.
    pub bit_flips: u64,
    /// Fsyncs that silently did nothing.
    pub fsyncs_dropped: u64,
    /// Simulated crashes triggered.
    pub crashes: u64,
}

/// Minimal filesystem surface the durability protocol needs. Every
/// operation returns `FudjError::Storage` on real failures and
/// `FudjError::Crash` when the fault layer kills the "process".
pub trait Vfs: Send + Sync {
    /// Append bytes to a file (created if missing).
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()>;
    /// Create/overwrite a file with the given contents (no sync).
    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()>;
    /// Flush a file's contents to stable storage.
    fn sync(&self, path: &Path) -> Result<()>;
    /// Atomically rename a file.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;
    /// File names (not paths) in a directory; missing directory is empty.
    fn list(&self, dir: &Path) -> Result<Vec<String>>;
    /// Truncate a file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> Result<()>;
    /// Remove a file (missing file is not an error).
    fn remove(&self, path: &Path) -> Result<()>;
    /// Whether a file exists.
    fn exists(&self, path: &Path) -> bool;
    /// Create a directory (and parents).
    fn create_dir_all(&self, dir: &Path) -> Result<()>;
    /// Named crash point: the protocol layer calls this at every write
    /// site; a real filesystem ignores it, the fault layer may kill the
    /// process here.
    fn crash_site(&self, _site: &str) -> Result<()> {
        Ok(())
    }
    /// Fault counters (zero for real filesystems).
    fn fault_counters(&self) -> VfsFaultCounters {
        VfsFaultCounters::default()
    }
}

// ---------------------------------------------------------------------------
// Real disk.
// ---------------------------------------------------------------------------

/// The real filesystem. Keeps append handles cached so WAL appends and
/// fsyncs reuse one descriptor.
#[derive(Default)]
pub struct DiskFs {
    handles: Mutex<HashMap<PathBuf, File>>,
}

impl DiskFs {
    /// A fresh real-disk backend.
    pub fn new() -> Self {
        DiskFs::default()
    }

    fn io_err(op: &str, path: &Path, e: std::io::Error) -> FudjError {
        FudjError::Storage(format!("{op} {}: {e}", path.display()))
    }

    fn with_handle<T>(
        &self,
        path: &Path,
        f: impl FnOnce(&mut File) -> std::io::Result<T>,
    ) -> Result<T> {
        let mut handles = self.handles.lock();
        if !handles.contains_key(path) {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| Self::io_err("open", path, e))?;
            handles.insert(path.to_owned(), file);
        }
        let file = handles.get_mut(path).expect("just inserted");
        f(file).map_err(|e| Self::io_err("write", path, e))
    }

    fn drop_handle(&self, path: &Path) {
        self.handles.lock().remove(path);
    }
}

impl Vfs for DiskFs {
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.with_handle(path, |f| f.write_all(bytes))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.drop_handle(path);
        std::fs::write(path, bytes).map_err(|e| Self::io_err("write", path, e))
    }

    fn sync(&self, path: &Path) -> Result<()> {
        // Sync through the cached append handle when one exists (the WAL
        // hot path); otherwise open read-only just to fsync.
        {
            let mut handles = self.handles.lock();
            if let Some(f) = handles.get_mut(path) {
                return f.sync_data().map_err(|e| Self::io_err("fsync", path, e));
            }
        }
        File::open(path)
            .and_then(|f| f.sync_data())
            .map_err(|e| Self::io_err("fsync", path, e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.drop_handle(from);
        self.drop_handle(to);
        std::fs::rename(from, to).map_err(|e| Self::io_err("rename", from, e))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        std::fs::read(path).map_err(|e| Self::io_err("read", path, e))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(Self::io_err("list", dir, e)),
        };
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| Self::io_err("list", dir, e))?;
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        self.drop_handle(path);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| Self::io_err("open", path, e))?;
        file.set_len(len)
            .map_err(|e| Self::io_err("truncate", path, e))
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.drop_handle(path);
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io_err("remove", path, e)),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(|e| Self::io_err("mkdir", dir, e))
    }
}

// ---------------------------------------------------------------------------
// Simulated disk with crash semantics.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct FileState {
    data: Vec<u8>,
    /// Bytes guaranteed to survive a crash (covered by a completed fsync).
    synced_len: usize,
}

/// In-memory filesystem with fsync-aware crash semantics and seeded fault
/// injection. See the module docs for the model.
pub struct FaultFs {
    files: Mutex<HashMap<PathBuf, FileState>>,
    cfg: Mutex<StorageFaultConfig>,
    /// Monotone operation counter feeding the probability hashes.
    ops: AtomicU64,
    /// Per-site execution counts for crash-point matching.
    site_hits: Mutex<HashMap<String, u64>>,
    crashed: AtomicBool,
    bit_flips: AtomicU64,
    fsyncs_dropped: AtomicU64,
    crashes: AtomicU64,
}

impl FaultFs {
    /// A fresh simulated disk under the given fault schedule.
    pub fn new(cfg: StorageFaultConfig) -> Arc<Self> {
        Arc::new(FaultFs {
            files: Mutex::new(HashMap::new()),
            cfg: Mutex::new(cfg),
            ops: AtomicU64::new(0),
            site_hits: Mutex::new(HashMap::new()),
            crashed: AtomicBool::new(false),
            bit_flips: AtomicU64::new(0),
            fsyncs_dropped: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
        })
    }

    /// Replace the fault schedule (takes effect for subsequent ops).
    pub fn set_config(&self, cfg: StorageFaultConfig) {
        *self.cfg.lock() = cfg;
    }

    /// Whether a simulated crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Simulate the process restart after a crash: the poisoned flag
    /// clears, the crash point is disarmed (it already fired), and the
    /// surviving bytes are whatever the crash left behind.
    pub fn reopen_after_crash(&self) {
        self.crashed.store(false, Ordering::SeqCst);
        self.cfg.lock().crash_point = None;
    }

    fn guard(&self) -> Result<()> {
        if self.crashed() {
            return Err(FudjError::Crash("filesystem is down after crash".into()));
        }
        Ok(())
    }

    /// Kill the "process": every file keeps its synced prefix plus a
    /// seeded prefix of its unsynced bytes (the torn write).
    fn crash(&self, site: &str) -> FudjError {
        let seed = self.cfg.lock().seed;
        let crash_no = self.crashes.fetch_add(1, Ordering::SeqCst);
        let mut files = self.files.lock();
        for (path, state) in files.iter_mut() {
            let unsynced = state.data.len().saturating_sub(state.synced_len);
            let keep = if unsynced == 0 {
                0
            } else {
                (site_word(seed, SALT_TORN, path_hash(path), crash_no) % (unsynced as u64 + 1))
                    as usize
            };
            state.data.truncate(state.synced_len + keep);
        }
        self.crashed.store(true, Ordering::SeqCst);
        FudjError::Crash(format!("injected crash at {site}"))
    }

    /// Current fault counters.
    pub fn counters(&self) -> VfsFaultCounters {
        VfsFaultCounters {
            bit_flips: self.bit_flips.load(Ordering::SeqCst),
            fsyncs_dropped: self.fsyncs_dropped.load(Ordering::SeqCst),
            crashes: self.crashes.load(Ordering::SeqCst),
        }
    }
}

impl Vfs for FaultFs {
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.guard()?;
        let (seed, flip_prob) = {
            let cfg = self.cfg.lock();
            (cfg.seed, cfg.bit_flip_prob)
        };
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let mut written = bytes.to_vec();
        if !written.is_empty()
            && happens(
                site_word(seed, SALT_BIT_FLIP, path_hash(path), op),
                flip_prob,
            )
        {
            let pos_word = site_word(seed, SALT_FLIP_POS, path_hash(path), op);
            let bit = (pos_word % (written.len() as u64 * 8)) as usize;
            written[bit / 8] ^= 1 << (bit % 8);
            self.bit_flips.fetch_add(1, Ordering::SeqCst);
        }
        self.files
            .lock()
            .entry(path.to_owned())
            .or_default()
            .data
            .extend_from_slice(&written);
        Ok(())
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.guard()?;
        let mut files = self.files.lock();
        let state = files.entry(path.to_owned()).or_default();
        state.data = bytes.to_vec();
        state.synced_len = 0;
        Ok(())
    }

    fn sync(&self, path: &Path) -> Result<()> {
        self.guard()?;
        let (seed, drop_prob) = {
            let cfg = self.cfg.lock();
            (cfg.seed, cfg.drop_fsync_prob)
        };
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if happens(site_word(seed, SALT_FSYNC, path_hash(path), op), drop_prob) {
            // The lying disk: claims success, durability not advanced.
            self.fsyncs_dropped.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        if let Some(state) = self.files.lock().get_mut(path) {
            state.synced_len = state.data.len();
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.guard()?;
        let mut files = self.files.lock();
        let state = files.remove(from).ok_or_else(|| {
            FudjError::Storage(format!("rename: {} does not exist", from.display()))
        })?;
        files.insert(to.to_owned(), state);
        Ok(())
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.guard()?;
        self.files
            .lock()
            .get(path)
            .map(|s| s.data.clone())
            .ok_or_else(|| FudjError::Storage(format!("read {}: not found", path.display())))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        self.guard()?;
        let files = self.files.lock();
        let mut names: Vec<String> = files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        self.guard()?;
        if let Some(state) = self.files.lock().get_mut(path) {
            state.data.truncate(len as usize);
            state.synced_len = state.synced_len.min(len as usize);
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.guard()?;
        self.files.lock().remove(path);
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        !self.crashed() && self.files.lock().contains_key(path)
    }

    fn create_dir_all(&self, _dir: &Path) -> Result<()> {
        self.guard()
    }

    fn crash_site(&self, site: &str) -> Result<()> {
        self.guard()?;
        let armed = {
            let mut hits = self.site_hits.lock();
            let count = hits.entry(site.to_owned()).or_insert(0);
            *count += 1;
            let cfg = self.cfg.lock();
            matches!(&cfg.crash_point, Some((s, hit)) if s == site && *count == *hit)
        };
        if armed {
            return Err(self.crash(site));
        }
        Ok(())
    }

    fn fault_counters(&self) -> VfsFaultCounters {
        self.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PathBuf {
        PathBuf::from("/sim").join(name)
    }

    #[test]
    fn synced_bytes_survive_a_crash_unsynced_are_torn() {
        let fs = FaultFs::new(StorageFaultConfig::crash_at(7, "boom", 1));
        fs.append(&p("wal"), b"durable!").unwrap();
        fs.sync(&p("wal")).unwrap();
        fs.append(&p("wal"), b"in-flight-bytes").unwrap();
        let err = fs.crash_site("boom").unwrap_err();
        assert!(matches!(err, FudjError::Crash(_)));
        assert!(fs.crashed());
        fs.reopen_after_crash();
        let bytes = fs.read(&p("wal")).unwrap();
        assert!(bytes.starts_with(b"durable!"), "synced prefix intact");
        assert!(bytes.len() <= b"durable!in-flight-bytes".len());
        // Same seed ⇒ same torn length.
        let fs2 = FaultFs::new(StorageFaultConfig::crash_at(7, "boom", 1));
        fs2.append(&p("wal"), b"durable!").unwrap();
        fs2.sync(&p("wal")).unwrap();
        fs2.append(&p("wal"), b"in-flight-bytes").unwrap();
        let _ = fs2.crash_site("boom");
        fs2.reopen_after_crash();
        assert_eq!(fs2.read(&p("wal")).unwrap(), bytes, "deterministic tear");
    }

    #[test]
    fn crash_point_counts_hits() {
        let fs = FaultFs::new(StorageFaultConfig::crash_at(1, "site", 3));
        assert!(fs.crash_site("site").is_ok());
        assert!(fs.crash_site("other").is_ok());
        assert!(fs.crash_site("site").is_ok());
        assert!(fs.crash_site("site").is_err(), "third hit fires");
        assert!(fs.append(&p("x"), b"y").is_err(), "poisoned after crash");
    }

    #[test]
    fn dropped_fsyncs_do_not_advance_durability() {
        // Append, fsync (or not), crash: the bytes that survive, and how
        // many fsyncs the disk dropped.
        let crash_after = |drop_fsync_prob: f64, sync: bool| {
            let fs = FaultFs::new(StorageFaultConfig {
                seed: 99,
                bit_flip_prob: 0.0,
                drop_fsync_prob,
                crash_point: Some(("boom".into(), 1)),
            });
            fs.append(&p("wal"), b"claimed-durable").unwrap();
            if sync {
                fs.sync(&p("wal")).unwrap();
            }
            let _ = fs.crash_site("boom");
            fs.reopen_after_crash();
            (fs.read(&p("wal")).unwrap(), fs.counters().fsyncs_dropped)
        };
        let (lied, dropped) = crash_after(1.0, true);
        assert_eq!(dropped, 1);
        let (never_synced, _) = crash_after(1.0, false);
        assert_eq!(lied, never_synced, "the dropped fsync advanced nothing");
        let (honest, dropped) = crash_after(0.0, true);
        assert_eq!(dropped, 0);
        assert_eq!(honest, b"claimed-durable", "a kept fsync keeps every byte");
        assert!(lied.len() < honest.len(), "seed 99 tears the unsynced tail");
    }

    #[test]
    fn bit_flips_are_seeded_and_counted() {
        let cfg = StorageFaultConfig {
            seed: 5,
            bit_flip_prob: 1.0,
            drop_fsync_prob: 0.0,
            crash_point: None,
        };
        let fs = FaultFs::new(cfg.clone());
        fs.append(&p("f"), b"aaaaaaaa").unwrap();
        assert_eq!(fs.counters().bit_flips, 1);
        let flipped = fs.read(&p("f")).unwrap();
        assert_ne!(flipped, b"aaaaaaaa".to_vec());
        // One bit differs.
        let diff: u32 = flipped
            .iter()
            .zip(b"aaaaaaaa")
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
        let fs2 = FaultFs::new(cfg);
        fs2.append(&p("f"), b"aaaaaaaa").unwrap();
        assert_eq!(fs2.read(&p("f")).unwrap(), flipped, "deterministic flip");
    }

    #[test]
    fn rename_and_list_model_a_directory() {
        let fs = FaultFs::new(StorageFaultConfig::quiet(1));
        fs.write_file(&p("a.tmp"), b"x").unwrap();
        fs.rename(&p("a.tmp"), &p("a")).unwrap();
        assert!(fs.exists(&p("a")));
        assert!(!fs.exists(&p("a.tmp")));
        assert_eq!(fs.list(Path::new("/sim")).unwrap(), vec!["a".to_string()]);
        fs.remove(&p("a")).unwrap();
        assert!(fs.list(Path::new("/sim")).unwrap().is_empty());
        assert!(fs.rename(&p("missing"), &p("b")).is_err());
    }

    #[test]
    fn disk_fs_round_trips_and_truncates() {
        let dir = std::env::temp_dir().join(format!("fudj-faultfs-test-{}", std::process::id()));
        let fs = DiskFs::new();
        fs.create_dir_all(&dir).unwrap();
        let f = dir.join("seg");
        fs.append(&f, b"hello ").unwrap();
        fs.append(&f, b"world").unwrap();
        fs.sync(&f).unwrap();
        assert_eq!(fs.read(&f).unwrap(), b"hello world".to_vec());
        fs.truncate(&f, 5).unwrap();
        assert_eq!(fs.read(&f).unwrap(), b"hello".to_vec());
        fs.append(&f, b"!").unwrap();
        assert_eq!(fs.read(&f).unwrap(), b"hello!".to_vec());
        fs.write_file(&dir.join("t.tmp"), b"snap").unwrap();
        fs.rename(&dir.join("t.tmp"), &dir.join("t")).unwrap();
        assert_eq!(
            fs.list(&dir).unwrap(),
            vec!["seg".to_string(), "t".to_string()]
        );
        fs.remove(&f).unwrap();
        fs.remove(&dir.join("t")).unwrap();
        assert!(fs.list(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
