//! The sharded on-disk store.
//!
//! Layout under the cache root (default `.abdex-cache/`):
//!
//! ```text
//! <root>/<2-hex shard>/<32-hex key>.entry
//! <root>/COUNTERS                       # cumulative hit/miss/store tallies
//! ```
//!
//! Every entry is a small text file: a versioned header line carrying
//! the epoch, key and payload length, a `spec ` echo line carrying the
//! full canonical spec (collision insurance and `gc`-time
//! debuggability), then the payload bytes verbatim.
//!
//! **Writes are atomic** ([`write_atomic`]): the payload is written to
//! a temp file beside its entry and `rename`d into place, so concurrent
//! `--jobs` workers (or whole processes) racing on the same cell can
//! never interleave bytes — the last complete write wins, and every
//! racer wrote the same deterministic payload anyway.
//!
//! **Reads are corruption-tolerant**: a missing file, a bad header, an
//! epoch or spec mismatch, or a short payload all return `None`, which
//! callers treat as a miss and re-simulate. A cache can slow you down
//! at worst; it can never change a result.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use obs::CacheCounters;

use crate::key::{Key, CACHE_EPOCH};

/// The default cache directory, relative to the working directory.
pub const DEFAULT_DIR: &str = ".abdex-cache";

/// The entry-format version tag leading every header line.
const FORMAT: &str = "abdex-ccache v1";

/// The counters-file name inside the cache root.
const COUNTERS_FILE: &str = "COUNTERS";

/// Monotonic suffix for temp-file names within this process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: into a temp file beside it,
/// then `rename`d into place, so a reader — or a run interrupted
/// mid-write — sees either the previous file or the complete new one,
/// never a truncated one. Nothing is fsynced, so the write is not
/// durable across a power loss. A failed write removes its temp file
/// and returns the error.
///
/// # Errors
///
/// Any I/O error creating, writing or renaming the temp file (e.g. a
/// missing parent directory, or a directory at `path`).
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )
    })?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp-{}-{}",
        name.to_string_lossy(),
        process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes))
        .and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Aggregate size of (part of) the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of `.entry` files.
    pub entries: u64,
    /// Their total size in bytes.
    pub bytes: u64,
}

/// A content-addressed result store rooted at one directory.
///
/// All methods take `&self` and the counters are atomics, so a `&Cache`
/// is freely shared across the runner's scoped worker threads.
#[derive(Debug)]
pub struct Cache {
    root: PathBuf,
    epoch: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl Cache {
    /// Opens (creating if needed) a cache rooted at `dir`, keyed under
    /// the current [`CACHE_EPOCH`].
    ///
    /// # Errors
    ///
    /// When the root directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Cache, String> {
        let root: PathBuf = dir.into();
        fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create cache dir {}: {e}", root.display()))?;
        Ok(Cache {
            root,
            epoch: CACHE_EPOCH,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        })
    }

    /// Overrides the epoch (tests use this to prove an epoch bump
    /// invalidates every old entry).
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Cache {
        self.epoch = epoch;
        self
    }

    /// The cache root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The epoch keys are salted with.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn entry_path(&self, key: Key) -> PathBuf {
        self.root
            .join(key.shard())
            .join(format!("{}.entry", key.hex()))
    }

    fn header(&self, key: Key, payload_len: usize) -> String {
        format!(
            "{FORMAT} epoch={} key={} len={payload_len}",
            self.epoch,
            key.hex()
        )
    }

    /// Looks a spec up, counting a hit or a miss. Returns the payload
    /// only when the entry is fully intact: header, epoch, key, spec
    /// echo and payload length all check out.
    #[must_use]
    pub fn lookup(&self, spec: &str) -> Option<String> {
        let key = Key::with_epoch(self.epoch, spec);
        let payload = self.read_entry(key, spec);
        match payload {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        payload
    }

    fn read_entry(&self, key: Key, spec: &str) -> Option<String> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        let (header, rest) = text.split_once('\n')?;
        let (spec_line, payload) = rest.split_once('\n')?;
        let expected_header = self.header(key, payload.len());
        (header == expected_header && spec_line.strip_prefix("spec ") == Some(spec))
            .then(|| payload.to_owned())
    }

    /// Re-books one counted hit as a miss — for callers whose payload
    /// decode failed after a structurally valid entry was returned.
    pub fn demote_hit(&self) {
        self.hits.fetch_sub(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes a payload under its spec's key: temp file + rename, so
    /// racing writers leave exactly one valid entry. Best-effort — an
    /// I/O failure drops the entry (and the store count), never the
    /// result.
    pub fn publish(&self, spec: &str, payload: &str) {
        debug_assert!(!spec.contains('\n'), "cache specs are single-line");
        let key = Key::with_epoch(self.epoch, spec);
        if self.write_entry(key, spec, payload).is_some() {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn write_entry(&self, key: Key, spec: &str, payload: &str) -> Option<()> {
        fs::create_dir_all(self.root.join(key.shard())).ok()?;
        let contents = format!(
            "{}\nspec {spec}\n{payload}",
            self.header(key, payload.len())
        );
        write_atomic(self.entry_path(key), contents.as_bytes()).ok()
    }

    /// Snapshot of this handle's in-memory counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    /// Drains this handle's in-memory counters into the persisted
    /// `COUNTERS` file (read-add-rewrite with an atomic rename), so a
    /// later `abdex cache stats` — a separate process — can report
    /// them. Best-effort, like every other write.
    pub fn flush_counters(&self) {
        let delta = CacheCounters {
            hits: self.hits.swap(0, Ordering::Relaxed),
            misses: self.misses.swap(0, Ordering::Relaxed),
            stores: self.stores.swap(0, Ordering::Relaxed),
        };
        if delta.hits == 0 && delta.misses == 0 && delta.stores == 0 {
            return;
        }
        let total = self.persisted_counters();
        let contents = format!(
            "abdex-ccache-counters v1\nhits {}\nmisses {}\nstores {}\n",
            total.hits + delta.hits,
            total.misses + delta.misses,
            total.stores + delta.stores,
        );
        let _ = write_atomic(self.root.join(COUNTERS_FILE), contents.as_bytes());
    }

    /// The cumulative counters previously flushed to this cache dir
    /// (zeros when none, or when the file is damaged).
    #[must_use]
    pub fn persisted_counters(&self) -> CacheCounters {
        let Ok(text) = fs::read_to_string(self.root.join(COUNTERS_FILE)) else {
            return CacheCounters::default();
        };
        let mut lines = text.lines();
        if lines.next() != Some("abdex-ccache-counters v1") {
            return CacheCounters::default();
        }
        let mut counters = CacheCounters::default();
        for line in lines {
            let Some((name, value)) = line.split_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse() else { continue };
            match name {
                "hits" => counters.hits = value,
                "misses" => counters.misses = value,
                "stores" => counters.stores = value,
                _ => {}
            }
        }
        counters
    }

    /// Every entry on disk: `(path, bytes, mtime)`, unordered.
    fn entries(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        let Ok(shards) = fs::read_dir(&self.root) else {
            return out;
        };
        for shard in shards.flatten() {
            let path = shard.path();
            if !path.is_dir() {
                continue;
            }
            let Ok(files) = fs::read_dir(&path) else {
                continue;
            };
            for file in files.flatten() {
                let path = file.path();
                if path.extension().is_some_and(|e| e == "entry") {
                    if let Ok(meta) = file.metadata() {
                        let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                        out.push((path, meta.len(), mtime));
                    }
                }
            }
        }
        out
    }

    /// Entry count and total bytes currently on disk.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for (_, bytes, _) in self.entries() {
            stats.entries += 1;
            stats.bytes += bytes;
        }
        stats
    }

    /// Evicts oldest-first (modification time, then path as the
    /// deterministic tiebreak) until the store fits in `max_bytes`.
    /// Returns what was removed.
    #[must_use]
    pub fn gc(&self, max_bytes: u64) -> CacheStats {
        let mut entries = self.entries();
        entries.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        let mut total: u64 = entries.iter().map(|(_, bytes, _)| bytes).sum();
        let mut removed = CacheStats::default();
        for (path, bytes, _) in entries {
            if total <= max_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total -= bytes;
                removed.entries += 1;
                removed.bytes += bytes;
            }
        }
        removed
    }

    /// Removes every entry and the counters file. Returns the number of
    /// entries removed.
    pub fn clear(&self) -> u64 {
        let mut removed = 0;
        for (path, _, _) in self.entries() {
            if fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        let _ = fs::remove_file(self.root.join(COUNTERS_FILE));
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> Cache {
        let dir =
            std::env::temp_dir().join(format!("abdex-ccache-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Cache::open(dir).unwrap()
    }

    /// The entries of `dir` other than `keep`.
    fn strays(dir: &Path, keep: &str) -> Vec<String> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name != keep)
            .collect()
    }

    #[test]
    fn atomic_write_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("abdex-atomic-ok-{}", process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer");
        assert!(
            strays(&dir, "doc.json").is_empty(),
            "{:?}",
            strays(&dir, "doc.json")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_atomic_write_returns_the_error_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("abdex-atomic-err-{}", process::id()));
        let _ = fs::remove_dir_all(&dir);
        // The target is a directory: the rename into place must fail.
        let target = dir.join("occupied");
        fs::create_dir_all(&target).unwrap();
        assert!(write_atomic(&target, b"payload").is_err());
        assert!(target.is_dir(), "the directory survives");
        assert!(
            strays(&dir, "occupied").is_empty(),
            "{:?}",
            strays(&dir, "occupied")
        );
        // A missing parent directory fails before any file exists.
        assert!(write_atomic(dir.join("no/such/dir/out.json"), b"x").is_err());
        assert!(write_atomic("/", b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_then_lookup_round_trips() {
        let cache = temp_cache("roundtrip");
        assert_eq!(cache.lookup("spec a"), None);
        cache.publish("spec a", "{\"v\":1}");
        assert_eq!(cache.lookup("spec a").as_deref(), Some("{\"v\":1}"));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.stores), (1, 1, 1));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn multiline_payloads_survive() {
        let cache = temp_cache("multiline");
        let payload = "line one\nline two\n";
        cache.publish("s", payload);
        assert_eq!(cache.lookup("s").as_deref(), Some(payload));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn stats_gc_and_clear_account_for_entries() {
        let cache = temp_cache("gc");
        for i in 0..4 {
            cache.publish(&format!("cell {i}"), &"x".repeat(100));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert!(stats.bytes > 400);
        let removed = cache.gc(stats.bytes / 2);
        assert!(removed.entries >= 1);
        assert!(cache.stats().bytes <= stats.bytes / 2);
        assert_eq!(cache.clear(), 4 - removed.entries);
        assert_eq!(cache.stats(), CacheStats::default());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn counters_persist_across_handles() {
        let cache = temp_cache("counters");
        cache.publish("k", "v");
        let _ = cache.lookup("k");
        let _ = cache.lookup("absent");
        cache.flush_counters();
        // The handle's in-memory counters drained into the file.
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.stores), (0, 0, 0));
        let reopened = Cache::open(cache.root()).unwrap();
        let p = reopened.persisted_counters();
        assert_eq!((p.hits, p.misses, p.stores), (1, 1, 1));
        // A second flush accumulates.
        let _ = reopened.lookup("k");
        reopened.flush_counters();
        assert_eq!(reopened.persisted_counters().hits, 2);
        let _ = fs::remove_dir_all(cache.root());
    }
}
