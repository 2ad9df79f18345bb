//! Persistent content-addressed build store.
//!
//! An exploration run synthesizes each build once, in one pool task per
//! build, but that work evaporates with the process. This module keeps
//! it: a directory of JSON entries addressed by the hash of a
//! **salted** [`crate::BuildKey`] content string, shared across
//! requests of a serving daemon and across restarts.
//!
//! Three properties carry the design:
//!
//! * **Content addressing with a version salt.** The address is
//!   `fnv64(salt + key)`; the salt folds in the crate version and a
//!   digest of the cell library ([`cache_salt`]), so entries written by
//!   an older build — different cost model, different synthesis —
//!   can never alias a current lookup. Each entry also records its
//!   salt and full key verbatim, and a load verifies both, so even a
//!   hash collision degrades to a miss, never to a wrong answer.
//! * **LRU / size-bounded eviction.** The store keeps an index
//!   (`index.json`) with per-entry byte sizes and a logical
//!   last-used clock; whenever a write pushes the store over
//!   [`StoreLimits`], least-recently-used entries are deleted first.
//!   A hit only bumps the clock in memory; the index is written on
//!   every save and eviction, and when the store is dropped.
//! * **Write-through layering.** The store never computes anything: a
//!   build task consults [`DiskStore::load`] before synthesizing and
//!   [`DiskStore::save`]s afterwards (see [`crate::explore_env`]).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// FNV-1a over a byte string: the store's address hash, the per-point
/// seed source, and the key imported sources are cached and labelled
/// under. The benchmark's replay calls it too, so its signature stays.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The version salt current builds write under: the crate version plus
/// a digest of the calibrated cell library. Either changing means old
/// entries describe a different cost model, and the salted address
/// guarantees they are never read again.
#[must_use]
pub fn cache_salt() -> String {
    let library = serde_json::to_string(&scanguard_netlist::CellLibrary::st120nm())
        .unwrap_or_else(|_| "unencodable-library".to_owned());
    format!(
        "v{}-lib{:016x}",
        env!("CARGO_PKG_VERSION"),
        fnv64(library.as_bytes())
    )
}

/// Bounds on the store; eviction keeps both satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLimits {
    /// Maximum entry count (least-recently-used evicted beyond it).
    pub max_entries: usize,
    /// Maximum total payload bytes.
    pub max_bytes: u64,
}

impl Default for StoreLimits {
    fn default() -> Self {
        StoreLimits {
            max_entries: 4096,
            max_bytes: 256 * 1024 * 1024,
        }
    }
}

/// Store traffic counters (process-lifetime, not persisted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StoreStats {
    /// Loads that returned a verified entry.
    pub hits: usize,
    /// Loads that found nothing (or an alias that failed verification).
    pub misses: usize,
    /// Entries written.
    pub writes: usize,
    /// Entries evicted by the LRU policy.
    pub evictions: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Total payload bytes currently resident.
    pub bytes: u64,
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct IndexEntry {
    bytes: u64,
    last_used: u64,
}

#[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
struct Index {
    clock: u64,
    entries: BTreeMap<String, IndexEntry>,
}

#[derive(Debug, Default)]
struct Counters {
    hits: usize,
    misses: usize,
    writes: usize,
    evictions: usize,
}

/// What the store lock guards: the index, the traffic counters, the
/// running payload total and whether a hit has bumped the clock since
/// the index was last written.
#[derive(Debug)]
struct State {
    index: Index,
    counters: Counters,
    bytes: u64,
    dirty: bool,
}

/// A persistent content-addressed build store rooted at one directory.
///
/// Concurrency: one `DiskStore` is safe to share across threads (the
/// index sits behind a mutex). Two *processes* sharing a root are not
/// coordinated — the daemon is the single writer by design.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    salt: String,
    limits: StoreLimits,
    inner: Mutex<State>,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `root`, writing
    /// under [`cache_salt`] with the given limits. An existing
    /// `index.json` is reloaded so LRU order survives restarts; if it
    /// is missing or unreadable the directory is rescanned.
    ///
    /// # Errors
    ///
    /// Returns a message when the root cannot be created.
    pub fn open(root: &Path, limits: StoreLimits) -> Result<Self, String> {
        Self::open_salted(root, &cache_salt(), limits)
    }

    /// [`open`](Self::open) with an explicit salt (tests exercise salt
    /// mismatches with it).
    ///
    /// # Errors
    ///
    /// Returns a message when the root cannot be created.
    pub fn open_salted(root: &Path, salt: &str, limits: StoreLimits) -> Result<Self, String> {
        std::fs::create_dir_all(root)
            .map_err(|e| format!("creating cache root {}: {e}", root.display()))?;
        let index = match std::fs::read_to_string(root.join("index.json"))
            .ok()
            .and_then(|doc| serde_json::from_str::<Index>(&doc).ok())
        {
            Some(index) => index,
            None => Self::rescan(root),
        };
        let bytes = index.entries.values().map(|e| e.bytes).sum();
        Ok(DiskStore {
            root: root.to_owned(),
            salt: salt.to_owned(),
            limits,
            inner: Mutex::new(State {
                index,
                counters: Counters::default(),
                bytes,
                dirty: false,
            }),
        })
    }

    /// Rebuilds the index from the entry files on disk (used when
    /// `index.json` is absent or corrupt). Recovered entries share
    /// `last_used = 0`, so they are the first eviction candidates.
    fn rescan(root: &Path) -> Index {
        let mut entries = BTreeMap::new();
        if let Ok(dir) = std::fs::read_dir(root) {
            for file in dir.flatten() {
                let name = file.file_name().to_string_lossy().into_owned();
                let Some(addr) = name.strip_suffix(".entry.json") else {
                    continue;
                };
                let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
                entries.insert(addr.to_owned(), IndexEntry::new(bytes, 0));
            }
        }
        Index { clock: 1, entries }
    }

    /// The salt entries are written under.
    #[must_use]
    pub fn salt(&self) -> &str {
        &self.salt
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn addr(&self, key: &str) -> String {
        format!("{:016x}", fnv64(format!("{}\n{key}", self.salt).as_bytes()))
    }

    fn entry_path(&self, addr: &str) -> PathBuf {
        self.root.join(format!("{addr}.entry.json"))
    }

    /// Loads the payload stored for `key`, verifying the entry's
    /// recorded salt and key match before trusting it. Any IO or
    /// verification failure is a miss, never an error — the caller
    /// rebuilds and overwrites. A hit bumps the entry's recency in
    /// memory only; the next save or eviction, or dropping the store,
    /// writes it to the index.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned index lock.
    #[must_use]
    pub fn load(&self, key: &str) -> Option<String> {
        let addr = self.addr(key);
        let mut state = self.inner.lock().expect("store lock");
        let state = &mut *state;
        let index = &mut state.index;
        let hit = index.entries.contains_key(&addr).then(|| {
            let doc = std::fs::read_to_string(self.entry_path(&addr)).ok()?;
            let value: serde::Value = serde_json::from_str(&doc).ok()?;
            let field = |name: &str| value.get(name).and_then(serde::Value::as_str);
            if field("salt") != Some(self.salt.as_str()) || field("key") != Some(key) {
                return None;
            }
            Some(field("doc")?.to_owned())
        });
        match hit.flatten() {
            Some(doc) => {
                state.counters.hits += 1;
                index.clock += 1;
                let clock = index.clock;
                if let Some(e) = index.entries.get_mut(&addr) {
                    e.last_used = clock;
                }
                state.dirty = true;
                Some(doc)
            }
            None => {
                state.counters.misses += 1;
                None
            }
        }
    }

    /// Writes `doc` as the payload for `key`, then evicts
    /// least-recently-used entries until the limits hold again.
    ///
    /// # Errors
    ///
    /// Returns a message when the entry file cannot be written (the
    /// store is then unchanged).
    ///
    /// # Panics
    ///
    /// Propagates a poisoned index lock.
    pub fn save(&self, key: &str, doc: &str) -> Result<(), String> {
        let addr = self.addr(key);
        let entry = serde::Value::Object(vec![
            ("salt".to_owned(), serde::Value::Str(self.salt.clone())),
            ("key".to_owned(), serde::Value::Str(key.to_owned())),
            ("doc".to_owned(), serde::Value::Str(doc.to_owned())),
        ]);
        let rendered = serde_json::to_string(&entry).map_err(|e| format!("encoding entry: {e}"))?;
        let mut state = self.inner.lock().expect("store lock");
        let path = self.entry_path(&addr);
        std::fs::write(&path, &rendered).map_err(|e| format!("writing {}: {e}", path.display()))?;
        state.counters.writes += 1;
        state.index.clock += 1;
        let entry = IndexEntry::new(rendered.len() as u64, state.index.clock);
        state.bytes += entry.bytes;
        if let Some(old) = state.index.entries.insert(addr, entry) {
            state.bytes -= old.bytes;
        }
        let evicted = self.evict_over_limit(&mut state);
        state.counters.evictions += evicted;
        self.persist_index(&mut state);
        Ok(())
    }

    /// Evicts LRU entries until the limits hold; returns how many went.
    fn evict_over_limit(&self, state: &mut State) -> usize {
        let mut evicted = 0;
        while state.index.entries.len() > self.limits.max_entries
            || state.bytes > self.limits.max_bytes
        {
            let Some(oldest) = state
                .index
                .entries
                .iter()
                .min_by_key(|(addr, e)| (e.last_used, (*addr).clone()))
                .map(|(addr, _)| addr.clone())
            else {
                break;
            };
            if let Some(gone) = state.index.entries.remove(&oldest) {
                state.bytes -= gone.bytes;
            }
            let _ = std::fs::remove_file(self.entry_path(&oldest));
            evicted += 1;
        }
        evicted
    }

    /// Persists the index atomically (write + rename), so a kill mid-
    /// write leaves the previous index intact rather than a torn file.
    fn persist_index(&self, state: &mut State) {
        state.dirty = false;
        let Ok(doc) = serde_json::to_string(&state.index) else {
            return;
        };
        let tmp = self.root.join("index.json.tmp");
        if std::fs::write(&tmp, doc).is_ok() {
            let _ = std::fs::rename(&tmp, self.root.join("index.json"));
        }
    }

    /// Traffic counters plus current occupancy.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned index lock.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let state = self.inner.lock().expect("store lock");
        let counters = &state.counters;
        StoreStats {
            hits: counters.hits,
            misses: counters.misses,
            writes: counters.writes,
            evictions: counters.evictions,
            entries: state.index.entries.len(),
            bytes: state.bytes,
        }
    }
}

impl Drop for DiskStore {
    /// Writes the recency that hits bumped since the last save.
    fn drop(&mut self) {
        if let Ok(mut state) = self.inner.lock() {
            if state.dirty {
                self.persist_index(&mut state);
            }
        }
    }
}

impl IndexEntry {
    fn new(bytes: u64, last_used: u64) -> Self {
        IndexEntry { bytes, last_used }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("scanguard-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn round_trips_and_counts() {
        let root = tmp_root("roundtrip");
        let store = DiskStore::open(&root, StoreLimits::default()).unwrap();
        assert_eq!(store.load("fifo4x4/W4/CRC-16/T-"), None);
        store.save("fifo4x4/W4/CRC-16/T-", "{\"x\":1}").unwrap();
        assert_eq!(
            store.load("fifo4x4/W4/CRC-16/T-").as_deref(),
            Some("{\"x\":1}")
        );
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.entries), (1, 1, 1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn survives_reopen() {
        let root = tmp_root("reopen");
        {
            let store = DiskStore::open(&root, StoreLimits::default()).unwrap();
            store.save("k1", "payload-one").unwrap();
        }
        let store = DiskStore::open(&root, StoreLimits::default()).unwrap();
        assert_eq!(store.load("k1").as_deref(), Some("payload-one"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn survives_a_lost_index() {
        let root = tmp_root("rescan");
        {
            let store = DiskStore::open(&root, StoreLimits::default()).unwrap();
            store.save("k1", "payload-one").unwrap();
        }
        std::fs::remove_file(root.join("index.json")).unwrap();
        let store = DiskStore::open(&root, StoreLimits::default()).unwrap();
        assert_eq!(store.load("k1").as_deref(), Some("payload-one"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_different_salt_never_reads_old_entries() {
        let root = tmp_root("salt");
        {
            let store = DiskStore::open_salted(&root, "v1", StoreLimits::default()).unwrap();
            store.save("k1", "old-model").unwrap();
        }
        let store = DiskStore::open_salted(&root, "v2", StoreLimits::default()).unwrap();
        assert_eq!(store.load("k1"), None, "salted address must not alias");
        store.save("k1", "new-model").unwrap();
        assert_eq!(store.load("k1").as_deref(), Some("new-model"));
        // The v1 entry is untouched on disk and still valid under v1.
        let old = DiskStore::open_salted(&root, "v1", StoreLimits::default()).unwrap();
        assert_eq!(old.load("k1").as_deref(), Some("old-model"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn entry_count_limit_evicts_least_recently_used() {
        let root = tmp_root("lru");
        let store = DiskStore::open_salted(
            &root,
            "s",
            StoreLimits {
                max_entries: 2,
                max_bytes: u64::MAX,
            },
        )
        .unwrap();
        store.save("a", "1").unwrap();
        store.save("b", "2").unwrap();
        // Touch `a` so `b` is now the least recently used.
        assert!(store.load("a").is_some());
        store.save("c", "3").unwrap();
        assert_eq!(store.load("b"), None, "LRU entry must be evicted");
        assert!(store.load("a").is_some());
        assert!(store.load("c").is_some());
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.stats().entries, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn hit_recency_survives_drop_and_reopen() {
        let root = tmp_root("recency");
        let two = StoreLimits {
            max_entries: 2,
            max_bytes: u64::MAX,
        };
        {
            let store = DiskStore::open_salted(&root, "s", StoreLimits::default()).unwrap();
            store.save("a", "1").unwrap();
            store.save("b", "2").unwrap();
            let before = std::fs::read_to_string(root.join("index.json")).unwrap();
            // Touch `a`: the hit must not rewrite the index...
            assert!(store.load("a").is_some());
            let after = std::fs::read_to_string(root.join("index.json")).unwrap();
            assert_eq!(before, after, "a hit must not write index.json");
        }
        // ...but dropping the store persists it, so `b` is now the LRU.
        let store = DiskStore::open_salted(&root, "s", two).unwrap();
        store.save("c", "3").unwrap();
        assert_eq!(store.load("b"), None, "b was least recently used");
        assert!(
            store.load("a").is_some(),
            "the hit on a survived the reopen"
        );
        assert!(store.load("c").is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn byte_limit_evicts_until_it_holds() {
        let root = tmp_root("bytes");
        // Each entry's JSON wrapper is ~40 bytes; cap to roughly two.
        let store = DiskStore::open_salted(
            &root,
            "s",
            StoreLimits {
                max_entries: usize::MAX,
                max_bytes: 90,
            },
        )
        .unwrap();
        store.save("a", "xxxxxxxxxx").unwrap();
        store.save("b", "yyyyyyyyyy").unwrap();
        store.save("c", "zzzzzzzzzz").unwrap();
        let s = store.stats();
        assert!(s.bytes <= 90, "limit must hold, got {} bytes", s.bytes);
        assert!(s.evictions >= 1);
        assert!(store.load("c").is_some(), "newest entry survives");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn salt_names_version_and_library() {
        let salt = cache_salt();
        assert!(salt.starts_with(&format!("v{}-lib", env!("CARGO_PKG_VERSION"))));
        assert_eq!(salt, cache_salt(), "salt must be stable within a build");
    }
}
