//! Content-addressed, on-disk campaign result cache.
//!
//! The cache key is the [`crate::campaign::CampaignFingerprint`]:
//! an FNV-1a fold of the OS variant, every result-relevant config knob
//! and the full per-MuT sampling plan. Two requests share a key **iff**
//! they are the same campaign, so the cache needs no invalidation
//! protocol at all — changing the cap, the fuel budget, the catalog or
//! the sampling logic changes the key, and stale entries simply become
//! unreachable. A million identical requests cost one campaign.
//! Alternate campaign modes ride the same key space through their mode
//! tags: a crashcon fingerprint folds `crashcon/1` and an adaptive one
//! folds `adaptive/1` plus the adaptive knobs (see [`crate::adaptive`]),
//! so a pinned-plan campaign and a classic campaign over the same
//! catalog can never alias each other's entries.
//!
//! The value is the byte-exact serialized [`CampaignReport`]: the
//! vendored serializer emits map fields in declaration order, so the
//! stored bytes are deterministic and every consumer of one entry sees
//! the identical byte string (the serving layer leans on this for its
//! all-responses-bit-identical guarantee).
//!
//! Layout: one file per fingerprint under the cache directory, written
//! via [`persist::atomic_write`] (tmp + fsync + rename) so a crash can
//! never leave a torn entry, fronted by a small in-memory LRU so the
//! hot-path lookup is a hash probe, not a disk read. Each disk entry is
//! checksummed; a corrupted or truncated entry (or one that hashes to
//! the right filename but records a different fingerprint) is treated
//! as a miss, never an error.
//!
//! Hits, misses and memory-front evictions land in the metrics registry
//! (`cache_hits` / `cache_misses` / `cache_evictions`, host half — see
//! OBSERVABILITY.md).

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::campaign::{CampaignFingerprint, CampaignReport};
use crate::journal::PlanHasher;
use crate::persist;
use crate::telemetry::{self, Counter};

/// Magic prefix of a version-1 cache entry file.
const MAGIC: &[u8; 8] = b"BLSTCCH1";

/// Fixed header length: magic + fingerprint + payload length + checksum.
const HEADER_LEN: usize = 8 + 8 + 8 + 8;

/// FNV-1a over the serialized payload, by the plan fingerprint's
/// hasher, so entry corruption anywhere (header or body) is detected.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = PlanHasher::new();
    h.write(payload);
    h.finish()
}

/// Serializes a report entry: `BLSTCCH1 | fingerprint LE | len LE |
/// checksum(payload) LE | payload`.
fn encode_entry(fp: CampaignFingerprint, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&fp.as_u64().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates and strips an entry header. `None` on any mismatch —
/// wrong magic, wrong fingerprint, torn length, failed checksum.
fn decode_entry(fp: CampaignFingerprint, bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
        return None;
    }
    let le_u64 =
        |at: usize| -> Option<u64> { Some(u64::from_le_bytes(bytes[at..at + 8].try_into().ok()?)) };
    if le_u64(8)? != fp.as_u64() {
        return None;
    }
    let len = usize::try_from(le_u64(16)?).ok()?;
    let payload = bytes.get(HEADER_LEN..HEADER_LEN + len)?;
    if bytes.len() != HEADER_LEN + len || le_u64(24)? != checksum(payload) {
        return None;
    }
    Some(payload)
}

/// The in-memory LRU front: fingerprint → (last-touch tick, payload).
struct Front {
    tick: u64,
    map: HashMap<u64, (u64, Arc<Vec<u8>>)>,
}

/// A content-addressed campaign result cache: on-disk entries under one
/// directory, fronted by an in-memory LRU.
///
/// Values are the serialized [`CampaignReport`] bytes; [`ResultCache::lookup`]
/// returns them as `Arc<Vec<u8>>` so the serving layer can fan one
/// stored entry out to any number of concurrent responses without
/// copying, and [`ResultCache::lookup_report`] deserializes them back
/// for consumers that want the structured report.
///
/// # Example
///
/// ```no_run
/// use ballista::cache::ResultCache;
/// use ballista::campaign::{fingerprint, run_campaign, CampaignConfig};
/// use sim_kernel::variant::OsVariant;
///
/// let cache = ResultCache::new("results/cache", 64)?;
/// let cfg = CampaignConfig { cap: 200, ..CampaignConfig::default() };
/// let fp = fingerprint(OsVariant::Win95, &cfg);
/// let report = match cache.lookup_report(fp) {
///     Some(cached) => cached, // served without running anything
///     None => {
///         let fresh = run_campaign(OsVariant::Win95, &cfg);
///         cache.store(fp, &fresh)?;
///         fresh
///     }
/// };
/// assert_eq!(report.os, OsVariant::Win95);
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct ResultCache {
    dir: PathBuf,
    capacity: usize,
    front: Mutex<Front>,
}

impl ResultCache {
    /// Opens (creating the directory if needed) a cache rooted at `dir`
    /// whose memory front holds at most `capacity` entries. `capacity`
    /// of `0` disables the memory front entirely — every hit is served
    /// from disk.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the cache directory.
    pub fn new(dir: impl Into<PathBuf>, capacity: usize) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            capacity,
            front: Mutex::new(Front {
                tick: 0,
                map: HashMap::new(),
            }),
        })
    }

    /// The directory entries live under.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of `fp`'s entry (whether or not one exists).
    #[must_use]
    pub fn entry_path(&self, fp: CampaignFingerprint) -> PathBuf {
        self.dir.join(format!("{fp}.bcache"))
    }

    /// Entries currently resident in the memory front.
    #[must_use]
    pub fn memory_len(&self) -> usize {
        self.front.lock().expect("cache front poisoned").map.len()
    }

    /// Inserts into the memory front, evicting the least-recently-used
    /// entry when full. No-op at capacity 0.
    fn remember(&self, fp: CampaignFingerprint, bytes: Arc<Vec<u8>>) {
        if self.capacity == 0 {
            return;
        }
        let mut front = self.front.lock().expect("cache front poisoned");
        front.tick += 1;
        let tick = front.tick;
        if front.map.len() >= self.capacity && !front.map.contains_key(&fp.as_u64()) {
            if let Some(&oldest) = front
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k)
            {
                front.map.remove(&oldest);
                telemetry::count(Counter::CacheEvictions, 1);
            }
        }
        front.map.insert(fp.as_u64(), (tick, bytes));
    }

    /// Looks `fp` up, returning the stored serialized report bytes.
    ///
    /// Probes the memory front first, then disk (promoting a disk hit
    /// into the front). Counts one cache hit or miss in the metrics
    /// registry. Any invalid disk entry — torn write survivor, bit rot,
    /// foreign file — is a miss, not an error.
    #[must_use]
    pub fn lookup(&self, fp: CampaignFingerprint) -> Option<Arc<Vec<u8>>> {
        match self.peek(fp) {
            Some(bytes) => {
                telemetry::count(Counter::CacheHits, 1);
                Some(bytes)
            }
            None => {
                telemetry::count(Counter::CacheMisses, 1);
                None
            }
        }
    }

    /// [`ResultCache::lookup`] without touching the hit/miss counters:
    /// the serving layer's double-checked coalescing probe (a counted
    /// miss immediately followed by a counted re-probe would double the
    /// recorded miss rate for every cold campaign).
    #[must_use]
    pub fn peek(&self, fp: CampaignFingerprint) -> Option<Arc<Vec<u8>>> {
        if self.capacity > 0 {
            let mut front = self.front.lock().expect("cache front poisoned");
            front.tick += 1;
            let tick = front.tick;
            if let Some((touch, bytes)) = front.map.get_mut(&fp.as_u64()) {
                *touch = tick;
                return Some(Arc::clone(bytes));
            }
        }
        let raw = std::fs::read(self.entry_path(fp)).ok();
        let payload = raw
            .as_deref()
            .and_then(|bytes| decode_entry(fp, bytes))
            .map(|payload| Arc::new(payload.to_vec()));
        if let Some(bytes) = &payload {
            self.remember(fp, Arc::clone(bytes));
        }
        payload
    }

    /// [`ResultCache::lookup`], deserialized back into a
    /// [`CampaignReport`]. An entry whose payload fails to parse (e.g.
    /// written by an incompatible future schema) is a miss.
    #[must_use]
    pub fn lookup_report(&self, fp: CampaignFingerprint) -> Option<CampaignReport> {
        let bytes = self.lookup(fp)?;
        serde_json::from_slice(&bytes).ok()
    }

    /// Stores `report` under `fp`, returning the serialized bytes that
    /// every subsequent [`ResultCache::lookup`] of `fp` will yield. The
    /// disk write is atomic (tmp + fsync + rename); the memory front is
    /// updated last, so a hit never precedes durability.
    ///
    /// # Errors
    ///
    /// Propagates the atomic write's I/O failure; the cache state is
    /// unchanged on error.
    pub fn store(
        &self,
        fp: CampaignFingerprint,
        report: &CampaignReport,
    ) -> io::Result<Arc<Vec<u8>>> {
        let payload = serde_json::to_vec(report)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        persist::atomic_write(&self.entry_path(fp), &encode_entry(fp, &payload))?;
        let bytes = Arc::new(payload);
        self.remember(fp, Arc::clone(&bytes));
        Ok(bytes)
    }
}
