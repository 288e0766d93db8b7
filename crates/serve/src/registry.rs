//! The hot-loading model registry: `.dpcm` artifacts in a watched
//! directory, decoded on demand and LRU-cached with the bytes they were
//! decoded from.
//!
//! Every `get` re-reads the (small) file, so overwriting `{id}.dpcm`
//! with new content is picked up on the next request without any
//! notification machinery. The request is a cache hit when the file
//! still holds exactly the bytes its entry was decoded from (or, for an
//! inserted model, the bytes written for it): a read and a `memcmp`,
//! and no hash, on a hit or a miss. Exact equality cannot serve the
//! wrong model on a hash collision. [`ModelRegistry::list`] reports each
//! file's FNV-1a 64 checksum — for canonically written files exactly
//! [`ModelArtifact::checksum`] of the decoded model (not the whole-file
//! CRC-32: per-section CRCs make that constant across same-shape
//! artifacts — see [`fnv1a64`]) — and marks it cached by the same byte
//! compare. Capacity is bounded; the least-recently-used entry is
//! evicted when a decode would exceed it, with evictions and residency
//! published through the metrics sink.
//!
//! A panic while a lock is held (in a decode, say) does not poison the
//! registry for later requests: the per-id flights guard no data, and
//! the cache is a copy of the model directory, so every lock recovers
//! its guard.
//!
//! [`ModelArtifact::checksum`]: modelstore::ModelArtifact::checksum

use dpcopula::{DpCopulaError, FittedModel};
use modelstore::crc32::fnv1a64;
use modelstore::format::StoreError;
use obskit::{names, MetricsSink, Unit};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// Everything `get`/`list` can fail with, each mapped to one HTTP
/// status by the server.
#[derive(Debug)]
pub enum RegistryError {
    /// The model id contains characters outside `[A-Za-z0-9_-]` (which
    /// would allow path traversal out of the model directory). → 400.
    InvalidModelId {
        /// The offending id.
        id: String,
    },
    /// No `{id}.dpcm` exists in the model directory. → 404.
    UnknownModel {
        /// The id that was requested.
        id: String,
    },
    /// The file exists but failed to decode or validate; the reason
    /// names the damaged `.dpcm` section. → 500.
    Corrupt {
        /// Path of the damaged artifact.
        path: String,
        /// Decoder / validator failure, section name included.
        source: DpCopulaError,
    },
    /// The file or directory could not be read. → 500.
    Io {
        /// Path that failed.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::InvalidModelId { id } => {
                write!(f, "invalid model id `{id}`: expected [A-Za-z0-9_-]+")
            }
            RegistryError::UnknownModel { id } => write!(f, "unknown model `{id}`"),
            RegistryError::Corrupt { path, source } => {
                write!(f, "corrupt model artifact {path}: {source}")
            }
            RegistryError::Io { path, source } => write!(f, "reading {path}: {source}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One row of [`ModelRegistry::list`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    /// Model id (file stem).
    pub id: String,
    /// Artifact size on disk.
    pub bytes: u64,
    /// FNV-1a 64 of the artifact bytes.
    pub checksum: u64,
    /// Whether a decoded copy is currently resident in the cache.
    pub cached: bool,
    /// For entries that could not be read: the
    /// [`StoreError::DirEntry`]-wrapped failure, rendered. Healthy
    /// entries carry `None`.
    pub error: Option<String>,
}

struct CacheEntry {
    id: String,
    /// The artifact bytes `model` was decoded from, or written for: a
    /// `get` that reads exactly these bytes is a hit.
    bytes: Arc<[u8]>,
    model: Arc<FittedModel>,
    stamp: u64,
}

/// A cache entry's bytes and model, shared out of the cache lock.
type Resident = (Arc<[u8]>, Arc<FittedModel>);

struct CacheState {
    entries: Vec<CacheEntry>,
    clock: u64,
    /// Ids whose artifact is being (or failed to finish being) removed
    /// from disk: `get` answers 404 for these even if the file is still
    /// present, and decode results are not re-cached. Cleared once the
    /// file is confirmed gone, or by `insert` (a refit revives the id).
    tombstones: HashSet<String>,
}

/// Byte-compared LRU of decoded models over a watched directory.
pub struct ModelRegistry {
    dir: PathBuf,
    capacity: usize,
    sink: MetricsSink,
    cache: Mutex<CacheState>,
    /// Per-id single-flight guards: concurrent `get`s for the same id
    /// decode once, the losers wait and then take the cache hit. Weak
    /// so an entry dies with its last in-flight request.
    flights: Mutex<HashMap<String, Weak<Mutex<()>>>>,
}

/// Whether `id` is safe to splice into a filename (also the charset
/// tenant names use, keeping ids usable as metric label values).
pub fn valid_model_id(id: &str) -> bool {
    !id.is_empty()
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

impl ModelRegistry {
    /// A registry over `dir`, caching at most `capacity` decoded models
    /// (clamped to at least 1) and publishing through `sink`.
    pub fn new(dir: impl Into<PathBuf>, capacity: usize, sink: MetricsSink) -> Self {
        Self {
            dir: dir.into(),
            capacity: capacity.max(1),
            sink,
            cache: Mutex::new(CacheState {
                entries: Vec::new(),
                clock: 0,
                tombstones: HashSet::new(),
            }),
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// The watched directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path the artifact for `id` lives at.
    pub fn path_for(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.dpcm"))
    }

    /// Returns the decoded model for `id`, from cache when the on-disk
    /// bytes are exactly the cached entry's, decoding (and possibly
    /// evicting) otherwise.
    pub fn get(&self, id: &str) -> Result<Arc<FittedModel>, RegistryError> {
        if !valid_model_id(id) {
            return Err(RegistryError::InvalidModelId { id: id.into() });
        }
        let path = self.path_for(id);
        if self.lookup(id).is_err() {
            // Tombstoned: the artifact is being deleted. 404 even if
            // the file still lingers on disk.
            return Err(RegistryError::UnknownModel { id: id.into() });
        }
        // Single-flight per id: one decode, concurrent callers wait
        // and then take the cache hit. The guard covers the file read
        // too, so delete-then-get interleavings stay deterministic.
        let flight = self.flight_for(id);
        let _decode_guard = flight.lock().unwrap_or_else(PoisonError::into_inner);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Confirmed gone: drop any stale cache entry (and
                // tombstone) so the registry converges to "absent".
                self.forget(id);
                return Err(RegistryError::UnknownModel { id: id.into() });
            }
            Err(e) => {
                return Err(RegistryError::Io {
                    path: path.display().to_string(),
                    source: e,
                })
            }
        };
        // The compare runs outside the cache lock, on the entry's own
        // `Arc` of its bytes.
        match self.lookup(id) {
            Ok(Some((cached, model))) if *cached == *bytes => return Ok(model),
            Ok(_) => {}
            Err(()) => return Err(RegistryError::UnknownModel { id: id.into() }),
        }
        // Decode outside the cache lock: a slow decode must not stall
        // cache hits for other models.
        let artifact = modelstore::decode_observed(&bytes, &self.sink).map_err(|e| {
            RegistryError::Corrupt {
                path: path.display().to_string(),
                source: DpCopulaError::from(StoreError::DirEntry {
                    path: path.display().to_string(),
                    source: Box::new(e),
                }),
            }
        })?;
        let mut model =
            FittedModel::from_artifact(artifact).map_err(|e| RegistryError::Corrupt {
                path: path.display().to_string(),
                source: e,
            })?;
        model.set_metrics_sink(self.sink.clone());
        let model = Arc::new(model);
        self.insert_cached(id, bytes.into(), Arc::clone(&model), false);
        Ok(model)
    }

    /// Deletes `{id}.dpcm` and invalidates the cache. The entry is
    /// tombstoned (served as 404) from the moment the call starts until
    /// the file is confirmed gone; in-flight samples holding the old
    /// `Arc` finish safely on their own copy. Returns `UnknownModel`
    /// when there was nothing to delete.
    pub fn delete(&self, id: &str) -> Result<(), RegistryError> {
        if !valid_model_id(id) {
            return Err(RegistryError::InvalidModelId { id: id.into() });
        }
        {
            let mut cache = self.cache();
            cache.entries.retain(|e| e.id != id);
            cache.tombstones.insert(id.to_string());
            self.sink.gauge_set(
                names::REGISTRY_MODELS_LOADED,
                Unit::Count,
                cache.entries.len() as u64,
            );
        }
        let path = self.path_for(id);
        match std::fs::remove_file(&path) {
            Ok(()) => {
                self.forget(id);
                self.sink.add(names::REGISTRY_DELETES_TOTAL, Unit::Count, 1);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.forget(id);
                Err(RegistryError::UnknownModel { id: id.into() })
            }
            // Removal unconfirmed: the tombstone stays, so the id keeps
            // answering 404 until a retry or a refit resolves it.
            Err(e) => Err(RegistryError::Io {
                path: path.display().to_string(),
                source: e,
            }),
        }
    }

    /// The cache state. Its lock recovers from poisoning: every step of
    /// every update leaves a cache that is valid to serve from (at worst
    /// an entry is missing, which costs a decode, or one entry too many
    /// is resident until the next insert evicts it), and a hit is decided
    /// against the bytes just read from disk.
    fn cache(&self) -> MutexGuard<'_, CacheState> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cache probe under one lock: `Err(())` if tombstoned, otherwise
    /// `id`'s entry, if any, as its bytes and model, touched as the most
    /// recently used.
    #[allow(clippy::result_unit_err)]
    fn lookup(&self, id: &str) -> Result<Option<Resident>, ()> {
        let mut cache = self.cache();
        if cache.tombstones.contains(id) {
            return Err(());
        }
        let clock = cache.clock + 1;
        cache.clock = clock;
        Ok(cache.entries.iter_mut().find(|e| e.id == id).map(|entry| {
            entry.stamp = clock;
            (Arc::clone(&entry.bytes), Arc::clone(&entry.model))
        }))
    }

    /// Clears the tombstone and any cache entry for `id`: the artifact
    /// is confirmed absent from disk.
    fn forget(&self, id: &str) {
        let mut cache = self.cache();
        cache.tombstones.remove(id);
        cache.entries.retain(|e| e.id != id);
        self.sink.gauge_set(
            names::REGISTRY_MODELS_LOADED,
            Unit::Count,
            cache.entries.len() as u64,
        );
    }

    /// The single-flight guard for `id`, creating (and pruning dead)
    /// entries as needed.
    fn flight_for(&self, id: &str) -> Arc<Mutex<()>> {
        let mut flights = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(flight) = flights.get(id).and_then(Weak::upgrade) {
            return flight;
        }
        flights.retain(|_, w| w.strong_count() > 0);
        let flight = Arc::new(Mutex::new(()));
        flights.insert(id.to_string(), Arc::downgrade(&flight));
        flight
    }

    /// Caches a freshly fitted model, right after its `{id}.dpcm` was
    /// written canonically: with its canonical encoding as the bytes a
    /// hit must read.
    pub fn insert(&self, id: &str, model: Arc<FittedModel>) {
        let bytes = model.artifact().encode();
        self.insert_written(id, bytes, model);
    }

    /// [`insert`](Self::insert) with the bytes the caller just wrote:
    /// the fit route holds them, so it does not encode the artifact
    /// again.
    pub(crate) fn insert_written(&self, id: &str, bytes: Vec<u8>, model: Arc<FittedModel>) {
        // A refit revives a tombstoned id: the new artifact was just
        // written, so the pending deletion is superseded.
        self.insert_cached(id, bytes.into(), model, true);
    }

    fn insert_cached(&self, id: &str, bytes: Arc<[u8]>, model: Arc<FittedModel>, revive: bool) {
        let mut cache = self.cache();
        if revive {
            cache.tombstones.remove(id);
        } else if cache.tombstones.contains(id) {
            // Deleted while we were decoding: hand the model to the
            // caller (it already holds the Arc) but don't resurrect it
            // in the cache.
            return;
        }
        let clock = cache.clock + 1;
        cache.clock = clock;
        // A same-id entry with stale bytes is replaced, not kept
        // alongside: ids are unique in the cache.
        cache.entries.retain(|e| e.id != id);
        cache.entries.push(CacheEntry {
            id: id.to_string(),
            bytes,
            model,
            stamp: clock,
        });
        while cache.entries.len() > self.capacity {
            let (oldest, _) = cache
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                // The loop runs only while len > capacity ≥ 1 (`new`
                // clamps it), so there is an entry to evict.
                .expect("non-empty cache");
            cache.entries.remove(oldest);
            self.sink
                .add(names::REGISTRY_CACHE_EVICTIONS_TOTAL, Unit::Count, 1);
        }
        self.sink.gauge_set(
            names::REGISTRY_MODELS_LOADED,
            Unit::Count,
            cache.entries.len() as u64,
        );
    }

    /// Number of decoded models currently resident.
    pub fn cached_models(&self) -> usize {
        self.cache().entries.len()
    }

    /// Scans the watched directory: every `*.dpcm` entry, sorted by id,
    /// with unreadable entries reported in-line (as the rendered
    /// [`StoreError::DirEntry`]) rather than failing the whole listing.
    pub fn list(&self) -> Result<Vec<ModelInfo>, RegistryError> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| RegistryError::Io {
            path: self.dir.display().to_string(),
            source: e,
        })?;
        let cached: Vec<(String, Arc<[u8]>)> = self
            .cache()
            .entries
            .iter()
            .map(|e| (e.id.clone(), Arc::clone(&e.bytes)))
            .collect();
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| RegistryError::Io {
                path: self.dir.display().to_string(),
                source: e,
            })?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("dpcm") {
                continue;
            }
            let Some(id) = path.file_stem().and_then(|s| s.to_str()).map(String::from) else {
                continue;
            };
            match std::fs::read(&path) {
                Ok(bytes) => {
                    out.push(ModelInfo {
                        cached: cached.iter().any(|(i, b)| *i == id && **b == *bytes),
                        id,
                        bytes: bytes.len() as u64,
                        checksum: fnv1a64(&bytes),
                        error: None,
                    });
                }
                Err(e) => {
                    let wrapped = StoreError::DirEntry {
                        path: path.display().to_string(),
                        source: Box::new(StoreError::from(e)),
                    };
                    out.push(ModelInfo {
                        id,
                        bytes: 0,
                        checksum: 0,
                        cached: false,
                        error: Some(wrapped.to_string()),
                    });
                }
            }
        }
        out.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcopula::SynthesisRequest;
    use dpmech::Epsilon;

    fn fit_tiny(seed: u64) -> FittedModel {
        let columns = vec![
            (0..40u32).map(|i| i % 4).collect::<Vec<u32>>(),
            (0..40u32).map(|i| (i / 2) % 3).collect(),
        ];
        let domains = vec![4usize, 3];
        let (model, _) = SynthesisRequest::new(&columns, &domains, Epsilon::new(2.0).unwrap())
            .seed(seed)
            .fit()
            .unwrap();
        model
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dpcopula-serve-registry-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A registry over `dir` publishing to a metrics registry the test
    /// can read.
    fn observed(dir: &Path, capacity: usize) -> (ModelRegistry, Arc<obskit::MetricsRegistry>) {
        let metrics = Arc::new(obskit::MetricsRegistry::new());
        let sink = MetricsSink::to_registry(Arc::clone(&metrics));
        (ModelRegistry::new(dir, capacity, sink), metrics)
    }

    /// Artifacts decoded so far.
    fn decodes(metrics: &obskit::MetricsRegistry) -> u64 {
        metrics
            .snapshot()
            .get("modelstore_loads_total")
            .and_then(|e| e.value.as_u64())
            .unwrap_or(0)
    }

    #[test]
    fn get_decodes_once_and_rereads_after_overwrite() {
        let dir = temp_dir("reload");
        let (reg, metrics) = observed(&dir, 4);
        fit_tiny(1).save(reg.path_for("m")).unwrap();
        let first = reg.get("m").unwrap();
        let again = reg.get("m").unwrap();
        assert!(Arc::ptr_eq(&first, &again), "same bytes must hit the cache");
        assert_eq!(decodes(&metrics), 1, "a hit must not decode");

        // Overwriting the artifact is picked up without restart. (Same
        // section lengths, different seed — the case whole-file CRC-32
        // cannot distinguish, which is why the key is FNV-1a 64.)
        let len = std::fs::metadata(reg.path_for("m")).unwrap().len();
        fit_tiny(2).save(reg.path_for("m")).unwrap();
        assert_eq!(std::fs::metadata(reg.path_for("m")).unwrap().len(), len);
        let reloaded = reg.get("m").unwrap();
        assert!(!Arc::ptr_eq(&first, &reloaded));
        assert_eq!(
            decodes(&metrics),
            2,
            "an overwrite decodes exactly once more"
        );
        assert!(Arc::ptr_eq(&reloaded, &reg.get("m").unwrap()));
        assert_eq!(decodes(&metrics), 2);
        assert_eq!(reg.cached_models(), 1, "stale entry replaced, not kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let dir = temp_dir("lru");
        let registry = Arc::new(obskit::MetricsRegistry::new());
        let sink = MetricsSink::to_registry(Arc::clone(&registry));
        let reg = ModelRegistry::new(&dir, 2, sink);
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            fit_tiny(i as u64).save(reg.path_for(id)).unwrap();
        }
        reg.get("a").unwrap();
        reg.get("b").unwrap();
        reg.get("a").unwrap(); // refresh a: b is now the LRU entry
        reg.get("c").unwrap(); // evicts b
        assert_eq!(reg.cached_models(), 2);
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("registry_cache_evictions_total")
                .and_then(|e| e.value.as_u64()),
            Some(1)
        );
        assert_eq!(
            snap.get("registry_models_loaded")
                .and_then(|e| e.value.as_u64()),
            Some(2)
        );
        let listed = reg.list().unwrap();
        let cached: Vec<&str> = listed
            .iter()
            .filter(|m| m.cached)
            .map(|m| m.id.as_str())
            .collect();
        assert_eq!(cached, ["a", "c"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_named() {
        let dir = temp_dir("errors");
        let reg = ModelRegistry::new(&dir, 4, MetricsSink::off());
        assert!(matches!(
            reg.get("no-such-model"),
            Err(RegistryError::UnknownModel { .. })
        ));
        assert!(matches!(
            reg.get("../escape"),
            Err(RegistryError::InvalidModelId { .. })
        ));
        std::fs::write(reg.path_for("bad"), b"not a dpcm artifact").unwrap();
        match reg.get("bad") {
            Err(RegistryError::Corrupt { path, source }) => {
                assert!(path.ends_with("bad.dpcm"));
                let reason = source.to_string();
                assert!(reason.contains("model directory entry"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_uses_the_canonical_checksum() {
        let dir = temp_dir("insert");
        let (reg, metrics) = observed(&dir, 4);
        let model = Arc::new(fit_tiny(7));
        model.save(reg.path_for("fresh")).unwrap();
        reg.insert("fresh", Arc::clone(&model));
        // The cached entry holds the canonical encoding, which is the
        // file's bytes, so the next get is a hit, not a decode.
        let hit = reg.get("fresh").unwrap();
        assert!(Arc::ptr_eq(&hit, &model));
        assert_eq!(decodes(&metrics), 0, "a hit after insert must not decode");
        assert_eq!(reg.cached_models(), 1);
        // The listed key is the canonical checksum of the file.
        let checksum = fnv1a64(&model_bytes(&reg));
        assert_eq!(hit.artifact().checksum(), checksum);
        let listed = reg.list().unwrap();
        assert_eq!((listed[0].checksum, listed[0].cached), (checksum, true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn model_bytes(reg: &ModelRegistry) -> Vec<u8> {
        std::fs::read(reg.path_for("fresh")).unwrap()
    }

    #[test]
    fn delete_evicts_removes_the_file_and_404s_afterwards() {
        let dir = temp_dir("delete");
        let registry = Arc::new(obskit::MetricsRegistry::new());
        let sink = MetricsSink::to_registry(Arc::clone(&registry));
        let reg = ModelRegistry::new(&dir, 4, sink);
        fit_tiny(3).save(reg.path_for("gone")).unwrap();
        let held = reg.get("gone").unwrap();
        assert_eq!(reg.cached_models(), 1);

        reg.delete("gone").unwrap();
        assert!(!reg.path_for("gone").exists());
        assert_eq!(reg.cached_models(), 0);
        assert!(matches!(
            reg.get("gone"),
            Err(RegistryError::UnknownModel { .. })
        ));
        // A second delete has nothing to remove.
        assert!(matches!(
            reg.delete("gone"),
            Err(RegistryError::UnknownModel { .. })
        ));
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("registry_deletes_total")
                .and_then(|e| e.value.as_u64()),
            Some(1)
        );
        // The Arc handed out before the delete still samples fine.
        assert!(held.artifact().checksum() != 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refit_revives_a_tombstoned_id() {
        let dir = temp_dir("revive");
        let reg = ModelRegistry::new(&dir, 4, MetricsSink::off());
        fit_tiny(4).save(reg.path_for("m")).unwrap();
        reg.get("m").unwrap();
        reg.delete("m").unwrap();
        assert!(matches!(
            reg.get("m"),
            Err(RegistryError::UnknownModel { .. })
        ));
        // A refit (fit handler path: save then insert) brings it back.
        let model = fit_tiny(5);
        model.save(reg.path_for("m")).unwrap();
        reg.insert("m", Arc::new(model));
        assert!(reg.get("m").is_ok());
        assert_eq!(reg.cached_models(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panic_holding_the_flight_does_not_fail_the_waiting_get() {
        let dir = temp_dir("flight-panic");
        let reg = ModelRegistry::new(&dir, 4, MetricsSink::off());
        fit_tiny(8).save(reg.path_for("m")).unwrap();
        // A holds m's flight, as a decode does, and panics once B has
        // taken its own handle on that flight in `get` (the handle count
        // rises to two), so B locks the flight A poisoned.
        let flight = reg.flight_for("m");
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (panic_tx, panic_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let held = &flight;
            let a = scope.spawn(move || {
                let _guard = held.lock().unwrap();
                held_tx.send(()).unwrap();
                panic_rx.recv().unwrap();
                panic!("decode failed while holding the flight");
            });
            held_rx.recv().unwrap();
            let b = scope.spawn(|| reg.get("m"));
            while Arc::strong_count(&flight) < 2 {
                std::thread::yield_now();
            }
            panic_tx.send(()).unwrap();
            assert!(a.join().is_err(), "A panics");
            let model = b
                .join()
                .expect("B must not panic")
                .expect("B gets the model");
            assert_eq!(model.dims(), 2);
        });
        assert!(flight.is_poisoned());
        drop(flight);
        // C, after the last holder of the poisoned flight is gone.
        assert!(reg.get("m").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_cache_lock_still_serves() {
        let dir = temp_dir("cache-panic");
        let reg = ModelRegistry::new(&dir, 4, MetricsSink::off());
        fit_tiny(9).save(reg.path_for("m")).unwrap();
        let first = reg.get("m").unwrap();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _cache = reg.cache.lock().unwrap();
                panic!("panic while holding the cache lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(reg.cache.is_poisoned());
        // Every path through the cache lock still works: a hit, the
        // listing, an insert, a delete and a miss.
        assert!(Arc::ptr_eq(&first, &reg.get("m").unwrap()));
        assert_eq!(reg.cached_models(), 1);
        assert!(reg.list().unwrap()[0].cached);
        let refit = fit_tiny(10);
        refit.save(reg.path_for("n")).unwrap();
        reg.insert("n", Arc::new(refit));
        assert_eq!(reg.cached_models(), 2);
        reg.delete("m").unwrap();
        assert!(matches!(
            reg.get("m"),
            Err(RegistryError::UnknownModel { .. })
        ));
        assert!(reg.get("n").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
