//! The summary store: in-memory tables, disk persistence, and the
//! process-wide shared registry with its visible/fresh split.

use crate::wire::{fnv1a64, Reader, Writer, MAGIC, VERSION};
use crate::{SymFact, SymSummary};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// An error loading a store file.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `FDSS` magic.
    BadMagic,
    /// The file's format version is not understood.
    BadVersion(u32),
    /// The file is structurally invalid (truncated, bad tags, checksum
    /// mismatch, …).
    Corrupt(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "summary store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "summary store: not a FDSS file"),
            StoreError::BadVersion(v) => write!(f, "summary store: unsupported version {v}"),
            StoreError::Corrupt(what) => write!(f, "summary store corrupt: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// All persisted summaries of one method, under one body fingerprint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MethodSummaries {
    /// Transitive body fingerprint the summaries were computed under.
    pub body_hash: u64,
    /// Entry fact → end summaries.
    pub entries: BTreeMap<SymFact, Vec<SymSummary>>,
}

/// Result of a store lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Summaries exist for this `(method, body hash, entry fact)`.
    Hit(Vec<SymSummary>),
    /// The method is present but under a *different* body hash — its
    /// code (or something it transitively calls) changed.
    Stale,
    /// Nothing stored for this method/entry.
    Miss,
}

/// An in-memory summary store: deterministic (`BTreeMap`-ordered)
/// tables keyed by method signature, plus the configuration fingerprint
/// the summaries were computed under.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SummaryStore {
    /// Fingerprint of the analysis configuration (sources, sinks,
    /// wrapper rules, solver options). Summaries are only meaningful
    /// under the configuration that produced them.
    pub context_hash: u64,
    methods: BTreeMap<String, MethodSummaries>,
}

impl SummaryStore {
    /// Creates an empty store for `context_hash`.
    pub fn new(context_hash: u64) -> Self {
        SummaryStore { context_hash, methods: BTreeMap::new() }
    }

    /// Number of methods with stored summaries.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Total number of `(entry fact → summaries)` entries.
    pub fn entry_count(&self) -> usize {
        self.methods.values().map(|m| m.entries.len()).sum()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Iterates `(signature, summaries)` in signature order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &MethodSummaries)> {
        self.methods.iter()
    }

    /// Records summaries for `(sig, body_hash, entry)`. A differing
    /// stored body hash means the method changed: all its old entries
    /// are dropped first. Exit summaries are kept sorted and deduped so
    /// the store contents — and the file bytes — are canonical.
    pub fn insert(&mut self, sig: &str, body_hash: u64, entry: SymFact, exits: Vec<SymSummary>) {
        let m = self.methods.entry(sig.to_owned()).or_default();
        if m.body_hash != body_hash {
            m.entries.clear();
            m.body_hash = body_hash;
        }
        let slot = m.entries.entry(entry).or_default();
        slot.extend(exits);
        slot.sort();
        slot.dedup();
    }

    /// Looks up the summaries for `(sig, body_hash, entry)`.
    pub fn lookup(&self, sig: &str, body_hash: u64, entry: &SymFact) -> Lookup {
        match self.methods.get(sig) {
            None => Lookup::Miss,
            Some(m) if m.body_hash != body_hash => Lookup::Stale,
            Some(m) => match m.entries.get(entry) {
                Some(exits) => Lookup::Hit(exits.clone()),
                None => Lookup::Miss,
            },
        }
    }

    /// Merges all of `other`'s entries into `self` (other's body hashes
    /// win on conflict — they are newer).
    pub fn merge(&mut self, other: &SummaryStore) {
        for (sig, ms) in &other.methods {
            for (entry, exits) in &ms.entries {
                self.insert(sig, ms.body_hash, entry.clone(), exits.clone());
            }
        }
    }

    /// Serializes the store to its wire format (including checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u64(self.context_hash);
        w.u64(self.methods.len() as u64);
        for (sig, ms) in &self.methods {
            w.str(sig);
            w.u64(ms.body_hash);
            w.u32(u32::try_from(ms.entries.len()).expect("too many entries"));
            for (entry, exits) in &ms.entries {
                w.fact(entry);
                w.u32(u32::try_from(exits.len()).expect("too many exits"));
                for s in exits {
                    w.u32(s.exit_idx);
                    w.fact(&s.fact);
                }
            }
        }
        let checksum = fnv1a64(&w.buf);
        w.u64(checksum);
        w.buf
    }

    /// Deserializes a store from its wire format.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on bad magic, unknown version, truncation
    /// or checksum mismatch. Never panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SummaryStore, StoreError> {
        let mut r = Reader::new(bytes);
        if r.remaining() < MAGIC.len() + 4 + 8 + 8 + 8 {
            return Err(StoreError::Corrupt("file too short"));
        }
        let mut magic = [0u8; 4];
        for slot in &mut magic {
            *slot = r.u8()?;
        }
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        // Verify the trailing checksum before trusting any counts.
        let body_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(
            bytes[body_len..].try_into().expect("checksum slice is 8 bytes"),
        );
        if fnv1a64(&bytes[..body_len]) != stored {
            return Err(StoreError::Corrupt("checksum mismatch"));
        }
        let context_hash = r.u64()?;
        let method_count = r.u64()?;
        let mut store = SummaryStore::new(context_hash);
        for _ in 0..method_count {
            if r.pos() >= body_len {
                return Err(StoreError::Corrupt("method table overruns checksum"));
            }
            let sig = r.str()?;
            let body_hash = r.u64()?;
            let entry_count = r.count(5)?;
            let ms = store.methods.entry(sig).or_default();
            ms.body_hash = body_hash;
            for _ in 0..entry_count {
                let entry = r.fact()?;
                let exit_count = r.count(5)?;
                let mut exits = Vec::with_capacity(exit_count);
                for _ in 0..exit_count {
                    exits.push(r.summary()?);
                }
                ms.entries.insert(entry, exits);
            }
        }
        if r.remaining() != 8 {
            return Err(StoreError::Corrupt("trailing bytes after method table"));
        }
        Ok(store)
    }
}

/// A process-shared store with a *visible / fresh* split.
///
/// Lookups read only the `visible` half (what was on disk when the
/// store was opened, plus anything promoted by a flush). Newly computed
/// summaries are recorded into the `fresh` half and become visible —
/// and persistent — only after [`flush_dir`]. A run therefore never
/// consumes its own discoveries, keeping cold runs bit-identical to
/// uncached runs.
#[derive(Debug)]
pub struct SharedStore {
    /// The store file this store loads from and flushes to.
    path: PathBuf,
    visible: RwLock<SummaryStore>,
    fresh: Mutex<SummaryStore>,
    /// Why an existing store file was unusable (corrupt, truncated,
    /// wrong version or wrong context); the cache then starts cold
    /// instead of failing the analysis.
    load_error: Option<String>,
}

impl SharedStore {
    /// The load failure message, if the on-disk file was unusable.
    pub fn load_error(&self) -> Option<&str> {
        self.load_error.as_deref()
    }

    /// Looks up `(sig, body_hash, entry)` among the *visible*
    /// summaries.
    pub fn lookup(&self, sig: &str, body_hash: u64, entry: &SymFact) -> Lookup {
        self.visible.read().unwrap().lookup(sig, body_hash, entry)
    }

    /// Number of visible methods.
    pub fn visible_methods(&self) -> usize {
        self.visible.read().unwrap().method_count()
    }

    /// Number of entries recorded but not yet flushed.
    pub fn fresh_entries(&self) -> usize {
        self.fresh.lock().unwrap().entry_count()
    }

    /// Runs `f` over the visible store (read-locked).
    pub fn with_visible<R>(&self, f: impl FnOnce(&SummaryStore) -> R) -> R {
        f(&self.visible.read().unwrap())
    }

    /// Records freshly computed summaries (not visible until flushed).
    /// Entries already visible with the same body hash are skipped —
    /// they came *from* the store.
    pub fn record(&self, sig: &str, body_hash: u64, entry: SymFact, exits: Vec<SymSummary>) {
        if matches!(self.lookup(sig, body_hash, &entry), Lookup::Hit(_)) {
            return;
        }
        self.fresh.lock().unwrap().insert(sig, body_hash, entry, exits);
    }

    /// Promotes fresh summaries into the visible half and atomically
    /// rewrites the store file with the merged store. With nothing
    /// staged it writes nothing. Returns the number of visible methods
    /// after the merge.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from writing the file; the staged
    /// summaries then stay staged, so the next flush retries.
    pub fn flush(&self) -> io::Result<usize> {
        let mut visible = self.visible.write().unwrap();
        let mut fresh = self.fresh.lock().unwrap();
        if fresh.is_empty() {
            return Ok(visible.method_count());
        }
        let staged = std::mem::replace(&mut *fresh, SummaryStore::new(visible.context_hash));
        visible.merge(&staged);
        if let Err(e) = flowdroid_store::write_atomic(&self.path, &visible.to_bytes()) {
            *fresh = staged;
            return Err(e);
        }
        Ok(visible.method_count())
    }
}

type Registry = Mutex<HashMap<(PathBuf, String, u64), Arc<SharedStore>>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Reads and decodes the store file at `path`. A missing file is an
/// empty store; a file whose embedded context hash disagrees with the
/// one in its name is an error like any other corruption.
fn load(path: &Path, context_hash: u64) -> Result<SummaryStore, StoreError> {
    let Some(bytes) = flowdroid_store::read(path)? else {
        return Ok(SummaryStore::new(context_hash));
    };
    let store = SummaryStore::from_bytes(&bytes)?;
    if store.context_hash != context_hash {
        return Err(StoreError::Corrupt("context hash disagrees with the file name"));
    }
    Ok(store)
}

/// Opens (or returns the already-open) shared store for `dir` under
/// namespace `ns` and `context_hash`. On a registry miss the store file
/// ([`store_path`](flowdroid_store::store_path)) is read and decoded
/// once per `(directory, namespace, context)` triple. A missing file
/// starts cold; an unusable one is *rejected cleanly* — the store
/// starts cold and remembers the reason (see
/// [`SharedStore::load_error`]). Every namespace and context has a file
/// of its own, so none of them observes or overwrites another's
/// summaries.
pub fn open_shared_ns(dir: &Path, ns: &str, context_hash: u64) -> Arc<SharedStore> {
    let key = (dir.to_path_buf(), ns.to_string(), context_hash);
    let mut reg = registry().lock().unwrap();
    if let Some(existing) = reg.get(&key) {
        return Arc::clone(existing);
    }
    let path = flowdroid_store::store_path(dir, ns, context_hash);
    let (visible, load_error) = match load(&path, context_hash) {
        Ok(store) => (store, None),
        Err(e) => (SummaryStore::new(context_hash), Some(e.to_string())),
    };
    let shared = Arc::new(SharedStore {
        path,
        visible: RwLock::new(visible),
        fresh: Mutex::new(SummaryStore::new(context_hash)),
        load_error,
    });
    reg.insert(key, Arc::clone(&shared));
    shared
}

/// Flushes every open shared store rooted at `dir` (all namespaces and
/// contexts): fresh summaries become visible to later sessions in this
/// process and are written to their store files.
///
/// # Errors
///
/// Returns the first I/O error encountered.
pub fn flush_dir(dir: &Path) -> io::Result<()> {
    let stores: Vec<Arc<SharedStore>> = {
        let reg = registry().lock().unwrap();
        reg.iter()
            .filter(|((d, _, _), _)| d == dir)
            .map(|(_, s)| Arc::clone(s))
            .collect()
    };
    for s in stores {
        s.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SymAp, SymBase, SymField};

    fn fact(slot: u32) -> SymFact {
        SymFact::Taint {
            ap: SymAp {
                base: SymBase::Local(slot),
                fields: vec![SymField { class: "C".into(), name: "f".into() }],
                truncated: false,
            },
            active: true,
            activation: None,
        }
    }

    fn sample() -> SummaryStore {
        let mut s = SummaryStore::new(42);
        s.insert(
            "<A: void m()>",
            7,
            SymFact::Zero,
            vec![SymSummary { exit_idx: 3, fact: fact(0) }],
        );
        s.insert(
            "<A: void m()>",
            7,
            fact(1),
            vec![
                SymSummary { exit_idx: 3, fact: fact(1) },
                SymSummary { exit_idx: 3, fact: fact(2) },
            ],
        );
        s.insert("<B: int g(int)>", 9, fact(0), vec![]);
        s
    }

    #[test]
    fn store_round_trips() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = SummaryStore::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        // Canonical: re-encoding produces identical bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn lookup_semantics() {
        let s = sample();
        assert!(matches!(s.lookup("<A: void m()>", 7, &SymFact::Zero), Lookup::Hit(_)));
        assert_eq!(s.lookup("<A: void m()>", 8, &SymFact::Zero), Lookup::Stale);
        assert_eq!(s.lookup("<A: void m()>", 7, &fact(9)), Lookup::Miss);
        assert_eq!(s.lookup("<Z: void z()>", 7, &SymFact::Zero), Lookup::Miss);
    }

    #[test]
    fn new_body_hash_drops_old_entries() {
        let mut s = sample();
        s.insert("<A: void m()>", 8, SymFact::Zero, vec![]);
        assert_eq!(s.lookup("<A: void m()>", 7, &fact(1)), Lookup::Stale);
        assert!(matches!(s.lookup("<A: void m()>", 8, &SymFact::Zero), Lookup::Hit(_)));
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SummaryStore::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn corrupted_file_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                SummaryStore::from_bytes(&bad).is_err(),
                "flipping byte {i} must fail the checksum"
            );
        }
    }

    #[test]
    fn shared_store_hides_fresh_until_flush() {
        let dir = std::env::temp_dir().join(format!("fdss-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shared = open_shared_ns(&dir, "", 1);
        assert!(shared.load_error().is_none());
        shared.record("<A: void m()>", 7, SymFact::Zero, vec![]);
        assert_eq!(shared.lookup("<A: void m()>", 7, &SymFact::Zero), Lookup::Miss);
        flush_dir(&dir).unwrap();
        assert!(matches!(shared.lookup("<A: void m()>", 7, &SymFact::Zero), Lookup::Hit(_)));
        // A later open of the same (dir, context) sees the same store.
        let again = open_shared_ns(&dir, "", 1);
        assert!(matches!(again.lookup("<A: void m()>", 7, &SymFact::Zero), Lookup::Hit(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
