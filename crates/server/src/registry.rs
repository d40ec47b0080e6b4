//! Named, versioned ontologies shared across sessions and requests.
//!
//! The four built-in worlds (`erdos`, `sp2b`, `bsbm`, `movies`) are
//! generated lazily on first use at their default scales — binding a
//! port stays instant — and cached as `Arc<Ontology>` so concurrent
//! requests share one immutable graph. Users can also `POST` their own
//! world as triple text (the `questpro generate` format) or as a binary
//! snapshot.
//!
//! **Live updates** (`POST /ontologies/:name/update`) never mutate an
//! ontology in place. Every named world is a short, versioned chain of
//! immutable copy-on-write snapshots: an update derives version `v+1`
//! from head `v` via [`Ontology::apply_delta`] and installs it as the
//! new head, while the last [`HISTORY`] versions stay resolvable so
//! in-flight sessions pinned to an older version keep answering against
//! the exact graph they started on. When a pinned version falls off the
//! bounded history, [`Registry::get_version`] reports
//! [`VersionLookup::Evicted`] — a named failure the session layer turns
//! into a `410` rather than a silent wrong-version answer.
//!
//! Locking discipline: one registry-wide mutex guards the name map;
//! ontology *construction* happens outside the lock so a slow build
//! (sp2b at scale) never stalls requests touching other worlds. Two
//! racing builders may both construct; the first insert wins and the
//! loser's copy is dropped — correctness over duplicated effort.
//! Updates additionally serialize on a dedicated mutex held across
//! read-head → apply-delta → install-new-head, so concurrent updates to
//! one world can never drop each other's triples; readers never touch
//! that mutex.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use questpro_data::{
    erdos_ontology, generate_bsbm, generate_movies, generate_sp2b, BsbmConfig, MoviesConfig,
    Sp2bConfig,
};
use questpro_graph::{triples, DeltaSummary, Ontology, TripleDelta};

/// Versions retained per world (head plus `HISTORY - 1` predecessors).
/// Sessions pinned further back get an honest eviction error.
pub const HISTORY: usize = 4;

/// The versioned chain of one materialized world.
struct Versioned {
    /// `(version, snapshot)` pairs, oldest first, newest = head. Never
    /// empty; version numbers start at 1 and increment per update.
    chain: VecDeque<(u64, Arc<Ontology>)>,
}

impl Versioned {
    fn new(ont: Arc<Ontology>) -> Versioned {
        let mut chain = VecDeque::with_capacity(HISTORY);
        chain.push_back((1, ont));
        Versioned { chain }
    }

    fn head(&self) -> (u64, Arc<Ontology>) {
        let (v, ont) = self.chain.back().expect("chain never empty");
        (*v, Arc::clone(ont))
    }

    /// Installs a new head and returns the versions it pushed off the
    /// history, so the caller can drop them (possibly freeing a whole
    /// graph) after releasing the registry lock.
    fn push(&mut self, version: u64, ont: Arc<Ontology>) -> Vec<(u64, Arc<Ontology>)> {
        self.chain.push_back((version, ont));
        let excess = self.chain.len().saturating_sub(HISTORY);
        self.chain.drain(..excess).collect()
    }
}

/// How a named world comes to exist.
enum Entry {
    /// Generated on first access by the named builder.
    Lazy(fn() -> Ontology),
    /// Materialized, with bounded version history.
    Loaded(Versioned),
}

/// Outcome of resolving a `(name, version)` pin.
pub enum VersionLookup {
    /// The pinned version is still retained.
    Found(Arc<Ontology>),
    /// The version existed but live updates pushed it off the bounded
    /// history — the caller must fail loudly, not answer from head.
    Evicted {
        /// The current head version, for the error message.
        head: u64,
    },
    /// No such world, or a version number that was never assigned.
    Unknown,
}

/// A concurrent name → versioned ontology map; see the module docs.
pub struct Registry {
    inner: Mutex<BTreeMap<String, Entry>>,
    /// Serializes read-head → apply → install for updates (all worlds;
    /// updates are rare and readers never take this).
    update_serial: Mutex<()>,
}

impl Registry {
    /// A registry pre-populated with the built-in worlds.
    pub fn with_builtins() -> Registry {
        let mut map: BTreeMap<String, Entry> = BTreeMap::new();
        map.insert("erdos".into(), Entry::Lazy(erdos_ontology));
        map.insert(
            "sp2b".into(),
            Entry::Lazy(|| generate_sp2b(&Sp2bConfig::default())),
        );
        map.insert(
            "bsbm".into(),
            Entry::Lazy(|| generate_bsbm(&BsbmConfig::default())),
        );
        map.insert(
            "movies".into(),
            Entry::Lazy(|| generate_movies(&MoviesConfig::default())),
        );
        Registry {
            inner: Mutex::new(map),
            update_serial: Mutex::new(()),
        }
    }

    /// The named ontology's head version, building it first if it is a
    /// built-in that has not been touched yet. `None` for unknown names.
    pub fn get(&self, name: &str) -> Option<Arc<Ontology>> {
        self.get_versioned(name).map(|(_, ont)| ont)
    }

    /// The named ontology's head as `(version, ontology)`.
    pub fn get_versioned(&self, name: &str) -> Option<(u64, Arc<Ontology>)> {
        let builder = {
            let map = lock(&self.inner);
            match map.get(name) {
                None => return None,
                Some(Entry::Loaded(v)) => return Some(v.head()),
                Some(Entry::Lazy(f)) => *f,
            }
        };
        // Build outside the lock; racing builders are resolved by
        // whoever inserts first.
        let built = Arc::new(builder());
        let mut map = lock(&self.inner);
        match map.get(name) {
            Some(Entry::Loaded(v)) => Some(v.head()),
            _ => {
                map.insert(
                    name.to_string(),
                    Entry::Loaded(Versioned::new(Arc::clone(&built))),
                );
                Some((1, built))
            }
        }
    }

    /// Resolves a pinned `(name, version)` pair; see [`VersionLookup`].
    /// Never materializes a lazy world: a pin can only refer to a world
    /// something already materialized.
    pub fn get_version(&self, name: &str, version: u64) -> VersionLookup {
        let map = lock(&self.inner);
        match map.get(name) {
            Some(Entry::Loaded(v)) => {
                let (head, _) = v.chain.back().expect("chain never empty");
                if let Some((_, ont)) = v.chain.iter().find(|(ver, _)| *ver == version) {
                    VersionLookup::Found(Arc::clone(ont))
                } else if version >= 1 && version < *head {
                    VersionLookup::Evicted { head: *head }
                } else {
                    VersionLookup::Unknown
                }
            }
            _ => VersionLookup::Unknown,
        }
    }

    /// Applies a batched update to the named world's head, installing
    /// the result as the new head version.
    ///
    /// # Errors
    /// `Err((status, message))` with `404` for unknown names and `409`
    /// for semantic rejections (missing delete, duplicate insert) — the
    /// head is unchanged in every error case.
    pub fn update(
        &self,
        name: &str,
        delta: &TripleDelta,
    ) -> Result<(u64, Arc<Ontology>, DeltaSummary), (u16, String)> {
        // One update at a time: a racing pair applying to the same head
        // would silently drop whichever installed first.
        let _serial = lock(&self.update_serial);
        let (head_version, head) = self
            .get_versioned(name)
            .ok_or_else(|| (404, format!("no ontology named {name:?}")))?;
        // The expensive delta-apply runs outside the map lock; the
        // update mutex alone serializes it.
        let (next, summary) = head.apply_delta(delta).map_err(|e| (409, e.to_string()))?;
        let next = Arc::new(next);
        let new_version = head_version + 1;
        let evicted = match lock(&self.inner).get_mut(name) {
            Some(Entry::Loaded(v)) => v.push(new_version, Arc::clone(&next)),
            // The name existed moments ago (get_versioned materialized
            // it); it cannot regress to Lazy or vanish — entries are
            // never removed. Unreachable in practice, honest if not.
            _ => return Err((404, format!("no ontology named {name:?}"))),
        };
        // Freeing an unpinned evicted version happens here, with the map
        // lock released, so readers' `get_versioned` never wait on it.
        drop(evicted);
        Ok((new_version, next, summary))
    }

    /// Registers a user-posted world from triple text.
    ///
    /// # Errors
    /// The name being taken, or the triple text failing to parse; both
    /// as a displayable message.
    pub fn insert(&self, name: &str, triple_text: &str) -> Result<Arc<Ontology>, String> {
        check_name(name)?;
        let ont = Arc::new(triples::parse(triple_text).map_err(|e| e.to_string())?);
        self.insert_loaded(name, ont)
    }

    /// Registers a world from binary snapshot bytes (`questpro store
    /// build`). Registration is atomic: the bytes are fully validated
    /// and the ontology fully assembled *before* the name map is
    /// touched, so no failure path can leave a half-registered entry —
    /// and a name that failed to register stays free for a corrected
    /// retry.
    ///
    /// # Errors
    /// The name being taken, or the snapshot failing strict validation;
    /// both as a displayable message.
    pub fn insert_snapshot(&self, name: &str, bytes: &[u8]) -> Result<Arc<Ontology>, String> {
        check_name(name)?;
        let store = questpro_store::decode(bytes).map_err(|e| e.to_string())?;
        let ont = Arc::new(store.to_ontology().map_err(|e| e.to_string())?);
        self.insert_loaded(name, ont)
    }

    /// Inserts an already-materialized ontology under `name` as
    /// version 1.
    fn insert_loaded(&self, name: &str, ont: Arc<Ontology>) -> Result<Arc<Ontology>, String> {
        let mut map = lock(&self.inner);
        if map.contains_key(name) {
            return Err(format!("ontology {name:?} already exists"));
        }
        map.insert(
            name.to_string(),
            Entry::Loaded(Versioned::new(Arc::clone(&ont))),
        );
        Ok(ont)
    }

    /// Registered names with whether each is materialized yet.
    pub fn list(&self) -> Vec<(String, bool)> {
        lock(&self.inner)
            .iter()
            .map(|(k, v)| (k.clone(), matches!(v, Entry::Loaded(_))))
            .collect()
    }

    /// Head version of a world, if materialized (for `GET` responses).
    pub fn head_version(&self, name: &str) -> Option<u64> {
        match lock(&self.inner).get(name) {
            Some(Entry::Loaded(v)) => Some(v.head().0),
            _ => None,
        }
    }

    /// Total retained versions across all worlds (the
    /// `questpro_ontology_versions_open` gauge): how many immutable
    /// snapshots the registry is keeping alive for pinned readers.
    pub fn versions_open(&self) -> usize {
        lock(&self.inner)
            .values()
            .map(|e| match e {
                Entry::Loaded(v) => v.chain.len(),
                Entry::Lazy(_) => 0,
            })
            .sum()
    }
}

/// Poison-tolerant lock: a panic in another request must degrade that
/// request, not wedge the registry for the rest of the process.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Registered names are path- and JSON-safe identifiers.
fn check_name(name: &str) -> Result<(), String> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err("ontology names must be non-empty [A-Za-z0-9_-]".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(inserts: &[(&str, &str, &str)], deletes: &[(&str, &str, &str)]) -> TripleDelta {
        let conv = |ts: &[(&str, &str, &str)]| {
            ts.iter()
                .map(|&(s, p, o)| [s.to_string(), p.to_string(), o.to_string()])
                .collect()
        };
        TripleDelta {
            inserts: conv(inserts),
            deletes: conv(deletes),
        }
    }

    #[test]
    fn builtins_materialize_lazily_and_are_shared() {
        let r = Registry::with_builtins();
        assert!(
            r.list().iter().all(|(_, loaded)| !loaded),
            "nothing is built up-front"
        );
        let a = r.get("erdos").unwrap();
        let b = r.get("erdos").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one shared instance");
        assert!(r.list().iter().any(|(n, loaded)| n == "erdos" && *loaded));
        assert!(r.get("no-such-world").is_none());
    }

    #[test]
    fn snapshots_register_and_reject_corruption() {
        let r = Registry::with_builtins();
        let ont = triples::parse("a p b\nb p c\n@type a T\n").unwrap();
        let store = questpro_store::TripleStore::from_ontology(&ont).unwrap();
        let bytes = questpro_store::encode(&store);

        let loaded = r.insert_snapshot("snap", &bytes).unwrap();
        assert_eq!(loaded.edge_count(), 2);
        assert!(r.get("snap").is_some());
        assert!(r.insert_snapshot("snap", &bytes).is_err(), "duplicate");
        assert!(r.insert_snapshot("bad name", &bytes).is_err());

        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        // The last byte lands in the osp permutation, which the store
        // validates structurally rather than by checksum (its checksum
        // deliberately stops at the pos section); either named
        // rejection proves corruption cannot register.
        let err = r.insert_snapshot("snap2", &corrupt).unwrap_err();
        assert!(
            err.contains("checksum mismatch") || err.contains("bad osp section"),
            "{err}"
        );
        assert!(r.get("snap2").is_none(), "nothing registered on error");
    }

    #[test]
    fn failed_snapshot_registration_is_atomic_and_retryable() {
        // Regression guard for the copy-on-write registry: a snapshot
        // that fails validation must leave the name map completely
        // untouched — no reserved name, no version chain, no gauge
        // movement — and the same name must then register cleanly.
        let r = Registry::with_builtins();
        let ont = triples::parse("a p b\n").unwrap();
        let store = questpro_store::TripleStore::from_ontology(&ont).unwrap();
        let bytes = questpro_store::encode(&store);
        let names_before: Vec<_> = r.list();
        let versions_before = r.versions_open();

        let mut corrupt = bytes.clone();
        corrupt[8] ^= 0xff; // header/section damage: strict decode fails
        assert!(r.insert_snapshot("world", &corrupt).is_err());
        assert_eq!(r.list(), names_before, "failed insert must not reserve");
        assert_eq!(r.versions_open(), versions_before);
        assert!(r.head_version("world").is_none());

        // The name stays free: a corrected retry succeeds and starts
        // its chain at version 1.
        r.insert_snapshot("world", &bytes).unwrap();
        assert_eq!(r.head_version("world"), Some(1));
    }

    #[test]
    fn user_worlds_parse_and_collide_loudly() {
        let r = Registry::with_builtins();
        let ont = r.insert("tiny", "a p b\nb p c\n").unwrap();
        assert_eq!(ont.node_count(), 3);
        assert!(r.get("tiny").is_some());
        assert!(r.insert("tiny", "x p y\n").is_err(), "duplicate name");
        assert!(r.insert("bad name", "x p y\n").is_err(), "bad name");
        assert!(r.insert("broken", "not a triple line\n").is_err());
    }

    #[test]
    fn updates_advance_the_head_and_pin_old_versions() {
        let r = Registry::with_builtins();
        r.insert("w", "a p b\n").unwrap();
        let (v1, ont1) = r.get_versioned("w").unwrap();
        assert_eq!(v1, 1);

        let (v2, ont2, summary) = r.update("w", &delta(&[("b", "p", "c")], &[])).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(summary.inserted, 1);
        assert!(summary.edge_ids_stable);
        assert_eq!(ont2.edge_count(), 2);
        // The old version is untouched and still resolvable.
        assert_eq!(ont1.edge_count(), 1);
        match r.get_version("w", 1) {
            VersionLookup::Found(o) => assert!(Arc::ptr_eq(&o, &ont1)),
            _ => panic!("version 1 must still be pinned"),
        }
        // Head moved.
        let (head_v, head) = r.get_versioned("w").unwrap();
        assert_eq!(head_v, 2);
        assert!(Arc::ptr_eq(&head, &ont2));
        assert_eq!(r.versions_open(), 2);
    }

    #[test]
    fn rejected_updates_leave_the_head_alone() {
        let r = Registry::with_builtins();
        r.insert("w", "a p b\n").unwrap();
        let (status, msg) = r
            .update("w", &delta(&[], &[("a", "p", "zzz")]))
            .unwrap_err();
        assert_eq!(status, 409);
        assert!(msg.contains("no such triple"), "{msg}");
        assert_eq!(r.head_version("w"), Some(1), "head unchanged");
        let (status, _) = r
            .update("nope", &delta(&[("a", "p", "b")], &[]))
            .unwrap_err();
        assert_eq!(status, 404);
    }

    #[test]
    fn history_is_bounded_and_eviction_is_named() {
        let r = Registry::with_builtins();
        r.insert("w", "a p b\n").unwrap();
        // Push HISTORY updates so version 1 falls off the chain.
        for i in 0..HISTORY {
            r.update("w", &delta(&[("a", "q", &format!("n{i}"))], &[]))
                .unwrap();
        }
        let head = (HISTORY + 1) as u64;
        assert_eq!(r.head_version("w"), Some(head));
        assert_eq!(r.versions_open(), HISTORY);
        match r.get_version("w", 1) {
            VersionLookup::Evicted { head: h } => assert_eq!(h, head),
            _ => panic!("version 1 must report eviction, not answer"),
        }
        // In-range retained versions still resolve; never-assigned and
        // future versions are Unknown, not Evicted.
        assert!(matches!(r.get_version("w", head), VersionLookup::Found(_)));
        assert!(matches!(r.get_version("w", 0), VersionLookup::Unknown));
        assert!(matches!(
            r.get_version("w", head + 1),
            VersionLookup::Unknown
        ));
        assert!(matches!(r.get_version("ghost", 1), VersionLookup::Unknown));
    }

    #[test]
    fn evicted_versions_are_freed_once_unpinned() {
        let r = Registry::with_builtins();
        let v1 = Arc::downgrade(&r.insert("w", "a p b\n").unwrap());
        for i in 0..HISTORY {
            assert!(v1.upgrade().is_some(), "version 1 retained until evicted");
            r.update("w", &delta(&[("a", "q", &format!("n{i}"))], &[]))
                .unwrap();
        }
        assert!(v1.upgrade().is_none(), "evicted and unpinned: freed");
        assert_eq!(r.versions_open(), HISTORY);
    }
}
