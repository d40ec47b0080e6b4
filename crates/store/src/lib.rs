//! Persistent dictionary-encoded triple store for QuestPro-RS.
//!
//! Every other crate in the workspace treats an ontology as an in-memory
//! interned graph rebuilt from triple *text* on each load. That caps data
//! sizes far below the "millions of users" north star: re-parsing a
//! million-triple ontology costs seconds of hashing and allocation before
//! the first query can run. This crate is the scale unlock:
//!
//! * [`TripleStore`] — a dictionary-encoded columnar image of an
//!   ontology. Labels live in three sorted dictionaries ([`Dict`]) that
//!   assign **stable** dense u32 ids (ids depend only on the label set,
//!   never on insertion order, so two builds of the same data are
//!   byte-identical and snapshots are diffable). Triples are a flat
//!   `[u32; 3]` table in SPO order plus POS/OSP permutations, the same
//!   orientations `questpro-graph::columnar` serves to the matcher.
//! * [`StoreBuilder`] — streaming construction: feed it triples one at a
//!   time (e.g. from the `questpro-data` scale generators) without ever
//!   materializing the full text form.
//! * [`snapshot`] — a versioned, checksummed binary format (magic +
//!   format version + section table + CRC-32). Decoding is strict
//!   validation with named [`StoreError`]s and never panics on untrusted
//!   bytes; on trusted bytes it is a handful of bulk copies, so
//!   `questpro serve` cold-starts multi-million-triple ontologies in
//!   milliseconds.
//! * [`TripleStore::to_ontology`] — streams the store's arrays into
//!   `Ontology::from_sorted_parts`, which writes the graph's pages
//!   directly, without re-interning or re-sorting.

pub mod crc32;
pub mod dict;
pub mod error;
pub mod snapshot;
pub mod store;
pub mod update;

pub use dict::Dict;
pub use error::StoreError;
pub use snapshot::{decode, encode, FORMAT_VERSION, MAGIC};
pub use store::{StoreBuilder, StoreStats, TripleStore};
