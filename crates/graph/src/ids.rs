//! Compact integer identifiers for ontology components.
//!
//! Every entity of an [`crate::Ontology`] — nodes, edges, interned value
//! strings, predicates, and node types — is referred to by a `u32` newtype.
//! Ids are indexes into dense arenas, so lookups are branchless array
//! accesses and the matcher can store partial assignments in flat vectors.
//!
//! Ids are only meaningful relative to the ontology that produced them;
//! mixing ids across ontologies is a logic error (not memory-unsafe, but
//! will produce nonsense or a panic on out-of-bounds access).

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates an id from a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Creates an id from a `usize` index.
            ///
            /// # Panics
            /// Panics if `raw` does not fit in a `u32`.
            #[inline]
            pub fn from_usize(raw: usize) -> Self {
                Self(u32::try_from(raw).expect("id overflow: more than u32::MAX entities"))
            }

            /// The raw `u32` behind the id.
            #[inline]
            pub fn raw(self) -> u32 {
                self.0
            }

            /// The id as a `usize` array index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a node in an ontology graph.
    NodeId,
    "n"
);
define_id!(
    /// Identifier of an edge in an ontology graph.
    EdgeId,
    "e"
);
define_id!(
    /// Identifier of an interned node value (the range of `L_V`).
    ValueId,
    "v"
);
define_id!(
    /// Identifier of an interned edge predicate (the range of `L_E`).
    PredId,
    "p"
);
define_id!(
    /// Identifier of an interned node type (e.g. `Author`).
    TypeId,
    "t"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_raw_and_index() {
        let n = NodeId::new(7);
        assert_eq!(n.raw(), 7);
        assert_eq!(n.index(), 7);
        assert_eq!(NodeId::from_usize(7), n);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(EdgeId::new(0).to_string(), "e0");
        assert_eq!(ValueId::new(1).to_string(), "v1");
        assert_eq!(PredId::new(2).to_string(), "p2");
        assert_eq!(TypeId::new(4).to_string(), "t4");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(EdgeId::new(1) < EdgeId::new(2));
        assert_eq!(EdgeId::new(5).max(EdgeId::new(3)), EdgeId::new(5));
    }

    #[test]
    #[should_panic(expected = "id overflow")]
    fn from_usize_panics_on_overflow() {
        let _ = NodeId::from_usize(u32::MAX as usize + 1);
    }
}
