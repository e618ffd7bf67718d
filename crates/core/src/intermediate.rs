//! Storage for Map-stage intermediate values.
//!
//! The Map stage hashes each local file `F` into `K` intermediate values
//! `{I^1_F, …, I^K_F}` — serialized byte buffers of the KV pairs destined to
//! each reduce partition. [`MapOutputStore`] holds the values a node *keeps*
//! under the paper's §IV-B rule and serves them to the encoder/decoder via
//! the [`IntermediateSource`] trait.

use std::collections::HashMap;

use bytes::Bytes;

use crate::subset::{NodeId, NodeSet};

/// Read access to locally known intermediate values `I^t_F`.
///
/// The encoder needs `I^t_{M\{t}}` for every other member `t` of each of its
/// multicast groups; the decoder needs the same values to cancel known
/// segments out of received packets. Both only ever request values the keep
/// rule guarantees to be present — a `None` therefore indicates a protocol
/// violation, not an expected condition.
pub trait IntermediateSource {
    /// Returns `I^t_F` (serialized KV pairs of file `F` for reduce target
    /// `t`) if locally known.
    fn intermediate(&self, target: NodeId, file: NodeSet) -> Option<&[u8]>;
}

/// In-memory store of kept intermediate values, keyed by `(target, file)`.
///
/// ```
/// use cts_core::intermediate::{IntermediateSource, MapOutputStore};
/// use cts_core::subset::NodeSet;
///
/// let mut store = MapOutputStore::new();
/// let file = NodeSet::from_iter([0usize, 1]);
/// store.insert(2, file, vec![1, 2, 3].into());
/// assert_eq!(store.intermediate(2, file), Some(&[1u8, 2, 3][..]));
/// assert_eq!(store.intermediate(3, file), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MapOutputStore {
    values: HashMap<(NodeId, u64), Bytes>,
    total_bytes: u64,
}

impl MapOutputStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `I^target_file`. Replaces and returns any previous value.
    pub fn insert(&mut self, target: NodeId, file: NodeSet, data: Bytes) -> Option<Bytes> {
        self.total_bytes += data.len() as u64;
        let old = self.values.insert((target, file.bits()), data);
        if let Some(ref o) = old {
            self.total_bytes -= o.len() as u64;
        }
        old
    }

    /// Borrowed access as [`Bytes`] (cheaply cloneable).
    pub fn get(&self, target: NodeId, file: NodeSet) -> Option<&Bytes> {
        self.values.get(&(target, file.bits()))
    }

    /// Sum of stored payload lengths — the memory-overhead quantity the
    /// paper's §V-C Reduce discussion refers to.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

impl IntermediateSource for MapOutputStore {
    fn intermediate(&self, target: NodeId, file: NodeSet) -> Option<&[u8]> {
        self.values.get(&(target, file.bits())).map(|b| b.as_ref())
    }
}

impl<S: IntermediateSource + ?Sized> IntermediateSource for &S {
    fn intermediate(&self, target: NodeId, file: NodeSet) -> Option<&[u8]> {
        (**self).intermediate(target, file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(nodes: &[usize]) -> NodeSet {
        nodes.iter().copied().collect()
    }

    #[test]
    fn insert_and_get() {
        let mut store = MapOutputStore::new();
        assert_eq!(store.total_bytes(), 0);
        store.insert(0, fs(&[0, 1]), Bytes::from_static(b"abc"));
        store.insert(2, fs(&[0, 1]), Bytes::from_static(b"defg"));
        assert_eq!(store.total_bytes(), 7);
        assert_eq!(store.intermediate(0, fs(&[0, 1])), Some(&b"abc"[..]));
        assert_eq!(store.intermediate(1, fs(&[0, 1])), None);
    }

    #[test]
    fn replace_adjusts_byte_count() {
        let mut store = MapOutputStore::new();
        store.insert(1, fs(&[1, 2]), Bytes::from_static(b"xxxx"));
        let old = store.insert(1, fs(&[1, 2]), Bytes::from_static(b"yy"));
        assert_eq!(old.as_deref(), Some(&b"xxxx"[..]));
        assert_eq!(store.total_bytes(), 2);
    }

    #[test]
    fn same_file_different_targets_are_distinct() {
        let mut store = MapOutputStore::new();
        let f = fs(&[2, 3]);
        store.insert(0, f, Bytes::from_static(b"a"));
        store.insert(1, f, Bytes::from_static(b"b"));
        assert_eq!(store.intermediate(0, f), Some(&b"a"[..]));
        assert_eq!(store.intermediate(1, f), Some(&b"b"[..]));
    }

    #[test]
    fn empty_payloads_are_representable() {
        let mut store = MapOutputStore::new();
        store.insert(0, fs(&[0, 1]), Bytes::new());
        assert_eq!(store.intermediate(0, fs(&[0, 1])), Some(&[][..]));
        assert_eq!(store.total_bytes(), 0);
    }
}
