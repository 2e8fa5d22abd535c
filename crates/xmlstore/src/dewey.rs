//! Dewey order identifiers for XML nodes.
//!
//! SEDA references XML nodes by Dewey IDs (Tatarinov et al., SIGMOD 2002): the
//! root of a document is `1`, its i-th child is `1.i`, and so on.  Dewey IDs
//! encode the full ancestor chain of a node, which gives three properties the
//! rest of the system relies on:
//!
//! * document order is the lexicographic order of the component vectors,
//! * ancestor/descendant tests are prefix tests, and
//! * the holistic twig join (`seda-twigjoin`) can merge posting streams that
//!   are sorted by Dewey ID without touching the document tree.

use std::cmp::Ordering;
use std::fmt;

/// A Dewey order identifier: the path of 1-based child ordinals from the
/// document root down to a node.  The root element of every document is `[1]`.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DeweyId {
    components: Vec<u32>,
}

impl DeweyId {
    /// Dewey ID of a document root element (`1`).
    pub fn root() -> Self {
        DeweyId { components: vec![1] }
    }

    /// Builds a Dewey ID from raw components. Returns `None` for an empty
    /// component list (the empty Dewey ID is reserved for "no node").
    pub fn new(components: Vec<u32>) -> Option<Self> {
        if components.is_empty() {
            None
        } else {
            Some(DeweyId { components })
        }
    }

    /// The raw ordinal components, root first.
    pub fn components(&self) -> &[u32] {
        &self.components
    }

    /// Depth of the node: the root element has depth 1.
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// Dewey ID of the `ordinal`-th (1-based) child of this node.
    pub fn child(&self, ordinal: u32) -> Self {
        let mut components = Vec::with_capacity(self.components.len() + 1);
        components.extend_from_slice(&self.components);
        components.push(ordinal);
        DeweyId { components }
    }

    /// Dewey ID of the parent, or `None` for the root.
    pub fn parent(&self) -> Option<Self> {
        if self.components.len() <= 1 {
            None
        } else {
            Some(DeweyId { components: self.components[..self.components.len() - 1].to_vec() })
        }
    }

    /// True iff `self` is a proper ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        other.components.len() > self.components.len()
            && other.components[..self.components.len()] == self.components[..]
    }

    /// True iff `self` is a proper descendant of `other`.
    pub fn is_descendant_of(&self, other: &DeweyId) -> bool {
        other.is_ancestor_of(self)
    }

    /// True iff `self` is the parent of `other`.
    pub fn is_parent_of(&self, other: &DeweyId) -> bool {
        other.components.len() == self.components.len() + 1
            && other.components[..self.components.len()] == self.components[..]
    }

    /// True iff `self` equals `other` or is an ancestor of `other`.
    pub fn is_ancestor_or_self_of(&self, other: &DeweyId) -> bool {
        self == other || self.is_ancestor_of(other)
    }

    /// Longest common prefix of two Dewey IDs, i.e. the Dewey ID of the lowest
    /// common ancestor when both IDs belong to the same document.  Returns
    /// `None` when the IDs share no prefix (which cannot happen for two nodes
    /// of the same document, whose IDs both start with `1`).
    pub fn common_ancestor(&self, other: &DeweyId) -> Option<DeweyId> {
        let len =
            self.components.iter().zip(other.components.iter()).take_while(|(a, b)| a == b).count();
        DeweyId::new(self.components[..len].to_vec())
    }

    /// Number of parent/child edges on the tree path between the two nodes
    /// (via their lowest common ancestor).  Used by the compactness score of
    /// the top-k unit.  Both IDs must belong to the same document for the
    /// result to be meaningful.
    pub fn tree_distance(&self, other: &DeweyId) -> usize {
        let lca_len =
            self.components.iter().zip(other.components.iter()).take_while(|(a, b)| a == b).count();
        (self.components.len() - lca_len) + (other.components.len() - lca_len)
    }
}

impl Ord for DeweyId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.components.cmp(&other.components)
    }
}

impl PartialOrd for DeweyId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in &self.components {
            if !first {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Debug for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeweyId({self})")
    }
}

impl std::str::FromStr for DeweyId {
    type Err = crate::error::XmlStoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let components: Result<Vec<u32>, _> = s.split('.').map(str::parse::<u32>).collect();
        let components =
            components.map_err(|_| crate::error::XmlStoreError::InvalidDeweyId(s.to_string()))?;
        DeweyId::new(components)
            .ok_or_else(|| crate::error::XmlStoreError::InvalidDeweyId(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_has_depth_one() {
        let r = DeweyId::root();
        assert_eq!(r.depth(), 1);
        assert_eq!(r.to_string(), "1");
        assert!(r.parent().is_none());
    }

    #[test]
    fn child_and_parent_roundtrip() {
        let n = DeweyId::root().child(2).child(5);
        assert_eq!(n.to_string(), "1.2.5");
        assert_eq!(n.parent().unwrap().to_string(), "1.2");
        assert_eq!(n.parent().unwrap().parent().unwrap(), DeweyId::root());
    }

    #[test]
    fn empty_component_list_rejected() {
        assert!(DeweyId::new(vec![]).is_none());
    }

    #[test]
    fn ancestor_descendant_tests() {
        let a = DeweyId::root().child(2);
        let b = a.child(3).child(1);
        assert!(a.is_ancestor_of(&b));
        assert!(b.is_descendant_of(&a));
        assert!(!b.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a), "ancestor relation is strict");
        assert!(a.is_ancestor_or_self_of(&a));
        assert!(DeweyId::root().is_ancestor_of(&b));
    }

    #[test]
    fn parent_relation_is_exactly_one_level() {
        let a = DeweyId::root().child(2);
        let child = a.child(7);
        let grandchild = child.child(1);
        assert!(a.is_parent_of(&child));
        assert!(!a.is_parent_of(&grandchild));
        assert!(!a.is_parent_of(&a));
    }

    #[test]
    fn document_order_is_lexicographic() {
        let mut ids = [
            "1.2.1".parse::<DeweyId>().unwrap(),
            "1.1".parse().unwrap(),
            "1.10".parse().unwrap(),
            "1.2".parse().unwrap(),
            "1".parse().unwrap(),
        ];
        ids.sort();
        let rendered: Vec<String> = ids.iter().map(|d| d.to_string()).collect();
        assert_eq!(rendered, vec!["1", "1.1", "1.2", "1.2.1", "1.10"]);
    }

    #[test]
    fn common_ancestor_is_lca() {
        let a: DeweyId = "1.2.3.4".parse().unwrap();
        let b: DeweyId = "1.2.5".parse().unwrap();
        assert_eq!(a.common_ancestor(&b).unwrap().to_string(), "1.2");
        assert_eq!(a.common_ancestor(&a).unwrap(), a);
    }

    #[test]
    fn tree_distance_counts_edges_via_lca() {
        let a: DeweyId = "1.2.3.4".parse().unwrap();
        let b: DeweyId = "1.2.5".parse().unwrap();
        // a is 2 edges below the LCA 1.2, b is 1 edge below it.
        assert_eq!(a.tree_distance(&b), 3);
        assert_eq!(a.tree_distance(&a), 0);
        let root = DeweyId::root();
        assert_eq!(root.tree_distance(&a), 3);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<DeweyId>().is_err());
        assert!("1..2".parse::<DeweyId>().is_err());
        assert!("1.a".parse::<DeweyId>().is_err());
    }

    #[test]
    fn display_parse_roundtrip() {
        let id: DeweyId = "1.4.2.19".parse().unwrap();
        let back: DeweyId = id.to_string().parse().unwrap();
        assert_eq!(id, back);
    }
}
