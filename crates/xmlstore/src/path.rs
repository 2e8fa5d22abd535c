//! Interning of root-to-leaf label paths ("contexts" in SEDA terminology).
//!
//! The *context* of a data node is its root-to-leaf path following only
//! parent/child edges (Definition 2 of the paper), e.g.
//! `/country/economy/import_partners/item/percentage`.  Contexts are the unit
//! the context summary, the keyword→path index (Fig. 8), dataguides, and the
//! fact/dimension definitions all operate on, so the store interns every
//! distinct path once and hands out a dense [`PathId`].

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::symbol::{Symbol, SymbolTable};

/// Interned identifier for a distinct root-to-leaf label path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

impl PathId {
    /// Raw index into the owning [`PathTable`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single interned path: the sequence of label symbols from the document
/// root to the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelPath {
    steps: Vec<Symbol>,
}

// `Hash` and `Eq` both see only the step slice, so a path table keyed by
// `LabelPath` can be probed with a borrowed `&[Symbol]`.
impl Hash for LabelPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.steps.as_slice().hash(state);
    }
}

impl Borrow<[Symbol]> for LabelPath {
    fn borrow(&self) -> &[Symbol] {
        &self.steps
    }
}

impl LabelPath {
    /// Builds a label path from label symbols, root label first.
    pub fn new(steps: Vec<Symbol>) -> Self {
        LabelPath { steps }
    }

    /// The label symbols, root first.
    pub fn steps(&self) -> &[Symbol] {
        &self.steps
    }

    /// The last (leaf) label of the path, if any.
    pub fn leaf(&self) -> Option<Symbol> {
        self.steps.last().copied()
    }

    /// Number of steps (the depth of nodes with this context).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the empty path (never produced for real nodes).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// True iff `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &LabelPath) -> bool {
        other.steps.len() >= self.steps.len() && other.steps[..self.steps.len()] == self.steps[..]
    }

    /// Renders the path in the `/a/b/c` notation used throughout the paper.
    pub fn display(&self, symbols: &SymbolTable) -> String {
        let mut s = String::new();
        for step in &self.steps {
            s.push('/');
            s.push_str(symbols.resolve(*step));
        }
        if s.is_empty() {
            s.push('/');
        }
        s
    }
}

/// Append-only intern table for label paths.
#[derive(Debug, Default, Clone)]
pub struct PathTable {
    paths: Vec<LabelPath>,
    lookup: HashMap<LabelPath, PathId>,
}

impl PathTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a label path, returning the existing id if it was seen before.
    pub fn intern(&mut self, path: LabelPath) -> PathId {
        if let Some(&id) = self.lookup.get(path.steps()) {
            return id;
        }
        self.insert(path)
    }

    /// Interns the path with the given steps, root first.  The lookup borrows
    /// `steps`; they are copied only when the path is new.
    pub fn intern_steps(&mut self, steps: &[Symbol]) -> PathId {
        if let Some(&id) = self.lookup.get(steps) {
            return id;
        }
        self.insert(LabelPath::new(steps.to_vec()))
    }

    fn insert(&mut self, path: LabelPath) -> PathId {
        let id = PathId(self.paths.len() as u32);
        self.lookup.insert(path.clone(), id);
        self.paths.push(path);
        id
    }

    /// Looks up an already-interned path without inserting.
    pub fn get(&self, path: &LabelPath) -> Option<PathId> {
        self.lookup.get(path).copied()
    }

    /// Resolves a path id back to the label path.
    pub fn resolve(&self, id: PathId) -> &LabelPath {
        &self.paths[id.index()]
    }

    /// Number of distinct paths interned so far.  For the World Factbook data
    /// set the paper reports 1984 distinct paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when no path has been interned.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterates over `(id, path)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, &LabelPath)> {
        self.paths.iter().enumerate().map(|(i, p)| (PathId(i as u32), p))
    }

    /// All path ids whose leaf label equals `leaf`.
    pub fn paths_with_leaf(&self, leaf: Symbol) -> Vec<PathId> {
        self.iter().filter(|(_, p)| p.leaf() == Some(leaf)).map(|(id, _)| id).collect()
    }

    /// All path ids that contain `label` anywhere on the path.
    pub fn paths_containing(&self, label: Symbol) -> Vec<PathId> {
        self.iter().filter(|(_, p)| p.steps().contains(&label)).map(|(id, _)| id).collect()
    }

    /// Parses a `/a/b/c` string against a symbol table, interning any label
    /// that has not been seen yet, and returns the interned path id.
    pub fn intern_str(&mut self, symbols: &mut SymbolTable, path: &str) -> PathId {
        let steps: Vec<Symbol> =
            path.split('/').filter(|s| !s.is_empty()).map(|s| symbols.intern(s)).collect();
        self.intern(LabelPath::new(steps))
    }

    /// Looks up a `/a/b/c` string without interning. Returns `None` when the
    /// path (or any of its labels) is unknown.
    pub fn get_str(&self, symbols: &SymbolTable, path: &str) -> Option<PathId> {
        let steps: Option<Vec<Symbol>> =
            path.split('/').filter(|s| !s.is_empty()).map(|s| symbols.get(s)).collect();
        self.get(&LabelPath::new(steps?))
    }

    /// Rebuilds the reverse lookup map after deserialisation.
    pub fn rebuild_lookup(&mut self) {
        self.lookup =
            self.paths.iter().enumerate().map(|(i, p)| (p.clone(), PathId(i as u32))).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(paths: &[&str]) -> (SymbolTable, PathTable, Vec<PathId>) {
        let mut symbols = SymbolTable::new();
        let mut table = PathTable::new();
        let ids = paths.iter().map(|p| table.intern_str(&mut symbols, p)).collect();
        (symbols, table, ids)
    }

    #[test]
    fn interning_by_steps_agrees_with_interning_by_path() {
        let (symbols, mut table, ids) = table_with(&["/country/name", "/country/economy/GDP"]);
        let steps: Vec<Symbol> =
            ["country", "economy", "GDP"].iter().map(|s| symbols.get(s).unwrap()).collect();
        assert_eq!(table.intern_steps(&steps), ids[1]);
        assert_eq!(table.intern_steps(&steps[..1]), PathId(2), "a new prefix path is added");
        assert_eq!(table.intern(LabelPath::new(steps[..1].to_vec())), PathId(2));
        assert_eq!(table.get(&LabelPath::new(steps.clone())), Some(ids[1]));
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn intern_str_is_idempotent() {
        let (_, table, ids) = table_with(&["/country/economy/GDP", "/country/economy/GDP"]);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn display_roundtrips_slash_notation() {
        let (symbols, table, ids) = table_with(&["/country/economy/import_partners/item"]);
        let rendered = table.resolve(ids[0]).display(&symbols);
        assert_eq!(rendered, "/country/economy/import_partners/item");
    }

    #[test]
    fn get_str_finds_interned_paths_only() {
        let (symbols, table, _) = table_with(&["/country/year"]);
        assert!(table.get_str(&symbols, "/country/year").is_some());
        assert!(table.get_str(&symbols, "/country/economy").is_none());
        assert!(table.get_str(&symbols, "/unknown_label").is_none());
    }

    #[test]
    fn paths_with_leaf_filters_by_last_label() {
        let (symbols, table, _) = table_with(&[
            "/country/economy/import_partners/item/trade_country",
            "/country/economy/export_partners/item/trade_country",
            "/country/economy/GDP",
        ]);
        let leaf = symbols.get("trade_country").unwrap();
        assert_eq!(table.paths_with_leaf(leaf).len(), 2);
        let gdp = symbols.get("GDP").unwrap();
        assert_eq!(table.paths_with_leaf(gdp).len(), 1);
    }

    #[test]
    fn paths_containing_matches_interior_labels() {
        let (symbols, table, _) = table_with(&[
            "/country/economy/import_partners/item/percentage",
            "/country/economy/export_partners/item/percentage",
            "/country/geography",
        ]);
        let economy = symbols.get("economy").unwrap();
        assert_eq!(table.paths_containing(economy).len(), 2);
    }

    #[test]
    fn prefix_relation() {
        let mut symbols = SymbolTable::new();
        let a = LabelPath::new(vec![symbols.intern("country")]);
        let b = LabelPath::new(vec![symbols.intern("country"), symbols.intern("economy")]);
        assert!(a.is_prefix_of(&b));
        assert!(a.is_prefix_of(&a));
        assert!(!b.is_prefix_of(&a));
    }

    #[test]
    fn leaf_and_len() {
        let (symbols, table, ids) = table_with(&["/country/economy/GDP"]);
        let p = table.resolve(ids[0]);
        assert_eq!(p.len(), 3);
        assert_eq!(symbols.resolve(p.leaf().unwrap()), "GDP");
    }

    #[test]
    fn rebuild_lookup_restores_get() {
        let (_, table, _) = table_with(&["/a/b", "/a/c"]);
        let mut clone = PathTable { paths: table.paths.clone(), lookup: HashMap::new() };
        clone.rebuild_lookup();
        assert_eq!(clone.get(table.resolve(PathId(1))), Some(PathId(1)));
    }
}
