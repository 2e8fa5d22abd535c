//! Collections: the unit SEDA operates on.
//!
//! A [`Collection`] owns the symbol and path intern tables shared by all of
//! its documents, plus the documents themselves.  Every index (full-text,
//! context, dataguide) is built over a collection.

use std::collections::HashMap;

use crate::document::{Document, DocumentBuilder};
use crate::error::{Result, XmlStoreError};
use crate::node::{DocId, Node, NodeId};
use crate::path::{PathId, PathTable};
use crate::symbol::{Symbol, SymbolTable};

/// A collection of XML documents sharing one symbol table and one path table.
#[derive(Debug, Default, Clone)]
pub struct Collection {
    symbols: SymbolTable,
    paths: PathTable,
    documents: Vec<Document>,
}

impl Collection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Shared path (context) table.
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Mutable access to the symbol table (used by query compilation to intern
    /// user-provided labels that may not occur in the data).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// True when the collection holds no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Total number of nodes across all documents.
    pub fn total_nodes(&self) -> usize {
        self.documents.iter().map(Document::len).sum()
    }

    /// Number of distinct root-to-leaf paths across the collection (1984 for
    /// the paper's World Factbook corpus).
    pub fn distinct_path_count(&self) -> usize {
        self.paths.len()
    }

    /// Borrow a document.
    pub fn document(&self, id: DocId) -> Result<&Document> {
        self.documents.get(id.index()).ok_or(XmlStoreError::UnknownDocument(id.0))
    }

    /// Iterate over all documents.
    pub fn documents(&self) -> impl Iterator<Item = &Document> {
        self.documents.iter()
    }

    /// Borrow a node by global id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.document(id.doc)?.node(id.node)
    }

    /// The SEDA `content(n)` of a node (concatenated descendant text).
    pub fn content(&self, id: NodeId) -> Result<String> {
        Ok(self.document(id.doc)?.content(id.node))
    }

    /// The SEDA `context(n)` of a node (its root-to-leaf path id).
    pub fn context(&self, id: NodeId) -> Result<PathId> {
        Ok(self.node(id)?.path)
    }

    /// Renders a node's context in `/a/b/c` notation.
    pub fn context_string(&self, id: NodeId) -> Result<String> {
        let path = self.context(id)?;
        Ok(self.paths.resolve(path).display(&self.symbols))
    }

    /// Renders a path id in `/a/b/c` notation.
    pub fn path_string(&self, path: PathId) -> String {
        self.paths.resolve(path).display(&self.symbols)
    }

    /// Resolves a node's name.
    pub fn node_name(&self, id: NodeId) -> Result<&str> {
        Ok(self.symbols.resolve(self.node(id)?.name))
    }

    /// Opens a builder for a new document.  The caller drives the builder and
    /// then hands the finished document back via [`Collection::insert`].
    pub fn build_document(&mut self, uri: impl Into<String>) -> DocumentBuilder<'_> {
        let doc_id = DocId(self.documents.len() as u32);
        DocumentBuilder::new(&mut self.symbols, &mut self.paths, doc_id, uri)
    }

    /// Inserts a finished document.  The document must have been produced by a
    /// builder obtained from this collection (enforced by checking the id).
    pub fn insert(&mut self, document: Document) -> Result<DocId> {
        let expected = DocId(self.documents.len() as u32);
        if document.id != expected {
            return Err(XmlStoreError::BuilderState(format!(
                "document id {:?} does not match next slot {:?}; was the builder obtained from another collection?",
                document.id, expected
            )));
        }
        let id = document.id;
        self.documents.push(document);
        Ok(id)
    }

    /// Builds and inserts a document in one closure-driven call.
    pub fn add_document<F>(&mut self, uri: impl Into<String>, f: F) -> Result<DocId>
    where
        F: FnOnce(&mut DocumentBuilder<'_>) -> Result<()>,
    {
        let mut builder = self.build_document(uri);
        f(&mut builder)?;
        let doc = builder.finish()?;
        self.insert(doc)
    }

    /// Test-only corruption hook: hands out mutable access to one document so
    /// the seeded-corruption suite can perturb frozen state that library code
    /// never mutates.  Hidden from docs; never called by library code.
    #[doc(hidden)]
    pub fn corrupt_document(&mut self, id: DocId, f: impl FnOnce(&mut Document)) {
        f(&mut self.documents[id.index()]);
    }

    /// All nodes in the collection whose context equals `path`.
    pub fn nodes_with_path(&self, path: PathId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for doc in &self.documents {
            for ordinal in doc.nodes_with_path(path) {
                out.push(NodeId::new(doc.id, ordinal));
            }
        }
        out
    }

    /// All nodes in the collection with the given element/attribute name.
    pub fn nodes_with_name(&self, name: Symbol) -> Vec<NodeId> {
        let mut out = Vec::new();
        for doc in &self.documents {
            for ordinal in doc.nodes_with_name(name) {
                out.push(NodeId::new(doc.id, ordinal));
            }
        }
        out
    }

    /// Document frequency of every path: in how many documents each distinct
    /// path occurs.  The paper reports `/country` occurring in 1577 of 1600
    /// World Factbook documents while rare paths occur in fewer than 200.
    pub fn path_document_frequency(&self) -> HashMap<PathId, usize> {
        let mut freq: HashMap<PathId, usize> = HashMap::new();
        for doc in &self.documents {
            for path in doc.distinct_paths() {
                *freq.entry(path).or_insert(0) += 1;
            }
        }
        freq
    }

    /// Total occurrence count of every path across all nodes of the
    /// collection (the per-path counts stored in the document store that back
    /// the Fig. 8 index).
    pub fn path_occurrence_count(&self) -> HashMap<PathId, usize> {
        let mut freq: HashMap<PathId, usize> = HashMap::new();
        for doc in &self.documents {
            for (_, node) in doc.iter() {
                *freq.entry(node.path).or_insert(0) += 1;
            }
        }
        freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_country_collection() -> Collection {
        let mut c = Collection::new();
        c.add_document("us.xml", |b| {
            b.start_element("country")?;
            b.leaf("name", "United States")?;
            b.leaf("year", "2006")?;
            b.start_element("economy")?;
            b.leaf("GDP_ppp", "12310")?;
            b.end_element()?;
            b.end_element()?;
            Ok(())
        })
        .unwrap();
        c.add_document("mexico.xml", |b| {
            b.start_element("country")?;
            b.leaf("name", "Mexico")?;
            b.leaf("year", "2005")?;
            b.start_element("economy")?;
            b.leaf("GDP", "924")?;
            b.end_element()?;
            b.end_element()?;
            Ok(())
        })
        .unwrap();
        c
    }

    #[test]
    fn documents_share_path_table() {
        let c = two_country_collection();
        assert_eq!(c.len(), 2);
        // /country, /country/name, /country/year, /country/economy shared;
        // GDP_ppp and GDP differ -> 6 distinct paths.
        assert_eq!(c.distinct_path_count(), 6);
    }

    #[test]
    fn path_document_frequency_counts_documents_not_nodes() {
        let c = two_country_collection();
        let freq = c.path_document_frequency();
        let country = c.paths().get_str(c.symbols(), "/country").unwrap();
        let gdp_ppp = c.paths().get_str(c.symbols(), "/country/economy/GDP_ppp").unwrap();
        assert_eq!(freq[&country], 2);
        assert_eq!(freq[&gdp_ppp], 1);
    }

    #[test]
    fn nodes_with_path_spans_documents() {
        let c = two_country_collection();
        let year = c.paths().get_str(c.symbols(), "/country/year").unwrap();
        let nodes = c.nodes_with_path(year);
        assert_eq!(nodes.len(), 2);
        let contents: Vec<String> = nodes.iter().map(|&n| c.content(n).unwrap()).collect();
        assert_eq!(contents, vec!["2006", "2005"]);
    }

    #[test]
    fn nodes_with_name_spans_documents() {
        let c = two_country_collection();
        let name = c.symbols().get("name").unwrap();
        assert_eq!(c.nodes_with_name(name).len(), 2);
    }

    #[test]
    fn context_and_content_accessors() {
        let c = two_country_collection();
        let gdp = c.paths().get_str(c.symbols(), "/country/economy/GDP").unwrap();
        let node = c.nodes_with_path(gdp)[0];
        assert_eq!(c.content(node).unwrap(), "924");
        assert_eq!(c.context_string(node).unwrap(), "/country/economy/GDP");
        assert_eq!(c.node_name(node).unwrap(), "GDP");
    }

    #[test]
    fn unknown_ids_are_reported() {
        let c = two_country_collection();
        assert!(c.document(DocId(99)).is_err());
        assert!(c.node(NodeId::new(DocId(0), 999)).is_err());
    }

    #[test]
    fn insert_rejects_foreign_documents() {
        let mut a = Collection::new();
        let mut b = Collection::new();
        let doc = {
            let mut builder = a.build_document("a.xml");
            builder.start_element("r").unwrap();
            builder.end_element().unwrap();
            builder.finish().unwrap()
        };
        // Inserting into the originating collection works.
        let cloned = doc.clone();
        a.insert(doc).unwrap();
        // Inserting the same id again (now stale) fails.
        assert!(a.insert(cloned.clone()).is_err());
        // A fresh collection accepts id 0, which is fine (ids match), so build
        // a second doc in `a` and try to insert it into `b`.
        let doc2 = {
            let mut builder = a.build_document("b.xml");
            builder.start_element("r").unwrap();
            builder.end_element().unwrap();
            builder.finish().unwrap()
        };
        assert!(b.insert(doc2).is_err());
    }

    #[test]
    fn total_nodes_sums_documents() {
        let c = two_country_collection();
        assert_eq!(c.total_nodes(), 10);
    }

    #[test]
    fn path_occurrence_count_counts_nodes() {
        let mut c = Collection::new();
        c.add_document("d.xml", |b| {
            b.start_element("r")?;
            b.leaf("x", "1")?;
            b.leaf("x", "2")?;
            b.end_element()?;
            Ok(())
        })
        .unwrap();
        let occ = c.path_occurrence_count();
        let x = c.paths().get_str(c.symbols(), "/r/x").unwrap();
        assert_eq!(occ[&x], 2);
    }
}
