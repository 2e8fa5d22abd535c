//! Documents and the programmatic document builder.

use crate::dewey::DeweyId;
use crate::error::{Result, XmlStoreError};
use crate::node::{DocId, Node, NodeId, NodeKind};
use crate::path::{PathId, PathTable};
use crate::symbol::{Symbol, SymbolTable};

/// A stored XML document: an arena of nodes in document order.
#[derive(Debug, Clone)]
pub struct Document {
    /// Identifier of the document within its collection.
    pub id: DocId,
    /// Source URI or generated name of the document.
    pub uri: String,
    nodes: Vec<Node>,
}

impl Document {
    pub(crate) fn from_parts(id: DocId, uri: String, nodes: Vec<Node>) -> Self {
        Document { id, uri, nodes }
    }

    /// Ordinal of the root element (always 0 for non-empty documents).
    pub fn root(&self) -> u32 {
        0
    }

    /// Number of nodes in the document.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document holds no nodes (never the case for documents
    /// produced by the builder or parser).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node by its ordinal.
    pub fn node(&self, ordinal: u32) -> Result<&Node> {
        self.nodes
            .get(ordinal as usize)
            .ok_or(XmlStoreError::UnknownNode { doc: self.id.0, node: ordinal })
    }

    /// Borrow a node by its ordinal without bounds diagnostics.
    pub fn node_unchecked(&self, ordinal: u32) -> &Node {
        &self.nodes[ordinal as usize]
    }

    /// Iterates over `(ordinal, node)` pairs in document order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (i as u32, n))
    }

    /// Global node ids of all nodes, in document order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(move |n| NodeId::new(self.id, n))
    }

    /// Ordinals of the children of `ordinal`, in document order.
    pub fn children(&self, ordinal: u32) -> &[u32] {
        &self.nodes[ordinal as usize].children
    }

    /// Ordinal of the parent of `ordinal`, if any.
    pub fn parent(&self, ordinal: u32) -> Option<u32> {
        self.nodes[ordinal as usize].parent
    }

    /// The SEDA `content(n)` of a node: the concatenation of the node's own
    /// text and all descendant text, in document order, separated by single
    /// spaces.
    pub fn content(&self, ordinal: u32) -> String {
        let mut pieces: Vec<&str> = Vec::new();
        let mut stack = vec![ordinal];
        // Iterative pre-order walk; children are pushed in reverse so they are
        // visited in document order.
        while let Some(current) = stack.pop() {
            let node = &self.nodes[current as usize];
            if let Some(text) = node.text.as_deref() {
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    pieces.push(trimmed);
                }
            }
            for &child in node.children.iter().rev() {
                stack.push(child);
            }
        }
        pieces.join(" ")
    }

    /// Finds the node with the given Dewey id, if present.
    pub fn node_by_dewey(&self, dewey: &DeweyId) -> Option<u32> {
        // Nodes are in document order and Dewey order coincides with document
        // order, so a binary search over the arena works.
        self.nodes.binary_search_by(|n| n.dewey.cmp(dewey)).ok().map(|i| i as u32)
    }

    /// Ordinals of all nodes whose context equals `path`.
    pub fn nodes_with_path(&self, path: PathId) -> Vec<u32> {
        self.iter().filter(|(_, n)| n.path == path).map(|(i, _)| i).collect()
    }

    /// Ordinals of all nodes with the given name.
    pub fn nodes_with_name(&self, name: Symbol) -> Vec<u32> {
        self.iter().filter(|(_, n)| n.name == name).map(|(i, _)| i).collect()
    }

    /// The set of distinct context paths occurring in this document.
    pub fn distinct_paths(&self) -> Vec<PathId> {
        let mut paths: Vec<PathId> = self.nodes.iter().map(|n| n.path).collect();
        paths.sort_unstable();
        paths.dedup();
        paths
    }

    /// Backing store for the test-only corruption hook in [`crate::audit`];
    /// kept here because the node arena is private to this module.
    pub(crate) fn corrupt_node_dewey_impl(&mut self, ordinal: u32, dewey: DeweyId) {
        self.nodes[ordinal as usize].dewey = dewey;
    }

    /// Evaluates a relative step expression from `ordinal`.
    ///
    /// Relative XML keys (Sec. 7 of the paper) use steps such as
    /// `../trade_country`: each `..` moves to the parent, each label moves to
    /// the children with that label.  Returns every node reached.
    pub fn eval_relative_steps(
        &self,
        ordinal: u32,
        steps: &[RelativeStep],
        symbols: &SymbolTable,
    ) -> Vec<u32> {
        let mut frontier = vec![ordinal];
        for step in steps {
            let mut next = Vec::new();
            for &current in &frontier {
                match step {
                    RelativeStep::Parent => {
                        if let Some(p) = self.parent(current) {
                            next.push(p);
                        }
                    }
                    RelativeStep::Child(label) => {
                        for &child in self.children(current) {
                            if symbols.resolve(self.nodes[child as usize].name) == label {
                                next.push(child);
                            }
                        }
                    }
                    RelativeStep::SelfNode => next.push(current),
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        frontier
    }
}

/// One step of a relative path expression (used by relative XML keys).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RelativeStep {
    /// `..` — move to the parent.
    Parent,
    /// `label` — move to children with this label.
    Child(String),
    /// `.` — stay on the current node.
    SelfNode,
}

impl RelativeStep {
    /// Parses a `.`, `..`, or label-separated relative expression such as
    /// `../trade_country` into steps.
    pub fn parse_expr(expr: &str) -> Vec<RelativeStep> {
        expr.split('/')
            .filter(|s| !s.is_empty())
            .map(|s| match s {
                "." => RelativeStep::SelfNode,
                ".." => RelativeStep::Parent,
                label => RelativeStep::Child(label.to_string()),
            })
            .collect()
    }
}

/// Streaming builder for a single document.
///
/// The builder assigns Dewey ids and interned context paths while elements are
/// opened and closed, so the finished [`Document`] is immediately usable by the
/// indexes without a second pass.
pub struct DocumentBuilder<'a> {
    symbols: &'a mut SymbolTable,
    paths: &'a mut PathTable,
    doc_id: DocId,
    uri: String,
    nodes: Vec<Node>,
    /// Stack of open element ordinals.
    open: Vec<u32>,
    /// Stack of label symbols from root to the current open element.
    label_stack: Vec<Symbol>,
}

impl<'a> DocumentBuilder<'a> {
    /// Creates a builder that interns names and paths into the given tables.
    pub fn new(
        symbols: &'a mut SymbolTable,
        paths: &'a mut PathTable,
        doc_id: DocId,
        uri: impl Into<String>,
    ) -> Self {
        DocumentBuilder {
            symbols,
            paths,
            doc_id,
            uri: uri.into(),
            nodes: Vec::new(),
            open: Vec::new(),
            label_stack: Vec::new(),
        }
    }

    fn push_node(&mut self, name: Symbol, kind: NodeKind, text: Option<String>) -> u32 {
        let ordinal = self.nodes.len() as u32;
        let (parent, dewey) = match self.open.last() {
            Some(&parent) => {
                let parent_node = &self.nodes[parent as usize];
                let child_ordinal = parent_node.children.len() as u32 + 1;
                (Some(parent), parent_node.dewey.child(child_ordinal))
            }
            None => (None, DeweyId::root()),
        };
        self.label_stack.push(name);
        let path = self.paths.intern_steps(&self.label_stack);
        self.label_stack.pop();
        if let Some(parent) = parent {
            self.nodes[parent as usize].children.push(ordinal);
        }
        self.nodes.push(Node { name, kind, parent, children: Vec::new(), text, dewey, path });
        ordinal
    }

    /// Opens a new element.  Returns its ordinal.
    pub fn start_element(&mut self, name: &str) -> Result<u32> {
        if self.open.is_empty() && !self.nodes.is_empty() {
            return Err(XmlStoreError::BuilderState(format!(
                "second root element {name:?} in document {}",
                self.uri
            )));
        }
        let sym = self.symbols.intern(name);
        let ordinal = self.push_node(sym, NodeKind::Element, None);
        self.open.push(ordinal);
        self.label_stack.push(sym);
        Ok(ordinal)
    }

    /// Closes the most recently opened element.
    pub fn end_element(&mut self) -> Result<()> {
        self.open.pop().ok_or_else(|| {
            XmlStoreError::BuilderState("end_element without matching start_element".into())
        })?;
        self.label_stack.pop();
        Ok(())
    }

    /// Adds an attribute to the currently open element.
    pub fn attribute(&mut self, name: &str, value: &str) -> Result<u32> {
        if self.open.is_empty() {
            return Err(XmlStoreError::BuilderState(format!(
                "attribute {name:?} outside of any element"
            )));
        }
        let sym = self.symbols.intern(name);
        Ok(self.push_node(sym, NodeKind::Attribute, Some(value.to_string())))
    }

    /// Appends text to the currently open element.
    pub fn text(&mut self, value: &str) -> Result<()> {
        let &current = self.open.last().ok_or_else(|| {
            XmlStoreError::BuilderState("text content outside of any element".into())
        })?;
        let node = &mut self.nodes[current as usize];
        match &mut node.text {
            Some(existing) => {
                existing.push(' ');
                existing.push_str(value);
            }
            None => node.text = Some(value.to_string()),
        }
        Ok(())
    }

    /// Convenience: `start_element`, `text`, `end_element` in one call.
    pub fn leaf(&mut self, name: &str, value: &str) -> Result<u32> {
        let ordinal = self.start_element(name)?;
        self.text(value)?;
        self.end_element()?;
        Ok(ordinal)
    }

    /// Finishes the document.  Fails if elements are still open or the
    /// document is empty.
    pub fn finish(self) -> Result<Document> {
        if !self.open.is_empty() {
            return Err(XmlStoreError::BuilderState(format!(
                "{} element(s) still open at finish",
                self.open.len()
            )));
        }
        if self.nodes.is_empty() {
            return Err(XmlStoreError::EmptyDocument);
        }
        Ok(Document::from_parts(self.doc_id, self.uri, self.nodes))
    }

    /// The document id this builder was created for.
    pub fn doc_id(&self) -> DocId {
        self.doc_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_sample() -> (SymbolTable, PathTable, Document) {
        let mut symbols = SymbolTable::new();
        let mut paths = PathTable::new();
        let mut b = DocumentBuilder::new(&mut symbols, &mut paths, DocId(0), "sample.xml");
        b.start_element("country").unwrap();
        b.attribute("name", "United States").unwrap();
        b.leaf("year", "2006").unwrap();
        b.start_element("economy").unwrap();
        b.leaf("GDP_ppp", "12.31T").unwrap();
        b.start_element("import_partners").unwrap();
        b.start_element("item").unwrap();
        b.leaf("trade_country", "China").unwrap();
        b.leaf("percentage", "15").unwrap();
        b.end_element().unwrap();
        b.start_element("item").unwrap();
        b.leaf("trade_country", "Canada").unwrap();
        b.leaf("percentage", "16.9").unwrap();
        b.end_element().unwrap();
        b.end_element().unwrap();
        b.end_element().unwrap();
        b.end_element().unwrap();
        let doc = b.finish().unwrap();
        (symbols, paths, doc)
    }

    #[test]
    fn builder_assigns_dewey_ids_in_document_order() {
        let (_, _, doc) = build_sample();
        let root = doc.node(0).unwrap();
        assert_eq!(root.dewey, DeweyId::root());
        let mut previous = DeweyId::root();
        for (i, node) in doc.iter().skip(1) {
            assert!(node.dewey > previous, "node {i} out of Dewey order");
            previous = node.dewey.clone();
        }
    }

    #[test]
    fn builder_interns_contexts() {
        let (symbols, paths, doc) = build_sample();
        let percentage_path =
            paths.get_str(&symbols, "/country/economy/import_partners/item/percentage").unwrap();
        let hits = doc.nodes_with_path(percentage_path);
        assert_eq!(hits.len(), 2);
        for h in hits {
            assert_eq!(symbols.resolve(doc.node(h).unwrap().name), "percentage");
        }
    }

    #[test]
    fn content_concatenates_descendant_text_in_document_order() {
        let (symbols, _, doc) = build_sample();
        let item_name = symbols.get("item").unwrap();
        let first_item = doc.nodes_with_name(item_name)[0];
        assert_eq!(doc.content(first_item), "China 15");
        assert!(doc.content(0).contains("United States"));
        assert!(doc.content(0).contains("16.9"));
    }

    #[test]
    fn node_by_dewey_finds_nodes() {
        let (_, _, doc) = build_sample();
        for (i, node) in doc.iter() {
            assert_eq!(doc.node_by_dewey(&node.dewey), Some(i));
        }
        assert_eq!(doc.node_by_dewey(&"1.99".parse().unwrap()), None);
    }

    #[test]
    fn attributes_are_children_with_text() {
        let (symbols, paths, doc) = build_sample();
        let name_path = paths.get_str(&symbols, "/country/name").unwrap();
        let hits = doc.nodes_with_path(name_path);
        assert_eq!(hits.len(), 1);
        let attr = doc.node(hits[0]).unwrap();
        assert_eq!(attr.kind, NodeKind::Attribute);
        assert_eq!(attr.text.as_deref(), Some("United States"));
        assert_eq!(attr.parent, Some(0));
    }

    #[test]
    fn relative_steps_navigate_siblings() {
        let (symbols, paths, doc) = build_sample();
        let percentage_path =
            paths.get_str(&symbols, "/country/economy/import_partners/item/percentage").unwrap();
        let percentage_nodes = doc.nodes_with_path(percentage_path);
        let steps = RelativeStep::parse_expr("../trade_country");
        let siblings = doc.eval_relative_steps(percentage_nodes[0], &steps, &symbols);
        assert_eq!(siblings.len(), 1);
        assert_eq!(doc.content(siblings[0]), "China");
    }

    #[test]
    fn relative_step_parsing() {
        assert_eq!(
            RelativeStep::parse_expr("../trade_country"),
            vec![RelativeStep::Parent, RelativeStep::Child("trade_country".into())]
        );
        assert_eq!(RelativeStep::parse_expr("."), vec![RelativeStep::SelfNode]);
        assert_eq!(RelativeStep::parse_expr(""), vec![]);
    }

    #[test]
    fn builder_rejects_unbalanced_usage() {
        let mut symbols = SymbolTable::new();
        let mut paths = PathTable::new();
        let mut b = DocumentBuilder::new(&mut symbols, &mut paths, DocId(0), "bad.xml");
        assert!(b.end_element().is_err());
        assert!(b.text("dangling").is_err());
        assert!(b.attribute("a", "b").is_err());
        b.start_element("root").unwrap();
        let unfinished = b.finish();
        assert!(unfinished.is_err());
    }

    #[test]
    fn builder_rejects_second_root() {
        let mut symbols = SymbolTable::new();
        let mut paths = PathTable::new();
        let mut b = DocumentBuilder::new(&mut symbols, &mut paths, DocId(0), "two_roots.xml");
        b.start_element("a").unwrap();
        b.end_element().unwrap();
        assert!(b.start_element("b").is_err());
    }

    #[test]
    fn empty_document_rejected() {
        let mut symbols = SymbolTable::new();
        let mut paths = PathTable::new();
        let b = DocumentBuilder::new(&mut symbols, &mut paths, DocId(0), "empty.xml");
        assert!(matches!(b.finish(), Err(XmlStoreError::EmptyDocument)));
    }

    #[test]
    fn distinct_paths_deduplicates() {
        let (_, _, doc) = build_sample();
        let distinct = doc.distinct_paths();
        // 9 distinct contexts in the sample document even though `item`,
        // `trade_country` and `percentage` occur twice each.
        assert_eq!(distinct.len(), 9);
    }
}
