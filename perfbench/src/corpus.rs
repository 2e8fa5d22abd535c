//! Seeded corpus generation, XML serialisation and input fingerprints.
//!
//! The benchmark generates every input from the workload seed; the program
//! under test only ever receives the generated collection (or its XML text)
//! and the generated request texts.

use std::collections::BTreeMap;

use seda_core::seda_xmlstore::{Collection, DocId, NodeId, NodeKind};
use seda_datagen::{
    factbook, googlebase, mondial, FactbookConfig, GoogleBaseConfig, MondialConfig,
};

use crate::stats::{Fingerprint, Rng};

/// `MondialConfig::paper()` (5,563 documents) under the workload seed.
pub fn mondial(seed: u64) -> Collection {
    mondial::generate(&MondialConfig { seed, ..MondialConfig::paper() })
        .expect("the mondial generator accepts its paper configuration")
}

/// `FactbookConfig::paper()` (1,602 documents) under the workload seed.
pub fn factbook(seed: u64) -> Collection {
    factbook::generate(&FactbookConfig { seed, ..FactbookConfig::paper() })
        .expect("the factbook generator accepts its paper configuration")
}

/// Nesting depths of the deep documents added to the ingest corpus.  They are
/// fixed so that every seed ingests the same amount of work; the seed picks
/// their labels and text.
pub const DEEP_DEPTHS: [usize; 3] = [500, 1000, 1500];

/// `GoogleBaseConfig::paper()` (10,000 flat documents) under the workload
/// seed, followed by one deeply nested document per [`DEEP_DEPTHS`] entry.
pub fn ingest(seed: u64) -> Collection {
    let mut collection =
        googlebase::generate(&GoogleBaseConfig { seed, ..GoogleBaseConfig::paper() })
            .expect("the googlebase generator accepts its paper configuration");
    const LABELS: [&str; 6] = ["section", "part", "chapter", "clause", "entry", "block"];
    const WORDS: [&str; 6] = ["alpha", "ledger", "harbor", "meadow", "quartz", "signal"];
    let mut rng = Rng::new(seed ^ 0xDEE9);
    for (i, &depth) in DEEP_DEPTHS.iter().enumerate() {
        let labels: Vec<&str> = (0..depth).map(|_| LABELS[rng.below(LABELS.len())]).collect();
        let notes: Vec<String> = (0..depth)
            .map(|level| format!("{} {}", WORDS[rng.below(WORDS.len())], level))
            .collect();
        collection
            .add_document(format!("deep/{i}.xml"), |b| {
                for (label, note) in labels.iter().zip(&notes) {
                    b.start_element(label)?;
                    b.leaf("note", note)?;
                }
                for _ in 0..depth {
                    b.end_element()?;
                }
                Ok(())
            })
            .expect("deep documents are well formed");
    }
    collection
}

/// Serialises every document of the collection to XML text, as
/// `(uri, text)` pairs in document order.
pub fn to_xml(collection: &Collection) -> Vec<(String, String)> {
    collection
        .documents()
        .map(|doc| {
            let mut out = String::new();
            write_element(collection, doc.id, doc.root(), &mut out);
            (doc.uri.clone(), out)
        })
        .collect()
}

fn write_element(collection: &Collection, doc: DocId, ordinal: u32, out: &mut String) {
    let document = collection.document(doc).expect("serialised documents exist");
    let name = |ord: u32| collection.node_name(NodeId::new(doc, ord)).expect("node names resolve");
    let node = document.node_unchecked(ordinal);
    out.push('<');
    out.push_str(name(ordinal));
    let children = document.children(ordinal);
    for &child in children {
        let attribute = document.node_unchecked(child);
        if attribute.kind == NodeKind::Attribute {
            out.push(' ');
            out.push_str(name(child));
            out.push_str("=\"");
            escape(attribute.text.as_deref().unwrap_or(""), out);
            out.push('"');
        }
    }
    out.push('>');
    escape(node.text.as_deref().unwrap_or(""), out);
    for &child in children {
        if document.node_unchecked(child).kind == NodeKind::Element {
            write_element(collection, doc, child, out);
        }
    }
    out.push_str("</");
    out.push_str(name(ordinal));
    out.push('>');
}

fn escape(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// Borrowed `(uri, text)` pairs, the form `parse_collection` and
/// `SedaEngine::build_from_sources` take.
pub fn sources(texts: &[(String, String)]) -> Vec<(&str, &str)> {
    texts.iter().map(|(uri, xml)| (uri.as_str(), xml.as_str())).collect()
}

/// One text-bearing leaf of a document: its label and its text.
#[derive(Clone)]
pub struct Leaf {
    pub label: String,
    pub value: String,
}

/// Per document, the leaves whose text can be quoted as a phrase term.
pub fn leaves_by_document(collection: &Collection) -> Vec<Vec<Leaf>> {
    collection
        .documents()
        .map(|doc| {
            doc.iter()
                .filter(|(_, node)| node.is_leaf())
                .filter_map(|(ordinal, node)| {
                    let value = node.text.as_deref()?.trim();
                    let quotable = !value.is_empty()
                        && value.len() <= 40
                        && value.chars().any(char::is_alphanumeric)
                        && !value.contains(['"', '(', ')', '*', '\\']);
                    quotable.then(|| Leaf {
                        label: collection
                            .node_name(NodeId::new(doc.id, ordinal))
                            .expect("node names resolve")
                            .to_string(),
                        value: value.to_string(),
                    })
                })
                .collect()
        })
        .collect()
}

/// Text-bearing leaf labels of the corpus with their node counts.
pub fn leaf_label_counts(leaves: &[Vec<Leaf>]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for leaf in leaves.iter().flatten() {
        *counts.entry(leaf.label.clone()).or_insert(0) += 1;
    }
    counts
}

/// Fingerprint of a workload's generated inputs: document, node and request
/// counts plus one hash over the XML text and the request texts.
pub fn fingerprint<'a>(
    texts: &[(String, String)],
    nodes: usize,
    requests: impl IntoIterator<Item = &'a str>,
) -> String {
    let mut hash = Fingerprint::new();
    for (uri, xml) in texts {
        hash.add(uri);
        hash.add(xml);
    }
    let mut count = 0usize;
    for request in requests {
        hash.add(request);
        count += 1;
    }
    format!("docs={} nodes={nodes} requests={count} hash={}", texts.len(), hash.hex())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_core::seda_xmlstore::parse_collection;

    #[test]
    fn serialisation_round_trips_shape() {
        let collection = parse_collection(vec![(
            "a.xml",
            r#"<country id="c&amp;1"><name>A &lt; B</name><economy><gdp>12.5</gdp></economy></country>"#,
        )])
        .unwrap();
        let texts = to_xml(&collection);
        let reparsed = parse_collection(sources(&texts)).unwrap();
        assert_eq!(reparsed.total_nodes(), collection.total_nodes());
        assert_eq!(reparsed.distinct_path_count(), collection.distinct_path_count());
        assert_eq!(to_xml(&reparsed), texts);
    }
}
