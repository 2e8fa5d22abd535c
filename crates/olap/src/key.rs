//! Relative XML keys (Sec. 7, after Buneman et al.).
//!
//! SEDA requires every dimension (and fact) to have a key so aggregates are
//! well defined.  A relative key for a node `n` is a list of path expressions;
//! each is either *absolute* (starts at the document root, e.g.
//! `/country/year`) or *relative* (starts at `n`, e.g. `../trade_country` or
//! `.`).  The key of the `percentage` fact in the paper is
//! `(/country, /country/year, ../trade_country)`: for every percentage node
//! the key collects the country, the year and the sibling trade country.

use seda_xmlstore::{Collection, NodeId, RelativeStep};

/// One component of a relative key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPart {
    /// Absolute path expression, evaluated from the document root.
    Absolute(String),
    /// Relative path expression, evaluated from the keyed node.
    Relative(String),
}

impl KeyPart {
    /// Parses a textual component: expressions starting with `/` are
    /// absolute, everything else (`.`, `..`, `../x`) is relative.
    pub fn parse(expr: &str) -> Self {
        if expr.starts_with('/') {
            KeyPart::Absolute(expr.to_string())
        } else {
            KeyPart::Relative(expr.to_string())
        }
    }

    /// The textual expression.
    pub fn expression(&self) -> &str {
        match self {
            KeyPart::Absolute(e) | KeyPart::Relative(e) => e,
        }
    }
}

/// A relative key: an ordered list of key parts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelativeKey {
    parts: Vec<KeyPart>,
}

/// The values a key evaluates to for one node, one string per key part.
pub type KeyValues = Vec<String>;

/// Problems detected while evaluating or verifying a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyViolation {
    /// A key part evaluated to no node for the given keyed node.
    MissingComponent {
        /// The offending expression.
        expression: String,
        /// The keyed node.
        node: NodeId,
    },
    /// A key part evaluated to more than one node.
    AmbiguousComponent {
        /// The offending expression.
        expression: String,
        /// The keyed node.
        node: NodeId,
        /// How many nodes it evaluated to.
        matches: usize,
    },
    /// Two distinct keyed nodes produced identical key values.
    DuplicateKey {
        /// The duplicated key values.
        values: KeyValues,
    },
}

impl std::fmt::Display for KeyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyViolation::MissingComponent { expression, node } => {
                write!(f, "key component {expression:?} evaluated to no node for {node:?}")
            }
            KeyViolation::AmbiguousComponent { expression, node, matches } => {
                write!(
                    f,
                    "key component {expression:?} evaluated to {matches} nodes for {node:?} \
                     (expected exactly one)"
                )
            }
            KeyViolation::DuplicateKey { values } => {
                write!(f, "two distinct nodes produced the same key values {values:?}")
            }
        }
    }
}

impl std::error::Error for KeyViolation {}

impl RelativeKey {
    /// Builds a key from textual component expressions, e.g.
    /// `["/country", "/country/year", "../trade_country"]`.
    pub fn parse(parts: &[&str]) -> Self {
        RelativeKey { parts: parts.iter().map(|p| KeyPart::parse(p)).collect() }
    }

    /// The components of the key.
    pub fn parts(&self) -> &[KeyPart] {
        &self.parts
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when the key has no components.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The absolute components of the key (used by the augmentation step to
    /// add missing columns such as `/country/year`).
    pub fn absolute_paths(&self) -> Vec<&str> {
        self.parts
            .iter()
            .filter_map(|p| match p {
                KeyPart::Absolute(e) => Some(e.as_str()),
                KeyPart::Relative(_) => None,
            })
            .collect()
    }

    /// Evaluates the key for one node, returning the key values (one per
    /// part) or the first violation encountered.
    pub fn evaluate(
        &self,
        collection: &Collection,
        node: NodeId,
    ) -> Result<KeyValues, KeyViolation> {
        let document = match collection.document(node.doc) {
            Ok(d) => d,
            Err(_) => {
                return Err(KeyViolation::MissingComponent {
                    expression: "<document>".to_string(),
                    node,
                })
            }
        };
        let mut values = Vec::with_capacity(self.parts.len());
        for part in &self.parts {
            let matches: Vec<u32> = match part {
                KeyPart::Absolute(expr) => {
                    match collection.paths().get_str(collection.symbols(), expr) {
                        Some(path) => document.nodes_with_path(path),
                        None => Vec::new(),
                    }
                }
                KeyPart::Relative(expr) => {
                    let steps = RelativeStep::parse_expr(expr);
                    document.eval_relative_steps(node.node, &steps, collection.symbols())
                }
            };
            match matches.len() {
                0 => {
                    return Err(KeyViolation::MissingComponent {
                        expression: part.expression().to_string(),
                        node,
                    })
                }
                1 => values.push(document.content(matches[0])),
                n => {
                    return Err(KeyViolation::AmbiguousComponent {
                        expression: part.expression().to_string(),
                        node,
                        matches: n,
                    })
                }
            }
        }
        Ok(values)
    }

    /// Verifies that the key uniquely identifies every node in `nodes`
    /// ("the system automatically verifies the keys by computing them for
    /// every cni in R(q) and checking their uniqueness").  Returns all
    /// violations found; an empty vector means the key is valid.
    pub fn verify(&self, collection: &Collection, nodes: &[NodeId]) -> Vec<KeyViolation> {
        let mut violations = Vec::new();
        let mut seen: std::collections::HashMap<KeyValues, NodeId> =
            std::collections::HashMap::new();
        for &node in nodes {
            match self.evaluate(collection, node) {
                Ok(values) => {
                    if let Some(&previous) = seen.get(&values) {
                        if previous != node {
                            violations.push(KeyViolation::DuplicateKey { values: values.clone() });
                        }
                    } else {
                        seen.insert(values, node);
                    }
                }
                Err(v) => violations.push(v),
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    fn us_doc() -> Collection {
        parse_collection(vec![(
            "us.xml",
            r#"<country><name>United States</name><year>2006</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                   <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                 </import_partners></economy></country>"#,
        )])
        .unwrap()
    }

    fn percentage_nodes(c: &Collection) -> Vec<NodeId> {
        let p = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        c.nodes_with_path(p)
    }

    #[test]
    fn paper_key_for_percentage_fact_evaluates() {
        let c = us_doc();
        let key = RelativeKey::parse(&["/country/name", "/country/year", "../trade_country"]);
        let nodes = percentage_nodes(&c);
        let v0 = key.evaluate(&c, nodes[0]).unwrap();
        assert_eq!(v0, vec!["United States", "2006", "China"]);
        let v1 = key.evaluate(&c, nodes[1]).unwrap();
        assert_eq!(v1, vec!["United States", "2006", "Canada"]);
        assert!(key.verify(&c, &nodes).is_empty(), "the key uniquely identifies both percentages");
    }

    #[test]
    fn dropping_the_relative_part_makes_the_key_ambiguous_across_nodes() {
        let c = us_doc();
        // Without ../trade_country the two percentage nodes collide: this is
        // exactly the paper's argument for the year/trade_country key columns.
        let key = RelativeKey::parse(&["/country/name", "/country/year"]);
        let nodes = percentage_nodes(&c);
        let violations = key.verify(&c, &nodes);
        assert!(violations.iter().any(|v| matches!(v, KeyViolation::DuplicateKey { .. })));
    }

    #[test]
    fn missing_and_ambiguous_components_are_reported() {
        let c = us_doc();
        let nodes = percentage_nodes(&c);
        let missing = RelativeKey::parse(&["/country/population"]);
        assert!(matches!(
            missing.evaluate(&c, nodes[0]),
            Err(KeyViolation::MissingComponent { .. })
        ));
        // /country/economy/import_partners/item is ambiguous at document level
        // (two items exist).
        let ambiguous = RelativeKey::parse(&["/country/economy/import_partners/item"]);
        assert!(matches!(
            ambiguous.evaluate(&c, nodes[0]),
            Err(KeyViolation::AmbiguousComponent { matches: 2, .. })
        ));
    }

    #[test]
    fn self_relative_component_keys_on_own_content() {
        let c = us_doc();
        let tc_path = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
            .unwrap();
        let nodes = c.nodes_with_path(tc_path);
        let key = RelativeKey::parse(&["/country/name", "/country/year", "."]);
        assert!(key.verify(&c, &nodes).is_empty());
        let values = key.evaluate(&c, nodes[0]).unwrap();
        assert_eq!(values[2], "China");
    }

    #[test]
    fn key_part_parsing_distinguishes_absolute_and_relative() {
        assert_eq!(KeyPart::parse("/country"), KeyPart::Absolute("/country".into()));
        assert_eq!(
            KeyPart::parse("../trade_country"),
            KeyPart::Relative("../trade_country".into())
        );
        assert_eq!(KeyPart::parse("."), KeyPart::Relative(".".into()));
        let key = RelativeKey::parse(&["/country", "/country/year", "../trade_country"]);
        assert_eq!(key.len(), 3);
        assert_eq!(key.absolute_paths(), vec!["/country", "/country/year"]);
    }
}
