//! Configuration of data-graph construction.
//!
//! Definition 2 of the paper lists four relationships between data nodes:
//! parent/child, IDREF, XLink/XPointer, and value-based (primary-key /
//! foreign-key) relationships.  Parent/child edges come from the documents
//! themselves; the other three need to be *discovered*, which requires telling
//! the builder which attributes carry IDs, which carry references, and which
//! path pairs are related by value ("we assume that instances of the last type
//! of relationship are provided as input into the system").

/// A value-based relationship specification: nodes whose context is
/// `foreign_path` are linked to nodes whose context is `primary_path` when
/// their contents are equal (primary-key / foreign-key semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueKeySpec {
    /// Context (root-to-leaf path, `/a/b/c` notation) of the primary-key side.
    pub primary_path: String,
    /// Context of the foreign-key side.
    pub foreign_path: String,
}

impl ValueKeySpec {
    /// Convenience constructor.
    pub fn new(primary_path: impl Into<String>, foreign_path: impl Into<String>) -> Self {
        ValueKeySpec { primary_path: primary_path.into(), foreign_path: foreign_path.into() }
    }
}

/// Configuration for [`crate::DataGraph::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphConfig {
    /// Attribute names treated as element identifiers (ID attributes).
    pub id_attributes: Vec<String>,
    /// Attribute names treated as IDREF references.  In addition to exact
    /// names, any attribute whose name ends in `_idref` is treated as an
    /// IDREF (the convention used by the Mondial-like generator).
    pub idref_attributes: Vec<String>,
    /// Attribute names treated as XLink/XPointer references (`xlink:href`,
    /// `href`).  Their values are resolved against document URIs and ID
    /// values, like IDREFs, but the resulting edges are tagged
    /// [`crate::EdgeKind::XLink`].
    pub xlink_attributes: Vec<String>,
    /// Value-based relationships to materialise.
    pub value_keys: Vec<ValueKeySpec>,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            id_attributes: vec!["id".to_string(), "ID".to_string()],
            idref_attributes: vec!["idref".to_string(), "IDREF".to_string(), "ref".to_string()],
            xlink_attributes: vec!["xlink:href".to_string(), "href".to_string()],
            value_keys: Vec::new(),
        }
    }
}

impl GraphConfig {
    /// Default configuration plus the given value-based key specs.
    pub fn with_value_keys(value_keys: Vec<ValueKeySpec>) -> Self {
        GraphConfig { value_keys, ..GraphConfig::default() }
    }

    /// True when the attribute name denotes an ID attribute.
    pub fn is_id_attribute(&self, name: &str) -> bool {
        self.id_attributes.iter().any(|a| a == name)
    }

    /// True when the attribute name denotes an IDREF attribute.
    pub fn is_idref_attribute(&self, name: &str) -> bool {
        name.ends_with("_idref") || self.idref_attributes.iter().any(|a| a == name)
    }

    /// True when the attribute name denotes an XLink/XPointer reference.
    pub fn is_xlink_attribute(&self, name: &str) -> bool {
        self.xlink_attributes.iter().any(|a| a == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_recognises_common_attribute_names() {
        let c = GraphConfig::default();
        assert!(c.is_id_attribute("id"));
        assert!(!c.is_id_attribute("name"));
        assert!(c.is_idref_attribute("idref"));
        assert!(c.is_idref_attribute("country_idref"), "suffix convention");
        assert!(!c.is_idref_attribute("country"));
        assert!(c.is_xlink_attribute("href"));
    }

    #[test]
    fn value_key_specs_are_plain_data() {
        let spec = ValueKeySpec::new("/country/name", "/sea/bordering_country");
        assert_eq!(spec.primary_path, "/country/name");
        let config = GraphConfig::with_value_keys(vec![spec.clone()]);
        assert_eq!(config.value_keys, vec![spec]);
        assert!(config.is_id_attribute("id"), "defaults preserved");
    }
}
