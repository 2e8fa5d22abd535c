//! Tabular building blocks: the full query result R(q), fact tables and
//! dimension tables.

use std::collections::BTreeSet;

use seda_xmlstore::{Collection, NodeId, PathId};

/// The full (non-top-k) result of a SEDA query, as described in Sec. 1/7:
/// "two columns for each query term: the first one contains the Dewey ID XML
/// node reference, and the other one contains the full root-to-leaf path of
/// the node."  Here the node reference carries the document and ordinal (from
/// which the Dewey id is recoverable) and the path is the interned context.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResultTable {
    /// Human-readable label per query term (e.g. the term's textual form).
    pub column_names: Vec<String>,
    /// One row per result tuple; entry `i` holds `(node, context)` for query
    /// term `i`.
    pub rows: Vec<Vec<(NodeId, PathId)>>,
}

impl QueryResultTable {
    /// Creates an empty table with the given column labels.
    pub fn new(column_names: Vec<String>) -> Self {
        QueryResultTable { column_names, rows: Vec::new() }
    }

    /// Number of result tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of query-term columns.
    pub fn width(&self) -> usize {
        self.column_names.len()
    }

    /// Appends a tuple; panics if its arity differs from the column count.
    pub fn push_row(&mut self, row: Vec<(NodeId, PathId)>) {
        assert_eq!(row.len(), self.width(), "row arity must match column count");
        self.rows.push(row);
    }

    /// The set of distinct context paths appearing in column `i` — the
    /// π_cpi(R) the matching step compares against fact/dimension context
    /// lists.
    pub fn column_paths(&self, column: usize) -> BTreeSet<PathId> {
        self.rows.iter().map(|r| r[column].1).collect()
    }

    /// The nodes of column `i`.
    pub fn column_nodes(&self, column: usize) -> Vec<NodeId> {
        self.rows.iter().map(|r| r[column].0).collect()
    }
}

/// A dimension table of the derived star schema: the dimension name and its
/// distinct member values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionTable {
    /// Dimension name (e.g. `country`, `year`, `import-country`).
    pub name: String,
    /// Distinct member values, sorted.
    pub values: Vec<String>,
}

impl DimensionTable {
    /// Builds a dimension table from an iterator of values.
    pub fn from_values(name: impl Into<String>, values: impl IntoIterator<Item = String>) -> Self {
        let mut values: Vec<String> = values.into_iter().collect();
        values.sort();
        values.dedup();
        DimensionTable { name: name.into(), values }
    }

    /// Number of distinct members.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the dimension has no members.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A fact table of the derived star schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FactTable {
    /// Name of the fact (or of the merged facts) this table holds.
    pub name: String,
    /// Names of the dimension (key) columns.
    pub dimension_columns: Vec<String>,
    /// Names of the measure columns.
    pub measure_columns: Vec<String>,
    /// Rows: dimension values followed by measure values, as strings.
    pub rows: Vec<FactRow>,
}

/// One row of a fact table.
#[derive(Debug, Clone, PartialEq)]
pub struct FactRow {
    /// Dimension values, aligned with `dimension_columns`.
    pub dimensions: Vec<String>,
    /// Measure values, aligned with `measure_columns` (kept as strings;
    /// [`FactRow::numeric_measure`] parses them on demand).
    pub measures: Vec<String>,
}

impl FactRow {
    /// Parses measure `i` as a number, tolerating `%`, `,` and unit suffixes
    /// such as `12.31T` / `924.4B` / `63.1M` (scaled to their numeric value).
    pub fn numeric_measure(&self, index: usize) -> Option<f64> {
        parse_numeric(self.measures.get(index)?)
    }
}

/// Parses a Factbook-style numeric string.
pub fn parse_numeric(raw: &str) -> Option<f64> {
    let cleaned: String = raw.trim().trim_end_matches('%').replace(',', "").trim().to_string();
    if cleaned.is_empty() {
        return None;
    }
    let (number_part, multiplier) = match cleaned.chars().last() {
        Some('T') | Some('t') => (&cleaned[..cleaned.len() - 1], 1e12),
        Some('B') | Some('b') => (&cleaned[..cleaned.len() - 1], 1e9),
        Some('M') | Some('m') => (&cleaned[..cleaned.len() - 1], 1e6),
        Some('K') | Some('k') => (&cleaned[..cleaned.len() - 1], 1e3),
        _ => (cleaned.as_str(), 1.0),
    };
    number_part.trim().parse::<f64>().ok().map(|v| v * multiplier)
}

impl FactTable {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the fact table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a dimension column by name.
    pub fn dimension_index(&self, name: &str) -> Option<usize> {
        self.dimension_columns.iter().position(|c| c == name)
    }

    /// Index of a measure column by name.
    pub fn measure_index(&self, name: &str) -> Option<usize> {
        self.measure_columns.iter().position(|c| c == name)
    }

    /// True when the dimension columns form a primary key (no two rows share
    /// all dimension values) — the property the paper's year-augmentation
    /// restores for the Query 1 fact table.
    pub fn dimensions_form_key(&self) -> bool {
        let mut seen = BTreeSet::new();
        for row in &self.rows {
            if !seen.insert(row.dimensions.clone()) {
                return false;
            }
        }
        true
    }

    /// Derives the dimension tables of this fact table (one per dimension
    /// column).
    pub fn dimension_tables(&self) -> Vec<DimensionTable> {
        self.dimension_columns
            .iter()
            .enumerate()
            .map(|(i, name)| {
                DimensionTable::from_values(
                    name.clone(),
                    self.rows.iter().map(|r| r.dimensions[i].clone()),
                )
            })
            .collect()
    }
}

/// A derived star schema: fact tables plus their dimension tables, ready to be
/// handed to an OLAP engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StarSchema {
    /// Fact tables (one per fact, after merging facts with identical keys).
    pub fact_tables: Vec<FactTable>,
    /// Dimension tables referenced by the fact tables.
    pub dimension_tables: Vec<DimensionTable>,
}

impl StarSchema {
    /// Finds a fact table by name.
    pub fn fact(&self, name: &str) -> Option<&FactTable> {
        self.fact_tables.iter().find(|f| f.name == name)
    }

    /// Finds a dimension table by name.
    pub fn dimension(&self, name: &str) -> Option<&DimensionTable> {
        self.dimension_tables.iter().find(|d| d.name == name)
    }
}

/// Renders a query-result row for diagnostics.
pub fn describe_row(collection: &Collection, row: &[(NodeId, PathId)]) -> String {
    row.iter()
        .map(|(node, path)| {
            format!(
                "{}={:?}",
                collection.path_string(*path),
                collection.content(*node).unwrap_or_default()
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::DocId;

    fn node(n: u32) -> NodeId {
        NodeId::new(DocId(0), n)
    }

    #[test]
    fn query_result_table_tracks_columns_and_paths() {
        let mut t = QueryResultTable::new(vec!["us".into(), "partner".into()]);
        t.push_row(vec![(node(1), PathId(0)), (node(2), PathId(1))]);
        t.push_row(vec![(node(3), PathId(0)), (node(4), PathId(2))]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.width(), 2);
        assert_eq!(t.column_paths(0).len(), 1);
        assert_eq!(t.column_paths(1).len(), 2);
        assert_eq!(t.column_nodes(1), vec![node(2), node(4)]);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn mismatched_row_arity_panics() {
        let mut t = QueryResultTable::new(vec!["a".into()]);
        t.push_row(vec![(node(1), PathId(0)), (node(2), PathId(1))]);
    }

    #[test]
    fn dimension_table_deduplicates_and_sorts() {
        let d = DimensionTable::from_values(
            "country",
            ["China", "Canada", "China"].iter().map(|s| s.to_string()),
        );
        assert_eq!(d.values, vec!["Canada", "China"]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn numeric_parsing_handles_factbook_notation() {
        assert_eq!(parse_numeric("15"), Some(15.0));
        assert_eq!(parse_numeric("16.9%"), Some(16.9));
        assert_eq!(parse_numeric("12.31T"), Some(12.31e12));
        assert_eq!(parse_numeric("924.4B"), Some(924.4e9));
        assert_eq!(parse_numeric("1,234"), Some(1234.0));
        assert_eq!(parse_numeric("63.1M"), Some(63.1e6));
        assert_eq!(parse_numeric("not a number"), None);
        assert_eq!(parse_numeric(""), None);
    }

    #[test]
    fn fact_table_key_detection() {
        let table = FactTable {
            name: "percentage".into(),
            dimension_columns: vec!["country".into(), "import-country".into()],
            measure_columns: vec!["percentage".into()],
            rows: vec![
                FactRow {
                    dimensions: vec!["United States".into(), "China".into()],
                    measures: vec!["12.5".into()],
                },
                FactRow {
                    dimensions: vec!["United States".into(), "China".into()],
                    measures: vec!["13.8".into()],
                },
            ],
        };
        // Without the year dimension the rows collide — the paper's example of
        // "China 12.5%" vs "China 13.8%".
        assert!(!table.dimensions_form_key());
        let mut with_year = table.clone();
        with_year.dimension_columns.push("year".into());
        with_year.rows[0].dimensions.push("2004".into());
        with_year.rows[1].dimensions.push("2005".into());
        assert!(with_year.dimensions_form_key());
        assert_eq!(with_year.dimension_tables().len(), 3);
        assert_eq!(with_year.rows[0].numeric_measure(0), Some(12.5));
    }

    #[test]
    fn star_schema_lookup() {
        let schema = StarSchema {
            fact_tables: vec![FactTable { name: "f".into(), ..FactTable::default() }],
            dimension_tables: vec![DimensionTable::from_values("d", vec![])],
        };
        assert!(schema.fact("f").is_some());
        assert!(schema.fact("g").is_none());
        assert!(schema.dimension("d").is_some());
    }
}
