//! Connection discovery (Sec. 6).
//!
//! After the user restricts the contexts of her query terms, there may still
//! be several structural ways to relate the matching nodes (the paper's
//! example: a `trade_country` can pair with the `percentage` of the *same*
//! `item` or with the `percentage` of a *sibling* `item`).  SEDA presents a
//! *connection summary* — pairwise connections observed between the nodes of
//! the top-k result — and lets the user pick the relevant ones.
//!
//! Two complementary sources of connections are implemented:
//!
//! * [`discover_connections`] extracts connections from result tuples by
//!   abstracting the shortest data-graph path between every pair of matched
//!   nodes into a *signature* (the sequence of contexts visited).  These are
//!   instantiated connections, the ones SEDA shows the user.
//! * [`guide_connection`] computes the shortest connection between two paths
//!   in the merged dataguide summary (plus inter-guide links).  Dataguide
//!   connections that are never instantiated in the query result are the
//!   *false positives* the paper attributes to keyword restrictions and
//!   overlap merging; [`false_positive_connections`] measures them.

use std::collections::{BTreeMap, HashMap};

use seda_datagraph::{shortest_path_with, DataGraph, EdgeKind, TraversalScratch};
use seda_xmlstore::{Collection, NodeId, PathId};

use crate::guide::{DataGuideSet, GuideId};

/// A connection between two contexts, abstracted from instance data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Context of the first endpoint.
    pub from_path: PathId,
    /// Context of the second endpoint.
    pub to_path: PathId,
    /// The signature: sequence of contexts visited along the shortest
    /// connecting path, endpoints included.
    pub signature: Vec<PathId>,
    /// Edge kinds used along the path (deduplicated, in first-use order).
    pub edge_kinds: Vec<EdgeKind>,
    /// Number of result tuples exhibiting this connection.
    pub support: usize,
}

impl Connection {
    /// Number of edges on the connection.
    pub fn length(&self) -> usize {
        self.signature.len().saturating_sub(1)
    }

    /// Renders the signature in `/a/b ~ /a/c` style for display.
    pub fn display(&self, collection: &Collection) -> String {
        self.signature.iter().map(|&p| collection.path_string(p)).collect::<Vec<_>>().join(" ~ ")
    }
}

/// Key identifying a connection irrespective of its support.
fn signature_key(signature: &[PathId]) -> Vec<PathId> {
    // Normalise direction so A~B and B~A are the same connection.
    let reversed: Vec<PathId> = signature.iter().rev().copied().collect();
    if reversed < signature.to_vec() {
        reversed
    } else {
        signature.to_vec()
    }
}

/// Discovers pairwise connections between the nodes of result tuples.
///
/// For every tuple and every pair of member nodes, the shortest path in the
/// data graph (bounded by `max_depth`) is abstracted to its context signature;
/// identical signatures are aggregated with their support count.  Connections
/// are returned most-frequent first.
pub fn discover_connections(
    collection: &Collection,
    graph: &DataGraph,
    tuples: &[Vec<NodeId>],
    max_depth: usize,
) -> Vec<Connection> {
    let mut aggregated: BTreeMap<Vec<PathId>, Connection> = BTreeMap::new();
    let mut scratch = TraversalScratch::new();
    for tuple in tuples {
        for i in 0..tuple.len() {
            for j in (i + 1)..tuple.len() {
                let a = tuple[i];
                let b = tuple[j];
                if a == b {
                    continue;
                }
                let Some(hops) = shortest_path_with(graph, &mut scratch, a, b, max_depth) else {
                    continue;
                };
                let Ok(start_path) = collection.context(a) else { continue };
                let mut signature = Vec::with_capacity(hops.len() + 1);
                signature.push(start_path);
                let mut edge_kinds: Vec<EdgeKind> = Vec::new();
                let mut valid = true;
                for hop in &hops {
                    match collection.context(hop.node) {
                        Ok(p) => signature.push(p),
                        Err(_) => {
                            valid = false;
                            break;
                        }
                    }
                    if !edge_kinds.contains(&hop.kind) {
                        edge_kinds.push(hop.kind);
                    }
                }
                if !valid {
                    continue;
                }
                let key = signature_key(&signature);
                match aggregated.get_mut(&key) {
                    Some(existing) => existing.support += 1,
                    None => {
                        aggregated.insert(
                            key,
                            Connection {
                                from_path: signature[0],
                                to_path: *signature
                                    .last()
                                    .expect("invariant: a connection signature has both endpoints"),
                                signature,
                                edge_kinds,
                                support: 1,
                            },
                        );
                    }
                }
            }
        }
    }
    let mut connections: Vec<Connection> = aggregated.into_values().collect();
    connections.sort_by(|a, b| b.support.cmp(&a.support).then(a.signature.cmp(&b.signature)));
    connections
}

/// A connection computed purely from the dataguide summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuideConnection {
    /// First endpoint context.
    pub from_path: PathId,
    /// Second endpoint context.
    pub to_path: PathId,
    /// Number of edges on the shortest summary-level connection.
    pub length: usize,
    /// Guides the endpoints were found in (equal for intra-guide
    /// connections).
    pub guides: (GuideId, GuideId),
    /// Whether the connection crosses guides via an inter-guide link.
    pub crosses_guides: bool,
}

/// A link between two dataguides, derived from a non-tree edge of the data
/// graph (IDREF / XLink / value-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuideLink {
    /// Guide and context of the source endpoint.
    pub from: (GuideId, PathId),
    /// Guide and context of the target endpoint.
    pub to: (GuideId, PathId),
    /// Kind of the underlying edge.
    pub kind: EdgeKind,
}

/// Derives inter-dataguide links from the materialised non-tree edges of the
/// data graph ("a set of links between the dataguides corresponding to the
/// external edges between documents in G").
pub fn guide_links(
    collection: &Collection,
    graph: &DataGraph,
    guides: &DataGuideSet,
) -> Vec<GuideLink> {
    let mut links = Vec::new();
    let mut seen = HashMap::new();
    for edge in graph.edges() {
        let (Ok(from_path), Ok(to_path)) =
            (collection.context(edge.from), collection.context(edge.to))
        else {
            continue;
        };
        let (Some(from_guide), Some(to_guide)) =
            (guides.guide_of_document(edge.from.doc), guides.guide_of_document(edge.to.doc))
        else {
            continue;
        };
        let key = (from_guide, from_path, to_guide, to_path, edge.kind);
        if seen.insert(key, ()).is_none() {
            links.push(GuideLink {
                from: (from_guide, from_path),
                to: (to_guide, to_path),
                kind: edge.kind,
            });
        }
    }
    links
}

/// Distance between two paths within one dataguide, i.e. the tree distance in
/// the guide's path trie (`depth(a) + depth(b) - 2 * |common prefix|`).
fn intra_guide_distance(collection: &Collection, a: PathId, b: PathId) -> usize {
    let pa = collection.paths().resolve(a);
    let pb = collection.paths().resolve(b);
    let common = pa.steps().iter().zip(pb.steps().iter()).take_while(|(x, y)| x == y).count();
    pa.len() + pb.len() - 2 * common
}

/// Shortest summary-level connection between two contexts, using the dataguide
/// tries plus at most one inter-guide link ("if there are multiple paths
/// between two dataguide nodes, the algorithm chooses the shortest").
pub fn guide_connection(
    collection: &Collection,
    guides: &DataGuideSet,
    links: &[GuideLink],
    from_path: PathId,
    to_path: PathId,
) -> Option<GuideConnection> {
    let from_guides = guides.guides_with_path(from_path);
    let to_guides = guides.guides_with_path(to_path);
    if from_guides.is_empty() || to_guides.is_empty() {
        return None;
    }

    // Intra-guide connection when some guide contains both paths.
    let mut best: Option<GuideConnection> = None;
    for &g in &from_guides {
        if to_guides.contains(&g) {
            let length = intra_guide_distance(collection, from_path, to_path);
            let candidate = GuideConnection {
                from_path,
                to_path,
                length,
                guides: (g, g),
                crosses_guides: false,
            };
            if best.as_ref().map(|b| candidate.length < b.length).unwrap_or(true) {
                best = Some(candidate);
            }
        }
    }

    // Cross-guide connection via one link.
    for link in links {
        let (lg, lp) = link.from;
        let (rg, rp) = link.to;
        // Try both orientations of the link.
        for ((g1, p1), (g2, p2)) in [((lg, lp), (rg, rp)), ((rg, rp), (lg, lp))] {
            if from_guides.contains(&g1)
                && guides.guide(g1).contains(from_path)
                && guides.guide(g1).contains(p1)
                && to_guides.contains(&g2)
                && guides.guide(g2).contains(to_path)
                && guides.guide(g2).contains(p2)
            {
                let length = intra_guide_distance(collection, from_path, p1)
                    + 1
                    + intra_guide_distance(collection, p2, to_path);
                let candidate = GuideConnection {
                    from_path,
                    to_path,
                    length,
                    guides: (g1, g2),
                    crosses_guides: g1 != g2 || p1 != from_path || p2 != to_path,
                };
                if best.as_ref().map(|b| candidate.length < b.length).unwrap_or(true) {
                    best = Some(candidate);
                }
            }
        }
    }
    best
}

/// Dataguide-level connections between `path_pairs` that are **not**
/// instantiated by any of the given result tuples — the false positives of
/// Sec. 6.1.  Returns `(false_positives, total_guide_connections)`.
pub fn false_positive_connections(
    collection: &Collection,
    guides: &DataGuideSet,
    links: &[GuideLink],
    instantiated: &[Connection],
    path_pairs: &[(PathId, PathId)],
) -> (usize, usize) {
    let mut false_positives = 0usize;
    let mut total = 0usize;
    for &(a, b) in path_pairs {
        if guide_connection(collection, guides, links, a, b).is_some() {
            total += 1;
            let instantiated_pair = instantiated.iter().any(|c| {
                (c.from_path == a && c.to_path == b) || (c.from_path == b && c.to_path == a)
            });
            if !instantiated_pair {
                false_positives += 1;
            }
        }
    }
    (false_positives, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guide::DataGuideSet;
    use seda_datagraph::GraphConfig;
    use seda_xmlstore::parse_collection;

    fn setup() -> (Collection, DataGraph, DataGuideSet) {
        let c = parse_collection(vec![
            (
                "us.xml",
                r#"<country id="cty-us"><name>United States</name><year>2006</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                       <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                     </import_partners></economy>
                   </country>"#,
            ),
            (
                "sea.xml",
                r#"<sea id="sea-pac"><name>Pacific Ocean</name>
                     <bordering country_idref="cty-us"/></sea>"#,
            ),
        ])
        .unwrap();
        let g = DataGraph::build(&c, &GraphConfig::default());
        let guides = DataGuideSet::build(&c, 0.4).unwrap();
        (c, g, guides)
    }

    fn path(c: &Collection, s: &str) -> PathId {
        c.paths().get_str(c.symbols(), s).unwrap()
    }

    fn node(c: &Collection, path_str: &str, content: &str) -> NodeId {
        let p = path(c, path_str);
        c.nodes_with_path(p).into_iter().find(|&n| c.content(n).unwrap() == content).unwrap()
    }

    #[test]
    fn same_item_and_cross_item_connections_are_distinguished() {
        let (c, g, _) = setup();
        let china = node(&c, "/country/economy/import_partners/item/trade_country", "China");
        let pct_same = node(&c, "/country/economy/import_partners/item/percentage", "15");
        let pct_other = node(&c, "/country/economy/import_partners/item/percentage", "16.9");
        // Two tuples: China with its own percentage, China with Canada's.
        let tuples = vec![vec![china, pct_same], vec![china, pct_other]];
        let connections = discover_connections(&c, &g, &tuples, 10);
        assert_eq!(
            connections.len(),
            2,
            "the paper's two ways to connect trade_country and percentage"
        );
        let lengths: Vec<usize> = connections.iter().map(Connection::length).collect();
        assert!(lengths.contains(&2), "same-item connection via the shared item node");
        assert!(lengths.contains(&4), "cross-item connection via import_partners");
    }

    #[test]
    fn connection_support_aggregates_identical_signatures() {
        let (c, g, _) = setup();
        let china = node(&c, "/country/economy/import_partners/item/trade_country", "China");
        let pct15 = node(&c, "/country/economy/import_partners/item/percentage", "15");
        let canada = node(&c, "/country/economy/import_partners/item/trade_country", "Canada");
        let pct169 = node(&c, "/country/economy/import_partners/item/percentage", "16.9");
        let tuples = vec![vec![china, pct15], vec![canada, pct169]];
        let connections = discover_connections(&c, &g, &tuples, 10);
        assert_eq!(connections.len(), 1, "both pairs share the same signature");
        assert_eq!(connections[0].support, 2);
        assert_eq!(connections[0].length(), 2);
    }

    #[test]
    fn connections_across_documents_record_idref_edges() {
        let (c, g, _) = setup();
        let us_name = node(&c, "/country/name", "United States");
        let sea_name = node(&c, "/sea/name", "Pacific Ocean");
        let tuples = vec![vec![us_name, sea_name]];
        let connections = discover_connections(&c, &g, &tuples, 10);
        assert_eq!(connections.len(), 1);
        assert!(connections[0].edge_kinds.contains(&EdgeKind::IdRef));
        assert!(connections[0].edge_kinds.contains(&EdgeKind::ParentChild));
    }

    #[test]
    fn connection_display_renders_contexts() {
        let (c, g, _) = setup();
        let china = node(&c, "/country/economy/import_partners/item/trade_country", "China");
        let pct15 = node(&c, "/country/economy/import_partners/item/percentage", "15");
        let connections = discover_connections(&c, &g, &[vec![china, pct15]], 10);
        let rendered = connections[0].display(&c);
        assert!(rendered.contains("/country/economy/import_partners/item/trade_country"));
        assert!(rendered.contains("/country/economy/import_partners/item/percentage"));
    }

    #[test]
    fn guide_links_reflect_cross_document_edges() {
        let (c, g, guides) = setup();
        let links = guide_links(&c, &g, &guides);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].kind, EdgeKind::IdRef);
    }

    #[test]
    fn intra_guide_connection_uses_trie_distance() {
        let (c, _, guides) = setup();
        let tc = path(&c, "/country/economy/import_partners/item/trade_country");
        let pct = path(&c, "/country/economy/import_partners/item/percentage");
        let conn = guide_connection(&c, &guides, &[], tc, pct).unwrap();
        assert_eq!(conn.length, 2);
        assert!(!conn.crosses_guides);
    }

    #[test]
    fn cross_guide_connection_uses_links() {
        let (c, g, guides) = setup();
        let links = guide_links(&c, &g, &guides);
        let name = path(&c, "/country/name");
        let sea_name = path(&c, "/sea/name");
        let conn = guide_connection(&c, &guides, &links, name, sea_name).unwrap();
        assert!(conn.crosses_guides);
        // name->country (1) + link (1) + bordering->sea->name (2) = 4.
        assert_eq!(conn.length, 4);
        // Without links there is no connection at all.
        assert!(guide_connection(&c, &guides, &[], name, sea_name).is_none());
    }

    #[test]
    fn false_positives_are_guide_connections_without_instances() {
        let (c, g, guides) = setup();
        let links = guide_links(&c, &g, &guides);
        let tc = path(&c, "/country/economy/import_partners/item/trade_country");
        let pct = path(&c, "/country/economy/import_partners/item/percentage");
        let year = path(&c, "/country/year");
        // Instantiate only the trade_country ~ percentage connection.
        let china = node(&c, "/country/economy/import_partners/item/trade_country", "China");
        let pct15 = node(&c, "/country/economy/import_partners/item/percentage", "15");
        let instantiated = discover_connections(&c, &g, &[vec![china, pct15]], 10);
        let (fp, total) = false_positive_connections(
            &c,
            &guides,
            &links,
            &instantiated,
            &[(tc, pct), (tc, year)],
        );
        assert_eq!(total, 2, "both pairs are connected at the summary level");
        assert_eq!(fp, 1, "only the trade_country~year pair lacks an instance");
    }

    #[test]
    fn unknown_paths_yield_no_guide_connection() {
        let (c, _, guides) = setup();
        let tc = path(&c, "/country/economy/import_partners/item/trade_country");
        // A path id that no guide contains (sea/bordering/country_idref is in
        // a different guide, so pair exists; use an out-of-range id instead).
        let bogus = PathId(9999);
        assert!(guide_connection(&c, &guides, &[], tc, bogus).is_none());
    }
}
