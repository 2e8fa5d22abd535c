//! # seda-datagraph
//!
//! The SEDA data graph (Definition 2 of the paper): XML element/attribute
//! nodes connected by parent/child, IDREF, XLink/XPointer and value-based
//! edges.  The crate builds the graph over a [`seda_xmlstore::Collection`],
//! exposes traversal primitives (BFS, shortest paths, connectedness of result
//! tuples), and implements the *compactness* measure the top-k scoring
//! function uses.
//!
//! ```
//! use seda_datagraph::{DataGraph, GraphConfig};
//! use seda_xmlstore::parse_collection;
//!
//! let collection = parse_collection(vec![
//!     ("c.xml", r#"<country id="c1"><name>China</name></country>"#),
//!     ("s.xml", r#"<sea id="s1"><bordering country_idref="c1"/></sea>"#),
//! ]).unwrap();
//! let graph = DataGraph::build(&collection, &GraphConfig::default());
//! assert_eq!(graph.cross_edge_count(), 1);
//! ```

pub mod audit;
pub mod config;
pub mod connectivity;
pub mod context;
pub mod graph;
pub mod traversal;

pub use config::{GraphConfig, ValueKeySpec};
pub use connectivity::{ConnectivityIndex, LabelScheme, LABEL_RADIUS};
pub use context::CONTEXT_UNREACHABLE;
pub use graph::{doc_component_builds_on_this_thread, DataGraph, Edge, EdgeKind, GraphShard};
pub use traversal::{
    bfs_is_connected_with, bfs_shortest_distance_with, bfs_shortest_path_with, compactness,
    compactness_with, connecting_tree_size, connecting_tree_size_with, is_connected,
    is_connected_with, pairwise_distances, shortest_distance, shortest_distance_with,
    shortest_path, shortest_path_with, Hop, TraversalScratch,
};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::config::{GraphConfig, ValueKeySpec};
    use crate::graph::DataGraph;
    use crate::traversal::{
        bfs_shortest_distance_with, compactness, connecting_tree_size, is_connected,
        shortest_distance, TraversalScratch,
    };
    use seda_xmlstore::{parse_collection, Collection, NodeId};

    /// Builds a single-document collection shaped like a shallow tree of
    /// `width` branches each with `depth` nested children.
    fn tree_collection(width: u8, depth: u8) -> Collection {
        let mut c = Collection::new();
        c.add_document("t.xml", |b| {
            b.start_element("root")?;
            for w in 0..width.max(1) {
                b.start_element(&format!("branch{w}"))?;
                for d in 0..depth.max(1) {
                    b.start_element(&format!("level{d}"))?;
                }
                b.leaf("leaf", &format!("value {w}"))?;
                for _ in 0..depth.max(1) {
                    b.end_element()?;
                }
                b.end_element()?;
            }
            b.end_element()?;
            Ok(())
        })
        .unwrap();
        c
    }

    /// Mondial-shaped documents linked by IDREF, XLink and (through the
    /// graph config below) value-based edges.
    fn mondial_like() -> Collection {
        parse_collection(vec![
            (
                "sea.xml",
                r#"<sea id="sea-1"><name>Pacific Ocean</name>
                     <bordering country_idref="cty-us"/>
                     <bordering country_idref="cty-ph"/>
                   </sea>"#,
            ),
            (
                "us.xml",
                r#"<country id="cty-us"><name>United States</name>
                     <province><name>Texas</name><city><name>Houston</name></city></province>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                     </import_partners></economy>
                   </country>"#,
            ),
            ("ph.xml", r#"<country id="cty-ph"><name>Philippines</name></country>"#),
            (
                "china.xml",
                r#"<country id="cty-cn"><name>China</name>
                     <link href="cty-us"/>
                   </country>"#,
            ),
            ("island.xml", r#"<island><name>Lonely</name><area>3</area></island>"#),
        ])
        .unwrap()
    }

    /// World-Factbook-shaped documents: one country per year, trade
    /// partners nested four levels deep, no cross edges.
    fn factbook_like() -> Collection {
        parse_collection(vec![
            (
                "us2006.xml",
                r#"<country><name>United States</name><year>2006</year>
                     <economy><GDP_ppp>12.31T</GDP_ppp>
                       <import_partners>
                         <item><trade_country>China</trade_country><percentage>15</percentage></item>
                         <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                       </import_partners>
                     </economy></country>"#,
            ),
            (
                "mexico2003.xml",
                r#"<country><name>Mexico</name><year>2003</year>
                     <economy><export_partners>
                       <item><trade_country>United States</trade_country><percentage>70.6</percentage></item>
                     </export_partners></economy></country>"#,
            ),
        ])
        .unwrap()
    }

    fn all_nodes(c: &Collection) -> Vec<NodeId> {
        c.documents().flat_map(|d| d.node_ids()).collect()
    }

    /// Context distance never exceeds the node distance it bounds, at any
    /// depth the BFS reference reaches.
    fn check_context_lower_bound(
        c: &Collection,
        g: &DataGraph,
        a: usize,
        b: usize,
    ) -> Result<(), TestCaseError> {
        let nodes = all_nodes(c);
        let (na, nb) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
        let (ca, cb) = (c.context(na).unwrap(), c.context(nb).unwrap());
        let mut scratch = TraversalScratch::new();
        if let Some(d) = bfs_shortest_distance_with(g, &mut scratch, na, nb, nodes.len()) {
            let ctx = g.context_distance(ca, cb);
            prop_assert!(ctx.is_some(), "{na:?} and {nb:?} are connected, their contexts not");
            prop_assert!(ctx.unwrap() <= d, "context distance {ctx:?} > node distance {d}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The context graph is a sound lower bound on the mondial-like
        /// fixture, with IDREF, XLink and value-based edges all present.
        #[test]
        fn context_distance_bounds_node_distance_on_mondial(a in 0usize..200, b in 0usize..200) {
            let c = mondial_like();
            let config = GraphConfig::with_value_keys(vec![ValueKeySpec::new(
                "/country/name",
                "/country/economy/import_partners/item/trade_country",
            )]);
            let g = DataGraph::build(&c, &config);
            check_context_lower_bound(&c, &g, a, b)?;
        }

        /// The same bound on the factbook fixture (tree edges only).
        #[test]
        fn context_distance_bounds_node_distance_on_factbook(a in 0usize..200, b in 0usize..200) {
            let c = factbook_like();
            let g = DataGraph::build(&c, &GraphConfig::default());
            check_context_lower_bound(&c, &g, a, b)?;
        }

        /// Within a single document every pair of nodes is connected, the
        /// distance is symmetric, and compactness is positive.
        #[test]
        fn tree_nodes_are_always_connected(width in 1u8..4, depth in 1u8..4, a in 0u32..10, b in 0u32..10) {
            let c = tree_collection(width, depth);
            let g = DataGraph::build(&c, &GraphConfig::default());
            let doc = c.documents().next().unwrap();
            let n = doc.len() as u32;
            let na = NodeId::new(doc.id, a % n);
            let nb = NodeId::new(doc.id, b % n);
            let limit = doc.len();
            let d_ab = shortest_distance(&g, na, nb, limit);
            let d_ba = shortest_distance(&g, nb, na, limit);
            prop_assert!(d_ab.is_some());
            prop_assert_eq!(d_ab, d_ba);
            prop_assert!(is_connected(&g, &[na, nb], limit));
            prop_assert!(compactness(&g, &[na, nb], limit) > 0.0);
        }

        /// The connecting-tree size of a pair equals the pair's shortest-path
        /// distance, and adding a node never shrinks the connecting tree.
        #[test]
        fn connecting_tree_is_monotone(width in 1u8..4, depth in 1u8..4, a in 0u32..10, b in 0u32..10, extra in 0u32..10) {
            let c = tree_collection(width, depth);
            let g = DataGraph::build(&c, &GraphConfig::default());
            let doc = c.documents().next().unwrap();
            let n = doc.len() as u32;
            let limit = doc.len();
            let na = NodeId::new(doc.id, a % n);
            let nb = NodeId::new(doc.id, b % n);
            let nc = NodeId::new(doc.id, extra % n);
            let pair = connecting_tree_size(&g, &[na, nb], limit).unwrap();
            let dist = shortest_distance(&g, na, nb, limit).unwrap();
            prop_assert_eq!(pair, dist);
            let triple = connecting_tree_size(&g, &[na, nb, nc], limit).unwrap();
            prop_assert!(triple >= pair);
        }
    }
}
