//! The context graph: the data graph's image under node → context.
//!
//! Every node has exactly one context (its root-to-leaf [`PathId`]).  Mapping
//! both endpoints of every data-graph edge to their contexts gives a small
//! undirected graph over the collection's interned paths:
//!
//! * each tree edge `(node, parent)` maps to `(path, parent path)`, the
//!   path's own prefix in the [`seda_xmlstore::PathTable`] — read off the
//!   tree edges while [`DataGraph::merge`] lays out the adjacency, so the
//!   context graph adds no pass over the nodes;
//! * each resolved cross edge (IDREF, XLink, value-based) maps to the pair of
//!   its endpoints' contexts.
//!
//! Edges are deduplicated and self-loops dropped.  Because every data-graph
//! edge has an image here, a path of `d` hops between two nodes maps to a
//! walk of at most `d` hops between their contexts: the context distance is
//! a lower bound on the node distance.  The top-k searcher turns that into a
//! sound upper bound on the compactness of tuples it has not enumerated yet.

use seda_xmlstore::{Collection, PathId};

use crate::graph::{DataGraph, Edge};

/// Distance reported by [`DataGraph::context_distances_into`] for contexts
/// no source reaches.
pub const CONTEXT_UNREACHABLE: u32 = u32::MAX;

/// Builds the context-graph CSR (`offsets`, `targets`) over the collection's
/// paths: the parent-path edges (`parent_paths[p]` is path `p`'s parent
/// path, `u32::MAX` for roots) plus the context image of every resolved
/// cross edge.  Cost is O(paths + cross edges).
pub(crate) fn build_context_graph(
    collection: &Collection,
    parent_paths: &[u32],
    edges: &[Edge],
) -> (Vec<u32>, Vec<PathId>) {
    let paths = parent_paths.len();
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(2 * (paths + edges.len()));
    let mut link = |a: u32, b: u32| {
        if a != b && (a as usize) < paths && (b as usize) < paths {
            pairs.push((a, b));
            pairs.push((b, a));
        }
    };
    for (path, &parent) in parent_paths.iter().enumerate() {
        link(path as u32, parent);
    }
    for edge in edges {
        if let (Ok(a), Ok(b)) = (collection.context(edge.from), collection.context(edge.to)) {
            link(a.0, b.0);
        }
    }
    pairs.sort_unstable();
    pairs.dedup();

    let mut offsets = vec![0u32; paths + 1];
    for &(a, _) in &pairs {
        offsets[a as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let targets = pairs.into_iter().map(|(_, b)| PathId(b)).collect();
    (offsets, targets)
}

impl DataGraph {
    /// Number of contexts the context graph spans (the collection's path
    /// count when the graph was merged).
    pub fn context_count(&self) -> usize {
        self.context_offsets.len().saturating_sub(1)
    }

    /// Neighbours of a context in the context graph, sorted ascending; empty
    /// for contexts outside the graph.
    pub fn context_neighbors(&self, context: PathId) -> &[PathId] {
        let i = context.index();
        if i >= self.context_count() {
            return &[];
        }
        &self.context_targets
            [self.context_offsets[i] as usize..self.context_offsets[i + 1] as usize]
    }

    /// Multi-source breadth-first search over the context graph: on return
    /// `dist[c]` is the hop distance from the nearest context in `sources`
    /// to context `c`, or [`CONTEXT_UNREACHABLE`].  `queue` and `dist` are
    /// caller-owned scratch buffers, reused across calls.  Sources outside
    /// the graph are ignored.
    pub fn context_distances_into(
        &self,
        sources: &[PathId],
        queue: &mut Vec<u32>,
        dist: &mut Vec<u32>,
    ) {
        let count = self.context_count();
        dist.clear();
        dist.resize(count, CONTEXT_UNREACHABLE);
        queue.clear();
        for &source in sources {
            let s = source.index();
            if s < count && dist[s] == CONTEXT_UNREACHABLE {
                dist[s] = 0;
                queue.push(source.0);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let current = queue[head] as usize;
            head += 1;
            let next_dist = dist[current] + 1;
            let range =
                self.context_offsets[current] as usize..self.context_offsets[current + 1] as usize;
            for &next in &self.context_targets[range] {
                if dist[next.index()] == CONTEXT_UNREACHABLE {
                    dist[next.index()] = next_dist;
                    queue.push(next.0);
                }
            }
        }
    }

    /// Hop distance between two contexts in the context graph, or `None`
    /// when they are not connected.  A lower bound on the distance between
    /// any node of context `a` and any node of context `b`.
    pub fn context_distance(&self, a: PathId, b: PathId) -> Option<usize> {
        let (mut queue, mut dist) = (Vec::new(), Vec::new());
        self.context_distances_into(&[a], &mut queue, &mut dist);
        dist.get(b.index()).filter(|&&d| d != CONTEXT_UNREACHABLE).map(|&d| d as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphConfig;
    use seda_xmlstore::parse_collection;

    fn linked() -> Collection {
        parse_collection(vec![
            (
                "sea.xml",
                r#"<sea id="sea-1"><name>Pacific</name>
                     <bordering country_idref="cty-us"/>
                   </sea>"#,
            ),
            ("us.xml", r#"<country id="cty-us"><name>United States</name></country>"#),
            ("island.xml", r#"<island><name>Lonely</name></island>"#),
        ])
        .unwrap()
    }

    fn path(c: &Collection, p: &str) -> PathId {
        c.paths().get_str(c.symbols(), p).unwrap()
    }

    #[test]
    fn tree_and_cross_edges_map_onto_contexts() {
        let c = linked();
        let g = DataGraph::build(&c, &GraphConfig::default());
        assert_eq!(g.context_count(), c.paths().len());
        let sea_name = path(&c, "/sea/name");
        let bordering = path(&c, "/sea/bordering");
        let country = path(&c, "/country");
        let country_name = path(&c, "/country/name");
        // Parent-path edges.
        assert!(g.context_neighbors(sea_name).contains(&path(&c, "/sea")));
        // The IDREF edge bordering -> country maps onto /sea/bordering -- /country.
        assert!(g.context_neighbors(bordering).contains(&country));
        assert!(g.context_neighbors(country).contains(&bordering));
        assert_eq!(g.context_distance(sea_name, country_name), Some(4));
        assert_eq!(g.context_distance(sea_name, path(&c, "/island/name")), None);
        assert_eq!(g.context_distance(sea_name, sea_name), Some(0));
        for c in 0..g.context_count() {
            let row = g.context_neighbors(PathId(c as u32));
            assert!(row.windows(2).all(|w| w[0] < w[1]), "rows are sorted and deduplicated");
            assert!(!row.contains(&PathId(c as u32)), "no self-loops");
        }
    }

    #[test]
    fn multi_source_search_takes_the_nearest_source() {
        let c = linked();
        let g = DataGraph::build(&c, &GraphConfig::default());
        let (mut queue, mut dist) = (Vec::new(), Vec::new());
        let sources = [path(&c, "/sea/name"), path(&c, "/country/name")];
        g.context_distances_into(&sources, &mut queue, &mut dist);
        assert_eq!(dist[path(&c, "/country").index()], 1);
        assert_eq!(dist[path(&c, "/sea").index()], 1);
        assert_eq!(dist[path(&c, "/island").index()], CONTEXT_UNREACHABLE);
        // Sources outside the graph are ignored rather than indexed.
        g.context_distances_into(&[PathId(u32::MAX)], &mut queue, &mut dist);
        assert!(dist.iter().all(|&d| d == CONTEXT_UNREACHABLE));
        assert_eq!(DataGraph::default().context_distance(PathId(0), PathId(0)), None);
    }
}
