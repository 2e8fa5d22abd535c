//! Output checks against oracles that do not share code with the layer under
//! test: term matching by the benchmark's own tokenizer, connectivity and
//! compactness by plain breadth-first search, exhaustive top-k by
//! `search_naive_with`, complete results by a walk over the stored
//! documents, and cubes by the benchmark's own group-by.

use std::collections::BTreeMap;

use seda_core::seda_datagraph::{bfs_shortest_distance_with, TraversalScratch};
use seda_core::seda_olap::AggFn;
use seda_core::seda_textindex::FullTextQuery;
use seda_core::seda_topk::{SearchScratch, TermInput, TopKResult, TopKSearcher};
use seda_core::seda_xmlstore::{Collection, NodeId, PathId};
use seda_core::{ContextSpec, ResponsePayload, SedaEngine, SedaQuery, SedaRequest, Statement};

/// Top-k answers whose exhaustive baseline scores at most this many tuples
/// are compared against `search_naive_with`.
const NAIVE_MAX_TUPLES: usize = 20_000;

/// Lower-cased alphanumeric runs: deliberately simpler than the engine's
/// tokenizer (it splits decimals), applied to both sides of every match.
pub fn tokens(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
        .collect()
}

fn contains_run(haystack: &[String], needle: &[String]) -> bool {
    needle.is_empty() || haystack.windows(needle.len()).any(|w| w == needle)
}

/// Search inputs of a query, resolved through the public context spec.
pub fn term_inputs(collection: &Collection, query: &SedaQuery) -> Vec<TermInput> {
    query
        .terms
        .iter()
        .map(|t| match t.context.allowed_paths(collection) {
            Some(paths) => TermInput::with_paths(t.search.clone(), paths),
            None => TermInput::new(t.search.clone()),
        })
        .collect()
}

pub struct Checker<'e> {
    engine: &'e SedaEngine,
    traversal: TraversalScratch,
    search: SearchScratch,
    /// Expected complete-result rows per selected path triple.
    rows: BTreeMap<Vec<String>, Vec<Vec<NodeId>>>,
    /// Top-k answers compared with the exhaustive baseline.
    pub naive_compared: usize,
    /// Top-k tuples whose connectivity and compactness BFS confirmed.
    pub bfs_tuples: usize,
}

impl<'e> Checker<'e> {
    pub fn new(engine: &'e SedaEngine) -> Self {
        Checker {
            engine,
            traversal: TraversalScratch::new(),
            search: SearchScratch::new(),
            rows: BTreeMap::new(),
            naive_compared: 0,
            bfs_tuples: 0,
        }
    }

    fn collection(&self) -> &'e Collection {
        self.engine.collection()
    }

    /// Checks one response against the oracles; returns every problem found.
    /// `deep` additionally confirms connectivity by BFS and compares with the
    /// exhaustive baseline where that is affordable.
    pub fn check(
        &mut self,
        request: &SedaRequest,
        payload: &ResponsePayload,
        deep: bool,
    ) -> Vec<String> {
        let Some(query) = request.query.as_ref() else {
            return vec!["request has no query".to_string()];
        };
        match (&request.statement, payload) {
            (Statement::TopK { k }, ResponsePayload::TopK(result)) => {
                self.check_top_k(query, result, *k, deep)
            }
            (
                Statement::ConnectionSummary { k },
                ResponsePayload::Connections { top_k, summary },
            ) => {
                let mut problems = self.check_top_k(query, top_k, *k, deep);
                let contexts: Vec<PathId> = top_k
                    .tuples
                    .iter()
                    .flat_map(|t| &t.nodes)
                    .filter_map(|&n| self.collection().context(n).ok())
                    .collect();
                for c in &summary.connections {
                    let ends = (c.signature.first(), c.signature.last());
                    if ends != (Some(&c.from_path), Some(&c.to_path))
                        || !contexts.contains(&c.from_path)
                        || !contexts.contains(&c.to_path)
                        || c.support == 0
                    {
                        problems.push(format!(
                            "connection {} does not join two top-k contexts",
                            c.display(self.collection())
                        ));
                    }
                }
                if !top_k.tuples.is_empty()
                    && summary.connections.is_empty()
                    && query.terms.len() > 1
                {
                    problems.push("connected top-k tuples produced no connection".to_string());
                }
                problems
            }
            (Statement::ContextSummary, ResponsePayload::Contexts(summary)) => {
                let mut problems = Vec::new();
                if summary.buckets.len() != query.terms.len() {
                    problems.push(format!(
                        "{} buckets for {} terms",
                        summary.buckets.len(),
                        query.terms.len()
                    ));
                }
                for bucket in &summary.buckets {
                    // Every term is drawn from the corpus, so its bucket is non-empty.
                    if bucket.entries.is_empty() {
                        problems.push(format!("empty context bucket for {}", bucket.label));
                    }
                    if let Some(ContextSpec::Tag(label)) =
                        query.terms.get(bucket.term).map(|t| &t.context)
                    {
                        for entry in &bucket.entries {
                            let path = self.collection().path_string(entry.path);
                            if path.rsplit('/').next() != Some(label.as_str()) {
                                problems.push(format!("context {path} does not end in {label}"));
                            }
                        }
                    }
                }
                problems
            }
            (Statement::CompleteResults, ResponsePayload::Table(table)) => {
                let expected = self.expected_rows(request);
                let mut got: Vec<Vec<NodeId>> =
                    table.rows.iter().map(|r| r.iter().map(|&(n, _)| n).collect()).collect();
                got.sort();
                if got != expected {
                    vec![format!("{} rows, the document walk finds {}", got.len(), expected.len())]
                } else {
                    Vec::new()
                }
            }
            (Statement::Cube { group_by, agg, .. }, ResponsePayload::Cube { cube, .. }) => {
                let expected = self.expected_cells(request, group_by, *agg);
                let got: Vec<(Vec<String>, f64, usize)> =
                    cube.cells.iter().map(|c| (c.coordinates.clone(), c.value, c.count)).collect();
                let same = got.len() == expected.len()
                    && got.iter().zip(&expected).all(|(a, b)| {
                        a.0 == b.0 && a.2 == b.2 && (a.1 - b.1).abs() <= 1e-9 * b.1.abs().max(1.0)
                    });
                if same {
                    Vec::new()
                } else {
                    let first = got.iter().zip(&expected).find(|(a, b)| a != b);
                    vec![format!(
                        "{} cells, the group-by oracle computes {}; first difference {first:?}",
                        got.len(),
                        expected.len()
                    )]
                }
            }
            _ => vec!["payload does not match the statement".to_string()],
        }
    }

    fn check_top_k(
        &mut self,
        query: &SedaQuery,
        result: &TopKResult,
        k: usize,
        deep: bool,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        let collection = self.collection();
        if result.tuples.len() > k {
            problems.push(format!("{} tuples for k = {k}", result.tuples.len()));
        }
        for pair in result.tuples.windows(2) {
            if pair[1].score > pair[0].score + 1e-12 {
                problems.push(format!("scores increase: {} then {}", pair[0].score, pair[1].score));
                break;
            }
        }
        for tuple in &result.tuples {
            if tuple.nodes.len() != query.terms.len() {
                problems.push(format!(
                    "tuple of {} nodes for {} terms",
                    tuple.nodes.len(),
                    query.terms.len()
                ));
                continue;
            }
            for (term, &node) in query.terms.iter().zip(&tuple.nodes) {
                if let Err(problem) = term_matches(collection, &term.context, &term.search, node) {
                    problems.push(problem);
                }
            }
        }
        if !deep {
            return problems;
        }
        let max_depth = self.engine.config().topk.max_depth;
        for tuple in result.tuples.iter().take(10) {
            self.bfs_tuples += 1;
            match self.bfs_tree_size(&tuple.nodes, max_depth) {
                None => problems.push(format!("tuple {:?} is not connected by BFS", tuple.nodes)),
                Some(size) => {
                    let expected = 1.0 / (1.0 + size as f64);
                    if (tuple.compactness - expected).abs() > 1e-9 {
                        problems.push(format!(
                            "compactness {} but BFS tree size {size} gives {expected}",
                            tuple.compactness
                        ));
                    }
                }
            }
        }
        let stats = &result.stats;
        if stats.candidates_truncated == 0 && stats.tuples_scored <= NAIVE_MAX_TUPLES {
            let terms = term_inputs(collection, query);
            let searcher =
                TopKSearcher::new(collection, self.engine.node_index(), self.engine.graph());
            let config =
                seda_core::seda_topk::TopKConfig { k, ..self.engine.config().topk.clone() };
            let naive = searcher.search_naive_with(&terms, &config, &mut self.search);
            self.naive_compared += 1;
            let got: Vec<f64> = result.tuples.iter().map(|t| t.score).collect();
            let want: Vec<f64> = naive.tuples.iter().map(|t| t.score).collect();
            let same = got.len() == want.len()
                && got.iter().zip(&want).all(|(a, b)| (a - b).abs() <= 1e-9);
            if naive.stats.candidates_truncated == 0 && !same {
                problems
                    .push(format!("scores {got:?} differ from the exhaustive baseline {want:?}"));
            }
        }
        problems
    }

    /// Size of a minimum spanning tree over plain-BFS pairwise distances.
    fn bfs_tree_size(&mut self, nodes: &[NodeId], max_depth: usize) -> Option<usize> {
        let n = nodes.len();
        let mut dist = vec![usize::MAX; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = bfs_shortest_distance_with(
                    self.engine.graph(),
                    &mut self.traversal,
                    nodes[i],
                    nodes[j],
                    max_depth,
                )
                .unwrap_or(usize::MAX);
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
        let mut in_tree = vec![false; n];
        let mut best = vec![usize::MAX; n];
        best[0] = 0;
        let mut total = 0;
        for _ in 0..n {
            let next = (0..n).filter(|&i| !in_tree[i]).min_by_key(|&i| best[i])?;
            if best[next] == usize::MAX {
                return None;
            }
            in_tree[next] = true;
            total += best[next];
            for other in 0..n {
                best[other] = best[other].min(dist[next * n + other]);
            }
        }
        Some(total)
    }

    /// Complete results by walking the documents: for every document, each
    /// node on the first selected path crossed with each pair of
    /// same-parent nodes on the second and third selected paths (the item
    /// holding a trade partner and its percentage).
    fn expected_rows(&mut self, request: &SedaRequest) -> Vec<Vec<NodeId>> {
        let paths: Vec<String> =
            request.path_selections.iter().flat_map(|(_, p)| p.iter().cloned()).collect();
        if let Some(rows) = self.rows.get(&paths) {
            return rows.clone();
        }
        let collection = self.collection();
        let id = |p: &String| collection.paths().get_str(collection.symbols(), p);
        let mut rows = Vec::new();
        if let [Some(top), Some(left), Some(right)] = [id(&paths[0]), id(&paths[1]), id(&paths[2])]
        {
            for doc in collection.documents() {
                let tops: Vec<u32> =
                    doc.iter().filter(|(_, n)| n.path == top).map(|(o, _)| o).collect();
                for (l, left_node) in doc.iter().filter(|(_, n)| n.path == left) {
                    for (r, right_node) in doc.iter().filter(|(_, n)| n.path == right) {
                        if left_node.parent != right_node.parent {
                            continue;
                        }
                        for &t in &tops {
                            rows.push(vec![
                                NodeId::new(doc.id, t),
                                NodeId::new(doc.id, l),
                                NodeId::new(doc.id, r),
                            ]);
                        }
                    }
                }
            }
        }
        rows.sort();
        self.rows.insert(paths, rows.clone());
        rows
    }

    /// The cube by the benchmark's own group-by over the expected complete
    /// results: `country` is the first column's text, `year` the document's
    /// `year` child, `*-country` the trade partner, the measure the
    /// percentage.
    fn expected_cells(
        &mut self,
        request: &SedaRequest,
        group_by: &[String],
        agg: AggFn,
    ) -> Vec<(Vec<String>, f64, usize)> {
        let rows = self.expected_rows(request);
        let collection = self.collection();
        let text = |n: NodeId| collection.content(n).unwrap_or_default().trim().to_string();
        let year = |n: NodeId| {
            let doc = collection.document(n.doc).expect("result documents exist");
            doc.children(doc.root())
                .iter()
                .find(|&&c| collection.node_name(NodeId::new(n.doc, c)) == Ok("year"))
                .map(|&c| text(NodeId::new(n.doc, c)))
                .unwrap_or_default()
        };
        let mut groups: BTreeMap<Vec<String>, Vec<f64>> = BTreeMap::new();
        for row in &rows {
            let Some(value) = percentage(&text(row[2])) else { continue };
            let key = group_by
                .iter()
                .map(|d| match d.as_str() {
                    "country" => text(row[0]),
                    "year" => year(row[0]),
                    _ => text(row[1]),
                })
                .collect();
            groups.entry(key).or_default().push(value);
        }
        groups
            .into_iter()
            .map(|(key, values)| {
                let sum: f64 = values.iter().sum();
                let value = match agg {
                    AggFn::Sum => sum,
                    AggFn::Count => values.len() as f64,
                    AggFn::Avg => sum / values.len() as f64,
                    AggFn::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
                    AggFn::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                };
                (key, value, values.len())
            })
            .collect()
    }
}

fn percentage(text: &str) -> Option<f64> {
    text.trim().trim_end_matches('%').replace(',', "").trim().parse().ok()
}

/// Whether `node` satisfies one query term, by label and by the term's words
/// occurring in the node's text.
fn term_matches(
    collection: &Collection,
    context: &ContextSpec,
    search: &FullTextQuery,
    node: NodeId,
) -> Result<(), String> {
    if let ContextSpec::Tag(label) = context {
        let name = collection.node_name(node).map_err(|e| e.to_string())?;
        if name != label {
            return Err(format!("node {node:?} is <{name}>, the term asks for <{label}>"));
        }
    }
    let words = match search {
        FullTextQuery::Phrase(words) | FullTextQuery::Keywords(words) => tokens(&words.join(" ")),
        _ => return Ok(()),
    };
    let content = tokens(&collection.content(node).map_err(|e| e.to_string())?);
    let found = match search {
        FullTextQuery::Phrase(_) => contains_run(&content, &words),
        _ => words.iter().all(|w| content.contains(w)),
    };
    if found {
        Ok(())
    } else {
        Err(format!("node {node:?} text does not contain {words:?}"))
    }
}
