//! Inverted index over node content.
//!
//! This is the index the top-k search unit (Sec. 4) reads: for every node that
//! carries text, the index stores a posting per term with its content score.
//! It supports the two access paths the Threshold Algorithm needs:
//!
//! * **sorted access** — per-term posting lists ordered by descending content
//!   score, and
//! * **random access** — scoring an arbitrary `(query, node)` pair.
//!
//! Matches are attributed to the node that *directly* contains the text (the
//! deepest element or attribute), mirroring the paper's examples where
//! `"United States"` hits `country` and `trade_country` nodes rather than
//! every ancestor up to the document root.
//!
//! # Build
//!
//! A shard covers one document ([`NodeIndex::build_shard`]) or, in the
//! sequential [`NodeIndex::build`], all of them.  It walks its nodes in
//! order, which is slot order.  It tokenizes each text once, interns the
//! terms in a shard vocabulary looked up by `&str`, and emits one
//! `(term, slot, tf)` row per distinct term of a node plus one side-table
//! row per node (node, path, tokens).  [`NodeIndex::merge`] maps each shard
//! vocabulary onto the global lexicographic [`TermDict`] once per distinct
//! term, offsets the slots and counting-sorts the rows into the posting
//! arena, so the build is linear in the number of tokens apart from the
//! per-term score sort.
//!
//! # Read model
//!
//! The index holds only the **interned read model**: terms are interned into
//! a [`TermDict`], per-term posting lists are stored in one CSR arena
//! **pre-sorted by descending content score** (idf folded in), and dense
//! slot-indexed side tables carry each indexed node's context path, token
//! length and tokens for random access and path filtering.  Match-all terms
//! restricted to contexts (`(population, *)`) read per-path runs of slots,
//! frozen in match-all score order, so they touch only their own paths'
//! nodes.  [`NodeIndex::sorted_access`] therefore returns a borrowed slice —
//! no per-query sort, no per-query allocation — and
//! [`NodeIndex::evaluate_into`] scores into caller-owned buffers.

use std::collections::HashMap;

use seda_xmlstore::{Collection, DocId, Document, NodeId, PathId};

use crate::dict::{TermDict, TermId};
use crate::query::FullTextQuery;
use crate::tokenize::terms;

/// A node matched by a query, with its content score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredNode {
    /// The matching node.
    pub node: NodeId,
    /// Content score (tf-idf, length-normalised); higher is better.
    pub score: f64,
}

/// Inverted full-text index over the direct text content of nodes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NodeIndex {
    /// Term intern table; ids are lexicographic ranks, so deterministic.
    pub(crate) dict: TermDict,
    /// Smoothed idf per term id.
    pub(crate) idf_by_term: Vec<f64>,
    /// CSR offsets into `sorted_postings`, length `dict.len() + 1`.
    pub(crate) posting_offsets: Vec<u32>,
    /// Per-term postings pre-sorted by (score desc, node asc), idf folded in.
    pub(crate) sorted_postings: Vec<ScoredNode>,
    /// Dense slot of every indexed node (slots in ascending `NodeId` order).
    pub(crate) node_slots: HashMap<NodeId, u32>,
    /// Slot → node id.
    pub(crate) slot_nodes: Vec<NodeId>,
    /// Slot → context path (side table for path filtering).
    pub(crate) slot_paths: Vec<PathId>,
    /// Slot → token count (side table for length normalisation).
    pub(crate) slot_token_counts: Vec<u32>,
    /// Slot → tokenised direct text (random access and phrase matching).
    pub(crate) slot_tokens: Vec<Vec<String>>,
    /// CSR offsets of the per-path match-all runs into `path_run_slots`,
    /// indexed by `PathId` (length `max indexed path + 2`).
    pub(crate) path_run_offsets: Vec<u32>,
    /// Slots grouped by context path; each path's run is sorted by
    /// (match-all score desc, node asc), the order a match-all query
    /// restricted to that path returns.
    pub(crate) path_run_slots: Vec<u32>,
}

/// Partial node index over a single document, produced by
/// [`NodeIndex::build_shard`] and consumed by [`NodeIndex::merge`].
///
/// Shards carry globally valid [`NodeId`]s and [`PathId`]s because documents
/// of a [`Collection`] share its symbol and path intern tables; only the
/// shard-local term ids and slots are remapped at merge time.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NodeIndexShard {
    doc: Option<DocId>,
    /// Shard vocabulary, indexed by shard term id (first-seen order).
    terms: Vec<String>,
    /// One row per distinct term of each indexed node, in slot order.
    rows: Vec<TermRow>,
    slot_nodes: Vec<NodeId>,
    slot_paths: Vec<PathId>,
    slot_tokens: Vec<Vec<String>>,
}

/// A shard posting: `tf` occurrences of shard term `term` in shard slot
/// `slot`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TermRow {
    term: u32,
    slot: u32,
    tf: u32,
}

impl NodeIndexShard {
    /// The document this shard was built from.
    pub fn doc(&self) -> Option<DocId> {
        self.doc
    }

    /// Number of nodes with indexed content in this shard.
    pub fn indexed_node_count(&self) -> usize {
        self.slot_nodes.len()
    }
}

impl NodeIndex {
    /// Builds the index over every node of the collection that has direct
    /// text content (elements with text and attributes).
    ///
    /// This is the sequential path: one shard over every document, merged.
    /// It is equivalent to building one shard per document with
    /// [`NodeIndex::build_shard`] and combining them with
    /// [`NodeIndex::merge`].
    pub fn build(collection: &Collection) -> Self {
        Self::merge(vec![Self::shard_of(collection.documents())])
    }

    /// Builds the partial index of a single document (the per-shard phase of
    /// the shard → merge build lifecycle).
    pub fn build_shard(doc: &Document) -> NodeIndexShard {
        Self::shard_of([doc])
    }

    /// Builds one shard over `docs`, which must come in ascending document
    /// order; the shard is filed under the first document.
    fn shard_of<'a>(docs: impl IntoIterator<Item = &'a Document>) -> NodeIndexShard {
        let mut shard = NodeIndexShard::default();
        let mut vocabulary: HashMap<String, u32> = HashMap::new();
        // Per shard term: 1 + the last slot that used it, and that row.
        let mut last_row: Vec<(u32, usize)> = Vec::new();
        for doc in docs {
            shard.doc.get_or_insert(doc.id);
            for (ordinal, node) in doc.iter() {
                let Some(text) = node.text.as_deref() else { continue };
                let tokens = terms(text);
                if tokens.is_empty() {
                    continue;
                }
                let slot = shard.slot_nodes.len() as u32;
                for token in &tokens {
                    let term = match vocabulary.get(token.as_str()) {
                        Some(&term) => term,
                        None => {
                            let term = last_row.len() as u32;
                            vocabulary.insert(token.clone(), term);
                            last_row.push((0, 0));
                            term
                        }
                    };
                    let (stamp, row) = &mut last_row[term as usize];
                    if *stamp == slot + 1 {
                        shard.rows[*row].tf += 1;
                    } else {
                        (*stamp, *row) = (slot + 1, shard.rows.len());
                        shard.rows.push(TermRow { term, slot, tf: 1 });
                    }
                }
                shard.slot_nodes.push(NodeId::new(doc.id, ordinal));
                shard.slot_paths.push(node.path);
                shard.slot_tokens.push(tokens);
            }
        }
        shard.terms = vec![String::new(); vocabulary.len()];
        for (term, id) in vocabulary {
            shard.terms[id as usize] = term;
        }
        shard
    }

    /// Merges per-document shards into the full index (the merge phase of the
    /// shard → merge build lifecycle) and freezes the interned read model.
    ///
    /// Shards are merged in ascending document order regardless of the order
    /// they are passed in, so the result is deterministic and identical to
    /// the sequential [`NodeIndex::build`].
    pub fn merge(mut shards: Vec<NodeIndexShard>) -> Self {
        shards.sort_by_key(|s| s.doc);
        let mut index = NodeIndex::default();

        // Global vocabulary: each distinct term once, ranked lexicographically;
        // every shard term maps to its rank by one lookup.
        let mut first_seen: HashMap<&str, u32> = HashMap::new();
        let shard_terms: Vec<Vec<u32>> = shards
            .iter()
            .map(|shard| {
                let terms = shard.terms.iter().map(|term| {
                    let next = first_seen.len() as u32;
                    *first_seen.entry(term.as_str()).or_insert(next)
                });
                terms.collect()
            })
            .collect();
        let mut distinct = vec![""; first_seen.len()];
        for (term, id) in first_seen {
            distinct[id as usize] = term;
        }
        let mut ranked: Vec<u32> = (0..distinct.len() as u32).collect();
        ranked.sort_unstable_by_key(|&id| distinct[id as usize]);
        let mut rank = vec![0u32; distinct.len()];
        for (r, &id) in ranked.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        index.dict = TermDict::from_sorted(ranked.iter().map(|&id| distinct[id as usize]));
        let shard_terms: Vec<Vec<u32>> = shard_terms
            .into_iter()
            .map(|ids| ids.into_iter().map(|id| rank[id as usize]).collect())
            .collect();

        // Counting sort of the rows by global term; within a term the rows
        // stay in slot order, which is ascending node order.
        let term_count = index.dict.len();
        let mut offsets = vec![0u32; term_count + 1];
        for (shard, terms) in shards.iter().zip(&shard_terms) {
            for row in &shard.rows {
                offsets[terms[row.term as usize] as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut rows = vec![(0u32, 0u32); offsets[term_count] as usize];
        let mut base = 0u32;
        for (shard, terms) in shards.iter().zip(&shard_terms) {
            for row in &shard.rows {
                let term = terms[row.term as usize] as usize;
                rows[cursor[term] as usize] = (base + row.slot, row.tf);
                cursor[term] += 1;
            }
            base += shard.slot_nodes.len() as u32;
        }

        for shard in shards {
            index.slot_nodes.extend(shard.slot_nodes);
            index.slot_paths.extend(shard.slot_paths);
            index.slot_tokens.extend(shard.slot_tokens);
        }
        index.slot_token_counts = index.slot_tokens.iter().map(|t| t.len() as u32).collect();
        index.node_slots =
            index.slot_nodes.iter().enumerate().map(|(slot, &n)| (n, slot as u32)).collect();
        index.freeze_path_runs();

        let indexed = index.slot_nodes.len();
        index.idf_by_term = Vec::with_capacity(term_count);
        index.sorted_postings = Vec::with_capacity(rows.len());
        for run in offsets.windows(2) {
            let run = &rows[run[0] as usize..run[1] as usize];
            let idf = smoothed_idf(indexed, run.len());
            index.idf_by_term.push(idf);
            let start = index.sorted_postings.len();
            for &(slot, tf) in run {
                let len = index.slot_token_counts[slot as usize].max(1) as f64;
                let node = index.slot_nodes[slot as usize];
                index
                    .sorted_postings
                    .push(ScoredNode { node, score: (tf as f64) * idf / len.sqrt() });
            }
            index.sorted_postings[start..].sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.node.cmp(&b.node))
            });
        }
        index.posting_offsets = offsets;
        index
    }

    /// Groups the slots by context path into the match-all runs, each sorted
    /// by (match-all score desc, node asc).
    fn freeze_path_runs(&mut self) {
        let paths = self.slot_paths.iter().map(|p| p.index() + 1).max().unwrap_or(0);
        let mut offsets = vec![0u32; paths + 1];
        for path in &self.slot_paths {
            offsets[path.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut slots = vec![0u32; self.slot_paths.len()];
        for (slot, path) in self.slot_paths.iter().enumerate() {
            slots[cursor[path.index()] as usize] = slot as u32;
            cursor[path.index()] += 1;
        }
        // Each run holds its slots in ascending (= node) order; the match-all
        // score falls strictly with the token count (floored at 1), so a
        // stable sort on that count yields (score desc, node asc), the order
        // of `evaluate_into`.
        for run in offsets.windows(2) {
            slots[run[0] as usize..run[1] as usize]
                .sort_by_key(|&slot| self.slot_token_counts[slot as usize].max(1));
        }
        self.path_run_offsets = offsets;
        self.path_run_slots = slots;
    }

    /// The match-all content score of a slot.
    fn match_all_score(&self, slot: u32) -> f64 {
        match_all_score(self.slot_token_counts[slot as usize] as usize)
    }

    /// The slots of one path's match-all run (empty for paths without
    /// indexed nodes).
    fn path_run(&self, path: PathId) -> &[u32] {
        match self.path_run_offsets.get(path.index()..path.index() + 2) {
            Some(&[lo, hi]) => &self.path_run_slots[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Number of nodes with indexed content.
    pub fn indexed_node_count(&self) -> usize {
        self.slot_nodes.len()
    }

    /// Number of distinct terms in the index.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// The interned term dictionary of the read model.
    pub fn term_dict(&self) -> &TermDict {
        &self.dict
    }

    /// Document frequency of a term (number of nodes containing it).
    pub fn document_frequency(&self, term: &str) -> usize {
        self.sorted_access(term).len()
    }

    /// Inverse document frequency with the usual smoothing.
    pub fn idf(&self, term: &str) -> f64 {
        smoothed_idf(self.indexed_node_count(), self.document_frequency(term))
    }

    /// The context path of an indexed node.
    pub fn node_path(&self, node: NodeId) -> Option<PathId> {
        self.node_entry(node).map(|(path, _)| path)
    }

    /// The read-model side table entry of an indexed node: its context path
    /// and token count (the inputs of path filtering and length
    /// normalisation), or `None` for nodes without indexed content.
    pub fn node_entry(&self, node: NodeId) -> Option<(PathId, u32)> {
        let slot = *self.node_slots.get(&node)? as usize;
        Some((self.slot_paths[slot], self.slot_token_counts[slot]))
    }

    /// The tokenised direct text of an indexed node.
    pub fn node_tokens(&self, node: NodeId) -> Option<&[String]> {
        let slot = *self.node_slots.get(&node)? as usize;
        Some(&self.slot_tokens[slot])
    }

    /// tf-idf content score of a single term for a slot, length-normalised.
    fn term_score(&self, term: &str, slot: usize, tf: u32) -> f64 {
        let len = self.slot_token_counts[slot].max(1) as f64;
        (tf as f64) * self.interned_idf(term) / len.sqrt()
    }

    /// idf via the precomputed per-term table, falling back to the formula
    /// for terms outside the dictionary (df = 0, so the value only matters
    /// for the smoothing constant).
    fn interned_idf(&self, term: &str) -> f64 {
        match self.dict.get(term) {
            Some(id) => self.idf_by_term[id.index()],
            None => self.idf(term),
        }
    }

    /// Content score of `query` for `node`, or `None` when the node does not
    /// satisfy the query (random access for the Threshold Algorithm).
    pub fn score(&self, query: &FullTextQuery, node: NodeId) -> Option<f64> {
        let slot = *self.node_slots.get(&node)? as usize;
        if !query.matches_tokens(&self.slot_tokens[slot]) {
            return None;
        }
        Some(self.score_unchecked(query, slot))
    }

    fn score_unchecked(&self, query: &FullTextQuery, slot: usize) -> f64 {
        let tokens = &self.slot_tokens[slot];
        let positive = query.positive_terms();
        if positive.is_empty() {
            return match_all_score(tokens.len());
        }
        positive
            .iter()
            .map(|term| {
                let tf = tokens.iter().filter(|t| *t == term).count() as u32;
                if tf == 0 {
                    0.0
                } else {
                    self.term_score(term, slot, tf)
                }
            })
            .sum()
    }

    /// All nodes satisfying the query, scored, in descending score order
    /// (ties broken by node id for determinism).
    pub fn evaluate(&self, query: &FullTextQuery) -> Vec<ScoredNode> {
        let mut out = Vec::new();
        self.evaluate_into(query, None, &mut Vec::new(), &mut out);
        out
    }

    /// Like [`NodeIndex::evaluate`] but restricted to nodes whose context path
    /// satisfies `allowed` (used after the user picks contexts in the context
    /// summary).
    pub fn evaluate_in_paths(&self, query: &FullTextQuery, allowed: &[PathId]) -> Vec<ScoredNode> {
        let mut out = Vec::new();
        self.evaluate_into(query, Some(allowed), &mut Vec::new(), &mut out);
        out
    }

    /// Evaluates `query` into caller-owned buffers (the allocation-free form
    /// backing [`NodeIndex::evaluate`]): `out` receives the scored matches in
    /// descending score order (ties broken by node id), `candidates` is an
    /// internal scratch buffer.  Both are cleared first; reusing them across
    /// queries keeps the read path free of per-query allocations.
    pub fn evaluate_into(
        &self,
        query: &FullTextQuery,
        allowed: Option<&[PathId]>,
        candidates: &mut Vec<NodeId>,
        out: &mut Vec<ScoredNode>,
    ) {
        out.clear();
        candidates.clear();
        let path_ok = |slot: usize| match allowed {
            Some(paths) => paths.contains(&self.slot_paths[slot]),
            None => true,
        };

        // Fast path: a single-term keyword (or single-token phrase) query is
        // exactly one pre-sorted posting list — copy the borrowed slice out,
        // filtered by path, with no re-scoring and no sort.
        if let Some(term) = query.single_positive_term() {
            let Some(id) = self.dict.get(term) else { return };
            for scored in self.sorted_access_by_id(id) {
                let slot = self.node_slots[&scored.node] as usize;
                if path_ok(slot) {
                    out.push(*scored);
                }
            }
            return;
        }

        if query.is_match_all() {
            if let Some(paths) = allowed {
                self.match_all_in_paths(paths, out);
                return;
            }
        }
        if query.is_match_all() || query.positive_terms().is_empty() {
            // Match-all or pure-negation queries must consider every indexed
            // node; slots are already in ascending node order.
            candidates.extend(self.slot_nodes.iter().copied());
        } else {
            for term in query.positive_terms() {
                if let Some(id) = self.dict.get(&term) {
                    candidates.extend(self.sorted_access_by_id(id).iter().map(|s| s.node));
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
        }

        for &node in candidates.iter() {
            let slot = self.node_slots[&node] as usize;
            if path_ok(slot) && query.matches_tokens(&self.slot_tokens[slot]) {
                out.push(ScoredNode { node, score: self.score_unchecked(query, slot) });
            }
        }
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        });
    }

    /// Match-all evaluation restricted to `paths`: the concatenated runs of
    /// the distinct paths, sorted only when more than one path contributes.
    fn match_all_in_paths(&self, paths: &[PathId], out: &mut Vec<ScoredNode>) {
        let mut push_runs = |paths: &[PathId]| {
            for &path in paths {
                out.extend(self.path_run(path).iter().map(|&slot| ScoredNode {
                    node: self.slot_nodes[slot as usize],
                    score: self.match_all_score(slot),
                }));
            }
        };
        let distinct = if paths.windows(2).all(|w| w[0] < w[1]) {
            push_runs(paths);
            paths.len()
        } else {
            let mut sorted = paths.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            push_runs(&sorted);
            sorted.len()
        };
        if distinct > 1 {
            out.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.node.cmp(&b.node))
            });
        }
    }

    /// Per-term sorted access for the Threshold Algorithm: postings of `term`
    /// ordered by descending single-term score, as a borrowed slice of the
    /// pre-sorted posting arena (no per-query work).
    pub fn sorted_access(&self, term: &str) -> &[ScoredNode] {
        match self.dict.get(term) {
            Some(id) => self.sorted_access_by_id(id),
            None => &[],
        }
    }

    /// [`NodeIndex::sorted_access`] by interned term id.
    pub fn sorted_access_by_id(&self, id: TermId) -> &[ScoredNode] {
        let i = id.index();
        &self.sorted_postings
            [self.posting_offsets[i] as usize..self.posting_offsets[i + 1] as usize]
    }

    /// Convenience wrapper: evaluate a keyword string.
    pub fn search(&self, keywords: &str) -> Vec<ScoredNode> {
        self.evaluate(&FullTextQuery::Keywords(terms(keywords)))
    }
}

/// Content score of a match-all query (`*`) for a node of `tokens` tokens:
/// every node scores alike up to length normalisation, a small constant so
/// structural compactness dominates the combined score.
fn match_all_score(tokens: usize) -> f64 {
    1.0 / (tokens as f64).sqrt().max(1.0)
}

/// Smoothed inverse document frequency of a term held by `df` of `indexed`
/// nodes.
fn smoothed_idf(indexed: usize, df: usize) -> f64 {
    ((1.0 + indexed as f64) / (1.0 + df as f64)).ln() + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    fn sample() -> (Collection, NodeIndex) {
        let docs = vec![
            (
                "us.xml",
                r#"<country><name>United States</name><year>2006</year>
                   <economy><GDP_ppp>12.31T</GDP_ppp>
                     <import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                       <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                     </import_partners>
                   </economy></country>"#,
            ),
            (
                "mexico.xml",
                r#"<country><name>Mexico</name><year>2003</year>
                   <economy><GDP>924.4B</GDP>
                     <export_partners>
                       <item><trade_country>United States</trade_country><percentage>70.6</percentage></item>
                     </export_partners>
                   </economy></country>"#,
            ),
        ];
        let collection = parse_collection(docs).unwrap();
        let index = NodeIndex::build(&collection);
        (collection, index)
    }

    #[test]
    fn phrase_query_finds_both_contexts() {
        let (collection, index) = sample();
        let results = index.evaluate(&FullTextQuery::phrase("United States"));
        assert_eq!(results.len(), 2);
        let contexts: Vec<String> =
            results.iter().map(|r| collection.context_string(r.node).unwrap()).collect();
        assert!(contexts.contains(&"/country/name".to_string()));
        assert!(
            contexts.contains(&"/country/economy/export_partners/item/trade_country".to_string())
        );
    }

    #[test]
    fn keyword_query_is_conjunctive() {
        let (_, index) = sample();
        assert_eq!(index.search("united states").len(), 2);
        assert_eq!(index.search("united kingdom").len(), 0);
    }

    #[test]
    fn rarer_terms_score_higher() {
        let (_, index) = sample();
        // "china" occurs once; "country" does not occur in content at all;
        // "united" occurs twice. A node matching the rarer term should score
        // at least as high per-term.
        assert!(index.idf("china") > index.idf("united"));
    }

    #[test]
    fn random_access_scores_match_evaluate() {
        let (_, index) = sample();
        let query = FullTextQuery::phrase("united states");
        for hit in index.evaluate(&query) {
            let direct = index.score(&query, hit.node).unwrap();
            assert!((direct - hit.score).abs() < 1e-12);
        }
    }

    #[test]
    fn random_access_returns_none_for_non_matching_nodes() {
        let (_, index) = sample();
        let query = FullTextQuery::keywords("china");
        let canada_hits = index.search("canada");
        assert_eq!(canada_hits.len(), 1);
        assert!(index.score(&query, canada_hits[0].node).is_none());
    }

    #[test]
    fn sorted_access_is_descending() {
        let (_, index) = sample();
        let postings = index.sorted_access("united");
        assert_eq!(postings.len(), 2);
        assert!(postings[0].score >= postings[1].score);
        assert!(index.sorted_access("nonexistent").is_empty());
    }

    #[test]
    fn sorted_access_scores_match_term_scores() {
        let (_, index) = sample();
        for (id, term) in index.term_dict().terms() {
            let by_name = index.sorted_access(term);
            let by_id = index.sorted_access_by_id(id);
            assert_eq!(by_name, by_id);
            assert!(!by_name.is_empty(), "every interned term has postings");
            for w in by_name.windows(2) {
                assert!(
                    w[0].score > w[1].score || (w[0].score == w[1].score && w[0].node < w[1].node),
                    "postings of {term:?} must be sorted by (score desc, node asc)"
                );
            }
            // Precomputed scores agree with the on-demand scoring formula.
            for scored in by_name {
                let query = FullTextQuery::Keywords(vec![term.to_string()]);
                let direct = index.score(&query, scored.node).unwrap();
                assert!((direct - scored.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dictionary_round_trips_through_the_index() {
        let (_, index) = sample();
        assert_eq!(index.term_dict().len(), index.term_count());
        for (id, term) in index.term_dict().terms() {
            assert_eq!(index.term_dict().get(term), Some(id));
            assert_eq!(index.term_dict().resolve(id), term);
        }
        assert!(index.term_dict().get("zzz-not-a-term").is_none());
    }

    #[test]
    fn node_side_table_reports_paths_and_lengths() {
        let (collection, index) = sample();
        let hits = index.search("china");
        assert_eq!(hits.len(), 1);
        let (path, len) = index.node_entry(hits[0].node).unwrap();
        assert_eq!(
            collection.path_string(path),
            "/country/economy/import_partners/item/trade_country"
        );
        assert_eq!(len, 1, "\"China\" tokenises to one token");
        assert_eq!(index.node_path(hits[0].node), Some(path));
        assert!(index.node_entry(NodeId::new(DocId(9), 9)).is_none());
    }

    #[test]
    fn evaluate_into_reuses_buffers() {
        let (_, index) = sample();
        let mut candidates = Vec::new();
        let mut out = Vec::new();
        for query in [
            FullTextQuery::phrase("united states"),
            FullTextQuery::keywords("china"),
            FullTextQuery::Any,
            FullTextQuery::parse("china OR canada").unwrap(),
        ] {
            index.evaluate_into(&query, None, &mut candidates, &mut out);
            assert_eq!(out, index.evaluate(&query), "buffered evaluate diverged for {query:?}");
        }
    }

    #[test]
    fn match_all_returns_every_indexed_node() {
        let (_, index) = sample();
        let all = index.evaluate(&FullTextQuery::Any);
        assert_eq!(all.len(), index.indexed_node_count());
    }

    #[test]
    fn path_filtering_restricts_results() {
        let (collection, index) = sample();
        let name_path = collection.paths().get_str(collection.symbols(), "/country/name").unwrap();
        let results =
            index.evaluate_in_paths(&FullTextQuery::phrase("united states"), &[name_path]);
        assert_eq!(results.len(), 1);
        assert_eq!(collection.context_string(results[0].node).unwrap(), "/country/name");
    }

    #[test]
    fn match_all_path_runs_equal_the_filtered_scan() {
        let (collection, index) = sample();
        let mut scanned = Vec::new();
        let mut candidates = Vec::new();
        let all: Vec<PathId> = collection.paths().iter().map(|(id, _)| id).collect();
        let mut cases: Vec<Vec<PathId>> = all.iter().map(|&p| vec![p]).collect();
        cases.push(all.clone());
        cases.push(all.iter().rev().chain(all.iter()).copied().collect());
        cases.push(vec![PathId(9_999)]);
        cases.push(Vec::new());
        for allowed in cases {
            index.evaluate_into(&FullTextQuery::Any, Some(&allowed), &mut candidates, &mut scanned);
            let expected: Vec<ScoredNode> = index
                .evaluate(&FullTextQuery::Any)
                .into_iter()
                .filter(|s| allowed.contains(&index.node_path(s.node).unwrap()))
                .collect();
            assert_eq!(scanned, expected, "allowed paths {allowed:?}");
        }
    }

    #[test]
    fn single_term_path_filtering_uses_the_fast_path() {
        let (collection, index) = sample();
        let name_path = collection.paths().get_str(collection.symbols(), "/country/name").unwrap();
        // Single-keyword queries take the borrowed fast path; path filtering
        // must still apply.
        let results = index.evaluate_in_paths(&FullTextQuery::keywords("united"), &[name_path]);
        assert_eq!(results.len(), 1);
        assert_eq!(collection.context_string(results[0].node).unwrap(), "/country/name");
    }

    #[test]
    fn numeric_content_is_searchable() {
        let (collection, index) = sample();
        let hits = index.search("16.9");
        assert_eq!(hits.len(), 1);
        assert_eq!(
            collection.context_string(hits[0].node).unwrap(),
            "/country/economy/import_partners/item/percentage"
        );
    }

    #[test]
    fn boolean_query_evaluation() {
        let (_, index) = sample();
        let q = FullTextQuery::parse("china OR canada").unwrap();
        assert_eq!(index.evaluate(&q).len(), 2);
        let q = FullTextQuery::parse("\"united states\" AND NOT mexico").unwrap();
        assert_eq!(index.evaluate(&q).len(), 2, "negation applies to node content, not documents");
    }

    #[test]
    fn merged_shards_equal_sequential_build() {
        let (collection, sequential) = sample();
        let shards: Vec<NodeIndexShard> =
            collection.documents().map(NodeIndex::build_shard).collect();
        assert_eq!(shards.len(), 2);
        assert!(shards.iter().all(|s| s.doc().is_some()));
        let merged = NodeIndex::merge(shards);
        assert_eq!(merged, sequential);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let (collection, sequential) = sample();
        let mut shards: Vec<NodeIndexShard> =
            collection.documents().map(NodeIndex::build_shard).collect();
        shards.reverse();
        assert_eq!(NodeIndex::merge(shards), sequential);
    }

    #[test]
    fn merge_of_no_shards_is_empty() {
        let merged = NodeIndex::merge(Vec::new());
        assert_eq!(merged.indexed_node_count(), 0);
        assert_eq!(merged.term_count(), 0);
        assert!(merged.term_dict().is_empty());
        assert!(merged.evaluate(&FullTextQuery::Any).is_empty());
    }

    /// The posting arena equals a rescan of the slot token table: every
    /// term's list recomputed as tf·idf/√len over the slots holding it,
    /// sorted by (score desc, node asc), bit for bit; and the slot table is
    /// the tokenised text of every node with tokens, in node order.
    fn assert_postings_equal_a_rescan(collection: &Collection, name: &str) {
        use std::collections::BTreeMap;
        let index = NodeIndex::build(collection);
        let mut slot = 0;
        for doc in collection.documents() {
            for (ordinal, node) in doc.iter() {
                let tokens = node.text.as_deref().map(terms).unwrap_or_default();
                if !tokens.is_empty() {
                    assert_eq!(index.slot_nodes[slot], NodeId::new(doc.id, ordinal));
                    assert_eq!(index.slot_paths[slot], node.path);
                    assert_eq!(index.slot_tokens[slot], tokens);
                    slot += 1;
                }
            }
        }
        assert_eq!(slot, index.indexed_node_count(), "{name}");

        let mut lists: BTreeMap<&str, Vec<(usize, u32)>> = BTreeMap::new();
        for (slot, tokens) in index.slot_tokens.iter().enumerate() {
            let mut tfs: BTreeMap<&str, u32> = BTreeMap::new();
            for token in tokens {
                *tfs.entry(token).or_default() += 1;
            }
            for (term, tf) in tfs {
                lists.entry(term).or_default().push((slot, tf));
            }
        }
        assert_eq!(index.term_count(), lists.len(), "{name}");
        let indexed = index.indexed_node_count() as f64;
        let bits = |list: &[ScoredNode]| -> Vec<(NodeId, u64)> {
            list.iter().map(|s| (s.node, s.score.to_bits())).collect()
        };
        for (id, (term, postings)) in lists.into_iter().enumerate() {
            let id = TermId(id as u32);
            assert_eq!(index.term_dict().resolve(id), term, "ids are lexicographic ranks");
            let idf = ((1.0 + indexed) / (1.0 + postings.len() as f64)).ln() + 1.0;
            let mut expected: Vec<ScoredNode> = postings
                .iter()
                .map(|&(slot, tf)| {
                    let len = index.slot_tokens[slot].len().max(1) as f64;
                    ScoredNode { node: index.slot_nodes[slot], score: tf as f64 * idf / len.sqrt() }
                })
                .collect();
            expected.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.node.cmp(&b.node)));
            assert_eq!(bits(index.sorted_access_by_id(id)), bits(&expected), "{name} {term:?}");
        }
    }

    #[test]
    fn posting_lists_equal_a_rescan_of_the_slot_token_table() {
        use seda_datagen::Dataset;
        for dataset in [Dataset::GoogleBase, Dataset::Mondial, Dataset::WorldFactbook] {
            assert_postings_equal_a_rescan(&dataset.generate_small().unwrap(), dataset.name());
        }
        let repeated = parse_collection(vec![(
            "r.xml",
            r#"<a k="be be"><b>to be or not to be</b><c>be</c><d>-</d><b>not to</b></a>"#,
        )])
        .unwrap();
        assert_postings_equal_a_rescan(&repeated, "repeated tokens");
    }

    #[test]
    fn term_statistics() {
        let (_, index) = sample();
        assert!(index.term_count() > 10);
        assert_eq!(index.document_frequency("china"), 1);
        assert_eq!(index.document_frequency("united"), 2);
        assert_eq!(index.document_frequency("missing"), 0);
    }
}
