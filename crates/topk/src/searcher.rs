//! The Threshold-Algorithm top-k search unit (Sec. 4).
//!
//! SEDA "employs a top-k search algorithm based on the family of threshold
//! algorithms (TA) [Fagin et al.]: it retrieves the results from full-text
//! indexes and calculates top answers according to a ranking function which
//! takes into account both the content score as well as the structural
//! properties of the matched nodes".
//!
//! The implementation is a rank-join-style TA:
//!
//! * each query term contributes one posting list sorted by descending
//!   content score (sorted access on the [`seda_textindex::NodeIndex`]);
//! * lists are consumed round-robin; every newly seen node is joined with the
//!   nodes already seen for the other terms, candidate tuples are checked for
//!   connectivity in the data graph and scored
//!   `content_weight · Σ content + structure_weight · compactness`;
//! * the search stops as soon as `k` buffered tuples score at least the
//!   threshold — the early-termination property the paper relies on for
//!   interactive response times.
//!
//! # The threshold
//!
//! Every combination not yet enumerated holds at least one unseen posting.
//! Its content is at most `max_i ( next_i + Σ_{j≠i} best_j )` over the lists
//! `i` with postings left, where `next_i` is the score of list `i`'s next
//! unseen posting; a fully consumed list contributes no unseen combination.
//!
//! Its compactness is at most `1 / (1 + L)`, where `L` comes from the data
//! graph's *context graph* (the image of every data-graph edge under
//! node → context, so context distance never exceeds node distance).  Before
//! the loop, one multi-source breadth-first search per term over the context
//! graph gives the m×m matrix of distances between the sets of contexts
//! present in the term lists; `L` is the weight of a minimum spanning tree
//! over that matrix, entries beyond `max_depth` counting as absent.
//! Compactness is `1 / (1 + MST)` over the tuple's exact pairwise distances,
//! each at least the matching matrix entry, and a minimum spanning tree is
//! monotone in its edge weights — so the bound is sound.  When the matrix is
//! disconnected no tuple can be connected, and the search returns the empty
//! answer without scoring anything.  Wildcard terms produce flat score
//! lists, where only this structural part of the threshold can ever be met.
//!
//! # Allocation discipline
//!
//! The join loop performs no per-candidate allocation: candidate tuples live
//! in two flat ping-pong arenas (`m`-strided `NodeId` runs plus a parallel
//! score array), connectivity/compactness checks are label intersections
//! against the graph's precomputed connectivity oracle (probes counted
//! through a reusable [`TraversalScratch`]), and document-component pruning
//! reads the components cached on the [`DataGraph`] at build time: the
//! consumed postings are chained per component, so a new node is joined
//! only with the seen nodes of its own component.  The
//! exhaustive baseline streams combinations through an odometer over the
//! lists into a `k`-bounded heap, so its memory is `O(m + k)`.  Callers that
//! issue many queries should hold a [`SearchScratch`] and use
//! [`TopKSearcher::search_with`] / [`TopKSearcher::search_naive_with`] so
//! even the posting-list and bound buffers are reused across queries.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use seda_datagraph::{compactness_with, DataGraph, TraversalScratch, CONTEXT_UNREACHABLE};
use seda_textindex::{NodeIndex, ScoredNode};
use seda_xmlstore::{Collection, NodeId, PathId};

use crate::types::{
    LimitBreach, MaterializedTerms, ResultTuple, SearchLimits, SearchStats, TermInput, TopKConfig,
    TopKResult, TupleScoreCache,
};

/// Reusable buffers of the top-k search: posting lists, the flat candidate
/// arenas of the join loop, the buffers of the structural bound and the
/// traversal scratch of the connectivity checks.
///
/// A scratch serves any number of searches over any engine; reuse it across
/// queries to keep the read path allocation-free once the buffers have grown
/// to their working size.
#[derive(Debug, Default)]
pub struct SearchScratch {
    pub(crate) traversal: TraversalScratch,
    /// Per-term sorted-access lists (reused; only the first `m` are live).
    lists: Vec<Vec<ScoredNode>>,
    /// Candidate buffer handed to [`NodeIndex::evaluate_into`].
    eval_candidates: Vec<NodeId>,
    /// Current combo arena: `stride`-sized `NodeId` runs.
    combo_nodes: Vec<NodeId>,
    /// Content score per combo (parallel to `combo_nodes` runs).
    combo_scores: Vec<f64>,
    /// Next-stage combo arena (ping-pong partner).
    next_nodes: Vec<NodeId>,
    next_scores: Vec<f64>,
    /// The `k` best scores buffered so far, kept sorted descending so the
    /// threshold test reads the k-th best in O(1) instead of re-sorting the
    /// whole candidate buffer per sorted access.
    pub(crate) kth_scores: Vec<f64>,
    positions: Vec<usize>,
    best_scores: Vec<f64>,
    /// Buffers of the context-graph bound.
    bound: BoundScratch,
    /// Row-major m×m context distances between the term lists (see the
    /// module doc), [`CONTEXT_UNREACHABLE`] for unconnected pairs.
    context_matrix: Vec<u32>,
    /// Per-list positions of the exhaustive baseline's odometer.
    odometer: Vec<usize>,
    /// The join loop's consumed postings, chained per document component.
    seen: SeenByComponent,
}

/// The postings the join loop has consumed, chained per (list, document
/// component) in consumption order, so joining a new node visits only the
/// seen nodes of its own component — in the same ascending order as a scan
/// of the seen prefix.  Chains are epoch-stamped: a reset is O(1) plus
/// growth.
#[derive(Debug, Default)]
struct SeenByComponent {
    epoch: u32,
    components: usize,
    /// Per (list, component) slot: the epoch its chain was started in.
    stamp: Vec<u32>,
    /// Per slot: first and last chained list position.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Per list, per position: the next chained position (`u32::MAX` ends).
    next: Vec<Vec<u32>>,
}

impl SeenByComponent {
    const END: u32 = u32::MAX;

    /// Empties every chain for a search over `lists` on a graph with
    /// `components` document components.
    fn reset(&mut self, lists: &[Vec<ScoredNode>], components: usize) {
        let slots = lists.len() * components;
        if self.stamp.len() < slots {
            self.stamp.resize(slots, 0);
            self.head.resize(slots, Self::END);
            self.tail.resize(slots, Self::END);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.components = components;
        while self.next.len() < lists.len() {
            self.next.push(Vec::new());
        }
        for (next, list) in self.next.iter_mut().zip(lists) {
            if next.len() < list.len() {
                next.resize(list.len(), Self::END);
            }
        }
    }

    /// The slot of a (list, component) pair, or `None` for a component id
    /// outside the graph (such a node joins nothing).
    fn slot(&self, list: usize, component: u32) -> Option<usize> {
        ((component as usize) < self.components)
            .then(|| list * self.components + component as usize)
    }

    /// Appends consumed position `pos` of `list` to its component's chain.
    fn push(&mut self, list: usize, component: u32, pos: usize) {
        let Some(slot) = self.slot(list, component) else { return };
        if self.stamp[slot] == self.epoch {
            self.next[list][self.tail[slot] as usize] = pos as u32;
        } else {
            self.stamp[slot] = self.epoch;
            self.head[slot] = pos as u32;
        }
        self.tail[slot] = pos as u32;
        self.next[list][pos] = Self::END;
    }

    /// First chained position of `list` in `component`.
    fn first(&self, list: usize, component: u32) -> Option<usize> {
        let slot = self.slot(list, component)?;
        (self.stamp[slot] == self.epoch).then_some(self.head[slot] as usize)
    }

    /// The chained position after `pos` in `list`.
    fn after(&self, list: usize, pos: usize) -> Option<usize> {
        let next = self.next[list][pos];
        (next != Self::END).then_some(next as usize)
    }
}

/// Reusable buffers of the context-distance matrix computation.
#[derive(Debug, Default)]
struct BoundScratch {
    /// Per-term sets of contexts present in the term's list.
    sets: Vec<Vec<PathId>>,
    /// Membership marks while collecting one set, indexed by `PathId`.
    in_set: Vec<bool>,
    /// Breadth-first search queue and distances over the context graph.
    queue: Vec<u32>,
    dist: Vec<u32>,
    /// Prim's per-term tentative edge weights (`None` once in the tree).
    best: Vec<Option<u32>>,
}

impl SearchScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// The traversal scratch, for callers that interleave their own graph
    /// traversals (connectivity checks, shortest paths) with searches over
    /// the same reusable buffers — e.g. a per-thread reader handle serving a
    /// whole query pipeline from one allocation-free scratch.
    pub fn traversal_mut(&mut self) -> &mut TraversalScratch {
        &mut self.traversal
    }
}

/// Top-k searcher over a collection, its node index and its data graph.
pub struct TopKSearcher<'a> {
    collection: &'a Collection,
    index: &'a NodeIndex,
    graph: &'a DataGraph,
}

/// Max-heap entry ordered by combined score.
#[derive(Debug)]
struct HeapTuple(ResultTuple);

impl PartialEq for HeapTuple {
    fn eq(&self, other: &Self) -> bool {
        self.0.score == other.0.score && self.0.nodes == other.0.nodes
    }
}
impl Eq for HeapTuple {}
impl PartialOrd for HeapTuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapTuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .score
            .partial_cmp(&other.0.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.0.nodes.cmp(&self.0.nodes))
    }
}

impl<'a> TopKSearcher<'a> {
    /// Creates a searcher over prebuilt structures.  Document components are
    /// read from the graph (a build-time artifact), never recomputed here.
    pub fn new(collection: &'a Collection, index: &'a NodeIndex, graph: &'a DataGraph) -> Self {
        TopKSearcher { collection, index, graph }
    }

    /// The collection the searcher works over.
    pub fn collection(&self) -> &Collection {
        self.collection
    }

    /// Fills `scratch.lists[..terms.len()]` with the per-term sorted-access
    /// lists, reusing the list buffers.
    fn fill_term_lists(&self, terms: &[TermInput], scratch: &mut SearchScratch) {
        while scratch.lists.len() < terms.len() {
            scratch.lists.push(Vec::new());
        }
        for (term, list) in terms.iter().zip(scratch.lists.iter_mut()) {
            self.index.evaluate_into(
                &term.query,
                term.allowed_paths.as_deref(),
                &mut scratch.eval_candidates,
                list,
            );
        }
    }

    /// Runs the Threshold-Algorithm search with a fresh scratch.
    ///
    /// Convenience wrapper over [`TopKSearcher::search_with`]; callers that
    /// search repeatedly should reuse a [`SearchScratch`].
    pub fn search(&self, terms: &[TermInput], config: &TopKConfig) -> TopKResult {
        self.search_with(terms, config, &mut SearchScratch::new())
    }

    /// Runs the Threshold-Algorithm search, reusing `scratch` for every
    /// buffer the join loop needs.
    ///
    /// At most [`TopKConfig::candidate_limit`] candidate tuples are scored;
    /// when the limit clips the candidate set, the number of dropped
    /// combinations is recorded in [`SearchStats::candidates_truncated`].
    pub fn search_with(
        &self,
        terms: &[TermInput],
        config: &TopKConfig,
        scratch: &mut SearchScratch,
    ) -> TopKResult {
        self.search_governed(terms, config, &SearchLimits::unlimited(), scratch).0
    }

    /// [`TopKSearcher::search_with`] under per-request resource ceilings.
    ///
    /// The [`SearchLimits`] ceilings are checked at the loop's existing
    /// counter sites (sorted access, random access, tuple scoring, label
    /// probes) plus a per-sorted-access deadline/cancellation test.  On a
    /// breach the loop stops and returns the top-k prefix computed so far —
    /// exact over the combinations enumerated up to the stop, thanks to TA's
    /// monotone threshold — together with the tripped [`LimitBreach`];
    /// `None` means the search ran to its normal termination.
    pub fn search_governed(
        &self,
        terms: &[TermInput],
        config: &TopKConfig,
        limits: &SearchLimits,
        scratch: &mut SearchScratch,
    ) -> (TopKResult, Option<LimitBreach>) {
        self.search_governed_with(terms, config, limits, scratch, None)
    }

    /// [`TopKSearcher::search_governed`] with an optional compactness memo
    /// shared across searches.  A single term is answered by a scan of its
    /// sorted posting prefix whenever [`TopKConfig::scans_single_term`]
    /// holds, which reproduces the join loop's tuples and stats exactly.
    pub fn search_governed_with(
        &self,
        terms: &[TermInput],
        config: &TopKConfig,
        limits: &SearchLimits,
        scratch: &mut SearchScratch,
        cache: Option<&mut TupleScoreCache>,
    ) -> (TopKResult, Option<LimitBreach>) {
        if terms.is_empty() || config.k == 0 {
            return (TopKResult { tuples: Vec::new(), stats: SearchStats::default() }, None);
        }
        self.fill_term_lists(terms, scratch);
        if config.scans_single_term(terms.len()) {
            return self.scan_single_term(config, limits, scratch);
        }
        self.search_filled(terms.len(), config, limits, scratch, cache)
    }

    /// Materialises the per-term sorted-access lists once, for reuse across
    /// executions of a prepared statement, together with the context
    /// distances between the lists that the structural bound reads.
    ///
    /// The returned lists are exactly what [`TopKSearcher::search_governed`]
    /// would fill into its scratch, so
    /// [`TopKSearcher::search_materialized_governed`] over them is equivalent
    /// to a fresh search over the same terms.
    pub fn materialize_terms(&self, terms: &[TermInput]) -> MaterializedTerms {
        let mut candidates = Vec::new();
        let mut lists = Vec::with_capacity(terms.len());
        for term in terms {
            let mut list = Vec::new();
            self.index.evaluate_into(
                &term.query,
                term.allowed_paths.as_deref(),
                &mut candidates,
                &mut list,
            );
            lists.push(list);
        }
        let mut context_matrix = Vec::new();
        self.context_matrix_into(&lists, &mut BoundScratch::default(), &mut context_matrix);
        MaterializedTerms::from_lists(lists, context_matrix)
    }

    /// Runs the governed search over pre-materialised term lists, optionally
    /// memoising compactness scores in `cache`.
    ///
    /// The lists and their context distances are copied into the scratch
    /// buffers (reusing their capacity) and the identical search runs over
    /// them — including the single-term scan — so results are equal to
    /// [`TopKSearcher::search_governed`] over the terms the lists were
    /// materialised from, with no bound work left per execution.
    pub fn search_materialized_governed(
        &self,
        materialized: &MaterializedTerms,
        config: &TopKConfig,
        limits: &SearchLimits,
        scratch: &mut SearchScratch,
        cache: Option<&mut TupleScoreCache>,
    ) -> (TopKResult, Option<LimitBreach>) {
        let m = materialized.lists.len();
        if m == 0 || config.k == 0 {
            return (TopKResult { tuples: Vec::new(), stats: SearchStats::default() }, None);
        }
        while scratch.lists.len() < m {
            scratch.lists.push(Vec::new());
        }
        for (src, dst) in materialized.lists.iter().zip(scratch.lists.iter_mut()) {
            dst.clone_from(src);
        }
        if config.scans_single_term(m) {
            return self.scan_single_term(config, limits, scratch);
        }
        scratch.context_matrix.clone_from(&materialized.context_matrix);
        self.join_loop(m, config, limits, scratch, cache)
    }

    /// Fills `matrix` (row-major m×m over `lists`) with the context-graph
    /// distance between the sets of contexts present in each pair of lists:
    /// one multi-source breadth-first search per term.  Entries are
    /// unbounded; [`CONTEXT_UNREACHABLE`] marks pairs with no connecting
    /// context path.  Lists whose contexts the graph does not span (a graph
    /// merged over another collection) yield an all-zero matrix, which bounds
    /// nothing.
    fn context_matrix_into(
        &self,
        lists: &[Vec<ScoredNode>],
        bound: &mut BoundScratch,
        matrix: &mut Vec<u32>,
    ) {
        let m = lists.len();
        matrix.clear();
        matrix.resize(m * m, 0);
        if m < 2 {
            return;
        }
        let count = self.graph.context_count();
        bound.in_set.clear();
        bound.in_set.resize(count, false);
        while bound.sets.len() < m {
            bound.sets.push(Vec::new());
        }
        for (list, set) in lists.iter().zip(bound.sets.iter_mut()) {
            set.clear();
            for entry in list {
                let Ok(context) = self.collection.context(entry.node) else { continue };
                if context.index() >= count {
                    matrix.iter_mut().for_each(|d| *d = 0);
                    return;
                }
                if !bound.in_set[context.index()] {
                    bound.in_set[context.index()] = true;
                    set.push(context);
                }
            }
            for context in set.iter() {
                bound.in_set[context.index()] = false;
            }
        }
        for i in 0..m - 1 {
            self.graph.context_distances_into(&bound.sets[i], &mut bound.queue, &mut bound.dist);
            for j in i + 1..m {
                let d = bound.sets[j]
                    .iter()
                    .map(|c| bound.dist[c.index()])
                    .min()
                    .unwrap_or(CONTEXT_UNREACHABLE);
                matrix[i * m + j] = d;
                matrix[j * m + i] = d;
            }
        }
    }

    /// Degenerate single-term search: with one list the Threshold Algorithm
    /// consumes exactly `min(k, len)` sorted accesses (after the k-th access
    /// the threshold equals the k-th buffered score), every singleton tuple
    /// is maximally compact (`1.0`, zero oracle probes) and no joins happen.
    /// This scan reproduces that behaviour — tuples, stats and breach
    /// semantics — without the join machinery.
    fn scan_single_term(
        &self,
        config: &TopKConfig,
        limits: &SearchLimits,
        scratch: &mut SearchScratch,
    ) -> (TopKResult, Option<LimitBreach>) {
        let mut stats = SearchStats::default();
        let list = &scratch.lists[0];
        if list.is_empty() {
            return (TopKResult { tuples: Vec::new(), stats }, None);
        }
        let mut breach: Option<LimitBreach> = None;
        let mut tuples: Vec<ResultTuple> = Vec::with_capacity(config.k.min(list.len()));
        for entry in list.iter().take(config.k) {
            if let Some(deadline) = limits.deadline {
                if std::time::Instant::now() >= deadline {
                    breach = Some(LimitBreach { resource: "deadline", spent: 0, budget: 0 });
                    break;
                }
            }
            if let Some(cancel) = &limits.cancel {
                if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                    breach = Some(LimitBreach { resource: "cancelled", spent: 0, budget: 0 });
                    break;
                }
            }
            if let Some(max) = limits.max_sorted_accesses {
                if stats.sorted_accesses >= max {
                    breach = Some(LimitBreach {
                        resource: "sorted accesses",
                        spent: stats.sorted_accesses as u64,
                        budget: max as u64,
                    });
                    break;
                }
            }
            stats.sorted_accesses += 1;
            // The join loop checks the tuple ceiling after the sorted access
            // that produced the candidate; mirror that order so breach stats
            // line up with the general path.
            if let Some(max) = limits.max_tuples_scored {
                if stats.tuples_scored >= max {
                    breach = Some(LimitBreach {
                        resource: "candidate tuples",
                        spent: stats.tuples_scored as u64,
                        budget: max as u64,
                    });
                    break;
                }
            }
            stats.tuples_scored += 1;
            let score = config.content_weight * entry.score + config.structure_weight * 1.0;
            tuples.push(ResultTuple {
                nodes: vec![entry.node],
                content_score: entry.score,
                compactness: 1.0,
                score,
            });
        }
        if breach.is_none() && list.len() > config.k {
            // The TA loop stops on the k-th sorted access, when the k-th
            // buffered score meets the next unseen posting's; that is early
            // termination only while postings are left unseen.
            stats.early_terminated = true;
        }
        tuples.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.nodes.cmp(&b.nodes))
        });
        tuples.dedup_by(|a, b| a.nodes == b.nodes);
        (TopKResult { tuples, stats }, breach)
    }

    /// The Threshold-Algorithm join loop over `scratch.lists[..m]`, already
    /// filled by the caller: computes the context distances between the
    /// lists, then runs [`TopKSearcher::join_loop`].  `cache`, when given,
    /// memoises compactness scores across executions (the connecting-tree
    /// size of a node tuple depends only on the immutable graph and
    /// `max_depth`).
    fn search_filled(
        &self,
        m: usize,
        config: &TopKConfig,
        limits: &SearchLimits,
        scratch: &mut SearchScratch,
        cache: Option<&mut TupleScoreCache>,
    ) -> (TopKResult, Option<LimitBreach>) {
        let SearchScratch { lists, bound, context_matrix, .. } = scratch;
        self.context_matrix_into(&lists[..m], bound, context_matrix);
        self.join_loop(m, config, limits, scratch, cache)
    }

    /// The join loop proper, over `scratch.lists[..m]` and the context
    /// distances in `scratch.context_matrix`.
    fn join_loop(
        &self,
        m: usize,
        config: &TopKConfig,
        limits: &SearchLimits,
        scratch: &mut SearchScratch,
        mut cache: Option<&mut TupleScoreCache>,
    ) -> (TopKResult, Option<LimitBreach>) {
        let mut stats = SearchStats::default();
        let SearchScratch {
            traversal,
            lists,
            combo_nodes,
            combo_scores,
            next_nodes,
            next_scores,
            kth_scores,
            positions,
            best_scores,
            bound,
            context_matrix,
            seen,
            ..
        } = scratch;
        let lists = &lists[..m];
        if lists.iter().any(Vec::is_empty) {
            // Some term has no match at all: the result is empty (Definition 4
            // requires every term to be satisfied).
            return (TopKResult { tuples: Vec::new(), stats }, None);
        }
        // No tuple's connecting tree is smaller than the spanning tree over
        // the context distances; without one, no tuple is connected at all.
        let Some(min_tree) =
            min_spanning_tree(context_matrix, m, config.max_depth, &mut bound.best)
        else {
            return (TopKResult { tuples: Vec::new(), stats }, None);
        };
        let structure_bound = config.structure_weight / (1.0 + min_tree as f64);
        let label_probes_before = traversal.label_probes;
        // Arm the BFS probe ceiling so even oracle fallbacks inside
        // compactness checks respect the label-probe budget; disarmed before
        // returning on every path out of the loop.
        if let Some(max) = limits.max_label_probes {
            traversal.probe_ceiling =
                Some((label_probes_before + traversal.bfs_visits).saturating_add(max));
        }
        best_scores.clear();
        best_scores.extend(lists.iter().map(|l| l[0].score));
        positions.clear();
        positions.resize(m, 0);
        kth_scores.clear();

        // On a graph with one document component every pair passes the
        // same-component filter, so the join reads the seen prefixes whole;
        // otherwise it follows the per-component chains of seen postings.
        let many_components = self.graph.doc_component_count() > 1;
        if many_components {
            seen.reset(lists, self.graph.doc_component_count());
        }
        let mut buffer: BinaryHeap<HeapTuple> = BinaryHeap::new();
        let mut breach: Option<LimitBreach> = None;

        'outer: loop {
            let mut advanced = false;
            for i in 0..m {
                if let Some(deadline) = limits.deadline {
                    if std::time::Instant::now() >= deadline {
                        breach = Some(LimitBreach { resource: "deadline", spent: 0, budget: 0 });
                        break 'outer;
                    }
                }
                if let Some(cancel) = &limits.cancel {
                    if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                        breach = Some(LimitBreach { resource: "cancelled", spent: 0, budget: 0 });
                        break 'outer;
                    }
                }
                let pos = positions[i];
                if pos >= lists[i].len() {
                    continue;
                }
                if let Some(max) = limits.max_sorted_accesses {
                    if stats.sorted_accesses >= max {
                        breach = Some(LimitBreach {
                            resource: "sorted accesses",
                            spent: stats.sorted_accesses as u64,
                            budget: max as u64,
                        });
                        break 'outer;
                    }
                }
                positions[i] += 1;
                advanced = true;
                stats.sorted_accesses += 1;
                let new_node = lists[i][pos];
                let new_component = many_components.then(|| {
                    let component = self.graph.doc_component(new_node.node.doc);
                    seen.push(i, component, pos);
                    component
                });

                // Join the new node with every combination of already-seen
                // nodes from the other lists (their consumed prefixes).  The
                // combos live in two flat ping-pong arenas: at stage j each
                // combo is a j-sized NodeId run plus a running content score.
                combo_nodes.clear();
                combo_scores.clear();
                combo_scores.push(0.0);
                for j in 0..m {
                    next_nodes.clear();
                    next_scores.clear();
                    let stride = j;
                    if j == i {
                        for (c, &content) in combo_scores.iter().enumerate() {
                            next_nodes
                                .extend_from_slice(&combo_nodes[c * stride..(c + 1) * stride]);
                            next_nodes.push(new_node.node);
                            next_scores.push(content + new_node.score);
                        }
                    } else {
                        // Component pruning: a tuple spanning two disconnected
                        // document components can never be connected, so only
                        // the seen nodes of the new node's component join.
                        for (c, &content) in combo_scores.iter().enumerate() {
                            let run = &combo_nodes[c * stride..(c + 1) * stride];
                            let mut join = |candidate: &ScoredNode| {
                                stats.random_accesses += 1;
                                next_nodes.extend_from_slice(run);
                                next_nodes.push(candidate.node);
                                next_scores.push(content + candidate.score);
                            };
                            match new_component {
                                Some(component) => {
                                    let mut at = seen.first(j, component);
                                    while let Some(p) = at {
                                        join(&lists[j][p]);
                                        at = seen.after(j, p);
                                    }
                                }
                                None => lists[j][..positions[j]].iter().for_each(join),
                            }
                        }
                    }
                    std::mem::swap(combo_nodes, next_nodes);
                    std::mem::swap(combo_scores, next_scores);
                    if combo_scores.is_empty() {
                        break;
                    }
                    if stats.tuples_scored + combo_scores.len() > config.candidate_limit {
                        let keep = config.candidate_limit.saturating_sub(stats.tuples_scored);
                        stats.candidates_truncated += combo_scores.len() - keep;
                        combo_scores.truncate(keep);
                        combo_nodes.truncate(keep * (j + 1));
                    }
                }
                if let Some(max) = limits.max_random_accesses {
                    if stats.random_accesses > max {
                        breach = Some(LimitBreach {
                            resource: "random accesses",
                            spent: stats.random_accesses as u64,
                            budget: max as u64,
                        });
                        break 'outer;
                    }
                }
                if combo_nodes.len() == combo_scores.len() * m {
                    for (c, &content) in combo_scores.iter().enumerate() {
                        if let Some(max) = limits.max_tuples_scored {
                            if stats.tuples_scored >= max {
                                breach = Some(LimitBreach {
                                    resource: "candidate tuples",
                                    spent: stats.tuples_scored as u64,
                                    budget: max as u64,
                                });
                                break 'outer;
                            }
                        }
                        let nodes = &combo_nodes[c * m..(c + 1) * m];
                        stats.tuples_scored += 1;
                        let compact = match cache.as_deref_mut() {
                            Some(memo) => match memo.lookup(config.max_depth, nodes) {
                                Some(hit) => hit,
                                None => {
                                    let fresh = compactness_with(
                                        self.graph,
                                        traversal,
                                        nodes,
                                        config.max_depth,
                                    );
                                    memo.store(config.max_depth, nodes, fresh);
                                    fresh
                                }
                            },
                            None => {
                                compactness_with(self.graph, traversal, nodes, config.max_depth)
                            }
                        };
                        if compact == 0.0 && m > 1 {
                            stats.tuples_disconnected += 1;
                        } else {
                            let score =
                                config.content_weight * content + config.structure_weight * compact;
                            note_score(kth_scores, config.k, score);
                            // Buffer only tuples still inside the provisional
                            // top-k (ties at the k-th score included): a tuple
                            // strictly below k better ones can never re-enter,
                            // and the small buffer keeps the final sort cheap.
                            if score
                                >= *kth_scores.last().expect(
                                    "invariant: note_score keeps at least one entry (kth-order)",
                                )
                            {
                                buffer.push(HeapTuple(ResultTuple {
                                    nodes: nodes.to_vec(),
                                    content_score: content,
                                    compactness: compact,
                                    score,
                                }));
                            }
                        }
                        if stats.tuples_scored >= config.candidate_limit {
                            break 'outer;
                        }
                    }
                }
                if let Some(max) = limits.max_label_probes {
                    let spent = traversal.label_probes - label_probes_before;
                    if spent > max {
                        breach = Some(LimitBreach { resource: "label probes", spent, budget: max });
                        break 'outer;
                    }
                }

                // Threshold test (see the module doc): an unseen combination
                // holds an unseen posting of some list i, so it scores at most
                //   max_i ( next_i + Σ_{j≠i} best_j )
                // in content, plus the structural bound.  With nothing left
                // unseen the loop ends on its own.
                let mut threshold_content = f64::NEG_INFINITY;
                for j in 0..m {
                    let Some(next) = lists[j].get(positions[j]) else { continue };
                    let mut bound = next.score;
                    for (l, best) in best_scores.iter().enumerate() {
                        if l != j {
                            bound += best;
                        }
                    }
                    threshold_content = threshold_content.max(bound);
                }
                if threshold_content > f64::NEG_INFINITY && kth_scores.len() >= config.k {
                    let threshold = config.content_weight * threshold_content + structure_bound;
                    if kth_scores[config.k - 1] >= threshold {
                        stats.early_terminated = true;
                        break 'outer;
                    }
                }
            }
            if !advanced {
                break;
            }
        }
        traversal.probe_ceiling = None;
        stats.label_probes = traversal.label_probes - label_probes_before;

        let mut tuples: Vec<ResultTuple> =
            buffer.into_sorted_vec().into_iter().map(|h| h.0).collect();
        // `into_sorted_vec` is ascending; we want best-first.
        tuples.reverse();
        tuples.dedup_by(|a, b| a.nodes == b.nodes);
        tuples.truncate(config.k);
        (TopKResult { tuples, stats }, breach)
    }

    /// Exhaustive baseline with a fresh scratch: enumerates every combination
    /// of matching nodes, scores them all and returns the best `k`.  Used to
    /// validate the TA implementation and as the comparison point in the
    /// benchmark harness.
    pub fn search_naive(&self, terms: &[TermInput], config: &TopKConfig) -> TopKResult {
        self.search_naive_with(terms, config, &mut SearchScratch::new())
    }

    /// [`TopKSearcher::search_naive`] reusing a caller-owned scratch.
    ///
    /// Combinations stream through an odometer over the lists (list 0 most
    /// significant), skipping those that span two document components, into
    /// a `k`-bounded heap: memory is `O(m + k)` however many combinations
    /// there are.  At most [`TopKConfig::candidate_limit`] tuples are scored;
    /// [`SearchStats::candidates_truncated`] is non-zero exactly when the
    /// limit left combinations unscored, and counts the combinations from
    /// the first unscored one on (an upper bound on the clipped ones).
    pub fn search_naive_with(
        &self,
        terms: &[TermInput],
        config: &TopKConfig,
        scratch: &mut SearchScratch,
    ) -> TopKResult {
        let mut stats = SearchStats::default();
        if terms.is_empty() || config.k == 0 {
            return TopKResult { tuples: Vec::new(), stats };
        }
        self.fill_term_lists(terms, scratch);
        let SearchScratch { traversal, lists, combo_nodes, odometer, .. } = scratch;
        let label_probes_before = traversal.label_probes;
        let lists = &lists[..terms.len()];
        if lists.iter().any(Vec::is_empty) {
            return TopKResult { tuples: Vec::new(), stats };
        }
        stats.sorted_accesses = lists.iter().map(Vec::len).sum();
        let m = lists.len();
        let many_components = self.graph.doc_component_count() > 1;

        // Min-heap on the result order: the root is the worst kept tuple.
        let mut kept: BinaryHeap<Reverse<HeapTuple>> = BinaryHeap::with_capacity(config.k + 1);
        odometer.clear();
        odometer.resize(m, 0);
        let mut found = self.seek_combination(lists, odometer, 0, many_components);
        while found {
            if stats.tuples_scored >= config.candidate_limit {
                stats.candidates_truncated = combinations_from(lists, odometer);
                break;
            }
            combo_nodes.clear();
            let mut content = 0.0;
            for (list, &at) in lists.iter().zip(odometer.iter()) {
                combo_nodes.push(list[at].node);
                content += list[at].score;
            }
            stats.tuples_scored += 1;
            let compact = compactness_with(self.graph, traversal, combo_nodes, config.max_depth);
            if compact == 0.0 && m > 1 {
                stats.tuples_disconnected += 1;
            } else {
                let score = config.content_weight * content + config.structure_weight * compact;
                let enters = kept.len() < config.k
                    || kept.peek().is_some_and(|Reverse(HeapTuple(worst))| {
                        score > worst.score
                            || (score == worst.score && combo_nodes[..] < worst.nodes[..])
                    });
                if enters {
                    if kept.len() == config.k {
                        kept.pop();
                    }
                    kept.push(Reverse(HeapTuple(ResultTuple {
                        nodes: combo_nodes.clone(),
                        content_score: content,
                        compactness: compact,
                        score,
                    })));
                }
            }
            odometer[m - 1] += 1;
            found = self.seek_combination(lists, odometer, m - 1, many_components);
        }
        stats.label_probes = traversal.label_probes - label_probes_before;
        // Ascending in `Reverse` order is best first.
        let tuples = kept.into_sorted_vec().into_iter().map(|Reverse(HeapTuple(t))| t).collect();
        TopKResult { tuples, stats }
    }

    /// Moves the odometer `at` to the next combination, in lexicographic
    /// order, whose nodes all lie in list 0's document component.  Entries
    /// before `level` are a valid prefix; `at[level]` is the next candidate
    /// there (possibly past the list's end) and the entries after it are
    /// ignored.  Returns `false` once every combination has been passed.
    fn seek_combination(
        &self,
        lists: &[Vec<ScoredNode>],
        at: &mut [usize],
        mut level: usize,
        many_components: bool,
    ) -> bool {
        loop {
            if at[level] >= lists[level].len() {
                if level == 0 {
                    return false;
                }
                level -= 1;
                at[level] += 1;
                continue;
            }
            if level > 0
                && many_components
                && !self.graph.same_component(lists[0][at[0]].node, lists[level][at[level]].node)
            {
                at[level] += 1;
                continue;
            }
            if level + 1 == lists.len() {
                return true;
            }
            level += 1;
            at[level] = 0;
        }
    }
}

/// Number of combinations from the odometer position `at` (inclusive) to
/// the end of the lexicographic combination space, saturating, at least 1.
fn combinations_from(lists: &[Vec<ScoredNode>], at: &[usize]) -> usize {
    let mut total = 1usize;
    let mut rank = 0usize;
    for (list, &i) in lists.iter().zip(at) {
        total = total.saturating_mul(list.len());
        rank = rank.saturating_mul(list.len()).saturating_add(i);
    }
    total.saturating_sub(rank).max(1)
}

/// Weight of a minimum spanning tree over the row-major m×m distance
/// `matrix`, entries beyond `max_depth` counting as absent (Prim's
/// algorithm; `best` is a reusable buffer).  `None` when the entries within
/// `max_depth` leave the terms disconnected.  A matrix of the wrong shape
/// carries no information and bounds nothing: `Some(0)`.
fn min_spanning_tree(
    matrix: &[u32],
    m: usize,
    max_depth: usize,
    best: &mut Vec<Option<u32>>,
) -> Option<usize> {
    if m < 2 || matrix.len() != m * m {
        return Some(0);
    }
    let weight = |d: u32| (d != CONTEXT_UNREACHABLE && d as usize <= max_depth).then_some(d);
    best.clear();
    best.resize(m, Some(u32::MAX));
    let mut in_tree = 0usize;
    let mut total = 0usize;
    let mut next = 0usize;
    loop {
        best[next] = None;
        in_tree += 1;
        if in_tree == m {
            return Some(total);
        }
        // Relax the edges of the newly added term; terms in the tree hold
        // `None` and terms not yet reached hold `Some(u32::MAX)`.
        let mut pick: Option<(u32, usize)> = None;
        for other in 0..m {
            let Some(current) = best[other] else { continue };
            let relaxed = match weight(matrix[next * m + other]) {
                Some(d) => current.min(d),
                None => current,
            };
            best[other] = Some(relaxed);
            if relaxed != u32::MAX && pick.is_none_or(|(d, _)| relaxed < d) {
                pick = Some((relaxed, other));
            }
        }
        let (d, chosen) = pick?;
        total += d as usize;
        next = chosen;
    }
}

/// Folds one buffered score into the descending top-`k` score list
/// (`scores.len() <= k` always): the k-th best buffered score is
/// `scores[k - 1]` once `k` tuples have been buffered.
fn note_score(scores: &mut Vec<f64>, k: usize, score: f64) {
    let pos = scores.partition_point(|&s| s > score);
    if pos < k {
        if scores.len() == k {
            scores.pop();
        }
        scores.insert(pos, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_datagraph::GraphConfig;
    use seda_textindex::FullTextQuery;
    use seda_xmlstore::parse_collection;

    fn factbook_fragment() -> Collection {
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
                     <economy><GDP>924.4B</GDP>
                       <export_partners>
                         <item><trade_country>United States</trade_country><percentage>70.6</percentage></item>
                       </export_partners>
                     </economy></country>"#,
            ),
            (
                "canada2006.xml",
                r#"<country><name>Canada</name><year>2006</year>
                     <economy><GDP_ppp>1.1T</GDP_ppp></economy></country>"#,
            ),
        ])
        .unwrap()
    }

    fn searcher_parts(c: &Collection) -> (NodeIndex, DataGraph) {
        (NodeIndex::build(c), DataGraph::build(c, &GraphConfig::default()))
    }

    fn query1_terms(c: &Collection) -> Vec<TermInput> {
        // Query 1: (∗, "United States") ∧ (trade_country, ∗) ∧ (percentage, ∗)
        let tc_paths: Vec<_> = c
            .paths()
            .iter()
            .filter(|(_, p)| {
                p.leaf().map(|l| c.symbols().resolve(l) == "trade_country").unwrap_or(false)
            })
            .map(|(id, _)| id)
            .collect();
        let pct_paths: Vec<_> = c
            .paths()
            .iter()
            .filter(|(_, p)| {
                p.leaf().map(|l| c.symbols().resolve(l) == "percentage").unwrap_or(false)
            })
            .map(|(id, _)| id)
            .collect();
        vec![
            TermInput::new(FullTextQuery::phrase("United States")),
            TermInput::with_paths(FullTextQuery::Any, tc_paths),
            TermInput::with_paths(FullTextQuery::Any, pct_paths),
        ]
    }

    #[test]
    fn query1_returns_connected_tuples_only() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let result = searcher.search(&query1_terms(&c), &TopKConfig::with_k(5));
        assert!(!result.tuples.is_empty());
        for tuple in &result.tuples {
            assert_eq!(tuple.nodes.len(), 3);
            assert!(tuple.compactness > 0.0, "tuples must be connected");
            // All three nodes of a connected tuple live in the same document
            // in this fragment (no cross-document edges).
            let doc = tuple.nodes[0].doc;
            assert!(tuple.nodes.iter().all(|n| n.doc == doc));
        }
    }

    #[test]
    fn tight_tuples_rank_above_loose_ones() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let result = searcher.search(&query1_terms(&c), &TopKConfig::with_k(10));
        // The best US tuple must pair China with 15 or Canada with 16.9 (the
        // same-item pairing), not a cross-item combination.
        let best = &result.tuples[0];
        let contents: Vec<String> = best.nodes.iter().map(|&n| c.content(n).unwrap()).collect();
        let same_item = (contents.contains(&"China".to_string())
            && contents.contains(&"15".to_string()))
            || (contents.contains(&"Canada".to_string()) && contents.contains(&"16.9".to_string()))
            || (contents.contains(&"United States".to_string())
                && contents.contains(&"70.6".to_string()));
        assert!(
            same_item,
            "best tuple should pair a trade country with its own percentage: {contents:?}"
        );
    }

    #[test]
    fn ta_matches_naive_baseline() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let config = TopKConfig::with_k(4);
        let terms = query1_terms(&c);
        let ta = searcher.search(&terms, &config);
        let naive = searcher.search_naive(&terms, &config);
        assert_eq!(ta.tuples.len(), naive.tuples.len());
        for (a, b) in ta.tuples.iter().zip(naive.tuples.iter()) {
            assert!(
                (a.score - b.score).abs() < 1e-9,
                "TA and naive disagree: {} vs {}",
                a.score,
                b.score
            );
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_scratch() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = query1_terms(&c);
        let mut scratch = SearchScratch::new();
        for k in [1usize, 3, 10] {
            let config = TopKConfig::with_k(k);
            let reused = searcher.search_with(&terms, &config, &mut scratch);
            let fresh = searcher.search(&terms, &config);
            assert_eq!(reused.tuples, fresh.tuples, "scratch reuse changed results at k={k}");
            let reused_naive = searcher.search_naive_with(&terms, &config, &mut scratch);
            let fresh_naive = searcher.search_naive(&terms, &config);
            assert_eq!(reused_naive.tuples, fresh_naive.tuples);
        }
    }

    #[test]
    fn k_limits_the_result_size() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = query1_terms(&c);
        let one = searcher.search(&terms, &TopKConfig::with_k(1));
        assert_eq!(one.tuples.len(), 1);
        let many = searcher.search(&terms, &TopKConfig::with_k(50));
        assert!(many.tuples.len() >= one.tuples.len());
        // Results are sorted best-first.
        for w in many.tuples.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn empty_term_list_and_unmatchable_terms() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        assert!(searcher.search(&[], &TopKConfig::default()).tuples.is_empty());
        let impossible = vec![
            TermInput::new(FullTextQuery::keywords("zzzunknownzzz")),
            TermInput::new(FullTextQuery::Any),
        ];
        assert!(searcher.search(&impossible, &TopKConfig::default()).tuples.is_empty());
    }

    #[test]
    fn single_term_queries_degenerate_to_ranked_retrieval() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = vec![TermInput::new(FullTextQuery::phrase("United States"))];
        let result = searcher.search(&terms, &TopKConfig::with_k(10));
        assert_eq!(result.tuples.len(), 2, "US appears as a country name and as a trade partner");
        for t in &result.tuples {
            assert_eq!(t.compactness, 1.0, "singleton tuples are maximally compact");
        }
    }

    #[test]
    fn context_restriction_filters_terms() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let name_path = c.paths().get_str(c.symbols(), "/country/name").unwrap();
        let terms =
            vec![TermInput::with_paths(FullTextQuery::phrase("United States"), vec![name_path])];
        let result = searcher.search(&terms, &TopKConfig::default());
        assert_eq!(result.tuples.len(), 1);
        assert_eq!(c.context_string(result.tuples[0].nodes[0]).unwrap(), "/country/name");
    }

    #[test]
    fn stats_record_work_and_early_termination_does_less_of_it() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = query1_terms(&c);
        let small_k = searcher.search(&terms, &TopKConfig::with_k(1));
        let naive = searcher.search_naive(&terms, &TopKConfig::with_k(1));
        assert!(small_k.stats.sorted_accesses > 0);
        assert!(small_k.stats.tuples_scored <= naive.stats.tuples_scored);
        assert!(small_k.stats.label_probes > 0, "connectivity checks are accounted");
        assert!(naive.stats.label_probes > 0);
    }

    #[test]
    fn unlimited_governed_search_matches_ungoverned() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = query1_terms(&c);
        let config = TopKConfig::with_k(5);
        let plain = searcher.search(&terms, &config);
        let (governed, breach) = searcher.search_governed(
            &terms,
            &config,
            &SearchLimits::unlimited(),
            &mut SearchScratch::new(),
        );
        assert!(breach.is_none());
        assert_eq!(plain.tuples, governed.tuples);
        assert_eq!(plain.stats, governed.stats);
    }

    #[test]
    fn each_search_limit_breaches_with_its_resource_name() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = query1_terms(&c);
        let config = TopKConfig::with_k(5);
        let mut scratch = SearchScratch::new();
        let cases: Vec<(&str, SearchLimits)> = vec![
            (
                "sorted accesses",
                SearchLimits { max_sorted_accesses: Some(0), ..SearchLimits::unlimited() },
            ),
            (
                "random accesses",
                SearchLimits { max_random_accesses: Some(0), ..SearchLimits::unlimited() },
            ),
            (
                "candidate tuples",
                SearchLimits { max_tuples_scored: Some(0), ..SearchLimits::unlimited() },
            ),
            (
                "label probes",
                SearchLimits { max_label_probes: Some(0), ..SearchLimits::unlimited() },
            ),
            (
                "deadline",
                SearchLimits {
                    deadline: Some(std::time::Instant::now()),
                    ..SearchLimits::unlimited()
                },
            ),
        ];
        for (resource, limits) in cases {
            let (result, breach) = searcher.search_governed(&terms, &config, &limits, &mut scratch);
            let breach = breach.unwrap_or_else(|| panic!("{resource} limit must trip"));
            assert_eq!(breach.resource, resource);
            // The prefix is well-formed even when empty.
            for t in &result.tuples {
                assert_eq!(t.nodes.len(), terms.len());
            }
        }
    }

    #[test]
    fn cancellation_stops_the_search() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let flag = Arc::new(AtomicBool::new(true));
        let limits = SearchLimits { cancel: Some(flag), ..SearchLimits::unlimited() };
        let (result, breach) = searcher.search_governed(
            &query1_terms(&c),
            &TopKConfig::with_k(5),
            &limits,
            &mut SearchScratch::new(),
        );
        assert_eq!(breach.expect("cancelled search must report a breach").resource, "cancelled");
        assert!(result.tuples.is_empty());
    }

    #[test]
    fn generous_limits_do_not_change_the_result() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = query1_terms(&c);
        let config = TopKConfig::with_k(5);
        let limits = SearchLimits {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(600)),
            max_sorted_accesses: Some(usize::MAX),
            max_random_accesses: Some(usize::MAX),
            max_tuples_scored: Some(usize::MAX),
            max_label_probes: Some(u64::MAX),
            cancel: Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false))),
        };
        assert!(!limits.is_unlimited());
        let (governed, breach) =
            searcher.search_governed(&terms, &config, &limits, &mut SearchScratch::new());
        assert!(breach.is_none());
        assert_eq!(governed.tuples, searcher.search(&terms, &config).tuples);
    }

    #[test]
    fn materialized_search_matches_fresh_search() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = query1_terms(&c);
        let config = TopKConfig::with_k(5);
        let limits = SearchLimits::unlimited();
        let materialized = searcher.materialize_terms(&terms);
        assert_eq!(materialized.term_count(), terms.len());
        let mut scratch = SearchScratch::new();
        let (fresh, _) = searcher.search_governed(&terms, &config, &limits, &mut scratch);
        let (replayed, breach) = searcher.search_materialized_governed(
            &materialized,
            &config,
            &limits,
            &mut scratch,
            None,
        );
        assert!(breach.is_none());
        assert_eq!(fresh.tuples, replayed.tuples);
        assert_eq!(fresh.stats, replayed.stats);
    }

    #[test]
    fn warm_cache_reproduces_cold_tuples_with_fewer_probes() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = query1_terms(&c);
        let config = TopKConfig::with_k(5);
        let limits = SearchLimits::unlimited();
        let materialized = searcher.materialize_terms(&terms);
        let mut scratch = SearchScratch::new();
        let mut cache = TupleScoreCache::new();
        let (cold, _) = searcher.search_materialized_governed(
            &materialized,
            &config,
            &limits,
            &mut scratch,
            Some(&mut cache),
        );
        assert!(cold.stats.label_probes > 0);
        assert!(cache.misses() > 0 && cache.hits() == 0);
        let (warm, _) = searcher.search_materialized_governed(
            &materialized,
            &config,
            &limits,
            &mut scratch,
            Some(&mut cache),
        );
        assert_eq!(cold.tuples, warm.tuples, "memoisation must not change the answer");
        assert!(cache.hits() > 0);
        assert!(
            warm.stats.label_probes < cold.stats.label_probes,
            "warm runs answer compactness from the memo: {} vs {}",
            warm.stats.label_probes,
            cold.stats.label_probes
        );
    }

    #[test]
    fn single_term_scan_matches_the_join_loop_exactly() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        // "United States" matches 2 nodes; exercise k below, at and above the
        // list length to pin tuples, stats and the early-termination flag.
        let terms = vec![TermInput::new(FullTextQuery::phrase("United States"))];
        let materialized = searcher.materialize_terms(&terms);
        let limits = SearchLimits::unlimited();
        let mut scratch = SearchScratch::new();
        for k in [1usize, 2, 10] {
            let config = TopKConfig::with_k(k);
            assert!(config.scans_single_term(terms.len()));
            // The join loop itself, bypassing the scan the public entry
            // points choose for one term.
            searcher.fill_term_lists(&terms, &mut scratch);
            let (join, _) = searcher.search_filled(1, &config, &limits, &mut scratch, None);
            let (fresh, breach) = searcher.search_governed(&terms, &config, &limits, &mut scratch);
            assert!(breach.is_none());
            assert_eq!(join.tuples, fresh.tuples, "k={k}");
            assert_eq!(join.stats, fresh.stats, "k={k}");
            let (replayed, breach) = searcher.search_materialized_governed(
                &materialized,
                &config,
                &limits,
                &mut scratch,
                None,
            );
            assert!(breach.is_none());
            assert_eq!(join.tuples, replayed.tuples, "k={k}");
            assert_eq!(join.stats, replayed.stats, "k={k}");
        }
    }

    /// `countries` one-country documents chained by IDREF edges into one
    /// component: every `name` and `population` scores alike (one token
    /// each), so both wildcard lists are flat and only the structural bound
    /// can stop the search.
    fn flat_corpus(countries: usize) -> Collection {
        let docs: Vec<(String, String)> = (0..countries)
            .map(|i| {
                (
                    format!("c{i}.xml"),
                    format!(
                        r#"<country id="c{i}"><name>n{i}</name><population>{}</population>
                             <border country_idref="c{}"/></country>"#,
                        1000 + i,
                        (i + 1) % countries
                    ),
                )
            })
            .collect();
        parse_collection(docs.iter().map(|(uri, xml)| (uri.as_str(), xml.as_str()))).unwrap()
    }

    fn wildcard_terms(c: &Collection, labels: &[&str]) -> Vec<TermInput> {
        labels
            .iter()
            .map(|label| {
                let symbol = c.symbols().get(label).unwrap();
                TermInput::with_paths(FullTextQuery::Any, c.paths().paths_with_leaf(symbol))
            })
            .collect()
    }

    fn scores(result: &TopKResult) -> Vec<f64> {
        result.tuples.iter().map(|t| t.score).collect()
    }

    #[test]
    fn flat_wildcard_lists_stop_early_and_work_grows_with_k() {
        let c = flat_corpus(120);
        let (index, graph) = searcher_parts(&c);
        assert_eq!(graph.doc_component_count(), 1);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = wildcard_terms(&c, &["name", "population"]);
        let mut scratch = SearchScratch::new();
        let mut scored = Vec::new();
        for k in [1usize, 10, 100] {
            let config = TopKConfig::with_k(k);
            let ta = searcher.search_with(&terms, &config, &mut scratch);
            let naive = searcher.search_naive_with(&terms, &config, &mut scratch);
            assert_eq!(ta.stats.candidates_truncated, 0, "k={k}");
            assert_eq!(naive.stats.candidates_truncated, 0, "k={k}");
            assert_eq!(scores(&ta), scores(&naive), "k={k}");
            assert_eq!(ta.tuples.len(), k);
            assert!(ta.stats.early_terminated, "k={k}: {:?}", ta.stats);
            if k == 1 {
                assert!(
                    ta.stats.tuples_scored < naive.stats.tuples_scored,
                    "TA must do less than full enumeration: {} vs {}",
                    ta.stats.tuples_scored,
                    naive.stats.tuples_scored
                );
            }
            scored.push(ta.stats.tuples_scored);
        }
        assert!(scored.windows(2).all(|w| w[0] <= w[1]), "work must grow with k: {scored:?}");
    }

    #[test]
    fn the_structural_bound_waits_for_tight_tuples_listed_last() {
        // Twenty loose countries (population one level deeper: tuples at
        // distance 3) come first in both flat lists; five tight ones
        // (distance 2, the context-graph bound) come last.  Stopping on k
        // loose tuples would need a bound below 1/3.
        let docs: Vec<(String, String)> = (0..25)
            .map(|i| {
                let population = if i < 20 {
                    format!("<stats><population>{i}</population></stats>")
                } else {
                    format!("<population>{i}</population>")
                };
                (format!("c{i}.xml"), format!("<country><name>n{i}</name>{population}</country>"))
            })
            .collect();
        let c =
            parse_collection(docs.iter().map(|(uri, xml)| (uri.as_str(), xml.as_str()))).unwrap();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = wildcard_terms(&c, &["name", "population"]);
        for k in [1usize, 3, 5, 8] {
            let config = TopKConfig::with_k(k);
            let ta = searcher.search(&terms, &config);
            let naive = searcher.search_naive(&terms, &config);
            assert_eq!(scores(&ta), scores(&naive), "k={k}");
            assert!(ta.tuples.iter().take(5).all(|t| t.compactness == 1.0 / 3.0), "k={k}");
        }
    }

    #[test]
    fn contexts_farther_apart_than_max_depth_return_empty_without_scoring() {
        let c = parse_collection(vec![
            ("a.xml", "<r><p><x>1</x></p><q><y>2</y></q></r>"),
            ("b.xml", "<r><p><x>3</x></p><q><y>4</y></q></r>"),
        ])
        .unwrap();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = wildcard_terms(&c, &["x", "y"]);
        // x and y are four hops apart in every document.
        let near = searcher.search(&terms, &TopKConfig { max_depth: 4, ..TopKConfig::with_k(5) });
        assert_eq!(near.tuples.len(), 2);
        let far = TopKConfig { max_depth: 3, ..TopKConfig::with_k(5) };
        let result = searcher.search(&terms, &far);
        assert!(result.tuples.is_empty());
        assert_eq!(result.stats, SearchStats::default(), "no work for an unconnectable pair");
        let materialized = searcher.materialize_terms(&terms);
        let (replayed, _) = searcher.search_materialized_governed(
            &materialized,
            &far,
            &SearchLimits::unlimited(),
            &mut SearchScratch::new(),
            None,
        );
        assert_eq!(replayed.stats, SearchStats::default());
        // The exhaustive baseline agrees, the hard way.
        let naive = searcher.search_naive(&terms, &far);
        assert!(naive.tuples.is_empty());
        assert_eq!(naive.stats.tuples_disconnected, naive.stats.tuples_scored);
    }

    #[test]
    fn naive_scores_exactly_the_candidate_limit_when_it_clips() {
        let c = flat_corpus(6);
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = wildcard_terms(&c, &["name", "population"]);
        let full = searcher.search_naive(&terms, &TopKConfig::with_k(3));
        assert_eq!(full.stats.tuples_scored, 36);
        assert_eq!(full.stats.candidates_truncated, 0);
        // A limit equal to the combination count clips nothing.
        let exact = TopKConfig { candidate_limit: 36, ..TopKConfig::with_k(3) };
        let result = searcher.search_naive(&terms, &exact);
        assert_eq!(result.stats.candidates_truncated, 0);
        assert_eq!(result.tuples, full.tuples);
        let tight = TopKConfig { candidate_limit: 10, ..TopKConfig::with_k(3) };
        let clipped = searcher.search_naive(&terms, &tight);
        assert_eq!(clipped.stats.tuples_scored, 10);
        assert_eq!(clipped.stats.candidates_truncated, 26);
    }

    #[test]
    fn candidate_truncation_is_recorded_not_silent() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&c, &index, &graph);
        let terms = query1_terms(&c);

        // A generous limit loses nothing and reports nothing.
        let unclipped = searcher.search(&terms, &TopKConfig::with_k(10));
        assert_eq!(unclipped.stats.candidates_truncated, 0);

        // A tiny limit clips the candidate set and must say so.
        let mut tight = TopKConfig::with_k(10);
        tight.candidate_limit = 3;
        let clipped = searcher.search(&terms, &tight);
        assert!(clipped.stats.tuples_scored <= 3);
        assert!(
            clipped.stats.candidates_truncated > 0,
            "clipped combos must be counted: {:?}",
            clipped.stats
        );
        let clipped_naive = searcher.search_naive(&terms, &tight);
        assert!(
            clipped_naive.stats.candidates_truncated > 0,
            "naive clipping must be counted: {:?}",
            clipped_naive.stats
        );
    }
}
