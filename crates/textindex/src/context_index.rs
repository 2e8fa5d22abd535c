//! The keyword → distinct-path "context" index of Figure 8.
//!
//! The paper maintains "a full-text index which maps individual keywords to
//! the set of distinct paths in which they appear", treating each distinct
//! root-to-leaf path as a virtual document whose content is (a) the text of
//! every node with that context and (b) the tag names on the path itself.
//! SEDA uses this index to compute the *context bucket* of every query term —
//! all distinct paths the term appears in across the entire collection —
//! together with the absolute frequency of each path (not the frequency of the
//! keyword within the path; Sec. 5 explains that choice).
//!
//! The paper discusses two designs for the per-path counts: storing them in
//! the document store (one count per path) or duplicating them into every
//! posting list.  Both are implemented here behind [`CountStorage`] so the
//! trade-off can be measured.
//!
//! # Build cost
//!
//! The content pass ([`ContextIndex::build_shard`]) groups a shard's text
//! nodes by path and tokenizes every text once.  It looks each token up by
//! `&str`, allocating a keyword only the first time the shard sees it, and
//! an epoch stamp per keyword pushes each (keyword, path) row once.
//!
//! The tag-name pass runs once per merge over the shared path table.  Its
//! input is Σ path length steps, which grows with the square of the nesting
//! depth: a document nested 1,500 deep has 1,500 paths of average length
//! 750.  So each distinct label is tokenized once into build-local term ids,
//! each step costs one table read per token, the same epoch stamp dedupes a
//! path's tokens, and each (keyword, path) pair is pushed once, in path
//! order.  On the 6,884 distinct paths of a Google Base corpus plus
//! documents nested 500, 1,000 and 1,500 deep, this pass takes 16–25 ms on
//! a 2-vCPU x86-64 host, where tokenizing every step into string-keyed maps
//! took 1.3 s.

use std::collections::{BTreeSet, HashMap};

use seda_xmlstore::{Collection, DocId, Document, PathId};

use crate::query::FullTextQuery;
use crate::tokenize::{for_each_term, terms};

/// Where the per-path occurrence counts are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountStorage {
    /// Counts live in a single map keyed by path ("document store" design,
    /// the paper's choice): no duplication, but resolving a frequency is a
    /// second lookup.
    DocumentStore,
    /// Counts are duplicated into every posting ("posting list" design): one
    /// lookup, more memory.
    PostingLists,
}

/// One entry of a context bucket: a distinct path plus its absolute frequency
/// in the collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEntry {
    /// The distinct root-to-leaf path.
    pub path: PathId,
    /// Number of occurrences of this path across all documents (the paper
    /// displays this count, irrespective of the keyword).
    pub frequency: usize,
    /// Number of documents containing this path.
    pub document_frequency: usize,
}

/// The Fig. 8 keyword → paths index.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextIndex {
    pub(crate) storage: CountStorage,
    /// keyword → set of paths whose virtual document contains the keyword.
    pub(crate) keyword_paths: HashMap<String, BTreeSet<PathId>>,
    /// Per-(keyword, path) counts; only populated for `PostingLists` storage.
    pub(crate) posting_counts: HashMap<(String, PathId), usize>,
    /// Path → total occurrence count (the "document store").
    pub(crate) path_occurrences: HashMap<PathId, usize>,
    /// Path → number of documents containing the path.
    pub(crate) path_document_frequency: HashMap<PathId, usize>,
    /// All paths in the collection (needed for match-all and NOT queries).
    pub(crate) all_paths: BTreeSet<PathId>,
    /// Paths whose nodes carry text content (match-all context buckets are
    /// restricted to these, since a `*` search query requires content).
    pub(crate) text_paths: BTreeSet<PathId>,
}

/// Partial context index over a single document, produced by
/// [`ContextIndex::build_shard`] and consumed by [`ContextIndex::merge`].
///
/// The shard covers the document-content pass only; the collection-wide
/// tag-name pass (which iterates the shared path table, not the documents)
/// runs once inside [`ContextIndex::merge`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ContextIndexShard {
    doc: Option<DocId>,
    storage: Option<CountStorage>,
    /// Shard vocabulary, indexed by shard term id (first-seen order).
    terms: Vec<String>,
    /// (shard term, path, occurrences of the term in that path's texts),
    /// one row per pair.
    postings: Vec<(u32, PathId, usize)>,
    text_paths: BTreeSet<PathId>,
    /// Path → (occurrences, documents containing it).
    path_counts: HashMap<PathId, (usize, usize)>,
}

impl ContextIndexShard {
    /// The document this shard was built from.
    pub fn doc(&self) -> Option<DocId> {
        self.doc
    }

    /// Number of distinct keywords contributed by this document's content.
    pub fn keyword_count(&self) -> usize {
        self.terms.len()
    }
}

impl ContextIndex {
    /// Builds the index over a collection.
    ///
    /// This is the sequential path: one shard over every document, merged.
    /// It is equivalent to building one shard per document with
    /// [`ContextIndex::build_shard`] and combining them with
    /// [`ContextIndex::merge`].
    pub fn build(collection: &Collection, storage: CountStorage) -> Self {
        Self::merge(collection, storage, vec![Self::shard_of(collection.documents(), storage)])
    }

    /// Builds the partial index of a single document (the per-shard phase of
    /// the shard → merge build lifecycle).
    pub fn build_shard(doc: &Document, storage: CountStorage) -> ContextIndexShard {
        Self::shard_of([doc], storage)
    }

    /// Builds one shard over `docs`, which must come in ascending document
    /// order; the shard is filed under the first document.
    ///
    /// Text nodes are grouped by path, so the keyword counts of one path
    /// are gathered with an epoch stamp per term, as in the tag pass, and
    /// each (keyword, path) row is pushed once.
    fn shard_of<'a>(
        docs: impl IntoIterator<Item = &'a Document>,
        storage: CountStorage,
    ) -> ContextIndexShard {
        let mut shard =
            ContextIndexShard { storage: Some(storage), ..ContextIndexShard::default() };
        let mut doc_paths: Vec<PathId> = Vec::new();
        let mut texts: Vec<(PathId, &str)> = Vec::new();
        for doc in docs {
            shard.doc.get_or_insert(doc.id);
            doc_paths.clear();
            for (_, node) in doc.iter() {
                doc_paths.push(node.path);
                shard.path_counts.entry(node.path).or_default().0 += 1;
                if let Some(text) = node.text.as_deref() {
                    texts.push((node.path, text));
                }
            }
            doc_paths.sort_unstable();
            doc_paths.dedup();
            for &path in &doc_paths {
                shard.path_counts.entry(path).or_default().1 += 1;
            }
        }

        // Content keywords, one path at a time.
        texts.sort_by_key(|&(path, _)| path);
        let mut vocabulary: HashMap<String, u32> = HashMap::new();
        // Per term: the epoch of the path it was last counted on, and its
        // count on that path.
        let mut seen: Vec<(u32, usize)> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        for (epoch, run) in texts.chunk_by(|a, b| a.0 == b.0).enumerate() {
            let (epoch, path) = (epoch as u32 + 1, run[0].0);
            for &(_, text) in run {
                for_each_term(text, |token| {
                    let term = match vocabulary.get(token) {
                        Some(&term) => term,
                        None => {
                            vocabulary.insert(token.to_string(), seen.len() as u32);
                            seen.push((0, 0));
                            seen.len() as u32 - 1
                        }
                    };
                    let (last, count) = &mut seen[term as usize];
                    if *last != epoch {
                        (*last, *count) = (epoch, 0);
                        touched.push(term);
                    }
                    *count += 1;
                });
            }
            if !touched.is_empty() {
                shard.text_paths.insert(path);
            }
            let rows = touched.drain(..).map(|term| (term, path, seen[term as usize].1));
            shard.postings.extend(rows);
        }
        shard.terms = vec![String::new(); vocabulary.len()];
        for (term, id) in vocabulary {
            shard.terms[id as usize] = term;
        }
        shard
    }

    /// Merges per-document shards into the full index (the merge phase of the
    /// shard → merge build lifecycle).
    ///
    /// The collection is needed for the tag-name keyword pass, which runs over
    /// the shared path table exactly once here instead of once per shard.
    ///
    /// # Panics
    ///
    /// Panics if a shard was built with a different [`CountStorage`] than
    /// `storage`: a shard is built for one index design, and merging it into
    /// the other would mix the two designs.
    pub fn merge(
        collection: &Collection,
        storage: CountStorage,
        mut shards: Vec<ContextIndexShard>,
    ) -> Self {
        for shard in &shards {
            assert!(
                shard.storage.is_none() || shard.storage == Some(storage),
                "shard for {:?} was built with {:?}, cannot merge into a {storage:?} index",
                shard.doc,
                shard.storage,
            );
        }
        shards.sort_by_key(|s| s.doc);
        let (tag_terms, tag_rows) = tag_postings(collection);
        let mut text_paths: BTreeSet<PathId> = BTreeSet::new();
        let mut all_paths: BTreeSet<PathId> = BTreeSet::new();
        let mut path_occurrences: HashMap<PathId, usize> = HashMap::new();
        let mut path_document_frequency: HashMap<PathId, usize> = HashMap::new();

        // Global vocabulary: every distinct keyword once, by `&str`; rows are
        // (keyword, path, occurrences).
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut keywords: Vec<&str> = Vec::new();
        let mut rows: Vec<(u32, PathId, usize)> = Vec::new();
        for shard in &shards {
            let global: Vec<u32> =
                shard.terms.iter().map(|t| intern_term(&mut ids, &mut keywords, t)).collect();
            let postings = shard.postings.iter();
            rows.extend(postings.map(|&(term, path, count)| (global[term as usize], path, count)));
            text_paths.extend(shard.text_paths.iter().copied());
            for (&path, &(occurrences, documents)) in &shard.path_counts {
                *path_occurrences.entry(path).or_insert(0) += occurrences;
                *path_document_frequency.entry(path).or_insert(0) += documents;
                all_paths.insert(path);
            }
        }
        let global: Vec<u32> =
            tag_terms.iter().map(|t| intern_term(&mut ids, &mut keywords, t)).collect();
        rows.extend(
            tag_rows.into_iter().map(|(term, path, count)| (global[term as usize], path, count)),
        );
        all_paths.extend(collection.paths().iter().map(|(path, _)| path));

        rows.sort_unstable_by_key(|&(term, path, _)| (term, path));
        let mut keyword_paths = HashMap::with_capacity(keywords.len());
        let mut posting_counts = HashMap::new();
        for run in rows.chunk_by(|a, b| a.0 == b.0) {
            let term = keywords[run[0].0 as usize];
            if storage == CountStorage::PostingLists {
                for pair in run.chunk_by(|a, b| a.1 == b.1) {
                    let count = pair.iter().map(|&(_, _, count)| count).sum();
                    posting_counts.insert((term.to_string(), pair[0].1), count);
                }
            }
            keyword_paths.insert(term.to_string(), run.iter().map(|&(_, path, _)| path).collect());
        }

        ContextIndex {
            storage,
            keyword_paths,
            posting_counts,
            path_occurrences,
            path_document_frequency,
            all_paths,
            text_paths,
        }
    }

    /// The count-storage design this index was built with.
    pub fn storage(&self) -> CountStorage {
        self.storage
    }

    /// Number of distinct keywords (content terms plus tag-name terms).
    pub fn keyword_count(&self) -> usize {
        self.keyword_paths.len()
    }

    /// Number of distinct paths known to the index.
    pub fn path_count(&self) -> usize {
        self.all_paths.len()
    }

    /// Total occurrence count of a path in the collection.
    pub fn path_frequency(&self, path: PathId) -> usize {
        self.path_occurrences.get(&path).copied().unwrap_or(0)
    }

    /// Number of documents a path occurs in.
    pub fn path_document_frequency(&self, path: PathId) -> usize {
        self.path_document_frequency.get(&path).copied().unwrap_or(0)
    }

    /// Rough memory footprint of the postings + counts, in entries; used by
    /// the Fig. 8 design-ablation bench to compare the two count storages.
    pub fn count_entries(&self) -> usize {
        match self.storage {
            CountStorage::DocumentStore => self.path_occurrences.len(),
            CountStorage::PostingLists => self.posting_counts.len(),
        }
    }

    fn paths_for_term(&self, term: &str) -> BTreeSet<PathId> {
        self.keyword_paths.get(term).cloned().unwrap_or_default()
    }

    /// Distinct paths whose virtual document satisfies `query`.
    ///
    /// Keyword bags are conjunctive (every keyword must appear somewhere in
    /// the path's virtual document); phrases are approximated conjunctively at
    /// path granularity, which can only over-report contexts — the user will
    /// simply see an extra context to deselect.
    pub fn paths_matching(&self, query: &FullTextQuery) -> BTreeSet<PathId> {
        match query {
            FullTextQuery::Any => self.text_paths.clone(),
            FullTextQuery::Keywords(ts) | FullTextQuery::Phrase(ts) => {
                if ts.is_empty() {
                    return self.text_paths.clone();
                }
                let mut iter = ts.iter();
                let first = iter
                    .next()
                    .expect("invariant: the merge branch requires a non-empty shard list");
                let mut acc = self.paths_for_term(first);
                for t in iter {
                    let next = self.paths_for_term(t);
                    acc = acc.intersection(&next).copied().collect();
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            FullTextQuery::And(a, b) => {
                let a = self.paths_matching(a);
                let b = self.paths_matching(b);
                a.intersection(&b).copied().collect()
            }
            FullTextQuery::Or(a, b) => {
                let a = self.paths_matching(a);
                let b = self.paths_matching(b);
                a.union(&b).copied().collect()
            }
            FullTextQuery::Not(inner) => {
                let inner = self.paths_matching(inner);
                self.all_paths.difference(&inner).copied().collect()
            }
        }
    }

    /// The context bucket of a search query: matching paths with their
    /// absolute frequencies, sorted by descending frequency (the order SEDA
    /// displays them in).
    pub fn context_bucket(&self, query: &FullTextQuery) -> Vec<PathEntry> {
        self.bucket_from_paths(self.paths_matching(query))
    }

    /// Context bucket restricted to paths whose *leaf tag name* matches
    /// `tag` (used when a query term carries a full root-to-leaf context or a
    /// tag-name context; Sec. 5 describes probing the index with the last tag
    /// name in conjunction with the search query).
    pub fn context_bucket_with_tag(
        &self,
        collection: &Collection,
        query: &FullTextQuery,
        tag: &str,
    ) -> Vec<PathEntry> {
        let matching = self.paths_matching(query);
        let filtered: BTreeSet<PathId> = matching
            .into_iter()
            .filter(|&p| {
                collection
                    .paths()
                    .resolve(p)
                    .leaf()
                    .map(|leaf| collection.symbols().resolve(leaf) == tag)
                    .unwrap_or(false)
            })
            .collect();
        self.bucket_from_paths(filtered)
    }

    fn bucket_from_paths(&self, paths: BTreeSet<PathId>) -> Vec<PathEntry> {
        let mut entries: Vec<PathEntry> = paths
            .into_iter()
            .map(|path| PathEntry {
                path,
                frequency: self.lookup_frequency(path),
                document_frequency: self.path_document_frequency(path),
            })
            .collect();
        entries.sort_by(|a, b| b.frequency.cmp(&a.frequency).then(a.path.cmp(&b.path)));
        entries
    }

    fn lookup_frequency(&self, path: PathId) -> usize {
        match self.storage {
            CountStorage::DocumentStore => self.path_frequency(path),
            CountStorage::PostingLists => {
                // The duplicated counts are per (keyword, path); the absolute
                // path frequency is still served from the per-path map, which
                // both designs keep for document statistics.
                self.path_frequency(path)
            }
        }
    }
}

/// The global id of `term`, interning it on first sight.
fn intern_term<'a>(
    ids: &mut HashMap<&'a str, u32>,
    keywords: &mut Vec<&'a str>,
    term: &'a str,
) -> u32 {
    *ids.entry(term).or_insert_with(|| {
        keywords.push(term);
        keywords.len() as u32 - 1
    })
}

/// The tag-name pass: every label on a path contributes the path to the
/// posting list of each of the label's tokens, counted once per step.
/// Returns the tag vocabulary and its (term, path, occurrences) rows.
///
/// Each distinct label symbol is tokenized once into build-local term ids;
/// an epoch stamp per term (the path id + 1 it was last counted on) dedupes a
/// path's tokens, so each (keyword, path) pair is pushed once, in path order.
fn tag_postings(collection: &Collection) -> (Vec<String>, Vec<(u32, PathId, usize)>) {
    let mut ids: HashMap<String, u32> = HashMap::new();
    let symbol_terms: Vec<Vec<u32>> = collection
        .symbols()
        .iter()
        .map(|(_, label)| {
            let tokens = terms(label).into_iter().map(|token| {
                let next = ids.len() as u32;
                *ids.entry(token).or_insert(next)
            });
            tokens.collect()
        })
        .collect();
    let mut rows = Vec::new();
    // Per term: the stamp of the path it was last counted on, and its count
    // on that path.
    let mut seen: Vec<(u32, usize)> = vec![(0, 0); ids.len()];
    let mut touched: Vec<u32> = Vec::new();
    for (path, label_path) in collection.paths().iter() {
        let stamp = path.0 + 1;
        for step in label_path.steps() {
            for &term in &symbol_terms[step.index()] {
                let (last, count) = &mut seen[term as usize];
                if *last != stamp {
                    (*last, *count) = (stamp, 0);
                    touched.push(term);
                }
                *count += 1;
            }
        }
        rows.extend(touched.drain(..).map(|term| (term, path, seen[term as usize].1)));
    }
    let mut vocabulary = vec![String::new(); ids.len()];
    for (term, id) in ids {
        vocabulary[id as usize] = term;
    }
    (vocabulary, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    fn sample() -> (Collection, ContextIndex) {
        let docs = vec![
            (
                "us.xml",
                r#"<country><name>United States</name><year>2006</year>
                   <economy>
                     <import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                     </import_partners>
                     <export_partners>
                       <item><trade_country>Canada</trade_country><percentage>23.4</percentage></item>
                     </export_partners>
                   </economy></country>"#,
            ),
            (
                "mexico.xml",
                r#"<country><name>Mexico</name><year>2003</year>
                   <economy>
                     <export_partners>
                       <item><trade_country>United States</trade_country><percentage>70.6</percentage></item>
                     </export_partners>
                   </economy></country>"#,
            ),
        ];
        let collection = parse_collection(docs).unwrap();
        let index = ContextIndex::build(&collection, CountStorage::DocumentStore);
        (collection, index)
    }

    fn path_strings(collection: &Collection, entries: &[PathEntry]) -> Vec<String> {
        entries.iter().map(|e| collection.path_string(e.path)).collect()
    }

    #[test]
    fn united_states_occurs_in_two_contexts() {
        let (collection, index) = sample();
        let bucket = index.context_bucket(&FullTextQuery::phrase("United States"));
        let paths = path_strings(&collection, &bucket);
        assert!(paths.contains(&"/country/name".to_string()));
        assert!(paths.contains(&"/country/economy/export_partners/item/trade_country".to_string()));
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn tag_name_keywords_are_indexed() {
        let (collection, index) = sample();
        // "percentage" never appears as content, only as a tag name; its
        // bucket must contain both import- and export-partner percentage
        // contexts (the paper's Query 1 relies on this).
        let bucket = index.context_bucket(&FullTextQuery::keywords("percentage"));
        let paths = path_strings(&collection, &bucket);
        assert!(paths.contains(&"/country/economy/import_partners/item/percentage".to_string()));
        assert!(paths.contains(&"/country/economy/export_partners/item/percentage".to_string()));
    }

    #[test]
    fn frequencies_are_absolute_path_counts() {
        let (collection, index) = sample();
        let bucket = index.context_bucket(&FullTextQuery::keywords("trade country"));
        // Export-partner trade_country occurs twice (US->Canada, Mexico->US),
        // import-partner trade_country once.
        let export: Vec<&PathEntry> = bucket
            .iter()
            .filter(|e| collection.path_string(e.path).contains("export_partners"))
            .collect();
        let import: Vec<&PathEntry> = bucket
            .iter()
            .filter(|e| collection.path_string(e.path).contains("import_partners"))
            .collect();
        assert_eq!(export[0].frequency, 2);
        assert_eq!(import[0].frequency, 1);
        // Sorted by descending frequency.
        assert!(bucket[0].frequency >= bucket[bucket.len() - 1].frequency);
    }

    #[test]
    fn match_all_bucket_contains_only_text_paths() {
        let (collection, index) = sample();
        let bucket = index.context_bucket(&FullTextQuery::Any);
        let paths = path_strings(&collection, &bucket);
        assert!(paths.contains(&"/country/year".to_string()));
        assert!(
            !paths.contains(&"/country/economy".to_string()),
            "interior structural nodes without text are not contexts for `*`"
        );
    }

    #[test]
    fn tag_filtered_bucket_restricts_to_leaf_name() {
        let (collection, index) = sample();
        let bucket =
            index.context_bucket_with_tag(&collection, &FullTextQuery::Any, "trade_country");
        let paths = path_strings(&collection, &bucket);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.ends_with("/trade_country")));
    }

    #[test]
    fn boolean_queries_combine_path_sets() {
        let (collection, index) = sample();
        let q = FullTextQuery::parse("china OR canada").unwrap();
        let bucket = index.context_bucket(&q);
        let paths = path_strings(&collection, &bucket);
        assert!(paths.iter().any(|p| p.contains("import_partners")));
        assert!(paths.iter().any(|p| p.contains("export_partners")));

        let not_q = FullTextQuery::parse("NOT china").unwrap();
        let bucket = index.context_bucket(&not_q);
        assert!(!path_strings(&collection, &bucket)
            .contains(&"/country/economy/import_partners/item/trade_country".to_string()));
    }

    #[test]
    fn both_count_storages_agree_on_buckets() {
        let (collection, _) = sample();
        let doc_store = ContextIndex::build(&collection, CountStorage::DocumentStore);
        let postings = ContextIndex::build(&collection, CountStorage::PostingLists);
        let q = FullTextQuery::phrase("united states");
        assert_eq!(doc_store.context_bucket(&q), postings.context_bucket(&q));
        // The posting-list design stores at least as many count entries.
        assert!(postings.count_entries() >= doc_store.count_entries());
    }

    #[test]
    fn merged_shards_equal_sequential_build_for_both_storages() {
        let (collection, _) = sample();
        for storage in [CountStorage::DocumentStore, CountStorage::PostingLists] {
            let sequential = ContextIndex::build(&collection, storage);
            let mut shards: Vec<ContextIndexShard> =
                collection.documents().map(|doc| ContextIndex::build_shard(doc, storage)).collect();
            shards.reverse(); // merge must not depend on shard order
            let merged = ContextIndex::merge(&collection, storage, shards);
            assert_eq!(merged, sequential);
        }
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn merge_rejects_mismatched_count_storage() {
        let (collection, _) = sample();
        let shards: Vec<ContextIndexShard> = collection
            .documents()
            .map(|doc| ContextIndex::build_shard(doc, CountStorage::DocumentStore))
            .collect();
        ContextIndex::merge(&collection, CountStorage::PostingLists, shards);
    }

    #[test]
    fn merge_of_no_shards_still_indexes_tag_names() {
        let (collection, _) = sample();
        let merged = ContextIndex::merge(&collection, CountStorage::DocumentStore, Vec::new());
        // Content keywords are missing without shards, but tag-name keywords
        // come from the shared path table.
        let bucket = merged.context_bucket(&FullTextQuery::keywords("percentage"));
        assert!(!bucket.is_empty());
    }

    /// The per-step `PostingLists` build, kept as the oracle of the interned
    /// tag pass: it inserts every token occurrence of every text and of
    /// every step of every path into the string-keyed maps.  (Labels are
    /// tokenized once each, which only saves test time.)
    fn reference_build(collection: &Collection) -> ContextIndex {
        let mut index = ContextIndex {
            storage: CountStorage::PostingLists,
            keyword_paths: HashMap::new(),
            posting_counts: HashMap::new(),
            path_occurrences: HashMap::new(),
            path_document_frequency: HashMap::new(),
            all_paths: BTreeSet::new(),
            text_paths: BTreeSet::new(),
        };
        let add = |index: &mut ContextIndex, token: &String, path: PathId| {
            index.keyword_paths.entry(token.clone()).or_default().insert(path);
            *index.posting_counts.entry((token.clone(), path)).or_insert(0) += 1;
        };
        for doc in collection.documents() {
            let mut doc_paths = BTreeSet::new();
            for (_, node) in doc.iter() {
                doc_paths.insert(node.path);
                *index.path_occurrences.entry(node.path).or_insert(0) += 1;
                let tokens = node.text.as_deref().map(terms).unwrap_or_default();
                if !tokens.is_empty() {
                    index.text_paths.insert(node.path);
                }
                for token in &tokens {
                    add(&mut index, token, node.path);
                }
            }
            for path in doc_paths {
                *index.path_document_frequency.entry(path).or_insert(0) += 1;
            }
        }
        let labels: Vec<Vec<String>> =
            collection.symbols().iter().map(|(_, label)| terms(label)).collect();
        for (path_id, label_path) in collection.paths().iter() {
            for step in label_path.steps() {
                for token in &labels[step.index()] {
                    add(&mut index, token, path_id);
                }
            }
            index.all_paths.insert(path_id);
        }
        index
    }

    /// Asserts that both storages' builds equal the per-step build (the
    /// `DocumentStore` design is the same index without duplicated counts).
    fn assert_equals_reference(collection: &Collection, name: &str) {
        let mut expected = reference_build(collection);
        assert_eq!(ContextIndex::build(collection, CountStorage::PostingLists), expected, "{name}");
        expected.storage = CountStorage::DocumentStore;
        expected.posting_counts.clear();
        assert_eq!(
            ContextIndex::build(collection, CountStorage::DocumentStore),
            expected,
            "{name}"
        );
    }

    /// One document nested `depth` deep whose repeating labels include
    /// multi-token ones, with text on every seventh level, next to a flat
    /// document that shares some of the labels.
    fn deep_collection(depth: usize) -> Collection {
        const LABELS: [&str; 5] = ["item", "import_partners", "country", "item", "notes"];
        let mut collection = parse_collection(vec![(
            "flat.xml",
            "<item><trade_country>Chile</trade_country><notes>item notes</notes></item>",
        )])
        .unwrap();
        collection
            .add_document("deep.xml", |b| {
                for level in 0..depth {
                    b.start_element(LABELS[(level * 7 + level / 3) % LABELS.len()])?;
                    if level % 7 == 0 {
                        b.text(&format!("trade item {}", level % 11))?;
                    }
                }
                for _ in 0..depth {
                    b.end_element()?;
                }
                Ok(())
            })
            .unwrap();
        collection
    }

    #[test]
    fn interned_tag_pass_equals_the_per_step_build_on_a_deep_document() {
        let collection = deep_collection(2_000);
        let deepest = collection.paths().iter().map(|(_, p)| p.len()).max();
        assert_eq!(deepest, Some(2_000));
        assert_equals_reference(&collection, "deep");
        let index = ContextIndex::build(&collection, CountStorage::DocumentStore);
        assert!(index.keyword_paths["partners"].len() > 1_000, "multi-token labels reach deep");
    }

    #[test]
    fn interned_build_equals_the_per_step_build_on_the_datagen_corpora() {
        for dataset in seda_datagen::Dataset::ALL {
            assert_equals_reference(&dataset.generate_small().unwrap(), dataset.name());
        }
    }

    #[test]
    fn statistics_accessors() {
        let (collection, index) = sample();
        assert_eq!(index.path_count(), collection.distinct_path_count());
        assert!(index.keyword_count() > 10);
        let name = collection.paths().get_str(collection.symbols(), "/country/name").unwrap();
        assert_eq!(index.path_frequency(name), 2);
        assert_eq!(index.path_document_frequency(name), 2);
    }
}
