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

use std::collections::{BTreeSet, HashMap};

use seda_xmlstore::{Collection, DocId, Document, PathId};

use crate::query::FullTextQuery;
use crate::tokenize::terms;

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
    keyword_paths: HashMap<String, BTreeSet<PathId>>,
    posting_counts: HashMap<(String, PathId), usize>,
    text_paths: BTreeSet<PathId>,
    element_paths: BTreeSet<PathId>,
    path_occurrences: HashMap<PathId, usize>,
}

impl ContextIndexShard {
    /// The document this shard was built from.
    pub fn doc(&self) -> Option<DocId> {
        self.doc
    }

    /// Number of distinct keywords contributed by this document's content.
    pub fn keyword_count(&self) -> usize {
        self.keyword_paths.len()
    }
}

impl ContextIndex {
    /// Builds the index over a collection.
    ///
    /// This is the sequential reference path; it is equivalent to building
    /// one shard per document with [`ContextIndex::build_shard`] and
    /// combining them with [`ContextIndex::merge`].
    pub fn build(collection: &Collection, storage: CountStorage) -> Self {
        let shards = collection.documents().map(|doc| Self::build_shard(doc, storage)).collect();
        Self::merge(collection, storage, shards)
    }

    /// Builds the partial index of a single document (the per-shard phase of
    /// the shard → merge build lifecycle).
    pub fn build_shard(doc: &Document, storage: CountStorage) -> ContextIndexShard {
        let mut shard = ContextIndexShard {
            doc: Some(doc.id),
            storage: Some(storage),
            ..ContextIndexShard::default()
        };
        for (_, node) in doc.iter() {
            shard.element_paths.insert(node.path);
            *shard.path_occurrences.entry(node.path).or_insert(0) += 1;
            // Content keywords.
            if let Some(text) = node.text.as_deref() {
                let tokens = terms(text);
                if !tokens.is_empty() {
                    shard.text_paths.insert(node.path);
                }
                for token in tokens {
                    shard.keyword_paths.entry(token.clone()).or_default().insert(node.path);
                    if storage == CountStorage::PostingLists {
                        *shard.posting_counts.entry((token, node.path)).or_insert(0) += 1;
                    }
                }
            }
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
    /// `storage`: a `DocumentStore` shard carries no duplicated posting
    /// counts, so merging it into a `PostingLists` index would silently drop
    /// frequencies.
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
        let mut keyword_paths: HashMap<String, BTreeSet<PathId>> = HashMap::new();
        let mut posting_counts: HashMap<(String, PathId), usize> = HashMap::new();
        let mut text_paths: BTreeSet<PathId> = BTreeSet::new();
        let mut all_paths: BTreeSet<PathId> = BTreeSet::new();
        let mut path_occurrences: HashMap<PathId, usize> = HashMap::new();
        let mut path_document_frequency: HashMap<PathId, usize> = HashMap::new();

        for shard in shards {
            for (term, paths) in shard.keyword_paths {
                keyword_paths.entry(term).or_default().extend(paths);
            }
            if storage == CountStorage::PostingLists {
                for (key, count) in shard.posting_counts {
                    *posting_counts.entry(key).or_insert(0) += count;
                }
            }
            text_paths.extend(shard.text_paths.iter().copied());
            all_paths.extend(shard.element_paths.iter().copied());
            for (&path, &count) in &shard.path_occurrences {
                *path_occurrences.entry(path).or_insert(0) += count;
            }
            for &path in &shard.element_paths {
                *path_document_frequency.entry(path).or_insert(0) += 1;
            }
        }

        // Tag-name keywords: every label on a path contributes the path to the
        // label's posting list.  The path table is shared by all documents, so
        // this pass is global rather than per shard.
        for (path_id, label_path) in collection.paths().iter() {
            for &step in label_path.steps() {
                for token in terms(collection.symbols().resolve(step)) {
                    keyword_paths.entry(token.clone()).or_default().insert(path_id);
                    if storage == CountStorage::PostingLists {
                        *posting_counts.entry((token, path_id)).or_insert(0) += 1;
                    }
                }
            }
            all_paths.insert(path_id);
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
