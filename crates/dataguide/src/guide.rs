//! Dataguides and the overlap-threshold merge algorithm (Sec. 6.1).
//!
//! A dataguide summarises the structure of one or more documents as the set of
//! root-to-leaf label paths occurring in them.  SEDA computes one dataguide
//! per document and then merges similar dataguides: two dataguides are merged
//! when their *overlap*
//!
//! ```text
//! overlap(dg1, dg2) = min( |common| / |paths(dg1)| , |common| / |paths(dg2)| )
//! ```
//!
//! exceeds a threshold (40% in Table 1).  The merge keeps the summary small on
//! regular corpora (Google Base: 10000 documents → 88 dataguides) while
//! heterogeneous corpora such as the World Factbook retain many more guides.

use std::collections::{BTreeSet, HashMap};

use seda_xmlstore::{Collection, DocId, PathId};

/// Identifier of a dataguide within a [`DataGuideSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GuideId(pub u32);

impl GuideId {
    /// Raw index into the owning set.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One dataguide: a set of root-to-leaf paths plus the documents it covers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataGuide {
    pub(crate) paths: BTreeSet<PathId>,
    pub(crate) documents: Vec<DocId>,
}

impl DataGuide {
    /// Builds the dataguide of a single document.
    pub fn of_document(collection: &Collection, doc: DocId) -> seda_xmlstore::Result<Self> {
        let document = collection.document(doc)?;
        Ok(DataGuide {
            paths: document.distinct_paths().into_iter().collect(),
            documents: vec![doc],
        })
    }

    /// The set of root-to-leaf paths summarised by this guide.
    pub fn paths(&self) -> &BTreeSet<PathId> {
        &self.paths
    }

    /// Number of distinct paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when the guide holds no paths.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Documents covered by this guide.
    pub fn documents(&self) -> &[DocId] {
        &self.documents
    }

    /// True when the guide contains the given path.
    pub fn contains(&self, path: PathId) -> bool {
        self.paths.contains(&path)
    }

    /// Number of paths shared with another guide.
    pub fn common_path_count(&self, other: &DataGuide) -> usize {
        if self.len() <= other.len() {
            self.paths.iter().filter(|p| other.paths.contains(p)).count()
        } else {
            other.paths.iter().filter(|p| self.paths.contains(p)).count()
        }
    }

    /// The paper's overlap measure between two guides.
    pub fn overlap(&self, other: &DataGuide) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let common = self.common_path_count(other) as f64;
        (common / self.len() as f64).min(common / other.len() as f64)
    }

    /// True when every path of `self` also occurs in `other`.
    pub fn is_subset_of(&self, other: &DataGuide) -> bool {
        self.paths.iter().all(|p| other.paths.contains(p))
    }

    /// Absorbs another guide (set union of paths, concatenation of coverage).
    pub fn merge_in(&mut self, other: DataGuide) {
        self.paths.extend(other.paths);
        self.documents.extend(other.documents);
    }
}

/// Statistics of a built dataguide set — one row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DataGuideStats {
    /// Number of documents summarised.
    pub documents: usize,
    /// Number of dataguides after merging.
    pub dataguides: usize,
    /// Total number of paths across all dataguides (the "total size" the paper
    /// says merging reduces).
    pub total_paths: usize,
    /// Reduction factor `documents / dataguides`.
    pub reduction_factor: f64,
    /// Overlap threshold the set was built with.
    pub threshold: f64,
}

/// Per-document dataguides awaiting the threshold merge, produced by
/// [`DataGuideSet::build_shard`] and consumed by [`DataGuideSet::merge`].
///
/// Computing a document's path set is the data-proportional part of dataguide
/// construction and parallelises per document; the greedy 40%-threshold merge
/// is order-sensitive, so it runs once over all shards' guides in document
/// order, guaranteeing the merged set is identical to the sequential build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataGuideShard {
    guides: Vec<(DocId, DataGuide)>,
}

impl DataGuideShard {
    /// Number of per-document guides in this shard.
    pub fn len(&self) -> usize {
        self.guides.len()
    }

    /// True when the shard holds no guides.
    pub fn is_empty(&self) -> bool {
        self.guides.is_empty()
    }

    /// Iterates over the `(document, guide)` pairs of this shard.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &DataGuide)> {
        self.guides.iter().map(|(doc, guide)| (*doc, guide))
    }
}

/// A collection of merged dataguides plus the document → guide assignment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataGuideSet {
    pub(crate) guides: Vec<DataGuide>,
    pub(crate) assignment: HashMap<DocId, GuideId>,
    threshold: f64,
    /// Inverted index path → guides containing it, so one pass over an
    /// incoming guide's paths yields its common-path count with *every*
    /// existing guide (instead of intersecting with each guide separately).
    pub(crate) path_index: HashMap<PathId, Vec<u32>>,
}

impl DataGuideSet {
    /// Runs the paper's merge algorithm over every document of the collection.
    ///
    /// For each document the algorithm computes its dataguide and then:
    /// 1. if the guide is a subset of (or equal to) an existing guide, the
    ///    document is assigned to that guide;
    /// 2. otherwise it is merged into the *best* existing guide whose overlap
    ///    is at least `threshold`;
    /// 3. otherwise it becomes a new dataguide.
    ///
    /// This is the sequential reference path; it is equivalent to building
    /// shards with [`DataGuideSet::build_shard`] and combining them with
    /// [`DataGuideSet::merge`].
    pub fn build(collection: &Collection, threshold: f64) -> seda_xmlstore::Result<Self> {
        let docs: Vec<DocId> = collection.documents().map(|d| d.id).collect();
        let shard = Self::build_shard(collection, docs)?;
        Ok(Self::merge(threshold, vec![shard]))
    }

    /// Computes the per-document dataguides of a batch of documents (the
    /// per-shard phase of the shard → merge build lifecycle).
    pub fn build_shard(
        collection: &Collection,
        docs: impl IntoIterator<Item = DocId>,
    ) -> seda_xmlstore::Result<DataGuideShard> {
        let mut shard = DataGuideShard::default();
        for doc in docs {
            shard.guides.push((doc, DataGuide::of_document(collection, doc)?));
        }
        Ok(shard)
    }

    /// Runs the overlap-threshold merge over the per-document guides of all
    /// shards (the merge phase of the shard → merge build lifecycle).
    ///
    /// Guides are inserted in ascending document order regardless of how the
    /// documents were partitioned into shards, so the result — including the
    /// exact guide boundaries of the order-sensitive greedy algorithm — is
    /// identical to the sequential [`DataGuideSet::build`].
    pub fn merge(threshold: f64, shards: Vec<DataGuideShard>) -> Self {
        let mut pending: Vec<(DocId, DataGuide)> =
            shards.into_iter().flat_map(|s| s.guides).collect();
        pending.sort_by_key(|(doc, _)| *doc);
        let mut set = DataGuideSet { threshold, ..DataGuideSet::default() };
        for (doc, guide) in pending {
            set.insert_guide(doc, guide);
        }
        set
    }

    /// Inserts one document's guide, preserving the paper's greedy semantics:
    /// first subset match wins, else the best guide at or above the overlap
    /// threshold (earliest on ties), else a new guide.  The common-path
    /// counts against all existing guides come from a single pass over the
    /// incoming guide's paths through the inverted path index, instead of a
    /// pairwise intersection per existing guide.
    fn insert_guide(&mut self, doc: DocId, guide: DataGuide) {
        let mut common = vec![0usize; self.guides.len()];
        for path in &guide.paths {
            for &g in self.path_index.get(path).map(Vec::as_slice).unwrap_or(&[]) {
                common[g as usize] += 1;
            }
        }

        // Case 1: subset of an existing guide (all paths shared), first match.
        for (i, &shared) in common.iter().enumerate() {
            if shared == guide.len() {
                self.guides[i].documents.push(doc);
                self.assignment.insert(doc, GuideId(i as u32));
                return;
            }
        }
        // Case 2: merge with the best guide over the threshold.
        let mut best: Option<(usize, f64)> = None;
        for (i, existing) in self.guides.iter().enumerate() {
            let overlap = if guide.is_empty() || existing.is_empty() {
                0.0
            } else {
                let shared = common[i] as f64;
                (shared / guide.len() as f64).min(shared / existing.len() as f64)
            };
            if overlap >= self.threshold && best.map(|(_, b)| overlap > b).unwrap_or(true) {
                best = Some((i, overlap));
            }
        }
        if let Some((i, _)) = best {
            for &path in &guide.paths {
                if !self.guides[i].contains(path) {
                    self.path_index.entry(path).or_default().push(i as u32);
                }
            }
            self.guides[i].merge_in(guide);
            self.assignment.insert(doc, GuideId(i as u32));
            return;
        }
        // Case 3: new dataguide.
        let id = GuideId(self.guides.len() as u32);
        for &path in &guide.paths {
            self.path_index.entry(path).or_default().push(id.0);
        }
        self.guides.push(guide);
        self.assignment.insert(doc, id);
    }

    /// The overlap threshold the set was built with.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of dataguides.
    pub fn len(&self) -> usize {
        self.guides.len()
    }

    /// True when the set holds no guides.
    pub fn is_empty(&self) -> bool {
        self.guides.is_empty()
    }

    /// Borrow a guide.
    pub fn guide(&self, id: GuideId) -> &DataGuide {
        &self.guides[id.index()]
    }

    /// Iterate over `(id, guide)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GuideId, &DataGuide)> {
        self.guides.iter().enumerate().map(|(i, g)| (GuideId(i as u32), g))
    }

    /// Guide a document was assigned to.
    pub fn guide_of_document(&self, doc: DocId) -> Option<GuideId> {
        self.assignment.get(&doc).copied()
    }

    /// All guides containing a given path, in ascending guide order.
    pub fn guides_with_path(&self, path: PathId) -> Vec<GuideId> {
        let mut out: Vec<GuideId> = self
            .path_index
            .get(&path)
            .map(|guides| guides.iter().map(|&g| GuideId(g)).collect())
            .unwrap_or_default();
        out.sort_unstable();
        out
    }

    /// Table 1 statistics for this set.
    pub fn stats(&self, documents: usize) -> DataGuideStats {
        DataGuideStats {
            documents,
            dataguides: self.guides.len(),
            total_paths: self.guides.iter().map(DataGuide::len).sum(),
            reduction_factor: if self.guides.is_empty() {
                0.0
            } else {
                documents as f64 / self.guides.len() as f64
            },
            threshold: self.threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    fn collection_with_shapes() -> Collection {
        parse_collection(vec![
            // Two documents with identical shape.
            ("a1.xml", "<a><x>1</x><y>2</y></a>"),
            ("a2.xml", "<a><x>3</x><y>4</y></a>"),
            // A subset shape (missing y).
            ("a3.xml", "<a><x>5</x></a>"),
            // A heavily overlapping shape (adds z).
            ("a4.xml", "<a><x>6</x><y>7</y><z>8</z></a>"),
            // A completely different shape.
            ("b1.xml", "<b><p>1</p><q>2</q><r>3</r></b>"),
        ])
        .unwrap()
    }

    #[test]
    fn identical_and_subset_shapes_collapse() {
        let c = collection_with_shapes();
        let set = DataGuideSet::build(&c, 0.4).unwrap();
        // a1, a2, a3, a4 collapse into one guide (a4 overlaps 3/4 = 0.75);
        // b1 is its own guide.
        assert_eq!(set.len(), 2);
        let stats = set.stats(c.len());
        assert_eq!(stats.documents, 5);
        assert_eq!(stats.dataguides, 2);
        assert!((stats.reduction_factor - 2.5).abs() < 1e-9);
    }

    #[test]
    fn threshold_one_keeps_distinct_shapes_apart() {
        let c = collection_with_shapes();
        let set = DataGuideSet::build(&c, 1.01).unwrap();
        // Nothing merges except exact-subset/equality cases: a1==a2 and a3 is
        // a subset of the a1 guide; a4 and b1 stay separate.
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn threshold_zero_merges_everything_overlapping() {
        let c = collection_with_shapes();
        let set = DataGuideSet::build(&c, 0.0).unwrap();
        // Even b1 merges once the threshold is zero (overlap 0 >= 0).
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn overlap_is_symmetric_and_bounded() {
        let c = collection_with_shapes();
        let g1 = DataGuide::of_document(&c, seda_xmlstore::DocId(0)).unwrap();
        let g4 = DataGuide::of_document(&c, seda_xmlstore::DocId(3)).unwrap();
        let o = g1.overlap(&g4);
        assert!((g4.overlap(&g1) - o).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&o));
        // g1 has 3 paths (a, a/x, a/y), g4 has 4 (plus a/z): common = 3.
        assert!((o - 0.75).abs() < 1e-12);
    }

    #[test]
    fn document_assignment_is_total() {
        let c = collection_with_shapes();
        let set = DataGuideSet::build(&c, 0.4).unwrap();
        for doc in c.documents() {
            let gid = set.guide_of_document(doc.id).expect("every document is assigned");
            assert!(set.guide(gid).documents().contains(&doc.id));
        }
    }

    #[test]
    fn guides_with_path_lookup() {
        let c = collection_with_shapes();
        let set = DataGuideSet::build(&c, 0.4).unwrap();
        let x = c.paths().get_str(c.symbols(), "/a/x").unwrap();
        let p = c.paths().get_str(c.symbols(), "/b/p").unwrap();
        assert_eq!(set.guides_with_path(x).len(), 1);
        assert_eq!(set.guides_with_path(p).len(), 1);
        assert_ne!(set.guides_with_path(x), set.guides_with_path(p));
    }

    #[test]
    fn merged_guide_covers_union_of_paths() {
        let c = collection_with_shapes();
        let set = DataGuideSet::build(&c, 0.4).unwrap();
        let x = c.paths().get_str(c.symbols(), "/a/x").unwrap();
        let z = c.paths().get_str(c.symbols(), "/a/z").unwrap();
        let gid = set.guides_with_path(x)[0];
        assert!(set.guide(gid).contains(z), "merge keeps the union of paths");
    }

    #[test]
    fn stats_total_paths_counts_all_guides() {
        let c = collection_with_shapes();
        let set = DataGuideSet::build(&c, 0.4).unwrap();
        let stats = set.stats(c.len());
        // Guide A holds 5 paths (a, x, y, z), actually 5 = a,a/x,a/y,a/z => 4;
        // guide B holds 4 (b, p, q, r). Together 8.
        assert_eq!(stats.total_paths, 8);
        assert_eq!(stats.threshold, 0.4);
    }

    #[test]
    fn merged_shards_equal_sequential_build() {
        let c = collection_with_shapes();
        let sequential = DataGuideSet::build(&c, 0.4).unwrap();
        // Partition the five documents into three shards, deliberately out of
        // order: the merge must reassemble document order before inserting.
        let docs: Vec<DocId> = c.documents().map(|d| d.id).collect();
        let shards = vec![
            DataGuideSet::build_shard(&c, vec![docs[3], docs[4]]).unwrap(),
            DataGuideSet::build_shard(&c, vec![docs[0]]).unwrap(),
            DataGuideSet::build_shard(&c, vec![docs[2], docs[1]]).unwrap(),
        ];
        let merged = DataGuideSet::merge(0.4, shards);
        assert_eq!(merged, sequential);
        assert_eq!(merged.stats(c.len()), sequential.stats(c.len()));
    }

    #[test]
    fn shard_exposes_per_document_guides() {
        let c = collection_with_shapes();
        let docs: Vec<DocId> = c.documents().map(|d| d.id).collect();
        let shard = DataGuideSet::build_shard(&c, docs.clone()).unwrap();
        assert_eq!(shard.len(), docs.len());
        assert!(!shard.is_empty());
        for (doc, guide) in shard.iter() {
            assert!(docs.contains(&doc));
            assert!(!guide.is_empty());
        }
    }

    #[test]
    fn merge_of_no_shards_is_empty() {
        let merged = DataGuideSet::merge(0.4, Vec::new());
        assert!(merged.is_empty());
        assert_eq!(merged.threshold(), 0.4);
    }

    #[test]
    fn empty_guides_never_overlap() {
        let empty = DataGuide::default();
        let other = DataGuide::default();
        assert_eq!(empty.overlap(&other), 0.0);
        assert!(empty.is_empty());
    }
}
