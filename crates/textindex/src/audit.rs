//! Structural invariant auditing — the `seda-audit` layer for the full-text
//! indexes.
//!
//! # Invariant catalog (substrate `textindex`)
//!
//! | class | invariant |
//! |---|---|
//! | `termdict-bijection` | the term dictionary round-trips: `get(resolve(id)) == id` both ways, one id and one posting list per term |
//! | `csr-offsets` | `posting_offsets` has length `dict.len() + 1`, starts at 0, is monotone and ends at the arena length |
//! | `postings-sorted` | every per-term posting slice is sorted by (score desc, node asc), scores finite, nodes distinct |
//! | `node-side-table` | slots are dense and ascending by node id; `node_slots` is the exact inverse; side tables align, and each slot's token row is as long as its token count; the per-path match-all runs hold every slot once, under its own path, in (score desc, node asc) order |
//! | `context-paths` | every path referenced by the context index is a member of its own `all_paths` universe |
//!
//! The violation type lives in [`seda_xmlstore::audit`] so every substrate
//! reports through one shape; see there for the catalog conventions.

use seda_xmlstore::audit::{finish, AuditResult, InvariantViolation};
use seda_xmlstore::PathId;

use crate::context_index::ContextIndex;
use crate::dict::TermId;
use crate::node_index::NodeIndex;

const SUBSTRATE: &str = "textindex";

impl NodeIndex {
    /// Verifies the frozen read model: dictionary bijection, CSR offset
    /// well-formedness, per-term posting order and the node side table.
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        self.verify_dict(&mut violations);
        self.verify_posting_arena(&mut violations);
        self.verify_side_table(&mut violations);
        finish(violations)
    }

    fn verify_dict(&self, violations: &mut Vec<InvariantViolation>) {
        if self.dict.ids.len() != self.dict.terms.len() {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "termdict-bijection",
                format!(
                    "{} reverse entries for {} terms",
                    self.dict.ids.len(),
                    self.dict.terms.len()
                ),
            ));
        }
        for (id, term) in self.dict.terms() {
            if self.dict.get(term) != Some(id) {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "termdict-bijection",
                    format!("term {term:?} does not round-trip to id {}", id.0),
                ));
            }
        }
        let lists = self.posting_offsets.len().saturating_sub(1);
        if self.dict.len() != lists {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "termdict-bijection",
                format!(
                    "dictionary holds {} terms but the index has {lists} posting lists",
                    self.dict.len()
                ),
            ));
        }
        if self.idf_by_term.len() != self.dict.len() {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "termdict-bijection",
                format!("{} idf entries for {} terms", self.idf_by_term.len(), self.dict.len()),
            ));
        }
    }

    fn verify_posting_arena(&self, violations: &mut Vec<InvariantViolation>) {
        let offsets = &self.posting_offsets;
        if offsets.is_empty() && self.dict.is_empty() && self.sorted_postings.is_empty() {
            // A default-constructed (never merged) index has no frozen arena
            // at all, which is well-formed vacuously.
            return;
        }
        if offsets.len() != self.dict.len() + 1 {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "csr-offsets",
                format!("{} offsets for {} terms", offsets.len(), self.dict.len()),
            ));
            return;
        }
        if offsets.first() != Some(&0)
            || offsets.last().map(|&o| o as usize) != Some(self.sorted_postings.len())
        {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "csr-offsets",
                format!(
                    "offsets span {:?}..{:?} over an arena of {}",
                    offsets.first(),
                    offsets.last(),
                    self.sorted_postings.len()
                ),
            ));
        }
        for (i, pair) in offsets.windows(2).enumerate() {
            if pair[0] > pair[1] {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "csr-offsets",
                    format!("offset {i} decreases: {} > {}", pair[0], pair[1]),
                ));
            }
        }
        for id in 0..self.dict.len() as u32 {
            let (start, end) =
                (self.posting_offsets[id as usize], self.posting_offsets[id as usize + 1]);
            if start > end || end as usize > self.sorted_postings.len() {
                continue; // already reported as a csr-offsets violation
            }
            let slice = &self.sorted_postings[start as usize..end as usize];
            for (i, pair) in slice.windows(2).enumerate() {
                let ordered = pair[0].score > pair[1].score
                    || (pair[0].score == pair[1].score && pair[0].node < pair[1].node);
                if !ordered {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "postings-sorted",
                        format!(
                            "term {:?} postings {i},{}: ({:?}, {}) then ({:?}, {})",
                            self.dict.resolve(TermId(id)),
                            i + 1,
                            pair[0].node,
                            pair[0].score,
                            pair[1].node,
                            pair[1].score
                        ),
                    ));
                }
            }
            for scored in slice {
                if !scored.score.is_finite() {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "postings-sorted",
                        format!(
                            "term {:?} posting for {:?} has non-finite score",
                            self.dict.resolve(TermId(id)),
                            scored.node
                        ),
                    ));
                }
            }
        }
    }

    fn verify_side_table(&self, violations: &mut Vec<InvariantViolation>) {
        let n = self.slot_nodes.len();
        if self.slot_paths.len() != n
            || self.slot_token_counts.len() != n
            || self.slot_tokens.len() != n
            || self.node_slots.len() != n
        {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "node-side-table",
                format!(
                    "side tables disagree: {} nodes, {} paths, {} lengths, {} token rows, {} slots",
                    n,
                    self.slot_paths.len(),
                    self.slot_token_counts.len(),
                    self.slot_tokens.len(),
                    self.node_slots.len()
                ),
            ));
        }
        for (slot, (tokens, &count)) in
            self.slot_tokens.iter().zip(&self.slot_token_counts).enumerate()
        {
            if tokens.len() != count as usize {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "node-side-table",
                    format!("slot {slot} holds {} tokens but counts {count}", tokens.len()),
                ));
            }
        }
        for (i, pair) in self.slot_nodes.windows(2).enumerate() {
            if pair[0] >= pair[1] {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "node-side-table",
                    format!(
                        "slot {i} node {:?} not before slot {} node {:?}",
                        pair[0],
                        i + 1,
                        pair[1]
                    ),
                ));
            }
        }
        for (slot, node) in self.slot_nodes.iter().enumerate() {
            if self.node_slots.get(node).copied() != Some(slot as u32) {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "node-side-table",
                    format!("slot {slot} node {node:?} missing its inverse mapping"),
                ));
            }
        }
        self.verify_path_runs(violations);
    }

    /// The match-all runs partition the slots by context path.
    fn verify_path_runs(&self, violations: &mut Vec<InvariantViolation>) {
        let offsets = &self.path_run_offsets;
        let slots = &self.path_run_slots;
        let mut broken = |detail: String| {
            violations.push(InvariantViolation::new(SUBSTRATE, "node-side-table", detail));
        };
        if slots.len() != self.slot_paths.len()
            || offsets.first().copied().unwrap_or(0) != 0
            || offsets.last().copied().unwrap_or(0) as usize != slots.len()
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            broken(format!(
                "match-all runs: {} offsets over {} slots for {} indexed nodes",
                offsets.len(),
                slots.len(),
                self.slot_paths.len()
            ));
            return;
        }
        let mut seen = vec![false; slots.len()];
        for (path, run) in offsets.windows(2).enumerate() {
            let run = &slots[run[0] as usize..run[1] as usize];
            for &slot in run {
                let owner = self.slot_paths.get(slot as usize).map(|p| p.index());
                if owner != Some(path) || std::mem::replace(&mut seen[slot as usize], true) {
                    broken(format!("match-all run of path {path} holds slot {slot} wrongly"));
                }
            }
            let key = |slot: u32| {
                (self.slot_token_counts.get(slot as usize).map_or(0, |&t| t.max(1)), slot)
            };
            if run.windows(2).any(|w| key(w[0]) >= key(w[1])) {
                broken(format!("match-all run of path {path} is not in score order"));
            }
        }
    }

    /// Test-only corruption hook: swaps two entries of the frozen posting
    /// arena (breaks `postings-sorted` without touching offsets).
    #[doc(hidden)]
    pub fn corrupt_swap_sorted_postings(&mut self, a: usize, b: usize) {
        self.sorted_postings.swap(a, b);
    }

    /// Test-only corruption hook: overwrites one CSR offset (breaks
    /// `csr-offsets` monotonicity / bounds).
    #[doc(hidden)]
    pub fn corrupt_posting_offset(&mut self, index: usize, value: u32) {
        self.posting_offsets[index] = value;
    }

    /// Test-only corruption hook: rewrites one dictionary term without
    /// updating the reverse map (breaks `termdict-bijection`).
    #[doc(hidden)]
    pub fn corrupt_dict_term(&mut self, id: TermId, term: &str) {
        self.dict.terms[id.index()] = term.to_string();
    }

    /// Test-only corruption hook: swaps two node side-table slots (breaks
    /// `node-side-table` ordering and the inverse mapping).
    #[doc(hidden)]
    pub fn corrupt_swap_slot_nodes(&mut self, a: usize, b: usize) {
        self.slot_nodes.swap(a, b);
    }

    /// Test-only corruption hook: swaps two entries of the match-all run
    /// arena (breaks `node-side-table` when the slots lie in different
    /// paths' runs).
    #[doc(hidden)]
    pub fn corrupt_swap_path_run_slots(&mut self, a: usize, b: usize) {
        self.path_run_slots.swap(a, b);
    }

    /// Test-only corruption hook: drops the last token of one slot's token
    /// row (breaks `node-side-table`: the row no longer matches its count).
    #[doc(hidden)]
    pub fn corrupt_pop_slot_token(&mut self, slot: usize) {
        self.slot_tokens[slot].pop();
    }

    /// The number of entries in the frozen posting arena (sizing input for
    /// the corruption suite's swap hook).
    #[doc(hidden)]
    pub fn sorted_posting_len(&self) -> usize {
        self.sorted_postings.len()
    }

    /// One term's `[start, end)` slice of the frozen posting arena (targeting
    /// input for the corruption suite's swap hook).
    #[doc(hidden)]
    pub fn posting_range(&self, id: TermId) -> (usize, usize) {
        let start = self.posting_offsets[id.index()] as usize;
        let end = self.posting_offsets[id.index() + 1] as usize;
        (start, end)
    }
}

impl ContextIndex {
    /// Verifies that every path the context index references belongs to its
    /// own path universe, and that duplicated posting counts exist exactly
    /// when the `PostingLists` storage design is active.
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        // The role is rendered only for a violation: the passing check stays
        // allocation-free over every (keyword, path) entry.
        let mut check_member = |path: &PathId, role: &dyn Fn() -> String| {
            if !self.all_paths.contains(path) {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "context-paths",
                    format!("{} references path {} outside the universe", role(), path.0),
                ));
            }
        };
        for path in &self.text_paths {
            check_member(path, &|| "text-path set".to_string());
        }
        for (term, paths) in &self.keyword_paths {
            for path in paths {
                check_member(path, &|| format!("keyword {term:?}"));
            }
        }
        for path in self.path_occurrences.keys() {
            check_member(path, &|| "occurrence counts".to_string());
        }
        for path in self.path_document_frequency.keys() {
            check_member(path, &|| "document frequencies".to_string());
        }
        for (term, path) in self.posting_counts.keys() {
            check_member(path, &|| format!("posting count of {term:?}"));
        }
        if self.storage == crate::context_index::CountStorage::DocumentStore
            && !self.posting_counts.is_empty()
        {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "context-paths",
                format!(
                    "document-store design carries {} duplicated posting counts",
                    self.posting_counts.len()
                ),
            ));
        }
        finish(violations)
    }

    /// Test-only corruption hook: registers a text path outside the path
    /// universe (breaks `context-paths`).
    #[doc(hidden)]
    pub fn corrupt_insert_text_path(&mut self, path: PathId) {
        self.text_paths.insert(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context_index::CountStorage;
    use seda_xmlstore::parse_collection;

    fn sample() -> (seda_xmlstore::Collection, NodeIndex) {
        let collection = parse_collection(vec![
            ("a.xml", "<country><name>United States</name><year>2006</year></country>"),
            ("b.xml", "<country><name>United Mexican States</name><year>2003</year></country>"),
        ])
        .unwrap();
        let index = NodeIndex::build(&collection);
        (collection, index)
    }

    #[test]
    fn fresh_indexes_pass() {
        let (collection, index) = sample();
        assert_eq!(index.verify(), Ok(()));
        let ctx = ContextIndex::build(&collection, CountStorage::DocumentStore);
        assert_eq!(ctx.verify(), Ok(()));
        assert_eq!(NodeIndex::default().verify(), Ok(()));
    }

    #[test]
    fn swapped_postings_fail_postings_sorted() {
        let (_, mut index) = sample();
        // "united" has two postings with distinct scores; swapping them breaks
        // the (score desc, node asc) order of exactly one term slice.
        let term = index.term_dict().get("united").unwrap();
        let start = index.posting_offsets[term.index()] as usize;
        index.corrupt_swap_sorted_postings(start, start + 1);
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "postings-sorted"), "{violations:?}");
    }

    #[test]
    fn decreasing_offset_fails_csr_offsets() {
        let (_, mut index) = sample();
        index.corrupt_posting_offset(1, u32::MAX);
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().any(|v| v.invariant == "csr-offsets"), "{violations:?}");
    }

    #[test]
    fn rewritten_term_fails_bijection() {
        let (_, mut index) = sample();
        index.corrupt_dict_term(TermId(0), "zzz-intruder");
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "termdict-bijection"), "{violations:?}");
    }

    #[test]
    fn swapped_slots_fail_side_table() {
        let (_, mut index) = sample();
        index.corrupt_swap_slot_nodes(0, 1);
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "node-side-table"), "{violations:?}");
    }

    #[test]
    fn misplaced_match_all_run_slot_fails_side_table() {
        let (_, mut index) = sample();
        // The first and last runs belong to different paths.
        let last = index.indexed_node_count() - 1;
        index.corrupt_swap_path_run_slots(0, last);
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "node-side-table"), "{violations:?}");
    }

    #[test]
    fn short_token_row_fails_side_table() {
        let (_, mut index) = sample();
        index.corrupt_pop_slot_token(0);
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "node-side-table"), "{violations:?}");
    }

    #[test]
    fn foreign_text_path_fails_context_paths() {
        let (collection, _) = sample();
        let mut ctx = ContextIndex::build(&collection, CountStorage::DocumentStore);
        ctx.corrupt_insert_text_path(seda_xmlstore::PathId(9999));
        let violations = ctx.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "context-paths"), "{violations:?}");
    }
}
