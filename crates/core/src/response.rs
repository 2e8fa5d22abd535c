//! Responses of the unified query facade.
//!
//! Every executed [`crate::SedaRequest`] produces one [`SedaResponse`]: a
//! statement-shaped [`ResponsePayload`] plus the unified [`ExecProfile`]
//! describing the work performed — sorted/random accesses of the Threshold
//! Algorithm, label probes of the connectivity-oracle checks, rows produced,
//! and the plan/execution wall split.

use seda_olap::{CubeResult, QueryResultTable, StarSchemaBuild};
use seda_topk::{SearchStats, TopKResult};

use crate::summaries::{ConnectionSummary, ContextSummary};
use crate::trace::SpanRecord;

/// Unified work counters and wall time of one request → response trip.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecProfile {
    /// Seconds spent planning (validation + context resolution).
    pub plan_secs: f64,
    /// Seconds spent executing the plan.
    pub exec_secs: f64,
    /// Entries consumed from sorted posting lists.
    pub sorted_accesses: usize,
    /// Random-access score probes.
    pub random_accesses: usize,
    /// Candidate tuples whose connectivity/compactness was evaluated.
    pub tuples_scored: usize,
    /// Candidate tuples discarded as disconnected.
    pub tuples_disconnected: usize,
    /// Candidate combinations clipped by the candidate limit (non-zero means
    /// a best-effort top-k).
    pub candidates_truncated: usize,
    /// Label entries scanned by connectivity-oracle intersections during
    /// connectivity/compactness checks.
    pub label_probes: u64,
    /// True when the Threshold Algorithm stopped on its threshold with
    /// unseen postings left.
    pub early_terminated: bool,
    /// Rows (tuples, bucket entries, connections, table rows or cube cells)
    /// in the payload.
    pub rows: usize,
    /// Aggregate work units spent against the request's [`crate::Budget`]
    /// (sorted + random accesses + tuples scored + label probes + rows);
    /// the cross-resource yardstick admission control can meter.
    pub budget_spent: u64,
    /// True when a budget ceiling was hit and the caller opted into a
    /// degraded response: the payload is the exact prefix computed before
    /// the breach, not the full answer.
    pub degraded: bool,
    /// Per-stage span breakdown of the execution, recorded when the reader's
    /// [`crate::Tracer`] is enabled (always on for `EXPLAIN ANALYZE`);
    /// empty otherwise.
    pub spans: Vec<SpanRecord>,
}

impl ExecProfile {
    /// Folds the counters of one search into the profile.
    pub fn absorb(&mut self, stats: &SearchStats) {
        self.sorted_accesses += stats.sorted_accesses;
        self.random_accesses += stats.random_accesses;
        self.tuples_scored += stats.tuples_scored;
        self.tuples_disconnected += stats.tuples_disconnected;
        self.candidates_truncated += stats.candidates_truncated;
        self.label_probes += stats.label_probes;
        self.early_terminated |= stats.early_terminated;
    }

    /// Total request wall time (plan + execution).
    pub fn total_secs(&self) -> f64 {
        self.plan_secs + self.exec_secs
    }

    /// Settles [`ExecProfile::budget_spent`] from the final counters (sorted
    /// plus random accesses, tuples scored, label probes and rows) — the one
    /// cross-resource formula every governed path shares.
    pub fn settle_budget_spent(&mut self) {
        self.budget_spent = self.sorted_accesses as u64
            + self.random_accesses as u64
            + self.tuples_scored as u64
            + self.label_probes
            + self.rows as u64;
    }

    /// Renders the profile as a human-readable line.
    pub fn render(&self) -> String {
        format!(
            "profile: {:.3}ms total ({:.3}ms plan, {:.3}ms exec), {} rows, \
             {} sorted / {} random accesses, {} tuples scored \
             ({} disconnected, {} truncated), {} label probes{}",
            self.total_secs() * 1e3,
            self.plan_secs * 1e3,
            self.exec_secs * 1e3,
            self.rows,
            self.sorted_accesses,
            self.random_accesses,
            self.tuples_scored,
            self.tuples_disconnected,
            self.candidates_truncated,
            self.label_probes,
            if self.early_terminated { ", early-terminated" } else { "" },
        ) + if self.degraded { " [degraded: budget exhausted]" } else { "" }
    }
}

/// The statement-shaped result of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponsePayload {
    /// Result of a `TOPK` statement.
    TopK(TopKResult),
    /// Result of a `CONTEXTS` statement.
    Contexts(ContextSummary),
    /// Result of a `CONNECTIONS` statement: the summary plus the top-k
    /// result it derives from.
    Connections {
        /// The underlying top-k result.
        top_k: TopKResult,
        /// The pairwise connection summary.
        summary: ConnectionSummary,
    },
    /// Result of a `RESULTS` or `TWIG` statement.
    Table(QueryResultTable),
    /// Result of a `CUBE` statement: the derived schema plus the aggregate.
    Cube {
        /// The star-schema derivation (fact/dimension tables, warnings).
        build: StarSchemaBuild,
        /// The aggregated cube.
        cube: CubeResult,
    },
    /// Result of an `EXPLAIN` request: the plan transcript.
    Explain(String),
}

impl ResponsePayload {
    /// Number of result rows the payload carries.
    pub fn rows(&self) -> usize {
        match self {
            ResponsePayload::TopK(r) => r.tuples.len(),
            ResponsePayload::Contexts(s) => s.total_contexts(),
            ResponsePayload::Connections { summary, .. } => summary.len(),
            ResponsePayload::Table(t) => t.len(),
            ResponsePayload::Cube { cube, .. } => cube.len(),
            ResponsePayload::Explain(_) => 0,
        }
    }
}

/// The response of one executed request.
#[derive(Debug, Clone, PartialEq)]
pub struct SedaResponse {
    /// The statement-shaped result.
    pub payload: ResponsePayload,
    /// Unified work counters and wall times.
    pub profile: ExecProfile,
}

impl SedaResponse {
    /// The top-k result, when the payload carries one.
    pub fn top_k(&self) -> Option<&TopKResult> {
        match &self.payload {
            ResponsePayload::TopK(r) => Some(r),
            ResponsePayload::Connections { top_k, .. } => Some(top_k),
            _ => None,
        }
    }

    /// The context summary, when the payload carries one.
    pub fn contexts(&self) -> Option<&ContextSummary> {
        match &self.payload {
            ResponsePayload::Contexts(s) => Some(s),
            _ => None,
        }
    }

    /// The connection summary, when the payload carries one.
    pub fn connections(&self) -> Option<&ConnectionSummary> {
        match &self.payload {
            ResponsePayload::Connections { summary, .. } => Some(summary),
            _ => None,
        }
    }

    /// The result table, when the payload carries one.
    pub fn table(&self) -> Option<&QueryResultTable> {
        match &self.payload {
            ResponsePayload::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The aggregated cube, when the payload carries one.
    pub fn cube(&self) -> Option<&CubeResult> {
        match &self.payload {
            ResponsePayload::Cube { cube, .. } => Some(cube),
            _ => None,
        }
    }

    /// The star-schema build, when the payload carries one.
    pub fn schema_build(&self) -> Option<&StarSchemaBuild> {
        match &self.payload {
            ResponsePayload::Cube { build, .. } => Some(build),
            _ => None,
        }
    }

    /// The explain transcript, when the payload carries one.
    pub fn explain_transcript(&self) -> Option<&str> {
        match &self.payload {
            ResponsePayload::Explain(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_absorbs_search_stats() {
        let mut profile = ExecProfile::default();
        let stats = SearchStats {
            sorted_accesses: 5,
            random_accesses: 2,
            tuples_scored: 3,
            tuples_disconnected: 1,
            candidates_truncated: 0,
            label_probes: 40,
            early_terminated: true,
        };
        profile.absorb(&stats);
        profile.absorb(&stats);
        assert_eq!(profile.sorted_accesses, 10);
        assert_eq!(profile.label_probes, 80);
        assert!(profile.early_terminated);
        assert!(profile.render().contains("10 sorted"));
    }

    #[test]
    fn payload_rows_count_the_result_shape() {
        assert_eq!(ResponsePayload::TopK(TopKResult::default()).rows(), 0);
        assert_eq!(ResponsePayload::Explain("plan".into()).rows(), 0);
        let table = QueryResultTable::new(vec!["a".into()]);
        assert_eq!(ResponsePayload::Table(table).rows(), 0);
    }
}
