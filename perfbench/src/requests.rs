//! Seeded request lists of the two query workloads.
//!
//! Both are lists of *blocks*.  A run executes whole blocks, and every block
//! has the same make-up (statement kinds, term shapes, cost strata), so runs
//! under different seeds do comparable work; the seed picks which corpus
//! labels and values fill each slot, the statement variants and the order.

use std::collections::{BTreeMap, HashSet};

use crate::corpus::Leaf;
use crate::stats::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    TopK,
    Connections,
    Contexts,
    Results,
    Cube,
}

impl Kind {
    pub const ALL: [Kind; 5] =
        [Kind::TopK, Kind::Connections, Kind::Contexts, Kind::Results, Kind::Cube];

    /// Prefix of the per-statement metric names.
    pub fn metric(self) -> &'static str {
        match self {
            Kind::TopK => "topk",
            Kind::Connections => "connections",
            Kind::Contexts => "contexts",
            Kind::Results => "results",
            Kind::Cube => "cube",
        }
    }

    fn of(text: &str) -> Kind {
        match text.split_whitespace().next() {
            Some("TOPK") => Kind::TopK,
            Some("CONNECTIONS") => Kind::Connections,
            Some("CONTEXTS") => Kind::Contexts,
            Some("RESULTS") => Kind::Results,
            _ => Kind::Cube,
        }
    }
}

pub struct Request {
    pub text: String,
    pub kind: Kind,
    /// Index of the prepared statement that serves this request; `None` for
    /// a cold request (parsed, planned and executed on arrival).
    pub prepared: Option<usize>,
}

impl Request {
    fn cold(text: String) -> Self {
        Request { kind: Kind::of(&text), text, prepared: None }
    }
}

/// Cycles of `mondial-explore` blocks generated per run: one per variant of
/// a wildcard pair.  Their 64 blocks take well over a minute to execute.
const CYCLES: usize = 8;

/// `factbook-olap` blocks generated per run; they take over a minute to
/// execute.
const OLAP_BLOCKS: usize = 256;

/// Wildcard-pair statement variants; `k` barely changes the work of the
/// Threshold Algorithm, so the variants share a cost stratum.
const SEARCHES: [&str; 4] = ["TOPK 1", "TOPK 10", "TOPK 100", "CONNECTIONS 10"];

/// Picks leaves with distinct labels from a seeded document that has at
/// least `n` of them.
fn distinct_leaves<'a>(rng: &mut Rng, docs: &[&'a Vec<Leaf>], n: usize) -> Vec<&'a Leaf> {
    loop {
        let doc = docs[rng.below(docs.len())];
        let mut picked: Vec<&Leaf> = Vec::new();
        let mut order: Vec<usize> = (0..doc.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            if !picked.iter().any(|l| l.label == doc[i].label) {
                picked.push(&doc[i]);
            }
        }
        if picked.len() >= n {
            picked.truncate(n);
            return picked;
        }
    }
}

/// Draws a fresh (never used in this run) request text from `make`.
fn fresh(used: &mut HashSet<String>, mut make: impl FnMut() -> String) -> String {
    loop {
        let text = make();
        if used.insert(text.clone()) {
            return text;
        }
    }
}

/// `mondial-explore`: the exploration loop of the paper, all requests cold
/// and none repeated.  The unordered pairs of the corpus's leaf labels are
/// sorted by the product of the two labels' node counts (the size of the
/// candidate space) and cut into strata of eight; a cycle of eight blocks
/// takes one pair of every stratum per block, so every block spans the whole
/// cost range and a cycle covers every pair once.  For each pair `(x, y)` a
/// block holds
/// - a wildcard search `(x, *) AND (y, *)`;
/// - three anchored searches `(x, "v") AND (y, *)` on seeded values `v` of
///   `x`, the third with a third term `(z, "w")` from `v`'s document;
/// - a `CONTEXTS` request `(y, *) AND (*, "v")` on another value of `x`.
///
/// Searches are `TOPK` with k in {1, 10, 100} or `CONNECTIONS 10`.
pub fn explore(
    leaves: &[Vec<Leaf>],
    counts: &BTreeMap<String, usize>,
    seed: u64,
) -> Vec<Vec<Request>> {
    let mut rng = Rng::new(seed);
    let mut values: BTreeMap<&str, Vec<(&Vec<Leaf>, &Leaf)>> = BTreeMap::new();
    for doc in leaves {
        for leaf in doc {
            values.entry(leaf.label.as_str()).or_default().push((doc, leaf));
        }
    }
    let labels: Vec<(&String, usize)> = counts.iter().map(|(l, &c)| (l, c)).collect();
    let mut pairs: Vec<(usize, &str, &str)> = Vec::new();
    for (i, &(a, ca)) in labels.iter().enumerate() {
        for &(b, cb) in &labels[i + 1..] {
            pairs.push((ca * cb, a, b));
        }
    }
    pairs.sort();
    const BLOCKS_PER_CYCLE: usize = 8;
    let strata: Vec<&[(usize, &str, &str)]> = pairs.chunks(BLOCKS_PER_CYCLE).collect();
    let mut used = HashSet::new();
    let mut blocks = Vec::new();
    for _cycle in 0..CYCLES {
        let picks: Vec<Vec<usize>> = strata
            .iter()
            .map(|s| {
                let mut order: Vec<usize> = (0..s.len()).collect();
                rng.shuffle(&mut order);
                order
            })
            .collect();
        for b in 0..BLOCKS_PER_CYCLE {
            let mut block = Vec::new();
            for (stratum, order) in strata.iter().zip(&picks) {
                let Some(&(_, first, second)) = order.get(b).map(|&i| &stratum[i]) else {
                    continue;
                };
                // Eight variants per pair (two term orders, four statements),
                // one per cycle, so no wildcard request repeats in a run.
                let start = rng.below(8);
                let (x, y, text) = (0..8)
                    .map(|v| {
                        let v = (start + v) % 8;
                        let (x, y) =
                            if v.is_multiple_of(2) { (first, second) } else { (second, first) };
                        (x, y, format!("{} FOR ({x}, *) AND ({y}, *)", SEARCHES[v / 2]))
                    })
                    .find(|(_, _, t)| !used.contains(t))
                    .expect("eight variants cover eight cycles");
                used.insert(text.clone());
                block.push(Request::cold(text));
                let of_x = &values[x];
                for third in [false, false, true] {
                    let text = fresh(&mut used, || {
                        let (doc, v) = of_x[rng.below(of_x.len())];
                        let statement = SEARCHES[rng.below(SEARCHES.len())];
                        let mut text =
                            format!("{statement} FOR ({x}, \"{}\") AND ({y}, *)", v.value);
                        let others: Vec<&Leaf> =
                            doc.iter().filter(|l| l.label != x && l.label != y).collect();
                        if third && !others.is_empty() {
                            let w = others[rng.below(others.len())];
                            text.push_str(&format!(" AND ({}, \"{}\")", w.label, w.value));
                        }
                        text
                    });
                    block.push(Request::cold(text));
                }
                let text = fresh(&mut used, || {
                    let (_, v) = of_x[rng.below(of_x.len())];
                    format!("CONTEXTS FOR ({y}, *) AND (*, \"{}\")", v.value)
                });
                block.push(Request::cold(text));
            }
            rng.shuffle(&mut block);
            blocks.push(block);
        }
    }
    blocks
}

const QUERY1: &str = "(name, *) AND (trade_country, *) AND (percentage, *)";

fn refinement(partner: &str) -> String {
    format!(
        "WITH 0 IN /country/name \
         WITH 1 IN /country/economy/{partner}_partners/item/trade_country \
         WITH 2 IN /country/economy/{partner}_partners/item/percentage"
    )
}

/// The dashboard of `factbook-olap`: the paper's Query 1 over all countries,
/// refined to import or export partners, as complete results and as cubes
/// that vary the `BY` dimensions and the aggregate.  Prepared once, then
/// re-executed round-robin.
pub fn dashboard() -> Vec<String> {
    let mut statements = Vec::new();
    for (partner, aggs) in
        [("import", ["sum", "avg", "max", "count"]), ("export", ["avg", "min", "sum", "max"])]
    {
        let with = refinement(partner);
        let fact = format!("{partner}-trade-percentage");
        statements.push(format!("RESULTS FOR {QUERY1} {with}"));
        for (by, agg) in
            [format!("{partner}-country"), "country".into(), "year".into(), "country, year".into()]
                .iter()
                .zip(aggs)
        {
            statements.push(format!("CUBE {fact} BY {by} AGG {agg} FOR {QUERY1} {with}"));
        }
    }
    statements
}

/// Cold `CONTEXTS` requests per block of `factbook-olap`: as many as the
/// dashboard has `CUBE` statements, so the median request falls in the
/// middle of the `RESULTS` statements (`twigjoin`) and the tail in the cubes
/// (`olap`).  A median at the edge of a class moves with every shift of the
/// host's speed; one inside a class does not.
const OLAP_CONTEXTS: usize = 8;

/// `factbook-olap`: every block re-executes the whole dashboard in its fixed
/// round-robin order, interleaved with cold `CONTEXTS` requests over seeded
/// corpus values, at seeded positions.
pub fn olap(leaves: &[Vec<Leaf>], seed: u64) -> Vec<Vec<Request>> {
    let mut rng = Rng::new(seed);
    let docs: Vec<&Vec<Leaf>> = leaves.iter().filter(|d| d.len() >= 2).collect();
    let dashboard = dashboard();
    let mut used = HashSet::new();
    (0..OLAP_BLOCKS)
        .map(|_| {
            let mut block: Vec<Request> = dashboard
                .iter()
                .enumerate()
                .map(|(i, text)| Request {
                    text: text.clone(),
                    kind: Kind::of(text),
                    prepared: Some(i),
                })
                .collect();
            for n in 0..OLAP_CONTEXTS {
                let text = fresh(&mut used, || {
                    let leaves = distinct_leaves(&mut rng, &docs, 2);
                    if n % 2 == 0 {
                        format!("CONTEXTS FOR (*, \"{}\")", leaves[0].value)
                    } else {
                        format!(
                            "CONTEXTS FOR ({}, *) AND (*, \"{}\")",
                            leaves[0].label, leaves[1].value
                        )
                    }
                });
                let at = rng.below(block.len() + 1);
                block.insert(at, Request::cold(text));
            }
            block
        })
        .collect()
}
