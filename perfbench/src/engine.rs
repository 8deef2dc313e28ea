//! The engine probe of traced runs: per-phase timings of pair
//! execution (`pair_lsim` → `tree_match` → mapping generation → top-k
//! summary), measured through the engine's public functions, plus the
//! bit-identity helpers every workload's output checks use.

use std::hash::{Hash, Hasher};

use cupid_core::linguistic::pair_lsim;
use cupid_core::mapping::{leaf_mappings, nonleaf_mappings};
use cupid_core::session::SimilarityEntry;
use cupid_core::treematch::tree_match;
use cupid_core::{Cardinality, CupidConfig, MatchSession, MatchSummary, SchemaId};
use cupid_lexical::{Thesaurus, TokenSimCache};
use cupid_model::{NodeId, SchemaTree, WireWriter};

use crate::report::{json_num, mean, Report};
use crate::trace::Tracer;

/// How far the phase timings may miss the `match_pair` wall before the
/// decomposition self-check fails, as a share of the wall.
pub const RECONSTRUCTION_TOLERANCE: f64 = 0.15;

/// `MatchSession`'s default top-k summary length.
const SUMMARY_TOP_K: usize = 10;

/// A summary's wire bytes: equal bytes mean bit-identical summaries.
pub fn summary_bytes(s: &MatchSummary) -> Vec<u8> {
    let mut w = WireWriter::new();
    s.write_wire(&mut w);
    w.into_bytes()
}

/// A 64-bit hash of a summary's wire bytes, for bit-identity checks
/// against answers computed earlier.
pub fn summary_hash(s: &MatchSummary) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    summary_bytes(s).hash(&mut h);
    h.finish()
}

/// Bit-identity of two summaries.
pub fn same_summary(a: &MatchSummary, b: &MatchSummary) -> bool {
    summary_bytes(a) == summary_bytes(b)
}

fn leaf_indices(tree: &SchemaTree) -> Vec<usize> {
    tree.iter().filter(|(_, n)| n.is_leaf()).map(|(id, _)| id.index()).collect()
}

/// The summary step `MatchSession` runs after mapping generation
/// (private there), rebuilt from public parts: every leaf pair's
/// `wsim`, ordered descending with node-index tie breaks, cut to k.
fn summary_replica(
    t1: &SchemaTree,
    t2: &SchemaTree,
    wsim: &cupid_core::SimMatrix,
) -> (Vec<SimilarityEntry>, usize) {
    let (l1, l2) = (leaf_indices(t1), leaf_indices(t2));
    let mut entries: Vec<(f64, usize, usize)> = Vec::with_capacity(l1.len() * l2.len());
    for &s in &l1 {
        for &t in &l2 {
            entries.push((wsim.get(s, t), s, t));
        }
    }
    let total = entries.len();
    entries.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    entries.truncate(SUMMARY_TOP_K);
    let top = entries
        .into_iter()
        .map(|(wsim, s, t)| SimilarityEntry {
            source_path: t1.path(NodeId::from_index(s)).to_string(),
            target_path: t2.path(NodeId::from_index(t)).to_string(),
            wsim,
        })
        .collect();
    (top, total)
}

/// Time the engine's phases on `pairs` over the session's warm memo,
/// record the per-layer metrics, and check that the phases reconstruct
/// the `match_pair` wall. The session should already have matched the
/// pairs once, so no token similarity is computed during the probe.
pub fn probe(
    tr: &Tracer,
    report: &mut Report,
    session: &mut MatchSession<'_>,
    cfg: &CupidConfig,
    thesaurus: &Thesaurus,
    pairs: &[(SchemaId, SchemaId)],
) {
    const ROUNDS: usize = 3;
    let mut entries_per_pair = Vec::new();
    let (mut compared, mut total) = (0usize, 0usize);
    // The phases run through a cache over a copy of the warm memo and
    // interning table, which keeps the session free for `match_pair`.
    // Each pair is timed both ways back to back, in alternating order,
    // so host noise lands on both sides alike.
    let table = session.table().clone();
    let mut cache =
        TokenSimCache::with_store(&table, thesaurus, &cfg.affix, session.store().clone());
    for round in 0..ROUNDS {
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let mut phases = |session: &MatchSession<'_>| {
                let (s1, s2) = (session.schema(a), session.schema(b));
                tr.span("engine.phases", || {
                    let pair = tr.span("linguistic.pair_lsim", || {
                        pair_lsim(&s1.ling, &s2.ling, cfg, &mut cache)
                    });
                    let res = tr.span("treematch.tree_match", || {
                        tree_match(&s1.tree, &s2.tree, &pair.lsim, cfg)
                    });
                    tr.span("mapping.generate", || {
                        let leaf = leaf_mappings(
                            &s1.tree,
                            &s2.tree,
                            &res,
                            &pair.lsim,
                            cfg,
                            Cardinality::OneToN,
                        );
                        let nonleaf = nonleaf_mappings(
                            &s1.tree,
                            &s2.tree,
                            &res,
                            &pair.lsim,
                            cfg,
                            Cardinality::OneToOne,
                        );
                        std::hint::black_box((leaf, nonleaf));
                    });
                    let replica = tr.span("session.summary_replica", || {
                        summary_replica(&s1.tree, &s2.tree, &res.wsim)
                    });
                    (replica, pair)
                })
            };
            let phases_first = (round + i) % 2 == 0;
            let early = phases_first.then(|| phases(session));
            let summary = tr.span("session.match_pair", || session.match_pair(a, b));
            let ((top, entries), pair) = match early {
                Some(done) => done,
                None => phases(session),
            };
            compared += pair.compared_pairs;
            total += pair.total_pairs;
            entries_per_pair.push(entries as f64);
            report.check(summary.top_pairs == top, || {
                format!("summary replica differs from match_pair on ({}, {})", a.index(), b.index())
            });
        }
    }
    let agg = |name: &str| tr.agg(name).self_us();
    let wall = tr.agg("session.match_pair").mean_us();
    let (lsim, tm, map) =
        (agg("linguistic.pair_lsim"), agg("treematch.tree_match"), agg("mapping.generate"));
    let replica = agg("session.summary_replica");
    let residual = wall - lsim - tm - map;
    report.metric("linguistic.pair_lsim_us_per_pair", "us", lsim);
    report.metric("linguistic.compared_ratio", "ratio", compared as f64 / total.max(1) as f64);
    report.metric("treematch.us_per_pair", "us", tm);
    report.metric("mapping.us_per_pair", "us", map);
    report.metric("session.match_pair_us", "us", wall);
    report.metric("session.summary_us_per_pair", "us", residual);
    report.metric("session.summary_entries_per_pair", "count", mean(&entries_per_pair));
    report.context("engine.summary_replica_us", json_num(replica));
    report.context("engine.probe_pairs", (pairs.len() * ROUNDS).to_string());
    // Self-check: the three phases plus the summary residual are the
    // wall by construction, so check the residual against the timed
    // replica of the summary step instead — the decomposition holds
    // only if the phases and the replica together account for the
    // timed `match_pair` wall.
    let reconstructed = lsim + tm + map + replica;
    let miss = (reconstructed - wall) / wall.max(f64::MIN_POSITIVE);
    report.context("engine.reconstruction_miss", json_num(miss));
    report.require(residual >= 0.0 && miss.abs() <= RECONSTRUCTION_TOLERANCE, || {
        format!(
            "engine phases ({lsim:.1} + {tm:.1} + {map:.1} us) plus the summary replica \
             ({replica:.1} us) miss the match_pair wall ({wall:.1} us) by {:+.1} %",
            miss * 100.0
        )
    });
}
