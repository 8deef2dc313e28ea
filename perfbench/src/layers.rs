//! Probes of the `repo` and `protocol` layers, shared by every
//! workload's traced run: each works on a warm snapshot (every schema
//! pair cached) of the workload's own corpus.

use std::path::Path;

use cupid_core::CupidConfig;
use cupid_lexical::Thesaurus;
use cupid_repo::Repository;
use cupid_serve::BatchOutcome;

use crate::gen::EditStream;
use crate::report::Report;
use crate::trace::Tracer;

/// `repo` metrics on `copy`, a private copy of a warm snapshot whose
/// schemas are `texts`; `seed` draws the replacements.
pub fn repo_probe(
    tr: &Tracer,
    report: &mut Report,
    cfg: &CupidConfig,
    thesaurus: &Thesaurus,
    seed: u64,
    texts: &[String],
    copy: &Path,
) {
    report.metric(
        "repo.snapshot_bytes",
        "bytes",
        std::fs::metadata(copy).expect("snapshot size").len() as f64,
    );
    const OPENS: usize = 3;
    for _ in 0..OPENS - 1 {
        drop(tr.span("repo.open_or_create", || Repository::open_or_create(copy, cfg, thesaurus)));
    }
    let mut repo = tr
        .span("repo.open_or_create", || Repository::open_or_create(copy, cfg, thesaurus))
        .expect("open snapshot copy");
    let n = repo.len();
    for i in 0..n {
        for j in (i + 1)..n {
            std::hint::black_box(tr.span("repo.cached_pair", || repo.cached_pair_at(i, j)));
        }
    }
    let mut edits = EditStream::new(seed ^ 0x4E90, texts);
    let reachable = |repo: &Repository<'_>, r: usize| {
        (0..n)
            .filter(|&j| j != r)
            .map(|j| {
                usize::from(repo.cached_pair_at(r, j).is_some())
                    + usize::from(repo.cached_pair_at(j, r).is_some())
            })
            .sum::<usize>()
    };
    const REPLACES: usize = 16;
    let (mut invalidated, journal_start) = (0usize, repo.durability().journal_bytes);
    for _ in 0..REPLACES {
        let (r, text) = edits.next_edit();
        let schema = cupid_io::parse_sdl(&text).expect("edit parses");
        let cached_before = reachable(&repo, r);
        tr.span("repo.replace", || repo.replace(&schema)).expect("replace");
        invalidated += cached_before - reachable(&repo, r);
    }
    let journal_bytes = repo.durability().journal_bytes - journal_start;
    let spans = tr.aggregate();
    report.metric("repo.load_ms", "ms", spans["repo.open_or_create"].mean_us() / 1e3);
    report.metric("repo.cached_lookup_us", "us", spans["repo.cached_pair"].mean_us());
    report.metric("repo.replace_ms", "ms", spans["repo.replace"].mean_us() / 1e3);
    report.metric(
        "repo.invalidated_pairs_per_mutation",
        "count",
        invalidated as f64 / REPLACES as f64,
    );
    report.metric(
        "repo.journal_bytes_per_mutation",
        "bytes",
        journal_bytes as f64 / REPLACES as f64,
    );
}

/// `protocol` metrics: encode and decode of a batch response frame of
/// `frame_pairs` of the reference's answers.
pub fn protocol_probe(
    tr: &Tracer,
    report: &mut Report,
    reference: &Repository<'_>,
    frame_pairs: usize,
) {
    let n = reference.len();
    let names = reference.names();
    let entries: Vec<Result<BatchOutcome, String>> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .filter_map(|(i, j)| {
            reference.cached_pair_at(i, j).map(|summary| {
                Ok(BatchOutcome::Matched {
                    source: names[i].clone(),
                    target: names[j].clone(),
                    summary,
                })
            })
        })
        .take(frame_pairs)
        .collect();
    let pairs = entries.len();
    let response = cupid_serve::Response::Batch { entries };
    const ROUNDS: usize = 200;
    for _ in 0..ROUNDS {
        std::hint::black_box(tr.span("protocol.encode", || response.encode()));
    }
    let (kind, payload) = response.encode();
    for _ in 0..ROUNDS {
        let decoded = tr.span("protocol.decode", || cupid_serve::Response::decode(kind, &payload));
        std::hint::black_box(decoded.expect("decodes"));
    }
    let spans = tr.aggregate();
    report.metric("protocol.encode_us_per_frame", "us", spans["protocol.encode"].mean_us());
    report.metric("protocol.decode_us_per_frame", "us", spans["protocol.decode"].mean_us());
    report.metric(
        "protocol.response_bytes_per_pair",
        "bytes",
        payload.len() as f64 / pairs.max(1) as f64,
    );
    report.context("protocol.frame_pairs", pairs.to_string());
}
