//! `offline_discovery`: no daemon. Set-up parses a seeded corpus from
//! SDL, prepares it into one `MatchSession` and builds the discovery
//! index; the timed phase makes the session's three kinds of call in a
//! seeded mix: `match_pairs` over 64 pairs of the index's top-k
//! candidate worklist, a single `match_pair`, and a top-k candidate
//! listing (the index rebuilt and walked).

use std::path::Path;
use std::time::{Duration, Instant};

use cupid_core::{CupidConfig, MatchSession, SchemaId};
use cupid_lexical::Thesaurus;
use cupid_model::Schema;
use cupid_repo::{DiscoveryIndex, Repository};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::engine::{self, summary_bytes};
use crate::report::{
    json_num, median, HostClock, NoiseProbe, Rates, Report, Samples, StealTally, Window, LATENCY_Q,
};
use crate::trace::Tracer;
use crate::{gen, layers, serve, Args};

/// Schemas in the corpus.
const SCHEMAS: usize = 512;
/// Candidates kept per schema by the discovery index.
const TOP_K: usize = 4;
/// Set-ups per run; `setup_s` is their median. One set-up takes
/// 0.13–0.25 s within a single run, so the median needs this many.
const SETUPS: usize = 21;
/// Worklist pairs per `match_pairs` call, as in a batched frame of
/// `serve_warm_reads`.
const BATCH_PAIRS: usize = serve::BATCH_PAIRS;
/// One block of the timed phase: `match_pairs` calls, single
/// `match_pair` calls and top-k listings, made in seeded order. The
/// counts give each kind about a third of the phase's call time, as in
/// `serve_warm_reads` (README.md, "Traffic mix"; `mix.time_share`).
const BLOCK_BATCH: usize = 2;
const BLOCK_UNARY: usize = 120;
const BLOCK_TOPK: usize = 2;
/// Blocks per throughput window.
const WINDOW_BLOCKS: usize = 2;
/// Worklist pairs re-matched by the single-thread oracle.
const ORACLE_PAIRS: usize = 48;
/// Worklist pairs the traced run's engine probe times.
const PROBE_PAIRS: usize = 96;
/// Corpus schemas in the warm snapshot the traced run's repo, protocol
/// and daemon probes work on (as many as the serve workloads serve).
const PROBE_SCHEMAS: usize = 48;

struct Prepared<'a> {
    schemas: Vec<Schema>,
    session: MatchSession<'a>,
    worklist: Vec<(usize, usize)>,
}

fn setup<'a>(
    tr: &Tracer,
    texts: &[String],
    cfg: &'a CupidConfig,
    thesaurus: &'a Thesaurus,
) -> Prepared<'a> {
    let schemas: Vec<Schema> = texts
        .iter()
        .map(|t| tr.span("io.parse_sdl", || cupid_io::parse_sdl(t)).expect("generated SDL parses"))
        .collect();
    let mut session = MatchSession::new(cfg, thesaurus).threads(1);
    tr.span("session.add_corpus", || session.add_corpus(&schemas)).expect("corpus prepares");
    let worklist = top_k_listing(tr, &session);
    Prepared { schemas, session, worklist }
}

/// The session's top-k candidate pairs: the discovery index built over
/// its prepared schemas and walked.
fn top_k_listing(tr: &Tracer, session: &MatchSession<'_>) -> Vec<(usize, usize)> {
    let index = tr.span("index.build", || DiscoveryIndex::build(session.prepared()));
    tr.span("index.top_k_pairs", || index.top_k_pairs(TOP_K))
}

fn ids(pair: (usize, usize)) -> (SchemaId, SchemaId) {
    (SchemaId::from_index(pair.0), SchemaId::from_index(pair.1))
}

/// One call of the timed phase's mix.
enum Op {
    Batch(Vec<usize>),
    Unary(usize),
    TopK,
}

/// Run the workload; `work` is the run's scratch directory.
pub fn run(args: &Args, tr: &Tracer, work: &Path) -> Report {
    let mut report = Report::default();
    let cfg = CupidConfig::default();
    let thesaurus = gen::thesaurus();
    let texts = gen::corpus(args.seed, SCHEMAS);
    // Set-up and timed phase run on one CPU, the session on one thread
    // (README.md, "Load model"); the traced run's sharding probe gets
    // every CPU back.
    let cpus = crate::pin::allowed_cpus();
    let pinned = crate::pin::pin_to_one_cpu();
    report.context("offline.pinned_cpu", pinned.map_or("null".to_string(), |c| c.to_string()));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut stolen = StealTally::default();
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let (clock, t0) = (HostClock::now(), Instant::now());
        prepared = Some(setup(tr, &texts, &cfg, &thesaurus));
        setups.push(t0.elapsed().as_secs_f64());
        stolen.add(&clock);
    }
    let Prepared { schemas, mut session, worklist } = prepared.expect("set up at least once");
    let pairs: Vec<(SchemaId, SchemaId)> = worklist.iter().copied().map(ids).collect();

    // Warm-up pass: fills the similarity memo; its answers are the
    // reference every timed call must reproduce bit for bit.
    let warm = session.match_pairs(&pairs);
    let useful = warm.iter().filter(|s| !s.leaf_mappings.is_empty()).count();
    let reference: Vec<Vec<u8>> = warm.iter().map(summary_bytes).collect();
    drop(warm);

    let (mut batch_ms, mut unary_ms, mut topk_ms) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut rates = Rates::default();
    let mut rng = gen::rng(args.seed, 0x0FF1);
    // The memory peak covers the timed phase only (see README.md).
    let peak_reset = crate::report::reset_peak_rss();
    let noise = NoiseProbe::start();
    rates.reference_ms.push(crate::report::reference_kernel_ms());
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut window = Window::new();
    let mut blocks = 0usize;
    while start.elapsed() < budget || rates.window.is_empty() {
        let mut ops: Vec<Op> = Vec::with_capacity(BLOCK_BATCH + BLOCK_UNARY + BLOCK_TOPK);
        for _ in 0..BLOCK_BATCH {
            ops.push(Op::Batch(gen::distinct(&mut rng, pairs.len(), BATCH_PAIRS, None)));
        }
        ops.extend((0..BLOCK_UNARY).map(|_| Op::Unary(rng.gen_range(0..pairs.len()))));
        ops.extend((0..BLOCK_TOPK).map(|_| Op::TopK));
        ops.shuffle(&mut rng);
        for op in ops {
            match op {
                Op::Batch(picks) => {
                    let req: Vec<(SchemaId, SchemaId)> = picks.iter().map(|&k| pairs[k]).collect();
                    let (answers, secs) =
                        tr.timed("offline.match_pairs", || session.match_pairs(&req));
                    batch_ms.push(secs * 1e3);
                    window.add(answers.len(), secs);
                    for (&k, summary) in picks.iter().zip(&answers) {
                        report.check(summary_bytes(summary) == reference[k], || {
                            format!("match_pairs answer for {:?} changed", worklist[k])
                        });
                    }
                }
                Op::Unary(k) => {
                    let (a, b) = pairs[k];
                    let (summary, secs) =
                        tr.timed("offline.match_pair", || session.match_pair(a, b));
                    unary_ms.push(secs * 1e3);
                    window.add(1, secs);
                    report.check(summary_bytes(&summary) == reference[k], || {
                        format!("match_pair answer for {:?} changed", worklist[k])
                    });
                }
                Op::TopK => {
                    let (listing, secs) = tr.timed("offline.top_k", || top_k_listing(tr, &session));
                    topk_ms.push(secs * 1e3);
                    window.add(1, secs);
                    report.check(listing == worklist, || "top-k listing changed".into());
                }
            }
        }
        blocks += 1;
        if blocks.is_multiple_of(WINDOW_BLOCKS) {
            window.close(&mut rates);
        }
    }
    noise.finish(&mut report, std::mem::take(&mut rates.reference_ms));
    // Before the oracle session below adds its own memory.
    let peak_rss_mib = crate::report::peak_rss_mib();

    // Oracle: a fresh single-thread session must reproduce a seeded
    // sample of the answers bit for bit.
    let mut rng = gen::rng(args.seed, 0x0AC1E);
    let mut oracle = MatchSession::new(&cfg, &thesaurus).threads(1);
    oracle.add_corpus(&schemas).expect("corpus prepares");
    for k in gen::distinct(&mut rng, pairs.len(), ORACLE_PAIRS, None) {
        let (a, b) = pairs[k];
        report.check(summary_bytes(&oracle.match_pair(a, b)) == reference[k], || {
            format!("answer for {:?} differs from a fresh single-thread match_pair", worklist[k])
        });
    }
    drop(oracle);

    report.context("setup_s.samples", format!("{setups:?}"));
    report.context("index.worklist_pairs", worklist.len().to_string());
    let kinds = [("batch", &batch_ms), ("match_pair", &unary_ms), ("top_k", &topk_ms)];
    let busy_ms: f64 = kinds.iter().map(|(_, ms)| ms.sum()).sum();
    let shares: Vec<String> = kinds
        .iter()
        .map(|(kind, ms)| format!("\"{kind}\":{}", json_num(ms.sum() / busy_ms)))
        .collect();
    report.context("mix.time_share", format!("{{{}}}", shares.join(",")));
    for (name, samples) in [("match_ms", &batch_ms), ("unary_ms", &unary_ms), ("topk_ms", &topk_ms)]
    {
        report.latency_context(name, samples);
    }
    report.context("req_per_s.windows", rates.window.len().to_string());
    report.context("req_per_s.median", json_num(median(&rates.window)));
    report.context("req_per_s.uncorrected_median", json_num(median(&rates.raw)));
    if tr.enabled() {
        crate::pin::allow(&cpus);
        let probe = Probed { worklist: &pairs, useful, texts: &texts, work };
        traced(args, tr, &mut report, &mut session, &cfg, &thesaurus, &schemas, probe, &mut rng);
    } else {
        report.metric("setup_s", "s", median(&setups) * (1.0 - stolen.share()));
        report.context("setup_s.uncorrected", json_num(median(&setups)));
        report.context("setup_s.steal_share", json_num(stolen.share()));
        report.metric("req_per_s_p90", "1/s", rates.fast());
        report.metric("match_ms_p10", "ms", batch_ms.quantile(LATENCY_Q));
        report.metric("unary_ms_p10", "ms", unary_ms.quantile(LATENCY_Q));
        report.metric("topk_ms_p10", "ms", topk_ms.quantile(LATENCY_Q));
        report.metric("peak_rss_mib", "MiB", peak_rss_mib);
        report.context("peak_rss_mib.reset", peak_reset.to_string());
    }
    report
}

/// What the traced run's probes need beyond the session.
struct Probed<'a> {
    worklist: &'a [(SchemaId, SchemaId)],
    /// Worklist pairs with at least one leaf mapping.
    useful: usize,
    texts: &'a [String],
    work: &'a Path,
}

/// Per-layer metrics of the traced run.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    tr: &Tracer,
    report: &mut Report,
    session: &mut MatchSession<'_>,
    cfg: &CupidConfig,
    thesaurus: &Thesaurus,
    schemas: &[Schema],
    probe: Probed<'_>,
    rng: &mut StdRng,
) {
    let Probed { worklist, useful, texts, work } = probe;
    let spans = tr.aggregate();
    let setups = spans["session.add_corpus"].count as f64;
    let parse = spans["io.parse_sdl"];
    report.metric("io.parse_ms_per_schema", "ms", parse.self_ns as f64 / 1e6 / parse.count as f64);
    report.metric(
        "session.prepare_ms_per_schema",
        "ms",
        spans["session.add_corpus"].self_ns as f64 / 1e6 / (setups * SCHEMAS as f64),
    );
    // Set-ups and the phase's top-k listings both build and walk the
    // index.
    report.metric("index.build_ms", "ms", spans["index.build"].mean_us() / 1e3);
    report.metric("index.candidates_ms", "ms", spans["index.top_k_pairs"].mean_us() / 1e3);
    report.metric("index.worklist_pairs", "count", worklist.len() as f64);
    report.metric("index.useful_ratio", "ratio", useful as f64 / worklist.len().max(1) as f64);
    let stats = session.stats();
    report.metric("session.vocab_size", "count", stats.vocab_size as f64);
    report.metric("session.vocab_bytes", "bytes", stats.vocab_bytes as f64);
    report.metric("session.sim_bytes", "bytes", stats.sim_bytes as f64);

    // Sharding: the same worklist slice at 1 thread and at every
    // available core, over the same warm memo.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let slice = &worklist[..worklist.len().min(512)];
    let mut timed = |n: usize| {
        session.set_threads(n);
        let t0 = Instant::now();
        std::hint::black_box(session.match_pairs(slice));
        t0.elapsed().as_secs_f64()
    };
    let (one, all) = (timed(1), timed(threads));
    report.metric("session.shard_speedup", "ratio", one / all);
    report.context("session.shard_threads", threads.to_string());

    let sample: Vec<_> = gen::distinct(rng, worklist.len(), PROBE_PAIRS, None)
        .into_iter()
        .map(|k| worklist[k])
        .collect();
    engine::probe(tr, report, session, cfg, thesaurus, &sample);

    // repo, protocol and daemon: probes over a warm snapshot of the
    // first corpus schemas, each on a copy of it as built.
    let snap = work.join("offline").join("warm.repo");
    let mut repo =
        Repository::open_or_create(&snap, cfg, thesaurus).expect("open snapshot").threads(threads);
    repo.add_corpus(&schemas[..PROBE_SCHEMAS]).expect("corpus prepares");
    repo.match_all_pairs();
    repo.save().expect("save snapshot");
    let texts = &texts[..PROBE_SCHEMAS];
    let copy = serve::copy_snapshot(&snap, &work.join("repo-probe"));
    layers::repo_probe(tr, report, cfg, thesaurus, args.seed, texts, &copy);
    layers::protocol_probe(tr, report, &repo, BATCH_PAIRS);
    let expected = serve::Expected::new(&mut repo);
    drop(repo);
    let copy = serve::copy_snapshot(&snap, &work.join("daemon-probe"));
    serve::probe_daemon(args.seed, tr, report, &copy, &expected, cfg, thesaurus);
}
