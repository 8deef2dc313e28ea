//! `serve_warm_reads` and `serve_churn`: one closed-loop client
//! connection to an in-process daemon (`Server::bind` with default
//! options) over a warm snapshot in which every schema pair is cached.
//!
//! * Warm reads send a seeded mix of batched `match_pairs` frames,
//!   unary `match_pair` calls and `top_k` probes; the engine runs no
//!   pair at all.
//! * Churn repeats replace → batched match of the replaced schema
//!   against others → unary match against one more → `top_k`, with
//!   never-seen content each time, so every cycle invalidates and
//!   re-executes pairs.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cupid_core::{CupidConfig, MatchSession, MatchSummary, SchemaId};
use cupid_lexical::Thesaurus;
use cupid_model::Schema;
use cupid_repo::Repository;
use cupid_serve::{ServeClient, ServeOptions, Server, StatsReport, TopKListing, STAGE_NAMES};

use crate::engine::{self, summary_hash};
use crate::gen::{self, EditStream};
use crate::layers;
use crate::report::{
    json_num, median, HostClock, NoiseProbe, Rates, Report, Samples, StealTally, Window, LATENCY_Q,
};
use crate::trace::Tracer;
use crate::Args;
use rand::seq::SliceRandom;
use rand::Rng;

/// The two daemon workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `serve_warm_reads`.
    WarmReads,
    /// `serve_churn`.
    Churn,
}

/// Schemas in the daemon's corpus.
const SCHEMAS: usize = 48;
/// Generator seed of the daemon's corpus, the same for every workload
/// seed: how many leaf mappings a corpus this small holds swings by a
/// fifth from one draw to the next, which would let the seed, not the
/// program, decide the serve figures (README.md, "Seeds"). The
/// workload seed draws the traffic and the churn edit stream.
const CORPUS_SEED: u64 = 0;
/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Candidates per schema in every `top_k` request.
const TOP_K: usize = 3;
/// Pairs per batched frame on `serve_warm_reads`.
pub const BATCH_PAIRS: usize = 64;
/// One block of the warm-read mix: batched frames, unary `match_pair`
/// calls and `top_k` requests, sent in seeded order. The counts give
/// each kind about a third of the client's request time, as measured
/// on this workload (README.md, "Traffic mix"; `mix.time_share`).
const BLOCK_BATCH: usize = 3;
const BLOCK_UNARY: usize = 72;
const BLOCK_TOPK: usize = 1;
/// Blocks per throughput window on `serve_warm_reads`.
const WINDOW_BLOCKS: usize = 48;
/// Schemas the replaced one is matched against in each churn cycle's
/// batched frame (one more gets the cycle's unary call).
const CHURN_OTHERS: usize = 32;
/// Churn cycles between two daemon saves (which prune the cache
/// entries of replaced content, bounding memory however fast the
/// cycles run).
const ROUND_CYCLES: usize = 64;
/// Cycles per throughput window on `serve_churn`.
const WINDOW_CYCLES: usize = 32;
/// Corpus pairs the warm-read traced run's engine probe times.
const PROBE_PAIRS: usize = 96;
/// How long the daemon probe of other workloads' traced runs sends the
/// warm-read mix.
const PROBE_BUDGET: Duration = Duration::from_millis(500);
/// Every this many churn cycles, a few batch answers are candidates
/// for the in-process replay check; every `VERIFY_TOPK_EVERY` the
/// `top_k` listing too. A seeded reservoir keeps `KEPT_CYCLES` of the
/// candidates, spread over the whole phase, so the benchmark's own
/// memory does not grow with the cycle rate.
const VERIFY_EVERY: usize = 4;
const VERIFY_ENTRIES: usize = 4;
const VERIFY_TOPK_EVERY: usize = 16;
const KEPT_CYCLES: usize = 32;

/// The daemon's request kinds this benchmark drives, as named in its
/// `Stats` frame, with the client call each one answers.
const KINDS: [(&str, &str); 4] = [
    ("batch", "client.batch"),
    ("match_pair", "client.match_pair"),
    ("top_k", "client.top_k"),
    ("mutate", "client.replace_sdl"),
];

/// Client-observed latencies and answer counts of a timed phase.
#[derive(Debug, Default)]
struct Phase {
    batch_ms: Samples,
    unary_ms: Samples,
    topk_ms: Samples,
    mutate_ms: Samples,
    /// Answers per second of steal-free request time.
    rates: Rates,
    /// Pair summaries answered (batch entries, unary calls, top-k
    /// listing entries).
    pair_answers: u64,
    /// Pair executions the daemon must have run, from the client's
    /// model of its pair cache.
    expected_executed: u64,
    /// Peak resident memory over the phase.
    peak_rss_mib: f64,
    /// Whether the memory peak was reset when the phase started.
    peak_reset: bool,
    /// Resident memory when the phase started and when it ended.
    rss_start_mib: f64,
    rss_end_mib: f64,
    /// Daemon counters at the start and end of the phase.
    stats_before: Option<StatsReport>,
    stats_after: Option<StatsReport>,
}

pub fn copy_snapshot(from: &Path, to_dir: &Path) -> PathBuf {
    std::fs::create_dir_all(to_dir).expect("create snapshot copy dir");
    let to = to_dir.join("warm.repo");
    std::fs::copy(from, &to).expect("copy snapshot");
    to
}

/// The in-process repository's answers to every warm read, as hashes
/// of their wire bytes, computed before the timed phase so neither the
/// repository nor its answers stay resident during it.
pub struct Expected {
    names: Vec<String>,
    /// Every unordered pair `(i, j)`, `i < j`.
    pairs: Vec<(usize, usize)>,
    pair_hashes: Vec<u64>,
    topk_hashes: Vec<u64>,
}

impl Expected {
    /// The answers of `reference`, in which every pair is cached.
    pub fn new(reference: &mut Repository<'_>) -> Expected {
        let n = reference.len();
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))).collect();
        let pair_hashes = pairs
            .iter()
            .map(|&(i, j)| summary_hash(&reference.cached_pair_at(i, j).expect("warm pair cached")))
            .collect();
        let topk_hashes = reference.top_k_pairs(TOP_K).iter().map(summary_hash).collect();
        Expected { names: reference.names().to_vec(), pairs, pair_hashes, topk_hashes }
    }
}

/// Run one of the daemon workloads.
pub fn run(args: &Args, tr: &Tracer, work: &Path, mode: Mode) -> Report {
    let mut report = Report::default();
    let cfg = CupidConfig::default();
    let thesaurus = gen::thesaurus();
    let texts = gen::corpus(CORPUS_SEED, SCHEMAS);
    let names: Vec<String> = (0..SCHEMAS).map(gen::name).collect();
    let schemas: Vec<Schema> = texts
        .iter()
        .map(|t| tr.span("io.parse_sdl", || cupid_io::parse_sdl(t)).expect("generated SDL parses"))
        .collect();

    // The warm snapshot: every unordered pair executed and cached, on
    // one thread, so the heap it leaves behind is laid out the same way
    // in every run (answers do not depend on the thread count).
    let snap = work.join("daemon").join("warm.repo");
    {
        let mut repo =
            Repository::open_or_create(&snap, &cfg, &thesaurus).expect("open snapshot").threads(1);
        repo.add_corpus(&schemas).expect("corpus prepares");
        repo.match_all_pairs();
        repo.save().expect("save snapshot");
    }
    // The traced run's repo probe works on a copy of the snapshot as
    // built, before any daemon rewrites it.
    let pristine = tr.enabled().then(|| copy_snapshot(&snap, &work.join("pristine")));
    // The in-process reference repository opens its own copy of the
    // same snapshot, and only outside the timed phase: warm reads check
    // against answers computed from it beforehand; the churn replay and
    // the traced probes reopen it afterwards.
    let reference_copy = copy_snapshot(&snap, &work.join("reference"));
    let open_reference = || {
        Repository::open_or_create(&reference_copy, &cfg, &thesaurus).expect("open reference copy")
    };
    let expected = (mode == Mode::WarmReads).then(|| Expected::new(&mut open_reference()));

    // Client and daemon share one CPU from here on (see `pin`).
    let pinned = crate::pin::pin_to_one_cpu();
    report.context("serve.pinned_cpu", pinned.map_or("null".to_string(), |c| c.to_string()));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut stolen = StealTally::default();
    let mut phase = Phase::default();
    let mut churned = None;
    std::thread::scope(|scope| {
        for round in 0..SETUPS {
            let (clock, t0) = (HostClock::now(), Instant::now());
            let server =
                Server::bind("127.0.0.1:0", &snap, &cfg, &thesaurus, ServeOptions::default())
                    .expect("bind daemon");
            let addr = server.local_addr();
            let daemon = scope.spawn(move || server.run());
            let mut client = ServeClient::connect(addr).expect("connect");
            let first = client.stats().expect("first request answered");
            setups.push(t0.elapsed().as_secs_f64());
            stolen.add(&clock);
            if round + 1 == SETUPS {
                phase.stats_before = Some(first);
                // The memory peak covers the timed phase only: the
                // snapshot build and the earlier daemons are gone.
                phase.peak_reset = crate::report::reset_peak_rss();
                phase.rss_start_mib = crate::report::rss_mib();
                let noise = NoiseProbe::start();
                match mode {
                    Mode::WarmReads => warm_reads(
                        args.seed,
                        Duration::from_secs(args.seconds),
                        tr,
                        &mut client,
                        expected.as_ref().expect("computed for warm reads"),
                        &mut phase,
                        &mut report,
                    ),
                    Mode::Churn => {
                        churned = Some(churn(
                            args,
                            tr,
                            &mut client,
                            &texts,
                            &names,
                            &mut phase,
                            &mut report,
                        ))
                    }
                }
                noise.finish(&mut report, std::mem::take(&mut phase.rates.reference_ms));
                phase.peak_rss_mib = crate::report::peak_rss_mib();
                phase.rss_end_mib = crate::report::rss_mib();
                phase.stats_after = Some(client.stats().expect("final stats"));
            }
            client.shutdown().expect("shutdown");
            daemon.join().expect("daemon thread").expect("daemon run");
        }
    });
    drop(expected);

    let mut reference = (churned.is_some() || tr.enabled()).then(open_reference);
    if let Some(churned) = churned {
        let mirror = reference.as_mut().expect("opened for the replay");
        replay(mirror, &names, EditStream::new(args.seed, &texts), churned, &mut report);
    }
    let (before, after) =
        (phase.stats_before.take().expect("stats"), phase.stats_after.take().expect("stats"));
    let executed = after.pairs_executed - before.pairs_executed;
    report.check(executed == phase.expected_executed, || {
        format!(
            "daemon executed {executed} pairs, the cache model expects {}",
            phase.expected_executed
        )
    });
    report.context("daemon.pairs_executed", executed.to_string());
    report.context("setup_s.samples", format!("{setups:?}"));
    let kinds = [
        ("batch", &phase.batch_ms),
        ("match_pair", &phase.unary_ms),
        ("top_k", &phase.topk_ms),
        ("mutate", &phase.mutate_ms),
    ];
    let busy_ms: f64 = kinds.iter().map(|(_, ms)| ms.sum()).sum();
    let shares: Vec<String> = kinds
        .iter()
        .filter(|(_, ms)| !ms.is_empty())
        .map(|(kind, ms)| format!("\"{kind}\":{}", json_num(ms.sum() / busy_ms)))
        .collect();
    report.context("mix.time_share", format!("{{{}}}", shares.join(",")));
    for (name, samples) in [
        ("match_ms", &phase.batch_ms),
        ("unary_ms", &phase.unary_ms),
        ("topk_ms", &phase.topk_ms),
        ("mutate_ms", &phase.mutate_ms),
    ] {
        if !samples.is_empty() {
            report.latency_context(name, samples);
        }
    }

    if tr.enabled() {
        traced(
            tr,
            &mut report,
            &phase,
            &before,
            &after,
            executed,
            reference.as_ref().expect("opened when tracing"),
            &cfg,
            &thesaurus,
            &schemas,
            &texts,
            mode,
            args,
            pristine.as_deref().expect("copied when tracing"),
        );
    } else {
        report.metric("setup_s", "s", median(&setups) * (1.0 - stolen.share()));
        report.context("setup_s.uncorrected", json_num(median(&setups)));
        report.context("setup_s.steal_share", json_num(stolen.share()));
        report.metric("req_per_s_p90", "1/s", phase.rates.fast());
        report.metric("match_ms_p10", "ms", phase.batch_ms.quantile(LATENCY_Q));
        report.metric("unary_ms_p10", "ms", phase.unary_ms.quantile(LATENCY_Q));
        report.metric("topk_ms_p10", "ms", phase.topk_ms.quantile(LATENCY_Q));
        if mode == Mode::Churn {
            report.metric("mutate_ms_p10", "ms", phase.mutate_ms.quantile(LATENCY_Q));
        }
        report.metric("peak_rss_mib", "MiB", phase.peak_rss_mib);
        report.context("peak_rss_mib.reset", phase.peak_reset.to_string());
        report.context("rss_mib.phase_start", json_num(phase.rss_start_mib));
        report.context("rss_mib.phase_end", json_num(phase.rss_end_mib));
    }
    report.context("req_per_s.windows", phase.rates.window.len().to_string());
    report.context("req_per_s.median", json_num(median(&phase.rates.window)));
    report.context("req_per_s.uncorrected_median", json_num(median(&phase.rates.raw)));
    report
}

/// One operation of the warm-read mix.
enum Op {
    Batch(Vec<usize>),
    Unary(usize),
    TopK,
}

/// Send the warm-read mix drawn from `seed` for `budget` (and at least
/// one throughput window), checking every answer against `expected`.
fn warm_reads(
    seed: u64,
    budget: Duration,
    tr: &Tracer,
    client: &mut ServeClient,
    expected: &Expected,
    phase: &mut Phase,
    report: &mut Report,
) {
    let Expected { names, pairs, pair_hashes: expect, topk_hashes: expect_topk } = expected;
    let check_topk = |report: &mut Report, listing: &TopKListing| {
        let same = listing.names == *names
            && listing.summaries.len() == expect_topk.len()
            && listing.summaries.iter().zip(expect_topk).all(|(s, e)| summary_hash(s) == *e);
        report.check(same, || "top_k listing differs from the in-process repository".into());
    };

    let mut rng = gen::rng(seed, 0x3EAD);
    let start = Instant::now();
    let mut window = Window::new();
    let mut blocks = 0usize;
    while start.elapsed() < budget || phase.rates.window.is_empty() {
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
                    let req: Vec<(&str, &str)> = picks
                        .iter()
                        .map(|&p| (names[pairs[p].0].as_str(), names[pairs[p].1].as_str()))
                        .collect();
                    let (answer, secs) = tr.timed("client.batch", || client.match_pairs(&req));
                    let entries = answer.expect("batch frame answered");
                    phase.batch_ms.push(secs * 1e3);
                    window.add(entries.len(), secs);
                    phase.pair_answers += entries.len() as u64;
                    for (&p, entry) in picks.iter().zip(&entries) {
                        let ok = matches!(entry, Ok(s) if summary_hash(s) == expect[p]);
                        report
                            .check(ok, || format!("batch answer for pair {:?} differs", pairs[p]));
                    }
                }
                Op::Unary(p) => {
                    let (s, t) = (&names[pairs[p].0], &names[pairs[p].1]);
                    let (answer, secs) = tr.timed("client.match_pair", || client.match_pair(s, t));
                    phase.unary_ms.push(secs * 1e3);
                    window.add(1, secs);
                    phase.pair_answers += 1;
                    let ok = matches!(&answer, Ok(sum) if summary_hash(sum) == expect[p]);
                    report.check(ok, || format!("unary answer for pair {:?} differs", pairs[p]));
                }
                Op::TopK => {
                    let (answer, secs) = tr.timed("client.top_k", || client.top_k(TOP_K));
                    let listing = answer.expect("top_k answered");
                    phase.topk_ms.push(secs * 1e3);
                    window.add(1, secs);
                    phase.pair_answers += listing.summaries.len() as u64;
                    check_topk(report, &listing);
                }
            }
        }
        blocks += 1;
        if blocks.is_multiple_of(WINDOW_BLOCKS) {
            window.close(&mut phase.rates);
        }
    }
}

/// Answers kept from one churn cycle for the replay check.
struct Kept {
    cycle: usize,
    entries: Vec<(usize, MatchSummary)>,
    topk: Option<TopKListing>,
}

/// What a churn phase did: how many edits of the seeded stream it
/// applied, and the kept answers in cycle order.
struct Churned {
    cycles: usize,
    kept: Vec<Kept>,
}

fn churn(
    args: &Args,
    tr: &Tracer,
    client: &mut ServeClient,
    texts: &[String],
    names: &[String],
    phase: &mut Phase,
    report: &mut Report,
) -> Churned {
    let n = names.len();
    let mut edits = EditStream::new(args.seed, texts);
    let mut rng = gen::rng(args.seed, 0xC4_0211);
    // The client's model of the daemon's pair cache: a pair is keyed by
    // (schema, content version) on both sides, like the daemon's
    // content-hash keys. The warm snapshot holds every (i < j) pair.
    let mut version = vec![0u32; n];
    let mut cached: HashSet<((usize, u32), (usize, u32))> =
        (0..n).flat_map(|i| ((i + 1)..n).map(move |j| ((i, 0), (j, 0)))).collect();
    let mut cycles = 0usize;
    let (mut kept, mut candidates): (Vec<Kept>, usize) = (Vec::new(), 0);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut window;
    let mut done = false;
    while !done {
        let round_before = client.stats().expect("stats").pairs_executed;
        let mut round_expected = 0u64;
        // Windows tile rounds, so the untimed stats and save calls
        // between rounds stay out of every window.
        window = Window::new();
        for _ in 0..ROUND_CYCLES {
            let cycle = cycles;
            cycles += 1;
            let (r, text) = edits.next_edit();
            let (answer, secs) = tr.timed("client.replace_sdl", || client.replace_sdl(&text));
            phase.mutate_ms.push(secs * 1e3);
            window.add(1, secs);
            report.check(answer.as_deref().ok() == Some(names[r].as_str()), || {
                format!("replace of {} answered {answer:?}", names[r])
            });
            version[r] += 1;

            let mut others = gen::distinct(&mut rng, n, CHURN_OTHERS + 1, Some(r));
            let single = others.pop().expect("corpus larger than the frame");
            let req: Vec<(&str, &str)> =
                others.iter().map(|&o| (names[r].as_str(), names[o].as_str())).collect();
            let (answer, secs) = tr.timed("client.batch", || client.match_pairs(&req));
            let entries = answer.expect("batch frame answered");
            phase.batch_ms.push(secs * 1e3);
            window.add(entries.len(), secs);
            phase.pair_answers += entries.len() as u64;

            let (answer, secs) =
                tr.timed("client.match_pair", || client.match_pair(&names[r], &names[single]));
            let unary = answer.expect("match_pair answered");
            phase.unary_ms.push(secs * 1e3);
            window.add(1, secs);
            phase.pair_answers += 1;

            let (answer, secs) = tr.timed("client.top_k", || client.top_k(TOP_K));
            let listing = answer.expect("top_k answered");
            phase.topk_ms.push(secs * 1e3);
            window.add(1, secs);
            phase.pair_answers += listing.summaries.len() as u64;

            let mut executed = |a: usize, b: usize| {
                if cached.insert(((a, version[a]), (b, version[b]))) {
                    round_expected += 1;
                }
            };
            for &o in others.iter().chain([&single]) {
                executed(r, o);
            }
            for s in &listing.summaries {
                executed(s.source.index(), s.target.index());
            }
            report
                .check(entries.len() == others.len() && entries.iter().all(|e| e.is_ok()), || {
                    format!("batch for {} failed: {entries:?}", names[r])
                });
            report.check(listing.names == names, || "top_k names differ".into());
            if cycle.is_multiple_of(VERIFY_EVERY) {
                let mut entries: Vec<(usize, MatchSummary)> = entries
                    .into_iter()
                    .zip(&others)
                    .take(VERIFY_ENTRIES)
                    .filter_map(|(e, &o)| e.ok().map(|s| (o, s)))
                    .collect();
                entries.push((single, unary));
                let topk = cycle.is_multiple_of(VERIFY_TOPK_EVERY).then_some(listing);
                let k = Kept { cycle, entries, topk };
                candidates += 1;
                if kept.len() < KEPT_CYCLES {
                    kept.push(k);
                } else if let Some(slot) = kept.get_mut(rng.gen_range(0..candidates)) {
                    *slot = k;
                }
            }
            if (cycle + 1).is_multiple_of(WINDOW_CYCLES) {
                window.close(&mut phase.rates);
            }
            if start.elapsed() >= budget && !phase.rates.window.is_empty() {
                done = true;
                break;
            }
        }
        let round_executed = client.stats().expect("stats").pairs_executed - round_before;
        report.check(round_executed == round_expected, || {
            format!("a churn round executed {round_executed} pairs, expected {round_expected}")
        });
        phase.expected_executed += round_expected;
        client.save().expect("save");
        // Replaced content never returns: forget its pairs, as the save
        // just did in the daemon.
        cached.retain(|&((a, va), (b, vb))| va == version[a] && vb == version[b]);
    }
    report.context("churn.cycles", cycles.to_string());
    kept.sort_by_key(|k| k.cycle);
    Churned { cycles, kept }
}

/// Replay every edit of a churn phase (regenerated from the seed) on
/// the in-process mirror and compare the kept answers with the
/// mirror's at the same point of the stream.
fn replay(
    mirror: &mut Repository<'_>,
    names: &[String],
    mut edits: EditStream,
    churned: Churned,
    report: &mut Report,
) {
    let Churned { cycles, kept } = churned;
    let mut kept = kept.into_iter().peekable();
    for cycle in 0..cycles {
        let (r, text) = edits.next_edit();
        let schema = cupid_io::parse_sdl(&text).expect("edit parses");
        mirror.replace(&schema).expect("mirror replace");
        while let Some(k) = kept.next_if(|k| k.cycle == cycle) {
            for (o, answer) in &k.entries {
                let expect = mirror.match_pair(&names[r], &names[*o]).expect("mirror match");
                report.check(engine::same_summary(&expect, answer), || {
                    format!("cycle {cycle}: match answer ({}, {}) differs", names[r], names[*o])
                });
            }
            if let Some(listing) = &k.topk {
                let expect = mirror.top_k_pairs(TOP_K);
                let same = expect.len() == listing.summaries.len()
                    && expect
                        .iter()
                        .zip(&listing.summaries)
                        .all(|(a, b)| engine::same_summary(a, b));
                report.check(same, || format!("cycle {cycle}: top_k listing differs"));
            }
        }
    }
}

/// Per-layer metrics of a traced daemon run.
#[allow(clippy::too_many_arguments)]
fn traced(
    tr: &Tracer,
    report: &mut Report,
    phase: &Phase,
    before: &StatsReport,
    after: &StatsReport,
    executed: u64,
    reference: &Repository<'_>,
    cfg: &CupidConfig,
    thesaurus: &Thesaurus,
    schemas: &[Schema],
    texts: &[String],
    mode: Mode,
    args: &Args,
    pristine: &Path,
) {
    let spans = tr.aggregate();

    // io and session (prepare): the corpus parse above, and a
    // standalone prepare of the same corpus.
    let parse = spans["io.parse_sdl"];
    report.metric("io.parse_ms_per_schema", "ms", parse.self_ns as f64 / 1e6 / parse.count as f64);
    let mut session = MatchSession::new(cfg, thesaurus);
    let (_, secs) =
        tr.timed("session.add_corpus", || session.add_corpus(schemas).expect("prepares"));
    report.metric("session.prepare_ms_per_schema", "ms", secs * 1e3 / schemas.len() as f64);
    report.metric("session.vocab_size", "count", after.vocab_size as f64);
    report.metric("session.vocab_bytes", "bytes", after.vocab_bytes as f64);
    report.metric("session.sim_bytes", "bytes", after.sim_bytes as f64);

    // index: what every top_k request rebuilds and walks.
    const INDEX_ROUNDS: usize = 20;
    let mut candidates = Vec::new();
    for _ in 0..INDEX_ROUNDS {
        let index = tr.span("index.build", || reference.discovery_index());
        candidates = tr.span("index.top_k_pairs", || index.top_k_pairs(TOP_K));
    }
    let spans = tr.aggregate();
    report.metric("index.build_ms", "ms", spans["index.build"].mean_us() / 1e3);
    report.metric("index.candidates_ms", "ms", spans["index.top_k_pairs"].mean_us() / 1e3);
    report.metric("index.worklist_pairs", "count", candidates.len() as f64);
    let useful = candidates
        .iter()
        .filter_map(|&(i, j)| {
            reference.cached_pair_at(i, j).or_else(|| reference.cached_pair_at(j, i))
        })
        .filter(|s| !s.leaf_mappings.is_empty())
        .count();
    report.metric("index.useful_ratio", "ratio", useful as f64 / candidates.len().max(1) as f64);

    let seed = args.seed;
    layers::repo_probe(tr, report, cfg, thesaurus, seed, texts, pristine);
    let frame_pairs = if mode == Mode::WarmReads { BATCH_PAIRS } else { CHURN_OTHERS };
    layers::protocol_probe(tr, report, reference, frame_pairs);
    daemon_metrics(tr, report, before, after);

    // The engine, run on the pairs this workload's daemon executes:
    // none on warm reads (where a probe of corpus pairs stands in for
    // what a cache miss would cost), replaced content against the
    // corpus under churn.
    let mut rng = gen::rng(seed, 0xE9_61E5);
    let pairs: Vec<(SchemaId, SchemaId)> = match mode {
        Mode::WarmReads => {
            let all: Vec<(usize, usize)> =
                (0..SCHEMAS).flat_map(|i| ((i + 1)..SCHEMAS).map(move |j| (i, j))).collect();
            gen::distinct(&mut rng, all.len(), PROBE_PAIRS, None)
                .into_iter()
                .map(|k| (SchemaId::from_index(all[k].0), SchemaId::from_index(all[k].1)))
                .collect()
        }
        Mode::Churn => {
            // On warm reads both are pinned by the output check (0
            // pairs executed, every answer a hit).
            report.metric("daemon.pairs_executed", "count", executed as f64);
            report.metric(
                "daemon.cache_hit_ratio",
                "ratio",
                1.0 - executed as f64 / phase.pair_answers.max(1) as f64,
            );
            let mut edits = EditStream::new(seed ^ 0x9AB, texts);
            let mut pairs = Vec::new();
            for _ in 0..16 {
                let (_, text) = edits.next_edit();
                let schema = cupid_io::parse_sdl(&text).expect("edit parses");
                let id = session.add(&schema).expect("prepares");
                for o in gen::distinct(&mut rng, SCHEMAS, 4, None) {
                    pairs.push((id, SchemaId::from_index(o)));
                }
            }
            pairs
        }
    };
    session.match_pairs(&pairs);
    engine::probe(tr, report, &mut session, cfg, thesaurus, &pairs);
}

/// `daemon` and `client` metrics of a phase: exact per-request means
/// from the deltas of the daemon's own `Stats` frame between `before`
/// and `after`, and what the client saw beyond the handler. Fails the
/// run unless each kind's stages tile its handler mean.
fn daemon_metrics(tr: &Tracer, report: &mut Report, before: &StatsReport, after: &StatsReport) {
    let spans = tr.aggregate();
    let find = |r: &StatsReport, kind: &str| {
        r.latencies
            .iter()
            .chain(&r.stage_latencies)
            .find(|k| k.kind == kind)
            .map_or((0, 0), |k| (k.count, k.total_ns))
    };
    let delta = |kind: &str| {
        let (c0, t0) = find(before, kind);
        let (c1, t1) = find(after, kind);
        (c1 - c0, t1 - t0)
    };
    for (kind, client_span) in KINDS {
        let (count, total) = delta(kind);
        if count == 0 {
            continue;
        }
        let handler_us = total as f64 / count as f64 / 1e3;
        report.metric(format!("daemon.{kind}.handler_us"), "us", handler_us);
        let mut tiled = 0.0;
        for stage in STAGE_NAMES {
            let (_, stage_total) = delta(&format!("{kind}/{stage}"));
            let us = stage_total as f64 / count as f64 / 1e3;
            tiled += us;
            // A stage the kind never passes through on this workload
            // (admission with admission control off, the write lock on
            // pure reads, …) is absent, not a constant zero.
            if stage_total > 0 {
                report.metric(format!("daemon.{kind}.{stage}_us"), "us", us);
            }
        }
        report.context(format!("daemon.{kind}.tiled_share"), json_num(tiled / handler_us));
        report.require(tiled >= 0.95 * handler_us, || {
            format!("daemon {kind} stages tile {tiled:.1} us of a {handler_us:.1} us handler mean")
        });
        let client = spans.get(client_span).copied().unwrap_or_default();
        report.metric(
            format!("client.{kind}.outside_handler_us"),
            "us",
            client.mean_us() - handler_us,
        );
    }
}

/// The daemon layer in another workload's traced run: a daemon over
/// `snap` (a warm snapshot, every pair cached, whose answers are
/// `expected`) serves the warm-read mix drawn from `seed` for a short
/// while, on one CPU as in the serve workloads; its `daemon` and
/// `client` metrics come out as there. Pins the calling thread.
pub fn probe_daemon(
    seed: u64,
    tr: &Tracer,
    report: &mut Report,
    snap: &Path,
    expected: &Expected,
    cfg: &CupidConfig,
    thesaurus: &Thesaurus,
) {
    crate::pin::pin_to_one_cpu();
    let mut phase = Phase::default();
    let (before, after) = std::thread::scope(|scope| {
        let server = Server::bind("127.0.0.1:0", snap, cfg, thesaurus, ServeOptions::default())
            .expect("bind daemon");
        let addr = server.local_addr();
        let daemon = scope.spawn(move || server.run());
        let mut client = ServeClient::connect(addr).expect("connect");
        let before = client.stats().expect("stats");
        warm_reads(seed, PROBE_BUDGET, tr, &mut client, expected, &mut phase, report);
        let after = client.stats().expect("stats");
        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon thread").expect("daemon run");
        (before, after)
    });
    report.check(after.pairs_executed == before.pairs_executed, || {
        "the probe daemon executed pairs over a warm snapshot".into()
    });
    daemon_metrics(tr, report, &before, &after);
}
