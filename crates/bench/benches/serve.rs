//! Daemon throughput (DESIGN.md §9.5, §11): requests/sec against a
//! warm 32-schema corpus, at 1, 2 and 4 concurrent client threads,
//! unary and batched.
//!
//! One daemon serves the whole benchmark from a snapshot in which
//! every pair summary is already cached — the interactive steady state
//! a resident matcher exists for — so `match_pair` legs measure the
//! serving stack (frame encode/decode, checksums, the `RwLock` read
//! path, loopback TCP), not pair execution; `top_k` legs add the
//! discovery-index walk per request. Each timed iteration fans
//! [`REQUESTS`] requests out across the leg's client threads over
//! pre-connected streams; requests/sec = `REQUESTS / mean time`
//! (the `requests_per_iter` context key records the numerator).
//!
//! The `frame_checksum` group times the checksum that both ends pay on
//! every served frame: the word-wise `frame_checksum` and the byte-wise
//! `fnv1a` that legacy frames carried, back to back over the same
//! payload — a [`REQUESTS`]-pair batch response from the warm corpus,
//! the frame the batched legs receive.

use criterion::{criterion_group, criterion_main, Criterion};
use cupid_corpus::synthetic::{generate, SyntheticConfig};
use cupid_eval::configs;
use cupid_model::wire::{fnv1a, frame_checksum};
use cupid_model::Schema;
use cupid_repo::Repository;
use cupid_serve::{BatchOutcome, Response, ServeClient, ServeOptions, Server};
use std::hint::black_box;
use std::sync::Mutex;

const SCHEMAS: usize = 32;
const LEAVES: usize = 24;
/// Requests per timed iteration (split across the leg's clients).
const REQUESTS: usize = 64;

/// Same corpus construction as the `repo` bench: 16 generated pairs
/// over the shared word pool, renamed to unique repository keys.
fn corpus() -> Vec<Schema> {
    let mut out = Vec::with_capacity(SCHEMAS);
    for seed in 0..(SCHEMAS as u64 / 2) {
        let pair = generate(&SyntheticConfig::sized(LEAVES, 1000 + seed));
        for (half, mut s) in [("a", pair.source), ("b", pair.target)] {
            s.rename(format!("S{seed}{half}"));
            out.push(s);
        }
    }
    out
}

fn bench_serve(c: &mut Criterion) {
    let cfg = configs::synthetic();
    let th = generate(&SyntheticConfig::sized(LEAVES, 1000)).thesaurus;
    let corpus = corpus();
    let names: Vec<String> = corpus.iter().map(|s| s.name().to_string()).collect();
    let dir = std::env::temp_dir().join(format!("cupid-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("warm.repo");

    // Warm snapshot: every pair executed and cached.
    let (kind, payload) = {
        let mut repo = Repository::open_or_create(&snap, &cfg, &th).expect("open");
        repo.add_corpus(&corpus).expect("corpus prepares");
        let total = repo.match_all_pairs().len();
        repo.save().expect("snapshot");
        criterion::set_context("total_pairs", total);
        let entries = (0..SCHEMAS)
            .flat_map(|i| ((i + 1)..SCHEMAS).map(move |j| (i, j)))
            .take(REQUESTS)
            .map(|(i, j)| {
                Ok(BatchOutcome::Matched {
                    source: names[i].clone(),
                    target: names[j].clone(),
                    summary: repo.cached_pair_at(i, j).expect("cached"),
                })
            })
            .collect();
        Response::Batch { entries }.encode()
    };
    criterion::set_context("frame_checksum_payload_bytes", payload.len());
    let mut g = c.benchmark_group("frame_checksum");
    g.bench_function("word_wise", |b| b.iter(|| frame_checksum(kind, black_box(&payload))));
    g.bench_function("fnv1a", |b| b.iter(|| fnv1a(black_box(&payload))));
    g.finish();

    let server =
        Server::bind("127.0.0.1:0", &snap, &cfg, &th, ServeOptions::default()).expect("bind");
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        scope.spawn(move || server.run().expect("daemon run"));

        let mut g = c.benchmark_group("serve");
        g.sample_size(10);
        for clients in [1usize, 2, 4] {
            // Pre-connected clients, reused across iterations; each
            // bench thread locks its own.
            let pool: Vec<Mutex<ServeClient>> = (0..clients)
                .map(|_| Mutex::new(ServeClient::connect(addr).expect("connect")))
                .collect();
            g.bench_function(format!("match_pair/clients{clients}"), |b| {
                b.iter(|| {
                    let served = std::thread::scope(|s| {
                        let handles: Vec<_> = pool
                            .iter()
                            .enumerate()
                            .map(|(w, slot)| {
                                let names = &names;
                                s.spawn(move || {
                                    let mut client = slot.lock().unwrap_or_else(|e| e.into_inner());
                                    let mut served = 0usize;
                                    for r in 0..REQUESTS / clients {
                                        let i = (w * 7 + r * 3) % names.len();
                                        let j = (i + 1 + (r % (names.len() - 1))) % names.len();
                                        let (i, j) = if i < j { (i, j) } else { (j, i) };
                                        let summary =
                                            client.match_pair(&names[i], &names[j]).expect("match");
                                        served += 1;
                                        black_box(summary.best_wsim());
                                    }
                                    served
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().expect("client")).sum::<usize>()
                    });
                    black_box(served)
                })
            });
            // Same worklist as the unary leg, shipped as ONE batch
            // frame per client per iteration: the round-trip and the
            // read-lock/memo-clone amortization the batch path buys.
            let worklists: Vec<Vec<(String, String)>> = (0..clients)
                .map(|w| {
                    (0..REQUESTS / clients)
                        .map(|r| {
                            let i = (w * 7 + r * 3) % names.len();
                            let j = (i + 1 + (r % (names.len() - 1))) % names.len();
                            let (i, j) = if i < j { (i, j) } else { (j, i) };
                            (names[i].clone(), names[j].clone())
                        })
                        .collect()
                })
                .collect();
            g.bench_function(format!("match_pair_batched/clients{clients}"), |b| {
                b.iter(|| {
                    let served = std::thread::scope(|s| {
                        let handles: Vec<_> = pool
                            .iter()
                            .zip(&worklists)
                            .map(|(slot, pairs)| {
                                s.spawn(move || {
                                    let mut client = slot.lock().unwrap_or_else(|e| e.into_inner());
                                    let entries = client.match_pairs(pairs).expect("batch");
                                    let mut served = 0usize;
                                    for entry in entries {
                                        let summary = entry.expect("entry ok");
                                        served += 1;
                                        black_box(summary.best_wsim());
                                    }
                                    served
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().expect("client")).sum::<usize>()
                    });
                    black_box(served)
                })
            });
            g.bench_function(format!("top_k/clients{clients}"), |b| {
                b.iter(|| {
                    let served = std::thread::scope(|s| {
                        let handles: Vec<_> = pool
                            .iter()
                            .map(|slot| {
                                s.spawn(move || {
                                    let mut client = slot.lock().unwrap_or_else(|e| e.into_inner());
                                    let mut served = 0usize;
                                    for _ in 0..(REQUESTS / 8) / clients {
                                        let listing = client.top_k(3).expect("top-k");
                                        served += 1;
                                        black_box(listing.summaries.len());
                                    }
                                    served
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().expect("client")).sum::<usize>()
                    });
                    black_box(served)
                })
            });
        }
        g.finish();

        ServeClient::connect(addr).expect("connect").shutdown().expect("shutdown");
    });

    criterion::set_context("schemas", SCHEMAS);
    criterion::set_context("leaves_per_schema", LEAVES);
    criterion::set_context("match_pair_requests_per_iter", REQUESTS);
    criterion::set_context("match_pair_batched_requests_per_iter", REQUESTS);
    criterion::set_context("top_k_requests_per_iter", REQUESTS / 8);
    criterion::set_context("top_k_k", 3);

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
