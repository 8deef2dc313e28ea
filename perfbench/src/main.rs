//! The repository benchmark: three seeded workloads over the Cupid
//! matcher and its daemon, each run in its own process.
//!
//! ```text
//! perfbench --workload <offline_discovery|serve_warm_reads|serve_churn>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it records spans around every call into a layer and
//! reports the per-layer metrics derived from them. The last line of
//! standard output is the result object; the line before it carries
//! context (noise evidence, sample counts, tails) that is never gated.
//! See README.md in this directory for every metric and workload.

mod engine;
mod gen;
mod layers;
mod offline;
mod pin;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;

/// The end-to-end metrics BENCHMARK.json lists. Every workload reports
/// exactly these with `--trace 0`; anything else it measures goes to
/// the context line.
const END_TO_END: &[&str] =
    &["setup_s", "req_per_s_p90", "match_ms_p10", "unary_ms_p10", "topk_ms_p10", "peak_rss_mib"];

/// The per-layer metrics BENCHMARK.json lists, reported by every
/// workload with `--trace 1` (the same rule as [`END_TO_END`]).
const PER_LAYER: &[&str] = &[
    "io.parse_ms_per_schema",
    "session.prepare_ms_per_schema",
    "session.vocab_size",
    "session.vocab_bytes",
    "session.sim_bytes",
    "index.build_ms",
    "index.candidates_ms",
    "index.worklist_pairs",
    "index.useful_ratio",
    "linguistic.pair_lsim_us_per_pair",
    "linguistic.compared_ratio",
    "treematch.us_per_pair",
    "mapping.us_per_pair",
    "session.match_pair_us",
    "session.summary_us_per_pair",
    "session.summary_entries_per_pair",
    "repo.load_ms",
    "repo.snapshot_bytes",
    "repo.cached_lookup_us",
    "repo.replace_ms",
    "repo.invalidated_pairs_per_mutation",
    "repo.journal_bytes_per_mutation",
    "protocol.encode_us_per_frame",
    "protocol.decode_us_per_frame",
    "protocol.response_bytes_per_pair",
    "daemon.batch.handler_us",
    "daemon.batch.decode_us",
    "daemon.batch.lock_wait_read_us",
    "daemon.batch.exec_cached_us",
    "daemon.batch.encode_us",
    "daemon.batch.socket_write_us",
    "daemon.match_pair.handler_us",
    "daemon.match_pair.decode_us",
    "daemon.match_pair.lock_wait_read_us",
    "daemon.match_pair.exec_cached_us",
    "daemon.match_pair.encode_us",
    "daemon.match_pair.socket_write_us",
    "daemon.top_k.handler_us",
    "daemon.top_k.decode_us",
    "daemon.top_k.lock_wait_read_us",
    "daemon.top_k.exec_cached_us",
    "daemon.top_k.encode_us",
    "daemon.top_k.socket_write_us",
    "client.batch.outside_handler_us",
    "client.match_pair.outside_handler_us",
    "client.top_k.outside_handler_us",
];

/// The workload seed when none is given.
const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 45, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad {flag} value `{value}`"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// Scratch space for snapshots and span files: under the Cargo target
/// directory, so it lives inside the checkout and is ignored by git.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
}

/// A run's scratch directory, removed when the run ends (panics
/// included).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_id = (u64::from(std::process::id()) << 32) ^ args.seed;
    let tracer = Tracer::new(args.trace, run_id);
    let work = WorkDir(target_dir().join("perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    let mut report = match args.workload.as_str() {
        "offline_discovery" => offline::run(&args, &tracer, &work.0),
        "serve_warm_reads" => serve::run(&args, &tracer, &work.0, serve::Mode::WarmReads),
        "serve_churn" => serve::run(&args, &tracer, &work.0, serve::Mode::Churn),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` \
                 (offline_discovery, serve_warm_reads, serve_churn)"
            );
            return ExitCode::from(2);
        }
    };
    drop(work);
    if args.trace {
        let path = target_dir()
            .join("perfbench-traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => report.context("trace.spans_file", format!("\"{}\"", path.display())),
            Err(e) => report.require(false, || format!("writing spans to {}: {e}", path.display())),
        }
    }
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    let missing = report.missing(listed);
    report.require(missing.is_empty(), || format!("metrics not measured: {missing:?}"));
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", report.context_line(listed));
    println!("{}", report.result_line(listed));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    /// The metric names listed under `key` in BENCHMARK.json.
    fn manifest(key: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let section = &text[text.find(&format!("\"{key}\"")).expect("section")..];
        let section = &section[..section.find(']').expect("end of list")];
        section
            .split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a name").to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        assert_eq!(manifest("end_to_end"), super::END_TO_END);
        assert_eq!(manifest("per_layer"), super::PER_LAYER);
    }
}
