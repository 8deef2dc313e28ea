//! Result assembly: metrics with units, sample statistics, the noise
//! evidence printed beside every run, and the JSON result line.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One named measurement.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Context printed before the result line; never gated.
    context: Vec<(String, String)>,
    /// Operations whose output was checked.
    attempted: u64,
    /// Checked operations that failed or answered wrongly.
    failed: u64,
    /// Failed self-checks, described.
    pub problems: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value });
    }

    /// Record a context entry (a JSON value, already rendered).
    pub fn context(&mut self, key: impl Into<String>, json_value: impl Into<String>) {
        self.context.push((key.into(), json_value.into()));
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }

    /// Record a self-check that is not an operation (it fails the run
    /// without counting as a failed operation).
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Record the timing context of one latency sample set: its sample
    /// count, p10, median, and the highest percentile with at least ten
    /// samples beyond it (all from the kept reservoir).
    pub fn latency_context(&mut self, name: &str, samples: &Samples) {
        let mut sorted = samples.kept.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut tail = String::from("null");
        for (label, q) in [("p99.99", 0.9999), ("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
            let beyond = n - ((q * n as f64).ceil() as usize).min(n);
            if beyond >= 10 {
                tail = format!(
                    "{{\"percentile\":\"{label}\",\"ms\":{},\"samples_beyond\":{beyond}}}",
                    json_num(quantile(&sorted, q))
                );
                break;
            }
        }
        self.context(
            format!("{name}.samples"),
            format!(
                "{{\"n\":{},\"kept\":{n},\"p10_ms\":{},\"p50_ms\":{},\"tail\":{tail}}}",
                samples.seen,
                json_num(quantile(&sorted, 0.1)),
                json_num(quantile(&sorted, 0.5))
            ),
        );
    }

    /// True when every checked operation and self-check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Names of `listed` that no recorded metric carries.
    pub fn missing<'a>(&self, listed: &[&'a str]) -> Vec<&'a str> {
        listed.iter().copied().filter(|l| !self.metrics.iter().any(|m| m.name == *l)).collect()
    }

    /// The context line (`{"context":{…}}`), which also carries every
    /// recorded metric `listed` does not name.
    pub fn context_line(&self, listed: &[&str]) -> String {
        let mut out = String::from("{\"context\":{");
        let unlisted = self
            .metrics
            .iter()
            .filter(|m| !listed.contains(&m.name.as_str()))
            .map(|m| (m.name.clone(), json_num(m.value)));
        for (i, (k, v)) in self.context.iter().cloned().chain(unlisted).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("}}");
        out
    }

    /// The result line the benchmark contract asks for, with the
    /// recorded metrics `listed` names.
    pub fn result_line(&self, listed: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let kept = self.metrics.iter().filter(|m| listed.contains(&m.name.as_str()));
        for (i, m) in kept.enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The latency quantile reported as an end-to-end metric: the fast
/// side of each distribution, which on a host whose speed flips every
/// second or so measures the program at full speed, while the p50
/// follows the share of the run the host was slow (README.md,
/// "Fast-side quantiles"). The p50 is printed as context.
pub const LATENCY_Q: f64 = 0.1;

/// The quantile of per-window throughputs reported as `req_per_s_p90`,
/// the fast side for the same reason as [`LATENCY_Q`].
pub const RATE_Q: f64 = 0.9;

/// Answers per second of steal-free request time over a timed phase,
/// one figure per window, with what was sampled between windows.
#[derive(Debug, Default)]
pub struct Rates {
    /// Steal-corrected rates, one per window.
    pub window: Vec<f64>,
    /// The same windows before the steal correction (context).
    pub raw: Vec<f64>,
    /// Reference kernel times sampled between windows (context).
    pub reference_ms: Vec<f64>,
}

impl Rates {
    /// The [`RATE_Q`] quantile of the steal-corrected window rates.
    pub fn fast(&self) -> f64 {
        let mut sorted = self.window.clone();
        sorted.sort_by(f64::total_cmp);
        quantile(&sorted, RATE_Q)
    }
}

/// Accumulates answers and request time into throughput windows.
#[derive(Debug)]
pub struct Window {
    answers: u64,
    busy: f64,
    opened: HostClock,
}

impl Window {
    /// Open a window now.
    pub fn new() -> Window {
        Window { answers: 0, busy: 0.0, opened: HostClock::now() }
    }

    /// Count `answers` given in `seconds` of request time.
    pub fn add(&mut self, answers: usize, seconds: f64) {
        self.answers += answers as u64;
        self.busy += seconds;
    }

    /// Close the window into `rates`, sample the reference kernel, and
    /// open the next window.
    pub fn close(&mut self, rates: &mut Rates) {
        if self.busy > 0.0 {
            let share = self.opened.steal_share_since();
            rates.raw.push(self.answers as f64 / self.busy);
            rates.window.push(self.answers as f64 / (self.busy * (1.0 - share)));
        }
        rates.reference_ms.push(reference_kernel_ms());
        *self = Window::new();
    }
}

/// Samples kept per latency kind.
pub const RESERVOIR: usize = 1 << 14;

/// The latencies of one request kind over a timed phase: the count and
/// sum of every sample, and a seeded uniform reservoir of at most
/// [`RESERVOIR`] of them for the quantiles. The reservoir is allocated
/// and written once up front, so however many requests a run completes,
/// the benchmark's own memory does not grow during the phase (where
/// `peak_rss_mib` is measured).
#[derive(Debug)]
pub struct Samples {
    kept: Vec<f64>,
    seen: u64,
    sum: f64,
    rng: StdRng,
}

impl Default for Samples {
    fn default() -> Samples {
        let mut kept = Vec::with_capacity(RESERVOIR);
        // Touch every page now rather than during the phase.
        kept.resize(RESERVOIR, 1.0);
        kept.clear();
        Samples { kept, seen: 0, sum: 0.0, rng: StdRng::seed_from_u64(0x05A3_B1E5) }
    }
}

impl Samples {
    /// Record one latency.
    pub fn push(&mut self, ms: f64) {
        self.seen += 1;
        self.sum += ms;
        if self.kept.len() < RESERVOIR {
            self.kept.push(ms);
        } else {
            let slot = self.rng.gen_range(0..self.seen) as usize;
            if let Some(kept) = self.kept.get_mut(slot) {
                *kept = ms;
            }
        }
    }

    /// Whether no latency was recorded.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Sum of every recorded latency.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Quantile `q` of the kept samples (every sample while fewer than
    /// [`RESERVOIR`] were recorded).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.kept.clone();
        sorted.sort_by(f64::total_cmp);
        quantile(&sorted, q)
    }
}

/// A finite number as JSON, with every digit of its shortest
/// round-trip form (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Linearly interpolated quantile of ascending `sorted` (0 if empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Mean of samples (0 if empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// CPU time the hypervisor has stolen so far from `cpus`, in seconds,
/// from the `cpuN` lines of `/proc/stat` (USER_HZ = 100); with `cpus`
/// empty, from the host-wide `cpu` line. `None` where unavailable.
pub fn steal_seconds(cpus: &[usize]) -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let steal = |line: &str| line.split_whitespace().nth(8)?.parse::<u64>().ok();
    let ticks = if cpus.is_empty() {
        steal(stat.lines().next()?)?
    } else {
        let mut sum = 0;
        for line in stat.lines().take_while(|l| l.starts_with("cpu")) {
            let cpu = line.split_whitespace().next()?.strip_prefix("cpu")?;
            if cpu.parse().is_ok_and(|c: usize| cpus.contains(&c)) {
                sum += steal(line)?;
            }
        }
        sum
    };
    Some(ticks as f64 / 100.0)
}

/// CPU time this process has used so far (all threads, exited ones
/// included), in seconds, from `/proc/self/stat`. Steal time is not
/// part of it.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// The highest share of a measured interval the steal correction may
/// remove. Steal on the process's CPUs can still come from another
/// program's threads there, so a larger share is not trusted to be the
/// process's own; above it the figure is corrected by this much only.
pub const MAX_STEAL_SHARE: f64 = 0.25;

/// A reading of the steal of the CPUs this thread may run on (one when
/// pinned, every CPU otherwise) and of process CPU time, to take the
/// time the host stole out of a measured interval.
///
/// Steal accrues while a vCPU wants to run and the hypervisor runs
/// something else, so over an interval the process wanted
/// `cpu + steal` seconds of CPU and got `cpu`. Scaling the interval's
/// wall time by `1 − steal / (cpu + steal)` gives the time it would
/// have taken on an unstolen machine. The correction only removes time
/// the host took: CPU the program burns, and time it waits or sleeps,
/// stay in the figure.
#[derive(Debug, Clone)]
pub struct HostClock {
    cpus: Vec<usize>,
    steal: f64,
    cpu: f64,
}

impl HostClock {
    /// Read the clocks now.
    pub fn now() -> HostClock {
        let cpus = crate::pin::allowed_cpus();
        HostClock {
            steal: steal_seconds(&cpus).unwrap_or(0.0),
            cpu: process_cpu_seconds().unwrap_or(0.0),
            cpus,
        }
    }

    /// Seconds stolen from the process's CPUs and seconds of process
    /// CPU time since `self`.
    fn since(&self) -> (f64, f64) {
        let steal = steal_seconds(&self.cpus).unwrap_or(0.0) - self.steal;
        (steal, process_cpu_seconds().unwrap_or(0.0) - self.cpu)
    }

    /// The fraction of the process's wanted CPU time the host stole
    /// since `self`, at most [`MAX_STEAL_SHARE`] (0 where the clocks
    /// are unavailable).
    pub fn steal_share_since(&self) -> f64 {
        let (steal, cpu) = self.since();
        steal_share(steal, cpu)
    }
}

fn steal_share(steal: f64, cpu: f64) -> f64 {
    if steal + cpu > 0.0 {
        (steal / (steal + cpu)).clamp(0.0, MAX_STEAL_SHARE)
    } else {
        0.0
    }
}

/// Steal and process CPU time summed over several intervals too short
/// to take a steal share each (`/proc/stat` counts in 10 ms ticks), such
/// as the set-ups of one run.
#[derive(Debug, Default)]
pub struct StealTally {
    steal: f64,
    cpu: f64,
}

impl StealTally {
    /// Add the interval since `start`.
    pub fn add(&mut self, start: &HostClock) {
        let (steal, cpu) = start.since();
        self.steal += steal;
        self.cpu += cpu;
    }

    /// The share of the intervals' wanted CPU time the host stole, at
    /// most [`MAX_STEAL_SHARE`].
    pub fn share(&self) -> f64 {
        steal_share(self.steal, self.cpu)
    }
}

/// The 1-minute load average from `/proc/loadavg`.
pub fn load_avg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

/// A `/proc/self/status` size field, in MiB (0 where unavailable).
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of this process (`VmHWM`), in MiB: since the
/// last successful [`reset_peak_rss`], else since the process started.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident memory of this process now (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Start a new memory peak: hand the heap pages freed so far back to
/// the kernel, then reset `VmHWM` to the current resident size
/// (`/proc/self/clear_refs`), so [`peak_rss_mib`] covers only what runs
/// after this call. Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases free heap memory; it takes
    // no pointers and may be called at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Time of a fixed CPU-bound reference kernel, in milliseconds. It
/// shares no code with the matcher: edit distances between fixed words
/// (branchy integer work) and max-plus sweeps over a 64×64 `f64` matrix
/// (the shape of a similarity matrix). Its ~40 KiB working set stays in
/// cache, so it runs slow exactly when the host runs this CPU slow — a
/// lower clock, a busy sibling hyperthread, steal — whatever the
/// program does. Sampled between measurement windows, it lets a run
/// whose figures moved be blamed on the host or on the program.
pub fn reference_kernel_ms() -> f64 {
    const WORDS: [&[u8]; 6] = [
        b"PurchaseOrderNumber",
        b"InvoiceLineQuantity",
        b"ShipToAddressStreet",
        b"CustomerAccountCode",
        b"UnitOfMeasureAmount",
        b"DeliveryDateTotal",
    ];
    const N: usize = 64;
    let t0 = std::time::Instant::now();
    let mut acc = 0usize;
    let mut row = [0usize; 32];
    for _ in 0..40 {
        for a in WORDS {
            for b in std::hint::black_box(WORDS) {
                // Levenshtein distance, one rolling row.
                for (j, cell) in row.iter_mut().enumerate().take(b.len() + 1) {
                    *cell = j;
                }
                for (i, &ca) in a.iter().enumerate() {
                    let mut diag = row[0];
                    row[0] = i + 1;
                    for (j, &cb) in b.iter().enumerate() {
                        let up = row[j + 1];
                        row[j + 1] = (diag + usize::from(ca != cb)).min(up + 1).min(row[j] + 1);
                        diag = up;
                    }
                }
                acc += row[b.len()];
            }
        }
    }
    let mut m: Vec<f64> = (0..N * N).map(|k| ((k * 7919) % 1000) as f64 / 1000.0).collect();
    for _ in 0..200 {
        for i in 1..N {
            for j in 0..N {
                let best = m[(i - 1) * N + j].max(m[(i - 1) * N + (j + N - 1) % N]);
                m[i * N + j] = 0.5 * (m[i * N + j] + best);
            }
        }
        m = std::hint::black_box(m);
    }
    std::hint::black_box((acc, &m));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Noise evidence over a timed phase: steal seconds, host-wide and on
/// the CPUs the process may run on, and this process's CPU seconds
/// during it. Steal on the process's CPUs as a share of the CPU time
/// the process wanted (`steal / (cpu + steal)`) says how much of a
/// slow run the host took.
#[derive(Debug)]
pub struct NoiseProbe {
    cpus: Vec<usize>,
    host_steal_start: Option<f64>,
    steal_start: Option<f64>,
    cpu_start: Option<f64>,
}

impl NoiseProbe {
    /// Start observing.
    pub fn start() -> NoiseProbe {
        let cpus = crate::pin::allowed_cpus();
        NoiseProbe {
            host_steal_start: steal_seconds(&[]),
            steal_start: steal_seconds(&cpus),
            cpu_start: process_cpu_seconds(),
            cpus,
        }
    }

    /// Stop observing and record the evidence as context, with the
    /// reference kernel times sampled during the phase.
    pub fn finish(self, report: &mut Report, mut reference_ms: Vec<f64>) {
        reference_ms.push(reference_kernel_ms());
        report.context("host.reference_ms", json_num(median(&reference_ms)));
        report.context("host.reference_samples", reference_ms.len().to_string());
        let delta = |start: Option<f64>, end: Option<f64>| Some(end? - start?);
        let host_steal = delta(self.host_steal_start, steal_seconds(&[]));
        let steal = delta(self.steal_start, steal_seconds(&self.cpus));
        let cpu = delta(self.cpu_start, process_cpu_seconds());
        let num = |v: Option<f64>| v.map_or("null".to_string(), json_num);
        report.context("host.steal_s", num(host_steal));
        report.context("process.cpus", format!("{:?}", self.cpus));
        report.context("process.cpus_steal_s", num(steal));
        report.context("process.cpu_s", num(cpu));
        report.context(
            "host.steal_share",
            num(steal.zip(cpu).map(|(s, c)| s / (s + c).max(f64::MIN_POSITIVE))),
        );
        report.context("host.loadavg_1m", load_avg_1m().map_or("null".to_string(), json_num));
        report.context(
            "host.available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()).to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut r = Report::default();
        let mut samples = Samples::default();
        (0..1000).for_each(|i| samples.push(f64::from(i)));
        r.latency_context("x", &samples);
        let line = r.context_line(&[]);
        assert!(line.contains("\"percentile\":\"p99\""), "{line}");
        assert!(line.contains("\"samples_beyond\":10"), "{line}");
    }

    #[test]
    fn steal_reads_each_cpu_and_the_host() {
        let cpus = crate::pin::allowed_cpus();
        assert!(!cpus.is_empty());
        let own = steal_seconds(&cpus).expect("per-CPU steal");
        let host = steal_seconds(&[]).expect("host steal");
        let one = steal_seconds(&cpus[..1]).expect("one CPU's steal");
        assert!(one <= own + 0.01 && own <= host + 0.01, "{one} {own} {host}");
    }

    #[test]
    fn peak_resets_to_the_current_size() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mib();
        if reset_peak_rss() {
            assert!(peak_rss_mib() < before - 32.0, "{} vs {before}", peak_rss_mib());
        }
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut samples = Samples::default();
        let n = 10 * RESERVOIR;
        (0..n).for_each(|i| samples.push(i as f64));
        assert_eq!(samples.kept.len(), RESERVOIR);
        assert_eq!(samples.kept.capacity(), RESERVOIR);
        assert_eq!(samples.seen, n as u64);
        let mid = (n - 1) as f64 / 2.0;
        let median = samples.quantile(0.5);
        assert!((median - mid).abs() < 0.03 * n as f64, "{median}");
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.metric("setup_s", "s", 0.25);
        r.metric("other_ms", "ms", 1.5);
        r.check(true, String::new);
        assert_eq!(
            r.result_line(&["setup_s"]),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        assert_eq!(r.context_line(&["setup_s"]), "{\"context\":{\"other_ms\":1.5}}");
        assert_eq!(r.missing(&["setup_s", "gone_s"]), vec!["gone_s"]);
    }
}
