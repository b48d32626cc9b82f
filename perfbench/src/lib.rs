//! The benchmark of the pact counter and its service.
//!
//! Three workloads (see `README.md` in this directory for why each was
//! chosen): [`library::Library::XorCount`] and
//! [`library::Library::WordCount`] drive `Session::count_with` in process,
//! and [`serve`] drives the `pact-serve` binary over a pipe.  A run prints
//! the end-to-end metrics with tracing off, or the per-layer metrics with
//! tracing on; every answer is checked outside the timers.

#![forbid(unsafe_code)]

pub mod library;
pub mod measure;
pub mod reference;
pub mod serve;
pub mod trace;

use reference::Verdict;

/// The quantile of repeated identical work reported as its cost: the
/// host's contended state (see `README.md`).
pub const CONTENDED: f64 = 0.9;

/// The per-layer metrics, reported by a traced run of every workload.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("core.self_ms", "ms"),
    ("core.oracle_calls", "count"),
    ("core.cells", "count"),
    ("solver.check_ms", "ms"),
    ("solver.check_us_p50", "us"),
    ("solver.sat_share", "ratio"),
    ("solver.encode_ms", "ms"),
    ("solver.model_ms", "ms"),
    ("solver.compactions", "count"),
    ("solver.cache_hits", "count"),
    ("sat.conflicts_per_check", "count"),
    ("sat.calls_per_check", "count"),
    ("lra.theory_checks", "count"),
    ("lra.lemmas", "count"),
    ("hash.xor_rows", "count"),
    ("service.queue_ms_p50", "ms"),
    ("service.count_ms_p50", "ms"),
    ("service.busy_share", "ratio"),
    ("service.shard_skew", "ratio"),
    ("wire.overhead_ms_p50", "ms"),
    ("wire.bytes_out", "bytes"),
    ("ir.parse_us", "us"),
    ("trace.ops_per_s", "1/s"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The result of one run: the answers' verdicts and the metrics.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Whether every answer is one an `(ε, δ)` guarantee allows.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: usize,
    /// Operations without a correct answer.
    pub failed: usize,
    /// The end-to-end metrics.
    pub metrics: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The exact work counts of one pass (traced library runs only).
    pub exact_work: Option<library::ExactWork>,
    /// Diagnostics printed before the result line.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Summarises a timed phase from the verdict on every operation, the
    /// rate of correct answers and the latency figures as the workload
    /// measures them, the set-up times with the quantile of them reported
    /// as `setup_s`, and the peak resident set of the counting process.
    pub fn new(
        verdicts: &[Verdict],
        ops_per_s: f64,
        p50_ms: f64,
        tail: measure::Tail,
        setups: &[f64],
        setup_quantile: f64,
        peak_rss_mb: f64,
    ) -> Self {
        let attempted = verdicts.len();
        let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
        let ok = count(Verdict::Ok);
        let out_of_band = count(Verdict::OutOfBand);
        // An estimate outside the band is allowed with probability δ per
        // count; more misses than that, or any wrong exact count, is not.
        // A run without a single correct answer measured nothing.
        let delta = pact::CounterConfig::default().delta;
        let correct =
            ok > 0 && count(Verdict::Wrong) == 0 && out_of_band as f64 <= delta * attempted as f64;
        RunReport {
            correct,
            attempted,
            failed: attempted - ok,
            metrics: vec![
                Metric::new("setup_s", measure::quantile(setups, setup_quantile), "s"),
                Metric::new("ops_per_s", ops_per_s, "1/s"),
                Metric::new("p50_ms", p50_ms, "ms"),
                Metric::new("tail_ms", tail.value, "ms"),
                Metric::new("ok_share", ok as f64 / attempted.max(1) as f64, "ratio"),
                Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
            ],
            layers: Vec::new(),
            exact_work: None,
            notes: vec![
                format!(
                    "tail_ms is p{:.2} over {} samples; verdicts: ok={ok} \
                     out_of_band={out_of_band} failed={} wrong={}",
                    tail.percentile,
                    tail.samples,
                    count(Verdict::Failed),
                    count(Verdict::Wrong)
                ),
                format!(
                    "setup_s is p{:.0} of {} set-ups: p10={:.6} median={:.6} p90={:.6}",
                    setup_quantile * 100.0,
                    setups.len(),
                    measure::quantile(setups, 0.1),
                    measure::quantile(setups, 0.5),
                    measure::quantile(setups, 0.9)
                ),
            ],
        }
    }

    /// The result line: one JSON object with the end-to-end metrics, or
    /// with every per-layer metric when `traced`.
    pub fn to_json(&self, traced: bool) -> String {
        let entries: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let m = self
                        .layers
                        .iter()
                        .find(|m| m.name == name)
                        .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
                    metric_json(name, m.value, unit)
                })
                .collect()
        } else {
            self.metrics
                .iter()
                .map(|m| metric_json(m.name, m.value, m.unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            entries.join(", ")
        )
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}
