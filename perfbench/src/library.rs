//! The two library workloads: closed loops of `Session::count_with` on one
//! thread over instances from `pact_benchgen::generate_for_logic`.
//!
//! A run builds a fixed pool of counts from the seed, then repeats whole
//! passes over the pool until the time is up.  Every pass does identical
//! work (same instances, same counter seeds, one thread, no deadline), so
//! the repetitions of a count differ only by machine noise, and the
//! metrics are taken over a fixed high quantile of each count's
//! repetitions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pact::{CancellationToken, CountOutcome, CounterConfig, HashFamily, ParallelConfig, Session};
use pact_benchgen::{generate_for_logic, GenParams, Instance};
use pact_ir::logic::Logic;

use crate::measure::{self, HostTicks};
use crate::reference::{self, Verdict};
use crate::trace::{traced_factory, CellCounter, TraceSink};
use crate::{Metric, RunReport, CONTENDED, PER_LAYER};

/// The six Table I logics, in the paper's row order.
pub const LOGICS: [Logic; 6] = [
    Logic::QfAbvfplra,
    Logic::QfAbvfp,
    Logic::QfAbv,
    Logic::QfBvfplra,
    Logic::QfBvfp,
    Logic::QfUfbv,
];

/// A count that runs longer than this is cancelled and counted as failed.
/// The slowest count of either pool takes under half a second.
pub const HANG_GUARD: Duration = Duration::from_secs(30);

/// Set-ups in the batch before the timed phase and in each batch between
/// two passes.  A set-up takes about a millisecond; a run of tens of
/// seconds sets up several hundred times.
const SETUP_BATCH: usize = 20;

/// Outer iterations of every count: enough rounds for a median, few enough
/// that a pass over the pool stays within a few seconds.
const ITERATIONS: u32 = 3;

/// Which library workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Library {
    /// `H_xor` counts: many cheap incremental checks, native XOR rows.
    XorCount,
    /// `H_prime`/`H_shift` counts: few expensive bit-blasted checks.
    WordCount,
}

/// One generator configuration of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// The Table I logic (selects the generator).
    pub logic: Logic,
    /// Bit-width of the projected variables.
    pub width: u32,
    /// Structural size.
    pub scale: u32,
}

impl Library {
    /// The generator configurations the workload counts.
    ///
    /// CPS robustness (`QF_BVFPLRA`) is the one generator whose projection
    /// grows with scale; it is held to width 8 and scale 2 under `H_xor`
    /// and to scale 1 under the word-level families, where scale 2 takes
    /// 2.9–51 s per count.
    pub fn shapes(self) -> Vec<Shape> {
        let (widths, scales): (&[u32], &[u32]) = match self {
            Library::XorCount => (&[8, 10, 12], &[1, 2, 3]),
            Library::WordCount => (&[7, 8], &[1, 2, 3]),
        };
        let mut shapes = Vec::new();
        for logic in LOGICS {
            for &width in widths {
                for &scale in scales {
                    let keep = logic != Logic::QfBvfplra
                        || match self {
                            Library::XorCount => width == 8 && scale <= 2,
                            Library::WordCount => scale == 1,
                        };
                    if keep {
                        shapes.push(Shape {
                            logic,
                            width,
                            scale,
                        });
                    }
                }
            }
        }
        shapes
    }

    /// Generator seeds drawn per shape.
    fn seeds_per_shape(self) -> u64 {
        match self {
            Library::XorCount => 2,
            Library::WordCount => 1,
        }
    }

    /// The hash family of the `k`-th count of the pool.
    fn family(self, k: usize, seed: u64) -> HashFamily {
        match self {
            Library::XorCount => HashFamily::Xor,
            Library::WordCount if (k as u64 + seed).is_multiple_of(2) => HashFamily::Prime,
            Library::WordCount => HashFamily::Shift,
        }
    }
}

/// SplitMix64: the seed → input derivation of the benchmark.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One count of the pool: an instance and the configuration to count it
/// under.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into [`Pool::instances`].
    pub instance: usize,
    /// The counter configuration.
    pub config: CounterConfig,
}

/// The instances and counts of one run, in pass order.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The generated instances.
    pub instances: Vec<Instance>,
    /// One pass: every count, in a seeded order.
    pub ops: Vec<Op>,
}

/// Generates the pool of `kind` over `shapes` from `seed`.
pub fn pool(kind: Library, shapes: &[Shape], seed: u64) -> Pool {
    let mut instances = Vec::new();
    let mut ops = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        for k in 0..kind.seeds_per_shape() {
            let draw = mix(seed ^ mix((i as u64) << 8 | k));
            let params = GenParams {
                scale: shape.scale,
                width: shape.width,
                seed: draw % 1_000_000,
            };
            let config = CounterConfig {
                family: kind.family(ops.len(), seed),
                seed: draw >> 40,
                iterations_override: Some(ITERATIONS),
                parallel: ParallelConfig { threads: 1 },
                ..CounterConfig::default()
            };
            ops.push(Op {
                instance: instances.len(),
                config,
            });
            instances.push(generate_for_logic(shape.logic, &params));
        }
    }
    // Fisher-Yates with the seed, so no two heavy shapes sit together in
    // every run.
    let mut state = mix(seed ^ 0x5eed);
    for i in (1..ops.len()).rev() {
        state = mix(state);
        ops.swap(i, (state % (i as u64 + 1)) as usize);
    }
    Pool { instances, ops }
}

/// One session per instance of the pool.
pub fn sessions(pool: &Pool, progress: Option<&Arc<CellCounter>>) -> Vec<Session> {
    pool.instances
        .iter()
        .map(|inst| {
            let mut builder = Session::builder(inst.tm.clone())
                .assert_all(&inst.asserts)
                .project_all(&inst.projection);
            if let Some(observer) = progress {
                builder = builder.progress(Arc::clone(observer) as _);
            }
            builder
                .build()
                .expect("generated instances have a projection")
        })
        .collect()
}

/// What one count of the timed loop returned.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index into [`Pool::ops`].
    pub op: usize,
    /// Wall seconds of the `count_with` call.
    pub seconds: f64,
    /// The outcome, or the engine's error.
    pub outcome: Result<CountOutcome, String>,
    /// Oracle calls the report counted.
    pub oracle_calls: u64,
}

/// The timed phase: whole passes over `ops` until `seconds` have passed.
pub struct Passes {
    /// Every count, in completion order.
    pub done: Vec<Done>,
    /// Wall seconds of each pass.
    pub pass_seconds: Vec<f64>,
    /// Wall seconds of the whole phase.
    pub elapsed: f64,
}

/// Runs whole passes of `ops` over `sessions`, at least one and then more
/// until `seconds` have passed, with a watchdog cancelling any count that
/// outlives [`HANG_GUARD`].
pub fn run_passes(
    sessions: &mut [Session],
    ops: &[Op],
    seconds: f64,
    between_passes: &mut dyn FnMut(),
) -> Passes {
    let current: Mutex<Option<(Instant, CancellationToken)>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    let mut done = Vec::new();
    let mut pass_seconds = Vec::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
                if let Some((began, token)) = &*current.lock().expect("watchdog lock") {
                    if began.elapsed() > HANG_GUARD {
                        token.cancel();
                    }
                }
            }
        });
        loop {
            let pass_start = Instant::now();
            for (i, op) in ops.iter().enumerate() {
                let session = &mut sessions[op.instance];
                let token = session.cancellation();
                *current.lock().expect("watchdog lock") = Some((Instant::now(), token.clone()));
                let began = Instant::now();
                let result = session.count_with(&op.config);
                let seconds = began.elapsed().as_secs_f64();
                *current.lock().expect("watchdog lock") = None;
                token.reset();
                let (outcome, oracle_calls) = match result {
                    Ok(report) => (Ok(report.outcome), report.stats.oracle_calls),
                    Err(e) => (Err(e.to_string()), 0),
                };
                done.push(Done {
                    op: i,
                    seconds,
                    outcome,
                    oracle_calls,
                });
            }
            pass_seconds.push(pass_start.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            between_passes();
        }
        stop.store(true, Ordering::SeqCst);
    });
    Passes {
        done,
        pass_seconds,
        elapsed: start.elapsed().as_secs_f64(),
    }
}

/// Exact work counts of one pass, the figures that must repeat exactly
/// from run to run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactWork {
    /// Oracle calls the counts reported.
    pub oracle_calls: u64,
    /// `check` calls the wrapper saw.
    pub checks: u64,
    /// SAT-solver invocations.
    pub sat_calls: u64,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// Simplex feasibility checks.
    pub theory_checks: u64,
    /// Theory lemmas learnt.
    pub theory_lemmas: u64,
    /// `H_xor` rows asserted.
    pub xor_rows: u64,
    /// Cells measured.
    pub cells: u64,
    /// Rounds finished.
    pub rounds: u64,
}

/// The traced oracle and the cell observer of a traced run.  Both library
/// workloads and the replay of `serve_window` trace through it.
#[derive(Default)]
pub struct Tracer {
    sink: TraceSink,
    cells: Arc<CellCounter>,
}

impl Tracer {
    /// One session per instance of `pool`, reporting cells and rounds.
    pub fn sessions(&self, pool: &Pool) -> Vec<Session> {
        sessions(pool, Some(&self.cells))
    }

    /// The counts of `pool`, each behind the traced oracle.
    pub fn ops(&self, pool: &Pool) -> Vec<Op> {
        let factory = traced_factory(&self.sink);
        pool.ops
            .iter()
            .map(|op| Op {
                instance: op.instance,
                config: op.config.clone().with_oracle_factory(factory.clone()),
            })
            .collect()
    }

    /// The exact work of one pass and the per-layer metrics of the counts
    /// in `passes`.
    pub fn finish(&self, passes: &Passes) -> (ExactWork, Vec<Metric>) {
        let trace = self.sink.lock().expect("trace sink").clone();
        let cells = &self.cells;
        let oracle_calls: u64 = passes.done.iter().map(|d| d.oracle_calls).sum();
        let per = |v: u64| v / (passes.pass_seconds.len() as u64).max(1);
        let work = ExactWork {
            oracle_calls: per(oracle_calls),
            checks: per(trace.checks),
            sat_calls: per(trace.stats.sat_calls),
            conflicts: per(trace.stats.conflicts),
            theory_checks: per(trace.stats.theory_checks),
            theory_lemmas: per(trace.stats.theory_lemmas),
            xor_rows: per(trace.xor_rows),
            cells: per(cells.cells.load(Ordering::Relaxed)),
            rounds: per(cells.rounds.load(Ordering::Relaxed)),
        };

        let counts = passes.done.len().max(1) as f64;
        let count_ns: f64 = passes.done.iter().map(|d| d.seconds * 1e9).sum();
        let per_count = |v: f64| v / counts;
        let ms_per_count = |ns: f64| per_count(ns) / 1e6;
        let s = &trace.stats;
        let per_check = |v: u64| v as f64 / s.checks.max(1) as f64;
        let layers = vec![
            Metric::new(
                "core.self_ms",
                ms_per_count(count_ns - trace.busy_ns() as f64),
                "ms",
            ),
            Metric::new("core.oracle_calls", per_count(oracle_calls as f64), "count"),
            Metric::new(
                "core.cells",
                per_count(cells.cells.load(Ordering::Relaxed) as f64),
                "count",
            ),
            Metric::new("solver.check_ms", ms_per_count(trace.check_ns as f64), "ms"),
            Metric::new(
                "solver.check_us_p50",
                measure::median(&trace.check_us),
                "us",
            ),
            Metric::new(
                "solver.sat_share",
                trace.sat_answers as f64 / trace.checks.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "solver.encode_ms",
                ms_per_count(trace.encode_ns as f64),
                "ms",
            ),
            Metric::new("solver.model_ms", ms_per_count(trace.model_ns as f64), "ms"),
            Metric::new(
                "solver.compactions",
                per_count(s.compactions as f64),
                "count",
            ),
            Metric::new(
                "solver.cache_hits",
                per_count(s.preprocess_cache_hits as f64),
                "count",
            ),
            Metric::new("sat.conflicts_per_check", per_check(s.conflicts), "count"),
            Metric::new("sat.calls_per_check", per_check(s.sat_calls), "count"),
            Metric::new(
                "lra.theory_checks",
                per_count(s.theory_checks as f64),
                "count",
            ),
            Metric::new("lra.lemmas", per_count(s.theory_lemmas as f64), "count"),
            Metric::new("hash.xor_rows", per_count(trace.xor_rows as f64), "count"),
        ];
        (work, layers)
    }
}

/// Runs a library workload for `seconds` and checks every answer against
/// an enumeration of the instance.
pub fn run(kind: Library, seed: u64, seconds: f64, traced: bool) -> RunReport {
    run_shapes(kind, &kind.shapes(), seed, seconds, traced)
}

/// [`run`] over a pool of `shapes` only.
pub fn run_shapes(
    kind: Library,
    shapes: &[Shape],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> RunReport {
    let tracer = traced.then(Tracer::default);
    // Set-up: generate the pool and build its sessions.  A batch of
    // set-ups runs before the timed phase and another between each two
    // passes, so the set-ups sample the same host states as the counts.
    let setup = || {
        let start = Instant::now();
        let pool = pool(kind, shapes, seed);
        let sessions = match &tracer {
            Some(tracer) => tracer.sessions(&pool),
            None => sessions(&pool, None),
        };
        (start.elapsed().as_secs_f64(), pool, sessions)
    };
    let batch = |setups: &mut Vec<f64>| setups.extend((0..SETUP_BATCH).map(|_| setup().0));
    let mut setups = Vec::new();
    batch(&mut setups);
    let (first, pool, mut sessions) = setup();
    setups.push(first);
    let ops = match &tracer {
        Some(tracer) => tracer.ops(&pool),
        None => pool.ops.clone(),
    };

    let host = HostTicks::now();
    let cpu = measure::thread_cpu_seconds();
    let passes = run_passes(&mut sessions, &ops, seconds, &mut || batch(&mut setups));
    let cpu_share = (measure::thread_cpu_seconds() - cpu) / passes.elapsed;
    let steal = HostTicks::now().steal_share_since(&host);
    let peak_rss_mb = measure::peak_rss_mb("self");
    drop(sessions);

    // Outside every timer: the reference count of each instance.
    let exact: Vec<u64> = pool.instances.iter().map(reference::exact_count).collect();
    let verdicts: Vec<Verdict> = passes
        .done
        .iter()
        .map(|d| {
            let op = &pool.ops[d.op];
            Verdict::judge(&d.outcome, exact[op.instance], op.config.epsilon)
        })
        .collect();

    // Every repetition of a count does identical work; only the host makes
    // them differ.  Neighbours leave it either contended, at a speed that
    // holds steady for a minute at a time, or uncontended, at a speed that
    // varies with their load.  A count's cost is taken in the contended
    // state, which every run of tens of seconds reaches: the 90th
    // percentile of its repetitions.  Only correct answers count towards
    // the rate: every pass counts the whole pool, so the share of correct
    // answers scales the pool's counts per second.
    let mut repetitions = vec![Vec::new(); pool.ops.len()];
    for d in &passes.done {
        repetitions[d.op].push(d.seconds * 1e3);
    }
    let cost_ms: Vec<f64> = repetitions
        .iter()
        .map(|r| measure::quantile(r, CONTENDED))
        .collect();
    let ok = verdicts.iter().filter(|&&v| v == Verdict::Ok).count();
    let ok_share = ok as f64 / verdicts.len().max(1) as f64;
    let ops_per_s = ok_share * 1e3 * pool.ops.len() as f64 / cost_ms.iter().sum::<f64>();
    let wall_ops_per_s = ok as f64 / passes.elapsed;
    let mut report = RunReport::new(
        &verdicts,
        ops_per_s,
        measure::median(&cost_ms),
        measure::tail(&cost_ms),
        // The set-ups are spread over the run like the counts, and are
        // taken in the contended state like them.
        &setups,
        CONTENDED,
        peak_rss_mb,
    );
    report.notes.push(format!(
        "noise: steal_share={steal:.4} thread_cpu/wall={cpu_share:.4} \
         wall_ops_per_s={wall_ops_per_s:.3} pool={} pass_s={:.3?}",
        pool.ops.len(),
        passes.pass_seconds
    ));
    if let Some(tracer) = &tracer {
        let (work, mut layers) = tracer.finish(&passes);
        layers.push(Metric::new("trace.ops_per_s", ops_per_s, "1/s"));
        report.notes.push(format!("exact work per pass: {work:?}"));
        // The service, wire and ir layers are not on a library workload's
        // path: nothing runs there, and they read 0.
        report.layers = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let measured = layers.iter().find(|m| m.name == name);
                measured.cloned().unwrap_or(Metric::new(name, 0.0, unit))
            })
            .collect();
        report.exact_work = Some(work);
    }
    report
}
