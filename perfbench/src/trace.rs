//! Spans and counts taken at the oracle boundary, from outside the program.
//!
//! [`traced_factory`] builds the default [`IncrementalContext`] behind a
//! [`TimedOracle`] that times every call the counting engine makes into it
//! and counts the work it sees.  The engine never branches on the factory
//! kind, so a traced count gives the same answer, and does the same solver
//! work, as an untraced one.  [`CellCounter`] is the [`Progress`] observer
//! that records cells and rounds.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pact::{
    IncrementalContext, InterruptFlag, Oracle, OracleFactory, OracleStats, Progress, ProgressEvent,
    SolverError, SolverResult,
};
use pact_ir::{BvValue, TermId, TermManager, Value};

/// What every oracle of a traced window did, summed over the oracles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleTrace {
    /// `check` calls seen by the wrapper.
    pub checks: u64,
    /// `check` calls that answered Sat.
    pub sat_answers: u64,
    /// `assert_xor_bits` calls: the rows of `H_xor` hash constraints.
    pub xor_rows: u64,
    /// Nanoseconds inside `check`: lazy encoding, SAT search, theory work.
    pub check_ns: u64,
    /// Nanoseconds inside `assert_term`, `assert_xor_bits`, `push`, `pop`.
    pub encode_ns: u64,
    /// Nanoseconds inside `projected_model`.
    pub model_ns: u64,
    /// Nanoseconds in the remaining calls and in building the oracle.
    pub other_ns: u64,
    /// The duration of each `check`, in microseconds.
    pub check_us: Vec<f64>,
    /// The oracles' own statistics, summed.
    pub stats: OracleStats,
}

impl OracleTrace {
    /// Nanoseconds spent inside the oracle in total: the child spans of the
    /// counts that built it.
    pub fn busy_ns(&self) -> u64 {
        self.check_ns + self.encode_ns + self.model_ns + self.other_ns
    }

    fn merge(&mut self, other: OracleTrace) {
        self.checks += other.checks;
        self.sat_answers += other.sat_answers;
        self.xor_rows += other.xor_rows;
        self.check_ns += other.check_ns;
        self.encode_ns += other.encode_ns;
        self.model_ns += other.model_ns;
        self.other_ns += other.other_ns;
        self.check_us.extend(other.check_us);
        let (s, o) = (&mut self.stats, other.stats);
        s.checks += o.checks;
        s.sat_calls += o.sat_calls;
        s.theory_checks += o.theory_checks;
        s.theory_lemmas += o.theory_lemmas;
        s.rebuilds += o.rebuilds;
        s.conflicts += o.conflicts;
        s.pool_reuses += o.pool_reuses;
        s.compactions += o.compactions;
        s.dead_clauses_reclaimed += o.dead_clauses_reclaimed;
        s.preprocess_cache_hits += o.preprocess_cache_hits;
    }
}

/// The shared sink every [`TimedOracle`] of a window reports into when it
/// is dropped.
pub type TraceSink = Arc<Mutex<OracleTrace>>;

/// An oracle factory building the default backend behind a [`TimedOracle`]
/// that reports into `sink`.
pub fn traced_factory(sink: &TraceSink) -> OracleFactory {
    let sink = Arc::clone(sink);
    OracleFactory::new(move |config| {
        let start = Instant::now();
        let inner = IncrementalContext::with_config(config);
        let local = OracleTrace {
            other_ns: elapsed_ns(start),
            ..OracleTrace::default()
        };
        Box::new(TimedOracle {
            inner,
            local,
            model_ns: Cell::new(0),
            sink: Arc::clone(&sink),
        })
    })
}

/// The default oracle with a stopwatch around each call.  It keeps its
/// figures locally and adds them to the sink once, when the engine drops
/// it, so the only cost per call is two clock reads.
pub struct TimedOracle {
    inner: IncrementalContext,
    local: OracleTrace,
    /// `projected_model` takes `&self`, so its time is kept apart.
    model_ns: Cell<u64>,
    sink: TraceSink,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Oracle for TimedOracle {
    fn push(&mut self) {
        let start = Instant::now();
        self.inner.push();
        self.local.encode_ns += elapsed_ns(start);
    }

    fn pop(&mut self) {
        let start = Instant::now();
        self.inner.pop();
        self.local.encode_ns += elapsed_ns(start);
    }

    fn assert_term(&mut self, t: TermId) {
        let start = Instant::now();
        self.inner.assert_term(t);
        self.local.encode_ns += elapsed_ns(start);
    }

    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        let start = Instant::now();
        self.inner.assert_xor_bits(bits, rhs);
        self.local.encode_ns += elapsed_ns(start);
        self.local.xor_rows += 1;
    }

    fn track_var(&mut self, var: TermId) {
        let start = Instant::now();
        self.inner.track_var(var);
        self.local.other_ns += elapsed_ns(start);
    }

    fn check(&mut self, tm: &mut TermManager) -> Result<SolverResult, SolverError> {
        let start = Instant::now();
        let result = self.inner.check(tm);
        let ns = elapsed_ns(start);
        self.local.check_ns += ns;
        self.local.check_us.push(ns as f64 / 1e3);
        self.local.checks += 1;
        if matches!(result, Ok(SolverResult::Sat)) {
            self.local.sat_answers += 1;
        }
        result
    }

    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        self.inner.model_value(tm, var)
    }

    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        let start = Instant::now();
        let model = self.inner.projected_model(tm, projection);
        self.model_ns.set(self.model_ns.get() + elapsed_ns(start));
        model
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }

    fn set_interrupt(&mut self, flag: InterruptFlag) {
        self.inner.set_interrupt(flag);
    }
}

impl Drop for TimedOracle {
    fn drop(&mut self) {
        let mut local = std::mem::take(&mut self.local);
        local.stats = self.inner.stats();
        local.model_ns = self.model_ns.get();
        // Never panic in drop: a poisoned sink only loses this oracle's
        // figures, and the run that poisoned it has already failed.
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(local);
        }
    }
}

/// A [`Progress`] observer counting measured cells and finished rounds.
#[derive(Debug, Default)]
pub struct CellCounter {
    /// Cells measured (one per saturating enumeration).
    pub cells: AtomicU64,
    /// Outer rounds finished.
    pub rounds: AtomicU64,
}

impl Progress for CellCounter {
    fn report(&self, event: &ProgressEvent) {
        match event {
            ProgressEvent::Cell { .. } => {
                self.cells.fetch_add(1, Ordering::Relaxed);
            }
            ProgressEvent::Round { .. } => {
                self.rounds.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}
