//! Reference counts by enumeration, and the verdict on each answer.

use pact::{CountOutcome, CounterConfig, Session};
use pact_benchgen::Instance;

/// Every benchmark instance has at most this many projected models, so
/// enumeration always finishes.
pub const MODEL_LIMIT: u64 = 1 << 16;

/// Enumeration slows down as blocking clauses pile up, so wide
/// projections are enumerated in ranges of their first variable that hold
/// at most `2^SPLIT_BITS` projected values each: the 50,000 models of a
/// 16-bit CPS instance take 16 s in one enumeration and 2 s in ranges.
const SPLIT_BITS: u32 = 8;

/// The exact projected model count of `inst`, by `pact`'s enumerator.
///
/// # Panics
///
/// Panics when the instance has more than [`MODEL_LIMIT`] models or the
/// enumerator fails: the benchmark's instances are chosen so neither
/// happens.
pub fn exact_count(inst: &Instance) -> u64 {
    let first = inst.projection[0];
    let width = inst.tm.sort(first).discrete_bits().unwrap_or(0);
    let split = inst
        .projection_bits()
        .saturating_sub(SPLIT_BITS)
        .min(width)
        .min(16);
    let chunk = 1u128 << (width - split);
    (0..1u128 << split)
        .map(|i| {
            enumerate(
                inst,
                (split > 0).then(|| (i * chunk, i * chunk + chunk - 1)),
            )
        })
        .sum()
}

/// Enumerates `inst`, with its first projected variable held to the
/// inclusive range `lo..=hi`.
fn enumerate(inst: &Instance, range: Option<(u128, u128)>) -> u64 {
    let mut tm = inst.tm.clone();
    let mut asserts = inst.asserts.clone();
    if let Some((lo, hi)) = range {
        let first = inst.projection[0];
        let width = tm.sort(first).discrete_bits().unwrap_or(0);
        let (lo, hi) = (tm.mk_bv_const(lo, width), tm.mk_bv_const(hi, width));
        asserts.push(tm.mk_bv_ule(lo, first).expect("bit-vector operands"));
        asserts.push(tm.mk_bv_ule(first, hi).expect("bit-vector operands"));
    }
    let report = Session::builder(tm)
        .assert_all(&asserts)
        .project_all(&inst.projection)
        .config(CounterConfig::default())
        .build()
        .and_then(|mut session| session.enumerate(MODEL_LIMIT + 1))
        .unwrap_or_else(|e| panic!("enumerating {}: {e}", inst.name));
    match report.outcome {
        CountOutcome::Exact(n) => n,
        CountOutcome::Unsatisfiable => 0,
        other => panic!("enumerating {}: {other}", inst.name),
    }
}

/// How one answer compares with the reference count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact and equal, or approximate within the `(1 + ε)` band.
    Ok,
    /// Approximate and outside the band: the guarantee allows this with
    /// probability at most `δ`.
    OutOfBand,
    /// No answer: an engine error, or the hang guard cancelled the count.
    Failed,
    /// An answer no `(ε, δ)` guarantee allows: a wrong exact count.
    Wrong,
}

impl Verdict {
    /// Judges one outcome against the exact count.
    pub fn judge(outcome: &Result<CountOutcome, String>, exact: u64, epsilon: f64) -> Verdict {
        match outcome {
            Ok(CountOutcome::Exact(n)) if *n == exact => Verdict::Ok,
            Ok(CountOutcome::Unsatisfiable) if exact == 0 => Verdict::Ok,
            Ok(CountOutcome::Exact(_)) | Ok(CountOutcome::Unsatisfiable) => Verdict::Wrong,
            Ok(CountOutcome::Approximate { estimate, .. }) => {
                let exact = exact as f64;
                if *estimate >= exact / (1.0 + epsilon) && *estimate <= exact * (1.0 + epsilon) {
                    Verdict::Ok
                } else {
                    Verdict::OutOfBand
                }
            }
            Ok(CountOutcome::Timeout) | Err(_) => Verdict::Failed,
        }
    }
}
