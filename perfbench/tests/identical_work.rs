//! The traced run's exact work counts repeat exactly from run to run, so a
//! change in them is a change in the program, never noise.

use perfbench::library::{run_shapes, ExactWork, Library, Shape};
use perfbench::PER_LAYER;

/// The cheapest shapes of a workload, so the test stays quick.
fn cheap_shapes(kind: Library) -> Vec<Shape> {
    let shapes = kind.shapes();
    let width = shapes.iter().map(|s| s.width).min().expect("shapes");
    shapes
        .into_iter()
        .filter(|s| s.width == width && s.scale == 1)
        .collect()
}

/// One traced pass of the benchmark's own run over the cheap shapes.
fn traced_work(kind: Library) -> ExactWork {
    let report = run_shapes(kind, &cheap_shapes(kind), 7, 0.0, true);
    assert!(report.correct, "every answer passes the correctness gate");
    let names: Vec<&str> = report.layers.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names, expected,
        "a traced run measures every per-layer metric"
    );
    report
        .exact_work
        .expect("a traced run records its exact work")
}

#[test]
fn xor_count_work_repeats_exactly() {
    let first = traced_work(Library::XorCount);
    let second = traced_work(Library::XorCount);
    assert_eq!(first, second);
    assert!(first.checks > 0 && first.conflicts > 0 && first.theory_checks > 0);
    assert!(first.xor_rows > 0, "H_xor counts assert XOR rows");
    assert_eq!(first.oracle_calls, first.checks);
}

#[test]
fn word_count_work_repeats_exactly() {
    let first = traced_work(Library::WordCount);
    let second = traced_work(Library::WordCount);
    assert_eq!(first, second);
    assert!(first.checks > 0 && first.conflicts > 0);
    assert_eq!(first.xor_rows, 0, "word-level families add no XOR rows");
}
