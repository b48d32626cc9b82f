//! `perfbench`: runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload xor_count|word_count|serve_window --seed N
//!           --seconds S --trace 0|1 [--serve-bin PATH]
//! ```
//!
//! Diagnostics go to lines starting with `#`; the last line is the result
//! object.  The exit code is 1 when an answer is one no `(ε, δ)` guarantee
//! allows, and 2 on a usage or start-up error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::library::{self, Library};
use perfbench::serve;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        serve_bin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("invalid {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.traced = value != "0",
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "xor_count" => library::run(Library::XorCount, args.seed, args.seconds, args.traced),
        "word_count" => library::run(Library::WordCount, args.seed, args.seconds, args.traced),
        "serve_window" => {
            let Some(bin) = &args.serve_bin else {
                eprintln!("perfbench: serve_window needs --serve-bin");
                return ExitCode::from(2);
            };
            match serve::run(bin, args.seed, args.seconds, args.traced) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("perfbench: serve_window: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.to_json(args.traced));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
