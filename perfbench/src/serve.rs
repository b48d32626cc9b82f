//! The `serve_window` workload: one client drives the `pact-serve` binary
//! over its stdin/stdout pipe, keeping [`OUTSTANDING`] requests in flight.
//!
//! Every request starts with `(reset)` and carries its own options,
//! declarations and assertions, so the wire layer parses and interns each
//! one.  Seven in eight are 6-bit counts that finish in the exact regime;
//! one in eight is an 8-bit `H_xor` count in the hashing regime, so
//! size-aware placement has mixed sizes to place.
//!
//! The solver, SAT, LRA and hash layers run inside `pact-serve`, out of the
//! benchmark's reach.  A traced run measures them by replaying one cycle of
//! the window's request mix in process, through the same traced oracle as
//! the library workloads: the service's answers are bit-identical to these
//! direct counts, so the replay does the server's solver work.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pact::{CountOutcome, CounterConfig, Session};
use pact_benchgen::{generate_for_logic, GenParams, Instance};
use pact_ir::logic::Logic;
use pact_ir::TermManager;
use pact_service::CountRequest;

use crate::library::{self, mix, Op, Pool, Tracer, HANG_GUARD, LOGICS};
use crate::measure::{self, HostTicks};
use crate::reference::{self, Verdict};
use crate::{Metric, RunReport};

/// Requests the client keeps in flight on its one connection.
pub const OUTSTANDING: usize = 32;

/// Every this-many-th request is a hashing-regime count.
const HASHING_EVERY: usize = 8;

/// The window is cut into slices of this many seconds, and the figures come
/// from the slice with the fewest answers (see [`run`]).
const SLICE_SECONDS: f64 = 10.0;

/// Requests per block of the tail median: the tail of a block of 1000 is
/// its p99.
const TAIL_BLOCK: usize = 1000;

/// Spawns of `pact-serve` timed before the window, and again after it.
const SPAWNS: usize = 100;

/// Outer iterations of every count, as in the library workloads.
const ITERATIONS: u32 = 3;

/// One distinct request of the pool.
struct Script {
    /// The instance as `pact-serve` parses it from the request.
    parsed: Instance,
    /// The instance as SMT-LIB: the part the wire hands to the ir parser.
    body: String,
    /// The configuration `pact-serve` counts the request under.
    config: CounterConfig,
    /// The whole request as written to the pipe.
    text: String,
}

/// The distinct requests: first the exact-regime ones, then the hashing
/// ones.
fn scripts(seed: u64) -> (Vec<Script>, usize) {
    let mut exact = Vec::new();
    let mut hashing = Vec::new();
    for (i, &logic) in LOGICS.iter().enumerate() {
        // CPS robustness widens its projection with scale; at scale 1 it
        // stays within the exact regime.
        let scales = if logic == Logic::QfBvfplra { 1 } else { 3 };
        let i = i as u64;
        for scale in 1..=scales {
            for k in 0..2 {
                let draw = mix(seed ^ mix(i << 8 | u64::from(scale) << 4 | k));
                exact.push(script(logic, 6, scale, draw));
            }
        }
        hashing.push(script(logic, 8, 1, mix(seed ^ mix(i << 8 | 0xff))));
    }
    let exact_len = exact.len();
    exact.extend(hashing);
    (exact, exact_len)
}

fn script(logic: Logic, width: u32, scale: u32, draw: u64) -> Script {
    let generated = generate_for_logic(
        logic,
        &GenParams {
            scale,
            width,
            seed: draw % 1_000_000,
        },
    );
    let body = generated.to_smtlib();
    let seed = draw >> 40;
    let text = format!(
        "(reset)\n(set-option :seed {seed})\n(set-option :iterations {ITERATIONS})\n{body}(count)\n"
    );
    let mut tm = TermManager::new();
    let script = pact_ir::parser::parse_script(&mut tm, &body).expect("generated script parses");
    let config = CountRequest::new(TermManager::new())
        .seed(seed)
        .iterations(ITERATIONS)
        .counter_config();
    Script {
        parsed: Instance {
            tm,
            asserts: script.asserts,
            projection: script.projection,
            ..generated
        },
        body,
        config,
        text,
    }
}

/// The script of the `j`-th request.
fn pick(j: usize, exact: usize, total: usize) -> usize {
    if j % HASHING_EVERY == HASHING_EVERY - 1 {
        exact + (j / HASHING_EVERY) % (total - exact)
    } else {
        (j - j / HASHING_EVERY) % exact
    }
}

/// A running `pact-serve` child with a thread reading its output lines.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Server {
    fn spawn(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Server {
            child,
            stdin,
            lines,
            reader: Some(reader),
        })
    }

    /// Writes `text` and returns the instant just before the write.
    fn send(&mut self, text: &str) -> io::Result<Instant> {
        let stdin = self.stdin.as_mut().expect("stdin open until close");
        let sent = Instant::now();
        stdin.write_all(text.as_bytes())?;
        stdin.flush()?;
        Ok(sent)
    }

    fn recv(&self) -> Result<(Instant, String), RecvTimeoutError> {
        self.lines.recv_timeout(HANG_GUARD)
    }

    /// Ends the session and waits for the process to exit.
    fn close(mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"(exit)\n");
        }
        while self.recv().is_ok() {}
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stdin = None;
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            // Closing stdin lets the server drain and exit; a server that
            // does not within the hang guard is killed.
            let deadline = Instant::now() + HANG_GUARD;
            while Instant::now() < deadline && matches!(self.child.try_wait(), Ok(None)) {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The fields of a result line the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
struct WireResult {
    outcome: String,
    estimate: f64,
    oracle_calls: u64,
    cells: u64,
    iterations: u64,
    shard: i64,
    queue_seconds: f64,
    wall_seconds: f64,
}

/// The value of `"key": value` in a flat JSON line, without quotes.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn number<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    field(line, key)?.parse().ok()
}

impl WireResult {
    fn parse(line: &str) -> Option<WireResult> {
        Some(WireResult {
            outcome: field(line, "outcome")?.to_string(),
            estimate: number(line, "estimate")?,
            oracle_calls: number(line, "oracle_calls")?,
            cells: number(line, "cells_explored")?,
            iterations: number(line, "iterations")?,
            shard: number(line, "shard")?,
            queue_seconds: number(line, "queue_seconds")?,
            wall_seconds: number(line, "wall_seconds")?,
        })
    }
}

/// One request of the timed window.
struct Request {
    script: usize,
    sent: Instant,
    /// Receive time and parsed result; `None` when the request failed.
    answer: Option<(Instant, Option<WireResult>)>,
}

/// Spawns a server and times it until it answers its first count.
fn start_server(bin: &Path, warmup: &Script) -> io::Result<(Server, f64)> {
    let start = Instant::now();
    let mut server = Server::spawn(bin)?;
    server.send(&warmup.text)?;
    loop {
        match server.recv() {
            Ok((_, line)) if field(&line, "kind") == Some("count") => break,
            Ok((_, line)) if field(&line, "kind") == Some("error") => {
                return Err(io::Error::other(format!("warm-up count failed: {line}")))
            }
            Ok(_) => {}
            Err(_) => return Err(io::Error::other("pact-serve answered no warm-up count")),
        }
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// Runs `serve_window` for `seconds` against the binary at `bin`.
///
/// # Errors
///
/// Returns an error when the binary cannot be started or does not answer
/// its warm-up count.
pub fn run(bin: &Path, seed: u64, seconds: f64, traced: bool) -> io::Result<RunReport> {
    let (scripts, exact_len) = scripts(seed);
    let total = scripts.len();

    // Set-up: a batch of spawns before the window and another after it.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SPAWNS {
        if let Some(previous) = server.take() {
            Server::close(previous);
        }
        let (started, setup) = start_server(bin, &scripts[0])?;
        setups.push(setup);
        server = Some(started);
    }
    let mut server = server.expect("SPAWNS > 0");
    let pid = server.child.id();

    // The timed window: a closed loop with OUTSTANDING requests in flight.
    let host = HostTicks::now();
    let cpu = measure::process_cpu_seconds(pid);
    let mut requests: Vec<Request> = Vec::new();
    let mut awaiting_ack: VecDeque<usize> = VecDeque::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut in_flight = 0;
    let mut bytes_out = 0usize;
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let send_next = |server: &mut Server, requests: &mut Vec<Request>| -> io::Result<()> {
        let j = requests.len();
        let script = pick(j, exact_len, total);
        let sent = server.send(&scripts[script].text)?;
        requests.push(Request {
            script,
            sent,
            answer: None,
        });
        Ok(())
    };
    for _ in 0..OUTSTANDING {
        send_next(&mut server, &mut requests)?;
        awaiting_ack.push_back(requests.len() - 1);
        in_flight += 1;
    }
    while in_flight > 0 {
        let Ok((at, line)) = server.recv() else {
            // The hang guard: nothing arrived for a long time.  What is
            // still in flight stays unanswered and counts as failed.
            break;
        };
        bytes_out += line.len() + 1;
        let kind = field(&line, "kind");
        let id: Option<u64> = number(&line, "id");
        let finished = match (kind, id) {
            (Some("accepted"), Some(id)) => {
                if let Some(j) = awaiting_ack.pop_front() {
                    by_id.insert(id, j);
                }
                None
            }
            (Some("count"), Some(id)) => by_id.remove(&id).map(|j| (j, WireResult::parse(&line))),
            (Some("error"), Some(id)) => by_id.remove(&id).map(|j| (j, None)),
            // A refused submission answers with an error without an id.
            (Some("error"), None) => awaiting_ack.pop_front().map(|j| (j, None)),
            _ => None,
        };
        if let Some((j, result)) = finished {
            requests[j].answer = Some((at, result));
            in_flight -= 1;
            if start.elapsed() < window {
                send_next(&mut server, &mut requests)?;
                awaiting_ack.push_back(requests.len() - 1);
                in_flight += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu_share = (measure::process_cpu_seconds(pid) - cpu) / elapsed;
    let steal = HostTicks::now().steal_share_since(&host);
    let peak_rss_mb = measure::peak_rss_mb(&pid.to_string());
    Server::close(server);
    for _ in 0..SPAWNS {
        let (again, setup) = start_server(bin, &scripts[0])?;
        setups.push(setup);
        Server::close(again);
    }

    // Outside every timer: each distinct request counted directly, and
    // against an enumeration.
    let mut direct: Vec<Option<(CountOutcome, WireResult)>> = vec![None; total];
    for r in &requests {
        if direct[r.script].is_none() {
            direct[r.script] = Some(direct_count(&scripts[r.script]));
        }
    }
    let mut exact: Vec<Option<u64>> = vec![None; total];
    let verdicts: Vec<Verdict> = requests
        .iter()
        .map(|r| {
            let Some((_, Some(wire))) = &r.answer else {
                return Verdict::Failed;
            };
            let (outcome, expected) = direct[r.script].as_ref().expect("counted above");
            if !same_answer(wire, expected) {
                return Verdict::Wrong;
            }
            let exact = *exact[r.script]
                .get_or_insert_with(|| reference::exact_count(&scripts[r.script].parsed));
            Verdict::judge(
                &Ok(outcome.clone()),
                exact,
                scripts[r.script].config.epsilon,
            )
        })
        .collect();

    // Only correct answers count towards the figures.
    let answered: Vec<(&Request, Instant, &WireResult)> = requests
        .iter()
        .zip(&verdicts)
        .filter_map(|(r, &verdict)| match &r.answer {
            Some((at, Some(wire))) if verdict == Verdict::Ok => Some((r, *at, wire)),
            _ => None,
        })
        .collect();
    let latency_ms = |r: &Request, at: Instant| at.duration_since(r.sent).as_secs_f64() * 1e3;

    // Neighbours on a shared host leave it either contended, at a speed
    // that holds steady for a minute at a time, or uncontended, at a speed
    // that varies with their load.  The figures are those of the contended
    // state, which every window of tens of seconds reaches: the slice in
    // which the fewest requests completed.  Within it, latencies are listed
    // in sending order for the blocked tail.
    let slice = SLICE_SECONDS.min(seconds).max(1.0);
    let mut slices: Vec<Vec<(Instant, f64)>> =
        vec![Vec::new(); (seconds / slice).floor().max(1.0) as usize];
    for &(r, at, _) in &answered {
        let k = (at.duration_since(start).as_secs_f64() / slice).floor() as usize;
        if let Some(answers) = slices.get_mut(k) {
            answers.push((at, latency_ms(r, at)));
        }
    }
    let contended = slices
        .iter()
        .min_by_key(|a| a.len())
        .expect("at least one slice");
    let first = contended.iter().map(|&(at, _)| at).min();
    let last = contended.iter().map(|&(at, _)| at).max();
    let ops_per_s = match (first, last) {
        (Some(first), Some(last)) if last > first => {
            (contended.len() - 1) as f64 / last.duration_since(first).as_secs_f64()
        }
        _ => 0.0,
    };
    let latencies: Vec<f64> = contended.iter().map(|&(_, ms)| ms).collect();
    let mut report = RunReport::new(
        &verdicts,
        ops_per_s,
        measure::median(&latencies),
        measure::blocked_tail(&latencies, TAIL_BLOCK),
        // The spawns come in two bursts, before and after the window, so
        // they cannot sample the run's host states; the high quantile of a
        // burst is its few slowest process starts, and the median is
        // steadier.
        &setups,
        0.5,
        peak_rss_mb,
    );
    let mut per_second = vec![0usize; seconds.ceil().max(1.0) as usize];
    for &(_, at, _) in &answered {
        let k = at.duration_since(start).as_secs_f64() as usize;
        if let Some(n) = per_second.get_mut(k) {
            *n += 1;
        }
    }
    report.notes.push(format!(
        "noise: steal_share={steal:.4} server_cpu/wall={cpu_share:.4} requests={} \
         answers_per_s={per_second:?}",
        requests.len()
    ));
    if traced {
        let values = |f: fn(&WireResult) -> f64| -> Vec<f64> {
            answered.iter().map(|&(_, _, w)| f(w)).collect()
        };
        let shards = answered
            .iter()
            .map(|&(_, _, w)| w.shard)
            .max()
            .unwrap_or(0)
            .max(0) as usize
            + 1;
        let mut served = vec![0u64; shards];
        for &(_, _, w) in &answered {
            if let Ok(s) = usize::try_from(w.shard) {
                served[s] += 1;
            }
        }
        let busy: f64 = values(|w| w.wall_seconds).iter().sum();
        let overhead: Vec<f64> = answered
            .iter()
            .map(|&(r, at, w)| latency_ms(r, at) - (w.queue_seconds + w.wall_seconds) * 1e3)
            .collect();
        let parse_us = parse_us_per_request(&scripts, &requests);
        let mut layers = replay_layers(&scripts, exact_len);
        layers.extend([
            Metric::new(
                "service.queue_ms_p50",
                measure::median(&values(|w| w.queue_seconds * 1e3)),
                "ms",
            ),
            Metric::new(
                "service.count_ms_p50",
                measure::median(&values(|w| w.wall_seconds * 1e3)),
                "ms",
            ),
            Metric::new(
                "service.busy_share",
                busy / (shards as f64 * elapsed),
                "ratio",
            ),
            Metric::new(
                "service.shard_skew",
                *served.iter().max().unwrap_or(&0) as f64
                    / (*served.iter().min().unwrap_or(&0)).max(1) as f64,
                "ratio",
            ),
            Metric::new("wire.overhead_ms_p50", measure::median(&overhead), "ms"),
            Metric::new(
                "wire.bytes_out",
                bytes_out as f64 / requests.len().max(1) as f64,
                "bytes",
            ),
            Metric::new("ir.parse_us", parse_us, "us"),
            Metric::new("trace.ops_per_s", ops_per_s, "1/s"),
        ]);
        report.layers = layers;
    }
    Ok(report)
}

/// The direct single-threaded count the service promises to match.
fn direct_count(script: &Script) -> (CountOutcome, WireResult) {
    let parsed = &script.parsed;
    let report = Session::builder(parsed.tm.clone())
        .assert_all(&parsed.asserts)
        .project_all(&parsed.projection)
        .config(script.config.clone())
        .build()
        .and_then(|mut session| session.count())
        .expect("direct count of a generated script");
    let (outcome, estimate) = match report.outcome {
        CountOutcome::Exact(n) => ("exact", n as f64),
        CountOutcome::Approximate { estimate, .. } => ("approximate", estimate),
        CountOutcome::Unsatisfiable => ("unsat", 0.0),
        CountOutcome::Timeout => ("timeout", -1.0),
    };
    let expected = WireResult {
        outcome: outcome.to_string(),
        estimate,
        oracle_calls: report.stats.oracle_calls,
        cells: report.stats.cells_explored,
        iterations: u64::from(report.stats.iterations),
        shard: 0,
        queue_seconds: 0.0,
        wall_seconds: 0.0,
    };
    (report.outcome, expected)
}

/// The per-layer metrics of the solver, SAT, LRA, hash and core layers:
/// one cycle of the window's request mix (every script as often as the
/// window sends it) counted in process behind the traced oracle.
fn replay_layers(scripts: &[Script], exact: usize) -> Vec<Metric> {
    let hashing = scripts.len() - exact;
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    // Seven in eight requests cycle over the exact scripts and one in
    // eight over the hashing ones; both cycles close after this many.
    let cycle = HASHING_EVERY * exact * hashing / gcd(exact, hashing);
    let pool = Pool {
        instances: scripts.iter().map(|s| s.parsed.clone()).collect(),
        ops: (0..cycle)
            .map(|j| {
                let script = pick(j, exact, scripts.len());
                Op {
                    instance: script,
                    config: scripts[script].config.clone(),
                }
            })
            .collect(),
    };
    let tracer = Tracer::default();
    let mut sessions = tracer.sessions(&pool);
    let passes = library::run_passes(&mut sessions, &tracer.ops(&pool), 0.0, &mut || {});
    tracer.finish(&passes).1
}

/// Whether a wire answer is bit-identical to the direct count.
fn same_answer(wire: &WireResult, direct: &WireResult) -> bool {
    wire.outcome == direct.outcome
        && wire.estimate.to_bits() == direct.estimate.to_bits()
        && wire.oracle_calls == direct.oracle_calls
        && wire.cells == direct.cells
        && wire.iterations == direct.iterations
}

/// Mean microseconds `pact_ir::parser::parse_script` takes over the
/// requests of the window, timed in this process on the same text.
fn parse_us_per_request(scripts: &[Script], requests: &[Request]) -> f64 {
    const REPS: usize = 21;
    let per_script: Vec<f64> = scripts
        .iter()
        .map(|s| {
            let times: Vec<f64> = (0..REPS)
                .map(|_| {
                    let mut tm = TermManager::new();
                    let start = Instant::now();
                    let parsed = pact_ir::parser::parse_script(&mut tm, &s.body);
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    std::hint::black_box(parsed).expect("generated script parses");
                    us
                })
                .collect();
            measure::median(&times)
        })
        .collect();
    requests.iter().map(|r| per_script[r.script]).sum::<f64>() / requests.len().max(1) as f64
}
