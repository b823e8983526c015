//! One benchmark for the PIM-DL reproduction: two workloads against the
//! workspace crates' public API, each checked against references computed
//! apart from the program, and a traced run that also measures the
//! serving layers (`perfbench/README.md` says why serving is not a
//! workload of its own).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <model-infer|plan> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the six end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of every layer instead (see `perfbench/README.md`).

mod checks;
mod infer;
mod plan;
mod serve;
mod stats;

use std::time::Instant;

use stats::Outcome;

/// Set-up runs this many times per run, each followed by an equal share of
/// the timed loop; `setup_s` is the median (see [`interleave`]).
pub const SETUP_REPS: usize = 11;

/// Most windows a timed phase is cut into; each figure is the median over
/// windows (see `stats::windowed`).
pub const WINDOWS: usize = 30;

/// The argv marker under which the fabric's shard workers re-execute this
/// binary.
pub const WORKER_ARG: &str = "__fabric-shard";

const WORKLOADS: [&str; 2] = ["model-infer", "plan"];

/// Formats any displayable error as the benchmark's error string.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The six end-to-end figures every workload reports.
#[derive(Debug, Clone, Copy)]
pub struct Measure {
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    pub throughput: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub sim_ms: f64,
}

pub fn push_end_to_end(out: &mut Outcome, m: Measure) {
    out.push("setup_s", m.setup_s, "s");
    out.push("peak_rss_mib", m.peak_rss_mib, "MiB");
    out.push("throughput", m.throughput, "1/s");
    out.push("latency_p50_ms", m.p50_ms, "ms");
    out.push("latency_p90_ms", m.p90_ms, "ms");
    out.push("sim_ms", m.sim_ms, "ms");
}

/// Runs `setup` [`SETUP_REPS`] times, each time followed by `timed` for
/// an equal share of `seconds` on what that set-up built. Spread so, the
/// set-ups sample this host's speed, which drifts by ±20 % over seconds,
/// across the whole run as the timed windows do; run back to back before
/// the loop, their median moved by more than a fifth between runs.
/// `timed` returns `(time, latency)` samples from its own start; they come
/// back on one timeline of timed seconds that leaves the set-ups out.
/// Each set-up's result is dropped before the next starts; the last one
/// is returned with the samples and the median set-up time.
pub fn interleave<T>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<T, String>,
    mut timed: impl FnMut(&T, f64) -> Result<Vec<(f64, f64)>, String>,
) -> Result<(T, Vec<(f64, f64)>, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut samples = Vec::new();
    let mut offset = 0.0;
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let s = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let block = timed(&s, seconds / SETUP_REPS as f64)?;
        samples.extend(block.into_iter().map(|(t, lat)| (t + offset, lat)));
        offset += t1.elapsed().as_secs_f64();
        kept = Some(s);
    }
    let kept = kept.ok_or("no set-up ran")?;
    let ms: Vec<String> = times.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    println!("set-up: {} ms", ms.join(", "));
    Ok((kept, samples, stats::median(&times)))
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The traced run: every layer's per-layer metrics, with the named
/// workload's own layers measured for the full run length and the other
/// layers (the serving replay included) for a share of it; the served
/// counter runs have a fixed length. Each layer's trace adds the
/// operations it ran to `attempted` and `failed`.
fn trace_all(a: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let share = (a.seconds / 4.0).max(1.0);
    let own = |w: &str| if a.workload == w { a.seconds } else { share };
    infer::trace(a.seed, own("model-infer"), &mut out)?;
    serve::trace(a.seed, share, &mut out)?;
    plan::trace(a.seed, own("plan"), &mut out)?;
    Ok(out)
}

fn run(a: &Args) -> Result<Outcome, String> {
    if a.trace {
        return trace_all(a);
    }
    match a.workload.as_str() {
        "model-infer" => infer::run(a.seed, a.seconds),
        "plan" => plan::run(a.seed, a.seconds),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some(WORKER_ARG) {
        std::process::exit(match serve::worker_main(&raw[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench shard worker: {e}");
                1
            }
        });
    }
    let result = parse_args(&raw).and_then(|a| {
        let out = run(&a)?;
        let line = out.to_json()?;
        Ok((out.correct, line))
    });
    match result {
        Ok((correct, line)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
