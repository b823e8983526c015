//! `plan`: planning queries against the auto-tuner, the cost model and
//! the per-layer capacity allocator, with no serving or host-kernel code.
//!
//! A query is one `PimDlEngine::serve` on a fresh engine (so the mapping
//! cache never hits) for one (platform, model shape, batch, sequence, V,
//! CT) point, or one `alloc::allocate_per_layer` under a capacity budget.

use std::time::Instant;

use pimdl_engine::pipeline::{PimDlEngine, ServingConfig};
use pimdl_engine::shapes::TransformerShape;
use pimdl_sim::cost::estimate_cost;
use pimdl_sim::{LutWorkload, PlatformConfig};
use pimdl_tensor::rng::DataRng;
use pimdl_tuner::alloc::{
    allocate_global, allocate_per_layer, reference_code_bits, AllocOptions, OpShape,
};
use pimdl_tuner::{tune, tune_with_options, TuneOptions};

use crate::checks;
use crate::stats::{self, Outcome};
use crate::{err, Measure, WINDOWS};

/// (batch, sequence length, V, CT) points asked of every platform and
/// evaluation shape. Each query's CT is drawn from the seed within one of
/// the point's: the search space stays the same, the predictions move
/// slightly.
pub const POINTS: [(usize, usize, usize, usize); 4] = [
    (1, 128, 4, 16),
    (8, 96, 2, 16),
    (4, 160, 4, 32),
    (16, 224, 8, 16),
];
/// Per-PE LUT budget of the allocator queries (drawn from the seed), the
/// tokens they plan for, and their (V, CT) menu.
pub const BUDGETS_KIB: [usize; 3] = [1280, 1536, 2048];
pub const ALLOC_TOKENS: usize = 128;
pub const ALLOC_V: [usize; 3] = [2, 4, 8];
pub const ALLOC_CT: [usize; 1] = [16];
pub const ALLOC_QUERIES: usize = 3;
/// The small workload, and the PE count each platform is cut to, on which
/// branch-and-bound must match the exhaustive oracle.
pub const ORACLE_WORKLOAD: LutWorkload = LutWorkload {
    n: 64,
    cb: 8,
    ct: 16,
    f: 32,
};
pub const ORACLE_PES: usize = 16;

#[derive(Debug, Clone)]
enum Query {
    Serve {
        platform: PlatformConfig,
        shape: TransformerShape,
        cfg: ServingConfig,
    },
    Alloc {
        platform: PlatformConfig,
        ops: Vec<OpShape>,
        opts: AllocOptions,
    },
}

fn ops_of(shape: &TransformerShape) -> Vec<OpShape> {
    shape
        .linear_ops()
        .iter()
        .map(|op| OpShape {
            name: op.name.to_string(),
            in_dim: op.in_dim,
            out_dim: op.out_dim,
            count: shape.layers,
        })
        .collect()
}

fn corpus(seed: u64) -> Result<Vec<Query>, String> {
    let mut rng = DataRng::new(seed);
    let mut queries = Vec::new();
    for platform in PlatformConfig::all() {
        for shape in TransformerShape::evaluation_models() {
            for &(batch, seq, v, ct) in &POINTS {
                let ct = ct - 1 + rng.index(3);
                queries.push(Query::Serve {
                    platform: platform.clone(),
                    shape: shape.clone(),
                    cfg: ServingConfig::new(batch, seq, v, ct).map_err(err)?,
                });
            }
        }
    }
    // The allocator budgets UPMEM's per-DPU MRAM; one query per budget
    // slot, each budget drawn from the seed.
    let ops = ops_of(&TransformerShape::bert_base());
    for _ in 0..ALLOC_QUERIES {
        let budget = BUDGETS_KIB[rng.index(BUDGETS_KIB.len())] * 1024;
        let mut platform = PlatformConfig::upmem();
        platform.mram_bytes = budget;
        queries.push(Query::Alloc {
            platform,
            ops: ops.clone(),
            opts: AllocOptions {
                // At least as expressive as the paper's uniform V = 4,
                // CT = 16.
                min_code_bits: reference_code_bits(&ops, 4, 16),
                v_choices: ALLOC_V.to_vec(),
                ct_choices: ALLOC_CT.to_vec(),
                ..AllocOptions::with_budget(budget)
            },
        });
    }
    rng.shuffle(&mut queries);
    Ok(queries)
}

/// Answers one query and checks the answer; returns its predicted time in
/// seconds.
fn answer(q: &Query) -> Result<f64, String> {
    match q {
        Query::Serve {
            platform,
            shape,
            cfg,
        } => {
            let engine = PimDlEngine::new(platform.clone());
            let report = engine.serve(shape, cfg).map_err(err)?;
            checks::check_report(&report, platform)?;
            Ok(report.total_s)
        }
        Query::Alloc {
            platform,
            ops,
            opts,
        } => {
            let plan = allocate_per_layer(platform, ops, ALLOC_TOKENS, opts).map_err(err)?;
            for c in &plan.choices {
                let op = ops.iter().find(|o| o.name == c.name).ok_or("unknown op")?;
                let w = LutWorkload::new(ALLOC_TOKENS, op.in_dim / c.v, c.ct, op.out_dim)
                    .map_err(err)?;
                c.mapping
                    .validate(&w, platform)
                    .map_err(|e| format!("allocator mapping for {}: {e}", c.name))?;
            }
            Ok(plan.total_latency_s)
        }
    }
}

/// Branch-and-bound must find the exhaustive oracle's predicted optimum on
/// a small workload of every platform.
fn check_bnb_against_oracle() -> Result<(), String> {
    for mut platform in PlatformConfig::all() {
        platform.num_pes = ORACLE_PES;
        let bnb = tune(&platform, &ORACLE_WORKLOAD).map_err(err)?;
        let oracle = tune_with_options(
            &platform,
            &ORACLE_WORKLOAD,
            TuneOptions::exhaustive_oracle(),
        )
        .map_err(err)?;
        let (a, b) = (bnb.predicted_total_s, oracle.predicted_total_s);
        if (a - b).abs() > 1e-12 * b {
            return Err(format!(
                "{:?}: branch-and-bound predicts {a} s, exhaustive oracle {b} s",
                platform.kind
            ));
        }
    }
    Ok(())
}

struct Setup {
    queries: Vec<Query>,
    predicted: Vec<f64>,
}

/// Builds the corpus, checks branch-and-bound against the oracle, and
/// answers every query once (the warm-up, which also fixes the predicted
/// times later answers must repeat).
fn setup(seed: u64) -> Result<Setup, String> {
    let queries = corpus(seed)?;
    check_bnb_against_oracle()?;
    let predicted = queries.iter().map(answer).collect::<Result<_, _>>()?;
    Ok(Setup { queries, predicted })
}

/// The closed loop: one caller, whole rounds over the corpus until
/// `seconds` have passed. Returns `(completion time, latency)` per query,
/// in seconds from the start.
fn closed_loop(s: &Setup, seconds: f64, failed: &mut u64) -> Result<Vec<(f64, f64)>, String> {
    let mut samples = Vec::new();
    let start = Instant::now();
    loop {
        for (q, &want) in s.queries.iter().zip(&s.predicted) {
            let t0 = Instant::now();
            let got = answer(q);
            samples.push((start.elapsed().as_secs_f64(), t0.elapsed().as_secs_f64()));
            match got {
                Ok(t) if t.to_bits() == want.to_bits() => {}
                Ok(t) => return Err(format!("query answered {t} s, earlier {want} s")),
                Err(_) => *failed += 1,
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(samples);
        }
    }
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (s, samples, setup_s) = crate::interleave(
        seconds,
        || setup(seed),
        |s, block_s| closed_loop(s, block_s, &mut out.failed),
    )?;
    let w = stats::windowed(&samples, seconds, WINDOWS)?;
    out.attempted = samples.len() as u64;
    out.correct = true;
    println!(
        "plan: {} queries attempted, {} failed, {} rounds of {}, {} windows",
        out.attempted,
        out.failed,
        samples.len() / s.queries.len(),
        s.queries.len(),
        w.windows
    );
    let predicted_ms: Vec<f64> = s.predicted.iter().map(|t| t * 1e3).collect();
    crate::push_end_to_end(
        &mut out,
        Measure {
            setup_s,
            peak_rss_mib: stats::peak_rss_mib(std::process::id())?,
            throughput: w.throughput,
            p50_ms: w.p50_ms,
            p90_ms: w.p90_ms,
            sim_ms: stats::geomean(&predicted_ms),
        },
    );
    Ok(out)
}

/// Traced run: the time of each planning layer on the serve queries (tuning,
/// the cost model, the engine's own arithmetic) and on the allocator
/// queries, with the tracing overhead against untraced answers.
pub fn trace(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let s = setup(seed)?;
    let mut failed = 0;
    let samples = closed_loop(&s, seconds / 2.0, &mut failed)?;
    let untraced_per_query = samples.iter().map(|&(_, l)| l).sum::<f64>() / samples.len() as f64;

    let (mut tune_s, mut cost_s, mut plan_s, mut alloc_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut evaluated, mut tunes, mut costs, mut serves, mut allocs) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut ratio = Vec::new();
    let mut answered = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds / 2.0 {
        for q in &s.queries {
            match q {
                Query::Serve {
                    platform,
                    shape,
                    cfg,
                } => {
                    let engine = PimDlEngine::new(platform.clone());
                    let n = cfg.batch * cfg.seq_len;
                    for op in shape.linear_ops() {
                        let w = LutWorkload::new(n, op.in_dim / cfg.v, cfg.ct, op.out_dim)
                            .map_err(err)?;
                        let t = Instant::now();
                        let tuned = tune(platform, &w).map_err(err)?;
                        tune_s += t.elapsed().as_secs_f64();
                        evaluated += tuned.evaluated as u64;
                        tunes += 1;
                        let t = Instant::now();
                        estimate_cost(platform, &w, &tuned.mapping).map_err(err)?;
                        cost_s += t.elapsed().as_secs_f64();
                        costs += 1;
                        engine.mapping_for(&w).map_err(err)?;
                    }
                    // Every mapping is cached now: what `serve` costs
                    // beyond tuning.
                    let t = Instant::now();
                    let report = engine.serve(shape, cfg).map_err(err)?;
                    plan_s += t.elapsed().as_secs_f64();
                    serves += 1;
                    checks::check_report(&report, platform)?;
                }
                Query::Alloc {
                    platform,
                    ops,
                    opts,
                } => {
                    let t = Instant::now();
                    let plan =
                        allocate_per_layer(platform, ops, ALLOC_TOKENS, opts).map_err(err)?;
                    alloc_s += t.elapsed().as_secs_f64();
                    allocs += 1;
                    let uniform =
                        allocate_global(platform, ops, ALLOC_TOKENS, opts).map_err(err)?;
                    ratio.push(plan.total_latency_s / uniform.total_latency_s);
                }
            }
            answered += 1;
        }
    }
    out.attempted += (samples.len() + answered) as u64;
    out.failed += failed;
    out.push("tuner.tune_ms", tune_s / tunes as f64 * 1e3, "ms");
    out.push("tuner.evaluated", evaluated as f64 / tunes as f64, "count");
    out.push("sim.cost_us", cost_s / costs as f64 * 1e6, "us");
    out.push("engine.plan_ms", plan_s / serves as f64 * 1e3, "ms");
    out.push("tuner.alloc_ms", alloc_s / allocs as f64 * 1e3, "ms");
    out.push("tuner.alloc_vs_uniform", stats::geomean(&ratio), "ratio");
    // The separate cost-model calls and the uniform allocations are extra
    // measurements, not part of answering a query: left out of the
    // overhead.
    out.push(
        "trace.overhead_pct.plan",
        ((tune_s + plan_s + alloc_s) / answered as f64 / untraced_per_query - 1.0) * 100.0,
        "%",
    );
    Ok(())
}
