//! `model-infer`: a converted transformer classifier answering token
//! sequences through `LutClassifier::predict`, and its traced replay.
//!
//! The replay composes the same public calls `predict` makes (embedding,
//! then per block `LutLinear::forward` inside the attention arithmetic,
//! LN/GELU, FFN, LN, then pooling and the head), timing each from
//! outside. CCS is timed by a separate `ProductQuantizer::encode` of each
//! operator's input. The replay's logits must equal `predict`'s bit for
//! bit.

use std::cell::RefCell;
use std::time::Instant;

use pimdl_engine::pipeline::{InferenceReport, PimDlEngine, ServingConfig};
use pimdl_engine::shapes::TransformerShape;
use pimdl_lutnn::calibrate::convert_kmeans_only;
use pimdl_lutnn::convert::{attention_arithmetic, LutClassifier, LutLinear};
use pimdl_lutnn::pq::IndexMatrix;
use pimdl_nn::data::Dataset;
use pimdl_nn::embedding::SequenceInput;
use pimdl_nn::transformer::{InputKind, ModelConfig, TransformerClassifier};
use pimdl_sim::exec::{measure_repeat_fraction, run_lut_kernel, LutKernelData};
use pimdl_sim::{LutWorkload, PlatformConfig};
use pimdl_tensor::elementwise::gelu;
use pimdl_tensor::rng::DataRng;
use pimdl_tensor::Matrix;

use crate::checks::{self, Codes};
use crate::stats::{self, Outcome};
use crate::{err, Measure, WINDOWS};

pub const VOCAB: usize = 512;
pub const HIDDEN: usize = 128;
pub const HEADS: usize = 4;
pub const LAYERS: usize = 2;
pub const FFN: usize = 512;
pub const MAX_SEQ: usize = 64;
pub const CLASSES: usize = 4;
pub const V: usize = 4;
pub const CT: usize = 16;
/// Calibration set: sequences of `CALIB_LEN` tokens, k-means iterations,
/// and the activation-row cap per layer.
pub const CALIB_SEQS: usize = 48;
pub const CALIB_LEN: usize = 32;
pub const KMEANS_ITERS: usize = 10;
pub const KMEANS_ROWS: usize = 1536;
/// Corpus make-up: short sequences of 15–17 tokens (length drawn from the
/// seed), middle ones of 32, long ones of 64. The median falls among the
/// middle class and the 90th percentile among the long class.
pub const N_SHORT: usize = 6;
pub const N_MID: usize = 8;
pub const N_LONG: usize = 6;
pub const MID_LEN: usize = 32;
pub const LONG_LEN: usize = 64;

const OPS: [&str; 4] = ["qkv", "o", "ffn1", "ffn2"];

/// The simulated platform: UPMEM cut to 64 PEs, so single short
/// sequences still partition over every PE.
pub fn platform() -> PlatformConfig {
    let mut p = PlatformConfig::upmem();
    p.num_pes = 64;
    p
}

pub fn shape() -> TransformerShape {
    TransformerShape {
        name: "perfbench".to_string(),
        hidden: HIDDEN,
        ffn_dim: FFN,
        layers: LAYERS,
        heads: HEADS,
    }
}

pub struct Setup {
    model: TransformerClassifier,
    lut: LutClassifier,
    corpus: Vec<SequenceInput>,
    reference: Vec<Matrix>,
    reports: Vec<InferenceReport>,
    engine: PimDlEngine,
}

/// Time spent in each layer, summed over replays.
#[derive(Debug, Default, Clone)]
struct LayerTimes {
    embed: f64,
    /// The separate CCS encode of each operator's input.
    ccs: [f64; 4],
    /// `LutLinear::forward` of each operator (CCS + LUT + bias).
    forward: [f64; 4],
    /// Wall time of the LUT closures run inside the attention arithmetic.
    attn_closures: f64,
    attn_total: f64,
    norm: f64,
    head: f64,
    total: f64,
    repeat: [f64; 4],
    repeat_n: [u64; 4],
    sim_lut: [f64; 4],
}

fn corpus(rng: &mut DataRng) -> Vec<SequenceInput> {
    let mut lens: Vec<usize> = (0..N_SHORT).map(|_| 15 + rng.index(3)).collect();
    lens.extend([MID_LEN; N_MID]);
    lens.extend([LONG_LEN; N_LONG]);
    rng.shuffle(&mut lens);
    lens.into_iter()
        .map(|n| SequenceInput::Tokens((0..n).map(|_| rng.index(VOCAB)).collect()))
        .collect()
}

/// Builds and converts the model, makes the corpus and its reference
/// logits (checked replay), predicts the engine's breakdown per sequence,
/// and warms up with one round of `predict`.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let mut rng = DataRng::new(seed);
    let cfg = ModelConfig {
        input: InputKind::Tokens { vocab: VOCAB },
        hidden: HIDDEN,
        heads: HEADS,
        layers: LAYERS,
        ffn_dim: FFN,
        max_seq: MAX_SEQ,
        classes: CLASSES,
    };
    let model = TransformerClassifier::new(&cfg, &mut rng);
    let calib = Dataset {
        name: "perfbench-calibration".to_string(),
        inputs: (0..CALIB_SEQS)
            .map(|_| SequenceInput::Tokens((0..CALIB_LEN).map(|_| rng.index(VOCAB)).collect()))
            .collect(),
        labels: vec![0; CALIB_SEQS],
        classes: CLASSES,
    };
    let lut = convert_kmeans_only(&model, &calib, V, CT, KMEANS_ITERS, KMEANS_ROWS, &mut rng)
        .map_err(err)?;
    let corpus = corpus(&mut rng);
    let engine = PimDlEngine::new(platform());
    let mut setup = Setup {
        model,
        lut,
        corpus,
        reference: Vec::new(),
        reports: Vec::new(),
        engine,
    };
    let times = RefCell::new(LayerTimes::default());
    for input in &setup.corpus {
        let logits = replay(&setup, input, true, &times)?;
        setup.reference.push(logits);
        let cfg = ServingConfig::new(1, input.len(), V, CT).map_err(err)?;
        let report = setup.engine.serve(&shape(), &cfg).map_err(err)?;
        checks::check_report(&report, setup.engine.platform())?;
        setup.reports.push(report);
    }
    for (input, reference) in setup.corpus.iter().zip(&setup.reference) {
        let logits = setup.lut.predict(input, true).map_err(err)?;
        checks::check_logits(&logits, reference)?;
    }
    Ok(setup)
}

fn codes_of(ll: &LutLinear) -> Codes<'_> {
    let q = ll.quant_lut();
    Codes {
        codes: q.table().codes(),
        ct: q.ct(),
        f: q.f(),
        scale: q.table().scale(),
    }
}

/// One LUT operator through `LutLinear::forward`, the call `predict`
/// makes, timed whole. Just before it, a separate `encode` of the same
/// input times CCS alone; the LUT gather + bias is the forward's time less
/// that. With `check`, the indices and the forward's outputs are checked
/// against the benchmark's own references and the simulator runs the
/// kernel on the indices.
fn lut_op(
    s: &Setup,
    ll: &LutLinear,
    bias: &[f32],
    x: &Matrix,
    op: usize,
    check: bool,
    times: &RefCell<LayerTimes>,
) -> Result<Matrix, String> {
    let t0 = Instant::now();
    let idx = ll.quantizer().encode(x).map_err(err)?;
    let t1 = Instant::now();
    let y = ll.forward(x, true).map_err(err)?;
    let t2 = Instant::now();
    {
        let mut t = times.borrow_mut();
        t.ccs[op] += (t1 - t0).as_secs_f64();
        t.forward[op] += (t2 - t1).as_secs_f64();
    }
    if check {
        checks::check_ccs(x, ll.quantizer(), &idx)?;
        checks::check_lut(&y, codes_of(ll), &idx, bias)?;
        sim_lut(s, ll, &idx, op, times)?;
    }
    Ok(y)
}

/// Runs the LUT kernel on the simulated PEs over the indices CCS produced:
/// its output must match the benchmark's gather, its cost is `sim.lut_ms`.
fn sim_lut(
    s: &Setup,
    ll: &LutLinear,
    idx: &IndexMatrix,
    op: usize,
    times: &RefCell<LayerTimes>,
) -> Result<(), String> {
    let c = codes_of(ll);
    let w = LutWorkload::new(idx.rows(), idx.cols(), c.ct, c.f).map_err(err)?;
    let mapping = s.engine.mapping_for(&w).map_err(err)?;
    let (out, cost) = run_lut_kernel(
        s.engine.platform(),
        &w,
        &mapping,
        LutKernelData {
            indices: idx.as_slice(),
            table: c.codes,
            scale: c.scale,
        },
    )
    .map_err(err)?;
    checks::check_lut(&out, c, idx, &vec![0.0; c.f])?;
    let mut t = times.borrow_mut();
    t.sim_lut[op] += cost.time.total_resident_s();
    t.repeat[op] += measure_repeat_fraction(idx.as_slice(), idx.rows(), idx.cols());
    t.repeat_n[op] += 1;
    Ok(())
}

/// The traced replay of `predict(input, int8 = true)`.
fn replay(
    s: &Setup,
    input: &SequenceInput,
    check: bool,
    times: &RefCell<LayerTimes>,
) -> Result<Matrix, String> {
    let start = Instant::now();
    let (mut x, _) = s.lut.embedding.forward(input).map_err(err)?;
    times.borrow_mut().embed += start.elapsed().as_secs_f64();
    for (block, src) in s.lut.blocks.iter().zip(&s.model.blocks) {
        let t_attn = Instant::now();
        let closure = |ll, bias: &[f32], x: &Matrix, op| {
            let t = Instant::now();
            let y = lut_op(s, ll, bias, x, op, check, times);
            times.borrow_mut().attn_closures += t.elapsed().as_secs_f64();
            y
        };
        let (_, attn_out) = attention_arithmetic(
            &x,
            HIDDEN,
            HEADS,
            |x| closure(&block.qkv, src.attn.qkv.bias.data.row(0), x, 0).map_err(cfg_err),
            |c| closure(&block.proj, src.attn.proj.bias.data.row(0), c, 1).map_err(cfg_err),
        )
        .map_err(err)?;
        let t_norm = Instant::now();
        times.borrow_mut().attn_total += (t_norm - t_attn).as_secs_f64();
        let res1 = x.add(&attn_out).map_err(err)?;
        let (x1, _) = block.ln1.forward(&res1).map_err(err)?;
        let mut norm_s = t_norm.elapsed().as_secs_f64();
        let h = lut_op(
            s,
            &block.ffn1,
            src.ffn1.bias.data.row(0),
            &x1,
            2,
            check,
            times,
        )?;
        let t = Instant::now();
        let h = gelu(&h);
        norm_s += t.elapsed().as_secs_f64();
        let y = lut_op(
            s,
            &block.ffn2,
            src.ffn2.bias.data.row(0),
            &h,
            3,
            check,
            times,
        )?;
        let t = Instant::now();
        let res2 = x1.add(&y).map_err(err)?;
        x = block.ln2.forward(&res2).map_err(err)?.0;
        norm_s += t.elapsed().as_secs_f64();
        times.borrow_mut().norm += norm_s;
    }
    let t_head = Instant::now();
    let n = x.rows().max(1);
    let mut pooled = Matrix::zeros(1, s.lut.hidden());
    for r in 0..x.rows() {
        for (acc, v) in pooled.row_mut(0).iter_mut().zip(x.row(r)) {
            *acc += v / n as f32;
        }
    }
    let logits = s.lut.head.forward(&pooled).map_err(err)?;
    let end = Instant::now();
    let mut t = times.borrow_mut();
    t.head += (end - t_head).as_secs_f64();
    t.total += (end - start).as_secs_f64();
    Ok(logits)
}

/// Carries a benchmark error through the program's closure signature.
fn cfg_err(detail: String) -> pimdl_lutnn::LutError {
    pimdl_lutnn::LutError::Config {
        op: "perfbench replay",
        detail,
    }
}

/// Mean over the corpus of a per-sequence report quantity, in ms.
fn mean_ms(reports: &[InferenceReport], f: impl Fn(&InferenceReport) -> f64) -> f64 {
    reports.iter().map(f).sum::<f64>() / reports.len() as f64 * 1e3
}

/// The closed loop: one caller, whole rounds over the corpus until
/// `seconds` have passed. Returns `(completion time, latency)` per
/// sequence, in seconds from the start.
fn closed_loop(s: &Setup, seconds: f64, failed: &mut u64) -> Result<Vec<(f64, f64)>, String> {
    let mut samples = Vec::new();
    let start = Instant::now();
    loop {
        for (input, reference) in s.corpus.iter().zip(&s.reference) {
            let t0 = Instant::now();
            let out = s.lut.predict(input, true);
            let done = start.elapsed().as_secs_f64();
            samples.push((done, t0.elapsed().as_secs_f64()));
            match out {
                Ok(logits) => checks::check_logits(&logits, reference)?,
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
        "model-infer: {} sequences attempted, {} failed, {} rounds of {}; {} windows, throughput {:.1} to {:.1}/s",
        out.attempted,
        out.failed,
        samples.len() / s.corpus.len(),
        s.corpus.len(),
        w.windows,
        w.throughput_range.0,
        w.throughput_range.1,
    );
    crate::push_end_to_end(
        &mut out,
        Measure {
            setup_s,
            peak_rss_mib: stats::peak_rss_mib(std::process::id())?,
            throughput: w.throughput,
            p50_ms: w.p50_ms,
            p90_ms: w.p90_ms,
            sim_ms: mean_ms(&s.reports, |r| r.total_s),
        },
    );
    Ok(out)
}

/// Traced run: per-layer times from the replay, the simulator's and the
/// engine's predictions for the same sequences, and the tracing overhead
/// against an untraced loop of the same length.
pub fn trace(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let s = setup(seed)?;
    let mut failed = 0;
    let samples = closed_loop(&s, seconds / 2.0, &mut failed)?;
    let untraced_per_seq = samples.iter().map(|&(_, l)| l).sum::<f64>() / samples.len() as f64;
    let times = RefCell::new(LayerTimes::default());
    let start = Instant::now();
    let mut seqs = 0usize;
    while start.elapsed().as_secs_f64() < seconds / 2.0 {
        for (input, reference) in s.corpus.iter().zip(&s.reference) {
            let logits = replay(&s, input, false, &times)?;
            checks::check_logits(&logits, reference)?;
            seqs += 1;
        }
    }
    // One checked replay of the corpus supplies the simulator's kernel
    // costs and the index-repeat statistics on the indices CCS produced.
    let sim_times = RefCell::new(LayerTimes::default());
    for input in &s.corpus {
        replay(&s, input, true, &sim_times)?;
    }
    out.attempted += (samples.len() + seqs + s.corpus.len()) as u64;
    out.failed += failed;
    let t = times.into_inner();
    let sim = sim_times.into_inner();
    // The separate CCS encodes are the replay's own addition: leave them
    // out of its total.
    let replay_total = t.total - t.ccs.iter().sum::<f64>();
    let per_seq_us = |v: f64| v / seqs as f64 * 1e6;
    out.push("lutnn.embed_us", per_seq_us(t.embed), "us");
    for (k, op) in OPS.iter().enumerate() {
        out.push(format!("lutnn.ccs_us.{op}"), per_seq_us(t.ccs[k]), "us");
        out.push(
            format!("lutnn.lut_us.{op}"),
            per_seq_us(t.forward[k] - t.ccs[k]),
            "us",
        );
    }
    out.push(
        "lutnn.attn_us",
        per_seq_us(t.attn_total - t.attn_closures),
        "us",
    );
    out.push("lutnn.norm_us", per_seq_us(t.norm), "us");
    out.push("lutnn.head_us", per_seq_us(t.head), "us");
    let lut_time: f64 = t.forward.iter().sum();
    out.push("lutnn.lut_share", lut_time / replay_total, "ratio");
    out.push(
        "engine.lutnn_fraction",
        s.reports.iter().map(|r| r.lutnn_fraction()).sum::<f64>() / s.reports.len() as f64,
        "ratio",
    );
    let n = s.corpus.len() as f64;
    for (k, op) in OPS.iter().enumerate() {
        out.push(
            format!("lutnn.repeat_fraction.{op}"),
            sim.repeat[k] / sim.repeat_n[k] as f64,
            "ratio",
        );
        out.push(format!("sim.lut_ms.{op}"), sim.sim_lut[k] / n * 1e3, "ms");
    }
    out.push("engine.pred_ms.lut", mean_ms(&s.reports, |r| r.lut_s), "ms");
    out.push("engine.pred_ms.ccs", mean_ms(&s.reports, |r| r.ccs_s), "ms");
    out.push(
        "engine.pred_ms.attn",
        mean_ms(&s.reports, |r| r.attention_s),
        "ms",
    );
    out.push(
        "engine.pred_ms.other",
        mean_ms(&s.reports, |r| r.other_s),
        "ms",
    );
    out.push(
        "trace.overhead_pct.model-infer",
        (replay_total / seqs as f64 / untraced_per_seq - 1.0) * 100.0,
        "%",
    );
    Ok(())
}
