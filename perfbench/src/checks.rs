//! Reference checks computed apart from the program: the benchmark's own
//! nearest-centroid search, INT8 gather-sum and output checksum, plus the
//! structural checks on planning results. Each returns a description of
//! the first mismatch.

use pimdl_engine::pipeline::InferenceReport;
use pimdl_lutnn::pq::{IndexMatrix, ProductQuantizer};
use pimdl_sim::PlatformConfig;
use pimdl_tensor::Matrix;

/// Relative slack on the nearest-centroid distance: floating-point
/// evaluation order may break near-ties differently than the program.
pub const CCS_REL_TOL: f64 = 1e-5;

/// Every index of `idx` names a centroid whose squared distance to its
/// sub-vector of `x` is within [`CCS_REL_TOL`] of the codebook minimum.
pub fn check_ccs(x: &Matrix, pq: &ProductQuantizer, idx: &IndexMatrix) -> Result<(), String> {
    let v = pq.v();
    if idx.rows() != x.rows() || idx.cols() != pq.cb() || x.cols() != pq.cb() * v {
        return Err(format!(
            "CCS shape: {}x{} indices for {}x{} input, CB {} V {}",
            idx.rows(),
            idx.cols(),
            x.rows(),
            x.cols(),
            pq.cb(),
            v
        ));
    }
    for r in 0..x.rows() {
        let row = x.row(r);
        for c in 0..pq.cb() {
            let sub = &row[c * v..(c + 1) * v];
            let dist = |k: usize| -> f64 {
                sub.iter()
                    .zip(pq.centroid(c, k))
                    .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                    .sum()
            };
            let best = (0..pq.ct()).map(dist).fold(f64::INFINITY, f64::min);
            let chosen = usize::from(idx.get(r, c));
            if chosen >= pq.ct() {
                return Err(format!("CCS row {r} codebook {c}: index {chosen} >= CT"));
            }
            let d = dist(chosen);
            if d > best * (1.0 + CCS_REL_TOL) + 1e-12 {
                return Err(format!(
                    "CCS row {r} codebook {c}: index {chosen} at distance {d}, nearest is {best}"
                ));
            }
        }
    }
    Ok(())
}

/// The INT8 LUT operand of one layer, as raw codes: `(CB*CT) x F`.
#[derive(Debug, Clone, Copy)]
pub struct Codes<'a> {
    pub codes: &'a [i8],
    pub ct: usize,
    pub f: usize,
    pub scale: f32,
}

/// One output row by the benchmark's own gather: i32 sum of the selected
/// INT8 codes, one dequantization per element.
pub fn gather_row(t: Codes<'_>, idx_row: &[u16]) -> Vec<f32> {
    let mut acc = vec![0i32; t.f];
    for (cb, &k) in idx_row.iter().enumerate() {
        let base = (cb * t.ct + usize::from(k)) * t.f;
        for (a, &e) in acc.iter_mut().zip(&t.codes[base..base + t.f]) {
            *a += i32::from(e);
        }
    }
    acc.into_iter().map(|a| a as f32 * t.scale).collect()
}

/// Every element of `out` equals the gather-sum of its row's indices,
/// plus `bias` (added in `f32`, as a linear layer does), bit for bit.
pub fn check_lut(
    out: &Matrix,
    t: Codes<'_>,
    idx: &IndexMatrix,
    bias: &[f32],
) -> Result<(), String> {
    if out.rows() != idx.rows() || out.cols() != t.f || bias.len() != t.f {
        return Err(format!(
            "LUT shape: {}x{} output for {} rows, F {}, bias {}",
            out.rows(),
            out.cols(),
            idx.rows(),
            t.f,
            bias.len()
        ));
    }
    for r in 0..idx.rows() {
        let want = gather_row(t, idx.row(r));
        for (j, ((&got, w), b)) in out.row(r).iter().zip(want).zip(bias).enumerate() {
            let w = w + b;
            if got.to_bits() != w.to_bits() {
                return Err(format!("LUT row {r} col {j}: got {got}, reference {w}"));
            }
        }
    }
    Ok(())
}

/// Row-major `f64` sum of the gathered outputs of an `n x CB` query: the
/// checksum a served response must carry.
pub fn served_checksum(t: Codes<'_>, indices: &[u16], cb: usize) -> f64 {
    indices
        .chunks(cb)
        .flat_map(|row| gather_row(t, row))
        .map(f64::from)
        .sum()
}

/// A served response is marked correct and carries the reference bits.
pub fn check_served(correct: bool, bits: u64, reference: f64) -> Result<(), String> {
    if !correct {
        return Err("response says correct: false".to_string());
    }
    if bits != reference.to_bits() {
        return Err(format!(
            "checksum bits {bits:016x} != reference {:016x}",
            reference.to_bits()
        ));
    }
    Ok(())
}

/// Two logit matrices are bit-identical.
pub fn check_logits(got: &Matrix, reference: &Matrix) -> Result<(), String> {
    if got.shape() != reference.shape() {
        return Err(format!(
            "logits shape {:?} != {:?}",
            got.shape(),
            reference.shape()
        ));
    }
    for (i, (a, b)) in got.as_slice().iter().zip(reference.as_slice()).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!("logit {i}: {a} != reference {b}"));
        }
    }
    Ok(())
}

/// A report's breakdown adds up, and every per-operator mapping is legal.
pub fn check_report(report: &InferenceReport, platform: &PlatformConfig) -> Result<(), String> {
    let parts = report.lut_s + report.ccs_s + report.attention_s + report.other_s;
    if report.total_s <= 0.0
        || report.total_s.is_nan()
        || (parts - report.total_s).abs() > 1e-12 * report.total_s
    {
        return Err(format!(
            "total {} != lut + ccs + attn + other = {parts}",
            report.total_s
        ));
    }
    for op in &report.per_linear {
        op.mapping
            .validate(&op.workload, platform)
            .map_err(|e| format!("{} mapping fails validation: {e}", op.name))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdl_lutnn::lut::LutTable;
    use pimdl_tensor::rng::DataRng;

    fn fixture() -> (Matrix, ProductQuantizer, IndexMatrix) {
        let mut rng = DataRng::new(5);
        let acts = rng.normal_matrix(64, 8, 0.0, 1.0);
        let pq = ProductQuantizer::fit(&acts, 2, 8, 6, &mut rng).unwrap();
        let x = rng.normal_matrix(6, 8, 0.0, 1.0);
        let idx = pq.encode(&x).unwrap();
        (x, pq, idx)
    }

    #[test]
    fn ccs_check_accepts_encode_and_rejects_a_flipped_index() {
        let (x, pq, idx) = fixture();
        check_ccs(&x, &pq, &idx).unwrap();
        // Replace one index by the codebook's farthest centroid.
        let (r, c) = (3, 1);
        let sub = &x.row(r)[c * 2..c * 2 + 2];
        let far = (0..pq.ct())
            .max_by(|&a, &b| {
                let d = |k: usize| -> f32 {
                    sub.iter()
                        .zip(pq.centroid(c, k))
                        .map(|(p, q)| (p - q) * (p - q))
                        .sum()
                };
                d(a).total_cmp(&d(b))
            })
            .unwrap();
        let mut data = idx.as_slice().to_vec();
        data[r * idx.cols() + c] = far as u16;
        let bad = IndexMatrix::from_vec(idx.rows(), idx.cols(), data).unwrap();
        assert!(check_ccs(&x, &pq, &bad).is_err());
    }

    #[test]
    fn lut_check_accepts_lookup_and_rejects_an_altered_code() {
        let (_, pq, idx) = fixture();
        let mut rng = DataRng::new(9);
        let weight = rng.normal_matrix(8, 5, 0.0, 1.0);
        let qlut = LutTable::build(&pq, &weight).unwrap().quantize();
        let bias = vec![0.25f32; 5];
        let mut out = qlut.lookup(&idx).unwrap();
        for r in 0..out.rows() {
            for (v, b) in out.row_mut(r).iter_mut().zip(&bias) {
                *v += b;
            }
        }
        let codes = qlut.table().codes().to_vec();
        let t = Codes {
            codes: &codes,
            ct: qlut.ct(),
            f: qlut.f(),
            scale: qlut.table().scale(),
        };
        check_lut(&out, t, &idx, &bias).unwrap();
        // Alter the code the first output element gathers from.
        let mut altered = codes.clone();
        let k = usize::from(idx.get(0, 0));
        altered[k * qlut.f()] = altered[k * qlut.f()].wrapping_add(1);
        let t_bad = Codes {
            codes: &altered,
            ..t
        };
        assert!(check_lut(&out, t_bad, &idx, &bias).is_err());
    }

    #[test]
    fn served_check_rejects_a_flipped_checksum_bit_and_incorrect_flag() {
        let codes: Vec<i8> = (0..2 * 4 * 3).map(|i| (i % 7) as i8 - 3).collect();
        let t = Codes {
            codes: &codes,
            ct: 4,
            f: 3,
            scale: 0.5,
        };
        let indices = [1u16, 3, 0, 2];
        let sum = served_checksum(t, &indices, 2);
        // By hand: rows (1,3) and (0,2) gather codes at table rows 1,7 and 0,6.
        let by_hand: f64 = [1usize, 7, 0, 6]
            .iter()
            .flat_map(|&row| codes[row * 3..row * 3 + 3].iter())
            .map(|&c| f64::from(c) * 0.5)
            .sum();
        assert_eq!(sum, by_hand);
        check_served(true, sum.to_bits(), sum).unwrap();
        assert!(check_served(true, sum.to_bits() ^ 1, sum).is_err());
        assert!(check_served(false, sum.to_bits(), sum).is_err());
    }

    #[test]
    fn logit_check_rejects_one_altered_bit() {
        let a = Matrix::from_vec(1, 3, vec![0.5, -1.25, 3.0]).unwrap();
        check_logits(&a, &a.clone()).unwrap();
        let mut data = a.as_slice().to_vec();
        data[1] = f32::from_bits(data[1].to_bits() ^ 1);
        let b = Matrix::from_vec(1, 3, data).unwrap();
        assert!(check_logits(&b, &a).is_err());
    }
}
