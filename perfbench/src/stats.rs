//! Order statistics, process memory probes and the result line.

use std::fmt::Write as _;

/// Linear-interpolated quantile of an ascending slice (the "exclusive"
/// definition is not needed here: samples number in the hundreds at least).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Latency summary: median and 90th percentile, in milliseconds, of
/// samples given in seconds. Fails when fewer than ten samples lie beyond
/// the 90th percentile.
pub fn latency_ms(samples_s: &[f64]) -> Result<(f64, f64), String> {
    if samples_s.len() < 100 {
        return Err(format!(
            "{} latency samples: the 90th percentile needs at least 100",
            samples_s.len()
        ));
    }
    let mut v = samples_s.to_vec();
    v.sort_by(f64::total_cmp);
    Ok((quantile(&v, 0.5) * 1e3, quantile(&v, 0.9) * 1e3))
}

/// Figures of a timed phase taken window by window: the run is cut into
/// equal slices of time and each figure is the median over slices, so a
/// burst of outside load on the machine moves one slice, not the result.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    /// Completions per second.
    pub throughput: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub windows: usize,
    /// Lowest and highest window throughput.
    pub throughput_range: (f64, f64),
}

/// Samples per window below which a window's 90th percentile would have
/// fewer than ten samples beyond it.
pub const MIN_WINDOW_SAMPLES: usize = 100;

/// Cuts `[0, span)` into up to `max_windows` equal windows, each expected
/// to hold twice [`MIN_WINDOW_SAMPLES`], and takes each figure's
/// median over windows. `samples` are `(time, latency)` pairs in seconds;
/// samples at or after `span` are not counted. Throughput counts every
/// window; the latency figures only windows holding at least
/// [`MIN_WINDOW_SAMPLES`] samples.
pub fn windowed(samples: &[(f64, f64)], span: f64, max_windows: usize) -> Result<Windowed, String> {
    let inside: Vec<&(f64, f64)> = samples.iter().filter(|(t, _)| *t < span).collect();
    let windows = (inside.len() / (2 * MIN_WINDOW_SAMPLES)).clamp(1, max_windows.max(1));
    let width = span / windows as f64;
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &&(t, lat) in &inside {
        let w = ((t / width) as usize).min(windows - 1);
        slices[w].push(lat);
    }
    let tput: Vec<f64> = slices.iter().map(|s| s.len() as f64 / width).collect();
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    for slice in slices.iter().filter(|s| s.len() >= MIN_WINDOW_SAMPLES) {
        let (a, b) = latency_ms(slice)?;
        p50.push(a);
        p90.push(b);
    }
    if p50.is_empty() {
        return Err(format!(
            "{} samples in {span:.2} s: no window holds the {MIN_WINDOW_SAMPLES} a 90th percentile needs",
            inside.len()
        ));
    }
    Ok(Windowed {
        throughput: median(&tput),
        p50_ms: median(&p50),
        p90_ms: median(&p90),
        windows,
        throughput_range: range(&tput),
    })
}

fn range(v: &[f64]) -> (f64, f64) {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// `VmHWM` (peak resident set) of a process in MiB, read from procfs.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kib / 1024.0)
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: correctness, operation counts and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result line: one JSON object with every metric and its unit.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn latency_needs_ten_samples_past_p90() {
        assert!(latency_ms(&[0.001; 99]).is_err());
        let (p50, p90) = latency_ms(&[0.002; 100]).unwrap();
        assert_eq!((p50, p90), (2.0, 2.0));
    }

    #[test]
    fn windows_take_medians_and_drop_late_completions() {
        // Four windows of 200 samples at 1 ms, one slowed to 9 ms.
        let mut samples: Vec<(f64, f64)> = (0..800)
            .map(|i| (i as f64 / 800.0 * 4.0, if i < 200 { 0.009 } else { 0.001 }))
            .collect();
        samples.push((4.5, 1.0)); // after the span
        let w = windowed(&samples, 4.0, 10).unwrap();
        assert_eq!(w.windows, 4);
        assert!((w.throughput - 200.0).abs() < 1e-9);
        assert!((w.p50_ms - 1.0).abs() < 1e-12 && (w.p90_ms - 1.0).abs() < 1e-12);
        assert!(windowed(&samples[..90], 4.0, 10).is_err());
    }

    #[test]
    fn result_line_rejects_non_finite() {
        let mut o = Outcome {
            correct: true,
            attempted: 1,
            ..Outcome::default()
        };
        o.push("x", 1.5, "ms");
        assert_eq!(
            o.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        o.push("y", f64::NAN, "ms");
        assert!(o.to_json().is_err());
    }
}
