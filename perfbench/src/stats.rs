//! Order statistics, process memory and the result line.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `sorted` by nearest rank.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Median, p90 and p99 of a latency sample. `p99` is `None` unless at
/// least ten samples lie beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: Option<f64>,
}

impl Summary {
    pub fn of(values: Vec<f64>) -> Summary {
        let s = sorted(values);
        Summary {
            count: s.len(),
            p50: quantile(&s, 0.5),
            p90: quantile(&s, 0.9),
            p99: (s.len() >= 1000).then(|| quantile(&s, 0.99)),
        }
    }
}

/// One `/proc/self/status` field, in kB.
fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets the process's peak resident memory (VmHWM) to its current
/// resident memory, so that [`peak_rss_mb`] covers set-up and the run
/// but not the generation of inputs before them.
pub fn reset_peak_rss() {
    // Writing 5 resets VmHWM (Linux >= 4.0).
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("perfbench: cannot reset VmHWM; peak_rss_mb includes input generation");
    }
}

/// Peak resident memory of the process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// A metric value with its unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_number(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The `env` block printed with every result.
pub fn env_block() -> String {
    let nproc = crate::serving::allowed_cpus().len();
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"git_sha\": {}, \"profile\": {}}}",
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_GIT_SHA")),
        json_str(env!("PERFBENCH_PROFILE")),
    )
}
