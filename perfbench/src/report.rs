//! Metric values, percentiles with their sample counts, and the printed
//! report.

use std::fmt::Write as _;

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Virtual time: the model's prediction, byte-identical per seed.
    Sim,
    /// What the simulator itself costs on this host.
    Host,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Time base.
    pub clock: Clock,
    /// Sample count or ratio base, printed next to the value.
    pub note: String,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Add a simulated-time (or simulated-count) metric.
    pub fn sim(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.push(name.into(), value, unit, Clock::Sim, note);
    }

    /// Add a host-measured metric.
    pub fn host(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.push(name.into(), value, unit, Clock::Host, note);
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, clock: Clock, note: String) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric {
            name,
            value,
            unit,
            clock,
            note,
        });
    }

    /// Value of the metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Only the simulated-time metrics (the part that must repeat
    /// exactly for a seed).
    pub fn sim_only(&self) -> Metrics {
        Metrics(
            self.0
                .iter()
                .filter(|m| m.clock == Clock::Sim)
                .cloned()
                .collect(),
        )
    }
}

/// Every unit a metric may carry (decoding maps text back onto these).
pub const UNITS: [&str; 11] = [
    "us", "ms", "s", "ns", "kops", "ktps", "frac", "count", "B", "B/B", "MB",
];

impl Metrics {
    /// One tab-separated line per metric, prefixed with `tag`; values
    /// travel as their exact bit patterns.
    pub fn encode(&self, tag: &str) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let clock = match m.clock {
                Clock::Sim => "sim",
                Clock::Host => "host",
            };
            let _ = writeln!(
                out,
                "{tag}\t{}\t{:016x}\t{}\t{clock}\t{}",
                m.name,
                m.value.to_bits(),
                m.unit,
                m.note.replace(['\t', '\n'], " ")
            );
        }
        out
    }

    /// Append the metric encoded in `fields` (the part after the tag).
    pub fn decode_into(&mut self, fields: &[&str]) -> Result<(), String> {
        let [name, bits, unit, clock, note] = fields else {
            return Err(format!("bad metric record {fields:?}"));
        };
        let value = f64::from_bits(u64::from_str_radix(bits, 16).map_err(|e| e.to_string())?);
        let unit = UNITS
            .iter()
            .find(|u| *u == unit)
            .ok_or(format!("unknown unit {unit}"))?;
        let clock = match *clock {
            "sim" => Clock::Sim,
            "host" => Clock::Host,
            other => return Err(format!("unknown clock {other}")),
        };
        self.push(name.to_string(), value, unit, clock, note.to_string());
        Ok(())
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Ascending copy of `v`.
pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Median of a non-empty list of host measurements.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is no base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One human-readable line per metric.
pub fn render(workload: &str, metrics: &Metrics) -> String {
    let mut out = String::new();
    for m in &metrics.0 {
        let clock = match m.clock {
            Clock::Sim => "sim",
            Clock::Host => "host",
        };
        let _ = writeln!(
            out,
            "{workload:<15} {:<34} {:>14} {:<8} {clock:<4} {}",
            m.name,
            format_value(m.value),
            m.unit,
            m.note
        );
    }
    out
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`,
/// with every value printed at full precision.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(pct(&v, 0.5), 500);
        assert_eq!(pct(&v, 0.99), 990);
        assert_eq!(pct(&v, 0.999), 999);
        assert_eq!(pct(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_is_json_with_full_precision() {
        let mut m = Metrics::default();
        m.sim("a_us", 1.25, "us", String::new());
        m.host("setup_s", 0.1, "s", String::new());
        let line = result_json(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 1.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}}}"
        );
    }
}
