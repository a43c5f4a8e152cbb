//! Metric values, quantiles, and the two output forms: a human table
//! (name, value, unit, sample count) and the one-line JSON result.

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            // A non-finite value (an empty sample set) is reported as 0
            // so the JSON line always parses.
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        }
    }
}

/// One workload's result: its metrics and how many of its operations
/// were attempted, failed, and whether every output checked out.
pub struct Run {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty one.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample set ascending (total order, so NaN never panics).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn median(values: Vec<f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Ratio with a zero-safe denominator.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Prints the metrics as an aligned table under a heading.
pub fn print_table(heading: &str, metrics: &[Metric]) {
    println!("## {heading}");
    println!(
        "{:<28} {:>16} {:<8} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "{:<28} {:>16.6} {:<8} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 1, &[Metric::new("wall_s", 1.5, "s", 1)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
