//! Repository benchmark for the uniformity-testing workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro|serve-hot|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` runs the
//! separate traced pass and prints every per-layer metric. Both print
//! a table (name, value, unit, sample count) and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `all` runs both workloads in turn and
//! prefixes each metric with its workload's name. A workload whose
//! guard breaks exits with code 1 and prints no result.
//!
//! See `perfbench/DESIGN.md` for what each workload and metric means.

mod report;
mod repro;
mod serve;
mod spans;

use report::{Metric, Run};
use std::process::ExitCode;

/// The end-to-end metrics with their units, in output order; every
/// workload reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ok_share", "share"),
    ("p50_us.high", "us"),
    ("max_rps", "1/s"),
];

/// The per-layer metrics with their units, in output order. The first
/// three are latency percentiles that the host's pauses move by more
/// than an end-to-end bound allows (see `perfbench/DESIGN.md`).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("p50_us.low", "us"),
    ("p99_us.low", "us"),
    ("p99_us.high", "us"),
    ("search.probes", "count"),
    ("search.saturated", "count"),
    ("runner.trials", "count"),
    ("search.saturated_s", "s"),
    ("search.resolved_s", "s"),
    ("draws", "count"),
    ("draw.ns_per_sample", "ns"),
    ("testers.prepare_ms", "ms"),
    ("simnet.local_us", "us"),
    ("server.transport_us.p50", "us"),
    ("server.transport_us.p99", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.shed", "count"),
    ("server.coalesced_share", "share"),
    ("protocol.render_ns", "ns"),
    ("protocol.parse_ns", "ns"),
    ("protocol.reply_parse_ns", "ns"),
    ("engine.hit_us.p50", "us"),
    ("engine.miss_us.p50", "us"),
    ("cache.hit_share", "share"),
    ("gen.lag_us.p99", "us"),
    ("trace.overhead_share", "share"),
    ("trace.root_s", "s"),
    ("self_s.bench", "s"),
    ("self_s.stats", "s"),
    ("self_s.testers", "s"),
    ("self_s.simnet", "s"),
    ("self_s.probability", "s"),
    ("self_s.gen", "s"),
    ("self_s.protocol", "s"),
    ("self_s.server", "s"),
    ("self_s.engine", "s"),
];

/// The per-layer table of one traced run: every metric is present,
/// and those a workload does not touch stay 0.
pub struct PerLayer {
    metrics: Vec<Metric>,
}

impl PerLayer {
    fn new() -> PerLayer {
        PerLayer {
            metrics: PER_LAYER
                .iter()
                .map(|&(name, unit)| Metric::new(name, 0.0, unit, 0))
                .collect(),
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let metric = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        *metric = Metric::new(name, value, metric.unit, samples);
    }

    /// Sets `trace.root_s` and the `self_s.*` layer times from the
    /// traced spans; the layer times add up to `trace.root_s`.
    pub fn set_self_times(&mut self, spans: &[spans::Span]) {
        let (layers, root_s) = spans::attribute(spans);
        self.set("trace.root_s", root_s, spans.len() as u64);
        let mut total = 0.0;
        for (layer, time) in &layers {
            self.set(&format!("self_s.{layer}"), time.wall_s, time.spans);
            total += time.wall_s;
            eprintln!(
                "trace: {layer:<12} self {:>10.4} s (wall-attributed)  {:>10.4} s (summed over threads)  {:>8} spans",
                time.wall_s, time.busy_s, time.spans
            );
        }
        eprintln!("trace: layer self times sum to {total:.4} s of {root_s:.4} s in root spans");
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Repro,
    ServeHot,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Repro, Workload::ServeHot];

    fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::ServeHot => "serve-hot",
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![*Workload::ALL
                        .iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?],
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_one(workload: Workload, args: &Args) -> Result<Run, String> {
    if args.trace {
        let mut layers = PerLayer::new();
        let run = match workload {
            Workload::Repro => repro::run_traced(args.seed, &mut layers)?,
            Workload::ServeHot => serve::run_traced(args.seed, args.seconds, &mut layers)?,
        };
        return Ok(Run {
            metrics: layers.metrics,
            ..run
        });
    }
    let run = match workload {
        Workload::Repro => repro::run(args.seed)?,
        Workload::ServeHot => serve::run(args.seed, args.seconds)?,
    };
    let reported: Vec<(&str, &str)> = run
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(
        reported, END_TO_END,
        "every workload reports every end-to-end metric"
    );
    Ok(run)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let single = args.workloads.len() == 1;
    let mut all = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for &workload in &args.workloads {
        let outcome = match run_one(workload, &args) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: {}: {e}", workload.name());
                return ExitCode::from(1);
            }
        };
        let mode = if args.trace {
            "per-layer, traced"
        } else {
            "end-to-end"
        };
        report::print_table(
            &format!(
                "{} ({mode}; seed {}; {} of {} operations failed; outputs correct: {})",
                workload.name(),
                args.seed,
                outcome.failed,
                outcome.attempted,
                outcome.correct
            ),
            &outcome.metrics,
        );
        attempted += outcome.attempted;
        failed += outcome.failed;
        correct &= outcome.correct;
        all.extend(outcome.metrics.into_iter().map(|mut m| {
            if !single {
                m.name = format!("{}/{}", workload.name(), m.name);
            }
            m
        }));
    }
    println!("{}", report::result_line(correct, attempted, failed, &all));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists agree with `BENCHMARK.json`, name for name and
    /// unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
