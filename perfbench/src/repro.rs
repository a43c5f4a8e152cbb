//! The `repro` workload: a closed loop over q* searches taken from the
//! E3 and E6 experiment binaries, with their n, k, ε, trial count,
//! search caps and seed streams, run in-process with no network.
//!
//! The benchmark seed only permutes the order of the list, so every
//! seed does the same searches and the list's wall time is comparable
//! across seeds.

use crate::report::{mean, median, quantile, share, sorted, Metric, Run};
use crate::spans::{self, Recorder, TimedSampler};
use crate::PerLayer;
use dut_bench::{q_star, two_sided_success, workload};
use dut_core::lowerbound::theory;
use dut_core::probability::AliasSampler;
use dut_core::stats::seed::{derive_seed, derive_seed2};
use dut_core::testers::{QuantizedSumTester, TThresholdTester};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The experiments' master seed and trial count (the `Harness`
/// defaults the committed tables were made with).
const EXPERIMENT_SEED: u64 = 20_190_729;
const TRIALS: u64 = 200;
const N: usize = 1 << 10;
const EPS: f64 = 0.5;
/// E3: players, search cap, and the grids its stream ids index.
const E3_K: usize = 64;
const E3_CAP: usize = 1 << 14;
const E3_TS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const E3_BETAS: [f64; 6] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0];
/// E6: players, search cap, calibration runs per probe, message bits.
const E6_K: usize = 32;
const E6_CAP: usize = 1 << 15;
const E6_CALIBRATION: usize = 800;
const E6_BITS: [u8; 4] = [1, 2, 4, 8];
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 15;

/// Searches expected to end not ok, with the reason. A search outside
/// this list that ends not ok makes the run incorrect.
pub const KNOWN_NOT_OK: [(&str, &str); 2] = [
    (
        "e3 T=1 beta=0.5",
        "saturates the 2^14 cap: with a large node budget the AND rule cannot reach 2/3",
    ),
    (
        "e6 r=2",
        "saturates the 2^15 cap after 15 probes and breaks E6's monotonicity assert (81 -> 32768)",
    ),
];

#[derive(Debug, Clone, Copy)]
enum Search {
    /// E3 row `(T, budget factor)` by index into its grids.
    E3 { ti: usize, bi: usize },
    /// E6 message length by index into [`E6_BITS`].
    E6 { ri: usize },
}

impl Search {
    fn label(self) -> String {
        match self {
            Search::E3 { ti, bi } => format!("e3 T={} beta={}", E3_TS[ti], E3_BETAS[bi]),
            Search::E6 { ri } => format!("e6 r={}", E6_BITS[ri]),
        }
    }

    fn cap(self) -> usize {
        match self {
            Search::E3 { .. } => E3_CAP,
            Search::E6 { .. } => E6_CAP,
        }
    }
}

/// The E3 rows (T ∈ {1, 2, 4, 8} with the three smallest node budgets,
/// plus T = 2 at budget factor 1) and all four E6 message lengths.
fn searches() -> Vec<Search> {
    let mut list: Vec<Search> = (0..4)
        .flat_map(|ti| (0..3).map(move |bi| Search::E3 { ti, bi }))
        .collect();
    list.push(Search::E3 { ti: 1, bi: 3 });
    list.extend((0..E6_BITS.len()).map(|ri| Search::E6 { ri }));
    list
}

/// The searches in the order the seed picks (Fisher–Yates).
fn ordered(seed: u64) -> Vec<Search> {
    let mut list = searches();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..list.len()).rev() {
        list.swap(i, rng.random_range(0..=i));
    }
    list
}

/// What the searches share, built before timing starts: the uniform
/// and the far input's alias samplers.
type Inputs = (AliasSampler, AliasSampler);

#[derive(Debug, Clone)]
struct Outcome {
    search: Search,
    q: usize,
    probes: usize,
    saturated: bool,
    seconds: f64,
    trials: u64,
    /// Σ k·q over trials and calibration runs.
    draws: u64,
}

/// Where a traced call records its span: the recorder, the parent
/// span, and the search it belongs to.
#[derive(Clone, Copy)]
struct Tracing<'a> {
    rec: &'a Recorder,
    parent: usize,
    op: u64,
}

/// Runs `f` inside a span named `name` when traced.
fn traced<T>(
    tracing: Option<Tracing<'_>>,
    name: &'static str,
    f: impl FnOnce(Option<Tracing<'_>>) -> T,
) -> T {
    match tracing {
        None => f(None),
        Some(tr) => tr.rec.span(name, Some(tr.parent), tr.op, |id| {
            f(Some(Tracing { parent: id, ..tr }))
        }),
    }
}

/// Draw totals of the traced pass (trials run on the runner's threads).
#[derive(Default)]
struct DrawTotals {
    ns: AtomicU64,
    draws: AtomicU64,
}

/// One protocol execution. Traced, it is a `simnet.trial` span whose
/// sampler times its draws.
fn trial(
    tracing: Option<Tracing<'_>>,
    totals: &DrawTotals,
    inner: &AliasSampler,
    run: impl FnOnce(&TimedSampler<'_, AliasSampler>) -> bool,
) -> bool {
    let Some(tr) = tracing else {
        return run(&TimedSampler { inner, tally: None });
    };
    let tally = spans::DrawTally::default();
    let open = tr.rec.open();
    let accepted = run(&TimedSampler {
        inner,
        tally: Some(&tally),
    });
    tr.rec
        .close(open, "simnet.trial", Some(tr.parent), tr.op, tally.ns.get());
    totals.ns.fetch_add(tally.ns.get(), Ordering::Relaxed);
    totals.draws.fetch_add(tally.draws.get(), Ordering::Relaxed);
    accepted
}

fn run_search(
    search: Search,
    inputs: &Inputs,
    tracing: Option<Tracing<'_>>,
    totals: &DrawTotals,
) -> Outcome {
    let start = Instant::now();
    let trials = AtomicU64::new(0);
    let draws = AtomicU64::new(0);
    let (uniform, far) = (&inputs.0, &inputs.1);
    let count = |per_trial: usize| {
        trials.fetch_add(1, Ordering::Relaxed);
        draws.fetch_add(per_trial as u64, Ordering::Relaxed);
    };
    // Whether the protocol meets the two-sided guarantee at q: one
    // probe of the search.
    let probe: Box<dyn Fn(usize) -> bool + '_> = match search {
        Search::E3 { ti, bi } => {
            let t = E3_TS[ti];
            let budget = (E3_BETAS[bi] * t as f64 / E3_K as f64).clamp(1e-6, 0.45);
            let stream = 2000 + (ti * 10 + bi) as u64;
            let tester = TThresholdTester::new(N, E3_K, t).with_node_false_positive_budget(budget);
            Box::new(move |q| {
                let probe_seed = derive_seed2(EXPERIMENT_SEED, stream, q as u64);
                traced(tracing, "stats.probe", |tp| {
                    traced(tp, "stats.runner", |tr| {
                        two_sided_success(TRIALS, probe_seed, uniform, far, |s, r| {
                            count(E3_K * q);
                            trial(tr, totals, s, |sampler| {
                                tester.run(sampler, q, r).verdict.is_accept()
                            })
                        })
                    })
                })
            })
        }
        Search::E6 { ri } => {
            let tester = QuantizedSumTester::new(N, E6_K, E6_BITS[ri]);
            let draws = &draws;
            Box::new(move |q| {
                let probe_seed = derive_seed2(EXPERIMENT_SEED, 1000 + ri as u64, q as u64);
                traced(tracing, "stats.probe", |tp| {
                    let mut rng = StdRng::seed_from_u64(probe_seed);
                    draws.fetch_add((E6_CALIBRATION * E6_K * q) as u64, Ordering::Relaxed);
                    let prepared = traced(tp, "testers.prepare", |_| {
                        tester.prepare(q, E6_CALIBRATION, &mut rng)
                    });
                    traced(tp, "stats.runner", |tr| {
                        two_sided_success(
                            TRIALS,
                            derive_seed(probe_seed, 1),
                            uniform,
                            far,
                            |s, r| {
                                count(E6_K * q);
                                trial(tr, totals, s, |sampler| {
                                    prepared.run(sampler, r).verdict.is_accept()
                                })
                            },
                        )
                    })
                })
            })
        }
    };
    let result = q_star(2, search.cap(), &probe);
    drop(probe);
    Outcome {
        search,
        q: result.minimal,
        probes: result.evaluations,
        saturated: result.saturated,
        seconds: start.elapsed().as_secs_f64(),
        trials: trials.into_inner(),
        draws: draws.into_inner(),
    }
}

/// Which searches are not ok: saturated at their cap, or failing their
/// experiment's own assertion. E3 asserts nothing beyond its table;
/// E6 asserts the Theorem 6.4 floor and that q* does not grow by more
/// than a third from one message length to the next.
fn not_ok(outcomes: &[Outcome]) -> Vec<String> {
    let mut failures: Vec<String> = outcomes
        .iter()
        .filter(|o| o.saturated)
        .map(|o| o.search.label())
        .collect();
    let mut e6: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| matches!(o.search, Search::E6 { .. }))
        .collect();
    e6.sort_by_key(|o| match o.search {
        Search::E6 { ri } => ri,
        Search::E3 { .. } => usize::MAX,
    });
    let mut prev_q = usize::MAX;
    for o in e6 {
        let Search::E6 { ri } = o.search else {
            continue;
        };
        let floor = theory::theorem_6_4(N, E6_K, EPS, u32::from(E6_BITS[ri]));
        let monotone = o.q <= prev_q.saturating_add(prev_q / 3);
        if (o.q as f64) < floor || !monotone {
            failures.push(o.search.label());
        }
        prev_q = o.q;
    }
    failures.sort();
    failures.dedup();
    failures
}

/// Checks the run's outcomes; a broken guard is an error, failed
/// searches are counted.
struct Checked {
    not_ok: Vec<String>,
    correct: bool,
}

fn check(outcomes: &[Outcome]) -> Result<Checked, String> {
    let saturated = outcomes.iter().filter(|o| o.saturated).count();
    if saturated == 0 || saturated == outcomes.len() {
        return Err(format!(
            "guard: repro must hold both saturated and resolved searches, got {saturated} saturated of {}",
            outcomes.len()
        ));
    }
    for o in outcomes {
        if o.q > o.search.cap() || o.q < 2 {
            return Err(format!(
                "{}: q* = {} outside the search domain",
                o.search.label(),
                o.q
            ));
        }
    }
    let not_ok = not_ok(outcomes);
    let unexpected: Vec<&String> = not_ok
        .iter()
        .filter(|label| !KNOWN_NOT_OK.iter().any(|(known, _)| known == label))
        .collect();
    for label in &unexpected {
        eprintln!("repro: {label} ended not ok and is not a known failure");
    }
    Ok(Checked {
        correct: unexpected.is_empty(),
        not_ok,
    })
}

/// The durations of the saturated or of the resolved searches,
/// ascending, microseconds.
fn search_micros(outcomes: &[Outcome], saturated: bool) -> Vec<f64> {
    sorted(
        outcomes
            .iter()
            .filter(|o| o.saturated == saturated)
            .map(|o| o.seconds * 1e6)
            .collect(),
    )
}

fn timed_setup() -> (Inputs, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs = Some(std::hint::black_box(workload(N, EPS)));
        times.push(start.elapsed().as_secs_f64());
    }
    (inputs.expect("at least one set-up"), median(times))
}

fn print_outcomes(outcomes: &[Outcome]) {
    for o in outcomes {
        eprintln!(
            "repro: {:<16} q* = {:>5}  probes = {:>2}  saturated = {:<5}  {:.3} s",
            o.search.label(),
            o.q,
            o.probes,
            o.saturated,
            o.seconds
        );
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64) -> Result<Run, String> {
    let (inputs, setup_s) = timed_setup();
    let totals = DrawTotals::default();
    let start = Instant::now();
    let outcomes: Vec<Outcome> = ordered(seed)
        .into_iter()
        .map(|s| run_search(s, &inputs, None, &totals))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    print_outcomes(&outcomes);
    let checked = check(&outcomes)?;
    let searches = outcomes.len() as u64;
    let failed = checked.not_ok.len() as u64;
    let trials: u64 = outcomes.iter().map(|o| o.trials).sum();
    let saturated = search_micros(&outcomes, true);
    Ok(Run {
        metrics: vec![
            Metric::new("setup_s", setup_s, "s", SETUP_REPS as u64),
            Metric::new("wall_s", wall_s, "s", searches),
            Metric::new(
                "ok_share",
                share(searches - failed, searches),
                "share",
                searches,
            ),
            Metric::new(
                "p50_us.high",
                quantile(&saturated, 0.5),
                "us",
                saturated.len() as u64,
            ),
            Metric::new("max_rps", trials as f64 / wall_s, "1/s", trials),
        ],
        attempted: searches,
        failed,
        correct: checked.correct,
    })
}

/// The search left out of the untraced comparison pass of the traced
/// run: at ~45–55 s, running it twice would push the traced invocation
/// past its time limit.
const OVERHEAD_SKIP: &str = "e6 r=2";

/// The traced run: per-layer metrics, set in `layers`. An untraced
/// pass over every search but [`OVERHEAD_SKIP`] comes first so the
/// tracing overhead is measured on identical work.
pub fn run_traced(seed: u64, layers: &mut PerLayer) -> Result<Run, String> {
    let (inputs, _) = timed_setup();
    let list = ordered(seed);
    let compared = |s: &Search| s.label() != OVERHEAD_SKIP;
    let untraced = DrawTotals::default();
    let start = Instant::now();
    for &s in list.iter().filter(|s| compared(s)) {
        run_search(s, &inputs, None, &untraced);
    }
    let untraced_s = start.elapsed().as_secs_f64();

    let rec = Recorder::new();
    let totals = DrawTotals::default();
    let list_span = rec.open();
    let outcomes: Vec<Outcome> = list
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let op = i as u64;
            rec.span("bench.search", Some(list_span.id), op, |id| {
                let tracing = Tracing {
                    rec: &rec,
                    parent: id,
                    op,
                };
                run_search(s, &inputs, Some(tracing), &totals)
            })
        })
        .collect();
    rec.close(list_span, "bench.list", None, 0, 0);
    print_outcomes(&outcomes);
    let checked = check(&outcomes)?;
    let spans = rec.take();

    let durations = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let traced_compared_s: f64 = durations("bench.search")
        .filter(|s| compared(&list[s.op as usize]))
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum();
    let prepares: Vec<f64> = durations("testers.prepare")
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
        .collect();
    let trial_local_us: Vec<f64> = durations("simnet.trial")
        .map(|s| (s.end_ns - s.start_ns).saturating_sub(s.draw_ns) as f64 * 1e-3)
        .collect();
    let sum_where = |saturated: bool| -> f64 {
        outcomes
            .iter()
            .filter(|o| o.saturated == saturated)
            .map(|o| o.seconds)
            .sum()
    };
    let count = |f: fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    let searches = outcomes.len() as u64;
    let (trial_ns, trial_draws) = (totals.ns.into_inner(), totals.draws.into_inner());
    layers.set("search.probes", count(|o| o.probes as u64) as f64, searches);
    layers.set(
        "search.saturated",
        count(|o| u64::from(o.saturated)) as f64,
        searches,
    );
    layers.set("runner.trials", count(|o| o.trials) as f64, searches);
    layers.set(
        "search.saturated_s",
        sum_where(true),
        count(|o| u64::from(o.saturated)),
    );
    layers.set(
        "search.resolved_s",
        sum_where(false),
        count(|o| u64::from(!o.saturated)),
    );
    layers.set("draws", count(|o| o.draws) as f64, count(|o| o.trials));
    layers.set(
        "draw.ns_per_sample",
        share(trial_ns, trial_draws),
        trial_draws,
    );
    layers.set("testers.prepare_ms", mean(&prepares), prepares.len() as u64);
    layers.set(
        "simnet.local_us",
        mean(&trial_local_us),
        trial_local_us.len() as u64,
    );
    layers.set(
        "trace.overhead_share",
        (traced_compared_s - untraced_s) / untraced_s,
        searches - 1,
    );
    let resolved = search_micros(&outcomes, false);
    let saturated = search_micros(&outcomes, true);
    let (nr, ns) = (resolved.len() as u64, saturated.len() as u64);
    layers.set("p50_us.low", quantile(&resolved, 0.5), nr);
    layers.set("p99_us.low", quantile(&resolved, 0.99), nr);
    layers.set("p99_us.high", quantile(&saturated, 0.99), ns);
    layers.set_self_times(&spans);
    let failed = checked.not_ok.len() as u64;
    Ok(Run {
        metrics: Vec::new(),
        attempted: searches,
        failed,
        correct: checked.correct,
    })
}
