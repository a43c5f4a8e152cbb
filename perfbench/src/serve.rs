//! The `serve-hot` workload: an in-process `dut serve` answering the
//! 4-key load-generator catalog, every request a cache hit after
//! warm-up, driven by this benchmark's own open-loop generator.
//!
//! Arrivals are a seeded Poisson process and each request is timed
//! from the moment it was due, so a stalled generator or server shows
//! as latency instead of as a lower offered rate. The generator uses
//! one connection and two threads, one sending on schedule and one
//! blocked in `read` so replies are stamped as they arrive; the server
//! gets `workers + shards` equal to the host's parallelism.
//!
//! Every reply is checked after timing ends against
//! `engine::offline_reply` for the same request (memoized per distinct
//! request line; seeds come from a small pool).

use crate::report::{mean, median, quantile, share, sorted, Metric, Run};
use crate::spans::{DrawTally, Recorder, TimedSampler};
use crate::PerLayer;
use dut_core::probability::AliasSampler;
use dut_core::stats::seed::derive_seed;
use dut_core::Rule;
use dut_serve::engine::{self, CacheKey, PreparedEntry};
use dut_serve::loadgen;
use dut_serve::protocol::{self, Reply, ReplyLine, Request};
use dut_serve::server::{self, ServeConfig, ServerHandle};
use dut_serve::Stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency limit for a reply to count as ok (the CI serve-smoke p99
/// gate), microseconds.
const LIMIT_US: f64 = 50_000.0;
/// Longest a receive blocks before re-checking its deadline.
const READ_POLL: Duration = Duration::from_millis(20);
/// Time from a phase's start to its first possible arrival, seconds.
const LEAD_S: f64 = 0.002;
/// How long a phase waits for replies after its last due time.
const DRAIN: Duration = Duration::from_millis(500);
/// The server's dispatch-queue bound. Above the default 64 so that a
/// burst of requests the generator sends late, after the host paused
/// it, is queued rather than shed.
const QUEUE_CAP: usize = 1024;
/// Set-ups timed per run; the median is reported and the last server
/// is the one measured.
const SETUP_REPS: usize = 15;
/// Requests each connection keeps in flight in the closed-loop burst.
const BURST_WINDOW: usize = 8;
/// Share of `--seconds` spent in rounds (a `low` block, a `high`
/// block and a part of the burst), and the length of a ladder rung
/// above `high`, seconds.
const ROUNDS_SHARE: f64 = 0.9;
const RUNG_S: f64 = 1.0;
/// Seed streams: blocks use `2·round` and `2·round + 1`, burst parts
/// start here, ladder rungs at [`RUNG_STREAM`].
const BURST_STREAM: u64 = 1 << 20;
const RUNG_STREAM: u64 = 1 << 21;

/// Offered rates of the `low` and `high` blocks, requests per second:
/// at `low` the shard loop mostly sleeps between requests, at `high`
/// it mostly does not.
const LOW_RPS: f64 = 2_000.0;
const HIGH_RPS: f64 = 8_000.0;
/// Length of one block, seconds: 1000 requests at `low`.
const BLOCK_S: f64 = 0.5;
/// The ladder's rungs above `high`, requests per second. They sit
/// outside the range over which the server's capacity swung between
/// runs on a shared 2-vCPU host (28k–64k req/s), so host noise does not
/// flip the result, while a change that moves capacity across a rung
/// does.
const RUNGS: [f64; 2] = [24_000.0, 96_000.0];
/// Requests in the closed-loop burst behind `wall_s`, spread in equal
/// parts over the rounds.
const BURST: usize = 20_000;
/// Request seeds are `1000 + u` with `u` uniform below this.
const SEED_POOL: u64 = 64;

/// One worker and one shard on a 2-core host: `workers + shards`
/// equals the host's parallelism.
fn config() -> ServeConfig {
    let parallelism = std::thread::available_parallelism().map_or(2, usize::from);
    ServeConfig {
        shards: 1,
        workers: parallelism.saturating_sub(1).max(1),
        cache_cap: 32,
        queue_cap: QUEUE_CAP,
        ..ServeConfig::default()
    }
}

/// Draws `count` requests: a uniformly chosen catalog entry with a
/// seed from the pool.
fn draw(count: usize, rng: &mut StdRng) -> Vec<Request> {
    let catalog = loadgen::catalog();
    (0..count)
        .map(|_| {
            let mut req = catalog[rng.random_range(0..catalog.len())];
            req.seed = 1000 + rng.random_range(0..SEED_POOL);
            req
        })
        .collect()
}

/// The generator's connection: one socket, written by the sending
/// thread and read by the receiving one.
struct Conn {
    stream: TcpStream,
    /// Bytes read past the last complete line.
    partial: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(READ_POLL))
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        Ok(Conn {
            stream,
            partial: Vec::new(),
        })
    }

    /// Blocks until bytes arrive (or [`READ_POLL`] passes) and appends
    /// the complete lines. Returns false once the connection is gone.
    fn read_lines(&mut self, lines: &mut Vec<String>) -> bool {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => false,
            Ok(got) => {
                self.partial.extend_from_slice(&chunk[..got]);
                while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = self.partial.drain(..=pos).collect();
                    lines.push(String::from_utf8_lossy(&line[..pos]).into_owned());
                }
                true
            }
            Err(e) => matches!(
                e.kind(),
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
            ),
        }
    }

    /// Sends one line and waits for its reply.
    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut lines = Vec::new();
        while lines.is_empty() {
            if Instant::now() > deadline || !self.read_lines(&mut lines) {
                return Err("no reply".into());
            }
        }
        Ok(lines.swap_remove(0))
    }
}

/// One request of a timed phase.
#[derive(Debug, Clone)]
struct Shot {
    req: Request,
    /// When it was due (open loop) or sent (closed loop), ns from the
    /// phase epoch.
    due_ns: u64,
    sent_ns: u64,
    recv_ns: Option<u64>,
    reply: String,
    /// Traced pass only: when rendering started and ended, and how long
    /// parsing the reply took.
    render_ns: (u64, u64),
    reply_parse_ns: u64,
}

impl Shot {
    fn new(req: Request, due_ns: u64) -> Shot {
        Shot {
            req,
            due_ns,
            sent_ns: 0,
            recv_ns: None,
            reply: String::new(),
            render_ns: (0, 0),
            reply_parse_ns: 0,
        }
    }
}

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Untraced, requests are rendered before the phase; traced, each is
/// rendered at send time and its reply parsed on receipt, both timed.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Untraced,
    Traced,
}

/// What the sending thread records per request.
#[derive(Clone, Copy, Default)]
struct Sent {
    sent_ns: u64,
    render_ns: (u64, u64),
}

/// What the receiving thread records per reply.
#[derive(Default)]
struct Received {
    recv_ns: u64,
    text: String,
    parse_ns: u64,
}

fn prerender(shots: &[Shot], mode: Mode) -> Vec<String> {
    match mode {
        Mode::Untraced => shots
            .iter()
            .map(|s| protocol::render_request(&s.req))
            .collect(),
        Mode::Traced => Vec::new(),
    }
}

/// Appends shot `i`'s line to `out`, rendering it now when it was not
/// rendered before the phase.
fn render_into(
    shots: &[Shot],
    lines: &[String],
    i: usize,
    epoch: Instant,
    out: &mut String,
) -> (u64, u64) {
    let span = match lines.get(i) {
        Some(line) => {
            out.push_str(line);
            (0, 0)
        }
        None => {
            let start = ns_since(epoch);
            out.push_str(&protocol::render_request(&shots[i].req));
            (start, ns_since(epoch))
        }
    };
    out.push('\n');
    span
}

fn receive(text: String, recv_ns: u64, mode: Mode) -> Received {
    let mut parse_ns = 0;
    if mode == Mode::Traced {
        let start = Instant::now();
        let parsed = ReplyLine::parse(&text);
        parse_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        std::hint::black_box(parsed).ok();
    }
    Received {
        recv_ns,
        text,
        parse_ns,
    }
}

/// Sends every shot at its due time (sleeping in between; all shots
/// already due go out in one write).
fn send_on_schedule(
    mut stream: &TcpStream,
    shots: &[Shot],
    epoch: Instant,
    mode: Mode,
) -> Vec<Sent> {
    let lines = prerender(shots, mode);
    let mut sent = vec![Sent::default(); shots.len()];
    let mut out = String::new();
    let mut next = 0;
    while next < shots.len() {
        let now = ns_since(epoch);
        if shots[next].due_ns > now {
            std::thread::sleep(Duration::from_nanos(shots[next].due_ns - now));
            continue;
        }
        out.clear();
        let first = next;
        let now = ns_since(epoch);
        while next < shots.len() && shots[next].due_ns <= now {
            sent[next].render_ns = render_into(shots, &lines, next, epoch, &mut out);
            next += 1;
        }
        if stream.write_all(out.as_bytes()).is_err() {
            break;
        }
        let at = ns_since(epoch);
        sent[first..next].iter_mut().for_each(|s| s.sent_ns = at);
    }
    sent
}

/// Reads replies until every shot has one or `give_up_ns` passes.
fn receive_all(
    conn: &mut Conn,
    expected: usize,
    epoch: Instant,
    give_up_ns: u64,
    mode: Mode,
) -> Vec<Received> {
    let mut got = Vec::with_capacity(expected);
    let mut lines = Vec::new();
    while got.len() < expected && ns_since(epoch) < give_up_ns {
        if !conn.read_lines(&mut lines) {
            break;
        }
        let recv = ns_since(epoch);
        got.extend(lines.drain(..).map(|text| receive(text, recv, mode)));
    }
    got
}

/// Runs an open-loop schedule: one thread sends on schedule, the other
/// receives. Returns false if replies were still outstanding when the
/// receiver gave up (the connection must then be replaced, or late
/// replies would be taken for the next phase's).
fn open_loop(conn: &mut Conn, shots: &mut [Shot], epoch: Instant, mode: Mode) -> bool {
    let give_up =
        shots.last().map_or(0, |s| s.due_ns) + u64::try_from(DRAIN.as_nanos()).unwrap_or(u64::MAX);
    let Ok(writer) = conn.stream.try_clone() else {
        return false;
    };
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| send_on_schedule(&writer, shots, epoch, mode));
        let received = receive_all(conn, shots.len(), epoch, give_up, mode);
        (sender.join().expect("sending thread panicked"), received)
    });
    let complete = received.len() == shots.len();
    merge(shots, &sent, received);
    complete
}

fn merge(shots: &mut [Shot], sent: &[Sent], received: Vec<Received>) {
    for (shot, s) in shots.iter_mut().zip(sent) {
        shot.sent_ns = s.sent_ns;
        shot.render_ns = s.render_ns;
    }
    for (shot, r) in shots.iter_mut().zip(received) {
        shot.recv_ns = Some(r.recv_ns);
        shot.reply = r.text;
        shot.reply_parse_ns = r.parse_ns;
    }
}

/// Runs the closed-loop burst on one thread, keeping [`BURST_WINDOW`]
/// requests in flight; a request is due when it is sent.
fn closed_loop(conn: &mut Conn, shots: &mut [Shot], epoch: Instant, mode: Mode) -> bool {
    let lines = prerender(shots, mode);
    let mut sent = vec![Sent::default(); shots.len()];
    let mut received = Vec::with_capacity(shots.len());
    let mut lines_in = Vec::new();
    let mut out = String::new();
    let mut next = 0;
    let give_up = Instant::now() + Duration::from_secs(60);
    while received.len() < shots.len() {
        out.clear();
        let first = next;
        while next < shots.len() && next < received.len() + BURST_WINDOW {
            shots[next].due_ns = ns_since(epoch);
            sent[next].render_ns = render_into(shots, &lines, next, epoch, &mut out);
            next += 1;
        }
        if !out.is_empty() {
            if conn.stream.write_all(out.as_bytes()).is_err() {
                break;
            }
            let at = ns_since(epoch);
            sent[first..next].iter_mut().for_each(|s| s.sent_ns = at);
        }
        if Instant::now() > give_up || !conn.read_lines(&mut lines_in) {
            break;
        }
        let recv = ns_since(epoch);
        received.extend(lines_in.drain(..).map(|text| receive(text, recv, mode)));
    }
    let complete = received.len() == shots.len();
    merge(shots, &sent, received);
    complete
}

/// The server under test, its address, the generator's connection and
/// the service times of the warm-up requests (all cache misses).
struct Rig {
    handle: ServerHandle,
    addr: String,
    conn: Conn,
    warm_micros: Vec<f64>,
}

impl Rig {
    /// Starts a server, connects the generator and sends the warm-up
    /// requests, closed-loop.
    fn start() -> Result<Rig, String> {
        let handle = server::start(&config())?;
        let addr = handle.local_addr().to_string();
        let conn = match Conn::connect(&addr) {
            Ok(conn) => conn,
            Err(e) => {
                handle.request_shutdown();
                handle.join();
                return Err(e);
            }
        };
        let mut rig = Rig {
            handle,
            addr,
            conn,
            warm_micros: Vec::new(),
        };
        for req in loadgen::catalog() {
            let reply = rig.conn.round_trip(&protocol::render_request(&req));
            match reply.as_deref().map(ReplyLine::parse) {
                Ok(Ok(ReplyLine::Reply(r))) => rig.warm_micros.push(r.micros as f64),
                _ => {
                    rig.stop();
                    return Err(format!("warm-up request failed: {reply:?}"));
                }
            }
        }
        Ok(rig)
    }

    fn stats(&self) -> Result<Stats, String> {
        loadgen::fetch_stats(&self.addr)
    }

    fn stop(self) {
        drop(self.conn);
        self.handle.request_shutdown();
        self.handle.join();
    }

    /// Runs a phase, open- or closed-loop. A connection left with
    /// replies outstanding is replaced.
    fn phase(
        &mut self,
        mut shots: Vec<Shot>,
        closed: bool,
        mode: Mode,
    ) -> Result<Vec<Shot>, String> {
        let epoch = Instant::now();
        let complete = if closed {
            closed_loop(&mut self.conn, &mut shots, epoch, mode)
        } else {
            open_loop(&mut self.conn, &mut shots, epoch, mode)
        };
        if !complete {
            self.conn = Conn::connect(&self.addr)?;
        }
        Ok(shots)
    }
}

/// Poisson arrivals at `rate` over `seconds`, starting after a short
/// lead.
fn schedule(rate: f64, seconds: f64, seed: u64, stream: u64) -> Vec<Shot> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream));
    let mut due = Vec::new();
    let mut t = LEAD_S;
    loop {
        t += -(1.0 - rng.random::<f64>()).ln() / rate;
        if t >= LEAD_S + seconds {
            break;
        }
        due.push((t * 1e9) as u64);
    }
    let reqs = draw(due.len(), &mut rng);
    reqs.into_iter()
        .zip(due)
        .map(|(req, due)| Shot::new(req, due))
        .collect()
}

/// One part of the closed-loop burst.
fn burst_shots(count: usize, seed: u64, stream: u64) -> Vec<Shot> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream));
    draw(count, &mut rng)
        .into_iter()
        .map(|req| Shot::new(req, 0))
        .collect()
}

/// Whether a rate passes, judged over all its blocks together: the
/// p99 from due time is within the limit, nothing was shed, failed or
/// lost, and no backlog grew in at least half of the blocks.
fn rate_passes(blocks: &[Judged]) -> bool {
    let clean = blocks
        .iter()
        .flat_map(|b| &b.verdicts)
        .all(|&v| matches!(v, Verdict::Ok | Verdict::Late));
    let latencies = sorted(blocks.iter().flat_map(Judged::latencies).collect());
    let steady = blocks.iter().filter(|b| b.steady()).count();
    clean
        && !latencies.is_empty()
        && quantile(&latencies, 0.99) <= LIMIT_US
        && 2 * steady >= blocks.len()
}

/// How a request ended, judged after timing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Ok,
    Late,
    Shed,
    Error,
    Timeout,
    Mismatch,
}

/// Offline reference answers, memoized per request line.
struct Verifier {
    memo: HashMap<String, Result<Reply, String>>,
}

impl Verifier {
    fn new() -> Verifier {
        Verifier {
            memo: HashMap::new(),
        }
    }

    fn same(a: &Reply, b: &Reply) -> bool {
        a.verdict == b.verdict
            && a.p_hat.to_bits() == b.p_hat.to_bits()
            && a.wilson_lo.to_bits() == b.wilson_lo.to_bits()
            && a.wilson_hi.to_bits() == b.wilson_hi.to_bits()
    }

    fn judge(&mut self, shot: &Shot) -> (Verdict, Option<Reply>) {
        let Some(recv) = shot.recv_ns else {
            return (Verdict::Timeout, None);
        };
        let reply = match ReplyLine::parse(&shot.reply) {
            Ok(ReplyLine::Reply(reply)) => reply,
            Ok(ReplyLine::Overloaded) => return (Verdict::Shed, None),
            _ => return (Verdict::Error, None),
        };
        let expected = self
            .memo
            .entry(protocol::render_request(&shot.req))
            .or_insert_with(|| engine::offline_reply(&shot.req));
        let verdict = match expected {
            Ok(expected) if Self::same(expected, &reply) => {
                if latency_us(shot, recv) <= LIMIT_US {
                    Verdict::Ok
                } else {
                    Verdict::Late
                }
            }
            _ => Verdict::Mismatch,
        };
        (verdict, Some(reply))
    }
}

fn latency_us(shot: &Shot, recv_ns: u64) -> f64 {
    recv_ns.saturating_sub(shot.due_ns) as f64 * 1e-3
}

/// A judged phase.
struct Judged {
    shots: Vec<Shot>,
    verdicts: Vec<Verdict>,
    replies: Vec<Option<Reply>>,
}

impl Judged {
    fn new(shots: Vec<Shot>, verifier: &mut Verifier) -> Judged {
        let (verdicts, replies) = shots.iter().map(|s| verifier.judge(s)).unzip();
        Judged {
            shots,
            verdicts,
            replies,
        }
    }

    /// Failed requests by kind, for the log.
    fn failures(&self) -> String {
        let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
        for v in self.verdicts.iter().filter(|&&v| v != Verdict::Ok) {
            *kinds.entry(format!("{v:?}")).or_default() += 1;
        }
        format!("{kinds:?}")
    }

    fn ok(&self) -> u64 {
        self.verdicts.iter().filter(|&&v| v == Verdict::Ok).count() as u64
    }

    /// Latency from due time per request, in due order, with every
    /// failed request counted as at least the limit.
    fn latencies_in_order(&self) -> Vec<f64> {
        self.shots
            .iter()
            .zip(&self.verdicts)
            .map(|(shot, &v)| {
                let measured = shot.recv_ns.map_or(LIMIT_US, |r| latency_us(shot, r));
                if matches!(v, Verdict::Ok | Verdict::Late) {
                    measured
                } else {
                    measured.max(LIMIT_US)
                }
            })
            .collect()
    }

    fn latencies(&self) -> Vec<f64> {
        sorted(self.latencies_in_order())
    }

    /// Whether the median latency of the last quarter is at most twice
    /// that of the first plus 1 ms: no backlog grew during the block.
    fn steady(&self) -> bool {
        let lat = self.latencies_in_order();
        let quarter = lat.len() / 4;
        if quarter == 0 {
            return true;
        }
        let first = median(lat[..quarter].to_vec());
        let last = median(lat[lat.len() - quarter..].to_vec());
        last <= 2.0 * first + 1_000.0
    }

    /// Replies per second over the span of due times.
    fn rate(&self) -> f64 {
        let first = self.shots.iter().map(|s| s.due_ns).min().unwrap_or(0);
        let last = self
            .shots
            .iter()
            .filter_map(|s| s.recv_ns)
            .max()
            .unwrap_or(first);
        self.shots.len() as f64 / ((last - first) as f64 * 1e-9)
    }

    fn hits(&self) -> (u64, u64) {
        let replies = self.replies.iter().flatten();
        let hits = replies.clone().filter(|r| r.cache_hit).count() as u64;
        (hits, replies.count() as u64)
    }
}

/// Starts [`SETUP_REPS`] servers in turn, timing each from start to
/// warmed up, and keeps the last.
fn timed_setup() -> Result<(Rig, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = rig.take() {
            previous.stop();
        }
        let start = Instant::now();
        rig = Some(Rig::start()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((rig.expect("SETUP_REPS is at least 1"), median(times)))
}

fn request_count(blocks: &[Judged]) -> u64 {
    blocks.iter().map(|b| b.shots.len() as u64).sum()
}

/// The workload guard: after warm-up every reply must be a cache hit,
/// or the run measures something other than the transport. Returns
/// the hit share.
fn check_all_hits(phases: &[&Judged]) -> Result<f64, String> {
    let (hits, replies) = phases
        .iter()
        .map(|j| j.hits())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    if hits != replies {
        return Err(format!(
            "guard: {hits} of {replies} replies were cache hits; serve-hot needs all of them"
        ));
    }
    Ok(share(hits, replies))
}

/// The timed phases of one run.
struct Phases {
    /// One block per round at each of the `low` and `high` rates.
    low: Vec<Judged>,
    high: Vec<Judged>,
    /// One closed-loop burst part per round, with its wall time (the
    /// untraced copy in a traced run).
    burst: Vec<Judged>,
    burst_s: Vec<f64>,
    /// Traced runs only: the traced copy of each burst part's time.
    traced_burst_s: Vec<f64>,
    /// Ladder rungs above `high`, in order, up to the first failure.
    rungs: Vec<Judged>,
    max_rps: f64,
}

impl Phases {
    /// The burst's wall time: the number of parts times the median
    /// part's time.
    fn burst_wall_s(&self) -> f64 {
        self.burst_s.len() as f64 * median(self.burst_s.clone())
    }

    /// The median over blocks of each block's p50.
    fn p50(blocks: &[Judged]) -> f64 {
        median(
            blocks
                .iter()
                .map(|b| quantile(&b.latencies(), 0.5))
                .collect(),
        )
    }

    /// The lowest of the blocks' p99s. Pauses of the host (the other
    /// tenants of a shared machine) only add latency and come in
    /// stretches of seconds, long enough to lift most blocks' p99 in a
    /// run several-fold; the quietest block is what the server itself
    /// achieves at that rate.
    fn p99(blocks: &[Judged]) -> f64 {
        blocks
            .iter()
            .map(|b| quantile(&b.latencies(), 0.99))
            .fold(f64::INFINITY, f64::min)
    }
}

fn log_block(rate: f64, judged: &Judged) {
    let lat = judged.latencies();
    eprintln!(
        "serve-hot: {rate} req/s offered, {:.0} achieved, {} of {} ok {}, p50 {:.0} us, p99 {:.0} us",
        judged.rate(),
        judged.ok(),
        judged.shots.len(),
        judged.failures(),
        quantile(&lat, 0.5),
        quantile(&lat, 0.99),
    );
}

/// Runs the rounds, so the `low` and `high` rates and the burst all
/// sample the whole run's host conditions, then (untraced only) the
/// ladder rungs above `high` until one fails. A traced run sends each
/// burst part twice, untraced and traced, in alternating order.
fn run_phases(
    rig: &mut Rig,
    seed: u64,
    seconds: f64,
    mode: Mode,
    verifier: &mut Verifier,
) -> Result<Phases, String> {
    let rounds = ((seconds * ROUNDS_SHARE / (2.0 * BLOCK_S)) as u64).max(2);
    let part = (BURST / rounds as usize).max(1);
    let mut phases = Phases {
        low: Vec::new(),
        high: Vec::new(),
        burst: Vec::new(),
        burst_s: Vec::new(),
        traced_burst_s: Vec::new(),
        rungs: Vec::new(),
        max_rps: 0.0,
    };
    for round in 0..rounds {
        for (rate, stream, out) in [
            (LOW_RPS, 2 * round, &mut phases.low),
            (HIGH_RPS, 2 * round + 1, &mut phases.high),
        ] {
            let shots = rig.phase(schedule(rate, BLOCK_S, seed, stream), false, mode)?;
            let judged = Judged::new(shots, verifier);
            log_block(rate, &judged);
            out.push(judged);
        }
        let stream = BURST_STREAM + round;
        let modes: &[Mode] = match (mode, round % 2) {
            (Mode::Untraced, _) => &[Mode::Untraced],
            (Mode::Traced, 0) => &[Mode::Untraced, Mode::Traced],
            (Mode::Traced, _) => &[Mode::Traced, Mode::Untraced],
        };
        for &burst_mode in modes {
            let start = Instant::now();
            let shots = rig.phase(burst_shots(part, seed, stream), true, burst_mode)?;
            let elapsed = start.elapsed().as_secs_f64();
            let judged = Judged::new(shots, verifier);
            if burst_mode == Mode::Traced {
                phases.traced_burst_s.push(elapsed);
            } else {
                phases.burst_s.push(elapsed);
                phases.burst.push(judged);
            }
        }
    }
    // The ladder starts at `low` and `high`.
    let level_rate =
        |level: &[Judged]| level.iter().map(Judged::rate).sum::<f64>() / level.len() as f64;
    if !rate_passes(&phases.low) {
        return Ok(phases);
    }
    phases.max_rps = level_rate(&phases.low);
    if !rate_passes(&phases.high) {
        return Ok(phases);
    }
    phases.max_rps = level_rate(&phases.high);
    if mode == Mode::Traced {
        return Ok(phases);
    }
    for (i, &rate) in RUNGS.iter().enumerate() {
        let shots = rig.phase(
            schedule(rate, RUNG_S, seed, RUNG_STREAM + i as u64),
            false,
            mode,
        )?;
        let judged = Judged::new(shots, verifier);
        log_block(rate, &judged);
        let passed = rate_passes(std::slice::from_ref(&judged));
        if passed {
            phases.max_rps = judged.rate();
        }
        phases.rungs.push(judged);
        if !passed {
            break;
        }
    }
    Ok(phases)
}

/// The operations a run counts: every block and burst part. Ladder
/// rungs above `high` probe for overload and are not counted.
fn counted(phases: &Phases) -> Vec<&Judged> {
    phases
        .low
        .iter()
        .chain(&phases.high)
        .chain(&phases.burst)
        .collect()
}

/// `(attempted, failed, correct)` over the counted operations: failed
/// requests were shed, errored, timed out, late or wrong; the run is
/// correct when no reply was wrong.
fn tally(judged: &[&Judged]) -> (u64, u64, bool) {
    let attempted: u64 = judged.iter().map(|j| j.shots.len() as u64).sum();
    let ok: u64 = judged.iter().map(|j| j.ok()).sum();
    let wrong = judged
        .iter()
        .flat_map(|j| &j.verdicts)
        .any(|&v| matches!(v, Verdict::Mismatch | Verdict::Error));
    (attempted, attempted - ok, !wrong)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64) -> Result<Run, String> {
    let (mut rig, setup_s) = timed_setup()?;
    let mut verifier = Verifier::new();
    let phases = run_phases(
        &mut rig,
        seed,
        seconds as f64,
        Mode::Untraced,
        &mut verifier,
    );
    rig.stop();
    let phases = phases?;
    let judged = counted(&phases);
    check_all_hits(&judged)?;
    let (attempted, failed, correct) = tally(&judged);
    Ok(Run {
        metrics: vec![
            Metric::new("setup_s", setup_s, "s", SETUP_REPS as u64),
            Metric::new(
                "wall_s",
                phases.burst_wall_s(),
                "s",
                request_count(&phases.burst),
            ),
            Metric::new(
                "ok_share",
                share(attempted - failed, attempted),
                "share",
                attempted,
            ),
            Metric::new(
                "p50_us.high",
                Phases::p50(&phases.high),
                "us",
                request_count(&phases.high),
            ),
            Metric::new(
                "max_rps",
                phases.max_rps,
                "1/s",
                2 + phases.rungs.len() as u64,
            ),
        ],
        attempted,
        failed,
        correct,
    })
}

/// Requests replayed through a timed sampler for `draw.ns_per_sample`.
const DRAW_REPLAYS: usize = 200;

fn us(ns: u64) -> f64 {
    ns as f64 * 1e-3
}

/// Samples one request draws: `k·q` per trial, `q` for the
/// centralized rule (a cache hit runs no calibration).
fn draws_of(req: &Request) -> u64 {
    let per_trial = match req.rule {
        Rule::Centralized => req.q,
        _ => req.k * req.q,
    } as u64;
    req.trials * per_trial
}

/// Records each replied request of the traced blocks as a span tree:
/// `gen.request` from due time to the end of reply parsing, with
/// `gen.lag`, `protocol.render`, `server.transport` (holding
/// `engine.compute`, the reply's own `micros`) and
/// `protocol.reply_parse` below it.
fn record_spans(rec: &Recorder, blocks: &[&Judged]) {
    let mut op = 0;
    for judged in blocks {
        for (shot, reply) in judged.shots.iter().zip(&judged.replies) {
            let (Some(recv), Some(reply)) = (shot.recv_ns, reply) else {
                continue;
            };
            op += 1;
            let end = recv + shot.reply_parse_ns;
            let root = rec.record("gen.request", shot.due_ns, end, None, op);
            rec.record(
                "gen.lag",
                shot.due_ns,
                shot.render_ns.0.max(shot.due_ns),
                Some(root),
                op,
            );
            rec.record(
                "protocol.render",
                shot.render_ns.0,
                shot.render_ns.1,
                Some(root),
                op,
            );
            let transport = rec.record("server.transport", shot.sent_ns, recv, Some(root), op);
            let engine_start = recv.saturating_sub(reply.micros * 1000).max(shot.sent_ns);
            rec.record("engine.compute", engine_start, recv, Some(transport), op);
            rec.record("protocol.reply_parse", recv, end, Some(root), op);
        }
    }
}

/// Mean time of `protocol::parse_command` over the requests' lines,
/// ns: the server's parse, timed outside it.
fn parse_ns(blocks: &[&Judged]) -> (f64, u64) {
    let lines: Vec<String> = blocks
        .iter()
        .flat_map(|j| j.shots.iter().map(|s| protocol::render_request(&s.req)))
        .collect();
    let start = Instant::now();
    for line in &lines {
        std::hint::black_box(protocol::parse_command(std::hint::black_box(line))).ok();
    }
    (
        share(
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            lines.len() as u64,
        ),
        lines.len() as u64,
    )
}

/// Mean `engine::build_entry` time over the catalog keys (what each
/// warm-up miss builds), ms.
fn prepare_ms() -> (f64, u64) {
    let times: Vec<f64> = loadgen::catalog()
        .iter()
        .map(|req| {
            let start = Instant::now();
            std::hint::black_box(engine::build_entry(&CacheKey::of(req))).ok();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (mean(&times), times.len() as u64)
}

/// Replays requests through each key's prepared tester with a timed
/// alias sampler over the key's input family: the draw layer's cost
/// per sample on the catalog.
fn draw_ns_per_sample(blocks: &[&Judged]) -> (f64, u64) {
    let tally = DrawTally::default();
    let mut entries: BTreeMap<CacheKey, Option<(Arc<PreparedEntry>, AliasSampler)>> =
        BTreeMap::new();
    for shot in blocks.iter().flat_map(|j| &j.shots).take(DRAW_REPLAYS) {
        let key = CacheKey::of(&shot.req);
        let entry = entries.entry(key).or_insert_with(|| {
            let entry = engine::build_entry(&key).ok()?;
            let sampler = key.family.build(key.n, shot.req.eps).ok()?.alias_sampler();
            Some((entry, sampler))
        });
        if let Some((entry, sampler)) = entry {
            let mut rng = StdRng::seed_from_u64(derive_seed(shot.req.seed, 0));
            let timed = TimedSampler {
                inner: &*sampler,
                tally: Some(&tally),
            };
            std::hint::black_box(entry.prepared.run(&timed, &mut rng));
        }
    }
    let draws = tally.draws.get();
    (share(tally.ns.get(), draws), draws)
}

/// The traced run: per-layer metrics, set in `layers`.
pub fn run_traced(seed: u64, seconds: u64, layers: &mut PerLayer) -> Result<Run, String> {
    let (mut rig, _) = timed_setup()?;
    let mut verifier = Verifier::new();
    let timed = (|| {
        let before = rig.stats()?;
        let phases = run_phases(&mut rig, seed, seconds as f64, Mode::Traced, &mut verifier)?;
        let after = rig.stats()?;
        Ok::<_, String>((phases, before, after))
    })();
    let warm_micros = rig.warm_micros.clone();
    rig.stop();
    let (phases, before, after) = timed?;
    let blocks: Vec<&Judged> = phases.low.iter().chain(&phases.high).collect();
    let hit_share = check_all_hits(&counted(&phases))?;

    let mut transport = Vec::new();
    let mut lag = Vec::new();
    let mut hit_us = Vec::new();
    let (mut render, mut reply_parse) = (Vec::new(), Vec::new());
    let mut draws = 0;
    for judged in &blocks {
        for (shot, reply) in judged.shots.iter().zip(&judged.replies) {
            lag.push(us(shot.sent_ns.saturating_sub(shot.due_ns)));
            render.push((shot.render_ns.1 - shot.render_ns.0) as f64);
            let (Some(recv), Some(reply)) = (shot.recv_ns, reply) else {
                continue;
            };
            reply_parse.push(shot.reply_parse_ns as f64);
            transport.push(us(recv.saturating_sub(shot.sent_ns)) - reply.micros as f64);
            hit_us.push(reply.micros as f64);
            draws += draws_of(&shot.req);
        }
    }
    let (transport, lag, hit_us) = (sorted(transport), sorted(lag), sorted(hit_us));
    // The only misses are the warm-up's, one per catalog key.
    let miss_us = sorted(warm_micros);
    let replies = transport.len() as u64;
    let requests = after.requests.saturating_sub(before.requests);
    layers.set(
        "server.transport_us.p50",
        quantile(&transport, 0.5),
        replies,
    );
    layers.set(
        "server.transport_us.p99",
        quantile(&transport, 0.99),
        replies,
    );
    layers.set("server.queue_wait_us.p99", after.queue_wait_p99, requests);
    layers.set(
        "server.shed",
        after.shed.saturating_sub(before.shed) as f64,
        requests,
    );
    layers.set(
        "server.coalesced_share",
        share(after.coalesced.saturating_sub(before.coalesced), requests),
        requests,
    );
    layers.set("protocol.render_ns", mean(&render), render.len() as u64);
    let (parse, parsed) = parse_ns(&blocks);
    layers.set("protocol.parse_ns", parse, parsed);
    layers.set(
        "protocol.reply_parse_ns",
        mean(&reply_parse),
        reply_parse.len() as u64,
    );
    layers.set(
        "engine.hit_us.p50",
        quantile(&hit_us, 0.5),
        hit_us.len() as u64,
    );
    layers.set(
        "engine.miss_us.p50",
        quantile(&miss_us, 0.5),
        miss_us.len() as u64,
    );
    layers.set("cache.hit_share", hit_share, replies);
    layers.set("gen.lag_us.p99", quantile(&lag, 0.99), lag.len() as u64);
    let blocks_run = phases.low.len() as u64;
    layers.set(
        "p50_us.low",
        Phases::p50(&phases.low),
        request_count(&phases.low),
    );
    layers.set("p99_us.low", Phases::p99(&phases.low), blocks_run);
    layers.set("p99_us.high", Phases::p99(&phases.high), blocks_run);
    layers.set("draws", draws as f64, replies);
    let (draw_ns, drawn) = draw_ns_per_sample(&blocks);
    layers.set("draw.ns_per_sample", draw_ns, drawn);
    let (prepare, prepared) = prepare_ms();
    layers.set("testers.prepare_ms", prepare, prepared);
    let untraced: f64 = phases.burst_s.iter().sum();
    let traced: f64 = phases.traced_burst_s.iter().sum();
    layers.set(
        "trace.overhead_share",
        (traced - untraced) / untraced,
        phases.burst_s.len() as u64,
    );
    let rec = Recorder::new();
    record_spans(&rec, &blocks);
    layers.set_self_times(&rec.take());

    let (attempted, failed, correct) = tally(&counted(&phases));
    Ok(Run {
        metrics: Vec::new(),
        attempted,
        failed,
        correct,
    })
}
