//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <packing|fanout|provision> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's input from the seed, replays it back-to-back
//! in a closed loop (one caller, no pacing) for a fixed number of passes
//! sized from `--seconds`, checks every output, and prints a
//! human-readable table followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, or the per-layer metrics with `--trace 1`.
//! Per-layer numbers come from a separate traced run: the program re-run
//! with telemetry on, plus a layer replay in this crate that replays the
//! same input through the public per-call API, keeping one span per
//! call. A failed correctness gate (or a tail percentile without ten
//! samples beyond it) prints no metrics and exits with status 1.

mod provision;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use stats::{layers, median, paired_difference, ratio, tail, Recorder};

/// The end-to-end metrics every workload reports with `--trace 0`.
/// Latencies are per admission decision (serve) or per provisioning
/// request; the tail has at least ten samples beyond it: p99 on
/// `fanout` (50,000 admissions), p95 on `packing` (see
/// `ServeSpec::tail_pct`) and on `provision` (one sample per request
/// of a 224-request stream).
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("platform_cost", "usd"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every workload reports with `--trace 1`, named
/// after the module they measure. A layer a workload does not run
/// reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("gen.trace_s", "s"),
    ("gen.instance.busy_s", "s"),
    ("gen.instance.calls", "count"),
    ("heuristics.place.busy_s", "s"),
    ("heuristics.place.p50_us", "us"),
    ("heuristics.portfolio.busy_s", "s"),
    ("heuristics.feasible_frac", "ratio"),
    ("platform.admit.busy_s", "s"),
    ("platform.admit.calls", "count"),
    ("platform.admit.p50_us", "us"),
    ("platform.admit.p99_us", "us"),
    ("platform.admit.reuse_frac", "ratio"),
    ("platform.admit.pack_pruned", "count"),
    ("platform.depart.busy_s", "s"),
    ("platform.depart.calls", "count"),
    ("platform.depart.p50_us", "us"),
    ("platform.depart.p99_us", "us"),
    ("platform.depart.evac_pruned", "count"),
    ("platform.fail.busy_s", "s"),
    ("platform.fail.calls", "count"),
    ("platform.fail.remapped", "count"),
    ("platform.fail.evicted", "count"),
    ("platform.residents_mean", "tenants"),
    ("platform.procs_peak", "count"),
    ("platform.degenerate", "flag"),
    ("loop.self_s", "s"),
    ("shard.count", "count"),
    ("shard.ticks", "count"),
    ("shard.batch_events_mean", "events"),
    ("shard.skew", "ratio"),
    ("pool.busy_frac", "ratio"),
    ("pool.steals", "count"),
    ("fault.overhead_s", "s"),
    ("fault.recovery_replayed", "count"),
    ("fault.msgs_retransmitted", "count"),
    ("fault.readmit_frac", "ratio"),
    ("engine.slo.busy_s", "s"),
    ("engine.slo.calls", "count"),
    ("engine.slo.p50_us", "us"),
    ("search.refine.busy_s", "s"),
    ("search.refine.p50_ms", "ms"),
    ("search.accept_frac", "ratio"),
    ("search.verify_reject_frac", "ratio"),
    ("solver.bb.busy_s", "s"),
    ("solver.bb.nodes", "count"),
    ("solver.bb.nodes_per_s", "1/s"),
    ("solver.bb.certified_frac", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
];

/// Each end-to-end metric's per-workload name (`events_per_s`,
/// `solve_p95_ms`, …), printed beside the schema name.
fn workload_name(workload: &str, metric: &str) -> Option<&'static str> {
    let provision = workload == "provision";
    Some(match metric {
        "throughput_per_s" if provision => "solves_per_s",
        "throughput_per_s" => "events_per_s",
        "latency_p50_us" if provision => "solve_p50_ms x 1000",
        "latency_p50_us" => "admit_p50_us",
        "latency_tail_us" if provision => "solve_p95_ms x 1000",
        "latency_tail_us" if workload == "packing" => "admit_p95_us",
        "latency_tail_us" => "admit_p99_us",
        _ => return None,
    })
}

const WORKLOADS: &[&str] = &["packing", "fanout", "provision"];

/// Set-ups per timed run besides the first; `setup_s` is the median.
const SETUP_REPS: usize = 20;

/// Layers the program's replay loop also runs (the shadow
/// placement is extra work and excluded); `loop.self_s` is the program's
/// wall time minus these.
const SERVE_LOOP_LAYERS: &[&str] = &[
    "gen.instance",
    "platform.admit",
    "platform.depart",
    "platform.fail",
    "platform.snapshot",
    "engine.slo",
];
const PROVISION_LOOP_LAYERS: &[&str] = &["heuristics.portfolio", "search.refine", "solver.bb"];

const USAGE: &str = "usage: perfbench --workload <packing|fanout|provision> --seed <n> \
                     --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A run's result: metric values by name, plus the human-readable lines
/// printed above the JSON.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// The result object, with exactly the metrics of `schema` in order.
    fn json(&self, schema: &[(&str, &str)]) -> String {
        assert_eq!(
            self.values.len(),
            schema.len(),
            "a metric outside the schema was set"
        );
        let metrics: Vec<String> = schema
            .iter()
            .map(|(name, unit)| {
                let v = self.values[name];
                assert!(v.is_finite(), "metric {name} is not finite");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set-up wall times of a timed run. The first set-up makes the input;
/// [`SETUP_REPS`] more are spread evenly over the timed items after the
/// first pass, so `setup_s` samples the same machine states as the
/// timed passes, and the first pass (where `peak_rss_mb` is read) runs
/// with one input in memory.
struct Setups {
    times: Vec<f64>,
    first_pass: usize,
    items: usize,
}

impl Setups {
    /// For a run of `passes` passes over `per_pass` items.
    fn new(per_pass: usize, passes: usize) -> Self {
        Setups {
            times: Vec::new(),
            first_pass: per_pass,
            items: per_pass * passes,
        }
    }

    fn time<T>(&mut self, make: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let made = make();
        self.times.push(t0.elapsed().as_secs_f64());
        made
    }

    /// Set-ups due after timed item `j` (counted from 0).
    fn due_after(&self, j: usize) -> usize {
        let done = (j + 1).saturating_sub(self.first_pass);
        (1 + done * SETUP_REPS / (self.items - self.first_pass)).saturating_sub(self.times.len())
    }

    fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Runs `make` five times; returns the last result and the median of
/// `part` over the results (a sub-phase each result timed itself).
fn traced_setup<T>(mut make: impl FnMut() -> T, part: impl Fn(&T) -> f64) -> (T, f64) {
    let made: Vec<T> = (0..5).map(|_| make()).collect();
    let parts: Vec<f64> = made.iter().map(&part).collect();
    (
        made.into_iter().last().expect("five set-ups"),
        median(&parts),
    )
}

extern "C" {
    /// glibc's `sched_setaffinity(2)` wrapper; `mask` is a CPU bit set of
    /// `size` bytes.
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Moves the calling thread to CPU `pass` modulo the CPUs available
/// (at most 64); a no-op where the kernel refuses. Single-threaded
/// workloads run successive passes on alternate cores: on a shared host
/// one core can run 1.6x slower than the other for seconds at a time,
/// and an item's fastest time over both cores filters that out.
fn rotate_cpu(pass: usize) {
    // Counted once: after the first move the thread sees one CPU.
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cpus =
        *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(64)));
    let mask: u64 = 1 << (pass % cpus);
    // SAFETY: the mask is a live 8-byte bit set and pid 0 is this thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

fn peak_rss_mb() -> f64 {
    snsp_telemetry::peak_rss_kb() as f64 / 1024.0
}

/// Mean resident tenants per shard the traces offer (Little's law over
/// the arrivals' holding times), before any admission decision.
fn offered_residents(inputs: &serve::Inputs, shards: usize) -> f64 {
    let per_trace: Vec<f64> = inputs
        .traces
        .iter()
        .map(|input| {
            let horizon = input.trace.params.horizon;
            let held: f64 = input
                .trace
                .events
                .iter()
                .filter_map(|ev| match ev.event {
                    snsp_gen::TraceEvent::Arrive { deadline, .. } => {
                        Some(deadline.min(horizon) - ev.time)
                    }
                    _ => None,
                })
                .sum();
            held / horizon / shards as f64
        })
        .collect();
    median(&per_trace)
}

/// Passes over the input a timed run makes: `passes_per_s` (calibrated
/// on the baseline so a run measures about `seconds` there) times
/// `seconds`, and at least two. The count depends only on the
/// arguments, never on the speed of the code under test, so two
/// commits take their fastest times over the same number of repeats.
fn timed_passes(passes_per_s: f64, seconds: f64) -> usize {
    ((passes_per_s * seconds).round() as usize).max(2)
}

fn serve_timed(spec: &serve::ServeSpec, args: &Args) -> Result<Report, String> {
    let passes = timed_passes(spec.passes_per_s, args.seconds);
    let mut setups = Setups::new(spec.traces, passes);
    let inputs = setups.time(|| serve::setup(spec, args.seed));
    let set = &inputs.traces;
    let mut identities = vec![None; set.len()];
    let mut r = Report::default();
    let mut best_wall = vec![f64::INFINITY; set.len()];
    let mut best_latencies: Vec<Vec<f64>> = vec![Vec::new(); set.len()];
    let (mut cost, mut peak, mut slo_misses, mut rss_mb) = (0.0, 0, 0, 0.0);
    // Every trace is replayed `passes` times, round-robin, and its
    // fastest replay counts; replays are deterministic, so admission i
    // of every replay is the same decision, and its fastest time counts.
    // Successive passes of a single-threaded replay run on alternate
    // cores.
    for replay in 0..passes * set.len() {
        let k = replay % set.len();
        // A replay with workers spawns them from this thread, so they
        // would inherit its CPU: only single-threaded replays move.
        if k == 0 && spec.workers == 1 {
            rotate_cpu(replay / set.len());
        }
        let input = &set[k];
        let run = serve::run_program(spec, input, &input.plan, spec.workers)?;
        match identities[k] {
            Some(id) if id != run.identity() => {
                return Err(format!("trace {k}: replay outcome differs between repeats"));
            }
            Some(_) => {}
            None => {
                identities[k] = Some(run.identity());
                cost += run.report.cost_time_integral;
                peak = peak.max(run.report.peak_procs);
                slo_misses += run.report.slo_violations;
            }
        }
        r.attempted += run.report.arrivals as u64;
        r.failed += run.failed() as u64;
        best_wall[k] = best_wall[k].min(run.wall_s);
        let best = &mut best_latencies[k];
        if best.is_empty() {
            *best = run.report.admit_latencies_us;
        } else {
            for (b, l) in best.iter_mut().zip(&run.report.admit_latencies_us) {
                *b = b.min(*l);
            }
        }
        if replay + 1 == set.len() {
            rss_mb = peak_rss_mb();
        }
        for _ in 0..setups.due_after(replay) {
            setups.time(|| serve::setup(spec, args.seed));
        }
    }
    if spec.workers > 1
        && Some(serve::run_program(spec, &set[0], &set[0].plan, 1)?.identity()) != identities[0]
    {
        return Err("replay outcome differs between 1 and 2 replay workers".into());
    }
    let events: usize = set.iter().map(|i| i.trace.events.len()).sum();
    let latencies: Vec<f64> = best_latencies.concat();
    r.set(
        "throughput_per_s",
        events as f64 / best_wall.iter().sum::<f64>(),
    );
    r.set("latency_p50_us", tail(&latencies, 50.0)?);
    r.set("latency_tail_us", tail(&latencies, spec.tail_pct)?);
    r.set("platform_cost", cost);
    r.set("peak_rss_mb", rss_mb);
    r.set("setup_s", setups.median());
    r.line(format!(
        "{} traces x {passes} passes, fastest time per trace and per admission; closed loop, \
         1 caller, {} replay worker(s); {events} events, {} admissions (p{}: {} beyond)",
        set.len(),
        spec.workers,
        latencies.len(),
        spec.tail_pct,
        stats::beyond(latencies.len(), spec.tail_pct)
    ));
    r.line(format!(
        "failed_frac {:.6}: {} of {} arrivals never admitted, evicted, or below SLO \
         ({slo_misses} SLO misses per pass)",
        ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    ));
    r.line(format!(
        "platform.procs_peak {peak}  shards {}  residents_mean {:.2} per shard (offered){}",
        spec.shards,
        offered_residents(&inputs, spec.shards),
        if peak <= spec.shards {
            "  DEGENERATE: peak_procs <= shards"
        } else {
            ""
        }
    ));
    Ok(r)
}

/// Every layer the layer replays record spans for.
const LAYERS: &[&str] = &[
    "replay.event",
    "replay.request",
    "gen.instance",
    "heuristics.place",
    "heuristics.portfolio",
    "platform.admit",
    "platform.depart",
    "platform.fail",
    "platform.snapshot",
    "engine.slo",
    "search.refine",
    "solver.bb",
];

/// Per-round values of the traced run (one round replays one trace, or
/// one chunk of the request stream), and every call's duration.
#[derive(Default)]
struct Rounds {
    values: BTreeMap<String, Vec<f64>>,
    durations_us: BTreeMap<&'static str, Vec<f64>>,
}

impl Rounds {
    fn push(&mut self, name: &str, v: f64) {
        self.values.entry(name.to_string()).or_default().push(v);
    }

    /// Records one round's spans: busy seconds and calls per layer (0 for
    /// a layer not called), and the pooled call durations.
    fn add_spans(&mut self, rec: &Recorder) {
        let mut by_layer = layers(rec.spans());
        for &name in LAYERS {
            let l = by_layer.remove(name).unwrap_or_default();
            self.push(&format!("{name}.busy_s"), l.busy_s);
            self.push(&format!("{name}.self_s"), l.self_s);
            self.push(&format!("{name}.calls"), l.calls as f64);
            self.durations_us
                .entry(name)
                .or_default()
                .extend(l.durations_us);
        }
    }

    /// Median over rounds (0 when never pushed).
    fn median(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| median(v))
    }

    fn series(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// Nearest-rank percentile of a layer's pooled call durations (0
    /// when the layer was never called).
    fn pct_us(&self, layer: &str, p: f64) -> Result<f64, String> {
        match self.durations_us.get(layer) {
            Some(d) if !d.is_empty() => tail(d, p).map_err(|e| format!("{layer}: {e}")),
            _ => Ok(0.0),
        }
    }

    /// Whether each of `layers` was never called or has enough pooled
    /// calls for its `p`-th percentile.
    fn tails_ready(&self, layers: &[&str], p: f64) -> bool {
        layers.iter().all(|l| {
            self.durations_us
                .get(l)
                .is_none_or(|d| d.is_empty() || stats::beyond(d.len(), p) >= stats::MIN_BEYOND)
        })
    }

    /// Copies the round medians of `names` into the report.
    fn set_medians(&self, r: &mut Report, names: &[&'static str]) {
        for &name in names {
            r.set(name, self.median(name));
        }
    }

    /// Appends the per-layer table: busy and self time (busy minus
    /// the child spans; the replay loop's own time for `replay.*`), and
    /// each layer's share of the program's wall time per round.
    fn layer_table(&self, r: &mut Report, wall: f64) {
        r.line(format!(
            "{:<22} {:>9} {:>10} {:>10} {:>7}",
            "layer (per round)", "calls", "busy_s", "self_s", "share"
        ));
        for &name in LAYERS {
            let calls = self.median(&format!("{name}.calls"));
            if calls > 0.0 {
                let busy = self.median(&format!("{name}.busy_s"));
                let own = self.median(&format!("{name}.self_s"));
                r.line(format!(
                    "{name:<22} {calls:>9} {busy:>10.4} {own:>10.4} {:>6.1}%",
                    100.0 * ratio(busy, wall)
                ));
            }
        }
    }
}

/// Busy seconds of `names` summed over one round's spans.
fn loop_sum(rec: &Recorder, names: &[&str]) -> f64 {
    layers(rec.spans())
        .iter()
        .filter(|(n, _)| names.contains(n))
        .map(|(_, l)| l.busy_s)
        .sum()
}

fn spans_path(workload: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    std::path::Path::new(&dir).join(format!("perfbench-spans-{workload}.tsv"))
}

/// Starts a per-layer report with every metric at 0, for the layers a
/// workload never runs.
fn layer_report() -> Report {
    let mut r = Report::default();
    for (name, _) in PER_LAYER {
        r.set(name, 0.0);
    }
    r
}

fn serve_traced(spec: &serve::ServeSpec, args: &Args) -> Result<Report, String> {
    let (inputs, gen_trace_s) = traced_setup(|| serve::setup(spec, args.seed), |i| i.trace_s);
    let set = &inputs.traces;
    serve::run_program(spec, &set[0], &set[0].plan, spec.workers)?; // warm-up
    let mut rounds = Rounds::default();
    let (mut untraced, mut empty, mut program_wall, mut loop_sums) =
        (vec![], vec![], vec![], vec![]);
    let mut r = layer_report();
    let mut last_rec = Recorder::default();
    let mut peak = 0;
    let t0 = Instant::now();
    let mut k = 0;
    // Rounds stop before one would end past `--seconds`, once the p99
    // layers have ten samples beyond their tail.
    let mut round_s = 0.0;
    while k == 0
        || !rounds.tails_ready(&["platform.admit", "platform.depart"], 99.0)
        || t0.elapsed().as_secs_f64() + round_s < args.seconds
    {
        let round_t0 = Instant::now();
        let input = &set[k % set.len()];
        let a = serve::run_program(spec, input, &input.plan, spec.workers)?;
        let (b, snap) =
            snsp_telemetry::capture(|| serve::run_program(spec, input, &input.plan, spec.workers));
        let b = b?;
        if a.identity() != b.identity() {
            return Err("replay outcome differs with telemetry on".into());
        }
        // The layer replay re-enacts the empty-plan replay, so that is the
        // program it must match and the wall time its layers explain.
        let reference = if spec.faults {
            let c = serve::run_program(spec, input, &input.empty, spec.workers)?;
            let d = serve::run_program(spec, input, &input.empty, 1)?;
            if c.identity() != d.identity() {
                return Err("empty-plan replay differs between 1 and 2 replay workers".into());
            }
            if k == 0 && serve::run_program(spec, input, &input.plan, 1)?.identity() != a.identity()
            {
                return Err("replay outcome differs between 1 and 2 replay workers".into());
            }
            empty.push(c.wall_s);
            Some(d)
        } else {
            None
        };
        let reference = reference.as_ref().unwrap_or(&a);
        let mut rec = Recorder::default();
        let replayed = serve::replay_layers(spec, input, &mut rec);
        serve::check_replay(&replayed, &reference.report)?;
        program_wall.push(reference.wall_s);
        loop_sums.push(loop_sum(&rec, SERVE_LOOP_LAYERS));
        untraced.push(a.wall_s);
        rounds.push("telemetry.overhead_frac", b.wall_s / a.wall_s - 1.0);
        rounds.add_spans(&rec);
        last_rec = rec;

        let busy_ms = snap
            .spans
            .iter()
            .find(|s| s.name == "pool.worker.busy")
            .map_or(0.0, |s| s.total_ms);
        rounds.push(
            "pool.busy_frac",
            ratio(busy_ms / 1e3, spec.workers as f64 * b.wall_s),
        );
        let counter = |name| snap.counter(name).unwrap_or(0) as f64;
        rounds.push("pool.steals", counter("pool.steals"));
        rounds.push(
            "platform.admit.pack_pruned",
            counter("serve.admit.pack_pruned"),
        );
        rounds.push(
            "platform.depart.evac_pruned",
            counter("serve.consolidation.evac_pruned"),
        );
        rounds.push("platform.procs_peak", a.report.peak_procs as f64);
        peak = peak.max(a.report.peak_procs);
        if let Some(stats) = &a.chaos {
            rounds.push("fault.recovery_replayed", stats.recovery_replayed as f64);
            rounds.push("fault.msgs_retransmitted", stats.msgs_retransmitted as f64);
            rounds.push("fault.readmit_frac", a.readmit_frac);
        }
        rounds.push(
            "heuristics.feasible_frac",
            ratio(replayed.place_ok as f64, replayed.place_calls as f64),
        );
        rounds.push(
            "platform.admit.reuse_frac",
            ratio(
                replayed.reused_procs as f64,
                (replayed.new_procs + replayed.reused_procs) as f64,
            ),
        );
        rounds.push("platform.fail.remapped", replayed.fail_remapped as f64);
        rounds.push("platform.fail.evicted", replayed.evicted as f64);
        rounds.push("platform.residents_mean", replayed.residents_mean);
        if spec.shards > 1 {
            let total: usize = replayed.shard_events.iter().sum();
            let max = replayed.shard_events.iter().copied().max().unwrap_or(0);
            rounds.push("shard.ticks", replayed.ticks as f64);
            rounds.push(
                "shard.batch_events_mean",
                ratio(total as f64, replayed.nonempty_batches as f64),
            );
            rounds.push(
                "shard.skew",
                ratio(max as f64, total as f64 / spec.shards as f64),
            );
        }
        r.attempted += a.report.arrivals as u64;
        r.failed += a.failed() as u64;
        k += 1;
        round_s = round_t0.elapsed().as_secs_f64();
    }
    last_rec
        .write_tsv(&spans_path(&args.workload))
        .map_err(|e| format!("writing spans: {e}"))?;

    r.set("gen.trace_s", gen_trace_s);
    rounds.set_medians(
        &mut r,
        &[
            "gen.instance.busy_s",
            "gen.instance.calls",
            "heuristics.place.busy_s",
            "heuristics.feasible_frac",
            "platform.admit.busy_s",
            "platform.admit.calls",
            "platform.admit.reuse_frac",
            "platform.admit.pack_pruned",
            "platform.depart.busy_s",
            "platform.depart.calls",
            "platform.depart.evac_pruned",
            "platform.fail.busy_s",
            "platform.fail.calls",
            "platform.fail.remapped",
            "platform.fail.evicted",
            "platform.residents_mean",
            "platform.procs_peak",
            "shard.ticks",
            "shard.batch_events_mean",
            "shard.skew",
            "pool.busy_frac",
            "pool.steals",
            "fault.recovery_replayed",
            "fault.msgs_retransmitted",
            "fault.readmit_frac",
            "engine.slo.busy_s",
            "engine.slo.calls",
            "telemetry.overhead_frac",
        ],
    );
    r.set(
        "heuristics.place.p50_us",
        rounds.pct_us("heuristics.place", 50.0)?,
    );
    r.set(
        "platform.admit.p50_us",
        rounds.pct_us("platform.admit", 50.0)?,
    );
    r.set(
        "platform.admit.p99_us",
        rounds.pct_us("platform.admit", 99.0)?,
    );
    r.set(
        "platform.depart.p50_us",
        rounds.pct_us("platform.depart", 50.0)?,
    );
    r.set(
        "platform.depart.p99_us",
        rounds.pct_us("platform.depart", 99.0)?,
    );
    r.set("engine.slo.p50_us", rounds.pct_us("engine.slo", 50.0)?);
    r.set("platform.degenerate", (peak <= spec.shards) as u8 as f64);
    r.set("shard.count", spec.shards as f64);
    r.set("loop.self_s", paired_difference(&program_wall, &loop_sums));
    if spec.faults {
        r.set("fault.overhead_s", paired_difference(&untraced, &empty));
    }
    r.line(format!(
        "rounds {k} (one trace each)  program wall {:.3} s per trace (median, untraced)  \
         layer replay matched every round",
        median(&untraced)
    ));
    r.line(format!(
        "platform.procs_peak {peak}  shards {}  platform.residents_mean {:.2}{}",
        spec.shards,
        rounds.median("platform.residents_mean"),
        if peak <= spec.shards {
            "  DEGENERATE: peak_procs <= shards"
        } else {
            ""
        }
    ));
    rounds.layer_table(&mut r, median(&program_wall));
    Ok(r)
}

fn provision_timed(args: &Args) -> Result<Report, String> {
    let passes = timed_passes(provision::PASSES_PER_S, args.seconds);
    let mut setups = Setups::new(provision::STREAM, passes);
    let inputs = setups.time(|| provision::setup(args.seed));
    let reqs = &inputs.requests;
    let n = reqs.len();
    let mut answers: Vec<provision::Answer> = Vec::with_capacity(n);
    let mut best_us = vec![f64::INFINITY; n];
    let mut rss_mb = 0.0;
    let mut r = Report::default();
    // Every request is answered `passes` times, round-robin, on
    // alternate cores, and its fastest answer counts.
    for solve in 0..passes * n {
        let i = solve % n;
        if i == 0 {
            rotate_cpu(solve / n);
        }
        let req = &reqs[i];
        let t0 = Instant::now();
        let solved = provision::solve(req);
        let dt = t0.elapsed().as_secs_f64();
        let ans = provision::check(req, &solved)?;
        match answers.get(i) {
            Some(want) if *want != ans => {
                return Err(format!("request {i} answered differently on a repeat"));
            }
            Some(_) => {}
            None => answers.push(ans),
        }
        r.attempted += 1;
        r.failed += answers[i].cost.is_none() as u64;
        best_us[i] = best_us[i].min(dt * 1e6);
        if solve + 1 == n {
            rss_mb = peak_rss_mb();
        }
        for _ in 0..setups.due_after(solve) {
            setups.time(|| provision::setup(args.seed));
        }
    }
    let cost: u64 = answers.iter().filter_map(|a| a.cost).sum();
    r.set(
        "throughput_per_s",
        n as f64 / (best_us.iter().sum::<f64>() / 1e6),
    );
    r.set("latency_p50_us", tail(&best_us, 50.0)?);
    r.set("latency_tail_us", tail(&best_us, 95.0)?);
    r.set("platform_cost", cost as f64);
    r.set("peak_rss_mb", rss_mb);
    r.set("setup_s", setups.median());
    let certified = answers
        .iter()
        .filter(|a| matches!(a.exact, Some((_, Some(_)))))
        .count();
    r.line(format!(
        "{n} requests ({} large) x {passes} passes, fastest answer per request; closed loop, \
         1 caller, 1 thread (p95: {} beyond)",
        n / 4,
        stats::beyond(n, 95.0)
    ));
    let mut infeasible: BTreeMap<usize, usize> = BTreeMap::new();
    for (req, ans) in reqs.iter().zip(&answers) {
        if ans.cost.is_none() {
            *infeasible.entry(req.inst.tree.len()).or_default() += 1;
        }
    }
    r.line(format!(
        "failed_frac {:.6}: {} of {} answers infeasible (requests by N: {infeasible:?}); \
         B&B certified {certified} answers",
        ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    ));
    Ok(r)
}

/// Answers `reqs` once: the summed solve time and the checked answers.
fn provision_pass(reqs: &[provision::Request]) -> Result<(f64, Vec<provision::Answer>), String> {
    let mut wall = 0.0;
    let mut answers = Vec::with_capacity(reqs.len());
    for req in reqs {
        let t0 = Instant::now();
        let solved = provision::solve(req);
        wall += t0.elapsed().as_secs_f64();
        answers.push(provision::check(req, &solved)?);
    }
    Ok((wall, answers))
}

fn provision_traced(args: &Args) -> Result<Report, String> {
    let (inputs, gen_instance_s) = traced_setup(|| provision::setup(args.seed), |i| i.instance_s);
    let chunks: Vec<&[provision::Request]> = inputs.requests.chunks(provision::CHUNK).collect();
    provision_pass(chunks[0])?; // warm-up
    let mut rounds = Rounds::default();
    let (mut untraced, mut loop_sums) = (vec![], vec![]);
    let mut r = layer_report();
    let mut last_rec = Recorder::default();
    let mut tallies = provision::Replayed::default();
    let t0 = Instant::now();
    let mut k = 0;
    // Rounds stop before one would end past `--seconds` (at least one).
    let mut round_s = 0.0;
    while k == 0 || t0.elapsed().as_secs_f64() + round_s < args.seconds {
        let round_t0 = Instant::now();
        let chunk = chunks[k % chunks.len()];
        let (wall_a, a) = provision_pass(chunk)?;
        let (b, _) = snsp_telemetry::capture(|| provision_pass(chunk));
        let (wall_b, b) = b?;
        if a != b {
            return Err("provisioning answers differ with telemetry on".into());
        }
        let mut rec = Recorder::default();
        let mut d = provision::Replayed::default();
        let replayed = provision::replay_layers(chunk, &mut rec, &mut d);
        for (i, (req, solved)) in chunk.iter().zip(&replayed).enumerate() {
            if provision::check(req, solved)? != a[i] {
                return Err(format!(
                    "layer replay diverged from the program on request {}",
                    k % chunks.len() * provision::CHUNK + i
                ));
            }
        }
        untraced.push(wall_a);
        loop_sums.push(loop_sum(&rec, PROVISION_LOOP_LAYERS));
        rounds.push("telemetry.overhead_frac", wall_b / wall_a - 1.0);
        rounds.add_spans(&rec);
        let bb_busy = rounds
            .series("solver.bb.busy_s")
            .last()
            .copied()
            .unwrap_or(0.0);
        rounds.push("solver.bb.nodes", d.bb_nodes as f64);
        rounds.push("solver.bb.nodes_per_s", ratio(d.bb_nodes as f64, bb_busy));
        tallies.add(&d);
        last_rec = rec;
        r.attempted += chunk.len() as u64;
        r.failed += a.iter().filter(|x| x.cost.is_none()).count() as u64;
        k += 1;
        round_s = round_t0.elapsed().as_secs_f64();
    }
    last_rec
        .write_tsv(&spans_path(&args.workload))
        .map_err(|e| format!("writing spans: {e}"))?;
    r.set("gen.trace_s", inputs.trace_s);
    r.set("gen.instance.busy_s", gen_instance_s);
    r.set("gen.instance.calls", inputs.requests.len() as f64);
    rounds.set_medians(
        &mut r,
        &[
            "heuristics.portfolio.busy_s",
            "search.refine.busy_s",
            "solver.bb.busy_s",
            "solver.bb.nodes",
            "solver.bb.nodes_per_s",
            "telemetry.overhead_frac",
        ],
    );
    r.set(
        "heuristics.feasible_frac",
        ratio(tallies.heuristic_ok as f64, tallies.heuristic_calls as f64),
    );
    r.set("loop.self_s", paired_difference(&untraced, &loop_sums));
    r.set(
        "search.refine.p50_ms",
        rounds.pct_us("search.refine", 50.0)? / 1e3,
    );
    r.set(
        "search.accept_frac",
        ratio(tallies.accepted as f64, tallies.evals as f64),
    );
    r.set(
        "search.verify_reject_frac",
        ratio(
            tallies.verify_rejected as f64,
            (tallies.accepted + tallies.verify_rejected) as f64,
        ),
    );
    r.set(
        "solver.bb.certified_frac",
        ratio(tallies.bb_certified as f64, tallies.bb_calls as f64),
    );
    r.line(format!(
        "rounds {k} (one {}-request chunk each)  program {:.3} s per chunk (median, untraced)  \
         layer replay matched every answer",
        provision::CHUNK,
        median(&untraced)
    ));
    rounds.layer_table(&mut r, median(&untraced));
    Ok(r)
}

fn run(args: &Args) -> Result<Report, String> {
    match (args.workload.as_str(), args.trace) {
        ("provision", false) => provision_timed(args),
        ("provision", true) => provision_traced(args),
        (w, trace) => {
            let spec = serve::spec(w).ok_or_else(|| format!("unknown workload {w:?}"))?;
            if trace {
                serve_traced(&spec, args)
            } else {
                serve_timed(&spec, args)
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let t0 = Instant::now();
    match run(&args) {
        Ok(report) => {
            println!(
                "workload {}  seed {}  seconds {}  trace {}  (ran {:.1} s)",
                args.workload,
                args.seed,
                args.seconds,
                args.trace as u8,
                t0.elapsed().as_secs_f64()
            );
            for line in &report.lines {
                println!("  {line}");
            }
            let schema = if args.trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in schema {
                let alias = workload_name(&args.workload, name)
                    .map_or(String::new(), |a| format!("  ({a})"));
                println!("  {name} = {} {unit}{alias}", report.values[name]);
            }
            println!("{}", report.json(schema));
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &snsp_sweep::Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("array in BENCHMARK.json")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = snsp_sweep::json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn set_ups_are_spread_over_the_passes_after_the_first() {
        for (per_pass, passes) in [(1, 2), (6, 12), (1, 10), (224, 9)] {
            let mut setups = Setups::new(per_pass, passes);
            setups.time(|| ());
            let mut due = Vec::new();
            for j in 0..per_pass * passes {
                let d = setups.due_after(j);
                (0..d).for_each(|_| setups.time(|| ()));
                due.push(d);
            }
            assert!(due[..per_pass].iter().all(|&d| d == 0));
            assert_eq!(due.iter().sum::<usize>(), SETUP_REPS);
            assert!(due[per_pass..]
                .iter()
                .all(|&d| d <= SETUP_REPS.div_ceil(per_pass * (passes - 1))));
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let ok = parse_args(&args("--workload packing --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("packing", 7, 2.5, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload packing --seed -1 --seconds 1 --trace 0",
            "--workload packing --seed 1 --seconds 0 --trace 0",
            "--workload packing --seed 1 --seconds 1 --trace 2",
            "--workload packing --seed 1 --seconds 1",
            "--workload packing --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn the_result_line_carries_every_schema_metric_in_order() {
        let mut r = Report {
            attempted: 3,
            failed: 1,
            ..Default::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, i as f64 + 0.5);
        }
        let line = r.json(END_TO_END);
        let doc = snsp_sweep::json::parse(&line).expect("one JSON object");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("failed").and_then(|v| v.as_int()), Some(1));
        let metrics = doc.get("metrics").expect("metrics");
        let setup = metrics.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("value").and_then(|v| v.as_num()), Some(5.5));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
        assert!(!line.contains('\n'));
    }
}
