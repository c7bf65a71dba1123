//! The two serve workloads (`packing`, `fanout`): the timed
//! program replays, their correctness gates, and the layer replay that
//! re-enacts a replay through `LivePlatform`'s per-call API.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use snsp_core::object::ObjectCatalog;
use snsp_core::platform::Platform;
use snsp_engine::meets_slo;
use snsp_gen::{
    generate_trace, tenant_instance, trace_environment, Trace, TraceEvent, TraceParams,
};
use snsp_serve::{
    audit_platform, replay_trace_chaos, run_trace, shard_of, ChaosStats, FaultPlan, FaultSpec,
    LivePlatform, RetryPolicy, ServeConfig, ShardOptions, TraceReport,
};
use snsp_sweep::PIPELINE_SEED_STRIDE;

use crate::stats::Recorder;

/// One serve workload's shape.
pub struct ServeSpec {
    pub params: TraceParams,
    pub shards: usize,
    /// Replay workers of the timed run (never more than the 2 cores).
    pub workers: usize,
    /// Engine spot check every n-th admission per shard (0: final only).
    pub spot_admissions: usize,
    /// Whether the replay runs under a seeded fault plan.
    pub faults: bool,
    /// Distinct traces per input set. One trace's cost per event depends
    /// heavily on its content (tenant sizes, holding-time tail), so a run
    /// replays many to keep seed-to-seed spread small.
    pub traces: usize,
    /// Timed passes over the trace set per measured second, calibrated
    /// on the baseline.
    pub passes_per_s: f64,
    /// Percentile `latency_tail_us` reports: p99 where admissions are
    /// plentiful; p95 on `packing`, whose p99 rests on a few dozen
    /// large admissions and swings with the host.
    pub tail_pct: f64,
    /// Trace seeds below [`SLO_PINNED_BELOW`] on which the engine finds
    /// one admitted tenant below its SLO today; `None`: no miss is
    /// allowed on any trace.
    pub known_slo_misses: Option<&'static [u64]>,
}

/// The trace seeds [`PACKING_SLO_MISSES`] covers, 0–1999: every trace
/// of `--seed` 0–332.
pub const SLO_PINNED_BELOW: u64 = 2000;

/// The `packing` traces (sorted) whose final validation finds one
/// admitted tenant below 0.95 ρ in the engine. This is a known defect:
/// the analytic admission accepts a tenant the engine then measures
/// below the bar. It is pinned so that it shows and any new miss fails.
/// No trace below [`SLO_PINNED_BELOW`] misses more than once.
const PACKING_SLO_MISSES: &[u64] = &[
    35, 42, 43, 48, 52, 53, 67, 78, 149, 159, 169, 185, 244, 251, 266, 269, 349, 450, 473, 475,
    502, 536, 628, 638, 721, 727, 862, 864, 871, 884, 888, 899, 920, 932, 948, 963, 965, 980, 1002,
    1109, 1176, 1187, 1213, 1225, 1227, 1280, 1296, 1302, 1303, 1313, 1326, 1329, 1391, 1411, 1421,
    1441, 1455, 1471, 1475, 1488, 1493, 1531, 1542, 1549, 1558, 1586, 1651, 1692, 1706, 1722, 1731,
    1740, 1756, 1799, 1806, 1809, 1824, 1836, 1958, 1963, 1988,
];

pub fn spec(workload: &str) -> Option<ServeSpec> {
    Some(match workload {
        // Large tenants (16–30 ops, ρ 10–20) need many processors:
        // first-fit over many slots and departure consolidation.
        "packing" => ServeSpec {
            params: TraceParams::heavy(40.0, 0.5, 14.0)
                .with_tenant_ops(16, 30)
                .with_tenant_rho(10.0, 20.0),
            shards: 1,
            workers: 1,
            spot_admissions: 0,
            faults: false,
            traces: 6,
            passes_per_s: 0.33,
            tail_pct: 95.0,
            known_slo_misses: Some(PACKING_SLO_MISSES),
        },
        // 16 shards of ~16 residents each under a fault plan: tick
        // barriers, the fold, the pool, checkpoint/restore, spot checks.
        // Trace failures make the global failure lottery run as well.
        "fanout" => ServeSpec {
            params: TraceParams::heavy(1000.0, 0.25, 50.0).with_failures(0.2),
            shards: 16,
            workers: 2,
            spot_admissions: 25,
            faults: true,
            traces: 1,
            passes_per_s: 0.29,
            tail_pct: 99.0,
            known_slo_misses: None,
        },
        _ => return None,
    })
}

impl ServeSpec {
    /// The gate on the engine's SLO misses in one trace: none, except
    /// the pinned one on a `packing` trace known to miss. A `packing`
    /// trace outside the pinned range may miss once, the most any pinned
    /// trace does. A fix lowers the count and passes; a new miss fails.
    pub fn slo_misses_allowed(&self, trace_seed: u64) -> usize {
        match self.known_slo_misses {
            None => 0,
            Some(_) if trace_seed >= SLO_PINNED_BELOW => 1,
            Some(known) => known.binary_search(&trace_seed).is_ok() as usize,
        }
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            spot_admissions: self.spot_admissions,
            ..Default::default()
        }
    }

    fn fault_plan(&self, seed: u64) -> FaultPlan {
        let spec = if self.faults {
            FaultSpec::seeded(seed)
                .with_crashes(0.2)
                .with_racks(0.05, 3)
                .with_msg_faults(0.1, 0.05, 0.05)
                .with_retry(RetryPolicy::standard())
                .with_ticks(1.0)
        } else {
            FaultSpec::default()
        };
        FaultPlan::instantiate(&spec, self.params.horizon)
    }
}

/// One trace of a workload's input set, with its environment and plans.
pub struct Input {
    pub trace: Trace,
    pub plan: FaultPlan,
    /// The all-off plan: identical to the plain sharded replay.
    pub empty: FaultPlan,
    pub objects: ObjectCatalog,
    pub platform: Platform,
}

/// Everything a serve workload replays, generated from the seed before
/// any timing starts: trace `k` uses seed `seed · traces + k`.
pub struct Inputs {
    pub traces: Vec<Input>,
    /// Seconds spent generating the traces alone.
    pub trace_s: f64,
}

pub fn setup(spec: &ServeSpec, seed: u64) -> Inputs {
    let mut trace_s = 0.0;
    let traces = (0..spec.traces as u64)
        .map(|k| {
            let sub = seed.wrapping_mul(spec.traces as u64).wrapping_add(k);
            let t0 = Instant::now();
            let trace = generate_trace(&spec.params, sub);
            trace_s += t0.elapsed().as_secs_f64();
            let (objects, platform) = trace_environment(&trace.params, trace.seed);
            Input {
                plan: spec.fault_plan(sub),
                empty: FaultPlan::instantiate(&FaultSpec::default(), spec.params.horizon),
                trace,
                objects,
                platform,
            }
        })
        .collect();
    Inputs { traces, trace_s }
}

/// One timed replay of the program.
pub struct Run {
    pub wall_s: f64,
    pub report: TraceReport,
    /// Final-platform fingerprint (sharded replays; 0 otherwise).
    pub fingerprint: u64,
    pub chaos: Option<ChaosStats>,
    pub readmit_frac: f64,
}

impl Run {
    /// The deterministic outcome: equal across repeats and worker counts.
    pub fn identity(&self) -> (usize, usize, usize, usize, u64, u64, u64, usize) {
        let r = &self.report;
        (
            r.admitted,
            r.rejected,
            r.departed,
            r.evicted,
            r.cost_time_integral.to_bits(),
            r.log_hash(),
            self.fingerprint,
            r.peak_procs,
        )
    }

    /// Failed operations: arrivals never admitted, tenants evicted, and
    /// engine checks that found an admitted tenant below its SLO.
    pub fn failed(&self) -> usize {
        self.report.rejected + self.report.evicted + self.report.slo_violations
    }
}

/// Replays the trace once through the program's own entry point and
/// checks the workload's invariants.
pub fn run_program(
    spec: &ServeSpec,
    input: &Input,
    plan: &FaultPlan,
    workers: usize,
) -> Result<Run, String> {
    let config = spec.config();
    let t0 = Instant::now();
    let run = if spec.shards == 1 && !spec.faults {
        let report = run_trace(&input.trace, &config);
        Run {
            wall_s: t0.elapsed().as_secs_f64(),
            report,
            fingerprint: 0,
            chaos: None,
            readmit_frac: 0.0,
        }
    } else {
        let opts = ShardOptions {
            shards: spec.shards,
            workers,
        };
        let (chaos, sharded) = replay_trace_chaos(&input.trace, &config, &opts, plan);
        let wall_s = t0.elapsed().as_secs_f64();
        if chaos.stats.audit_failures != 0 {
            return Err(format!(
                "{} audit failures, first: {:?}",
                chaos.stats.audit_failures, chaos.stats.audit_first
            ));
        }
        audit_platform(&sharded).map_err(|e| format!("final audit_platform: {e}"))?;
        Run {
            wall_s,
            readmit_frac: chaos.readmission_rate(),
            fingerprint: chaos.fingerprint,
            chaos: Some(chaos.stats),
            report: chaos.base,
        }
    };
    let r = &run.report;
    if r.arrivals != input.trace.arrivals() {
        return Err(format!(
            "{} arrivals reported, trace has {}",
            r.arrivals,
            input.trace.arrivals()
        ));
    }
    if r.admitted + r.rejected != r.arrivals {
        return Err(format!(
            "admitted {} + rejected {} != arrivals {}",
            r.admitted, r.rejected, r.arrivals
        ));
    }
    let allowed = spec.slo_misses_allowed(input.trace.seed);
    if r.slo_violations > allowed {
        return Err(format!(
            "trace seed {}: {} engine SLO misses, {allowed} allowed",
            input.trace.seed, r.slo_violations
        ));
    }
    Ok(run)
}

/// What the layer replay observed; the counts and the cost integral must
/// equal the program's.
#[derive(Default)]
pub struct Replayed {
    pub admitted: usize,
    pub rejected: usize,
    pub departed: usize,
    pub evicted: usize,
    pub cost_integral: f64,
    pub slo_checks: usize,
    pub slo_violations: usize,
    pub place_calls: usize,
    pub place_ok: usize,
    pub new_procs: usize,
    pub reused_procs: usize,
    pub fail_remapped: usize,
    pub peak_procs: usize,
    /// `∫ residents dt / horizon / shards`.
    pub residents_mean: f64,
    /// Non-empty barrier flushes (sharded replays only).
    pub ticks: usize,
    pub nonempty_batches: usize,
    pub shard_events: Vec<usize>,
}

/// One shard's message to the fold: the post-event state of its shard.
struct Msg {
    time: f64,
    shard: usize,
    seq: u32,
    cost: u64,
    procs: usize,
    residents: usize,
}

/// Piecewise-constant integration of cost and residents, in the same
/// floating-point order as the program's accounting.
struct Fold {
    last_t: f64,
    cost: Vec<u64>,
    procs: Vec<usize>,
    residents: Vec<usize>,
    cost_integral: f64,
    residents_integral: f64,
    peak_procs: usize,
}

impl Fold {
    fn new(shards: usize) -> Self {
        Fold {
            last_t: 0.0,
            cost: vec![0; shards],
            procs: vec![0; shards],
            residents: vec![0; shards],
            cost_integral: 0.0,
            residents_integral: 0.0,
            peak_procs: 0,
        }
    }

    fn advance(&mut self, to: f64) {
        let dt = to - self.last_t;
        let cost: u64 = self.cost.iter().sum();
        let residents: usize = self.residents.iter().sum();
        self.cost_integral += cost as f64 * dt;
        self.residents_integral += residents as f64 * dt;
        self.last_t = to;
    }

    fn apply(&mut self, m: &Msg) {
        self.advance(m.time);
        self.cost[m.shard] = m.cost;
        self.procs[m.shard] = m.procs;
        self.residents[m.shard] = m.residents;
        self.peak_procs = self.peak_procs.max(self.procs.iter().sum());
    }
}

struct Replayer<'a> {
    spec: &'a ServeSpec,
    config: ServeConfig,
    seed: u64,
    rec: &'a mut Recorder,
    out: Replayed,
}

fn msg(live: &LivePlatform, time: f64, shard: usize, seq: &mut u32) -> Msg {
    let m = Msg {
        time,
        shard,
        seq: *seq,
        cost: live.cost(),
        procs: live.proc_count(),
        residents: live.tenant_count(),
    };
    *seq += 1;
    m
}

impl Replayer<'_> {
    /// Engine-validates every resident of `live`, as the program's
    /// spot and final checks do.
    fn validate(&mut self, live: &LivePlatform) {
        let Some((multi, sol)) = self.rec.leaf("platform.snapshot", || live.snapshot()) else {
            return;
        };
        for k in 0..live.tenant_count() {
            let (frac, sim) = (self.config.slo_frac, &self.config.sim);
            let ok = self.rec.leaf("engine.slo", || {
                let mapping = sol.mapping_for(&multi, k);
                meets_slo(&multi.apps[k], &mapping, frac, sim).is_ok()
            });
            self.out.slo_checks += 1;
            if !ok {
                self.out.slo_violations += 1;
            }
        }
    }

    /// Arrival: instance, shadow placement, admission. Returns whether
    /// the tenant was admitted.
    fn arrive(
        &mut self,
        live: &mut LivePlatform,
        tenant: snsp_core::ids::TenantId,
        spec: &snsp_gen::TenantSpec,
    ) -> bool {
        let inst = self.rec.leaf("gen.instance", || {
            tenant_instance(live.objects(), live.platform(), spec)
        });
        let seed = self.seed ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
        let (heuristic, opts) = (self.config.heuristic.as_ref(), &self.config.opts);
        let placed = self.rec.leaf("heuristics.place", || {
            let mut rng = StdRng::seed_from_u64(seed);
            heuristic.place(&inst, &mut rng, &opts.placement).is_ok()
        });
        self.out.place_calls += 1;
        self.out.place_ok += placed as usize;
        let outcome = self.rec.leaf("platform.admit", || {
            live.admit(tenant, inst, heuristic, seed, opts)
        });
        match outcome {
            Ok(o) => {
                self.out.admitted += 1;
                self.out.new_procs += o.new_procs;
                self.out.reused_procs += o.reused_procs;
                true
            }
            Err(_) => {
                self.out.rejected += 1;
                false
            }
        }
    }

    fn depart(&mut self, live: &mut LivePlatform, tenant: snsp_core::ids::TenantId) -> bool {
        let mut budget = snsp_search::Budget::new(self.config.refine_evals);
        let gone = self.rec.leaf("platform.depart", || {
            live.depart_budgeted(tenant, &mut budget)
        });
        self.out.departed += gone as usize;
        gone
    }

    /// Kills live slot `victim` of `live`; returns the evicted count.
    fn fail(&mut self, live: &mut LivePlatform, victim: usize) -> usize {
        let out = self.rec.leaf("platform.fail", || live.fail_slot(victim));
        self.out.fail_remapped += out.remapped.len();
        self.out.evicted += out.evicted.len();
        out.evicted.len()
    }

    /// The unsharded program (`run_trace`): integrate before every event.
    fn replay_unsharded(&mut self, inputs: &Input) {
        let mut live = LivePlatform::new(inputs.objects.clone(), inputs.platform.clone());
        let (mut last_t, mut cost_int, mut res_int) = (0.0f64, 0.0f64, 0.0f64);
        for ev in &inputs.trace.events {
            let span = self.rec.enter("replay.event");
            cost_int += live.cost() as f64 * (ev.time - last_t);
            res_int += live.tenant_count() as f64 * (ev.time - last_t);
            last_t = ev.time;
            match ev.event {
                TraceEvent::Arrive { tenant, spec, .. } => {
                    self.arrive(&mut live, tenant, &spec);
                }
                TraceEvent::Depart { tenant } => {
                    self.depart(&mut live, tenant);
                }
                TraceEvent::ProcessorFail { lottery } => {
                    let slots = live.live_slots();
                    if !slots.is_empty() {
                        self.fail(&mut live, slots[(lottery % slots.len() as u64) as usize]);
                    }
                }
            }
            self.out.peak_procs = self.out.peak_procs.max(live.proc_count());
            self.rec.exit(span);
        }
        let horizon = inputs.trace.params.horizon;
        cost_int += live.cost() as f64 * (horizon - last_t);
        res_int += live.tenant_count() as f64 * (horizon - last_t);
        if self.config.final_validation {
            self.validate(&live);
        }
        self.out.cost_integral = cost_int;
        self.out.residents_mean = res_int / horizon;
    }

    /// Replays one shard's batch contiguously, emitting its messages.
    fn replay_batch(
        &mut self,
        s: usize,
        live: &mut LivePlatform,
        batch: &[snsp_gen::TimedEvent],
        admitted: &mut usize,
        msgs: &mut Vec<Msg>,
    ) {
        let mut seq = 0u32;
        for ev in batch {
            let span = self.rec.enter("replay.event");
            match ev.event {
                TraceEvent::Arrive { tenant, spec, .. } => {
                    let ok = self.arrive(live, tenant, &spec);
                    msgs.push(msg(live, ev.time, s, &mut seq));
                    if ok {
                        *admitted += 1;
                        let spot = self.spec.spot_admissions;
                        if spot > 0 && (*admitted).is_multiple_of(spot) {
                            self.validate(live);
                            msgs.push(msg(live, ev.time, s, &mut seq));
                        }
                    }
                }
                TraceEvent::Depart { tenant } => {
                    if self.depart(live, tenant) {
                        msgs.push(msg(live, ev.time, s, &mut seq));
                    }
                }
                TraceEvent::ProcessorFail { .. } => unreachable!("failures are barrier events"),
            }
            self.rec.exit(span);
        }
    }

    /// A tick barrier: replays every pending shard batch, then folds the
    /// tick's messages in canonical order.
    fn flush(
        &mut self,
        shards: &mut [LivePlatform],
        batches: &mut [Vec<snsp_gen::TimedEvent>],
        admitted: &mut [usize],
        fold: &mut Fold,
    ) {
        if batches.iter().all(Vec::is_empty) {
            return;
        }
        self.out.ticks += 1;
        let mut msgs = Vec::new();
        for s in 0..shards.len() {
            if batches[s].is_empty() {
                continue;
            }
            self.out.nonempty_batches += 1;
            self.out.shard_events[s] += batches[s].len();
            let batch = std::mem::take(&mut batches[s]);
            self.replay_batch(s, &mut shards[s], &batch, &mut admitted[s], &mut msgs);
        }
        msgs.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.shard.cmp(&b.shard))
                .then(a.seq.cmp(&b.seq))
        });
        for m in &msgs {
            fold.apply(m);
        }
    }

    /// The sharded program under the empty plan: per-shard batches
    /// replayed contiguously between barriers, messages folded in
    /// `(time, shard, seq)` order, failure lotteries drawn over every
    /// shard's live slots. Barriers sit at the fault plan's event times
    /// as well, so ticks and batch sizes match the faulted replay; that
    /// cannot change the outcome (shards share no state between
    /// barriers).
    fn replay_sharded(&mut self, inputs: &Input) {
        let n = self.spec.shards;
        let mut view = inputs.platform.clone();
        for server in &mut view.servers {
            server.nic_bandwidth /= n as f64;
        }
        let mut shards: Vec<LivePlatform> = (0..n)
            .map(|_| LivePlatform::new(inputs.objects.clone(), view.clone()))
            .collect();
        let mut admitted = vec![0usize; n];
        let mut batches: Vec<Vec<snsp_gen::TimedEvent>> = vec![Vec::new(); n];
        let mut fold = Fold::new(n);
        self.out.shard_events = vec![0; n];

        let mut f = 0usize;
        let barriers = &inputs.plan.events;
        for ev in &inputs.trace.events {
            while f < barriers.len() && barriers[f].time <= ev.time {
                self.flush(&mut shards, &mut batches, &mut admitted, &mut fold);
                f += 1;
            }
            match ev.event {
                TraceEvent::Arrive { tenant, .. } | TraceEvent::Depart { tenant } => {
                    batches[shard_of(tenant, n)].push(*ev);
                }
                TraceEvent::ProcessorFail { lottery } => {
                    self.flush(&mut shards, &mut batches, &mut admitted, &mut fold);
                    let span = self.rec.enter("replay.event");
                    let total: usize = shards.iter().map(LivePlatform::proc_count).sum();
                    if total > 0 {
                        let mut idx = (lottery % total as u64) as usize;
                        let s = shards
                            .iter()
                            .position(|live| {
                                let hit = idx < live.proc_count();
                                if !hit {
                                    idx -= live.proc_count();
                                }
                                hit
                            })
                            .expect("lottery index within the live total");
                        let victim = shards[s].live_slots()[idx];
                        let evicted = self.fail(&mut shards[s], victim);
                        let mut seq = 0;
                        fold.apply(&msg(&shards[s], ev.time, s, &mut seq));
                        for _ in 0..evicted {
                            fold.apply(&msg(&shards[s], ev.time, s, &mut seq));
                        }
                    }
                    self.rec.exit(span);
                }
            }
        }
        self.flush(&mut shards, &mut batches, &mut admitted, &mut fold);
        let horizon = inputs.trace.params.horizon;
        if self.config.final_validation {
            for live in &shards {
                self.validate(live);
            }
        }
        fold.advance(horizon);
        self.out.cost_integral = fold.cost_integral;
        self.out.residents_mean = fold.residents_integral / horizon / n as f64;
        self.out.peak_procs = fold.peak_procs;
    }
}

/// Re-enacts the empty-plan replay call by call, recording one span per
/// layer call into `rec`.
pub fn replay_layers(spec: &ServeSpec, inputs: &Input, rec: &mut Recorder) -> Replayed {
    let mut d = Replayer {
        spec,
        config: spec.config(),
        seed: inputs.trace.seed,
        rec,
        out: Replayed::default(),
    };
    if spec.shards == 1 && !spec.faults {
        d.replay_unsharded(inputs);
    } else {
        d.replay_sharded(inputs);
    }
    d.out
}

/// Fails unless the layer replay reproduced the program's outcome exactly.
pub fn check_replay(replayed: &Replayed, program: &TraceReport) -> Result<(), String> {
    let got = [
        replayed.admitted,
        replayed.rejected,
        replayed.departed,
        replayed.evicted,
        replayed.slo_checks,
        replayed.slo_violations,
        replayed.peak_procs,
    ];
    let want = [
        program.admitted,
        program.rejected,
        program.departed,
        program.evicted,
        program.slo_checks,
        program.slo_violations,
        program.peak_procs,
    ];
    if got != want || replayed.cost_integral.to_bits() != program.cost_time_integral.to_bits() {
        return Err(format!(
            "layer replay diverged from the program: [admitted, rejected, departed, evicted, \
             slo_checks, slo_violations, peak_procs] {got:?} vs {want:?}, ∫cost {} vs {}",
            replayed.cost_integral, program.cost_time_integral
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_misses_are_allowed_only_where_pinned() {
        assert!(PACKING_SLO_MISSES.windows(2).all(|w| w[0] < w[1]));
        assert!(PACKING_SLO_MISSES.iter().all(|&t| t < SLO_PINNED_BELOW));
        let packing = spec("packing").unwrap();
        assert_eq!(packing.slo_misses_allowed(35), 1);
        assert_eq!(packing.slo_misses_allowed(36), 0);
        assert_eq!(packing.slo_misses_allowed(SLO_PINNED_BELOW), 1);
        let fanout = spec("fanout").unwrap();
        assert_eq!(fanout.slo_misses_allowed(35), 0);
        assert_eq!(fanout.slo_misses_allowed(SLO_PINNED_BELOW), 0);
    }
}
