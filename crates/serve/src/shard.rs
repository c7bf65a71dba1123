//! The sharded serve tier: tenant-partitioned live platforms with
//! parallel trace replay.
//!
//! A single [`LivePlatform`] serializes
//! every admission, departure and failure through one mutable structure,
//! so replay is single-threaded no matter how many cores exist. This
//! module partitions that state the way Noria shards its dataflow: the
//! common case never takes a global lock.
//!
//! * **Tenants hash to a shard** ([`shard_of`], a pure FNV-1a routing
//!   function), and a tenant's whole lifetime — admission, packing,
//!   departure, consolidation — runs against that shard's private
//!   [`LivePlatform`]: its own purchased slot table, its own
//!   [`DownloadLedger`](snsp_core::multi::DownloadLedger), its own
//!   consolidation scratch.
//! * **The platform is statically partitioned.** Processor pools are
//!   disjoint by construction (each shard buys its own machines) and
//!   every processor-to-processor edge of one tenant stays inside one
//!   shard, so per-link bandwidths keep their full value. The only
//!   genuinely shared resource is each data server's NIC total, which is
//!   split evenly: a shard sees `Bs_l / shards` of every server card.
//!   One shard is therefore *identical* to the unsharded platform.
//! * **Cross-shard effects are messages, resolved at tick barriers.**
//!   Shards never read each other's state. During a tick every shard
//!   replays its private event batch in parallel (on the same
//!   work-stealing pool as offline campaigns) and emits `ShardMsg`s —
//!   buys, reclamations, admissions, rejections. At the barrier the
//!   coordinator folds the messages in `(time, shard, seq)` order into
//!   the global accounting (cost integral, utilization, peaks, the event
//!   log), and resolves the events that need a global view: a
//!   [`ProcessorFail`](snsp_gen::TraceEvent::ProcessorFail) lottery is
//!   drawn over the concatenation of every shard's live slots, then
//!   targeted at the victim shard
//!   ([`fail_slot`](crate::platform::LivePlatform::fail_slot)), whose
//!   evictions are folded as messages too.
//!
//! This module holds the partitioned state and the message protocol; the
//! tick loop that drives them is the one replay engine,
//! [`replay_trace_chaos`](crate::fault::replay_trace_chaos). A plain
//! sharded replay is that engine under the empty
//! [`FaultPlan`](crate::fault::FaultPlan), and
//! [`run_trace`](crate::sim::run_trace) is the same at one shard.
//!
//! Because message folding is a pure function of the trace — never of
//! thread interleaving — the replay is **byte-identical at any worker
//! count**: same event log, same fingerprints, same final snapshots.
//! Changing the *shard count* is a semantic configuration change (it
//! moves tenants between pools), like changing a grid point; the
//! determinism contract holds per shard count.
//!
//! ```
//! use snsp_gen::{generate_trace, TraceParams};
//! use snsp_serve::{replay_trace_chaos, FaultPlan, ServeConfig, ShardOptions};
//!
//! let trace = generate_trace(&TraceParams::poisson(0.4, 4.0, 15.0), 7);
//! let config = ServeConfig::default();
//! let plan = FaultPlan::default(); // no faults: the plain sharded tier
//! let serial = ShardOptions { shards: 2, workers: 1 };
//! let parallel = ShardOptions { shards: 2, workers: 2 };
//! let (a, state) = replay_trace_chaos(&trace, &config, &serial, &plan);
//! let (b, _) = replay_trace_chaos(&trace, &config, &parallel, &plan);
//! assert_eq!(a.base.log, b.base.log); // deterministic at any worker count
//! assert_eq!(a.base.admitted + a.base.rejected, a.base.arrivals);
//! assert_eq!(a.fingerprint, state.fingerprint());
//! ```

use std::time::Instant;

use snsp_core::ids::TenantId;
use snsp_core::multi::{MultiInstance, MultiSolution};
use snsp_core::object::ObjectCatalog;
use snsp_core::platform::Platform;
use snsp_gen::{tenant_instance, TenantSpec, TimedEvent, TraceEvent};
use snsp_sweep::PIPELINE_SEED_STRIDE;

use snsp_telemetry::{Class, Counter};

use crate::platform::{AdmitError, AdmitOutcome, LivePlatform};
use crate::report::{fnv1a, TraceReport, FNV_OFFSET};
use crate::sim::{validate_residents, ServeConfig};

// Per-event replay counters, folded at the coordinator. Det-class: every
// count is a pure function of the trace (admission control, departures
// and failure lotteries are all deterministic), and campaign totals are
// commutative sums over jobs.
static SERVE_ADMITTED: Counter = Counter::new("serve.admitted", Class::Det);
static SERVE_REJECTED: Counter = Counter::new("serve.rejected", Class::Det);
static SERVE_DEPARTED: Counter = Counter::new("serve.departed", Class::Det);
static SERVE_EVICTED: Counter = Counter::new("serve.evicted", Class::Det);
static SERVE_FAILURES: Counter = Counter::new("serve.failures", Class::Det);
// Cross-shard message volume by kind, counted at the coordinator fold.
// Det: the message stream is a pure function of the trace.
static MSG_ADMITTED: Counter = Counter::new("serve.shardmsg.admitted", Class::Det);
static MSG_REJECTED: Counter = Counter::new("serve.shardmsg.rejected", Class::Det);
static MSG_DEPARTED: Counter = Counter::new("serve.shardmsg.departed", Class::Det);
static MSG_EVICTED: Counter = Counter::new("serve.shardmsg.evicted", Class::Det);
static MSG_FAILED: Counter = Counter::new("serve.shardmsg.failed", Class::Det);
static MSG_SLO_CHECKED: Counter = Counter::new("serve.shardmsg.slo_checked", Class::Det);

/// How a sharded replay is partitioned and driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Number of tenant shards (clamped to at least 1). One shard is
    /// the whole platform as a single [`LivePlatform`]
    /// ([`run_trace`](crate::sim::run_trace)).
    pub shards: usize,
    /// Worker threads driving the per-tick shard batches (clamped to at
    /// least 1). Affects wall-clock only — never results.
    pub workers: usize,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            workers: 1,
        }
    }
}

impl ShardOptions {
    /// Options with both fields clamped to at least 1.
    pub fn clamped(&self) -> Self {
        ShardOptions {
            shards: self.shards.max(1),
            workers: self.workers.max(1),
        }
    }
}

/// Routes a tenant to its shard: FNV-1a over the tenant id, modulo the
/// shard count. Pure and stable — the same tenant lands on the same
/// shard in every replay of every trace.
pub fn shard_of(tenant: TenantId, shards: usize) -> usize {
    (fnv1a(FNV_OFFSET, tenant.0.to_be_bytes()) % shards.max(1) as u64) as usize
}

/// What one shard tells the coordinator about one committed event — the
/// cross-shard half of the protocol.
///
/// Shards share no mutable state; everything with a global meaning
/// (platform spend, live-processor totals for failure lotteries,
/// eviction counts, the merged event log) is reconstructed by folding
/// these messages at tick barriers in `(time, shard, seq)` order.
#[derive(Debug, Clone)]
pub(crate) enum ShardMsgKind {
    /// An admission committed (its buys show in the cost column).
    Admitted,
    /// An arrival was refused; no state changed.
    Rejected {
        /// The refused tenant (the chaos retry queue re-admits it later).
        tenant: TenantId,
    },
    /// A tenant departed; machines and streams were reclaimed.
    Departed,
    /// A failure barrier evicted one tenant from the shard (the
    /// cross-shard *evict* notification).
    Evicted,
    /// A processor failure was resolved against this shard; each evicted
    /// tenant follows as its own `Evicted`.
    Failed,
    /// Engine spot-validation ran on this shard's residents.
    SloChecked {
        /// Projections validated.
        checks: usize,
        /// Projections below the SLO bar.
        violations: usize,
    },
}

impl ShardMsgKind {
    /// Static kind label, used by the trace layer's `msg_send`/`msg_fold`
    /// events.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ShardMsgKind::Admitted => "admitted",
            ShardMsgKind::Rejected { .. } => "rejected",
            ShardMsgKind::Departed => "departed",
            ShardMsgKind::Evicted => "evicted",
            ShardMsgKind::Failed => "failed",
            ShardMsgKind::SloChecked { .. } => "slo_checked",
        }
    }
}

/// Records one Det-class trace event for this replay, stamped with the
/// run discriminator (the trace seed) and the logical time
/// `(tick, shard, seq)` (no-op while tracing is inactive).
pub(crate) fn trace_det(
    run: u64,
    tick: u64,
    shard: usize,
    seq: u32,
    kind: snsp_telemetry::trace::TraceEventKind,
) {
    snsp_telemetry::trace::record(
        Class::Det,
        run,
        snsp_telemetry::trace::LogicalTime {
            tick,
            shard: shard as u32,
            seq,
        },
        kind,
    );
}

/// One message from a shard to the coordinator: the event kind plus the
/// shard's accounting snapshot *after* the event, stamped for
/// deterministic folding.
#[derive(Debug, Clone)]
pub(crate) struct ShardMsg {
    /// Trace time of the event.
    pub time: f64,
    /// Originating shard.
    pub shard: usize,
    /// Per-shard, per-tick sequence number (tie-break for equal times).
    pub seq: u32,
    /// What happened.
    pub kind: ShardMsgKind,
    /// Shard platform cost after the event, in dollars.
    pub cost: u64,
    /// Shard live-processor count after the event.
    pub procs: usize,
    /// Shard demanded Gop/s after the event.
    pub used: f64,
    /// Shard purchased Gop/s after the event.
    pub speed: f64,
    /// Event-log line(s), `\n`-separated; empty for pure notifications.
    pub line: String,
}

/// A tenant-partitioned set of [`LivePlatform`]s over one shared trace
/// environment.
///
/// Construction splits each data server's NIC bandwidth evenly across
/// the shards (the only cross-shard-shared resource; see the module
/// docs); every other capacity keeps its full value. With `shards == 1`
/// the single shard is bit-identical to the unsharded platform.
#[derive(Debug, Clone)]
pub struct ShardedPlatform {
    shards: Vec<LivePlatform>,
}

impl ShardedPlatform {
    /// Partitions `platform` into `shards` (clamped to at least 1)
    /// private live platforms.
    pub fn new(objects: ObjectCatalog, platform: Platform, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut view = platform;
        for server in &mut view.servers {
            server.nic_bandwidth /= shards as f64;
        }
        ShardedPlatform {
            shards: (0..shards)
                .map(|_| LivePlatform::new(objects.clone(), view.clone()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's live platform.
    pub fn shard(&self, s: usize) -> &LivePlatform {
        &self.shards[s]
    }

    /// Mutable access to one shard (chaos replay: checkpoint restore,
    /// purchase freezes, shedding).
    pub(crate) fn shard_mut(&mut self, s: usize) -> &mut LivePlatform {
        &mut self.shards[s]
    }

    /// Mutable access to every shard at once (the replay engine hands
    /// each tick worker one exclusive cell).
    pub(crate) fn shards_mut(&mut self) -> &mut [LivePlatform] {
        &mut self.shards
    }

    /// The shard `tenant` routes to.
    pub fn route(&self, tenant: TenantId) -> usize {
        shard_of(tenant, self.shards.len())
    }

    /// Total platform cost across shards, in dollars.
    pub fn cost(&self) -> u64 {
        self.shards.iter().map(LivePlatform::cost).sum()
    }

    /// Total live processors across shards.
    pub fn proc_count(&self) -> usize {
        self.shards.iter().map(LivePlatform::proc_count).sum()
    }

    /// Total resident tenants across shards.
    pub fn tenant_count(&self) -> usize {
        self.shards.iter().map(LivePlatform::tenant_count).sum()
    }

    /// Admits `id` on its home shard, generating the tenant's instance
    /// against that shard's partitioned platform view.
    pub fn admit_spec(
        &mut self,
        id: TenantId,
        spec: &TenantSpec,
        heuristic: &dyn snsp_core::heuristics::Heuristic,
        seed: u64,
        opts: &snsp_core::heuristics::PipelineOptions,
    ) -> Result<AdmitOutcome, AdmitError> {
        let s = self.route(id);
        let shard = &mut self.shards[s];
        let inst = tenant_instance(shard.objects(), shard.platform(), spec);
        shard.admit(id, inst, heuristic, seed, opts)
    }

    /// Departs `id` from its home shard. `false` if not resident.
    pub fn depart(&mut self, id: TenantId) -> bool {
        let s = self.route(id);
        self.shards[s].depart(id)
    }

    /// Resolves a global failure lottery: the victim is drawn over the
    /// concatenation of every shard's live slots (in shard order) and the
    /// failure is executed on the owning shard. Returns the victim shard
    /// and its [`FailOutcome`](crate::platform::FailOutcome); `None` when
    /// no processor is live anywhere.
    pub fn fail(&mut self, lottery: u64) -> Option<(usize, crate::platform::FailOutcome)> {
        let total: usize = self.shards.iter().map(LivePlatform::proc_count).sum();
        if total == 0 {
            return None;
        }
        let mut idx = (lottery % total as u64) as usize;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let live = shard.proc_count();
            if idx < live {
                let victim = shard.live_slots()[idx];
                return Some((s, shard.fail_slot(victim)));
            }
            idx -= live;
        }
        unreachable!("lottery index within total live count")
    }

    /// Per-shard offline snapshots, in shard order (see
    /// [`LivePlatform::snapshot`]).
    #[allow(clippy::type_complexity)]
    pub fn snapshots(&self) -> Vec<Option<(MultiInstance, MultiSolution)>> {
        self.shards.iter().map(LivePlatform::snapshot).collect()
    }

    /// A structural FNV-1a fingerprint of the final state: per shard (in
    /// shard order) the cost, purchased kinds, resident tenants with
    /// their full assignments, and the sorted download set. Two platforms
    /// fingerprint equal iff their compacted snapshots are identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut text = format!("shard {s} cost {}", shard.cost());
            if let Some((_, sol)) = shard.snapshot() {
                text.push_str(&format!(" kinds {:?}", sol.proc_kinds));
                for (id, assignment) in shard.tenant_ids().iter().zip(&sol.assignments) {
                    text.push_str(&format!(" t{id} {assignment:?}"));
                }
                text.push_str(&format!(" downloads {:?}", sol.downloads));
            }
            h = fnv1a(h, text.bytes().chain([b'\n']));
        }
        h
    }
}

/// One shard's private slice of a tick: the events it must replay, in
/// trace order.
#[derive(Default)]
pub(crate) struct ShardBatch {
    pub(crate) events: Vec<TimedEvent>,
}

/// Folds [`ShardMsg`]s into the global, piecewise-constant accounting:
/// cost and utilization integrals, peaks, and the merged event log.
pub(crate) struct Coordinator {
    pub(crate) last_t: f64,
    pub(crate) cost: Vec<u64>,
    pub(crate) procs: Vec<usize>,
    pub(crate) used: Vec<f64>,
    pub(crate) speed: Vec<f64>,
    pub(crate) report: TraceReport,
}

impl Coordinator {
    pub(crate) fn new(shards: usize) -> Self {
        Coordinator {
            last_t: 0.0,
            cost: vec![0; shards],
            procs: vec![0; shards],
            used: vec![0.0; shards],
            speed: vec![0.0; shards],
            report: TraceReport::default(),
        }
    }

    /// Integrates the current global totals up to `to`.
    pub(crate) fn advance(&mut self, to: f64) {
        let dt = to - self.last_t;
        let cost: u64 = self.cost.iter().sum();
        let speed: f64 = self.speed.iter().sum();
        let used: f64 = self.used.iter().sum();
        self.report.cost_time_integral += cost as f64 * dt;
        if speed > 0.0 {
            self.report.mean_utilization += used / speed * dt; // re-normalized at the end
        }
        self.last_t = to;
    }

    /// Applies one message: advance time, update the shard column, fold
    /// counters, peaks and log lines.
    pub(crate) fn apply(&mut self, msg: ShardMsg) {
        self.advance(msg.time);
        self.cost[msg.shard] = msg.cost;
        self.procs[msg.shard] = msg.procs;
        self.used[msg.shard] = msg.used;
        self.speed[msg.shard] = msg.speed;
        match msg.kind {
            ShardMsgKind::Admitted => {
                self.report.arrivals += 1;
                self.report.admitted += 1;
                SERVE_ADMITTED.incr();
                MSG_ADMITTED.incr();
            }
            ShardMsgKind::Rejected { .. } => {
                self.report.arrivals += 1;
                self.report.rejected += 1;
                SERVE_REJECTED.incr();
                MSG_REJECTED.incr();
            }
            ShardMsgKind::Departed => {
                self.report.departed += 1;
                SERVE_DEPARTED.incr();
                MSG_DEPARTED.incr();
            }
            ShardMsgKind::Evicted => {
                self.report.evicted += 1;
                SERVE_EVICTED.incr();
                MSG_EVICTED.incr();
            }
            ShardMsgKind::Failed => {
                self.report.failures += 1;
                SERVE_FAILURES.incr();
                MSG_FAILED.incr();
            }
            ShardMsgKind::SloChecked { checks, violations } => {
                self.report.slo_checks += checks;
                self.report.slo_violations += violations;
                MSG_SLO_CHECKED.incr();
            }
        }
        // A single line moves into the log; only SLO spot checks carry
        // several.
        if msg.line.contains('\n') {
            let lines = msg.line.split('\n').filter(|l| !l.is_empty());
            self.report.log.extend(lines.map(str::to_string));
        } else if !msg.line.is_empty() {
            self.report.log.push(msg.line);
        }
        self.report.peak_cost = self.report.peak_cost.max(self.cost.iter().sum());
        self.report.peak_procs = self.report.peak_procs.max(self.procs.iter().sum());
    }
}

/// Replays one shard's tick batch against its private platform,
/// producing the outbound messages and the (wall-clock, thus unstable)
/// admission-latency samples.
pub(crate) fn replay_batch(
    shard_ix: usize,
    live: &mut LivePlatform,
    batch: &ShardBatch,
    trace_seed: u64,
    config: &ServeConfig,
    admitted_so_far: &mut usize,
    tick: u64,
) -> (Vec<ShardMsg>, Vec<f64>) {
    // At most one message per event, plus one per spot check.
    let mut msgs = Vec::with_capacity(batch.events.len());
    let mut latencies = Vec::new();
    let mut seq = 0u32;
    let mut push =
        |live: &LivePlatform, time: f64, seq: &mut u32, kind: ShardMsgKind, line: String| {
            trace_det(
                trace_seed,
                tick,
                shard_ix,
                *seq,
                snsp_telemetry::trace::TraceEventKind::MsgSend { msg: kind.label() },
            );
            let (used, speed) = live.cpu_load();
            msgs.push(ShardMsg {
                time,
                shard: shard_ix,
                seq: *seq,
                kind,
                cost: live.cost(),
                procs: live.proc_count(),
                used,
                speed,
                line,
            });
            *seq += 1;
        };
    for ev in &batch.events {
        let t = ev.time;
        match ev.event {
            TraceEvent::Arrive {
                tenant,
                spec,
                deadline,
            } => {
                let inst = tenant_instance(live.objects(), live.platform(), &spec);
                let seed = trace_seed ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
                let started = Instant::now();
                let outcome =
                    live.admit(tenant, inst, config.heuristic.as_ref(), seed, &config.opts);
                match outcome {
                    Ok(out) => {
                        latencies.push(started.elapsed().as_secs_f64() * 1e6);
                        *admitted_so_far += 1;
                        let line = format!(
                            "{t:.6} s{shard_ix} admit t{tenant} n={} rho={:.3} until={deadline:.6} \
                             new={} reuse={} procs={} cost={}",
                            spec.n_ops,
                            spec.rho,
                            out.new_procs,
                            out.reused_procs,
                            live.proc_count(),
                            live.cost()
                        );
                        trace_det(
                            trace_seed,
                            tick,
                            shard_ix,
                            seq,
                            snsp_telemetry::trace::TraceEventKind::Admit {
                                tenant: tenant.0 as u64,
                                new_procs: out.new_procs as u64,
                                reused_procs: out.reused_procs as u64,
                            },
                        );
                        push(live, t, &mut seq, ShardMsgKind::Admitted, line);
                        if config.spot_admissions > 0
                            && (*admitted_so_far).is_multiple_of(config.spot_admissions)
                        {
                            let mut slo_log = Vec::new();
                            let (checks, violations) =
                                validate_residents(live, config, t, &mut slo_log);
                            push(
                                live,
                                t,
                                &mut seq,
                                ShardMsgKind::SloChecked { checks, violations },
                                slo_log.join("\n"),
                            );
                        }
                    }
                    Err(e) => {
                        let line =
                            format!("{t:.6} s{shard_ix} reject t{tenant} n={} ({e})", spec.n_ops);
                        trace_det(
                            trace_seed,
                            tick,
                            shard_ix,
                            seq,
                            snsp_telemetry::trace::TraceEventKind::Reject {
                                tenant: tenant.0 as u64,
                            },
                        );
                        push(live, t, &mut seq, ShardMsgKind::Rejected { tenant }, line);
                    }
                }
            }
            TraceEvent::Depart { tenant } => {
                let mut budget = snsp_search::Budget::new(config.refine_evals);
                if live.depart_budgeted(tenant, &mut budget) {
                    let line = format!(
                        "{t:.6} s{shard_ix} depart t{tenant} procs={} cost={}",
                        live.proc_count(),
                        live.cost()
                    );
                    trace_det(
                        trace_seed,
                        tick,
                        shard_ix,
                        seq,
                        snsp_telemetry::trace::TraceEventKind::Depart {
                            tenant: tenant.0 as u64,
                        },
                    );
                    push(live, t, &mut seq, ShardMsgKind::Departed, line);
                }
            }
            TraceEvent::ProcessorFail { .. } => {
                unreachable!("failures are barrier events, never batched")
            }
        }
    }
    (msgs, latencies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{replay_trace_chaos, FaultPlan};
    use snsp_core::multi::verify_joint;
    use snsp_gen::{generate_trace, trace_environment, Burst, Trace, TraceParams};

    fn replay(trace: &Trace, config: &ServeConfig, shards: usize, workers: usize) -> TraceReport {
        let opts = ShardOptions { shards, workers };
        replay_trace_chaos(trace, config, &opts, &FaultPlan::default())
            .0
            .base
    }

    /// One committed event of the oracle: its shard's state afterwards
    /// and the log lines it wrote.
    struct Commit {
        time: f64,
        shard: usize,
        seq: usize,
        cost: u64,
        procs: usize,
        used: f64,
        speed: f64,
        lines: Vec<String>,
    }

    fn commit(live: &LivePlatform, time: f64, shard: usize, seq: usize, line: String) -> Commit {
        let (used, speed) = live.cpu_load();
        Commit {
            time,
            shard,
            seq,
            cost: live.cost(),
            procs: live.proc_count(),
            used,
            speed,
            lines: vec![line],
        }
    }

    /// The sequential oracle for the replay engine: the trace walked
    /// event by event over `shards` shard platforms, with no ticks, no
    /// pool and no messages. Tenants route with [`shard_of`]; a failure
    /// draws its victim by the global lottery over every shard's live
    /// slots, in shard order. Every committed event leaves a [`Commit`],
    /// and the commits are integrated in `(time, shard, seq)` order.
    fn oracle_replay(
        trace: &Trace,
        config: &ServeConfig,
        shards: usize,
    ) -> (TraceReport, ShardedPlatform) {
        let (objects, platform) = trace_environment(&trace.params, trace.seed);
        let mut sharded = ShardedPlatform::new(objects, platform, shards);
        let mut report = TraceReport::default();
        let mut commits: Vec<Commit> = Vec::new();
        let mut admitted = vec![0usize; shards];
        for ev in &trace.events {
            let (t, seq) = (ev.time, commits.len());
            let lives = sharded.shards_mut();
            match ev.event {
                TraceEvent::Arrive {
                    tenant,
                    spec,
                    deadline,
                } => {
                    report.arrivals += 1;
                    let s = shard_of(tenant, shards);
                    let live = &mut lives[s];
                    let inst = tenant_instance(live.objects(), live.platform(), &spec);
                    let seed =
                        trace.seed ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
                    match live.admit(tenant, inst, config.heuristic.as_ref(), seed, &config.opts) {
                        Ok(out) => {
                            report.admitted += 1;
                            admitted[s] += 1;
                            let line = format!(
                                "{t:.6} s{s} admit t{tenant} n={} rho={:.3} until={deadline:.6} \
                                 new={} reuse={} procs={} cost={}",
                                spec.n_ops,
                                spec.rho,
                                out.new_procs,
                                out.reused_procs,
                                live.proc_count(),
                                live.cost()
                            );
                            let mut c = commit(live, t, s, seq, line);
                            if config.spot_admissions > 0
                                && admitted[s].is_multiple_of(config.spot_admissions)
                            {
                                let (checks, violations) =
                                    validate_residents(live, config, t, &mut c.lines);
                                report.slo_checks += checks;
                                report.slo_violations += violations;
                            }
                            commits.push(c);
                        }
                        Err(e) => {
                            report.rejected += 1;
                            let line =
                                format!("{t:.6} s{s} reject t{tenant} n={} ({e})", spec.n_ops);
                            commits.push(commit(live, t, s, seq, line));
                        }
                    }
                }
                TraceEvent::Depart { tenant } => {
                    let s = shard_of(tenant, shards);
                    let live = &mut lives[s];
                    let mut budget = snsp_search::Budget::new(config.refine_evals);
                    if live.depart_budgeted(tenant, &mut budget) {
                        report.departed += 1;
                        let line = format!(
                            "{t:.6} s{s} depart t{tenant} procs={} cost={}",
                            live.proc_count(),
                            live.cost()
                        );
                        commits.push(commit(live, t, s, seq, line));
                    }
                }
                TraceEvent::ProcessorFail { lottery } => {
                    let total: usize = lives.iter().map(LivePlatform::proc_count).sum();
                    if total == 0 {
                        continue;
                    }
                    let mut idx = (lottery % total as u64) as usize;
                    let s = lives.iter().position(|live| {
                        let hit = idx < live.proc_count();
                        if !hit {
                            idx -= live.proc_count();
                        }
                        hit
                    });
                    let s = s.expect("the lottery index is below the live total");
                    let live = &mut lives[s];
                    let out = live.fail_slot(live.live_slots()[idx]);
                    report.failures += 1;
                    report.evicted += out.evicted.len();
                    let evicted: Vec<String> =
                        out.evicted.iter().map(|id| format!("t{id}")).collect();
                    let line = format!(
                        "{t:.6} s{s} fail p{} remapped={} evicted=[{}] procs={} cost={}",
                        out.victim.expect("a live slot failed"),
                        out.remapped.len(),
                        evicted.join(","),
                        live.proc_count(),
                        live.cost()
                    );
                    commits.push(commit(live, t, s, seq, line));
                }
            }
        }
        commits.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.shard.cmp(&b.shard))
                .then(a.seq.cmp(&b.seq))
        });
        let mut columns = vec![(0u64, 0usize, 0.0f64, 0.0f64); shards];
        let mut last_t = 0.0f64;
        let mut integrate =
            |columns: &[(u64, usize, f64, f64)], report: &mut TraceReport, to: f64| {
                let dt = to - last_t;
                let cost: u64 = columns.iter().map(|c| c.0).sum();
                let used: f64 = columns.iter().map(|c| c.2).sum();
                let speed: f64 = columns.iter().map(|c| c.3).sum();
                report.cost_time_integral += cost as f64 * dt;
                if speed > 0.0 {
                    report.mean_utilization += used / speed * dt;
                }
                last_t = to;
            };
        for c in commits {
            integrate(&columns, &mut report, c.time);
            columns[c.shard] = (c.cost, c.procs, c.used, c.speed);
            let cost: u64 = columns.iter().map(|c| c.0).sum();
            let procs: usize = columns.iter().map(|c| c.1).sum();
            report.peak_cost = report.peak_cost.max(cost);
            report.peak_procs = report.peak_procs.max(procs);
            report.log.extend(c.lines);
        }
        let horizon = trace.params.horizon;
        if config.final_validation {
            for live in sharded.shards_mut().iter() {
                let (checks, violations) =
                    validate_residents(live, config, horizon, &mut report.log);
                report.slo_checks += checks;
                report.slo_violations += violations;
            }
        }
        integrate(&columns, &mut report, horizon);
        report.final_cost = sharded.cost();
        report.mean_utilization /= horizon;
        (report, sharded)
    }

    /// The engine against the sequential oracle: 12 seeded traces (with
    /// failures, with bursts, and rejection-heavy) at 1, 2 and 4 shards,
    /// each at 1 and 2 replay workers. Every deterministic field of the
    /// report and the final platform fingerprint must match, the
    /// integrals bit for bit. None of these traces evicts: without a
    /// purchase freeze a displaced block re-maps onto a bought machine,
    /// so eviction folding is pinned by the chaos tests.
    #[test]
    fn engine_matches_the_sequential_oracle() {
        let burst = Burst {
            period: 8.0,
            width: 2.0,
            multiplier: 4.0,
        };
        let points = [
            TraceParams::poisson(0.6, 4.0, 25.0).with_failures(0.12),
            TraceParams::poisson(0.3, 3.0, 24.0)
                .with_burst(burst)
                .with_failures(0.05),
            TraceParams::poisson(1.0, 4.0, 20.0)
                .with_tenant_rho(50.0, 1500.0)
                .with_failures(0.6),
        ];
        let (mut rejected, mut failures, mut slo_checks) = (0, 0, 0);
        for (p, params) in points.iter().enumerate() {
            for seed in 0..4u64 {
                let trace = generate_trace(params, 100 * p as u64 + seed);
                let config = ServeConfig {
                    spot_admissions: if seed % 2 == 0 { 2 } else { 0 },
                    ..Default::default()
                };
                for shards in [1usize, 2, 4] {
                    let (want, want_state) = oracle_replay(&trace, &config, shards);
                    rejected += want.rejected;
                    failures += want.failures;
                    slo_checks += want.slo_checks;
                    for workers in [1usize, 2] {
                        let opts = ShardOptions { shards, workers };
                        let (got, state) =
                            replay_trace_chaos(&trace, &config, &opts, &FaultPlan::default());
                        let got = got.base;
                        let at =
                            format!("point {p} seed {seed}, {shards} shards, {workers} workers");
                        assert_eq!(got.log, want.log, "{at}");
                        assert_eq!(got.arrivals, want.arrivals, "{at}");
                        assert_eq!(got.admitted, want.admitted, "{at}");
                        assert_eq!(got.rejected, want.rejected, "{at}");
                        assert_eq!(got.departed, want.departed, "{at}");
                        assert_eq!(got.evicted, want.evicted, "{at}");
                        assert_eq!(got.failures, want.failures, "{at}");
                        assert_eq!(got.slo_checks, want.slo_checks, "{at}");
                        assert_eq!(got.slo_violations, want.slo_violations, "{at}");
                        assert_eq!(got.final_cost, want.final_cost, "{at}");
                        assert_eq!(got.peak_cost, want.peak_cost, "{at}");
                        assert_eq!(got.peak_procs, want.peak_procs, "{at}");
                        assert_eq!(
                            got.cost_time_integral.to_bits(),
                            want.cost_time_integral.to_bits(),
                            "{at}"
                        );
                        assert_eq!(
                            got.mean_utilization.to_bits(),
                            want.mean_utilization.to_bits(),
                            "{at}"
                        );
                        assert_eq!(state.fingerprint(), want_state.fingerprint(), "{at}");
                    }
                }
            }
        }
        assert!(rejected > 0 && failures > 0 && slo_checks > 0);
    }

    #[test]
    fn routing_is_stable_and_covers_all_shards() {
        for shards in [1usize, 2, 4, 8] {
            let mut hit = vec![false; shards];
            for t in 0..64u32 {
                let s = shard_of(TenantId(t), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(TenantId(t), shards), "routing is pure");
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "64 tenants cover {shards} shards");
        }
    }

    #[test]
    fn one_shard_platform_matches_the_unsharded_view() {
        let params = TraceParams::poisson(0.5, 5.0, 20.0);
        let (objects, platform) = trace_environment(&params, 3);
        let sharded = ShardedPlatform::new(objects, platform.clone(), 1);
        let shard = sharded.shard(0);
        for (a, b) in shard.platform().servers.iter().zip(&platform.servers) {
            assert_eq!(a.nic_bandwidth, b.nic_bandwidth);
            assert_eq!(a.link_bandwidth, b.link_bandwidth);
        }
    }

    #[test]
    fn nic_capacity_is_split_evenly() {
        let params = TraceParams::poisson(0.5, 5.0, 20.0);
        let (objects, platform) = trace_environment(&params, 3);
        let sharded = ShardedPlatform::new(objects, platform.clone(), 4);
        for s in 0..4 {
            for (a, b) in sharded
                .shard(s)
                .platform()
                .servers
                .iter()
                .zip(&platform.servers)
            {
                assert!((a.nic_bandwidth - b.nic_bandwidth / 4.0).abs() < 1e-9);
                assert_eq!(a.link_bandwidth, b.link_bandwidth, "links keep full value");
            }
        }
    }

    #[test]
    fn sharded_replay_is_deterministic_across_workers() {
        let params = TraceParams::poisson(0.6, 4.0, 25.0).with_failures(0.1);
        let trace = generate_trace(&params, 11);
        for shards in [1usize, 2, 4] {
            let base = replay(&trace, &ServeConfig::default(), shards, 1);
            for workers in [2usize, 4] {
                let other = replay(&trace, &ServeConfig::default(), shards, workers);
                assert_eq!(base.log, other.log, "{shards} shards, {workers} workers");
                assert_eq!(base.log_hash(), other.log_hash());
                assert_eq!(base.final_cost, other.final_cost);
                assert_eq!(base.cost_time_integral, other.cost_time_integral);
                assert_eq!(base.mean_utilization, other.mean_utilization);
            }
        }
    }

    #[test]
    fn every_shard_snapshot_verifies_jointly() {
        let params = TraceParams::poisson(0.8, 6.0, 20.0);
        let trace = generate_trace(&params, 5);
        let (objects, platform) = trace_environment(&params, trace.seed);
        let mut sharded = ShardedPlatform::new(objects, platform, 3);
        for ev in &trace.events {
            if let TraceEvent::Arrive { tenant, spec, .. } = ev.event {
                let seed = trace.seed ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
                let _ = sharded.admit_spec(
                    tenant,
                    &spec,
                    &snsp_core::heuristics::SubtreeBottomUp,
                    seed,
                    &Default::default(),
                );
            }
        }
        assert!(sharded.tenant_count() > 0);
        let mut resident = 0;
        for snap in sharded.snapshots().into_iter().flatten() {
            let (multi, sol) = snap;
            verify_joint(&multi, &sol).expect("shard snapshot verifies");
            resident += sol.assignments.len();
        }
        assert_eq!(resident, sharded.tenant_count());
    }

    #[test]
    fn global_failure_lottery_spans_shards() {
        let params = TraceParams::poisson(1.0, 8.0, 15.0);
        let trace = generate_trace(&params, 9);
        let (objects, platform) = trace_environment(&params, trace.seed);
        let mut sharded = ShardedPlatform::new(objects, platform, 2);
        for ev in &trace.events {
            if let TraceEvent::Arrive { tenant, spec, .. } = ev.event {
                let seed = trace.seed ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
                let _ = sharded.admit_spec(
                    tenant,
                    &spec,
                    &snsp_core::heuristics::SubtreeBottomUp,
                    seed,
                    &Default::default(),
                );
            }
        }
        let total = sharded.proc_count();
        assert!(total >= 2, "need processors on both shards");
        let mut hit = [false; 2];
        for lottery in 0..total as u64 {
            let mut probe = sharded.clone();
            let (s, out) = probe.fail(lottery).expect("processors are live");
            assert!(out.victim.is_some());
            hit[s] = true;
        }
        assert!(hit[0] && hit[1], "the lottery reaches every shard");
        // An empty platform has no victim to draw.
        let (objects, platform) = trace_environment(&params, 1);
        let mut empty = ShardedPlatform::new(objects, platform, 2);
        assert!(empty.fail(0).is_none());
    }
}
