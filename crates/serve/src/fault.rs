//! The replay engine: tick-barrier trace replay over the sharded tier,
//! with deterministic fault injection, crash recovery, and graceful
//! degradation.
//!
//! [`replay_trace_chaos`] is the only replay loop in the crate. Under the
//! empty [`FaultPlan`] (`FaultPlan::default()`) it is the plain sharded
//! replay, and at one shard it is [`run_trace`](crate::sim::run_trace);
//! serve campaigns call it with the empty plan, chaos campaigns with a
//! drawn one. Nothing in it branches on the shard count or on whether
//! the plan is empty: an empty plan simply schedules no faults.
//!
//! Real platforms lose shards, drop cross-shard messages, get hit by
//! correlated rack failures, and have capacity revoked under them. This
//! module makes every one of those a **first-class, seeded, replayable
//! input** — the screen-then-verify discipline the refinement layers
//! apply to moves, applied to faults:
//!
//! * A [`FaultPlan`] is instantiated from a [`FaultSpec`] as a pure
//!   function of `(spec, horizon)` — **never of the shard count** — so
//!   the same seed yields the same global fault schedule at 1, 2 or 64
//!   shards; shard-targeted faults are routed only at replay time
//!   (crash victim = `draw % shards`, slot kills resolve a *global*
//!   lottery over the concatenated live slots, exactly like trace
//!   failures).
//! * **Crash recovery is checkpoint/restore.** Sharded replay already
//!   advances in tick barriers; the chaos replay treats the state at
//!   each barrier as the per-shard checkpoint. When a shard crashes
//!   mid-tick, its in-flight batch results are discarded, its platform
//!   is restored from the checkpoint, and the batch is re-replayed.
//!   Replay is deterministic, so the recovered shard emits byte-identical
//!   messages and the run's event log and final
//!   [`fingerprint`](crate::shard::ShardedPlatform::fingerprint) equal
//!   an uninterrupted run's — the contract the chaos campaign asserts
//!   per run (`crash_fingerprint_match`).
//! * **Message faults are injected and then recovered at the barrier.**
//!   Dropped shard messages are retransmitted from the sender's retained
//!   outbox (senders keep a tick's messages until the barrier acks),
//!   duplicates are discarded by their unique `(time, shard, seq)` key,
//!   and delayed messages simply arrive later *within* the tick — the
//!   barrier folds in canonical order regardless of arrival order. The
//!   fold input is therefore provably identical to the fault-free
//!   stream; the Det-class `fault.msg.*` counters record the traffic.
//! * **A bounded retry queue re-admits evicted and rejected tenants**
//!   with deterministic exponential backoff (`next = t + base·factorᵏ`),
//!   dropping entries after `max_attempts` tries or past their trace
//!   deadline.
//! * **Graceful degradation** sheds the lowest-value residents (value =
//!   `ρ·Σwork`, ascending) after a run of consecutive rejections,
//!   instead of failing admissions outright; shed tenants re-enter
//!   through the retry queue.
//! * [`audit_platform`] runs after **every** injected fault: per-shard
//!   structural invariants ([`LivePlatform::audit`] — live-slot
//!   assignments, ledger conservation, `verify_joint`) plus the
//!   cross-shard ones (home routing, no double residency). Violations
//!   are counted, surfaced in the report, and asserted zero by the
//!   integration tests.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use snsp_core::ids::TenantId;
use snsp_core::pool::{run_jobs, run_jobs_checked};
use snsp_gen::{generate_trace, trace_environment, TenantSpec, Trace, TraceEvent, TraceParams};
use snsp_sweep::{Json, PhaseTiming, PIPELINE_SEED_STRIDE};
use snsp_telemetry::{Class, Counter, Gauge, Histogram};

use crate::campaign::{point_config_json, ServePoint};
use crate::platform::LivePlatform;
use crate::report::{fnv1a, TraceReport, FNV_OFFSET};
use crate::shard::{
    replay_batch, Coordinator, ShardBatch, ShardMsg, ShardMsgKind, ShardOptions, ShardedPlatform,
};
use crate::sim::{validate_residents, ServeConfig};

/// Events replayed per non-empty shard batch at each tick barrier.
static TICK_BATCH_EVENTS: Histogram = Histogram::new("serve.tick.batch_events", Class::Det);
/// Per-shard admissions over one replay — the shard-imbalance
/// distribution (routing is pure, so the samples are Det).
static SHARD_ADMITTED: Histogram = Histogram::new("serve.shard.admitted", Class::Det);
/// Wall-clock admission latency — Overlay by nature.
static SERVE_ADMIT_LATENCY: Histogram = Histogram::new("serve.admit.latency_us", Class::Overlay);
/// Peak resident-set size sampled after each replay (`/proc/self/status`
/// VmHWM) — a process-level, scheduling-dependent gauge.
static SERVE_PEAK_RSS: Gauge = Gauge::new("serve.peak_rss_kb", Class::Overlay);

// Det-class fault/recovery/retry counters: every count below is a pure
// function of (trace, fault plan, config) — worker counts never move
// them, so they are safe in stable artifacts.
static FAULT_INJECTED: Counter = Counter::new("fault.injected", Class::Det);
static FAULT_CRASHES: Counter = Counter::new("fault.crashes", Class::Det);
static FAULT_RECOVERIES: Counter = Counter::new("fault.recoveries", Class::Det);
static FAULT_RACKS: Counter = Counter::new("fault.rack_failures", Class::Det);
static FAULT_REVOCATIONS: Counter = Counter::new("fault.revocations", Class::Det);
static MSG_DROPPED: Counter = Counter::new("fault.msg.dropped", Class::Det);
static MSG_RETRANSMITTED: Counter = Counter::new("fault.msg.retransmitted", Class::Det);
static MSG_DUPLICATED: Counter = Counter::new("fault.msg.duplicated", Class::Det);
static MSG_DUPS_DISCARDED: Counter = Counter::new("fault.msg.dups_discarded", Class::Det);
static MSG_DELAYED: Counter = Counter::new("fault.msg.delayed", Class::Det);
static RETRY_ENQUEUED: Counter = Counter::new("fault.retry.enqueued", Class::Det);
static RETRY_READMITTED: Counter = Counter::new("fault.retry.readmitted", Class::Det);
static RETRY_DROPPED: Counter = Counter::new("fault.retry.dropped", Class::Det);
static DEGRADE_SHED: Counter = Counter::new("fault.degrade.shed", Class::Det);
static AUDIT_FAILURES: Counter = Counter::new("fault.audit.failures", Class::Det);
/// Events re-replayed from checkpoint per crash recovery.
static RECOVERY_REPLAYED: Histogram = Histogram::new("fault.recovery.replayed_events", Class::Det);

// Disjoint seed streams so adding one fault class never perturbs the
// schedule of another.
const CRASH_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;
const RACK_STREAM: u64 = 0xc2b2_ae3d_27d4_eb4f;
const REVOKE_STREAM: u64 = 0x1656_67b1_9e37_79f9;
const MSG_STREAM: u64 = 0x2545_f491_4f6c_dd1d;
/// Slot lotteries pre-drawn per revocation (the fraction of live slots
/// actually killed is only known at replay time).
const REVOKE_DRAWS: usize = 256;

/// Deterministic exponential backoff for the re-admission queue: retry
/// `k` of a tenant enqueued at `t₀` runs at the first tick barrier after
/// `t + base·factorᵏ`. `max_attempts == 0` disables the queue entirely
/// (evicted tenants stay gone, as in a fault-free replay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First-retry delay in trace time units.
    pub base: f64,
    /// Multiplicative backoff factor per failed attempt.
    pub factor: f64,
    /// Attempts before an entry is dropped; 0 disables retries.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: 0.5,
            factor: 2.0,
            max_attempts: 0,
        }
    }
}

impl RetryPolicy {
    /// The standard bounded queue: 0.5 time-unit first retry, doubling,
    /// six attempts (a 0.5·(2⁶−1) ≈ 31.5 time-unit backoff horizon).
    pub fn standard() -> Self {
        RetryPolicy {
            base: 0.5,
            factor: 2.0,
            max_attempts: 6,
        }
    }
}

/// Graceful-degradation policy: after `pressure` consecutive rejected
/// admissions, shed up to `max_shed` lowest-value residents (value =
/// `ρ·Σwork`, ascending; ties broken by ascending tenant id) instead of
/// continuing to fail admissions outright. Shed tenants re-enter via the
/// retry queue. `pressure == 0` disables shedding.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradePolicy {
    /// Consecutive rejections that arm a shed pass; 0 disables.
    pub pressure: usize,
    /// Residents shed per pass.
    pub max_shed: usize,
}

/// Everything a chaos scenario may inject, all seeded and all off by
/// default (a default spec replays exactly like the fault-free sharded
/// tier). Rates are events per trace time unit; probabilities are per
/// message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of every fault stream (crash times, victims, lotteries,
    /// message faults). Campaigns derive a per-trace-seed variant.
    pub seed: u64,
    /// Poisson rate of single-shard crashes (checkpoint/restore drill).
    pub crash_rate: f64,
    /// Poisson rate of correlated rack failures.
    pub rack_rate: f64,
    /// Processors killed per rack failure (global lotteries).
    pub rack_size: usize,
    /// Per-message drop probability (recovered by retransmit).
    pub msg_drop: f64,
    /// Per-message duplication probability (recovered by seq-dedup).
    pub msg_dup: f64,
    /// Per-message delay probability (recovered by the canonical fold).
    pub msg_delay: f64,
    /// Capacity-revocation window `(start, end)` in trace time.
    pub revoke_at: Option<(f64, f64)>,
    /// Fraction of live processors killed when the revocation starts
    /// (purchases stay frozen until the window ends).
    pub revoke_frac: f64,
    /// Extra tick barriers every `tick_every` time units (0 disables):
    /// they bound checkpoint intervals and give the retry queue
    /// deterministic chances to drain between faults.
    pub tick_every: f64,
    /// Re-admission backoff policy.
    pub retry: RetryPolicy,
    /// Load-shedding policy.
    pub degrade: DegradePolicy,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            crash_rate: 0.0,
            rack_rate: 0.0,
            rack_size: 0,
            msg_drop: 0.0,
            msg_dup: 0.0,
            msg_delay: 0.0,
            revoke_at: None,
            revoke_frac: 0.0,
            tick_every: 0.0,
            retry: RetryPolicy::default(),
            degrade: DegradePolicy::default(),
        }
    }
}

impl FaultSpec {
    /// A spec with only the seed set (everything off).
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..Default::default()
        }
    }

    /// Enables shard crashes at `rate` per time unit.
    pub fn with_crashes(mut self, rate: f64) -> Self {
        self.crash_rate = rate;
        self
    }

    /// Enables correlated rack failures: `rate` bursts per time unit,
    /// each killing `size` processors by global lottery.
    pub fn with_racks(mut self, rate: f64, size: usize) -> Self {
        self.rack_rate = rate;
        self.rack_size = size;
        self
    }

    /// Enables message faults with the given per-message probabilities.
    pub fn with_msg_faults(mut self, drop: f64, dup: f64, delay: f64) -> Self {
        self.msg_drop = drop;
        self.msg_dup = dup;
        self.msg_delay = delay;
        self
    }

    /// Schedules a capacity revocation: at `start`, `frac` of the live
    /// processors are killed and purchases freeze; at `end` they thaw.
    pub fn with_revocation(mut self, start: f64, end: f64, frac: f64) -> Self {
        self.revoke_at = Some((start, end));
        self.revoke_frac = frac;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the degradation policy.
    pub fn with_degradation(mut self, pressure: usize, max_shed: usize) -> Self {
        self.degrade = DegradePolicy { pressure, max_shed };
        self
    }

    /// Adds periodic tick barriers every `dt` time units.
    pub fn with_ticks(mut self, dt: f64) -> Self {
        self.tick_every = dt;
        self
    }
}

/// One scheduled fault. Shard-targeted kinds carry raw draws, not shard
/// or slot indices — routing happens at replay time so the schedule
/// itself is shard-count-free.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A shard worker dies mid-tick; victim = `draw % shards` at replay.
    ShardCrash {
        /// Raw victim draw.
        draw: u64,
    },
    /// A correlated burst: each lottery kills one processor, drawn over
    /// the *global* concatenation of live slots (like trace failures).
    RackFailure {
        /// Global slot lotteries, applied in order.
        lotteries: Vec<u64>,
    },
    /// Capacity revocation starts: `⌈frac·live⌉` processors are killed
    /// by the first lotteries and purchases freeze platform-wide.
    CapacityRevoke {
        /// Pre-drawn global slot lotteries (only a prefix is used).
        lotteries: Vec<u64>,
    },
    /// The revocation window ends; purchases thaw.
    CapacityRestore,
    /// A pure tick barrier (flush + retry drain + audit), injected by
    /// [`FaultSpec::tick_every`].
    Barrier,
}

/// A scheduled fault at a trace time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Trace time of the fault.
    pub time: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// The full, deterministic fault schedule of one replay. The default is
/// the empty plan of [`FaultSpec::default()`]: the replay it drives is the
/// plain, fault-free one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The spec this plan was instantiated from.
    pub spec: FaultSpec,
    /// Scheduled faults, ascending in time.
    pub events: Vec<FaultEvent>,
}

fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

impl FaultPlan {
    /// Draws the fault schedule for one replay: independent seeded
    /// Poisson streams per fault class, merged in time order. A pure
    /// function of `(spec, horizon)` — the shard count is deliberately
    /// **not** an input, so the same seed produces the same global
    /// schedule at every shard count (pinned by the shard-count
    /// independence tests).
    ///
    /// Non-finite rates and periods schedule nothing: an infinite rate
    /// would draw zero-length gaps forever.
    pub fn instantiate(spec: &FaultSpec, horizon: f64) -> FaultPlan {
        let mut events: Vec<(f64, u8, FaultKind)> = Vec::new();
        if spec.crash_rate > 0.0 && spec.crash_rate.is_finite() {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ CRASH_STREAM);
            let mut t = 0.0;
            loop {
                t += exp_sample(&mut rng, spec.crash_rate);
                if t >= horizon {
                    break;
                }
                events.push((
                    t,
                    1,
                    FaultKind::ShardCrash {
                        draw: rng.next_u64(),
                    },
                ));
            }
        }
        if spec.rack_rate > 0.0 && spec.rack_rate.is_finite() && spec.rack_size > 0 {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ RACK_STREAM);
            let mut t = 0.0;
            loop {
                t += exp_sample(&mut rng, spec.rack_rate);
                if t >= horizon {
                    break;
                }
                let lotteries = (0..spec.rack_size).map(|_| rng.next_u64()).collect();
                events.push((t, 2, FaultKind::RackFailure { lotteries }));
            }
        }
        if let Some((start, end)) = spec.revoke_at {
            if start < horizon && spec.revoke_frac > 0.0 {
                let mut rng = StdRng::seed_from_u64(spec.seed ^ REVOKE_STREAM);
                let lotteries = (0..REVOKE_DRAWS).map(|_| rng.next_u64()).collect();
                events.push((start, 3, FaultKind::CapacityRevoke { lotteries }));
                events.push((end.min(horizon), 4, FaultKind::CapacityRestore));
            }
        }
        if spec.tick_every > 0.0 && spec.tick_every.is_finite() {
            let mut t = spec.tick_every;
            while t < horizon {
                events.push((t, 0, FaultKind::Barrier));
                t += spec.tick_every;
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        FaultPlan {
            spec: *spec,
            events: events
                .into_iter()
                .map(|(time, _, kind)| FaultEvent { time, kind })
                .collect(),
        }
    }

    /// This plan with every [`FaultKind::ShardCrash`] removed — the
    /// *uninterrupted* reference: crashes are recovered to invisibility,
    /// so a chaos run must produce the same event log, final cost and
    /// platform fingerprint as its crash-free twin.
    pub fn without_crashes(&self) -> FaultPlan {
        FaultPlan {
            spec: self.spec,
            events: self
                .events
                .iter()
                .filter(|e| !matches!(e.kind, FaultKind::ShardCrash { .. }))
                .cloned()
                .collect(),
        }
    }

    /// Number of scheduled shard crashes.
    pub fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::ShardCrash { .. }))
            .count()
    }
}

/// Fault, recovery, retry and degradation accounting over one chaos
/// replay — all Det-class (worker-count independent).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosStats {
    /// Fault events applied (crashes + racks + revoke/restore; pure
    /// barriers excluded).
    pub faults_injected: usize,
    /// Shard crashes injected.
    pub crashes: usize,
    /// Crash recoveries completed (== `crashes` when every crash
    /// recovered).
    pub recoveries: usize,
    /// Events re-replayed from checkpoints across all recoveries.
    pub recovery_replayed: usize,
    /// Correlated rack failures applied.
    pub rack_failures: usize,
    /// Capacity revocations applied.
    pub revocations: usize,
    /// Messages dropped in transit.
    pub msgs_dropped: usize,
    /// Messages retransmitted from sender outboxes (must equal
    /// `msgs_dropped`).
    pub msgs_retransmitted: usize,
    /// Messages duplicated in transit.
    pub msgs_duplicated: usize,
    /// Duplicates discarded by `(time, shard, seq)` dedup (must equal
    /// `msgs_duplicated`).
    pub dups_discarded: usize,
    /// Messages delayed within their tick.
    pub msgs_delayed: usize,
    /// Tenants entered into the retry queue (evicted, rejected or shed).
    pub retry_enqueued: usize,
    /// Retry-queue re-admissions that committed.
    pub readmitted: usize,
    /// Retry entries dropped (attempts exhausted or deadline passed).
    pub retry_dropped: usize,
    /// Residents shed by graceful degradation.
    pub shed: usize,
    /// [`audit_platform`] violations observed (tests assert 0).
    pub audit_failures: usize,
    /// First audit violation, if any.
    pub audit_first: Option<String>,
}

/// The result of one chaos replay: the ordinary serving metrics plus the
/// fault/recovery accounting and the final platform fingerprint.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The base serving metrics (the report [`run_trace`](crate::sim::run_trace)
    /// returns).
    pub base: TraceReport,
    /// Fault/recovery/retry accounting.
    pub stats: ChaosStats,
    /// Final-state fingerprint
    /// ([`ShardedPlatform::fingerprint`](crate::shard::ShardedPlatform::fingerprint)).
    pub fingerprint: u64,
}

impl ChaosReport {
    /// `readmitted / retry_enqueued` (1 when nothing was enqueued) —
    /// the fraction of displaced tenants the retry queue brought back
    /// within its backoff horizon.
    pub fn readmission_rate(&self) -> f64 {
        if self.stats.retry_enqueued == 0 {
            1.0
        } else {
            self.stats.readmitted as f64 / self.stats.retry_enqueued as f64
        }
    }
}

/// Checks every platform invariant across the sharded tier: each
/// shard's [`LivePlatform::audit`] (live-slot assignments, no leaked
/// machines, download-ledger conservation,
/// [`verify_joint`](snsp_core::multi::verify_joint), resident index
/// equal to a from-scratch walk) plus the
/// cross-shard invariants — every resident lives on its *home* shard
/// (the routing hash) and no tenant is resident on two shards. The
/// chaos replay runs this after every injected fault.
pub fn audit_platform(sharded: &ShardedPlatform) -> Result<(), String> {
    audit_platform_located(sharded).map_err(|(_, e)| e)
}

/// [`audit_platform`], additionally naming the shard on which the
/// violation was detected — the flight recorder uses it to point at the
/// first divergent event in its dump window.
fn audit_platform_located(sharded: &ShardedPlatform) -> Result<(), (Option<usize>, String)> {
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for s in 0..sharded.shard_count() {
        let shard = sharded.shard(s);
        shard
            .audit()
            .map_err(|e| (Some(s), format!("shard {s}: {e}")))?;
        for id in shard.tenant_ids() {
            let home = sharded.route(id);
            if home != s {
                return Err((
                    Some(s),
                    format!("tenant {id} resident on shard {s} but routes to {home}"),
                ));
            }
            if !seen.insert(id.0) {
                return Err((Some(s), format!("tenant {id} resident on multiple shards")));
            }
        }
    }
    Ok(())
}

/// Ticks of trace-event history the chaos flight recorder keeps in its
/// dump window. The per-thread rings retain far more; the window bounds
/// the crash-dump artifact to the recent past that plausibly explains
/// the failure.
pub const FLIGHT_WINDOW_TICKS: u64 = 8;

/// Renders a flight-recorder crash dump: the failure `reason`/`detail`,
/// the tick it surfaced at, the retained event window, and the **first
/// divergent event** — the earliest Det-class event on the suspect
/// shard inside the window (the window head when no shard is
/// attributable, `null` when the window is empty).
pub fn flight_dump_json(
    snap: &snsp_telemetry::trace::TraceSnapshot,
    reason: &str,
    detail: &str,
    suspect_shard: Option<usize>,
    tick: u64,
) -> Json {
    let window = snap.tail_window(FLIGHT_WINDOW_TICKS);
    let event_json = |ev: &snsp_telemetry::trace::TraceEvent| {
        let (label, det) = ev.kind.describe();
        Json::obj(vec![
            ("run", Json::Int(ev.run as i64)),
            ("tick", Json::Int(ev.time.tick as i64)),
            ("shard", Json::Int(ev.time.shard as i64)),
            ("seq", Json::Int(ev.time.seq as i64)),
            ("event", Json::Str(label.to_string())),
            ("detail", Json::Str(det)),
            (
                "class",
                Json::Str(
                    match ev.class {
                        Class::Det => "det",
                        Class::Overlay => "overlay",
                    }
                    .to_string(),
                ),
            ),
        ])
    };
    let first_divergent = window
        .iter()
        .find(|ev| {
            ev.class == Class::Det && suspect_shard.is_none_or(|s| ev.time.shard as usize == s)
        })
        .or(window.first());
    Json::obj(vec![
        ("kind", Json::Str("flight".to_string())),
        ("reason", Json::Str(reason.to_string())),
        ("detail", Json::Str(detail.to_string())),
        ("tick", Json::Int(tick as i64)),
        ("window_ticks", Json::Int(FLIGHT_WINDOW_TICKS as i64)),
        ("dropped", Json::Int(snap.dropped as i64)),
        (
            "first_divergent",
            first_divergent.map_or(Json::Null, event_json),
        ),
        ("window", Json::Arr(window.iter().map(event_json).collect())),
    ])
}

/// One pending re-admission.
#[derive(Debug, Clone)]
struct RetryEntry {
    /// Earliest trace time of the next attempt.
    next: f64,
    attempts: u32,
    tenant: TenantId,
    spec: TenantSpec,
    deadline: f64,
}

struct ChaosEngine<'a> {
    trace: &'a Trace,
    config: &'a ServeConfig,
    plan: &'a FaultPlan,
    opts: ShardOptions,
    sharded: ShardedPlatform,
    coord: Coordinator,
    batches: Vec<ShardBatch>,
    latencies: Vec<Vec<f64>>,
    admitted: Vec<usize>,
    retry: Vec<RetryEntry>,
    /// Spec + deadline per tenant, recorded up front so evicted tenants
    /// can be regenerated for re-admission.
    specs: BTreeMap<u32, (TenantSpec, f64)>,
    stats: ChaosStats,
    /// Tick counter — the per-tick message-fault RNG derivation.
    tick: u64,
    reject_streak: usize,
}

impl<'a> ChaosEngine<'a> {
    fn n_shards(&self) -> usize {
        self.sharded.shard_count()
    }

    /// Drains the pending tick: replays every shard's batch in parallel,
    /// crashes (and recovers) the `crash_victims`, injects and recovers
    /// message faults, and folds the canonical message stream.
    fn flush(&mut self, crash_victims: &[usize]) {
        let all_empty = self.batches.iter().all(|b| b.events.is_empty());
        if all_empty && crash_victims.is_empty() {
            return;
        }
        self.tick += 1;
        let tick_events: u64 = self.batches.iter().map(|b| b.events.len() as u64).sum();
        snsp_telemetry::trace::record(
            Class::Det,
            self.trace.seed,
            snsp_telemetry::trace::LogicalTime::tick_start(self.tick),
            snsp_telemetry::trace::TraceEventKind::TickStart {
                events: tick_events,
            },
        );
        // Checkpoints: the victims' state at the last barrier is exactly
        // their current state (batches are in flight, not committed).
        let ckpts: Vec<(usize, LivePlatform, usize)> = crash_victims
            .iter()
            .map(|&s| (s, self.sharded.shard(s).clone(), self.admitted[s]))
            .collect();
        let n_shards = self.n_shards();
        let trace_seed = self.trace.seed;
        let config = self.config;
        let tick = self.tick;
        let (raw, pool) = {
            let cells: Vec<Mutex<(&mut LivePlatform, &ShardBatch, &mut usize)>> = self
                .sharded
                .shards_mut()
                .iter_mut()
                .zip(self.batches.iter())
                .zip(self.admitted.iter_mut())
                .map(|((live, batch), count)| Mutex::new((live, batch, count)))
                .collect();
            run_jobs_checked(n_shards, self.opts.workers, |s| {
                let mut cell = cells[s].lock().unwrap();
                let (live, batch, count) = &mut *cell;
                replay_batch(s, live, batch, trace_seed, config, count, tick)
            })
        };
        if pool.panics > 0 {
            // A worker died mid-tick: dump the flight recorder first so
            // the crash scene survives, then re-raise with `run_jobs`'s
            // own message.
            self.flight_dump(
                "pool-panic",
                "worker panicked replaying a shard batch",
                None,
            );
            panic!("{} pool job(s) panicked", pool.panics);
        }
        for b in self.batches.iter().filter(|b| !b.events.is_empty()) {
            TICK_BATCH_EVENTS.record(b.events.len() as f64);
        }
        let mut outcomes: Vec<(Vec<ShardMsg>, Vec<f64>)> = raw.into_iter().flatten().collect();
        // Crash + recover: the victim's in-flight results are lost with
        // the worker; restore the checkpoint and re-replay the batch.
        // Replay is deterministic, so the recovered messages are
        // byte-identical to the discarded ones — a recovered crash is
        // unobservable in the log, the accounting and the fingerprint.
        // (The trace layer sees the re-replayed events twice; the Det
        // stream collapses the exact duplicates, keeping only the
        // `crash`/`restore` markers recorded here.)
        for (s, ckpt, adm) in ckpts {
            crate::shard::trace_det(
                trace_seed,
                tick,
                s,
                0,
                snsp_telemetry::trace::TraceEventKind::Crash { shard: s as u64 },
            );
            *self.sharded.shard_mut(s) = ckpt;
            self.admitted[s] = adm;
            let replayed = self.batches[s].events.len();
            outcomes[s] = replay_batch(
                s,
                self.sharded.shard_mut(s),
                &self.batches[s],
                trace_seed,
                config,
                &mut self.admitted[s],
                tick,
            );
            crate::shard::trace_det(
                trace_seed,
                tick,
                s,
                0,
                snsp_telemetry::trace::TraceEventKind::Restore {
                    shard: s as u64,
                    replayed: replayed as u64,
                },
            );
            self.stats.crashes += 1;
            self.stats.recoveries += 1;
            self.stats.recovery_replayed += replayed;
            FAULT_CRASHES.incr();
            FAULT_RECOVERIES.incr();
            RECOVERY_REPLAYED.record(replayed as f64);
        }
        // Gather into the largest outbox rather than a fresh buffer: the
        // sort below makes the gather order irrelevant, and `(time, shard,
        // seq)` keys are unique, so the unstable sort needs no scratch.
        let mut msgs: Vec<ShardMsg> = Vec::new();
        for (s, (mut shard_msgs, shard_lat)) in outcomes.into_iter().enumerate() {
            if shard_msgs.capacity() > msgs.capacity() {
                std::mem::swap(&mut msgs, &mut shard_msgs);
            }
            msgs.append(&mut shard_msgs);
            self.latencies[s].extend(shard_lat);
        }
        msgs.sort_unstable_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.shard.cmp(&b.shard))
                .then(a.seq.cmp(&b.seq))
        });
        self.inject_and_recover_msgs(&mut msgs);
        let barrier_t = msgs.last().map(|m| m.time);
        for (fold_ix, msg) in msgs.into_iter().enumerate() {
            // The fold event's seq is the *global* fold index within the
            // tick (the per-shard seq is already spent by `msg_send`).
            crate::shard::trace_det(
                trace_seed,
                tick,
                msg.shard,
                fold_ix as u32,
                snsp_telemetry::trace::TraceEventKind::MsgFold {
                    msg: msg.kind.label(),
                },
            );
            match msg.kind {
                ShardMsgKind::Rejected { tenant } => {
                    self.reject_streak += 1;
                    self.enqueue_retry(tenant, msg.time);
                }
                ShardMsgKind::Admitted => self.reject_streak = 0,
                _ => {}
            }
            self.coord.apply(msg);
        }
        for b in self.batches.iter_mut() {
            b.events.clear();
        }
        // Sustained pressure ⇒ shed (at the barrier, so the decision is
        // a pure fold of the tick's canonical message stream).
        if let Some(t) = barrier_t {
            self.degrade_if_pressed(t);
        }
        snsp_telemetry::trace::record(
            Class::Det,
            self.trace.seed,
            snsp_telemetry::trace::LogicalTime::tick_end(self.tick),
            snsp_telemetry::trace::TraceEventKind::TickEnd,
        );
    }

    /// Injects transport faults into the tick's canonical message stream
    /// and runs the barrier recovery protocol. The recovered stream is
    /// provably the original: drops are retransmitted from the retained
    /// outbox, duplicates carry an already-seen `(time, shard, seq)` key
    /// and are discarded, delays reorder *within* the tick and the
    /// barrier re-sorts canonically anyway.
    fn inject_and_recover_msgs(&mut self, msgs: &mut Vec<ShardMsg>) {
        let spec = &self.plan.spec;
        let any = spec.msg_drop + spec.msg_dup + spec.msg_delay;
        if any <= 0.0 || msgs.is_empty() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(
            spec.seed ^ MSG_STREAM ^ self.tick.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        // Senders retain the tick's outbox until the barrier acks it.
        let outbox: Vec<ShardMsg> = msgs.clone();
        let mut arrived: Vec<ShardMsg> = Vec::new();
        let mut late: Vec<ShardMsg> = Vec::new();
        for m in msgs.iter() {
            let u: f64 = rng.gen_range(0.0..1.0);
            if u < spec.msg_drop {
                self.stats.msgs_dropped += 1;
                MSG_DROPPED.incr();
                continue; // lost in transit
            }
            if u < spec.msg_drop + spec.msg_dup {
                self.stats.msgs_duplicated += 1;
                MSG_DUPLICATED.incr();
                arrived.push(m.clone());
                arrived.push(m.clone());
                continue;
            }
            if u < spec.msg_drop + spec.msg_dup + spec.msg_delay {
                self.stats.msgs_delayed += 1;
                MSG_DELAYED.incr();
                late.push(m.clone()); // arrives at the end of the tick
                continue;
            }
            arrived.push(m.clone());
        }
        arrived.extend(late);
        // Barrier recovery. 1) canonical re-sort (absorbs delays),
        // 2) dedup by the unique (time, shard, seq) key (absorbs dups),
        // 3) gap detection against the outbox + retransmit (absorbs
        // drops).
        let key = |m: &ShardMsg| (m.time.to_bits(), m.shard, m.seq);
        arrived.sort_by_key(key);
        let before = arrived.len();
        arrived.dedup_by(|a, b| key(a) == key(b));
        let discarded = before - arrived.len();
        self.stats.dups_discarded += discarded;
        MSG_DUPS_DISCARDED.add(discarded as u64);
        let have: BTreeSet<(u64, usize, u32)> = arrived.iter().map(&key).collect();
        for m in &outbox {
            if !have.contains(&key(m)) {
                self.stats.msgs_retransmitted += 1;
                MSG_RETRANSMITTED.incr();
                arrived.push(m.clone());
            }
        }
        arrived.sort_by_key(key);
        debug_assert_eq!(arrived.len(), outbox.len(), "recovery restores the stream");
        *msgs = arrived;
    }

    /// Refreshes the coordinator's per-shard accounting column after an
    /// out-of-band mutation (re-admission, shed) at time `t`.
    fn sync_column(&mut self, t: f64, s: usize) {
        let shard = self.sharded.shard(s);
        let (used, speed) = shard.cpu_load();
        self.coord.advance(t);
        self.coord.cost[s] = shard.cost();
        self.coord.procs[s] = shard.proc_count();
        self.coord.used[s] = used;
        self.coord.speed[s] = speed;
        let total_cost: u64 = self.coord.cost.iter().sum();
        let total_procs: usize = self.coord.procs.iter().sum();
        self.coord.report.peak_cost = self.coord.report.peak_cost.max(total_cost);
        self.coord.report.peak_procs = self.coord.report.peak_procs.max(total_procs);
    }

    /// Enters a displaced (evicted, rejected, or shed) tenant into the
    /// retry queue, if retries are enabled and its deadline has not
    /// passed.
    fn enqueue_retry(&mut self, tenant: TenantId, t: f64) {
        if self.plan.spec.retry.max_attempts == 0 {
            return;
        }
        let Some(&(spec, deadline)) = self.specs.get(&tenant.0) else {
            return;
        };
        if deadline <= t || self.retry.iter().any(|e| e.tenant == tenant) {
            return;
        }
        self.stats.retry_enqueued += 1;
        RETRY_ENQUEUED.incr();
        self.retry.push(RetryEntry {
            next: t + self.plan.spec.retry.base,
            attempts: 0,
            tenant,
            spec,
            deadline,
        });
    }

    /// Runs every due retry at barrier time `t`, in deterministic
    /// `(next, tenant)` order: re-admit on the home shard, or back off
    /// exponentially until the attempt budget or the deadline runs out.
    fn drain_retries(&mut self, t: f64) {
        if self.retry.is_empty() {
            return;
        }
        let policy = self.plan.spec.retry;
        let mut entries = std::mem::take(&mut self.retry);
        entries.sort_by(|a, b| a.next.total_cmp(&b.next).then(a.tenant.0.cmp(&b.tenant.0)));
        for e in entries {
            if e.next > t {
                self.retry.push(e);
                continue;
            }
            if t >= e.deadline {
                self.stats.retry_dropped += 1;
                RETRY_DROPPED.incr();
                self.coord
                    .report
                    .log
                    .push(format!("{t:.6} retry-expire t{}", e.tenant));
                continue;
            }
            let s = self.sharded.route(e.tenant);
            if self.sharded.shard(s).tenant(e.tenant).is_some() {
                continue; // already resident again (defensive; never expected)
            }
            let seed = self.trace.seed ^ (e.tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
            match self.sharded.admit_spec(
                e.tenant,
                &e.spec,
                self.config.heuristic.as_ref(),
                seed,
                &self.config.opts,
            ) {
                Ok(_) => {
                    self.stats.readmitted += 1;
                    RETRY_READMITTED.incr();
                    crate::shard::trace_det(
                        self.trace.seed,
                        self.tick,
                        s,
                        e.attempts,
                        snsp_telemetry::trace::TraceEventKind::RetryAdmit {
                            tenant: e.tenant.0 as u64,
                            attempt: (e.attempts + 1) as u64,
                        },
                    );
                    self.sync_column(t, s);
                    let line = format!(
                        "{t:.6} s{s} readmit t{} attempt={} procs={} cost={}",
                        e.tenant,
                        e.attempts + 1,
                        self.sharded.shard(s).proc_count(),
                        self.sharded.shard(s).cost()
                    );
                    self.coord.report.log.push(line);
                }
                Err(_) => {
                    let attempts = e.attempts + 1;
                    if attempts >= policy.max_attempts {
                        self.stats.retry_dropped += 1;
                        RETRY_DROPPED.incr();
                        self.coord.report.log.push(format!(
                            "{t:.6} retry-drop t{} attempts={attempts}",
                            e.tenant
                        ));
                    } else {
                        self.retry.push(RetryEntry {
                            next: t + policy.base * policy.factor.powi(attempts as i32),
                            attempts,
                            ..e
                        });
                    }
                }
            }
        }
    }

    /// Sheds the lowest-value residents if the rejection streak crossed
    /// the pressure threshold. Shed tenants re-enter via the retry
    /// queue.
    fn degrade_if_pressed(&mut self, t: f64) {
        let policy = self.plan.spec.degrade;
        if policy.pressure == 0 || self.reject_streak < policy.pressure {
            return;
        }
        for shed_ix in 0..policy.max_shed {
            let mut victim: Option<(f64, u32, usize)> = None;
            for s in 0..self.n_shards() {
                let shard = self.sharded.shard(s);
                for id in shard.tenant_ids() {
                    let v = shard.tenant_value(id).unwrap_or(0.0);
                    let better = match victim {
                        None => true,
                        Some((bv, bid, _)) => v < bv || (v == bv && id.0 < bid),
                    };
                    if better {
                        victim = Some((v, id.0, s));
                    }
                }
            }
            let Some((value, id, s)) = victim else {
                break;
            };
            let tenant = TenantId(id);
            crate::shard::trace_det(
                self.trace.seed,
                self.tick,
                s,
                shed_ix as u32,
                snsp_telemetry::trace::TraceEventKind::Shed { tenant: id as u64 },
            );
            self.sharded.shard_mut(s).shed(tenant);
            self.stats.shed += 1;
            DEGRADE_SHED.incr();
            self.sync_column(t, s);
            self.coord.report.log.push(format!(
                "{t:.6} s{s} shed t{tenant} value={value:.3} procs={} cost={}",
                self.sharded.shard(s).proc_count(),
                self.sharded.shard(s).cost()
            ));
            self.enqueue_retry(tenant, t);
        }
        self.reject_streak = 0;
    }

    /// Resolves a global slot-kill lottery (trace failures, rack bursts
    /// and revocation kills all share this path), folding the Failed /
    /// Evicted messages and queueing evicted tenants for retry. `label`
    /// is the log verb ("fail" for trace failures).
    fn fail_global(&mut self, t: f64, lottery: u64, label: &str) {
        let Some((s, out)) = self.sharded.fail(lottery) else {
            return;
        };
        let victim = out.victim.expect("fail_slot always names its victim");
        let shard = self.sharded.shard(s);
        let (used, speed) = shard.cpu_load();
        let cost = shard.cost();
        let procs = shard.proc_count();
        let evicted: Vec<String> = out.evicted.iter().map(|id| format!("t{id}")).collect();
        self.coord.apply(ShardMsg {
            time: t,
            shard: s,
            seq: 0,
            kind: ShardMsgKind::Failed,
            cost,
            procs,
            used,
            speed,
            line: format!(
                "{t:.6} s{s} {label} p{victim} remapped={} evicted=[{}] procs={procs} cost={cost}",
                out.remapped.len(),
                evicted.join(","),
            ),
        });
        for (i, &tenant) in out.evicted.iter().enumerate() {
            crate::shard::trace_det(
                self.trace.seed,
                self.tick,
                s,
                i as u32,
                snsp_telemetry::trace::TraceEventKind::Evict {
                    tenant: tenant.0 as u64,
                },
            );
            self.coord.apply(ShardMsg {
                time: t,
                shard: s,
                seq: 1,
                kind: ShardMsgKind::Evicted,
                cost,
                procs,
                used,
                speed,
                line: String::new(),
            });
        }
        for &tenant in &out.evicted {
            self.enqueue_retry(tenant, t);
        }
    }

    /// Audits the whole tier, counting (never panicking on) violations —
    /// the report surfaces them and the tests assert zero. A violation
    /// also triggers a flight-recorder dump pointing at the suspect
    /// shard's first event in the retained window.
    fn audit_now(&mut self, t: f64) {
        if let Err((shard, e)) = audit_platform_located(&self.sharded) {
            self.stats.audit_failures += 1;
            AUDIT_FAILURES.incr();
            if self.stats.audit_first.is_none() {
                self.stats.audit_first = Some(format!("{t:.6}: {e}"));
            }
            self.flight_dump("audit-failure", &e, shard);
        }
    }

    /// Dumps the flight-recorder window — the last
    /// [`FLIGHT_WINDOW_TICKS`] ticks of recorded trace events — as a
    /// crash-dump JSON artifact naming the first divergent event (the
    /// earliest Det event on the suspect shard inside the window, or the
    /// window head when no shard is attributable). Written to the path
    /// configured via
    /// [`set_flight_path`](snsp_telemetry::trace::set_flight_path), to
    /// stderr otherwise; a no-op while tracing is inactive (nothing was
    /// recorded, so there is nothing to dump).
    fn flight_dump(&mut self, reason: &str, detail: &str, suspect_shard: Option<usize>) {
        if !snsp_telemetry::trace::active() {
            return;
        }
        let snap = snsp_telemetry::trace::snapshot_now();
        let doc = flight_dump_json(&snap, reason, detail, suspect_shard, self.tick);
        let text = doc.render();
        match snsp_telemetry::trace::flight_path() {
            Some(path) => {
                if std::fs::write(&path, &text).is_ok() {
                    self.coord
                        .report
                        .log
                        .push(format!("flight-dump {reason} -> {}", path.display()));
                }
            }
            None => eprintln!("flight-dump {reason}:\n{text}"),
        }
    }

    /// Applies one scheduled fault: flush to the barrier, inject, audit,
    /// then drain due retries.
    fn apply_fault(&mut self, ev: &FaultEvent) {
        let t = ev.time;
        match &ev.kind {
            FaultKind::Barrier => {
                self.flush(&[]);
            }
            FaultKind::ShardCrash { draw } => {
                self.stats.faults_injected += 1;
                FAULT_INJECTED.incr();
                let victim = (*draw % self.n_shards() as u64) as usize;
                self.flush(&[victim]);
            }
            FaultKind::RackFailure { lotteries } => {
                self.stats.faults_injected += 1;
                FAULT_INJECTED.incr();
                self.flush(&[]);
                self.stats.rack_failures += 1;
                FAULT_RACKS.incr();
                for &lottery in lotteries {
                    self.fail_global(t, lottery, "rack-fail");
                }
            }
            FaultKind::CapacityRevoke { lotteries } => {
                self.stats.faults_injected += 1;
                FAULT_INJECTED.incr();
                self.flush(&[]);
                self.stats.revocations += 1;
                FAULT_REVOCATIONS.incr();
                let live = self.sharded.proc_count();
                let kills = ((self.plan.spec.revoke_frac * live as f64).ceil() as usize).min(live);
                for &lottery in lotteries.iter().take(kills) {
                    self.fail_global(t, lottery, "revoke-kill");
                }
                for s in 0..self.n_shards() {
                    self.sharded.shard_mut(s).set_purchase_freeze(true);
                }
                self.coord.report.log.push(format!(
                    "{t:.6} revoke frac={:.3} killed={kills} frozen",
                    self.plan.spec.revoke_frac
                ));
            }
            FaultKind::CapacityRestore => {
                self.stats.faults_injected += 1;
                FAULT_INJECTED.incr();
                self.flush(&[]);
                for s in 0..self.n_shards() {
                    self.sharded.shard_mut(s).set_purchase_freeze(false);
                }
                self.coord.report.log.push(format!("{t:.6} restore thawed"));
            }
        }
        self.audit_now(t);
        self.drain_retries(t);
    }
}

/// [`run_trace_chaos`], also handing back the final
/// [`ShardedPlatform`] (fingerprint/snapshot comparisons). This is the
/// crate's one replay engine; [`run_trace`](crate::sim::run_trace) and
/// [`run_serve_campaign`](crate::campaign::run_serve_campaign) call it
/// with the empty plan.
pub fn replay_trace_chaos(
    trace: &Trace,
    config: &ServeConfig,
    opts: &ShardOptions,
    plan: &FaultPlan,
) -> (ChaosReport, ShardedPlatform) {
    let opts = opts.clamped();
    let (objects, platform) = trace_environment(&trace.params, trace.seed);
    let sharded = ShardedPlatform::new(objects, platform, opts.shards);
    let n_shards = sharded.shard_count();
    let mut specs: BTreeMap<u32, (TenantSpec, f64)> = BTreeMap::new();
    for ev in &trace.events {
        if let TraceEvent::Arrive {
            tenant,
            spec,
            deadline,
        } = ev.event
        {
            specs.insert(tenant.0, (spec, deadline));
        }
    }
    let mut eng = ChaosEngine {
        trace,
        config,
        plan,
        opts,
        sharded,
        coord: Coordinator::new(n_shards),
        batches: (0..n_shards).map(|_| ShardBatch::default()).collect(),
        latencies: vec![Vec::new(); n_shards],
        admitted: vec![0; n_shards],
        retry: Vec::new(),
        specs,
        stats: ChaosStats::default(),
        tick: 0,
        reject_streak: 0,
    };

    let mut f = 0usize;
    for ev in &trace.events {
        while f < plan.events.len() && plan.events[f].time <= ev.time {
            let fe = plan.events[f].clone();
            eng.apply_fault(&fe);
            f += 1;
        }
        match ev.event {
            TraceEvent::Arrive { tenant, .. } | TraceEvent::Depart { tenant } => {
                let s = eng.sharded.route(tenant);
                eng.batches[s].events.push(*ev);
            }
            TraceEvent::ProcessorFail { lottery } => {
                eng.flush(&[]);
                eng.fail_global(ev.time, lottery, "fail");
                eng.audit_now(ev.time);
                eng.drain_retries(ev.time);
            }
        }
    }
    let horizon = trace.params.horizon;
    while f < plan.events.len() && plan.events[f].time <= horizon {
        let fe = plan.events[f].clone();
        eng.apply_fault(&fe);
        f += 1;
    }
    eng.flush(&[]);
    eng.drain_retries(horizon);

    if config.final_validation {
        for s in 0..n_shards {
            let mut slo_log = Vec::new();
            let (checks, violations) =
                validate_residents(eng.sharded.shard(s), config, horizon, &mut slo_log);
            eng.coord.report.slo_checks += checks;
            eng.coord.report.slo_violations += violations;
            eng.coord.report.log.extend(slo_log);
        }
    }
    eng.coord.advance(horizon);
    for &count in &eng.admitted {
        SHARD_ADMITTED.record(count as f64);
    }
    // Guarded: `peak_rss_kb` reads `/proc` and must stay off the
    // disabled path (the gauge's own check runs after the argument).
    if snsp_telemetry::enabled() {
        SERVE_PEAK_RSS.record_max(snsp_telemetry::peak_rss_kb());
    }

    let mut report = eng.coord.report;
    report.final_cost = eng.sharded.cost();
    report.mean_utilization = if horizon > 0.0 {
        report.mean_utilization / horizon
    } else {
        0.0
    };
    report.admit_latencies_us = eng.latencies.into_iter().flatten().collect();
    for &us in &report.admit_latencies_us {
        SERVE_ADMIT_LATENCY.record(us);
    }
    let fingerprint = eng.sharded.fingerprint();
    (
        ChaosReport {
            base: report,
            stats: eng.stats,
            fingerprint,
        },
        eng.sharded,
    )
}

/// Replays one trace through the sharded tier under a fault plan: every
/// fault is injected at its scheduled time, crashes recover from tick
/// checkpoints, message faults recover at barriers, and the retry queue
/// and degradation policy run at every barrier. Under the empty plan
/// ([`FaultPlan::default()`]) this is the plain sharded replay.
pub fn run_trace_chaos(
    trace: &Trace,
    config: &ServeConfig,
    opts: &ShardOptions,
    plan: &FaultPlan,
) -> ChaosReport {
    replay_trace_chaos(trace, config, opts, plan).0
}

/// One labelled chaos scenario: a trace grid point plus the fault spec
/// injected into its replays.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Row label in tables and JSON.
    pub label: String,
    /// Trace generator parameters.
    pub params: TraceParams,
    /// Faults injected into every replay of this point.
    pub fault: FaultSpec,
}

impl ChaosPoint {
    /// A labelled point.
    pub fn new(label: impl Into<String>, params: TraceParams, fault: FaultSpec) -> Self {
        ChaosPoint {
            label: label.into(),
            params,
            fault,
        }
    }
}

/// A grid of chaos scenarios: `points × seeds` fault-injected sharded
/// replays on the sweep pool, each crash-bearing run shadowed by its
/// crash-free reference for the fingerprint verdict.
pub struct ChaosCampaign {
    /// Campaign identifier.
    pub id: String,
    /// Scenario points (grid rows).
    pub points: Vec<ChaosPoint>,
    /// Seeds `0..seeds` replayed at every point (each seed derives its
    /// own fault-stream seed, so faults vary across seeds too).
    pub seeds: u64,
    /// Serving policy shared by every replay.
    pub config: ServeConfig,
    /// Worker threads; `None` uses available parallelism.
    pub workers: Option<usize>,
    /// Tenant shards per replay (clamped to at least 1).
    pub shards: usize,
    /// Worker threads driving each replay's per-tick batches.
    pub replay_workers: usize,
}

impl ChaosCampaign {
    /// A campaign with the default serving policy, 2 shards, serial
    /// replay workers.
    pub fn new(id: impl Into<String>, points: Vec<ChaosPoint>, seeds: u64) -> Self {
        ChaosCampaign {
            id: id.into(),
            points,
            seeds,
            config: ServeConfig::default(),
            workers: None,
            shards: 2,
            replay_workers: 1,
        }
    }

    /// Overrides the serving policy.
    pub fn with_config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Pins the campaign worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets shard count and per-replay tick workers (both clamped to at
    /// least 1). Shard count changes packing (part of the scenario);
    /// replay workers never change results.
    pub fn with_shards(mut self, shards: usize, replay_workers: usize) -> Self {
        self.shards = shards.max(1);
        self.replay_workers = replay_workers.max(1);
        self
    }

    fn resolved_workers(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
    }
}

/// One chaos replay's outcome plus its crash-recovery verdict.
struct ChaosRun {
    report: ChaosReport,
    /// `None` when the plan scheduled no crashes; otherwise whether the
    /// run's event log and final fingerprint equal the crash-free
    /// reference replay's.
    crash_match: Option<bool>,
}

/// Aggregated fault-injected replays of one scenario point.
#[derive(Debug, Clone)]
pub struct ChaosPointReport {
    /// The point's label.
    pub label: String,
    /// Replays aggregated (= campaign seeds).
    pub traces: usize,
    /// Summed arrivals over all replays.
    pub arrivals: usize,
    /// Summed admissions.
    pub admitted: usize,
    /// Summed rejections.
    pub rejected: usize,
    /// Summed departures.
    pub departed: usize,
    /// Summed evictions.
    pub evicted: usize,
    /// Summed effective processor failures (trace + rack + revocation).
    pub failures: usize,
    /// Summed fault/recovery/retry accounting over all replays.
    pub stats: ChaosStats,
    /// Whether every crash-bearing replay matched its crash-free
    /// reference (`None` when no replay scheduled a crash).
    pub crash_fingerprint_match: Option<bool>,
    /// Mean end-of-trace cost per replay.
    pub mean_final_cost: f64,
    /// Per-seed log digests folded in seed order.
    pub log_hash: u64,
}

impl ChaosPointReport {
    /// `admitted / arrivals` over all replays.
    pub fn admission_rate(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.admitted as f64 / self.arrivals as f64
        }
    }

    /// `readmitted / retry_enqueued` over all replays (1 when nothing
    /// was enqueued).
    pub fn readmission_rate(&self) -> f64 {
        if self.stats.retry_enqueued == 0 {
            1.0
        } else {
            self.stats.readmitted as f64 / self.stats.retry_enqueued as f64
        }
    }

    fn from_runs(label: &str, runs: &[ChaosRun]) -> Self {
        let n = runs.len().max(1) as f64;
        let mut hash = FNV_OFFSET;
        let mut stats = ChaosStats::default();
        for r in runs {
            hash = fnv1a(hash, r.report.base.log_hash().to_be_bytes());
            let s = &r.report.stats;
            stats.faults_injected += s.faults_injected;
            stats.crashes += s.crashes;
            stats.recoveries += s.recoveries;
            stats.recovery_replayed += s.recovery_replayed;
            stats.rack_failures += s.rack_failures;
            stats.revocations += s.revocations;
            stats.msgs_dropped += s.msgs_dropped;
            stats.msgs_retransmitted += s.msgs_retransmitted;
            stats.msgs_duplicated += s.msgs_duplicated;
            stats.dups_discarded += s.dups_discarded;
            stats.msgs_delayed += s.msgs_delayed;
            stats.retry_enqueued += s.retry_enqueued;
            stats.readmitted += s.readmitted;
            stats.retry_dropped += s.retry_dropped;
            stats.shed += s.shed;
            stats.audit_failures += s.audit_failures;
            if stats.audit_first.is_none() {
                stats.audit_first = s.audit_first.clone();
            }
        }
        let verdicts: Vec<bool> = runs.iter().filter_map(|r| r.crash_match).collect();
        ChaosPointReport {
            label: label.to_string(),
            traces: runs.len(),
            arrivals: runs.iter().map(|r| r.report.base.arrivals).sum(),
            admitted: runs.iter().map(|r| r.report.base.admitted).sum(),
            rejected: runs.iter().map(|r| r.report.base.rejected).sum(),
            departed: runs.iter().map(|r| r.report.base.departed).sum(),
            evicted: runs.iter().map(|r| r.report.base.evicted).sum(),
            failures: runs.iter().map(|r| r.report.base.failures).sum(),
            stats,
            crash_fingerprint_match: if verdicts.is_empty() {
                None
            } else {
                Some(verdicts.iter().all(|&v| v))
            },
            mean_final_cost: runs
                .iter()
                .map(|r| r.report.base.final_cost as f64)
                .sum::<f64>()
                / n,
            log_hash: hash,
        }
    }

    fn to_json(&self) -> Json {
        let s = &self.stats;
        Json::obj(vec![
            ("label", Json::Str(self.label.clone())),
            ("traces", Json::Int(self.traces as i64)),
            ("arrivals", Json::Int(self.arrivals as i64)),
            ("admitted", Json::Int(self.admitted as i64)),
            ("rejected", Json::Int(self.rejected as i64)),
            ("departed", Json::Int(self.departed as i64)),
            ("evicted", Json::Int(self.evicted as i64)),
            ("failures", Json::Int(self.failures as i64)),
            ("admission_rate", Json::Num(self.admission_rate())),
            ("faults_injected", Json::Int(s.faults_injected as i64)),
            ("crashes", Json::Int(s.crashes as i64)),
            ("recoveries", Json::Int(s.recoveries as i64)),
            ("rack_failures", Json::Int(s.rack_failures as i64)),
            ("revocations", Json::Int(s.revocations as i64)),
            ("msgs_dropped", Json::Int(s.msgs_dropped as i64)),
            ("msgs_retransmitted", Json::Int(s.msgs_retransmitted as i64)),
            ("msgs_duplicated", Json::Int(s.msgs_duplicated as i64)),
            ("dups_discarded", Json::Int(s.dups_discarded as i64)),
            ("msgs_delayed", Json::Int(s.msgs_delayed as i64)),
            ("retry_enqueued", Json::Int(s.retry_enqueued as i64)),
            ("readmitted", Json::Int(s.readmitted as i64)),
            ("retry_dropped", Json::Int(s.retry_dropped as i64)),
            ("shed", Json::Int(s.shed as i64)),
            ("readmission_rate", Json::Num(self.readmission_rate())),
            (
                "crash_fingerprint_match",
                match self.crash_fingerprint_match {
                    None => Json::Null,
                    Some(v) => Json::Bool(v),
                },
            ),
            ("audit_failures", Json::Int(s.audit_failures as i64)),
            ("mean_final_cost", Json::Num(self.mean_final_cost)),
            ("log_hash", Json::Str(format!("{:016x}", self.log_hash))),
        ])
    }
}

fn fault_config_json(f: &FaultSpec) -> Json {
    Json::obj(vec![
        ("seed", Json::Int(f.seed as i64)),
        ("crash_rate", Json::Num(f.crash_rate)),
        ("rack_rate", Json::Num(f.rack_rate)),
        ("rack_size", Json::Int(f.rack_size as i64)),
        ("msg_drop", Json::Num(f.msg_drop)),
        ("msg_dup", Json::Num(f.msg_dup)),
        ("msg_delay", Json::Num(f.msg_delay)),
        (
            "revoke",
            match f.revoke_at {
                None => Json::Null,
                Some((start, end)) => Json::obj(vec![
                    ("start", Json::Num(start)),
                    ("end", Json::Num(end)),
                    ("frac", Json::Num(f.revoke_frac)),
                ]),
            },
        ),
        ("tick_every", Json::Num(f.tick_every)),
        (
            "retry",
            Json::obj(vec![
                ("base", Json::Num(f.retry.base)),
                ("factor", Json::Num(f.retry.factor)),
                ("max_attempts", Json::Int(f.retry.max_attempts as i64)),
            ]),
        ),
        (
            "degrade",
            Json::obj(vec![
                ("pressure", Json::Int(f.degrade.pressure as i64)),
                ("max_shed", Json::Int(f.degrade.max_shed as i64)),
            ]),
        ),
    ])
}

/// The complete result of one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosCampaignReport {
    /// Campaign identifier.
    pub campaign: String,
    /// Seeds per point.
    pub seeds: u64,
    /// SLO bar echoed from the config.
    pub slo_frac: f64,
    /// Tenant shards per replay.
    pub shards: usize,
    /// Replay workers per replay (wall-clock-only knob).
    pub replay_workers: usize,
    /// The scenario grid, echoed for reproducibility.
    pub config_points: Vec<ChaosPoint>,
    /// Per-point results, in grid order.
    pub points: Vec<ChaosPointReport>,
    /// Wall-clock phases (never part of stable output).
    pub timing: Option<PhaseTiming>,
}

impl ChaosCampaignReport {
    /// Serializes schema v6 (`kind: "chaos"`). With
    /// `include_timing = false` the output is the *stable* form:
    /// byte-identical at every campaign and replay worker count (every
    /// column is Det-class — a pure function of traces, fault plans and
    /// config).
    pub fn to_json(&self, include_timing: bool) -> Json {
        let mut pairs = vec![
            (
                "schema_version",
                Json::Int(snsp_sweep::CHAOS_SCHEMA_VERSION),
            ),
            (
                "generator",
                Json::Str(format!("snsp-serve {}", env!("CARGO_PKG_VERSION"))),
            ),
            ("kind", Json::Str("chaos".to_string())),
            ("campaign", Json::Str(self.campaign.clone())),
            (
                "config",
                Json::obj(vec![
                    ("seeds", Json::Int(self.seeds as i64)),
                    ("slo_frac", Json::Num(self.slo_frac)),
                    ("shards", Json::Int(self.shards as i64)),
                    (
                        "points",
                        Json::Arr(
                            self.config_points
                                .iter()
                                .map(|p| {
                                    // The serve point echo plus the fault spec.
                                    let base = point_config_json(&ServePoint::new(
                                        p.label.clone(),
                                        p.params,
                                    ));
                                    match base {
                                        Json::Obj(mut pairs) => {
                                            pairs.push((
                                                "fault".to_string(),
                                                fault_config_json(&p.fault),
                                            ));
                                            Json::Obj(pairs)
                                        }
                                        other => other,
                                    }
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "results",
                Json::Arr(self.points.iter().map(ChaosPointReport::to_json).collect()),
            ),
        ];
        if include_timing {
            if let Some(t) = &self.timing {
                pairs.push((
                    "timing",
                    Json::obj(vec![
                        ("workers", Json::Int(t.workers as i64)),
                        ("replay_workers", Json::Int(self.replay_workers as i64)),
                        ("jobs", Json::Int(t.jobs as i64)),
                        ("flatten_s", Json::Num(t.flatten_s)),
                        ("run_s", Json::Num(t.run_s)),
                        ("aggregate_s", Json::Num(t.aggregate_s)),
                        ("total_s", Json::Num(t.total_s)),
                    ]),
                ));
            }
        }
        Json::obj(pairs)
    }

    /// [`to_json`](Self::to_json) rendered to pretty-printed text.
    pub fn render_json(&self, include_timing: bool) -> String {
        self.to_json(include_timing).render()
    }
}

/// Runs the chaos campaign: `points × seeds` fault-injected replays on
/// the sweep pool, aggregated in grid order. Every replay whose plan
/// schedules at least one crash is shadowed by a crash-free reference
/// replay of the same plan, and the pair's event logs and final
/// fingerprints must agree for `crash_fingerprint_match` to hold.
pub fn run_chaos_campaign(campaign: &ChaosCampaign) -> ChaosCampaignReport {
    let t0 = Instant::now();
    let n_points = campaign.points.len();
    let n_seeds = campaign.seeds as usize;
    let total_jobs = n_points * n_seeds;
    let workers = campaign.resolved_workers();
    let flatten_s = t0.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let shard_opts = ShardOptions {
        shards: campaign.shards.max(1),
        workers: campaign.replay_workers.max(1),
    };
    let runs: Vec<ChaosRun> = run_jobs(total_jobs, workers, |job| {
        let point = &campaign.points[job / n_seeds];
        let seed = (job % n_seeds) as u64;
        let trace = generate_trace(&point.params, seed);
        // Each trace seed draws its own fault streams, same stride rule
        // as per-tenant admission seeds.
        let mut fault = point.fault;
        fault.seed ^= (seed + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
        let plan = FaultPlan::instantiate(&fault, point.params.horizon);
        let (report, state) = replay_trace_chaos(&trace, &campaign.config, &shard_opts, &plan);
        let crash_match = if plan.crash_count() > 0 {
            let (reference, ref_state) = replay_trace_chaos(
                &trace,
                &campaign.config,
                &shard_opts,
                &plan.without_crashes(),
            );
            Some(
                report.base.log == reference.base.log
                    && state.fingerprint() == ref_state.fingerprint(),
            )
        } else {
            None
        };
        ChaosRun {
            report,
            crash_match,
        }
    });
    let run_s = t_run.elapsed().as_secs_f64();

    let t_agg = Instant::now();
    let points: Vec<ChaosPointReport> = campaign
        .points
        .iter()
        .enumerate()
        .map(|(p, point)| {
            ChaosPointReport::from_runs(&point.label, &runs[p * n_seeds..(p + 1) * n_seeds])
        })
        .collect();
    let aggregate_s = t_agg.elapsed().as_secs_f64();

    ChaosCampaignReport {
        campaign: campaign.id.clone(),
        seeds: campaign.seeds,
        slo_frac: campaign.config.slo_frac,
        shards: shard_opts.shards,
        replay_workers: shard_opts.workers,
        config_points: campaign.points.clone(),
        points,
        timing: Some(PhaseTiming {
            workers,
            jobs: total_jobs,
            flatten_s,
            run_s,
            aggregate_s,
            total_s: t0.elapsed().as_secs_f64(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snsp_gen::{generate_trace, TraceParams};

    fn trace(seed: u64) -> Trace {
        generate_trace(
            &TraceParams::poisson(0.6, 4.0, 25.0).with_failures(0.08),
            seed,
        )
    }

    #[test]
    fn non_finite_rates_schedule_nothing_instead_of_hanging() {
        // An infinite rate draws zero-length gaps: without the guard the
        // schedule would never pass the horizon.
        let spec = FaultSpec::seeded(3)
            .with_crashes(f64::INFINITY)
            .with_racks(f64::INFINITY, 2)
            .with_ticks(f64::NAN);
        assert!(FaultPlan::instantiate(&spec, 25.0).events.is_empty());
        let finite = FaultPlan::instantiate(&spec.with_crashes(0.2), 25.0);
        assert!(finite.crash_count() > 0, "finite streams still draw");
    }

    #[test]
    fn plan_instantiation_is_deterministic_and_seed_sensitive() {
        let spec = FaultSpec::seeded(7)
            .with_crashes(0.2)
            .with_racks(0.05, 3)
            .with_revocation(8.0, 14.0, 0.4)
            .with_ticks(5.0);
        let a = FaultPlan::instantiate(&spec, 25.0);
        let b = FaultPlan::instantiate(&spec, 25.0);
        assert_eq!(a, b, "same spec, same schedule");
        assert!(a.crash_count() > 0, "λ·T = 5 expected crashes");
        assert!(a.events.windows(2).all(|w| w[0].time <= w[1].time));
        let other = FaultPlan::instantiate(&FaultSpec { seed: 8, ..spec }, 25.0);
        assert_ne!(a, other, "different seed, different schedule");
        // Stripping crashes keeps everything else.
        let clean = a.without_crashes();
        assert_eq!(clean.crash_count(), 0);
        assert_eq!(
            clean.events.len(),
            a.events.len() - a.crash_count(),
            "only crashes are stripped"
        );
    }

    #[test]
    fn zero_fault_chaos_matches_the_plain_sharded_tier() {
        let trace = trace(3);
        let plan = FaultPlan::instantiate(&FaultSpec::default(), trace.params.horizon);
        assert_eq!(
            plan,
            FaultPlan::default(),
            "an all-off spec is the empty plan"
        );
        for shards in [1usize, 2, 3] {
            let opts = ShardOptions { shards, workers: 2 };
            let chaos = run_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
            assert_eq!(chaos.stats, ChaosStats::default(), "{shards} shards");
        }
    }

    #[test]
    fn crash_recovery_is_invisible_in_log_cost_and_fingerprint() {
        let trace = trace(5);
        let spec = FaultSpec::seeded(11).with_crashes(0.3).with_ticks(2.0);
        let plan = FaultPlan::instantiate(&spec, trace.params.horizon);
        assert!(plan.crash_count() >= 2, "enough crashes to mean something");
        let opts = ShardOptions {
            shards: 2,
            workers: 2,
        };
        let (chaos, state) = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
        let (clean, clean_state) = replay_trace_chaos(
            &trace,
            &ServeConfig::default(),
            &opts,
            &plan.without_crashes(),
        );
        assert_eq!(chaos.stats.crashes, plan.crash_count());
        assert_eq!(chaos.stats.recoveries, chaos.stats.crashes);
        assert_eq!(
            chaos.base.log, clean.base.log,
            "recovery must be unobservable"
        );
        assert_eq!(chaos.base.final_cost, clean.base.final_cost);
        assert_eq!(state.fingerprint(), clean_state.fingerprint());
        assert_eq!(
            chaos.stats.audit_failures, 0,
            "{:?}",
            chaos.stats.audit_first
        );
    }

    #[test]
    fn message_faults_are_fully_recovered_at_the_barrier() {
        let trace = trace(9);
        let spec = FaultSpec::seeded(13)
            .with_msg_faults(0.15, 0.1, 0.1)
            .with_ticks(3.0);
        let plan = FaultPlan::instantiate(&spec, trace.params.horizon);
        let opts = ShardOptions {
            shards: 3,
            workers: 2,
        };
        let faulty = run_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
        let clean_plan =
            FaultPlan::instantiate(&FaultSpec::seeded(13).with_ticks(3.0), trace.params.horizon);
        let clean = run_trace_chaos(&trace, &ServeConfig::default(), &opts, &clean_plan);
        assert!(faulty.stats.msgs_dropped > 0, "faults actually injected");
        assert_eq!(
            faulty.stats.msgs_retransmitted, faulty.stats.msgs_dropped,
            "every drop is retransmitted"
        );
        assert_eq!(
            faulty.stats.dups_discarded, faulty.stats.msgs_duplicated,
            "every duplicate is discarded"
        );
        assert_eq!(
            faulty.base.log, clean.base.log,
            "the fold input is unchanged"
        );
        assert_eq!(faulty.fingerprint, clean.fingerprint);
        assert_eq!(faulty.stats.audit_failures, 0);
    }

    #[test]
    fn revocation_freezes_then_retry_readmits() {
        // Heavy tenants (the platform buys real capacity), long holds
        // (deadlines outlive the freeze), a harsh mid-trace revocation,
        // retries enabled: displaced tenants must come back once
        // capacity thaws.
        let params = TraceParams::poisson(1.2, 50.0, 30.0)
            .with_tenant_ops(12, 20)
            .with_tenant_rho(8.0, 16.0);
        let trace = generate_trace(&params, 2);
        let spec = FaultSpec::seeded(21)
            .with_revocation(10.0, 14.0, 0.6)
            .with_retry(RetryPolicy::standard())
            .with_ticks(1.0);
        let plan = FaultPlan::instantiate(&spec, params.horizon);
        let opts = ShardOptions {
            shards: 2,
            workers: 2,
        };
        let report = run_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
        assert_eq!(report.stats.revocations, 1);
        assert!(
            report.stats.retry_enqueued > 0,
            "the revocation displaced tenants"
        );
        assert!(
            report.readmission_rate() >= 0.9,
            "readmission {:.2} below bar ({} of {})",
            report.readmission_rate(),
            report.stats.readmitted,
            report.stats.retry_enqueued
        );
        assert!(report.base.log.iter().any(|l| l.contains(" readmit ")));
        assert_eq!(
            report.stats.audit_failures, 0,
            "{:?}",
            report.stats.audit_first
        );
    }

    #[test]
    fn degradation_sheds_lowest_value_and_audits_clean() {
        // Tight capacity (revocation with no thaw until late), heavy
        // tenants, pressure-triggered shedding.
        let params = TraceParams::poisson(1.5, 40.0, 24.0)
            .with_tenant_ops(12, 20)
            .with_tenant_rho(2.0, 4.0);
        let trace = generate_trace(&params, 6);
        let spec = FaultSpec::seeded(17)
            .with_revocation(6.0, 22.0, 0.7)
            .with_retry(RetryPolicy::standard())
            .with_degradation(2, 1)
            .with_ticks(1.0);
        let plan = FaultPlan::instantiate(&spec, params.horizon);
        let opts = ShardOptions {
            shards: 2,
            workers: 1,
        };
        let report = run_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
        assert!(report.stats.shed > 0, "pressure must trigger shedding");
        assert!(report.base.log.iter().any(|l| l.contains(" shed ")));
        assert_eq!(
            report.stats.audit_failures, 0,
            "{:?}",
            report.stats.audit_first
        );
    }

    #[test]
    fn chaos_replay_is_worker_count_independent() {
        let trace = trace(8);
        let spec = FaultSpec::seeded(31)
            .with_crashes(0.2)
            .with_racks(0.08, 2)
            .with_msg_faults(0.1, 0.05, 0.05)
            .with_retry(RetryPolicy::standard())
            .with_ticks(2.0);
        let plan = FaultPlan::instantiate(&spec, trace.params.horizon);
        let opts1 = ShardOptions {
            shards: 3,
            workers: 1,
        };
        let (base, base_state) = replay_trace_chaos(&trace, &ServeConfig::default(), &opts1, &plan);
        for workers in [2usize, 4] {
            let opts = ShardOptions { shards: 3, workers };
            let (other, state) = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
            assert_eq!(base.base.log, other.base.log, "{workers} workers");
            assert_eq!(base.stats, other.stats);
            assert_eq!(base_state.fingerprint(), state.fingerprint());
        }
    }

    fn unit_chaos_campaign(workers: usize) -> ChaosCampaign {
        let points = vec![
            ChaosPoint::new(
                "quiet",
                TraceParams::poisson(0.4, 4.0, 15.0),
                FaultSpec::seeded(1).with_ticks(3.0),
            ),
            ChaosPoint::new(
                "crashy",
                TraceParams::poisson(0.5, 4.0, 15.0).with_failures(0.05),
                FaultSpec::seeded(2)
                    .with_crashes(0.25)
                    .with_msg_faults(0.1, 0.05, 0.05)
                    .with_retry(RetryPolicy::standard())
                    .with_ticks(2.0),
            ),
        ];
        ChaosCampaign::new("unit-chaos", points, 2)
            .with_workers(workers)
            .with_shards(2, 2)
    }

    #[test]
    fn campaign_validates_and_certifies_crash_recovery() {
        let report = run_chaos_campaign(&unit_chaos_campaign(2));
        assert_eq!(report.points.len(), 2);
        let quiet = &report.points[0];
        assert_eq!(quiet.crash_fingerprint_match, None, "no crashes scheduled");
        let crashy = &report.points[1];
        assert!(crashy.stats.crashes > 0, "the crashy point must crash");
        assert_eq!(
            crashy.crash_fingerprint_match,
            Some(true),
            "recovery must match the uninterrupted reference"
        );
        for p in &report.points {
            assert_eq!(p.admitted + p.rejected, p.arrivals);
            assert_eq!(p.stats.audit_failures, 0, "{:?}", p.stats.audit_first);
        }
        snsp_sweep::validate_chaos_report(&report.render_json(true)).expect("timed form validates");
        snsp_sweep::validate_chaos_report(&report.render_json(false))
            .expect("stable form validates");
    }

    #[test]
    fn campaign_stable_json_is_identical_at_any_worker_count() {
        let serial = run_chaos_campaign(&unit_chaos_campaign(1));
        for workers in [2usize, 4] {
            let parallel = run_chaos_campaign(&unit_chaos_campaign(workers));
            assert_eq!(
                serial.render_json(false),
                parallel.render_json(false),
                "{workers} workers diverged"
            );
        }
    }

    #[test]
    fn fault_schedule_is_shard_count_independent() {
        // The satellite pin: the *schedule* (times, kinds, draws) never
        // depends on the shard count — only replay-time routing does.
        let spec = FaultSpec::seeded(41)
            .with_crashes(0.25)
            .with_racks(0.1, 2)
            .with_revocation(5.0, 9.0, 0.3);
        let plan = FaultPlan::instantiate(&spec, 20.0);
        let trace = generate_trace(&TraceParams::poisson(0.7, 5.0, 20.0), 12);
        let mut crash_counts = Vec::new();
        for shards in [1usize, 2, 4] {
            let opts = ShardOptions { shards, workers: 2 };
            let report = run_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
            assert_eq!(
                report.stats.crashes,
                plan.crash_count(),
                "{shards} shards replay the same crash schedule"
            );
            assert_eq!(report.stats.rack_failures, 2.min(plan.events.len()));
            crash_counts.push(report.stats.crashes);
        }
        assert!(crash_counts.windows(2).all(|w| w[0] == w[1]));
    }

    /// Builds a synthetic trace snapshot spanning `ticks` ticks with one
    /// Det admit per shard per tick plus an overlay steal marker.
    fn flight_snapshot(ticks: u64, shards: u32) -> snsp_telemetry::trace::TraceSnapshot {
        use snsp_telemetry::trace::{LogicalTime, TraceEvent, TraceEventKind};
        let mut events = Vec::new();
        for tick in 1..=ticks {
            for shard in 0..shards {
                events.push(TraceEvent {
                    run: 0,
                    time: LogicalTime {
                        tick,
                        shard,
                        seq: 0,
                    },
                    class: Class::Det,
                    kind: TraceEventKind::Admit {
                        tenant: u64::from(shard),
                        new_procs: 1,
                        reused_procs: 0,
                    },
                    wall_us: 0.0,
                });
            }
            events.push(TraceEvent {
                run: 0,
                time: LogicalTime {
                    tick,
                    shard: 0,
                    seq: 1,
                },
                class: Class::Overlay,
                kind: TraceEventKind::Steal { worker: 1 },
                wall_us: 0.0,
            });
        }
        snsp_telemetry::trace::TraceSnapshot { events, dropped: 0 }
    }

    #[test]
    fn flight_dump_retains_the_window_and_names_the_first_divergent_event() {
        // 12 ticks recorded, window of FLIGHT_WINDOW_TICKS: ticks 5..=12
        // survive, and the first divergent event is the earliest Det
        // event on the suspect shard inside the window.
        let snap = flight_snapshot(12, 2);
        let doc = flight_dump_json(&snap, "audit-failure", "s1: oversubscribed", Some(1), 12);
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("flight"));
        assert_eq!(
            doc.get("reason").and_then(Json::as_str),
            Some("audit-failure")
        );
        let window = doc.get("window").and_then(Json::as_arr).expect("window");
        let ticks: Vec<i64> = window
            .iter()
            .filter_map(|e| e.get("tick").and_then(Json::as_int))
            .collect();
        assert_eq!(ticks.iter().min(), Some(&5), "oldest retained tick");
        assert_eq!(ticks.iter().max(), Some(&12));
        let first = doc.get("first_divergent").expect("divergent event");
        assert_eq!(first.get("tick").and_then(Json::as_int), Some(5));
        assert_eq!(first.get("shard").and_then(Json::as_int), Some(1));
        assert_eq!(first.get("event").and_then(Json::as_str), Some("admit"));
        assert_eq!(first.get("class").and_then(Json::as_str), Some("det"));
    }

    #[test]
    fn flight_dump_without_a_suspect_falls_back_to_the_window_head() {
        let snap = flight_snapshot(3, 2);
        let doc = flight_dump_json(&snap, "pool-panic", "worker panicked", None, 3);
        let first = doc.get("first_divergent").expect("head event");
        assert_eq!(first.get("tick").and_then(Json::as_int), Some(1));
        assert_eq!(first.get("shard").and_then(Json::as_int), Some(0));
        // An empty window degrades to null, not a panic.
        let empty = snsp_telemetry::trace::TraceSnapshot {
            events: Vec::new(),
            dropped: 0,
        };
        let doc = flight_dump_json(&empty, "audit-failure", "x", Some(0), 0);
        assert!(matches!(doc.get("first_divergent"), Some(Json::Null)));
    }
}
