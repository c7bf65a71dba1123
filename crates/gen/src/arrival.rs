//! Arrival traces for online multi-tenant serving (`snsp-serve`).
//!
//! The paper provisions one application once; an online platform sees
//! tenants *arrive and depart over time*. This module generates the
//! workload for that setting: a [`Trace`] is a time-ordered list of
//! [`TraceEvent`]s over one shared platform —
//!
//! * **Poisson arrivals** at rate λ, optionally modulated by periodic
//!   [`Burst`] windows (generated by thinning, so the inhomogeneous
//!   process is exact);
//! * **heavy-tailed holding times** (Pareto with configurable shape),
//!   emitted as explicit `Depart` events so a replay needs no clock
//!   bookkeeping;
//! * **processor failures** as an independent Poisson process; each
//!   failure carries a `lottery` draw that the serving layer maps onto a
//!   currently-live processor (the trace cannot know dynamic ids).
//!
//! Every tenant arrives with its own random operator tree (a
//! [`TenantSpec`] seed), target throughput ρ and a departure deadline;
//! all tenants share one object catalog and platform, generated by
//! [`trace_environment`] from the same trace seed. Identical
//! `(params, seed)` always reproduce the identical trace.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use snsp_core::ids::TenantId;
use snsp_core::instance::Instance;
use snsp_core::object::ObjectCatalog;
use snsp_core::platform::Platform;
use snsp_core::work::WorkModel;

use crate::params::ScenarioParams;
use crate::scenario::{generate_objects, generate_platform, TreeShape};
use crate::tree_gen::{left_deep_tree, random_tree};

/// Periodic burst modulation of the arrival rate: for `width` time units
/// out of every `period`, arrivals run at `multiplier × λ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Cycle length in trace time units.
    pub period: f64,
    /// Burst window length at the start of each cycle (`≤ period`).
    pub width: f64,
    /// Arrival-rate multiplier inside the window (`≥ 1`).
    pub multiplier: f64,
}

/// Everything describing one random trace scenario.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Baseline tenant arrival rate λ (arrivals per time unit).
    pub lambda: f64,
    /// Mean tenant holding time (time units).
    pub mean_hold: f64,
    /// Pareto shape of the holding-time distribution (`> 1`; smaller is
    /// heavier-tailed).
    pub pareto_shape: f64,
    /// Trace length: no event happens at or after `horizon`.
    pub horizon: f64,
    /// Inclusive per-tenant operator-count range.
    pub n_ops: (usize, usize),
    /// Inclusive per-tenant computation-factor range.
    pub alpha: (f64, f64),
    /// Inclusive per-tenant target-throughput range.
    pub rho: (f64, f64),
    /// Processor-failure rate (failures per time unit; 0 disables).
    pub fail_rate: f64,
    /// Optional periodic arrival bursts.
    pub burst: Option<Burst>,
    /// Shared-environment methodology (object types, sizes, frequency,
    /// servers, replication). Its `n_ops`/`alpha`/`rho` fields are unused:
    /// tenants draw their own from the ranges above.
    pub base: ScenarioParams,
}

impl TraceParams {
    /// A small plain-Poisson scenario over the paper's environment.
    pub fn poisson(lambda: f64, mean_hold: f64, horizon: f64) -> Self {
        TraceParams {
            lambda,
            mean_hold,
            pareto_shape: 2.5,
            horizon,
            n_ops: (8, 20),
            alpha: (0.9, 1.2),
            rho: (0.5, 1.5),
            fail_rate: 0.0,
            burst: None,
            base: ScenarioParams::paper(0, 1.0),
        }
    }

    /// A high-density scenario sized for 10⁵-tenant-scale traces (the
    /// sharded serve tier's target regime): the paper's environment
    /// widened to 24 data servers with 2–4 replicas per object type —
    /// so shards still see several replicas of every type after NIC
    /// partitioning — and deliberately small tenant trees (4–8
    /// operators) so per-admission work stays bounded while tenant
    /// *count* scales out. Expected arrivals ≈ `lambda · horizon`.
    pub fn heavy(lambda: f64, mean_hold: f64, horizon: f64) -> Self {
        TraceParams {
            lambda,
            mean_hold,
            pareto_shape: 2.5,
            horizon,
            n_ops: (4, 8),
            alpha: (0.9, 1.2),
            rho: (0.5, 1.5),
            fail_rate: 0.0,
            burst: None,
            base: ScenarioParams::paper(0, 1.0)
                .with_servers(24)
                .with_replicas(2, 4),
        }
    }

    /// Adds a processor-failure process at `rate`.
    pub fn with_failures(mut self, rate: f64) -> Self {
        self.fail_rate = rate;
        self
    }

    /// Adds periodic arrival bursts.
    pub fn with_burst(mut self, burst: Burst) -> Self {
        assert!(burst.width <= burst.period && burst.multiplier >= 1.0);
        self.burst = Some(burst);
        self
    }

    /// Overrides the per-tenant operator-count range.
    pub fn with_tenant_ops(mut self, lo: usize, hi: usize) -> Self {
        assert!(1 <= lo && lo <= hi);
        self.n_ops = (lo, hi);
        self
    }

    /// Overrides the per-tenant ρ range.
    pub fn with_tenant_rho(mut self, lo: f64, hi: f64) -> Self {
        assert!(0.0 < lo && lo <= hi);
        self.rho = (lo, hi);
        self
    }

    /// Instantaneous arrival rate at time `t`.
    fn rate_at(&self, t: f64) -> f64 {
        match self.burst {
            Some(b) if t.rem_euclid(b.period) < b.width => self.lambda * b.multiplier,
            _ => self.lambda,
        }
    }

    /// Upper bound on the arrival rate (the thinning envelope).
    fn rate_max(&self) -> f64 {
        self.lambda * self.burst.map_or(1.0, |b| b.multiplier)
    }
}

/// How one arriving tenant's application is generated.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Operator count of the tenant's tree.
    pub n_ops: usize,
    /// Computation factor α of the work model.
    pub alpha: f64,
    /// Target throughput ρ.
    pub rho: f64,
    /// Tree shape.
    pub shape: TreeShape,
    /// Seed of the tenant's random tree.
    pub tree_seed: u64,
}

/// One trace event.
#[derive(Debug, Clone, Copy)]
pub enum TraceEvent {
    /// A tenant arrives, asking for admission until `deadline` (its
    /// matching [`TraceEvent::Depart`] time; `horizon` if it outlives the
    /// trace).
    Arrive {
        /// The tenant's identity (dense, by arrival order).
        tenant: TenantId,
        /// Application generation recipe.
        spec: TenantSpec,
        /// Departure time.
        deadline: f64,
    },
    /// A previously-arrived tenant leaves and its capacity is reclaimed.
    Depart {
        /// The departing tenant.
        tenant: TenantId,
    },
    /// A live processor fails. `lottery` picks the victim among the
    /// processors live at replay time (`lottery % live_count`).
    ProcessorFail {
        /// Deterministic victim draw.
        lottery: u64,
    },
}

/// A timestamped [`TraceEvent`].
#[derive(Debug, Clone, Copy)]
pub struct TimedEvent {
    /// Event time in `[0, horizon)`.
    pub time: f64,
    /// The event.
    pub event: TraceEvent,
}

/// A complete arrival trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Generator parameters (echoed for reproducibility).
    pub params: TraceParams,
    /// The trace seed (also seeds [`trace_environment`]).
    pub seed: u64,
    /// Time-ordered events.
    pub events: Vec<TimedEvent>,
}

impl Trace {
    /// Number of `Arrive` events.
    pub fn arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Arrive { .. }))
            .count()
    }
}

/// Draws `Exp(rate)` via inverse CDF.
fn exp_sample<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

/// Draws a Pareto holding time with the given mean and shape.
fn pareto_hold<R: Rng + ?Sized>(rng: &mut R, mean: f64, shape: f64) -> f64 {
    let scale = mean * (shape - 1.0) / shape; // x_m so that E = mean
    let u: f64 = rng.gen_range(0.0..1.0);
    scale * (1.0 - u).powf(-1.0 / shape)
}

/// The shared environment every tenant of a trace maps onto: one object
/// catalog and one platform, drawn from the trace seed with the paper's
/// methodology.
pub fn trace_environment(params: &TraceParams, seed: u64) -> (ObjectCatalog, Platform) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    let objects = generate_objects(&params.base, &mut rng);
    let platform = generate_platform(&params.base, &mut rng);
    (objects, platform)
}

/// Builds one tenant's validated [`Instance`] over the shared
/// environment from its arrival [`TenantSpec`].
pub fn tenant_instance(
    objects: &ObjectCatalog,
    platform: &Platform,
    spec: &TenantSpec,
) -> Instance {
    let mut rng = StdRng::seed_from_u64(spec.tree_seed);
    let mut tree = match spec.shape {
        TreeShape::Random => random_tree(spec.n_ops, objects, &mut rng),
        TreeShape::LeftDeep => left_deep_tree(spec.n_ops, objects, &mut rng),
    };
    tree.apply_work_model(
        objects,
        &WorkModel::new(spec.alpha, snsp_core::WorkModel::PAPER_KAPPA),
    );
    Instance::new(tree, objects.clone(), platform.clone(), spec.rho)
        .expect("generated tenants always validate")
}

/// Generates the trace for `(params, seed)`: arrivals (with their
/// departures) and failures merged into one time-ordered event list.
pub fn generate_trace(params: &TraceParams, seed: u64) -> Trace {
    assert!(params.lambda > 0.0 && params.horizon > 0.0);
    assert!(params.pareto_shape > 1.0, "Pareto mean requires shape > 1");
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut events: Vec<TimedEvent> = Vec::new();

    // Tenant arrivals by thinning against the envelope rate, departures
    // from Pareto holds.
    let envelope = params.rate_max();
    let mut t = 0.0f64;
    let mut next_tenant = 0u32;
    loop {
        t += exp_sample(&mut rng, envelope);
        if t >= params.horizon {
            break;
        }
        if !rng.gen_bool(params.rate_at(t) / envelope) {
            continue; // thinned: outside a burst window
        }
        let tenant = TenantId(next_tenant);
        next_tenant += 1;
        let spec = TenantSpec {
            n_ops: rng.gen_range(params.n_ops.0..=params.n_ops.1),
            alpha: rng.gen_range(params.alpha.0..=params.alpha.1),
            rho: rng.gen_range(params.rho.0..=params.rho.1),
            shape: TreeShape::Random,
            tree_seed: rng.next_u64(),
        };
        let hold = pareto_hold(&mut rng, params.mean_hold, params.pareto_shape);
        let deadline = (t + hold).min(params.horizon);
        events.push(TimedEvent {
            time: t,
            event: TraceEvent::Arrive {
                tenant,
                spec,
                deadline,
            },
        });
        if t + hold < params.horizon {
            events.push(TimedEvent {
                time: t + hold,
                event: TraceEvent::Depart { tenant },
            });
        }
    }

    // Independent failure process.
    if params.fail_rate > 0.0 {
        let mut t = 0.0f64;
        loop {
            t += exp_sample(&mut rng, params.fail_rate);
            if t >= params.horizon {
                break;
            }
            events.push(TimedEvent {
                time: t,
                event: TraceEvent::ProcessorFail {
                    lottery: rng.next_u64(),
                },
            });
        }
    }

    // Stable merge: ties (probability ~0 with continuous clocks) keep
    // generation order, so replays are fully deterministic.
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    Trace {
        params: *params,
        seed,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_reproducible_and_ordered() {
        let params = TraceParams::poisson(0.5, 4.0, 40.0).with_failures(0.05);
        let a = generate_trace(&params, 7);
        let b = generate_trace(&params, 7);
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.time, y.time);
            assert_eq!(
                std::mem::discriminant(&x.event),
                std::mem::discriminant(&y.event)
            );
        }
        assert!(a.events.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(a.events.iter().all(|e| e.time < params.horizon));
    }

    #[test]
    fn heavy_scenarios_scale_out_the_environment() {
        let params = TraceParams::heavy(2000.0, 0.25, 5.0);
        assert_eq!(params.base.n_servers, 24);
        assert_eq!((params.base.min_replicas, params.base.max_replicas), (2, 4));
        assert_eq!(params.n_ops, (4, 8));
        let trace = generate_trace(&TraceParams::heavy(100.0, 0.25, 2.0), 1);
        let arrivals = trace.arrivals();
        // λ·T = 200 expected arrivals; Poisson keeps it near that.
        assert!((100..400).contains(&arrivals), "{arrivals} arrivals");
        let (_, platform) = trace_environment(&trace.params, trace.seed);
        assert_eq!(platform.servers.len(), 24);
    }

    #[test]
    fn every_departure_has_a_preceding_arrival() {
        let trace = generate_trace(&TraceParams::poisson(1.0, 3.0, 30.0), 3);
        let mut seen = std::collections::BTreeSet::new();
        for e in &trace.events {
            match e.event {
                TraceEvent::Arrive {
                    tenant, deadline, ..
                } => {
                    assert!(seen.insert(tenant.0), "tenant ids are unique");
                    assert!(deadline >= e.time);
                }
                TraceEvent::Depart { tenant } => {
                    assert!(seen.contains(&tenant.0), "depart before arrive");
                }
                TraceEvent::ProcessorFail { .. } => {}
            }
        }
        assert!(trace.arrivals() > 0, "λ=1 over 30 time units");
    }

    #[test]
    fn arrival_count_tracks_lambda() {
        // E[arrivals] = λ·horizon = 50; a 5σ band is ±~35.
        let trace = generate_trace(&TraceParams::poisson(0.5, 2.0, 100.0), 11);
        let n = trace.arrivals();
        assert!((15..=85).contains(&n), "got {n} arrivals");
    }

    #[test]
    fn bursts_concentrate_arrivals() {
        let burst = Burst {
            period: 10.0,
            width: 2.0,
            multiplier: 8.0,
        };
        let params = TraceParams::poisson(0.4, 2.0, 200.0).with_burst(burst);
        let trace = generate_trace(&params, 5);
        let (mut inside, mut outside) = (0usize, 0usize);
        for e in &trace.events {
            if let TraceEvent::Arrive { .. } = e.event {
                if e.time.rem_euclid(burst.period) < burst.width {
                    inside += 1;
                } else {
                    outside += 1;
                }
            }
        }
        // The window is 20% of the cycle at 8× rate: ~2/3 of arrivals.
        assert!(
            inside > outside,
            "bursts should dominate: {inside} in vs {outside} out"
        );
    }

    #[test]
    fn heavy_tail_produces_long_holds() {
        let params = TraceParams::poisson(2.0, 5.0, 100.0);
        let trace = generate_trace(&params, 2);
        let mut holds: Vec<f64> = Vec::new();
        for e in &trace.events {
            if let TraceEvent::Arrive { deadline, .. } = e.event {
                holds.push(deadline - e.time);
            }
        }
        let max = holds.iter().copied().fold(0.0, f64::max);
        let mean = holds.iter().sum::<f64>() / holds.len() as f64;
        assert!(max > 2.0 * mean, "Pareto tail: max {max} vs mean {mean}");
    }

    #[test]
    fn tenant_instances_share_the_environment() {
        let params = TraceParams::poisson(1.0, 3.0, 20.0);
        let (objects, platform) = trace_environment(&params, 9);
        let trace = generate_trace(&params, 9);
        for e in &trace.events {
            if let TraceEvent::Arrive { spec, .. } = e.event {
                let inst = tenant_instance(&objects, &platform, &spec);
                assert_eq!(inst.tree.len(), spec.n_ops);
                assert!((inst.rho - spec.rho).abs() < 1e-12);
                assert_eq!(inst.objects.len(), objects.len());
                assert_eq!(inst.platform.servers.len(), platform.servers.len());
            }
        }
    }
}
