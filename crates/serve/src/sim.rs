//! Trace replay: the serving policy and the single-platform entry point.
//!
//! [`run_trace`] replays one [`Trace`] against one [`LivePlatform`] and
//! reports the service metrics: the cost-over-time integral
//! `∫ cost(t) dt` (what the platform actually costs to keep paid-for
//! across the horizon), time-weighted CPU utilization, admission/eviction
//! counts, and a human-readable event log whose lines are a pure function
//! of `(trace, config)` — the deterministic-replay contract the
//! integration tests pin. It is the one replay engine
//! ([`replay_trace_chaos`]) at one shard under the empty [`FaultPlan`].
//!
//! SLO enforcement is analytic at admission time (joint constraints hold
//! by construction) and *validated* by spot-running the `snsp-engine`
//! fluid simulator on per-tenant projections of the platform snapshot:
//! every `spot_admissions`-th admission, and over all residents at the
//! end of the trace.

use snsp_core::heuristics::{Heuristic, PipelineOptions, SubtreeBottomUp};
use snsp_engine::{meets_slo, SimConfig};
use snsp_gen::Trace;

use crate::fault::{replay_trace_chaos, FaultPlan};
use crate::platform::LivePlatform;
use crate::report::TraceReport;
use crate::shard::ShardOptions;

/// Serving-loop policy knobs.
pub struct ServeConfig {
    /// Placement heuristic for arriving tenants.
    pub heuristic: Box<dyn Heuristic>,
    /// Pipeline options handed to the heuristic.
    pub opts: PipelineOptions,
    /// SLO bar as a fraction of each tenant's ρ (engine-validated).
    pub slo_frac: f64,
    /// Spot-run the engine on a shard's residents after every n-th
    /// admission *on that shard* (the count is per shard; 0 disables).
    pub spot_admissions: usize,
    /// Engine-validate every resident tenant at the end of the trace.
    pub final_validation: bool,
    /// Engine configuration for the spot runs.
    pub sim: SimConfig,
    /// Evacuation-attempt budget for the post-departure consolidation
    /// refinement (see `LivePlatform::depart_budgeted`).
    pub refine_evals: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            heuristic: Box::new(SubtreeBottomUp),
            opts: PipelineOptions::default(),
            slo_frac: 0.95,
            spot_admissions: 0,
            final_validation: true,
            sim: SimConfig::default(),
            refine_evals: crate::platform::DEFAULT_DEPART_EVALS,
        }
    }
}

/// Engine-validates every resident tenant's projection of the current
/// snapshot; returns `(checks, violations)` and appends log lines for
/// violations only.
pub(crate) fn validate_residents(
    live: &LivePlatform,
    config: &ServeConfig,
    time: f64,
    log: &mut Vec<String>,
) -> (usize, usize) {
    let Some((multi, sol)) = live.snapshot() else {
        return (0, 0);
    };
    let ids = live.tenant_ids();
    let mut checks = 0;
    let mut violations = 0;
    for (k, &id) in ids.iter().enumerate() {
        let mapping = sol.mapping_for(&multi, k);
        checks += 1;
        if let Err(e) = meets_slo(&multi.apps[k], &mapping, config.slo_frac, &config.sim) {
            violations += 1;
            log.push(format!("{time:.6} slo-violation t{id} ({e})"));
        }
    }
    (checks, violations)
}

/// Replays one trace against a single [`LivePlatform`] and reports the
/// service metrics: [`replay_trace_chaos`] at one shard under the empty
/// [`FaultPlan`]. Log lines carry the `s0` shard prefix.
pub fn run_trace(trace: &Trace, config: &ServeConfig) -> TraceReport {
    let opts = ShardOptions::default();
    replay_trace_chaos(trace, config, &opts, &FaultPlan::default())
        .0
        .base
}

#[cfg(test)]
mod tests {
    use super::*;
    use snsp_gen::{generate_trace, TraceParams};

    #[test]
    fn replay_is_deterministic_and_accounts_events() {
        let trace = generate_trace(&TraceParams::poisson(0.4, 6.0, 30.0), 3);
        let a = run_trace(&trace, &ServeConfig::default());
        let b = run_trace(&trace, &ServeConfig::default());
        assert_eq!(a.log, b.log, "event logs must replay identically");
        assert_eq!(a.arrivals, trace.arrivals());
        assert_eq!(a.admitted + a.rejected, a.arrivals);
        assert!(a.admitted > 0, "λ·T = 12 expected arrivals, some must fit");
        assert!(a.cost_time_integral > 0.0);
        assert!(a.mean_utilization > 0.0);
        assert_eq!(a.log_hash(), b.log_hash());
    }

    #[test]
    fn final_validation_passes_for_admitted_tenants() {
        let trace = generate_trace(&TraceParams::poisson(0.3, 8.0, 20.0), 5);
        let report = run_trace(&trace, &ServeConfig::default());
        assert!(report.slo_checks > 0, "residents were validated");
        assert_eq!(
            report.slo_violations, 0,
            "analytically-admitted tenants sustain the SLO in the engine"
        );
    }

    #[test]
    fn failures_flow_into_the_metrics() {
        let params = TraceParams::poisson(0.5, 10.0, 40.0).with_failures(0.2);
        let trace = generate_trace(&params, 8);
        let report = run_trace(&trace, &ServeConfig::default());
        assert!(report.failures > 0, "0.2·40 = 8 expected failures");
        assert!(
            report.log.iter().any(|line| line.contains(" fail p")),
            "failures are logged"
        );
    }

    #[test]
    fn infeasible_tenants_are_rejected_not_crashed() {
        // ρ far past the catalog's fastest CPU (and any split made
        // infeasible by the 1 GB/s pair link at ρ·δ): every arrival must
        // be refused through the admission-control path, with the
        // platform left empty and the books still balancing.
        let params = TraceParams::poisson(0.5, 5.0, 20.0).with_tenant_rho(2_000.0, 3_000.0);
        let trace = generate_trace(&params, 4);
        let report = run_trace(&trace, &ServeConfig::default());
        assert!(report.arrivals > 0);
        assert_eq!(report.admitted, 0, "nothing this heavy fits any kind");
        assert_eq!(report.rejected, report.arrivals);
        assert_eq!(report.final_cost, 0);
        assert!(report.log.iter().all(|l| l.contains(" reject ")));
    }

    #[test]
    fn spot_checks_count_toward_slo_metrics() {
        let trace = generate_trace(&TraceParams::poisson(0.3, 6.0, 20.0), 9);
        let config = ServeConfig {
            spot_admissions: 1,
            final_validation: false,
            ..Default::default()
        };
        let report = run_trace(&trace, &config);
        if report.admitted > 0 {
            assert!(report.slo_checks >= report.admitted);
        }
    }
}
