//! # snsp-serve — online multi-tenant serving over a shared platform
//!
//! The paper provisions a platform once, for one application. Its §6
//! names concurrent applications as the open direction, and
//! `snsp_core::multi` solves the *offline* version. This crate closes
//! the loop for a production setting: tenants **arrive and depart over
//! time** (`snsp_gen::arrival` traces — Poisson arrivals, heavy-tailed
//! holding times, bursts, processor failures), and the platform stays
//! paid-for and shared while it elastically grows and shrinks.
//!
//! ## Quick tour
//!
//! * [`LivePlatform`] — the live state: purchased processors, resident
//!   tenants, download streams. Each arrival runs **incremental
//!   placement**: the heuristic's groups are first-fit packed onto
//!   already-purchased machines (joint-demand feasibility via
//!   `snsp_core::multi::shared_demand`, shared downloads via the
//!   `DownloadLedger`) before any new machine is bought; departures
//!   reclaim streams and machines and trigger an opportunistic
//!   re-consolidation + downgrade pass; failures re-map displaced
//!   operators or evict their tenants. Each slot's residents and joint
//!   demand are kept in per-slot index and memo entries that one writer
//!   refreshes, and a CPU-work screen skips re-map and evacuation
//!   candidates the exact fit test would reject anyway.
//! * [`replay_trace_chaos`] / [`run_trace_chaos`] — the one replay
//!   engine. Tenants hash to [`ShardedPlatform`] shards that own disjoint
//!   processor pools, per-tick batches replay in parallel on
//!   `snsp_core::pool`, and cross-shard effects travel as shard
//!   messages folded deterministically at tick barriers — same event log
//!   at any worker count. A [`FaultPlan`] injects crashes, rack failures,
//!   message faults and revocations; the empty plan
//!   (`FaultPlan::default()`) is the plain fault-free replay.
//! * [`run_trace`] — that engine at one shard under the empty plan,
//!   producing a [`TraceReport`]: admission rate, `∫ cost dt`,
//!   utilization, SLO violations spot-validated by running `snsp_engine`
//!   on per-tenant projections of the platform snapshot.
//! * [`ServeCampaign`] / [`run_serve_campaign`] — whole trace grids on
//!   `snsp_core::pool`, with schema-v3 JSON (admission-latency p50/p99
//!   columns) whose stable form is byte-identical at any worker count
//!   ([`validate_serve_report`](snsp_sweep::validate_serve_report)).
//!
//! ```
//! use snsp_gen::{generate_trace, TraceParams};
//! use snsp_serve::{run_trace, ServeConfig};
//!
//! let trace = generate_trace(&TraceParams::poisson(0.3, 5.0, 20.0), 42);
//! let report = run_trace(&trace, &ServeConfig::default());
//! assert_eq!(report.admitted + report.rejected, report.arrivals);
//! assert_eq!(report.slo_violations, 0); // admissions hold up in the engine
//! assert!(report.cost_time_integral >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod fault;
pub mod platform;
pub mod report;
pub mod shard;
pub mod sim;

pub use campaign::{
    run_serve_campaign, ServeCampaign, ServeCampaignReport, ServePoint, ServePointReport,
};
pub use fault::{
    audit_platform, replay_trace_chaos, run_chaos_campaign, run_trace_chaos, ChaosCampaign,
    ChaosCampaignReport, ChaosPoint, ChaosPointReport, ChaosReport, ChaosStats, DegradePolicy,
    FaultEvent, FaultKind, FaultPlan, FaultSpec, RetryPolicy,
};
pub use platform::{
    AdmitError, AdmitOutcome, FailOutcome, LivePlatform, Tenant, DEFAULT_DEPART_EVALS,
};
pub use report::{percentile, TraceReport};
pub use shard::{shard_of, ShardOptions, ShardedPlatform};
pub use sim::{run_trace, ServeConfig};
