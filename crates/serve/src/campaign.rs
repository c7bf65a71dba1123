//! Trace campaigns: whole grids of serving scenarios on the sweep pool.
//!
//! A [`ServeCampaign`] crosses trace scenario points with seeds and
//! drains the resulting replays through `snsp-sweep`'s work-stealing
//! pool. Every job is a pure function of its grid coordinates
//! (`generate_trace(point.params, seed)` + the deterministic replay), and
//! aggregation runs in grid order, so the **stable** JSON rendering is
//! byte-identical at any worker count — the same contract CI's
//! bench-snapshot job enforces for offline campaigns, extended to the
//! online subsystem as schema v3 (`BENCH_serve.json`,
//! [`validate_serve_report`](snsp_sweep::validate_serve_report)).
//!
//! Every trace replays on the one replay engine, [`run_trace_chaos`]
//! under the empty [`FaultPlan`], at the campaign's shard count
//! ([`with_shards`](ServeCampaign::with_shards), 1 by default) with its
//! own replay-worker pool; the config echo records both knobs.
//! Admission latencies (wall-clock, per successful admission) aggregate
//! into nearest-rank p50/p99 columns; being timings, they render as
//! `null` in the stable form and as full sample statistics in the timed
//! form.

use std::time::Instant;

use snsp_core::pool::run_jobs;
use snsp_gen::{generate_trace, TraceParams};
use snsp_sweep::{Json, PhaseTiming};

use crate::fault::{run_trace_chaos, FaultPlan};
use crate::report::{percentile, TraceReport};
use crate::shard::ShardOptions;
use crate::sim::ServeConfig;

/// One labelled trace scenario.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Row label in tables and JSON.
    pub label: String,
    /// Trace generator parameters.
    pub params: TraceParams,
}

impl ServePoint {
    /// A labelled point.
    pub fn new(label: impl Into<String>, params: TraceParams) -> Self {
        ServePoint {
            label: label.into(),
            params,
        }
    }
}

/// A grid of serving scenarios.
pub struct ServeCampaign {
    /// Campaign identifier.
    pub id: String,
    /// Scenario points (grid rows).
    pub points: Vec<ServePoint>,
    /// Seeds `0..seeds` replayed at every point.
    pub seeds: u64,
    /// Serving policy shared by every replay.
    pub config: ServeConfig,
    /// Worker threads; `None` uses available parallelism.
    pub workers: Option<usize>,
    /// Tenant shards per replay (1: the whole platform as one shard).
    pub shards: usize,
    /// Worker threads driving each replay's per-tick shard batches.
    pub replay_workers: usize,
}

impl ServeCampaign {
    /// A campaign with the default serving policy.
    pub fn new(id: impl Into<String>, points: Vec<ServePoint>, seeds: u64) -> Self {
        ServeCampaign {
            id: id.into(),
            points,
            seeds,
            config: ServeConfig::default(),
            workers: None,
            shards: 1,
            replay_workers: 1,
        }
    }

    /// Overrides the serving policy.
    pub fn with_config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Pins the worker count (clamped to at least 1, as in `Campaign`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Partitions every replay into `shards` tenant shards, each replay
    /// driving its tick batches with
    /// `replay_workers` threads (both clamped to at least 1). Shard
    /// count changes packing (it is part of the scenario); replay
    /// workers never change results.
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

/// Aggregated replays of one scenario point.
#[derive(Debug, Clone)]
pub struct ServePointReport {
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
    /// Summed effective failures.
    pub failures: usize,
    /// Summed engine spot-runs.
    pub slo_checks: usize,
    /// Summed SLO misses.
    pub slo_violations: usize,
    /// Mean `∫ cost dt` per replay.
    pub mean_cost_integral: f64,
    /// Mean time-weighted utilization per replay.
    pub mean_utilization: f64,
    /// Mean end-of-trace cost per replay.
    pub mean_final_cost: f64,
    /// Max concurrent processors over all replays.
    pub peak_procs: usize,
    /// Per-seed log digests folded in seed order (the replay fingerprint).
    pub log_hash: u64,
    /// Admission-latency samples pooled across the point's replays (µs,
    /// wall-clock — excluded from stable output).
    pub admit_latencies_us: Vec<f64>,
}

impl ServePointReport {
    /// `admitted / arrivals` over all replays.
    pub fn admission_rate(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.admitted as f64 / self.arrivals as f64
        }
    }

    /// Median admission latency over the pooled samples (µs,
    /// nearest-rank; 0 with no admissions).
    pub fn admit_p50_us(&self) -> f64 {
        percentile(&self.admit_latencies_us, 50.0)
    }

    /// 99th-percentile admission latency over the pooled samples (µs,
    /// nearest-rank; 0 with no admissions).
    pub fn admit_p99_us(&self) -> f64 {
        percentile(&self.admit_latencies_us, 99.0)
    }

    fn from_runs(label: &str, runs: &[TraceReport]) -> Self {
        let n = runs.len().max(1) as f64;
        // Fold the per-seed fingerprints (in seed order) with the same
        // FNV-1a step the per-trace digest uses.
        let mut hash = crate::report::FNV_OFFSET;
        for r in runs {
            hash = crate::report::fnv1a(hash, r.log_hash().to_be_bytes());
        }
        ServePointReport {
            label: label.to_string(),
            traces: runs.len(),
            arrivals: runs.iter().map(|r| r.arrivals).sum(),
            admitted: runs.iter().map(|r| r.admitted).sum(),
            rejected: runs.iter().map(|r| r.rejected).sum(),
            departed: runs.iter().map(|r| r.departed).sum(),
            evicted: runs.iter().map(|r| r.evicted).sum(),
            failures: runs.iter().map(|r| r.failures).sum(),
            slo_checks: runs.iter().map(|r| r.slo_checks).sum(),
            slo_violations: runs.iter().map(|r| r.slo_violations).sum(),
            mean_cost_integral: runs.iter().map(|r| r.cost_time_integral).sum::<f64>() / n,
            mean_utilization: runs.iter().map(|r| r.mean_utilization).sum::<f64>() / n,
            mean_final_cost: runs.iter().map(|r| r.final_cost as f64).sum::<f64>() / n,
            peak_procs: runs.iter().map(|r| r.peak_procs).max().unwrap_or(0),
            log_hash: hash,
            admit_latencies_us: runs
                .iter()
                .flat_map(|r| r.admit_latencies_us.iter().copied())
                .collect(),
        }
    }

    /// Renders one results row. `include_timing = false` is the stable
    /// form: wall-clock admission latencies vary run to run, so the
    /// `admit_latency` column degrades to `null` there and only carries
    /// the sample statistics in the timed form.
    fn to_json(&self, include_timing: bool) -> Json {
        let admit_latency = if include_timing && !self.admit_latencies_us.is_empty() {
            Json::obj(vec![
                ("samples", Json::Int(self.admit_latencies_us.len() as i64)),
                ("p50_us", Json::Num(self.admit_p50_us())),
                ("p99_us", Json::Num(self.admit_p99_us())),
                (
                    "max_us",
                    Json::Num(self.admit_latencies_us.iter().copied().fold(0.0, f64::max)),
                ),
            ])
        } else {
            Json::Null
        };
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
            ("mean_cost_integral", Json::Num(self.mean_cost_integral)),
            ("mean_utilization", Json::Num(self.mean_utilization)),
            ("mean_final_cost", Json::Num(self.mean_final_cost)),
            ("peak_procs", Json::Int(self.peak_procs as i64)),
            ("slo_checks", Json::Int(self.slo_checks as i64)),
            ("slo_violations", Json::Int(self.slo_violations as i64)),
            ("admit_latency", admit_latency),
            ("log_hash", Json::Str(format!("{:016x}", self.log_hash))),
        ])
    }
}

/// The complete result of one serve campaign.
#[derive(Debug, Clone)]
pub struct ServeCampaignReport {
    /// Campaign identifier.
    pub campaign: String,
    /// Seeds per point.
    pub seeds: u64,
    /// SLO bar echoed from the config.
    pub slo_frac: f64,
    /// Tenant shards per replay, echoed from the campaign.
    pub shards: usize,
    /// Replay workers per sharded replay, echoed from the campaign
    /// (wall-clock-only; part of the timed output, not the stable form).
    pub replay_workers: usize,
    /// The scenario grid, echoed for reproducibility.
    pub config_points: Vec<ServePoint>,
    /// Per-point results, in grid order.
    pub points: Vec<ServePointReport>,
    /// Wall-clock phases (never part of stable output).
    pub timing: Option<PhaseTiming>,
}

impl ServeCampaignReport {
    /// Serializes schema v3. With `include_timing = false` the output is
    /// the *stable* form: byte-identical at every worker count (campaign
    /// workers and replay workers alike), with the wall-clock
    /// `admit_latency` column rendered as `null`.
    pub fn to_json(&self, include_timing: bool) -> Json {
        let mut pairs = vec![
            (
                "schema_version",
                Json::Int(snsp_sweep::SERVE_SCHEMA_VERSION),
            ),
            (
                "generator",
                Json::Str(format!("snsp-serve {}", env!("CARGO_PKG_VERSION"))),
            ),
            ("kind", Json::Str("serve".to_string())),
            ("campaign", Json::Str(self.campaign.clone())),
            (
                "config",
                Json::obj(vec![
                    ("seeds", Json::Int(self.seeds as i64)),
                    ("slo_frac", Json::Num(self.slo_frac)),
                    ("shards", Json::Int(self.shards as i64)),
                    (
                        "points",
                        Json::Arr(self.config_points.iter().map(point_config_json).collect()),
                    ),
                ]),
            ),
            (
                "results",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| p.to_json(include_timing))
                        .collect(),
                ),
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

pub(crate) fn point_config_json(point: &ServePoint) -> Json {
    let p = &point.params;
    Json::obj(vec![
        ("label", Json::Str(point.label.clone())),
        ("lambda", Json::Num(p.lambda)),
        ("mean_hold", Json::Num(p.mean_hold)),
        ("pareto_shape", Json::Num(p.pareto_shape)),
        ("horizon", Json::Num(p.horizon)),
        ("fail_rate", Json::Num(p.fail_rate)),
        (
            "n_ops",
            Json::Arr(vec![
                Json::Int(p.n_ops.0 as i64),
                Json::Int(p.n_ops.1 as i64),
            ]),
        ),
        (
            "alpha",
            Json::Arr(vec![Json::Num(p.alpha.0), Json::Num(p.alpha.1)]),
        ),
        (
            "rho",
            Json::Arr(vec![Json::Num(p.rho.0), Json::Num(p.rho.1)]),
        ),
        (
            "burst",
            match p.burst {
                None => Json::Null,
                Some(b) => Json::obj(vec![
                    ("period", Json::Num(b.period)),
                    ("width", Json::Num(b.width)),
                    ("multiplier", Json::Num(b.multiplier)),
                ]),
            },
        ),
    ])
}

/// Runs the campaign: `points × seeds` replays on the sweep pool,
/// aggregated in grid order.
pub fn run_serve_campaign(campaign: &ServeCampaign) -> ServeCampaignReport {
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
    let runs: Vec<TraceReport> = run_jobs(total_jobs, workers, |job| {
        let point = &campaign.points[job / n_seeds];
        let seed = (job % n_seeds) as u64;
        let trace = generate_trace(&point.params, seed);
        run_trace_chaos(&trace, &campaign.config, &shard_opts, &FaultPlan::default()).base
    });
    let run_s = t_run.elapsed().as_secs_f64();

    let t_agg = Instant::now();
    let points: Vec<ServePointReport> = campaign
        .points
        .iter()
        .enumerate()
        .map(|(p, point)| {
            ServePointReport::from_runs(&point.label, &runs[p * n_seeds..(p + 1) * n_seeds])
        })
        .collect();
    let aggregate_s = t_agg.elapsed().as_secs_f64();

    ServeCampaignReport {
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
    use snsp_sweep::validate_serve_report;

    fn small_campaign(workers: usize) -> ServeCampaign {
        let points = vec![
            ServePoint::new("calm", TraceParams::poisson(0.3, 5.0, 20.0)),
            ServePoint::new(
                "flaky",
                TraceParams::poisson(0.4, 5.0, 20.0).with_failures(0.1),
            ),
        ];
        ServeCampaign::new("unit", points, 2).with_workers(workers)
    }

    #[test]
    fn report_shape_matches_grid_and_validates() {
        let report = run_serve_campaign(&small_campaign(2));
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert_eq!(p.traces, 2);
            assert_eq!(p.admitted + p.rejected, p.arrivals);
        }
        validate_serve_report(&report.render_json(true)).expect("schema v2 validates");
        validate_serve_report(&report.render_json(false)).expect("stable form validates");
    }

    #[test]
    fn stable_json_is_identical_at_any_worker_count() {
        let serial = run_serve_campaign(&small_campaign(1));
        for workers in [2usize, 4, 7] {
            let parallel = run_serve_campaign(&small_campaign(workers));
            assert_eq!(
                serial.render_json(false),
                parallel.render_json(false),
                "{workers} workers diverged"
            );
        }
    }

    #[test]
    fn zero_workers_clamps_to_serial() {
        let campaign = small_campaign(0);
        assert_eq!(campaign.workers, Some(1));
    }

    #[test]
    fn latency_percentiles_surface_in_timed_output_only() {
        let report = run_serve_campaign(&small_campaign(1));
        let timed = report.render_json(true);
        let stable = report.render_json(false);
        assert!(timed.contains("\"p50_us\""));
        assert!(timed.contains("\"p99_us\""));
        assert!(
            stable.contains("\"admit_latency\": null"),
            "stable form must not carry wall-clock samples"
        );
        for p in &report.points {
            if p.admitted > 0 {
                assert_eq!(p.admit_latencies_us.len(), p.admitted);
                assert!(p.admit_p50_us() > 0.0);
                assert!(p.admit_p99_us() >= p.admit_p50_us());
            }
        }
    }

    #[test]
    fn sharded_campaign_is_stable_across_both_worker_axes() {
        let base = run_serve_campaign(&small_campaign(1).with_shards(2, 1));
        for (workers, replay_workers) in [(2usize, 1usize), (1, 4), (4, 2)] {
            let campaign = small_campaign(workers).with_shards(2, replay_workers);
            let other = run_serve_campaign(&campaign);
            assert_eq!(
                base.render_json(false),
                other.render_json(false),
                "{workers} campaign × {replay_workers} replay workers diverged"
            );
        }
        snsp_sweep::validate_serve_report(&base.render_json(false)).expect("schema v3 validates");
    }

    #[test]
    fn shard_count_is_echoed_in_config() {
        let report = run_serve_campaign(&small_campaign(1).with_shards(2, 2));
        assert_eq!(report.shards, 2);
        assert!(report.render_json(false).contains("\"shards\": 2"));
    }
}
