//! Campaign configuration and execution.
//!
//! A [`Campaign`] is a grid of scenario points × heuristics × seeds,
//! flattened into independent jobs and executed on the work-stealing
//! pool. Every job is a pure function of its grid coordinates: the
//! instance comes from `snsp_gen::generate(params, shape, seed)` and the
//! pipeline RNG from [`solve_seeded`] with a seed derived from the
//! scenario seed alone, exactly as the seed repository's serial loop did.
//! Aggregation happens in grid order after the pool drains, so the
//! resulting [`CampaignReport`] is identical at
//! every worker count.

use std::time::Instant;

use snsp_core::heuristics::{all_heuristics, solve_seeded, Heuristic, PipelineOptions};
use snsp_core::platform::Catalog;
use snsp_core::pool::run_jobs;
use snsp_gen::{generate, ScenarioParams, TreeShape};
use snsp_solver::{solve_exact, BranchBoundConfig};

use crate::sink::{CampaignReport, HeurStats, PhaseTiming, PointReport, ReferenceStats};

/// The multiplier turning a scenario seed into the pipeline RNG seed
/// (kept identical to the seed repository's serial runner so calibrated
/// expectations — e.g. the N = 140 feasibility wall — are preserved).
pub const PIPELINE_SEED_STRIDE: u64 = 0x9E37_79B9;

/// One cell of the scenario grid: a labelled parameter set.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Row label in tables and in the JSON report (e.g. `"60"` for N=60).
    pub label: String,
    /// Generator parameters for this point.
    pub params: ScenarioParams,
    /// Tree shape drawn at this point.
    pub shape: TreeShape,
}

impl PointSpec {
    /// A point with the default random tree shape.
    pub fn new(label: impl Into<String>, params: ScenarioParams) -> Self {
        PointSpec {
            label: label.into(),
            params,
            shape: TreeShape::Random,
        }
    }
}

/// Exact-solver reference column: run the branch-and-bound on every seed
/// of every small-enough point and report the mean optimum next to the
/// heuristics.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceConfig {
    /// Only points with `n_ops <= max_ops` get a reference column (the
    /// B&B blows up beyond ~20 operators, as the paper observed of CPLEX).
    pub max_ops: usize,
    /// Search-node budget per instance; exhausting it demotes the column
    /// to `optimal = false`.
    pub node_budget: u64,
    /// Branch-and-bound worker threads per reference job (`<= 1` =
    /// serial). An execution knob, not a semantic one: the optimum is
    /// worker-count-independent, so it is *not* echoed in the report.
    pub workers: usize,
}

impl Default for ReferenceConfig {
    fn default() -> Self {
        ReferenceConfig {
            max_ops: 20,
            node_budget: 500_000,
            workers: 1,
        }
    }
}

impl ReferenceConfig {
    fn eligible(&self, point: &PointSpec) -> bool {
        point.params.n_ops <= self.max_ops
    }
}

/// A full campaign: the job grid plus execution knobs.
pub struct Campaign {
    /// Campaign identifier (becomes `"campaign"` in the JSON report).
    pub id: String,
    /// Scenario points (grid rows).
    pub points: Vec<PointSpec>,
    /// Heuristics to evaluate at every point (grid columns).
    pub heuristics: Vec<Box<dyn Heuristic>>,
    /// Seeds `0..seeds` evaluated at every (point, heuristic) cell.
    pub seeds: u64,
    /// Pipeline options shared by every job.
    pub opts: PipelineOptions,
    /// Replaces the generated platform catalog in every job (e.g.
    /// `Catalog::homogeneous` for the paper's CONSTR-HOM comparison).
    pub catalog_override: Option<Catalog>,
    /// Optional exact-solver reference column.
    pub reference: Option<ReferenceConfig>,
    /// Worker threads; `None` uses `std::thread::available_parallelism`.
    pub workers: Option<usize>,
}

impl Campaign {
    /// A campaign over all six paper heuristics with default options.
    pub fn new(id: impl Into<String>, points: Vec<PointSpec>, seeds: u64) -> Self {
        Campaign {
            id: id.into(),
            points,
            heuristics: all_heuristics(),
            seeds,
            opts: PipelineOptions::default(),
            catalog_override: None,
            reference: None,
            workers: None,
        }
    }

    /// Overrides the heuristic set.
    pub fn with_heuristics(mut self, heuristics: Vec<Box<dyn Heuristic>>) -> Self {
        self.heuristics = heuristics;
        self
    }

    /// Overrides the pipeline options.
    pub fn with_opts(mut self, opts: PipelineOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Adds an exact-solver reference column.
    pub fn with_reference(mut self, reference: ReferenceConfig) -> Self {
        self.reference = Some(reference);
        self
    }

    /// Replaces the platform catalog in every generated instance.
    pub fn with_catalog(mut self, catalog: Catalog) -> Self {
        self.catalog_override = Some(catalog);
        self
    }

    /// Pins the worker count (1 = serial baseline). A request for 0
    /// workers clamps to 1: a campaign always makes progress, rather than
    /// depending on whatever an empty pool would do.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
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

/// Outcome of one heuristic job: `(cost, proc_count)` when feasible.
type HeurOutcome = Option<(u64, usize)>;

/// Outcome of one reference (B&B) job.
#[derive(Debug, Clone, Copy)]
struct RefOutcome {
    cost: Option<u64>,
    optimal: bool,
}

enum JobOutcome {
    Heur(HeurOutcome),
    Ref(RefOutcome),
}

/// Runs the campaign and aggregates a [`CampaignReport`].
///
/// The job grid is `points × heuristics × seeds`, followed by
/// `eligible-reference-points × seeds` exact-solver jobs, all drained by
/// one pool invocation so reference work steals idle workers too.
pub fn run_campaign(campaign: &Campaign) -> CampaignReport {
    let t0 = Instant::now();
    let n_points = campaign.points.len();
    let n_heur = campaign.heuristics.len();
    let n_seeds = campaign.seeds as usize;
    let heur_jobs = n_points * n_heur * n_seeds;
    let ref_points: Vec<usize> = campaign
        .reference
        .map(|r| {
            (0..n_points)
                .filter(|&p| r.eligible(&campaign.points[p]))
                .collect()
        })
        .unwrap_or_default();
    let total_jobs = heur_jobs + ref_points.len() * n_seeds;
    let workers = campaign.resolved_workers();
    let flatten_s = t0.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let outcomes = run_jobs(total_jobs, workers, |job| {
        if job < heur_jobs {
            let point = &campaign.points[job / (n_heur * n_seeds)];
            let heur = &campaign.heuristics[(job / n_seeds) % n_heur];
            let seed = (job % n_seeds) as u64;
            let inst = instantiate(campaign, point, seed);
            let outcome = solve_seeded(
                heur.as_ref(),
                &inst,
                seed.wrapping_mul(PIPELINE_SEED_STRIDE),
                &campaign.opts,
            )
            .ok()
            .map(|s| (s.cost, s.mapping.proc_count()));
            JobOutcome::Heur(outcome)
        } else {
            let rel = job - heur_jobs;
            let point = &campaign.points[ref_points[rel / n_seeds]];
            let seed = (rel % n_seeds) as u64;
            let inst = instantiate(campaign, point, seed);
            let reference = campaign.reference.expect("reference jobs imply a config");
            let exact = solve_exact(
                &inst,
                &BranchBoundConfig {
                    node_budget: reference.node_budget,
                    upper_bound: None,
                    workers: reference.workers,
                },
            );
            JobOutcome::Ref(RefOutcome {
                cost: exact.mapping.is_some().then_some(exact.cost),
                optimal: exact.optimal,
            })
        }
    });
    let run_s = t_run.elapsed().as_secs_f64();

    let t_agg = Instant::now();
    let points = aggregate(campaign, &outcomes, heur_jobs, &ref_points);
    let aggregate_s = t_agg.elapsed().as_secs_f64();

    CampaignReport {
        campaign: campaign.id.clone(),
        seeds: campaign.seeds,
        heuristic_names: campaign.heuristics.iter().map(|h| h.name()).collect(),
        reference: campaign.reference,
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

fn instantiate(campaign: &Campaign, point: &PointSpec, seed: u64) -> snsp_core::Instance {
    let mut inst = generate(&point.params, point.shape, seed);
    if let Some(catalog) = &campaign.catalog_override {
        inst.platform.catalog = catalog.clone();
    }
    inst
}

/// The typed sink pass: folds the flat outcome vector back into
/// per-point, per-heuristic statistics, in grid order.
fn aggregate(
    campaign: &Campaign,
    outcomes: &[JobOutcome],
    heur_jobs: usize,
    ref_points: &[usize],
) -> Vec<PointReport> {
    let n_heur = campaign.heuristics.len();
    let n_seeds = campaign.seeds as usize;
    campaign
        .points
        .iter()
        .enumerate()
        .map(|(p, point)| {
            let heuristics = campaign
                .heuristics
                .iter()
                .enumerate()
                .map(|(h, heur)| {
                    let cells: Vec<(u64, usize)> = (0..n_seeds)
                        .filter_map(|s| match &outcomes[(p * n_heur + h) * n_seeds + s] {
                            JobOutcome::Heur(o) => *o,
                            JobOutcome::Ref(_) => unreachable!("heuristic job range"),
                        })
                        .collect();
                    HeurStats::from_outcomes(heur.name(), n_seeds, &cells)
                })
                .collect();
            let reference = ref_points.iter().position(|&rp| rp == p).map(|rel| {
                let runs: Vec<RefOutcome> = (0..n_seeds)
                    .map(|s| match &outcomes[heur_jobs + rel * n_seeds + s] {
                        JobOutcome::Ref(r) => *r,
                        JobOutcome::Heur(_) => unreachable!("reference job range"),
                    })
                    .collect();
                let solved: Vec<u64> = runs.iter().filter_map(|r| r.cost).collect();
                ReferenceStats {
                    runs: runs.len(),
                    solved: solved.len(),
                    mean_cost: (!solved.is_empty())
                        .then(|| solved.iter().sum::<u64>() as f64 / solved.len() as f64),
                    optimal: runs.iter().all(|r| r.optimal),
                }
            });
            PointReport {
                label: point.label.clone(),
                n_ops: point.params.n_ops,
                alpha: point.params.alpha,
                heuristics,
                reference,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign(workers: usize) -> Campaign {
        let points = vec![
            PointSpec::new("10", ScenarioParams::paper(10, 0.9)),
            PointSpec::new("14", ScenarioParams::paper(14, 1.3)),
        ];
        Campaign::new("unit", points, 3).with_workers(workers)
    }

    #[test]
    fn report_shape_matches_grid() {
        let report = run_campaign(&small_campaign(2));
        assert_eq!(report.campaign, "unit");
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            assert_eq!(point.heuristics.len(), 6);
            for h in &point.heuristics {
                assert_eq!(h.runs, 3);
                assert!(h.feasible <= h.runs);
            }
            assert!(point.reference.is_none());
        }
    }

    #[test]
    fn zero_workers_clamps_to_serial() {
        // Pin the contract: `with_workers(0)` must behave exactly like an
        // explicit serial run, not fall through to the pool's own
        // clamping (or worse, a stalled empty pool).
        let campaign = small_campaign(0);
        assert_eq!(campaign.workers, Some(1));
        let clamped = run_campaign(&campaign);
        let serial = run_campaign(&small_campaign(1));
        assert_eq!(clamped.render_json(false), serial.render_json(false));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let serial = run_campaign(&small_campaign(1));
        let parallel = run_campaign(&small_campaign(4));
        assert_eq!(serial.render_json(false), parallel.render_json(false));
    }

    #[test]
    fn reference_column_covers_small_points_only() {
        let points = vec![
            PointSpec::new("8", ScenarioParams::paper(8, 0.9)),
            PointSpec::new("30", ScenarioParams::paper(30, 0.9)),
        ];
        let campaign = Campaign::new("ref", points, 2)
            .with_reference(ReferenceConfig {
                max_ops: 10,
                node_budget: 200_000,
                workers: 1,
            })
            .with_workers(2);
        let report = run_campaign(&campaign);
        let small = report.points[0].reference.as_ref().expect("eligible");
        assert_eq!(small.runs, 2);
        assert!(small.solved > 0, "tiny instances are solvable");
        assert!(report.points[1].reference.is_none(), "30 ops is too big");
    }

    #[test]
    fn exhausted_node_budget_reports_not_optimal() {
        let points = vec![PointSpec::new("16", ScenarioParams::paper(16, 0.9))];
        let campaign = Campaign::new("truncated", points, 1)
            .with_reference(ReferenceConfig {
                max_ops: 16,
                node_budget: 1,
                workers: 1,
            })
            .with_workers(1);
        let report = run_campaign(&campaign);
        let reference = report.points[0].reference.as_ref().unwrap();
        assert!(
            !reference.optimal,
            "a 1-node budget cannot prove optimality"
        );
    }

    #[test]
    fn homogeneous_catalog_override_applies() {
        let points = vec![PointSpec::new("8", ScenarioParams::paper(8, 0.9))];
        let campaign = Campaign::new("hom", points, 2)
            .with_catalog(Catalog::homogeneous(0, 0))
            .with_workers(2);
        let report = run_campaign(&campaign);
        // With a single catalog kind, every feasible mapping prices as
        // chassis+upgrades of that one kind; just assert feasibility data
        // flowed through.
        assert!(report.points[0].heuristics.iter().any(|h| h.feasible > 0));
    }
}
