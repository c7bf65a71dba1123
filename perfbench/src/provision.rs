//! The `provision` workload: a seeded stream of offline provisioning
//! requests built from paper §5 instances, answered by the refinement
//! portfolio (small trees) or the six-heuristic portfolio alone (large
//! trees), with branch-and-bound certification where it is cheap.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use snsp_core::constraints;
use snsp_core::heuristics::{all_heuristics, solve_seeded, PipelineOptions, Solution};
use snsp_core::instance::Instance;
use snsp_core::mapping::Mapping;
use snsp_core::platform::Catalog;
use snsp_core::refine::{RefineDriver, RefineOptions};
use snsp_gen::{generate, ScenarioParams, TreeShape};
use snsp_search::{refine, refine_portfolio};
use snsp_solver::{solve_exact, BranchBoundConfig, ExactResult};

use crate::stats::Recorder;

/// Requests per stream: a p95 over them has 11 samples beyond it, and a
/// run repeats each about nine times. Every fourth is a large tree, the
/// rest cycle through [`SMALL_N`], so the class mix is the same for
/// every seed.
pub const STREAM: usize = 224;
/// Timed passes over the stream per measured second, calibrated on the
/// baseline.
pub const PASSES_PER_S: f64 = 0.27;
/// Requests per traced round: two full periods of the class mix.
pub const CHUNK: usize = 56;
/// Small-request tree sizes; N = 20 runs on the CONSTR-HOM catalog.
const SMALL_N: [usize; 7] = [20, 40, 60, 80, 100, 120, 140];
/// Large-request tree sizes (inclusive range).
const LARGE_N: (usize, usize) = (1000, 2000);
/// Paper §5 communication-to-computation ratio of every request.
const ALPHA: f64 = 0.9;
/// Refined starts per small request.
const TOP_K: usize = 3;
/// Requests up to this size are also certified by branch-and-bound.
const CERTIFY_MAX_N: usize = 20;
const BB_NODE_BUDGET: u64 = 500_000;

/// One provisioning request.
pub struct Request {
    pub inst: Instance,
    pub seed: u64,
    pub large: bool,
}

impl Request {
    fn certify(&self) -> bool {
        !self.large && self.inst.tree.len() <= CERTIFY_MAX_N
    }
}

pub struct Inputs {
    pub requests: Vec<Request>,
    /// Seconds drawing the request stream.
    pub trace_s: f64,
    /// Seconds generating the instances.
    pub instance_s: f64,
}

pub fn setup(seed: u64) -> Inputs {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes: Vec<(usize, bool, u64)> = (0..STREAM)
        .map(|i| {
            if i % 4 == 3 {
                (rng.gen_range(LARGE_N.0..=LARGE_N.1), true, rng.next_u64())
            } else {
                (SMALL_N[(i - i / 4) % SMALL_N.len()], false, rng.next_u64())
            }
        })
        .collect();
    let trace_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let requests = shapes
        .into_iter()
        .map(|(n, large, seed)| {
            let mut inst = generate(&ScenarioParams::paper(n, ALPHA), TreeShape::Random, seed);
            if n == SMALL_N[0] {
                inst.platform.catalog = Catalog::homogeneous(0, 0);
            }
            Request { inst, seed, large }
        })
        .collect();
    Inputs {
        requests,
        trace_s,
        instance_s: t1.elapsed().as_secs_f64(),
    }
}

fn refine_options() -> PipelineOptions {
    PipelineOptions {
        refine: Some(RefineOptions {
            driver: RefineDriver::Anneal(Default::default()),
            max_evals: 3_000,
            ..Default::default()
        }),
        ..Default::default()
    }
}

fn bb_config(answer: Option<u64>) -> BranchBoundConfig {
    // The B&B prunes strictly below its incumbent: seed one dollar above
    // the answer so an already-optimal answer is still certified.
    BranchBoundConfig {
        node_budget: BB_NODE_BUDGET,
        upper_bound: answer.map(|c| c + 1),
        workers: 1,
    }
}

/// What the program returned for one request, before any checking.
pub struct Solved {
    pub best: Option<Solution>,
    /// Cheapest constructive start (refined requests only).
    pub start_cost: Option<u64>,
    /// Refinement (evals, accepted, verify-rejected) summed over starts.
    pub search: (u64, u64, u64),
    pub exact: Option<ExactResult>,
}

/// The comparable form of a checked answer: equal between repeats, and
/// between the program and the layer replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub cost: Option<u64>,
    /// `Debug` rendering of the answer's mapping.
    pub mapping: String,
    pub search: (u64, u64, u64),
    /// B&B (nodes, certified optimum).
    pub exact: Option<(u64, Option<u64>)>,
}

/// Answers one request through the program's entry points: the
/// six-heuristic portfolio for large trees, `refine_portfolio` (plus
/// `solve_exact` for N ≤ 20) otherwise.
pub fn solve(req: &Request) -> Solved {
    let inst = &req.inst;
    if req.large {
        let best = all_heuristics()
            .iter()
            .filter_map(|h| {
                solve_seeded(h.as_ref(), inst, req.seed, &PipelineOptions::default()).ok()
            })
            .min_by_key(|s| s.cost);
        return Solved {
            best,
            start_cost: None,
            search: (0, 0, 0),
            exact: None,
        };
    }
    let out = refine_portfolio(inst, req.seed, &refine_options(), TOP_K);
    let search = out.as_ref().map_or((0, 0, 0), |o| {
        (o.stats.evals, o.stats.accepted, o.stats.verify_rejected)
    });
    let start_cost = out.as_ref().map(|o| o.stats.start_cost);
    let best = out.map(|o| o.solution);
    let exact = req
        .certify()
        .then(|| solve_exact(inst, &bb_config(best.as_ref().map(|s| s.cost))));
    Solved {
        best,
        start_cost,
        search,
        exact,
    }
}

fn verified(inst: &Instance, mapping: &Mapping, cost: Option<u64>) -> Result<(), String> {
    let violations = constraints::check(inst, mapping);
    if let Some(v) = violations.first() {
        return Err(format!("answer fails the constraint check: {v:?}"));
    }
    if let Some(c) = cost.filter(|&c| c != mapping.cost(inst)) {
        return Err(format!(
            "answer priced {c} but costs {}",
            mapping.cost(inst)
        ));
    }
    Ok(())
}

/// The correctness gate of one answer: it passes the constraint check,
/// the refined answer is no dearer than the best constructive start,
/// and a certified optimum is no dearer than the answer.
pub fn check(req: &Request, solved: &Solved) -> Result<Answer, String> {
    let inst = &req.inst;
    let cost = solved.best.as_ref().map(|s| s.cost);
    if let Some(s) = &solved.best {
        verified(inst, &s.mapping, Some(s.cost))?;
    }
    if let (Some(c), Some(start)) = (cost, solved.start_cost) {
        if c > start {
            return Err(format!(
                "refined answer {c} dearer than constructive {start}"
            ));
        }
    }
    let exact = solved
        .exact
        .as_ref()
        .map(|e| (e.nodes, e.certified_bound()));
    if let Some(e) = &solved.exact {
        if let Some(m) = &e.mapping {
            verified(inst, m, None)?;
        }
        if let (Some(opt), Some(c)) = (e.certified_bound(), cost) {
            if opt > c {
                return Err(format!("certified optimum {opt} above the answer {c}"));
            }
        }
    }
    Ok(Answer {
        cost,
        mapping: solved
            .best
            .as_ref()
            .map_or(String::new(), |s| format!("{:?}", s.mapping)),
        search: solved.search,
        exact,
    })
}

/// Per-pass layer-replay tallies.
#[derive(Default)]
pub struct Replayed {
    pub heuristic_calls: u64,
    pub heuristic_ok: u64,
    pub evals: u64,
    pub accepted: u64,
    pub verify_rejected: u64,
    pub bb_calls: u64,
    pub bb_nodes: u64,
    pub bb_certified: u64,
}

impl Replayed {
    pub fn add(&mut self, o: &Replayed) {
        self.heuristic_calls += o.heuristic_calls;
        self.heuristic_ok += o.heuristic_ok;
        self.evals += o.evals;
        self.accepted += o.accepted;
        self.verify_rejected += o.verify_rejected;
        self.bb_calls += o.bb_calls;
        self.bb_nodes += o.bb_nodes;
        self.bb_certified += o.bb_certified;
    }
}

/// Re-enacts [`solve`] with the portfolio split into its calls:
/// `solve_seeded` ×6, `refine` on the cheapest three starts, and
/// `solve_exact`. The results must equal the program's.
pub fn replay_layers(requests: &[Request], rec: &mut Recorder, d: &mut Replayed) -> Vec<Solved> {
    let opts = refine_options();
    let constructive = PipelineOptions {
        refine: None,
        ..opts
    };
    let refine_opts = opts.refine.expect("refine options are set");
    let heuristics = all_heuristics();
    requests
        .iter()
        .map(|req| {
            let inst = &req.inst;
            let span = rec.enter("replay.request");
            let mut starts: Vec<Solution> = Vec::new();
            for h in &heuristics {
                let sol = rec.leaf("heuristics.portfolio", || {
                    solve_seeded(h.as_ref(), inst, req.seed, &constructive)
                });
                d.heuristic_calls += 1;
                if let Ok(s) = sol {
                    d.heuristic_ok += 1;
                    starts.push(s);
                }
            }
            let mut solved = Solved {
                best: None,
                start_cost: None,
                search: (0, 0, 0),
                exact: None,
            };
            if req.large {
                solved.best = starts.into_iter().min_by_key(|s| s.cost);
            } else {
                starts.sort_by_key(|s| s.cost);
                solved.start_cost = starts.first().map(|s| s.cost);
                for start in starts.iter().take(TOP_K) {
                    let out = rec.leaf("search.refine", || {
                        refine(inst, start, opts.placement, &refine_opts)
                    });
                    solved.search.0 += out.stats.evals;
                    solved.search.1 += out.stats.accepted;
                    solved.search.2 += out.stats.verify_rejected;
                    if solved
                        .best
                        .as_ref()
                        .is_none_or(|b| out.solution.cost < b.cost)
                    {
                        solved.best = Some(out.solution);
                    }
                }
                d.evals += solved.search.0;
                d.accepted += solved.search.1;
                d.verify_rejected += solved.search.2;
                if req.certify() {
                    let ub = solved.best.as_ref().map(|s| s.cost);
                    let exact = rec.leaf("solver.bb", || solve_exact(inst, &bb_config(ub)));
                    d.bb_calls += 1;
                    d.bb_nodes += exact.nodes;
                    d.bb_certified += exact.certified_bound().is_some() as u64;
                    solved.exact = Some(exact);
                }
            }
            rec.exit(span);
            solved
        })
        .collect()
}
