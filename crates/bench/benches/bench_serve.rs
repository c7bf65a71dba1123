//! Online-serving throughput: how fast the admission/placement loop
//! replays a trace. Two axes — a plain Poisson trace (hot path:
//! incremental packing plus departure re-consolidation) and a churn
//! trace with failures (adds re-mapping and eviction). Engine spot
//! validation is disabled so the bench isolates the serving layer, not
//! the fluid simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snsp_gen::{generate_trace, TraceParams};
use snsp_serve::{run_trace, run_trace_chaos, FaultPlan, ServeConfig, ShardOptions};

fn replay_config() -> ServeConfig {
    ServeConfig {
        final_validation: false,
        ..Default::default()
    }
}

fn serve_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_trace");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    let scenarios = [
        ("poisson", TraceParams::poisson(0.5, 6.0, 60.0)),
        (
            "churn",
            TraceParams::poisson(0.5, 6.0, 60.0).with_failures(0.1),
        ),
    ];
    for (name, params) in scenarios {
        let trace = generate_trace(&params, 7);
        group.bench_with_input(BenchmarkId::new("replay", name), &trace, |b, trace| {
            b.iter(|| run_trace(trace, &replay_config()))
        });
    }
    group.finish();
}

/// Sharded replay scaling: one dense trace, 4 tenant shards, swept over
/// the per-tick replay-worker count. Worker count never changes results
/// (the determinism tests pin that), so this isolates pure wall-clock
/// scaling of the tick/barrier executor.
fn sharded_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_sharded");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    let trace = generate_trace(&TraceParams::heavy(40.0, 0.8, 10.0), 7);
    let plan = FaultPlan::default();
    for workers in [1usize, 2, 4] {
        let opts = ShardOptions { shards: 4, workers };
        group.bench_with_input(BenchmarkId::new("workers", workers), &trace, |b, trace| {
            b.iter(|| run_trace_chaos(trace, &replay_config(), &opts, &plan))
        });
    }
    group.finish();
}

criterion_group!(benches, serve_replay, sharded_replay);
criterion_main!(benches);
