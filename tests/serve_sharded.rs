//! Integration tests for the sharded serve tier: cross-shard buy/evict
//! decisions must resolve identically no matter how the per-tick shard
//! batches are scheduled. The same trace replays at 1/2/4 shards, each
//! shard count driven with 1 and 4 workers, and every worker count must
//! produce the identical event log, log fingerprint, metrics, and final
//! platform fingerprint (per-shard costs, purchased kinds, assignments
//! and downloads). Every replay runs the one engine under the empty fault
//! plan; its equivalence with a sequential, tick-free replay is pinned by
//! the oracle test in `snsp-serve`'s shard module.

use snsp::prelude::*;

fn replay(trace: &Trace, shards: usize, workers: usize) -> (TraceReport, ShardedPlatform) {
    let opts = ShardOptions { shards, workers };
    let (report, platform) =
        replay_trace_chaos(trace, &ServeConfig::default(), &opts, &FaultPlan::default());
    (report.base, platform)
}

/// A trace with enough churn to exercise every cross-shard path:
/// admissions that buy, departures that consolidate, and failures whose
/// global lottery spans shards and whose evictions cross back.
fn churny_params() -> TraceParams {
    TraceParams::poisson(0.8, 5.0, 30.0).with_failures(0.15)
}

#[test]
fn sharded_replay_is_identical_at_every_worker_count() {
    let trace = generate_trace(&churny_params(), 21);
    for shards in [1usize, 2, 4] {
        let (base, base_platform) = replay(&trace, shards, 1);
        assert_eq!(base.admitted + base.rejected, base.arrivals);
        for workers in [2usize, 4] {
            let (report, platform) = replay(&trace, shards, workers);
            let at = format!("{shards} shards, {workers} workers");
            assert_eq!(base.log, report.log, "{at}: event log diverged");
            assert_eq!(base.log_hash(), report.log_hash(), "{at}");
            assert_eq!(
                base_platform.fingerprint(),
                platform.fingerprint(),
                "{at}: final platform state diverged"
            );
            assert_eq!(base.final_cost, report.final_cost, "{at}");
            assert_eq!(base.peak_cost, report.peak_cost, "{at}");
            assert_eq!(base.peak_procs, report.peak_procs, "{at}");
            assert_eq!(base.evicted, report.evicted, "{at}");
            assert_eq!(
                base.cost_time_integral, report.cost_time_integral,
                "{at}: integrals must match bit-for-bit"
            );
            assert_eq!(base.mean_utilization, report.mean_utilization, "{at}");
        }
    }
}

/// Shard snapshots stay jointly feasible through churn: after a full
/// replay with failures, every shard's compacted snapshot passes the
/// paper's joint constraint verifier.
#[test]
fn final_shard_snapshots_verify_jointly() {
    let trace = generate_trace(&churny_params(), 5);
    let (report, platform) = replay(&trace, 4, 2);
    assert!(report.admitted > 0);
    let mut resident = 0;
    for snap in platform.snapshots().into_iter().flatten() {
        let (multi, sol) = snap;
        verify_joint(&multi, &sol).expect("shard snapshot verifies");
        resident += sol.assignments.len();
    }
    assert_eq!(resident, platform.tenant_count());
    assert_eq!(platform.cost(), report.final_cost);
}

/// Admission latencies are sampled per successful admission at every
/// shard count, `run_trace` included (values are wall-clock and
/// unstable, but the sample *count* is deterministic).
#[test]
fn admission_latency_sample_counts_are_deterministic() {
    let trace = generate_trace(&churny_params(), 13);
    let unsharded = run_trace(&trace, &ServeConfig::default());
    assert_eq!(unsharded.admit_latencies_us.len(), unsharded.admitted);
    for shards in [1usize, 2] {
        let (report, _) = replay(&trace, shards, 2);
        assert_eq!(report.admit_latencies_us.len(), report.admitted);
        assert!(report.admit_latencies_us.iter().all(|&us| us > 0.0));
    }
}
