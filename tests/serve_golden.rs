//! Golden replay fingerprints for the multi-processor serving path.
//!
//! Packing-style tenants (16–30 operators at ρ 10–20) each span several
//! processors, so admissions pack onto shared machines and every
//! departure runs evacuation-based consolidation with real destinations.
//! The committed sharded artifacts cannot pin that path: at one
//! processor per shard an evacuation never finds a destination. The
//! values are those of slot demands summed from scratch at every fit
//! test, so every cache or screen on the fit path must reproduce them: a
//! drifted packing or consolidation decision moves the log hash, the
//! counts or the integrals' last bits.

use snsp::prelude::*;

/// `(trace seed, admitted, rejected, departed, peak_procs,
/// cost_time_integral bits, mean_utilization bits, log_hash)`.
type Golden = (u64, usize, usize, usize, usize, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    (6, 591, 0, 569, 5, 0x41250c66708221f0, 0x3fed5af1c1818a66, 0x5eef46175684c950),
    (7, 520, 0, 492, 7, 0x4124576a5bb2aa07, 0x3fed68318d84d456, 0xeffa64fb4e09ff68),
    (6006, 556, 0, 540, 6, 0x412356ee5425a22b, 0x3fed2a6dd607100d, 0x6c57bbe568ac9df9),
];

fn packing_params() -> TraceParams {
    TraceParams::heavy(40.0, 0.5, 14.0)
        .with_tenant_ops(16, 30)
        .with_tenant_rho(10.0, 20.0)
}

#[test]
fn packing_replays_match_their_golden_fingerprints() {
    for &want in GOLDEN {
        let seed = want.0;
        let trace = generate_trace(&packing_params(), seed);
        let r = run_trace(&trace, &ServeConfig::default());
        let got = (
            seed,
            r.admitted,
            r.rejected,
            r.departed,
            r.peak_procs,
            r.cost_time_integral.to_bits(),
            r.mean_utilization.to_bits(),
            r.log_hash(),
        );
        assert_eq!(got, want, "trace seed {seed}");
    }
}
