//! The benchmark's own arithmetic: medians, nearest-rank tails with the
//! "ten samples beyond" rule, in-memory call spans with self time, and
//! the paired differences behind `loop.self_s` and `fault.overhead_s`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; fewer and one outlier would decide the figure.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`
/// samples: `n − ⌈p/100 · n⌉`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Nearest-rank `p`-th percentile (the same rule as
/// `snsp_serve::percentile`), refused when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Result<f64, String> {
    let past = beyond(samples.len(), p);
    if past < MIN_BEYOND {
        return Err(format!(
            "p{p} of {} samples has {past} beyond it (need {MIN_BEYOND})",
            samples.len()
        ));
    }
    Ok(snsp_serve::percentile(samples, p))
}

/// Median of the paired differences `a[i] − b[i]`. Pairs come from the
/// same measuring round, so slow drift of the machine cancels.
pub fn paired_difference(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "differences need paired rounds");
    let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median(&d)
}

/// One timed call: name, start and end in nanoseconds since the
/// recorder's origin, and the index of the enclosing span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Keeps one [`Span`] per call in memory; nothing is written until the
/// run ends ([`Recorder::write_tsv`]).
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let ix = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(ix);
        // Stamp last, so the bookkeeping above is not charged to the call.
        self.spans[ix as usize].start_ns = self.now_ns();
        ix
    }

    /// Closes the innermost span, which must be `ix`.
    pub fn exit(&mut self, ix: u32) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(ix), "spans close innermost first");
        self.spans[ix as usize].end_ns = end;
    }

    /// Times `f` as a leaf span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let ix = self.enter(name);
        let r = f();
        self.exit(ix);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as `index name start_ns end_ns parent` lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its children's. The
/// recorder closes spans innermost first, so children never overlap
/// one another or overhang their parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.dur_ns();
        }
    }
    own
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    pub calls: u64,
    pub busy_s: f64,
    pub self_s: f64,
    /// Every call's duration in microseconds, in call order.
    pub durations_us: Vec<f64>,
}

/// Groups spans by name into [`Layer`] totals.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.busy_s += s.dur_ns() as f64 * 1e-9;
        l.self_s += own as f64 * 1e-9;
        l.durations_us.push(s.dur_ns() as f64 * 1e-3);
    }
    out
}

/// `part / whole`, 0 when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_tails_follow_the_serve_rule() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 50.0), Ok(500.0));
        assert_eq!(tail(&v, 99.0), Ok(990.0));
        let w: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail(&w, 95.0), Ok(190.0), "unsorted input is handled");
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(beyond(0, 99.0), 0);
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail(&v, 99.0).is_err(), "p99 of 999 samples is refused");
        assert!(tail(&v[..200], 95.0).is_ok());
        assert!(tail(&v[..199], 95.0).is_err());
    }

    #[test]
    fn self_time_subtracts_the_children() {
        // parent [0, 100) with children [10, 30) and [50, 90);
        // the grandchild [60, 70) is charged to its own parent only.
        let spans = [
            span("event", 0, 100, None),
            span("admit", 10, 30, Some(0)),
            span("depart", 50, 90, Some(0)),
            span("slo", 60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn layers_sum_busy_and_self_by_name() {
        let spans = [
            span("event", 0, 1_000, None),
            span("admit", 100, 400, Some(0)),
            span("event", 1_000, 1_500, None),
            span("admit", 1_100, 1_200, Some(2)),
        ];
        let l = layers(&spans);
        assert_eq!(l["event"].calls, 2);
        assert!((l["event"].busy_s - 1.5e-6).abs() < 1e-15);
        assert!((l["event"].self_s - 1.1e-6).abs() < 1e-15);
        assert_eq!(l["admit"].durations_us, vec![0.3, 0.1]);
    }

    #[test]
    fn recorder_nests_and_closes_in_order() {
        let mut rec = Recorder::default();
        let outer = rec.enter("request");
        let x = rec.leaf("solve", || 41 + 1);
        rec.exit(outer);
        assert_eq!(x, 42);
        let s = rec.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn loop_self_and_fault_overhead_are_paired_median_differences() {
        // loop.self_s: program wall minus the layer replay's summed layer time.
        let wall = [2.0, 2.2, 2.1];
        let layer_sum = [1.5, 1.6, 1.7];
        assert!((paired_difference(&wall, &layer_sum) - 0.5).abs() < 1e-12);
        // fault.overhead_s: with the plan minus with the empty plan; the
        // median of the pairs resists one disturbed round.
        let plan = [2.4, 2.3, 9.0, 2.35];
        let empty = [1.7, 1.6, 1.7, 1.65];
        assert!((paired_difference(&plan, &empty) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn ratios_of_nothing_are_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
