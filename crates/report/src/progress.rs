//! Live progress and metrics renderers for the telemetry hub.
//!
//! [`render_progress`] turns a snapshot of the hub's host [`Counts`] into
//! the single-line campaign ticker the `experiments` binaries redraw on
//! stderr while a fleet runs; [`render_metrics`] turns a
//! [`MetricsSnapshot`] into the human-readable table printed after
//! `results/metrics.json` is written.
//! Both are pure string builders — no I/O, no terminal control beyond the
//! caller prefixing `\r` — so they stay trivially testable.

use ballista::telemetry::{Counter, Counts, HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write as _;

/// Renders the single-line live ticker:
///
/// ```text
/// [3/15 campaigns] 12847/46800 cases (27%) · 412 cases/s · 2 catastrophic
/// ```
///
/// `elapsed_secs` is wall time since the fleet started; a zero elapsed
/// time reports `0 cases/s` rather than dividing by zero. The line is
/// fixed-order and contains no escape codes, so it is safe to log as-is
/// when stderr is not a terminal.
#[must_use]
pub fn render_progress(c: &Counts, elapsed_secs: f64) -> String {
    let (executed, planned) = (c[Counter::CasesExecuted], c[Counter::CasesPlanned]);
    let pct = (executed.min(planned) * 100)
        .checked_div(planned)
        .unwrap_or(0);
    let rate = if elapsed_secs > 0.0 {
        (executed as f64 / elapsed_secs).round() as u64
    } else {
        0
    };
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "[{}/{} campaigns] {executed}/{planned} cases ({pct}%) · {rate} cases/s · {} in-place · {} catastrophic",
        c[Counter::CampaignsFinished],
        c[Counter::CampaignsBegun],
        c[Counter::RestoresFast],
        c[Counter::Catastrophics]
    );
    s
}

/// One `p50 ≈ …, p99 ≈ …, max ≤ …` digest of a log₂ histogram, or `"-"`
/// when the histogram is empty. The quantiles are upper bounds of the
/// bucket containing the quantile — exact enough for an operator glance,
/// honest about being bucketed.
fn histogram_digest(h: &HistogramSnapshot, unit: &str) -> String {
    if h.count == 0 {
        return "-".to_owned();
    }
    let quantile_le = |q: f64| -> u64 {
        let target = (h.count as f64 * q).ceil() as u64;
        let mut seen = 0u64;
        for b in &h.buckets {
            seen += b.count;
            if seen >= target {
                return b.le;
            }
        }
        h.buckets.last().map_or(0, |b| b.le)
    };
    format!(
        "n={} p50≤{}{unit} p99≤{}{unit} mean≈{}{unit}",
        h.count,
        quantile_le(0.50),
        quantile_le(0.99),
        h.sum / h.count.max(1),
    )
}

/// Renders a [`MetricsSnapshot`] as the two-section table the
/// `experiments` binaries print after a telemetry-enabled run. The
/// `deterministic` section is engine-invariant (safe to diff across
/// engines); the `host` section is this machine's business only.
#[must_use]
pub fn render_metrics(m: &MetricsSnapshot) -> String {
    let d = &m.deterministic;
    let h = &m.host;
    let mut s = String::with_capacity(1024);
    s.push_str("metrics (deterministic — engine-invariant)\n");
    let _ = writeln!(s, "  campaigns        {}", d.campaigns);
    let _ = writeln!(s, "  cases applied    {}", d.cases_applied);
    let _ = writeln!(
        s,
        "  classes          pass={} hindering={} silent={} abort={} restart={} catastrophic={}",
        d.classes.pass,
        d.classes.hindering,
        d.classes.silent,
        d.classes.abort,
        d.classes.restart,
        d.classes.catastrophic
    );
    let _ = writeln!(s, "  total fuel       {}", d.total_fuel);
    let _ = writeln!(s, "  case fuel        {}", histogram_digest(&d.case_fuel, ""));
    s.push_str("metrics (host — not comparable across engines)\n");
    let _ = writeln!(s, "  cases executed   {}", h[Counter::CasesExecuted]);
    let _ = writeln!(s, "  boots            {}", h[Counter::Boots]);
    let _ = writeln!(s, "  restores         {}", h[Counter::Restores]);
    let _ = writeln!(s, "  restores (fast)  {}", h[Counter::RestoresFast]);
    let _ = writeln!(s, "  restores (full)  {}", h[Counter::RestoresFull]);
    let _ = writeln!(s, "  boot latency     {}", histogram_digest(&h.boot_ns, "ns"));
    let _ = writeln!(s, "  restore latency  {}", histogram_digest(&h.restore_ns, "ns"));
    let _ = writeln!(s, "  journal appends  {}", h[Counter::JournalAppends]);
    let _ = writeln!(s, "  journal fsyncs   {}", h[Counter::JournalFsyncs]);
    let _ = writeln!(s, "  fsync latency    {}", histogram_digest(&h.fsync_ns, "ns"));
    let _ = writeln!(s, "  quarantine retries {}", h[Counter::QuarantineRetries]);
    let _ = writeln!(s, "  quarantined MuTs {}", h[Counter::QuarantinedMuts]);
    let _ = writeln!(s, "  selfcheck failures {}", h[Counter::SelfcheckFailures]);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballista::telemetry::{Counters, HistogramBucket};

    #[test]
    fn progress_line_is_single_line_and_div_safe() {
        let set = Counters::default();
        let line = render_progress(&set.snapshot(), 0.0);
        assert!(!line.contains('\n'));
        assert!(line.contains("[0/0 campaigns]"));
        assert!(line.contains("0 cases/s"));

        for (counter, n) in [
            (Counter::CasesPlanned, 400),
            (Counter::CasesExecuted, 100),
            (Counter::CampaignsBegun, 2),
            (Counter::CampaignsFinished, 1),
            (Counter::Catastrophics, 3),
            (Counter::RestoresFast, 97),
        ] {
            set.add(counter, n);
        }
        let line = render_progress(&set.snapshot(), 2.0);
        assert!(line.contains("100/400 cases (25%)"), "{line}");
        assert!(line.contains("50 cases/s"), "{line}");
        assert!(line.contains("97 in-place"), "{line}");
        assert!(line.contains("3 catastrophic"), "{line}");
    }

    #[test]
    fn metrics_table_covers_both_sections() {
        let mut m = MetricsSnapshot::default();
        m.deterministic.cases_applied = 7;
        let set = Counters::default();
        for (counter, n) in [
            (Counter::Boots, 7),
            (Counter::Restores, 6),
            (Counter::RestoresFast, 5),
            (Counter::RestoresFull, 1),
        ] {
            set.add(counter, n);
        }
        m.host.counts = set.snapshot();
        m.host.boot_ns = HistogramSnapshot {
            count: 4,
            sum: 4000,
            buckets: vec![
                HistogramBucket { le: 1023, count: 3 },
                HistogramBucket { le: 2047, count: 1 },
            ],
        };
        let table = render_metrics(&m);
        assert!(table.contains("deterministic — engine-invariant"));
        assert!(table.contains("restores (fast)  5"), "{table}");
        assert!(table.contains("restores (full)  1"), "{table}");
        assert!(table.contains("cases applied    7"));
        assert!(table.contains("p50≤1023ns"), "{table}");
        assert!(table.contains("p99≤2047ns"), "{table}");
        assert!(table.contains("case fuel        -"), "{table}");
    }
}
