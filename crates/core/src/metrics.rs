//! One snapshot of the service's counters in one text format: a [`Metrics`]
//! maps a *series*, a counter name plus an optional label written
//! `name{label="value"}`, to a `u64`, and renders as one `series value` line
//! per series, in series order (`mcd_cache_hits{kind="packed-trace"} 6`).
//! [`Evaluator::metrics`](crate::service::Evaluator::metrics) fills one; a
//! cache directory's `stats.log` is a concatenation of renderings that
//! [`Metrics::parse`] reads back.

use std::collections::BTreeMap;
use std::fmt;

/// An ordered map from series (`name{label="value"}`) to counter value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    series: BTreeMap<String, u64>,
}

impl Metrics {
    /// Adds `value` to the series `name{key="value"}` (just `name` without a
    /// label), saturating at `u64::MAX`. Names and label keys are
    /// `[A-Za-z_][A-Za-z0-9_]*`; label values hold no `"` or whitespace, so
    /// every rendering parses back.
    pub fn add(&mut self, name: &str, label: Option<(&str, &str)>, value: u64) {
        let series = series(name, label);
        debug_assert!(well_formed(&series), "malformed series {series:?}");
        self.bump(series, value);
    }

    /// The value of the series `name{key="value"}`, or `None` when absent.
    pub fn get(&self, name: &str, label: Option<(&str, &str)>) -> Option<u64> {
        self.series.get(&series(name, label)).copied()
    }

    /// The sum of every series called `name`, whatever its labels.
    pub fn total(&self, name: &str) -> u64 {
        self.series
            .iter()
            .filter(|(series, _)| series.split('{').next() == Some(name))
            .fold(0, |sum, (_, value)| sum.saturating_add(*value))
    }

    /// Adds every series of `other` into `self`: equal series add
    /// (saturating), the rest are inserted.
    pub fn merge(&mut self, other: &Metrics) {
        for (series, value) in &other.series {
            self.bump(series.clone(), *value);
        }
    }

    /// Reads a rendering (or a concatenation of renderings) back, adding
    /// equal series as [`merge`](Metrics::merge) does. A line counts only
    /// when it ends in a newline and reads `series value`, with a
    /// well-formed series and a `u64` value; every other line is skipped:
    /// a last line a crash left half-written, blank lines, a value that is
    /// not a number or overflows `u64`, and lines of other formats.
    pub fn parse(text: &str) -> Metrics {
        let mut metrics = Metrics::default();
        let lines = text
            .split_inclusive('\n')
            .filter_map(|l| l.strip_suffix('\n'));
        for (series, value) in lines.filter_map(|line| line.split_once(' ')) {
            if let (true, Ok(value)) = (well_formed(series), value.parse()) {
                metrics.bump(series.to_string(), value);
            }
        }
        metrics
    }

    fn bump(&mut self, series: String, value: u64) {
        let slot = self.series.entry(series).or_default();
        *slot = slot.saturating_add(value);
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (series, value) in &self.series {
            writeln!(f, "{series} {value}")?;
        }
        Ok(())
    }
}

/// Renders `name{key="value"}`, or just `name` without a label.
fn series(name: &str, label: Option<(&str, &str)>) -> String {
    match label {
        Some((key, value)) => format!("{name}{{{key}=\"{value}\"}}"),
        None => name.to_string(),
    }
}

/// `[A-Za-z_][A-Za-z0-9_]*`: a series name or label key.
fn is_name(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A series as [`Metrics::add`] renders it.
fn well_formed(series: &str) -> bool {
    let Some((name, label)) = series.split_once('{') else {
        return is_name(series);
    };
    let pair = label.strip_suffix("\"}").and_then(|l| l.split_once("=\""));
    let value_ok = |v: &str| !v.contains(|c: char| c == '"' || c.is_whitespace());
    is_name(name) && pair.is_some_and(|(key, value)| is_name(key) && value_ok(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        let mut m = Metrics::default();
        m.add("mcd_batch_passes", None, 6);
        m.add("mcd_cache_hits", Some(("kind", "packed-trace")), 4);
        m.add("mcd_cache_hits", Some(("kind", "window-histograms")), 2);
        m.add("mcd_fault_injected", Some(("site", "torn-write")), 0);
        m
    }

    #[test]
    fn renders_one_line_per_series_in_series_order() {
        assert_eq!(
            sample().to_string(),
            "mcd_batch_passes 6\n\
             mcd_cache_hits{kind=\"packed-trace\"} 4\n\
             mcd_cache_hits{kind=\"window-histograms\"} 2\n\
             mcd_fault_injected{site=\"torn-write\"} 0\n"
        );
        assert_eq!(Metrics::default().to_string(), "");
    }

    #[test]
    fn render_then_parse_round_trips() {
        let m = sample();
        assert_eq!(Metrics::parse(&m.to_string()), m);
        assert_eq!(Metrics::parse(""), Metrics::default());
    }

    #[test]
    fn get_reads_one_series_and_total_sums_its_labels() {
        let m = sample();
        assert_eq!(
            m.get("mcd_cache_hits", Some(("kind", "packed-trace"))),
            Some(4)
        );
        assert_eq!(
            m.get("mcd_cache_hits", Some(("kind", "training-plan"))),
            None
        );
        assert_eq!(m.get("mcd_batch_passes", None), Some(6));
        assert_eq!(m.total("mcd_cache_hits"), 6);
        assert_eq!(m.total("mcd_cache"), 0, "a prefix is not a name");
    }

    #[test]
    fn merge_adds_equal_series_and_inserts_the_rest() {
        let mut m = sample();
        let mut other = Metrics::default();
        other.add("mcd_cache_hits", Some(("kind", "packed-trace")), 3);
        other.add("mcd_memo_traces_reused", None, 1);
        m.merge(&other);
        assert_eq!(
            m.get("mcd_cache_hits", Some(("kind", "packed-trace"))),
            Some(7)
        );
        assert_eq!(m.get("mcd_memo_traces_reused", None), Some(1));
        assert_eq!(m.get("mcd_batch_passes", None), Some(6));
        // Parsing a concatenation is merging its parts.
        let twice = Metrics::parse(&format!("{}{}", sample(), sample()));
        let mut doubled = sample();
        doubled.merge(&sample());
        assert_eq!(twice, doubled);
        // Values saturate instead of overflowing.
        let mut big = Metrics::default();
        big.add("x", None, u64::MAX);
        big.merge(&big.clone());
        assert_eq!(big.get("x", None), Some(u64::MAX));
    }

    #[test]
    fn hostile_lines_are_skipped_without_panicking() {
        let good = "mcd_batch_passes 6\n";
        for (what, bad) in [
            ("truncated series", "mcd_cache_hits{kind=\"pack"),
            ("truncated value", "mcd_cache_hits{kind=\"packed-trace\"} 1"),
            ("non-numeric value", "mcd_batch_lanes many\n"),
            ("negative value", "mcd_batch_lanes -3\n"),
            (
                "overflowing value",
                "mcd_batch_lanes 18446744073709551616\n",
            ),
            ("blank lines", "\n\n   \n"),
            (
                "old stats.log format",
                "kind=packed-trace hits=1 misses=0 writes=0 errors=0 lock_waits=0\n",
            ),
            ("missing value", "mcd_batch_lanes\n"),
            ("trailing field", "mcd_batch_lanes 3 4\n"),
            ("unclosed labels", "mcd_cache_hits{kind=\"a\" 3\n"),
            ("two labels", "mcd_cache_hits{kind=\"a\",site=\"b\"} 3\n"),
            ("unquoted label", "mcd_cache_hits{kind=a} 3\n"),
            ("empty name", "{kind=\"a\"} 3\n"),
            ("digit-led name", "9lives 3\n"),
            ("invalid utf-8 replaced", "mcd_\u{fffd}hits 3\n"),
            (
                "crash-joined lines",
                "mcd_cache_hits{kind=\"pamcd_batch_passes 6\n",
            ),
        ] {
            let parsed = Metrics::parse(&format!("{good}{bad}"));
            assert_eq!(parsed, Metrics::parse(good), "{what}: {bad:?}");
        }
        assert_eq!(
            Metrics::parse("mcd_batch_lanes 18446744073709551615\n").get("mcd_batch_lanes", None),
            Some(u64::MAX)
        );
    }
}
