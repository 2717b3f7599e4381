//! One flag parser for every figure binary.
//!
//! Each binary used to hand-roll its own checks for `--quick`, `--no-cache`,
//! `--full` and the `MCD_*` environment variables; this module consolidates
//! them into [`Options::parse`], so a flag means the same thing everywhere
//! and new flags have exactly one place to live. The harness binaries
//! (`loadtest`, `perf_report`) take other flags, but parse their values with
//! the same [`parse_value`] and [`positive_count`].

use mcd_dvfs::error::McdError;
use std::str::FromStr;

/// Which workload tier(s) a binary evaluates (`--suite` / `MCD_SUITE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuiteSelection {
    /// The paper's nineteen batch benchmarks (the default; `--quick` selects
    /// its representative six-benchmark subset).
    #[default]
    Paper,
    /// The three server-style request-loop benchmarks.
    Server,
    /// The three bursty/interactive benchmarks.
    Interactive,
    /// The whole second tier: server + interactive (six benchmarks).
    Tier2,
    /// Every tier (the paper's nineteen plus the second tier's six;
    /// `--quick` pairs the paper subset with the full second tier).
    All,
}

impl SuiteSelection {
    /// Parses a `--suite` value. Accepted (case-insensitive): `paper`
    /// (aliases `batch`, `spec`), `server`, `interactive`, `tier2` (aliases
    /// `second`, `server+interactive`), `all`.
    pub fn parse(value: &str) -> Result<SuiteSelection, McdError> {
        match value.to_lowercase().as_str() {
            "paper" | "batch" | "spec" => Ok(SuiteSelection::Paper),
            "server" => Ok(SuiteSelection::Server),
            "interactive" => Ok(SuiteSelection::Interactive),
            "tier2" | "second" | "server+interactive" => Ok(SuiteSelection::Tier2),
            "all" => Ok(SuiteSelection::All),
            other => Err(McdError::InvalidConfig(format!(
                "unknown --suite value `{other}` (expected paper, server, interactive, \
                 tier2 or all)"
            ))),
        }
    }
}

/// The flags and environment switches shared by the figure binaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Options {
    /// `--quick` / bare `quick` / `MCD_QUICK=1`: evaluate the representative
    /// six-benchmark subset instead of the full nineteen.
    pub quick: bool,
    /// `--full`: force the full suite in binaries (the sweeps) that default
    /// to the subset.
    pub full: bool,
    /// `--no-cache` / `MCD_NO_CACHE=1`: bypass the artifact cache.
    pub no_cache: bool,
    /// `--jobs N` / `MCD_JOBS=N`: worker-thread budget. `None` means "every
    /// available core" (see [`Options::parallelism`]).
    pub jobs: Option<usize>,
    /// `--suite <tier>` / `MCD_SUITE=<tier>`: raw workload-tier selection
    /// (validated by [`Options::suite_selection`]). `None` means the
    /// binary's default tier.
    pub suite: Option<String>,
}

impl Options {
    /// Parses the process arguments and environment.
    pub fn parse() -> Result<Options, McdError> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Options::from_args(&args, |key| std::env::var(key).ok())
    }

    /// Parses explicit arguments with an explicit environment lookup —
    /// the testable core of [`Options::parse`]. Flags win over environment
    /// variables; an empty variable counts as unset.
    ///
    /// An unknown argument, a `--jobs` / `MCD_JOBS` value that is not a
    /// positive integer, and a `--suite` without a value are
    /// [`McdError::InvalidConfig`].
    pub fn from_args(
        args: &[String],
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Options, McdError> {
        let mut options = Options::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" | "quick" => options.quick = true,
                "--full" => options.full = true,
                "--no-cache" => options.no_cache = true,
                "--jobs" => options.jobs = Some(positive_count("--jobs", iter.next())?),
                "--suite" => {
                    options.suite = Some(parse_value(
                        arg,
                        iter.next(),
                        "a tier (paper, server, interactive, tier2 or all)",
                        |_: &String| true,
                    )?)
                }
                other => {
                    return Err(McdError::InvalidConfig(format!(
                        "unknown argument `{other}` (expected --quick, --full, --no-cache, \
                         --jobs N or --suite <tier>)"
                    )))
                }
            }
        }
        let env = |key: &str| env(key).filter(|v| !v.is_empty());
        let env_flag = |key: &str| env(key).is_some_and(|v| v == "1");
        options.quick = options.quick || env_flag("MCD_QUICK");
        options.no_cache = options.no_cache || env_flag("MCD_NO_CACHE");
        if options.jobs.is_none() {
            if let Some(value) = env("MCD_JOBS") {
                options.jobs = Some(positive_count("MCD_JOBS", Some(&value))?);
            }
        }
        if options.suite.is_none() {
            options.suite = env("MCD_SUITE");
        }
        Ok(options)
    }

    /// The validated workload-tier selection, defaulting to `default` when
    /// neither `--suite` nor `MCD_SUITE` was given.
    pub fn suite_selection(&self, default: SuiteSelection) -> Result<SuiteSelection, McdError> {
        match &self.suite {
            Some(value) => SuiteSelection::parse(value),
            None => Ok(default),
        }
    }

    /// The worker-thread budget: `--jobs` / `MCD_JOBS` when given, otherwise
    /// every available core.
    pub fn parallelism(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// Parses the value given to `source` (a flag, or an environment variable)
/// as a `T` that passes `valid`. A missing value, another flag in its place,
/// or a value that does not parse or is not valid is
/// [`McdError::InvalidConfig`] saying what `source` `expected`.
pub fn parse_value<T: FromStr>(
    source: &str,
    value: Option<&String>,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, McdError> {
    value
        .filter(|v| !v.starts_with("--"))
        .and_then(|v| v.parse::<T>().ok())
        .filter(valid)
        .ok_or_else(|| {
            McdError::InvalidConfig(format!(
                "{source} needs {expected}, got `{}`",
                value.map_or("", |v| v.as_str())
            ))
        })
}

/// Parses a count given to `source` (`--jobs`, `MCD_JOBS`, …), which must be
/// a positive integer.
pub fn positive_count(source: &str, value: Option<&String>) -> Result<usize, McdError> {
    parse_value(source, value, "a positive integer", |&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parse(list: &[&str]) -> Result<Options, McdError> {
        Options::from_args(&args(list), no_env)
    }

    fn rejected(result: Result<Options, McdError>) -> String {
        match result {
            Err(McdError::InvalidConfig(message)) => message,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn flags_parse_and_unknown_arguments_are_rejected() {
        let parsed = parse(&["--quick", "--no-cache", "--full"]).unwrap();
        assert!(parsed.quick && parsed.no_cache && parsed.full);
        assert_eq!(parsed.jobs, None);
        // A misspelt flag or a stray positional argument is an error, not a
        // silently ignored leftover.
        assert!(rejected(parse(&["--quik"])).contains("`--quik`"));
        assert!(rejected(parse(&["--quick", "mpeg2 decode"])).contains("`mpeg2 decode`"));
    }

    #[test]
    fn bare_quick_keyword_is_accepted() {
        let parsed = parse(&["quick"]).unwrap();
        assert!(parsed.quick);
    }

    #[test]
    fn environment_backs_up_the_flags() {
        let env = |key: &str| match key {
            "MCD_QUICK" => Some("1".to_string()),
            "MCD_NO_CACHE" => Some("0".to_string()),
            "MCD_JOBS" => Some("3".to_string()),
            _ => None,
        };
        let parsed = Options::from_args(&[], env).unwrap();
        assert!(parsed.quick);
        assert!(!parsed.no_cache);
        assert_eq!(parsed.jobs, Some(3));
        assert_eq!(parsed.parallelism(), 3);
    }

    #[test]
    fn explicit_jobs_flag_beats_the_environment() {
        let env = |key: &str| (key == "MCD_JOBS").then(|| "7".to_string());
        let parsed = Options::from_args(&args(&["--jobs", "2"]), env).unwrap();
        assert_eq!(parsed.jobs, Some(2));
    }

    #[test]
    fn jobs_does_not_swallow_a_following_flag() {
        // `--jobs --quick` is a `--jobs` without a count, not a count of
        // `--quick`; a trailing `--jobs` has no count either.
        assert!(rejected(parse(&["--jobs", "--quick"])).contains("--jobs"));
        assert!(rejected(parse(&["--quick", "--jobs"])).contains("--jobs"));
    }

    #[test]
    fn suite_flag_parses_and_validates() {
        let parsed = parse(&["--suite", "server", "--quick"]).unwrap();
        assert_eq!(parsed.suite.as_deref(), Some("server"));
        assert_eq!(
            parsed.suite_selection(SuiteSelection::Paper).unwrap(),
            SuiteSelection::Server
        );
        // Aliases and case-insensitivity.
        for (value, want) in [
            ("Paper", SuiteSelection::Paper),
            ("batch", SuiteSelection::Paper),
            ("tier2", SuiteSelection::Tier2),
            ("second", SuiteSelection::Tier2),
            ("INTERACTIVE", SuiteSelection::Interactive),
            ("all", SuiteSelection::All),
        ] {
            assert_eq!(SuiteSelection::parse(value).unwrap(), want, "{value}");
        }
        // Unknown values surface as configuration errors.
        assert!(SuiteSelection::parse("bogus").is_err());
        // Default applies when the flag is absent.
        let parsed = parse(&[]).unwrap();
        assert_eq!(
            parsed.suite_selection(SuiteSelection::Tier2).unwrap(),
            SuiteSelection::Tier2
        );
    }

    #[test]
    fn suite_does_not_swallow_a_following_flag_and_env_backs_it_up() {
        assert!(rejected(parse(&["--suite", "--quick"])).contains("--suite"));
        assert!(rejected(parse(&["--suite"])).contains("--suite"));
        let env = |key: &str| (key == "MCD_SUITE").then(|| "interactive".to_string());
        let parsed = Options::from_args(&[], env).unwrap();
        assert_eq!(parsed.suite.as_deref(), Some("interactive"));
        let parsed = Options::from_args(&args(&["--suite", "server"]), env).unwrap();
        assert_eq!(parsed.suite.as_deref(), Some("server"), "flag beats env");
    }

    #[test]
    fn invalid_jobs_values_are_rejected() {
        for value in ["zero", "0", "-2", "1.5"] {
            assert!(rejected(parse(&["--jobs", value])).contains(&format!("`{value}`")));
            let env = |key: &str| (key == "MCD_JOBS").then(|| value.to_string());
            assert!(rejected(Options::from_args(&[], env)).contains("MCD_JOBS"));
        }
        // An empty variable is unset, so the budget falls back to every core.
        let env = |key: &str| (key == "MCD_JOBS").then(String::new);
        let parsed = Options::from_args(&[], env).unwrap();
        assert_eq!(parsed.jobs, None);
        assert!(parsed.parallelism() >= 1);
    }
}
