//! Diversity thresholds and engine configuration.

use firehose_simhash::SimHashOptions;
use firehose_stream::{minutes, Timestamp};

/// The three diversity thresholds of Definition 1.
///
/// Defaults follow the paper's evaluation: `λc = 18` (the precision/recall
/// crossover of Figure 4), `λt = 30` minutes, `λa = 0.7` (authors similar iff
/// followee cosine ≥ 0.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Content: maximum SimHash Hamming distance (0..=64).
    pub lambda_c: u32,
    /// Time: maximum timestamp distance in milliseconds.
    pub lambda_t: Timestamp,
    /// Author: maximum author distance `1 − cosine` in `[0, 1]`.
    pub lambda_a: f64,
}

/// Validation errors for [`Thresholds`], [`ApproxConfig`] and
/// [`MemoryMode`] parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `λc` exceeds the fingerprint width.
    ContentThresholdTooLarge {
        /// The rejected content threshold.
        lambda_c: u32,
    },
    /// `λa` is not a probability-like distance in `[0, 1]`.
    AuthorThresholdOutOfRange {
        /// The rejected author threshold.
        lambda_a: f64,
    },
    /// Approx-mode probe count outside `1..=16` (tables = probes; key width
    /// `64 / probes` must stay ≥ 4 bits for the prefix buckets to select).
    ApproxProbesOutOfRange {
        /// The rejected probe count.
        probes: u32,
    },
    /// Approx-mode per-bucket retention budget outside
    /// `1..=`[`ApproxConfig::MAX_BUCKET_BUDGET`].
    ApproxBudgetOutOfRange {
        /// The rejected bucket budget.
        bucket_budget: u32,
    },
    /// Approx-mode sketch granularity (buckets per λt window) outside
    /// `1..=`[`ApproxConfig::MAX_GRANULARITY`].
    ApproxGranularityOutOfRange {
        /// The rejected granularity.
        granularity: u32,
    },
    /// A `--memory` style mode string that is neither `exact` nor
    /// `approx[:budget]`.
    BadMemoryMode {
        /// The rejected input.
        input: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ContentThresholdTooLarge { lambda_c } => {
                write!(f, "λc = {lambda_c} exceeds the 64-bit fingerprint width")
            }
            Self::AuthorThresholdOutOfRange { lambda_a } => {
                write!(f, "λa = {lambda_a} outside [0, 1]")
            }
            Self::ApproxProbesOutOfRange { probes } => {
                write!(f, "approx probes = {probes} outside 1..=16")
            }
            Self::ApproxBudgetOutOfRange { bucket_budget } => {
                write!(
                    f,
                    "approx bucket budget = {bucket_budget} outside 1..={}",
                    ApproxConfig::MAX_BUCKET_BUDGET
                )
            }
            Self::ApproxGranularityOutOfRange { granularity } => {
                write!(
                    f,
                    "approx granularity = {granularity} outside 1..={}",
                    ApproxConfig::MAX_GRANULARITY
                )
            }
            Self::BadMemoryMode { input } => {
                write!(f, "memory mode '{input}' is not exact | approx[:budget]")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Thresholds {
    /// Validated constructor.
    pub fn new(lambda_c: u32, lambda_t: Timestamp, lambda_a: f64) -> Result<Self, ConfigError> {
        if lambda_c > 64 {
            return Err(ConfigError::ContentThresholdTooLarge { lambda_c });
        }
        if !(0.0..=1.0).contains(&lambda_a) || lambda_a.is_nan() {
            return Err(ConfigError::AuthorThresholdOutOfRange { lambda_a });
        }
        Ok(Self {
            lambda_c,
            lambda_t,
            lambda_a,
        })
    }

    /// The paper's default evaluation setting: `λc = 18`, `λt = 30 min`,
    /// `λa = 0.7`.
    pub fn paper_defaults() -> Self {
        Self {
            lambda_c: 18,
            lambda_t: minutes(30),
            lambda_a: 0.7,
        }
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Shape of the approximate coverage backend: how many prefix tables a
/// lookup probes, and how aggressively the sliding-window sketch caps
/// retention. Construct through [`ApproxConfig::new`] (validated) or take
/// [`Default`]; the fields are read-only so an out-of-range shape can never
/// reach an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxConfig {
    probes: u32,
    bucket_budget: u32,
    granularity: u32,
}

impl ApproxConfig {
    /// Default permuted prefix tables per lookup (index distance
    /// `min(probes − 1, λc)` = 7 at the paper's `λc = 18`).
    pub const DEFAULT_PROBES: u32 = 8;
    /// Default records retained per time bucket.
    pub const DEFAULT_BUCKET_BUDGET: u32 = 8;
    /// Default time buckets per λt window.
    pub const DEFAULT_GRANULARITY: u32 = 8;
    /// Upper bound on the per-bucket budget — beyond this the "approximate"
    /// mode retains more than any realistic exact window.
    pub const MAX_BUCKET_BUDGET: u32 = 1 << 20;
    /// Upper bound on buckets per window.
    pub const MAX_GRANULARITY: u32 = 1 << 16;

    /// Validated constructor. `probes ∈ 1..=16`, `bucket_budget ≥ 1`,
    /// `granularity ≥ 1` (see the per-variant bounds on [`ConfigError`]).
    pub fn new(probes: u32, bucket_budget: u32, granularity: u32) -> Result<Self, ConfigError> {
        if !(1..=16).contains(&probes) {
            return Err(ConfigError::ApproxProbesOutOfRange { probes });
        }
        if !(1..=Self::MAX_BUCKET_BUDGET).contains(&bucket_budget) {
            return Err(ConfigError::ApproxBudgetOutOfRange { bucket_budget });
        }
        if !(1..=Self::MAX_GRANULARITY).contains(&granularity) {
            return Err(ConfigError::ApproxGranularityOutOfRange { granularity });
        }
        Ok(Self {
            probes,
            bucket_budget,
            granularity,
        })
    }

    /// Prefix tables probed per lookup.
    pub fn probes(&self) -> u32 {
        self.probes
    }

    /// Records retained per time bucket.
    pub(crate) fn bucket_budget(&self) -> u32 {
        self.bucket_budget
    }

    /// Time buckets per λt window.
    pub(crate) fn granularity(&self) -> u32 {
        self.granularity
    }
}

impl Default for ApproxConfig {
    fn default() -> Self {
        Self {
            probes: Self::DEFAULT_PROBES,
            bucket_budget: Self::DEFAULT_BUCKET_BUDGET,
            granularity: Self::DEFAULT_GRANULARITY,
        }
    }
}

/// Which coverage backend the engines run: the exact SoA window scan, or
/// the tiered approximate backend (bounded retention + prefix-probe
/// lookup). Exact mode is the default and keeps decisions byte-identical
/// to every prior release; approx mode trades a measured redundancy delta
/// for ≥10x less window RAM (see the quality gate).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MemoryMode {
    /// Exact sliding windows — the paper's semantics, bit for bit.
    #[default]
    Exact,
    /// Tiered approximate windows with the given shape.
    Approx(ApproxConfig),
}

impl MemoryMode {
    /// True for the approximate backend.
    pub(crate) fn is_approx(&self) -> bool {
        matches!(self, Self::Approx(_))
    }

    /// Stable lowercase label (`exact` / `approx`) for gauges and logs.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Approx(_) => "approx",
        }
    }
}

impl std::fmt::Display for MemoryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Exact => f.write_str("exact"),
            Self::Approx(cfg) => write!(f, "approx:{}", cfg.bucket_budget()),
        }
    }
}

impl std::str::FromStr for MemoryMode {
    type Err = ConfigError;

    /// Parse the CLI surface: `exact`, `approx`, or `approx:<budget>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Self::Exact),
            "approx" => Ok(Self::Approx(ApproxConfig::default())),
            _ => match s.strip_prefix("approx:") {
                Some(budget) => {
                    let bucket_budget =
                        budget
                            .parse::<u32>()
                            .map_err(|_| ConfigError::BadMemoryMode {
                                input: s.to_string(),
                            })?;
                    Ok(Self::Approx(ApproxConfig::new(
                        ApproxConfig::DEFAULT_PROBES,
                        bucket_budget,
                        ApproxConfig::DEFAULT_GRANULARITY,
                    )?))
                }
                None => Err(ConfigError::BadMemoryMode {
                    input: s.to_string(),
                }),
            },
        }
    }
}

/// Full engine configuration: thresholds plus fingerprinting options.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineConfig {
    /// The three diversity thresholds.
    pub thresholds: Thresholds,
    /// How post text is fingerprinted (normalization, weights, n-grams).
    pub simhash: SimHashOptions,
    /// Expected stream rate in posts/second offered to this engine, used
    /// only to pre-size λt-window bins (`window_capacity_hint`). `0.0`
    /// (the default) means unknown: bins start empty and grow on demand.
    /// Never affects decisions or metrics.
    pub expected_rate: f64,
    /// Which coverage backend the engine runs ([`MemoryMode::Exact`] by
    /// default). Unlike `expected_rate`, this *does* affect decisions in
    /// approx mode — the measured divergence is published by the quality
    /// gate.
    pub memory: MemoryMode,
}

impl EngineConfig {
    /// Cap on the `window_capacity_hint` bin pre-sizing: 1 Mi
    /// records ≈ 32 MiB of columns. A mis-estimated rate (or `λt = ∞`)
    /// must not pre-allocate unbounded memory; beyond this the bins' own
    /// doubling takes over.
    pub const MAX_CAPACITY_HINT: usize = 1 << 20;

    /// Configuration with the given thresholds and paper-default SimHash.
    pub fn new(thresholds: Thresholds) -> Self {
        Self {
            thresholds,
            simhash: SimHashOptions::paper(),
            expected_rate: 0.0,
            memory: MemoryMode::Exact,
        }
    }

    /// Paper-default everything.
    pub fn paper_defaults() -> Self {
        Self::new(Thresholds::paper_defaults())
    }

    /// Start a builder from the given thresholds — the typed construction
    /// path for everything beyond the thresholds (rate hint, memory mode,
    /// SimHash options).
    pub fn builder(thresholds: Thresholds) -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: Self::new(thresholds),
        }
    }

    /// Expected λt-window occupancy: `expected_rate × λt`, the steady-state
    /// number of live posts a full window holds (every emitted post stays
    /// exactly λt). `0` when no rate is known — engines treat that as "no
    /// hint". Clamped to [`MAX_CAPACITY_HINT`](Self::MAX_CAPACITY_HINT).
    pub(crate) fn window_capacity_hint(&self) -> usize {
        if !self.expected_rate.is_finite() || self.expected_rate <= 0.0 {
            return 0;
        }
        let expected = self.expected_rate * (self.thresholds.lambda_t as f64 / 1_000.0);
        if expected >= Self::MAX_CAPACITY_HINT as f64 {
            Self::MAX_CAPACITY_HINT
        } else {
            expected.ceil() as usize
        }
    }
}

/// Builder for [`EngineConfig`] — the one sanctioned way to set the
/// non-threshold knobs. Every value that needs validation is validated
/// *before* it can reach the builder ([`Thresholds::new`],
/// [`ApproxConfig::new`], the `FromStr` impl on [`MemoryMode`]), so
/// [`build`](Self::build) is infallible.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Set the expected stream rate (posts/second) for bin pre-sizing.
    pub fn expected_rate(mut self, posts_per_sec: f64) -> Self {
        self.config.expected_rate = posts_per_sec;
        self
    }

    /// Select the coverage backend.
    pub fn memory(mut self, memory: MemoryMode) -> Self {
        self.config.memory = memory;
        self
    }

    /// Finish the configuration.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let t = Thresholds::paper_defaults();
        assert_eq!(t.lambda_c, 18);
        assert_eq!(t.lambda_t, minutes(30));
        assert_eq!(t.lambda_a, 0.7);
    }

    #[test]
    fn rejects_oversized_lambda_c() {
        assert!(matches!(
            Thresholds::new(65, 0, 0.5),
            Err(ConfigError::ContentThresholdTooLarge { .. })
        ));
        assert!(Thresholds::new(64, 0, 0.5).is_ok());
    }

    #[test]
    fn rejects_bad_lambda_a() {
        assert!(Thresholds::new(18, 0, -0.1).is_err());
        assert!(Thresholds::new(18, 0, 1.1).is_err());
        assert!(Thresholds::new(18, 0, f64::NAN).is_err());
        assert!(Thresholds::new(18, 0, 0.0).is_ok());
        assert!(Thresholds::new(18, 0, 1.0).is_ok());
    }

    #[test]
    fn capacity_hint_is_rate_times_window() {
        let thresholds = Thresholds::new(18, minutes(30), 0.7).unwrap();
        let config = EngineConfig::new(thresholds);
        assert_eq!(config.window_capacity_hint(), 0, "no rate ⇒ no hint");
        // 10 posts/sec × 1800 s window = 18 000 expected live posts.
        let config = EngineConfig::builder(thresholds)
            .expected_rate(10.0)
            .build();
        assert_eq!(config.window_capacity_hint(), 18_000);
    }

    #[test]
    fn capacity_hint_is_clamped_and_total() {
        let infinite = Thresholds::new(18, u64::MAX, 0.7).unwrap();
        let config = EngineConfig::builder(infinite).expected_rate(1.0).build();
        assert_eq!(
            config.window_capacity_hint(),
            EngineConfig::MAX_CAPACITY_HINT
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0] {
            let config = EngineConfig::builder(Thresholds::paper_defaults())
                .expected_rate(bad)
                .build();
            assert_eq!(config.window_capacity_hint(), 0);
        }
    }

    #[test]
    fn builder_sets_all_knobs() {
        let approx = ApproxConfig::new(4, 16, 2).unwrap();
        let config = EngineConfig::builder(Thresholds::paper_defaults())
            .expected_rate(5.0)
            .memory(MemoryMode::Approx(approx))
            .build();
        assert_eq!(config.expected_rate, 5.0);
        assert_eq!(config.memory, MemoryMode::Approx(approx));
        assert_eq!(config.thresholds, Thresholds::paper_defaults());
        // The plain constructor defaults to exact mode.
        assert_eq!(EngineConfig::paper_defaults().memory, MemoryMode::Exact);
    }

    #[test]
    fn approx_config_validates() {
        assert!(ApproxConfig::new(8, 8, 8).is_ok());
        assert!(matches!(
            ApproxConfig::new(0, 8, 8),
            Err(ConfigError::ApproxProbesOutOfRange { probes: 0 })
        ));
        assert!(matches!(
            ApproxConfig::new(17, 8, 8),
            Err(ConfigError::ApproxProbesOutOfRange { probes: 17 })
        ));
        assert!(matches!(
            ApproxConfig::new(8, 0, 8),
            Err(ConfigError::ApproxBudgetOutOfRange { .. })
        ));
        assert!(matches!(
            ApproxConfig::new(8, 8, 0),
            Err(ConfigError::ApproxGranularityOutOfRange { .. })
        ));
        assert!(ApproxConfig::new(8, ApproxConfig::MAX_BUCKET_BUDGET + 1, 8).is_err());
        assert!(ApproxConfig::new(8, 8, 8).is_ok());
    }

    #[test]
    fn memory_mode_parses_cli_forms() {
        use std::str::FromStr;
        assert_eq!(MemoryMode::from_str("exact").unwrap(), MemoryMode::Exact);
        assert_eq!(
            MemoryMode::from_str("approx").unwrap(),
            MemoryMode::Approx(ApproxConfig::default())
        );
        assert_eq!(
            MemoryMode::from_str("approx:64").unwrap(),
            MemoryMode::Approx(ApproxConfig {
                bucket_budget: 64,
                ..ApproxConfig::default()
            })
        );
        assert!(matches!(
            MemoryMode::from_str("approx:zillions"),
            Err(ConfigError::BadMemoryMode { .. })
        ));
        assert!(matches!(
            MemoryMode::from_str("approx:0"),
            Err(ConfigError::ApproxBudgetOutOfRange { .. })
        ));
        assert!(matches!(
            MemoryMode::from_str("fuzzy"),
            Err(ConfigError::BadMemoryMode { .. })
        ));
        // Display round-trips through FromStr.
        for s in ["exact", "approx:8", "approx:512"] {
            assert_eq!(MemoryMode::from_str(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn error_messages_render() {
        let e = Thresholds::new(99, 0, 0.5).unwrap_err();
        assert!(e.to_string().contains("99"));
        let e = Thresholds::new(18, 0, 2.0).unwrap_err();
        assert!(e.to_string().contains('2'));
        let e = ApproxConfig::new(0, 8, 8).unwrap_err();
        assert!(e.to_string().contains("probes"));
        let e = "nope".parse::<MemoryMode>().unwrap_err();
        assert!(e.to_string().contains("nope"));
    }
}
