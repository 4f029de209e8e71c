//! Algorithm selection (Table 4).
//!
//! The paper's use-case matrix:
//!
//! | conditions | choice | example |
//! |---|---|---|
//! | very small λt, OR low throughput, OR large λa (dense G), OR RAM-critical | UniBin | News RSS, Google Scholar |
//! | large λt AND small λa AND high throughput | NeighborBin | Twitch |
//! | moderate λt AND small λa AND high throughput | CliqueBin | Twitter |
//!
//! [`recommend`] encodes the matrix with explicit, overridable regime
//! boundaries.

use firehose_core::engine::AlgorithmKind;
use firehose_stream::{hours, minutes, Timestamp};

/// Coarse stream-rate classes. "Low" throughput is the Google-Scholar /
/// small-subscription regime where UniBin's single bin stays tiny; "High" is
/// the Twitter firehose regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThroughputClass {
    /// Few posts per λt window (≲ hundreds).
    Low,
    /// Thousands of posts per λt window or more.
    High,
}

/// Inputs to the recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvisorInputs {
    /// The time diversity threshold.
    pub lambda_t: Timestamp,
    /// The author diversity threshold.
    pub lambda_a: f64,
    /// Stream rate class.
    pub throughput: ThroughputClass,
    /// Whether RAM is a hard constraint (e.g. on-device deployment of SPSD
    /// inside a client app).
    pub ram_critical: bool,
}

/// Regime boundaries; `Default` reflects the paper's discussion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AdvisorBoundaries {
    /// λt at or below which the window is "very small" (paper: ~1 minute,
    /// where UniBin won even at full throughput).
    pub(crate) very_small_lambda_t: Timestamp,
    /// λt at or above which the window is "large" (paper: hours-to-days —
    /// the Twitch scenario).
    pub(crate) large_lambda_t: Timestamp,
    /// λa at or above which the similarity graph counts as dense (paper: at
    /// 0.8 NeighborBin/CliqueBin blew up, Figure 13).
    pub(crate) dense_lambda_a: f64,
}

impl Default for AdvisorBoundaries {
    fn default() -> Self {
        Self {
            very_small_lambda_t: minutes(1),
            large_lambda_t: hours(2),
            dense_lambda_a: 0.8,
        }
    }
}

/// Table 4 with default boundaries.
pub fn recommend(inputs: AdvisorInputs) -> AlgorithmKind {
    recommend_with(inputs, AdvisorBoundaries::default())
}

/// Table 4 with explicit boundaries.
pub(crate) fn recommend_with(inputs: AdvisorInputs, b: AdvisorBoundaries) -> AlgorithmKind {
    let unibin_case = inputs.lambda_t <= b.very_small_lambda_t
        || inputs.throughput == ThroughputClass::Low
        || inputs.lambda_a >= b.dense_lambda_a
        || inputs.ram_critical;
    if unibin_case {
        AlgorithmKind::UniBin
    } else if inputs.lambda_t >= b.large_lambda_t {
        AlgorithmKind::NeighborBin
    } else {
        AlgorithmKind::CliqueBin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firehose_stream::days;

    fn base() -> AdvisorInputs {
        AdvisorInputs {
            lambda_t: minutes(30),
            lambda_a: 0.7,
            throughput: ThroughputClass::High,
            ram_critical: false,
        }
    }

    #[test]
    fn twitter_defaults_pick_cliquebin() {
        // Moderate λt, sparse G, high throughput → CliqueBin.
        assert_eq!(recommend(base()), AlgorithmKind::CliqueBin);
    }

    #[test]
    fn twitch_long_window_picks_neighborbin() {
        let inputs = AdvisorInputs {
            lambda_t: days(1),
            ..base()
        };
        assert_eq!(recommend(inputs), AlgorithmKind::NeighborBin);
    }

    #[test]
    fn news_rss_dense_graph_picks_unibin() {
        let inputs = AdvisorInputs {
            lambda_a: 0.85,
            ..base()
        };
        assert_eq!(recommend(inputs), AlgorithmKind::UniBin);
    }

    #[test]
    fn scholar_low_throughput_picks_unibin() {
        let inputs = AdvisorInputs {
            throughput: ThroughputClass::Low,
            ..base()
        };
        assert_eq!(recommend(inputs), AlgorithmKind::UniBin);
        // ... even with a long window.
        let inputs = AdvisorInputs {
            lambda_t: days(7),
            ..inputs
        };
        assert_eq!(recommend(inputs), AlgorithmKind::UniBin);
    }

    #[test]
    fn tiny_window_picks_unibin() {
        let inputs = AdvisorInputs {
            lambda_t: minutes(1),
            ..base()
        };
        assert_eq!(recommend(inputs), AlgorithmKind::UniBin);
    }

    #[test]
    fn ram_critical_overrides_everything() {
        let inputs = AdvisorInputs {
            ram_critical: true,
            lambda_t: days(1),
            ..base()
        };
        assert_eq!(recommend(inputs), AlgorithmKind::UniBin);
    }

    #[test]
    fn custom_boundaries_shift_regimes() {
        let b = AdvisorBoundaries {
            large_lambda_t: minutes(20),
            ..Default::default()
        };
        assert_eq!(recommend_with(base(), b), AlgorithmKind::NeighborBin);
    }
}
