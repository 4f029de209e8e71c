//! Surrogate user study (Figures 3–4).
//!
//! The paper stratified 2,000 tweet pairs by raw-text SimHash distance
//! (100 pairs per distance in 3..=22), had 3 students label each pair as
//! redundant-or-not, and took the majority vote. We cannot rerun the study,
//! but the paper itself validates a mechanical oracle: *"we found that the
//! precision and recall lines cross at cosine similarity 0.7, where all posts
//! with cosine similarity above 0.7 are marked as redundant. This achieves
//! precision and recall of 0.96 and 0.95 respectively, which is the same as
//! what we achieved using SimHash."* So the surrogate labels a pair redundant
//! iff normalized-text cosine ≥ 0.7, perturbs that truth with three
//! simulated annotators, and majority-votes — regenerating the study's label
//! distribution without its humans.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use firehose_simhash::{hamming_distance, simhash, SimHashOptions};
use firehose_text::cosine_similarity;
use firehose_text::{normalize, NormalizeOptions};

use crate::textgen::{TextGen, TextGenConfig};

/// Parameters of the surrogate study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserStudyConfig {
    /// RNG seed.
    pub seed: u64,
    /// Pairs collected per raw-SimHash distance value.
    pub pairs_per_distance: usize,
    /// Inclusive distance range to stratify over (paper: 3..=22).
    pub distance_min: u32,
    /// Inclusive upper end of the distance range.
    pub distance_max: u32,
    /// Number of simulated annotators (odd; paper: 3).
    pub annotators: usize,
    /// Per-annotator probability of flipping the true label.
    pub annotator_noise: f64,
    /// Cosine similarity at or above which a pair is truly redundant.
    pub cosine_threshold: f64,
    /// Text generation parameters.
    pub text: TextGenConfig,
}

impl Default for UserStudyConfig {
    fn default() -> Self {
        Self {
            seed: 0x57CD,
            pairs_per_distance: 100,
            distance_min: 3,
            distance_max: 22,
            annotators: 3,
            annotator_noise: 0.06,
            cosine_threshold: 0.7,
            text: TextGenConfig::default(),
        }
    }
}

/// One labeled pair.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledPair {
    /// First tweet.
    pub a: String,
    /// Second tweet.
    pub b: String,
    /// SimHash distance on raw (unnormalized) text — the stratification key.
    pub raw_distance: u32,
    /// Majority-vote label: are the tweets redundant w.r.t. each other?
    pub redundant: bool,
}

/// A precision/recall point at one Hamming threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// The Hamming distance threshold `h`.
    pub threshold: u32,
    /// Fraction of pairs at distance ≤ h that are truly redundant.
    pub precision: f64,
    /// Fraction of redundant pairs detected at distance ≤ h.
    pub recall: f64,
}

/// The generated study: stratified, labeled pairs.
#[derive(Debug, Clone)]
pub struct UserStudy {
    /// All labeled pairs.
    pub pairs: Vec<LabeledPair>,
    /// The configuration used.
    pub config: UserStudyConfig,
    /// Short-URL registry of the generator (the paper "showed the expanded
    /// URL" to annotators; preprocessing experiments expand through this).
    pub url_registry: crate::urls::UrlRegistry,
}

impl UserStudy {
    /// Generate the study. Deterministic in `config.seed`.
    ///
    /// Candidate pairs are produced by chaining 1..=8 random mutations onto a
    /// base tweet — one mutation lands at small distances, many mutations (or
    /// unlucky ones) drift to the 15–22 band — and bucketed by raw-text
    /// SimHash distance until every bucket in `distance_min..=distance_max`
    /// holds `pairs_per_distance` pairs (or a generation budget is
    /// exhausted; near-full buckets are normal at the extreme distances,
    /// just like collecting real tweets).
    pub fn generate(config: UserStudyConfig) -> Self {
        assert!(
            config.distance_min <= config.distance_max,
            "empty distance range"
        );
        assert!(config.annotators % 2 == 1, "annotator count must be odd");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut textgen = TextGen::new(config.text, config.seed ^ 0x1AB5);
        let raw = SimHashOptions::raw();

        let buckets = (config.distance_max - config.distance_min + 1) as usize;
        let mut per_bucket: Vec<Vec<(String, String, u32)>> = vec![Vec::new(); buckets];
        let target = config.pairs_per_distance;
        let budget = target * buckets * 60;

        for _ in 0..budget {
            if per_bucket.iter().all(|b| b.len() >= target) {
                break;
            }
            let base = textgen.base_tweet();
            let mut mutated = base.clone();
            let chain = 1 + rng.random_range(0..8);
            for _ in 0..chain {
                let class = textgen.random_class();
                mutated = textgen.mutate(&mutated, class);
            }
            let d = hamming_distance(simhash(&base, raw), simhash(&mutated, raw));
            if d < config.distance_min || d > config.distance_max {
                continue;
            }
            let bucket = (d - config.distance_min) as usize;
            if per_bucket[bucket].len() < target {
                per_bucket[bucket].push((base, mutated, d));
            }
        }

        // Label: cosine-0.7 oracle + noisy annotators + majority vote.
        let mut pairs = Vec::with_capacity(buckets * target);
        for bucket in per_bucket {
            for (a, b, raw_distance) in bucket {
                let na = normalize(&a, NormalizeOptions::paper());
                let nb = normalize(&b, NormalizeOptions::paper());
                let truth = cosine_similarity(&na, &nb) >= config.cosine_threshold;
                let mut votes = 0usize;
                for _ in 0..config.annotators {
                    let vote = if rng.random_bool(config.annotator_noise) {
                        !truth
                    } else {
                        truth
                    };
                    votes += usize::from(vote);
                }
                let redundant = votes * 2 > config.annotators;
                pairs.push(LabeledPair {
                    a,
                    b,
                    raw_distance,
                    redundant,
                });
            }
        }

        Self {
            pairs,
            config,
            url_registry: textgen.url_registry().clone(),
        }
    }

    /// Number of labeled pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the study holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of pairs labeled redundant (the paper found 949 of 2,000).
    pub fn redundant_count(&self) -> usize {
        self.pairs.iter().filter(|p| p.redundant).count()
    }

    /// Precision/recall of the Hamming-threshold classifier under the given
    /// fingerprinting options, for every threshold in the stratified range.
    ///
    /// `SimHashOptions::raw()` regenerates Figure 3;
    /// `SimHashOptions::paper()` regenerates Figure 4.
    pub fn precision_recall(&self, options: SimHashOptions) -> Vec<PrecisionRecall> {
        self.precision_recall_with(options, |t| t.to_string())
    }

    /// Like [`precision_recall`](Self::precision_recall), with an arbitrary
    /// text preprocessor applied before fingerprinting — used to evaluate the
    /// Section 3 preprocessing variants (abbreviation expansion, token
    /// weighting, URL handling) the way the paper did.
    pub fn precision_recall_with<F>(
        &self,
        options: SimHashOptions,
        preprocess: F,
    ) -> Vec<PrecisionRecall>
    where
        F: Fn(&str) -> String,
    {
        let distances: Vec<u32> = self
            .pairs
            .iter()
            .map(|p| {
                hamming_distance(
                    simhash(&preprocess(&p.a), options),
                    simhash(&preprocess(&p.b), options),
                )
            })
            .collect();
        let positives = self.redundant_count().max(1);

        (self.config.distance_min..=self.config.distance_max)
            .map(|h| {
                let mut tp = 0usize;
                let mut fp = 0usize;
                for (pair, &d) in self.pairs.iter().zip(&distances) {
                    if d <= h {
                        if pair.redundant {
                            tp += 1;
                        } else {
                            fp += 1;
                        }
                    }
                }
                let detected = (tp + fp).max(1);
                PrecisionRecall {
                    threshold: h,
                    precision: tp as f64 / detected as f64,
                    recall: tp as f64 / positives as f64,
                }
            })
            .collect()
    }

    /// The threshold where precision and recall cross (minimum absolute
    /// difference), with its P/R values. The paper reports the crossover of
    /// the normalized pipeline at `h = 18` with `P = 0.96`, `R = 0.95`.
    pub fn crossover(&self, options: SimHashOptions) -> PrecisionRecall {
        let curve = self.precision_recall(options);
        curve
            .into_iter()
            .min_by(|x, y| {
                (x.precision - x.recall)
                    .abs()
                    .partial_cmp(&(y.precision - y.recall).abs())
                    .expect("finite P/R")
            })
            .expect("non-empty threshold range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study() -> UserStudy {
        UserStudy::generate(UserStudyConfig {
            pairs_per_distance: 12,
            ..UserStudyConfig::default()
        })
    }

    #[test]
    fn buckets_fill_and_stratify() {
        let s = small_study();
        assert!(s.len() >= 12 * 10, "only {} pairs collected", s.len());
        for p in &s.pairs {
            assert!((3..=22).contains(&p.raw_distance));
        }
    }

    #[test]
    fn labels_correlate_with_distance() {
        let s = small_study();
        let low: Vec<&LabeledPair> = s.pairs.iter().filter(|p| p.raw_distance <= 8).collect();
        let high: Vec<&LabeledPair> = s.pairs.iter().filter(|p| p.raw_distance >= 20).collect();
        let frac = |ps: &[&LabeledPair]| {
            ps.iter().filter(|p| p.redundant).count() as f64 / ps.len().max(1) as f64
        };
        assert!(
            frac(&low) > frac(&high),
            "low-distance pairs must be redundant more often: {} vs {}",
            frac(&low),
            frac(&high)
        );
    }

    #[test]
    fn recall_monotone_in_threshold() {
        let s = small_study();
        let curve = s.precision_recall(SimHashOptions::paper());
        for w in curve.windows(2) {
            assert!(w[1].recall >= w[0].recall, "recall must not decrease");
        }
    }

    #[test]
    fn precision_high_at_low_thresholds() {
        let s = small_study();
        let curve = s.precision_recall(SimHashOptions::paper());
        assert!(curve[0].precision > 0.8, "P@3 = {}", curve[0].precision);
    }

    #[test]
    fn normalization_improves_crossover() {
        let s = UserStudy::generate(UserStudyConfig {
            pairs_per_distance: 25,
            ..UserStudyConfig::default()
        });
        let raw = s.crossover(SimHashOptions::raw());
        let norm = s.crossover(SimHashOptions::paper());
        let f1 = |pr: PrecisionRecall| {
            2.0 * pr.precision * pr.recall / (pr.precision + pr.recall).max(1e-9)
        };
        assert!(
            f1(norm) >= f1(raw) - 0.02,
            "normalized crossover must not be worse: {norm:?} vs {raw:?}"
        );
        assert!(f1(norm) > 0.8, "normalized crossover too weak: {norm:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small_study();
        let b = small_study();
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn url_registry_resolves_study_urls() {
        let s = small_study();
        let mut resolved = 0;
        for pair in &s.pairs {
            for token in pair.a.split_whitespace().chain(pair.b.split_whitespace()) {
                // Clean short-URL tokens only: mutations may glue "..." or
                // punctuation onto a URL, which (realistically) breaks it.
                let clean = token.len() == "http://t.co/".len() + 10
                    && token.starts_with("http://t.co/")
                    && token["http://t.co/".len()..]
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric());
                if clean {
                    assert!(
                        s.url_registry.expand(token).is_some(),
                        "unknown short URL {token}"
                    );
                    resolved += 1;
                }
            }
        }
        assert!(resolved > 0, "the study should contain URLs");
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_annotators_rejected() {
        UserStudy::generate(UserStudyConfig {
            annotators: 2,
            ..UserStudyConfig::default()
        });
    }
}
