//! Inputs, made from `--seed` alone: the same seed gives the same follower
//! graph, post stream, subscription table, probe user and churn trace. The
//! system under test receives only the generated files and posts. Time
//! spent here is `loadgen.gen_s` and is excluded from every other metric.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use firehose_core::service::ChurnOp;
use firehose_datagen::{
    generate_churn_trace, generate_subscriptions, ChurnGenConfig, SocialGenConfig,
    SubscriptionGenConfig, SyntheticSocialGraph, Workload, WorkloadConfig,
};
use firehose_graph::io as graph_io;
use firehose_simhash::SimHashOptions;
use firehose_stream::{hours, AuthorId, Post, PostRecord};

use crate::spec::{Kind, Params, Stream, SAMPLE_USERS};

/// Mean follows per user every generated subscription table is scaled to:
/// the mean `SubscriptionGenConfig::default()` gives over many users.
pub const FOLLOWS_PER_USER: usize = 100;

/// A churn op and the stream position it is due at.
pub struct DueOp {
    pub after_posts: usize,
    pub op: ChurnOp,
}

pub struct Inputs {
    /// Scratch directory of this run, inside the checkout.
    pub dir: PathBuf,
    pub follower_path: PathBuf,
    pub subscriptions_path: PathBuf,
    pub author_count: usize,
    /// The head of the stream: at least one pass worth of posts, ids equal
    /// to positions.
    pub posts: Vec<Post>,
    /// Mean posts per second of stream time (the engines' presizing hint).
    pub stream_rate: f64,
    /// Who follows whom: one sorted author list per user, the probe last.
    pub follows: Vec<Vec<AuthorId>>,
    pub probe_user: Option<u32>,
    pub churn: Vec<DueOp>,
    /// Users the oracle re-derives: seeded picks no churn op ever names.
    pub sample_users: Vec<u32>,
    pub gen_s: f64,
}

/// splitmix64: the benchmark's own seeded picks (probe follows, sample
/// users) must not depend on the repository's `rand` stand-in.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `k` distinct values below `n`, ascending (`k ≤ n`).
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<u32> {
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < k.min(n) {
            picked.insert(self.below(n) as u32);
        }
        picked.into_iter().collect()
    }
}

impl Inputs {
    /// Generate everything `params` needs and write the input files under
    /// `dir`. `open_loop_posts` is how many posts a rate-driven workload
    /// will send.
    pub fn generate(
        params: &Params,
        seed: u64,
        smoke: bool,
        open_loop_posts: usize,
        dir: &Path,
    ) -> Result<Self, String> {
        let started = Instant::now();
        let social_config = if smoke {
            SocialGenConfig::test_scale()
        } else {
            SocialGenConfig::bench_scale()
        };
        let social = SyntheticSocialGraph::generate(social_config.with_seed(seed));
        let author_count = social.author_count();

        // The dense day is only streamed for its first hours; generating
        // the rest would cost a second per run for posts no pass reaches.
        let duration = match params.stream {
            Stream::Day108k => hours(24),
            Stream::Day475k => hours(6),
        };
        let workload = Workload::generate(
            &social,
            WorkloadConfig {
                seed,
                duration,
                posts_per_author_per_day: params.stream.posts_per_author_per_day(),
                ..WorkloadConfig::default()
            },
        );
        let mut posts = workload.posts;
        let needed = params.pass_posts.max(open_loop_posts);
        if posts.len() < needed {
            return Err(format!(
                "{}: the generated {} holds {} posts, a pass needs {needed}",
                params.name,
                params.stream.name(),
                posts.len()
            ));
        }
        let stream_rate = posts.len() as f64 / (duration as f64 / 1_000.0);
        posts.truncate(needed);
        if let Some(p) = posts.iter().enumerate().find(|(i, p)| p.id != *i as u64) {
            return Err(format!("post at position {} has id {}", p.0, p.1.id));
        }

        let mut follows = generate_subscriptions(
            author_count,
            params.users,
            SubscriptionGenConfig {
                seed,
                ..SubscriptionGenConfig::default()
            },
        );
        let mut picks = SplitMix(seed ^ 0x0B5E_55ED);
        rebalance(
            &mut follows,
            params.users * FOLLOWS_PER_USER,
            author_count,
            &mut picks,
        );
        let probe_user = (params.probe_follows > 0).then(|| {
            follows.push(picks.distinct(params.probe_follows, author_count));
            follows.len() as u32 - 1
        });

        // `churn_every` = 0 means no churn at all.
        let ops = params
            .pass_posts
            .checked_div(params.churn_every)
            .unwrap_or(0);
        let churn: Vec<DueOp> = generate_churn_trace(
            author_count,
            &follows,
            params.pass_posts as u64,
            ChurnGenConfig {
                seed,
                ops,
                ..ChurnGenConfig::default()
            },
        )
        .into_iter()
        // The trace crosses from datagen to the service in its text form.
        .map(|entry| {
            Ok(DueOp {
                after_posts: entry.after_posts as usize,
                op: entry.event.to_string().parse::<ChurnOp>()?,
            })
        })
        .collect::<Result<_, String>>()?;

        let mut churned = vec![false; follows.len()];
        for due in &churn {
            match &due.op {
                ChurnOp::Subscribe(u, _) | ChurnOp::Unsubscribe(u, _) | ChurnOp::RemoveUser(u) => {
                    if let Some(flag) = churned.get_mut(*u as usize) {
                        *flag = true;
                    }
                }
                ChurnOp::AddUser(_) => {}
            }
        }
        let steady: Vec<u32> = (0..params.users as u32)
            .filter(|u| !churned[*u as usize])
            .collect();
        let mut sample_users: Vec<u32> = picks
            .distinct(SAMPLE_USERS, steady.len())
            .into_iter()
            .map(|i| steady[i as usize])
            .collect();
        sample_users.extend(probe_user);

        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let follower_path = dir.join("follower.fhf");
        let subscriptions_path = dir.join("subscriptions.tsv");
        let io = |e: std::io::Error| format!("cannot write inputs under {}: {e}", dir.display());
        let mut w = BufWriter::new(std::fs::File::create(&follower_path).map_err(io)?);
        graph_io::write_follower(&social.graph, &mut w).map_err(io)?;
        w.flush().map_err(io)?;
        if matches!(params.kind, Kind::Wire) {
            let mut w = BufWriter::new(std::fs::File::create(&subscriptions_path).map_err(io)?);
            write_subscriptions(&follows, &mut w).map_err(io)?;
            w.flush().map_err(io)?;
        }

        Ok(Self {
            dir: dir.to_path_buf(),
            follower_path,
            subscriptions_path,
            author_count,
            posts,
            stream_rate,
            follows,
            probe_user,
            churn,
            sample_users,
            gen_s: started.elapsed().as_secs_f64(),
        })
    }

    /// The oracle's view of the first `n` posts: fingerprinted with the
    /// paper's SimHash options, as `firehose quality` does.
    pub fn records(&self, n: usize) -> Vec<PostRecord> {
        self.posts[..n.min(self.posts.len())]
            .iter()
            .map(|p| p.to_record(SimHashOptions::paper()))
            .collect()
    }
}

/// Scale every user's follow list by one factor, so that the table holds
/// `target` follows in all (to within rounding and the list-size limits).
///
/// The generated list sizes are log-normal with a heavy tail (median 20,
/// mean 130 before the cap at the author count), so the follow total of 300
/// users varies by ±37% between seeds, and the deliveries per post, which
/// set the cost of a post in every multi-user workload, vary with it. Every
/// seed must give the same amount of work. Scaling keeps the shape of the
/// distribution; lists shrink by seeded removal and grow by seeded picks.
fn rebalance(follows: &mut [Vec<AuthorId>], target: usize, authors: usize, rng: &mut SplitMix) {
    let total: usize = follows.iter().map(Vec::len).sum();
    if total == 0 {
        return;
    }
    let factor = target as f64 / total as f64;
    for set in follows.iter_mut() {
        let want = ((set.len() as f64 * factor).round() as usize).clamp(1, authors - 1);
        while set.len() > want {
            set.swap_remove(rng.below(set.len()));
        }
        while set.len() < want {
            let author = rng.below(authors) as AuthorId;
            if !set.contains(&author) {
                set.push(author);
            }
        }
        set.sort_unstable();
    }
}

/// The `firehose serve --subscriptions` format: one user per line,
/// comma-separated author ids, `-` for nobody.
fn write_subscriptions(follows: &[Vec<AuthorId>], w: &mut impl Write) -> std::io::Result<()> {
    for set in follows {
        if set.is_empty() {
            writeln!(w, "-")?;
        } else {
            let ids: Vec<String> = set.iter().map(|a| a.to_string()).collect();
            writeln!(w, "{}", ids.join(","))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::params;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-inputs-{}", std::process::id()));
        let p = params("mspsd_churn", true).unwrap();
        let a = Inputs::generate(&p, 7, true, 0, &dir).unwrap();
        let b = Inputs::generate(&p, 7, true, 0, &dir).unwrap();
        let c = Inputs::generate(&p, 8, true, 0, &dir).unwrap();
        assert_eq!(a.posts, b.posts);
        assert_eq!(a.follows, b.follows);
        assert_eq!(a.sample_users, b.sample_users);
        assert_eq!(a.churn.len(), b.churn.len());
        assert_ne!(a.posts, c.posts, "another seed, another stream");
        assert_eq!(a.posts.len(), p.pass_posts);
        assert_eq!(a.churn.len(), p.pass_posts / p.churn_every);
        // No sampled user is ever named by a churn op.
        for due in &a.churn {
            if let ChurnOp::Subscribe(u, _) | ChurnOp::Unsubscribe(u, _) | ChurnOp::RemoveUser(u) =
                &due.op
            {
                assert!(!a.sample_users.contains(u));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_seed_gives_the_same_number_of_follows() {
        for seed in [1u64, 2, 3] {
            let mut follows = generate_subscriptions(
                4_147,
                300,
                SubscriptionGenConfig {
                    seed,
                    ..SubscriptionGenConfig::default()
                },
            );
            rebalance(
                &mut follows,
                300 * FOLLOWS_PER_USER,
                4_147,
                &mut SplitMix(seed),
            );
            let total: usize = follows.iter().map(Vec::len).sum();
            assert!(
                total.abs_diff(300 * FOLLOWS_PER_USER) <= 300,
                "seed {seed}: {total}"
            );
            for set in &follows {
                assert!(!set.is_empty() && set.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn distinct_picks_are_distinct_and_in_range() {
        let mut rng = SplitMix(1);
        let picks = rng.distinct(40, 50);
        assert_eq!(picks.len(), 40);
        assert!(picks.windows(2).all(|w| w[0] < w[1]));
        assert!(picks.iter().all(|&p| p < 50));
        assert_eq!(rng.distinct(9, 3), [0, 1, 2], "k is capped at n");
    }
}
