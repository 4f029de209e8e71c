//! Criterion micro-benchmarks for the hot primitives and the per-post
//! engine costs.
//!
//! ```sh
//! cargo bench -p firehose-bench
//! ```

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use firehose_core::engine::{build_engine, AlgorithmKind};
use firehose_core::EngineConfig;
use firehose_datagen::{
    SocialGenConfig, SyntheticSocialGraph, TextGen, TextGenConfig, Workload, WorkloadConfig,
};
use firehose_graph::{build_similarity_graph, greedy_clique_cover, UndirectedGraph};
use firehose_simhash::{hamming_distance, simhash, HammingIndex, SimHashOptions};
use firehose_stream::{hours, Post, PostRecord, TimeWindowBin};

fn bench_simhash(c: &mut Criterion) {
    let mut textgen = TextGen::new(TextGenConfig::default(), 1);
    let tweets: Vec<String> = (0..512).map(|_| textgen.base_tweet()).collect();
    let bytes: u64 = tweets.iter().map(|t| t.len() as u64).sum();

    let mut group = c.benchmark_group("simhash");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("fingerprint_512_tweets", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for t in &tweets {
                acc ^= simhash(black_box(t), SimHashOptions::paper());
            }
            acc
        })
    });
    group.finish();
}

fn bench_hamming(c: &mut Criterion) {
    let fps: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();
    let mut group = c.benchmark_group("hamming");
    group.throughput(Throughput::Elements(fps.len() as u64 * fps.len() as u64));
    group.bench_function("all_pairs_1024", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &a in &fps {
                for &b2 in &fps {
                    acc = acc.wrapping_add(hamming_distance(a, b2));
                }
            }
            acc
        })
    });
    group.finish();
}

/// Shared fixture: a small synthetic workload and its similarity graph.
fn engine_fixture() -> (Arc<UndirectedGraph>, Vec<Post>) {
    let social = SyntheticSocialGraph::generate(SocialGenConfig::test_scale());
    let workload = Workload::generate(
        &social,
        WorkloadConfig {
            duration: hours(3),
            ..WorkloadConfig::default()
        },
    );
    let graph = Arc::new(build_similarity_graph(&social.graph, 0.7));
    (graph, workload.posts)
}

fn bench_engines(c: &mut Criterion) {
    let (graph, posts) = engine_fixture();
    let mut group = c.benchmark_group("engine_offer");
    group.throughput(Throughput::Elements(posts.len() as u64));
    for kind in AlgorithmKind::ALL {
        group.bench_function(kind.to_string(), |b| {
            b.iter_batched(
                || build_engine(kind, EngineConfig::paper_defaults(), Arc::clone(&graph)),
                |mut engine| {
                    for post in &posts {
                        black_box(engine.offer(post));
                    }
                    engine.metrics().posts_emitted
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_graph_construction(c: &mut Criterion) {
    let social = SyntheticSocialGraph::generate(SocialGenConfig::test_scale());
    let similarity = build_similarity_graph(&social.graph, 0.7);

    let mut group = c.benchmark_group("graph");
    group.bench_function("build_similarity_graph_240", |b| {
        b.iter(|| build_similarity_graph(black_box(&social.graph), 0.7))
    });
    group.bench_function("greedy_clique_cover_240", |b| {
        b.iter(|| greedy_clique_cover(black_box(&similarity)))
    });
    group.finish();
}

fn bench_window(c: &mut Criterion) {
    let records: Vec<PostRecord> = (0..4_096u64)
        .map(|i| PostRecord {
            id: i,
            author: (i % 64) as u32,
            timestamp: i * 500,
            fingerprint: i.wrapping_mul(0x9E37),
        })
        .collect();
    let mut group = c.benchmark_group("window");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("push_evict_4096", |b| {
        b.iter(|| {
            let mut bin = TimeWindowBin::new();
            for &r in &records {
                bin.evict_expired(r.timestamp, 60_000);
                bin.push(r);
            }
            bin.len()
        })
    });
    group.finish();
}

fn bench_manku_index(c: &mut Criterion) {
    let mut textgen = TextGen::new(TextGenConfig::default(), 5);
    let fps: Vec<u64> = (0..4_096)
        .map(|_| simhash(&textgen.base_tweet(), SimHashOptions::paper()))
        .collect();

    let mut index = HammingIndex::new(3).expect("valid");
    for &fp in &fps {
        index.insert(fp);
    }
    let queries = &fps[..64];

    let mut group = c.benchmark_group("near_duplicate_lookup_k3");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("manku_index", |b| {
        let mut matches = Vec::new();
        b.iter(|| {
            let mut acc = 0usize;
            for &q in queries {
                index.query_into(black_box(q), &mut matches);
                acc += matches.len();
            }
            acc
        })
    });
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &q in queries {
                acc += fps
                    .iter()
                    .filter(|&&fp| hamming_distance(fp, q) <= 3)
                    .count();
            }
            acc
        })
    });
    group.finish();
}

fn bench_persistence(c: &mut Criterion) {
    use firehose_graph::io::{read_undirected, write_undirected};
    let social = SyntheticSocialGraph::generate(SocialGenConfig::test_scale());
    let graph = build_similarity_graph(&social.graph, 0.7);
    let mut encoded = Vec::new();
    write_undirected(&graph, &mut encoded).expect("encode");

    let mut group = c.benchmark_group("graph_io");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("write_similarity_graph", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            write_undirected(black_box(&graph), &mut buf).expect("encode");
            buf.len()
        })
    });
    group.bench_function("read_similarity_graph", |b| {
        b.iter(|| read_undirected(&mut black_box(encoded.as_slice())).expect("decode"))
    });
    group.finish();
}

fn bench_corpus(c: &mut Criterion) {
    use firehose_stream::corpus::{read_posts, write_posts};
    let (_, posts) = engine_fixture();
    let mut encoded = Vec::new();
    write_posts(&posts, &mut encoded).expect("encode");

    let mut group = c.benchmark_group("corpus");
    group.throughput(Throughput::Elements(posts.len() as u64));
    group.bench_function("write_posts", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            write_posts(black_box(&posts), &mut buf).expect("encode");
            buf.len()
        })
    });
    group.bench_function("read_posts", |b| {
        b.iter(|| {
            read_posts(&mut black_box(encoded.as_slice()))
                .expect("decode")
                .len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_simhash, bench_hamming, bench_engines, bench_graph_construction,
        bench_window, bench_manku_index, bench_persistence,
        bench_corpus
}
criterion_main!(benches);
