//! Connected components of a user's subscriptions, and the checkpoint
//! layouts that were written in them.
//!
//! [`user_components`] is the Section 5 decomposition the static `S_*`
//! reference (`firehose-reference`) shares one engine per component over.
//! The product no longer decides by component, but three older
//! multi-state layouts were written in components, and this module is
//! their restore-only reader:
//!
//! * the legacy positional layout — engine blobs in construction order, no
//!   subscription table (the restore target's table is the one they were
//!   written with);
//! * FHSNAP04 per-component — `(component key, engine blob)` entries;
//! * FHSNAP04 component-labelled — one window whose labels are component
//!   keys.
//!
//! Each converts in three steps: decompose the subscription table once, in
//! first-appearance order (the old slot order); decode blobs through a
//! [`CompactEngine`] of their component; and expand each component label
//! into that component's users. A component's users are the ones holding
//! it in the checkpoint's own table, so after conversion a record carries
//! exactly the users its component delivered it to.

use std::collections::HashMap;
use std::io::Read;

use firehose_graph::{UndirectedGraph, UnionFind};
use firehose_stream::{AuthorId, PostRecord};

use crate::config::EngineConfig;
use crate::engine::{order_window_records, AlgorithmKind};
use crate::metrics::EngineMetrics;
use crate::multi::compact::CompactEngine;
use crate::multi::labelled::{read_state, WindowState};
use crate::multi::subscriptions::{Subscriptions, UserId};
use crate::snapshot::{r_u64, SnapshotError, MAX_PREALLOC};

/// Decompose a user's (sorted) subscription set into connected components of
/// the similarity subgraph induced on it. Returns sorted member lists,
/// ordered by smallest member. `local` is an author-indexed scratch buffer,
/// grown to the graph's node count and left filled with `u32::MAX`, so that
/// repeated calls cost O(subscriptions + their degrees) and no hashing.
pub fn user_components(
    graph: &UndirectedGraph,
    authors: &[AuthorId],
    local: &mut Vec<u32>,
) -> Vec<Vec<AuthorId>> {
    if local.len() < graph.node_count() {
        local.resize(graph.node_count(), u32::MAX);
    }
    for (i, &a) in authors.iter().enumerate() {
        local[a as usize] = i as u32;
    }
    let mut uf = UnionFind::new(authors.len());
    for (i, &a) in authors.iter().enumerate() {
        // Each edge once: neighbor lists are sorted, so visit those above `a`.
        let neighbors = graph.neighbors(a);
        for &b in &neighbors[neighbors.partition_point(|&b| b < a)..] {
            let j = local[b as usize];
            if j != u32::MAX {
                uf.union(i as u32, j);
            }
        }
    }
    for &a in authors {
        local[a as usize] = u32::MAX;
    }
    let mut groups: HashMap<u32, Vec<AuthorId>> = HashMap::new();
    for (i, &a) in authors.iter().enumerate() {
        groups.entry(uf.find(i as u32)).or_default().push(a);
    }
    let mut comps: Vec<Vec<AuthorId>> = groups.into_values().collect();
    // Author lists inherit sortedness from `authors`; order components.
    comps.sort_by_key(|c| c[0]);
    comps
}

/// FNV-1a-64 over a component's sorted member list: the key the FHSNAP04
/// component-era layouts name a component by.
fn component_key(members: &[AuthorId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &a in members {
        for b in a.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The distinct components of a subscription table, in first-appearance
/// order over active users, each with the users holding it (ascending).
struct Decomposition {
    members: Vec<Vec<AuthorId>>,
    users: Vec<Vec<UserId>>,
}

impl Decomposition {
    fn new(graph: &UndirectedGraph, subscriptions: &Subscriptions) -> Self {
        let mut index: HashMap<Vec<AuthorId>, usize> = HashMap::new();
        let mut out = Decomposition {
            members: Vec::new(),
            users: Vec::new(),
        };
        let mut local = Vec::new();
        for u in 0..subscriptions.user_count() as UserId {
            for members in user_components(graph, subscriptions.authors_of(u), &mut local) {
                let next = out.members.len();
                let c = *index.entry(members.clone()).or_insert(next);
                if c == next {
                    out.members.push(members);
                    out.users.push(Vec::new());
                }
                out.users[c].push(u);
            }
        }
        out
    }

    /// Expand component labels into the users of those components.
    fn expand(&self, records: Vec<(PostRecord, Vec<usize>)>) -> Vec<(PostRecord, Vec<UserId>)> {
        records
            .into_iter()
            .map(|(record, comps)| {
                let mut users: Vec<UserId> = comps
                    .iter()
                    .flat_map(|&c| self.users[c].iter().copied())
                    .collect();
                users.sort_unstable();
                users.dedup();
                (record, users)
            })
            .collect()
    }

    /// Decode each `(component, blob)` through a `CompactEngine` of that
    /// component, merge the engines' records by post id (each labelled with
    /// every component that held it, then expanded into users), and adopt
    /// the blobs' summed counters so the manifest's `posts_processed`
    /// cross-check still holds. `ledger` is the component-era
    /// `(last_sweep, live_copies, peak_live_copies)`.
    fn convert(
        &self,
        kind: AlgorithmKind,
        config: &EngineConfig,
        graph: &UndirectedGraph,
        engines: Vec<(usize, Vec<u8>)>,
        ledger: [u64; 3],
    ) -> Result<WindowState<UserId>, SnapshotError> {
        let mut holders: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut records: Vec<PostRecord> = Vec::new();
        let mut metrics = EngineMetrics::default();
        let mut held = Vec::new();
        for (c, blob) in engines {
            let mut engine = CompactEngine::build(kind, *config, graph, &self.members[c]);
            let mut slice: &[u8] = &blob;
            engine.load_state(&mut slice)?;
            if !slice.is_empty() {
                return Err(SnapshotError::StructureMismatch(
                    "embedded engine state has trailing bytes",
                ));
            }
            metrics.merge(engine.metrics());
            held.clear();
            engine.window_records_into(&mut held);
            for r in &held {
                holders.entry(r.id).or_default().push(c);
            }
            records.extend_from_slice(&held);
        }
        order_window_records(&mut records);
        let [_, _, peak_live_copies] = ledger;
        metrics.peak_copies = peak_live_copies;
        metrics.peak_memory_bytes = peak_live_copies * PostRecord::SIZE_BYTES as u64;
        let records = records
            .into_iter()
            .map(|r| (r, holders.remove(&r.id).expect("held above")))
            .collect();
        Ok(WindowState {
            metrics,
            records: self.expand(records),
        })
    }
}

fn read_blob(r: &mut dyn Read) -> Result<Vec<u8>, SnapshotError> {
    let len = r_u64(r)?;
    // `len` is untrusted: `take` bounds the read, the capacity hint is
    // capped, and a lying length is caught by the exact-size check.
    let mut bytes = Vec::with_capacity((len as usize).min(MAX_PREALLOC));
    let got = r.take(len).read_to_end(&mut bytes)?;
    if got as u64 != len {
        return Err(SnapshotError::Io(std::io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(bytes)
}

fn read_ledger(r: &mut dyn Read) -> Result<[u64; 3], SnapshotError> {
    Ok([r_u64(r)?, r_u64(r)?, r_u64(r)?])
}

/// The legacy positional layout: a `u32` engine count, that many blobs in
/// construction order, then the ledger. `head` is the 8 bytes already read
/// (the count and the first 4 body bytes). It carries no subscription
/// table, so it converts over `subscriptions`, the restore target's.
pub(crate) fn read_positional(
    head: [u8; 8],
    r: &mut dyn Read,
    kind: AlgorithmKind,
    config: &EngineConfig,
    graph: &UndirectedGraph,
    subscriptions: &Subscriptions,
) -> Result<WindowState<UserId>, SnapshotError> {
    let count = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    let mut r = (&head[4..]).chain(r);
    let mut blobs = Vec::with_capacity(count.min(MAX_PREALLOC));
    for _ in 0..count {
        blobs.push(read_blob(&mut r)?);
    }
    let ledger = read_ledger(&mut r)?;
    let decomposition = Decomposition::new(graph, subscriptions);
    if blobs.len() != decomposition.members.len() {
        return Err(SnapshotError::StructureMismatch(
            "legacy engine count does not match decomposition",
        ));
    }
    let engines = blobs.into_iter().enumerate().collect();
    decomposition.convert(kind, config, graph, engines, ledger)
}

/// The FHSNAP04 per-component body (after the table): the ledger, then
/// `(key, blob)` entries in ascending key order, one per component of
/// `subscriptions`.
pub(crate) fn read_per_component(
    r: &mut dyn Read,
    kind: AlgorithmKind,
    config: &EngineConfig,
    graph: &UndirectedGraph,
    subscriptions: &Subscriptions,
) -> Result<WindowState<UserId>, SnapshotError> {
    let ledger = read_ledger(r)?;
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let count = u32::from_le_bytes(b4) as usize;
    let mut blobs = HashMap::with_capacity(count.min(MAX_PREALLOC));
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let key = r_u64(r)?;
        if prev.is_some_and(|p| p >= key) {
            return Err(SnapshotError::StructureMismatch("engine keys out of order"));
        }
        prev = Some(key);
        blobs.insert(key, read_blob(r)?);
    }
    let decomposition = Decomposition::new(graph, subscriptions);
    let mut engines = Vec::with_capacity(blobs.len());
    for (c, members) in decomposition.members.iter().enumerate() {
        let blob =
            blobs
                .remove(&component_key(members))
                .ok_or(SnapshotError::StructureMismatch(
                    "missing engine state for a component",
                ))?;
        engines.push((c, blob));
    }
    if !blobs.is_empty() {
        return Err(SnapshotError::StructureMismatch(
            "engine state for an unknown component",
        ));
    }
    decomposition.convert(kind, config, graph, engines, ledger)
}

/// The FHSNAP04 component-labelled body (after the table): a watermark the
/// window no longer keeps, then the window with component keys as labels.
pub(crate) fn read_component_labelled(
    r: &mut dyn Read,
    graph: &UndirectedGraph,
    subscriptions: &Subscriptions,
) -> Result<WindowState<UserId>, SnapshotError> {
    r_u64(r)?;
    let state = read_state(r, |r| r_u64(r))?;
    let decomposition = Decomposition::new(graph, subscriptions);
    let component_of: HashMap<u64, usize> = decomposition
        .members
        .iter()
        .enumerate()
        .map(|(c, members)| (component_key(members), c))
        .collect();
    let mut records = Vec::with_capacity(state.records.len());
    for (record, keys) in state.records {
        let comps = keys
            .iter()
            .map(|k| component_of.get(k).copied())
            .collect::<Option<Vec<usize>>>()
            .ok_or(SnapshotError::StructureMismatch(
                "window label for an unknown component",
            ))?;
        records.push((record, comps));
    }
    Ok(WindowState {
        metrics: state.metrics,
        records: decomposition.expand(records),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{w_u32, w_u64, write_metrics};

    /// The paper's Figure 7: edges 0-1, 0-5, 3-4; u0 follows {0,1,3,5}, u1
    /// follows {0,1,3,4,5}.
    fn figure7() -> (UndirectedGraph, Subscriptions) {
        let graph = UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]);
        let subs = Subscriptions::new(6, vec![vec![0, 1, 3, 5], vec![0, 1, 3, 4, 5]]).unwrap();
        (graph, subs)
    }

    #[test]
    fn user_components_decomposition() {
        let (graph, subs) = figure7();
        let mut local = Vec::new();
        let c1 = user_components(&graph, subs.authors_of(0), &mut local);
        assert_eq!(c1, vec![vec![0, 1, 5], vec![3]]);
        let c2 = user_components(&graph, subs.authors_of(1), &mut local);
        assert_eq!(c2, vec![vec![0, 1, 5], vec![3, 4]]);
    }

    #[test]
    fn component_key_distinguishes_lists() {
        assert_ne!(component_key(&[0, 1, 5]), component_key(&[0, 1]));
        assert_ne!(component_key(&[0]), component_key(&[1]));
        assert_eq!(component_key(&[3, 4]), component_key(&[3, 4]));
    }

    /// First appearance is the old slot order: {0,1,5} and {3} from u0,
    /// then u1's {3,4}; the shared one lists both users.
    #[test]
    fn decomposition_is_in_first_appearance_order() {
        let (graph, subs) = figure7();
        let d = Decomposition::new(&graph, &subs);
        assert_eq!(d.members, [vec![0, 1, 5], vec![3], vec![3, 4]]);
        assert_eq!(d.users, [vec![0, 1], vec![0], vec![1]]);
    }

    fn rec(id: u64, author: AuthorId) -> PostRecord {
        PostRecord {
            id,
            author,
            timestamp: id * 1_000,
            fingerprint: id,
        }
    }

    /// Write a component-labelled body: watermark, counters, records.
    fn component_labelled(records: &[(PostRecord, Vec<u64>)]) -> Vec<u8> {
        let mut buf = Vec::new();
        w_u64(&mut buf, 99).unwrap();
        write_metrics(&mut buf, &EngineMetrics::default()).unwrap();
        w_u64(&mut buf, records.len() as u64).unwrap();
        for (r, keys) in records {
            w_u64(&mut buf, r.id).unwrap();
            w_u32(&mut buf, r.author).unwrap();
            w_u64(&mut buf, r.timestamp).unwrap();
            w_u64(&mut buf, r.fingerprint).unwrap();
            w_u32(&mut buf, keys.len() as u32).unwrap();
            for &k in keys {
                w_u64(&mut buf, k).unwrap();
            }
        }
        buf
    }

    #[test]
    fn component_labels_expand_into_their_users() {
        let (graph, subs) = figure7();
        let buf = component_labelled(&[
            (rec(1, 0), vec![component_key(&[0, 1, 5])]),
            (rec(2, 3), vec![component_key(&[3]), component_key(&[3, 4])]),
            (rec(3, 4), vec![component_key(&[3, 4])]),
        ]);
        let state = read_component_labelled(&mut &buf[..], &graph, &subs).unwrap();
        let labels: Vec<(u64, Vec<UserId>)> = state
            .records
            .iter()
            .map(|(r, users)| (r.id, users.clone()))
            .collect();
        assert_eq!(labels, [(1, vec![0, 1]), (2, vec![0, 1]), (3, vec![1])]);

        // A key that names no component of the table is refused.
        let buf = component_labelled(&[(rec(1, 0), vec![42])]);
        let Err(err) = read_component_labelled(&mut &buf[..], &graph, &subs) else {
            panic!("an unknown component key must be refused");
        };
        assert!(
            matches!(err, SnapshotError::StructureMismatch(_)),
            "{err:?}"
        );
    }
}
