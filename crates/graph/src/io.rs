//! Binary persistence for precomputed graph artifacts.
//!
//! The paper computes the author similarity graph and the clique cover
//! *offline* ("once every week") and assumes they are loaded in memory when
//! the stream engines start. This module provides the missing plumbing: a
//! compact little-endian binary format with a magic header and version, for
//! [`FollowerGraph`], [`UndirectedGraph`] and [`CliqueCover`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [8] magic      b"FHGRAPH1" / b"FHFOLLW1" / b"FHCOVER1"
//! [4] n          node count (u32)
//! then per structure:
//!   graphs:  n × { [4] degree, degree × [4] neighbor }   (sorted adjacency)
//!   covers:  [4] clique count, per clique { [4] size, size × [4] node }
//! ```
//!
//! Readers validate the magic, node bounds, sortedness and (for covers)
//! membership consistency, so a truncated or corrupted file fails loudly
//! instead of yielding a silently wrong graph.

use std::io::{self, Read, Write};

use crate::clique_cover::CliqueCover;
use crate::follower::FollowerGraph;
use crate::undirected::UndirectedGraph;
use crate::NodeId;

const MAGIC_UNDIRECTED: &[u8; 8] = b"FHGRAPH1";
const MAGIC_FOLLOWER: &[u8; 8] = b"FHFOLLW1";
const MAGIC_COVER: &[u8; 8] = b"FHCOVER1";

/// Errors from the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// What was expected.
        expected: &'static str,
    },
    /// A node id exceeded the declared node count.
    NodeOutOfRange {
        /// The offending id.
        node: u32,
        /// Declared node count.
        n: u32,
    },
    /// Adjacency or clique lists were not sorted/deduplicated.
    NotSorted,
    /// The structure is internally inconsistent (e.g. asymmetric adjacency).
    Inconsistent(&'static str),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::BadMagic { expected } => write!(f, "bad magic (expected {expected})"),
            IoError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range (n = {n})")
            }
            IoError::NotSorted => write!(f, "adjacency list not sorted/deduplicated"),
            IoError::Inconsistent(what) => write!(f, "inconsistent structure: {what}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

fn write_u32<W: Write>(w: &mut W, x: u32) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_magic<R: Read>(
    r: &mut R,
    expected: &'static [u8; 8],
    name: &'static str,
) -> Result<(), IoError> {
    let mut got = [0u8; 8];
    r.read_exact(&mut got)?;
    if &got != expected {
        return Err(IoError::BadMagic { expected: name });
    }
    Ok(())
}

fn read_sorted_list<R: Read>(r: &mut R, n: u32) -> Result<Vec<NodeId>, IoError> {
    let len = read_u32(r)?;
    if len > n {
        return Err(IoError::Inconsistent("list longer than node count"));
    }
    let mut out = Vec::with_capacity(len as usize);
    let mut prev: Option<u32> = None;
    for _ in 0..len {
        let v = read_u32(r)?;
        if v >= n {
            return Err(IoError::NodeOutOfRange { node: v, n });
        }
        if prev.is_some_and(|p| p >= v) {
            return Err(IoError::NotSorted);
        }
        prev = Some(v);
        out.push(v);
    }
    Ok(out)
}

/// Serialize an undirected graph.
pub fn write_undirected<W: Write>(g: &UndirectedGraph, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC_UNDIRECTED)?;
    write_u32(w, g.node_count() as u32)?;
    for u in 0..g.node_count() as NodeId {
        let ns = g.neighbors(u);
        write_u32(w, ns.len() as u32)?;
        for &v in ns {
            write_u32(w, v)?;
        }
    }
    Ok(())
}

/// Deserialize an undirected graph, validating symmetry.
pub fn read_undirected<R: Read>(r: &mut R) -> Result<UndirectedGraph, IoError> {
    read_magic(r, MAGIC_UNDIRECTED, "FHGRAPH1")?;
    let n = read_u32(r)?;
    let mut adjacency = Vec::with_capacity(n as usize);
    for _ in 0..n {
        adjacency.push(read_sorted_list(r, n)?);
    }
    // Rebuild through the public API to re-establish invariants (and verify
    // symmetry as we go).
    let mut g = UndirectedGraph::new(n as usize);
    for (u, ns) in adjacency.iter().enumerate() {
        for &v in ns {
            if u as u32 <= v {
                g.add_edge(u as u32, v);
            }
        }
    }
    for (u, ns) in adjacency.iter().enumerate() {
        if g.neighbors(u as u32) != ns.as_slice() {
            return Err(IoError::Inconsistent("asymmetric adjacency"));
        }
    }
    Ok(g)
}

/// Serialize a follower graph (followee lists only; follower lists are
/// rebuilt on load).
pub fn write_follower<W: Write>(g: &FollowerGraph, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC_FOLLOWER)?;
    write_u32(w, g.node_count() as u32)?;
    for u in 0..g.node_count() as NodeId {
        let ns = g.followees(u);
        write_u32(w, ns.len() as u32)?;
        for &v in ns {
            write_u32(w, v)?;
        }
    }
    Ok(())
}

/// Deserialize a follower graph.
pub fn read_follower<R: Read>(r: &mut R) -> Result<FollowerGraph, IoError> {
    read_magic(r, MAGIC_FOLLOWER, "FHFOLLW1")?;
    let n = read_u32(r)?;
    let mut g = FollowerGraph::new(n as usize);
    for u in 0..n {
        for v in read_sorted_list(r, n)? {
            // The list is strictly ascending, so a refused follow is a
            // self-follow, which `write_follower` never writes.
            if !g.add_follow(u, v) {
                return Err(IoError::Inconsistent("self-follow"));
            }
        }
    }
    Ok(g)
}

/// Serialize a clique cover (cliques only; `Author2Cliques` is rebuilt).
pub fn write_cover<W: Write>(cover: &CliqueCover, n: usize, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC_COVER)?;
    write_u32(w, n as u32)?;
    write_u32(w, cover.count() as u32)?;
    for clique in cover.cliques() {
        write_u32(w, clique.len() as u32)?;
        for &v in clique {
            write_u32(w, v)?;
        }
    }
    Ok(())
}

/// Deserialize a clique cover over `n` nodes.
pub fn read_cover<R: Read>(r: &mut R) -> Result<CliqueCover, IoError> {
    read_magic(r, MAGIC_COVER, "FHCOVER1")?;
    let n = read_u32(r)?;
    let count = read_u32(r)?;
    let mut cliques = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let clique = read_sorted_list(r, n)?;
        if clique.len() < 2 {
            return Err(IoError::Inconsistent("clique with fewer than 2 nodes"));
        }
        cliques.push(clique);
    }
    Ok(CliqueCover::from_sorted_cliques(n as usize, cliques))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique_cover::greedy_clique_cover;
    use proptest::prelude::*;

    fn roundtrip_undirected(g: &UndirectedGraph) -> UndirectedGraph {
        let mut buf = Vec::new();
        write_undirected(g, &mut buf).unwrap();
        read_undirected(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn undirected_roundtrip() {
        let g = UndirectedGraph::from_edges(6, [(0, 1), (1, 2), (0, 2), (4, 5)]);
        assert_eq!(roundtrip_undirected(&g), g);
        assert_eq!(
            roundtrip_undirected(&UndirectedGraph::new(0)),
            UndirectedGraph::new(0)
        );
    }

    #[test]
    fn follower_roundtrip() {
        let g = FollowerGraph::from_edges(5, [(0, 1), (0, 2), (3, 0), (4, 2)]);
        let mut buf = Vec::new();
        write_follower(&g, &mut buf).unwrap();
        let h = read_follower(&mut buf.as_slice()).unwrap();
        assert_eq!(h.node_count(), 5);
        assert_eq!(h.edge_count(), g.edge_count());
        for u in 0..5 {
            assert_eq!(h.followees(u), g.followees(u));
            assert_eq!(h.followers(u), g.followers(u));
        }
    }

    #[test]
    fn cover_roundtrip() {
        let g = UndirectedGraph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        let cover = greedy_clique_cover(&g);
        let mut buf = Vec::new();
        write_cover(&cover, 5, &mut buf).unwrap();
        let loaded = read_cover(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.cliques(), cover.cliques());
        loaded.validate(&g).unwrap();
        for u in 0..5 {
            assert_eq!(loaded.cliques_of(u), cover.cliques_of(u));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTMAGIC\x00\x00\x00\x00".to_vec();
        assert!(matches!(
            read_undirected(&mut buf.as_slice()),
            Err(IoError::BadMagic { .. })
        ));
        assert!(matches!(
            read_follower(&mut buf.as_slice()),
            Err(IoError::BadMagic { .. })
        ));
        assert!(matches!(
            read_cover(&mut buf.as_slice()),
            Err(IoError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let g = UndirectedGraph::from_edges(4, [(0, 1), (2, 3)]);
        let mut buf = Vec::new();
        write_undirected(&g, &mut buf).unwrap();
        for cut in [4usize, 10, buf.len() - 2] {
            let res = read_undirected(&mut &buf[..cut]);
            assert!(res.is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn out_of_range_node_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_UNDIRECTED);
        buf.extend_from_slice(&2u32.to_le_bytes()); // n = 2
        buf.extend_from_slice(&1u32.to_le_bytes()); // degree 1
        buf.extend_from_slice(&7u32.to_le_bytes()); // neighbor 7 >= n
        assert!(matches!(
            read_undirected(&mut buf.as_slice()),
            Err(IoError::NodeOutOfRange { node: 7, n: 2 })
        ));
    }

    #[test]
    fn unsorted_list_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_FOLLOWER);
        buf.extend_from_slice(&3u32.to_le_bytes()); // n = 3
        buf.extend_from_slice(&2u32.to_le_bytes()); // degree 2
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // descending
        assert!(matches!(
            read_follower(&mut buf.as_slice()),
            Err(IoError::NotSorted)
        ));
    }

    #[test]
    fn self_follow_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_FOLLOWER);
        buf.extend_from_slice(&2u32.to_le_bytes()); // n = 2
        buf.extend_from_slice(&2u32.to_le_bytes()); // node 0: degree 2
        buf.extend_from_slice(&0u32.to_le_bytes()); // 0 follows itself
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // node 1: degree 0
        assert!(matches!(
            read_follower(&mut buf.as_slice()),
            Err(IoError::Inconsistent("self-follow"))
        ));
    }

    #[test]
    fn error_messages_render() {
        assert!(IoError::BadMagic {
            expected: "FHGRAPH1"
        }
        .to_string()
        .contains("FHGRAPH1"));
        assert!(IoError::NodeOutOfRange { node: 9, n: 3 }
            .to_string()
            .contains('9'));
        assert!(IoError::NotSorted.to_string().contains("sorted"));
    }

    proptest! {
        #[test]
        fn undirected_roundtrip_any(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60)
        ) {
            let g = UndirectedGraph::from_edges(20, edges);
            prop_assert_eq!(roundtrip_undirected(&g), g);
        }

        #[test]
        fn cover_roundtrip_any(
            edges in proptest::collection::vec((0u32..14, 0u32..14), 0..40)
        ) {
            let g = UndirectedGraph::from_edges(14, edges);
            let cover = greedy_clique_cover(&g);
            let mut buf = Vec::new();
            write_cover(&cover, 14, &mut buf).unwrap();
            let loaded = read_cover(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(loaded.cliques(), cover.cliques());
            prop_assert!(loaded.validate(&g).is_ok());
        }
    }
}
