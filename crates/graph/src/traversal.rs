//! Breadth-first traversal, distances, diameter, and spanning trees.

use crate::graph::Graph;
use std::collections::VecDeque;

/// BFS distances from `src` to every node; `u32::MAX` marks unreachable
/// nodes.
#[must_use]
pub fn bfs_distances(g: &Graph, src: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut q = VecDeque::new();
    dist[src as usize] = 0;
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        let dv = dist[v as usize];
        for &w in g.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dv + 1;
                q.push_back(w);
            }
        }
    }
    dist
}

/// `true` iff the graph is connected (vacuously true for `n ≤ 1`).
#[must_use]
pub fn is_connected(g: &Graph) -> bool {
    if g.n() <= 1 {
        return true;
    }
    bfs_distances(g, 0).iter().all(|&d| d != u32::MAX)
}

/// Graph-theoretic distance between `a` and `b`, or `None` if disconnected.
#[must_use]
pub fn distance(g: &Graph, a: u32, b: u32) -> Option<u32> {
    let d = bfs_distances(g, a)[b as usize];
    (d != u32::MAX).then_some(d)
}

/// A shortest path from `src` to `dst` (inclusive of both endpoints), or
/// `None` if disconnected. Ties broken toward lower node ids.
#[must_use]
pub fn shortest_path(g: &Graph, src: u32, dst: u32) -> Option<Vec<u32>> {
    shortest_path_along(g, &bfs_distances(g, dst), src)
}

/// [`shortest_path`] from `src` to the root of `dist`, a distance field
/// from [`bfs_distances`]: callers that route many paths to one
/// destination run its BFS once. Each step goes to the lowest-id
/// neighbour one hop closer.
#[must_use]
pub fn shortest_path_along(g: &Graph, dist: &[u32], src: u32) -> Option<Vec<u32>> {
    if dist[src as usize] == u32::MAX {
        return None;
    }
    let mut path = vec![src];
    let mut cur = src;
    while dist[cur as usize] != 0 {
        let dc = dist[cur as usize];
        let next = g
            .neighbors(cur)
            .iter()
            .copied()
            .find(|&w| dist[w as usize] + 1 == dc)
            .expect("BFS distance field must decrease toward dst");
        path.push(next);
        cur = next;
    }
    Some(path)
}

/// Diameter of a connected graph (all-pairs via per-node BFS).
///
/// # Panics
///
/// Panics if the graph is disconnected.
#[must_use]
pub fn diameter(g: &Graph) -> u32 {
    let mut best = 0;
    for v in 0..g.n() as u32 {
        let d = bfs_distances(g, v);
        for &x in &d {
            assert!(x != u32::MAX, "diameter of a disconnected graph");
            best = best.max(x);
        }
    }
    best
}

/// BFS spanning tree rooted at `root`: `parent[v]` is the tree parent,
/// `parent[root] = root`.
///
/// # Panics
///
/// Panics if the graph is disconnected.
#[must_use]
pub fn spanning_tree(g: &Graph, root: u32) -> Vec<u32> {
    let mut parent = vec![u32::MAX; g.n()];
    let mut q = VecDeque::new();
    parent[root as usize] = root;
    q.push_back(root);
    while let Some(v) = q.pop_front() {
        for &w in g.neighbors(v) {
            if parent[w as usize] == u32::MAX {
                parent[w as usize] = v;
                q.push_back(w);
            }
        }
    }
    assert!(
        parent.iter().all(|&p| p != u32::MAX),
        "spanning tree of a disconnected graph"
    );
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factories;

    #[test]
    fn distances_on_path() {
        let g = factories::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(distance(&g, 4, 1), Some(3));
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&factories::cycle(6)));
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!is_connected(&disconnected));
        assert_eq!(distance(&disconnected, 0, 3), None);
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = factories::cycle(8);
        let p = shortest_path(&g, 0, 3).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&3));
        assert_eq!(p.len(), 4);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn diameters_of_known_graphs() {
        assert_eq!(diameter(&factories::path(7)), 6);
        assert_eq!(diameter(&factories::cycle(8)), 4);
        assert_eq!(diameter(&factories::complete(5)), 1);
        assert_eq!(diameter(&factories::petersen()), 2);
    }

    #[test]
    fn spanning_tree_is_a_tree() {
        let g = factories::petersen();
        let parent = spanning_tree(&g, 0);
        assert_eq!(parent[0], 0);
        // Every non-root reaches the root by following parents.
        for v in 1..g.n() as u32 {
            let mut cur = v;
            let mut hops = 0;
            while cur != 0 {
                let p = parent[cur as usize];
                assert!(g.has_edge(cur, p), "tree edges must be graph edges");
                cur = p;
                hops += 1;
                assert!(hops <= g.n(), "cycle in parent pointers");
            }
        }
    }
}
