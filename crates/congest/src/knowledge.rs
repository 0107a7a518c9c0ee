//! Query-time enforcement of KT-ρ initial knowledge.

use symbreak_graphs::{Graph, IdAssignment, NodeId};

use crate::KtLevel;

/// A node's view of its initial knowledge under a KT-ρ model.
///
/// Rather than materialising every node's knowledge up front (which would be
/// Θ(n·Δ²) memory in KT-2), the view answers queries lazily against the
/// underlying graph and *checks the permitted radius on every query*: asking
/// for information outside the KT-ρ radius is a bug in the algorithm and
/// panics with a descriptive message. This keeps the simulated algorithms
/// honest about what they are allowed to read "for free".
///
/// A radius check never touches O(n) scratch. Radius 0 is `v == me`.
/// Radius 1 is a binary search in this node's sorted CSR row, O(log d).
/// Radius 2 adds one sorted merge of the two rows in search of a common
/// neighbour, O(d_me + d_v). Only ρ ≥ 3 falls back to a truncated BFS, so
/// in KT-1 and KT-2 no query costs more than O(d_me + d_v) beyond its
/// answer.
#[derive(Debug, Clone, Copy)]
pub struct KnowledgeView<'a> {
    graph: &'a Graph,
    ids: &'a IdAssignment,
    level: KtLevel,
    me: NodeId,
}

impl<'a> KnowledgeView<'a> {
    /// Creates the knowledge view of node `me`.
    pub fn new(graph: &'a Graph, ids: &'a IdAssignment, level: KtLevel, me: NodeId) -> Self {
        KnowledgeView {
            graph,
            ids,
            level,
            me,
        }
    }

    /// The node whose knowledge this is.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The knowledge level ρ.
    pub fn level(&self) -> KtLevel {
        self.level
    }

    /// Total number of nodes `n` (all algorithms in the paper may assume
    /// knowledge of `n`; see e.g. Theorem 2.10 "even if the vertices know the
    /// size of the network").
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// This node's own ID (always known).
    pub fn own_id(&self) -> u64 {
        self.ids.id_of(self.me)
    }

    /// This node's degree (always known — ports are visible even in KT-0).
    pub fn degree(&self) -> usize {
        self.graph.degree(self.me)
    }

    /// The neighbours of this node as simulator addresses (ports). Knowing
    /// which *ports* exist is permitted in every KT level; knowing the IDs
    /// behind them requires KT-1 (see [`Self::neighbor_ids`]).
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.graph.neighbor_vec(self.me)
    }

    /// Whether `v` lies within `cap` hops of this node. Radii 0–2 are
    /// answered from the sorted CSR rows; only `cap >= 3` runs a truncated
    /// BFS.
    fn within(&self, v: NodeId, cap: u32) -> bool {
        if v == self.me {
            return true;
        }
        if cap == 0 || v.index() >= self.graph.num_nodes() {
            return false;
        }
        if self.graph.has_edge(self.me, v) {
            return true;
        }
        match cap {
            1 => false,
            2 => self.share_neighbor(v),
            _ => self.bfs_within(v, cap),
        }
    }

    /// Whether this node and `v` have a common neighbour: one merge of the
    /// two sorted rows.
    fn share_neighbor(&self, v: NodeId) -> bool {
        let mut mine = self.graph.neighbors(self.me).peekable();
        self.graph.neighbors(v).any(|y| {
            while mine.next_if(|&x| x < y).is_some() {}
            mine.peek() == Some(&y)
        })
    }

    /// Truncated BFS from this node: whether `v` is reached within `cap`
    /// hops.
    fn bfs_within(&self, v: NodeId, cap: u32) -> bool {
        let mut seen = vec![false; self.graph.num_nodes()];
        seen[self.me.index()] = true;
        let mut frontier = vec![self.me];
        for _ in 0..cap {
            let mut next = Vec::new();
            for &u in &frontier {
                for w in self.graph.neighbors(u) {
                    if !seen[w.index()] {
                        if w == v {
                            return true;
                        }
                        seen[w.index()] = true;
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        false
    }

    /// The ID of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is farther than ρ hops from this node — KT-ρ does not
    /// permit knowing that ID initially.
    pub fn id_of(&self, v: NodeId) -> u64 {
        let ok = self.within(v, self.level.radius());
        assert!(
            ok,
            "{} violation: node {} may not initially know the ID of {}",
            self.level, self.me, v
        );
        self.ids.id_of(v)
    }

    /// The IDs of this node's neighbours, paired with their addresses.
    ///
    /// # Panics
    ///
    /// Panics in KT-0, where neighbour IDs are not part of the initial
    /// knowledge.
    pub fn neighbor_ids(&self) -> Vec<(NodeId, u64)> {
        assert!(
            self.level.radius() >= 1,
            "{} violation: neighbour IDs are not known initially",
            self.level
        );
        self.graph
            .neighbors(self.me)
            .map(|v| (v, self.ids.id_of(v)))
            .collect()
    }

    /// The neighbours (addresses) of node `v`, in increasing order, read
    /// from the graph without copying the row.
    ///
    /// # Panics
    ///
    /// Panics if `v` is farther than ρ − 1 hops from this node; KT-ρ only
    /// reveals the neighbourhood of nodes within radius ρ − 1. The check runs
    /// at the call, not when the iterator is consumed.
    pub fn neighbors_of(&self, v: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        let r = self.level.radius();
        let ok = r >= 1 && self.within(v, r - 1);
        assert!(
            ok,
            "{} violation: node {} may not initially know the neighbourhood of {}",
            self.level, self.me, v
        );
        self.graph.neighbors(v)
    }

    /// The IDs of the neighbours of node `v` (requires `v` within ρ − 1).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::neighbors_of`].
    pub fn neighbor_ids_of(&self, v: NodeId) -> Vec<(NodeId, u64)> {
        self.neighbors_of(v)
            .map(|w| (w, self.ids.id_of(w)))
            .collect()
    }

    /// Whether the edge `{a, b}` is visible in this node's initial knowledge,
    /// i.e. at least one endpoint lies within radius ρ − 1 of this node and
    /// the edge exists.
    pub fn knows_edge(&self, a: NodeId, b: NodeId) -> bool {
        let r = self.level.radius();
        if r == 0 {
            return false;
        }
        let sees = |x: NodeId| self.within(x, r - 1);
        (sees(a) || sees(b)) && self.graph.has_edge(a, b)
    }

    /// Nodes at distance exactly two, visible in KT-2 and above.
    ///
    /// # Panics
    ///
    /// Panics if ρ < 2.
    pub fn two_hop_neighbors(&self) -> Vec<NodeId> {
        assert!(
            self.level.radius() >= 2,
            "{} violation: the two-hop neighbourhood is not known initially",
            self.level
        );
        self.graph.two_hop_neighbors(self.me)
    }

    /// Looks up a node by ID among the nodes whose IDs this node knows
    /// initially (those within radius ρ). Returns `None` for unknown IDs.
    pub fn known_node_with_id(&self, id: u64) -> Option<NodeId> {
        let v = self.ids.node_with_id(id)?;
        self.within(v, self.level.radius()).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use symbreak_graphs::{generators, IdSpace};

    fn setup(level: KtLevel) -> (Graph, IdAssignment, KtLevel) {
        let g = generators::path(4); // 0 - 1 - 2 - 3
        let ids = IdAssignment::from_vec(vec![100, 200, 300, 400]);
        (g, ids, level)
    }

    #[test]
    fn kt1_knows_neighbor_ids() {
        let (g, ids, level) = setup(KtLevel::KT1);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(1));
        assert_eq!(k.own_id(), 200);
        let nbrs = k.neighbor_ids();
        assert_eq!(nbrs, vec![(NodeId(0), 100), (NodeId(2), 300)]);
        assert_eq!(k.id_of(NodeId(2)), 300);
        assert_eq!(k.degree(), 2);
        assert_eq!(k.num_nodes(), 4);
    }

    #[test]
    #[should_panic(expected = "KT-1 violation")]
    fn kt1_does_not_know_two_hop_ids() {
        let (g, ids, level) = setup(KtLevel::KT1);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        let _ = k.id_of(NodeId(2));
    }

    #[test]
    #[should_panic(expected = "KT-0 violation")]
    fn kt0_does_not_know_neighbor_ids() {
        let (g, ids, level) = setup(KtLevel::KT0);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        let _ = k.neighbor_ids();
    }

    #[test]
    fn kt2_knows_two_hop_ids_and_neighbor_adjacency() {
        let (g, ids, level) = setup(KtLevel::KT2);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        assert_eq!(k.id_of(NodeId(2)), 300);
        assert_eq!(k.two_hop_neighbors(), vec![NodeId(2)]);
        assert_eq!(
            k.neighbors_of(NodeId(1)).collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(2)]
        );
        assert!(k.knows_edge(NodeId(1), NodeId(2)));
        assert!(!k.knows_edge(NodeId(2), NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "KT-2 violation")]
    fn kt2_does_not_know_three_hop_ids() {
        let (g, ids, level) = setup(KtLevel::KT2);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        let _ = k.id_of(NodeId(3));
    }

    #[test]
    #[should_panic(expected = "violation")]
    fn kt1_does_not_know_neighbor_adjacency() {
        let (g, ids, level) = setup(KtLevel::KT1);
        let k = KnowledgeView::new(&g, &ids, level, NodeId(0));
        let _ = k.neighbors_of(NodeId(1));
    }

    #[test]
    fn known_node_with_id_respects_radius() {
        let (g, ids, _) = setup(KtLevel::KT1);
        let k = KnowledgeView::new(&g, &ids, KtLevel::KT1, NodeId(0));
        assert_eq!(k.known_node_with_id(200), Some(NodeId(1)));
        assert_eq!(k.known_node_with_id(300), None);
        assert_eq!(k.known_node_with_id(123), None);
    }

    #[test]
    fn ports_visible_even_in_kt0() {
        let (g, ids, _) = setup(KtLevel::KT0);
        let k = KnowledgeView::new(&g, &ids, KtLevel::KT0, NodeId(1));
        assert_eq!(k.neighbors(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(k.own_id(), 200);
    }

    /// All-pairs hop distances by plain BFS; `u32::MAX` marks unreachable.
    fn reference_distances(g: &Graph) -> Vec<Vec<u32>> {
        g.nodes()
            .map(|s| {
                let mut dist = vec![u32::MAX; g.num_nodes()];
                dist[s.index()] = 0;
                let mut queue = std::collections::VecDeque::from([s]);
                while let Some(u) = queue.pop_front() {
                    for w in g.neighbors(u) {
                        if dist[w.index()] == u32::MAX {
                            dist[w.index()] = dist[u.index()] + 1;
                            queue.push_back(w);
                        }
                    }
                }
                dist
            })
            .collect()
    }

    #[test]
    fn radius_checks_match_a_reference_bfs() {
        let panics = |f: &dyn Fn()| catch_unwind(AssertUnwindSafe(f)).is_err();
        let levels = [KtLevel::KT0, KtLevel::KT1, KtLevel::KT2, KtLevel(3)];
        let mut distances_seen = std::collections::BTreeSet::new();
        for (seed, p) in [(1u64, 0.12), (2, 0.18), (3, 0.25), (4, 0.4)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp(14, p, &mut rng);
            let ids = IdAssignment::random(&g, IdSpace::CUBIC, &mut rng);
            let dist = reference_distances(&g);
            distances_seen.extend(dist.iter().flatten().copied());
            for level in levels {
                let r = level.radius();
                for me in g.nodes() {
                    let k = KnowledgeView::new(&g, &ids, level, me);
                    let d = |v: NodeId| dist[me.index()][v.index()];
                    // KT-ρ reveals adjacency around nodes within ρ − 1 hops.
                    let sees = |v: NodeId| r >= 1 && d(v) < r;
                    for v in g.nodes() {
                        let ctx = format!("{level} me={me} v={v} dist={}", d(v));
                        assert_eq!(
                            k.known_node_with_id(ids.id_of(v)).is_some(),
                            d(v) <= r,
                            "known_node_with_id: {ctx}"
                        );
                        assert_eq!(
                            panics(&|| {
                                k.id_of(v);
                            }),
                            d(v) > r,
                            "id_of: {ctx}"
                        );
                        assert_eq!(
                            panics(&|| {
                                let _ = k.neighbors_of(v);
                            }),
                            !sees(v),
                            "neighbors_of: {ctx}"
                        );
                        for b in g.nodes() {
                            let adjacent = dist[v.index()][b.index()] == 1;
                            assert_eq!(
                                k.knows_edge(v, b),
                                (sees(v) || sees(b)) && adjacent,
                                "knows_edge({v}, {b}): {ctx}"
                            );
                        }
                    }
                }
            }
        }
        // The graphs must reach past every radius tested, including the
        // BFS fallback of KT-3, and contain unreachable pairs.
        for want in [0, 1, 2, 3, 4, u32::MAX] {
            assert!(distances_seen.contains(&want), "no pair at distance {want}");
        }
    }
}
