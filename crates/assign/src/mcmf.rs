//! Min-cost max-flow for degree-constrained bipartite b-matching.
//!
//! The worker-centric policy needs a *b-matching*: each worker may take up
//! to `capacity` tasks, each task accepts up to `slots` workers, and any
//! (worker, task) pair may be used **at most once**. Clone-expansion into
//! a plain assignment problem cannot express the at-most-once constraint
//! (the Hungarian solver happily puts three clones of one worker on three
//! clones of the same task). The natural formulation is a flow network:
//!
//! ```text
//! source --cap=capacity--> worker --cap=1, cost=-weight--> task --cap=slots--> sink
//! ```
//!
//! Successive-shortest-path min-cost flow, augmenting only while the
//! shortest path has negative cost, yields the maximum-weight b-matching
//! (not necessarily maximum cardinality — a zero-weight edge is never
//! taken, which is what "maximise worker preference" means).
//!
//! Bellman–Ford path search keeps the implementation simple and handles
//! the negative edge costs directly; our graphs are small (hundreds of
//! nodes), so the O(F·V·E) bound is comfortable.

/// One directed edge in the residual graph.
#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    rev: usize, // index of the reverse edge in graph[to]
    cap: i64,
    cost: f64,
}

/// A min-cost-flow network builder/solver.
#[derive(Debug, Default)]
pub(crate) struct MinCostFlow {
    graph: Vec<Vec<Edge>>,
}

impl MinCostFlow {
    /// A network with `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        MinCostFlow {
            graph: vec![Vec::new(); n],
        }
    }

    /// Add a directed edge with capacity and per-unit cost. Returns
    /// `(from, index)` so callers can inspect flow afterwards.
    pub(crate) fn add_edge(
        &mut self,
        from: usize,
        to: usize,
        cap: i64,
        cost: f64,
    ) -> (usize, usize) {
        let fwd = Edge {
            to,
            rev: self.graph[to].len(),
            cap,
            cost,
        };
        let bwd = Edge {
            to: from,
            rev: self.graph[from].len(),
            cap: 0,
            cost: -cost,
        };
        self.graph[from].push(fwd);
        let idx = self.graph[from].len() - 1;
        self.graph[to].push(bwd);
        (from, idx)
    }

    /// Flow pushed through an edge returned by `add_edge`: the reverse
    /// edge's residual capacity.
    pub(crate) fn flow_on(&self, handle: (usize, usize)) -> i64 {
        let (from, idx) = handle;
        let e = &self.graph[from][idx];
        self.graph[e.to][e.rev].cap
    }

    /// Push flow along negative-cost shortest paths from `source` to
    /// `sink` until no negative-cost augmenting path remains. Returns
    /// `(flow, total_cost)`.
    pub(crate) fn run_negative(&mut self, source: usize, sink: usize) -> (i64, f64) {
        let n = self.graph.len();
        let mut total_flow = 0i64;
        let mut total_cost = 0.0f64;
        loop {
            // Bellman–Ford shortest path by cost.
            let mut dist = vec![f64::INFINITY; n];
            let mut in_queue = vec![false; n];
            let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
            dist[source] = 0.0;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(source);
            in_queue[source] = true;
            while let Some(u) = queue.pop_front() {
                in_queue[u] = false;
                let du = dist[u];
                for (ei, e) in self.graph[u].iter().enumerate() {
                    if e.cap > 0 && du + e.cost < dist[e.to] - 1e-12 {
                        dist[e.to] = du + e.cost;
                        prev[e.to] = Some((u, ei));
                        if !in_queue[e.to] {
                            queue.push_back(e.to);
                            in_queue[e.to] = true;
                        }
                    }
                }
            }
            if dist[sink] >= -1e-12 || prev[sink].is_none() {
                break; // no improving path left
            }
            // bottleneck along the path
            let mut bottleneck = i64::MAX;
            let mut v = sink;
            while let Some((u, ei)) = prev[v] {
                bottleneck = bottleneck.min(self.graph[u][ei].cap);
                v = u;
            }
            // apply
            let mut v = sink;
            while let Some((u, ei)) = prev[v] {
                let rev = self.graph[u][ei].rev;
                self.graph[u][ei].cap -= bottleneck;
                self.graph[v][rev].cap += bottleneck;
                v = u;
            }
            total_flow += bottleneck;
            total_cost += dist[sink] * bottleneck as f64;
        }
        (total_flow, total_cost)
    }
}

/// Maximum-weight bipartite b-matching with per-pair multiplicity 1.
///
/// `weights[w][t]` is the value of pairing worker `w` with task `t`
/// (`f64::NEG_INFINITY` = forbidden); `capacities[w]` bounds the worker's
/// degree, `slots[t]` the task's. Only strictly positive-weight pairs are
/// ever selected. Returns the chosen pairs in deterministic order.
pub(crate) fn max_weight_b_matching(
    weights: &[Vec<f64>],
    capacities: &[u32],
    slots: &[u32],
) -> Vec<(usize, usize)> {
    let n_workers = weights.len();
    let n_tasks = slots.len();
    debug_assert_eq!(capacities.len(), n_workers);
    if n_workers == 0 || n_tasks == 0 {
        return Vec::new();
    }
    // node layout: 0 = source, 1..=W workers, W+1..=W+T tasks, last = sink
    let source = 0usize;
    let sink = n_workers + n_tasks + 1;
    let mut net = MinCostFlow::new(sink + 1);
    for (w, &cap) in capacities.iter().enumerate() {
        net.add_edge(source, 1 + w, i64::from(cap), 0.0);
    }
    let mut pair_handles = Vec::new();
    for (w, row) in weights.iter().enumerate() {
        debug_assert_eq!(row.len(), n_tasks);
        for (t, &weight) in row.iter().enumerate() {
            if weight > 0.0 && weight.is_finite() {
                let h = net.add_edge(1 + w, 1 + n_workers + t, 1, -weight);
                pair_handles.push((w, t, h));
            }
        }
    }
    for (t, &s) in slots.iter().enumerate() {
        net.add_edge(1 + n_workers + t, sink, i64::from(s), 0.0);
    }
    net.run_negative(source, sink);
    pair_handles
        .into_iter()
        .filter(|&(_, _, h)| net.flow_on(h) > 0)
        .map(|(w, t, _)| (w, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pair() {
        let pairs = max_weight_b_matching(&[vec![2.0]], &[1], &[1]);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn respects_pair_multiplicity() {
        // One task with 3 slots; one eager worker with capacity 3 plus a
        // second worker. The pair (w0, t0) may be used at most once, so
        // the optimum is both workers once each — the case that defeated
        // clone-expansion Hungarian matching.
        let weights = vec![vec![2.0], vec![2.0]];
        let pairs = max_weight_b_matching(&weights, &[3, 1], &[3]);
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&(0, 0)));
        assert!(pairs.contains(&(1, 0)));
    }

    #[test]
    fn respects_capacities_and_slots() {
        // 2 workers × 3 tasks, worker 0 capacity 2, tasks 1 slot each
        let weights = vec![vec![5.0, 4.0, 3.0], vec![5.0, 4.0, 3.0]];
        let pairs = max_weight_b_matching(&weights, &[2, 1], &[1, 1, 1]);
        assert_eq!(pairs.len(), 3);
        let w0: Vec<_> = pairs.iter().filter(|(w, _)| *w == 0).collect();
        assert_eq!(w0.len(), 2, "worker 0 uses her capacity");
        // total weight is optimal: w0 takes two best she can, w1 the rest
        // optimum = 5 + 4 + 3 = 12 whichever way split
    }

    #[test]
    fn prefers_heavier_edges() {
        // worker 0 must choose: t0 (10) or t1 (1); capacity 1
        let weights = vec![vec![10.0, 1.0]];
        let pairs = max_weight_b_matching(&weights, &[1], &[1, 1]);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn crossover_beats_greedy() {
        // greedy would give w0 task 0 (9) and leave w1 with 1; optimum
        // crosses: w0→t1 (8), w1→t0 (8)
        let weights = vec![vec![9.0, 8.0], vec![8.0, 1.0]];
        let pairs = max_weight_b_matching(&weights, &[1, 1], &[1, 1]);
        let total: f64 = pairs.iter().map(|&(w, t)| weights[w][t]).sum();
        assert_eq!(total, 16.0);
    }

    #[test]
    fn zero_and_forbidden_edges_unused() {
        let weights = vec![vec![0.0, f64::NEG_INFINITY, 3.0]];
        let pairs = max_weight_b_matching(&weights, &[3], &[1, 1, 1]);
        assert_eq!(pairs, vec![(0, 2)]);
    }

    #[test]
    fn empty_inputs() {
        assert!(max_weight_b_matching(&[], &[], &[1]).is_empty());
        let w: Vec<Vec<f64>> = vec![vec![]];
        assert!(max_weight_b_matching(&w, &[1], &[]).is_empty());
    }

    #[test]
    fn flow_network_primitives() {
        let mut net = MinCostFlow::new(3);
        let e = net.add_edge(0, 1, 2, -1.0);
        net.add_edge(1, 2, 1, -1.0);
        let (flow, cost) = net.run_negative(0, 2);
        assert_eq!(flow, 1);
        assert!((cost + 2.0).abs() < 1e-9);
        assert_eq!(net.flow_on(e), 1);
    }
}
