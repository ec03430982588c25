//! Neighborhood gather-reduce — the operator the paper names as future
//! work (§7): "we believe a new gather-reduce operator on neighborhoods
//! associated with vertices in the current frontier both fits nicely
//! into Gunrock's abstraction and will significantly improve performance
//! on this operation."
//!
//! Per-vertex reductions over neighbor lists normally require atomics in
//! a push advance; this operator instead assigns each frontier vertex's
//! whole neighborhood to one reduction (a segmented reduction over the
//! CSR segments), giving an atomic-free path for ops like "sum of
//! neighbor ranks" or "min neighbor label".

use crate::context::Context;
use crate::isolate::isolated;
use gunrock_engine::frontier::Frontier;
use gunrock_engine::stats::{OperatorKind, StepDirection};
use gunrock_graph::{Csr, EdgeId, VertexId};
use rayon::prelude::*;
use std::time::Instant;

/// For every frontier vertex `v`, computes
/// `reduce(init, map(v, u, e) for each out-edge (v, u, e))` without
/// atomics. Returns one value per frontier element, in frontier order.
pub fn neighbor_reduce<T, M, R>(
    ctx: &Context<'_>,
    frontier: &Frontier,
    init: T,
    map: M,
    reduce: R,
) -> Vec<T>
where
    T: Copy + Send + Sync,
    M: Fn(VertexId, VertexId, EdgeId) -> T + Send + Sync,
    R: Fn(T, T) -> T + Send + Sync,
{
    let mut out = vec![init; frontier.len()];
    neighbor_reduce_into(
        ctx,
        ctx.graph,
        Some(frontier.as_slice()),
        init,
        map,
        reduce,
        &mut out,
    );
    out
}

/// [`neighbor_reduce`] over an explicit `graph`, writing into `out`.
/// With `Some(vertices)`, `out[i]` receives the reduction of
/// `vertices[i]`'s neighbors; with `None`, every vertex `v` of `graph`
/// is reduced into `out[v]`. Each value is folded by one task in CSR
/// order, so the result does not depend on the thread count. Counts the
/// edges it visits.
pub fn neighbor_reduce_into<T, M, R>(
    ctx: &Context<'_>,
    graph: &Csr,
    vertices: Option<&[VertexId]>,
    init: T,
    map: M,
    reduce: R,
    out: &mut [T],
) where
    T: Copy + Send + Sync,
    M: Fn(VertexId, VertexId, EdgeId) -> T + Send + Sync,
    R: Fn(T, T) -> T + Send + Sync,
{
    // Kernel-launch boundary for the racecheck phase ledger.
    gunrock_engine::racecheck::begin_phase();
    let edges = match vertices {
        Some(vs) => {
            assert_eq!(out.len(), vs.len(), "one output slot per vertex");
            if vs.len() < 1024 {
                let mut edges = 0u64;
                for (slot, &v) in out.iter_mut().zip(vs) {
                    edges += graph.out_degree(v) as u64;
                    *slot = reduce_one(graph, v, init, &map, &reduce);
                }
                edges
            } else {
                out.par_iter_mut()
                    .zip(vs.par_iter())
                    .for_each(|(slot, &v)| *slot = reduce_one(graph, v, init, &map, &reduce));
                vs.par_iter().map(|&v| graph.out_degree(v) as u64).sum()
            }
        }
        None => {
            assert_eq!(out.len(), graph.num_vertices(), "one output slot per vertex");
            out.par_iter_mut().enumerate().for_each(|(v, slot)| {
                *slot = reduce_one(graph, v as VertexId, init, &map, &reduce);
            });
            graph.num_edges() as u64
        }
    };
    ctx.counters.add_edges(edges);
}

/// The pull-direction gather as one advance step: every vertex `v`
/// reduces over its in-edges `(u, v)` of `ctx.reverse_graph()` into
/// `out[v]`, with `map(v, u, e)` seeing reverse-graph edge ids. Plain
/// loads and stores only: each `out[v]` has exactly one writer, which is
/// what replaces a push advance's atomic scatter once the frontier is
/// dense (GraphBLAST's direction-optimized SpMV).
///
/// `frontier_len` is the number of active source vertices, recorded as
/// the step's input. The step runs panic-isolated like
/// [`advance`](crate::advance::advance): a panic poisons the context and
/// leaves `out` partially written.
pub fn pull_reduce<T, M, R>(
    ctx: &Context<'_>,
    frontier_len: usize,
    init: T,
    map: M,
    reduce: R,
    out: &mut [T],
) where
    T: Copy + Send + Sync,
    M: Fn(VertexId, VertexId, EdgeId) -> T + Send + Sync,
    R: Fn(T, T) -> T + Send + Sync,
{
    let timer = ctx.sink().map(|_| (Instant::now(), ctx.counters.edges()));
    let ran = isolated(ctx, "advance", || {
        if let Some(inj) = ctx.injector() {
            inj.maybe_panic("advance:pull");
        }
        neighbor_reduce_into(ctx, ctx.reverse_graph(), None, init, map, reduce, out);
    });
    if let (Some(()), Some((start, edges0)), Some(sink)) = (ran, timer, ctx.sink()) {
        sink.record_step_with_candidates(
            OperatorKind::Advance,
            "pull",
            Some(StepDirection::Pull),
            frontier_len as u64,
            ctx.num_vertices() as u64,
            0,
            ctx.counters.edges() - edges0,
            start.elapsed(),
        );
    }
}

#[inline]
fn reduce_one<T, M, R>(g: &gunrock_graph::Csr, v: VertexId, init: T, map: &M, reduce: &R) -> T
where
    T: Copy,
    M: Fn(VertexId, VertexId, EdgeId) -> T,
    R: Fn(T, T) -> T,
{
    let mut acc = init;
    for e in g.edge_range(v) {
        let u = g.col_indices()[e];
        acc = reduce(acc, map(v, u, e as EdgeId));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::{Coo, GraphBuilder};

    fn weighted_star() -> gunrock_graph::Csr {
        GraphBuilder::new()
            .directed()
            .build(Coo::from_weighted_edges(5, &[(0, 1, 10), (0, 2, 20), (0, 3, 5), (4, 0, 7)]))
    }

    #[test]
    fn sums_neighbor_weights_without_atomics() {
        let g = weighted_star();
        let ctx = Context::new(&g);
        let f = Frontier::from_vec(vec![0, 4, 1]);
        let sums = neighbor_reduce(&ctx, &f, 0u32, |_v, _u, e| g.weight(e), |a, b| a + b);
        assert_eq!(sums, vec![35, 7, 0]);
        assert_eq!(ctx.counters.edges(), 4);
    }

    #[test]
    fn pull_reduce_gathers_in_edges_as_a_pull_advance_step() {
        let g = weighted_star();
        let rev = g.transpose();
        let ctx = Context::new(&g).with_reverse(&rev).with_stats();
        let mut in_sums = vec![u32::MAX; 5];
        pull_reduce(&ctx, 1, 0u32, |_v, _u, e| rev.weight(e), |a, b| a + b, &mut in_sums);
        assert_eq!(in_sums, vec![7, 10, 20, 5, 0]);
        let stats = ctx.run_stats();
        let [step] = stats.steps.as_slice() else { panic!("one step, got {:?}", stats.steps) };
        assert_eq!((step.operator, step.strategy), (OperatorKind::Advance, "pull"));
        assert_eq!(step.direction, Some(StepDirection::Pull));
        assert_eq!((step.input_len, step.edges_examined), (1, 4));
    }

    #[test]
    fn injected_pull_panic_poisons_and_records_no_step() {
        use gunrock_engine::faults::{FaultInjector, FaultPlan};
        let g = weighted_star();
        let plan = FaultPlan::parse("panic=1.0", 3).expect("valid spec");
        let ctx = Context::new(&g)
            .with_reverse(&g)
            .with_stats()
            .with_faults(std::sync::Arc::new(FaultInjector::new(plan)));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        pull_reduce(&ctx, 1, 0u32, |_v, _u, _e| 1, |a, b| a + b, &mut [0; 5]);
        std::panic::set_hook(prev);
        assert!(ctx.is_poisoned());
        assert!(ctx.run_stats().steps.is_empty());
    }

    #[test]
    fn min_neighbor_id() {
        let g = weighted_star();
        let ctx = Context::new(&g);
        let f = Frontier::from_vec(vec![0]);
        let mins = neighbor_reduce(&ctx, &f, u32::MAX, |_v, u, _e| u, |a, b| a.min(b));
        assert_eq!(mins, vec![1]);
    }

    #[test]
    fn large_frontier_parallel_path_matches_serial() {
        use gunrock_graph::generators::rmat;
        let g = GraphBuilder::new().build(rmat(9, 8, Default::default(), 3));
        let ctx = Context::new(&g);
        let f = Frontier::full(g.num_vertices());
        let got = neighbor_reduce(&ctx, &f, 0u64, |_v, u, _e| u as u64, |a, b| a + b);
        for (i, &v) in f.as_slice().iter().enumerate() {
            let want: u64 = g.neighbors(v).iter().map(|&u| u as u64).sum();
            assert_eq!(got[i], want, "vertex {v}");
        }
    }
}
