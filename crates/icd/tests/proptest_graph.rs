//! Property-based tests of the IDG: SCC detection and the transaction
//! collector on arbitrary graphs, against a reference model in which the
//! intra-thread edges the graph keeps implicit are explicit.

use dc_icd::graph::Graph;
use dc_icd::{Edge, EdgeKind, TxId, TxKind};
use dc_runtime::ids::ThreadId;
use proptest::prelude::*;
use std::collections::HashSet;

const THREADS: u16 = 4;

fn arb_graph() -> impl Strategy<Value = (Vec<u16>, Vec<(usize, usize)>)> {
    (2usize..20).prop_flat_map(|n| {
        let threads = prop::collection::vec(0..THREADS, n);
        let edges = prop::collection::vec((0..n, 0..n), 0..60);
        (threads, edges)
    })
}

fn cross(src: TxId, dst: TxId) -> Edge {
    Edge {
        src,
        src_pos: 0,
        dst,
        dst_pos: 0,
        kind: EdgeKind::Cross,
    }
}

/// Node `i` runs on `threads[i]`, after that thread's earlier nodes. Every
/// node is finished; returns the graph, the ids, and the model's edges
/// (the cross edges plus each thread's program-order chain).
fn build(threads: &[u16], edges: &[(usize, usize)]) -> (Graph, Vec<TxId>, Vec<(TxId, TxId)>) {
    let mut g = Graph::new();
    let mut seqs = [0u64; THREADS as usize];
    let mut ids = Vec::new();
    let mut model = Vec::new();
    let mut newest: [Option<TxId>; THREADS as usize] = [None; THREADS as usize];
    for &t in threads {
        let ti = t as usize;
        seqs[ti] += 1;
        let id = TxId::new(ThreadId(t), seqs[ti]);
        if let Some(prev) = newest[ti] {
            g.finish(prev, vec![]).unwrap();
            model.push((prev, id));
        }
        g.insert(id, TxKind::Unary);
        newest[ti] = Some(id);
        ids.push(id);
    }
    for &(s, d) in edges {
        let (s, d) = (ids[s], ids[d]);
        g.add_edge(cross(s, d));
        if s != d {
            model.push((s, d)); // the graph drops self-edges
        }
    }
    for id in newest.into_iter().flatten() {
        g.finish(id, vec![]).unwrap();
    }
    (g, ids, model)
}

/// Reference forward-reachability.
fn reachable(edges: &[(TxId, TxId)], from: TxId) -> HashSet<TxId> {
    let mut seen: HashSet<TxId> = [from].into_iter().collect();
    let mut work = vec![from];
    while let Some(v) = work.pop() {
        for &(s, d) in edges {
            if s == v && seen.insert(d) {
                work.push(d);
            }
        }
    }
    seen
}

/// Nodes mutually reachable with `root` (root included).
fn reference_scc(edges: &[(TxId, TxId)], root: TxId) -> HashSet<TxId> {
    reachable(edges, root)
        .into_iter()
        .filter(|&v| reachable(edges, v).contains(&root))
        .collect()
}

/// Survivors of a collection are a suffix of each thread's window: the
/// window holds exactly the live transactions of that thread, contiguous.
fn assert_windows_are_live_suffixes(g: &Graph, live: &[TxId]) {
    for t in 0..THREADS {
        let mut seqs: Vec<u64> = live
            .iter()
            .filter(|id| id.thread() == ThreadId(t))
            .map(|id| id.seq())
            .collect();
        seqs.sort_unstable();
        let (base, len) = g.window(t as usize);
        if let Some(&first) = seqs.first() {
            prop_assert_eq!(base, first, "thread {} window base", t);
        }
        let want: Vec<u64> = (base..base + len as u64).collect();
        prop_assert_eq!(seqs, want, "thread {} window", t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `scc_from(root)` returns exactly the nodes mutually reachable with
    /// the root (per a naive reference computation), when ≥ 2.
    #[test]
    fn scc_matches_reference((threads, edges) in arb_graph()) {
        let (mut g, ids, model) = build(&threads, &edges);
        for &root in &ids {
            let expected = reference_scc(&model, root);
            let got = g.scc_from(root);
            if expected.len() >= 2 {
                let got = got.expect("SCC with ≥2 members detected");
                let got_ids: HashSet<TxId> = got.tx_ids().collect();
                prop_assert_eq!(got_ids, expected, "root {:?}", root);
            } else {
                prop_assert!(got.is_none(), "root {:?} is not in a cycle", root);
            }
        }
    }

    /// The collector never removes a node reachable from a root, and every
    /// removed node was unreachable.
    #[test]
    fn collect_respects_reachability((threads, edges) in arb_graph(), root in 0usize..20) {
        let (mut g, ids, model) = build(&threads, &edges);
        let root = ids[root % ids.len()];
        let expected_live = reachable(&model, root);
        let collected = g.collect([root]);
        prop_assert_eq!(collected, ids.len() - expected_live.len());
        for &v in &ids {
            prop_assert_eq!(g.node(v).is_some(), expected_live.contains(&v), "node {:?}", v);
        }
        let live: Vec<TxId> = expected_live.into_iter().collect();
        assert_windows_are_live_suffixes(&g, &live);
    }

    /// Interleaved begin/edge/finish/collect against a reference model:
    /// node reuse must never resurrect collected nodes, stale edges, or
    /// stale Tarjan state, and every window holds exactly its thread's
    /// live suffix.
    #[test]
    fn interleaved_lifecycle_keeps_windows_live_suffixes(
        ops in prop::collection::vec((0u8..4, any::<u16>(), any::<u16>()), 1..120)
    ) {
        let mut g = Graph::new();
        let mut seqs = [0u64; THREADS as usize];
        let mut live: Vec<TxId> = Vec::new();
        let mut finished: HashSet<TxId> = HashSet::new();
        // Model edges: cross edges and the program-order chain.
        let mut edges: Vec<(TxId, TxId)> = Vec::new();
        let mut crosses: Vec<(TxId, TxId)> = Vec::new();
        let mut all: Vec<TxId> = Vec::new();
        for &(op, a, b) in &ops {
            match op {
                0 => {
                    // Thread `a` ends its current transaction and begins
                    // the next.
                    let t = a % THREADS;
                    let ti = t as usize;
                    let prev = (seqs[ti] > 0).then(|| TxId::new(ThreadId(t), seqs[ti]));
                    if let Some(prev) = prev {
                        if live.contains(&prev) && finished.insert(prev) {
                            g.finish(prev, vec![]).unwrap();
                        }
                    }
                    seqs[ti] += 1;
                    let id = TxId::new(ThreadId(t), seqs[ti]);
                    g.insert(id, TxKind::Unary);
                    if let Some(prev) = prev.filter(|p| live.contains(p)) {
                        edges.push((prev, id));
                    }
                    live.push(id);
                    all.push(id);
                }
                1 if !live.is_empty() => {
                    let s = live[a as usize % live.len()];
                    let d = live[b as usize % live.len()];
                    g.add_edge(cross(s, d));
                    if s != d {
                        edges.push((s, d));
                        crosses.push((s, d));
                    }
                }
                2 if seqs[(a % THREADS) as usize] > 0 => {
                    // Thread `a` ends its current transaction.
                    let t = a % THREADS;
                    let id = TxId::new(ThreadId(t), seqs[t as usize]);
                    if live.contains(&id) && finished.insert(id) {
                        g.finish(id, vec![]).unwrap();
                        g.scc_from(id); // exercise node state reuse mid-stream
                    }
                }
                3 if !live.is_empty() => {
                    let root = live[a as usize % live.len()];
                    // Model survivors: forward closure of {root} ∪ unfinished.
                    let mut work: Vec<TxId> =
                        live.iter().copied().filter(|v| !finished.contains(v)).collect();
                    work.push(root);
                    let mut keep: HashSet<TxId> = work.iter().copied().collect();
                    while let Some(v) = work.pop() {
                        for &(s, d) in &edges {
                            if s == v && keep.insert(d) {
                                work.push(d);
                            }
                        }
                    }
                    let collected = g.collect([root]);
                    prop_assert_eq!(collected, live.len() - keep.len());
                    live.retain(|v| keep.contains(v));
                    finished.retain(|v| keep.contains(v));
                    edges.retain(|&(s, _)| keep.contains(&s));
                    crosses.retain(|&(s, _)| keep.contains(&s));
                    assert_windows_are_live_suffixes(&g, &live);
                }
                _ => {}
            }
        }
        prop_assert_eq!(g.len(), live.len());
        // Collected ids stay gone; live nodes carry exactly the model's
        // cross edges (a reused node must not leak its old edges).
        for &id in &all {
            if !live.contains(&id) {
                prop_assert!(g.node(id).is_none(), "collected {:?} resurrected", id);
            }
        }
        for &v in &live {
            let node = g.node(v).expect("live node present");
            let got: Vec<TxId> = node.out.iter().map(|e| e.dst).collect();
            let want: Vec<TxId> =
                crosses.iter().filter(|&&(s, _)| s == v).map(|&(_, d)| d).collect();
            prop_assert_eq!(got, want, "out edges of {:?}", v);
        }
        // SCC detection on the survivors still matches the reference.
        for &v in &live {
            if finished.insert(v) {
                g.finish(v, vec![]).unwrap();
            }
        }
        for &root in &live {
            let expected = reference_scc(&edges, root);
            let got = g.scc_from(root);
            if expected.len() >= 2 {
                let got = got.expect("SCC with ≥2 members detected");
                let got_ids: HashSet<TxId> = got.tx_ids().collect();
                prop_assert_eq!(got_ids, expected, "root {:?}", root);
            } else {
                prop_assert!(got.is_none(), "root {:?} is not in a cycle", root);
            }
        }
    }

    /// SCC reports carry every internal edge and a constraint for every
    /// cross edge into a member; intra edges carry the source's final log
    /// length and join consecutive transactions of one thread.
    #[test]
    fn scc_reports_are_self_consistent((threads, edges) in arb_graph()) {
        let (mut g, ids, _) = build(&threads, &edges);
        for &root in &ids {
            if let Some(report) = g.scc_from(root) {
                let members: HashSet<TxId> = report.tx_ids().collect();
                for e in &report.edges {
                    prop_assert!(members.contains(&e.src) && members.contains(&e.dst));
                    if e.kind == EdgeKind::Intra {
                        prop_assert_eq!(e.dst, e.src.succ());
                        prop_assert_eq!((e.src_pos, e.dst_pos), (0, 0));
                    }
                }
                // Every constraint targets a member.
                for c in &report.constraints {
                    prop_assert!(members.contains(&c.dst));
                }
                // Every internal cross edge appears among the constraints.
                let constraint_pairs: HashSet<(TxId, TxId)> =
                    report.constraints.iter().map(|c| (c.src, c.dst)).collect();
                for e in &report.edges {
                    if e.kind == EdgeKind::Cross {
                        prop_assert!(constraint_pairs.contains(&(e.src, e.dst)));
                    }
                }
            }
        }
    }
}
