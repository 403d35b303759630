//! IDG sharding by connected component.
//!
//! With `IcdConfig::shards > 1` the single graph-owner thread is replaced by
//! a *router* plus N *shard owners*. The router receives the ticketed op
//! stream over the existing transport, restores strict ticket order with the
//! same scoreboard the single owner uses, and forwards each op to the shard
//! owning its connected component; shard owners apply ops, probe for SCCs,
//! and run the collector over their own slab graph in parallel with each
//! other and with the router.
//!
//! # Routing invariant
//!
//! Every IDG edge the analysis can create connects transactions of two
//! *keys*: the per-thread keys `0..n_threads` (a thread's transactions) and
//! one global key (`gLastRdSh`, whose edges come from upgrade/fence
//! transitions). The router maintains a union-find over these keys and
//! unions the endpoints of every cross edge *before* routing it, so a
//! component never spans two shards:
//!
//! * `Insert`/`Finish` stay within one thread's key,
//! * `Cross` unions source and destination threads,
//! * `Upgrade` unions the upgrading thread with `lastRdEx`'s owner and with
//!   the global key (it both reads and becomes `gLastRdSh`),
//! * `Fence` unions the fencing thread with the global key.
//!
//! Each union-find root is assigned to a shard; initially key `k` lands on
//! shard `k % shards` (the global key on shard 0, next to any pre-existing
//! graph state). When a union joins roots living on *different* shards the
//! two shard graphs must become one. The lighter shard (fewest keys; ties
//! drain the higher index) is drained at its next safe point: the router
//! enqueues an `Extract` marker behind everything it already sent — FIFO
//! makes that a consistent cut — waits for the extracted graph, and
//! enqueues it as an `Inject` into the surviving shard *ahead* of the edge
//! op that forced the merge. Merges are counted (`graph.shard_merges`) and
//! traced (`shard_merge`, value `source << 8 | target`).
//!
//! # Why per-shard application preserves results
//!
//! The router pops ops in global ticket order, and each shard ring is FIFO,
//! so a shard applies exactly the subsequence of the linearized op stream
//! that touches its components, in ticket order. An SCC is contained in one
//! component, hence in one shard, hence every edge the single owner would
//! have seen at a `Finish` probe is present in that shard's graph — probes,
//! SCC reports, and therefore violations are identical to the single-owner
//! pipeline. Collection runs per shard with the same register roots
//! (`Graph::collect` ignores roots the shard doesn't hold); the single-owner
//! in-flight safety argument applies per ring, so pacing differences only
//! move *when* dead transactions are reclaimed (`collected_txs`), never what
//! the analysis reports.

use crate::graph::Graph;
use crate::icd::{IcdConfig, IcdStats, Registers};
use crate::pipeline::{
    apply, run_collect, BatchPool, GraphOp, Msg, PipelineError, Reorder, RxPort, SccSink,
    REORDER_CAPACITY,
};
use crate::ring::OpRing;
use crate::types::TxId;
use crossbeam::channel::{bounded, SyncSender};
use dc_obs::{EventKind, PipelineObs, Stage};
use dc_runtime::ids::ThreadId;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Shard-ring capacity in messages. Router→shard messages are single ops
/// (not batches), so this is sized like the transport ring.
const SHARD_RING_CAPACITY: usize = 1024;

/// Router→shard protocol. FIFO order in the shard ring is load-bearing:
/// `Extract` is a consistent cut behind every op already routed, and an
/// `Inject` precedes the first op that needs the injected nodes.
enum ShardMsg {
    /// Apply one graph op (already in ticket order for this shard).
    Op(GraphOp),
    /// Merge safe point: hand the whole graph back to the router and
    /// continue with a fresh one.
    Extract { reply: SyncSender<Graph> },
    /// Absorb a drained sibling's graph (boxed: a `Graph` dwarfs the
    /// other variants and would bloat every ring slot).
    Inject(Box<Graph>),
    /// Drain marker; the shard returns its graph.
    Shutdown,
}

/// Union-find over routing keys (threads + the global `gLastRdSh` key) with
/// a shard assignment per root. Purely a function of the op stream — two
/// runs over the same linearized ops route identically.
struct KeyShards {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Owning shard, authoritative at roots only.
    shard: Vec<u32>,
    /// Keys per shard: the merge-direction weight.
    weight: Vec<u64>,
    /// The global `gLastRdSh` key (index `n_threads`).
    gkey: u32,
}

impl KeyShards {
    fn new(n_threads: usize, shards: usize) -> Self {
        let keys = n_threads + 1;
        let mut shard = Vec::with_capacity(keys);
        let mut weight = vec![0u64; shards];
        for k in 0..n_threads {
            let s = k % shards;
            shard.push(s as u32);
            weight[s] += 1;
        }
        // The global key starts on shard 0, alongside any graph state that
        // existed before the pipeline spawned (in particular `gLastRdSh`).
        shard.push(0);
        weight[0] += 1;
        KeyShards {
            parent: (0..keys as u32).collect(),
            rank: vec![0; keys],
            shard,
            weight,
            gkey: n_threads as u32,
        }
    }

    fn thread_key(t: ThreadId) -> u32 {
        t.index() as u32
    }

    fn find(&mut self, mut k: u32) -> u32 {
        while self.parent[k as usize] != k {
            self.parent[k as usize] = self.parent[self.parent[k as usize] as usize];
            k = self.parent[k as usize];
        }
        k
    }

    /// The shard currently owning `k`'s component.
    fn shard_of(&mut self, k: u32) -> usize {
        let root = self.find(k);
        self.shard[root as usize] as usize
    }

    /// Unions two keys' components. When they lived on different shards,
    /// returns `(source, target)`: every key of `source` was reassigned to
    /// `target` and the caller must drain `source`'s graph into `target`.
    fn union(&mut self, a: u32, b: u32) -> Option<(usize, usize)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        let sa = self.shard[ra as usize] as usize;
        let sb = self.shard[rb as usize] as usize;
        let merge = if sa == sb {
            None
        } else {
            // Drain the lighter shard; on equal weight the higher index
            // drains so repeated merges collapse toward shard 0.
            let (src, tgt) = if self.weight[sa] < self.weight[sb]
                || (self.weight[sa] == self.weight[sb] && sa > sb)
            {
                (sa, sb)
            } else {
                (sb, sa)
            };
            for k in 0..self.parent.len() {
                if self.parent[k] == k as u32 && self.shard[k] == src as u32 {
                    self.shard[k] = tgt as u32;
                }
            }
            self.weight[tgt] += self.weight[src];
            self.weight[src] = 0;
            Some((src, tgt))
        };
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[ra as usize] == self.rank[rb as usize] {
            self.rank[hi as usize] += 1;
        }
        merge
    }
}

/// One shard owner as the router sees it.
struct Shard {
    ring: Arc<OpRing<ShardMsg>>,
    handle: JoinHandle<crate::pipeline::OwnerExit>,
}

/// The router thread body: single-owner reordering, then connected-component
/// routing across `shards` shard-owner threads. Returns the union of every
/// shard's final graph plus the first structural error anywhere in the
/// pipeline (router errors take precedence, then shards by index).
#[allow(clippy::too_many_arguments)]
pub(crate) fn router_loop(
    rx: RxPort,
    pool: Arc<BatchPool>,
    graph: Graph,
    regs: Arc<Registers>,
    stats: Arc<IcdStats>,
    config: IcdConfig,
    sink: Option<SccSink>,
    obs: Option<Arc<PipelineObs>>,
    shards: usize,
    n_threads: usize,
) -> (Graph, Option<PipelineError>) {
    let sink = sink.map(Arc::new);
    let counters = graph.counters();
    let mut seed = Some(graph);
    let workers: Vec<Shard> = (0..shards)
        .map(|idx| {
            let ring = Arc::new(OpRing::<ShardMsg>::with_capacity(SHARD_RING_CAPACITY));
            let shard_ring = Arc::clone(&ring);
            let graph = seed.take().unwrap_or_else(|| {
                Graph::with_counters(Arc::clone(&counters)).paced(config.collect_every)
            });
            let regs = Arc::clone(&regs);
            let stats = Arc::clone(&stats);
            let sink = sink.clone();
            let obs = obs.clone();
            let handle = std::thread::Builder::new()
                .name(format!("dc-graph-shard-{idx}"))
                .spawn(move || shard_loop(shard_ring, idx, graph, regs, stats, config, sink, obs))
                .expect("spawn graph-shard thread");
            Shard { ring, handle }
        })
        .collect();

    let mut keys = KeyShards::new(n_threads, shards);
    let mut reorder = Reorder::with_capacity(REORDER_CAPACITY);
    let mut shutdown_at: Option<u64> = None;
    let mut error: Option<PipelineError> = None;
    'recv: while let Some(msg) = rx.recv() {
        match msg {
            Msg::Ops(mut batch) => {
                for (ticket, op) in batch.drain(..) {
                    if error.is_none() {
                        if let Err(e) = reorder.insert(ticket, op) {
                            error = Some(e);
                        }
                    }
                }
                pool.put(batch);
            }
            Msg::Shutdown(ticket) => shutdown_at = Some(ticket),
        }
        if error.is_some() {
            // Drain-and-discard: keep recycling buffers so producers never
            // block, apply nothing further.
            if shutdown_at.is_some() {
                break 'recv;
            }
            continue;
        }
        loop {
            if shutdown_at == Some(reorder.next_ticket()) {
                break 'recv;
            }
            let Some(op) = reorder.pop_next() else {
                break;
            };
            route(&mut keys, &workers, obs.as_deref(), op);
        }
        if let Some(obs) = &obs {
            obs.graph.reorder_depth.set(reorder.len() as i64);
        }
    }

    for w in &workers {
        w.ring.send(ShardMsg::Shutdown);
        w.ring.wake();
    }
    let mut merged: Option<Graph> = None;
    for w in workers {
        let (g, e) = w.handle.join().expect("graph-shard thread panicked");
        if error.is_none() {
            error = e;
        }
        match &mut merged {
            None => merged = Some(g),
            Some(m) => m.absorb(g),
        }
    }
    (merged.expect("at least one shard"), error)
}

/// Unions the op's routing keys, performs any resulting shard merge, then
/// forwards the op to its component's shard.
fn route(keys: &mut KeyShards, workers: &[Shard], obs: Option<&PipelineObs>, op: GraphOp) {
    let gkey = keys.gkey;
    let key = match &op {
        GraphOp::Insert { thread, .. } | GraphOp::Finish { thread, .. } => {
            KeyShards::thread_key(*thread)
        }
        GraphOp::Cross {
            src_thread,
            dst_thread,
            ..
        } => {
            let k = KeyShards::thread_key(*src_thread);
            merge_if_needed(
                keys.union(k, KeyShards::thread_key(*dst_thread)),
                workers,
                obs,
            );
            k
        }
        GraphOp::Upgrade {
            thread, last_owner, ..
        } => {
            let k = KeyShards::thread_key(*thread);
            merge_if_needed(
                keys.union(k, KeyShards::thread_key(*last_owner)),
                workers,
                obs,
            );
            merge_if_needed(keys.union(k, gkey), workers, obs);
            k
        }
        GraphOp::Fence { thread, .. } => {
            let k = KeyShards::thread_key(*thread);
            merge_if_needed(keys.union(k, gkey), workers, obs);
            k
        }
    };
    let s = keys.shard_of(key);
    if let Some(obs) = obs {
        obs.graph.shard_depth[s].inc();
    }
    if workers[s].ring.send(ShardMsg::Op(op)) {
        if let Some(obs) = obs {
            obs.graph.ring_full_waits.inc();
        }
    }
}

/// Executes the two-phase shard merge a cross-shard union demanded: extract
/// the drained shard's graph at its FIFO safe point, inject it into the
/// survivor ahead of the op that forced the merge.
fn merge_if_needed(merge: Option<(usize, usize)>, workers: &[Shard], obs: Option<&PipelineObs>) {
    let Some((src, tgt)) = merge else {
        return;
    };
    let (reply, drained) = bounded(1);
    workers[src].ring.send(ShardMsg::Extract { reply });
    workers[src].ring.wake();
    let graph = drained.recv().expect("drained shard died mid-merge");
    workers[tgt].ring.send(ShardMsg::Inject(Box::new(graph)));
    if let Some(obs) = obs {
        obs.graph.shard_merges.inc();
        obs.trace(
            Stage::Graph,
            EventKind::ShardMerge,
            ((src as u64) << 8) | tgt as u64,
        );
    }
}

/// One shard owner: applies its component subsequence, probes SCCs, paces
/// its own collector, and cooperates with the merge protocol. On a
/// structural error it stops mutating but keeps servicing the ring
/// (including merges) so the router never deadlocks.
#[allow(clippy::too_many_arguments)]
fn shard_loop(
    ring: Arc<OpRing<ShardMsg>>,
    idx: usize,
    mut graph: Graph,
    regs: Arc<Registers>,
    stats: Arc<IcdStats>,
    config: IcdConfig,
    sink: Option<Arc<SccSink>>,
    obs: Option<Arc<PipelineObs>>,
) -> (Graph, Option<PipelineError>) {
    let mut roots: Vec<TxId> = Vec::new();
    let mut error: Option<PipelineError> = None;
    loop {
        match ring.recv() {
            ShardMsg::Op(op) => {
                let t0 = obs.as_ref().and_then(|o| o.clock());
                let applied = if error.is_none() {
                    apply(&mut graph, &config, sink.as_deref(), obs.as_deref(), op)
                } else {
                    Ok(())
                };
                if let Some(obs) = &obs {
                    if let Some(t0) = t0 {
                        obs.graph.shard_busy[idx].add(t0.elapsed().as_nanos() as u64);
                    }
                    obs.graph.apply_latency.record_elapsed(t0);
                    obs.graph.ops_applied.inc();
                    obs.graph.queue_depth.dec();
                    obs.graph.shard_depth[idx].dec();
                }
                if let Err(e) = applied {
                    error = Some(e);
                }
                // No scoreboard here: the router already restored ticket
                // order, so only ring-buffered (in-flight) ops need the
                // collector's in-flight safety argument.
                if error.is_none() && graph.collect_due() {
                    run_collect(&mut graph, &regs, &stats, None, &mut roots, obs.as_deref());
                }
            }
            ShardMsg::Extract { reply } => {
                let counters = graph.counters();
                // Fresh graph, fresh pacing: the survivor inherits the
                // drained transactions and their collection debt.
                let fresh = Graph::with_counters(counters).paced(config.collect_every);
                let drained = std::mem::replace(&mut graph, fresh);
                let _ = reply.send(drained);
            }
            ShardMsg::Inject(other) => graph.absorb(*other),
            ShardMsg::Shutdown => break,
        }
    }
    (graph, error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_start_round_robin_with_the_global_key_on_shard_zero() {
        let mut k = KeyShards::new(5, 2);
        assert_eq!(k.shard_of(0), 0);
        assert_eq!(k.shard_of(1), 1);
        assert_eq!(k.shard_of(4), 0);
        assert_eq!(k.shard_of(k.gkey), 0);
        assert_eq!(k.weight, vec![4, 2]);
    }

    #[test]
    fn same_shard_unions_do_not_merge() {
        let mut k = KeyShards::new(4, 2);
        assert_eq!(k.union(0, 2), None, "both on shard 0");
        assert_eq!(k.union(0, 2), None, "already one component");
        assert_eq!(k.shard_of(2), 0);
    }

    #[test]
    fn cross_shard_union_drains_the_lighter_shard() {
        let mut k = KeyShards::new(4, 4);
        // Shards 0 and 1 hold one thread key each, but shard 0 also holds
        // the global key: shard 1 is lighter and drains into 0.
        assert_eq!(k.union(0, 1), Some((1, 0)));
        assert_eq!(k.shard_of(1), 0);
        assert_eq!(k.weight[1], 0);
        assert_eq!(k.weight[0], 3);
        // Equal weights (shards 2 and 3 hold one key each): higher drains.
        assert_eq!(k.union(2, 3), Some((3, 2)));
        assert_eq!(k.shard_of(3), 2);
    }

    #[test]
    fn merged_shards_move_every_resident_component() {
        let mut k = KeyShards::new(6, 2);
        // Shard 0 = {0, 2, 4, g} (weight 4), shard 1 = {1, 3, 5} (weight 3):
        // shard 1 drains, taking keys 3 and 5 along even though they are
        // separate components from the union's endpoints.
        assert_eq!(k.union(0, 1), Some((1, 0)));
        assert_eq!(k.shard_of(3), 0);
        assert_eq!(k.shard_of(5), 0);
        assert_eq!(k.weight, vec![7, 0]);
        // Later unions touching only former shard-1 keys stay local.
        assert_eq!(k.union(3, 5), None);
    }

    #[test]
    fn routing_is_a_pure_function_of_the_union_sequence() {
        let ops: &[(u32, u32)] = &[(0, 1), (2, 3), (1, 2), (0, 5)];
        let run = || {
            let mut k = KeyShards::new(6, 4);
            let mut trace = Vec::new();
            for &(a, b) in ops {
                trace.push(k.union(a, b));
                trace.push(Some((k.shard_of(a), k.shard_of(b))));
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
