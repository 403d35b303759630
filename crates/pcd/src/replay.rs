//! Edge-constrained replay of an ICD SCC's read/write logs.
//!
//! PCD "essentially replays the subset of execution corresponding to the
//! transactions in the IDG cycle" (§3.3), using the cross-thread ordering
//! ICD recorded: every cross-thread IDG edge into a member carries the
//! source and sink log positions at creation time. A sink entry at or past
//! `dst_pos` must wait until
//!
//! 1. every member on the source's thread with a smaller sequence number
//!    has fully replayed (the edge also orders the source's program-order
//!    predecessors, transitively), and
//! 2. if the source itself is a member, it has replayed `src_pos` entries.
//!
//! Same-thread members always replay in program (sequence) order.

use crate::rules::Pdg;
use crate::violation::Violation;
use dc_icd::{SccReport, TxId};
use dc_runtime::ids::ThreadId;
use std::collections::HashMap;

/// Statistics for one PCD invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Transactions replayed.
    pub txs: u64,
    /// Log entries replayed.
    pub entries: u64,
    /// Precise PDG cycles found.
    pub cycles: u64,
}

impl ReplayStats {
    /// Folds another invocation's counters into this one.
    pub fn merge(&mut self, other: ReplayStats) {
        self.txs += other.txs;
        self.entries += other.entries;
        self.cycles += other.cycles;
    }
}

/// One incoming constraint with its source resolved to dense indices at
/// construction time, so checking it during replay never hashes.
#[derive(Clone, Copy)]
struct Prepped {
    dst_pos: u32,
    /// Index of the source in `scc.txs`, or `u32::MAX` when the source lies
    /// outside the SCC.
    src_member: u32,
    /// Index of the source thread's chain, or `usize::MAX` when no member
    /// runs on that thread.
    src_chain: usize,
    src_seq: u64,
    src_pos: u32,
}

struct Replayer<'a> {
    scc: &'a SccReport,
    /// Members grouped per thread (indices into `scc.txs`), each chain in
    /// seq order; chains themselves ordered by thread id. The scan order
    /// drives the replay interleaving and hence which of several equivalent
    /// PDG cycles is reported, so it must depend only on the SCC report.
    chains: Vec<Vec<usize>>,
    /// First not-yet-done position in each chain.
    chain_pos: Vec<usize>,
    /// Entries replayed per member, indexed like `scc.txs`.
    processed: Vec<u32>,
    done: Vec<bool>,
    /// Incoming constraints per member, sorted by `dst_pos`, with a cursor
    /// past the permanently-satisfied prefix.
    cons: Vec<Vec<Prepped>>,
    cons_cursor: Vec<usize>,
}

impl<'a> Replayer<'a> {
    fn new(scc: &'a SccReport) -> Self {
        let mut threads: Vec<ThreadId> = scc.txs.iter().map(|t| t.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        let mut chains: Vec<Vec<usize>> = vec![Vec::new(); threads.len()];
        for (i, tx) in scc.txs.iter().enumerate() {
            let c = threads.binary_search(&tx.thread).expect("member thread");
            chains[c].push(i);
        }
        for chain in &mut chains {
            chain.sort_by_key(|&i| scc.txs[i].seq);
        }
        // The only hashing in PCD: one id → dense-index map, built once and
        // consulted only while prepping constraints.
        let member_of: HashMap<TxId, u32> = scc
            .txs
            .iter()
            .enumerate()
            .map(|(i, t)| (t.id, i as u32))
            .collect();
        let mut cons: Vec<Vec<Prepped>> = vec![Vec::new(); scc.txs.len()];
        for c in &scc.constraints {
            let Some(&dst) = member_of.get(&c.dst) else {
                continue; // sinks are always members; ignore anything else
            };
            cons[dst as usize].push(Prepped {
                dst_pos: c.dst_pos,
                src_member: member_of.get(&c.src).copied().unwrap_or(u32::MAX),
                src_chain: match threads.binary_search(&c.src_thread) {
                    Ok(i) => i,
                    Err(_) => usize::MAX,
                },
                src_seq: c.src_seq,
                src_pos: c.src_pos,
            });
        }
        for list in &mut cons {
            list.sort_by_key(|c| c.dst_pos);
        }
        Replayer {
            chain_pos: vec![0; chains.len()],
            chains,
            processed: vec![0; scc.txs.len()],
            done: vec![false; scc.txs.len()],
            cons_cursor: vec![0; scc.txs.len()],
            cons,
            scc,
        }
    }

    /// True once every member of the source thread's chain with seq <
    /// `src_seq` is done — the program-order prefix a constraint's source
    /// transitively orders before the sink. O(1): chains complete strictly
    /// in order, so the chain cursor's transaction has the minimal undone
    /// seq.
    fn predecessors_done(&self, src_chain: usize, src_seq: u64) -> bool {
        let Some(chain) = self.chains.get(src_chain) else {
            return true; // no members on that thread
        };
        match chain.get(self.chain_pos[src_chain]) {
            None => true, // chain fully done
            Some(&i) => self.scc.txs[i].seq >= src_seq,
        }
    }

    fn constraint_satisfied(&self, c: Prepped) -> bool {
        if !self.predecessors_done(c.src_chain, c.src_seq) {
            return false;
        }
        if c.src_member == u32::MAX {
            // Source outside the SCC: only its predecessors matter.
            return true;
        }
        // Source is a member: it must have replayed src_pos entries.
        let m = c.src_member as usize;
        self.done[m] || self.processed[m] >= c.src_pos
    }

    /// True if member `m` may replay its entry at index `i`.
    fn may_replay(&mut self, m: usize, i: u32) -> bool {
        let mut cur = self.cons_cursor[m];
        let ok = loop {
            let Some(&c) = self.cons[m].get(cur) else {
                break true;
            };
            if c.dst_pos > i {
                break true;
            }
            if self.constraint_satisfied(c) {
                cur += 1; // monotonic: stays satisfied
            } else {
                break false;
            }
        };
        self.cons_cursor[m] = cur;
        ok
    }
}

/// Replays one SCC and returns the precise violations found, with stats.
pub fn replay_scc(scc: &SccReport) -> (Vec<Violation>, ReplayStats) {
    let mut stats = ReplayStats {
        txs: scc.txs.len() as u64,
        ..ReplayStats::default()
    };
    let mut pdg = Pdg::new(scc.txs.iter().map(|t| (t.id, t.thread, t.kind)));
    let mut r = Replayer::new(scc);
    // Program-order edges between consecutive same-thread members: cycles
    // may pass through them (Velodrome's intra-thread edges, §2). Chains
    // are in sorted-thread order by construction, so the scan order — and
    // hence which of several equivalent cycles `cycle_through` reports —
    // depends only on the SCC report, never on map iteration order (which
    // would make sync and pipelined runs diverge).
    for chain in &r.chains {
        for pair in chain.windows(2) {
            pdg.add_intra_edge(scc.txs[pair[0]].id, scc.txs[pair[1]].id);
        }
    }
    let mut violations = Vec::new();

    loop {
        let mut advanced = false;
        let mut all_done = true;
        // Refresh every chain cursor first so constraint checks against
        // other threads' chains see current progress.
        for c in 0..r.chains.len() {
            let mut pos = r.chain_pos[c];
            while pos < r.chains[c].len() && r.done[r.chains[c][pos]] {
                pos += 1;
            }
            r.chain_pos[c] = pos;
        }
        for c in 0..r.chains.len() {
            // Drain this thread's chain as far as constraints allow; runs
            // of unconstrained entries replay without another sweep.
            loop {
                let chain_len = r.chains[c].len();
                let mut pos = r.chain_pos[c];
                while pos < chain_len && r.done[r.chains[c][pos]] {
                    pos += 1;
                }
                r.chain_pos[c] = pos;
                if pos == chain_len {
                    break;
                }
                all_done = false;
                let m = r.chains[c][pos];
                let tx = &scc.txs[m];
                let i = r.processed[m];
                if i as usize == tx.log.len() {
                    r.done[m] = true;
                    advanced = true;
                    continue;
                }
                if !r.may_replay(m, i) {
                    break;
                }
                // Replay entry i.
                let entry = tx.log[i as usize];
                let field = (entry.obj(), entry.cell());
                let new_edges = if entry.is_write() {
                    pdg.write(field, tx.id)
                } else {
                    pdg.read(field, tx.id).into_iter().collect()
                };
                for edge in new_edges {
                    if let Some(cycle) = pdg.cycle_through(edge) {
                        stats.cycles += 1;
                        violations.push(Violation::from_cycle(&pdg, &cycle));
                    }
                }
                r.processed[m] = i + 1;
                stats.entries += 1;
                advanced = true;
            }
        }
        if all_done {
            break;
        }
        if !advanced {
            // The recorded constraints come from a real execution; a stall
            // can only happen when constraint sources *outside* the SCC
            // (whose `in_cross` entries `snapshot_component` copies
            // verbatim) gate each other's member predecessors in a
            // circular wait. Break the tie deterministically: pick the
            // stuck member with the smallest id and retire its blocking
            // constraint. Unlike skipping the entry itself, this keeps
            // every log entry flowing into the PDG, so forced progress
            // never silently drops a dependence.
            let stuck = (0..r.chains.len())
                .filter_map(|c| {
                    let chain = &r.chains[c];
                    let pos = r.chain_pos[c];
                    (pos < chain.len()).then(|| (scc.txs[chain[pos]].id, chain[pos]))
                })
                .min();
            match stuck {
                Some((_, m)) => {
                    if r.cons[m].is_empty() {
                        // Defensive: without constraints the member could
                        // not have stalled; retire it outright rather than
                        // loop.
                        r.done[m] = true;
                    } else {
                        // A stuck chain head always stopped on an
                        // unsatisfied constraint at its cursor; step past
                        // it.
                        r.cons_cursor[m] += 1;
                    }
                }
                None => break,
            }
        }
    }
    (violations, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_icd::{Edge, EdgeKind, LogEntry, ReplayConstraint, TxKind, TxSnapshot};
    use dc_runtime::ids::{MethodId, ObjId};
    use std::sync::Arc;

    fn tx(id: u64, thread: u16, seq: u64, log: Vec<LogEntry>) -> TxSnapshot {
        TxSnapshot {
            id: TxId(id),
            thread: ThreadId(thread),
            kind: TxKind::Regular(MethodId(id as u32)),
            seq,
            log: Arc::new(log),
        }
    }

    /// Builds a report, deriving constraints from the edges the way the IDG
    /// does (sources' thread/seq must be supplied for external sources).
    fn report(txs: Vec<TxSnapshot>, edges: Vec<Edge>) -> SccReport {
        let seqs: HashMap<TxId, (ThreadId, u64)> =
            txs.iter().map(|t| (t.id, (t.thread, t.seq))).collect();
        let constraints = edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Cross)
            .map(|e| {
                let (src_thread, src_seq) = seqs[&e.src];
                ReplayConstraint {
                    dst: e.dst,
                    dst_pos: e.dst_pos,
                    src: e.src,
                    src_thread,
                    src_seq,
                    src_pos: e.src_pos,
                }
            })
            .collect();
        SccReport {
            txs,
            edges,
            constraints,
        }
    }

    fn cross(src: u64, src_pos: u32, dst: u64, dst_pos: u32) -> Edge {
        Edge {
            src: TxId(src),
            src_pos,
            dst: TxId(dst),
            dst_pos,
            kind: EdgeKind::Cross,
        }
    }

    fn rd(obj: u32, cell: u32) -> LogEntry {
        LogEntry::new(ObjId(obj), cell, false, false)
    }

    fn wr(obj: u32, cell: u32) -> LogEntry {
        LogEntry::new(ObjId(obj), cell, true, false)
    }

    #[test]
    fn detects_classic_two_transaction_cycle() {
        // T0/Tx1: wr o.f … rd o.g;  T1/Tx2: rd o.f then wr o.g between them.
        let scc = report(
            vec![
                tx(1, 0, 1, vec![wr(0, 0), rd(0, 1)]),
                tx(2, 1, 1, vec![rd(0, 0), wr(0, 1)]),
            ],
            vec![cross(1, 1, 2, 0), cross(2, 2, 1, 1)],
        );
        let (violations, stats) = replay_scc(&scc);
        assert_eq!(stats.cycles, 1);
        assert_eq!(violations.len(), 1);
        assert_eq!(stats.entries, 4);
        assert_eq!(violations[0].cycle.len(), 2);
    }

    #[test]
    fn serializable_interleaving_yields_no_violation() {
        let scc = report(
            vec![
                tx(1, 0, 1, vec![wr(0, 0)]),
                tx(2, 1, 1, vec![rd(0, 0), wr(0, 1)]),
            ],
            vec![cross(1, 1, 2, 0)],
        );
        let (violations, stats) = replay_scc(&scc);
        assert!(violations.is_empty());
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn figure3_pcd_finds_smaller_precise_cycle() {
        // ICD found an SCC of four transactions; the precise cycle is just
        // Tx1 and Tx3 (Figure 3).
        let scc = report(
            vec![
                tx(1, 1, 1, vec![wr(0, 0), wr(0, 0)]),
                tx(2, 2, 1, vec![rd(0, 1)]),
                tx(3, 3, 1, vec![rd(0, 0), rd(0, 0)]),
                tx(4, 4, 1, vec![rd(0, 2)]),
            ],
            vec![
                cross(1, 1, 2, 0),
                cross(2, 1, 3, 0),
                cross(3, 1, 1, 1),
                cross(3, 2, 4, 0),
                cross(1, 2, 3, 1),
            ],
        );
        let (violations, _) = replay_scc(&scc);
        assert_eq!(violations.len(), 1);
        let cycle = &violations[0].cycle;
        assert_eq!(cycle.len(), 2, "precise cycle is smaller than the SCC");
        let ids: Vec<TxId> = cycle.iter().map(|c| c.tx).collect();
        assert!(ids.contains(&TxId(1)) && ids.contains(&TxId(3)));
    }

    #[test]
    fn same_thread_transactions_replay_in_sequence_order() {
        let scc = report(
            vec![
                tx(1, 0, 1, vec![wr(0, 0)]),
                tx(3, 0, 2, vec![wr(0, 0)]),
                tx(2, 1, 1, vec![wr(0, 0)]),
            ],
            vec![cross(1, 1, 2, 0), cross(2, 1, 3, 0)],
        );
        let (_, stats) = replay_scc(&scc);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn empty_logs_replay_cleanly() {
        let scc = report(
            vec![tx(1, 0, 1, vec![]), tx(2, 1, 1, vec![])],
            vec![cross(1, 0, 2, 0), cross(2, 0, 1, 0)],
        );
        let (violations, stats) = replay_scc(&scc);
        assert!(violations.is_empty());
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.txs, 2);
    }

    #[test]
    fn constraints_order_cross_thread_entries() {
        let scc = report(
            vec![tx(2, 1, 1, vec![rd(0, 0)]), tx(1, 0, 1, vec![wr(0, 0)])],
            vec![cross(1, 1, 2, 0)],
        );
        let (_, stats) = replay_scc(&scc);
        assert_eq!(stats.entries, 2);
    }

    /// The philo regression: the ordering constraint arrives via an edge
    /// whose source is a *later, empty* transaction of the writer's thread;
    /// `src_pos = 0` must still order the writer (a program-order
    /// predecessor of the source) before the sink.
    #[test]
    fn constraint_source_predecessors_are_ordered() {
        // T0: Tx1 (wr f, rd f, wr f  = lock-protected use), then Tx3 (empty,
        // e.g. a think() transaction). T1: Tx2 reads/writes f after T0's
        // release; the only edge into Tx2 comes from Tx3 with src_pos 0.
        let txs = vec![
            tx(1, 0, 1, vec![rd(0, 0), wr(0, 0)]),
            tx(3, 0, 2, vec![]),
            tx(2, 1, 1, vec![rd(0, 0), wr(0, 0)]),
        ];
        let edges = vec![
            cross(3, 0, 2, 0), // the constraint carrier
            cross(2, 2, 1, 2), // imprecise back edge closing the ICD cycle
        ];
        let scc = report(txs, edges);
        let (violations, stats) = replay_scc(&scc);
        assert_eq!(stats.entries, 4);
        assert!(
            violations.is_empty(),
            "replay must order Tx1 fully before Tx2: {violations:?}"
        );
    }

    /// External-source constraints: the source is not a member, but its
    /// member predecessors must still be ordered before the sink.
    #[test]
    fn external_source_constraints_order_member_predecessors() {
        let txs = vec![
            tx(1, 0, 1, vec![rd(0, 0), wr(0, 0)]),
            tx(2, 1, 1, vec![rd(0, 0), wr(0, 0)]),
        ];
        let edges = vec![cross(2, 2, 1, 2)];
        let mut scc = report(txs, edges);
        // Tx9 (thread 0, seq 5) is outside the SCC; its edge into Tx2 orders
        // Tx1 (seq 1 < 5) before Tx2's entries.
        scc.constraints.push(ReplayConstraint {
            dst: TxId(2),
            dst_pos: 0,
            src: TxId(9),
            src_thread: ThreadId(0),
            src_seq: 5,
            src_pos: 0,
        });
        let (violations, _) = replay_scc(&scc);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// `snapshot_component` copies *every* `in_cross` constraint of a
    /// member, including ones whose source lies outside the SCC. Two such
    /// external-source constraints can gate each other's member
    /// predecessors in a circular wait that no constraint ever satisfies —
    /// replay must fall into the deterministic tie-break, force progress,
    /// and terminate with every entry replayed rather than stall.
    #[test]
    fn circular_external_source_constraints_cannot_stall_replay() {
        let txs = vec![
            tx(1, 0, 1, vec![wr(0, 0), rd(0, 1)]),
            tx(2, 1, 1, vec![rd(0, 0), wr(0, 1)]),
        ];
        // The member-to-member edges closing the ICD cycle.
        let edges = vec![cross(1, 1, 2, 0), cross(2, 2, 1, 1)];
        let mut scc = report(txs, edges);
        // Tx8 (thread 1, seq 5, external) gates Tx1's very first entry: it
        // waits for all of thread 1's members with seq < 5 — i.e. Tx2.
        scc.constraints.push(ReplayConstraint {
            dst: TxId(1),
            dst_pos: 0,
            src: TxId(8),
            src_thread: ThreadId(1),
            src_seq: 5,
            src_pos: 0,
        });
        // Tx9 (thread 0, seq 5, external) symmetrically gates Tx2's first
        // entry on Tx1: neither chain can start — a pure constraint cycle.
        scc.constraints.push(ReplayConstraint {
            dst: TxId(2),
            dst_pos: 0,
            src: TxId(9),
            src_thread: ThreadId(0),
            src_seq: 5,
            src_pos: 0,
        });
        let (_, stats) = replay_scc(&scc);
        assert_eq!(
            stats.entries, 4,
            "tie-break must force progress through the circular wait"
        );
    }
}
