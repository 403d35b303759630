//! Per-thread transaction windows: the hash-free node store under every
//! checker's transaction graph.
//!
//! Every checker names a transaction by its thread and per-thread sequence
//! number, packed into one word as `(seq << 16) | thread` ([`pack`]), and
//! each thread's transactions begin in sequence order. So the store keeps
//! one *window* per thread: a ring buffer of nodes plus the sequence number
//! of its first slot. A lookup is two index computations, never a hash.
//!
//! A collector that keeps the forward closure of its roots keeps a suffix
//! of each window, because every transaction is followed by its thread's
//! next one. Dead slots therefore gather at the front, and the store pops
//! them: either every slot below a sequence number ([`Windows::pop_below`],
//! for a collector that already knows each thread's lowest survivor), or
//! every slot not stamped by the last mark ([`Windows::sweep_unstamped`]).
//! A dead slot between live ones (only possible when a caller skips
//! sequence numbers or roots by hand) stays as a hole until the prefix
//! before it dies. Popped nodes go to a spare pool with their buffers, so
//! a warm [`Windows::push`] allocates nothing.
//!
//! Traversals share one epoch-stamped visit mark per slot: a slot is
//! visited when its stamp equals the current epoch, so starting a traversal
//! is one counter bump. When the counter wraps, every stamp is cleared
//! once.

use crate::ids::ThreadId;
use std::collections::VecDeque;
use std::fmt;

/// Packs a `(thread, seq)` pair into a transaction id; `seq` must be ≥ 1,
/// so 0 is free to mean "no transaction".
#[inline]
pub fn pack(thread: ThreadId, seq: u64) -> u64 {
    debug_assert!(seq >= 1, "sequence numbers start at 1");
    (seq << 16) | u64::from(thread.0)
}

/// The thread of a packed id.
#[inline]
pub fn thread_of(id: u64) -> ThreadId {
    ThreadId(id as u16)
}

/// The per-thread sequence number of a packed id.
#[inline]
pub fn seq_of(id: u64) -> u64 {
    id >> 16
}

/// A node type the windows can recycle.
pub trait Recycle: Default {
    /// Drops the node's per-transaction state when it dies (edges, blame
    /// orders), keeping buffer capacity and any payload the next occupant
    /// overwrites anyway.
    fn recycle(&mut self);
}

#[derive(Debug)]
struct Slot<N> {
    node: N,
    live: bool,
    stamp: u32,
}

/// One thread's transactions: `slots[i]` holds sequence number `base + i`.
#[derive(Debug)]
struct Window<N> {
    base: u64,
    slots: VecDeque<Slot<N>>,
}

impl<N> Window<N> {
    /// The sequence number the next pushed slot gets.
    fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }
}

/// Per-thread windows of transaction nodes (see the module docs).
pub struct Windows<N> {
    windows: Vec<Window<N>>,
    spare: Vec<Slot<N>>,
    live: usize,
    epoch: u32,
}

impl<N> fmt::Debug for Windows<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Windows")
            .field("live", &self.live)
            .field("threads", &self.windows.len())
            .finish()
    }
}

impl<N> Default for Windows<N> {
    fn default() -> Self {
        Windows {
            windows: Vec::new(),
            spare: Vec::new(),
            live: 0,
            epoch: 0,
        }
    }
}

impl<N: Recycle> Windows<N> {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live node count.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no node is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of thread windows (threads that ever pushed a node).
    pub fn threads(&self) -> usize {
        self.windows.len()
    }

    /// Window position of `id` if it names a slot (live or dead).
    #[inline]
    fn locate(&self, id: u64) -> Option<(usize, usize)> {
        if id == 0 {
            return None;
        }
        let t = thread_of(id).index();
        let w = self.windows.get(t)?;
        let off = seq_of(id).checked_sub(w.base)?;
        let off = usize::try_from(off).ok()?;
        (off < w.slots.len()).then_some((t, off))
    }

    /// The live node `id`, if any.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&N> {
        let (t, off) = self.locate(id)?;
        let s = &self.windows[t].slots[off];
        s.live.then_some(&s.node)
    }

    /// The live node `id`, mutably.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut N> {
        let (t, off) = self.locate(id)?;
        let s = &mut self.windows[t].slots[off];
        s.live.then_some(&mut s.node)
    }

    /// True if `id` is live.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// `(first seq, slot count)` of thread `t`'s window (`(0, 0)` for a
    /// thread that never pushed). Slots are live nodes and dead holes.
    pub fn span(&self, t: usize) -> (u64, usize) {
        self.windows
            .get(t)
            .map_or((0, 0), |w| (w.base, w.slots.len()))
    }

    /// Id of thread `t`'s newest slot, if its window is not empty.
    #[inline]
    pub fn newest(&self, t: usize) -> Option<u64> {
        let w = self.windows.get(t)?;
        (!w.slots.is_empty()).then(|| pack(ThreadId::from_index(t), w.end() - 1))
    }

    fn fresh_slot(&mut self) -> Slot<N> {
        let mut s = self.spare.pop().unwrap_or_else(|| Slot {
            node: N::default(),
            live: false,
            stamp: 0,
        });
        s.live = false;
        s.stamp = 0;
        s
    }

    /// Appends live node `id` to its thread's window and returns it for the
    /// caller to fill. A node reused from the spare pool was recycled when
    /// it died, so only what [`Recycle::recycle`] keeps (its payload) is
    /// stale. Skipped sequence numbers become dead holes.
    ///
    /// # Panics
    ///
    /// If `id` is 0 or not newer than its thread's newest slot.
    pub fn push(&mut self, id: u64) -> &mut N {
        assert!(id != 0, "id 0 names no transaction");
        let t = thread_of(id).index();
        let seq = seq_of(id);
        if self.windows.len() <= t {
            self.windows.resize_with(t + 1, || Window {
                base: 0,
                slots: VecDeque::new(),
            });
        }
        if self.windows[t].slots.is_empty() {
            self.windows[t].base = seq;
        }
        let next = self.windows[t].end();
        assert!(
            seq >= next,
            "transaction {seq}@{t} is not newer than its thread's newest"
        );
        for _ in next..seq {
            let hole = self.fresh_slot();
            self.windows[t].slots.push_back(hole);
        }
        let mut slot = self.fresh_slot();
        slot.live = true;
        self.windows[t].slots.push_back(slot);
        self.live += 1;
        &mut self.windows[t].slots.back_mut().expect("just pushed").node
    }

    /// Starts a traversal: a fresh epoch, so no slot counts as visited.
    pub fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for s in self.windows.iter_mut().flat_map(|w| w.slots.iter_mut()) {
                s.stamp = 0;
            }
            self.epoch = 1;
        }
        self.epoch
    }

    /// Stamps live node `id` with `epoch` and returns it, unless it is not
    /// live or was already stamped.
    #[inline]
    pub fn visit(&mut self, id: u64, epoch: u32) -> Option<&mut N> {
        let (t, off) = self.locate(id)?;
        let s = &mut self.windows[t].slots[off];
        if !s.live || s.stamp == epoch {
            return None;
        }
        s.stamp = epoch;
        Some(&mut s.node)
    }

    /// Live node `id` with whether it carries `epoch`'s stamp.
    #[inline]
    pub fn get_stamped(&self, id: u64, epoch: u32) -> Option<(&N, bool)> {
        let (t, off) = self.locate(id)?;
        let s = &self.windows[t].slots[off];
        s.live.then_some((&s.node, s.stamp == epoch))
    }

    /// Kills every live node not stamped with `epoch`, then pops each
    /// window's dead prefix into the spare pool. Returns `(collected,
    /// scanned)`: the nodes killed and the window slots examined.
    pub fn sweep_unstamped(&mut self, epoch: u32) -> (usize, usize) {
        let mut collected = 0;
        let mut scanned = 0;
        for w in &mut self.windows {
            scanned += w.slots.len();
            for s in w.slots.iter_mut() {
                if s.live && s.stamp != epoch {
                    s.live = false;
                    s.node.recycle();
                    collected += 1;
                }
            }
            Self::pop_dead_prefix(w, &mut self.spare);
        }
        self.live -= collected;
        (collected, scanned)
    }

    /// Kills every node of thread `t` with a sequence number below `seq`,
    /// pops them (and any dead prefix after them) into the spare pool, and
    /// returns how many were live. Touches only the popped slots.
    pub fn pop_below(&mut self, t: usize, seq: u64) -> usize {
        let Some(w) = self.windows.get_mut(t) else {
            return 0;
        };
        let mut collected = 0;
        while w.base < seq {
            let Some(mut s) = w.slots.pop_front() else {
                break;
            };
            w.base += 1;
            if s.live {
                s.live = false;
                s.node.recycle();
                collected += 1;
            }
            self.spare.push(s);
        }
        Self::pop_dead_prefix(w, &mut self.spare);
        self.live -= collected;
        collected
    }

    fn pop_dead_prefix(w: &mut Window<N>, spare: &mut Vec<Slot<N>>) {
        while w.slots.front().is_some_and(|s| !s.live) {
            spare.push(w.slots.pop_front().expect("front exists"));
            w.base += 1;
        }
    }

    /// Every live node with its id, thread by thread in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &N)> + '_ {
        self.windows.iter().enumerate().flat_map(|(t, w)| {
            let thread = ThreadId::from_index(t);
            w.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.live)
                .map(move |(off, s)| (pack(thread, w.base + off as u64), &s.node))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    /// A node with a buffer the windows must recycle and a payload they
    /// must keep.
    #[derive(Debug, Default)]
    struct Node {
        out: Vec<u64>,
        payload: u32,
    }

    impl Recycle for Node {
        fn recycle(&mut self) {
            self.out.clear();
        }
    }

    fn id(t: ThreadId, seq: u64) -> u64 {
        pack(t, seq)
    }

    /// Pushes `seq 1..=n` on thread `t`, each linked to its successor.
    fn chain(w: &mut Windows<Node>, t: ThreadId, n: u64) {
        for seq in 1..=n {
            w.push(id(t, seq));
            if seq > 1 {
                w.get_mut(id(t, seq - 1))
                    .expect("predecessor is live")
                    .out
                    .push(id(t, seq));
            }
        }
    }

    /// Stamps the forward closure of `roots` and sweeps the rest.
    fn collect_from(w: &mut Windows<Node>, roots: &[u64]) -> usize {
        let epoch = w.next_epoch();
        let mut work: Vec<u64> = Vec::new();
        for &r in roots {
            if w.visit(r, epoch).is_some() {
                work.push(r);
            }
        }
        while let Some(v) = work.pop() {
            let out = std::mem::take(&mut w.get_mut(v).expect("visited live").out);
            for &d in &out {
                if w.visit(d, epoch).is_some() {
                    work.push(d);
                }
            }
            w.get_mut(v).expect("visited live").out = out;
        }
        w.sweep_unstamped(epoch).0
    }

    #[test]
    fn packed_ids_round_trip() {
        let x = pack(ThreadId(3), 9);
        assert_eq!((thread_of(x), seq_of(x)), (ThreadId(3), 9));
        assert_ne!(pack(ThreadId(0), 1), 0, "seq ≥ 1 keeps 0 free for none");
    }

    #[test]
    fn skipped_sequence_numbers_are_holes() {
        let mut w: Windows<Node> = Windows::new();
        w.push(id(T0, 3));
        w.push(id(T0, 6));
        assert_eq!(w.len(), 2);
        assert_eq!(w.span(0), (3, 4), "seqs 3..=6 with 4 and 5 as holes");
        for seq in [1, 2, 4, 5, 7] {
            assert!(!w.contains(id(T0, seq)), "seq {seq} is not live");
        }
        assert!(!w.contains(id(T1, 3)), "other threads have no window");
        assert!(!w.contains(0));
        assert_eq!(w.newest(0), Some(id(T0, 6)));
        assert_eq!(w.newest(1), None);
    }

    #[test]
    fn sweep_pops_the_dead_prefix_and_leaves_inner_holes() {
        let mut w: Windows<Node> = Windows::new();
        chain(&mut w, T0, 5);
        // Root seq 2 only: 1 dies, 2..=5 survive through the chain.
        assert_eq!(collect_from(&mut w, &[id(T0, 2)]), 1);
        assert_eq!(w.span(0), (2, 4), "seq 1 popped");
        // Cut the chain after 4: rooting 5 alone kills 2, 3 and 4.
        w.get_mut(id(T0, 4)).unwrap().out.clear();
        assert_eq!(collect_from(&mut w, &[id(T0, 5)]), 3);
        assert_eq!(w.span(0), (5, 1), "whole dead prefix popped");
        // An inner hole: live 5, dead 6, live 7 — the hole stays.
        w.push(id(T0, 6));
        w.push(id(T0, 7));
        assert_eq!(collect_from(&mut w, &[id(T0, 5), id(T0, 7)]), 1);
        assert_eq!(w.span(0), (5, 3), "5..=7 with 6 a hole");
        assert!(!w.contains(id(T0, 6)));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn pop_below_kills_a_prefix_and_the_dead_run_after_it() {
        let mut w: Windows<Node> = Windows::new();
        chain(&mut w, T0, 4);
        w.push(id(T0, 6)); // 5 is a hole
        assert_eq!(w.pop_below(0, 4), 3, "1, 2 and 3");
        assert_eq!(w.span(0), (4, 3));
        assert_eq!(w.pop_below(0, 5), 1, "4, then the hole at 5 goes too");
        assert_eq!(w.span(0), (6, 1));
        assert_eq!(w.pop_below(0, 1), 0, "nothing below the base");
        assert_eq!(w.pop_below(7, 9), 0, "no window");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn popped_nodes_are_reused_recycled() {
        let mut w: Windows<Node> = Windows::new();
        chain(&mut w, T0, 2);
        w.push(id(T1, 1)).payload = 7;
        w.get_mut(id(T1, 1)).unwrap().out.push(id(T0, 2));
        assert_eq!(collect_from(&mut w, &[id(T0, 2)]), 2, "T0's 1 and T1's 1");
        assert_eq!(w.span(1), (2, 0), "T1's window is empty");
        // The next push reuses a popped node: its edges were recycled, its
        // payload is the caller's to overwrite.
        let n = w.push(id(T1, 2));
        assert!(n.out.is_empty());
        assert!(w.contains(id(T1, 2)));
        assert!(!w.contains(id(T1, 1)), "base moved past the popped prefix");
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn stamps_survive_epoch_wrap() {
        let mut w: Windows<Node> = Windows::new();
        chain(&mut w, T0, 3);
        // The first pass stamps the whole chain with epoch 1.
        assert_eq!(collect_from(&mut w, &[id(T0, 1)]), 0);
        assert_eq!(w.epoch, 1);
        // Run the counter to the wrap: the next epoch is 1 again, so the
        // wrap must clear the stale stamps or the old chain reads marked.
        w.epoch = u32::MAX;
        w.push(id(T0, 4));
        assert_eq!(collect_from(&mut w, &[id(T0, 4)]), 3, "old chain unmarked");
        assert_eq!(w.epoch, 1);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn iter_walks_live_nodes_by_thread_then_seq() {
        let mut w: Windows<Node> = Windows::new();
        w.push(id(T1, 1));
        w.push(id(T0, 2));
        w.push(id(T0, 4));
        let ids: Vec<u64> = w.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![id(T0, 2), id(T0, 4), id(T1, 1)]);
    }

    #[test]
    #[should_panic(expected = "not newer")]
    fn push_rejects_a_reused_sequence_number() {
        let mut w: Windows<Node> = Windows::new();
        chain(&mut w, T0, 2);
        w.push(id(T0, 2));
    }
}
