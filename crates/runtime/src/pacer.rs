//! Adaptive pacing for the checkers' transaction collectors.
//!
//! Every checker in the workspace keeps a graph of transactions and
//! periodically reclaims the ones no future cycle can reach. A pass costs
//! time proportional to the graph it scans, so a fixed cadence turns
//! quadratic when little is collectable (a thread parked in a long-lived
//! transaction keeps everything after it reachable). [`CollectPacer`] makes
//! the next pass wait for at least half as many events as the previous
//! pass left behind, so each pass is paid for by the events since the last
//! one and total collector work stays amortised-linear in the number of
//! transactions.
//!
//! The pacer is plain data: it lives beside the graph it paces, under
//! whatever lock (or single owner thread) already guards that graph.

/// Collection pacing: counts events (transaction begins or ends, as the
/// owner chooses) toward an adaptive threshold of
/// `max(every, survivors / 2)`. With collection disabled (`every == 0`) it
/// counts nothing, so the counter can never overflow on long runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectPacer {
    every: u32,
    events: u32,
    threshold: u32,
}

impl Default for CollectPacer {
    /// A disabled pacer (never due).
    fn default() -> Self {
        CollectPacer::new(0)
    }
}

impl CollectPacer {
    /// A pacer whose first pass is due after `every` events (0 disables
    /// collection).
    pub fn new(every: u32) -> Self {
        CollectPacer {
            every,
            events: 0,
            threshold: every.max(1),
        }
    }

    /// Counts one event (saturating: a threshold of `u32::MAX` must still
    /// trigger rather than wrap).
    #[inline]
    pub fn tick(&mut self) {
        if self.every == 0 {
            return;
        }
        self.events = self.events.saturating_add(1);
    }

    /// True when enough events accumulated for a collection pass.
    #[inline]
    pub fn due(&self) -> bool {
        self.every > 0 && self.events >= self.threshold
    }

    /// Resets after a pass: the next threshold is the configured cadence or
    /// half the survivor count, whichever is larger (collecting a mostly
    /// live graph is wasted work).
    pub fn after_collect(&mut self, survivors: usize) {
        self.events = 0;
        self.threshold = self
            .every
            .max(u32::try_from(survivors / 2).unwrap_or(u32::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_pacer_never_counts_or_wraps() {
        let mut p = CollectPacer::new(0);
        // Force the counter to the wrap boundary and drive more events
        // through it: a disabled pacer must not count at all.
        p.events = u32::MAX - 1;
        for _ in 0..8 {
            p.tick();
            assert!(!p.due());
        }
        assert_eq!(p.events, u32::MAX - 1, "disabled pacer must not count");
        assert_eq!(CollectPacer::default(), CollectPacer::new(0));
    }

    #[test]
    fn saturates_at_a_maximal_threshold_instead_of_wrapping() {
        let mut p = CollectPacer::new(1);
        p.threshold = u32::MAX;
        p.events = u32::MAX - 1;
        assert!(!p.due());
        p.tick();
        assert!(p.due());
        p.tick(); // would wrap (and panic in debug) without saturation
        assert_eq!(p.events, u32::MAX);
        assert!(p.due());
    }

    #[test]
    fn threshold_adapts_to_survivors() {
        let mut p = CollectPacer::new(4);
        for _ in 0..4 {
            p.tick();
        }
        assert!(p.due());
        p.after_collect(100);
        assert_eq!(p.threshold, 50);
        assert!(!p.due());
        p.after_collect(0);
        assert_eq!(p.threshold, 4);
    }

    #[test]
    fn cadence_of_one_is_due_after_every_event() {
        let mut p = CollectPacer::new(1);
        assert!(!p.due());
        p.tick();
        assert!(p.due());
        p.after_collect(1);
        assert!(!p.due(), "survivors/2 rounds down to the cadence");
        p.tick();
        assert!(p.due());
    }
}
