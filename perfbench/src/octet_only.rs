//! The ladder's "octet-only" rung: Octet barriers with no ICD behind them.
//!
//! The hooks map onto the protocol exactly as `dc_core::DoubleChecker`
//! maps them with `TxFilter::all()` (every access instrumented): plain
//! reads and writes and sync acquire/release go through the barrier (sync
//! acquire as a read, release as a write), array accesses are skipped
//! (arrays are not instrumented by default), and thread begin/end,
//! safe points, block and unblock go to the protocol. The transition sink
//! is `NullSink`, so the difference between this rung and the next one
//! (`first_run`) is what ICD adds on top of the barrier.

use dc_octet::{CoordinationMode, NullSink, Protocol};
use dc_runtime::checker::Checker;
use dc_runtime::heap::Heap;
use dc_runtime::ids::{AccessKind, CellId, ObjId, ThreadId};
use std::sync::OnceLock;

/// Octet over `NullSink`, with the inline cache on (as in every measured
/// DoubleChecker configuration).
pub struct OctetOnly {
    n_threads: usize,
    mode: CoordinationMode,
    octet: OnceLock<Protocol<NullSink>>,
}

impl OctetOnly {
    pub fn new(n_threads: usize, mode: CoordinationMode) -> Self {
        OctetOnly {
            n_threads,
            mode,
            octet: OnceLock::new(),
        }
    }

    fn octet(&self) -> &Protocol<NullSink> {
        self.octet.get().expect("run_begin initializes octet")
    }
}

impl Checker for OctetOnly {
    fn run_begin(&self, heap: &Heap) {
        let _ = self.octet.set(Protocol::with_config(
            heap.len(),
            self.n_threads,
            self.mode,
            NullSink,
            None,
            true,
        ));
    }

    fn thread_begin(&self, t: ThreadId) {
        self.octet().thread_begin(t);
    }

    fn thread_end(&self, t: ThreadId) {
        self.octet().thread_end(t);
    }

    #[inline]
    fn read(&self, t: ThreadId, obj: ObjId, _cell: CellId) {
        self.octet().access(t, obj, AccessKind::Read);
    }

    #[inline]
    fn write(&self, t: ThreadId, obj: ObjId, _cell: CellId) {
        self.octet().access(t, obj, AccessKind::Write);
    }

    fn array_read(&self, _t: ThreadId, _obj: ObjId, _index: CellId) {}

    fn array_write(&self, _t: ThreadId, _obj: ObjId, _index: CellId) {}

    fn sync_acquire(&self, t: ThreadId, obj: ObjId) {
        self.octet().access(t, obj, AccessKind::Read);
    }

    fn sync_release(&self, t: ThreadId, obj: ObjId) {
        self.octet().access(t, obj, AccessKind::Write);
    }

    #[inline]
    fn safe_point(&self, t: ThreadId) {
        self.octet().safe_point(t);
    }

    fn before_block(&self, t: ThreadId) {
        self.octet().before_block(t);
    }

    fn after_unblock(&self, t: ThreadId) {
        self.octet().after_unblock(t);
    }
}
