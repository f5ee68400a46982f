//! Mid-run VM state snapshots: capture everything a deterministic resumed
//! run needs, cheaply shareable across thousands of forked injections.
//!
//! A fault-injection campaign against a region window `[start, end)` used to
//! re-execute the clean prefix `[0, start)` once **per injection**.  A
//! [`VmSnapshot`] captures the complete interpreter state at a dynamic step —
//! the call-frame stack (each frame's pc and flat register file, constant
//! cells included), the [`crate::Memory`] image and
//! its stack mark, the interned [`crate::Location`] tables (per-frame
//! register ids and the address-indexed memory table), the absolute step
//! counter, the streamed-event cursor, and the output accumulator — so
//! [`crate::Vm::resume_from_decoded`] /
//! [`crate::Vm::resume_with_visitors_decoded`] can fork any number of faulty
//! runs from the fork point without recomputing the prefix.
//!
//! Cloning a `VmSnapshot` is an [`Arc`] bump: the captured image is immutable
//! and shared, and every restore copies the mutable slabs (memory cells,
//! frames, location tables) out of it — copy-on-restore, in the spirit of the
//! wasmtime pooling allocator's reusable instance slabs.  Restores therefore
//! never alias: two runs resumed from one snapshot cannot observe each
//! other's writes, which the double-restore unit tests pin down.
//!
//! What is **not** captured: the recorded event stream.  A resumed run
//! re-records (or re-streams) only the steps it executes.  The capturing
//! prefix records every step, so a streaming consumer continues its absolute
//! event indexing at the snapshot's step, exactly where a cold run would be,
//! which is what keeps fork-point campaign reports byte-identical to
//! cold-run reports.

use std::sync::Arc;

use crate::interp::Frame;
use crate::location::Location;
use crate::memory::Memory;
use crate::output::ProgramOutput;

/// The captured interpreter state (immutable once built; shared via
/// [`VmSnapshot`]'s `Arc`).
#[derive(Debug)]
pub(crate) struct SnapshotImage {
    /// Absolute dynamic step the snapshot was taken at: the instruction at
    /// this step has **not** executed yet.
    pub(crate) step: u64,
    /// Next frame id the interpreter would assign.
    pub(crate) next_frame_id: u32,
    /// Full memory image (globals + live stack + stack mark).
    pub(crate) memory: Memory,
    /// The live call-frame stack, innermost last.
    pub(crate) frames: Vec<Frame>,
    /// Program output accumulated by the prefix.
    pub(crate) outputs: ProgramOutput,
    /// The location table interned by the prefix, in first-touch order.
    pub(crate) locations: Vec<Location>,
    /// The address-indexed memory-cell interning table (`NO_ID` sentinel).
    pub(crate) mem_ids: Vec<u32>,
}

/// A cheap-to-clone snapshot of a run at one dynamic step, produced by
/// [`crate::Vm::snapshot_at`] and consumed by
/// [`crate::Vm::resume_from_decoded`] /
/// [`crate::Vm::resume_with_visitors_decoded`].
///
/// Clones share one immutable image (an [`Arc`] bump), so a campaign can
/// hand the same snapshot to every parallel worker; each restore copies the
/// mutable state out, never mutating the snapshot itself.
#[derive(Debug, Clone)]
pub struct VmSnapshot {
    inner: Arc<SnapshotImage>,
}

impl VmSnapshot {
    pub(crate) fn new(image: SnapshotImage) -> Self {
        VmSnapshot {
            inner: Arc::new(image),
        }
    }

    pub(crate) fn image(&self) -> &SnapshotImage {
        &self.inner
    }

    /// The dynamic step the snapshot was taken at; the instruction at this
    /// step has not executed yet, so a fault with `at_step` equal to this
    /// step lands correctly in a resumed run.
    pub fn step(&self) -> u64 {
        self.inner.step
    }

    /// Number of events a streaming run delivered before the fork point —
    /// the starting `EventCtx::index` of a resumed streamed run.  The
    /// capturing prefix records every step, so this is an alias of
    /// [`VmSnapshot::step`].
    pub fn events_emitted(&self) -> u64 {
        self.step()
    }

    /// Number of locations the prefix interned (the fork point's location
    /// table length).
    pub fn num_locations(&self) -> usize {
        self.inner.locations.len()
    }

    /// Depth of the captured call-frame stack (≥ 1: the entry frame is
    /// always live while the program runs).
    pub fn frame_depth(&self) -> usize {
        self.inner.frames.len()
    }

    /// Number of valid memory cells (globals + live stack) in the captured
    /// image — the dominant term of the snapshot's size.
    pub fn memory_cells(&self) -> u64 {
        self.inner.memory.valid_len()
    }

    /// Approximate heap footprint of the captured image in bytes (memory
    /// slab, frames with their register files and id tables, location
    /// tables).  An estimate over inline struct sizes, for cache
    /// byte-budget accounting; clones share the image, so the footprint is
    /// per snapshot, not per clone.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let img = self.image();
        img.memory.resident_bytes()
            + img.frames.iter().map(Frame::resident_bytes).sum::<usize>()
            + img.locations.len() * size_of::<Location>()
            + img.mem_ids.len() * size_of::<u32>()
            + size_of::<SnapshotImage>()
    }
}
