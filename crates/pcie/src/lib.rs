//! PCIe transport and host-CPU ordering model.
//!
//! The byte path of 2B-SSD is, physically, nothing but MMIO over PCIe — so
//! its performance *and* its durability hazards are pure artifacts of how
//! x86 CPUs and the PCIe protocol treat memory-mapped device addresses:
//!
//! - **MMIO writes** are *posted*: fire-and-forget transactions with no
//!   completion, which is why an 8-byte write costs only ~630 ns (paper
//!   Fig 7(b)). To make them cheap the BAR is mapped *write-combining*
//!   (WC): the CPU coalesces stores into 64-byte bursts — but data sitting
//!   in a WC buffer is lost on power failure and may be reordered.
//! - **MMIO reads** are *non-posted* (they wait for a completion TLP) and,
//!   on an uncacheable/WC region, are split into 8-byte transactions — which
//!   is why reading 4 KiB by `memcpy` takes ~150 µs (paper Fig 7(a)).
//! - **Durability** therefore needs the two-step protocol of paper Fig 3:
//!   `clflush` + `mfence` to push WC buffers to the root complex, then a
//!   zero-byte *write-verify read* whose completion guarantees all earlier
//!   posted writes committed (reads cannot pass writes at the root complex).
//!
//! [`HostByteChannel`] implements exactly this machinery in virtual time,
//! exposing the loss windows to fault-injection tests: a store that has not
//! been fenced can vanish; a fenced-but-unverified write is durable only if
//! the power holds until its landing instant.
//!
//! # Example
//!
//! ```rust
//! use twob_pcie::{HostByteChannel, PcieTimings};
//! use twob_sim::SimTime;
//!
//! let mut chan = HostByteChannel::new(PcieTimings::default());
//! let store = chan.store(SimTime::ZERO, 0, b"commit record");
//! // Not yet durable: still in the CPU's WC buffer.
//! let sync = chan.sync(store.retired_at);
//! assert!(chan.wc_resident_bytes() == 0);
//! assert!(sync.durable_at > store.retired_at);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bar;
mod channel;
mod cxl;
mod lines;
mod timings;

pub use bar::{AddressTranslationUnit, Bar, BarError};
pub use channel::{
    FlushOutcome, HostByteChannel, PostedWrite, ReadOutcome, StoreOutcome, SyncOutcome,
};
pub use cxl::{CxlChannel, CxlTimings};
pub use lines::LineBytes;
pub use timings::PcieTimings;
