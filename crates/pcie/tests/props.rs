//! Property-based tests of the host byte channel's ordering and
//! conservation invariants.

use proptest::prelude::*;
use twob_pcie::{CxlChannel, CxlTimings, HostByteChannel, PcieTimings, PostedWrite};
use twob_sim::SimTime;

const WINDOW: usize = 8192;

/// Checks every fragment fits one 64-byte line, and applies it to `window`.
fn land_checked(window: &mut [u8], posted: &[PostedWrite]) -> Result<(), TestCaseError> {
    for p in posted {
        let len = p.data.len() as u64;
        prop_assert!((1..=64).contains(&len), "fragment of {} bytes", len);
        prop_assert_eq!(
            p.offset / 64,
            (p.offset + len - 1) / 64,
            "fragment crosses a line"
        );
        let at = p.offset as usize;
        window[at..at + p.data.len()].copy_from_slice(&p.data);
    }
    Ok(())
}

/// One step of a byte-path history: a store of `len` bytes at `offset`
/// filled with `fill`, followed by nothing, a full drain (sync / persist),
/// or a read (which drains too).
fn byte_path_ops() -> impl Strategy<Value = Vec<(u64, usize, u8, u8)>> {
    prop::collection::vec(
        (
            0u64..(WINDOW as u64 - 300),
            1usize..300,
            any::<u8>(),
            0u8..8,
        ),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No byte is ever lost or duplicated between stores and the union of
    /// (posted fragments, WC residue): conservation of data.
    #[test]
    fn bytes_are_conserved(
        stores in prop::collection::vec((0u64..4096, 1usize..64), 1..40)
    ) {
        let mut chan = HostByteChannel::new(PcieTimings::default());
        let mut t = SimTime::ZERO;
        let mut stored = 0usize;
        let mut posted = 0usize;
        for (offset, len) in stores {
            let out = chan.store(t, offset, &vec![0xAB; len]);
            stored += len;
            posted += out.posted.iter().map(|p| p.data.len()).sum::<usize>();
            t = out.retired_at;
        }
        prop_assert_eq!(stored, posted + chan.wc_resident_bytes());
    }

    /// After sync, nothing is WC-resident and every posted fragment lands
    /// no later than the durability instant.
    #[test]
    fn sync_guarantees_cover_all_fragments(
        stores in prop::collection::vec((0u64..4096, 1usize..64), 1..40)
    ) {
        let mut chan = HostByteChannel::new(PcieTimings::default());
        let mut t = SimTime::ZERO;
        for (offset, len) in &stores {
            t = chan.store(t, *offset, &vec![0x55; *len]).retired_at;
        }
        let sync = chan.sync(t);
        prop_assert_eq!(chan.wc_resident_bytes(), 0);
        for frag in &sync.posted {
            prop_assert!(frag.lands_at <= sync.durable_at);
        }
        prop_assert!(sync.durable_at > t);
    }

    /// Landing instants never decrease across successive drains —
    /// PCIe posted-write FIFO ordering.
    #[test]
    fn posted_writes_land_in_fifo_order(
        batches in prop::collection::vec(
            prop::collection::vec((0u64..1024, 1usize..32), 1..6), 1..8
        )
    ) {
        let mut chan = HostByteChannel::new(PcieTimings::default());
        let mut t = SimTime::ZERO;
        let mut last_land = SimTime::ZERO;
        for batch in batches {
            for (offset, len) in batch {
                let out = chan.store(t, offset, &vec![1; len]);
                t = out.retired_at;
                for p in &out.posted {
                    prop_assert!(p.lands_at >= last_land);
                    last_land = last_land.max(p.lands_at);
                }
            }
            let flush = chan.flush_wc(t);
            t = flush.flushed_at;
            for p in &flush.posted {
                prop_assert!(p.lands_at >= last_land);
                last_land = last_land.max(p.lands_at);
            }
        }
    }

    /// Store latency equals the calibrated WC model regardless of history:
    /// base for ≤64 B plus a per-burst increment.
    #[test]
    fn store_latency_is_size_determined(len in 1u64..4096, offset in 0u64..4096) {
        let timings = PcieTimings::default();
        let mut chan = HostByteChannel::new(timings);
        let out = chan.store(SimTime::ZERO, offset, &vec![0; len as usize]);
        prop_assert_eq!(
            out.retired_at.saturating_since(SimTime::ZERO),
            timings.mmio_write(len)
        );
    }

    /// Every fragment the MMIO channel posts holds 1–64 bytes inside one
    /// line, and landing them in posting order reproduces exactly what the
    /// stores wrote.
    #[test]
    fn mmio_fragments_stay_inside_one_line(ops in byte_path_ops()) {
        let mut chan = HostByteChannel::new(PcieTimings::default());
        let mut window = vec![0u8; WINDOW];
        let mut model = vec![0u8; WINDOW];
        let mut t = SimTime::ZERO;
        for (offset, len, fill, next) in ops {
            let data = vec![fill; len];
            model[offset as usize..offset as usize + len].copy_from_slice(&data);
            let store = chan.store(t, offset, &data);
            land_checked(&mut window, &store.posted)?;
            t = store.retired_at;
            match next {
                0 => {
                    let sync = chan.sync_range(t, offset, len as u64);
                    land_checked(&mut window, &sync.posted)?;
                    t = sync.durable_at;
                }
                1 => {
                    let read = chan.read(t, 8);
                    land_checked(&mut window, &read.posted)?;
                    t = read.complete_at;
                }
                _ => {}
            }
        }
        let sync = chan.sync(t);
        land_checked(&mut window, &sync.posted)?;
        prop_assert!(window == model, "landed bytes differ from the stores");
    }

    /// The same for the CXL.mem channel's write-backs.
    #[test]
    fn cxl_fragments_stay_inside_one_line(ops in byte_path_ops()) {
        let mut chan = CxlChannel::new(CxlTimings::default());
        let mut window = vec![0u8; WINDOW];
        let mut model = vec![0u8; WINDOW];
        let mut t = SimTime::ZERO;
        for (offset, len, fill, next) in ops {
            let data = vec![fill; len];
            model[offset as usize..offset as usize + len].copy_from_slice(&data);
            let store = chan.store(t, offset, &data);
            land_checked(&mut window, &store.posted)?;
            t = store.retired_at;
            match next {
                0 => {
                    let persist = chan.persist_barrier(t, offset, len as u64);
                    land_checked(&mut window, &persist.posted)?;
                    t = persist.durable_at;
                }
                1 => {
                    let load = chan.load(t, 8);
                    land_checked(&mut window, &load.posted)?;
                    t = load.complete_at;
                }
                _ => {}
            }
        }
        let persist = chan.persist_barrier(t, 0, WINDOW as u64);
        land_checked(&mut window, &persist.posted)?;
        prop_assert!(window == model, "written-back bytes differ from the stores");
    }

    /// Power loss always zeroes the WC residue and reports exactly what
    /// was resident.
    #[test]
    fn power_loss_reports_residue(
        stores in prop::collection::vec((0u64..512, 1usize..32), 0..20)
    ) {
        let mut chan = HostByteChannel::new(PcieTimings::default());
        let mut t = SimTime::ZERO;
        for (offset, len) in stores {
            t = chan.store(t, offset, &vec![9; len]).retired_at;
        }
        let resident = chan.wc_resident_bytes();
        prop_assert_eq!(chan.power_loss(), resident);
        prop_assert_eq!(chan.wc_resident_bytes(), 0);
    }

    /// MMIO read cost is exactly ceil(len/8) TLP round trips.
    #[test]
    fn read_cost_counts_tlps(len in 1u64..8192) {
        let timings = PcieTimings::default();
        let expected = timings.read_8b_rtt * len.div_ceil(8);
        prop_assert_eq!(timings.mmio_read(len), expected);
    }
}
