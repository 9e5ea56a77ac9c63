//! The NAND array: real byte storage plus physical-rule enforcement.

use std::collections::HashMap;
use std::sync::Arc;

use twob_sim::{SimDuration, SimRng};

use crate::{
    BitErrorModel, BlockAddr, EccConfig, EccOutcome, NandError, NandGeometry, NandTiming, PageAddr,
    TimingBreakdown,
};

/// One programmed page: an immutable, cheaply cloned handle to its bytes.
///
/// Programming stores the handle and reading clones it, so a page moves
/// through the FTL, the write cache and GC copy-back without a byte copy.
/// Callers holding a slice write `PageBuf::from(slice)`, which is the one
/// copy a page costs on its way in.
pub type PageBuf = Arc<[u8]>;

/// Per-block bookkeeping.
#[derive(Debug, Clone, Default)]
struct BlockState {
    /// Programmed pages in program order; `pages.len()` is the next
    /// programmable page index.
    pages: Vec<PageBuf>,
    /// Whether the block has ever been erased (fresh blocks are usable
    /// immediately in this model, matching factory-erased flash).
    erase_count: u64,
    /// Bad blocks refuse all operations.
    bad: bool,
}

/// The operations the array can perform, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NandOp {
    /// Page read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
}

/// A completed read: the page bytes plus timing and ECC accounting.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// The page contents (a clone of the stored handle).
    pub data: PageBuf,
    /// Die/bus time components for the SSD scheduler.
    pub timing: TimingBreakdown,
    /// Bits ECC corrected on this read.
    pub corrected_bits: u32,
}

/// A completed program: timing components for the SSD scheduler.
#[derive(Debug, Clone, Copy)]
pub struct ProgramResult {
    /// Die/bus time components for the SSD scheduler.
    pub timing: TimingBreakdown,
}

/// Aggregate wear statistics for the array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WearReport {
    /// Total page programs performed.
    pub programs: u64,
    /// Total page reads performed.
    pub reads: u64,
    /// Total block erases performed.
    pub erases: u64,
    /// Maximum per-block erase count.
    pub max_erase_count: u64,
    /// Minimum per-block erase count across blocks that were ever erased,
    /// or zero if none were.
    pub min_erase_count: u64,
    /// Number of blocks currently marked bad.
    pub bad_blocks: u64,
}

/// A NAND flash array whose page storage is a per-block vector of
/// [`PageBuf`] handles, allocated as blocks are first touched.
///
/// Enforces erase-before-program, strictly sequential programming within a
/// block, bad-block refusal, and optional bit-error injection with an ECC
/// budget. Stores real bytes so upper layers can be checked end-to-end.
/// Programming pushes the caller's handle and never copies the bytes;
/// erasing clears the block's vector.
///
/// # Example
///
/// ```rust
/// use twob_nand::{FlashClass, NandArray, NandGeometry, PageBuf};
///
/// let geom = NandGeometry::small_test();
/// let mut nand = NandArray::new(geom, FlashClass::DatacenterTlc.timing());
/// let blk = geom.block_addr(0, 0, 0, 0);
/// nand.erase_block(blk)?;
/// let page = PageBuf::from(vec![7u8; 4096]);
/// nand.program_page(blk.page(0), page.clone())?;
/// assert!(nand.program_page(blk.page(0), page).is_err());
/// # Ok::<(), twob_nand::NandError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NandArray {
    geometry: NandGeometry,
    timing: NandTiming,
    blocks: HashMap<BlockAddr, BlockState>,
    ecc: EccConfig,
    error_model: BitErrorModel,
    rng: SimRng,
    programs: u64,
    reads: u64,
    erases: u64,
}

impl NandArray {
    /// Creates an array with a perfectly reliable medium (no bit errors).
    pub fn new(geometry: NandGeometry, timing: NandTiming) -> Self {
        NandArray {
            geometry,
            timing,
            blocks: HashMap::new(),
            ecc: EccConfig::default(),
            error_model: BitErrorModel::perfect(),
            rng: SimRng::seed_from(0xECC),
            programs: 0,
            reads: 0,
            erases: 0,
        }
    }

    /// Creates an array with bit-error injection governed by `model` and
    /// corrected within `ecc`'s budget, seeded for reproducibility.
    pub fn with_error_model(
        geometry: NandGeometry,
        timing: NandTiming,
        ecc: EccConfig,
        model: BitErrorModel,
        seed: u64,
    ) -> Self {
        NandArray {
            ecc,
            error_model: model,
            rng: SimRng::seed_from(seed),
            ..NandArray::new(geometry, timing)
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> NandGeometry {
        self.geometry
    }

    /// The array's timing constants.
    pub fn timing(&self) -> NandTiming {
        self.timing
    }

    fn block_state(&mut self, addr: BlockAddr) -> &mut BlockState {
        self.blocks.entry(addr).or_default()
    }

    /// Erases a block, freeing all its pages for reprogramming.
    ///
    /// Returns the die time the erase occupies.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadBlock`] if the block is marked bad.
    pub fn erase_block(&mut self, addr: BlockAddr) -> Result<TimingBreakdown, NandError> {
        let state = self.block_state(addr);
        if state.bad {
            return Err(NandError::BadBlock(addr));
        }
        state.pages.clear();
        state.erase_count += 1;
        self.erases += 1;
        Ok(TimingBreakdown {
            die_time: self.timing.t_erase,
            xfer_time: SimDuration::ZERO,
        })
    }

    /// Programs the next sequential page of a block with `data`, storing
    /// the handle itself (no byte copy).
    ///
    /// # Errors
    ///
    /// - [`NandError::WrongBufferLen`] if `data` is not exactly one page.
    /// - [`NandError::PageOutOfRange`] if `addr.page` lies past the block.
    /// - [`NandError::BadBlock`] for bad blocks.
    /// - [`NandError::ProgramWithoutErase`] if the page already holds data.
    /// - [`NandError::OutOfOrderProgram`] if `addr.page` is not the block's
    ///   next sequential page.
    pub fn program_page(
        &mut self,
        addr: PageAddr,
        data: PageBuf,
    ) -> Result<ProgramResult, NandError> {
        let page_size = self.geometry.page_size as usize;
        if data.len() != page_size {
            return Err(NandError::WrongBufferLen {
                got: data.len(),
                expected: page_size,
            });
        }
        if addr.page >= self.geometry.pages_per_block {
            return Err(NandError::PageOutOfRange(addr));
        }
        let state = self.block_state(addr.block);
        if state.bad {
            return Err(NandError::BadBlock(addr.block));
        }
        let next_page = state.pages.len() as u32;
        if addr.page < next_page {
            return Err(NandError::ProgramWithoutErase(addr));
        }
        if addr.page > next_page {
            return Err(NandError::OutOfOrderProgram {
                attempted: addr,
                expected_page: next_page,
            });
        }
        state.pages.push(data);
        self.programs += 1;
        Ok(ProgramResult {
            timing: TimingBreakdown {
                die_time: self.timing.t_prog,
                xfer_time: self.timing.xfer(page_size as u64),
            },
        })
    }

    /// Reads a programmed page, returning a clone of its handle.
    ///
    /// # Errors
    ///
    /// - [`NandError::BadBlock`] for bad blocks.
    /// - [`NandError::ReadUnwritten`] if the page was never programmed.
    /// - [`NandError::Uncorrectable`] if injected bit errors exceed the ECC
    ///   budget; the block is then marked bad, as real firmware would retire
    ///   it.
    pub fn read_page(&mut self, addr: PageAddr) -> Result<ReadResult, NandError> {
        let state = self.block_state(addr.block);
        if state.bad {
            return Err(NandError::BadBlock(addr.block));
        }
        let erase_count = state.erase_count;
        let data = state
            .pages
            .get(addr.page as usize)
            .cloned()
            .ok_or(NandError::ReadUnwritten(addr))?;
        self.reads += 1;
        let outcome = self.ecc.check_page(
            &self.error_model,
            &mut self.rng,
            erase_count,
            self.geometry.page_size,
        );
        let corrected_bits = match outcome {
            EccOutcome::Corrected(bits) => bits,
            EccOutcome::Uncorrectable => {
                self.block_state(addr.block).bad = true;
                return Err(NandError::Uncorrectable(addr));
            }
        };
        Ok(ReadResult {
            data,
            timing: TimingBreakdown {
                die_time: self.timing.t_read,
                xfer_time: self.timing.xfer(self.geometry.page_size as u64),
            },
            corrected_bits,
        })
    }

    /// Returns `true` if the page currently holds programmed data.
    pub fn is_programmed(&self, addr: PageAddr) -> bool {
        self.next_page_of(addr.block) > addr.page
    }

    /// Next programmable page index of a block (0 for a fresh block).
    pub fn next_page_of(&self, addr: BlockAddr) -> u32 {
        self.blocks.get(&addr).map_or(0, |s| s.pages.len() as u32)
    }

    /// Erase count of a block.
    pub fn erase_count_of(&self, addr: BlockAddr) -> u64 {
        self.blocks.get(&addr).map_or(0, |s| s.erase_count)
    }

    /// Marks a block bad, as firmware does after a failed program/erase.
    pub fn mark_bad(&mut self, addr: BlockAddr) {
        self.block_state(addr).bad = true;
    }

    /// Returns `true` if the block is marked bad.
    pub fn is_bad(&self, addr: BlockAddr) -> bool {
        self.blocks.get(&addr).is_some_and(|s| s.bad)
    }

    /// Aggregate wear statistics.
    pub fn wear_report(&self) -> WearReport {
        let erased: Vec<u64> = self
            .blocks
            .values()
            .filter(|s| s.erase_count > 0)
            .map(|s| s.erase_count)
            .collect();
        WearReport {
            programs: self.programs,
            reads: self.reads,
            erases: self.erases,
            max_erase_count: erased.iter().copied().max().unwrap_or(0),
            min_erase_count: erased.iter().copied().min().unwrap_or(0),
            bad_blocks: self.blocks.values().filter(|s| s.bad).count() as u64,
        }
    }

    /// Number of pages currently holding data (for memory accounting).
    /// Pages programmed from one shared handle count once each, though
    /// they share one allocation.
    pub fn resident_pages(&self) -> usize {
        self.blocks.values().map(|s| s.pages.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlashClass;

    fn test_array() -> (NandGeometry, NandArray) {
        let g = NandGeometry::small_test();
        (g, NandArray::new(g, FlashClass::LowLatencySlc.timing()))
    }

    #[test]
    fn program_then_read_round_trips() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        nand.erase_block(blk).unwrap();
        let data: Vec<u8> = (0..g.page_size).map(|i| (i % 251) as u8).collect();
        nand.program_page(blk.page(0), PageBuf::from(&data[..]))
            .unwrap();
        assert_eq!(*nand.read_page(blk.page(0)).unwrap().data, data[..]);
    }

    #[test]
    fn fresh_block_is_programmable_without_explicit_erase() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(1, 0, 0, 0);
        assert!(nand.program_page(blk.page(0), vec![0; 4096].into()).is_ok());
    }

    #[test]
    fn double_program_rejected() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        nand.program_page(blk.page(0), vec![1; 4096].into())
            .unwrap();
        assert_eq!(
            nand.program_page(blk.page(0), vec![2; 4096].into())
                .unwrap_err(),
            NandError::ProgramWithoutErase(blk.page(0))
        );
    }

    #[test]
    fn out_of_order_program_rejected() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        let err = nand
            .program_page(blk.page(3), vec![0; 4096].into())
            .unwrap_err();
        assert!(matches!(err, NandError::OutOfOrderProgram { .. }));
    }

    #[test]
    fn erase_frees_pages_and_counts_wear() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        nand.program_page(blk.page(0), vec![9; 4096].into())
            .unwrap();
        nand.erase_block(blk).unwrap();
        assert!(!nand.is_programmed(blk.page(0)));
        assert_eq!(nand.erase_count_of(blk), 1);
        // Reprogramming page 0 is now legal.
        assert!(nand.program_page(blk.page(0), vec![9; 4096].into()).is_ok());
    }

    #[test]
    fn program_past_block_end_rejected() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        let page = PageBuf::from(vec![3u8; 4096]);
        for i in 0..g.pages_per_block {
            nand.program_page(blk.page(i), page.clone()).unwrap();
        }
        let end = blk.page(g.pages_per_block);
        assert_eq!(
            nand.program_page(end, page).unwrap_err(),
            NandError::PageOutOfRange(end)
        );
        assert_eq!(nand.resident_pages(), g.pages_per_block as usize);
    }

    #[test]
    fn read_unwritten_errors() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        assert_eq!(
            nand.read_page(blk.page(5)).unwrap_err(),
            NandError::ReadUnwritten(blk.page(5))
        );
    }

    #[test]
    fn bad_block_refuses_everything() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 1);
        nand.program_page(blk.page(0), vec![1; 4096].into())
            .unwrap();
        nand.mark_bad(blk);
        assert!(matches!(
            nand.read_page(blk.page(0)),
            Err(NandError::BadBlock(_))
        ));
        assert!(matches!(
            nand.program_page(blk.page(1), vec![1; 4096].into()),
            Err(NandError::BadBlock(_))
        ));
        assert!(matches!(nand.erase_block(blk), Err(NandError::BadBlock(_))));
    }

    #[test]
    fn wrong_buffer_length_rejected() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        let err = nand
            .program_page(blk.page(0), PageBuf::from(&[0u8; 100][..]))
            .unwrap_err();
        assert_eq!(
            err,
            NandError::WrongBufferLen {
                got: 100,
                expected: 4096
            }
        );
    }

    #[test]
    fn uncorrectable_read_retires_block() {
        let g = NandGeometry::small_test();
        let mut nand = NandArray::with_error_model(
            g,
            FlashClass::LowLatencySlc.timing(),
            EccConfig {
                codeword_bytes: 1024,
                correctable_bits: 0,
            },
            BitErrorModel {
                base_rber: 1e-2,
                rber_per_pe_cycle: 0.0,
            },
            7,
        );
        let blk = g.block_addr(0, 0, 0, 0);
        nand.program_page(blk.page(0), vec![0; 4096].into())
            .unwrap();
        let mut failed = false;
        for _ in 0..50 {
            match nand.read_page(blk.page(0)) {
                Err(NandError::Uncorrectable(_)) => {
                    failed = true;
                    break;
                }
                Err(NandError::BadBlock(_)) => unreachable!("loop exits on first failure"),
                _ => {}
            }
        }
        assert!(failed, "expected an uncorrectable read at RBER 1e-2");
        assert!(nand.is_bad(blk));
        assert_eq!(nand.wear_report().bad_blocks, 1);
    }

    #[test]
    fn timing_components_match_class() {
        let (g, mut nand) = test_array();
        let t = FlashClass::LowLatencySlc.timing();
        let blk = g.block_addr(0, 0, 0, 0);
        let prog = nand
            .program_page(blk.page(0), vec![0; 4096].into())
            .unwrap();
        assert_eq!(prog.timing.die_time, t.t_prog);
        assert_eq!(prog.timing.xfer_time, t.xfer(4096));
        let read = nand.read_page(blk.page(0)).unwrap();
        assert_eq!(read.timing.die_time, t.t_read);
        let erase = nand.erase_block(blk).unwrap();
        assert_eq!(erase.die_time, t.t_erase);
        assert_eq!(erase.xfer_time, SimDuration::ZERO);
    }

    #[test]
    fn wear_report_tracks_counts() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        nand.program_page(blk.page(0), vec![0; 4096].into())
            .unwrap();
        nand.read_page(blk.page(0)).unwrap();
        nand.erase_block(blk).unwrap();
        nand.erase_block(blk).unwrap();
        let report = nand.wear_report();
        assert_eq!(report.programs, 1);
        assert_eq!(report.reads, 1);
        assert_eq!(report.erases, 2);
        assert_eq!(report.max_erase_count, 2);
    }
}
