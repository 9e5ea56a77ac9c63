//! Property-based tests of the NAND array's physical invariants.

use proptest::prelude::*;
use twob_nand::{
    BitErrorModel, EccConfig, FlashClass, NandArray, NandError, NandGeometry, PageBuf,
};

/// An abstract NAND operation drawn by proptest.
#[derive(Debug, Clone)]
enum Op {
    Erase {
        block: u64,
    },
    Program {
        block: u64,
        fill: u8,
    },
    /// Programs the block's remaining pages, then one past its end.
    Fill {
        block: u64,
        fill: u8,
    },
    Read {
        block: u64,
        page: u32,
    },
    MarkBad {
        block: u64,
    },
}

fn op_strategy(blocks: u64, pages: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..blocks).prop_map(|block| Op::Erase { block }),
        12 => (0..blocks, any::<u8>()).prop_map(|(block, fill)| Op::Program { block, fill }),
        1 => (0..blocks, any::<u8>()).prop_map(|(block, fill)| Op::Fill { block, fill }),
        12 => (0..blocks, 0..pages).prop_map(|(block, page)| Op::Read { block, page }),
        1 => (0..blocks).prop_map(|block| Op::MarkBad { block }),
    ]
}

/// Per-block oracle state: the fill byte of each programmed page, in
/// program order, and whether the block has been retired.
#[derive(Debug, Clone, Default)]
struct OracleBlock {
    pages: Vec<u8>,
    bad: bool,
}

/// Programs the block's next page (per the oracle) and checks the array's
/// answer: success on a good block with room, `BadBlock` on a retired one,
/// `PageOutOfRange` one past the end.
fn program(
    nand: &mut NandArray,
    o: &mut OracleBlock,
    geom: NandGeometry,
    block: u64,
    fill: u8,
) -> Result<(), TestCaseError> {
    let np = o.pages.len() as u32;
    let addr = geom.block_from_flat(block).page(np);
    match nand.program_page(addr, PageBuf::from(vec![fill; 4096])) {
        Ok(_) if !o.bad && np < geom.pages_per_block => o.pages.push(fill),
        Err(NandError::BadBlock(_)) if o.bad => {}
        Err(NandError::PageOutOfRange(_)) if np == geom.pages_per_block => {}
        got => {
            return Err(TestCaseError::fail(format!(
                "program of page {np} in block {block} (bad={}) returned {:?}",
                o.bad,
                got.map(|_| ())
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Against an oracle model: reads return exactly the last bytes
    /// programmed since the covering erase, the array never accepts an
    /// out-of-order, double or past-the-end program, and bad blocks
    /// (marked, or retired by an uncorrectable read) refuse every
    /// operation yet keep their pages resident. After every operation,
    /// `resident_pages` and `is_programmed` agree with the oracle.
    #[test]
    fn nand_matches_oracle(
        ops in prop::collection::vec(op_strategy(8, 17), 1..160),
        lossy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let geom = NandGeometry::small_test();
        let timing = FlashClass::LowLatencySlc.timing();
        // The lossy medium fails about one read in six, uncorrectably.
        let mut nand = if lossy {
            NandArray::with_error_model(
                geom,
                timing,
                EccConfig { codeword_bytes: 1024, correctable_bits: 0 },
                BitErrorModel { base_rber: 5e-6, rber_per_pe_cycle: 0.0 },
                seed,
            )
        } else {
            NandArray::new(geom, timing)
        };
        let ppb = geom.pages_per_block;
        let mut oracle: Vec<OracleBlock> = vec![OracleBlock::default(); 8];

        for op in ops {
            match op {
                Op::Erase { block } => {
                    let addr = geom.block_from_flat(block);
                    let o = &mut oracle[block as usize];
                    match nand.erase_block(addr) {
                        Ok(_) if !o.bad => o.pages.clear(),
                        Err(NandError::BadBlock(_)) if o.bad => {}
                        got => return Err(TestCaseError::fail(format!(
                            "erase of block {block} (bad={}) returned {got:?}", o.bad
                        ))),
                    }
                }
                Op::Program { block, fill } => {
                    program(&mut nand, &mut oracle[block as usize], geom, block, fill)?;
                }
                Op::Fill { block, fill } => {
                    let o = &mut oracle[block as usize];
                    for _ in o.pages.len() as u32..=ppb {
                        program(&mut nand, o, geom, block, fill)?;
                    }
                }
                Op::Read { block, page } => {
                    let addr = geom.block_from_flat(block);
                    let o = &mut oracle[block as usize];
                    let want = o.pages.get(page as usize).copied();
                    match (o.bad, want, nand.read_page(addr.page(page))) {
                        (false, Some(fill), Ok(read)) => {
                            prop_assert!(read.data.iter().all(|&b| b == fill));
                        }
                        // An uncorrectable read retires the block, as
                        // firmware would.
                        (false, Some(_), Err(NandError::Uncorrectable(_))) if lossy => {
                            o.bad = true;
                        }
                        (false, None, Err(NandError::ReadUnwritten(_))) => {}
                        (true, _, Err(NandError::BadBlock(_))) => {}
                        (bad, expected, got) => {
                            return Err(TestCaseError::fail(format!(
                                "oracle {expected:?} (bad={bad}) but nand returned {:?}",
                                got.map(|r| r.data[0])
                            )));
                        }
                    }
                }
                Op::MarkBad { block } => {
                    nand.mark_bad(geom.block_from_flat(block));
                    oracle[block as usize].bad = true;
                }
            }
            let resident: usize = oracle.iter().map(|o| o.pages.len()).sum();
            prop_assert_eq!(nand.resident_pages(), resident);
            for (block, o) in oracle.iter().enumerate() {
                let addr = geom.block_from_flat(block as u64);
                prop_assert_eq!(nand.is_bad(addr), o.bad);
                prop_assert_eq!(nand.next_page_of(addr), o.pages.len() as u32);
                for page in 0..=ppb {
                    prop_assert_eq!(
                        nand.is_programmed(addr.page(page)),
                        (page as usize) < o.pages.len(),
                        "block {} page {}", block, page
                    );
                }
            }
        }
        prop_assert_eq!(nand.wear_report().bad_blocks, oracle.iter().filter(|o| o.bad).count() as u64);
    }

    /// Double programming any page is always rejected.
    #[test]
    fn double_program_always_rejected(block in 0u64..8, fills in prop::collection::vec(any::<u8>(), 1..16)) {
        let geom = NandGeometry::small_test();
        let mut nand = NandArray::new(geom, FlashClass::DatacenterTlc.timing());
        let addr = geom.block_from_flat(block);
        for (i, fill) in fills.iter().enumerate() {
            nand.program_page(addr.page(i as u32), PageBuf::from(vec![*fill; 4096])).unwrap();
        }
        // Re-programming any already-written page fails.
        for i in 0..fills.len() {
            prop_assert!(matches!(
                nand.program_page(addr.page(i as u32), PageBuf::from(vec![0; 4096])),
                Err(NandError::ProgramWithoutErase(_))
            ));
        }
    }

    /// Erase counts only ever grow, and wear reports aggregate them.
    #[test]
    fn wear_is_monotonic(erases in prop::collection::vec(0u64..8, 1..40)) {
        let geom = NandGeometry::small_test();
        let mut nand = NandArray::new(geom, FlashClass::LowLatencySlc.timing());
        let mut last_total = 0u64;
        for block in erases {
            let addr = geom.block_from_flat(block);
            nand.erase_block(addr).unwrap();
            let report = nand.wear_report();
            prop_assert!(report.erases > last_total);
            last_total = report.erases;
            prop_assert!(report.max_erase_count >= report.min_erase_count);
        }
    }

    /// Flat block/page addressing round-trips for arbitrary geometry.
    #[test]
    fn addressing_roundtrip(
        channels in 1u32..8, ways in 1u32..8, planes in 1u32..4,
        blocks in 1u32..64, pages in 1u32..128, idx in any::<u64>()
    ) {
        let geom = NandGeometry {
            channels,
            ways_per_channel: ways,
            planes_per_way: planes,
            blocks_per_plane: blocks,
            pages_per_block: pages,
            page_size: 4096,
            spare_per_page: 128,
        };
        let flat = idx % geom.blocks_total();
        let addr = geom.block_from_flat(flat);
        prop_assert_eq!(geom.block_to_flat(addr), flat);
        let ppa = twob_nand::Ppa(idx % geom.pages_total());
        prop_assert_eq!(geom.ppa(geom.page_from_ppa(ppa)), ppa);
    }
}
