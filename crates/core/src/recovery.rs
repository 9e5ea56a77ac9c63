//! The recovery manager (paper §III-A4): power-loss dump and restore.
//!
//! On power-loss detection the manager spends the back-up capacitors'
//! energy to copy the BA-buffer contents *and* the mapping table into a
//! reserved NAND area the FTL never touches. At power-on it restores both,
//! so pinned windows come back exactly as the host last made them durable.
//!
//! The dump layout in the reserved blocks is:
//!
//! ```text
//! page 0:  header  = magic ∥ version ∥ generation ∥ buffer_len ∥
//!                    entry_count ∥ entries[..] ∥ crc32(header)
//! page 1…: the BA-buffer, page by page
//! ```

use twob_ftl::Lba;
use twob_nand::{BlockAddr, PageBuf};
use twob_sim::crc32;
use twob_ssd::Ssd;

use crate::{BaBuffer, EntryId, MappingTable, TwoBSpec};

const MAGIC: &[u8; 8] = b"2BSSDREC";
const VERSION: u32 = 1;
const PAGE: usize = 4096;

/// What happened when the recovery manager tried to dump on power loss.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpOutcome {
    /// Whether the dump completed within the energy budget.
    pub dumped: bool,
    /// NAND pages written (header + buffer pages) if dumped.
    pub pages_written: u64,
    /// Energy the dump consumed, joules.
    pub energy_used_j: f64,
    /// Why the dump was abandoned, if it was.
    pub reason: Option<String>,
}

/// What the recovery manager found at power-on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a valid dump was found and restored.
    pub restored: bool,
    /// Generation number of the restored dump.
    pub generation: u64,
    /// Mapping entries restored.
    pub entries: usize,
}

/// The recovery manager. Holds only the dump generation counter; all data
/// lives in the device it serves.
#[derive(Debug, Clone, Default)]
pub struct RecoveryManager {
    generation: u64,
}

impl RecoveryManager {
    /// Creates a manager with generation 0.
    pub fn new() -> Self {
        RecoveryManager::default()
    }

    /// Current dump generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn serialize_header(&self, table: &MappingTable, buffer_len: u64) -> Vec<u8> {
        let mut header = Vec::with_capacity(PAGE);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&self.generation.to_le_bytes());
        header.extend_from_slice(&buffer_len.to_le_bytes());
        let entries: Vec<_> = table.iter().collect();
        header.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for e in entries {
            header.push(e.eid.0);
            header.extend_from_slice(&e.buffer_offset.to_le_bytes());
            header.extend_from_slice(&e.start_lba.0.to_le_bytes());
            header.extend_from_slice(&e.pages.to_le_bytes());
        }
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        header.resize(PAGE, 0);
        header
    }

    fn parse_header(
        &self,
        page: &[u8],
        max_entries: usize,
        buffer_capacity: u64,
    ) -> Option<(u64, u64, MappingTable)> {
        if page.len() < PAGE || &page[0..8] != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(page[8..12].try_into().ok()?);
        if version != VERSION {
            return None;
        }
        let generation = u64::from_le_bytes(page[12..20].try_into().ok()?);
        let buffer_len = u64::from_le_bytes(page[20..28].try_into().ok()?);
        let count = u32::from_le_bytes(page[28..32].try_into().ok()?) as usize;
        let mut cursor = 32usize;
        let entry_size = 1 + 8 + 8 + 4;
        let body_end = cursor + count * entry_size;
        if body_end + 4 > PAGE {
            return None;
        }
        let stored_crc = u32::from_le_bytes(page[body_end..body_end + 4].try_into().ok()?);
        if crc32(&page[..body_end]) != stored_crc {
            return None;
        }
        let mut table = MappingTable::new(max_entries, buffer_capacity);
        for _ in 0..count {
            let eid = EntryId(page[cursor]);
            cursor += 1;
            let buffer_offset = u64::from_le_bytes(page[cursor..cursor + 8].try_into().ok()?);
            cursor += 8;
            let lba = u64::from_le_bytes(page[cursor..cursor + 8].try_into().ok()?);
            cursor += 8;
            let pages = u32::from_le_bytes(page[cursor..cursor + 4].try_into().ok()?);
            cursor += 4;
            table.insert(eid, buffer_offset, Lba(lba), pages).ok()?;
        }
        Some((generation, buffer_len, table))
    }

    /// Pages a dump of `buffer` needs (header + buffer pages).
    pub fn dump_pages(spec: &TwoBSpec) -> u64 {
        spec.ba_buffer_pages() + 1
    }

    /// Energy a full dump needs, joules.
    pub fn dump_energy_needed(spec: &TwoBSpec) -> f64 {
        Self::dump_pages(spec) as f64 * spec.dump_energy_per_page_j
    }

    /// Dumps the BA-buffer and mapping table into the device's reserved
    /// blocks, consuming capacitor energy. Called by the power-loss path.
    pub fn dump(
        &mut self,
        spec: &TwoBSpec,
        ssd: &mut Ssd,
        table: &MappingTable,
        buffer: &BaBuffer,
    ) -> DumpOutcome {
        let needed = Self::dump_energy_needed(spec);
        let budget = spec.capacitor_energy_j();
        if needed > budget {
            return DumpOutcome {
                dumped: false,
                pages_written: 0,
                energy_used_j: 0.0,
                reason: Some(format!(
                    "dump needs {needed:.4} J but capacitors hold {budget:.4} J"
                )),
            };
        }
        let reserved: Vec<BlockAddr> = ssd.ftl().reserved_blocks();
        let pages_per_block = ssd.config().geometry.pages_per_block as u64;
        let total_pages = Self::dump_pages(spec);
        if reserved.len() as u64 * pages_per_block < total_pages {
            return DumpOutcome {
                dumped: false,
                pages_written: 0,
                energy_used_j: 0.0,
                reason: Some(format!(
                    "reserved area of {} pages cannot hold a {total_pages}-page dump",
                    reserved.len() as u64 * pages_per_block
                )),
            };
        }
        self.generation += 1;
        let header = self.serialize_header(table, buffer.capacity());
        let nand = ssd.ftl_mut().nand_mut();
        for block in &reserved {
            nand.erase_block(*block).expect("reserved block erase");
        }
        let mut written = 0u64;
        let mut write_page = |data: Vec<u8>, idx: u64| {
            let block = reserved[(idx / pages_per_block) as usize];
            let page = block.page((idx % pages_per_block) as u32);
            nand.program_page(page, PageBuf::from(data))
                .expect("reserved program");
        };
        write_page(header, written);
        written += 1;
        let snapshot = buffer.snapshot();
        for chunk in snapshot.chunks(PAGE) {
            let mut page = chunk.to_vec();
            page.resize(PAGE, 0);
            write_page(page, written);
            written += 1;
        }
        DumpOutcome {
            dumped: true,
            pages_written: written,
            energy_used_j: written as f64 * spec.dump_energy_per_page_j,
            reason: None,
        }
    }

    /// Attempts to restore a dump from the reserved blocks. Returns the
    /// restored mapping table and buffer contents, or `None` if no valid
    /// dump exists.
    pub fn restore(&self, spec: &TwoBSpec, ssd: &mut Ssd) -> Option<(MappingTable, Vec<u8>, u64)> {
        let reserved: Vec<BlockAddr> = ssd.ftl().reserved_blocks();
        let pages_per_block = ssd.config().geometry.pages_per_block as u64;
        let nand = ssd.ftl_mut().nand_mut();
        let read_page = |nand: &mut twob_nand::NandArray, idx: u64| -> Option<PageBuf> {
            let block = *reserved.get((idx / pages_per_block) as usize)?;
            let page = block.page((idx % pages_per_block) as u32);
            nand.read_page(page).ok().map(|r| r.data)
        };
        let header = read_page(nand, 0)?;
        let (generation, buffer_len, table) =
            self.parse_header(&header, spec.max_entries, spec.ba_buffer_bytes)?;
        let mut buffer = Vec::with_capacity(buffer_len as usize);
        let pages = buffer_len.div_ceil(PAGE as u64);
        for i in 0..pages {
            let data = read_page(nand, 1 + i)?;
            buffer.extend_from_slice(&data);
        }
        buffer.truncate(buffer_len as usize);
        Some((table, buffer, generation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_ssd::SsdConfig;

    fn device() -> (TwoBSpec, Ssd) {
        (
            TwoBSpec::small_for_tests(),
            Ssd::new(SsdConfig::base_2b().small()),
        )
    }

    fn sample_state(spec: &TwoBSpec) -> (MappingTable, BaBuffer) {
        let mut table = MappingTable::new(spec.max_entries, spec.ba_buffer_bytes);
        table.insert(EntryId(0), 0, Lba(10), 2).unwrap();
        table.insert(EntryId(3), 16384, Lba(50), 1).unwrap();
        let mut buffer = BaBuffer::new(spec.ba_buffer_bytes);
        buffer.write_direct(0, b"precious log records");
        buffer.write_direct(16384, &[0xEE; 4096]);
        (table, buffer)
    }

    #[test]
    fn dump_restore_round_trips() {
        let (spec, mut ssd) = device();
        let (table, buffer) = sample_state(&spec);
        let mut mgr = RecoveryManager::new();
        let outcome = mgr.dump(&spec, &mut ssd, &table, &buffer);
        assert!(outcome.dumped, "{:?}", outcome.reason);
        assert_eq!(outcome.pages_written, spec.ba_buffer_pages() + 1);

        let (restored_table, restored_buffer, generation) =
            mgr.restore(&spec, &mut ssd).expect("valid dump");
        assert_eq!(generation, 1);
        assert_eq!(restored_table, table);
        assert_eq!(&restored_buffer[0..20], b"precious log records");
        assert_eq!(&restored_buffer[16384..16388], &[0xEE; 4]);
    }

    #[test]
    fn restore_without_dump_is_none() {
        let (spec, mut ssd) = device();
        let mgr = RecoveryManager::new();
        assert!(mgr.restore(&spec, &mut ssd).is_none());
    }

    #[test]
    fn insufficient_capacitance_abandons_dump() {
        let (mut spec, mut ssd) = device();
        spec.capacitors_uf = 1.0; // almost no stored energy
        let (table, buffer) = sample_state(&spec);
        let mut mgr = RecoveryManager::new();
        let outcome = mgr.dump(&spec, &mut ssd, &table, &buffer);
        assert!(!outcome.dumped);
        assert!(outcome
            .reason
            .as_deref()
            .unwrap_or("")
            .contains("capacitors"));
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let (spec, mut ssd) = device();
        let (table, buffer) = sample_state(&spec);
        let mut mgr = RecoveryManager::new();
        assert!(mgr.dump(&spec, &mut ssd, &table, &buffer).dumped);
        // Corrupt the header page in place: erase and rewrite garbage.
        let reserved = ssd.ftl().reserved_blocks();
        let nand = ssd.ftl_mut().nand_mut();
        nand.erase_block(reserved[0]).unwrap();
        nand.program_page(reserved[0].page(0), PageBuf::from(vec![0xBAu8; 4096]))
            .unwrap();
        assert!(mgr.restore(&spec, &mut ssd).is_none());
    }

    #[test]
    fn second_dump_bumps_generation() {
        let (spec, mut ssd) = device();
        let (table, buffer) = sample_state(&spec);
        let mut mgr = RecoveryManager::new();
        mgr.dump(&spec, &mut ssd, &table, &buffer);
        mgr.dump(&spec, &mut ssd, &table, &buffer);
        let (_, _, generation) = mgr.restore(&spec, &mut ssd).unwrap();
        assert_eq!(generation, 2);
    }

    #[test]
    fn energy_accounting_is_consistent() {
        let spec = TwoBSpec::small_for_tests();
        let needed = RecoveryManager::dump_energy_needed(&spec);
        assert!(needed > 0.0);
        assert!(needed < spec.capacitor_energy_j());
    }
}
