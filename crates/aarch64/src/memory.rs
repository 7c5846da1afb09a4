//! Simulated physical memory.
//!
//! Physical memory is a sparse, page-granular byte store: pages are
//! allocated zero-filled on first write, so very large physical address
//! spaces (needed to reproduce pKVM bug 5, where huge DRAM made the linear
//! map overlap the IO space) cost nothing until touched.
//!
//! The address space is described by a list of [`MemRegion`]s: RAM regions
//! back translation tables, hypervisor memory and host/guest pages; MMIO
//! regions model devices. Accesses to MMIO are permitted but *logged*, so
//! tests (and the linear-map-overlap reproduction) can observe the
//! hypervisor touching device memory it never intended to.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::sync::{Mutex, RwLock};

use crate::addr::{PhysAddr, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, PA_BITS, PA_LIMIT};
use crate::desc::Pte;

/// Dirty-descriptor tracking: a generational log of every page the
/// simulated system writes, and of which 8-byte descriptors within it.
///
/// Consumers (the ghost oracle's incremental abstraction cache) take a
/// [`WriteLog::snapshot_generation`] *before* reading derived state, and
/// later ask [`WriteLog::dirty_since`] that snapshot to learn which pages
/// — and which descriptors of them — may have invalidated it. Writes
/// racing with the read land at or after the snapshot generation and so
/// are re-reported next time — the log over-approximates, never
/// under-reports.
///
/// The log keeps one 16-byte entry per page per generation. An entry
/// names up to [`DirtyDescs::MAX`] written descriptor indices; a further
/// distinct index, or any [`PhysMem::write_bytes`] or
/// [`PhysMem::zero_page`], marks the whole page written.
///
/// Tracking is off by default (one relaxed atomic load per write); the
/// instrumented machine switches it on when its hooks want dirty
/// information. The log is bounded: on overflow the oldest half is
/// discarded and snapshots from before the trim point report `None`
/// ("unknown — assume everything dirty").
#[derive(Debug, Default)]
pub struct WriteLog {
    enabled: AtomicBool,
    inner: Mutex<WriteLogInner>,
}

#[derive(Debug, Default)]
struct WriteLogInner {
    /// Current generation; bumped by every snapshot.
    generation: u64,
    /// Packed entries in non-decreasing generation order.
    entries: VecDeque<LogEntry>,
    /// Entries ever pushed: the absolute position of `entries[i]` is
    /// `pushed - entries.len() + i`.
    pushed: u64,
    /// Pages already logged in the current generation, with the absolute
    /// position of their entry (dedup, and where to add indices).
    seen: HashMap<u64, u64>,
    /// Snapshots older than this have lost entries to trimming.
    trimmed_before: u64,
}

/// Cap on retained log entries; oldest half is dropped on overflow.
const WRITE_LOG_CAP: usize = 1 << 16;

/// The descriptors of one page written since a snapshot: up to
/// [`DirtyDescs::MAX`] distinct indices, or the whole page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirtyDescs {
    /// Number of valid `idx` slots, or [`Self::WHOLE_LEN`].
    len: u8,
    idx: [u16; DirtyDescs::MAX],
}

impl DirtyDescs {
    /// Distinct descriptor indices tracked before a page counts as
    /// written whole.
    pub const MAX: usize = 4;
    const WHOLE_LEN: u8 = 7;

    /// The whole page counts as written.
    pub const WHOLE: DirtyDescs = DirtyDescs {
        len: Self::WHOLE_LEN,
        idx: [0; Self::MAX],
    };

    /// Exactly descriptor `idx` was written.
    pub fn one(idx: u16) -> DirtyDescs {
        let mut d = DirtyDescs {
            len: 1,
            idx: [0; Self::MAX],
        };
        d.idx[0] = idx;
        d
    }

    /// Returns `true` if the whole page counts as written.
    pub fn is_whole(&self) -> bool {
        self.len == Self::WHOLE_LEN
    }

    /// The written descriptor indices, in first-write order, or `None`
    /// when the whole page counts as written.
    pub fn indices(&self) -> Option<&[u16]> {
        (!self.is_whole()).then(|| &self.idx[..self.len as usize])
    }

    /// Adds descriptor `idx`; a distinct index past [`Self::MAX`] marks
    /// the whole page.
    pub fn insert(&mut self, idx: u16) {
        let Some(have) = self.indices() else { return };
        if have.contains(&idx) {
            return;
        }
        if have.len() == Self::MAX {
            *self = Self::WHOLE;
        } else {
            self.idx[self.len as usize] = idx;
            self.len += 1;
        }
    }

    /// Adds every descriptor of `other`.
    pub fn union(&mut self, other: DirtyDescs) {
        match other.indices() {
            Some(idx) => idx.iter().for_each(|&i| self.insert(i)),
            None => *self = Self::WHOLE,
        }
    }
}

/// One log entry packed into 16 bytes: bits 0..36 hold the pfn (physical
/// memory lies below `PA_LIMIT`), 36..39 the [`DirtyDescs`] length,
/// 39..75 its four 9-bit indices and 75..128 the generation.
#[derive(Clone, Copy, Debug)]
struct LogEntry(u128);

impl LogEntry {
    const PFN_BITS: u32 = (PA_BITS - PAGE_SHIFT) as u32;
    const LEN_SHIFT: u32 = Self::PFN_BITS;
    const LEN_BITS: u32 = 3;
    const IDX_SHIFT: u32 = Self::LEN_SHIFT + Self::LEN_BITS;
    const IDX_BITS: u32 = 9;
    const GEN_SHIFT: u32 = Self::IDX_SHIFT + Self::IDX_BITS * DirtyDescs::MAX as u32;
    const GEN_BITS: u32 = 128 - Self::GEN_SHIFT;

    fn new(generation: u64, pfn: u64, descs: DirtyDescs) -> LogEntry {
        debug_assert!(pfn >> Self::PFN_BITS == 0, "pfn {pfn:#x} beyond PA_LIMIT");
        let mut e = LogEntry((u128::from(generation) << Self::GEN_SHIFT) | u128::from(pfn));
        e.set_descs(descs);
        e
    }

    fn generation(self) -> u64 {
        (self.0 >> Self::GEN_SHIFT) as u64
    }

    fn pfn(self) -> u64 {
        (self.0 & ((1 << Self::PFN_BITS) - 1)) as u64
    }

    fn descs(self) -> DirtyDescs {
        let mut d = DirtyDescs {
            len: (self.0 >> Self::LEN_SHIFT) as u8 & ((1 << Self::LEN_BITS) - 1),
            idx: [0; DirtyDescs::MAX],
        };
        for (k, slot) in d.idx.iter_mut().enumerate() {
            *slot = (self.0 >> (Self::IDX_SHIFT + Self::IDX_BITS * k as u32)) as u16 & 0x1ff;
        }
        d
    }

    fn set_descs(&mut self, d: DirtyDescs) {
        let mut packed = u128::from(d.len);
        for (k, &i) in d.idx.iter().enumerate() {
            packed |= u128::from(i) << (Self::LEN_BITS + Self::IDX_BITS * k as u32);
        }
        let mask = ((1u128 << (Self::GEN_SHIFT - Self::LEN_SHIFT)) - 1) << Self::LEN_SHIFT;
        self.0 = (self.0 & !mask) | (packed << Self::LEN_SHIFT);
    }
}

impl WriteLog {
    /// Returns `true` if writes are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording on or off. Turning it off clears the log, so
    /// pre-existing snapshots conservatively report `None`.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
        if !on {
            let mut l = self.inner.lock();
            l.trimmed_before = l.generation + 1;
            l.entries.clear();
            l.seen.clear();
        }
    }

    /// The current generation (diagnostics; snapshots come from
    /// [`Self::snapshot_generation`]).
    pub fn generation(&self) -> u64 {
        self.inner.lock().generation
    }

    /// Retained log entries (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Returns `true` if no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a new generation and returns it: every write logged from now
    /// on — including writes racing with state the caller is about to
    /// read — satisfies `dirty_since(returned)`.
    pub fn snapshot_generation(&self) -> u64 {
        let mut l = self.inner.lock();
        assert!(
            l.generation >> LogEntry::GEN_BITS == 0,
            "write-log generation overflow"
        );
        l.generation += 1;
        l.seen.clear();
        l.generation
    }

    /// The pages written at or after snapshot `gen`, each with the
    /// descriptors written in it, or `None` if the log cannot answer
    /// (tracking off, or `gen` trimmed away) and the caller must assume
    /// everything is dirty.
    pub fn dirty_since(&self, gen: u64) -> Option<BTreeMap<u64, DirtyDescs>> {
        if !self.enabled() {
            return None;
        }
        let l = self.inner.lock();
        if gen < l.trimmed_before {
            return None;
        }
        // Entries are in generation order: the answer is a suffix.
        let from = l.entries.partition_point(|e| e.generation() < gen);
        let mut out: BTreeMap<u64, DirtyDescs> = BTreeMap::new();
        for e in l.entries.range(from..) {
            match out.entry(e.pfn()) {
                Entry::Vacant(v) => {
                    v.insert(e.descs());
                }
                Entry::Occupied(mut o) => o.get_mut().union(e.descs()),
            }
        }
        Some(out)
    }

    /// Logs a write to page `pfn`: to descriptor `desc`, or (`None`) to
    /// the whole page. Inlined down to the `enabled` test, which is all
    /// an untracked write pays.
    #[inline]
    fn record(&self, pfn: u64, desc: Option<u16>) {
        if self.enabled() {
            self.record_enabled(pfn, desc);
        }
    }

    fn record_enabled(&self, pfn: u64, desc: Option<u16>) {
        let mut l = self.inner.lock();
        let l = &mut *l;
        let base = l.pushed - l.entries.len() as u64;
        let written = desc.map_or(DirtyDescs::WHOLE, DirtyDescs::one);
        if let Some(&at) = l.seen.get(&pfn) {
            // A trimmed-away entry's snapshots are unanswerable anyway;
            // only a retained one is worth extending.
            if at >= base {
                let e = &mut l.entries[(at - base) as usize];
                let mut d = e.descs();
                d.union(written);
                e.set_descs(d);
                return;
            }
        }
        let g = l.generation;
        l.seen.insert(pfn, l.pushed);
        l.entries.push_back(LogEntry::new(g, pfn, written));
        l.pushed += 1;
        if l.entries.len() > WRITE_LOG_CAP {
            l.entries.drain(..WRITE_LOG_CAP / 2);
            // The oldest retained generation may now be incomplete.
            l.trimmed_before = l.entries.front().map_or(g + 1, |e| e.generation() + 1);
        }
    }
}

/// The kind of a physical-memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// DRAM: ordinary byte-addressable memory.
    Ram,
    /// Device (MMIO) space: accesses are logged.
    Mmio,
}

/// A contiguous region of the physical address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRegion {
    /// First byte of the region.
    pub base: PhysAddr,
    /// Region length in bytes.
    pub size: u64,
    /// RAM or MMIO.
    pub kind: RegionKind,
}

impl MemRegion {
    /// A RAM region `[base, base+size)`.
    pub const fn ram(base: u64, size: u64) -> Self {
        Self {
            base: PhysAddr::new(base),
            size,
            kind: RegionKind::Ram,
        }
    }

    /// An MMIO region `[base, base+size)`.
    pub const fn mmio(base: u64, size: u64) -> Self {
        Self {
            base: PhysAddr::new(base),
            size,
            kind: RegionKind::Mmio,
        }
    }

    /// Returns `true` if `pa` lies within this region.
    #[inline]
    pub fn contains(&self, pa: PhysAddr) -> bool {
        pa.bits() >= self.base.bits() && pa.bits() - self.base.bits() < self.size
    }

    /// One past the last byte of the region.
    #[inline]
    pub fn end(&self) -> PhysAddr {
        PhysAddr::new(self.base.bits() + self.size)
    }
}

/// Error returned for accesses outside every region ("bus error").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusError {
    /// The offending physical address.
    pub addr: PhysAddr,
}

impl core::fmt::Display for BusError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "bus error at {}", self.addr)
    }
}

impl std::error::Error for BusError {}

/// Sparse simulated physical memory.
pub struct PhysMem {
    regions: Vec<MemRegion>,
    pages: RwLock<HashMap<u64, Box<[u8; PAGE_SIZE as usize]>>>,
    mmio_reads: AtomicU64,
    mmio_writes: AtomicU64,
    write_log: WriteLog,
}

impl PhysMem {
    /// Creates memory with the given region layout.
    ///
    /// # Panics
    ///
    /// Panics if any regions overlap, are not page aligned, or extend
    /// past [`PA_LIMIT`].
    pub fn new(regions: Vec<MemRegion>) -> Self {
        for r in &regions {
            assert!(
                r.base.is_page_aligned() && r.size % PAGE_SIZE == 0,
                "misaligned region {r:?}"
            );
        }
        assert!(
            regions.iter().all(|r| r.end().bits() <= PA_LIMIT),
            "region beyond the {PA_BITS}-bit physical address space"
        );
        let mut sorted = regions.clone();
        sorted.sort_by_key(|r| r.base.bits());
        for w in sorted.windows(2) {
            assert!(
                w[0].end().bits() <= w[1].base.bits(),
                "overlapping regions {w:?}"
            );
        }
        Self {
            regions,
            pages: RwLock::new(HashMap::new()),
            mmio_reads: AtomicU64::new(0),
            mmio_writes: AtomicU64::new(0),
            write_log: WriteLog::default(),
        }
    }

    /// The region layout.
    pub fn regions(&self) -> &[MemRegion] {
        &self.regions
    }

    /// Looks up the region containing `pa`.
    pub fn region_of(&self, pa: PhysAddr) -> Option<&MemRegion> {
        self.regions.iter().find(|r| r.contains(pa))
    }

    /// Returns `true` if `pa` is backed by RAM.
    pub fn is_ram(&self, pa: PhysAddr) -> bool {
        matches!(self.region_of(pa), Some(r) if r.kind == RegionKind::Ram)
    }

    /// Returns `true` if `pa` is in a device region.
    pub fn is_mmio(&self, pa: PhysAddr) -> bool {
        matches!(self.region_of(pa), Some(r) if r.kind == RegionKind::Mmio)
    }

    /// Number of MMIO read accesses performed so far.
    pub fn mmio_reads(&self) -> u64 {
        self.mmio_reads.load(Ordering::Relaxed)
    }

    /// Number of MMIO write accesses performed so far.
    pub fn mmio_writes(&self) -> u64 {
        self.mmio_writes.load(Ordering::Relaxed)
    }

    /// The dirty-page log recording this memory's writes.
    pub fn write_log(&self) -> &WriteLog {
        &self.write_log
    }

    /// Number of RAM pages currently backed by real storage (touched pages).
    pub fn backed_pages(&self) -> usize {
        self.pages.read().len()
    }

    fn note_access(&self, pa: PhysAddr, write: bool) -> Result<(), BusError> {
        match self.region_of(pa) {
            None => Err(BusError { addr: pa }),
            Some(r) if r.kind == RegionKind::Mmio => {
                if write {
                    self.mmio_writes.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.mmio_reads.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Some(_) => Ok(()),
        }
    }

    /// Reads a naturally-aligned 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    ///
    /// # Panics
    ///
    /// Panics on misaligned addresses (the simulated hardware does not issue
    /// misaligned descriptor accesses).
    pub fn read_u64(&self, pa: PhysAddr) -> Result<u64, BusError> {
        assert!(pa.bits().is_multiple_of(8), "misaligned u64 read at {pa}");
        self.note_access(pa, false)?;
        let pages = self.pages.read();
        Ok(match pages.get(&pa.pfn()) {
            None => 0,
            Some(page) => {
                let off = (pa.bits() & PAGE_MASK) as usize;
                u64::from_le_bytes(page[off..off + 8].try_into().unwrap())
            }
        })
    }

    /// Writes a naturally-aligned 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    ///
    /// # Panics
    ///
    /// Panics on misaligned addresses.
    pub fn write_u64(&self, pa: PhysAddr, value: u64) -> Result<(), BusError> {
        assert!(pa.bits().is_multiple_of(8), "misaligned u64 write at {pa}");
        self.note_access(pa, true)?;
        self.write_log
            .record(pa.pfn(), Some((pa.page_offset() / 8) as u16));
        let mut pages = self.pages.write();
        let page = pages
            .entry(pa.pfn())
            .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
        let off = (pa.bits() & PAGE_MASK) as usize;
        page[off..off + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `pa` (may cross page boundaries).
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if any touched page is outside every region.
    pub fn read_bytes(&self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), BusError> {
        let pages = self.pages.read();
        for (i, b) in buf.iter_mut().enumerate() {
            let a = pa.wrapping_add(i as u64);
            if a.page_offset() == 0 || i == 0 {
                self.note_access(a, false)?;
            }
            *b = match pages.get(&a.pfn()) {
                None => 0,
                Some(page) => page[(a.bits() & PAGE_MASK) as usize],
            };
        }
        Ok(())
    }

    /// Writes `buf` starting at `pa` (may cross page boundaries).
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if any touched page is outside every region.
    pub fn write_bytes(&self, pa: PhysAddr, buf: &[u8]) -> Result<(), BusError> {
        let mut pages = self.pages.write();
        for (i, b) in buf.iter().enumerate() {
            let a = pa.wrapping_add(i as u64);
            if a.page_offset() == 0 || i == 0 {
                self.note_access(a, true)?;
                self.write_log.record(a.pfn(), None);
            }
            let page = pages
                .entry(a.pfn())
                .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
            page[(a.bits() & PAGE_MASK) as usize] = *b;
        }
        Ok(())
    }

    /// Zeroes the 4 KiB page containing `pa`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    pub fn zero_page(&self, pa: PhysAddr) -> Result<(), BusError> {
        self.note_access(pa, true)?;
        self.write_log.record(pa.pfn(), None);
        // Dropping the backing restores zero-fill semantics cheaply.
        self.pages.write().remove(&pa.pfn());
        Ok(())
    }

    /// Reads the `idx`th descriptor of the table whose base is `table`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    pub fn read_pte(&self, table: PhysAddr, idx: usize) -> Result<Pte, BusError> {
        debug_assert!(idx < 512);
        Ok(Pte(self.read_u64(table.wrapping_add(8 * idx as u64))?))
    }

    /// Reads all 512 descriptors of the table page whose base is `table`
    /// in one access: one region check, one lock acquire, one page lookup
    /// and one 4 KiB copy instead of 512 of each. An unbacked page reads
    /// as all-zero descriptors, matching [`PhysMem::read_u64`]'s
    /// zero-fill semantics. The page-table interpreter leans on this:
    /// abstracting a table level touches every descriptor, and the
    /// per-descriptor bookkeeping dominates the walk otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for table bases outside every region.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not page aligned (table bases always are).
    pub fn read_table(&self, table: PhysAddr) -> Result<Box<[Pte; 512]>, BusError> {
        assert!(table.is_page_aligned(), "misaligned table base {table}");
        self.note_access(table, false)?;
        let mut out = Box::new([Pte(0); 512]);
        let pages = self.pages.read();
        if let Some(page) = pages.get(&table.pfn()) {
            for (i, chunk) in page.chunks_exact(8).enumerate() {
                out[i] = Pte(u64::from_le_bytes(chunk.try_into().unwrap()));
            }
        }
        Ok(out)
    }

    /// Writes the `idx`th descriptor of the table whose base is `table`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    pub fn write_pte(&self, table: PhysAddr, idx: usize, pte: Pte) -> Result<(), BusError> {
        debug_assert!(idx < 512);
        self.write_u64(table.wrapping_add(8 * idx as u64), pte.bits())
    }
}

impl core::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PhysMem")
            .field("regions", &self.regions)
            .field("backed_pages", &self.backed_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMem {
        PhysMem::new(vec![
            MemRegion::ram(0x4000_0000, 0x100_0000),
            MemRegion::mmio(0x900_0000, 0x1_0000),
        ])
    }

    #[test]
    fn zero_fill_on_first_read() {
        let m = mem();
        assert_eq!(m.read_u64(PhysAddr::new(0x4000_0000)).unwrap(), 0);
        assert_eq!(m.backed_pages(), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let m = mem();
        m.write_u64(PhysAddr::new(0x4000_0008), 0xdead_beef_cafe_f00d)
            .unwrap();
        assert_eq!(
            m.read_u64(PhysAddr::new(0x4000_0008)).unwrap(),
            0xdead_beef_cafe_f00d
        );
        assert_eq!(m.read_u64(PhysAddr::new(0x4000_0000)).unwrap(), 0);
        assert_eq!(m.backed_pages(), 1);
    }

    #[test]
    fn bus_error_outside_regions() {
        let m = mem();
        assert!(m.read_u64(PhysAddr::new(0x1000)).is_err());
        assert!(m.write_u64(PhysAddr::new(0x2_0000_0000), 1).is_err());
    }

    #[test]
    fn mmio_accesses_are_counted() {
        let m = mem();
        assert_eq!(m.mmio_writes(), 0);
        m.write_u64(PhysAddr::new(0x900_0000), 7).unwrap();
        m.read_u64(PhysAddr::new(0x900_0008)).unwrap();
        assert_eq!(m.mmio_writes(), 1);
        assert_eq!(m.mmio_reads(), 1);
    }

    #[test]
    fn zero_page_clears_contents() {
        let m = mem();
        let pa = PhysAddr::new(0x4000_2000);
        m.write_u64(pa, 42).unwrap();
        m.zero_page(pa.wrapping_add(0x10)).unwrap();
        assert_eq!(m.read_u64(pa).unwrap(), 0);
    }

    #[test]
    fn bytes_roundtrip_across_page_boundary() {
        let m = mem();
        let pa = PhysAddr::new(0x4000_0ff8);
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
        m.write_bytes(pa, &data).unwrap();
        let mut back = [0u8; 16];
        m.read_bytes(pa, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(m.backed_pages(), 2);
    }

    #[test]
    fn pte_accessors() {
        let m = mem();
        let table = PhysAddr::new(0x4001_0000);
        m.write_pte(table, 5, Pte(0x123)).unwrap();
        assert_eq!(m.read_pte(table, 5).unwrap().bits(), 0x123);
        assert_eq!(m.read_pte(table, 4).unwrap().bits(), 0);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_regions_rejected() {
        let _ = PhysMem::new(vec![
            MemRegion::ram(0x1000, 0x2000),
            MemRegion::ram(0x2000, 0x2000),
        ]);
    }

    #[test]
    fn write_log_disabled_by_default_and_answers_none() {
        let m = mem();
        m.write_u64(PhysAddr::new(0x4000_0000), 1).unwrap();
        assert!(!m.write_log().enabled());
        assert!(m.write_log().is_empty());
        assert_eq!(m.write_log().dirty_since(0), None);
    }

    #[test]
    fn write_log_records_each_written_page_once_per_generation() {
        let m = mem();
        m.write_log().set_enabled(true);
        let snap = m.write_log().snapshot_generation();
        // Two writes to the same page, one to another; reads don't count.
        m.write_u64(PhysAddr::new(0x4000_0000), 1).unwrap();
        m.write_u64(PhysAddr::new(0x4000_0008), 2).unwrap();
        m.write_u64(PhysAddr::new(0x4000_1000), 3).unwrap();
        m.read_u64(PhysAddr::new(0x4000_2000)).unwrap();
        let dirty = m.write_log().dirty_since(snap).unwrap();
        assert_eq!(
            dirty.keys().copied().collect::<Vec<_>>(),
            vec![0x40000, 0x40001]
        );
        assert_eq!(dirty[&0x40000].indices(), Some(&[0u16, 1][..]));
        assert_eq!(m.write_log().len(), 2, "same-page writes deduplicated");
    }

    #[test]
    fn write_pte_records_its_descriptor_index() {
        let m = mem();
        m.write_log().set_enabled(true);
        let snap = m.write_log().snapshot_generation();
        let table = PhysAddr::new(0x4001_0000);
        m.write_pte(table, 511, Pte(1)).unwrap();
        m.write_pte(table, 7, Pte(1)).unwrap();
        m.write_pte(table, 511, Pte(3)).unwrap();
        let dirty = m.write_log().dirty_since(snap).unwrap();
        assert_eq!(dirty[&table.pfn()].indices(), Some(&[511u16, 7][..]));
        assert!(!dirty[&table.pfn()].is_whole());
    }

    #[test]
    fn a_fifth_distinct_index_marks_the_whole_page() {
        let m = mem();
        m.write_log().set_enabled(true);
        let snap = m.write_log().snapshot_generation();
        let table = PhysAddr::new(0x4001_0000);
        for idx in 0..DirtyDescs::MAX {
            m.write_pte(table, idx, Pte(1)).unwrap();
        }
        // Rewriting a tracked index keeps the page descriptor-granular...
        m.write_pte(table, 0, Pte(2)).unwrap();
        let dirty = m.write_log().dirty_since(snap).unwrap();
        assert_eq!(dirty[&table.pfn()].indices().map(<[u16]>::len), Some(4));
        // ...a fifth distinct one does not.
        m.write_pte(table, 100, Pte(1)).unwrap();
        let dirty = m.write_log().dirty_since(snap).unwrap();
        assert!(dirty[&table.pfn()].is_whole());
        assert_eq!(m.write_log().len(), 1);
    }

    #[test]
    fn generations_merge_into_one_answer_per_page() {
        let m = mem();
        m.write_log().set_enabled(true);
        let table = PhysAddr::new(0x4001_0000);
        let snap = m.write_log().snapshot_generation();
        m.write_pte(table, 1, Pte(1)).unwrap();
        m.write_log().snapshot_generation();
        m.write_pte(table, 2, Pte(1)).unwrap();
        m.write_pte(table, 1, Pte(2)).unwrap();
        // One entry per page per generation...
        assert_eq!(m.write_log().len(), 2);
        // ...and one merged answer per page.
        let dirty = m.write_log().dirty_since(snap).unwrap();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[&table.pfn()].indices(), Some(&[1u16, 2][..]));
        // Descriptor sets union into the whole page past the cap.
        let mut d = DirtyDescs::one(1);
        d.union(DirtyDescs::WHOLE);
        assert!(d.is_whole());
        d.insert(3);
        assert!(d.is_whole());
    }

    #[test]
    fn snapshot_bumps_the_generation_and_resets_dedup() {
        let m = mem();
        m.write_log().set_enabled(true);
        let g1 = m.write_log().snapshot_generation();
        m.write_u64(PhysAddr::new(0x4000_0000), 1).unwrap();
        let g2 = m.write_log().snapshot_generation();
        assert!(g2 > g1);
        // The same page dirtied again lands in the *new* generation.
        m.write_u64(PhysAddr::new(0x4000_0000), 2).unwrap();
        assert_eq!(m.write_log().dirty_since(g2).unwrap().len(), 1);
        // And the older snapshot still sees both generations' entries.
        assert_eq!(m.write_log().dirty_since(g1).unwrap().len(), 1);
        assert_eq!(m.write_log().len(), 2);
    }

    #[test]
    fn write_log_covers_byte_writes_and_page_zeroing() {
        let m = mem();
        m.write_log().set_enabled(true);
        let snap = m.write_log().snapshot_generation();
        // A byte write straddling a page boundary dirties both pages.
        m.write_bytes(PhysAddr::new(0x4000_0ffc), &[0xff; 8])
            .unwrap();
        m.write_pte(PhysAddr::new(0x4000_3000), 4, Pte(1)).unwrap();
        m.zero_page(PhysAddr::new(0x4000_3000)).unwrap();
        let dirty = m.write_log().dirty_since(snap).unwrap();
        // Neither kind of write names descriptors: each marks its pages
        // whole, even over an earlier descriptor write.
        assert!(dirty[&0x40000].is_whole());
        assert!(dirty[&0x40001].is_whole());
        assert!(dirty[&0x40003].is_whole());
    }

    #[test]
    fn disabling_clears_the_log_and_invalidates_old_snapshots() {
        let m = mem();
        m.write_log().set_enabled(true);
        let snap = m.write_log().snapshot_generation();
        m.write_u64(PhysAddr::new(0x4000_0000), 1).unwrap();
        m.write_log().set_enabled(false);
        m.write_log().set_enabled(true);
        // The old snapshot predates the gap in coverage: no answer.
        assert_eq!(m.write_log().dirty_since(snap), None);
        // A fresh snapshot works again.
        let snap2 = m.write_log().snapshot_generation();
        m.write_u64(PhysAddr::new(0x4000_1000), 1).unwrap();
        assert_eq!(m.write_log().dirty_since(snap2).unwrap().len(), 1);
    }

    #[test]
    fn overflow_trims_oldest_entries_and_reports_unanswerable() {
        let m = mem();
        m.write_log().set_enabled(true);
        let snap = m.write_log().snapshot_generation();
        // One distinct page per generation, enough to overflow the cap.
        for i in 0..(WRITE_LOG_CAP as u64 + 2) {
            m.write_log().snapshot_generation();
            m.write_u64(PhysAddr::new(0x4000_0000 + (i % 0x1000) * 0x1000), i)
                .unwrap();
        }
        assert!(m.write_log().len() <= WRITE_LOG_CAP);
        // The trimmed-away snapshot cannot be answered...
        assert_eq!(m.write_log().dirty_since(snap), None);
        // ...but a current one can.
        let snap2 = m.write_log().snapshot_generation();
        m.write_u64(PhysAddr::new(0x4000_5000), 9).unwrap();
        assert_eq!(m.write_log().dirty_since(snap2).unwrap().len(), 1);
    }
}
