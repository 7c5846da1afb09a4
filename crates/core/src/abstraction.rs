//! Abstraction functions: interpreting concrete state into ghost state.
//!
//! The central one is [`interpret_pgtable`] (Fig. 2 of the paper): a
//! complete traversal of an in-memory Arm-format translation table,
//! incrementally constructing a finite range map with the coalescing
//! `extend` operation. Unlike the hardware walk and the implementation's
//! walker — which visit a specific input range — this interprets the
//! whole tree, because the ghost state is the table's full extension.
//!
//! On top of it sit the per-component abstraction functions that the
//! recording machinery invokes at lock boundaries: [`abstract_hyp`],
//! [`abstract_host`] (with its legality check of the loosely-specified
//! mapped-on-demand region), and [`abstract_vm`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pkvm_aarch64::addr::{level_pages, PhysAddr, PAGE_SIZE, PTES_PER_TABLE, START_LEVEL};
use pkvm_aarch64::attrs::{MemType, Perms, Stage};
use pkvm_aarch64::desc::{EntryKind, Pte};
use pkvm_aarch64::memory::PhysMem;
use pkvm_hyp::hooks::VmView;
use pkvm_hyp::owner::{annotation_owner, OwnerId, PageState};

use crate::maplet::{AbsAttrs, Maplet, MapletTarget};
use crate::mapping::{push_coalesced, Mapping};
use crate::state::{AbstractPgtable, GhostGlobals, GhostHost, GhostPkvm, GhostVcpu, GhostVm};

/// Something in the concrete state that no well-formed hypervisor state
/// should contain; reported by the abstraction functions and turned into
/// oracle violations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Anomaly {
    /// A reserved descriptor encoding at (table, index, level).
    ReservedDescriptor {
        /// Table node holding the descriptor.
        table: u64,
        /// Index within the node.
        index: usize,
        /// Level of the node.
        level: u8,
    },
    /// A mapped descriptor whose software bits decode to no legal page
    /// state.
    IllegalPageState {
        /// Input address of the range.
        ia: u64,
    },
    /// A host-owned mapping that is not an identity mapping.
    HostNotIdentity {
        /// Input address.
        ia: u64,
        /// Output address found.
        oa: u64,
    },
    /// A host-owned mapping outside every memory region.
    HostOutsideMemory {
        /// Input address.
        ia: u64,
    },
    /// A host mapping of device space that is not device-typed RW.
    HostBadDeviceAttrs {
        /// Input address.
        ia: u64,
    },
    /// A translation-table fetch left simulated memory (corrupt table).
    TableOutsideMemory {
        /// The table address that could not be read.
        table: u64,
    },
}

/// Where each table node sits in the tree: `pfn -> (level, ia base of the
/// node's span)`. Collected alongside interpretation so the incremental
/// abstraction cache (`abscache`) can map a dirtied table page back to the
/// subtree it roots.
pub type TableMeta = BTreeMap<u64, (u8, u64)>;

/// Pages spanned by one whole table node at `level` (512 entries).
pub fn table_span_pages(level: u8) -> u64 {
    PTES_PER_TABLE * level_pages(level)
}

/// Interprets the concrete page table rooted at `root` into an abstract
/// page table: the `_interpret_pgtable` of Fig. 2, specialised (as in the
/// paper) to the 4-level, 4 KiB-granule configuration Android uses.
pub fn interpret_pgtable(
    mem: &PhysMem,
    stage: Stage,
    root: PhysAddr,
    anomalies: &mut Vec<Anomaly>,
) -> AbstractPgtable {
    let mut out = Walk::default();
    interpret_table(mem, stage, root, START_LEVEL, 0, &mut out, anomalies);
    out.finish()
}

/// [`interpret_pgtable`], additionally returning the per-node
/// [`TableMeta`] the incremental cache keys its invalidation on.
pub fn interpret_pgtable_with_meta(
    mem: &PhysMem,
    stage: Stage,
    root: PhysAddr,
    anomalies: &mut Vec<Anomaly>,
) -> (AbstractPgtable, TableMeta) {
    let mut meta = TableMeta::new();
    let out = interpret_subtree(mem, stage, root, START_LEVEL, 0, &mut meta, anomalies);
    (out, meta)
}

/// One interpretation under construction: maplets in a plain vector,
/// coalesced as the in-order traversal appends them and wrapped into a
/// [`Mapping`] once at the end, plus the table-node footprint and, for
/// the incremental cache, the node locations.
#[derive(Default)]
struct Walk<'a> {
    maplets: Vec<Maplet>,
    table_pages: BTreeSet<u64>,
    meta: Option<&'a mut TableMeta>,
}

impl Walk<'_> {
    fn finish(self) -> AbstractPgtable {
        AbstractPgtable {
            mapping: Mapping::from_canonical(self.maplets),
            table_pages: Arc::new(self.table_pages),
        }
    }
}

/// Interprets the subtree rooted at the table node `table`, which sits at
/// `level` and maps input addresses from `ia_base`. The root call is
/// `interpret_subtree(mem, stage, root, START_LEVEL, 0, ..)`; the
/// incremental cache re-enters at interior nodes it knows were dirtied.
pub fn interpret_subtree(
    mem: &PhysMem,
    stage: Stage,
    table: PhysAddr,
    level: u8,
    ia_base: u64,
    meta: &mut TableMeta,
    anomalies: &mut Vec<Anomaly>,
) -> AbstractPgtable {
    let mut out = Walk {
        meta: Some(meta),
        ..Walk::default()
    };
    interpret_table(mem, stage, table, level, ia_base, &mut out, anomalies);
    out.finish()
}

/// Re-interprets the single descriptor `idx` of the table node `table`,
/// which sits at `level` and maps input addresses from `ia_base`: the
/// descriptor's own maplet, or the whole subtree it links. The
/// incremental cache replays exactly the descriptors the write log names,
/// and splices each result over the descriptor's span
/// ([`level_pages`]`(level)` pages from `ia_base + idx * level_size`).
#[expect(clippy::too_many_arguments)]
pub(crate) fn interpret_descriptor(
    mem: &PhysMem,
    stage: Stage,
    table: PhysAddr,
    level: u8,
    ia_base: u64,
    idx: usize,
    meta: &mut TableMeta,
    anomalies: &mut Vec<Anomaly>,
) -> AbstractPgtable {
    let mut out = Walk {
        meta: Some(meta),
        ..Walk::default()
    };
    match mem.read_pte(table, idx) {
        Ok(pte) => {
            let ia = ia_base | (idx as u64 * level_pages(level) * PAGE_SIZE);
            interpret_desc(mem, stage, table, level, idx, pte, ia, &mut out, anomalies);
        }
        Err(_) => anomalies.push(Anomaly::TableOutsideMemory {
            table: table.bits(),
        }),
    }
    out.finish()
}

fn interpret_table(
    mem: &PhysMem,
    stage: Stage,
    table: PhysAddr,
    level: u8,
    va_partial: u64,
    out: &mut Walk,
    anomalies: &mut Vec<Anomaly>,
) {
    out.table_pages.insert(table.pfn());
    if let Some(meta) = out.meta.as_deref_mut() {
        meta.insert(table.pfn(), (level, va_partial));
    }
    let nr_pages = level_pages(level);
    // Read the whole table page at once into this frame's buffer: the
    // walk touches every descriptor anyway, and a single bulk access
    // avoids paying the region check and page lookup 512 times per table
    // (and a heap buffer per node).
    let mut ptes = [Pte(0); PTES_PER_TABLE as usize];
    if mem.read_table_into(table, &mut ptes).is_err() {
        anomalies.push(Anomaly::TableOutsideMemory {
            table: table.bits(),
        });
        return;
    }
    // Iterate over the current table entries. All-zero entries denote
    // nothing (most of a table's 512), so they are skipped undecoded.
    for (idx, &pte) in ptes.iter().enumerate() {
        if pte.bits() == 0 {
            continue;
        }
        // Compute the input address mapped by this entry.
        let va_offset_in_region = idx as u64 * nr_pages * PAGE_SIZE;
        let va_partial_new = va_partial | va_offset_in_region;
        interpret_desc(
            mem,
            stage,
            table,
            level,
            idx,
            pte,
            va_partial_new,
            out,
            anomalies,
        );
    }
}

/// Interprets one descriptor `pte` (index `idx` of `table`, mapping from
/// `ia`) into `out`. Always inlined: the full walk calls it for every
/// non-zero descriptor of a table node, and an out-of-line call there
/// costs more than the decode itself.
#[inline(always)]
#[expect(clippy::too_many_arguments)]
fn interpret_desc(
    mem: &PhysMem,
    stage: Stage,
    table: PhysAddr,
    level: u8,
    idx: usize,
    pte: Pte,
    ia: u64,
    out: &mut Walk,
    anomalies: &mut Vec<Anomaly>,
) {
    let nr_pages = level_pages(level);
    match pte.kind(level) {
        EntryKind::Invalid => {
            // Invalid entries may carry a software owner annotation;
            // all-zero entries denote nothing and are skipped.
            if pte.bits() != 0 {
                let owner = annotation_owner(pte);
                push_coalesced(
                    &mut out.maplets,
                    Maplet {
                        ia,
                        nr_pages,
                        target: MapletTarget::Annotated { owner },
                    },
                );
            }
        }
        EntryKind::Table => {
            interpret_table(mem, stage, pte.table_addr(), level + 1, ia, out, anomalies);
        }
        EntryKind::Block | EntryKind::Page => {
            // Compute output address and attributes, then extend the
            // mapping with a maplet, coalescing if possible.
            let oa = pte.leaf_oa(level);
            let attrs = pte.leaf_attrs(stage);
            let state = PageState::from_sw(attrs.sw);
            if state.is_none() {
                anomalies.push(Anomaly::IllegalPageState { ia });
            }
            push_coalesced(
                &mut out.maplets,
                Maplet {
                    ia,
                    nr_pages,
                    target: MapletTarget::Mapped {
                        oa: oa.bits(),
                        attrs: AbsAttrs {
                            perms: attrs.perms,
                            memtype: attrs.memtype,
                            state,
                        },
                    },
                },
            );
        }
        EntryKind::Reserved => {
            anomalies.push(Anomaly::ReservedDescriptor {
                table: table.bits(),
                index: idx,
                level,
            });
        }
    }
}

/// Abstraction of pKVM's own stage 1: the full extensional mapping.
pub fn abstract_hyp(mem: &PhysMem, root: PhysAddr, anomalies: &mut Vec<Anomaly>) -> GhostPkvm {
    GhostPkvm {
        pgt: interpret_pgtable(mem, Stage::Stage1, root, anomalies),
    }
}

/// Abstraction of the host's stage 2.
///
/// Splits the interpretation into the two deterministic sub-maps the ghost
/// tracks (annotations; shared/borrowed pages) and *checks* — rather than
/// records — the loosely-specified mapped-on-demand remainder: every plain
/// host-owned mapping must be an identity mapping of real memory with the
/// attributes the on-demand path installs.
pub fn abstract_host(
    mem: &PhysMem,
    root: PhysAddr,
    globals: &GhostGlobals,
    anomalies: &mut Vec<Anomaly>,
) -> GhostHost {
    let interp = interpret_pgtable(mem, Stage::Stage2, root, anomalies);
    partition_host(interp.mapping.iter().copied(), globals, anomalies).into_host(interp)
}

/// The two deterministic sub-maps of the host stage 2 the ghost tracks.
/// The mapped-on-demand legality checks are part of deriving them
/// ([`partition_host`]), not of the partition itself: they rerun whenever
/// the interpretation they read changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct HostPartition {
    /// Pages owned by pKVM or a guest (invalid-descriptor annotations).
    pub(crate) annot: Mapping,
    /// Pages owned-and-shared by the host, or borrowed by it.
    pub(crate) shared: Mapping,
}

impl HostPartition {
    /// The host's ghost component: this partition of `interp`, plus its
    /// table-node footprint.
    pub(crate) fn into_host(self, interp: AbstractPgtable) -> GhostHost {
        GhostHost {
            annot: self.annot,
            shared: self.shared,
            table_pages: interp.table_pages,
        }
    }
}

/// Partitions `maplets` (ascending, as a [`Mapping`] yields them — or a
/// clipped window of one) into the host's tracked sub-maps, and *checks*
/// the loosely-specified mapped-on-demand remainder: every plain
/// host-owned mapping must be an identity mapping of real memory with the
/// attributes the on-demand path installs. Every check is per page, so
/// a window of the interpretation is anomaly-free exactly when each of
/// its pages is.
pub(crate) fn partition_host(
    maplets: impl IntoIterator<Item = Maplet>,
    globals: &GhostGlobals,
    anomalies: &mut Vec<Anomaly>,
) -> HostPartition {
    let (mut annot, mut shared) = (Vec::new(), Vec::new());
    for m in maplets {
        match m.target {
            MapletTarget::Annotated { owner } => {
                if owner != OwnerId::HOST {
                    push_coalesced(&mut annot, m);
                }
                // A zero-owner annotation never reaches here (zero PTEs are
                // skipped during interpretation), but annotated-host would
                // be equivalent to unmapped and is ignored.
            }
            MapletTarget::Mapped { oa, attrs } => match attrs.state {
                Some(PageState::SharedOwned) | Some(PageState::SharedBorrowed) => {
                    push_coalesced(&mut shared, m);
                }
                _ => {
                    // The loose region: check legality page-range-wise.
                    if oa != m.ia {
                        anomalies.push(Anomaly::HostNotIdentity { ia: m.ia, oa });
                    }
                    for i in 0..m.nr_pages {
                        let pa = oa + i * PAGE_SIZE;
                        if globals.is_ram(pa) {
                            continue;
                        }
                        if globals.is_mmio(pa) {
                            if attrs.memtype != MemType::Device || attrs.perms != Perms::RW {
                                anomalies.push(Anomaly::HostBadDeviceAttrs {
                                    ia: m.ia + i * PAGE_SIZE,
                                });
                            }
                        } else {
                            anomalies.push(Anomaly::HostOutsideMemory {
                                ia: m.ia + i * PAGE_SIZE,
                            });
                        }
                    }
                }
            },
        }
    }
    HostPartition {
        annot: Mapping::from_canonical(annot),
        shared: Mapping::from_canonical(shared),
    }
}

/// Abstraction of one VM's lock-protected metadata, from the concrete
/// view exposed at its lock.
pub fn abstract_vm(mem: &PhysMem, view: &VmView, anomalies: &mut Vec<Anomaly>) -> GhostVm {
    let pgt = interpret_pgtable(mem, Stage::Stage2, view.s2_root, anomalies);
    abstract_vm_with_pgt(view, pgt)
}

/// The metadata half of [`abstract_vm`], over an already-interpreted
/// stage 2 (possibly served by the incremental cache).
pub fn abstract_vm_with_pgt(view: &VmView, pgt: AbstractPgtable) -> GhostVm {
    GhostVm {
        handle: view.handle,
        slot: view.slot,
        protected: view.protected,
        pgt,
        donated: view.donated.iter().map(|p| p.pfn()).collect(),
        firmware: view.firmware.iter().map(|p| p.pfn()).collect(),
        vcpus: view
            .vcpus
            .iter()
            .map(|v| {
                if let Some(on) = v.loaded_on {
                    GhostVcpu::Loaded { on }
                } else if v.initialized {
                    GhostVcpu::Present {
                        regs: v.regs,
                        memcache: v.memcache_pages.iter().map(|p| p.pfn()).collect(),
                    }
                } else {
                    GhostVcpu::Uninit
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkvm_aarch64::attrs::Attrs;
    use pkvm_aarch64::memory::MemRegion;
    use pkvm_hyp::owner::annotation_pte;

    fn mem() -> PhysMem {
        PhysMem::new(vec![
            MemRegion::ram(0x4000_0000, 0x800_0000),
            MemRegion::mmio(0x900_0000, 0x1000),
        ])
    }

    fn globals() -> GhostGlobals {
        GhostGlobals {
            nr_cpus: 1,
            physvirt_offset: 0x8000_0000_0000,
            uart_va: 0,
            hyp_range: (0x44000, 1024),
            ram: vec![(0x4000_0000, 0x800_0000)],
            mmio: vec![(0x900_0000, 0x1000)],
        }
    }

    /// Builds a tiny concrete table by hand: a level-3 page, a level-2
    /// block, and a coarse annotation.
    fn build_table(mem: &PhysMem) -> PhysAddr {
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        mem.write_pte(root, 0, Pte::table(l1)).unwrap();
        mem.write_pte(l1, 1, Pte::table(l2)).unwrap();
        mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
        // Two adjacent pages with contiguous outputs: must coalesce.
        let attrs = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        mem.write_pte(
            l3,
            0,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4200_0000), attrs),
        )
        .unwrap();
        mem.write_pte(
            l3,
            1,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4200_1000), attrs),
        )
        .unwrap();
        // A 2 MiB block further along.
        mem.write_pte(
            l2,
            5,
            Pte::leaf(Stage::Stage2, 2, PhysAddr::new(0x4420_0000), attrs),
        )
        .unwrap();
        // An annotated (hyp-owned) 2 MiB region.
        mem.write_pte(l2, 7, annotation_pte(OwnerId::HYP)).unwrap();
        root
    }

    #[test]
    fn interpret_coalesces_and_counts_footprint() {
        let mem = mem();
        let root = build_table(&mem);
        let mut anomalies = Vec::new();
        let abs = interpret_pgtable(&mem, Stage::Stage2, root, &mut anomalies);
        assert!(anomalies.is_empty(), "{anomalies:?}");
        // Footprint: root, l1, l2, l3.
        assert_eq!(abs.table_pages.len(), 4);
        // Maplets: coalesced 2-page run, the block, the annotation.
        assert_eq!(abs.mapping.len(), 3);
        assert_eq!(abs.mapping.nr_pages(), 2 + 512 + 512);
        // IA of the block: index 1 at level 1 (1 GiB) + index 5 at level 2.
        let block_ia = (1u64 << 30) + 5 * (2 << 20);
        assert_eq!(
            abs.mapping.lookup(block_ia),
            Some(MapletTarget::Mapped {
                oa: 0x4420_0000,
                attrs: AbsAttrs {
                    perms: Perms::RWX,
                    memtype: MemType::Normal,
                    state: Some(PageState::Owned)
                }
            })
        );
        let annot_ia = (1u64 << 30) + 7 * (2 << 20);
        assert_eq!(
            abs.mapping.lookup(annot_ia),
            Some(MapletTarget::Annotated {
                owner: OwnerId::HYP
            })
        );
    }

    #[test]
    fn walk_matches_descriptor_by_descriptor_decoding() {
        let mem = mem();
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        mem.write_pte(root, 0, Pte::table(l1)).unwrap();
        mem.write_pte(l1, 1, Pte::table(l2)).unwrap();
        mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
        let owned = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        let illegal = Attrs::normal(Perms::RWX).with_sw(3);
        let page = |oa: u64, attrs| Pte::leaf(Stage::Stage2, 3, PhysAddr::new(oa), attrs);
        let l3_ptes = vec![
            // Three contiguous pages, then a jump in the output address.
            page(0x4200_0000, owned),
            page(0x4200_1000, owned),
            page(0x4200_2000, owned),
            page(0x4200_9000, owned),
            // Pages whose state is illegal: one anomaly per page.
            page(0x4201_0000, illegal),
            page(0x4201_1000, illegal),
            page(0x4201_2000, illegal),
            // Annotations: two of one owner, then another owner.
            annotation_pte(OwnerId::HYP),
            annotation_pte(OwnerId::HYP),
            annotation_pte(OwnerId::guest(0)),
            // Contiguous output across a hole is not contiguous input.
            page(0x4202_0000, owned),
            Pte(0),
            page(0x4202_2000, owned),
            // Different attributes do not coalesce.
            page(0x4202_3000, Attrs::normal(Perms::RW)),
        ];
        for (i, &pte) in l3_ptes.iter().enumerate() {
            mem.write_pte(l3, i, pte).unwrap();
        }
        // Three contiguous 2 MiB blocks at level 2.
        for (i, oa) in [(5, 0x4420_0000u64), (6, 0x4440_0000), (7, 0x4460_0000)] {
            let block = Pte::leaf(Stage::Stage2, 2, PhysAddr::new(oa), owned);
            mem.write_pte(l2, i, block).unwrap();
        }
        let mut anomalies = Vec::new();
        let walked = interpret_pgtable(&mem, Stage::Stage2, root, &mut anomalies);

        // Reference: every leaf and annotation decoded on its own, then
        // inserted into a mapping (which coalesces).
        let mut expected = Vec::new();
        let mut expected_anomalies = Vec::new();
        for (table, level, ia_base) in [(l3, 3, 1u64 << 30), (l2, 2, 1 << 30)] {
            for idx in 0..512 {
                let pte = mem.read_pte(table, idx).unwrap();
                if pte.bits() == 0 || pte.kind(level) == EntryKind::Table {
                    continue;
                }
                let one = interpret_descriptor(
                    &mem,
                    Stage::Stage2,
                    table,
                    level,
                    ia_base,
                    idx,
                    &mut TableMeta::new(),
                    &mut expected_anomalies,
                );
                expected.extend(one.mapping.iter().copied());
            }
        }
        let expected: Mapping = expected.into_iter().collect();
        assert_eq!(walked.mapping, expected);
        assert_eq!(anomalies, expected_anomalies);
        assert_eq!(anomalies.len(), 3, "{anomalies:?}");
        // Coalesced: 3 pages, the jump, the illegal pages, the HYP
        // annotations, the guest page, two pages split by the hole, the
        // RW page, and the blocks.
        assert_eq!(walked.mapping.len(), 9, "{:?}", walked.mapping);
    }

    #[test]
    fn interpret_flags_reserved_descriptors() {
        let mem = mem();
        let root = PhysAddr::new(0x4400_0000);
        mem.write_pte(root, 3, Pte(0b01)).unwrap(); // block at level 0: reserved
        let mut anomalies = Vec::new();
        interpret_pgtable(&mem, Stage::Stage2, root, &mut anomalies);
        assert!(matches!(
            anomalies[0],
            Anomaly::ReservedDescriptor {
                index: 3,
                level: 0,
                ..
            }
        ));
    }

    #[test]
    fn abstract_host_partitions_and_checks() {
        let mem = mem();
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        mem.write_pte(root, 1, Pte::table(l1)).unwrap();
        mem.write_pte(l1, 0, Pte::table(l2)).unwrap();
        mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
        let base = 1u64 << 39; // ia of root index 1
                               // Identity owned mapping (legal, untracked).
        let owned = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        // Careful: identity means oa == ia, but `base` is outside RAM; use
        // a RAM address through root index 0 instead. Simpler: shared page.
        let shared = Attrs::normal(Perms::RWX).with_sw(PageState::SharedOwned.to_sw());
        mem.write_pte(
            l3,
            0,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4200_0000), shared),
        )
        .unwrap();
        // Non-identity owned mapping: must be flagged.
        mem.write_pte(
            l3,
            1,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4200_5000), owned),
        )
        .unwrap();
        // Annotation for a guest.
        mem.write_pte(l3, 2, annotation_pte(OwnerId::guest(0)))
            .unwrap();
        let mut anomalies = Vec::new();
        let host = abstract_host(&mem, root, &globals(), &mut anomalies);
        assert_eq!(host.shared.nr_pages(), 1);
        assert_eq!(host.annot.nr_pages(), 1);
        assert_eq!(
            host.shared
                .lookup(base)
                .map(|t| matches!(t, MapletTarget::Mapped { .. })),
            Some(true)
        );
        assert!(
            anomalies
                .iter()
                .any(|a| matches!(a, Anomaly::HostNotIdentity { ia, .. } if *ia == base + 0x1000)),
            "{anomalies:?}"
        );
    }

    #[test]
    fn abstract_host_accepts_legal_identity_mappings() {
        let mem = mem();
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        // ia 0x4000_0000: root idx 0, l1 idx 1, l2 idx 0, l3 idx 0.
        mem.write_pte(root, 0, Pte::table(l1)).unwrap();
        mem.write_pte(l1, 1, Pte::table(l2)).unwrap();
        mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
        let owned = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        mem.write_pte(
            l3,
            0,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4000_0000), owned),
        )
        .unwrap();
        let mut anomalies = Vec::new();
        let host = abstract_host(&mem, root, &globals(), &mut anomalies);
        assert!(anomalies.is_empty(), "{anomalies:?}");
        // Legal owned mappings are deliberately not tracked.
        assert!(host.shared.is_empty() && host.annot.is_empty());
    }
}
