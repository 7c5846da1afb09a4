//! Property-based tests over the core data structures and invariants.
//!
//! Driven by the in-tree deterministic [`Rng`] (no external property
//! framework in the hermetic build): each property runs many randomized
//! cases from fixed seeds, so failures are reproducible from the seed
//! printed in the assertion message.
//!
//! - the abstract [`Mapping`] agrees with a naive per-page model under
//!   arbitrary insert/remove sequences, and stays canonical;
//! - descriptor encode/decode round-trips for every attribute combination;
//! - the implementation's map walker and the ghost's interpretation
//!   function agree: installing arbitrary page sets and reading them back
//!   through `interpret_pgtable` and through the hardware walk yield the
//!   same extension;
//! - the buddy allocator never double-allocates and conserves pages;
//! - arbitrary well-formed share/unshare interleavings stay clean under
//!   the oracle.

use std::collections::{BTreeMap, BTreeSet};

use pkvm_repro::aarch64::addr::PAGE_SIZE;
use pkvm_repro::aarch64::attrs::{Attrs, MemType, Perms, Stage};
use pkvm_repro::aarch64::desc::Pte;
use pkvm_repro::aarch64::memory::{MemRegion, PhysMem};
use pkvm_repro::aarch64::{walk as hw_walk, PhysAddr};
use pkvm_repro::ghost::maplet::{AbsAttrs, Maplet, MapletTarget};
use pkvm_repro::ghost::Mapping;
use pkvm_repro::harness::rng::Rng;
use pkvm_repro::hyp::owner::{OwnerId, PageState};
use pkvm_repro::hyp::pgtable::{
    kvm_pgtable_walk, KvmPgtable, MapWalker, PoolOps, SetOwnerWalker, WalkState,
};
use pkvm_repro::hyp::pool::HypPool;

// ------------------------------------------------------------ mapping --

#[derive(Clone, Debug)]
enum MapOp {
    InsertMapped {
        ia_page: u64,
        nr: u64,
        oa_page: u64,
        perms: u8,
    },
    InsertAnnot {
        ia_page: u64,
        nr: u64,
        owner: u8,
    },
    Remove {
        ia_page: u64,
        nr: u64,
    },
}

fn map_op(rng: &mut Rng) -> MapOp {
    match rng.gen_range(0..3u32) {
        0 => MapOp::InsertMapped {
            ia_page: rng.gen_range(0..64u64),
            nr: rng.gen_range(1..8u64),
            oa_page: rng.gen_range(0..64u64),
            perms: rng.gen_range(0..4u64) as u8,
        },
        1 => MapOp::InsertAnnot {
            ia_page: rng.gen_range(0..64u64),
            nr: rng.gen_range(1..8u64),
            owner: rng.gen_range(0..4u64) as u8,
        },
        _ => MapOp::Remove {
            ia_page: rng.gen_range(0..64u64),
            nr: rng.gen_range(1..8u64),
        },
    }
}

fn perms_of(p: u8) -> Perms {
    [Perms::RWX, Perms::RW, Perms::RX, Perms::R][p as usize % 4]
}

/// The coalescing range map has exactly the semantics of a per-page map.
#[test]
fn mapping_matches_per_page_model() {
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let nr_ops = rng.gen_range(1..60usize);
        let mut mapping = Mapping::new();
        let mut model: BTreeMap<u64, MapletTarget> = BTreeMap::new();
        for _ in 0..nr_ops {
            match map_op(&mut rng) {
                MapOp::InsertMapped {
                    ia_page,
                    nr,
                    oa_page,
                    perms,
                } => {
                    let attrs = AbsAttrs {
                        perms: perms_of(perms),
                        memtype: MemType::Normal,
                        state: Some(PageState::Owned),
                    };
                    mapping.insert(Maplet {
                        ia: ia_page * PAGE_SIZE,
                        nr_pages: nr,
                        target: MapletTarget::Mapped {
                            oa: oa_page * PAGE_SIZE,
                            attrs,
                        },
                    });
                    for i in 0..nr {
                        model.insert(
                            (ia_page + i) * PAGE_SIZE,
                            MapletTarget::Mapped {
                                oa: (oa_page + i) * PAGE_SIZE,
                                attrs,
                            },
                        );
                    }
                }
                MapOp::InsertAnnot { ia_page, nr, owner } => {
                    let owner = OwnerId(owner);
                    mapping.insert(Maplet {
                        ia: ia_page * PAGE_SIZE,
                        nr_pages: nr,
                        target: MapletTarget::Annotated { owner },
                    });
                    for i in 0..nr {
                        model.insert((ia_page + i) * PAGE_SIZE, MapletTarget::Annotated { owner });
                    }
                }
                MapOp::Remove { ia_page, nr } => {
                    mapping.remove(ia_page * PAGE_SIZE, nr);
                    for i in 0..nr {
                        model.remove(&((ia_page + i) * PAGE_SIZE));
                    }
                }
            }
            // Canonical-form invariant after every operation.
            mapping.check_canonical().unwrap();
        }
        // Pointwise agreement over the whole exercised window.
        for page in 0..80u64 {
            let ia = page * PAGE_SIZE;
            assert_eq!(
                mapping.lookup(ia),
                model.get(&ia).copied(),
                "seed {seed}, page {ia:#x}"
            );
        }
        assert_eq!(mapping.nr_pages(), model.len() as u64, "seed {seed}");
    }
}

/// A maplet over `nr` pages from `ia_page`, drawn from few owners and
/// output bases so that neighbours often coalesce.
fn small_maplet(rng: &mut Rng, ia_page: u64, nr: u64) -> Maplet {
    let target = if rng.gen_bool(0.3) {
        MapletTarget::Annotated {
            owner: OwnerId(rng.gen_range(1..3u64) as u8),
        }
    } else {
        MapletTarget::Mapped {
            oa: (ia_page + rng.gen_range(0..2u64) * 8) * PAGE_SIZE,
            attrs: AbsAttrs {
                perms: Perms::RWX,
                memtype: MemType::Normal,
                state: Some(PageState::Owned),
            },
        }
    };
    Maplet {
        ia: ia_page * PAGE_SIZE,
        nr_pages: nr,
        target,
    }
}

/// The reference semantics of [`Mapping::splice`]: remove the range,
/// then insert each replacement maplet.
fn splice_naive(m: &Mapping, ia: u64, nr: u64, rep: &[Maplet]) -> Mapping {
    let mut out = m.clone();
    out.remove(ia, nr);
    for r in rep {
        out.insert(*r);
    }
    out
}

/// The single-pass splice agrees with the naive reference over random
/// maps, ranges and canonical replacements, on shared (copying) and
/// unshared (in-place) storage alike, and never disturbs another holder
/// of shared storage.
#[test]
fn splice_matches_remove_then_insert() {
    for seed in 0..2000u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let mut m = Mapping::new();
        for _ in 0..rng.gen_range(0..12usize) {
            let ia = rng.gen_range(0..64u64);
            let nr = rng.gen_range(1..9u64);
            m.insert(small_maplet(&mut rng, ia, nr));
        }
        let ia = rng.gen_range(0..64u64);
        let nr = rng.gen_range(0..16u64);
        let mut rep = Mapping::new();
        if nr > 0 {
            for _ in 0..rng.gen_range(0..4usize) {
                let at = ia + rng.gen_range(0..nr);
                let len = rng.gen_range(1..ia + nr - at + 1);
                rep.insert(small_maplet(&mut rng, at, len));
            }
        }
        let rep: Vec<Maplet> = rep.iter().copied().collect();
        let expect = splice_naive(&m, ia * PAGE_SIZE, nr, &rep);
        let shared = m.clone();
        let before: Vec<Maplet> = m.iter().copied().collect();
        let mut unshared: Mapping = before.iter().copied().collect();
        m.splice(ia * PAGE_SIZE, nr, rep.iter().copied());
        unshared.splice(ia * PAGE_SIZE, nr, rep.iter().copied());
        assert_eq!(m, expect, "seed {seed}");
        assert_eq!(unshared, expect, "seed {seed}");
        assert!(shared.iter().copied().eq(before), "seed {seed}");
        m.check_canonical().unwrap();
    }
}

/// Two orders of building the same extension compare equal.
#[test]
fn mapping_equality_is_extensional() {
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let nr = rng.gen_range(1..24usize);
        let mut pages = BTreeSet::new();
        for _ in 0..nr {
            pages.insert(rng.gen_range(0..48u64));
        }
        let mut forward = Mapping::new();
        for &p in pages.iter() {
            forward.insert(Maplet {
                ia: p * PAGE_SIZE,
                nr_pages: 1,
                target: MapletTarget::Annotated {
                    owner: OwnerId::HYP,
                },
            });
        }
        let mut backward = Mapping::new();
        for &p in pages.iter().rev() {
            backward.insert(Maplet {
                ia: p * PAGE_SIZE,
                nr_pages: 1,
                target: MapletTarget::Annotated {
                    owner: OwnerId::HYP,
                },
            });
        }
        assert_eq!(&forward, &backward, "seed {seed}");
        assert!(forward.diff(&backward).is_empty(), "seed {seed}");
    }
}

// ------------------------------------------------------ descriptors --

/// Leaf descriptors round-trip for every stage/level/attribute combo.
#[test]
fn pte_leaf_roundtrip() {
    for seed in 0..256u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let stage = if rng.gen_bool(0.5) {
            Stage::Stage2
        } else {
            Stage::Stage1
        };
        let level = rng.gen_range(1..=3u64) as u8;
        let block_size = pkvm_repro::aarch64::addr::level_size(level);
        let oa = PhysAddr::new(rng.gen_range(0..512u64) * block_size);
        let (r, w, x) = (rng.gen_bool(0.5), rng.gen_bool(0.5), rng.gen_bool(0.5));
        let perms = if stage == Stage::Stage1 {
            // Stage 1 encodes no read-disable; r is architectural.
            Perms { r: true, w, x }
        } else {
            Perms { r, w, x }
        };
        let attrs = Attrs {
            perms,
            memtype: if rng.gen_bool(0.5) {
                MemType::Device
            } else {
                MemType::Normal
            },
            sw: rng.gen_range(0..3u64) as u8,
        };
        let pte = Pte::leaf(stage, level, oa, attrs);
        assert_eq!(pte.leaf_oa(level), oa, "seed {seed}");
        assert_eq!(pte.leaf_attrs(stage), attrs, "seed {seed}");
    }
}

/// Owner annotations round-trip.
#[test]
fn annotation_roundtrip() {
    for owner in 0u8..32 {
        let pte = pkvm_repro::hyp::owner::annotation_pte(OwnerId(owner));
        assert!(!pte.is_valid());
        assert_eq!(
            pkvm_repro::hyp::owner::annotation_owner(pte),
            OwnerId(owner)
        );
    }
}

// ------------------------------------ walker vs interpretation ------

/// Installing arbitrary page mappings through the implementation's
/// walker and interpreting the table with the ghost's abstraction
/// function recovers exactly the intended extension — and the
/// hardware walk agrees pointwise.
#[test]
fn walker_and_interpretation_agree() {
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let nr = rng.gen_range(1..32usize);
        let mut entries: BTreeMap<u64, (u64, bool)> = BTreeMap::new();
        for _ in 0..nr {
            entries.insert(
                rng.gen_range(0..96u64),
                (rng.gen_range(0..96u64), rng.gen_bool(0.5)),
            );
        }
        let mem = PhysMem::new(vec![MemRegion::ram(0x4000_0000, 0x800_0000)]);
        let mut pool = HypPool::new(PhysAddr::new(0x4400_0000), 2048);
        let root = pool.alloc_page().unwrap();
        mem.zero_page(root).unwrap();
        let pgt = KvmPgtable {
            root,
            stage: Stage::Stage2,
        };

        let ia_base = 0x4000_0000u64;
        let oa_base = 0x4100_0000u64;
        let mut expected = Mapping::new();
        for (&ia_page, &(oa_page, writable)) in &entries {
            let perms = if writable { Perms::RWX } else { Perms::RX };
            let attrs = Attrs {
                perms,
                memtype: MemType::Normal,
                sw: PageState::Owned.to_sw(),
            };
            let mut mm = PoolOps(&mut pool);
            let mut ws = WalkState::new(&mem, &mut mm);
            let mut w = MapWalker {
                stage: Stage::Stage2,
                phys_base: PhysAddr::new(oa_base + oa_page * PAGE_SIZE),
                ia_base: ia_base + ia_page * PAGE_SIZE,
                attrs,
                force_pages: true,
                corrupt_block_oa: false,
            };
            kvm_pgtable_walk(
                &pgt,
                &mut ws,
                ia_base + ia_page * PAGE_SIZE,
                PAGE_SIZE,
                &mut w,
            )
            .unwrap();
            expected.insert(Maplet {
                ia: ia_base + ia_page * PAGE_SIZE,
                nr_pages: 1,
                target: MapletTarget::Mapped {
                    oa: oa_base + oa_page * PAGE_SIZE,
                    attrs: AbsAttrs {
                        perms,
                        memtype: MemType::Normal,
                        state: Some(PageState::Owned),
                    },
                },
            });
        }

        // Ghost interpretation recovers the extension.
        let mut anomalies = Vec::new();
        let abs = pkvm_repro::ghost::interpret_pgtable(&mem, Stage::Stage2, root, &mut anomalies);
        assert!(anomalies.is_empty(), "seed {seed}: {anomalies:?}");
        assert_eq!(&abs.mapping, &expected, "seed {seed}");

        // The hardware walk agrees pointwise with the abstract mapping.
        for page in 0..100u64 {
            let ia = ia_base + page * PAGE_SIZE;
            let hw = hw_walk::walk(&mem, Stage::Stage2, root, ia)
                .ok()
                .map(|t| t.oa.bits());
            let abstract_oa = expected.lookup(ia).map(|t| match t {
                MapletTarget::Mapped { oa, .. } => oa,
                MapletTarget::Annotated { .. } => unreachable!(),
            });
            assert_eq!(hw, abstract_oa, "seed {seed}, ia {ia:#x}");
        }
    }
}

/// Unmapping (annotating) arbitrary sub-ranges of a block-mapped
/// region preserves the complement exactly.
#[test]
fn block_split_preserves_complement() {
    for seed in 0..16u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let nr = rng.gen_range(1..20usize);
        let mut holes = BTreeSet::new();
        for _ in 0..nr {
            holes.insert(rng.gen_range(0..512u64));
        }
        let mem = PhysMem::new(vec![MemRegion::ram(0x4000_0000, 0x800_0000)]);
        let mut pool = HypPool::new(PhysAddr::new(0x4400_0000), 2048);
        let root = pool.alloc_page().unwrap();
        mem.zero_page(root).unwrap();
        let pgt = KvmPgtable {
            root,
            stage: Stage::Stage2,
        };
        let base = 0x4020_0000u64; // one 2 MiB block
        let attrs = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        {
            let mut mm = PoolOps(&mut pool);
            let mut ws = WalkState::new(&mem, &mut mm);
            let mut w = MapWalker {
                stage: Stage::Stage2,
                phys_base: PhysAddr::new(base),
                ia_base: base,
                attrs,
                force_pages: false,
                corrupt_block_oa: false,
            };
            kvm_pgtable_walk(&pgt, &mut ws, base, 512 * PAGE_SIZE, &mut w).unwrap();
        }
        for &h in &holes {
            let mut mm = PoolOps(&mut pool);
            let mut ws = WalkState::new(&mem, &mut mm);
            let mut v = SetOwnerWalker {
                stage: Stage::Stage2,
                annotation: pkvm_repro::hyp::owner::annotation_pte(OwnerId::HYP),
            };
            kvm_pgtable_walk(&pgt, &mut ws, base + h * PAGE_SIZE, PAGE_SIZE, &mut v).unwrap();
        }
        for page in 0..512u64 {
            let ia = base + page * PAGE_SIZE;
            let tr = hw_walk::walk(&mem, Stage::Stage2, root, ia);
            if holes.contains(&page) {
                assert!(tr.is_err(), "seed {seed}: hole {ia:#x} still mapped");
            } else {
                assert_eq!(
                    tr.unwrap().oa,
                    PhysAddr::new(ia),
                    "seed {seed}: page {ia:#x} damaged"
                );
            }
        }
    }
}

// ------------------------------------------------------- allocator --

/// The buddy allocator conserves pages and never hands out
/// overlapping blocks.
#[test]
fn buddy_allocator_invariants() {
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let nr_ops = rng.gen_range(1..100usize);
        let mut pool = HypPool::new(PhysAddr::new(0x4400_0000), 512);
        let mut live: Vec<(PhysAddr, u8)> = Vec::new();
        for _ in 0..nr_ops {
            let order = rng.gen_range(0..4u64) as u8;
            let free_instead = rng.gen_bool(0.5);
            if free_instead && !live.is_empty() {
                let (pa, _) = live.swap_remove(0);
                pool.put_page(pa);
            } else if let Ok(pa) = pool.alloc_pages(order) {
                // No overlap with any live block.
                for &(other, oorder) in &live {
                    let a = (pa.pfn(), pa.pfn() + (1 << order));
                    let b = (other.pfn(), other.pfn() + (1 << oorder));
                    assert!(a.1 <= b.0 || b.1 <= a.0, "seed {seed}: overlap {a:?} {b:?}");
                }
                // Natural alignment.
                assert_eq!(pa.pfn() % (1 << order), 0, "seed {seed}");
                live.push((pa, order));
            }
            let live_pages: u64 = live.iter().map(|&(_, o)| 1u64 << o).sum();
            assert_eq!(pool.free_pages() + live_pages, 512, "seed {seed}");
        }
        for (pa, _) in live {
            pool.put_page(pa);
        }
        assert_eq!(pool.free_pages(), 512, "seed {seed}");
    }
}

// --------------------------------------------- oracle under randomness --

/// Abstract VM-lifecycle operations for the property below.
#[derive(Clone, Debug)]
enum VmOp {
    Load(usize),
    Put(usize),
    Topup(usize),
    MapGuest(usize),
    GuestWrite(usize),
}

fn vm_op(rng: &mut Rng) -> VmOp {
    let cpu = rng.gen_range(0..2usize);
    match rng.gen_range(0..5u32) {
        0 => VmOp::Load(cpu),
        1 => VmOp::Put(cpu),
        2 => VmOp::Topup(cpu),
        3 => VmOp::MapGuest(cpu),
        _ => VmOp::GuestWrite(cpu),
    }
}

/// Arbitrary VM-lifecycle interleavings over two CPUs: every call
/// either succeeds or fails with the model-predicted error, and the
/// oracle stays clean throughout.
#[test]
fn vm_lifecycle_sequences_stay_clean() {
    use pkvm_repro::harness::proxy::Proxy;
    use pkvm_repro::hyp::vm::GuestOp;
    for seed in 0..12u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let nr_ops = rng.gen_range(1..30usize);
        let p = Proxy::builder().boot();
        let h = p.init_vm(0, 1, true).unwrap();
        p.init_vcpu(0, h, 0).unwrap();
        // Model: which cpu (if any) holds the single vCPU, its memcache
        // estimate, and the next fresh gfn.
        let mut held: Option<usize> = None;
        let mut memcache = 0u64;
        let mut gfn = 0x10u64;
        for _ in 0..nr_ops {
            match vm_op(&mut rng) {
                VmOp::Load(cpu) => {
                    let r = p.vcpu_load(cpu, h, 0);
                    assert_eq!(r.is_ok(), held.is_none(), "seed {seed}: load on cpu{cpu}");
                    if r.is_ok() {
                        held = Some(cpu);
                    }
                }
                VmOp::Put(cpu) => {
                    let r = p.vcpu_put(cpu);
                    assert_eq!(r.is_ok(), held == Some(cpu), "seed {seed}");
                    if r.is_ok() {
                        held = None;
                    }
                }
                VmOp::Topup(cpu) => {
                    let r = p.topup(cpu, 4);
                    assert_eq!(r.is_ok(), held == Some(cpu), "seed {seed}");
                    if r.is_ok() {
                        memcache += 4;
                    }
                }
                VmOp::MapGuest(cpu) => {
                    let r = p.map_guest(cpu, gfn);
                    if held == Some(cpu) && memcache >= 3 {
                        assert!(r.is_ok(), "seed {seed}: map_guest: {r:?}");
                        gfn += 1;
                        memcache = memcache.saturating_sub(3);
                    } else if held != Some(cpu) {
                        assert!(r.is_err(), "seed {seed}");
                    } else if r.is_ok() {
                        // Fewer tables were needed than the conservative
                        // estimate; account for the page.
                        gfn += 1;
                    }
                }
                VmOp::GuestWrite(cpu) => {
                    if held == Some(cpu) && gfn > 0x10 {
                        p.push_guest_op(h, 0, GuestOp::Write(0x10 * PAGE_SIZE, 1))
                            .unwrap();
                        let exit = p.vcpu_run(cpu).unwrap();
                        assert_eq!(
                            exit,
                            pkvm_repro::hyp::hypercalls::exit::CONTINUE,
                            "seed {seed}"
                        );
                    }
                }
            }
        }
        assert!(p.all_clear(), "seed {seed}: {:?}", p.violations());
    }
}

/// The incremental abstraction is extensionally equal to the full walk:
/// randomized hypercall sequences run with shadow validation on, so every
/// lock event computes both — the interpretation and, for the host, the
/// memoised `annot`/`shared` partition — and any divergence is reported
/// as a [`ShadowDivergence`](pkvm_repro::prelude::Violation::ShadowDivergence)
/// violation, of which there must be none. The default and the Android op
/// mixes both run, long enough for VM churn and table growth, and the
/// cache must actually serve descriptor-granular replays (otherwise the
/// property is vacuous).
#[test]
fn incremental_abstraction_matches_full_walk() {
    use pkvm_repro::harness::android::android_weights;
    use pkvm_repro::harness::proxy::Proxy;
    use pkvm_repro::harness::random::{RandomCfg, RandomTester};
    use pkvm_repro::prelude::*;
    for android in [false, true] {
        for seed in [5u64, 11, 23, 42] {
            let proxy = Proxy::builder()
                .oracle_opts(OracleOpts::builder().shadow_validation(true).build())
                .boot();
            let mut cfg = RandomCfg::builder().seed(seed);
            if android {
                cfg = cfg.op_weights(android_weights());
            }
            let mut t = RandomTester::new(proxy, cfg.build());
            t.run(3000);
            let oracle = t.proxy.oracle.as_ref().expect("oracle installed");
            let divergences: Vec<_> = oracle
                .violations()
                .into_iter()
                .filter(|v| matches!(v, Violation::ShadowDivergence { .. }))
                .collect();
            let case = format!("seed {seed}, android {android}");
            assert!(divergences.is_empty(), "{case}:\n{divergences:#?}");
            assert!(t.proxy.all_clear(), "{case}: {:?}", t.proxy.violations());
            let stats = oracle.cache_stats();
            assert!(
                stats.clean_hits + stats.incremental > 0,
                "{case}: cache never served a request: {stats:?}"
            );
            assert!(
                stats.descriptors_replayed > 0,
                "{case}: no descriptor-granular replay: {stats:?}"
            );
        }
    }
}

/// Arbitrary well-formed share/unshare interleavings stay clean under
/// the oracle (a property-based slice of the random tester).
#[test]
fn share_sequences_stay_clean() {
    use pkvm_repro::harness::proxy::Proxy;
    for seed in 0..16u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let nr_ops = rng.gen_range(1..40usize);
        let p = Proxy::builder().boot();
        let base = p.alloc_pages(24);
        let mut shared = [false; 24];
        for _ in 0..nr_ops {
            let page = rng.gen_range(0..24u64);
            let do_share = rng.gen_bool(0.5);
            let pfn = base + page;
            if do_share {
                let r = p.share(0, pfn);
                assert_eq!(r.is_ok(), !shared[page as usize], "seed {seed}");
                shared[page as usize] = true;
            } else {
                let r = p.unshare(0, pfn);
                assert_eq!(r.is_ok(), shared[page as usize], "seed {seed}");
                shared[page as usize] = false;
            }
        }
        assert!(p.all_clear(), "seed {seed}: {:?}", p.violations());
    }
}
