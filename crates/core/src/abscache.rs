//! Incremental abstraction: caching page-table interpretations between
//! lock events and re-interpreting only the descriptors that were written.
//!
//! Full interpretation ([`crate::interpret_pgtable`]) walks the entire
//! tree at every lock acquisition *and* release — the dominant per-event
//! cost of the oracle (§4, Fig. 6 steps (2)–(5)) — even when the critical
//! section wrote a handful of PTEs. This module keeps, per component, the last
//! interpretation keyed by `(root, write-log generation)` plus the
//! [`TableMeta`] locating every table node, and on the next event:
//!
//! 1. asks the [`WriteLog`](pkvm_aarch64::memory::WriteLog) which pages
//!    — and which descriptors of them — were written since the cached
//!    snapshot;
//! 2. intersects them with the cached table footprint — writes to
//!    non-table pages cannot change the interpretation;
//! 3. re-decodes only the written descriptors (a descriptor that links a
//!    table brings its whole subtree), or the whole table node when the
//!    log marked the page written whole; keeps the shallowest replay
//!    roots when spans nest — on an equal span a descriptor beats the
//!    table node it links — and splices each delta over its span in the
//!    cached map ([`Mapping::splice`](crate::mapping::Mapping::splice));
//! 4. falls back to a full walk when the root moved, the log was trimmed,
//!    the dirty ratio is high, or a replayed descriptor reports an
//!    anomaly.
//!
//! The host entry also memoises the host's `annot`/`shared` partition
//! (`HostPartition`) of its interpretation, so one invalidation path
//! covers both: a clean hit reuses it, an incremental serve re-derives it
//! over the spliced spans only, and a full walk derives it afresh. Only
//! anomaly-free derivations are memoised; a span whose derivation finds
//! an anomaly falls back to the full derivation, so anomaly reports are
//! those of the non-incremental oracle.
//!
//! ## Why the dirty intersection is sound
//!
//! The cached snapshot generation is taken *before* the walk it
//! describes, so writes racing with that walk are re-reported next time
//! (the log over-approximates). A table node leaves or joins the tree
//! only by a write to the descriptor linking it in its (cached) parent
//! node. That descriptor's span is the node's span, so a stale footprint
//! entry whose page was re-used is always shadowed by a dirtied ancestor
//! descriptor and dropped by the shallowest-root filter. Anomalous
//! states are never cached: every event over them takes the full walk
//! and re-reports the anomalies, exactly like the non-incremental oracle.

use std::cmp::Reverse;
use std::collections::HashMap;

use pkvm_aarch64::addr::{level_pages, PhysAddr, LEAF_LEVEL, PAGE_SIZE};
use pkvm_aarch64::attrs::Stage;
use pkvm_aarch64::memory::PhysMem;
use pkvm_hyp::hooks::Component;

use crate::abstraction::{
    interpret_descriptor, interpret_pgtable_with_meta, interpret_subtree, partition_host,
    table_span_pages, Anomaly, HostPartition, TableMeta,
};
use crate::state::{AbstractPgtable, GhostGlobals};

/// If more than one table in `4^-1` of the footprint is dirty, replaying
/// stops paying; take the full walk.
const DIRTY_RATIO_DEN: usize = 4;

/// Counters describing how the cache resolved requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Served unchanged (no dirty table pages).
    pub clean_hits: u64,
    /// Served by replaying dirty descriptors and subtrees into the cached
    /// map.
    pub incremental: u64,
    /// Replay roots (written descriptors, or whole table nodes the log
    /// marked written whole) replayed across all incremental serves.
    pub subtrees_replayed: u64,
    /// Written descriptors re-decoded one by one across all incremental
    /// serves (whole-node replays are not counted here).
    pub descriptors_replayed: u64,
    /// Full walks: no cache entry yet.
    pub full_cold: u64,
    /// Full walks: the root changed.
    pub full_root_changed: u64,
    /// Full walks: the write log could not answer (disabled or trimmed).
    pub full_log_unavailable: u64,
    /// Full walks: dirty ratio above threshold.
    pub full_dirty_ratio: u64,
    /// Full walks: a replayed subtree reported an anomaly.
    pub full_anomaly: u64,
}

impl CacheStats {
    /// Total requests resolved.
    pub fn requests(&self) -> u64 {
        self.clean_hits
            + self.incremental
            + self.full_cold
            + self.full_root_changed
            + self.full_log_unavailable
            + self.full_dirty_ratio
            + self.full_anomaly
    }

    /// Total full walks taken.
    pub fn full_walks(&self) -> u64 {
        self.full_cold
            + self.full_root_changed
            + self.full_log_unavailable
            + self.full_dirty_ratio
            + self.full_anomaly
    }
}

struct CacheEntry {
    root: PhysAddr,
    stage: Stage,
    /// Write-log snapshot taken before the walk that produced `interp`.
    gen: u64,
    interp: AbstractPgtable,
    meta: TableMeta,
    /// Host entry only: the anomaly-free partition of `interp`, once
    /// derived.
    host: Option<HostPartition>,
}

/// One replay root: descriptor `desc` of the table node `table`, or the
/// whole node when `desc` is `None`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Root {
    /// Pfn of the table node.
    table: u64,
    /// Level of the table node.
    level: u8,
    /// Input address the node's span starts at.
    table_ia: u64,
    desc: Option<u16>,
}

impl Root {
    /// The input range the root re-interprets: `(ia, nr_pages)`.
    fn span(&self) -> (u64, u64) {
        match self.desc {
            Some(i) => {
                let pages = level_pages(self.level);
                (self.table_ia | (u64::from(i) * pages * PAGE_SIZE), pages)
            }
            None => (self.table_ia, table_span_pages(self.level)),
        }
    }
}

/// How a request was served.
enum Served {
    Clean,
    /// Incremental: the spans `(ia, nr_pages)` whose maplets were spliced.
    Replayed(Vec<(u64, u64)>),
    Full,
}

/// The per-oracle incremental abstraction cache.
#[derive(Default)]
pub struct AbsCache {
    entries: HashMap<Component, CacheEntry>,
    /// Resolution counters (exposed for benches, tests and reports).
    pub stats: CacheStats,
}

impl AbsCache {
    /// An empty cache.
    pub fn new() -> AbsCache {
        AbsCache::default()
    }

    /// Drops every cached interpretation (e.g. when a VM is torn down its
    /// entry must not survive handle reuse).
    pub fn invalidate(&mut self, key: Component) {
        self.entries.remove(&key);
    }

    /// Drops cached VM interpretations whose handle fails `live` — called
    /// when the VM table is observed, so torn-down VMs do not keep their
    /// (now dangling) interpretations resident.
    pub fn retain_vms(&mut self, live: impl Fn(u32) -> bool) {
        self.entries.retain(|k, _| match k {
            Component::Vm(h) => live(*h),
            _ => true,
        });
    }

    /// Interprets the table rooted at `root`, reusing the cached
    /// interpretation for `key` where the write log proves it still
    /// valid. Appends anomalies exactly as [`interpret_pgtable`] would.
    ///
    /// [`interpret_pgtable`]: crate::abstraction::interpret_pgtable
    pub fn interp(
        &mut self,
        mem: &PhysMem,
        stage: Stage,
        root: PhysAddr,
        key: Component,
        anomalies: &mut Vec<Anomaly>,
    ) -> AbstractPgtable {
        self.serve(mem, stage, root, key, anomalies).0
    }

    /// The host stage 2 rooted at `root`: its interpretation, as
    /// [`Self::interp`] with [`Component::Host`], and its partition, as
    /// [`partition_host`] over that interpretation would derive it.
    /// Appends anomalies exactly as interpretation followed by
    /// [`partition_host`] would.
    pub(crate) fn host(
        &mut self,
        mem: &PhysMem,
        root: PhysAddr,
        globals: &GhostGlobals,
        anomalies: &mut Vec<Anomaly>,
    ) -> (AbstractPgtable, HostPartition) {
        let (interp, served) = self.serve(mem, Stage::Stage2, root, Component::Host, anomalies);
        let entry = self.entries.get_mut(&Component::Host);
        if let Some(memo) = entry.and_then(|e| e.host.as_mut()) {
            match served {
                Served::Clean => return (interp, memo.clone()),
                Served::Replayed(spans) => {
                    // Re-derive over the spliced spans only. The memo was
                    // anomaly-free and the rest is unchanged, so the
                    // result is exact unless a span finds an anomaly.
                    let mut span_anomalies = Vec::new();
                    for &(ia, nr) in &spans {
                        let p = partition_host(
                            interp.mapping.clipped(ia, nr),
                            globals,
                            &mut span_anomalies,
                        );
                        memo.annot.splice(ia, nr, p.annot.iter().copied());
                        memo.shared.splice(ia, nr, p.shared.iter().copied());
                    }
                    if span_anomalies.is_empty() {
                        return (interp, memo.clone());
                    }
                }
                Served::Full => {}
            }
        }
        // Derive in full, reporting anomalies in interpretation order;
        // memoise only an anomaly-free result.
        let before = anomalies.len();
        let part = partition_host(interp.mapping.iter().copied(), globals, anomalies);
        if let Some(e) = self.entries.get_mut(&Component::Host) {
            e.host = (anomalies.len() == before).then(|| part.clone());
        }
        (interp, part)
    }

    fn serve(
        &mut self,
        mem: &PhysMem,
        stage: Stage,
        root: PhysAddr,
        key: Component,
        anomalies: &mut Vec<Anomaly>,
    ) -> (AbstractPgtable, Served) {
        let log = mem.write_log();
        // Snapshot before reading any table state: writes racing with
        // this interpretation will be at or after `snap` and therefore
        // re-reported by the next dirty_since query.
        let snap = log.snapshot_generation();

        let reason = match self.plan(mem, stage, root, key) {
            Plan::Clean => match self.entries.get_mut(&key) {
                Some(e) => {
                    self.stats.clean_hits += 1;
                    e.gen = snap;
                    return (e.interp.clone(), Served::Clean);
                }
                // The plan raced with an eviction (possible only under
                // chaos/containment, where a contained panic can leave the
                // cache partially updated): degrade to a full walk rather
                // than panic in the oracle hot path.
                None => FullReason::Cold,
            },
            Plan::Replay(roots) => match self.replay(mem, key, snap, &roots) {
                Some((interp, spans)) => {
                    self.stats.incremental += 1;
                    self.stats.subtrees_replayed += roots.len() as u64;
                    self.stats.descriptors_replayed +=
                        roots.iter().filter(|r| r.desc.is_some()).count() as u64;
                    return (interp, Served::Replayed(spans));
                }
                // A replayed root was anomalous; take the full walk so
                // anomalies are reported once, coherently.
                None => FullReason::Anomaly,
            },
            Plan::Full(reason) => reason,
        };
        *match reason {
            FullReason::Cold => &mut self.stats.full_cold,
            FullReason::RootChanged => &mut self.stats.full_root_changed,
            FullReason::LogUnavailable => &mut self.stats.full_log_unavailable,
            FullReason::DirtyRatio => &mut self.stats.full_dirty_ratio,
            FullReason::Anomaly => &mut self.stats.full_anomaly,
        } += 1;
        let interp = self.full_walk(mem, stage, root, key, snap, anomalies);
        (interp, Served::Full)
    }

    fn plan(&self, mem: &PhysMem, stage: Stage, root: PhysAddr, key: Component) -> Plan {
        let Some(e) = self.entries.get(&key) else {
            return Plan::Full(FullReason::Cold);
        };
        if e.root != root || e.stage != stage {
            return Plan::Full(FullReason::RootChanged);
        }
        let Some(dirty) = mem.write_log().dirty_since(e.gen) else {
            return Plan::Full(FullReason::LogUnavailable);
        };
        // Only writes to pages that were table nodes can change the
        // interpretation; everything else is data.
        let mut dirty_tables = 0;
        let mut roots: Vec<Root> = Vec::new();
        for (pfn, descs) in &dirty {
            let Some(&(level, table_ia)) = e.meta.get(pfn) else {
                continue;
            };
            dirty_tables += 1;
            let root = |desc| Root {
                table: *pfn,
                level,
                table_ia,
                desc,
            };
            match descs.indices() {
                Some(idx) => roots.extend(idx.iter().map(|&i| root(Some(i)))),
                None => roots.push(root(None)),
            }
        }
        if dirty_tables == 0 {
            return Plan::Clean;
        }
        if dirty_tables * DIRTY_RATIO_DEN > e.meta.len() {
            return Plan::Full(FullReason::DirtyRatio);
        }
        Plan::Replay(shallowest(roots))
    }

    // Replays `roots` over the cached entry; returns the new
    // interpretation and the spliced spans, or `None` (entry invalidated)
    // if any root is anomalous.
    fn replay(
        &mut self,
        mem: &PhysMem,
        key: Component,
        snap: u64,
        roots: &[Root],
    ) -> Option<(AbstractPgtable, Vec<(u64, u64)>)> {
        // `None` (entry vanished between plan and replay — only possible
        // when containment interrupted an update) degrades to a full walk
        // via the caller's anomaly fallback.
        let e = self.entries.get_mut(&key)?;
        let stage = e.stage;
        let mut spans = Vec::with_capacity(roots.len());
        for r in roots {
            let table = PhysAddr::new(r.table * PAGE_SIZE);
            let mut sub_meta = TableMeta::new();
            let mut sub_anomalies = Vec::new();
            let sub = match r.desc {
                Some(i) => interpret_descriptor(
                    mem,
                    stage,
                    table,
                    r.level,
                    r.table_ia,
                    usize::from(i),
                    &mut sub_meta,
                    &mut sub_anomalies,
                ),
                None => interpret_subtree(
                    mem,
                    stage,
                    table,
                    r.level,
                    r.table_ia,
                    &mut sub_meta,
                    &mut sub_anomalies,
                ),
            };
            if !sub_anomalies.is_empty() {
                self.entries.remove(&key);
                return None;
            }
            let (ia, nr) = r.span();
            e.interp.mapping.splice(ia, nr, sub.mapping.iter().copied());
            spans.push((ia, nr));
            // Swap the span's table-node footprint for the replay's: a
            // descriptor owns the nodes below it, a whole-node replay the
            // node itself too. A leaf-level descriptor owns none.
            let owned_from = if r.desc.is_some() {
                r.level + 1
            } else {
                r.level
            };
            if owned_from <= LEAF_LEVEL {
                let end = ia + nr * PAGE_SIZE;
                let stale: Vec<u64> = e
                    .meta
                    .iter()
                    .filter(|&(_, &(l, at))| l >= owned_from && at >= ia && at < end)
                    .map(|(&pfn, _)| pfn)
                    .collect();
                for pfn in stale {
                    e.meta.remove(&pfn);
                    e.interp.table_pages.remove(&pfn);
                }
                e.meta.extend(sub_meta);
                e.interp.table_pages.extend(sub.table_pages);
            }
        }
        e.gen = snap;
        Some((e.interp.clone(), spans))
    }

    fn full_walk(
        &mut self,
        mem: &PhysMem,
        stage: Stage,
        root: PhysAddr,
        key: Component,
        snap: u64,
        anomalies: &mut Vec<Anomaly>,
    ) -> AbstractPgtable {
        let before = anomalies.len();
        let (interp, meta) = interpret_pgtable_with_meta(mem, stage, root, anomalies);
        if anomalies.len() == before {
            self.entries.insert(
                key,
                CacheEntry {
                    root,
                    stage,
                    gen: snap,
                    interp: interp.clone(),
                    meta,
                    host: None,
                },
            );
        } else {
            // Never cache anomalous states: every event over them must
            // re-walk and re-report, like the non-incremental oracle.
            self.entries.remove(&key);
        }
        interp
    }
}

/// Keeps only the shallowest replay roots: a root inside another root's
/// span is covered by replaying the outer one (and a *stale* node —
/// freed and reused — is always covered by the ancestor descriptor whose
/// write unlinked it). Spans come from one tree, so any two are nested or
/// disjoint; on an equal span the descriptor is kept over the table node
/// it links, since replaying the descriptor re-walks that node anyway.
fn shallowest(mut roots: Vec<Root>) -> Vec<Root> {
    roots.sort_by_key(|r| {
        let (ia, nr) = r.span();
        (ia, Reverse(nr), r.desc.is_none())
    });
    let mut covered_to = 0;
    roots.retain(|r| {
        let (ia, nr) = r.span();
        if ia < covered_to {
            return false;
        }
        covered_to = ia + nr * PAGE_SIZE;
        true
    });
    roots
}

enum Plan {
    Clean,
    Replay(Vec<Root>),
    Full(FullReason),
}

enum FullReason {
    Cold,
    RootChanged,
    LogUnavailable,
    DirtyRatio,
    Anomaly,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::interpret_pgtable;
    use pkvm_aarch64::attrs::{Attrs, Perms};
    use pkvm_aarch64::desc::Pte;
    use pkvm_aarch64::memory::MemRegion;
    use pkvm_hyp::owner::{annotation_pte, OwnerId, PageState};

    fn mem() -> PhysMem {
        let m = PhysMem::new(vec![MemRegion::ram(0x4000_0000, 0x800_0000)]);
        m.write_log().set_enabled(true);
        m
    }

    fn leaf(oa: u64) -> Pte {
        Pte::leaf(
            Stage::Stage2,
            3,
            PhysAddr::new(oa),
            Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw()),
        )
    }

    /// root -> l1 -> l2 -> l3 with two pages mapped.
    fn build(m: &PhysMem) -> PhysAddr {
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        m.write_pte(root, 0, Pte::table(l1)).unwrap();
        m.write_pte(l1, 0, Pte::table(l2)).unwrap();
        m.write_pte(l2, 0, Pte::table(l3)).unwrap();
        m.write_pte(l3, 0, leaf(0x4200_0000)).unwrap();
        m.write_pte(l3, 1, leaf(0x4200_1000)).unwrap();
        root
    }

    fn check_agrees(cache: &mut AbsCache, m: &PhysMem, root: PhysAddr) {
        let mut a1 = Vec::new();
        let inc = cache.interp(m, Stage::Stage2, root, Component::Host, &mut a1);
        let mut a2 = Vec::new();
        let full = interpret_pgtable(m, Stage::Stage2, root, &mut a2);
        assert_eq!(inc, full);
        assert_eq!(a1, a2);
    }

    #[test]
    fn clean_reuse_after_data_writes() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_cold, 1);
        // Data writes (not table pages) must not force any re-walk.
        m.write_u64(PhysAddr::new(0x4200_0000), 77).unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.clean_hits, 1);
        assert_eq!(cache.stats.incremental, 0);
    }

    #[test]
    fn pte_write_replays_one_subtree() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // Change a leaf: only the l3 subtree should replay.
        m.write_pte(PhysAddr::new(0x4400_3000), 2, leaf(0x4200_2000))
            .unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 1);
        assert_eq!(cache.stats.subtrees_replayed, 1);
        // Unmap one: replay again.
        m.write_pte(PhysAddr::new(0x4400_3000), 0, Pte(0)).unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 2);
    }

    #[test]
    fn nested_dirty_tables_replay_the_ancestor_once() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // Dirty both l2 (link a second l3) and the new l3's contents.
        let l3b = PhysAddr::new(0x4400_4000);
        m.write_pte(l3b, 0, leaf(0x4200_4000)).unwrap();
        m.write_pte(PhysAddr::new(0x4400_2000), 1, Pte::table(l3b))
            .unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 1);
        // l3b was not in the cached footprint, so only l2 replays.
        assert_eq!(cache.stats.subtrees_replayed, 1);
    }

    #[test]
    fn unlink_and_reuse_of_a_table_page_is_covered_by_the_parent() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        // Unlink l3 from l2 and scribble garbage over the freed page (as
        // a reused data page would).
        m.write_pte(l2, 0, Pte(0)).unwrap();
        m.write_u64(l3, 0xdead_beef).unwrap();
        check_agrees(&mut cache, &m, root);
        // The stale l3 must not have been replayed as a subtree.
        let mut a = Vec::new();
        let now = cache.interp(&m, Stage::Stage2, root, Component::Host, &mut a);
        assert!(!now.table_pages.contains(&l3.pfn()));
    }

    #[test]
    fn root_change_falls_back_to_full_walk() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        let root2 = PhysAddr::new(0x4500_0000);
        m.write_pte(root2, 0, annotation_pte(OwnerId::HYP)).unwrap();
        let mut a = Vec::new();
        cache.interp(&m, Stage::Stage2, root2, Component::Host, &mut a);
        assert_eq!(cache.stats.full_root_changed, 1);
        check_agrees(&mut cache, &m, root2);
    }

    #[test]
    fn log_unavailable_falls_back_to_full_walk() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        m.write_log().set_enabled(false);
        m.write_log().set_enabled(true);
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_log_unavailable, 1);
    }

    #[test]
    fn anomalous_states_are_never_cached() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // Introduce a reserved descriptor (0b01 at level 3) through a
        // tracked table page.
        m.write_pte(PhysAddr::new(0x4400_3000), 3, Pte(0b01))
            .unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_anomaly, 1);
        // Still anomalous: must full-walk (and re-report) again, not hit.
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_cold, 2);
        assert_eq!(cache.stats.clean_hits, 0);
    }

    #[test]
    fn on_an_equal_span_the_descriptor_beats_the_table_it_links() {
        let l2 = Root {
            table: 0x44002,
            level: 2,
            table_ia: 0,
            desc: Some(0),
        };
        let l3 = Root {
            table: 0x44003,
            level: 3,
            table_ia: 0,
            desc: None,
        };
        assert_eq!(l2.span(), l3.span());
        let l3_desc = Root {
            desc: Some(9),
            ..l3
        };
        // Whatever the order the log reports them in.
        assert_eq!(shallowest(vec![l3, l2]), vec![l2]);
        assert_eq!(shallowest(vec![l2, l3, l3_desc]), vec![l2]);
        // A sibling descriptor outside the span survives.
        let other = Root {
            desc: Some(1),
            ..l2
        };
        assert_eq!(shallowest(vec![other, l3_desc, l2]), vec![l2, other]);
    }

    #[test]
    fn relinked_and_rewritten_table_replays_only_the_linking_descriptor() {
        let m = mem();
        let root = build(&m);
        // More leaf tables, so two dirty nodes stay under the dirty ratio.
        for i in 1..8u64 {
            let t = PhysAddr::new(0x4410_0000 + i * 0x1000);
            m.write_pte(t, 0, leaf(0x4300_0000 + i * 0x1000)).unwrap();
            m.write_pte(PhysAddr::new(0x4400_2000), i as usize, Pte::table(t))
                .unwrap();
        }
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // Swap l3 for a fresh l3b under l2[0], and reuse l3's page whole:
        // l2[0] and all of l3 are dirty over the very same span.
        let l3 = PhysAddr::new(0x4400_3000);
        let l3b = PhysAddr::new(0x4400_4000);
        m.write_pte(l3b, 7, leaf(0x4200_7000)).unwrap();
        m.write_pte(PhysAddr::new(0x4400_2000), 0, Pte::table(l3b))
            .unwrap();
        m.zero_page(l3).unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 1);
        assert_eq!(cache.stats.subtrees_replayed, 1);
        assert_eq!(cache.stats.descriptors_replayed, 1);
        let mut a = Vec::new();
        let now = cache.interp(&m, Stage::Stage2, root, Component::Host, &mut a);
        assert!(now.table_pages.contains(&l3b.pfn()));
        assert!(!now.table_pages.contains(&l3.pfn()));
    }

    #[test]
    fn whole_page_writes_replay_the_whole_table() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // Five distinct descriptors of l3: past the log's per-page cap.
        let l3 = PhysAddr::new(0x4400_3000);
        for idx in 2..7 {
            m.write_pte(l3, idx, leaf(0x4200_0000 + idx as u64 * 0x1000))
                .unwrap();
        }
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.subtrees_replayed, 1);
        assert_eq!(cache.stats.descriptors_replayed, 0);
    }

    fn globals() -> GhostGlobals {
        GhostGlobals {
            nr_cpus: 1,
            physvirt_offset: 0,
            uart_va: 0,
            hyp_range: (0, 0),
            ram: vec![(0, 0x1_0000_0000)],
            mmio: vec![],
        }
    }

    fn host_agrees(cache: &mut AbsCache, m: &PhysMem, root: PhysAddr) {
        let mut a1 = Vec::new();
        let (inc, part) = cache.host(m, root, &globals(), &mut a1);
        let mut a2 = Vec::new();
        let full = interpret_pgtable(m, Stage::Stage2, root, &mut a2);
        let full_part = partition_host(full.mapping.iter().copied(), &globals(), &mut a2);
        assert_eq!(inc, full);
        assert_eq!(part, full_part);
        assert_eq!(a1, a2);
    }

    #[test]
    fn host_partition_is_memoised_and_rederived_over_spliced_spans() {
        let m = mem();
        let root = build(&m);
        let l3 = PhysAddr::new(0x4400_3000);
        // Host-owned pages must be identity mappings.
        m.write_pte(l3, 0, leaf(0)).unwrap();
        m.write_pte(l3, 1, leaf(0x1000)).unwrap();
        let mut cache = AbsCache::new();
        host_agrees(&mut cache, &m, root);
        // Annotate one page for a guest and share another.
        m.write_pte(l3, 4, annotation_pte(OwnerId::guest(0)))
            .unwrap();
        let shared = Attrs::normal(Perms::RWX).with_sw(PageState::SharedOwned.to_sw());
        m.write_pte(
            l3,
            5,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x5000), shared),
        )
        .unwrap();
        host_agrees(&mut cache, &m, root);
        host_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 1);
        assert_eq!(cache.stats.clean_hits, 1);
        let memoised = |c: &AbsCache| c.entries[&Component::Host].host.is_some();
        assert!(memoised(&cache));
        // The shared page above is no identity mapping, but shared pages
        // are not checked. An owned non-identity page is: its span's
        // derivation finds the anomaly and the full derivation reports
        // it, at the maplet the full derivation sees.
        m.write_pte(l3, 6, leaf(0x4300_0000)).unwrap();
        host_agrees(&mut cache, &m, root);
        assert!(!memoised(&cache));
        host_agrees(&mut cache, &m, root);
        // Repairing it memoises again.
        m.write_pte(l3, 6, Pte(0)).unwrap();
        host_agrees(&mut cache, &m, root);
        assert!(memoised(&cache));
        host_agrees(&mut cache, &m, root);
    }

    #[test]
    fn invalidate_forces_cold_walk() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        cache.invalidate(Component::Host);
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_cold, 2);
    }
}
