//! Abstract mappings: finite range maps from page addresses to targets.
//!
//! The extensional meaning of a translation table is a finite partial map
//! from 4 KiB input pages to (output page, attributes) tuples, plus owner
//! annotations on unmapped ranges. [`Mapping`] represents exactly that, as
//! a sorted vector of maximally coalesced [`Maplet`]s, with the finite-map
//! operations the specification functions need: empty and singleton maps,
//! insertion, removal, lookup, pointwise difference, and structural
//! equality (which, thanks to the canonical coalesced form, *is* semantic
//! equality).

use std::sync::{Arc, OnceLock};

use pkvm_aarch64::addr::PAGE_SIZE;

use crate::maplet::{Maplet, MapletTarget};

/// A canonical (sorted, non-overlapping, maximally coalesced) finite range
/// map. Structural equality coincides with extensional equality.
///
/// The maplet storage is copy-on-write: `clone()` is an `Arc` bump, and
/// mutation copies the underlying vector only while it is shared. Ghost
/// snapshots (the shared copy, per-trap pre/post states, cache entries)
/// therefore alias one storage until a mutator actually diverges, which is
/// what lets the pipelined checker take per-trap snapshots without cloning
/// mappings wholesale.
#[derive(Clone, Debug)]
pub struct Mapping {
    maplets: Arc<Vec<Maplet>>,
}

impl Default for Mapping {
    fn default() -> Mapping {
        // All empty mappings share one storage: blank ghost states are
        // built in bulk (three per trap), so the empty map must not
        // allocate.
        static EMPTY: OnceLock<Arc<Vec<Maplet>>> = OnceLock::new();
        Mapping {
            maplets: EMPTY.get_or_init(|| Arc::new(Vec::new())).clone(),
        }
    }
}

impl PartialEq for Mapping {
    fn eq(&self, other: &Mapping) -> bool {
        // Undiverged snapshots still share storage; equality is then a
        // pointer compare instead of a maplet-by-maplet walk.
        Arc::ptr_eq(&self.maplets, &other.maplets) || self.maplets == other.maplets
    }
}

impl Eq for Mapping {}

impl Mapping {
    /// The empty mapping.
    pub fn new() -> Mapping {
        Mapping::default()
    }

    /// A mapping containing a single maplet.
    pub fn singleton(m: Maplet) -> Mapping {
        let mut map = Mapping::new();
        map.insert(m);
        map
    }

    /// The maplets in ascending input-address order.
    pub fn iter(&self) -> impl Iterator<Item = &Maplet> {
        self.maplets.iter()
    }

    /// Number of maplets (ranges), not pages.
    pub fn len(&self) -> usize {
        self.maplets.len()
    }

    /// Returns `true` if the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.maplets.is_empty()
    }

    /// Total number of pages in the domain.
    pub fn nr_pages(&self) -> u64 {
        self.maplets.iter().map(|m| m.nr_pages).sum()
    }

    /// The target of the page containing `ia`, if in the domain.
    pub fn lookup(&self, ia: u64) -> Option<MapletTarget> {
        let idx = match self.maplets.binary_search_by(|m| {
            if m.contains(ia) {
                core::cmp::Ordering::Equal
            } else if m.ia > ia {
                core::cmp::Ordering::Greater
            } else {
                core::cmp::Ordering::Less
            }
        }) {
            Ok(i) => i,
            Err(_) => return None,
        };
        Some(self.maplets[idx].target_at(ia & !(PAGE_SIZE - 1)))
    }

    /// Returns `true` if every page of `[ia, ia + nr*4K)` is in the domain.
    pub fn covers(&self, ia: u64, nr_pages: u64) -> bool {
        (0..nr_pages).all(|i| self.lookup(ia + i * PAGE_SIZE).is_some())
    }

    /// Removes `[ia, ia + nr*4K)` from the domain.
    pub fn remove(&mut self, ia: u64, nr_pages: u64) {
        if nr_pages == 0 {
            return;
        }
        let end = ia + nr_pages * PAGE_SIZE;
        // Fast path: nothing overlaps — leave the (possibly shared)
        // storage untouched.
        let first = self.maplets.partition_point(|m| m.end() <= ia);
        match self.maplets.get(first) {
            Some(m) if m.ia < end => {}
            _ => return,
        }
        let mut out = Vec::with_capacity(self.maplets.len() + 1);
        for &m in self.maplets.iter() {
            if m.end() <= ia || m.ia >= end {
                out.push(m);
                continue;
            }
            // Overlap: keep the parts outside [ia, end).
            if m.ia < ia {
                let (l, _) = m.split_at(ia);
                out.push(l);
            }
            if m.end() > end {
                let (_, r) = m.split_at(end);
                out.push(r);
            }
        }
        self.maplets = Arc::new(out);
    }

    /// Inserts `maplet`, overwriting any overlapping range, and restores
    /// the canonical coalesced form.
    pub fn insert(&mut self, maplet: Maplet) {
        if maplet.nr_pages == 0 {
            return;
        }
        self.remove(maplet.ia, maplet.nr_pages);
        let pos = self.maplets.partition_point(|m| m.ia < maplet.ia);
        Arc::make_mut(&mut self.maplets).insert(pos, maplet);
        self.coalesce_around(pos);
    }

    /// Inserts `maplet`, which must not overlap the existing domain.
    ///
    /// # Panics
    ///
    /// Panics on overlap — specification code inserts only into ranges it
    /// has just checked to be absent, so an overlap is a spec bug.
    pub fn insert_new(&mut self, maplet: Maplet) {
        self.try_insert_new(maplet).unwrap_or_else(|ia| {
            panic!("insert_new over existing range at {ia:#x}");
        });
    }

    /// Inserts `maplet` if it does not overlap the existing domain.
    ///
    /// # Errors
    ///
    /// Returns the first overlapping page address. Used by specification
    /// functions to *detect* states a correct hypervisor can never produce
    /// (e.g. a linear-map address aliasing an existing private mapping).
    pub fn try_insert_new(&mut self, maplet: Maplet) -> Result<(), u64> {
        for i in 0..maplet.nr_pages {
            let ia = maplet.ia + i * PAGE_SIZE;
            if self.lookup(ia).is_some() {
                return Err(ia);
            }
        }
        self.insert(maplet);
        Ok(())
    }

    /// Appends a maplet known to start at or after the current maximum
    /// address, coalescing with the tail when possible — the fast path of
    /// the abstraction function's in-order traversal
    /// (`extend_mapping_coalesce` in the paper's Fig. 2).
    ///
    /// # Panics
    ///
    /// Panics if `maplet` is not beyond the current maximum.
    pub fn extend_coalesce(&mut self, maplet: Maplet) {
        if maplet.nr_pages == 0 {
            return;
        }
        let maplets = Arc::make_mut(&mut self.maplets);
        if let Some(last) = maplets.last_mut() {
            assert!(maplet.ia >= last.end(), "extend_coalesce out of order");
            if last.can_coalesce_with(&maplet) {
                last.nr_pages += maplet.nr_pages;
                return;
            }
        }
        maplets.push(maplet);
    }

    /// Replaces the range `[ia, ia + nr_pages)` wholesale with
    /// `replacement` — the delta-application primitive of the incremental
    /// abstraction: a re-interpreted subtree's maplets are spliced over
    /// the subtree's span in the cached map.
    ///
    /// `replacement` must be sorted, non-overlapping, and lie within the
    /// replaced range (any canonical [`Mapping`]'s maplets over that range
    /// qualify). One pass rebuilds only the window of maplets the range
    /// touches, widened by a neighbour on each side so the seams
    /// re-coalesce, and moves it into place: an in-place shift when the
    /// storage is unshared, a single copy when it is shared, and no write
    /// at all when the window comes out unchanged.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `replacement` violates the ordering or range
    /// requirements.
    pub fn splice(
        &mut self,
        ia: u64,
        nr_pages: u64,
        replacement: impl IntoIterator<Item = Maplet>,
    ) {
        if nr_pages == 0 {
            return;
        }
        let end = ia + nr_pages * PAGE_SIZE;
        let cur = &self.maplets;
        // `cur[first..last]` overlap the range; `cur[lo..hi]` adds one
        // neighbour each side.
        let first = cur.partition_point(|m| m.end() <= ia);
        let last = cur.partition_point(|m| m.ia < end);
        let lo = first.saturating_sub(1);
        let hi = (last + 1).min(cur.len());
        let mut window: Vec<Maplet> = Vec::with_capacity(hi - lo + 4);
        let mut push = |m: Maplet| match window.last_mut() {
            _ if m.nr_pages == 0 => {}
            Some(t) if t.can_coalesce_with(&m) => t.nr_pages += m.nr_pages,
            _ => window.push(m),
        };
        if lo < first {
            push(cur[lo]);
        }
        if first < last && cur[first].ia < ia {
            push(cur[first].split_at(ia).0);
        }
        let mut at = ia;
        for m in replacement {
            debug_assert!(m.ia >= at, "replacement out of order or outside range");
            debug_assert!(m.end() <= end, "replacement outside splice range");
            at = m.end();
            push(m);
        }
        if first < last && cur[last - 1].end() > end {
            push(cur[last - 1].split_at(end).1);
        }
        if last < hi {
            push(cur[last]);
        }
        if window[..] == cur[lo..hi] {
            return;
        }
        match Arc::get_mut(&mut self.maplets) {
            Some(v) => {
                v.splice(lo..hi, window);
            }
            None => {
                let cur = &self.maplets;
                let mut out = Vec::with_capacity(cur.len() - (hi - lo) + window.len());
                out.extend_from_slice(&cur[..lo]);
                out.extend(window);
                out.extend_from_slice(&cur[hi..]);
                self.maplets = Arc::new(out);
            }
        }
    }

    /// The maplets overlapping `[ia, ia + nr_pages)`, clipped to it, in
    /// ascending order.
    pub(crate) fn clipped(&self, ia: u64, nr_pages: u64) -> impl Iterator<Item = Maplet> + '_ {
        let end = ia + nr_pages * PAGE_SIZE;
        let first = self.maplets.partition_point(|m| m.end() <= ia);
        self.maplets[first..]
            .iter()
            .take_while(move |m| m.ia < end)
            .map(move |&m| {
                let m = if m.ia < ia { m.split_at(ia).1 } else { m };
                if m.end() > end {
                    m.split_at(end).0
                } else {
                    m
                }
            })
    }

    fn coalesce_around(&mut self, pos: usize) {
        let maplets = Arc::make_mut(&mut self.maplets);
        // Try to merge with the successor first, then the predecessor.
        if pos + 1 < maplets.len() {
            let next = maplets[pos + 1];
            if maplets[pos].can_coalesce_with(&next) {
                maplets[pos].nr_pages += next.nr_pages;
                maplets.remove(pos + 1);
            }
        }
        if pos > 0 {
            let cur = maplets[pos];
            if maplets[pos - 1].can_coalesce_with(&cur) {
                maplets[pos - 1].nr_pages += cur.nr_pages;
                maplets.remove(pos);
            }
        }
    }

    /// The union of two mappings ("addition of finite maps" in the
    /// paper's operation list); `other` wins on overlap.
    pub fn union(&self, other: &Mapping) -> Mapping {
        let mut out = self.clone();
        for m in other.iter() {
            out.insert(*m);
        }
        out
    }

    /// Domain subtraction ("subtraction of finite maps"): removes every
    /// page in `other`'s domain from `self`.
    pub fn subtract(&self, other: &Mapping) -> Mapping {
        let mut out = self.clone();
        for m in other.iter() {
            out.remove(m.ia, m.nr_pages);
        }
        out
    }

    /// The pointwise difference: pages where `self` and `other` disagree
    /// (present in one but not the other, or mapped differently), reported
    /// as `(ia, left target, right target)` per disagreeing *range* start.
    /// Used by the ghost-state diffing of §4.2.2.
    pub fn diff<'a>(
        &'a self,
        other: &'a Mapping,
    ) -> Vec<(u64, Option<MapletTarget>, Option<MapletTarget>)> {
        let mut points: Vec<u64> = Vec::new();
        for m in self.maplets.iter().chain(other.maplets.iter()) {
            points.push(m.ia);
            points.push(m.end());
        }
        points.sort_unstable();
        points.dedup();
        let mut out = Vec::new();
        for w in points.windows(2) {
            let (start, end) = (w[0], w[1]);
            // Within [start, end) both mappings are "linear": compare the
            // first page and (for mapped runs) the rest follows.
            let a = self.lookup(start);
            let b = other.lookup(start);
            let disagree = match (a, b) {
                (None, None) => false,
                (Some(x), Some(y)) => x != y,
                _ => true,
            };
            // Output-contiguity within the window is guaranteed by maplet
            // linearity, but attributes/presence could still differ page by
            // page only at maplet boundaries — which are all in `points`.
            let _ = end;
            if disagree {
                out.push((start, a, b));
            }
        }
        out
    }

    /// Structural check of the canonical-form invariants (for tests and
    /// the property suite).
    pub fn check_canonical(&self) -> Result<(), String> {
        for w in self.maplets.windows(2) {
            if w[0].end() > w[1].ia {
                return Err(format!("overlap at {:#x}", w[1].ia));
            }
            if w[0].can_coalesce_with(&w[1]) {
                return Err(format!("uncoalesced neighbours at {:#x}", w[1].ia));
            }
        }
        if self.maplets.iter().any(|m| m.nr_pages == 0) {
            return Err("empty maplet".into());
        }
        Ok(())
    }
}

impl FromIterator<Maplet> for Mapping {
    fn from_iter<T: IntoIterator<Item = Maplet>>(iter: T) -> Mapping {
        let mut m = Mapping::new();
        for maplet in iter {
            m.insert(maplet);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maplet::AbsAttrs;
    use pkvm_aarch64::attrs::{MemType, Perms};
    use pkvm_hyp::owner::{OwnerId, PageState};

    fn attrs() -> AbsAttrs {
        AbsAttrs {
            perms: Perms::RWX,
            memtype: MemType::Normal,
            state: Some(PageState::Owned),
        }
    }

    fn mapped(ia: u64, nr: u64, oa: u64) -> Maplet {
        Maplet {
            ia,
            nr_pages: nr,
            target: MapletTarget::Mapped { oa, attrs: attrs() },
        }
    }

    fn annotated(ia: u64, nr: u64, owner: OwnerId) -> Maplet {
        Maplet {
            ia,
            nr_pages: nr,
            target: MapletTarget::Annotated { owner },
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 2, 0x8000));
        assert_eq!(
            m.lookup(0x1000),
            Some(MapletTarget::Mapped {
                oa: 0x8000,
                attrs: attrs()
            })
        );
        assert_eq!(
            m.lookup(0x2fff),
            Some(MapletTarget::Mapped {
                oa: 0x9000,
                attrs: attrs()
            })
        );
        assert_eq!(m.lookup(0x3000), None);
        assert_eq!(m.nr_pages(), 2);
        m.check_canonical().unwrap();
    }

    #[test]
    fn adjacent_inserts_coalesce() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 1, 0x8000));
        m.insert(mapped(0x3000, 1, 0xa000));
        assert_eq!(m.len(), 2);
        // Filling the hole with output-contiguous pages merges all three.
        m.insert(mapped(0x2000, 1, 0x9000));
        assert_eq!(m.len(), 1);
        assert_eq!(m.nr_pages(), 3);
        m.check_canonical().unwrap();
    }

    #[test]
    fn overwrite_splits_ranges() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 4, 0x8000));
        m.insert(annotated(0x2000, 1, OwnerId::HYP));
        assert_eq!(m.len(), 3);
        assert_eq!(
            m.lookup(0x2000),
            Some(MapletTarget::Annotated {
                owner: OwnerId::HYP
            })
        );
        assert_eq!(
            m.lookup(0x3000),
            Some(MapletTarget::Mapped {
                oa: 0xa000,
                attrs: attrs()
            })
        );
        m.check_canonical().unwrap();
    }

    #[test]
    fn remove_middle() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 4, 0x8000));
        m.remove(0x2000, 2);
        assert_eq!(m.nr_pages(), 2);
        assert!(m.lookup(0x2000).is_none());
        assert!(m.lookup(0x1000).is_some());
        assert!(m.lookup(0x4000).is_some());
        m.check_canonical().unwrap();
    }

    #[test]
    fn equality_is_extensional() {
        // Same extension built in different orders compares equal.
        let mut a = Mapping::new();
        a.insert(mapped(0x1000, 1, 0x8000));
        a.insert(mapped(0x2000, 1, 0x9000));
        let mut b = Mapping::new();
        b.insert(mapped(0x1000, 2, 0x8000));
        assert_eq!(a, b);
    }

    #[test]
    fn insert_new_panics_on_overlap() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 2, 0x8000));
        let result = std::panic::catch_unwind(move || {
            m.insert_new(mapped(0x2000, 1, 0xf000));
        });
        assert!(result.is_err());
    }

    #[test]
    fn extend_coalesce_fast_path() {
        let mut m = Mapping::new();
        m.extend_coalesce(mapped(0x1000, 1, 0x8000));
        m.extend_coalesce(mapped(0x2000, 1, 0x9000));
        m.extend_coalesce(mapped(0x4000, 1, 0xb000));
        assert_eq!(m.len(), 2);
        m.check_canonical().unwrap();
    }

    #[test]
    fn diff_reports_disagreements() {
        let mut a = Mapping::new();
        a.insert(mapped(0x1000, 2, 0x8000));
        let mut b = a.clone();
        b.insert(mapped(0x2000, 1, 0xf000)); // changed page
        b.insert(mapped(0x5000, 1, 0x6000)); // added page
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, 0x2000);
        assert!(d[0].1.is_some() && d[0].2.is_some());
        assert_eq!(d[1].0, 0x5000);
        assert!(d[1].1.is_none());
        assert_eq!(a.diff(&a), vec![]);
    }

    #[test]
    fn covers_checks_every_page() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 2, 0x8000));
        m.insert(mapped(0x4000, 1, 0xa000));
        assert!(m.covers(0x1000, 2));
        assert!(!m.covers(0x1000, 3));
        assert!(!m.covers(0x3000, 2));
    }

    #[test]
    fn union_and_subtract() {
        let mut a = Mapping::new();
        a.insert(mapped(0x1000, 2, 0x8000));
        let mut b = Mapping::new();
        b.insert(mapped(0x2000, 2, 0xf000)); // overlaps a's second page
        let u = a.union(&b);
        assert_eq!(u.nr_pages(), 3);
        assert_eq!(
            u.lookup(0x2000),
            Some(MapletTarget::Mapped {
                oa: 0xf000,
                attrs: attrs()
            })
        );
        assert_eq!(
            u.lookup(0x1000),
            Some(MapletTarget::Mapped {
                oa: 0x8000,
                attrs: attrs()
            })
        );
        let s = a.subtract(&b);
        assert_eq!(s.nr_pages(), 1);
        assert!(s.lookup(0x2000).is_none());
        u.check_canonical().unwrap();
        s.check_canonical().unwrap();
        // Identities: m ∪ ∅ = m, m \ m = ∅.
        assert_eq!(a.union(&Mapping::new()), a);
        assert!(a.subtract(&a).is_empty());
    }

    #[test]
    fn annotations_do_not_merge_with_mappings() {
        let mut m = Mapping::new();
        m.insert(annotated(0x1000, 1, OwnerId::HYP));
        m.insert(mapped(0x2000, 1, 0x2000));
        assert_eq!(m.len(), 2);
        m.check_canonical().unwrap();
    }

    /// Reference implementation of splice: remove + repeated insert.
    fn splice_naive(m: &Mapping, ia: u64, nr: u64, rep: &[Maplet]) -> Mapping {
        let mut out = m.clone();
        out.remove(ia, nr);
        for r in rep {
            out.insert(*r);
        }
        out
    }

    #[test]
    fn splice_replaces_a_middle_range_and_recoalesces() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 8, 0x8000));
        // Replace pages [0x3000, 0x5000) with output-contiguous content:
        // the seams coalesce back into a single maplet.
        let rep = vec![mapped(0x3000, 2, 0xa000)];
        let expect = splice_naive(&m, 0x3000, 2, &rep);
        m.splice(0x3000, 2, rep);
        assert_eq!(m, expect);
        assert_eq!(m.len(), 1);
        m.check_canonical().unwrap();
    }

    #[test]
    fn splice_with_different_content_keeps_seams_split() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 8, 0x8000));
        let rep = vec![annotated(0x3000, 1, OwnerId::HYP)];
        let expect = splice_naive(&m, 0x3000, 2, &rep);
        m.splice(0x3000, 2, rep);
        assert_eq!(m, expect);
        // Left part, annotation, hole, right part.
        assert_eq!(m.len(), 3);
        assert!(m.lookup(0x4000).is_none());
        m.check_canonical().unwrap();
    }

    #[test]
    fn splice_empty_replacement_is_remove() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 4, 0x8000));
        let expect = splice_naive(&m, 0x2000, 2, &[]);
        m.splice(0x2000, 2, Vec::new());
        assert_eq!(m, expect);
        assert_eq!(m.nr_pages(), 2);
        m.check_canonical().unwrap();
    }

    #[test]
    fn splice_into_empty_and_at_the_edges() {
        let mut m = Mapping::new();
        m.splice(0x1000, 4, vec![mapped(0x2000, 1, 0x9000)]);
        assert_eq!(m.len(), 1);
        m.check_canonical().unwrap();
        // At the low edge, coalescing with nothing on the left.
        m.splice(0x0, 2, vec![mapped(0x1000, 1, 0x8000)]);
        // At the high edge beyond everything present.
        m.splice(0x10_0000, 2, vec![mapped(0x10_0000, 2, 0xb000)]);
        m.check_canonical().unwrap();
        assert_eq!(m.nr_pages(), 4);
    }

    #[test]
    fn clones_share_storage_until_mutated() {
        let mut a = Mapping::new();
        a.insert(mapped(0x1000, 4, 0x8000));
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.maplets, &b.maplets));
        assert_eq!(a, b);
        // A no-op remove keeps the sharing; a real mutation diverges only
        // the mutated copy.
        a.remove(0x9000, 2);
        assert!(Arc::ptr_eq(&a.maplets, &b.maplets));
        a.insert(annotated(0x2000, 1, OwnerId::HYP));
        assert!(!Arc::ptr_eq(&a.maplets, &b.maplets));
        assert_ne!(a, b);
        assert_eq!(b.nr_pages(), 4);
        assert_eq!(b.len(), 1);
        a.check_canonical().unwrap();
        b.check_canonical().unwrap();
    }

    #[test]
    fn empty_mappings_do_not_allocate_distinct_storage() {
        let a = Mapping::new();
        let b = Mapping::default();
        assert!(Arc::ptr_eq(&a.maplets, &b.maplets));
        assert_eq!(a, b);
    }

    #[test]
    fn splice_leaves_storage_shared_when_nothing_changes() {
        let mut a = Mapping::new();
        a.insert(mapped(0x1000, 4, 0x8000));
        let b = a.clone();
        // Re-splicing the content already there is not a mutation.
        a.splice(0x2000, 1, vec![mapped(0x2000, 1, 0x9000)]);
        assert!(Arc::ptr_eq(&a.maplets, &b.maplets));
        a.splice(0x2000, 1, vec![mapped(0x2000, 1, 0xf000)]);
        assert!(!Arc::ptr_eq(&a.maplets, &b.maplets));
        assert_eq!(b.len(), 1);
        a.check_canonical().unwrap();
    }

    #[test]
    fn clipped_yields_the_window_of_each_overlapping_maplet() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 4, 0x8000));
        m.insert(annotated(0x6000, 2, OwnerId::HYP));
        let w: Vec<Maplet> = m.clipped(0x3000, 4).collect();
        assert_eq!(
            w,
            vec![
                mapped(0x3000, 2, 0xa000),
                annotated(0x6000, 1, OwnerId::HYP)
            ]
        );
        assert_eq!(m.clipped(0x10000, 4).count(), 0);
    }

    #[test]
    fn splice_zero_pages_is_a_no_op() {
        let mut m = Mapping::new();
        m.insert(mapped(0x1000, 2, 0x8000));
        let before = m.clone();
        m.splice(0x1000, 0, Vec::new());
        assert_eq!(m, before);
    }
}
