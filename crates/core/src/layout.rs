//! LLC way-mask layout management.
//!
//! Intel CAT masks must be contiguous, so repeated grow/shrink cycles
//! fragment the way space: shrinking a middle service leaves a hole no
//! contiguous mask can combine with the free tail. The original OSML
//! userspace daemon reprograms all classes of service when it reallocates;
//! we model that as **repacking**: slide every service's mask (preserving
//! deliberate overlaps between sharing services) so the free ways form one
//! contiguous run at the top of the cache.

use osml_platform::{Allocation, AppId, PlatformError, Substrate, WayMask};

/// What a repack did: every mask it reprogrammed (with its pre/post
/// [`Allocation`], so each silent neighbour move can be logged as a
/// decision event), plus the error that stopped it early, if any. Moves
/// already applied before an error stay applied — exactly the substrate
/// state a caller that ignores the error is left with — so the outcome
/// reports them either way.
#[derive(Debug, Clone, Default)]
pub(crate) struct RepackOutcome {
    /// `(app, pre, post)` for every mask actually reprogrammed, in
    /// application order.
    pub moves: Vec<(AppId, Allocation, Allocation)>,
    /// The reallocation failure that aborted the repack, if any.
    pub error: Option<PlatformError>,
}

/// Repacks all way masks so free ways form one contiguous run at the high
/// end of the LLC. Overlapping masks (deliberate sharing, Algorithm 4) are
/// moved as one rigid group, preserving their relative overlap. Apps whose
/// mask does not move are not reprogrammed.
///
/// `last`'s overlap group, if given, goes at the high end of the packed
/// region, adjacent to the free run — so a subsequent `resized(+n)` growth
/// of `last`'s mask lands on free ways. Returns the full [`RepackOutcome`],
/// so callers can emit a decision event for every neighbour the repack
/// moved; a reallocation failure (which should not occur for valid
/// repacks) stops it early and is reported there.
pub(crate) fn repack_ways_with_last<S: Substrate>(
    server: &mut S,
    last: Option<AppId>,
) -> RepackOutcome {
    let apps = server.apps();
    // Build overlap groups (connected components of mask overlap). Masks
    // are contiguous, so a component occupies a contiguous span.
    let masks: Vec<(AppId, WayMask)> =
        apps.iter().filter_map(|&id| server.allocation(id).map(|a| (id, a.ways))).collect();
    let mut group_of: Vec<usize> = (0..masks.len()).collect();
    // Union-find (tiny n: path compression unnecessary but cheap).
    fn find(g: &mut [usize], i: usize) -> usize {
        let mut r = i;
        while g[r] != r {
            r = g[r];
        }
        let mut i = i;
        while g[i] != r {
            let next = g[i];
            g[i] = r;
            i = next;
        }
        r
    }
    for i in 0..masks.len() {
        for j in (i + 1)..masks.len() {
            if masks[i].1.overlaps(masks[j].1) {
                let (ri, rj) = (find(&mut group_of, i), find(&mut group_of, j));
                group_of[ri] = rj;
            }
        }
    }
    // Collect groups with their span and members, keyed by root.
    let roots: Vec<usize> = (0..masks.len()).map(|i| find(&mut group_of, i)).collect();
    let mut by_root: std::collections::BTreeMap<usize, (usize, usize, Vec<usize>)> =
        std::collections::BTreeMap::new();
    for (i, &root) in roots.iter().enumerate() {
        let entry =
            by_root.entry(root).or_insert((masks[i].1.first(), masks[i].1.end(), Vec::new()));
        entry.0 = entry.0.min(masks[i].1.first());
        entry.1 = entry.1.max(masks[i].1.end());
        entry.2.push(i);
    }
    let mut groups: Vec<(usize, usize, Vec<usize>)> = by_root.into_values().collect();
    // Order groups by current start; move `last`'s group to the end.
    groups.sort_by_key(|&(start, _, _)| start);
    if let Some(last_id) = last {
        if let Some(pos) =
            groups.iter().position(|(_, _, members)| members.iter().any(|&m| masks[m].0 == last_id))
        {
            let g = groups.remove(pos);
            groups.push(g);
        }
    }
    // Assign new starts, packed from way 0, and shift members rigidly.
    let mut outcome = RepackOutcome::default();
    let mut cursor = 0usize;
    for (start, end, members) in groups {
        let shift = cursor as i64 - start as i64;
        for &m in &members {
            let (id, mask) = masks[m];
            if shift != 0 {
                let new_first = (mask.first() as i64 + shift) as usize;
                let new_mask = WayMask::contiguous(new_first, mask.count())
                    .expect("shifted mask stays in range");
                let pre = server.allocation(id).expect("app is placed");
                let mut alloc = pre;
                alloc.ways = new_mask;
                if let Err(e) = server.reallocate(id, alloc) {
                    outcome.error = Some(e);
                    return outcome;
                }
                outcome.moves.push((id, pre, alloc));
            }
        }
        cursor += end - start;
    }
    outcome
}

/// Number of ways that would be free and contiguous after a repack: the
/// machine's ways minus the union footprint of all current masks.
pub(crate) fn free_way_run_after_repack<S: Substrate>(
    server: &mut S,
    except: Option<AppId>,
) -> usize {
    let total = server.topology().llc_ways();
    let used = server.occupied_ways(except).count_ones() as usize;
    total.saturating_sub(used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osml_platform::{Allocation, CoreSet, MbaThrottle, Substrate};
    use osml_workloads::{LaunchSpec, Service, SimServer};

    /// The number of masks a whole-LLC repack reprogrammed, or its error.
    fn repack_ways<S: Substrate>(server: &mut S) -> Result<usize, PlatformError> {
        let outcome = repack_ways_with_last(server, None);
        match outcome.error {
            Some(e) => Err(e),
            None => Ok(outcome.moves.len()),
        }
    }

    fn alloc(cores: std::ops::Range<usize>, first_way: usize, ways: usize) -> Allocation {
        Allocation::new(
            CoreSet::from_cores(cores),
            WayMask::contiguous(first_way, ways).unwrap(),
            MbaThrottle::unthrottled(),
        )
    }

    fn ways_of<S: Substrate>(server: &S, id: AppId) -> (usize, usize) {
        let m = server.allocation(id).unwrap().ways;
        (m.first(), m.count())
    }

    #[test]
    fn repack_closes_holes() {
        let mut s = SimServer::deterministic();
        let a = s.launch(LaunchSpec::new(Service::Login, 300.0), alloc(0..2, 0, 4)).unwrap();
        let b = s.launch(LaunchSpec::new(Service::Ads, 100.0), alloc(2..4, 8, 4)).unwrap();
        // Hole at ways 4..8; free tail 12..20 => run of 4 + 8 but fragmented.
        assert!(s.find_free_ways(10, None).is_none());
        let n = repack_ways(&mut s).unwrap();
        assert_eq!(n, 1, "only the second mask needed to move");
        assert_eq!(ways_of(&s, a), (0, 4));
        assert_eq!(ways_of(&s, b), (4, 4));
        // Now 12 contiguous ways are free.
        let free = s.find_free_ways(12, None).unwrap();
        assert_eq!(free.first(), 8);
    }

    #[test]
    fn repack_preserves_sharing_overlap() {
        let mut s = SimServer::deterministic();
        // a and b share ways 6..10 (deliberate Algorithm-4 sharing).
        let a = s.launch(LaunchSpec::new(Service::Login, 300.0), alloc(0..2, 4, 6)).unwrap();
        let b = s.launch(LaunchSpec::new(Service::Ads, 100.0), alloc(2..4, 6, 8)).unwrap();
        repack_ways(&mut s).unwrap();
        let (fa, ca) = ways_of(&s, a);
        let (fb, cb) = ways_of(&s, b);
        assert_eq!((ca, cb), (6, 8), "sizes unchanged");
        // Relative offset preserved: b starts 2 ways after a.
        assert_eq!(fb - fa, 2);
        assert_eq!(fa, 0, "group packed to the left edge");
    }

    #[test]
    fn repack_with_last_puts_target_next_to_free_space() {
        let mut s = SimServer::deterministic();
        let a = s.launch(LaunchSpec::new(Service::Login, 300.0), alloc(0..2, 0, 5)).unwrap();
        let b = s.launch(LaunchSpec::new(Service::Ads, 100.0), alloc(2..4, 10, 5)).unwrap();
        let outcome = repack_ways_with_last(&mut s, Some(a));
        assert!(outcome.error.is_none());
        assert!(!outcome.moves.is_empty(), "repack reports the masks it moved");
        let (fa, _) = ways_of(&s, a);
        let (fb, _) = ways_of(&s, b);
        assert!(fa > fb, "a should now sit after b, adjacent to the free tail");
        // Growing a by 5 ways must not overlap b.
        let grown = s.allocation(a).unwrap().ways.resized(5, 20);
        assert!(!grown.overlaps(s.allocation(b).unwrap().ways));
    }

    #[test]
    fn free_run_counts_union_once() {
        let mut s = SimServer::deterministic();
        let _a = s.launch(LaunchSpec::new(Service::Login, 300.0), alloc(0..2, 0, 6)).unwrap();
        let b = s.launch(LaunchSpec::new(Service::Ads, 100.0), alloc(2..4, 3, 6)).unwrap();
        // Union 0..9 => 11 free.
        assert_eq!(free_way_run_after_repack(&mut s, None), 11);
        assert_eq!(free_way_run_after_repack(&mut s, Some(b)), 14);
    }

    #[test]
    fn repack_on_empty_server_is_a_noop() {
        let mut s = SimServer::deterministic();
        assert_eq!(repack_ways(&mut s).unwrap(), 0);
    }
}
