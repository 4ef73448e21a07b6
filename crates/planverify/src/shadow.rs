//! The tile-granular conflict predicate shared by the static verifier and
//! SimSan's dynamic shadow memory.
//!
//! Mappings model a tile's packed writes at sub-tile granularity — one
//! interval per destination subtile for ReduceScatter, one per token row
//! for All-to-All — but the GEMM epilogue *stores the whole tile* as one
//! reordered burst. The modelled sub-ranges therefore under-approximate
//! the store's true footprint, and a pure range-intersection test misses
//! the partial-overlap case: two unsynchronized accesses to *different
//! sub-ranges of the same tile* share the real footprint and race, even
//! though their modelled element ranges are disjoint.
//!
//! [`may_conflict`] closes that gap: accesses that both name a tile
//! conflict exactly when it is the *same* tile (whole-slot atomicity);
//! everything else falls back to element-range intersection. Different
//! tiles with disjoint ranges stay conflict-free, so the predicate is
//! still element-granular — it sharpens, not widens, where tile identity
//! is known.

/// Whether two half-open element ranges `[a_start, a_end)` and
/// `[b_start, b_end)` intersect. Empty ranges intersect nothing.
pub fn ranges_overlap(a_start: usize, a_end: usize, b_start: usize, b_end: usize) -> bool {
    a_start < a_end && b_start < b_end && a_start < b_end && b_start < a_end
}

/// Whether two accesses may touch the same memory, given each access's
/// tile attribution (when it belongs to one reordered GEMM tile) and its
/// modelled element range.
///
/// Same-tile accesses conflict regardless of modelled range disjointness
/// (the epilogue writes the tile's slot as one unit); otherwise element
/// ranges decide. Callers still filter by access kind — this predicate
/// only answers the *footprint* question.
pub fn may_conflict(
    a_tile: Option<u32>,
    a_start: usize,
    a_end: usize,
    b_tile: Option<u32>,
    b_start: usize,
    b_end: usize,
) -> bool {
    match (a_tile, b_tile) {
        // Same tile: the true footprint is the whole tile slot, so any
        // two non-empty accesses collide.
        (Some(a), Some(b)) if a == b => a_start < a_end && b_start < b_end,
        _ => ranges_overlap(a_start, a_end, b_start, b_end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_ranges_do_not_overlap() {
        assert!(!ranges_overlap(0, 4, 4, 8));
        assert!(!ranges_overlap(4, 8, 0, 4));
        assert!(ranges_overlap(0, 5, 4, 8));
        assert!(!ranges_overlap(0, 0, 0, 8), "empty range hits nothing");
        assert!(
            !ranges_overlap(5, 5, 0, 8),
            "an empty range strictly inside another still hits nothing"
        );
        assert!(!ranges_overlap(0, 8, 5, 5));
    }

    #[test]
    fn same_tile_conflicts_despite_disjoint_ranges() {
        // The partial-overlap case the range intersection provably
        // misses: both sub-ranges belong to tile 3, ranges disjoint.
        assert!(!ranges_overlap(0, 4, 8, 12));
        assert!(may_conflict(Some(3), 0, 4, Some(3), 8, 12));
    }

    #[test]
    fn different_tiles_fall_back_to_ranges() {
        assert!(!may_conflict(Some(1), 0, 4, Some(2), 8, 12));
        assert!(may_conflict(Some(1), 0, 6, Some(2), 4, 8));
    }

    #[test]
    fn untiled_accesses_use_ranges() {
        assert!(may_conflict(None, 0, 6, Some(2), 4, 8));
        assert!(!may_conflict(None, 0, 4, None, 4, 8));
    }

    #[test]
    fn empty_same_tile_access_is_no_conflict() {
        assert!(!may_conflict(Some(5), 2, 2, Some(5), 0, 8));
    }
}
