//! The paper's "splitting the vector into evenly-sized tasks" (Sec. VI-C):
//! the range arithmetic every chunked kernel feeds to
//! [`crate::scope_collect`] / [`crate::scope_with_buffers`].

use std::ops::Range;

/// Split `range` into at most `pieces` contiguous sub-ranges whose lengths
/// differ by at most one. Empty sub-ranges are never produced.
pub fn split_evenly(range: Range<usize>, pieces: usize) -> Vec<Range<usize>> {
    let len = range.end.saturating_sub(range.start);
    if len == 0 || pieces == 0 {
        return Vec::new();
    }
    let pieces = pieces.min(len);
    let base = len / pieces;
    let extra = len % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = range.start;
    for i in 0..pieces {
        let sz = base + usize::from(i < extra);
        out.push(start..start + sz);
        start += sz;
    }
    debug_assert_eq!(start, range.end);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_evenly_basic() {
        let parts = split_evenly(0..10, 3);
        assert_eq!(parts, vec![0..4, 4..7, 7..10]);
    }

    #[test]
    fn split_evenly_more_pieces_than_items() {
        let parts = split_evenly(5..8, 10);
        assert_eq!(parts, vec![5..6, 6..7, 7..8]);
    }

    #[test]
    fn split_evenly_empty() {
        assert!(split_evenly(3..3, 4).is_empty());
        assert!(split_evenly(0..10, 0).is_empty());
    }

    #[test]
    fn split_evenly_covers_range_exactly() {
        for len in 0..50 {
            for pieces in 1..10 {
                let parts = split_evenly(0..len, pieces);
                let total: usize = parts.iter().map(|r| r.len()).sum();
                assert_eq!(total, len);
                let mut cursor = 0;
                for p in &parts {
                    assert_eq!(p.start, cursor);
                    assert!(!p.is_empty());
                    cursor = p.end;
                }
            }
        }
    }
}
