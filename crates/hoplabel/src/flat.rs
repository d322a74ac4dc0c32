//! Flat **CSR-slab codec** for label sets — the `kosr-index` snapshot's
//! building block.
//!
//! Where [`crate::codec`] writes each set length-prefixed (forcing the
//! decoder to walk entry by entry), this module lays a whole family of
//! sets out as three contiguous arenas addressed by one offset array:
//!
//! ```text
//! offsets : (n+1) × u64    prefix sums; offsets[0] = 0, offsets[n] = tot
//! hubs    : tot × u32      row i = hubs[offsets[i]..offsets[i+1]]
//! dists   : tot × u64      parallel to hubs
//! ```
//!
//! Decoding is a bounds-checked reinterpretation: validate the offsets and
//! row invariants in one no-allocation pass, then slice each row straight
//! into a [`LabelSet`] — no per-entry inserts, no sorting (rows are
//! written hub-sorted and the validator refuses anything else).

use bytes::BufMut;
use kosr_graph::{VertexId, Weight};

use crate::label::LabelSet;

/// Why a label slab could not be decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatError {
    /// The region ended before its declared contents.
    Truncated,
    /// The contents break a slab invariant (non-monotone offsets,
    /// unsorted rows, out-of-range hub ids).
    Corrupt(&'static str),
}

impl std::fmt::Display for FlatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlatError::Truncated => write!(f, "label slab truncated"),
            FlatError::Corrupt(what) => write!(f, "corrupt label slab: {what}"),
        }
    }
}

impl std::error::Error for FlatError {}

/// Total entries across `sets` (the `tot` a slab header must declare).
pub fn entry_count<'a>(sets: impl IntoIterator<Item = &'a LabelSet>) -> u64 {
    sets.into_iter().map(|s| s.len() as u64).sum()
}

/// Byte length of one slab group over `n` sets with `tot` total entries;
/// `None` when the arithmetic overflows `usize` (a lying header on a
/// 32-bit host) — callers refuse before allocating.
pub fn slab_len(n: usize, tot: u64) -> Option<usize> {
    let offsets = n.checked_add(1)?.checked_mul(8)?;
    let tot = usize::try_from(tot).ok()?;
    let entries = tot.checked_mul(12)?;
    offsets.checked_add(entries)
}

/// Appends the slab encoding of `sets` to `out`. Takes any re-walkable
/// family of sets (a slice, or sets reached through per-set `Arc`s): the
/// three arenas are written in three passes.
pub fn encode_sets<'a, I>(sets: I, out: &mut Vec<u8>)
where
    I: IntoIterator<Item = &'a LabelSet>,
    I::IntoIter: Clone,
{
    let sets = sets.into_iter();
    let mut off = 0u64;
    out.put_u64_le(0);
    for s in sets.clone() {
        off += s.len() as u64;
        out.put_u64_le(off);
    }
    for s in sets.clone() {
        for (h, _) in s.iter() {
            out.put_u32_le(h.0);
        }
    }
    for s in sets {
        for (_, d) in s.iter() {
            out.put_u64_le(d);
        }
    }
}

#[inline]
fn read_u64(region: &[u8], idx: usize) -> u64 {
    let b: [u8; 8] = region[idx * 8..idx * 8 + 8].try_into().unwrap();
    u64::from_le_bytes(b)
}

#[inline]
fn read_u32(region: &[u8], idx: usize) -> u32 {
    let b: [u8; 4] = region[idx * 4..idx * 4 + 4].try_into().unwrap();
    u32::from_le_bytes(b)
}

/// Validates one slab group without allocating: `region` must be exactly
/// [`slab_len`]`(n, tot)` bytes whose offsets are monotone, start at 0,
/// end at `tot`, and whose rows hold strictly increasing hub ids below
/// `hub_bound`. Total on adversarial bytes.
pub fn validate_sets(n: usize, tot: u64, hub_bound: u32, region: &[u8]) -> Result<(), FlatError> {
    let expect = slab_len(n, tot).ok_or(FlatError::Truncated)?;
    if region.len() < expect {
        return Err(FlatError::Truncated);
    }
    if region.len() > expect {
        return Err(FlatError::Corrupt("label slab has trailing bytes"));
    }
    let offsets = &region[..(n + 1) * 8];
    let hubs = &region[(n + 1) * 8..(n + 1) * 8 + tot as usize * 4];
    if read_u64(offsets, 0) != 0 {
        return Err(FlatError::Corrupt("label offsets do not start at 0"));
    }
    if read_u64(offsets, n) != tot {
        return Err(FlatError::Corrupt("label offsets do not end at the total"));
    }
    let mut prev_off = 0u64;
    for i in 0..n {
        let next = read_u64(offsets, i + 1);
        if next < prev_off {
            return Err(FlatError::Corrupt("label offsets decrease"));
        }
        if next > tot {
            return Err(FlatError::Corrupt("label offset exceeds the total"));
        }
        let mut prev_hub: Option<u32> = None;
        for e in prev_off as usize..next as usize {
            let h = read_u32(hubs, e);
            if h >= hub_bound {
                return Err(FlatError::Corrupt("label hub out of range"));
            }
            if prev_hub.is_some_and(|p| p >= h) {
                return Err(FlatError::Corrupt("label row not strictly hub-sorted"));
            }
            prev_hub = Some(h);
        }
        prev_off = next;
    }
    Ok(())
}

/// Slices a validated slab group back into owned [`LabelSet`]s. Callers
/// run [`validate_sets`] first; this pass only copies (bounds-checked
/// slicing keeps even a skipped validation panic-free via the length
/// check here).
pub fn decode_sets(n: usize, tot: u64, region: &[u8]) -> Result<Vec<LabelSet>, FlatError> {
    let expect = slab_len(n, tot).ok_or(FlatError::Truncated)?;
    if region.len() != expect {
        return Err(FlatError::Truncated);
    }
    let tot = tot as usize;
    let offsets = &region[..(n + 1) * 8];
    let hubs = &region[(n + 1) * 8..(n + 1) * 8 + tot * 4];
    let dists = &region[(n + 1) * 8 + tot * 4..];
    let mut sets = Vec::with_capacity(n);
    let mut lo = 0usize;
    for i in 0..n {
        let hi = read_u64(offsets, i + 1);
        let hi = usize::try_from(hi)
            .ok()
            .filter(|&hi| hi >= lo && hi <= tot)
            .ok_or(FlatError::Corrupt("label offsets decrease"))?;
        let row_hubs: Vec<VertexId> = hubs[lo * 4..hi * 4]
            .chunks_exact(4)
            .map(|b| VertexId(u32::from_le_bytes(b.try_into().unwrap())))
            .collect();
        let row_dists: Vec<Weight> = dists[lo * 8..hi * 8]
            .chunks_exact(8)
            .map(|b| Weight::from_le_bytes(b.try_into().unwrap()))
            .collect();
        sets.push(LabelSet {
            hubs: row_hubs,
            dists: row_dists,
        });
        lo = hi;
    }
    Ok(sets)
}

/// Decodes one slab group in a **single pass**, checking as it copies:
/// offsets must be monotone and span `[0, tot]`, every row strictly
/// hub-sorted below `hub_bound`. Equivalent to [`validate_sets`] followed
/// by [`decode_sets`] at one walk of the region instead of two — the
/// snapshot install path's variant. Total on adversarial bytes.
pub fn decode_sets_checked(
    n: usize,
    tot: u64,
    hub_bound: u32,
    region: &[u8],
) -> Result<Vec<LabelSet>, FlatError> {
    let expect = slab_len(n, tot).ok_or(FlatError::Truncated)?;
    if region.len() < expect {
        return Err(FlatError::Truncated);
    }
    if region.len() > expect {
        return Err(FlatError::Corrupt("label slab has trailing bytes"));
    }
    let tot = tot as usize;
    let offsets = &region[..(n + 1) * 8];
    let hubs = &region[(n + 1) * 8..(n + 1) * 8 + tot * 4];
    let dists = &region[(n + 1) * 8 + tot * 4..];
    if read_u64(offsets, 0) != 0 {
        return Err(FlatError::Corrupt("label offsets do not start at 0"));
    }
    if read_u64(offsets, n) != tot as u64 {
        return Err(FlatError::Corrupt("label offsets do not end at the total"));
    }
    let mut sets = Vec::with_capacity(n);
    let mut lo = 0usize;
    for i in 0..n {
        let hi = read_u64(offsets, i + 1);
        let hi = usize::try_from(hi)
            .ok()
            .filter(|&hi| hi >= lo && hi <= tot)
            .ok_or(FlatError::Corrupt("label offsets decrease"))?;
        let row_hubs: Vec<VertexId> = hubs[lo * 4..hi * 4]
            .chunks_exact(4)
            .map(|b| VertexId(u32::from_le_bytes(b.try_into().unwrap())))
            .collect();
        // Strict ascent plus a bound on the last element covers every
        // element's bound in one cache-warm sweep of the freshly copied row.
        if row_hubs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FlatError::Corrupt("label row not strictly hub-sorted"));
        }
        if row_hubs.last().is_some_and(|h| h.0 >= hub_bound) {
            return Err(FlatError::Corrupt("label hub out of range"));
        }
        let row_dists: Vec<Weight> = dists[lo * 8..hi * 8]
            .chunks_exact(8)
            .map(|b| Weight::from_le_bytes(b.try_into().unwrap()))
            .collect();
        sets.push(LabelSet {
            hubs: row_hubs,
            dists: row_dists,
        });
        lo = hi;
    }
    Ok(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::HopLabels;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn sample() -> Vec<LabelSet> {
        let mut l = HopLabels::empty(4);
        l.lin_mut(v(0)).insert(v(0), 0);
        l.lin_mut(v(1)).insert(v(0), 5);
        l.lin_mut(v(1)).insert(v(3), 2);
        l.lin_mut(v(3)).insert(v(2), 7);
        l.lin.clone()
    }

    #[test]
    fn roundtrip() {
        let sets = sample();
        let tot = entry_count(&sets);
        let mut buf = Vec::new();
        encode_sets(&sets, &mut buf);
        assert_eq!(buf.len(), slab_len(sets.len(), tot).unwrap());
        validate_sets(sets.len(), tot, 4, &buf).unwrap();
        let back = decode_sets(sets.len(), tot, &buf).unwrap();
        assert_eq!(back, sets);
    }

    #[test]
    fn truncation_and_trailing_rejected() {
        let sets = sample();
        let tot = entry_count(&sets);
        let mut buf = Vec::new();
        encode_sets(&sets, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                validate_sets(sets.len(), tot, 4, &buf[..cut]),
                Err(FlatError::Truncated),
                "cut={cut}"
            );
        }
        buf.push(0);
        assert!(matches!(
            validate_sets(sets.len(), tot, 4, &buf),
            Err(FlatError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_offsets_and_hubs_rejected() {
        let sets = sample();
        let tot = entry_count(&sets);
        let mut buf = Vec::new();
        encode_sets(&sets, &mut buf);
        // Offsets must start at zero.
        let mut bad = buf.clone();
        bad[..8].copy_from_slice(&1u64.to_le_bytes());
        assert!(matches!(
            validate_sets(sets.len(), tot, 4, &bad),
            Err(FlatError::Corrupt(_))
        ));
        // Decreasing offsets.
        let mut bad = buf.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            validate_sets(sets.len(), tot, 4, &bad),
            Err(FlatError::Corrupt(_))
        ));
        // Out-of-range hub.
        let hub_base = (sets.len() + 1) * 8;
        let mut bad = buf.clone();
        bad[hub_base..hub_base + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            validate_sets(sets.len(), tot, 4, &bad),
            Err(FlatError::Corrupt("label hub out of range"))
        );
        // Unsorted row: vertex 1's two hubs swapped.
        let mut bad = buf;
        let (a, b) = (hub_base + 4, hub_base + 8);
        let tmp: [u8; 4] = bad[a..a + 4].try_into().unwrap();
        bad.copy_within(b..b + 4, a);
        bad[b..b + 4].copy_from_slice(&tmp);
        assert_eq!(
            validate_sets(sets.len(), tot, 4, &bad),
            Err(FlatError::Corrupt("label row not strictly hub-sorted"))
        );
    }

    #[test]
    fn checked_decode_matches_validate_then_decode() {
        let sets = sample();
        let tot = entry_count(&sets);
        let mut buf = Vec::new();
        encode_sets(&sets, &mut buf);
        // Agreement on the happy path…
        assert_eq!(decode_sets_checked(sets.len(), tot, 4, &buf).unwrap(), sets);
        // …on truncation at every cut…
        for cut in 0..buf.len() {
            assert_eq!(
                decode_sets_checked(sets.len(), tot, 4, &buf[..cut]),
                Err(FlatError::Truncated),
                "cut={cut}"
            );
        }
        // …and on every single-byte corruption: wherever the two-pass
        // pipeline refuses, the fused pass refuses too (and vice versa).
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0xFF;
            let two_pass = validate_sets(sets.len(), tot, 4, &bad)
                .and_then(|()| decode_sets(sets.len(), tot, &bad));
            let fused = decode_sets_checked(sets.len(), tot, 4, &bad);
            assert_eq!(fused.is_ok(), two_pass.is_ok(), "pos={pos}");
            if let (Ok(a), Ok(b)) = (&fused, &two_pass) {
                assert_eq!(a, b, "pos={pos}");
            }
        }
    }

    #[test]
    fn lying_totals_refused_before_allocating() {
        // A slab claiming u64::MAX entries must fail the length check, not
        // drive an allocation.
        assert_eq!(slab_len(4, u64::MAX), None);
        assert_eq!(
            validate_sets(4, u64::MAX, 4, &[0u8; 64]),
            Err(FlatError::Truncated)
        );
        assert_eq!(
            decode_sets(4, u64::MAX, &[0u8; 64]),
            Err(FlatError::Truncated)
        );
        assert_eq!(
            decode_sets_checked(4, u64::MAX, 4, &[0u8; 64]),
            Err(FlatError::Truncated)
        );
    }

    #[test]
    fn empty_family_roundtrips() {
        let sets: Vec<LabelSet> = Vec::new();
        let mut buf = Vec::new();
        encode_sets(&sets, &mut buf);
        assert_eq!(buf.len(), 8);
        validate_sets(0, 0, 0, &buf).unwrap();
        assert_eq!(decode_sets(0, 0, &buf).unwrap(), sets);
    }

    #[test]
    fn errors_render() {
        assert!(FlatError::Truncated.to_string().contains("truncated"));
        assert!(FlatError::Corrupt("x").to_string().contains('x'));
    }
}
