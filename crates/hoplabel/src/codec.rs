//! Binary serialization of single label sets — the record format of the
//! per-category disk-resident layout used by the SK-DB method (§IV-C,
//! "disk-based query answering"). Whole indexes travel as the slabs of
//! [`crate::flat`].
//!
//! Layout (little endian):
//! ```text
//! set: u32 len, then len × (u32 hub, u64 dist)
//! ```

use bytes::{Buf, BufMut};
use kosr_graph::{VertexId, Weight};

use crate::label::LabelSet;

/// Errors produced while decoding a label set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the declared contents.
    Truncated,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends one label set to `buf`.
pub fn encode_label_set(set: &LabelSet, buf: &mut Vec<u8>) {
    buf.put_u32_le(set.len() as u32);
    for (h, d) in set.iter() {
        buf.put_u32_le(h.0);
        buf.put_u64_le(d);
    }
}

/// Reads one label set from `buf` (advancing it).
pub fn decode_label_set(buf: &mut &[u8]) -> Result<LabelSet, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len * 12 {
        return Err(CodecError::Truncated);
    }
    let mut set = LabelSet::default();
    for _ in 0..len {
        let hub = VertexId(buf.get_u32_le());
        let dist: Weight = buf.get_u64_le();
        set.push_unsorted(hub, dist);
    }
    // Sets are written sorted; keep the invariant even for hand-crafted input.
    set.sort_by_hub();
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn label_sets_roundtrip_back_to_back() {
        let mut a = LabelSet::default();
        a.insert(v(0), 0);
        a.insert(v(1), 5);
        let b = LabelSet::default();
        let mut buf = Vec::new();
        encode_label_set(&a, &mut buf);
        encode_label_set(&b, &mut buf);
        let mut cursor = buf.as_slice();
        assert_eq!(decode_label_set(&mut cursor).unwrap(), a);
        assert_eq!(decode_label_set(&mut cursor).unwrap(), b);
        assert!(cursor.is_empty());
    }

    #[test]
    fn truncation_rejected() {
        let mut a = LabelSet::default();
        a.insert(v(0), 0);
        a.insert(v(1), 5);
        let mut buf = Vec::new();
        encode_label_set(&a, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                decode_label_set(&mut &buf[..cut]),
                Err(CodecError::Truncated),
                "cut={cut}"
            );
        }
    }
}
