//! The typed refusals of the shard **snapshot** blob — the one
//! self-contained binary artifact ([`crate::arena`]) a cold replica
//! installs instead of redoing the expensive preprocessing of Table IX.
//!
//! Decoding is **total**: arbitrary (corrupt, truncated, adversarial) input
//! produces a typed [`SnapshotError`], never a panic — the snapshot fuzz
//! suite enforces this.

use crate::arena::FLAT_SNAPSHOT_VERSION;

pub(crate) const MAGIC: &[u8; 8] = b"KOSRSNP\0";

/// Why a snapshot blob could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The magic header is absent or wrong.
    BadMagic,
    /// The version byte names a format this build does not understand.
    UnsupportedVersion {
        /// The version byte found in the blob.
        found: u8,
    },
    /// The blob ended before its declared contents.
    Truncated,
    /// The contents are internally inconsistent (out-of-range ids, bad
    /// UTF-8 names, trailing bytes, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {FLAT_SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains('9'));
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        assert!(SnapshotError::Corrupt("x").to_string().contains('x'));
    }
}
