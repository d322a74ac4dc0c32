//! The **flat-arena snapshot codec** — the only snapshot blob: the whole
//! index — graph CSR, 2-hop labels, category tables and the inverted label
//! indexes — laid out as offset-addressed slabs so a cold replica's
//! install is O(bytes) of bounds-checked reinterpretation, with no rebuild
//! of any kind (no per-edge builder inserts, no per-entry label inserts,
//! no inverted-index grouping pass). The category-pair lower-bound tables
//! are not shipped: an index builds them on demand
//! ([`crate::BoundTables`]).
//!
//! Layout (little endian; all counts `u64`):
//! ```text
//! magic            : 8 bytes = b"KOSRSNP\0"
//! version          : u8 = 3
//! counts           : 9 × u64 — n, m, ncats, lin_tot, lout_tot,
//!                    name_tot, memb_tot, hub_tot, inv_tot
//! edge_offsets     : (n+1) × u32          CSR prefix sums
//! edge_targets     : m × u32              rows strictly increasing
//! edge_weights     : m × u64
//! lin slab         : (n+1)×u64 + lin_tot×(u32 hub + u64 dist)   [`flat`]
//! lout slab        : (n+1)×u64 + lout_tot×(u32 + u64)
//! name_offsets     : (ncats+1) × u64
//! name_bytes       : name_tot bytes       UTF-8 per category
//! memb_offsets     : (ncats+1) × u64
//! memb_verts       : memb_tot × u32       strictly increasing per category
//! inv_cat_offsets  : (ncats+1) × u64      hubs per category
//! inv_hubs         : hub_tot × u32        strictly increasing per category
//! inv_list_offsets : (hub_tot+1) × u64    entries per hub list
//! inv_members      : inv_tot × u32
//! inv_dists        : inv_tot × u64        lists sorted by (dist, member)
//! ```
//!
//! [`FlatSnapshot::validate`] is **total** on adversarial bytes: the full
//! byte length is recomputed from the declared counts with checked
//! arithmetic and compared *before any allocation*, then every section
//! invariant is checked in one no-allocation pass. [`decode`] performs the
//! same checks while copying the slabs into owned structures — pure
//! slicing, no sorting, no grouping, no hash-map-per-entry work.
//!
//! [`flat`]: kosr_hoplabel::flat

use bytes::BufMut;
use kosr_graph::{CategoryId, CategoryTable, FxHashMap, Graph, VertexId, Weight};
use kosr_hoplabel::{flat, flat::FlatError, HopLabels};

use crate::inverted::{CategoryIndexSet, HubList, InvertedLabelIndex};
use crate::snapshot::{SnapshotError, MAGIC};

/// The snapshot format version byte. (Version 1 was a rebuild-on-install
/// format and version 2 shipped the lower-bound tables in a trailing
/// `LBND` section; blobs bearing either are refused as unsupported.)
pub const FLAT_SNAPSHOT_VERSION: u8 = 3;

/// Bytes before the first section: magic + version + 9 × u64 counts.
const HEADER_LEN: usize = 8 + 1 + 9 * 8;

impl From<FlatError> for SnapshotError {
    fn from(e: FlatError) -> SnapshotError {
        match e {
            FlatError::Truncated => SnapshotError::Truncated,
            FlatError::Corrupt(what) => SnapshotError::Corrupt(what),
        }
    }
}

/// The `(hub_tot, inv_tot)` counts a header declares for its
/// inverted-index arenas — the list and entry totals across every
/// category. Only meaningful for a blob that [`decode`] has already
/// accepted (the decode proves the header honest); callers use it to
/// report selectivity stats without re-walking the freshly built indexes.
/// `None` when the blob is too short to carry a full header.
pub fn blob_inverted_counts(bytes: &[u8]) -> Option<(u64, u64)> {
    let c = bytes.get(9..HEADER_LEN)?;
    Some((read_u64(c, 7), read_u64(c, 8)))
}

/// The nine declared section counts of a header.
#[derive(Clone, Copy, Debug)]
struct Counts {
    n: u64,
    m: u64,
    ncats: u64,
    lin_tot: u64,
    lout_tot: u64,
    name_tot: u64,
    memb_tot: u64,
    hub_tot: u64,
    inv_tot: u64,
}

impl Counts {
    /// Reads the nine counts from the `9 × u64` region behind the version
    /// byte.
    fn from_header(c: &[u8]) -> Counts {
        Counts {
            n: read_u64(c, 0),
            m: read_u64(c, 1),
            ncats: read_u64(c, 2),
            lin_tot: read_u64(c, 3),
            lout_tot: read_u64(c, 4),
            name_tot: read_u64(c, 5),
            memb_tot: read_u64(c, 6),
            hub_tot: read_u64(c, 7),
            inv_tot: read_u64(c, 8),
        }
    }

    /// Byte length of each section, in layout order. `None` when the
    /// arithmetic overflows — a lying header, refused before any
    /// allocation.
    fn section_lens(&self) -> Option<[usize; 14]> {
        let per = |count: u64, elem: u64| -> Option<usize> {
            usize::try_from(count.checked_mul(elem)?).ok()
        };
        let plus1 = |count: u64, elem: u64| per(count.checked_add(1)?, elem);
        Some([
            plus1(self.n, 4)?,                                             // edge_offsets
            per(self.m, 4)?,                                               // edge_targets
            per(self.m, 8)?,                                               // edge_weights
            flat::slab_len(usize::try_from(self.n).ok()?, self.lin_tot)?,  // lin
            flat::slab_len(usize::try_from(self.n).ok()?, self.lout_tot)?, // lout
            plus1(self.ncats, 8)?,                                         // name_offsets
            usize::try_from(self.name_tot).ok()?,                          // name_bytes
            plus1(self.ncats, 8)?,                                         // memb_offsets
            per(self.memb_tot, 4)?,                                        // memb_verts
            plus1(self.ncats, 8)?,                                         // inv_cat_offsets
            per(self.hub_tot, 4)?,                                         // inv_hubs
            plus1(self.hub_tot, 8)?,                                       // inv_list_offsets
            per(self.inv_tot, 4)?,                                         // inv_members
            per(self.inv_tot, 8)?,                                         // inv_dists
        ])
    }

    /// Length of the header plus the 14 sections implied by the counts:
    /// the whole blob.
    fn total_len(&self) -> Option<usize> {
        self.section_lens()?
            .iter()
            .try_fold(HEADER_LEN, |acc, &s| acc.checked_add(s))
    }
}

#[inline]
fn read_u32(region: &[u8], idx: usize) -> u32 {
    let b: [u8; 4] = region[idx * 4..idx * 4 + 4].try_into().unwrap();
    u32::from_le_bytes(b)
}

#[inline]
fn read_u64(region: &[u8], idx: usize) -> u64 {
    let b: [u8; 8] = region[idx * 8..idx * 8 + 8].try_into().unwrap();
    u64::from_le_bytes(b)
}

/// Checks that `offsets` (a `(k+1) × u64` prefix-sum region) starts at 0,
/// ends at `total`, and never decreases. Returns nothing beyond the typed
/// error — rows are walked by the caller.
fn check_offsets(offsets: &[u8], k: usize, total: u64) -> Result<(), SnapshotError> {
    if read_u64(offsets, 0) != 0 {
        return Err(SnapshotError::Corrupt("section offsets do not start at 0"));
    }
    if read_u64(offsets, k) != total {
        return Err(SnapshotError::Corrupt(
            "section offsets do not end at the declared total",
        ));
    }
    let mut prev = 0u64;
    for i in 1..=k {
        let next = read_u64(offsets, i);
        if next < prev || next > total {
            return Err(SnapshotError::Corrupt("section offsets not monotone"));
        }
        prev = next;
    }
    Ok(())
}

/// A validated zero-copy view over a snapshot blob.
///
/// Construction ([`FlatSnapshot::validate`]) is total: any byte string —
/// truncated, padded, bit-flipped, or adversarially crafted — yields a
/// typed [`SnapshotError`], never a panic and never an attacker-sized
/// allocation. Every accessor on a constructed view is a pure slice walk.
pub struct FlatSnapshot<'a> {
    n: usize,
    m: usize,
    ncats: usize,
    lin_tot: u64,
    lout_tot: u64,
    edge_offsets: &'a [u8],
    edge_targets: &'a [u8],
    edge_weights: &'a [u8],
    lin: &'a [u8],
    lout: &'a [u8],
    name_offsets: &'a [u8],
    name_bytes: &'a [u8],
    memb_offsets: &'a [u8],
    memb_verts: &'a [u8],
    inv_cat_offsets: &'a [u8],
    inv_hubs: &'a [u8],
    inv_list_offsets: &'a [u8],
    inv_members: &'a [u8],
    inv_dists: &'a [u8],
}

impl<'a> FlatSnapshot<'a> {
    /// Parses and fully validates a blob without building anything.
    pub fn validate(bytes: &'a [u8]) -> Result<FlatSnapshot<'a>, SnapshotError> {
        let view = FlatSnapshot::validate_structure(bytes)?;
        view.check_edges(view.m as u64)?;
        flat::validate_sets(view.n, view.lin_tot, view.n as u32, view.lin)?;
        flat::validate_sets(view.n, view.lout_tot, view.n as u32, view.lout)?;
        view.check_categories()?;
        view.check_inverted()?;
        Ok(view)
    }

    /// The structural half of [`FlatSnapshot::validate`]: header, counts,
    /// whole-blob length (checked arithmetic, before any allocation),
    /// section slicing, and every **offset array** — everything the
    /// materialisers need to be panic-free — but none of the per-entry
    /// content walks. The fused install path ([`decode`])
    /// starts here and performs the content checks *while copying*, so the
    /// entry arenas are walked once instead of twice.
    fn validate_structure(bytes: &'a [u8]) -> Result<FlatSnapshot<'a>, SnapshotError> {
        if bytes.len() < 8 || &bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let version = bytes[8];
        if version != FLAT_SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let counts = Counts::from_header(&bytes[9..HEADER_LEN]);
        // Vertex and edge ids are u32 throughout the index layer; a header
        // claiming more is either lying or a world this build cannot hold.
        if counts.n > u32::MAX as u64 || counts.m > u32::MAX as u64 {
            return Err(SnapshotError::Corrupt("vertex/edge count exceeds u32"));
        }
        // The whole-blob length check comes before anything else touches
        // the counts: a crafted header cannot drive an allocation, and a
        // short blob is reported as truncation rather than corruption.
        let lens = counts.section_lens().ok_or(SnapshotError::Truncated)?;
        let total = counts.total_len().ok_or(SnapshotError::Truncated)?;
        if bytes.len() < total {
            return Err(SnapshotError::Truncated);
        }
        if bytes.len() > total {
            return Err(SnapshotError::Corrupt("trailing bytes after snapshot"));
        }
        let ncats = usize::try_from(counts.ncats).map_err(|_| SnapshotError::Truncated)?;

        let mut cursor = HEADER_LEN;
        let mut take = |len: usize| {
            let s = &bytes[cursor..cursor + len];
            cursor += len;
            s
        };
        let view = FlatSnapshot {
            n: counts.n as usize,
            m: counts.m as usize,
            ncats,
            lin_tot: counts.lin_tot,
            lout_tot: counts.lout_tot,
            edge_offsets: take(lens[0]),
            edge_targets: take(lens[1]),
            edge_weights: take(lens[2]),
            lin: take(lens[3]),
            lout: take(lens[4]),
            name_offsets: take(lens[5]),
            name_bytes: take(lens[6]),
            memb_offsets: take(lens[7]),
            memb_verts: take(lens[8]),
            inv_cat_offsets: take(lens[9]),
            inv_hubs: take(lens[10]),
            inv_list_offsets: take(lens[11]),
            inv_members: take(lens[12]),
            inv_dists: take(lens[13]),
        };
        // The offset arrays gate every downstream slice: checking them
        // here makes all materialisers total even before the content
        // walks run. (They are O(n + ncats + hub_tot), not per-entry.)
        check_offsets(view.name_offsets, view.ncats, counts.name_tot)?;
        check_offsets(view.memb_offsets, view.ncats, counts.memb_tot)?;
        check_offsets(view.inv_cat_offsets, view.ncats, counts.hub_tot)?;
        check_offsets(
            view.inv_list_offsets,
            usize::try_from(counts.hub_tot).map_err(|_| SnapshotError::Truncated)?,
            counts.inv_tot,
        )?;
        Ok(view)
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges `m`.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.ncats
    }

    fn check_edges(&self, m: u64) -> Result<(), SnapshotError> {
        if read_u32(self.edge_offsets, 0) != 0 || read_u32(self.edge_offsets, self.n) as u64 != m {
            return Err(SnapshotError::Corrupt("edge offsets do not span the edges"));
        }
        let mut prev = 0u32;
        for u in 0..self.n {
            let next = read_u32(self.edge_offsets, u + 1);
            if next < prev || next as u64 > m {
                return Err(SnapshotError::Corrupt("edge offsets not monotone"));
            }
            let mut prev_t: Option<u32> = None;
            for e in prev as usize..next as usize {
                let t = read_u32(self.edge_targets, e);
                if t as usize >= self.n {
                    return Err(SnapshotError::Corrupt("edge target out of range"));
                }
                if t as usize == u {
                    return Err(SnapshotError::Corrupt("self-loop edge"));
                }
                if prev_t.is_some_and(|p| p >= t) {
                    return Err(SnapshotError::Corrupt("adjacency row not sorted"));
                }
                prev_t = Some(t);
            }
            prev = next;
        }
        Ok(())
    }

    /// Per-entry category checks; the offset arrays were already checked
    /// by [`FlatSnapshot::validate_structure`].
    fn check_categories(&self) -> Result<(), SnapshotError> {
        for c in 0..self.ncats {
            let (lo, hi) = (
                read_u64(self.name_offsets, c) as usize,
                read_u64(self.name_offsets, c + 1) as usize,
            );
            if std::str::from_utf8(&self.name_bytes[lo..hi]).is_err() {
                return Err(SnapshotError::Corrupt("category name is not UTF-8"));
            }
            let (lo, hi) = (
                read_u64(self.memb_offsets, c) as usize,
                read_u64(self.memb_offsets, c + 1) as usize,
            );
            let mut prev: Option<u32> = None;
            for e in lo..hi {
                let v = read_u32(self.memb_verts, e);
                if v as usize >= self.n {
                    return Err(SnapshotError::Corrupt("category member out of range"));
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(SnapshotError::Corrupt("category members not sorted"));
                }
                prev = Some(v);
            }
        }
        Ok(())
    }

    /// Per-entry inverted-index checks; the offset arrays were already
    /// checked by [`FlatSnapshot::validate_structure`].
    fn check_inverted(&self) -> Result<(), SnapshotError> {
        for c in 0..self.ncats {
            let (lo, hi) = (
                read_u64(self.inv_cat_offsets, c) as usize,
                read_u64(self.inv_cat_offsets, c + 1) as usize,
            );
            let mut prev: Option<u32> = None;
            for h in lo..hi {
                let hub = read_u32(self.inv_hubs, h);
                if hub as usize >= self.n {
                    return Err(SnapshotError::Corrupt("inverted hub out of range"));
                }
                if prev.is_some_and(|p| p >= hub) {
                    return Err(SnapshotError::Corrupt("inverted hubs not sorted"));
                }
                prev = Some(hub);
                let (elo, ehi) = (
                    read_u64(self.inv_list_offsets, h) as usize,
                    read_u64(self.inv_list_offsets, h + 1) as usize,
                );
                let mut prev_e: Option<(u64, u32)> = None;
                for e in elo..ehi {
                    let member = read_u32(self.inv_members, e);
                    let dist = read_u64(self.inv_dists, e);
                    if member as usize >= self.n {
                        return Err(SnapshotError::Corrupt("inverted member out of range"));
                    }
                    if prev_e.is_some_and(|p| p > (dist, member)) {
                        return Err(SnapshotError::Corrupt(
                            "inverted list not sorted by (dist, member)",
                        ));
                    }
                    prev_e = Some((dist, member));
                }
            }
        }
        Ok(())
    }

    /// Materialises the graph: the forward CSR is a straight copy of three
    /// arenas (the backward CSR is derived by one counting sort inside
    /// [`Graph::try_from_csr`]); the category table is sliced per category.
    pub fn graph(&self) -> Result<Graph, SnapshotError> {
        let out_offsets: Vec<u32> = self
            .edge_offsets
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let out_targets: Vec<VertexId> = self
            .edge_targets
            .chunks_exact(4)
            .map(|b| VertexId(u32::from_le_bytes(b.try_into().unwrap())))
            .collect();
        let out_weights: Vec<Weight> = self
            .edge_weights
            .chunks_exact(8)
            .map(|b| Weight::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let mut names = Vec::with_capacity(self.ncats);
        let mut per_category = Vec::with_capacity(self.ncats);
        for c in 0..self.ncats {
            let (lo, hi) = (
                read_u64(self.name_offsets, c) as usize,
                read_u64(self.name_offsets, c + 1) as usize,
            );
            let name = std::str::from_utf8(&self.name_bytes[lo..hi])
                .map_err(|_| SnapshotError::Corrupt("category name is not UTF-8"))?;
            names.push(name.to_owned());
            let (lo, hi) = (
                read_u64(self.memb_offsets, c) as usize,
                read_u64(self.memb_offsets, c + 1) as usize,
            );
            let members: Vec<VertexId> = self.memb_verts[lo * 4..hi * 4]
                .chunks_exact(4)
                .map(|b| VertexId(u32::from_le_bytes(b.try_into().unwrap())))
                .collect();
            per_category.push(members);
        }
        let categories = CategoryTable::from_parts(self.n, names, per_category)
            .map_err(SnapshotError::Corrupt)?;
        Graph::try_from_csr(self.n, out_offsets, out_targets, out_weights, categories)
            .map_err(SnapshotError::Corrupt)
    }

    /// Materialises the inverted label indexes straight from the arenas —
    /// the grouping pass a rebuild would pay is already baked into the
    /// blob. Every hub/member/ordering invariant of
    /// [`FlatSnapshot::check_inverted`] is checked while the lists are
    /// copied, walking the entry arenas once, so no sorting runs here.
    fn inverted_checked(&self) -> Result<CategoryIndexSet, SnapshotError> {
        let mut indexes = Vec::with_capacity(self.ncats);
        for c in 0..self.ncats {
            let (lo, hi) = (
                read_u64(self.inv_cat_offsets, c) as usize,
                read_u64(self.inv_cat_offsets, c + 1) as usize,
            );
            let mut lists: FxHashMap<VertexId, HubList> = FxHashMap::default();
            lists.reserve(hi - lo);
            let mut prev_hub: Option<u32> = None;
            for h in lo..hi {
                let hub = read_u32(self.inv_hubs, h);
                if hub as usize >= self.n {
                    return Err(SnapshotError::Corrupt("inverted hub out of range"));
                }
                if prev_hub.is_some_and(|p| p >= hub) {
                    return Err(SnapshotError::Corrupt("inverted hubs not sorted"));
                }
                prev_hub = Some(hub);
                let (elo, ehi) = (
                    read_u64(self.inv_list_offsets, h) as usize,
                    read_u64(self.inv_list_offsets, h + 1) as usize,
                );
                let entry = |e: usize| (read_u64(self.inv_dists, e), read_u32(self.inv_members, e));
                let mut prev_e: Option<(u64, u32)> = None;
                for e in elo..ehi {
                    let (dist, member) = entry(e);
                    if member as usize >= self.n {
                        return Err(SnapshotError::Corrupt("inverted member out of range"));
                    }
                    if prev_e.is_some_and(|p| p > (dist, member)) {
                        return Err(SnapshotError::Corrupt(
                            "inverted list not sorted by (dist, member)",
                        ));
                    }
                    prev_e = Some((dist, member));
                }
                // Checked above; an exact-size iterator fills the shared
                // list in its one allocation.
                let entries: HubList = (elo..ehi)
                    .map(|e| {
                        let (dist, member) = entry(e);
                        (VertexId(member), dist)
                    })
                    .collect();
                lists.insert(VertexId(hub), entries);
            }
            let num_members =
                (read_u64(self.memb_offsets, c + 1) - read_u64(self.memb_offsets, c)) as usize;
            indexes.push(InvertedLabelIndex::from_sorted_lists(lists, num_members));
        }
        Ok(CategoryIndexSet::from_indexes(indexes))
    }
}

/// Serializes a full index into one flat-arena blob. Deterministic: the
/// same index always produces the same bytes (hubs are emitted in
/// ascending id order, not hash order).
pub fn encode(graph: &Graph, labels: &HopLabels, inverted: &CategoryIndexSet) -> Vec<u8> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let cats = graph.categories();
    let ncats = cats.num_categories();
    let lin_tot = flat::entry_count(labels.lin_sets());
    let lout_tot = flat::entry_count(labels.lout_sets());
    let name_tot: u64 = (0..ncats)
        .map(|c| cats.name(CategoryId(c as u32)).len() as u64)
        .sum();
    let memb_tot: u64 = (0..ncats)
        .map(|c| cats.vertices_of(CategoryId(c as u32)).len() as u64)
        .sum();
    let hub_tot: u64 = (0..ncats)
        .map(|c| inverted.category(CategoryId(c as u32)).num_hubs() as u64)
        .sum();
    let inv_tot: u64 = (0..ncats)
        .map(|c| inverted.category(CategoryId(c as u32)).num_entries() as u64)
        .sum();
    let counts = Counts {
        n: n as u64,
        m: m as u64,
        ncats: ncats as u64,
        lin_tot,
        lout_tot,
        name_tot,
        memb_tot,
        hub_tot,
        inv_tot,
    };
    let total_len = counts.total_len().expect("snapshot fits memory");
    let mut out = Vec::with_capacity(total_len);
    out.put_slice(MAGIC);
    out.put_u8(FLAT_SNAPSHOT_VERSION);
    for c in [
        counts.n,
        counts.m,
        counts.ncats,
        counts.lin_tot,
        counts.lout_tot,
        counts.name_tot,
        counts.memb_tot,
        counts.hub_tot,
        counts.inv_tot,
    ] {
        out.put_u64_le(c);
    }

    // Edges.
    let mut off = 0u32;
    out.put_u32_le(0);
    for u in graph.vertices() {
        off += graph.out_degree(u) as u32;
        out.put_u32_le(off);
    }
    for u in graph.vertices() {
        for (t, _) in graph.out_edges(u) {
            out.put_u32_le(t.0);
        }
    }
    for u in graph.vertices() {
        for (_, w) in graph.out_edges(u) {
            out.put_u64_le(w);
        }
    }

    // Labels.
    flat::encode_sets(labels.lin_sets(), &mut out);
    flat::encode_sets(labels.lout_sets(), &mut out);

    // Categories: names then members, both offset-addressed.
    let mut off = 0u64;
    out.put_u64_le(0);
    for c in 0..ncats {
        off += cats.name(CategoryId(c as u32)).len() as u64;
        out.put_u64_le(off);
    }
    for c in 0..ncats {
        out.put_slice(cats.name(CategoryId(c as u32)).as_bytes());
    }
    let mut off = 0u64;
    out.put_u64_le(0);
    for c in 0..ncats {
        off += cats.vertices_of(CategoryId(c as u32)).len() as u64;
        out.put_u64_le(off);
    }
    for c in 0..ncats {
        for &v in cats.vertices_of(CategoryId(c as u32)) {
            out.put_u32_le(v.0);
        }
    }

    // Inverted indexes: hubs ascending per category for determinism.
    let sorted_hubs: Vec<Vec<VertexId>> = (0..ncats)
        .map(|c| {
            let mut hubs: Vec<VertexId> = inverted
                .category(CategoryId(c as u32))
                .iter_lists()
                .map(|(h, _)| h)
                .collect();
            hubs.sort_unstable();
            hubs
        })
        .collect();
    let mut off = 0u64;
    out.put_u64_le(0);
    for hubs in &sorted_hubs {
        off += hubs.len() as u64;
        out.put_u64_le(off);
    }
    for hubs in &sorted_hubs {
        for h in hubs {
            out.put_u32_le(h.0);
        }
    }
    let mut off = 0u64;
    out.put_u64_le(0);
    for (c, hubs) in sorted_hubs.iter().enumerate() {
        let il = inverted.category(CategoryId(c as u32));
        for &h in hubs {
            off += il.list(h).map_or(0, <[_]>::len) as u64;
            out.put_u64_le(off);
        }
    }
    for (c, hubs) in sorted_hubs.iter().enumerate() {
        let il = inverted.category(CategoryId(c as u32));
        for &h in hubs {
            for &(member, _) in il.list(h).unwrap_or(&[]) {
                out.put_u32_le(member.0);
            }
        }
    }
    for (c, hubs) in sorted_hubs.iter().enumerate() {
        let il = inverted.category(CategoryId(c as u32));
        for &h in hubs {
            for &(_, d) in il.list(h).unwrap_or(&[]) {
                out.put_u64_le(d);
            }
        }
    }
    debug_assert_eq!(out.len(), total_len);
    out
}

/// Label-entry count above which [`decode`] fans the section
/// copies out over scoped threads (given spare cores). Cold-start decode
/// is memory-bandwidth bound, and after structural validation the graph,
/// `Lin`, `Lout`, and inverted arenas materialise independently — but a
/// thread spawn costs tens of microseconds, so tiny snapshots (and
/// single-core hosts) stay on the caller's thread.
const PARALLEL_DECODE_ENTRIES: u64 = 1 << 15;

/// Decodes a blob into its three owned parts.
///
/// Structural validation (header, counts, whole-length, offset arrays)
/// runs up front; the per-entry invariants are checked **while copying**
/// (`decode_sets_checked`, [`FlatSnapshot::inverted_checked`],
/// `Graph::try_from_csr`), so every arena is walked exactly once. Accepts
/// and refuses exactly the same blobs as [`FlatSnapshot::validate`].
pub fn decode(bytes: &[u8]) -> Result<(Graph, HopLabels, CategoryIndexSet), SnapshotError> {
    let view = FlatSnapshot::validate_structure(bytes)?;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores <= 1 || view.lin_tot + view.lout_tot < PARALLEL_DECODE_ENTRIES {
        let graph = view.graph()?;
        let lin = flat::decode_sets_checked(view.n, view.lin_tot, view.n as u32, view.lin)?;
        let lout = flat::decode_sets_checked(view.n, view.lout_tot, view.n as u32, view.lout)?;
        let inverted = view.inverted_checked()?;
        return Ok((graph, HopLabels::from_parts(lin, lout), inverted));
    }
    let view = &view;
    std::thread::scope(|s| {
        let graph = s.spawn(move || view.graph());
        let lin = s.spawn(move || {
            flat::decode_sets_checked(view.n, view.lin_tot, view.n as u32, view.lin)
        });
        let lout = s.spawn(move || {
            flat::decode_sets_checked(view.n, view.lout_tot, view.n as u32, view.lout)
        });
        let inverted = view.inverted_checked()?;
        let graph = graph.join().expect("graph decode thread panicked")?;
        let lin = lin.join().expect("lin decode thread panicked")?;
        let lout = lout.join().expect("lout decode thread panicked")?;
        Ok((graph, HopLabels::from_parts(lin, lout), inverted))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_graph::GraphBuilder;
    use kosr_hoplabel::HubOrder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A small world with two categories, one empty category, and a
    /// non-trivial label set.
    fn world() -> (Graph, HopLabels, CategoryIndexSet) {
        let mut b = GraphBuilder::new(8);
        for i in 0..7u32 {
            b.add_edge(v(i), v(i + 1), (i % 3 + 1) as u64);
        }
        b.add_edge(v(7), v(0), 2);
        b.add_edge(v(0), v(4), 9);
        let ca = b.categories_mut().add_category("MA");
        let cb = b.categories_mut().add_category("RE");
        b.categories_mut().add_category("EMPTY");
        for i in [1u32, 3, 6] {
            b.categories_mut().insert(v(i), ca);
        }
        for i in [2u32, 5] {
            b.categories_mut().insert(v(i), cb);
        }
        let g = b.build();
        let labels = kosr_hoplabel::build(&g, &HubOrder::Degree);
        let inverted = CategoryIndexSet::build(&labels, g.categories());
        (g, labels, inverted)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (g, labels, inverted) = world();
        let blob = encode(&g, &labels, &inverted);
        let (g2, labels2, inverted2) = decode(&blob).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for u in g.vertices() {
            assert_eq!(
                g2.out_edges(u).collect::<Vec<_>>(),
                g.out_edges(u).collect::<Vec<_>>()
            );
            assert_eq!(
                g2.in_edges(u).collect::<Vec<_>>(),
                g.in_edges(u).collect::<Vec<_>>()
            );
            assert_eq!(
                g2.categories().categories_of(u),
                g.categories().categories_of(u)
            );
        }
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(labels2.distance(s, t), labels.distance(s, t));
            }
        }
        assert_eq!(inverted2.num_categories(), inverted.num_categories());
        for c in 0..inverted.num_categories() {
            let c = CategoryId(c as u32);
            let (a, b) = (inverted.category(c), inverted2.category(c));
            assert_eq!(a.num_members(), b.num_members());
            assert_eq!(a.num_entries(), b.num_entries());
            assert_eq!(a.num_hubs(), b.num_hubs());
            for (h, list) in a.iter_lists() {
                assert_eq!(b.list(h), Some(list));
            }
        }
        // Deterministic re-encode.
        assert_eq!(encode(&g2, &labels2, &inverted2), blob);
    }

    #[test]
    fn truncation_is_typed_at_every_cut() {
        let (g, labels, inverted) = world();
        let blob = encode(&g, &labels, &inverted);
        for cut in 0..blob.len() {
            match FlatSnapshot::validate(&blob[..cut]) {
                Err(SnapshotError::Truncated | SnapshotError::BadMagic) => {}
                Err(other) => panic!("cut={cut}: unexpected {other:?}"),
                Ok(_) => panic!("cut={cut}: truncated blob validated"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let (g, labels, inverted) = world();
        let mut blob = encode(&g, &labels, &inverted);
        blob.push(0);
        assert!(matches!(
            FlatSnapshot::validate(&blob),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn lying_counts_refused_before_allocating() {
        let (g, labels, inverted) = world();
        let blob = encode(&g, &labels, &inverted);
        // Each of the nine counts in turn claims u64::MAX: the length
        // check must refuse without ever allocating toward the claim.
        for slot in 0..9 {
            let mut bad = blob.clone();
            bad[9 + slot * 8..9 + slot * 8 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            match FlatSnapshot::validate(&bad) {
                Err(SnapshotError::Truncated) | Err(SnapshotError::Corrupt(_)) => {}
                Err(other) => panic!("slot={slot}: unexpected {other:?}"),
                Ok(_) => panic!("slot={slot}: lying count validated"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let (g, labels, inverted) = world();
        let mut blob = encode(&g, &labels, &inverted);
        let mut wrong = blob.clone();
        wrong[0] ^= 0xFF;
        assert!(matches!(
            FlatSnapshot::validate(&wrong),
            Err(SnapshotError::BadMagic)
        ));
        // Every version byte but the arena's is refused typed — including
        // 1, the retired rebuild-on-install format, and 2, the format
        // that shipped the bound tables.
        for version in [1, 2, 4, 99] {
            blob[8] = version;
            assert!(matches!(
                FlatSnapshot::validate(&blob),
                Err(SnapshotError::UnsupportedVersion { found }) if found == version
            ));
            assert!(matches!(
                decode(&blob),
                Err(SnapshotError::UnsupportedVersion { found }) if found == version
            ));
        }
    }

    #[test]
    fn corrupt_content_is_typed() {
        let (g, labels, inverted) = world();
        let blob = encode(&g, &labels, &inverted);
        let n = g.num_vertices();
        // First edge target out of range.
        let target_base = HEADER_LEN + (n + 1) * 4;
        let mut bad = blob.clone();
        bad[target_base..target_base + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            FlatSnapshot::validate(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
        // Edge offsets that do not start at 0.
        let mut bad = blob.clone();
        bad[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            FlatSnapshot::validate(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
        // A self-loop: rewrite the first target to its own source (vertex
        // 0's first out-edge targets vertex 1 in `world`).
        let mut bad = blob;
        bad[target_base..target_base + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            FlatSnapshot::validate(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_world_roundtrips() {
        let g = GraphBuilder::new(0).build();
        let labels = HopLabels::empty(0);
        let inverted = CategoryIndexSet::build(&labels, g.categories());
        let blob = encode(&g, &labels, &inverted);
        let (g2, labels2, inverted2) = decode(&blob).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        assert_eq!(labels2.num_vertices(), 0);
        assert_eq!(inverted2.num_categories(), 0);
    }
}
