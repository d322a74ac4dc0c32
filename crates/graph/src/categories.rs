//! The category function `F : V → 2^S` of Definition 1, stored in both
//! directions: per-vertex category sets and per-category vertex sets
//! (`V_{Ci}`, Definition 3).
//!
//! Updates (adding/removing a category of a vertex) follow the paper's
//! "handling dynamic updates" extension (§IV-C); downstream indexes such as
//! the inverted label index subscribe to the same operations.

use std::sync::Arc;

use crate::{CategoryId, VertexId};

/// Vertices per copy-on-write block of the per-vertex view: a membership
/// flip re-allocates one block of `F(v)` lists, not all `|V|` of them.
const VERTEX_BLOCK: usize = 256;

type VertexBlock = Arc<[Vec<CategoryId>]>;

/// Bidirectional vertex ↔ category membership table.
///
/// The paper's `F(v)` is [`CategoryTable::categories_of`], and `V_{Ci}` is
/// [`CategoryTable::vertices_of`]. Membership is a set: inserting a duplicate
/// pair is a no-op.
///
/// Storage is **copy-on-write by section**: every category's member list,
/// every [`VERTEX_BLOCK`]-vertex block of the per-vertex view and the name
/// list sit behind their own `Arc`, so `clone()` copies pointers and an
/// update on a shared table re-allocates only the touched category's list
/// and the touched vertex's block. A held clone never changes underfoot.
#[derive(Clone, Debug, Default)]
pub struct CategoryTable {
    num_vertices: usize,
    /// `F(v)`: categories of each vertex, sorted ascending, in blocks of
    /// [`VERTEX_BLOCK`] vertices (the last block is padded with empty
    /// lists).
    per_vertex: Vec<VertexBlock>,
    /// `V_{Ci}`: vertices of each category, sorted ascending.
    per_category: Vec<Arc<Vec<VertexId>>>,
    /// Optional human-readable names, indexed by category.
    names: Arc<Vec<String>>,
}

/// Cuts a flat per-vertex family into padded copy-on-write blocks.
fn into_blocks(mut flat: Vec<Vec<CategoryId>>) -> Vec<VertexBlock> {
    let blocks = flat.len().div_ceil(VERTEX_BLOCK);
    flat.resize(blocks * VERTEX_BLOCK, Vec::new());
    let mut lists = flat.into_iter();
    (0..blocks)
        .map(|_| lists.by_ref().take(VERTEX_BLOCK).collect())
        .collect()
}

impl CategoryTable {
    /// Creates an empty table for `num_vertices` vertices and no categories.
    pub fn new(num_vertices: usize) -> Self {
        let mut table = CategoryTable::default();
        table.resize_vertices(num_vertices);
        table
    }

    /// Assembles a table from prebuilt per-category member lists — the
    /// bulk-construction path snapshot installs use instead of per-pair
    /// [`CategoryTable::insert`] calls. Member lists must be strictly
    /// increasing and in range; the per-vertex view is derived in one
    /// linear pass (ascending category ids keep each vertex's list sorted
    /// for free).
    pub fn from_parts(
        num_vertices: usize,
        names: Vec<String>,
        per_category: Vec<Vec<VertexId>>,
    ) -> Result<CategoryTable, &'static str> {
        if names.len() != per_category.len() {
            return Err("category names and member lists differ in length");
        }
        let mut per_vertex: Vec<Vec<CategoryId>> = vec![Vec::new(); num_vertices];
        for (ci, members) in per_category.iter().enumerate() {
            let c = CategoryId(ci as u32);
            let mut prev: Option<VertexId> = None;
            for &m in members {
                if m.index() >= num_vertices {
                    return Err("category member out of range");
                }
                if prev.is_some_and(|p| p >= m) {
                    return Err("category members not strictly increasing");
                }
                prev = Some(m);
                per_vertex[m.index()].push(c);
            }
        }
        Ok(CategoryTable {
            num_vertices,
            per_vertex: into_blocks(per_vertex),
            per_category: per_category.into_iter().map(Arc::new).collect(),
            names: Arc::new(names),
        })
    }

    /// Number of vertices the table covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of known categories (`|S|`).
    pub fn num_categories(&self) -> usize {
        self.per_category.len()
    }

    /// Registers a new category with the given display name and returns its id.
    pub fn add_category(&mut self, name: impl Into<String>) -> CategoryId {
        let id = CategoryId(self.per_category.len() as u32);
        self.per_category.push(Arc::default());
        Arc::make_mut(&mut self.names).push(name.into());
        id
    }

    /// Ensures at least `n` categories exist, creating anonymous ones
    /// (named `"C<i>"`) as needed.
    pub fn ensure_categories(&mut self, n: usize) {
        while self.per_category.len() < n {
            let next = self.per_category.len();
            self.add_category(format!("C{next}"));
        }
    }

    /// The display name of a category.
    pub fn name(&self, c: CategoryId) -> &str {
        &self.names[c.index()]
    }

    /// Replaces the display name of a category.
    pub fn rename(&mut self, c: CategoryId, name: impl Into<String>) {
        Arc::make_mut(&mut self.names)[c.index()] = name.into();
    }

    /// Looks a category up by display name.
    pub fn category_by_name(&self, name: &str) -> Option<CategoryId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| CategoryId(i as u32))
    }

    /// Adds `v` to category `c` (the paper's *category insert* update).
    /// Returns `true` if the membership was newly created.
    ///
    /// # Panics
    /// Panics if `v` or `c` is out of range.
    pub fn insert(&mut self, v: VertexId, c: CategoryId) -> bool {
        assert!(v.index() < self.num_vertices, "vertex {v:?} out of range");
        assert!(c.index() < self.per_category.len(), "{c:?} out of range");
        let Err(pos) = self.categories_of(v).binary_search(&c) else {
            return false;
        };
        self.categories_of_mut(v).insert(pos, c);
        let verts = Arc::make_mut(&mut self.per_category[c.index()]);
        match verts.binary_search(&v) {
            Ok(_) => unreachable!("membership tables out of sync"),
            Err(vpos) => verts.insert(vpos, v),
        }
        true
    }

    /// Removes `v` from category `c` (the paper's *category remove* update).
    /// Returns `true` if the membership existed.
    pub fn remove(&mut self, v: VertexId, c: CategoryId) -> bool {
        let Ok(pos) = self.categories_of(v).binary_search(&c) else {
            return false;
        };
        self.categories_of_mut(v).remove(pos);
        let verts = Arc::make_mut(&mut self.per_category[c.index()]);
        let vpos = verts
            .binary_search(&v)
            .expect("membership tables out of sync");
        verts.remove(vpos);
        true
    }

    /// `F(v)`: the (sorted) categories of vertex `v`.
    #[inline]
    pub fn categories_of(&self, v: VertexId) -> &[CategoryId] {
        &self.per_vertex[v.index() / VERTEX_BLOCK][v.index() % VERTEX_BLOCK]
    }

    /// Mutable `F(v)`; un-shares `v`'s block (only) when a clone holds it.
    fn categories_of_mut(&mut self, v: VertexId) -> &mut Vec<CategoryId> {
        &mut Arc::make_mut(&mut self.per_vertex[v.index() / VERTEX_BLOCK])[v.index() % VERTEX_BLOCK]
    }

    /// `V_{Ci}`: the (sorted) vertices of category `c`.
    #[inline]
    pub fn vertices_of(&self, c: CategoryId) -> &[VertexId] {
        &self.per_category[c.index()]
    }

    /// `|Ci|`: the size of a category's vertex set.
    #[inline]
    pub fn category_size(&self, c: CategoryId) -> usize {
        self.per_category[c.index()].len()
    }

    /// `true` iff `Ci ∈ F(v)`.
    #[inline]
    pub fn has_category(&self, v: VertexId, c: CategoryId) -> bool {
        self.categories_of(v).binary_search(&c).is_ok()
    }

    /// Iterates all `(vertex, category)` membership pairs.
    pub fn memberships(&self) -> impl Iterator<Item = (VertexId, CategoryId)> + '_ {
        (0..self.num_vertices as u32).flat_map(move |v| {
            self.categories_of(VertexId(v))
                .iter()
                .map(move |&c| (VertexId(v), c))
        })
    }

    /// Total number of `(vertex, category)` memberships.
    pub fn num_memberships(&self) -> usize {
        self.per_category.iter().map(|members| members.len()).sum()
    }

    /// Grows the table to cover `n` vertices (no-op if already larger).
    pub fn resize_vertices(&mut self, n: usize) {
        if n > self.num_vertices {
            self.num_vertices = n;
            let blocks = n.div_ceil(VERTEX_BLOCK);
            if blocks > self.per_vertex.len() {
                // Fresh blocks are all-empty, so they can share one
                // allocation until a membership lands in them.
                let empty: VertexBlock = vec![Vec::new(); VERTEX_BLOCK].into();
                self.per_vertex.resize(blocks, empty);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn insert_and_query() {
        let mut t = CategoryTable::new(5);
        let ma = t.add_category("MA");
        let re = t.add_category("RE");
        assert!(t.insert(v(0), ma));
        assert!(t.insert(v(2), ma));
        assert!(t.insert(v(1), re));
        assert!(!t.insert(v(0), ma), "duplicate insert is a no-op");

        assert_eq!(t.vertices_of(ma), &[v(0), v(2)]);
        assert_eq!(t.categories_of(v(0)), &[ma]);
        assert!(t.has_category(v(2), ma));
        assert!(!t.has_category(v(2), re));
        assert_eq!(t.category_size(ma), 2);
        assert_eq!(t.num_memberships(), 3);
    }

    #[test]
    fn multi_category_vertex_stays_sorted() {
        let mut t = CategoryTable::new(3);
        let a = t.add_category("A");
        let b = t.add_category("B");
        let c = t.add_category("C");
        t.insert(v(1), c);
        t.insert(v(1), a);
        t.insert(v(1), b);
        assert_eq!(t.categories_of(v(1)), &[a, b, c]);
    }

    #[test]
    fn remove_membership() {
        let mut t = CategoryTable::new(4);
        let a = t.add_category("A");
        t.insert(v(3), a);
        t.insert(v(1), a);
        assert!(t.remove(v(3), a));
        assert!(!t.remove(v(3), a), "double remove reports absence");
        assert_eq!(t.vertices_of(a), &[v(1)]);
        assert!(t.categories_of(v(3)).is_empty());
    }

    #[test]
    fn name_lookup() {
        let mut t = CategoryTable::new(1);
        let ma = t.add_category("MA");
        assert_eq!(t.name(ma), "MA");
        assert_eq!(t.category_by_name("MA"), Some(ma));
        assert_eq!(t.category_by_name("nope"), None);
    }

    #[test]
    fn ensure_categories_creates_anonymous_names() {
        let mut t = CategoryTable::new(1);
        t.ensure_categories(3);
        assert_eq!(t.num_categories(), 3);
        assert_eq!(t.name(CategoryId(2)), "C2");
        t.ensure_categories(2); // shrink request is a no-op
        assert_eq!(t.num_categories(), 3);
    }

    #[test]
    fn from_parts_matches_incremental_inserts() {
        let mut t = CategoryTable::new(4);
        let a = t.add_category("A");
        let b = t.add_category("B");
        t.insert(v(0), a);
        t.insert(v(2), a);
        t.insert(v(2), b);
        t.insert(v(3), b);
        let bulk = CategoryTable::from_parts(
            4,
            vec!["A".into(), "B".into()],
            vec![vec![v(0), v(2)], vec![v(2), v(3)]],
        )
        .unwrap();
        assert_eq!(bulk.num_categories(), 2);
        for c in [a, b] {
            assert_eq!(bulk.vertices_of(c), t.vertices_of(c));
            assert_eq!(bulk.name(c), t.name(c));
        }
        for i in 0..4u32 {
            assert_eq!(bulk.categories_of(v(i)), t.categories_of(v(i)));
        }
    }

    #[test]
    fn from_parts_refuses_bad_member_lists() {
        // Out of range.
        assert!(CategoryTable::from_parts(2, vec!["A".into()], vec![vec![v(5)]]).is_err());
        // Duplicate / unsorted.
        assert!(CategoryTable::from_parts(3, vec!["A".into()], vec![vec![v(1), v(1)]]).is_err());
        assert!(CategoryTable::from_parts(3, vec!["A".into()], vec![vec![v(2), v(1)]]).is_err());
        // Mismatched name count.
        assert!(CategoryTable::from_parts(3, vec![], vec![vec![v(1)]]).is_err());
    }

    #[test]
    fn clones_share_untouched_sections_and_never_change_underfoot() {
        let far = 2 * VERTEX_BLOCK as u32 + 7;
        let mut t = CategoryTable::new(3 * VERTEX_BLOCK);
        let a = t.add_category("A");
        let b = t.add_category("B");
        t.insert(v(1), a);
        t.insert(v(far), b);
        let held = t.clone();
        assert!(t.insert(v(2), a));

        // The held clone still answers the pre-update world.
        assert_eq!(held.vertices_of(a), &[v(1)]);
        assert!(!held.has_category(v(2), a));
        assert_eq!(t.vertices_of(a), &[v(1), v(2)]);
        // Only category A's list and vertex 2's block were re-allocated.
        assert!(!std::ptr::eq(held.vertices_of(a), t.vertices_of(a)));
        assert!(!std::ptr::eq(
            held.categories_of(v(1)),
            t.categories_of(v(1))
        ));
        assert!(std::ptr::eq(held.vertices_of(b), t.vertices_of(b)));
        assert!(std::ptr::eq(
            held.categories_of(v(far)),
            t.categories_of(v(far))
        ));
        assert_eq!(held.name(b), t.name(b));
    }

    #[test]
    fn memberships_iterates_all_pairs() {
        let mut t = CategoryTable::new(3);
        let a = t.add_category("A");
        let b = t.add_category("B");
        t.insert(v(0), a);
        t.insert(v(2), b);
        t.insert(v(2), a);
        let pairs: Vec<_> = t.memberships().collect();
        assert_eq!(pairs, vec![(v(0), a), (v(2), a), (v(2), b)]);
    }
}
