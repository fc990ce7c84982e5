//! Graph automorphism groups for symmetry-pruned search.
//!
//! A minimax search over adversarial schedules can quotient its state space
//! by the graph's automorphism group: two runtime states that are images of
//! each other under a node relabeling that preserves adjacency have
//! isomorphic futures, so one memoized subtree value serves both (see
//! `docs/MINIMAX.md` in the workspace root for the full argument).
//!
//! [`Automorphisms`] is a *verified, closed* set of node permutations:
//!
//! * every candidate is checked against the actual [`Graph`] (adjacency
//!   preservation), so a wrong guess about a generator's labeling degrades
//!   to a smaller group, never to a wrong one;
//! * the verified set is closed under composition (a finite set of
//!   permutations closed under composition is a group), which the
//!   canonical-fingerprint construction requires for invariance;
//! * the identity is always a member, so the trivial descriptor is always
//!   safe.
//!
//! Candidates are derived per [`GraphFamily`]: the dihedral group for rings
//! (rotations + reflections), path reversal, axis flips for grids (plus the
//! transpose when square), XOR translations for hypercubes, a dihedral
//! subgroup for complete graphs (the full symmetric group would dwarf
//! [`MAX_GROUP`]), and the identity fallback for the random families
//! (gnp / random tree / lollipop). Direct `generators::torus` users get
//! [`Automorphisms::torus`] (translations + flips).

use crate::{Graph, GraphFamily, NodeId};

/// Largest group the closure will materialize. Beyond this the descriptor
/// falls back to the identity: the canonical fingerprint pays O(|group|)
/// per probe, so a huge group is a pessimization for search even where it
/// is mathematically available (e.g. the symmetric group of a clique).
pub const MAX_GROUP: usize = 512;

/// A verified group of node permutations of one concrete graph.
///
/// Always non-empty; element 0 is the identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Automorphisms {
    /// Each permutation maps `NodeId(v)` to `NodeId(perm[v] as usize)`.
    perms: Vec<Vec<u32>>,
}

impl Automorphisms {
    /// The trivial group on `order` nodes.
    pub fn identity(order: usize) -> Self {
        Automorphisms {
            perms: vec![identity_perm(order)],
        }
    }

    /// The declared group of a family member: family-derived candidates,
    /// verified against `g` and closed under composition. Falls back
    /// toward (at worst) the identity if candidates fail verification or
    /// the closure exceeds [`MAX_GROUP`].
    pub fn for_family(family: GraphFamily, g: &Graph) -> Self {
        Self::from_candidates(g, family_candidates(family, g))
    }

    /// The symmetry group of a `generators::torus(w, h)` graph:
    /// wrap-around translations in both axes plus the axis flips (and the
    /// transpose when `w == h`), verified and closed like every other
    /// descriptor.
    pub fn torus(g: &Graph, w: usize, h: usize) -> Self {
        let mut cands = Vec::new();
        if w * h == g.order() {
            for dy in 0..h {
                for dx in 0..w {
                    cands.push(grid_map(w, h, |x, y| ((x + dx) % w, (y + dy) % h)));
                }
            }
            cands.push(grid_map(w, h, |x, y| (w - 1 - x, y)));
            cands.push(grid_map(w, h, |x, y| (x, h - 1 - y)));
            if w == h {
                cands.push(grid_map(w, h, |x, y| (y, x)));
            }
        }
        Self::from_candidates(g, cands)
    }

    /// Builds a group from arbitrary candidate permutations: drops every
    /// candidate that is not an automorphism of `g`, adds the identity,
    /// and closes the survivors under composition. Returns the identity
    /// group if the closure has to add elements beyond [`MAX_GROUP`]; a
    /// candidate list that already holds a whole larger group is kept.
    ///
    /// The closure runs from generators (Dimino's algorithm): a candidate
    /// that is already a member is a product of verified automorphisms and
    /// is skipped unverified; one that is not is verified and, if it
    /// passes, extends the group as a new generator. The cost is
    /// O(|G| · #generators · n), with at most log₂|G| generators.
    pub fn from_candidates(g: &Graph, candidates: Vec<Vec<u32>>) -> Self {
        let order = g.order();
        // A group larger than the candidates plus the identity cannot
        // have been listed outright: past that size, it falls back.
        let limit = MAX_GROUP.max(candidates.len() + 1);
        let mut group = Closure::new(order);
        for cand in &candidates {
            if !group.contains(cand) && is_automorphism(g, cand) && !group.extend(cand, limit) {
                return Self::identity(order);
            }
        }
        if group.elems.len() > MAX_GROUP && !group.all_listed(&candidates) {
            return Self::identity(order);
        }
        // The identity is the lexicographically least permutation, so
        // sorting puts it first.
        let mut perms = group.elems;
        perms.sort_unstable();
        Automorphisms { perms }
    }

    /// Number of group elements (always ≥ 1).
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// True only for the trivial group.
    pub fn is_trivial(&self) -> bool {
        self.perms.len() == 1
    }

    /// Never true — the identity is always a member. Present to satisfy
    /// the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `k`-th permutation as a lookup table (`table[v]` is the image
    /// of node `v`). Element 0 is the identity.
    pub fn perm(&self, k: usize) -> &[u32] {
        &self.perms[k]
    }

    /// All permutations, identity first.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.perms.iter().map(Vec::as_slice)
    }

    /// Applies the `k`-th permutation to a node.
    pub fn map(&self, k: usize, v: NodeId) -> NodeId {
        NodeId(self.perms[k][v.0] as usize)
    }
}

impl GraphFamily {
    /// The family's declared automorphism group on a generated member:
    /// dihedral for [`GraphFamily::Ring`], reversal for
    /// [`GraphFamily::Path`], axis flips for [`GraphFamily::Grid`], XOR
    /// translations for [`GraphFamily::Hypercube`], a dihedral subgroup
    /// for [`GraphFamily::Complete`], and the identity for the random
    /// families. Every element is verified against `g`, so passing a graph
    /// that was not generated by `self` degrades to a smaller (correct)
    /// group rather than a wrong one.
    pub fn automorphisms(self, g: &Graph) -> Automorphisms {
        Automorphisms::for_family(self, g)
    }
}

/// A permutation group under construction.
struct Closure {
    /// The members; `elems[0]` is the identity.
    elems: Vec<Vec<u32>>,
    /// Indices into `elems`, in lexicographic order of the members.
    sorted: Vec<u32>,
    /// Indices into `elems` of the generators.
    gens: Vec<usize>,
    /// The one composition buffer.
    buf: Vec<u32>,
}

impl Closure {
    fn new(order: usize) -> Self {
        Closure {
            elems: vec![identity_perm(order)],
            sorted: vec![0],
            gens: Vec::new(),
            buf: Vec::with_capacity(order),
        }
    }

    /// The rank of `p` among the members, or where it would go.
    fn rank(&self, p: &[u32]) -> Result<usize, usize> {
        self.sorted
            .binary_search_by(|&i| self.elems[i as usize].as_slice().cmp(p))
    }

    fn contains(&self, p: &[u32]) -> bool {
        self.rank(p).is_ok()
    }

    /// Adds the new generator `s` (a verified non-member). The members so
    /// far form a group `H`, and the extended group is a union of cosets
    /// `H·r`, each stored as one block of `|H|` members whose first is
    /// `r` itself. A coset `H·r` is added, starting with `r = s`, for
    /// every product of a block's first member and a generator that is
    /// not yet a member; a member `h·r` times a generator `t` then lies
    /// in the coset of `r·t`, so the union is closed. False if it would
    /// grow past `limit` members.
    fn extend(&mut self, s: &[u32], limit: usize) -> bool {
        let h = self.elems.len();
        self.gens.push(h);
        if !self.add_coset(h, s, limit) {
            return false;
        }
        let mut rep = h;
        while rep < self.elems.len() {
            for k in 0..self.gens.len() {
                let (r, t) = (&self.elems[rep], &self.elems[self.gens[k]]);
                self.buf.clear();
                self.buf.extend(t.iter().map(|&v| r[v as usize]));
                if !self.contains(&self.buf) {
                    let rt = std::mem::take(&mut self.buf);
                    let added = self.add_coset(h, &rt, limit);
                    self.buf = rt;
                    if !added {
                        return false;
                    }
                }
            }
            rep += h;
        }
        true
    }

    /// Appends the coset `H·r` of `H = elems[..h]` (`r` not a member), or
    /// returns false if that would grow the group past `limit` members.
    fn add_coset(&mut self, h: usize, r: &[u32], limit: usize) -> bool {
        if self.elems.len() + h > limit {
            return false;
        }
        for i in 0..h {
            let hr = compose(&self.elems[i], r);
            let rank = self.rank(&hr).expect_err("cosets are disjoint");
            self.sorted.insert(rank, self.elems.len() as u32);
            self.elems.push(hr);
        }
        true
    }

    /// True if every member is the identity or one of `candidates`.
    fn all_listed(&self, candidates: &[Vec<u32>]) -> bool {
        // The identity is the least member, of rank 0.
        let mut ranks: Vec<usize> = candidates
            .iter()
            .filter_map(|c| self.rank(c).ok())
            .collect();
        ranks.push(0);
        ranks.sort_unstable();
        ranks.dedup();
        ranks.len() == self.elems.len()
    }
}

fn identity_perm(order: usize) -> Vec<u32> {
    (0..order).map(|v| v as u32).collect()
}

/// `p ∘ q`: applies `q` first, then `p`.
fn compose(p: &[u32], q: &[u32]) -> Vec<u32> {
    q.iter().map(|&v| p[v as usize]).collect()
}

/// True iff `p` is a permutation of the node set that preserves adjacency
/// (degrees match and every neighbor maps to a neighbor — sufficient on a
/// finite simple graph).
fn is_automorphism(g: &Graph, p: &[u32]) -> bool {
    let n = g.order();
    if p.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &img in p {
        let img = img as usize;
        if img >= n || seen[img] {
            return false;
        }
        seen[img] = true;
    }
    for v in 0..n {
        let sv = NodeId(p[v] as usize);
        if g.degree(NodeId(v)) != g.degree(sv) {
            return false;
        }
        for (u, _) in g.neighbors(NodeId(v)) {
            let su = NodeId(p[u.0] as usize);
            if g.port_towards(sv, su).is_none() {
                return false;
            }
        }
    }
    true
}

/// A permutation of a row-major `w × h` node grid from a coordinate map.
fn grid_map(w: usize, h: usize, f: impl Fn(usize, usize) -> (usize, usize)) -> Vec<u32> {
    let mut p = vec![0u32; w * h];
    for y in 0..h {
        for x in 0..w {
            let (nx, ny) = f(x, y);
            p[y * w + x] = (ny * w + nx) as u32;
        }
    }
    p
}

/// Family-derived candidate permutations (verification filters them, so a
/// candidate only has to be *plausible* for the generator's labeling).
fn family_candidates(family: GraphFamily, g: &Graph) -> Vec<Vec<u32>> {
    let n = g.order();
    match family {
        // `generators::ring` labels the cycle 0 → 1 → … → n-1 → 0, so the
        // full dihedral group acts by arithmetic on labels. The same
        // candidates serve Complete (any permutation is an automorphism of
        // a clique; the dihedral subgroup keeps the group under MAX_GROUP).
        GraphFamily::Ring | GraphFamily::Complete => {
            let mut cands = Vec::with_capacity(2 * n);
            for k in 0..n {
                cands.push((0..n).map(|v| ((v + k) % n) as u32).collect());
                cands.push((0..n).map(|v| ((n + k - v) % n) as u32).collect());
            }
            cands
        }
        GraphFamily::Path => vec![(0..n).map(|v| (n - 1 - v) as u32).collect()],
        // The generator's grid is row-major, but only the actual (w, h)
        // split is known to `generate`; flips under every factorization
        // are offered and the wrong ones simply fail verification.
        GraphFamily::Grid => {
            let mut cands = Vec::new();
            for w in 1..=n {
                if !n.is_multiple_of(w) {
                    continue;
                }
                let h = n / w;
                cands.push(grid_map(w, h, |x, y| (w - 1 - x, y)));
                cands.push(grid_map(w, h, |x, y| (x, h - 1 - y)));
                cands.push(grid_map(w, h, |x, y| (w - 1 - x, h - 1 - y)));
                if w == h {
                    cands.push(grid_map(w, h, |x, y| (y, x)));
                }
            }
            cands
        }
        // Node labels are coordinate vectors; XOR by any mask translates
        // the cube onto itself.
        GraphFamily::Hypercube => {
            if n.is_power_of_two() && n <= MAX_GROUP {
                (0..n)
                    .map(|m| (0..n).map(|v| (v ^ m) as u32).collect())
                    .collect()
            } else {
                Vec::new()
            }
        }
        GraphFamily::RandomTree | GraphFamily::Gnp | GraphFamily::Lollipop => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::collections::BTreeSet;

    fn assert_closed(g: &Graph, a: &Automorphisms) {
        let set: BTreeSet<&[u32]> = a.iter().collect();
        for p in a.iter() {
            assert!(is_automorphism(g, p), "member is not an automorphism");
            for q in a.iter() {
                let c = compose(p, q);
                assert!(set.contains(c.as_slice()), "group is not closed");
            }
        }
    }

    #[test]
    fn ring_group_is_dihedral() {
        let g = generators::ring(6);
        let a = GraphFamily::Ring.automorphisms(&g);
        assert_eq!(a.len(), 12);
        assert_closed(&g, &a);
        assert_eq!(a.map(0, NodeId(3)), NodeId(3), "element 0 is the identity");
    }

    #[test]
    fn path_group_is_reversal() {
        let g = generators::path(5);
        let a = GraphFamily::Path.automorphisms(&g);
        assert_eq!(a.len(), 2);
        assert_eq!(a.map(1, NodeId(0)), NodeId(4));
        assert_closed(&g, &a);
    }

    #[test]
    fn grid_group_is_klein_four() {
        // GraphFamily::Grid.generate(12, _) builds a row-major 3 × 4 grid;
        // only flips under the true factorization survive verification.
        let g = GraphFamily::Grid.generate(12, 0);
        let a = GraphFamily::Grid.automorphisms(&g);
        assert_eq!(a.len(), 4);
        assert_closed(&g, &a);
    }

    #[test]
    fn square_grid_gains_the_transpose() {
        let g = GraphFamily::Grid.generate(9, 0);
        let a = GraphFamily::Grid.automorphisms(&g);
        assert_eq!(
            a.len(),
            8,
            "flips × transpose = the square's dihedral group"
        );
        assert_closed(&g, &a);
    }

    #[test]
    fn hypercube_group_contains_all_translations() {
        let g = generators::hypercube(3);
        let a = GraphFamily::Hypercube.automorphisms(&g);
        assert_eq!(a.len(), 8);
        assert_closed(&g, &a);
    }

    #[test]
    fn torus_group_contains_all_translations() {
        // 4wh: translations × axis flips; 8wh when square (+ transpose).
        // 9 × 9 would be 648 > MAX_GROUP, so it falls back to the identity.
        for (w, h, size) in [
            (3, 3, 72),
            (3, 4, 48),
            (4, 4, 128),
            (5, 3, 60),
            (8, 8, MAX_GROUP),
            (9, 9, 1),
        ] {
            let g = generators::torus(w, h);
            let a = Automorphisms::torus(&g, w, h);
            assert_eq!(a.len(), size, "torus {w} × {h}");
            if size <= 128 {
                assert_closed(&g, &a);
            }
        }
    }

    #[test]
    fn closed_candidate_lists_are_kept_whole() {
        // ring(257)'s 514 dihedral candidates are already the whole group:
        // nothing has to be added, so MAX_GROUP does not apply.
        // The same group from two generators, one repeated to make as long
        // a list, has to be closed beyond MAX_GROUP, so it falls back.
        let g = generators::ring(257);
        let all = family_candidates(GraphFamily::Ring, &g);
        let (rotation, reflection) = (all[2].clone(), all[3].clone());
        assert_eq!(Automorphisms::from_candidates(&g, all).len(), 514);
        let mut listed = vec![rotation; 512];
        listed.push(reflection);
        assert!(Automorphisms::from_candidates(&g, listed).is_trivial());
    }

    #[test]
    fn random_families_fall_back_to_identity() {
        for fam in [
            GraphFamily::RandomTree,
            GraphFamily::Gnp,
            GraphFamily::Lollipop,
        ] {
            let g = fam.generate(8, 7);
            let a = fam.automorphisms(&g);
            assert!(a.is_trivial(), "{fam} should declare only the identity");
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn invalid_candidates_are_dropped() {
        let g = generators::path(4);
        // Swapping an endpoint with an interior node changes degrees.
        let a = Automorphisms::from_candidates(&g, vec![vec![1, 0, 2, 3]]);
        assert!(a.is_trivial());
    }

    #[test]
    fn oversized_closures_fall_back_to_identity() {
        // Adjacent transpositions of a clique generate the full symmetric
        // group — 8! far exceeds MAX_GROUP, so the descriptor must refuse.
        let g = generators::complete(8);
        let cands: Vec<Vec<u32>> = (0..7)
            .map(|i| {
                let mut p = identity_perm(8);
                p.swap(i, i + 1);
                p
            })
            .collect();
        let a = Automorphisms::from_candidates(&g, cands);
        assert!(a.is_trivial());
    }

    #[test]
    fn wrong_family_degrades_to_a_correct_subgroup() {
        // Ring candidates verified against a path: rotations fail, the
        // identity (k = 0 reflection composes oddly) — whatever survives
        // must still be a genuine automorphism group of the *path*.
        let g = generators::path(6);
        let a = GraphFamily::Ring.automorphisms(&g);
        assert_closed(&g, &a);
        assert!(a.len() <= 2);
    }
}
