//! Fill-reducing orderings: minimum degree, reverse Cuthill–McKee, and
//! geometric nested dissection for grid graphs.
//!
//! These substitute for the `amd` and MeTiS orderings of the paper's corpus
//! pipeline (§6.2). [`min_degree`] is *exact* minimum degree: `amd` is its
//! approximate-degree variant, which bounds the degrees this code computes
//! exactly, so the two can break ties differently. Geometric nested
//! dissection is exact on the grid Laplacians where MeTiS would be used on
//! general meshes.

use crate::pattern::SparsePattern;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An elimination ordering: `order[k]` is the original vertex eliminated at
/// step `k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ordering {
    /// `order[k]` = original index of the `k`-th eliminated vertex.
    pub order: Vec<u32>,
}

impl Ordering {
    /// The identity (natural) ordering.
    pub fn natural(n: usize) -> Ordering {
        Ordering {
            order: (0..n as u32).collect(),
        }
    }

    /// Positions: `inverse()[old] = k` such that `order[k] == old`.
    pub fn inverse(&self) -> Vec<u32> {
        let mut inv = vec![u32::MAX; self.order.len()];
        for (k, &old) in self.order.iter().enumerate() {
            inv[old as usize] = k as u32;
        }
        inv
    }

    /// `true` when this is a permutation of `0..n`.
    pub fn is_permutation_of(&self, n: usize) -> bool {
        if self.order.len() != n {
            return false;
        }
        let mut seen = vec![false; n];
        for &v in &self.order {
            if v as usize >= n || seen[v as usize] {
                return false;
            }
            seen[v as usize] = true;
        }
        true
    }
}

/// Reverse Cuthill–McKee: BFS from a pseudo-peripheral vertex, neighbors
/// visited by increasing degree, then reversed. Produces banded structures
/// (chain-like elimination trees) — the "bad for parallelism" end of the
/// ordering spectrum.
pub fn reverse_cuthill_mckee(p: &SparsePattern) -> Ordering {
    let n = p.n();
    if n == 0 {
        return Ordering { order: Vec::new() };
    }
    // pseudo-peripheral start: double BFS sweep from vertex 0
    let far = |start: usize| -> usize {
        let mut dist = vec![u32::MAX; n];
        let mut q = std::collections::VecDeque::new();
        dist[start] = 0;
        q.push_back(start);
        let mut last = start;
        while let Some(v) = q.pop_front() {
            last = v;
            for &u in p.neighbors(v) {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = dist[v] + 1;
                    q.push_back(u as usize);
                }
            }
        }
        last
    };
    let start = far(far(0));

    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    // handle disconnected graphs: restart BFS per component
    let mut starts: Vec<usize> = vec![start];
    starts.extend(0..n);
    for s in starts {
        if seen[s] {
            continue;
        }
        seen[s] = true;
        let mut q = std::collections::VecDeque::new();
        q.push_back(s as u32);
        while let Some(v) = q.pop_front() {
            order.push(v);
            let mut nbrs: Vec<u32> = p
                .neighbors(v as usize)
                .iter()
                .copied()
                .filter(|&u| !seen[u as usize])
                .collect();
            nbrs.sort_by_key(|&u| (p.degree(u as usize), u));
            for u in nbrs {
                seen[u as usize] = true;
                q.push_back(u);
            }
        }
    }
    order.reverse();
    Ordering { order }
}

/// Exact minimum-degree ordering: at every step the live variable of
/// smallest exact external degree in the elimination graph is eliminated,
/// ties going to the smallest index. This is the exact-degree form of the
/// algorithm behind `amd`, not its approximate-degree variant, so the order
/// is fully determined by the pattern.
///
/// The elimination graph is kept implicitly as a quotient graph (George &
/// Liu, SIAM Review 1989): each elimination turns the pivot's neighborhood
/// into an *element*, a flat member list in one arena. Exact degrees are
/// maintained with the techniques of Amestoy, Davis & Duff (SIMAX 1996)
/// that never change a degree:
///
/// - indistinguishable variables merge into *supervariables* and count as
///   weights, so a degree costs one scan per supervariable;
/// - a member `u` of the new element `Lp` has degree `|Lp| − 1` plus the
///   weight of its neighborhood outside `Lp`, so only that part is scanned;
/// - every element whose live members all lie in `Lp` is absorbed, and dead
///   or merged variables are compacted out of the lists that are scanned.
///
/// Supervariables never eliminate their members in bulk: each member is its
/// own pivot, picked by the same `(degree, index)` rule.
pub fn min_degree(p: &SparsePattern) -> Ordering {
    let n = p.n();
    let mut g = QuotientGraph::new(p);
    let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> = (0..n as u32)
        .map(|i| Reverse((g.degree[i as usize], i, i)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((d, x, s))) = heap.pop() {
        let s = s as usize;
        // valid iff `x` is still the smallest live member of principal `s`
        // and `d` is its current degree
        if g.nv[s] == 0 || g.head[s] != x || g.degree[s] != d {
            continue;
        }
        order.push(x);
        g.eliminate(s, &mut heap);
    }
    Ordering { order }
}

/// End of a member list.
const NONE: u32 = u32::MAX;

/// An element: the clique left behind by one elimination.
#[derive(Clone, Copy)]
struct Element {
    /// Members live in `arena[start .. start + len]`.
    start: usize,
    len: u32,
    /// When `stamp == step`: the members outside the current pivot's
    /// element come first, `out` of them with total weight `ext`.
    out: u32,
    ext: u32,
    stamp: u32,
    /// Scratch mark for list comparisons.
    mark: u32,
    alive: bool,
}

/// The quotient graph of [`min_degree`]. Variables are named by their
/// original index; a *principal* variable `i` (`nv[i] > 0`) stands for a
/// supervariable of `nv[i]` live variables.
struct QuotientGraph {
    /// Supervariable weight; 0 once merged into another or fully
    /// eliminated.
    nv: Vec<u32>,
    /// Exact external degree of every member of a principal.
    degree: Vec<u32>,
    /// Live members of each principal in increasing index order:
    /// `head[i]`, then `next[head[i]]`, …
    head: Vec<u32>,
    next: Vec<u32>,
    /// Adjacency of each principal in `iw[pe[i] .. pe[i] + len[i]]`: its
    /// `elen[i]` elements first, then its variable neighbors. A list never
    /// outgrows the original degree of its variable.
    pe: Vec<usize>,
    len: Vec<u32>,
    elen: Vec<u32>,
    iw: Vec<u32>,
    elements: Vec<Element>,
    /// Element member lists, back to back; `live` counts the entries of
    /// alive elements, the rest is garbage awaiting compaction.
    arena: Vec<u32>,
    live: usize,
    /// Variable marks. Within one step, the members of the new element
    /// carry `lp_mark` and every scratch set (a union, a list comparison)
    /// a fresh `tick` below it, so one comparison against a tick tests
    /// both "inside the element" and "already seen".
    mark: Vec<u32>,
    tick: u32,
    lp_mark: u32,
    /// Elimination steps so far, the stamp of `Element::ext`.
    step: u32,
    /// `(hash, principal)` of the current element's members.
    hashes: Vec<(u64, u32)>,
}

impl QuotientGraph {
    fn new(p: &SparsePattern) -> QuotientGraph {
        let n = p.n();
        let mut pe = Vec::with_capacity(n);
        let mut iw = Vec::with_capacity(p.nnz_offdiag());
        for i in 0..n {
            pe.push(iw.len());
            iw.extend_from_slice(p.neighbors(i));
        }
        let degree: Vec<u32> = (0..n).map(|i| p.degree(i) as u32).collect();
        QuotientGraph {
            nv: vec![1; n],
            len: degree.clone(),
            degree,
            head: (0..n as u32).collect(),
            next: vec![NONE; n],
            pe,
            elen: vec![0; n],
            iw,
            elements: Vec::new(),
            arena: Vec::new(),
            live: 0,
            mark: vec![0; n],
            tick: 0,
            lp_mark: 0,
            step: 0,
            hashes: Vec::new(),
        }
    }

    /// A fresh scratch mark for `mark` and `Element::mark`.
    fn next_tick(&mut self) -> u32 {
        self.tick += 1;
        debug_assert!(self.tick < self.lp_mark);
        self.tick
    }

    /// Reserves the marks of one step whose pivot has degree `d`: the new
    /// element has at most `d` members, each using at most two ticks.
    fn start_marks(&mut self, d: u32) {
        let reserve = 2 * d + 2;
        if u32::MAX - self.tick <= reserve {
            self.mark.fill(0);
            for e in &mut self.elements {
                e.mark = 0;
            }
            self.tick = 0;
        }
        self.lp_mark = self.tick + reserve;
    }

    /// Eliminates the smallest member of principal `s` and pushes the new
    /// degree of every principal whose degree changed.
    fn eliminate(&mut self, s: usize, heap: &mut BinaryHeap<Reverse<(u32, u32, u32)>>) {
        let x = self.head[s] as usize;
        self.head[s] = self.next[x];
        self.nv[s] -= 1;
        self.step += 1;
        self.start_marks(self.degree[s]);
        if self.arena.len() >= 2 * self.live + self.nv.len() {
            self.collect_garbage();
        }
        let (p, weight) = self.new_element(s);
        debug_assert_eq!(weight, self.degree[s]);
        let lo = self.elements[p].start;
        let hi = lo + self.elements[p].len as usize;
        self.split_elements(lo, hi);
        self.prune_lists(p as u32, lo, hi);
        self.merge_indistinguishable();
        self.update_degrees(p, weight, lo, hi, heap);
        self.tick = self.lp_mark;
    }

    /// Builds the element of the pivot (a member of `s`): what is left of
    /// `s` itself, its variable neighbors and the members of its elements,
    /// which are absorbed. Marks the members with `lp_mark` and returns the
    /// element with its total weight.
    fn new_element(&mut self, s: usize) -> (usize, u32) {
        let lp = self.lp_mark;
        let start = self.arena.len();
        let mut weight = 0;
        if self.nv[s] > 0 {
            self.mark[s] = lp;
            self.arena.push(s as u32);
            weight += self.nv[s];
        }
        let base = self.pe[s];
        let vars = base + self.elen[s] as usize;
        for k in vars..base + self.len[s] as usize {
            let v = self.iw[k] as usize;
            if self.nv[v] > 0 && self.mark[v] != lp {
                self.mark[v] = lp;
                self.arena.push(v as u32);
                weight += self.nv[v];
            }
        }
        for k in base..vars {
            let e = self.iw[k] as usize;
            if !self.elements[e].alive {
                continue;
            }
            let from = self.elements[e].start;
            for j in from..from + self.elements[e].len as usize {
                let v = self.arena[j] as usize;
                if self.nv[v] > 0 && self.mark[v] != lp {
                    self.mark[v] = lp;
                    self.arena.push(v as u32);
                    weight += self.nv[v];
                }
            }
            self.kill(e);
        }
        let len = (self.arena.len() - start) as u32;
        self.live += len as usize;
        self.elements.push(Element {
            start,
            len,
            out: 0,
            ext: 0,
            stamp: 0,
            mark: 0,
            alive: true,
        });
        (self.elements.len() - 1, weight)
    }

    fn kill(&mut self, e: usize) {
        self.elements[e].alive = false;
        self.live -= self.elements[e].len as usize;
    }

    /// Reorders every alive element adjacent to the new element's members
    /// `arena[lo..hi]` so that its members outside the new element come
    /// first, counting them and their weight, and compacts out the
    /// variables that are no longer principal.
    fn split_elements(&mut self, lo: usize, hi: usize) {
        let (step, lp) = (self.step, self.lp_mark);
        for k in lo..hi {
            let u = self.arena[k] as usize;
            let base = self.pe[u];
            for j in base..base + self.elen[u] as usize {
                let e = self.iw[j] as usize;
                let el = self.elements[e];
                if !el.alive || el.stamp == step {
                    continue;
                }
                let (mut out, mut kept, mut ext) = (el.start, el.start, 0);
                for r in el.start..el.start + el.len as usize {
                    let v = self.arena[r];
                    let weight = self.nv[v as usize];
                    if weight == 0 {
                        continue;
                    }
                    self.arena[kept] = v;
                    if self.mark[v as usize] != lp {
                        self.arena.swap(kept, out);
                        out += 1;
                        ext += weight;
                    }
                    kept += 1;
                }
                self.live -= el.start + el.len as usize - kept;
                self.elements[e] = Element {
                    len: (kept - el.start) as u32,
                    out: (out - el.start) as u32,
                    ext,
                    stamp: step,
                    ..el
                };
            }
        }
    }

    /// Rewrites the list of every member of the new element `p`: drops dead
    /// elements and absorbs those with nothing outside `p`, drops variables
    /// covered by `p` or no longer principal, and adds `p`. Records each
    /// list's hash for [`Self::merge_indistinguishable`].
    fn prune_lists(&mut self, p: u32, lo: usize, hi: usize) {
        self.hashes.clear();
        for k in lo..hi {
            let u = self.arena[k] as usize;
            let base = self.pe[u];
            let old_end = base + self.len[u] as usize;
            let vars = base + self.elen[u] as usize;
            let mut w = base;
            let mut hash = (p as u64) << 32;
            for j in base..vars {
                let e = self.iw[j] as usize;
                if !self.elements[e].alive {
                    continue;
                }
                if self.elements[e].ext == 0 {
                    self.kill(e);
                    continue;
                }
                self.iw[w] = e as u32;
                w += 1;
                hash = hash.wrapping_add((e as u64) << 32);
            }
            let kept_elements = w;
            for j in vars..old_end {
                let v = self.iw[j];
                if self.nv[v as usize] == 0 || self.mark[v as usize] == self.lp_mark {
                    continue;
                }
                self.iw[w] = v;
                w += 1;
                hash = hash.wrapping_add(v as u64);
            }
            // put `p` at the end of the elements, moving the first variable
            // to the end; every member lost at least one entry (the pivot's
            // supervariable or an absorbed element), so `w < old_end`
            debug_assert!(w < old_end);
            self.iw[w] = self.iw[kept_elements];
            self.iw[kept_elements] = p;
            self.elen[u] = (kept_elements + 1 - base) as u32;
            self.len[u] = (w + 1 - base) as u32;
            self.hashes.push((hash, u as u32));
        }
    }

    /// Merges members of the new element whose lists are equal: they are
    /// indistinguishable, now and until one of them is eliminated.
    fn merge_indistinguishable(&mut self) {
        if self.hashes.len() < 2 {
            return;
        }
        let mut hashes = std::mem::take(&mut self.hashes);
        hashes.sort_unstable();
        let mut a = 0;
        while a < hashes.len() {
            let mut b = a + 1;
            while b < hashes.len() && hashes[b].0 == hashes[a].0 {
                b += 1;
            }
            for i in a..b {
                let ui = hashes[i].1 as usize;
                if self.nv[ui] == 0 || i + 1 == b {
                    continue;
                }
                let t = self.next_tick();
                let (base, elen) = (self.pe[ui], self.elen[ui] as usize);
                for k in base..base + elen {
                    self.elements[self.iw[k] as usize].mark = t;
                }
                for k in base + elen..base + self.len[ui] as usize {
                    self.mark[self.iw[k] as usize] = t;
                }
                for &(_, uj) in &hashes[i + 1..b] {
                    let uj = uj as usize;
                    if self.nv[uj] > 0 && self.same_list(uj, ui, t) {
                        self.nv[ui] += self.nv[uj];
                        self.nv[uj] = 0;
                        self.head[ui] = merge_members(&mut self.next, self.head[ui], self.head[uj]);
                    }
                }
            }
            a = b;
        }
        self.hashes = hashes;
    }

    /// `true` when `uj`'s list has the shape of `ui`'s and every entry
    /// carries `ui`'s mark `t`.
    fn same_list(&self, uj: usize, ui: usize, t: u32) -> bool {
        let (base, elen, len) = (self.pe[uj], self.elen[uj] as usize, self.len[uj] as usize);
        elen == self.elen[ui] as usize
            && len == self.len[ui] as usize
            && self.iw[base..base + elen]
                .iter()
                .all(|&e| self.elements[e as usize].mark == t)
            && self.iw[base + elen..base + len]
                .iter()
                .all(|&v| self.mark[v as usize] == t)
    }

    /// Recomputes the exact degree of every principal member of the new
    /// element `p` of total weight `weight` (members `arena[lo..hi]`):
    /// `weight − 1` plus the weight of the union of its variable neighbors
    /// and of the outside parts of its other elements.
    fn update_degrees(
        &mut self,
        p: usize,
        weight: u32,
        lo: usize,
        hi: usize,
        heap: &mut BinaryHeap<Reverse<(u32, u32, u32)>>,
    ) {
        if lo == hi {
            // an isolated pivot leaves an empty element behind
            self.kill(p);
            return;
        }
        for k in lo..hi {
            let u = self.arena[k] as usize;
            if self.nv[u] == 0 {
                continue;
            }
            let base = self.pe[u];
            let vars = base + self.elen[u] as usize;
            let end = base + self.len[u] as usize;
            // `p` is one of the elements
            let others = vars - base - 1;
            let outside = if others == 0 {
                self.iw[vars..end]
                    .iter()
                    .map(|&v| self.nv[v as usize])
                    .sum()
            } else if others == 1 && vars == end {
                let e = self.iw[base..vars].iter().find(|&&e| e as usize != p);
                self.elements[*e.unwrap() as usize].ext
            } else {
                let t = self.next_tick();
                let mut outside = 0;
                for j in vars..end {
                    let v = self.iw[j] as usize;
                    self.mark[v] = t;
                    outside += self.nv[v];
                }
                for j in base..vars {
                    let e = self.iw[j] as usize;
                    if e == p {
                        continue;
                    }
                    let Element { start, out, .. } = self.elements[e];
                    for r in start..start + out as usize {
                        let v = self.arena[r] as usize;
                        let m = self.mark[v];
                        self.mark[v] = t;
                        outside += if m != t { self.nv[v] } else { 0 };
                    }
                }
                outside
            };
            self.degree[u] = weight - 1 + outside;
            heap.push(Reverse((self.degree[u], self.head[u], u as u32)));
        }
        // drop the members merged away from the new element itself
        let mut w = lo;
        for r in lo..hi {
            let v = self.arena[r];
            if self.nv[v as usize] > 0 {
                self.arena[w] = v;
                w += 1;
            }
        }
        self.live -= hi - w;
        self.elements[p].len = (w - lo) as u32;
    }

    /// Moves the alive element lists to the front of the arena.
    fn collect_garbage(&mut self) {
        let mut w = 0;
        for el in self.elements.iter_mut().filter(|el| el.alive) {
            let len = el.len as usize;
            self.arena.copy_within(el.start..el.start + len, w);
            el.start = w;
            w += len;
        }
        self.arena.truncate(w);
        debug_assert_eq!(w, self.live);
    }
}

/// Merges two increasing member lists threaded through `next`.
fn merge_members(next: &mut [u32], mut a: u32, mut b: u32) -> u32 {
    if a == NONE {
        return b;
    }
    if b == NONE {
        return a;
    }
    if b < a {
        std::mem::swap(&mut a, &mut b);
    }
    let head = a;
    let mut tail = a;
    a = next[a as usize];
    while a != NONE && b != NONE {
        if b < a {
            std::mem::swap(&mut a, &mut b);
        }
        next[tail as usize] = a;
        tail = a;
        a = next[a as usize];
    }
    next[tail as usize] = if a == NONE { b } else { a };
    head
}

/// Geometric nested dissection for a 2D grid: recursively order the two
/// halves, then the separator line, giving the balanced elimination trees
/// MeTiS would produce on mesh matrices. Vertex `(x, y)` has index
/// `y * nx + x`, matching [`crate::generate::grid2d`].
pub fn nested_dissection_2d(nx: usize, ny: usize) -> Ordering {
    let mut order = Vec::with_capacity(nx * ny);
    rec2(0, nx, 0, ny, nx, &mut order);
    Ordering { order }
}

fn rec2(x0: usize, x1: usize, y0: usize, y1: usize, nx: usize, out: &mut Vec<u32>) {
    let w = x1 - x0;
    let h = y1 - y0;
    if w == 0 || h == 0 {
        return;
    }
    if w * h <= 4 {
        for y in y0..y1 {
            for x in x0..x1 {
                out.push((y * nx + x) as u32);
            }
        }
        return;
    }
    if w >= h {
        let xm = x0 + w / 2;
        rec2(x0, xm, y0, y1, nx, out);
        rec2(xm + 1, x1, y0, y1, nx, out);
        for y in y0..y1 {
            out.push((y * nx + xm) as u32);
        }
    } else {
        let ym = y0 + h / 2;
        rec2(x0, x1, y0, ym, nx, out);
        rec2(x0, x1, ym + 1, y1, nx, out);
        for x in x0..x1 {
            out.push((ym * nx + x) as u32);
        }
    }
}

/// Geometric nested dissection for a 3D grid (separator planes). Vertex
/// `(x, y, z)` has index `(z * ny + y) * nx + x`, matching
/// [`crate::generate::grid3d`].
pub fn nested_dissection_3d(nx: usize, ny: usize, nz: usize) -> Ordering {
    let mut order = Vec::with_capacity(nx * ny * nz);
    rec3(0, nx, 0, ny, 0, nz, nx, ny, &mut order);
    Ordering { order }
}

#[allow(clippy::too_many_arguments)]
fn rec3(
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
    z0: usize,
    z1: usize,
    nx: usize,
    ny: usize,
    out: &mut Vec<u32>,
) {
    let (w, h, d) = (x1 - x0, y1 - y0, z1 - z0);
    if w == 0 || h == 0 || d == 0 {
        return;
    }
    let idx = |x: usize, y: usize, z: usize| ((z * ny + y) * nx + x) as u32;
    if w * h * d <= 8 {
        for z in z0..z1 {
            for y in y0..y1 {
                for x in x0..x1 {
                    out.push(idx(x, y, z));
                }
            }
        }
        return;
    }
    if w >= h && w >= d {
        let xm = x0 + w / 2;
        rec3(x0, xm, y0, y1, z0, z1, nx, ny, out);
        rec3(xm + 1, x1, y0, y1, z0, z1, nx, ny, out);
        for z in z0..z1 {
            for y in y0..y1 {
                out.push(idx(xm, y, z));
            }
        }
    } else if h >= d {
        let ym = y0 + h / 2;
        rec3(x0, x1, y0, ym, z0, z1, nx, ny, out);
        rec3(x0, x1, ym + 1, y1, z0, z1, nx, ny, out);
        for z in z0..z1 {
            for x in x0..x1 {
                out.push(idx(x, ym, z));
            }
        }
    } else {
        let zm = z0 + d / 2;
        rec3(x0, x1, y0, y1, z0, zm, nx, ny, out);
        rec3(x0, x1, y0, y1, zm + 1, z1, nx, ny, out);
        for y in y0..y1 {
            for x in x0..x1 {
                out.push(idx(x, y, zm));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{grid2d, grid3d, random_symmetric, Stencil};

    #[test]
    fn natural_identity() {
        let o = Ordering::natural(5);
        assert_eq!(o.order, vec![0, 1, 2, 3, 4]);
        assert!(o.is_permutation_of(5));
        assert_eq!(o.inverse(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rcm_is_permutation() {
        let p = grid2d(7, 5, Stencil::Star);
        let o = reverse_cuthill_mckee(&p);
        assert!(o.is_permutation_of(35));
    }

    #[test]
    fn rcm_reduces_bandwidth_on_shuffled_band() {
        // a band matrix permuted randomly: RCM should restore a small
        // bandwidth
        let p = crate::generate::band(60, 2);
        let shuffle: Vec<u32> = {
            // deterministic shuffle
            let mut v: Vec<u32> = (0..60).collect();
            let mut s = 12345u64;
            for i in (1..60usize).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (s >> 33) as usize % (i + 1);
                v.swap(i, j);
            }
            v
        };
        let scrambled = p.permute(&shuffle);
        let bw = |q: &crate::pattern::SparsePattern| -> usize {
            (0..q.n())
                .flat_map(|i| {
                    q.neighbors(i)
                        .iter()
                        .map(move |&j| (i as i64 - j as i64).unsigned_abs() as usize)
                })
                .max()
                .unwrap_or(0)
        };
        let o = reverse_cuthill_mckee(&scrambled);
        let reordered = scrambled.permute(&o.order);
        assert!(
            bw(&reordered) < bw(&scrambled) / 2,
            "{} vs {}",
            bw(&reordered),
            bw(&scrambled)
        );
    }

    #[test]
    fn min_degree_is_permutation() {
        for p in [
            grid2d(6, 6, Stencil::Star),
            grid3d(3, 3, 3, Stencil::Star),
            random_symmetric(200, 4.0, 3),
        ] {
            let o = min_degree(&p);
            assert!(o.is_permutation_of(p.n()));
        }
    }

    #[test]
    fn min_degree_eliminates_leaves_first() {
        // a star graph: the center has degree n-1, the tips degree 1; MD
        // must eliminate at least 6 tips before the center becomes degree-1
        // and eligible (ties allow the hub to go just before the last tip)
        let edges: Vec<(u32, u32)> = (1..8).map(|i| (0u32, i as u32)).collect();
        let p = crate::pattern::SparsePattern::from_edges(8, &edges);
        let o = min_degree(&p);
        let hub_pos = o.order.iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= 6, "hub eliminated too early at {hub_pos}");
    }

    #[test]
    fn nested_dissection_2d_is_permutation_and_ends_with_separator() {
        let o = nested_dissection_2d(7, 7);
        assert!(o.is_permutation_of(49));
        // the final entries are the top-level separator column x = 3
        let last7: Vec<u32> = o.order[42..].to_vec();
        let expect: Vec<u32> = (0..7).map(|y| y * 7 + 3).collect();
        assert_eq!(last7, expect);
    }

    #[test]
    fn nested_dissection_3d_is_permutation() {
        let o = nested_dissection_3d(5, 4, 3);
        assert!(o.is_permutation_of(60));
    }

    #[test]
    fn nd_degenerate_sizes() {
        assert!(nested_dissection_2d(1, 9).is_permutation_of(9));
        assert!(nested_dissection_2d(9, 1).is_permutation_of(9));
        assert!(nested_dissection_3d(1, 1, 5).is_permutation_of(5));
    }
}
