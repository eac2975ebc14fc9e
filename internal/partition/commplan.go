package partition

import (
	"slices"
	"sync/atomic"
	"time"

	"github.com/pragma-grid/pragma/internal/samr"
)

// CommPlan is everything the runtime derives from one assignment's unit
// boxes: the communication statistics, the cross-processor unit-pair
// adjacencies a distributed executor must realize, and the per-level unit
// index itself (reused by MigrationFrom at the next regrid instead of
// re-indexing the outgoing assignment). Build it once per regrid and
// thread it through every layer that needs any of the three.
//
// The plan is immutable after construction and safe for concurrent reads.
type CommPlan struct {
	// H and A are the hierarchy and assignment the plan was built for.
	H *samr.Hierarchy
	A *Assignment
	// Stats is the assignment's communication requirement. Only populated
	// by BuildCommPlan; BuildRasterPlan leaves it zero.
	Stats CommStats
	// Pairs lists every cross-processor unit-pair adjacency in canonical
	// order: levels ascending, then by the pair's first contact cell in
	// sweep order z, y, x, with +x/+y/+z faces before the coarse-parent
	// relation at one cell. Only populated by BuildCommPlan.
	Pairs []UnitPair

	index unitIndex
}

// BuildCommPlan indexes the assignment's units once and runs the
// box-contact kernel over the index: every pair of face-touching units on
// a level, and every fine unit overlapping a refined coarse unit, is one
// contact. The result is bit-identical to ReferenceCommunication at any
// GOMAXPROCS: every contribution is an integer count of quarter faces, so
// no floating-point rounding depends on the order contacts are found in.
func BuildCommPlan(h *samr.Hierarchy, a *Assignment) *CommPlan {
	start := time.Now()
	p := &CommPlan{H: h, A: a, index: buildUnitIndex(a)}
	p.Stats, p.Pairs = contactComm(h, a, p.index)
	metricPACSeconds.Observe(time.Since(start).Seconds())
	return p
}

// BuildRasterPlan indexes the assignment without running the contact
// kernel: Stats and Pairs are left empty. Use it when a plan is needed
// only as an operand of MigrationFrom (e.g. the previous assignment of a
// freshly resumed run, whose communication was already accounted in an
// earlier cycle).
func BuildRasterPlan(h *samr.Hierarchy, a *Assignment) *CommPlan {
	return &CommPlan{H: h, A: a, index: buildUnitIndex(a)}
}

// MigrationFrom returns the fraction of grid data present in both plans'
// configurations whose owning processor changed — the paper's "amount of
// data migration" component, with prev as the outgoing configuration. It
// sums the volumes of prevUnit ∩ newUnit per level over both plans' unit
// indexes; nothing is re-indexed. Bit-identical to
// ReferenceMigrationFraction at any GOMAXPROCS.
func (p *CommPlan) MigrationFrom(prev *CommPlan) float64 {
	if p == nil || prev == nil {
		return 0
	}
	var both, moved int64
	for l, nl := range p.index {
		if nl == nil || l >= len(prev.index) || prev.index[l] == nil {
			continue
		}
		pl := prev.index[l]
		for i, nb := range nl.boxes {
			no := nl.owner[i]
			lo, hi, ok := pl.span(nb)
			if !ok {
				continue
			}
			for z := lo[2]; z <= hi[2]; z++ {
				for y := lo[1]; y <= hi[1]; y++ {
					r0, r1 := pl.row(y, z, lo[0], hi[0])
					for j := r0; j < r1; j++ {
						in, ok := nb.Intersect(pl.boxes[j])
						if !ok {
							continue
						}
						v := in.Volume()
						both += v
						if pl.owner[j] != no {
							moved += v
						}
					}
				}
			}
		}
	}
	if both == 0 {
		return 0
	}
	return float64(moved) / float64(both)
}

// indexBuilds counts per-assignment unit-index builds process-wide.
// Regrid paths are expected to index each assignment exactly once (one
// CommPlan shared by communication, adjacency, and migration); tests
// assert on deltas of Rasterizations.
var indexBuilds atomic.Uint64

// Rasterizations returns the process-wide count of per-assignment
// unit-index builds performed so far: one per BuildCommPlan or
// BuildRasterPlan, none for any consumer of a built plan.
func Rasterizations() uint64 { return indexBuilds.Load() }

// unitIndex holds one levelIndex per level, indexed by level number; nil
// where the assignment has no units on that level.
type unitIndex []*levelIndex

// levelIndex is a uniform bucket grid over one level's units, stored as
// CSR: each unit sits in the bucket of its Lo corner, and buckets are laid
// out x-fastest so one (y, z) row of buckets is one contiguous run. The
// bucket edge on each axis is at least the largest unit extent on that
// axis, so a unit intersecting a query box has its Lo corner within one
// edge below the query — the candidate search never misses a unit.
type levelIndex struct {
	bbox  samr.Box   // bounding box of the level's units
	edge  samr.Point // bucket edge per axis
	dims  samr.Point // buckets per axis
	start []int32    // bucket b holds positions start[b]:start[b+1]
	ids   []int32    // unit indices, grouped by bucket, ascending within one
	boxes []samr.Box // boxes[i] is a.Units[ids[i]].Box
	owner []int32    // owner[i] is a.Owner[ids[i]]
}

// maxBucketsPerUnit caps the bucket grid of a sparse level: edges grow
// until the grid holds at most this many buckets per unit (plus a small
// constant), keeping the index O(units) however far apart units lie.
const maxBucketsPerUnit = 8

// buildUnitIndex builds the per-level bucket grids of an assignment.
func buildUnitIndex(a *Assignment) unitIndex {
	indexBuilds.Add(1)
	depth := 0
	for _, u := range a.Units {
		depth = max(depth, u.Level+1)
	}
	idx := make(unitIndex, depth)
	counts := make([]int, depth)
	for _, u := range a.Units {
		li := idx[u.Level]
		if li == nil {
			li = &levelIndex{bbox: u.Box}
			idx[u.Level] = li
		}
		li.bbox = li.bbox.Bound(u.Box)
		for d := 0; d < 3; d++ {
			li.edge[d] = max(li.edge[d], u.Box.Dx(d))
		}
		counts[u.Level]++
	}
	for l, li := range idx {
		if li != nil {
			li.grid(counts[l])
		}
	}
	for _, u := range a.Units {
		li := idx[u.Level]
		li.start[li.bucket(u.Box.Lo)+1]++
	}
	for _, li := range idx {
		if li == nil {
			continue
		}
		for b := 1; b < len(li.start); b++ {
			li.start[b] += li.start[b-1]
		}
		li.ids = make([]int32, li.start[len(li.start)-1])
		li.boxes = make([]samr.Box, len(li.ids))
		li.owner = make([]int32, len(li.ids))
	}
	// Fill with start[b] as the bucket's cursor, then shift the cursors
	// (now each bucket's end) back into offsets.
	for i, u := range a.Units {
		li := idx[u.Level]
		b := li.bucket(u.Box.Lo)
		pos := li.start[b]
		li.ids[pos] = int32(i)
		li.boxes[pos] = u.Box
		li.owner[pos] = int32(a.Owner[i])
		li.start[b]++
	}
	for _, li := range idx {
		if li != nil {
			copy(li.start[1:], li.start[:len(li.start)-1])
			li.start[0] = 0
		}
	}
	return idx
}

// grid sizes the bucket grid for n units: edges start at the largest unit
// extent per axis and double on the axis with the most buckets until the
// grid fits the per-unit cap.
func (li *levelIndex) grid(n int) {
	limit := maxBucketsPerUnit*n + 64
	for {
		nb := 1
		for d := 0; d < 3; d++ {
			li.dims[d] = (li.bbox.Dx(d)-1)/li.edge[d] + 1
			nb *= li.dims[d]
		}
		if nb <= limit {
			li.start = make([]int32, nb+1)
			return
		}
		widest := 0
		for d := 1; d < 3; d++ {
			if li.dims[d] > li.dims[widest] {
				widest = d
			}
		}
		li.edge[widest] *= 2
	}
}

// bucket returns the bucket holding a unit whose Lo corner is p.
func (li *levelIndex) bucket(p samr.Point) int {
	x := (p[0] - li.bbox.Lo[0]) / li.edge[0]
	y := (p[1] - li.bbox.Lo[1]) / li.edge[1]
	z := (p[2] - li.bbox.Lo[2]) / li.edge[2]
	return (z*li.dims[1]+y)*li.dims[0] + x
}

// span returns the inclusive bucket ranges holding every unit that may
// intersect q; ok is false when no unit can.
func (li *levelIndex) span(q samr.Box) (lo, hi samr.Point, ok bool) {
	for d := 0; d < 3; d++ {
		// A unit [l, l+w) with w <= edge meets q iff q.Lo-edge < l < q.Hi.
		l := q.Lo[d] - li.edge[d] + 1 - li.bbox.Lo[d]
		h := q.Hi[d] - 1 - li.bbox.Lo[d]
		if h < 0 {
			return lo, hi, false
		}
		lo[d] = max(l, 0) / li.edge[d]
		hi[d] = min(h/li.edge[d], li.dims[d]-1)
		if lo[d] > hi[d] {
			return lo, hi, false
		}
	}
	return lo, hi, true
}

// row returns the position range of buckets x0..x1 in bucket row (y, z).
func (li *levelIndex) row(y, z, x0, x1 int) (int, int) {
	b := (z*li.dims[1] + y) * li.dims[0]
	return int(li.start[b+x0]), int(li.start[b+x1+1])
}

// cellKey is 4 times the linear sweep-order (z, y, x) index of cell c in
// the level's bounding box: the relation goes in the low two bits.
func (li *levelIndex) cellKey(c samr.Point) uint64 {
	bb := li.bbox
	nx, ny := uint64(bb.Dx(0)), uint64(bb.Dx(1))
	return 4 * ((uint64(c[2]-bb.Lo[2])*ny+uint64(c[1]-bb.Lo[1]))*nx + uint64(c[0]-bb.Lo[0]))
}

// relParent is the relation code of a coarse-parent contact; faces use
// their axis 0, 1, 2. It is the order the canonical sweep checks them in
// at one cell: the +x, +y and +z faces, then the coarse parent.
const relParent = 3

// contact is one cross-processor contact between two units, the whole of
// their exchange: disjoint boxes touch face to face at most once, and a
// fine box meets a refined coarse box in at most one box. key is the
// first-contact cell in sweep order (linear index in the level's bounding
// box) times 4 plus the relation, so keys are unique.
type contact struct {
	key      uint64
	lo, hi   int32
	quarters int64
}

// contacts appends the cross-processor contacts of level l's units:
// faces towards their +x/+y/+z neighbors, and parent transfers with level
// l-1.
func (idx unitIndex) contacts(l, ratio int, out []contact) []contact {
	li := idx[l]
	var coarse *levelIndex
	if l > 0 {
		coarse = idx[l-1]
	}
	for i, ub := range li.boxes {
		u, ou := li.ids[i], li.owner[i]
		// Faces: v touches u's +d face iff v.Lo[d] == u.Hi[d] and the two
		// overlap on the other axes. Disjoint boxes touch at most once, so
		// each face is found once, from below.
		for d := 0; d < 3; d++ {
			lo, hi, ok := li.faceSpan(ub, d)
			for z := lo[2]; ok && z <= hi[2]; z++ {
				for y := lo[1]; y <= hi[1]; y++ {
					r0, r1 := li.row(y, z, lo[0], hi[0])
					for j := r0; j < r1; j++ {
						if li.owner[j] == ou {
							continue
						}
						if area, first, ok := faceContact(ub, li.boxes[j], d); ok {
							v := li.ids[j]
							out = append(out, contact{li.cellKey(first) + uint64(d), min(u, v), max(u, v), 4 * area})
						}
					}
				}
			}
		}
		// Parent transfers: the fine cells of u whose (floor-divided)
		// parent lies in coarse unit c are u ∩ c.Refine(ratio).
		if coarse == nil {
			continue
		}
		lo, hi, ok := coarse.span(ub.Coarsen(ratio))
		for z := lo[2]; ok && z <= hi[2]; z++ {
			for y := lo[1]; y <= hi[1]; y++ {
				r0, r1 := coarse.row(y, z, lo[0], hi[0])
				for j := r0; j < r1; j++ {
					if coarse.owner[j] == ou {
						continue
					}
					if in, ok := ub.Intersect(coarse.boxes[j].Refine(ratio)); ok {
						c := coarse.ids[j]
						out = append(out, contact{li.cellKey(in.Lo) + relParent, min(u, c), max(u, c), in.Volume()})
					}
				}
			}
		}
	}
	return out
}

// faceSpan returns the bucket ranges holding every unit whose Lo[d] is
// u.Hi[d] — the only units that can touch u's +d face.
func (li *levelIndex) faceSpan(u samr.Box, d int) (lo, hi samr.Point, ok bool) {
	q := u
	q.Lo[d], q.Hi[d] = u.Hi[d], u.Hi[d]+1
	if lo, hi, ok = li.span(q); !ok {
		return lo, hi, false
	}
	lo[d] = (u.Hi[d] - li.bbox.Lo[d]) / li.edge[d]
	hi[d] = lo[d]
	return lo, hi, lo[d] < li.dims[d]
}

// faceContact reports whether v touches u's +d face, with the shared area
// in faces and the first contact cell on u's side: u.Hi[d]-1 on axis d,
// the overlap's minimum on the others.
func faceContact(u, v samr.Box, d int) (area int64, first samr.Point, ok bool) {
	if v.Lo[d] != u.Hi[d] {
		return 0, first, false
	}
	area = 1
	for e := 0; e < 3; e++ {
		if e == d {
			first[e] = u.Hi[e] - 1
			continue
		}
		lo, hi := max(u.Lo[e], v.Lo[e]), min(u.Hi[e], v.Hi[e])
		if hi <= lo {
			return 0, first, false
		}
		area *= int64(hi - lo)
		first[e] = lo
	}
	return area, first, true
}

// contactComm runs the contact kernel level by level and assembles the
// statistics and the canonical pair list, each level's contacts sorted by
// their unique first-contact key. Every statistic is summed in integer
// quarter faces and converted once: the result equals the reference's
// cell-by-cell float sums bit for bit, since those never round at any
// realistic hierarchy size.
func contactComm(h *samr.Hierarchy, a *Assignment, idx unitIndex) (CommStats, []UnitPair) {
	st := CommStats{
		PerProcVolume:   make([]float64, a.NProcs),
		PerProcMessages: make([]float64, a.NProcs),
	}
	var out []UnitPair
	var cs []contact
	var keys []uint64
	var perm, tmp []int32
	var volQ, msgs int64
	procQ := make([]int64, a.NProcs)
	procMsgs := make([]int64, a.NProcs)
	freq := int64(1)
	for l := range idx {
		if l > 0 {
			freq *= int64(h.Ratio)
		}
		if idx[l] == nil {
			continue
		}
		cs = idx.contacts(l, h.Ratio, cs[:0])
		keys, perm = keys[:0], perm[:0]
		for i, c := range cs {
			keys = append(keys, c.key)
			perm = append(perm, int32(i))
		}
		tmp = append(tmp[:0], perm...)
		out = slices.Grow(out, len(cs))
		for _, i := range radixSortRun(keys, perm, tmp) {
			c := cs[i]
			o1, o2 := a.Owner[c.lo], a.Owner[c.hi]
			volQ += c.quarters * freq
			procQ[o1] += c.quarters * freq
			procQ[o2] += c.quarters * freq
			msgs += freq
			procMsgs[o1] += freq
			procMsgs[o2] += freq
			out = append(out, UnitPair{U1: int(c.lo), U2: int(c.hi), Faces: 0.25 * float64(c.quarters), Frequency: float64(freq)})
		}
	}
	st.Volume = 0.25 * float64(volQ)
	st.Messages = float64(msgs)
	for p := range procQ {
		st.PerProcVolume[p] = 0.25 * float64(procQ[p])
		st.PerProcMessages[p] = float64(procMsgs[p])
	}
	return st, out
}
