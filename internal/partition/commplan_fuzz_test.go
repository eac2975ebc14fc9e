package partition

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
)

// contactHierarchy builds a random hierarchy for the box-contact kernel:
// randomHierarchy's two levels, optionally a third level refining the low
// corner of every level-1 box, and optionally translated so the origin is
// negative on every axis (fine cells then straddle zero, where floor and
// truncating division disagree).
func contactHierarchy(rng *rand.Rand, deep, negative bool) *samr.Hierarchy {
	h := randomHierarchy(rng.Int63())
	if deep && h.Depth() > 1 {
		var fine []samr.Box
		for _, b := range h.Levels[1] {
			core := b
			for d := 0; d < 3; d++ {
				core.Hi[d] = b.Lo[d] + (b.Dx(d)+1)/2
			}
			fine = append(fine, core.Refine(h.Ratio))
		}
		if err := h.SetLevel(2, fine); err != nil {
			panic(err)
		}
	}
	if negative {
		off := samr.Point{-1 - rng.Intn(40), -1 - rng.Intn(20), -1 - rng.Intn(20)}
		h = shiftHierarchy(h, off)
	}
	if err := h.Validate(); err != nil {
		panic(err)
	}
	return h
}

// shiftHierarchy translates a hierarchy by off level-0 cells (off*Ratio^l
// on level l).
func shiftHierarchy(h *samr.Hierarchy, off samr.Point) *samr.Hierarchy {
	s, err := samr.NewHierarchy(h.Domain.Shift(off), h.Ratio)
	if err != nil {
		panic(err)
	}
	for l := 1; l < h.Depth(); l++ {
		off = off.Scale(h.Ratio)
		boxes := make([]samr.Box, len(h.Levels[l]))
		for i, b := range h.Levels[l] {
			boxes[i] = b.Shift(off)
		}
		if err := s.SetLevel(l, boxes); err != nil {
			panic(err)
		}
	}
	return s
}

// withoutLevel drops every unit on level l: the level becomes empty, and a
// middle level leaves a gap between its neighbors.
func withoutLevel(a *Assignment, l int) *Assignment {
	out := &Assignment{NProcs: a.NProcs, SplitCost: a.SplitCost}
	for i, u := range a.Units {
		if u.Level != l {
			out.Units = append(out.Units, u)
			out.Owner = append(out.Owner, a.Owner[i])
		}
	}
	return out
}

// FuzzCommPlan checks the box-contact kernel differentially against the
// cell-by-cell reference: Stats and Pairs of BuildCommPlan against
// ReferenceCommunication, and MigrationFrom against
// ReferenceMigrationFraction, for every partitioner of All() on random
// hierarchies. The mode byte selects a third level, a negative origin,
// random owner relabeling, a dropped level (an empty level, or a gap), and
// GOMAXPROCS 1, 2, 3 or 8.
func FuzzCommPlan(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0))
	f.Add(int64(2), uint8(16), uint8(0x03))
	f.Add(int64(3), uint8(7), uint8(0x17))
	f.Add(int64(4), uint8(1), uint8(0x2f))
	f.Add(int64(-5), uint8(23), uint8(0x3b))
	f.Fuzz(func(t *testing.T, seed int64, procsRaw, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		deep, negative := mode&1 != 0, mode&2 != 0
		h := contactHierarchy(rng, deep, negative)
		prevH := h
		if rng.Intn(2) == 0 {
			prevH = contactHierarchy(rng, deep, negative)
		}
		nprocs := 1 + int(procsRaw%24)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS([]int{1, 2, 3, 8}[mode>>4&3]))
		wm := samr.UniformWorkModel{}
		suite := All()
		for _, p := range suite {
			a, err := p.Partition(h, wm, nprocs)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			prev, err := suite[rng.Intn(len(suite))].Partition(prevH, wm, 1+rng.Intn(24))
			if err != nil {
				t.Fatal(err)
			}
			if mode&4 != 0 {
				for i := range a.Owner {
					a.Owner[i] = rng.Intn(a.NProcs)
				}
			}
			if mode&8 != 0 {
				a = withoutLevel(a, rng.Intn(h.Depth()))
			}
			label := fmt.Sprintf("%s seed=%d procs=%d mode=%#x", p.Name(), seed, nprocs, mode)
			plan := requirePlanMatchesReference(t, h, a, label)
			got := plan.MigrationFrom(BuildRasterPlan(prevH, prev))
			if want := ReferenceMigrationFraction(prevH, prev, h, a); got != want {
				t.Fatalf("%s: migration %g, reference %g", label, got, want)
			}
		}
	})
}

// TestPartitionersEmitDisjointUnits checks the box-contact kernel's
// precondition: every partitioner of All() emits units that are pairwise
// disjoint on each level (checked by brute force, independently of
// Assignment.Validate), including on negative-origin and three-level
// hierarchies.
func TestPartitionersEmitDisjointUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for it := 0; it < iters; it++ {
		h := contactHierarchy(rng, it%2 == 0, it%3 == 0)
		nprocs := 1 + rng.Intn(32)
		for _, p := range All() {
			a, err := p.Partition(h, samr.UniformWorkModel{}, nprocs)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			for i, u := range a.Units {
				for j := i + 1; j < len(a.Units); j++ {
					if v := a.Units[j]; u.Level == v.Level && u.Box.Overlaps(v.Box) {
						t.Fatalf("iter %d %s: level %d units %v and %v overlap", it, p.Name(), u.Level, u.Box, v.Box)
					}
				}
			}
		}
	}
}
