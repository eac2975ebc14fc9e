package partition

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
)

// diffSuite is the partitioner set used to produce realistic assignments
// for the differential tests.
func diffSuite() []Partitioner {
	return []Partitioner{SFC{}, GMISPSP{}, PBDISP{}, EqualBlock{}}
}

// requirePlanMatchesReference asserts the parallel kernel reproduces the
// sequential reference bit for bit: CommStats (including per-processor
// shares), the pair list in canonical order, and self-migration.
func requirePlanMatchesReference(t *testing.T, h *samr.Hierarchy, a *Assignment, label string) *CommPlan {
	t.Helper()
	plan := BuildCommPlan(h, a)
	refSt, refPairs := ReferenceCommunication(h, a)
	if !reflect.DeepEqual(plan.Stats, refSt) {
		t.Fatalf("%s: stats diverge\n plan: %+v\n  ref: %+v", label, plan.Stats, refSt)
	}
	if len(plan.Pairs) != len(refPairs) {
		t.Fatalf("%s: %d pairs, reference has %d", label, len(plan.Pairs), len(refPairs))
	}
	for i := range refPairs {
		if plan.Pairs[i] != refPairs[i] {
			t.Fatalf("%s: pair %d = %+v, reference %+v", label, i, plan.Pairs[i], refPairs[i])
		}
	}
	if got := plan.MigrationFrom(plan); got != 0 {
		t.Fatalf("%s: self-migration = %g, want 0", label, got)
	}
	return plan
}

// TestCommPlanMatchesReferenceSuite checks every partitioner at several
// processor counts on the representative hierarchy, at GOMAXPROCS 1 and
// a multi-worker setting — the sums are exact integers scaled by
// quarter-faces, so the slab decomposition must not change a single bit.
func TestCommPlanMatchesReferenceSuite(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, p := range diffSuite() {
			for _, nprocs := range []int{1, 2, 7, 16, 64} {
				a, err := p.Partition(h, wm, nprocs)
				if err != nil {
					t.Fatalf("%s/%d: %v", p.Name(), nprocs, err)
				}
				requirePlanMatchesReference(t, h, a, p.Name())
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestCommPlanDifferentialRandom fuzzes the kernels against each other on
// randomized hierarchies and assignments, comparing communication and
// migration between independently partitioned prev/new configurations.
func TestCommPlanDifferentialRandom(t *testing.T) {
	wm := samr.UniformWorkModel{}
	suite := diffSuite()
	rng := rand.New(rand.NewSource(7))
	iters := 40
	if testing.Short() {
		iters = 12
	}
	for it := 0; it < iters; it++ {
		h := randomHierarchy(rng.Int63())
		prevH := h
		if rng.Intn(2) == 0 {
			prevH = randomHierarchy(rng.Int63())
		}
		nprocs := 1 + rng.Intn(24)
		p := suite[rng.Intn(len(suite))]
		pp := suite[rng.Intn(len(suite))]
		a, err := p.Partition(h, wm, nprocs)
		if err != nil {
			t.Fatalf("iter %d: %s: %v", it, p.Name(), err)
		}
		prev, err := pp.Partition(prevH, wm, 1+rng.Intn(24))
		if err != nil {
			t.Fatalf("iter %d: %s: %v", it, pp.Name(), err)
		}
		plan := requirePlanMatchesReference(t, h, a, p.Name())
		prevPlan := BuildRasterPlan(prevH, prev)
		got := plan.MigrationFrom(prevPlan)
		want := ReferenceMigrationFraction(prevH, prev, h, a)
		if got != want {
			t.Fatalf("iter %d: migration %g, reference %g", it, got, want)
		}
		if wrapped := MigrationFraction(prevH, prev, h, a); wrapped != want {
			t.Fatalf("iter %d: MigrationFraction wrapper %g, reference %g", it, wrapped, want)
		}
	}
}

// TestCommPlanGOMAXPROCSInvariance builds the same plan under several
// GOMAXPROCS settings and requires byte-identical results — the
// determinism contract of the z-slab parallelization.
func TestCommPlanGOMAXPROCSInvariance(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	a, err := (GMISPSP{}).Partition(h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := (PBDISP{}).Partition(h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	prevGMP := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prevGMP)
	base := BuildCommPlan(h, a)
	baseMig := base.MigrationFrom(BuildRasterPlan(h, prev))
	for _, procs := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		plan := BuildCommPlan(h, a)
		if !reflect.DeepEqual(plan.Stats, base.Stats) || !reflect.DeepEqual(plan.Pairs, base.Pairs) {
			t.Fatalf("GOMAXPROCS=%d: plan diverges from GOMAXPROCS=1", procs)
		}
		if mig := plan.MigrationFrom(BuildRasterPlan(h, prev)); mig != baseMig {
			t.Fatalf("GOMAXPROCS=%d: migration %g, want %g", procs, mig, baseMig)
		}
	}
}

// TestCommPlanNegativeCoordinates exercises index spaces with negative
// lows: the strided sweep's integer division for parent lookups must
// match the reference's semantics exactly.
func TestCommPlanNegativeCoordinates(t *testing.T) {
	domain := samr.Box{Lo: samr.Point{-8, -4, -4}, Hi: samr.Point{8, 4, 4}}
	h, err := samr.NewHierarchy(domain, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetLevel(1, []samr.Box{{Lo: samr.Point{-10, -6, -6}, Hi: samr.Point{6, 2, 2}}}); err != nil {
		t.Fatal(err)
	}
	a := &Assignment{
		NProcs: 3,
		Units: []Unit{
			{Level: 0, Box: samr.Box{Lo: samr.Point{-8, -4, -4}, Hi: samr.Point{0, 4, 4}}, Weight: 1},
			{Level: 0, Box: samr.Box{Lo: samr.Point{0, -4, -4}, Hi: samr.Point{8, 4, 4}}, Weight: 1},
			{Level: 1, Box: samr.Box{Lo: samr.Point{-10, -6, -6}, Hi: samr.Point{-2, 2, 2}}, Weight: 1},
			{Level: 1, Box: samr.Box{Lo: samr.Point{-2, -6, -6}, Hi: samr.Point{6, 2, 2}}, Weight: 1},
		},
		Owner: []int{0, 1, 2, 0},
	}
	requirePlanMatchesReference(t, h, a, "negative-lo")
}

// TestCommPlanNegativeOriginParent pins the parent mapping on a
// negative-origin hierarchy: a fine cell's parent is its floor-divided
// (Box.Coarsen) image, so fine cells -2 and -1 lie under coarse cell -1,
// not 0. The fine unit shares an owner with the coarse unit below zero,
// so the only exchange is the level-0 face at x = 0; truncating division
// would add a parent transfer to the unit above zero.
func TestCommPlanNegativeOriginParent(t *testing.T) {
	h, err := samr.NewHierarchy(samr.Box{Lo: samr.Point{-4, -2, -2}, Hi: samr.Point{4, 2, 2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fine := samr.Box{Lo: samr.Point{-2, -4, -4}, Hi: samr.Point{0, 4, 4}}
	if err := h.SetLevel(1, []samr.Box{fine}); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	a := &Assignment{
		NProcs: 2,
		Units: []Unit{
			{Level: 0, Box: samr.Box{Lo: samr.Point{-4, -2, -2}, Hi: samr.Point{0, 2, 2}}, Weight: 1},
			{Level: 0, Box: samr.Box{Lo: samr.Point{0, -2, -2}, Hi: samr.Point{4, 2, 2}}, Weight: 1},
			{Level: 1, Box: fine, Weight: 1},
		},
		Owner: []int{0, 1, 0},
	}
	plan := requirePlanMatchesReference(t, h, a, "negative-origin")
	want := []UnitPair{{U1: 0, U2: 1, Faces: 16, Frequency: 1}}
	if !reflect.DeepEqual(plan.Pairs, want) || plan.Stats.Volume != 16 || plan.Stats.Messages != 1 {
		t.Fatalf("pairs %+v volume %g messages %g, want %+v volume 16 messages 1",
			plan.Pairs, plan.Stats.Volume, plan.Stats.Messages, want)
	}
}

// TestCommPlanEmptyAndSingleOwner covers the degenerate ends: an
// assignment with no cross-processor contact produces empty pairs and
// zero stats, and a single-unit assignment has nothing to exchange.
func TestCommPlanEmptyAndSingleOwner(t *testing.T) {
	h := flatHierarchy(t, 8, 4, 4)
	solo := manualAssignment(2, pair{samr.MakeBox(8, 4, 4), 1})
	plan := requirePlanMatchesReference(t, h, solo, "single-unit")
	if plan.Stats.Volume != 0 || plan.Stats.Messages != 0 || len(plan.Pairs) != 0 {
		t.Fatalf("single-unit plan not empty: %+v", plan.Stats)
	}
	sameOwner := manualAssignment(2,
		pair{samr.MakeBox(4, 4, 4), 1},
		pair{samr.Box{Lo: samr.Point{4, 0, 0}, Hi: samr.Point{8, 4, 4}}, 1},
	)
	plan = requirePlanMatchesReference(t, h, sameOwner, "same-owner")
	if plan.Stats.Volume != 0 || len(plan.Pairs) != 0 {
		t.Fatalf("same-owner plan not empty: %+v", plan.Stats)
	}
}

// TestEvalQualityPlanMatchesEvalQuality: the plan-threading fast path and
// the convenience wrapper must agree exactly.
func TestEvalQualityPlanMatchesEvalQuality(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	a, err := (GMISPSP{}).Partition(h, wm, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := (SFC{}).Partition(h, wm, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := EvalQuality(h, a, h, prev, 0)
	got := EvalQualityPlan(BuildCommPlan(h, a), BuildRasterPlan(h, prev), 0)
	if got != want {
		t.Fatalf("EvalQualityPlan = %+v, EvalQuality = %+v", got, want)
	}
}

// TestRasterizationSharing: one BuildCommPlan rasterizes the assignment
// exactly once, and every consumer of the plan — stats, pairs, migration
// in either direction — adds zero further rasterizations.
func TestRasterizationSharing(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	a, _ := (GMISPSP{}).Partition(h, wm, 8)
	b, _ := (PBDISP{}).Partition(h, wm, 8)

	before := Rasterizations()
	planA := BuildCommPlan(h, a)
	if got := Rasterizations() - before; got != 1 {
		t.Fatalf("BuildCommPlan rasterized %d times, want 1", got)
	}
	planB := BuildCommPlan(h, b)
	before = Rasterizations()
	_ = planA.Stats
	_ = planA.Pairs
	_ = planA.MigrationFrom(planB)
	_ = planB.MigrationFrom(planA)
	if got := Rasterizations() - before; got != 0 {
		t.Fatalf("plan consumers rasterized %d times, want 0", got)
	}
	before = Rasterizations()
	EvalQualityPlan(planA, planB, 0)
	if got := Rasterizations() - before; got != 0 {
		t.Fatalf("EvalQualityPlan rasterized %d times, want 0", got)
	}
}
