package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"

	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

// Layer names of the regrid cycle, in core.Run's order.
const (
	layerClassify  = "octant.classify"
	layerSelect    = "policy.select"
	layerPartition = "partition.partition"
	layerCommPlan  = "partition.commplan"
	layerMigration = "partition.migration"
	layerSteps     = "cluster.steps"
	layerSave      = "checkpoint.save"
	layerResume    = "checkpoint.resume"
)

var regridLayers = []string{layerClassify, layerSelect, layerPartition, layerCommPlan,
	layerMigration, layerSteps, layerSave, layerResume}

// tracedRun is one stepwise replay's result and per-layer accounting.
type tracedRun struct {
	res           *core.RunResult
	rec           *recorder
	commplanAlloc uint64 // bytes allocated inside BuildCommPlan
	reused, units int64  // PartitionPlan.Stats at the end of the replay
	guard, kept   int    // imbalance-guard passes, and those whose result was kept
	saves         int
	saveBytes     int // checkpoint file bytes written
	resumes       int
}

// ckptState mirrors the payload core.Run checkpoints at a regrid boundary
// (field for field, in order, with the same JSON names), so the traced
// replay writes byte-identical checkpoint files.
type ckptState struct {
	Trace          string           `json:"trace"`
	Snapshots      int              `json:"snapshots"`
	Strategy       string           `json:"strategy"`
	NProcs         int              `json:"nprocs"`
	NextIndex      int              `json:"nextIndex"`
	SimTime        float64          `json:"simTime"`
	PrevLabel      string           `json:"prevLabel"`
	ImbSum         float64          `json:"imbSum"`
	EffSum         float64          `json:"effSum"`
	Degraded       int              `json:"degraded"`
	Result         *core.RunResult  `json:"result"`
	PrevAssignment *assignmentState `json:"prevAssignment,omitempty"`
	StrategyState  json.RawMessage  `json:"strategyState,omitempty"`
}

type assignmentState struct {
	NProcs    int              `json:"nprocs"`
	Units     []partition.Unit `json:"units"`
	Owner     []int            `json:"owner"`
	SplitCost float64          `json:"splitCost"`
}

// tracedReplay re-executes core.Run's regrid loop for the workload's
// configuration (Adaptive strategy, no machine failures) by calling each
// layer's public functions in core.Run's order, one span per call with
// the regrid index as trace id. Its RunResult and checkpoint files must
// equal core.Run's bit for bit; the caller checks both.
func (s *regridSpec) tracedReplay(dir string) (tracedRun, error) {
	if err := os.RemoveAll(dir); err != nil {
		return tracedRun{}, err
	}
	tr := s.trace
	cfg := s.config(dir)
	rec := newRecorder()
	t := tracedRun{rec: rec}
	meta := core.NewMetaPartitioner()
	cost := cluster.DefaultCostModel()
	const puCost = 1e-6 // core.Run's default PartitionSecondsPerUnit
	wmAt := s.wm
	if wmAt == nil {
		wmAt = func(int) samr.WorkModel { return samr.UniformWorkModel{} }
	}
	stepsPerRegrid := max(tr.RegridEvery, 1)
	strategy := s.strategy().Name()

	res := &core.RunResult{Strategy: strategy}
	var simTime, imbSum, effSum float64
	var prevA *partition.Assignment
	var prevH *samr.Hierarchy
	var prevPlan *partition.CommPlan
	var prevLabel string
	partPlan := partition.NewPartitionPlan()
	var store *checkpoint.Store
	if s.ckpt {
		store = &checkpoint.Store{Dir: dir, Keep: cfg.CheckpointKeep}
	}
	header := len(checkpoint.Encode(nil))
	save := func(idx, next int) error {
		start := rec.now()
		payload, err := json.Marshal(ckptState{
			Trace: tr.Name, Snapshots: len(tr.Snapshots), Strategy: strategy, NProcs: s.nprocs,
			NextIndex: next, SimTime: simTime, PrevLabel: prevLabel, ImbSum: imbSum, EffSum: effSum,
			Result: res, PrevAssignment: encodeAssignment(prevA),
		})
		if err == nil {
			_, err = store.Save(next, payload)
		}
		rec.add(strconv.Itoa(idx), layerSave, start)
		t.saves++
		t.saveBytes += header + len(payload)
		return err
	}
	// resume re-loads the loop state the way core.Run's Resume does: the
	// latest valid checkpoint, the outgoing assignment's rasters, and a
	// cold partition plan.
	resume := func(idx int) error {
		start := rec.now()
		var ck ckptState
		_, _, err := store.Latest(func(_ int, payload []byte) error { return json.Unmarshal(payload, &ck) })
		if err != nil {
			return err
		}
		simTime, prevLabel, imbSum, effSum, res = ck.SimTime, ck.PrevLabel, ck.ImbSum, ck.EffSum, ck.Result
		prevA = ck.PrevAssignment.decode()
		prevH = tr.Snapshots[ck.NextIndex-1].H
		prevPlan = partition.BuildRasterPlan(prevH, prevA)
		partPlan = partition.NewPartitionPlan()
		rec.add(strconv.Itoa(idx), layerResume, start)
		t.resumes++
		if ck.NextIndex != idx {
			return fmt.Errorf("resumed at regrid %d, want %d", ck.NextIndex, idx)
		}
		return nil
	}

	for idx := 0; idx < len(tr.Snapshots); idx++ {
		id := strconv.Itoa(idx)
		if s.interrupt > 0 && idx == s.interrupt {
			// core.Run persists the loop state when the interrupt lands,
			// and the resumed run loads it back.
			if err := save(idx, idx); err != nil {
				return t, err
			}
			if err := resume(idx); err != nil {
				return t, err
			}
		}
		snap := tr.Snapshots[idx]

		start := rec.now()
		state, err := octant.StateAt(tr, idx, meta.Window)
		if err != nil {
			return t, err
		}
		oct := octant.Classify(state, meta.Thresholds)
		rec.add(id, layerClassify, start)

		start = rec.now()
		p, err := meta.SelectForOctant(oct)
		rec.add(id, layerSelect, start)
		if err != nil {
			return t, err
		}

		ctx := &core.StepContext{
			Index: idx, Trace: tr, Snap: snap, WM: wmAt(idx), NProcs: s.nprocs,
			SimTime: simTime, Machine: cfg.Machine, PrevAssignment: prevA, PrevHierarchy: prevH,
			PartitionPlan: partPlan,
		}
		start = rec.now()
		a, err := ctx.Partition(p)
		rec.add(id, layerPartition, start)
		if err != nil {
			return t, err
		}
		label := p.Name()
		if a.Imbalance() > imbalanceGuard && p.Name() != "G-MISP+SP" {
			t.guard++
			fallback, err := meta.Lookup("G-MISP+SP")
			if err != nil {
				return t, err
			}
			start = rec.now()
			alt, err := ctx.Partition(fallback)
			rec.add(id, layerPartition, start)
			if err != nil {
				return t, err
			}
			alt.SplitCost += a.SplitCost * float64(len(a.Units)) / float64(max(len(alt.Units), 1))
			if alt.Imbalance() < a.Imbalance() {
				t.kept++
				a, label = alt, fallback.Name()
			}
		}
		if prevLabel != "" && label != prevLabel {
			res.Switches++
		}
		prevLabel = label

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start = rec.now()
		plan := partition.BuildCommPlan(snap.H, a)
		rec.add(id, layerCommPlan, start)
		runtime.ReadMemStats(&ms1)
		t.commplanAlloc += ms1.TotalAlloc - ms0.TotalAlloc

		comm := plan.Stats
		units := float64(len(a.Units))
		partTime := puCost * units * max(a.SplitCost, 1)
		q := partition.Quality{CommVolume: comm.Volume, CommMessages: comm.Messages, Imbalance: a.Imbalance()}
		start = rec.now()
		var migTime float64
		if prevPlan != nil {
			q.Migration = plan.MigrationFrom(prevPlan)
			migTime = cfg.Machine.MigrationTime(q.Migration*float64(snap.H.TotalCells()), cost)
		}
		rec.add(id, layerMigration, start)
		boxes := 0
		for _, lb := range snap.H.Levels {
			boxes += len(lb)
		}
		if boxes > 0 {
			q.Overhead = units / float64(boxes)
		}
		res.PartitionTime += partTime
		res.MigrationTime += migTime
		simTime += partTime + migTime
		stat := core.SnapshotStat{Index: idx, Partitioner: label, Quality: q, Overhead: partTime + migTime}

		work := a.Work()
		start = rec.now()
		for st := 0; st < stepsPerRegrid; st++ {
			sc := cfg.Machine.Step(work, comm.PerProcVolume, comm.PerProcMessages, simTime, cost)
			if math.IsInf(sc.Total, 1) {
				return t, fmt.Errorf("regrid %d: machine failure; the traced replay models failure-free runs only", idx)
			}
			simTime += sc.Total
			stat.StepTime += sc.Total
			res.ComputeTime += sc.Compute
			res.CommTime += sc.Comm
			res.Steps++
		}
		rec.add(id, layerSteps, start)
		res.Snapshots = append(res.Snapshots, stat)
		imbSum += q.Imbalance
		res.MaxImbalance = math.Max(res.MaxImbalance, q.Imbalance)
		effSum += snap.H.AMREfficiency()
		prevA, prevH, prevPlan = a, snap.H, plan

		if store != nil && idx+1 < len(tr.Snapshots) {
			if err := save(idx, idx+1); err != nil {
				return t, err
			}
		}
	}
	res.TotalTime = simTime
	n := float64(len(tr.Snapshots))
	res.AvgImbalance = imbSum / n
	res.AMREfficiency = effSum / n
	t.res = res
	t.reused, t.units = partPlan.Stats()
	return t, nil
}

func encodeAssignment(a *partition.Assignment) *assignmentState {
	if a == nil {
		return nil
	}
	return &assignmentState{NProcs: a.NProcs, Units: a.Units, Owner: a.Owner, SplitCost: a.SplitCost}
}

func (s *assignmentState) decode() *partition.Assignment {
	if s == nil {
		return nil
	}
	return &partition.Assignment{NProcs: s.NProcs, Units: s.Units, Owner: s.Owner, SplitCost: s.SplitCost}
}

// maxUnattributedPct bounds the share of untraced replay wall time that the
// traced layers may leave unaccounted, either way: a larger gap means the
// traced replay no longer covers what core.Run does, or tracing costs too
// much to trust the breakdown.
const maxUnattributedPct = 15.0

// layerMetrics reports the regrid workloads' per-layer metrics from the
// traced replays: self time per regrid cycle for each layer, the partition
// cache's reuse, the imbalance guard's work, checkpoint cost, and the
// share of untraced wall time no layer accounts for.
// untracedWalls[i] is the wall time of the untraced replay run just before
// traced replay i; comparing adjacent pairs keeps host noise that drifts
// over seconds out of the coverage figure.
func layerMetrics(res *result, runs []tracedRun, cycles int, untracedWalls []float64) {
	sum := map[string]float64{}
	var commAlloc uint64
	var reused, units int64
	var guard, kept, saves, saveBytes, resumes int
	var layerSums, gaps []float64
	for i, t := range runs {
		s, _ := t.rec.totals()
		total := 0.0
		for _, l := range regridLayers {
			sum[l] += s[l]
			total += s[l]
		}
		layerSums = append(layerSums, total)
		gaps = append(gaps, 100*(untracedWalls[i]-total)/untracedWalls[i])
		commAlloc += t.commplanAlloc
		reused += t.reused
		units += t.units
		guard += t.guard
		kept += t.kept
		saves += t.saves
		saveBytes += t.saveBytes
		resumes += t.resumes
	}
	nc := float64(cycles * len(runs))
	note := fmt.Sprintf("self time per regrid, %d traced replays x %d regrids", len(runs), cycles)
	perCycle := func(name, layer string) { res.set(name, 1000*sum[layer]/nc, "ms", note) }
	perCycle("octant.classify_ms", layerClassify)
	perCycle("policy.select_ms", layerSelect)
	perCycle("partition.partition_ms", layerPartition)
	perCycle("partition.commplan_ms", layerCommPlan)
	perCycle("partition.migration_ms", layerMigration)
	perCycle("cluster.steps_ms", layerSteps)
	perCycle("checkpoint.save_ms", layerSave)
	res.set("checkpoint.resume_ms", 1000*sum[layerResume]/float64(max(resumes, 1)), "ms",
		fmt.Sprintf("per resume, n=%d", resumes))
	res.set("checkpoint.bytes", float64(saveBytes)/float64(max(saves, 1)), "B",
		fmt.Sprintf("per checkpoint file, n=%d saves", saves))
	res.set("partition.commplan_alloc_mb", float64(commAlloc)/1e6/nc, "MB", "per regrid")
	res.set("partition.reuse_ratio", ratio(float64(reused), float64(units)), "ratio",
		fmt.Sprintf("%d of %d units served from the partition cache", reused, units))
	res.set("partition.guard_share", float64(guard)/nc, "ratio", fmt.Sprintf("%d guard passes in %d regrids", guard, int(nc)))
	res.set("partition.guard_kept_share", ratio(float64(kept), float64(guard)), "ratio",
		fmt.Sprintf("%d of %d guard results kept", kept, guard))
	pct := median(gaps)
	res.set("core.unattributed_pct", pct, "%",
		fmt.Sprintf("median over %d adjacent untraced/traced replay pairs; untraced %.4gs vs summed layer self time %.4gs (medians)",
			len(gaps), median(untracedWalls), median(layerSums)))
	res.check(math.Abs(pct) <= maxUnattributedPct,
		"layer self times miss %.3g%% of the untraced wall time (bound %g%%)", pct, maxUnattributedPct)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
