package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
)

// imbalanceGuard is the Adaptive strategy's guard on both regrid
// workloads, as the fleet's default strategy configures it.
const imbalanceGuard = 20

// setupReps is how many times a workload's set-up is repeated; setup_s is
// the median.
const setupReps = 3

// regridSpec is one regrid workload's generated input and configuration.
type regridSpec struct {
	trace  *samr.Trace
	wm     func(int) samr.WorkModel // nil = uniform
	nprocs int
	// ckpt checkpoints after every regrid into the replay's directory.
	ckpt bool
	// interrupt, when positive, stops every replay at that regrid and
	// resumes it from its checkpoint.
	interrupt int
}

func (s *regridSpec) strategy() core.Strategy {
	return core.Adaptive{ImbalanceGuard: imbalanceGuard}
}

func (s *regridSpec) config(dir string) core.RunConfig {
	cfg := core.RunConfig{Machine: cluster.SP2(s.nprocs), NProcs: s.nprocs, WorkModel: s.wm}
	if s.ckpt {
		cfg.CheckpointDir = dir
		cfg.CheckpointEvery = 1
	}
	return cfg
}

// rm3dPaperSpec is the paper's RM3D trace (202 snapshots, front work
// model) on 64 processors; the seed places the phenomenon's features.
func rm3dPaperSpec(seed int64) (*regridSpec, error) {
	cfg := rm3d.DefaultConfig()
	cfg.Seed = seed
	tr, err := rm3d.GenerateTrace(cfg)
	if err != nil {
		return nil, err
	}
	return &regridSpec{trace: tr, wm: cfg.WorkModel, nprocs: 64}, nil
}

// scenarioCkptSpec is a low-dynamics scenario trace — octant-I and
// octant-III witnesses — under the uniform work model, checkpointed every
// regrid and interrupted halfway.
func scenarioCkptSpec(seed int64) (*regridSpec, error) {
	spec, err := scenario.ParseSpec(fmt.Sprintf("name=ckpt;seed=%d;I:24,III:24", seed))
	if err != nil {
		return nil, err
	}
	tr, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	return &regridSpec{trace: tr, nprocs: 16, ckpt: true, interrupt: len(tr.Snapshots) / 2}, nil
}

func runRM3DPaper(o opts) (*result, error)    { return runRegrid(o, rm3dPaperSpec) }
func runScenarioCkpt(o opts) (*result, error) { return runRegrid(o, scenarioCkptSpec) }

// replayRun is one untraced replay's measurements.
type replayRun struct {
	res    *core.RunResult
	wall   float64   // seconds
	cycles []float64 // seconds between successive OnRegrid callbacks
	alloc  uint64    // bytes allocated (runtime.MemStats.TotalAlloc delta)
}

// replay runs the workload through core.Run, untraced, checkpointing into
// dir (emptied first) when the workload checkpoints.
func (s *regridSpec) replay(dir string) (replayRun, error) {
	if err := os.RemoveAll(dir); err != nil {
		return replayRun{}, err
	}
	stamps := make([]time.Time, 0, len(s.trace.Snapshots))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	cfg := s.config(dir)
	var res *core.RunResult
	var err error
	if s.interrupt > 0 {
		stop := make(chan struct{})
		cfg.Interrupt = stop
		cfg.OnRegrid = func(idx int, _ string) {
			stamps = append(stamps, time.Now())
			if idx == s.interrupt-1 {
				close(stop)
			}
		}
		_, err = core.Run(s.trace, s.strategy(), cfg)
		var ie *core.InterruptedError
		if !errors.As(err, &ie) || ie.Next != s.interrupt {
			return replayRun{}, fmt.Errorf("interrupt at regrid %d: got %v", s.interrupt, err)
		}
		cfg = s.config(dir)
		cfg.Resume = true
	}
	cfg.OnRegrid = func(int, string) { stamps = append(stamps, time.Now()) }
	res, err = core.Run(s.trace, s.strategy(), cfg)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return replayRun{}, err
	}
	r := replayRun{res: res, wall: wall, alloc: ms1.TotalAlloc - ms0.TotalAlloc}
	for i := 1; i < len(stamps); i++ {
		r.cycles = append(r.cycles, stamps[i].Sub(stamps[i-1]).Seconds())
	}
	return r, nil
}

func runRegrid(o opts, build func(seed int64) (*regridSpec, error)) (*result, error) {
	var s *regridSpec
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if s, err = build(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := &result{}
	dirU := filepath.Join(o.workDir, "untraced")
	dirT := filepath.Join(o.workDir, "traced")

	// Warm-up replay: its result is the reference every later replay must
	// reproduce. On the checkpointed workload it also runs uninterrupted,
	// so the interrupted-and-resumed replays are checked against it.
	ref, err := s.uninterrupted(filepath.Join(o.workDir, "reference"))
	if err != nil {
		return nil, err
	}
	cycles := len(s.trace.Snapshots)
	res.check(len(ref.Snapshots) == cycles && ref.TotalTime > 0 && !math.IsInf(ref.TotalTime, 0),
		"reference replay has %d of %d regrids, total time %v", len(ref.Snapshots), cycles, ref.TotalTime)
	fmt.Fprintf(o.log, "# trace=%s snapshots=%d nprocs=%d result_digest=%s total_time=%.17g\n",
		s.trace.Name, cycles, s.nprocs, digest(ref), ref.TotalTime)

	var runs []replayRun
	var traced []tracedRun
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(runs) < 2 || time.Now().Before(deadline) {
		r, err := s.replay(dirU)
		if err != nil {
			return nil, err
		}
		res.check(reflect.DeepEqual(r.res, ref), "replay %d result differs from the reference", len(runs))
		runs = append(runs, r)
		if o.trace {
			t, err := s.tracedReplay(dirT)
			if err != nil {
				return nil, err
			}
			res.check(reflect.DeepEqual(t.res, ref), "traced replay %d result differs from core.Run", len(traced))
			if s.ckpt {
				same, err := sameCheckpoints(dirU, dirT)
				if err != nil {
					return nil, err
				}
				res.check(same, "traced replay %d checkpoint files differ from core.Run's", len(traced))
			}
			traced = append(traced, t)
			res.spans = append(res.spans, t.rec)
		}
	}
	res.attempted = len(runs) + len(traced)

	var walls, allCycles, allocs []float64
	for _, r := range runs {
		walls = append(walls, r.wall)
		allCycles = append(allCycles, r.cycles...)
		allocs = append(allocs, float64(r.alloc)/1e6)
	}
	wallS := summarize(walls, 99)
	tail := summarize(allCycles, 99)
	if !o.trace {
		res.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
		res.set("regrid_ms", 1000*wallS.Median/float64(cycles), "ms", fmt.Sprintf("n=%d replays x %d regrids", len(runs), cycles))
		res.print("regrid_p99_ms", 1000*tail.Tail, "ms", tailNote(tail))
		res.set("alloc_mb", median(allocs), "MB", fmt.Sprintf("per replay, n=%d", len(runs)))
		res.set("turnaround_p50_ms", 1000*wallS.Median, "ms", fmt.Sprintf("replay wall time, n=%d", len(runs)))
		res.print("failed_share", 0, "ratio", fmt.Sprintf("failed=0 of attempted=%d replays", res.attempted))
		return res, nil
	}
	layerMetrics(res, traced, cycles, walls)
	return res, nil
}

// uninterrupted replays the workload once without interruption (with
// checkpointing if configured) and returns its result.
func (s *regridSpec) uninterrupted(dir string) (*core.RunResult, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return core.Run(s.trace, s.strategy(), s.config(dir))
}

func tailNote(t summary) string {
	return fmt.Sprintf("p%.3g of n=%d samples (%d beyond)", t.TailQ, t.N, t.Beyond)
}

// digest is a short hash of a RunResult's JSON encoding, printed so runs
// of the same seed can be compared across builds.
func digest(r *core.RunResult) string {
	b, _ := json.Marshal(r)
	return hash64(b)
}

func hash64(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// sameCheckpoints reports whether two checkpoint directories retain the
// same sequence numbers with byte-identical payloads.
func sameCheckpoints(a, b string) (bool, error) {
	sa, sb := &checkpoint.Store{Dir: a}, &checkpoint.Store{Dir: b}
	ea, err := sa.Entries()
	if err != nil {
		return false, err
	}
	eb, err := sb.Entries()
	if err != nil {
		return false, err
	}
	if len(ea) == 0 || len(ea) != len(eb) {
		return false, nil
	}
	for i := range ea {
		if ea[i].Seq != eb[i].Seq {
			return false, nil
		}
		pa, err := sa.Load(ea[i])
		if err != nil {
			return false, err
		}
		pb, err := sb.Load(eb[i])
		if err != nil {
			return false, err
		}
		if !bytes.Equal(pa, pb) {
			return false, nil
		}
	}
	return true, nil
}
