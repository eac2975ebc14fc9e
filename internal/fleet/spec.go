package fleet

import (
	"fmt"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
	"github.com/pragma-grid/pragma/internal/sched"
)

// WireSpec is a run description that can cross the control network: names
// and numbers only, no pointers. Router and workers materialize it into an
// executable sched.RunSpec independently with the same Materializer, so a
// run dispatched remotely, failed over to a survivor, or degraded to local
// execution computes the identical result. CheckpointDir must be on
// storage every fleet member can reach — it is what failover resumes from.
type WireSpec struct {
	// Trace names a built-in adaptation trace ("small" or "paper");
	// Scenario, when set instead, is an internal/scenario spec string.
	Trace    string `json:"trace,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	// Seed overrides the scenario spec's seed when SeedSet is true.
	Seed    int64 `json:"seed,omitempty"`
	SeedSet bool  `json:"seedSet,omitempty"`
	// Strategy is adaptive|system-sensitive|proactive or a partitioner
	// name ("" = adaptive); Procs the processor count ("0" = 8).
	Strategy string `json:"strategy,omitempty"`
	Procs    int    `json:"procs,omitempty"`
	// Checkpoint configuration; Resume continues from the latest valid
	// checkpoint in CheckpointDir (the failover path sets it).
	CheckpointDir   string `json:"checkpointDir,omitempty"`
	CheckpointEvery int    `json:"checkpointEvery,omitempty"`
	CheckpointKeep  int    `json:"checkpointKeep,omitempty"`
	Resume          bool   `json:"resume,omitempty"`
	// RegridDelayMS pauses every regrid by this many milliseconds. It is a
	// failure-rehearsal knob: the fleet smoke test uses it to keep runs in
	// flight long enough to SIGKILL a worker mid-run.
	RegridDelayMS int `json:"regridDelayMs,omitempty"`
	// Weight is the tenant's fair-share weight (0 = keep current /
	// default). It travels with the dispatch so a run routed to a worker —
	// or failed over to a survivor — keeps its proportional share in the
	// worker's local scheduler.
	Weight float64 `json:"weight,omitempty"`
}

// Materializer turns a WireSpec into an executable run spec. Workers and
// the router's local-fallback path share one, so every placement of a run
// computes the same result.
type Materializer func(ws WireSpec) (sched.RunSpec, error)

// DefaultMaterializer builds the standard materializer: built-in RM3D
// traces and scenario specs, cached per process so repeated dispatches of
// the same trace do not regenerate it, with a fresh strategy instance per
// run (strategies carry per-run state).
func DefaultMaterializer() Materializer {
	var mu sync.Mutex
	traces := map[string]*samr.Trace{}
	getTrace := func(key string, gen func() (*samr.Trace, error)) (*samr.Trace, error) {
		mu.Lock()
		defer mu.Unlock()
		if tr, ok := traces[key]; ok {
			return tr, nil
		}
		tr, err := gen()
		if err != nil {
			return nil, err
		}
		traces[key] = tr
		return tr, nil
	}
	return func(ws WireSpec) (sched.RunSpec, error) {
		var tr *samr.Trace
		var workModel func(idx int) samr.WorkModel
		var err error
		if ws.Scenario != "" {
			spec, perr := scenario.ParseSpec(ws.Scenario)
			if perr != nil {
				return sched.RunSpec{}, perr
			}
			if ws.SeedSet {
				spec.Seed = ws.Seed
			}
			key := fmt.Sprintf("scenario\x00%s\x00%d", ws.Scenario, spec.Seed)
			tr, err = getTrace(key, spec.Generate)
			workModel = spec.WorkModel
		} else {
			var cfg rm3d.Config
			switch ws.Trace {
			case "", "small":
				cfg = rm3d.SmallConfig()
			case "paper":
				cfg = rm3d.DefaultConfig()
			default:
				return sched.RunSpec{}, fmt.Errorf("fleet: unknown trace %q (small|paper)", ws.Trace)
			}
			name := ws.Trace
			if name == "" {
				name = "small"
			}
			tr, err = getTrace(name, func() (*samr.Trace, error) { return rm3d.GenerateTrace(cfg) })
		}
		if err != nil {
			return sched.RunSpec{}, err
		}
		strat, err := strategyByName(ws.Strategy)
		if err != nil {
			return sched.RunSpec{}, err
		}
		if ws.RegridDelayMS > 0 {
			strat = DelayStrategy(strat, time.Duration(ws.RegridDelayMS)*time.Millisecond)
		}
		procs := ws.Procs
		if procs == 0 {
			procs = 8
		}
		if procs < 1 {
			return sched.RunSpec{}, fmt.Errorf("fleet: bad procs %d", procs)
		}
		return sched.RunSpec{
			Trace:           tr,
			Strategy:        strat,
			Machine:         cluster.SP2(procs),
			NProcs:          procs,
			WorkModel:       workModel,
			CheckpointDir:   ws.CheckpointDir,
			CheckpointEvery: ws.CheckpointEvery,
			CheckpointKeep:  ws.CheckpointKeep,
			Resume:          ws.Resume,
		}, nil
	}
}

// strategyByName resolves a strategy name, returning a fresh instance per
// call. pragma-node's -replay and -sched resolve names through it too.
func strategyByName(name string) (core.Strategy, error) {
	switch name {
	case "", "adaptive":
		return core.Adaptive{ImbalanceGuard: 20}, nil
	case "system-sensitive":
		return &core.SystemSensitive{}, nil
	case "proactive":
		return &core.Proactive{}, nil
	default:
		p, err := partition.ByName(name)
		if err != nil {
			return nil, err
		}
		return core.Static{P: p}, nil
	}
}

// delayStrategy wraps a strategy with a fixed pause per Assign call,
// passing checkpoint state through to the inner strategy so resume
// semantics are unchanged.
type delayStrategy struct {
	inner core.Strategy
	d     time.Duration
}

// DelayStrategy returns strat slowed by d per regrid — the rehearsal hook
// behind WireSpec.RegridDelayMS. Checkpointing passes through.
func DelayStrategy(strat core.Strategy, d time.Duration) core.Strategy {
	return delayStrategy{inner: strat, d: d}
}

func (s delayStrategy) Name() string { return s.inner.Name() }

func (s delayStrategy) Assign(ctx *core.StepContext) (*partition.Assignment, string, error) {
	time.Sleep(s.d)
	return s.inner.Assign(ctx)
}

func (s delayStrategy) CheckpointState() ([]byte, error) {
	if cs, ok := s.inner.(core.CheckpointableStrategy); ok {
		return cs.CheckpointState()
	}
	return nil, nil
}

func (s delayStrategy) RestoreState(data []byte) error {
	if cs, ok := s.inner.(core.CheckpointableStrategy); ok {
		return cs.RestoreState(data)
	}
	return nil
}
