package fleet

import (
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"

	"github.com/pragma-grid/pragma/internal/sched"
)

// Handler exposes the router over HTTP with the same /sched/* surface the
// single-node scheduler serves (sched.Surface), so clients need not care
// whether they are talking to one node or a fleet:
//
//	POST /sched/submit?tenant=T&priority=N&...  admit a run fleet-wide
//	GET  /sched/status?id=fleet-000001          one run's status
//	GET  /sched/runs                            every retained run record
//	GET  /sched/stats                           aggregate fleet state
//	POST /sched/drain                           drain the whole fleet
//	GET  /sched/fleet                           per-worker placement view
//
// Submit's spec parameters are WireSpec fields (see SpecFromValues).
// checkpointRoot, when non-empty, confines checkpoints under it: a
// checkpoint= must be a relative path inside the root (400 otherwise),
// and runs submitted without one checkpoint under <root>/<run-id>, so
// every fleet run is failover-capable by default.
func Handler(r *Router, checkpointRoot string) http.Handler {
	return sched.Surface{
		View: r.View,
		Submit: func(tenant string, priority int, weight float64, v url.Values) (RunStatus, error) {
			spec, err := SpecFromValues(v)
			if err != nil {
				return RunStatus{}, err
			}
			spec.Weight = weight
			return r.submit(SubmitRequest{Tenant: tenant, Priority: priority, Spec: spec}, checkpointRoot)
		},
		Stats:  func() any { return r.Stats() },
		Drain:  r.Drain,
		Events: r.cfg.Events,
		Extra: map[string]func() any{"/sched/fleet": func() any {
			return struct {
				Workers []WorkerInfo `json:"workers"`
				Stats   Stats        `json:"stats"`
			}{r.Workers(), r.Stats()}
		}},
	}.Handler()
}

// SpecFromValues parses WireSpec fields out of URL query parameters — the
// /sched/submit wire format both the node and the fleet accept: trace,
// scenario, seed, strategy, procs, checkpoint, checkpoint-every,
// checkpoint-keep, resume and regrid-delay-ms. tenant, priority and
// weight belong to the shared handler (sched.Surface).
func SpecFromValues(v url.Values) (WireSpec, error) {
	ws := WireSpec{
		Trace:    v.Get("trace"),
		Scenario: v.Get("scenario"),
		Strategy: v.Get("strategy"),
	}
	if ws.Trace != "" && ws.Scenario != "" {
		return WireSpec{}, fmt.Errorf("fleet: trace and scenario are mutually exclusive")
	}
	intField := func(name string, dst *int) error {
		if s := v.Get(name); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("fleet: bad %s: %w", name, err)
			}
			*dst = n
		}
		return nil
	}
	if err := intField("procs", &ws.Procs); err != nil {
		return WireSpec{}, err
	}
	if err := intField("checkpoint-every", &ws.CheckpointEvery); err != nil {
		return WireSpec{}, err
	}
	if err := intField("checkpoint-keep", &ws.CheckpointKeep); err != nil {
		return WireSpec{}, err
	}
	if err := intField("regrid-delay-ms", &ws.RegridDelayMS); err != nil {
		return WireSpec{}, err
	}
	if s := v.Get("seed"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return WireSpec{}, fmt.Errorf("fleet: bad seed: %w", err)
		}
		ws.Seed, ws.SeedSet = n, true
	}
	if s := v.Get("checkpoint"); s != "" {
		ws.CheckpointDir = s
	}
	if s := v.Get("resume"); s != "" {
		b, err := strconv.ParseBool(s)
		if err != nil {
			return WireSpec{}, fmt.Errorf("fleet: bad resume: %w", err)
		}
		ws.Resume = b
	}
	return ws, nil
}

// NodeSpecBuilder is the single-node scheduler's SpecBuilder: the same
// submit wire format as the fleet (SpecFromValues), materialized by mat,
// with the node's own checkpoint rule. With root set, a submit carrying
// name=NAME checkpoints under <root>/<tenant>/<name> (tenant "" becomes
// "_default") and resume=1 continues from there. Every other submit runs
// without checkpoints: checkpoint= is ignored, so a node never writes
// outside its root.
func NodeSpecBuilder(root string, mat Materializer) sched.SpecBuilder {
	return func(tenant string, _ int, v url.Values) (sched.RunSpec, error) {
		ws, err := SpecFromValues(v)
		if err != nil {
			return sched.RunSpec{}, err
		}
		ws.CheckpointDir = ""
		if name := v.Get("name"); name != "" && root != "" {
			if !safePathComponent(tenant) && tenant != "" {
				return sched.RunSpec{}, fmt.Errorf("tenant %q not usable as a path component", tenant)
			}
			if !safePathComponent(name) {
				return sched.RunSpec{}, fmt.Errorf("name %q not usable as a path component", name)
			}
			dir := tenant
			if dir == "" {
				dir = "_default"
			}
			ws.CheckpointDir = filepath.Join(root, dir, name)
		}
		ws.Resume = ws.Resume && ws.CheckpointDir != ""
		return mat(ws)
	}
}

// safePathComponent accepts names usable as a single directory component:
// letters, digits, dot, underscore, dash — but not "." or "..".
func safePathComponent(s string) bool {
	if s == "" || s == "." || s == ".." {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}
