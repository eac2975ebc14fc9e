package sched

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strconv"

	"github.com/pragma-grid/pragma/internal/jsonenc"
	"github.com/pragma-grid/pragma/internal/stream"
)

// SpecBuilder turns a submit request's wire parameters into a RunSpec.
// The scheduler stays ignorant of trace formats; the serving binary
// decides what "trace=small&strategy=adaptive" means (and can cache the
// generated traces across submissions).
type SpecBuilder func(tenant string, priority int, v url.Values) (RunSpec, error)

// Surface is one executor's side of the /sched/* HTTP surface. The
// handler parses tenant, priority and weight, maps admission errors to
// status codes, and serves status, runs, stats, drain and events the
// same way for a single-node Scheduler and a fleet Router; the executor
// supplies its submit step, its stats and its drain.
type Surface struct {
	// View serves /sched/status and /sched/runs.
	View View
	// Submit admits one run from a submit request's remaining wire
	// parameters. nil answers 501.
	Submit func(tenant string, priority int, weight float64, v url.Values) (RunStatus, error)
	// Stats is the executor's aggregate state for /sched/stats and the
	// drain response.
	Stats func() any
	// Drain stops the executor gracefully; it returns once drained.
	Drain func(context.Context) error
	// Events, when non-nil, is served at /sched/events.
	Events *stream.Hub
	// Extra maps more GET paths to the value they answer with as JSON.
	Extra map[string]func() any
}

// Handler exposes the scheduler over HTTP, designed to be mounted on the
// telemetry server's mux:
//
//	POST /sched/submit?tenant=T&priority=N&...  admit a run (spec params go to build)
//	GET  /sched/status?id=run-000001            one run's status
//	GET  /sched/runs                            every retained run record
//	GET  /sched/stats                           aggregate scheduler state
//	POST /sched/drain                           graceful drain; returns when drained
//
// Submit returns 202 on admission, 429 with Retry-After under backpressure
// (saturation or tenant limit), and 503 while draining.
func Handler(s *Scheduler, build SpecBuilder) http.Handler {
	sf := Surface{
		View:   s.View,
		Stats:  func() any { return s.Stats() },
		Drain:  s.Drain,
		Events: s.cfg.Events,
	}
	if build != nil {
		sf.Submit = func(tenant string, priority int, weight float64, v url.Values) (RunStatus, error) {
			spec, err := build(tenant, priority, v)
			if err != nil {
				return RunStatus{}, err
			}
			// Keep the wire form: it is what Snapshot persists so a queued
			// or drained run survives a process roll (see Snapshot/Restore).
			if spec.Wire == nil {
				spec.Wire = v
			}
			return s.Submit(SubmitRequest{Tenant: tenant, Priority: priority, Weight: weight, Spec: spec})
		}
	}
	return sf.Handler()
}

// Handler builds the /sched/* mux for the surface.
func (sf Surface) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sched/submit", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if sf.Submit == nil {
			httpError(w, http.StatusNotImplemented, "no spec builder configured")
			return
		}
		v := req.URL.Query()
		priority := 0
		if p := v.Get("priority"); p != "" {
			n, err := strconv.Atoi(p)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad priority: "+err.Error())
				return
			}
			priority = n
		}
		// weight= sets the tenant's fair-share weight (default 1, clamped
		// into [MinWeight, MaxWeight]): under saturation a weight-3 tenant
		// completes ~3x the work of a weight-1 tenant in the same band.
		var weight float64
		if ws := v.Get("weight"); ws != "" {
			f, err := strconv.ParseFloat(ws, 64)
			if err != nil || f <= 0 {
				httpError(w, http.StatusBadRequest, "bad weight: must be a positive number")
				return
			}
			weight = f
		}
		st, err := sf.Submit(v.Get("tenant"), priority, weight, v)
		switch {
		case errors.Is(err, ErrSaturated), errors.Is(err, ErrTenantLimit):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, err.Error())
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusAccepted, st)
		}
	})
	mux.HandleFunc("/sched/status", func(w http.ResponseWriter, req *http.Request) {
		// Hot path: pooled zero-allocation encode, byte-identical to the
		// encoding/json wire format (held by differential tests).
		b := jsonenc.Get()
		ok := sf.View.statusJSONLocked(req.URL.Query().Get("id"), b)
		if !ok {
			jsonenc.Put(b)
			httpError(w, http.StatusNotFound, "unknown run id")
			return
		}
		b.Byte('\n')
		w.Header().Set("Content-Type", "application/json")
		w.Write(b.B)
		jsonenc.Put(b)
	})
	mux.HandleFunc("/sched/runs", func(w http.ResponseWriter, req *http.Request) {
		// Paginated: at most limit records (default DefaultRunsLimit,
		// capped at it too) starting after run ID ?after=. Clients page
		// by passing the last ID of each response as the next after.
		v := req.URL.Query()
		limit := DefaultRunsLimit
		if l := v.Get("limit"); l != "" {
			n, err := strconv.Atoi(l)
			if err != nil || n <= 0 {
				httpError(w, http.StatusBadRequest, "bad limit")
				return
			}
			if n < limit {
				limit = n
			}
		}
		runs := sf.View.RunsPage(v.Get("after"), limit)
		b := jsonenc.Get()
		b.Byte('[')
		for i := range runs {
			if i > 0 {
				b.Byte(',')
			}
			appendStatusJSON(b, &runs[i])
		}
		b.Raw("]\n")
		w.Header().Set("Content-Type", "application/json")
		w.Write(b.B)
		jsonenc.Put(b)
	})
	mux.HandleFunc("/sched/stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, sf.Stats())
	})
	mux.HandleFunc("/sched/drain", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if err := sf.Drain(req.Context()); err != nil {
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, sf.Stats())
	})
	for path, value := range sf.Extra {
		mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
			writeJSON(w, http.StatusOK, value())
		})
	}
	if sf.Events != nil {
		mux.Handle("/sched/events", stream.Handler(sf.Events, stream.HandlerConfig{}))
	}
	// JSON 404 for unknown /sched/ paths: every error this surface emits
	// is application/json, including routing misses.
	mux.HandleFunc("/sched/", func(w http.ResponseWriter, req *http.Request) {
		httpError(w, http.StatusNotFound, "unknown sched endpoint")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
