package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"time"

	"github.com/pragma-grid/pragma/internal/checkpoint"
)

// SnapshotSchema versions the scheduler snapshot payload inside the
// CRC-verified checkpoint container.
const SnapshotSchema = "pragma-sched-snapshot/v1"

// SnapshotRun is one restorable run in a scheduler snapshot: not the live
// spec (strategies and traces are not wire-serializable) but the wire
// parameters a SpecBuilder rebuilds the spec from, plus what Restore
// needs to resume rather than restart.
type SnapshotRun struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	Priority int        `json:"priority"`
	State    State      `json:"state"`
	Wire     url.Values `json:"wire"`
	// Weight is the tenant's fair-share weight at snapshot time, so a
	// restored backlog keeps its proportional-allocation shape.
	Weight float64 `json:"weight,omitempty"`
	// Resume marks a drained or preempted run with a checkpoint on disk:
	// Restore sets Spec.Resume so the run continues from its last regrid
	// boundary.
	Resume bool `json:"resume,omitempty"`
}

// snapshotDoc is the JSON payload wrapped by the checkpoint container.
type snapshotDoc struct {
	Schema  string        `json:"schema"`
	Taken   time.Time     `json:"taken"`
	Runs    []SnapshotRun `json:"runs"`
	Skipped int           `json:"skipped,omitempty"`
}

// Snapshot serializes the scheduler's restorable backlog — queued runs,
// preempted runs waiting to resume, runs the drain cancelled before they
// started, and drained runs — into a
// CRC-verified checkpoint container, so a serving process can roll
// (drain, exit, restart, Restore) without losing a single admitted run.
//
// Only a snapshot taken after Drain completes is a handoff: by then every
// run is either terminal or drained-resumable, so the snapshot is the
// complete set of unfinished work and nothing in it still executes here.
// A snapshot of a live scheduler omits running runs, and the queued runs
// it captures keep executing in this process — restoring it elsewhere
// would run them twice.
//
// Runs submitted without Spec.Wire cannot be rebuilt by a SpecBuilder and
// are skipped; the skipped count is returned and recorded in the payload.
// Done and failed runs are history, not backlog, and are not captured.
func (s *Scheduler) Snapshot() (data []byte, skipped int, err error) {
	s.mu.Lock()
	rs := make([]*Record, 0, len(s.runs.recs))
	for _, r := range s.runs.recs {
		switch r.State {
		case StateQueued, StatePreempted, StateCancelled, StateDrained:
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].seq < rs[j].seq })
	doc := snapshotDoc{Schema: SnapshotSchema, Taken: time.Now()}
	for _, r := range rs {
		if len(r.Wire) == 0 {
			doc.Skipped++
			continue
		}
		doc.Runs = append(doc.Runs, SnapshotRun{
			ID:       r.ID,
			Tenant:   r.Tenant,
			Priority: r.Priority,
			State:    r.State,
			Wire:     r.Wire,
			Weight:   r.Weight,
			Resume: (r.State == StateDrained || r.State == StatePreempted) &&
				r.CheckpointDir != "",
		})
	}
	s.mu.Unlock()

	payload, err := json.Marshal(doc)
	if err != nil {
		return nil, doc.Skipped, fmt.Errorf("sched: snapshot: %w", err)
	}
	return checkpoint.Encode(payload), doc.Skipped, nil
}

// Restore resubmits every run of a snapshot taken by a previous process:
// each wire description is rebuilt into a spec through build (the same
// SpecBuilder the HTTP handler uses), drained runs get Spec.Resume so
// they continue from their checkpoints, and queued/cancelled runs start
// fresh. Runs receive new IDs from this scheduler's sequence.
//
// Restore is best-effort per run: a spec that no longer builds or is
// rejected at admission does not abort the rest. It returns how many runs
// were resubmitted and the joined errors of those that were not. A
// corrupt container or wrong schema fails outright with zero restored.
func (s *Scheduler) Restore(data []byte, build SpecBuilder) (restored int, err error) {
	if build == nil {
		return 0, errors.New("sched: restore: nil SpecBuilder")
	}
	payload, err := checkpoint.Decode(data)
	if err != nil {
		return 0, fmt.Errorf("sched: restore: %w", err)
	}
	var doc snapshotDoc
	if err := json.Unmarshal(payload, &doc); err != nil {
		return 0, fmt.Errorf("sched: restore: %w", err)
	}
	if doc.Schema != SnapshotSchema {
		return 0, fmt.Errorf("sched: restore: unknown schema %q", doc.Schema)
	}
	var errs []error
	for _, sr := range doc.Runs {
		spec, berr := build(sr.Tenant, sr.Priority, sr.Wire)
		if berr != nil {
			errs = append(errs, fmt.Errorf("sched: restore %s: %w", sr.ID, berr))
			continue
		}
		spec.Wire = sr.Wire // keep the run restorable across the next roll too
		if sr.Resume {
			spec.Resume = true
		}
		if _, serr := s.Submit(SubmitRequest{Tenant: sr.Tenant, Priority: sr.Priority, Weight: sr.Weight, Spec: spec}); serr != nil {
			errs = append(errs, fmt.Errorf("sched: restore %s: %w", sr.ID, serr))
			continue
		}
		restored++
	}
	return restored, errors.Join(errs...)
}
