package sched

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/jsonenc"
	"github.com/pragma-grid/pragma/internal/stream"
)

// State is a run's lifecycle phase.
type State string

// Run states. Queued, Running and Preempted are transient; the rest are
// terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePreempted State = "preempted" // yielded its worker at a regrid boundary; requeued resumable
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateDrained   State = "drained"   // interrupted at a regrid boundary; checkpointed if configured
	StateCancelled State = "cancelled" // still queued when the drain began; never started
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateDrained || s == StateCancelled
}

// RunStatus is the externally visible snapshot of one run, from either
// executor: a Scheduler's pool or a fleet Router's placements.
type RunStatus struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	// Weight is the tenant's fair-share weight as of this run's admission.
	Weight float64 `json:"weight"`
	State  State   `json:"state"`

	// Placement is the fleet worker executing the run, or "local" when
	// the router degraded it to in-process execution. Attempt counts
	// placement attempts so far; Failovers how many times the run moved
	// because its worker was lost. A single-node scheduler leaves all
	// three empty.
	Placement string `json:"placement,omitempty"`
	Attempt   int    `json:"attempt,omitempty"`
	Failovers int    `json:"failovers,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`

	// QueueSeconds and RunSeconds are filled as the phases complete.
	QueueSeconds float64 `json:"queueSeconds"`
	RunSeconds   float64 `json:"runSeconds"`

	// Preemptions counts how many times this run was interrupted to hand
	// its worker to an under-share or higher-band submission; each one
	// checkpointed the run and requeued it resumable.
	Preemptions int `json:"preemptions,omitempty"`

	// Error describes a failed run, or the interrupt a drained one
	// stopped with.
	Error string `json:"error,omitempty"`
	// Resumable marks a drained run that can be resubmitted with
	// Spec.Resume against the same CheckpointDir and continue (or, with no
	// checkpoint written yet, correctly restart) toward the identical
	// final result.
	Resumable bool `json:"resumable,omitempty"`
	// CheckpointDir echoes the spec's checkpoint location for resubmission.
	CheckpointDir string `json:"checkpointDir,omitempty"`
	// Result is the completed run's execution profile (done runs only).
	Result *core.RunResult `json:"result,omitempty"`
}

// Record is one run's lifecycle record in a Table: what RunStatus
// reports. The table sets ID, State, Submitted and Finished; the executor
// sets the rest. Once added, a record changes only under the table's
// lock.
type Record struct {
	ID          string
	Tenant      string
	Priority    int
	Weight      float64
	State       State
	Placement   string
	Attempt     int
	Failovers   int
	Preemptions int

	Submitted, Started, Finished time.Time

	Err string
	// Resumable and CheckpointDir are reported while the run is drained
	// or preempted.
	Resumable     bool
	CheckpointDir string
	Result        *core.RunResult
	// Wire is the submission's serializable description (RunSpec.Wire);
	// Snapshot persists it.
	Wire url.Values

	seq  int
	done chan struct{} // closed on the terminal state
}

// Status returns the record as a RunStatus. Callers hold the table's lock.
func (r *Record) Status() RunStatus {
	st := RunStatus{
		ID:          r.ID,
		Tenant:      r.Tenant,
		Priority:    r.Priority,
		Weight:      r.Weight,
		State:       r.State,
		Placement:   r.Placement,
		Attempt:     r.Attempt,
		Failovers:   r.Failovers,
		Submitted:   r.Submitted,
		Started:     r.Started,
		Finished:    r.Finished,
		Preemptions: r.Preemptions,
		Error:       r.Err,
	}
	if !r.Started.IsZero() {
		st.QueueSeconds = r.Started.Sub(r.Submitted).Seconds()
		if !r.Finished.IsZero() {
			st.RunSeconds = r.Finished.Sub(r.Started).Seconds()
		}
	}
	if r.State == StateDrained || r.State == StatePreempted {
		st.Resumable = r.Resumable
		st.CheckpointDir = r.CheckpointDir
	}
	if r.State == StateDone {
		st.Result = r.Result
	}
	return st
}

// Table is an executor's run table: it numbers runs, publishes every
// state change to the events hub, counts outcomes and evicts the oldest
// terminal records beyond its bound. It shares the executor's lock, so a
// state change and the executor's own bookkeeping are one critical
// section and events reach the hub in transition order. Methods ending in
// Locked expect that lock held; the read side is View.
type Table struct {
	mu       *sync.Mutex
	prefix   string
	idFormat string // prefix + "%06d"
	keep     int
	events   *stream.Hub
	recs     map[string]*Record
	finished []string // eviction order of terminal records
	seq      int
	counts   map[State]int
}

// NewTable returns a table guarded by mu that IDs runs prefix000001,
// prefix000002, ..., retains at most keep terminal records, and publishes
// to events when non-nil.
func NewTable(mu *sync.Mutex, prefix string, keep int, events *stream.Hub) *Table {
	return &Table{
		mu:       mu,
		prefix:   prefix,
		idFormat: prefix + "%06d",
		keep:     keep,
		events:   events,
		recs:     make(map[string]*Record),
		counts:   make(map[State]int),
	}
}

// AddLocked admits rec: it gets the next ID, state queued and a submission
// time of now.
func (t *Table) AddLocked(rec *Record) {
	t.seq++
	rec.seq = t.seq
	rec.ID = fmt.Sprintf(t.idFormat, t.seq)
	rec.State = StateQueued
	rec.Submitted = time.Now()
	rec.done = make(chan struct{})
	t.recs[rec.ID] = rec
	t.counts[StateQueued]++
	t.publishLocked(rec)
}

// SetLocked moves rec to a transient state.
func (t *Table) SetLocked(rec *Record, state State) {
	rec.State = state
	t.publishLocked(rec)
}

// FinishLocked moves rec to a terminal state: it stamps Finished, counts
// the outcome, releases Wait and evicts the oldest terminal records beyond
// the table's bound.
func (t *Table) FinishLocked(rec *Record, state State) {
	rec.State = state
	rec.Finished = time.Now()
	t.counts[state]++
	t.publishLocked(rec)
	close(rec.done)
	t.finished = append(t.finished, rec.ID)
	for len(t.finished) > t.keep {
		delete(t.recs, t.finished[0])
		t.finished = t.finished[1:]
	}
}

// CountLocked returns how many runs were admitted (StateQueued) or
// finished in terminal state s.
func (t *Table) CountLocked(s State) int { return t.counts[s] }

// publishLocked emits rec's current state to the events hub. Hub.Publish
// never blocks, so publishing under the lock costs nothing and keeps each
// run's queued → running → terminal events in order.
func (t *Table) publishLocked(rec *Record) {
	if t.events == nil {
		return
	}
	t.events.Publish(stream.Event{
		Run:   rec.ID,
		Type:  stream.TypeState,
		State: string(rec.State),
		Error: rec.Err,
	})
}

// View is the read side of a Table. Scheduler and fleet.Router embed
// one, so Status, Wait, Runs and RunsPage exist once for both executors.
type View struct{ t *Table }

// View returns the table's read side.
func (t *Table) View() View { return View{t} }

// Status returns the run's current snapshot.
func (v View) Status(id string) (RunStatus, bool) {
	v.t.mu.Lock()
	defer v.t.mu.Unlock()
	r, ok := v.t.recs[id]
	if !ok {
		return RunStatus{}, false
	}
	return r.Status(), true
}

// Wait blocks until the run reaches a terminal state (or ctx ends) and
// returns its final status.
func (v View) Wait(ctx context.Context, id string) (RunStatus, error) {
	v.t.mu.Lock()
	r, ok := v.t.recs[id]
	v.t.mu.Unlock()
	if !ok {
		return RunStatus{}, fmt.Errorf("sched: unknown run %q", id)
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		return RunStatus{}, ctx.Err()
	}
	v.t.mu.Lock()
	defer v.t.mu.Unlock()
	return r.Status(), nil
}

// Runs lists every retained run record in submission order.
func (v View) Runs() []RunStatus {
	return v.RunsPage("", 0)
}

// DefaultRunsLimit caps an HTTP /sched/runs page when no explicit
// ?limit= is given.
const DefaultRunsLimit = 256

// RunsPage lists retained run records in submission order, skipping runs
// submitted up to and including run ID after ("" starts from the oldest
// retained record; an evicted or future ID still orders correctly because
// IDs embed the submission sequence). limit bounds the page size;
// limit <= 0 means unbounded. Page through a large backlog by passing the
// last returned ID as the next after.
func (v View) RunsPage(after string, limit int) []RunStatus {
	afterSeq := 0
	if after != "" {
		if n, err := strconv.Atoi(strings.TrimPrefix(after, v.t.prefix)); err == nil {
			afterSeq = n
		}
	}
	v.t.mu.Lock()
	defer v.t.mu.Unlock()
	rs := make([]*Record, 0, len(v.t.recs))
	for _, r := range v.t.recs {
		if r.seq > afterSeq {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].seq < rs[j].seq })
	if limit > 0 && len(rs) > limit {
		rs = rs[:limit]
	}
	out := make([]RunStatus, len(rs))
	for i, r := range rs {
		out[i] = r.Status()
	}
	return out
}

// statusJSONLocked looks up id and appends its status document under the
// table lock, reporting whether the run exists. The lock scope is one map
// probe plus an in-memory append — the same footprint Status has.
func (v View) statusJSONLocked(id string, b *jsonenc.Buffer) bool {
	v.t.mu.Lock()
	r, ok := v.t.recs[id]
	if !ok {
		v.t.mu.Unlock()
		return false
	}
	st := r.Status()
	appendStatusJSON(b, &st)
	v.t.mu.Unlock()
	return true
}
