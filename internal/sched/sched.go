// Package sched is Pragma's multi-tenant run scheduler: it executes many
// concurrent core.Run replays through one bounded shared worker pool
// instead of one engine per process.
//
// The paper's ADM/agent architecture manages a single application per
// runtime. Serving heavy traffic needs the complementary layer grid
// schedulers put in front of per-run engines: admission control that
// rejects work the pool cannot absorb, a priority queue with weighted
// per-tenant fairness so one tenant's flood cannot starve the rest,
// per-run isolation so a panic or lost-worker failure in one run never
// disturbs another, and graceful drain — stop admitting, interrupt
// in-flight runs at their next regrid boundary so they checkpoint through
// the internal/checkpoint path, and hand back a set of resumable run
// records.
//
// Fairness is weighted max-min with proportional allocation: every tenant
// carries a weight (submit param weight=, default 1), the scheduler
// charges each completed run attempt's cost — completed regrid intervals,
// or wall-clock seconds for runs that report none — divided by the weight
// as normalized service, and the queue always dispatches the waiting
// tenant with the least normalized service in the highest busy band. On
// top of it sits checkpoint-based preemption: a submit from a tenant far
// below its fair share (or from a higher band) that finds the pool
// saturated fires the most over-share running run's interrupt channel;
// that run checkpoints at its next regrid boundary exactly as a drain
// would, transitions to StatePreempted, and is requeued resumable with
// its service credit intact while the preemptor takes the worker.
//
// Concurrency model: exactly Config.Workers goroutines execute runs; Submit
// never spawns. Admitted runs wait in a fairQueue (priority bands, weighted
// max-min tenant selection). Each dispatch gets its own interrupt channel,
// closed either by a preemption (that one run yields) or by Drain (every
// in-flight run checkpoints, the backlog is cancelled, the pool exits).
package sched

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/stream"
)

// Admission errors. Submit returns one of these (wrapped with context);
// test with errors.Is. They are the backpressure surface: a caller seeing
// ErrSaturated or ErrTenantLimit should retry later, one seeing
// ErrDraining should go to another instance.
var (
	// ErrSaturated means the pool and the admission queue are both full.
	ErrSaturated = errors.New("sched: saturated, admission queue full")
	// ErrTenantLimit means this tenant already holds its maximum share of
	// queued plus running work.
	ErrTenantLimit = errors.New("sched: tenant over admission limit")
	// ErrDraining means the scheduler no longer admits work.
	ErrDraining = errors.New("sched: draining, not admitting")
)

// Config sizes a Scheduler.
type Config struct {
	// Workers is the pool size: the number of runs executing concurrently
	// (default 4). The scheduler runs exactly this many worker goroutines.
	Workers int
	// QueueLimit bounds the admitted-but-waiting backlog (default 64).
	// Submissions beyond it fail with ErrSaturated.
	QueueLimit int
	// TenantLimit bounds one tenant's queued plus running work
	// (0 = unlimited). Submissions beyond it fail with ErrTenantLimit.
	TenantLimit int
	// KeepFinished bounds retained terminal run records (default 1024);
	// the oldest are evicted so a long-lived server's memory stays flat.
	KeepFinished int
	// Events, when non-nil, receives every run lifecycle transition and
	// regrid cycle as stream events, so clients can watch runs over SSE
	// or long-poll instead of hammering /sched/status. Publishing never
	// blocks: a slow subscriber drops events and is marked lagging,
	// costing the scheduler nothing (see internal/stream).
	Events *stream.Hub
	// PreemptRatio tunes checkpoint-based preemption. When a submit finds
	// every worker busy, the scheduler picks the running run whose tenant
	// is most over-share (lowest band first, then highest normalized
	// service) and interrupts it if the submitter outranks it — a higher
	// priority band, or the same band with the victim's normalized service
	// more than PreemptRatio times the submitter's (default 2). The victim
	// checkpoints at its next regrid boundary and is requeued resumable.
	// Negative disables preemption entirely; runs then yield workers only
	// by finishing.
	PreemptRatio float64
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.KeepFinished <= 0 {
		c.KeepFinished = 1024
	}
	if c.PreemptRatio == 0 {
		c.PreemptRatio = 2
	}
}

// Tenant weight bounds. A submission's Weight is clamped into
// [MinWeight, MaxWeight]; zero means "keep the tenant's current weight"
// (DefaultWeight for a tenant that never declared one).
const (
	DefaultWeight = 1.0
	MinWeight     = 0.125
	MaxWeight     = 64.0
)

// clampWeight normalizes a submitted weight: zero or negative (and NaN)
// fall back to DefaultWeight, the rest clamp into [MinWeight, MaxWeight].
func clampWeight(w float64) float64 {
	if !(w > 0) { // catches <= 0 and NaN
		return DefaultWeight
	}
	if w < MinWeight {
		return MinWeight
	}
	if w > MaxWeight {
		return MaxWeight
	}
	return w
}

// RunSpec describes one run to execute: the inputs core.Run needs plus the
// checkpoint configuration that makes the run drainable. Each submission
// needs its own Strategy value — strategies carry per-run state.
type RunSpec struct {
	Trace     *samr.Trace
	Strategy  core.Strategy
	Machine   *cluster.Cluster
	NProcs    int
	Cost      cluster.CostModel
	WorkModel func(idx int) samr.WorkModel
	// CheckpointDir, when set, persists run state at regrid boundaries —
	// and at drain time, which is what makes a drained run resumable.
	CheckpointDir   string
	CheckpointEvery int
	CheckpointKeep  int
	// Resume continues from the latest valid checkpoint in CheckpointDir
	// (how a run drained by a previous instance is picked back up).
	Resume bool
	// Wire, when set, is the submission's serializable description — the
	// query parameters a SpecBuilder would rebuild this spec from. The
	// HTTP handler fills it automatically; programmatic submitters that
	// want their queued runs to survive a Snapshot/Restore roll must set
	// it themselves (runs without Wire are skipped by Snapshot).
	Wire url.Values
}

func (s *RunSpec) validate() error {
	if s.Trace == nil || len(s.Trace.Snapshots) == 0 {
		return fmt.Errorf("sched: spec has no trace")
	}
	if s.Strategy == nil {
		return fmt.Errorf("sched: spec has no strategy")
	}
	if s.Machine == nil {
		return fmt.Errorf("sched: spec has no machine")
	}
	return nil
}

// SubmitRequest is one admission attempt.
type SubmitRequest struct {
	// Tenant attributes the run for fairness and per-tenant limits
	// ("" is itself a tenant).
	Tenant string
	// Priority orders admitted runs: higher runs first; equal priorities
	// are served by weighted max-min fairness across tenants.
	Priority int
	// Weight sets the tenant's fair-share weight: under saturation a
	// weight-3 tenant completes ~3x the work of a weight-1 tenant in the
	// same band. Zero keeps the tenant's current weight (DefaultWeight if
	// it never declared one); non-zero values are clamped into
	// [MinWeight, MaxWeight] and become the tenant's weight for all its
	// queued and future runs.
	Weight float64
	// Spec is the run to execute.
	Spec RunSpec
	// RunFunc, when non-nil, replaces Spec entirely: the scheduler calls
	// it with the drain-interrupt channel. A RunFunc returning an error
	// wrapping core.ErrInterrupted is recorded as drained. This is the
	// seam tests and synthetic benchmarks use.
	RunFunc func(interrupt <-chan struct{}) (*core.RunResult, error)
}

// run is the scheduler's per-run execution state; rec is its record in
// the run table. id, tenant and priority key the fair queue.
type run struct {
	id       string
	tenant   string
	priority int
	rec      Record
	spec     RunSpec
	fromSpec bool // built from Spec (true) or a caller RunFunc (false)
	runFn    func(interrupt <-chan struct{}) (*core.RunResult, error)

	// Per-dispatch interrupt plumbing: a fresh channel per attempt,
	// closed once by a preemption or a drain (intClosed guards the close).
	interrupt chan struct{}
	intClosed bool
	// preempting marks a run whose interrupt was fired to yield its
	// worker (as opposed to a drain); finish requeues it instead of
	// recording a terminal state.
	preempting bool
	// charged is the cumulative cost already billed to the tenant for
	// this run, so a preempted-and-resumed run is only charged the delta
	// each attempt adds.
	charged float64
}

// Stats is a point-in-time view of the scheduler.
type Stats struct {
	Workers     int  `json:"workers"`
	QueueDepth  int  `json:"queueDepth"`
	QueueLimit  int  `json:"queueLimit"`
	TenantLimit int  `json:"tenantLimit"`
	Active      int  `json:"active"`
	Draining    bool `json:"draining"`

	Submitted int `json:"submitted"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Drained   int `json:"drained"`
	Cancelled int `json:"cancelled"`
	// Preemptions counts checkpoint-based preemptions fired since start.
	Preemptions int `json:"preemptions"`
}

// Scheduler multiplexes runs over a bounded worker pool.
type Scheduler struct {
	View // Status, Wait, Runs and RunsPage over runs

	cfg Config

	mu          sync.Mutex
	cond        *sync.Cond
	queue       *fairQueue
	runs        *Table
	running     map[string]*run // dispatched and executing (preemption victim pool)
	tenantLoad  map[string]int
	weights     map[string]float64       // current weight per active tenant
	gauges      map[string]*tenantGauges // pre-resolved per-tenant metric children
	active      int
	preemptions int
	draining    bool

	wg       sync.WaitGroup
	stopOnce sync.Once
	stopped  chan struct{}
}

// New starts a scheduler with Config.Workers pool goroutines. Stop it with
// Drain (graceful) or Close.
func New(cfg Config) *Scheduler {
	cfg.fill()
	s := &Scheduler{
		cfg:        cfg,
		stopped:    make(chan struct{}),
		queue:      newFairQueue(),
		running:    make(map[string]*run),
		tenantLoad: make(map[string]int),
		weights:    make(map[string]float64),
		gauges:     make(map[string]*tenantGauges),
	}
	s.runs = NewTable(&s.mu, "run-", cfg.KeepFinished, cfg.Events)
	s.View = s.runs.View()
	s.cond = sync.NewCond(&s.mu)
	metricWorkers.Set(float64(cfg.Workers))
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// specRunFn builds the execution closure for a spec-based submission. It
// captures the run's ID so regrid-cycle events can be attributed to it on
// the stream hub.
func (s *Scheduler) specRunFn(id string, spec RunSpec) func(<-chan struct{}) (*core.RunResult, error) {
	hub := s.cfg.Events
	return func(interrupt <-chan struct{}) (*core.RunResult, error) {
		var onRegrid func(int, string)
		if hub != nil {
			onRegrid = func(idx int, partitioner string) {
				hub.Publish(stream.Event{
					Run: id, Type: stream.TypeRegrid,
					Cycle: idx, Partitioner: partitioner,
				})
			}
		}
		return core.Run(spec.Trace, spec.Strategy, core.RunConfig{
			Machine:         spec.Machine,
			Cost:            spec.Cost,
			NProcs:          spec.NProcs,
			WorkModel:       spec.WorkModel,
			CheckpointDir:   spec.CheckpointDir,
			CheckpointEvery: spec.CheckpointEvery,
			CheckpointKeep:  spec.CheckpointKeep,
			Resume:          spec.Resume,
			Interrupt:       interrupt,
			OnRegrid:        onRegrid,
		})
	}
}

// Submit admits a run or rejects it with ErrSaturated, ErrTenantLimit or
// ErrDraining. On admission it returns the queued run's status snapshot;
// the run starts as soon as a pool worker frees up.
func (s *Scheduler) Submit(req SubmitRequest) (RunStatus, error) {
	if req.RunFunc == nil {
		if err := req.Spec.validate(); err != nil {
			return RunStatus{}, err
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		admitDraining.Inc()
		return RunStatus{}, fmt.Errorf("sched: submit %q: %w", req.Tenant, ErrDraining)
	}
	if s.cfg.TenantLimit > 0 && s.tenantLoad[req.Tenant] >= s.cfg.TenantLimit {
		s.mu.Unlock()
		admitTenant.Inc()
		return RunStatus{}, fmt.Errorf("sched: tenant %q at limit %d: %w",
			req.Tenant, s.cfg.TenantLimit, ErrTenantLimit)
	}
	if s.queue.len() >= s.cfg.QueueLimit {
		s.mu.Unlock()
		admitSaturated.Inc()
		return RunStatus{}, fmt.Errorf("sched: queue at limit %d: %w", s.cfg.QueueLimit, ErrSaturated)
	}
	w := s.weights[req.Tenant]
	if req.Weight != 0 {
		w = clampWeight(req.Weight)
		s.weights[req.Tenant] = w
	} else if w == 0 {
		w = DefaultWeight
		s.weights[req.Tenant] = w
	}
	r := &run{
		tenant:   req.Tenant,
		priority: req.Priority,
		rec: Record{
			Tenant:        req.Tenant,
			Priority:      req.Priority,
			Weight:        w,
			CheckpointDir: req.Spec.CheckpointDir,
			Resumable:     req.Spec.CheckpointDir != "",
			Wire:          req.Spec.Wire,
		},
		spec:     req.Spec,
		fromSpec: req.RunFunc == nil,
		runFn:    req.RunFunc,
	}
	s.runs.AddLocked(&r.rec)
	r.id = r.rec.ID
	if r.runFn == nil {
		r.runFn = s.specRunFn(r.id, req.Spec)
	}
	s.tenantLoad[r.tenant]++
	s.queue.push(r)
	metricQueueDepth.Set(float64(s.queue.len()))
	s.gaugesLocked(r.tenant).weight.Set(w)
	s.maybePreemptLocked(r)
	st := r.rec.Status()
	s.mu.Unlock()

	admitAccepted.Inc()
	s.cond.Signal()
	return st, nil
}

// maybePreemptLocked fires checkpoint-based preemption for a freshly
// queued run when the pool is saturated and the submitter outranks a
// running run: a higher priority band, or the same band with the victim's
// tenant more than Config.PreemptRatio times over the submitter's
// normalized service. The victim — lowest band first, then the most
// over-share tenant — has its interrupt channel closed; it checkpoints at
// its next regrid boundary and finish requeues it resumable. Only runs
// that can actually resume are eligible: spec runs need a CheckpointDir
// (restarting a half-advanced strategy is not bit-identical), RunFunc
// runs opted into interrupt handling by taking the channel. Runs never
// preempt their own tenant — the submitter would just wait behind itself.
func (s *Scheduler) maybePreemptLocked(sub *run) {
	if s.cfg.PreemptRatio < 0 || s.active < s.cfg.Workers || s.draining {
		return
	}
	var victim *run
	var victimSvc float64
	for _, v := range s.running {
		if v.preempting || v.tenant == sub.tenant {
			continue
		}
		if v.fromSpec && v.spec.CheckpointDir == "" {
			continue
		}
		svc := s.queue.service(v.priority, v.tenant)
		if victim == nil || v.priority < victim.priority ||
			(v.priority == victim.priority && svc > victimSvc) {
			victim, victimSvc = v, svc
		}
	}
	if victim == nil {
		return
	}
	if victim.priority >= sub.priority {
		if victim.priority > sub.priority {
			return
		}
		subSvc := s.queue.service(sub.priority, sub.tenant)
		if victimSvc <= subSvc || victimSvc <= subSvc*s.cfg.PreemptRatio {
			return
		}
	}
	victim.preempting = true
	victim.rec.Preemptions++
	s.preemptions++
	s.closeInterruptLocked(victim)
	metricPreemptions.Inc()
}

// closeInterruptLocked fires a run's per-dispatch interrupt channel at
// most once. Callers hold s.mu.
func (s *Scheduler) closeInterruptLocked(r *run) {
	if r.interrupt != nil && !r.intClosed {
		r.intClosed = true
		close(r.interrupt)
	}
}

// worker is one pool goroutine: it executes queued runs until a drain
// empties the queue.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.len() == 0 && !s.draining {
			s.cond.Wait()
		}
		r := s.queue.pop()
		if r == nil { // draining and nothing left
			s.mu.Unlock()
			return
		}
		r.rec.Started = time.Now()
		wait := r.rec.Started.Sub(r.rec.Submitted)
		r.interrupt = make(chan struct{})
		r.intClosed = false
		r.preempting = false
		s.running[r.id] = r
		s.active++
		metricQueueDepth.Set(float64(s.queue.len()))
		metricActiveRuns.Set(float64(s.active))
		s.runs.SetLocked(&r.rec, StateRunning)
		s.mu.Unlock()

		metricQueueWaitSeconds.Observe(wait.Seconds())
		s.execute(r)
	}
}

// execute runs r with panic containment: a panicking run is recorded as
// failed and the worker survives to serve the next one.
func (s *Scheduler) execute(r *run) {
	defer func() {
		if p := recover(); p != nil {
			metricPanics.Inc()
			s.finish(r, nil, fmt.Errorf("sched: run panicked: %v", p))
		}
	}()
	res, err := r.runFn(r.interrupt)
	s.finish(r, res, err)
}

// finish settles a completed run attempt: it charges the attempt's cost
// to the tenant's normalized service, then either requeues a preempted
// run resumable or records the terminal state and releases the tenant
// slot.
func (s *Scheduler) finish(r *run, res *core.RunResult, err error) {
	state := StateDone
	switch {
	case err == nil:
	case errors.Is(err, core.ErrInterrupted):
		state = StateDrained
	default:
		state = StateFailed
	}

	s.mu.Lock()
	delete(s.running, r.id)
	s.chargeLocked(r, res, err)
	if state == StateDrained && r.preempting && !s.draining {
		// Preempted, not drained: the run checkpointed at its regrid
		// boundary to yield the worker. Requeue it at the front of its
		// tenant's FIFO — service credit intact — flagged to resume from
		// the checkpoint on its next dispatch.
		r.preempting = false
		if r.fromSpec && r.spec.CheckpointDir != "" {
			r.spec.Resume = true
			r.runFn = s.specRunFn(r.id, r.spec)
		}
		s.active--
		s.queue.pushFront(r)
		metricActiveRuns.Set(float64(s.active))
		metricQueueDepth.Set(float64(s.queue.len()))
		s.runs.SetLocked(&r.rec, StatePreempted)
		s.mu.Unlock()

		metricOutcomes.With(string(StatePreempted)).Inc()
		s.cond.Signal()
		return
	}
	r.preempting = false
	r.rec.Result = res
	if err != nil {
		r.rec.Err = err.Error()
	}
	s.active--
	s.tenantLoad[r.tenant]--
	if s.tenantLoad[r.tenant] <= 0 {
		delete(s.tenantLoad, r.tenant)
		s.tenantExitLocked(r.tenant)
	}
	metricActiveRuns.Set(float64(s.active))
	s.runs.FinishLocked(&r.rec, state)
	ran := r.rec.Finished.Sub(r.rec.Started)
	s.mu.Unlock()

	metricOutcomes.With(string(state)).Inc()
	metricRunSeconds.With(string(state)).Observe(ran.Seconds())
}

// chargeLocked bills the tenant for the progress this attempt made, in
// cost units — completed regrid intervals when the run reports them
// (result snapshots, or the interrupt's resume point), wall-clock seconds
// otherwise — normalized by the tenant's weight. Charges are cumulative
// per run (r.charged), so a preempted-then-resumed run pays only the
// delta each attempt adds. Callers hold s.mu.
func (s *Scheduler) chargeLocked(r *run, res *core.RunResult, err error) {
	var total float64
	switch {
	case res != nil && len(res.Snapshots) > 0:
		total = float64(len(res.Snapshots))
	default:
		if n, ok := interruptedAt(err); ok {
			total = n
		} else {
			total = r.charged + time.Since(r.rec.Started).Seconds()
		}
	}
	delta := total - r.charged
	if !(delta > 0) { // also guards NaN from a pathological RunFunc result
		return
	}
	r.charged = total
	w := r.rec.Weight
	if w <= 0 {
		w = DefaultWeight
	}
	norm := delta / w
	svc := s.queue.charge(r.priority, r.tenant, norm)
	g := s.gaugesLocked(r.tenant)
	g.cost.Add(delta)
	g.service.Set(svc)
	metricNormalizedService.Observe(norm)
}

// interruptedAt reports the resume point of an interrupted attempt. Kept
// out of chargeLocked so the errors.As target only escapes to the heap on
// the rare interrupted path, not on every clean completion.
func interruptedAt(err error) (float64, bool) {
	if err == nil {
		return 0, false
	}
	var ie *core.InterruptedError
	if errors.As(err, &ie) {
		return float64(ie.Next), true
	}
	return 0, false
}

// tenantExitLocked forgets a tenant whose last queued-or-running run just
// finished: its normalized-service ledger and declared weight reset, so
// the next active period starts fresh (no banked idle credit, no carried
// debt). Callers hold s.mu.
func (s *Scheduler) tenantExitLocked(tenant string) {
	s.queue.tenantExit(tenant)
	delete(s.weights, tenant)
	s.gaugesLocked(tenant).service.Set(0)
}

// Drain gracefully stops the scheduler: admission closes, the backlog is
// cancelled, every in-flight run is interrupted at its next regrid
// boundary (checkpointing through its configured store first), and Drain
// returns once the pool has exited — or earlier with ctx's error. Drained
// runs report Resumable and can be resubmitted with Spec.Resume. Drain is
// idempotent; concurrent calls all wait for the same drain.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		metricDrains.Inc()
		for _, r := range s.running {
			s.closeInterruptLocked(r) // interrupt every in-flight run
		}
		cancelled := s.queue.drainAll()
		metricQueueDepth.Set(0)
		for _, r := range cancelled {
			// A preempted run already checkpointed at a regrid boundary;
			// it leaves as drained-resumable, exactly as if the drain had
			// interrupted it itself. Never-started runs are cancelled.
			state := StateCancelled
			if r.rec.State == StatePreempted {
				state = StateDrained
			}
			s.tenantLoad[r.tenant]--
			if s.tenantLoad[r.tenant] <= 0 {
				delete(s.tenantLoad, r.tenant)
				s.tenantExitLocked(r.tenant)
			}
			s.runs.FinishLocked(&r.rec, state)
			metricOutcomes.With(string(state)).Inc()
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	go func() {
		s.wg.Wait()
		s.stopOnce.Do(func() { close(s.stopped) })
	}()
	select {
	case <-s.stopped:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sched: drain: %w", ctx.Err())
	}
}

// Draining reports whether a drain has begun: the scheduler no longer
// admits work. Serving binaries surface it through /readyz so load
// balancers stop routing to the node while in-flight runs checkpoint.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stopped returns a channel closed once a drain has completed and the
// worker pool has exited — however the drain was initiated (Close, Drain,
// or the HTTP drain endpoint). Serving binaries select on it to exit after
// a remote drain.
func (s *Scheduler) Stopped() <-chan struct{} { return s.stopped }

// Close drains with no deadline: it returns once every in-flight run has
// reached a regrid boundary and stopped.
func (s *Scheduler) Close() error { return s.Drain(context.Background()) }

// Stats returns the scheduler's aggregate state.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Workers:     s.cfg.Workers,
		QueueDepth:  s.queue.len(),
		QueueLimit:  s.cfg.QueueLimit,
		TenantLimit: s.cfg.TenantLimit,
		Active:      s.active,
		Draining:    s.draining,
		Submitted:   s.runs.CountLocked(StateQueued),
		Done:        s.runs.CountLocked(StateDone),
		Failed:      s.runs.CountLocked(StateFailed),
		Drained:     s.runs.CountLocked(StateDrained),
		Cancelled:   s.runs.CountLocked(StateCancelled),
		Preemptions: s.preemptions,
	}
}
