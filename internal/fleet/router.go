package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/sched"
	"github.com/pragma-grid/pragma/internal/stream"
)

// Admission errors, shared with the single-node scheduler so one HTTP
// surface maps both. Test with errors.Is.
var (
	// ErrDraining means the router no longer admits work.
	ErrDraining = sched.ErrDraining
	// ErrSaturated means too many runs are already in flight fleet-wide.
	ErrSaturated = sched.ErrSaturated
)

// Config sizes a Router.
type Config struct {
	// Port is the control-network access the router sends and receives
	// on — the broker process passes its own Center (required).
	Port agents.Port

	// HeartbeatTimeout evicts workers silent this long (default 5s). The
	// eviction scan runs at a quarter of it.
	HeartbeatTimeout time.Duration
	// DispatchDeadline bounds each dispatch RPC: a worker that does not
	// acknowledge within it is treated as failed (default 2s).
	DispatchDeadline time.Duration
	// PlaceAttempts bounds dispatch attempts per placement round before
	// the router degrades the run to local execution (default 3).
	PlaceAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// dispatch attempts (defaults 25ms, 500ms); a uniform jitter of up to
	// half the current backoff is added so a thundering herd of retries
	// spreads out.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive dispatch failures open a worker's
	// circuit breaker (default 3); BreakerCooldown is how long it stays
	// open before the worker is probed again (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxFailovers bounds how many times one run may be re-placed after
	// worker loss before falling back to local execution (default 3).
	MaxFailovers int

	// InflightLimit bounds non-terminal runs fleet-wide (default 1024).
	InflightLimit int
	// KeepFinished bounds retained terminal run records (default 1024).
	KeepFinished int

	// LocalWorkers sizes the in-process fallback pool used when no worker
	// is placeable (default 1).
	LocalWorkers int
	// Materialize turns wire specs into executable specs for the local
	// fallback path (default DefaultMaterializer()).
	Materialize Materializer
	// Weights parameterize the Fig. 4 relative-capacity formula used for
	// placement (zero value = monitor.DefaultWeights()).
	Weights monitor.Weights
	// Seed seeds the retry-jitter RNG (0 = 1), for reproducible schedules
	// in tests.
	Seed int64
	// OnError receives asynchronous failures (send errors, late frames);
	// it runs on router goroutines and must not block. nil discards.
	OnError func(error)
	// Events, when non-nil, receives a stream.Event for every fleet run
	// state transition — admission, placement (running), failover
	// re-queueing, and the terminal record on the result path. Publishing
	// never blocks; slow subscribers drop.
	Events *stream.Hub
}

func (c *Config) fill() {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.DispatchDeadline <= 0 {
		c.DispatchDeadline = 2 * time.Second
	}
	if c.PlaceAttempts <= 0 {
		c.PlaceAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.MaxFailovers <= 0 {
		c.MaxFailovers = 3
	}
	if c.InflightLimit <= 0 {
		c.InflightLimit = 1024
	}
	if c.KeepFinished <= 0 {
		c.KeepFinished = 1024
	}
	if c.LocalWorkers <= 0 {
		c.LocalWorkers = 1
	}
	if c.Materialize == nil {
		c.Materialize = DefaultMaterializer()
	}
	if c.Weights == (monitor.Weights{}) {
		c.Weights = monitor.DefaultWeights()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// State and RunStatus are the scheduler's: a fleet run has the same
// record as a single-node run, plus its placement fields.
type (
	State     = sched.State
	RunStatus = sched.RunStatus
)

// Run states. Queued covers admission through placement (including
// re-placement during failover); a fleet run is never preempted.
const (
	StateQueued    = sched.StateQueued
	StateRunning   = sched.StateRunning
	StateDone      = sched.StateDone
	StateFailed    = sched.StateFailed
	StateDrained   = sched.StateDrained
	StateCancelled = sched.StateCancelled
)

// WorkerInfo is the router's view of one worker, for /sched/fleet.
type WorkerInfo struct {
	ID            string    `json:"id"`
	Slots         int       `json:"slots"`
	Active        int       `json:"active"`
	CPU           float64   `json:"cpu"`
	LastHeartbeat time.Time `json:"lastHeartbeat"`
	BreakerOpen   bool      `json:"breakerOpen,omitempty"`
	Evicted       bool      `json:"evicted,omitempty"`
	Draining      bool      `json:"draining,omitempty"`
}

// Stats is a point-in-time aggregate view of the router.
type Stats struct {
	Workers   int  `json:"workers"`
	Reachable int  `json:"reachable"`
	Draining  bool `json:"draining"`

	Submitted int `json:"submitted"`
	Active    int `json:"active"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Drained   int `json:"drained"`
	Cancelled int `json:"cancelled"`

	Failovers      int `json:"failovers"`
	Evictions      int `json:"evictions"`
	LocalFallbacks int `json:"localFallbacks"`
}

// workerState is the router's record of one worker.
type workerState struct {
	id       string
	port     string
	slots    int
	reported int // queued+running per the latest heartbeat
	inflight int // dispatches the router has in flight or acked on it
	reading  monitor.Reading
	lastBeat time.Time

	failures  int // consecutive dispatch failures (breaker input)
	openUntil time.Time
	evicted   bool
	draining  bool
}

// run is one fleet run still in flight: its record in the router's run
// table plus the wire spec every placement materializes.
type run struct {
	sched.Record
	spec WireSpec
}

// pendingAck is a dispatch waiting for its worker's admission verdict.
type pendingAck struct {
	ch      chan ackMsg
	attempt int
}

// SubmitRequest is one fleet admission attempt.
type SubmitRequest struct {
	Tenant   string
	Priority int
	Spec     WireSpec
}

// Router shards runs across fleet workers. Create with NewRouter; stop
// with Drain (graceful) or Close.
type Router struct {
	sched.View // Status, Wait, Runs and RunsPage over runs

	cfg  Config
	port agents.Port

	mu       sync.Mutex
	runs     *sched.Table
	inflight map[string]*run // non-terminal runs
	workers  map[string]*workerState
	acks     map[string]pendingAck

	failovers int
	evictions int
	fallbacks int
	draining  bool

	jmu    sync.Mutex
	jitter *rand.Rand

	local   *sched.Scheduler
	drainCh chan struct{}
	stopCh  chan struct{}
	stopped chan struct{}
	stopO   sync.Once
	wg      sync.WaitGroup
}

// NewRouter registers the router's mailbox on the control network and
// starts its receive and eviction loops.
func NewRouter(cfg Config) (*Router, error) {
	cfg.fill()
	if cfg.Port == nil {
		return nil, fmt.Errorf("fleet: router needs a Port")
	}
	inbox, err := cfg.Port.Register(RouterPort, 1024)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	r := &Router{
		cfg:      cfg,
		port:     cfg.Port,
		inflight: make(map[string]*run),
		workers:  make(map[string]*workerState),
		acks:     make(map[string]pendingAck),
		jitter:   rand.New(rand.NewSource(cfg.Seed)),
		local:    sched.New(sched.Config{Workers: cfg.LocalWorkers}),
		drainCh:  make(chan struct{}),
		stopCh:   make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	r.runs = sched.NewTable(&r.mu, "fleet-", cfg.KeepFinished, cfg.Events)
	r.View = r.runs.View()
	r.wg.Add(2)
	go r.recvLoop(inbox)
	go r.evictLoop()
	return r, nil
}

// AttachCenter subscribes the router to the center's disconnect
// notifications, so a worker whose TCP link tears down is failed over
// immediately instead of after the heartbeat window.
func (r *Router) AttachCenter(c *agents.Center) {
	c.OnDisconnect(r.PortsLost)
}

// PortsLost reacts to control-network ports vanishing: any that belong to
// registered workers evict those workers and fail their runs over.
func (r *Router) PortsLost(ports []string) {
	for _, p := range ports {
		if len(p) <= len(workerPortPrefix) || p[:len(workerPortPrefix)] != workerPortPrefix {
			continue
		}
		r.evict(p[len(workerPortPrefix):], "link lost")
	}
}

// reportErr routes an asynchronous failure to the configured handler.
func (r *Router) reportErr(err error) {
	if r.cfg.OnError != nil {
		r.cfg.OnError(err)
	}
}

// Submit admits a run and starts placing it. It returns the queued run's
// status; placement proceeds asynchronously (watch Status or Wait).
func (r *Router) Submit(req SubmitRequest) (RunStatus, error) {
	return r.submit(req, "")
}

// submit is Submit with an optional checkpoint root. With root set, a
// spec's checkpoint directory must be relative and stay under root after
// filepath.Clean; it is resolved against root. A spec without one gets
// <root>/<run-id> under the admission lock, so every fleet run is
// failover-capable by default and no two runs can race onto the same
// directory.
func (r *Router) submit(req SubmitRequest, ckptRoot string) (RunStatus, error) {
	spec := req.Spec
	if ckptRoot != "" && spec.CheckpointDir != "" {
		if !filepath.IsLocal(spec.CheckpointDir) {
			return RunStatus{}, fmt.Errorf("fleet: checkpoint %q must be a relative path inside the checkpoint root", spec.CheckpointDir)
		}
		spec.CheckpointDir = filepath.Join(ckptRoot, spec.CheckpointDir)
	}
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return RunStatus{}, fmt.Errorf("fleet: submit %q: %w", req.Tenant, ErrDraining)
	}
	if len(r.inflight) >= r.cfg.InflightLimit {
		r.mu.Unlock()
		return RunStatus{}, fmt.Errorf("fleet: %d runs in flight: %w", r.cfg.InflightLimit, ErrSaturated)
	}
	rn := &run{Record: sched.Record{Tenant: req.Tenant, Priority: req.Priority, Weight: spec.Weight}, spec: spec}
	r.runs.AddLocked(&rn.Record)
	if rn.spec.CheckpointDir == "" && ckptRoot != "" {
		rn.spec.CheckpointDir = filepath.Join(ckptRoot, rn.ID)
	}
	rn.CheckpointDir = rn.spec.CheckpointDir
	r.inflight[rn.ID] = rn
	st := rn.Status()
	r.mu.Unlock()

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.place(rn, false)
	}()
	return st, nil
}

// place finds a home for the run: capacity-ranked workers first, with
// bounded retries, backoff and jitter, then the local pool. resume marks a
// failover re-placement, which continues from the run's checkpoints.
func (r *Router) place(rn *run, resume bool) {
	backoff := r.cfg.BackoffBase
	tried := make(map[string]bool)
	for attempt := 0; attempt < r.cfg.PlaceAttempts; attempt++ {
		select {
		case <-r.drainCh:
			r.finishUnplaced(rn)
			return
		case <-r.stopCh:
			return
		default:
		}
		w := r.pickWorker(tried)
		if w == nil {
			break // nobody placeable; degrade to local
		}
		tried[w.id] = true
		if attempt > 0 {
			metricRetries.Inc()
		}
		if r.dispatch(rn, w, resume) {
			return
		}
		// Failed attempt: back off with jitter before trying the next
		// candidate so a flapping fleet is not hammered in lockstep.
		sleep := backoff + r.jitterUpTo(backoff/2)
		if backoff < r.cfg.BackoffMax {
			backoff *= 2
			if backoff > r.cfg.BackoffMax {
				backoff = r.cfg.BackoffMax
			}
		}
		select {
		case <-time.After(sleep):
		case <-r.drainCh:
			r.finishUnplaced(rn)
			return
		case <-r.stopCh:
			return
		}
	}
	r.runLocal(rn, resume)
}

func (r *Router) jitterUpTo(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	r.jmu.Lock()
	defer r.jmu.Unlock()
	return time.Duration(r.jitter.Int63n(int64(d) + 1))
}

// pickWorker ranks eligible workers by forecast relative capacity (Fig. 4
// applied to the fleet: each worker's heartbeat reading is one "node" of
// the capacity calculation) discounted by in-flight load, preferring ones
// this placement has not tried. Returns nil when nobody is placeable.
func (r *Router) pickWorker(tried map[string]bool) *workerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	eligible := make([]*workerState, 0, len(r.workers))
	for _, w := range r.workers {
		if w.evicted || w.draining || now.Before(w.openUntil) {
			continue
		}
		if now.Sub(w.lastBeat) > r.cfg.HeartbeatTimeout {
			continue
		}
		if w.busy() >= w.slots {
			continue
		}
		eligible = append(eligible, w)
	}
	metricReachableWorkers.Set(float64(len(eligible)))
	if len(eligible) == 0 {
		return nil
	}
	// Prefer untried candidates; fall back to the full set only when every
	// eligible worker has already failed this placement once.
	fresh := eligible[:0:0]
	for _, w := range eligible {
		if !tried[w.id] {
			fresh = append(fresh, w)
		}
	}
	if len(fresh) > 0 {
		eligible = fresh
	}
	sort.Slice(eligible, func(i, j int) bool { return eligible[i].id < eligible[j].id })
	readings := make([]monitor.Reading, len(eligible))
	for i, w := range eligible {
		readings[i] = w.reading
	}
	caps, err := monitor.Capacities(readings, r.cfg.Weights)
	best := eligible[0]
	bestScore := -1.0
	for i, w := range eligible {
		score := 1.0
		if err == nil {
			score = caps[i]
		}
		score /= float64(1 + w.busy())
		if score > bestScore {
			best, bestScore = w, score
		}
	}
	best.inflight++
	return best
}

// busy is the worker's in-use slot count: whichever is larger of its own
// report and the router's in-flight dispatches (the heartbeat may not have
// seen the latest dispatch yet). Callers hold r.mu.
func (w *workerState) busy() int {
	if w.inflight > w.reported {
		return w.inflight
	}
	return w.reported
}

// dispatch sends one placement to w and waits for its acknowledgment under
// the dispatch deadline. Returns true when the worker accepted the run.
func (r *Router) dispatch(rn *run, w *workerState, resume bool) bool {
	r.mu.Lock()
	rn.Attempt++
	attempt := rn.Attempt
	// Record the placement now, not on ack: a short run's result can beat
	// the ack through the mailbox, and the terminal record must still say
	// where it executed.
	rn.Placement = w.id
	spec := rn.spec
	if resume && spec.CheckpointDir != "" {
		spec.Resume = true
	}
	ackCh := make(chan ackMsg, 1)
	r.acks[rn.ID] = pendingAck{ackCh, attempt}
	r.mu.Unlock()

	release := func() {
		r.mu.Lock()
		delete(r.acks, rn.ID)
		w.inflight--
		r.mu.Unlock()
	}
	msg := dispatchMsg{RunID: rn.ID, Attempt: attempt, Tenant: rn.Tenant, Spec: spec}
	if err := send(r.port, RouterPort, w.port, KindDispatch, msg); err != nil {
		release()
		r.workerFailed(w)
		dispatchSendErr.Inc()
		r.reportErr(fmt.Errorf("fleet: dispatch %s to %s: %w", rn.ID, w.id, err))
		return false
	}
	timer := time.NewTimer(r.cfg.DispatchDeadline)
	defer timer.Stop()
	select {
	case ack := <-ackCh:
		if ack.Err != "" {
			release()
			r.workerFailed(w)
			dispatchRejected.Inc()
			return false
		}
		r.mu.Lock()
		delete(r.acks, rn.ID)
		w.failures = 0
		// The run may already be terminal — its result can arrive before
		// this goroutine wakes. Never un-finish it.
		if !rn.State.Terminal() {
			r.runs.SetLocked(&rn.Record, StateRunning)
		}
		r.startedLocked(rn)
		r.mu.Unlock()
		dispatchOK.Inc()
		return true
	case <-timer.C:
		// No acknowledgment within the deadline. The worker may still have
		// admitted the run (the ack was lost); the attempt number makes any
		// late result from it stale, and a duplicate execution computes the
		// identical result into the same atomic checkpoint store.
		release()
		r.workerFailed(w)
		dispatchTimeout.Inc()
		return false
	case <-r.stopCh:
		release()
		return false
	}
}

// workerFailed charges one dispatch failure against w's circuit breaker.
func (r *Router) workerFailed(w *workerState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w.failures++
	if w.failures >= r.cfg.BreakerThreshold && time.Now().After(w.openUntil) {
		w.openUntil = time.Now().Add(r.cfg.BreakerCooldown)
		w.failures = 0
		metricBreakerOpens.Inc()
	}
}

// runLocal degrades the run to the router's in-process pool — the zero-
// reachable-workers path. The run still checkpoints and drains exactly as
// it would on a worker.
func (r *Router) runLocal(rn *run, resume bool) {
	spec := rn.spec
	if resume && spec.CheckpointDir != "" {
		spec.Resume = true
	}
	rs, err := r.cfg.Materialize(spec)
	if err != nil {
		r.finish(rn, StateFailed, fmt.Sprintf("materialize: %v", err), false, nil)
		return
	}
	st, err := r.local.Submit(sched.SubmitRequest{Tenant: rn.Tenant, Priority: rn.Priority, Weight: rn.spec.Weight, Spec: rs})
	if err != nil {
		if errors.Is(err, sched.ErrDraining) {
			r.finishUnplaced(rn)
			return
		}
		r.finish(rn, StateFailed, fmt.Sprintf("local fallback: %v", err), false, nil)
		return
	}
	r.mu.Lock()
	rn.Attempt++
	rn.Placement = "local"
	r.runs.SetLocked(&rn.Record, StateRunning)
	r.startedLocked(rn)
	r.fallbacks++
	r.mu.Unlock()
	metricLocalFallbacks.Inc()

	final, err := r.local.Wait(context.Background(), st.ID)
	if err != nil {
		r.finish(rn, StateFailed, fmt.Sprintf("local wait: %v", err), false, nil)
		return
	}
	switch final.State {
	case sched.StateDone:
		r.finish(rn, StateDone, "", false, final.Result)
	case sched.StateDrained:
		r.finish(rn, StateDrained, final.Error, final.Resumable, nil)
	default:
		r.finish(rn, StateFailed, final.Error, false, nil)
	}
}

// startedLocked stamps the run's first successful placement (a remote
// ack or local admission). Callers hold r.mu.
func (r *Router) startedLocked(rn *run) {
	if rn.Started.IsZero() {
		rn.Started = time.Now()
		metricPlacementSeconds.Observe(rn.Started.Sub(rn.Submitted).Seconds())
	}
}

// finishUnplaced records a run stopped by a drain before (re)placement
// completed: drained-resumable if it ever started and can continue from
// checkpoints, cancelled otherwise.
func (r *Router) finishUnplaced(rn *run) {
	r.mu.Lock()
	started := !rn.Started.IsZero()
	r.mu.Unlock()
	if started && rn.spec.CheckpointDir != "" {
		r.finish(rn, StateDrained, "fleet draining before re-placement", true, nil)
		return
	}
	r.finish(rn, StateCancelled, "", false, nil)
}

// finish records a run's terminal state. Idempotent: late duplicates are
// dropped.
func (r *Router) finish(rn *run, state State, errText string, resumable bool, res *core.RunResult) {
	r.mu.Lock()
	if rn.State.Terminal() {
		r.mu.Unlock()
		return
	}
	rn.Err = errText
	rn.Resumable = resumable
	rn.Result = res
	r.runs.FinishLocked(&rn.Record, state)
	delete(r.inflight, rn.ID)
	r.mu.Unlock()
	metricRunsTotal.With(string(state)).Inc()
}

// recvLoop consumes the router mailbox until the port closes.
func (r *Router) recvLoop(inbox <-chan agents.Message) {
	defer r.wg.Done()
	for m := range inbox {
		switch m.Kind {
		case KindHello:
			var h helloMsg
			if err := agents.Decode(m, &h); err != nil {
				r.reportErr(fmt.Errorf("fleet: bad hello: %w", err))
				continue
			}
			r.handleHello(h)
		case KindHeartbeat:
			var hb heartbeatMsg
			if err := agents.Decode(m, &hb); err != nil {
				r.reportErr(fmt.Errorf("fleet: bad heartbeat: %w", err))
				continue
			}
			r.handleHeartbeat(hb)
		case KindAck:
			var a ackMsg
			if err := agents.Decode(m, &a); err != nil {
				r.reportErr(fmt.Errorf("fleet: bad ack: %w", err))
				continue
			}
			r.handleAck(a)
		case KindResult:
			var res resultMsg
			if err := agents.Decode(m, &res); err != nil {
				r.reportErr(fmt.Errorf("fleet: bad result: %w", err))
				continue
			}
			r.handleResult(res)
		case KindBye:
			var b byeMsg
			if err := agents.Decode(m, &b); err != nil {
				r.reportErr(fmt.Errorf("fleet: bad bye: %w", err))
				continue
			}
			r.handleBye(b)
		}
	}
}

func (r *Router) handleHello(h helloMsg) {
	if h.ID == "" {
		return
	}
	r.mu.Lock()
	w := r.workers[h.ID]
	if w == nil {
		w = &workerState{id: h.ID, port: WorkerPort(h.ID)}
		r.workers[h.ID] = w
	}
	// A re-hello is a worker process (re)starting: clear the stale view.
	w.slots = h.Slots
	w.reported = 0
	w.inflight = 0
	w.evicted = false
	w.draining = false
	w.failures = 0
	w.openUntil = time.Time{}
	w.lastBeat = time.Now()
	w.reading = monitor.Reading{CPU: 1, MemoryMB: h.MemoryMB, BandwidthMBps: h.BandwidthMBps}
	live := 0
	for _, ws := range r.workers {
		if !ws.evicted {
			live++
		}
	}
	r.mu.Unlock()
	metricWorkers.Set(float64(live))
}

func (r *Router) handleHeartbeat(hb heartbeatMsg) {
	metricHeartbeats.Inc()
	r.mu.Lock()
	w := r.workers[hb.ID]
	if w == nil || w.evicted {
		r.mu.Unlock()
		// Heartbeat from a worker we do not know (router restarted, or the
		// worker was evicted while partitioned): ask it to re-introduce
		// itself by ignoring the beat; the worker re-hellos periodically.
		return
	}
	w.lastBeat = time.Now()
	w.reported = hb.Active
	if hb.Slots > 0 {
		w.slots = hb.Slots
	}
	w.reading = monitor.Reading{CPU: hb.CPU, MemoryMB: hb.MemoryMB, BandwidthMBps: hb.BandwidthMBps}
	r.mu.Unlock()
}

func (r *Router) handleAck(a ackMsg) {
	r.mu.Lock()
	pa, ok := r.acks[a.RunID]
	r.mu.Unlock()
	if !ok || pa.attempt != a.Attempt {
		return
	}
	select {
	case pa.ch <- a:
	default:
	}
}

func (r *Router) handleResult(res resultMsg) {
	r.mu.Lock()
	rn := r.inflight[res.RunID]
	if rn == nil || rn.Attempt != res.Attempt {
		r.mu.Unlock()
		return // stale attempt: a superseded placement reported in late
	}
	if w := r.workers[rn.Placement]; w != nil && w.inflight > 0 {
		w.inflight--
	}
	drainingNow := r.draining
	r.mu.Unlock()

	switch res.State {
	case string(sched.StateDone):
		r.finish(rn, StateDone, "", false, res.Result)
	case string(sched.StateDrained):
		if drainingNow {
			r.finish(rn, StateDrained, res.Err, res.Resumable, nil)
			return
		}
		// The worker drained (it is shutting down) but the fleet is not:
		// move the run to a survivor and continue from its checkpoints.
		r.failover(rn)
	default:
		r.finish(rn, StateFailed, res.Err, false, nil)
	}
}

func (r *Router) handleBye(b byeMsg) {
	r.mu.Lock()
	if w := r.workers[b.ID]; w != nil {
		w.draining = true
	}
	r.mu.Unlock()
}

// evictLoop scans for workers silent past the heartbeat window.
func (r *Router) evictLoop() {
	defer r.wg.Done()
	interval := r.cfg.HeartbeatTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-ticker.C:
		}
		now := time.Now()
		var silent []string
		r.mu.Lock()
		for id, w := range r.workers {
			if !w.evicted && now.Sub(w.lastBeat) > r.cfg.HeartbeatTimeout {
				silent = append(silent, id)
			}
		}
		r.mu.Unlock()
		for _, id := range silent {
			r.evict(id, "heartbeat silence")
		}
	}
}

// evict removes a worker from rotation and fails its runs over to
// survivors (or, during a fleet drain, records them drained-resumable).
func (r *Router) evict(id, cause string) {
	r.mu.Lock()
	w := r.workers[id]
	if w == nil || w.evicted {
		r.mu.Unlock()
		return
	}
	w.evicted = true
	w.inflight = 0
	r.evictions++
	var orphans []*run
	for _, rn := range r.inflight {
		if rn.Placement == id && rn.State == StateRunning {
			orphans = append(orphans, rn)
		}
	}
	live := 0
	for _, ws := range r.workers {
		if !ws.evicted {
			live++
		}
	}
	r.mu.Unlock()
	metricEvictions.Inc()
	metricWorkers.Set(float64(live))
	r.reportErr(fmt.Errorf("fleet: evicted worker %s (%s), %d runs to fail over", id, cause, len(orphans)))
	for _, rn := range orphans {
		r.failover(rn)
	}
}

// failover re-places a run whose worker was lost. The re-placement resumes
// from the run's latest CRC-verified checkpoint; after MaxFailovers moves
// the run falls straight back to local execution rather than bouncing
// around a collapsing fleet.
func (r *Router) failover(rn *run) {
	r.mu.Lock()
	// Only a currently placed run can fail over; StateQueued means another
	// failover already owns the re-placement (evict and a late drained
	// result can both nominate the same run).
	if rn.State != StateRunning {
		r.mu.Unlock()
		return
	}
	// Invalidate the lost placement immediately: any ack or result still in
	// flight from the dead worker now carries a stale attempt number.
	rn.Attempt++
	rn.Failovers++
	r.failovers++
	exhausted := rn.Failovers > r.cfg.MaxFailovers
	rn.Placement = ""
	r.runs.SetLocked(&rn.Record, StateQueued)
	draining := r.draining
	r.mu.Unlock()
	metricFailovers.Inc()
	if draining {
		r.finishUnplaced(rn)
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		if exhausted {
			r.runLocal(rn, true)
			return
		}
		r.place(rn, true)
	}()
}

// Workers lists the router's view of the fleet, evicted members included.
func (r *Router) Workers() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, WorkerInfo{
			ID:            w.id,
			Slots:         w.slots,
			Active:        w.busy(),
			CPU:           w.reading.CPU,
			LastHeartbeat: w.lastBeat,
			BreakerOpen:   now.Before(w.openUntil),
			Evicted:       w.evicted,
			Draining:      w.draining,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns the router's aggregate state.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	st := Stats{
		Draining:       r.draining,
		Submitted:      r.runs.CountLocked(StateQueued),
		Active:         len(r.inflight),
		Done:           r.runs.CountLocked(StateDone),
		Failed:         r.runs.CountLocked(StateFailed),
		Drained:        r.runs.CountLocked(StateDrained),
		Cancelled:      r.runs.CountLocked(StateCancelled),
		Failovers:      r.failovers,
		Evictions:      r.evictions,
		LocalFallbacks: r.fallbacks,
	}
	for _, w := range r.workers {
		if w.evicted {
			continue
		}
		st.Workers++
		if !w.draining && now.Sub(w.lastBeat) <= r.cfg.HeartbeatTimeout &&
			!now.Before(w.openUntil) && w.busy() < w.slots {
			st.Reachable++
		}
	}
	return st
}

// Draining reports whether a fleet drain has begun — the /readyz signal.
func (r *Router) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Drain gracefully stops the fleet: admission closes, every live worker is
// asked to drain (their in-flight runs checkpoint at the next regrid
// boundary and report back drained-resumable), the local pool drains, and
// Drain returns once every run is terminal — or earlier with ctx's error.
func (r *Router) Drain(ctx context.Context) error {
	r.mu.Lock()
	first := !r.draining
	if first {
		r.draining = true
		close(r.drainCh)
	}
	var workerPorts []string
	for _, w := range r.workers {
		if !w.evicted {
			workerPorts = append(workerPorts, w.port)
		}
	}
	r.mu.Unlock()

	if first {
		for _, p := range workerPorts {
			if err := send(r.port, RouterPort, p, KindDrain, struct{}{}); err != nil {
				r.reportErr(fmt.Errorf("fleet: drain %s: %w", p, err))
			}
		}
	}
	if err := r.local.Drain(ctx); err != nil {
		return err
	}
	// Wait for the remote runs to report (or for their workers to be
	// evicted, which records them drained through the failover path).
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		r.mu.Lock()
		active := len(r.inflight)
		r.mu.Unlock()
		if active == 0 {
			r.stopO.Do(func() { close(r.stopped) })
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: drain: %w", ctx.Err())
		case <-ticker.C:
		}
	}
}

// Stopped returns a channel closed once a drain completes — however it was
// initiated (Drain, Close, or the HTTP drain endpoint). Serving binaries
// select on it to exit after a remote drain.
func (r *Router) Stopped() <-chan struct{} { return r.stopped }

// Close drains with no deadline, then stops the router's loops and
// releases its mailbox.
func (r *Router) Close() error {
	err := r.Drain(context.Background())
	select {
	case <-r.stopCh:
	default:
		close(r.stopCh)
	}
	r.port.Unregister(RouterPort)
	r.wg.Wait()
	return err
}
