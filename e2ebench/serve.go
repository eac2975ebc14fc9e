package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/fleet"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/sched"
	"github.com/pragma-grid/pragma/internal/stream"
)

// Serving workload parameters. The nominal rate is well below the pool's
// capacity on two cores, so turnaround at it measures service more than
// queueing; the turnaround limit is the SLO max_ok_qps is searched against.
const (
	nominalQPS      = 50.0
	turnaroundLimit = 0.5 // seconds, on the tail percentile of turnaround
	tinyVariants    = 16  // distinct tiny scenario specs per seed
	statusWindow    = 64  // status reads target one of the most recent admitted runs
	drainTimeout    = 60 * time.Second
)

// tenants and their fair-share weights.
var tenants = [2]struct {
	name   string
	weight string
}{{"light", "1"}, {"heavy", "4"}}

// runView is what the benchmark reads back about one admitted run,
// from whichever executor served it.
type runView struct {
	state     string
	terminal  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	queueS    float64 // node only: the fleet router does not see worker queues
	runS      float64
	placement string
	result    *core.RunResult
}

// server is one serving target: the node scheduler or the fleet router,
// behind a real loopback HTTP listener.
type server struct {
	url  string
	hub  *stream.Hub
	view func(id string) (runView, bool)
	wait func(ctx context.Context, id string) error
	// preemptions counts the executor's preemptions so far (0 when it
	// does not expose them).
	preemptions func() int
	stop        func()
}

// materializer wraps fleet.DefaultMaterializer: every run's strategy is
// wrapped to clock its regrid cycles, and each call is timed when traced.
func materializer(rec *recorder, clock *cycleClock) fleet.Materializer {
	mat := fleet.DefaultMaterializer()
	return func(ws fleet.WireSpec) (sched.RunSpec, error) {
		var start int64
		if rec != nil {
			start = rec.now()
		}
		spec, err := mat(ws)
		if rec != nil {
			rec.add("", "fleet.materialize", start)
		}
		if err == nil {
			spec.Strategy = clock.wrap(spec.Strategy)
		}
		return spec, err
	}
}

// cycleClock collects the wall time of served runs' regrid cycles: every
// cycle, and each run's mean cycle.
type cycleClock struct {
	mu      sync.Mutex
	samples []float64
	runs    []*clockedStrategy // every run materialized since the last reset
}

func (c *cycleClock) wrap(strat core.Strategy) core.Strategy {
	s := &clockedStrategy{Strategy: strat, clock: c}
	c.mu.Lock()
	c.runs = append(c.runs, s)
	c.mu.Unlock()
	return s
}

func (c *cycleClock) reset() {
	c.mu.Lock()
	c.samples = c.samples[:0]
	c.runs = c.runs[:0]
	c.mu.Unlock()
}

// take returns every cycle's wall time and each run's mean cycle time.
func (c *cycleClock) take() (cycles, perRun []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.runs {
		if s.n > 0 {
			perRun = append(perRun, s.sum/float64(s.n))
		}
	}
	return append([]float64(nil), c.samples...), perRun
}

// clockedStrategy records the time between successive Assign calls of one
// core.Run — one regrid cycle each — and otherwise delegates. A resumed
// attempt starts a new core.Run (with a new partition plan), so the gap
// across a preemption is not counted. The workloads' strategies carry no
// checkpoint state, so none is forwarded.
type clockedStrategy struct {
	core.Strategy
	clock *cycleClock
	plan  *partition.PartitionPlan
	last  time.Time
	sum   float64 // guarded by clock.mu
	n     int     // guarded by clock.mu
}

func (s *clockedStrategy) Assign(ctx *core.StepContext) (*partition.Assignment, string, error) {
	now := time.Now()
	if ctx.PartitionPlan == s.plan && !s.last.IsZero() {
		d := now.Sub(s.last).Seconds()
		s.clock.mu.Lock()
		s.clock.samples = append(s.clock.samples, d)
		s.sum += d
		s.n++
		s.clock.mu.Unlock()
	}
	s.plan, s.last = ctx.PartitionPlan, now
	return s.Strategy.Assign(ctx)
}

// middleware times the server side of every submit and status request,
// with the run ID as trace id (for a submit, read from its response).
func middleware(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := rec.now()
		switch req.URL.Path {
		case "/sched/submit":
			cw := &captureWriter{ResponseWriter: w}
			h.ServeHTTP(cw, req)
			rec.add(runIDOf(cw.head), "http.submit", start)
		case "/sched/status":
			h.ServeHTTP(w, req)
			rec.add(req.URL.Query().Get("id"), "http.status", start)
		default:
			h.ServeHTTP(w, req)
		}
	})
}

// captureWriter keeps the first bytes of a response body.
type captureWriter struct {
	http.ResponseWriter
	head []byte
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if n := 64 - len(c.head); n > 0 {
		c.head = append(c.head, b[:min(n, len(b))]...)
	}
	return c.ResponseWriter.Write(b)
}

// runIDOf extracts the "id" field from the start of a run status JSON
// document ("" when absent).
func runIDOf(head []byte) string {
	const key = `"id":"`
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return ""
	}
	rest := head[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return ""
}

func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// newHub sizes the benchmark's one subscription to hold several seconds of
// events (a state and regrid event stream of ~500 events/s at the nominal
// rate), so the follower never drops one.
func newHub() *stream.Hub { return stream.NewHub(stream.Config{SubBuffer: 1 << 15}) }

// startNode serves an in-process sched.Scheduler through sched.Handler,
// with specs built by fleet.SpecFromValues and the materializer.
func startNode(mat fleet.Materializer, rec *recorder) (*server, error) {
	hub := newHub()
	s := sched.New(sched.Config{Workers: runtime.NumCPU(), Events: hub})
	build := func(_ string, _ int, v url.Values) (sched.RunSpec, error) {
		ws, err := fleet.SpecFromValues(v)
		if err != nil {
			return sched.RunSpec{}, err
		}
		return mat(ws)
	}
	u, closeHTTP, err := listen(middleware(sched.Handler(s, build), rec))
	if err != nil {
		s.Close()
		return nil, err
	}
	return &server{
		url: u,
		hub: hub,
		view: func(id string) (runView, bool) {
			st, ok := s.Status(id)
			if !ok {
				return runView{}, false
			}
			return runView{
				state: string(st.State), submitted: st.Submitted, started: st.Started, finished: st.Finished,
				terminal: st.State == sched.StateDone || st.State == sched.StateFailed ||
					st.State == sched.StateDrained || st.State == sched.StateCancelled,
				queueS: st.QueueSeconds, runS: st.RunSeconds, result: st.Result,
			}, true
		},
		wait:        func(ctx context.Context, id string) error { _, err := s.Wait(ctx, id); return err },
		preemptions: func() int { return s.Stats().Preemptions },
		stop: func() {
			closeHTTP()
			s.Close()
			hub.Close()
		},
	}, nil
}

// startFleet serves a fleet.Router through fleet.Handler, with two
// in-process fleet.Workers joined over loopback agents TCP. The pool is
// sized like the node's: one slot per worker, one core each.
func startFleet(mat fleet.Materializer, rec *recorder) (*server, error) {
	hub := newHub()
	center := agents.NewCenter()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	go func() { center.Serve(ln); close(served) }()
	quiet := func(error) {}
	r, err := fleet.NewRouter(fleet.Config{Port: center, Materialize: mat, Events: hub, OnError: quiet})
	if err != nil {
		ln.Close()
		<-served
		return nil, err
	}
	r.AttachCenter(center)
	var workers []*fleet.Worker
	var clients []*agents.Client
	stopAll := func() {
		r.Close()
		for _, w := range workers {
			w.Close()
		}
		for _, c := range clients {
			c.Close()
		}
		ln.Close()
		<-served
		hub.Close()
	}
	slots := max(runtime.NumCPU()/2, 1)
	for i := 0; i < 2; i++ {
		cl, err := agents.Dial(ln.Addr().String(), agents.WithReconnect(true),
			agents.WithHeartbeat(50*time.Millisecond), agents.WithErrorHandler(quiet))
		if err != nil {
			stopAll()
			return nil, err
		}
		clients = append(clients, cl)
		w, err := fleet.NewWorker(fleet.WorkerConfig{Port: cl, ID: fmt.Sprintf("w%d", i), Slots: slots,
			HeartbeatEvery: 50 * time.Millisecond, Materialize: mat, OnError: quiet})
		if err != nil {
			stopAll()
			return nil, err
		}
		workers = append(workers, w)
	}
	for deadline := time.Now().Add(10 * time.Second); r.Stats().Reachable < 2; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			stopAll()
			return nil, errors.New("fleet workers never became reachable")
		}
	}
	u, closeHTTP, err := listen(middleware(fleet.Handler(r, ""), rec))
	if err != nil {
		stopAll()
		return nil, err
	}
	return &server{
		url: u,
		hub: hub,
		view: func(id string) (runView, bool) {
			st, ok := r.Status(id)
			if !ok {
				return runView{}, false
			}
			v := runView{
				state: string(st.State), submitted: st.Submitted, started: st.Started, finished: st.Finished,
				terminal: st.State == fleet.StateDone || st.State == fleet.StateFailed ||
					st.State == fleet.StateDrained || st.State == fleet.StateCancelled,
				placement: st.Placement, result: st.Result,
			}
			if !st.Started.IsZero() && !st.Finished.IsZero() {
				v.runS = st.Finished.Sub(st.Started).Seconds()
			}
			return v, true
		},
		wait:        func(ctx context.Context, id string) error { _, err := r.Wait(ctx, id); return err },
		preemptions: func() int { return 0 },
		stop:        func() { closeHTTP(); stopAll() },
	}, nil
}

// arrival is one scheduled request of the open-loop traffic.
type arrival struct {
	at     time.Duration // intended send time from the phase start
	submit bool
	query  string // submit query; status reads pick their target at send time
	pick   int    // status: index back from the newest admitted run
	tenant int
}

// mix is the seeded traffic mix: the tiny scenario specs and the order
// and spacing of requests.
type mix struct {
	rng   *rand.Rand
	tiny  []string
	ckpt  string // checkpoint root for the preemptible trace=small runs
	nSub  int
	nTiny int
}

func newMix(seed int64, ckptRoot string) *mix {
	m := &mix{rng: rand.New(rand.NewSource(seed)), ckpt: ckptRoot}
	for k := 0; k < tinyVariants; k++ {
		phases := "I:6,III:6"
		if k%2 == 1 {
			phases = "III:6,I:6"
		}
		m.tiny = append(m.tiny, fmt.Sprintf("dims=32x16x16;seed=%d;%s", seed*tinyVariants+int64(k), phases))
	}
	return m
}

// specs lists every distinct run spec the mix submits, for warming the
// materializer and computing reference results.
func (m *mix) specs() []url.Values {
	var out []url.Values
	for _, s := range m.tiny {
		out = append(out, url.Values{"scenario": {s}})
	}
	return append(out, url.Values{"trace": {"small"}})
}

// block is the traffic mix in exact proportions: every 20 arrivals hold
// 10 submits and 10 status reads; of the submits, one is a trace=small run
// and nine are tiny scenario runs, five from each tenant. The seed shuffles
// the order inside each block and picks the tiny specs.
const block = 20

// schedule generates arrivals evenly spaced at qps for d.
func (m *mix) schedule(qps float64, d time.Duration) []arrival {
	n := int(qps * d.Seconds())
	out := make([]arrival, 0, n)
	var kinds []int  // position -> kind: < block/2 status, block-1 small, else tiny
	var tenant []int // submit slot -> tenant (parity), five of each per block
	for i := 0; i < n; i++ {
		if i%block == 0 {
			kinds = m.rng.Perm(block)
			tenant = m.rng.Perm(block / 2)
		}
		a := arrival{at: time.Duration(float64(i) / qps * float64(time.Second))}
		k := kinds[i%block]
		if k < block/2 {
			a.pick = m.rng.Intn(statusWindow)
			out = append(out, a)
			continue
		}
		a.submit = true
		a.tenant = tenant[k-block/2] % 2
		v := url.Values{"tenant": {tenants[a.tenant].name}, "weight": {tenants[a.tenant].weight}}
		if k == block-1 {
			v.Set("trace", "small")
			v.Set("checkpoint", filepath.Join(m.ckpt, fmt.Sprintf("r%06d", m.nSub)))
			v.Set("checkpoint-every", "4")
		} else {
			v.Set("scenario", m.tiny[m.nTiny%len(m.tiny)])
			m.nTiny++
		}
		m.nSub++
		a.query = v.Encode()
		out = append(out, a)
	}
	return out
}

// admitted is one run the server accepted, with its intended submit time.
type admitted struct {
	id       string
	intended time.Time
	spec     string // reference key
	tenant   int
}

// phaseResult is one open-loop phase's client-side record.
type phaseResult struct {
	start, end time.Time
	submitLat  []float64 // seconds from intended send to response
	statusLat  []float64
	late       []float64 // seconds the send started after its schedule
	runs       []admitted
	ops        ops
}

// loadClient is the benchmark's open-loop client: arrivals are sent on
// schedule by at most nproc connections; a request waiting for a free
// connection is timed from its intended send time.
type loadClient struct {
	srv    *server
	client *http.Client
	mu     sync.Mutex
	recent []string // admitted run IDs, newest last
}

func newLoadClient(srv *server) *loadClient {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, MaxIdleConns: n}
	return &loadClient{srv: srv, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (d *loadClient) close() { d.client.CloseIdleConnections() }

// run sends the arrivals open-loop and returns when every response is in.
func (d *loadClient) run(arrivals []arrival) *phaseResult {
	pr := &phaseResult{start: time.Now()}
	queue := make(chan int, len(arrivals))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				a := arrivals[i]
				intended := pr.start.Add(a.at)
				sent := time.Now()
				lat, run, kind := d.send(a, intended)
				mu.Lock()
				pr.late = append(pr.late, sent.Sub(intended).Seconds())
				if a.submit {
					pr.submitLat = append(pr.submitLat, lat)
				} else {
					pr.statusLat = append(pr.statusLat, lat)
				}
				if run != nil {
					pr.runs = append(pr.runs, *run)
				}
				mu.Unlock()
				pr.ops.attempt(1)
				if kind != "" {
					pr.ops.fail(kind)
				}
			}
		}()
	}
	for i, a := range arrivals {
		if wait := time.Until(pr.start.Add(a.at)); wait > 0 {
			time.Sleep(wait)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	pr.end = time.Now()
	return pr
}

// send performs one request. It returns the latency from the intended
// send time, the admitted run for an accepted submit, and a failure kind
// ("" on success).
func (d *loadClient) send(a arrival, intended time.Time) (float64, *admitted, string) {
	var req *http.Request
	var err error
	if a.submit {
		req, err = http.NewRequest(http.MethodPost, d.srv.url+"/sched/submit?"+a.query, nil)
	} else {
		d.mu.Lock()
		n := len(d.recent)
		id := ""
		if n > 0 {
			id = d.recent[max(n-1-a.pick, 0)]
		}
		d.mu.Unlock()
		req, err = http.NewRequest(http.MethodGet, d.srv.url+"/sched/status?id="+url.QueryEscape(id), nil)
	}
	if err != nil {
		return 0, nil, "client"
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return time.Since(intended).Seconds(), nil, "transport"
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(intended).Seconds()
	if err != nil {
		return lat, nil, "transport"
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return lat, nil, "refused"
	case a.submit && resp.StatusCode == http.StatusAccepted:
		var st struct{ ID string }
		if json.Unmarshal(body, &st) != nil || st.ID == "" {
			return lat, nil, "bad-response"
		}
		d.mu.Lock()
		d.recent = append(d.recent, st.ID)
		if len(d.recent) > 4*statusWindow {
			d.recent = append(d.recent[:0], d.recent[len(d.recent)-statusWindow:]...)
		}
		d.mu.Unlock()
		q, _ := url.ParseQuery(a.query)
		q.Del("tenant")
		q.Del("weight")
		q.Del("checkpoint")
		q.Del("checkpoint-every")
		return lat, &admitted{id: st.ID, intended: intended, spec: q.Encode(), tenant: a.tenant}, ""
	case !a.submit && resp.StatusCode == http.StatusOK:
		return lat, nil, ""
	case resp.StatusCode == http.StatusNotFound:
		return lat, nil, "not-found"
	default:
		return lat, nil, fmt.Sprintf("http-%d", resp.StatusCode)
	}
}

// outcome is one admitted run's settled record.
type outcome struct {
	admitted
	v        runView
	terminal int // terminal state events seen on the stream
	eventLag float64
}

// settle waits for every admitted run of a phase to finish and books
// lost and failed runs.
func (d *loadClient) settle(pr *phaseResult, events *eventLog) []outcome {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	out := make([]outcome, 0, len(pr.runs))
	for _, r := range pr.runs {
		o := outcome{admitted: r}
		if err := d.srv.wait(ctx, r.id); err != nil {
			pr.ops.fail("lost")
			out = append(out, o)
			continue
		}
		v, ok := d.srv.view(r.id)
		o.v = v
		switch {
		case !ok || !v.terminal:
			pr.ops.fail("lost")
		case v.state != "done":
			pr.ops.fail("run-" + v.state)
		}
		out = append(out, o)
	}
	return out
}

// eventLog follows the server's event stream: how many terminal state
// events each run produced and when the first one arrived.
type eventLog struct {
	hub  *stream.Hub
	sub  *stream.Sub
	mu   sync.Mutex
	term map[string]int
	at   map[string]time.Time
	done chan struct{}
}

func followEvents(hub *stream.Hub) *eventLog {
	l := &eventLog{hub: hub, sub: hub.Subscribe("", 0), term: map[string]int{}, at: map[string]time.Time{}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for e := range l.sub.C {
			if e.Type != stream.TypeState {
				continue
			}
			switch e.State {
			case "done", "failed", "drained", "cancelled":
				now := time.Now()
				l.mu.Lock()
				if l.term[e.Run] == 0 {
					l.at[e.Run] = now
				}
				l.term[e.Run]++
				l.mu.Unlock()
			}
		}
	}()
	return l
}

// stop ends the subscription and waits for the follower to exit.
func (l *eventLog) stop() {
	l.hub.Unsubscribe(l.sub)
	<-l.done
}

// fill copies the stream record of each outcome's run once its terminal
// event has arrived (waiting briefly for stragglers).
func (l *eventLog) fill(outs []outcome) {
	deadline := time.Now().Add(2 * time.Second)
	for i := range outs {
		for {
			l.mu.Lock()
			n, at := l.term[outs[i].id], l.at[outs[i].id]
			l.mu.Unlock()
			if n > 0 || time.Now().After(deadline) {
				outs[i].terminal = n
				if n > 0 && !outs[i].v.finished.IsZero() {
					outs[i].eventLag = at.Sub(outs[i].v.finished).Seconds()
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func runServeNode(o opts) (*result, error)  { return runServe(o, startNode, "node") }
func runServeFleet(o opts) (*result, error) { return runServe(o, startFleet, "fleet") }

type starter func(mat fleet.Materializer, rec *recorder) (*server, error)

func runServe(o opts, start starter, kind string) (*result, error) {
	ckptRoot := filepath.Join(o.workDir, "ckpt")
	if err := os.MkdirAll(ckptRoot, 0o755); err != nil {
		return nil, err
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	m := newMix(o.seed, ckptRoot)
	clock := &cycleClock{}

	// Set-up: a fresh materializer (trace generation for every spec the
	// mix submits) and a started server, several times; the last one
	// serves the run.
	var srv *server
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		mat := materializer(rec, clock)
		for _, v := range m.specs() {
			ws, err := fleet.SpecFromValues(v)
			if err == nil {
				_, err = mat(ws)
			}
			if err != nil {
				return nil, err
			}
		}
		var err error
		if srv, err = start(mat, rec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	events := followEvents(srv.hub)
	defer events.stop()
	d := newLoadClient(srv)
	defer d.close()

	// Warm-up traffic, untimed; it also gives status reads runs to target.
	warm := d.run(m.schedule(nominalQPS, time.Second))
	d.settle(warm, events)
	rec.reset()
	clock.reset()

	// Measured phase at the nominal rate.
	pre0 := srv.preemptions()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	measured := time.Duration(o.seconds * float64(time.Second))
	pr := d.run(m.schedule(nominalQPS, measured))
	outs := d.settle(pr, events)
	runtime.ReadMemStats(&ms1)
	cycleSamples, runMeans := clock.take()
	cycles := summarize(cycleSamples, 99)
	preemptions := srv.preemptions() - pre0
	events.fill(outs)

	res := &result{}
	res.attempted, res.failed = pr.ops.totals()
	refs, err := references(m)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "# reference_digest=%s over %d specs\n", refsDigest(refs), len(refs))
	var turnaround, queueWait, runMS, place, lag []float64
	local, done := 0, 0
	for _, out := range outs {
		res.check(out.terminal == 1, "run %s reached %d terminal states on the event stream", out.id, out.terminal)
		if out.v.state != "done" {
			continue
		}
		done++
		res.check(reflect.DeepEqual(out.v.result, refs[out.spec]),
			"run %s (%s) result differs from a direct core.Run of its spec", out.id, out.spec)
		turnaround = append(turnaround, out.v.finished.Sub(out.intended).Seconds())
		queueWait = append(queueWait, out.v.queueS)
		runMS = append(runMS, out.v.runS)
		place = append(place, out.v.started.Sub(out.v.submitted).Seconds())
		if out.v.placement == "local" {
			local++
		}
		lag = append(lag, out.eventLag)
	}
	if done == 0 {
		return nil, fmt.Errorf("no run completed (attempted %d, failed %v)", res.attempted, pr.ops.failed)
	}
	if dropped := events.sub.Dropped(); dropped > 0 {
		res.check(false, "event stream dropped %d events", dropped)
	}
	fmt.Fprintf(o.log, "# executor=%s nominal_qps=%g requests=%d admitted=%d done=%d failures=%v\n",
		kind, nominalQPS, res.attempted, len(pr.runs), done, pr.ops.failed)

	ta := summarize(turnaround, 99)
	late := summarize(pr.late, 99)
	sub := summarize(pr.submitLat, 99)
	stl := summarize(pr.statusLat, 99)
	if !o.trace {
		res.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
		res.set("regrid_ms", 1000*median(runMeans), "ms", fmt.Sprintf("served runs' mean regrid cycle, median over n=%d runs", len(runMeans)))
		res.print("regrid_p99_ms", 1000*cycles.Tail, "ms", tailNote(cycles)+" regrid cycles of served runs")
		res.set("alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(done), "MB",
			fmt.Sprintf("process-wide, per completed run, n=%d", done))
		res.set("turnaround_p50_ms", 1000*ta.Median, "ms", fmt.Sprintf("n=%d runs at %g qps", ta.N, nominalQPS))
		res.print("turnaround_p99_ms", 1000*ta.Tail, "ms", tailNote(ta))
		res.print("submit_p99_ms", 1000*sub.Tail, "ms", tailNote(sub))
		res.print("status_p99_ms", 1000*stl.Tail, "ms", tailNote(stl))
		// The knee search runs after the measured phase; its refusals are
		// the point of the probe, so they are not booked as failures.
		knee := d.searchKnee(m, o.seconds, events, refs, res)
		res.print("max_ok_qps", knee, "req/s", fmt.Sprintf("highest rate with turnaround tail <= %gms and no backlog growth", 1000*turnaroundLimit))
		res.print("failed_share", pr.ops.share(), "ratio", fmt.Sprintf("failed=%d of attempted=%d", res.failed, res.attempted))
		res.print("loadgen.late_p99_ms", 1000*late.Tail, "ms", tailNote(late)+": how late the generator sent")
		return res, nil
	}

	res.spans = append(res.spans, rec)
	sums, counts := rec.totals()
	perCall := func(layer string, minus ...string) float64 {
		if counts[layer] == 0 {
			return 0
		}
		s := sums[layer]
		for _, l := range minus {
			s -= sums[l]
		}
		return s / float64(counts[layer])
	}
	// On the node, materialization runs inside the submit handler.
	if kind == "node" {
		res.set("http.submit_us", 1e6*perCall("http.submit", "fleet.materialize"), "us",
			fmt.Sprintf("self time per submit (materialize excluded), n=%d", counts["http.submit"]))
	} else {
		res.set("http.submit_us", 1e6*perCall("http.submit"), "us", fmt.Sprintf("self time per submit, n=%d", counts["http.submit"]))
	}
	res.set("http.status_us", 1e6*perCall("http.status"), "us", fmt.Sprintf("per status read, n=%d", counts["http.status"]))
	res.set("fleet.materialize_us", 1e6*perCall("fleet.materialize"), "us", fmt.Sprintf("per call, n=%d", counts["fleet.materialize"]))
	res.set("core.run_ms", 1000*median(runMS), "ms", fmt.Sprintf("median run time, n=%d", len(runMS)))
	res.set("sched.refused_share", float64(pr.ops.failed["refused"])/float64(max(len(pr.submitLat), 1)), "ratio",
		fmt.Sprintf("of %d submits", len(pr.submitLat)))
	// The fleet's worker pools are private: their queue waits and
	// preemptions are not visible from the router.
	if kind == "node" {
		qw := summarize(queueWait, 99)
		res.set("sched.queue_wait_p50_ms", 1000*qw.Median, "ms", fmt.Sprintf("RunStatus.QueueSeconds, n=%d", qw.N))
		res.set("sched.queue_wait_p99_ms", 1000*qw.Tail, "ms", tailNote(qw))
		res.set("sched.preemptions", float64(preemptions), "count", "in the measured phase")
	}
	share, note, err := d.shareRatio(m, events)
	if err != nil {
		return nil, err
	}
	res.set("sched.share_ratio", share, "ratio", note)
	if kind == "fleet" {
		ps := summarize(place, 99)
		res.set("fleet.place_ms", 1000*ps.Median, "ms", fmt.Sprintf("router Started - Submitted, n=%d", ps.N))
		res.set("fleet.local_fallback_share", float64(local)/float64(done), "ratio", fmt.Sprintf("%d of %d runs", local, done))
	}
	ls := summarize(lag, 99)
	res.set("stream.event_lag_ms", 1000*ls.Median, "ms", fmt.Sprintf("terminal event received - Finished, n=%d, tail %.4gms", ls.N, 1000*ls.Tail))
	res.set("loadgen.late_p99_ms", 1000*late.Tail, "ms", tailNote(late))
	return res, nil
}

// references computes each distinct spec's result with a direct core.Run
// on a fresh materializer, without checkpointing.
func references(m *mix) (map[string]*core.RunResult, error) {
	mat := fleet.DefaultMaterializer()
	out := map[string]*core.RunResult{}
	for _, v := range m.specs() {
		ws, err := fleet.SpecFromValues(v)
		if err != nil {
			return nil, err
		}
		spec, err := mat(ws)
		if err != nil {
			return nil, err
		}
		res, err := core.Run(spec.Trace, spec.Strategy, core.RunConfig{
			Machine: spec.Machine, NProcs: spec.NProcs, Cost: spec.Cost, WorkModel: spec.WorkModel,
		})
		if err != nil {
			return nil, err
		}
		out[v.Encode()] = res
	}
	return out, nil
}

// refsDigest hashes the reference results in spec order.
func refsDigest(refs map[string]*core.RunResult) string {
	keys := make([]string, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, digest(refs[k])...)
	}
	return hash64(b)
}

// searchKnee raises the offered rate in short steps — doubling from the
// nominal rate, then bisecting once between the last passing and the
// first failing rate — and returns the highest rate whose turnaround tail
// met turnaroundLimit with no failed request and a bounded backlog at the
// step's end. Every run it admits is still checked.
func (d *loadClient) searchKnee(m *mix, seconds float64, events *eventLog, refs map[string]*core.RunResult, res *result) float64 {
	step := time.Duration(math.Max(0.5, seconds/10) * float64(time.Second))
	try := func(qps float64) bool {
		pr := d.run(m.schedule(qps, step))
		// Backlog: runs still unfinished when the step's last request was
		// answered.
		backlog := 0
		for _, r := range pr.runs {
			if v, ok := d.srv.view(r.id); ok && !v.terminal {
				backlog++
			}
		}
		outs := d.settle(pr, events)
		var ta []float64
		for _, o := range outs {
			if o.v.state != "done" {
				continue
			}
			res.check(reflect.DeepEqual(o.v.result, refs[o.spec]), "knee run %s result differs from a direct core.Run", o.id)
			ta = append(ta, o.v.finished.Sub(o.intended).Seconds())
		}
		_, failed := pr.ops.totals()
		s := summarize(ta, 99)
		tail := s.Tail
		if s.TailQ == 0 && s.N > 0 { // too few runs for a tail: use the slowest
			tail = slices.Max(ta)
		}
		return failed == 0 && s.N > 0 && tail <= turnaroundLimit && backlog <= max(len(pr.runs)/10, 2)
	}
	return kneeSearch(nominalQPS, 64*nominalQPS, try)
}

// kneeSearch returns the highest rate that passes try: it doubles from
// start while rates pass (up to limit), then bisects once between the last
// passing and the first failing rate. 0 means start itself failed.
func kneeSearch(start, limit float64, try func(qps float64) bool) float64 {
	lo, hi := 0.0, 0.0
	for qps := start; qps <= limit; qps *= 2 {
		if !try(qps) {
			hi = qps
			break
		}
		lo = qps
	}
	if hi > 0 && lo > 0 {
		if mid := (lo + hi) / 2; try(mid) {
			lo = mid
		}
	}
	return lo
}

// shareRatio measures weighted fairness at saturation: it submits an equal
// backlog of identical trace=small runs for both tenants at once and, once all
// are done, counts each tenant's runs that finished between the last
// submission and the moment the first tenant's backlog ran out. It
// returns the weight-4 tenant's count divided by the weight-1 tenant's.
func (d *loadClient) shareRatio(m *mix, events *eventLog) (float64, string, error) {
	const perTenant = 24
	var arrivals []arrival
	for i := 0; i < 2*perTenant; i++ {
		t := i % 2
		v := url.Values{"tenant": {tenants[t].name}, "weight": {tenants[t].weight}, "trace": {"small"}}
		arrivals = append(arrivals, arrival{submit: true, tenant: t, query: v.Encode()})
	}
	pr := d.run(arrivals)
	outs := d.settle(pr, events)
	if _, failed := pr.ops.totals(); failed > 0 || len(outs) != 2*perTenant {
		return 0, "", fmt.Errorf("saturation backlog: %d of %d runs admitted and done (%v)", len(outs), 2*perTenant, pr.ops.failed)
	}
	var last [2]time.Time
	for _, o := range outs {
		if o.v.finished.After(last[o.tenant]) {
			last[o.tenant] = o.v.finished
		}
	}
	end := last[0]
	if last[1].Before(end) {
		end = last[1]
	}
	var done [2]int
	for _, o := range outs {
		if o.v.finished.After(pr.end) && !o.v.finished.After(end) {
			done[o.tenant]++
		}
	}
	return float64(done[1]) / float64(max(done[0], 1)), fmt.Sprintf(
		"weight-4 / weight-1 runs finished while both of a %d+%d backlog waited: %d / %d", perTenant, perTenant, done[1], done[0]), nil
}
