// Command pragma-node emulates a multi-node Pragma control network with
// real processes: one process serves the Message Center and the application
// delegated manager; every other process joins as a node running a
// component agent with a synthetic load sensor and a repartition actuator.
//
// Terminal 1 (the broker + ADM):
//
//	pragma-node -serve 127.0.0.1:7070
//
// Terminals 2..N (one per emulated node):
//
//	pragma-node -join 127.0.0.1:7070 -id node-1
//	pragma-node -join 127.0.0.1:7070 -id node-2 -load 0.9
//
// The broker prints consolidated state once per second; agents whose load
// crosses the overload threshold trigger events, the ADM queries the
// policy base and broadcasts a repartition command, and each node's
// actuator prints when it fires.
//
// A third mode replays an adaptation trace with checkpoint/restart, for
// rehearsing crash recovery:
//
//	pragma-node -replay -checkpoint-dir ./ckpt -crash-at 8   # dies mid-run
//	pragma-node -replay -checkpoint-dir ./ckpt -resume       # picks it up
//
// A fourth mode serves the multi-tenant run scheduler: many concurrent
// replays through a bounded worker pool, with submit/status/drain exposed
// on the telemetry HTTP server:
//
//	pragma-node -serve 127.0.0.1:7070 -sched 4 -telemetry-addr 127.0.0.1:9090 \
//	    -sched-checkpoint-root ./runs
//	curl -X POST 'http://127.0.0.1:9090/sched/submit?tenant=acme&name=run1&strategy=adaptive'
//	curl -X POST  http://127.0.0.1:9090/sched/drain
//
// The node and the fleet router below serve one /sched/* surface and
// accept one submit wire format (fleet.SpecFromValues: trace, scenario,
// seed, strategy, procs, checkpoint-every, checkpoint-keep, resume,
// regrid-delay-ms), materialized the same way, so a run computes the same
// result on either. The node places checkpoints itself: with
// -sched-checkpoint-root set, name=NAME checkpoints under
// <root>/<tenant>/<name>, and checkpoint= is ignored.
//
// Tenants share the pool by weighted max-min fairness: submit with
// weight=4 and the tenant completes ~4x a weight-1 tenant's work under
// saturation, with an under-share submit preempting the most over-share
// running run at its next regrid boundary (it checkpoints and resumes
// later, bit-identically).
//
// On SIGINT the scheduler drains gracefully: in-flight runs checkpoint at
// their next regrid boundary and report as resumable.
//
// A fifth mode federates several pragma-node processes into a fleet: one
// router owning the message center and the fleet-wide /sched/ API, and any
// number of workers executing the runs it dispatches. Runs checkpoint
// under the shared root, so a killed worker's runs resume on survivors:
//
//	pragma-node -serve 127.0.0.1:7070 -fleet -telemetry-addr 127.0.0.1:9090 \
//	    -fleet-checkpoint-root ./fleet-runs
//	pragma-node -join 127.0.0.1:7070 -worker -id w1
//	pragma-node -join 127.0.0.1:7070 -worker -id w2
//	curl -X POST 'http://127.0.0.1:9090/sched/submit?tenant=acme&trace=small'
//	curl http://127.0.0.1:9090/sched/fleet
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/pragma-grid/pragma"
	"github.com/pragma-grid/pragma/internal/chaos"
	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/fleet"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

func main() {
	var (
		serve    = flag.String("serve", "", "serve the Message Center and ADM on this address")
		join     = flag.String("join", "", "join a served Message Center as a node agent")
		id       = flag.String("id", "node-0", "agent identity (with -join)")
		load     = flag.Float64("load", 0.3, "base synthetic load of this node (with -join)")
		wobble   = flag.Float64("wobble", 0.15, "load oscillation amplitude (with -join)")
		overload = flag.Float64("overload", 0.8, "load threshold that fires an overload event")
		interval = flag.Duration("interval", time.Second, "agent poll / ADM report interval")
		runFor   = flag.Duration("run-for", 0, "exit after this duration (0 = until interrupted)")

		// Observability.
		telemetryAddr = flag.String("telemetry-addr", "", "serve /metrics, /healthz and /debug/pragma on this address (all modes)")
		telemetryHold = flag.Duration("telemetry-hold", 0, "keep the telemetry endpoint alive this long after -replay finishes (for scraping)")

		// Multi-tenant run scheduler (serving mode; requires -telemetry-addr).
		schedWorkers     = flag.Int("sched", 0, "run the multi-tenant run scheduler with this many pool workers, exposing /sched/ on the telemetry address")
		schedQueue       = flag.Int("sched-queue", 64, "scheduler: admission queue limit (submissions beyond it are rejected)")
		schedTenantLimit = flag.Int("sched-tenant-limit", 8, "scheduler: max queued+running runs per tenant (0 = unlimited)")
		schedCkptRoot    = flag.String("sched-checkpoint-root", "", "scheduler: checkpoint named runs under <root>/<tenant>/<name> so drained runs are resumable")
		schedDrain       = flag.Duration("sched-drain-timeout", time.Minute, "scheduler: how long shutdown waits for in-flight runs to reach a regrid boundary")
		schedState       = flag.String("sched-state", "", "scheduler: snapshot the queued and drained backlog into this directory on drain and restore it on boot, so a process roll loses no submitted run")

		// Fleet: shard runs across pragma-node worker processes.
		fleetMode     = flag.Bool("fleet", false, "with -serve: run the fleet router on the message center; /sched/ becomes fleet-wide (requires -telemetry-addr)")
		workerMode    = flag.Bool("worker", false, "with -join: execute fleet runs dispatched by a -fleet router")
		workerSlots   = flag.Int("worker-slots", 2, "worker: concurrent run slots advertised to the router")
		fleetCkptRoot = flag.String("fleet-checkpoint-root", "", "router: default submitted runs to checkpoint under <root>/<run-id> (shared storage) so failover can resume them")

		// Robustness knobs.
		hbTimeout = flag.Duration("heartbeat-timeout", 5*time.Second, "broker: evict clients silent this long (0 disables; with -serve)")
		wTimeout  = flag.Duration("write-timeout", 5*time.Second, "broker: wire write deadline (0 disables; with -serve)")
		heartbeat = flag.Duration("heartbeat", time.Second, "node: ping the broker this often (0 disables; with -join)")
		reconnect = flag.Bool("reconnect", true, "node: reconnect with backoff and replay state after link loss (with -join)")

		// Trace replay with checkpoint/restart.
		replay       = flag.Bool("replay", false, "replay an adaptation trace on a simulated machine")
		traceName    = flag.String("trace", "small", "replay: RM3D trace configuration (small|paper)")
		scenarioSpec = flag.String("scenario", "", "replay: composed scenario spec instead of the RM3D trace, e.g. \"seed=7;shock:8,block:6\" (see internal/scenario)")
		strategyName = flag.String("strategy", "adaptive", "replay: adaptive|system-sensitive|proactive or a partitioner name (SFC, G-MISP+SP, ...)")
		procs        = flag.Int("procs", 8, "replay: processor count")
		ckptDir      = flag.String("checkpoint-dir", "", "replay: persist run state here at regrid boundaries")
		ckptEvery    = flag.Int("checkpoint-every", 1, "replay: checkpoint after every k-th regrid")
		ckptKeep     = flag.Int("checkpoint-keep", 3, "replay: checkpoint files to retain (negative = all)")
		resume       = flag.Bool("resume", false, "replay: continue from the latest valid checkpoint")
		crashAt      = flag.Int("crash-at", 0, "replay: inject a crash at the n-th regrid (rehearsal; 0 disables)")
		emulate      = flag.Bool("emulate", false, "replay: then run the final snapshot on the message-passing engine")
		stepDeadline = flag.Duration("step-deadline", 30*time.Second, "emulation: per-step barrier deadline (0 = none, may hang on faults)")

		// Fault injection on the node's uplink, for rehearsing failures.
		chaosDrop    = flag.Float64("chaos-drop", 0, "inject: per-op connection drop probability (with -join)")
		chaosCorrupt = flag.Float64("chaos-corrupt", 0, "inject: per-write byte corruption probability (with -join)")
		chaosLatency = flag.Duration("chaos-latency", 0, "inject: fixed latency per wire op (with -join)")
		chaosJitter  = flag.Duration("chaos-jitter", 0, "inject: random extra latency per wire op (with -join)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "inject: fault RNG seed (with -join)")
		chaosBudget  = flag.Int("chaos-max-faults", 0, "inject: total fault budget, 0 = unlimited (with -join)")
	)
	flag.Parse()

	// SIGTERM is what container orchestrators send first; treat it exactly
	// like Ctrl-C so both paths end in a graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runFor)
		defer cancel()
	}

	var scheduler *pragma.Scheduler
	var schedBuild pragma.SchedulerSpecBuilder
	var schedEvents *pragma.RunEventHub
	var stateStore *checkpoint.Store
	stateSeq := 0
	if *schedWorkers > 0 {
		if *telemetryAddr == "" {
			fail(errors.New("-sched needs -telemetry-addr to serve its endpoints on"))
		}
		if *fleetMode {
			fail(errors.New("-sched and -fleet both own /sched/; pick one"))
		}
		schedEvents = pragma.NewRunEventHub(pragma.RunEventHubConfig{})
		defer schedEvents.Close()
		scheduler = pragma.NewScheduler(pragma.SchedulerConfig{
			Workers:     *schedWorkers,
			QueueLimit:  *schedQueue,
			TenantLimit: *schedTenantLimit,
			Events:      schedEvents,
		})
		schedBuild = fleet.NodeSpecBuilder(*schedCkptRoot, fleet.DefaultMaterializer())
		if *schedState != "" {
			stateStore = &checkpoint.Store{Dir: *schedState}
			// Boot-time restore: re-admit whatever backlog the previous
			// process snapshotted on its way down. A missing snapshot is a
			// fresh start, not an error.
			seq, payload, err := stateStore.Latest(nil)
			switch {
			case errors.Is(err, checkpoint.ErrNoCheckpoint):
			case err != nil:
				fail(fmt.Errorf("restore scheduler state: %w", err))
			default:
				stateSeq = seq
				restored, err := scheduler.Restore(payload, schedBuild)
				if err != nil {
					fmt.Fprintf(os.Stderr, "pragma-node: restore (snapshot %d): %v\n", seq, err)
				}
				fmt.Printf("restored %d runs from %s (snapshot %d)\n", restored, *schedState, seq)
			}
		}
	}

	// readiness aggregates the drain signals of whatever subsystems this
	// process runs; /readyz flips to 503 as soon as any of them starts
	// draining, while /healthz stays 200 (the process is alive, just not
	// accepting new work).
	readiness := &readyChecks{}

	var fleetRouter *fleet.Router
	if *fleetMode {
		if *serve == "" {
			fail(errors.New("-fleet needs -serve (the router owns the message center)"))
		}
		if *telemetryAddr == "" {
			fail(errors.New("-fleet needs -telemetry-addr to serve /sched/ on"))
		}
		center := pragma.NewMessageCenter(
			pragma.WithHeartbeatTimeout(*hbTimeout),
			pragma.WithCenterWriteTimeout(*wTimeout),
			pragma.WithCenterErrorHandler(func(err error) {
				fmt.Fprintf(os.Stderr, "broker: %v\n", err)
			}))
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fail(err)
		}
		defer ln.Close()
		pragma.RegisterQueueDepthGauge(center)
		go center.Serve(ln)
		fmt.Printf("message center listening on %s\n", ln.Addr())
		fleetEvents := pragma.NewRunEventHub(pragma.RunEventHubConfig{})
		defer fleetEvents.Close()
		fleetRouter, err = fleet.NewRouter(fleet.Config{
			Port:             center,
			HeartbeatTimeout: *hbTimeout,
			Events:           fleetEvents,
			OnError: func(err error) {
				fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			},
		})
		if err != nil {
			fail(err)
		}
		fleetRouter.AttachCenter(center)
		readiness.add(func() error {
			if fleetRouter.Draining() {
				return errors.New("fleet draining")
			}
			return nil
		})
	}
	if scheduler != nil {
		readiness.add(func() error {
			if scheduler.Draining() {
				return errors.New("scheduler draining")
			}
			return nil
		})
	}

	var tsrv *pragma.TelemetryServer
	if *telemetryAddr != "" {
		mux := telemetry.NewHandler(telemetry.Default, telemetry.DefaultTracer, nil)
		telemetry.HandleReadiness(mux, readiness.check)
		if scheduler != nil {
			mux.Handle("/sched/", pragma.NewSchedulerHandler(scheduler, schedBuild))
		}
		if fleetRouter != nil {
			mux.Handle("/sched/", fleet.Handler(fleetRouter, *fleetCkptRoot))
		}
		var err error
		tsrv, err = telemetry.ServeHandler(*telemetryAddr, mux)
		if err != nil {
			fail(err)
		}
		defer tsrv.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", tsrv.Addr())
		if scheduler != nil {
			fmt.Printf("scheduler serving %d workers on http://%s/sched/\n", *schedWorkers, tsrv.Addr())
		}
		if fleetRouter != nil {
			fmt.Printf("fleet router serving on http://%s/sched/\n", tsrv.Addr())
		}
	}
	if scheduler != nil {
		// Whatever mode runs in the foreground, shut the scheduler down
		// gracefully on the way out: stop admitting, checkpoint in-flight
		// runs at their next regrid boundary, report what is resumable.
		defer func() {
			dctx, cancel := context.WithTimeout(context.Background(), *schedDrain)
			defer cancel()
			if err := scheduler.Drain(dctx); err != nil {
				fmt.Fprintf(os.Stderr, "pragma-node: drain: %v\n", err)
				return
			}
			st := scheduler.Stats()
			fmt.Printf("scheduler drained: %d done, %d drained (resumable), %d cancelled, %d failed\n",
				st.Done, st.Drained, st.Cancelled, st.Failed)
			if stateStore != nil {
				// Persist the backlog so the next boot re-admits it: drained
				// runs resume from their checkpoints, cancelled queued runs
				// start fresh.
				data, skipped, err := scheduler.Snapshot()
				if err != nil {
					fmt.Fprintf(os.Stderr, "pragma-node: snapshot: %v\n", err)
					return
				}
				if _, err := stateStore.Save(stateSeq+1, data); err != nil {
					fmt.Fprintf(os.Stderr, "pragma-node: save state: %v\n", err)
					return
				}
				if skipped > 0 {
					fmt.Printf("scheduler state saved to %s (%d programmatic runs not serializable)\n", *schedState, skipped)
				} else {
					fmt.Printf("scheduler state saved to %s\n", *schedState)
				}
			}
		}()
	}

	switch {
	case *replay:
		if err := runReplay(replayConfig{
			trace: *traceName, scenario: *scenarioSpec, strategy: *strategyName, procs: *procs,
			ckptDir: *ckptDir, ckptEvery: *ckptEvery, ckptKeep: *ckptKeep,
			resume: *resume, crashAt: *crashAt,
			emulate: *emulate, stepDeadline: *stepDeadline,
		}); err != nil {
			fail(err)
		}
		if tsrv != nil && *telemetryHold > 0 {
			fmt.Printf("holding telemetry endpoint for %s (scrape http://%s/metrics)\n", *telemetryHold, tsrv.Addr())
			select {
			case <-ctx.Done():
			case <-time.After(*telemetryHold):
			}
		}
	case fleetRouter != nil:
		// The message center and /sched/ endpoints are live; block until
		// interrupted or a remote POST /sched/drain completes, then drain
		// whatever is still in flight.
		fmt.Println("fleet router ready; join workers with -join ADDR -worker")
		select {
		case <-ctx.Done():
		case <-fleetRouter.Stopped():
		}
		dctx, cancel := context.WithTimeout(context.Background(), *schedDrain)
		if err := fleetRouter.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "pragma-node: fleet drain: %v\n", err)
		}
		cancel()
		st := fleetRouter.Stats()
		fmt.Printf("fleet drained: %d done, %d drained (resumable), %d cancelled, %d failed, %d failovers\n",
			st.Done, st.Drained, st.Cancelled, st.Failed, st.Failovers)
	case *serve != "":
		if err := runBroker(ctx, *serve, *interval, *hbTimeout, *wTimeout); err != nil {
			fail(err)
		}
	case *join != "" && *workerMode:
		dialOpts := []pragma.DialOption{
			pragma.WithReconnect(*reconnect),
			pragma.WithHeartbeat(*heartbeat),
			pragma.WithErrorHandler(func(err error) {
				fmt.Fprintf(os.Stderr, "[%s] link: %v\n", *id, err)
			}),
		}
		if err := runFleetWorker(ctx, *join, *id, *workerSlots, *heartbeat, *schedDrain, readiness, dialOpts); err != nil {
			fail(err)
		}
	case *join != "":
		dialOpts := []pragma.DialOption{
			pragma.WithReconnect(*reconnect),
			pragma.WithHeartbeat(*heartbeat),
			pragma.WithErrorHandler(func(err error) {
				fmt.Fprintf(os.Stderr, "[%s] link: %v\n", *id, err)
			}),
		}
		if *chaosDrop > 0 || *chaosCorrupt > 0 || *chaosLatency > 0 || *chaosJitter > 0 {
			dialOpts = append(dialOpts, pragma.WithDialer(pragma.ChaosDialer(pragma.ChaosConfig{
				Seed:        *chaosSeed,
				Latency:     *chaosLatency,
				Jitter:      *chaosJitter,
				DropRate:    *chaosDrop,
				CorruptRate: *chaosCorrupt,
				MaxFaults:   *chaosBudget,
			})))
		}
		if err := runNode(ctx, *join, *id, *load, *wobble, *overload, *interval, dialOpts); err != nil {
			fail(err)
		}
	case scheduler != nil:
		// Scheduler-only serving: the HTTP endpoints are live; block until
		// interrupted (the deferred drain then checkpoints in-flight runs)
		// or until a POST /sched/drain finishes the drain remotely.
		fmt.Println("scheduler ready; submit runs, interrupt to drain")
		select {
		case <-ctx.Done():
		case <-scheduler.Stopped():
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// readyChecks aggregates per-subsystem readiness probes for /readyz.
// Checks can be added after the HTTP server is already serving (the fleet
// worker joins late), hence the lock.
type readyChecks struct {
	mu     sync.Mutex
	checks []func() error
}

func (r *readyChecks) add(fn func() error) {
	r.mu.Lock()
	r.checks = append(r.checks, fn)
	r.mu.Unlock()
}

func (r *readyChecks) check() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.checks {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// runFleetWorker joins the control network as a fleet worker: it executes
// runs the router dispatches until interrupted, the router drains it, or
// its link is lost for good.
func runFleetWorker(ctx context.Context, addr, id string, slots int, heartbeat, drainTimeout time.Duration, readiness *readyChecks, dialOpts []pragma.DialOption) error {
	client, err := pragma.DialMessageCenter(addr, dialOpts...)
	if err != nil {
		return err
	}
	defer client.Close()
	worker, err := fleet.NewWorker(fleet.WorkerConfig{
		Port:           client,
		ID:             id,
		Slots:          slots,
		HeartbeatEvery: heartbeat,
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "[%s] fleet: %v\n", id, err)
		},
	})
	if err != nil {
		return err
	}
	readiness.add(func() error {
		if worker.Draining() {
			return errors.New("worker draining")
		}
		return nil
	})
	fmt.Printf("fleet worker %s joined %s (%d slots)\n", id, addr, slots)
	select {
	case <-ctx.Done():
	case <-worker.Stopped():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := worker.Drain(dctx); err != nil {
		return fmt.Errorf("worker drain: %w", err)
	}
	fmt.Printf("fleet worker %s drained\n", id)
	return nil
}

func runBroker(ctx context.Context, addr string, interval, hbTimeout, wTimeout time.Duration) error {
	center := pragma.NewMessageCenter(
		pragma.WithHeartbeatTimeout(hbTimeout),
		pragma.WithCenterWriteTimeout(wTimeout),
		pragma.WithCenterErrorHandler(func(err error) {
			fmt.Fprintf(os.Stderr, "broker: %v\n", err)
		}))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	pragma.RegisterQueueDepthGauge(center)
	go center.Serve(ln)
	fmt.Printf("message center listening on %s\n", ln.Addr())

	adm, err := pragma.NewADM("adm", center, pragma.Table2Policy())
	if err != nil {
		return err
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Println("broker shutting down")
			return nil
		case <-ticker.C:
			adm.Absorb()
			cons := adm.Consolidate()
			if cons.Agents == 0 {
				fmt.Println("no agents yet")
				continue
			}
			fmt.Printf("agents=%d mean-load=%.2f max-load=%.2f (%s)\n",
				cons.Agents, cons.Mean["load"], cons.Max["load"], cons.ArgMax["load"])
			events := adm.PendingEvents()
			for _, ev := range events {
				fmt.Printf("EVENT %s from %s (%s=%.2f)\n", ev.Name, ev.Agent, ev.Sensor, ev.Value)
			}
			if len(events) > 0 {
				// An overload is a high-dynamics communication-dominated
				// situation for the running application: query the policy
				// base and direct everyone to repartition.
				if act, ok := pragma.Table2Policy().BestAction("select-partitioner",
					map[string]interface{}{"octant": "VI"}); ok {
					fmt.Printf("policy: repartition with %s\n", act.Target)
				}
				if err := adm.Broadcast(pragma.Command{
					Actuator: "repartition",
					Params:   map[string]float64{"granularity": 8},
				}); err != nil {
					fmt.Fprintf(os.Stderr, "broadcast: %v\n", err)
				}
			}
		}
	}
}

func runNode(ctx context.Context, addr, id string, base, wobble, overload float64, interval time.Duration, dialOpts []pragma.DialOption) error {
	client, err := pragma.DialMessageCenter(addr, dialOpts...)
	if err != nil {
		return err
	}
	defer client.Close()
	start := time.Now()
	sensor := pragma.SensorFunc{SensorName: "load", Fn: func() (float64, error) {
		t := time.Since(start).Seconds()
		l := base + wobble*math.Sin(t/7)
		if l < 0 {
			l = 0
		}
		if l > 0.99 {
			l = 0.99
		}
		return l, nil
	}}
	actuator := pragma.ActuatorFunc{ActuatorName: "repartition", Fn: func(p map[string]float64) error {
		fmt.Printf("[%s] repartitioning with %v\n", id, p)
		return nil
	}}
	agent, err := pragma.NewComponentAgent(id, client,
		[]pragma.Sensor{sensor},
		[]pragma.Actuator{actuator},
		[]pragma.EventRule{{Sensor: "load", Above: &overload, Event: "overload"}})
	if err != nil {
		return err
	}
	agent.OnError = func(err error) {
		fmt.Fprintf(os.Stderr, "[%s] agent: %v\n", id, err)
	}
	fmt.Printf("agent %s joined %s (base load %.2f)\n", id, addr, base)
	agent.Run(ctx, interval)
	fmt.Printf("agent %s leaving\n", id)
	return nil
}

type replayConfig struct {
	trace, strategy     string
	scenario            string
	procs               int
	ckptDir             string
	ckptEvery, ckptKeep int
	resume              bool
	crashAt             int
	emulate             bool
	stepDeadline        time.Duration
}

// crashingStrategy injects a deterministic crash at the n-th regrid so
// operators can rehearse the -resume path without kill -9.
type crashingStrategy struct {
	inner pragma.Strategy
	fp    *chaos.FaultPoint
}

func (c crashingStrategy) Name() string { return c.inner.Name() }
func (c crashingStrategy) Assign(ctx *core.StepContext) (*partition.Assignment, string, error) {
	if err := c.fp.Check(); err != nil {
		return nil, "", err
	}
	return c.inner.Assign(ctx)
}

func (c crashingStrategy) CheckpointState() ([]byte, error) {
	if cs, ok := c.inner.(core.CheckpointableStrategy); ok {
		return cs.CheckpointState()
	}
	return nil, nil
}

func (c crashingStrategy) RestoreState(data []byte) error {
	if cs, ok := c.inner.(core.CheckpointableStrategy); ok {
		return cs.RestoreState(data)
	}
	return nil
}

// runReplay resolves the trace, scenario and strategy through the same
// materializer the scheduler and the fleet use, then replays the run.
func runReplay(cfg replayConfig) error {
	spec, err := fleet.DefaultMaterializer()(fleet.WireSpec{
		Trace: cfg.trace, Scenario: cfg.scenario, Strategy: cfg.strategy, Procs: cfg.procs,
	})
	if err != nil {
		return err
	}
	traceLabel := cfg.trace
	if cfg.scenario != "" {
		sc, err := pragma.ParseScenario(cfg.scenario)
		if err != nil {
			return err
		}
		traceLabel = sc.Name
		for _, exp := range sc.Trajectory() {
			if exp.Known {
				fmt.Printf("phase %s (snapshots %d-%d): expected octant %v\n",
					exp.Phase, exp.Start, exp.End-1, exp.Octant)
			} else {
				fmt.Printf("phase %s (snapshots %d-%d): mixed signature\n",
					exp.Phase, exp.Start, exp.End-1)
			}
		}
	}
	trace, strat := spec.Trace, spec.Strategy
	if cfg.crashAt > 0 {
		strat = crashingStrategy{inner: strat, fp: &chaos.FaultPoint{FailAt: cfg.crashAt}}
	}
	rt := pragma.Runtime{
		Trace:     trace,
		Machine:   spec.Machine,
		Strategy:  strat,
		NProcs:    spec.NProcs,
		WorkModel: spec.WorkModel,
	}
	var opts []pragma.RunOption
	if cfg.ckptDir != "" {
		opts = append(opts,
			pragma.WithCheckpointDir(cfg.ckptDir),
			pragma.WithCheckpointEvery(cfg.ckptEvery),
			pragma.WithCheckpointKeep(cfg.ckptKeep))
	}
	if cfg.resume {
		opts = append(opts, pragma.WithResume())
	}
	if cfg.resume {
		fmt.Printf("replaying %s trace (%d snapshots) with %s on %d procs, resuming from %s\n",
			traceLabel, len(trace.Snapshots), strat.Name(), spec.NProcs, cfg.ckptDir)
	} else {
		fmt.Printf("replaying %s trace (%d snapshots) with %s on %d procs\n",
			traceLabel, len(trace.Snapshots), strat.Name(), spec.NProcs)
	}
	res, err := rt.Execute(opts...)
	if errors.Is(err, chaos.ErrInjectedCrash) {
		fmt.Printf("injected crash at regrid %d; checkpoints are in %s — rerun with -resume\n",
			cfg.crashAt, cfg.ckptDir)
		return err
	}
	if err != nil {
		return err
	}
	fmt.Printf("simulated run-time %.1fs  compute %.1fs  comm %.1fs  partition %.2fs  migration %.2fs\n",
		res.TotalTime, res.ComputeTime, res.CommTime, res.PartitionTime, res.MigrationTime)
	fmt.Printf("max imbalance %.1f%%  avg %.1f%%  switches %d  steps %d\n",
		res.MaxImbalance, res.AvgImbalance, res.Switches, res.Steps)

	if cfg.emulate {
		return emulateFinalSnapshot(trace, spec.NProcs, cfg.stepDeadline)
	}
	return nil
}

// emulateFinalSnapshot runs the trace's last hierarchy as a real
// message-passing program under worker supervision: every barrier wait is
// bounded by the step deadline, so a stalled or crashed worker fails the
// run with EngineLostWorkers instead of hanging it.
func emulateFinalSnapshot(trace *pragma.Trace, procs int, deadline time.Duration) error {
	h := trace.Snapshots[len(trace.Snapshots)-1].H
	p, err := pragma.PartitionerByName("G-MISP+SP")
	if err != nil {
		return err
	}
	a, err := p.Partition(h, pragma.UniformWork(), procs)
	if err != nil {
		return err
	}
	center := pragma.NewMessageCenter()
	ports := make([]pragma.MessagePort, procs)
	for i := range ports {
		ports[i] = center
	}
	var engOpts []pragma.EngineOption
	if deadline > 0 {
		engOpts = append(engOpts, pragma.WithStepDeadline(deadline))
	}
	eng, err := pragma.NewEngine(h, a, center, ports, engOpts...)
	if err != nil {
		return err
	}
	rep, err := eng.Run(4)
	var lost *pragma.EngineLostWorkers
	if errors.As(err, &lost) {
		return fmt.Errorf("emulation lost workers %v at step %d (deadline %s)", lost.Missing, lost.Step, lost.Deadline)
	}
	if err != nil {
		return err
	}
	var faces float64
	for _, w := range rep.Workers {
		faces += w.FacesSent
	}
	fmt.Printf("emulated %d steps on %d workers: %d ghost messages, %.0f faces exchanged\n",
		rep.Steps, len(rep.Workers), rep.TotalMessages(), faces)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pragma-node:", err)
	os.Exit(1)
}
