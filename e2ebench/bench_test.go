package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/rm3d"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, rank int
	}{
		{2000, 1980}, // p99: 20 beyond
		{1000, 990},  // p99: exactly 10 beyond
		{999, 989},   // p99 would leave 9 beyond; lowered
		{100, 90},    // p90
		{11, 1},
		{10, 0}, // no percentile has 10 samples beyond it
		{0, 0},
	} {
		if got := tailRank(c.n, 99); got != c.rank {
			t.Errorf("tailRank(%d, 99) = %d, want %d", c.n, got, c.rank)
		}
		if r := tailRank(c.n, 99); r > 0 && c.n-r < minBeyond {
			t.Errorf("n=%d: only %d samples beyond rank %d", c.n, c.n-r, r)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 200; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs, 99)
	if s.N != 200 || s.Median != 100.5 || s.Tail != 190 || s.TailQ != 95 || s.Beyond != 10 {
		t.Errorf("summarize(1..200) = %+v, want N=200 median=100.5 tail=190 at p95 with 10 beyond", s)
	}
	if xs[0] != 200 {
		t.Error("summarize reordered its input")
	}
	if s := summarize([]float64{3, 1, 2}, 99); s.Median != 2 || s.TailQ != 0 {
		t.Errorf("summarize(3 samples) = %+v, want median 2 and no tail", s)
	}
}

func TestOpsAccounting(t *testing.T) {
	var o ops
	o.attempt(10)
	o.fail("refused")
	o.fail("refused")
	o.fail("lost")
	a, f := o.totals()
	if a != 10 || f != 3 || o.share() != 0.3 {
		t.Errorf("attempted=%d failed=%d share=%v, want 10, 3, 0.3", a, f, o.share())
	}
}

// TestSendBooksEveryFailure drives the open-loop client against a stub
// server and checks that refusals, unknown runs and transport errors are
// all booked as failures, and admissions are not.
func TestSendBooksEveryFailure(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/sched/submit", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("tenant") {
		case "full":
			w.WriteHeader(http.StatusTooManyRequests)
		case "draining":
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"run-000001"}`))
		}
	})
	mux.HandleFunc("/sched/status", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("id") == "run-000001" {
			w.Write([]byte(`{}`))
			return
		}
		w.WriteHeader(http.StatusNotFound)
	})
	ts := httptest.NewServer(mux)
	d := newLoadClient(&server{url: ts.URL})
	defer d.close()

	pr := d.run([]arrival{
		{submit: true, query: "tenant=full"},
		{at: time.Millisecond, submit: true, query: "tenant=draining"},
		{at: 2 * time.Millisecond, submit: true, query: "tenant=ok&scenario=x"},
		{at: 20 * time.Millisecond}, // status of the admitted run
	})
	if len(pr.runs) != 1 || pr.runs[0].id != "run-000001" || pr.runs[0].spec != "scenario=x" {
		t.Fatalf("admitted runs = %+v", pr.runs)
	}
	if a, f := pr.ops.totals(); a != 4 || f != 2 || pr.ops.failed["refused"] != 2 {
		t.Errorf("attempted=%d failed=%d kinds=%v, want 4 attempted, 2 refused", a, f, pr.ops.failed)
	}

	d.mu.Lock()
	d.recent = []string{"run-gone"}
	d.mu.Unlock()
	pr = d.run([]arrival{{}})
	if pr.ops.failed["not-found"] != 1 {
		t.Errorf("status of an unknown run: kinds=%v, want not-found", pr.ops.failed)
	}
	ts.Close()
	pr = d.run([]arrival{{submit: true, query: "tenant=ok"}})
	if pr.ops.failed["transport"] != 1 {
		t.Errorf("closed server: kinds=%v, want transport", pr.ops.failed)
	}
	if len(pr.submitLat) != 1 || pr.submitLat[0] <= 0 {
		t.Errorf("a failed request must still be timed: %v", pr.submitLat)
	}
}

func TestRunIDOf(t *testing.T) {
	for in, want := range map[string]string{
		`{"id":"run-000042","tenant":"light"}`: "run-000042",
		`{"error":"saturated"}`:                "",
		`{"id":"run-0000`:                      "",
	} {
		if got := runIDOf([]byte(in)); got != want {
			t.Errorf("runIDOf(%s) = %q, want %q", in, got, want)
		}
	}
}

func TestKneeSearch(t *testing.T) {
	capacity := func(c float64) func(float64) bool {
		return func(q float64) bool { return q <= c }
	}
	for _, c := range []struct {
		capacity, want float64
	}{
		{300, 240},  // 80, 160 pass; 320 fails; bisect 240 passes
		{200, 160},  // bisect 240 fails
		{50, 0},     // the start rate already fails
		{1e9, 5120}, // never fails up to the limit
	} {
		if got := kneeSearch(80, 5120, capacity(c.capacity)); got != c.want {
			t.Errorf("capacity %v: kneeSearch = %v, want %v", c.capacity, got, c.want)
		}
	}
}

// TestTracedReplayMatchesCoreRun checks the stepwise replay against
// core.Run on a small RM3D trace (imbalance guard active) and on the
// checkpointed, interrupted scenario workload, including the checkpoint
// files both write.
func TestTracedReplayMatchesCoreRun(t *testing.T) {
	cfg := rm3d.SmallConfig()
	tr, err := rm3d.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := &regridSpec{trace: tr, wm: cfg.WorkModel, nprocs: 16}
	ckpt, err := scenarioCkptSpec(7)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*regridSpec{"rm3d-small": small, "scenario-ckpt": ckpt} {
		dir := t.TempDir()
		ref, err := s.uninterrupted(filepath.Join(dir, "ref"))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.replay(filepath.Join(dir, "u"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.res, ref) {
			t.Errorf("%s: core.Run replay differs from the reference", name)
		}
		tr, err := s.tracedReplay(filepath.Join(dir, "t"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.res, ref) {
			t.Errorf("%s: traced replay result differs from core.Run", name)
		}
		if s.ckpt {
			same, err := sameCheckpoints(filepath.Join(dir, "u"), filepath.Join(dir, "t"))
			if err != nil || !same {
				t.Errorf("%s: checkpoint files differ from core.Run's (err %v)", name, err)
			}
			if tr.resumes != 1 || tr.saves == 0 {
				t.Errorf("%s: %d resumes and %d saves", name, tr.resumes, tr.saves)
			}
		}
		_, counts := tr.rec.totals()
		if counts[layerCommPlan] != len(s.trace.Snapshots) {
			t.Errorf("%s: %d commplan spans for %d regrids", name, counts[layerCommPlan], len(s.trace.Snapshots))
		}
	}
}

func TestCompleteEnforcesDeclaredSets(t *testing.T) {
	res := &result{}
	res.set("octant.classify_ms", 1, "ms", "")
	if err := complete(res, true); err != nil {
		t.Fatal(err)
	}
	if len(res.metrics) != len(perLayer) || res.metrics["http.submit_us"].unit != "us" {
		t.Errorf("per-layer set not filled: %d metrics", len(res.metrics))
	}
	res = &result{}
	res.set("setup_s", 1, "s", "")
	if err := complete(res, false); err == nil {
		t.Error("missing end-to-end metrics were not reported")
	}
}

// TestBenchmarkJSONMatchesMetricSets keeps BENCHMARK.json and the metric
// sets this program reports in step.
func TestBenchmarkJSONMatchesMetricSets(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", names, endToEnd)
	}
	names = nil
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: unit %s in BENCHMARK.json, %s in the program", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if !reflect.DeepEqual(names, perLayer) {
		t.Errorf("per_layer %v, program reports %v", names, perLayer)
	}
	names = nil
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads %v, program runs %v", names, have)
	}
}
