package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/sched"
)

// submitAndWait POSTs one submit to srv and waits for the run through
// wait, returning its final status.
func submitAndWait(t *testing.T, srv *httptest.Server, query string,
	wait func(context.Context, string) (RunStatus, error)) RunStatus {
	t.Helper()
	resp, err := http.Post(srv.URL+"/sched/submit?"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("submit %s: status %d, want 202", query, resp.StatusCode)
	}
	var st RunStatus
	decodeJSON(t, resp, &st)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("run %s ended %q (%s)", st.ID, final.State, final.Error)
	}
	return final
}

// TestNodeAndFleetSubmitParity submits the same scenario run — one whose
// front work model makes the result depend on it — to a single-node
// scheduler (with the node's spec builder) and to a fleet router with a
// TCP worker. Both must report the result of a direct core.Run with that
// work model.
func TestNodeAndFleetSubmitParity(t *testing.T) {
	const query = "tenant=acme&scenario=seed%3D7%3Bshock%3A8%2Cblock%3A6&strategy=adaptive&procs=4"

	mat := DefaultMaterializer()
	ws, err := SpecFromValues(url.Values{"scenario": {"seed=7;shock:8,block:6"}, "procs": {"4"}})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := mat(ws)
	if err != nil {
		t.Fatal(err)
	}
	if spec.WorkModel == nil {
		t.Fatal("scenario spec has no work model")
	}
	want, err := core.Run(spec.Trace, spec.Strategy, core.RunConfig{
		Machine: spec.Machine, NProcs: spec.NProcs, WorkModel: spec.WorkModel,
	})
	if err != nil {
		t.Fatal(err)
	}

	s := sched.New(sched.Config{Workers: 1})
	defer s.Close()
	nodeSrv := httptest.NewServer(sched.Handler(s, NodeSpecBuilder("", DefaultMaterializer())))
	defer nodeSrv.Close()
	node := submitAndWait(t, nodeSrv, query, s.Wait)

	center, addr := startCenter(t)
	r := testRouter(t, center, DefaultMaterializer(), nil)
	w, cl := startWorker(t, addr, "w0", DefaultMaterializer(), 1)
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { w.Close() })
	waitReachable(t, r, 1)
	fleetSrv := httptest.NewServer(Handler(r, ""))
	defer fleetSrv.Close()
	fl := submitAndWait(t, fleetSrv, query, r.Wait)
	if fl.Placement != "w0" {
		t.Errorf("fleet run placed on %q, want w0", fl.Placement)
	}
	resp, err := http.Get(fleetSrv.URL + "/sched/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Workers []WorkerInfo `json:"workers"`
		Stats   Stats        `json:"stats"`
	}
	decodeJSON(t, resp, &view)
	if len(view.Workers) != 1 || view.Workers[0].ID != "w0" || view.Stats.Done != 1 {
		t.Errorf("/sched/fleet: %+v, want worker w0 and one done run", view)
	}

	sameRunResult(t, "node", node.Result, want)
	sameRunResult(t, "fleet", fl.Result, want)
}

// TestFleetCheckpointConfinedUnderRoot holds checkpoint= under a router's
// checkpoint root: absolute paths and paths leaving the root are refused,
// relative ones resolve inside it, and a router without a root keeps
// accepting any directory.
func TestFleetCheckpointConfinedUnderRoot(t *testing.T) {
	center, _ := startCenter(t)
	r := testRouter(t, center, testMaterializer(t), nil)
	root := t.TempDir()
	srv := httptest.NewServer(Handler(r, root))
	defer srv.Close()

	outside := t.TempDir()
	for _, dir := range []string{outside, "../escape", "a/../../escape", ".."} {
		resp, err := http.Post(srv.URL+"/sched/submit?checkpoint="+url.QueryEscape(dir), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("checkpoint=%q: status %d, want 400", dir, resp.StatusCode)
		}
	}
	if ents, _ := os.ReadDir(outside); len(ents) != 0 {
		t.Errorf("a refused submit wrote %d entries outside the root", len(ents))
	}

	submitAndWait(t, srv, "checkpoint=a/../jobs/one", r.Wait)
	if ents, err := os.ReadDir(filepath.Join(root, "jobs", "one")); err != nil || len(ents) == 0 {
		t.Errorf("relative checkpoint not written under the root: %v (%d entries)", err, len(ents))
	}

	open := httptest.NewServer(Handler(r, ""))
	defer open.Close()
	submitAndWait(t, open, "checkpoint="+url.QueryEscape(outside), r.Wait)
	if ents, _ := os.ReadDir(outside); len(ents) == 0 {
		t.Error("a router without a root did not checkpoint into the absolute dir")
	}
}

// TestNodeSpecBuilderCheckpointRule pins the single-node checkpoint rule:
// name= under <root>/<tenant>/<name>, checkpoint= ignored, resume only
// with a named checkpoint, and path-hostile names refused.
func TestNodeSpecBuilderCheckpointRule(t *testing.T) {
	var got WireSpec
	build := NodeSpecBuilder("/runs", func(ws WireSpec) (sched.RunSpec, error) {
		got = ws
		return sched.RunSpec{CheckpointDir: ws.CheckpointDir, Resume: ws.Resume}, nil
	})
	cases := []struct {
		tenant, query string
		dir           string
		resume        bool
	}{
		{"acme", "name=job&resume=1", "/runs/acme/job", true},
		{"", "name=job", "/runs/_default/job", false},
		{"acme", "checkpoint=/elsewhere&resume=1", "", false},
	}
	for _, c := range cases {
		v, _ := url.ParseQuery(c.query)
		spec, err := build(c.tenant, 0, v)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if spec.CheckpointDir != c.dir || spec.Resume != c.resume {
			t.Errorf("%s: dir %q resume %v, want %q %v", c.query, spec.CheckpointDir, spec.Resume, c.dir, c.resume)
		}
	}
	v, _ := url.ParseQuery("name=job&checkpoint-every=2")
	if _, err := build("acme", 0, v); err != nil || got.CheckpointEvery != 2 {
		t.Errorf("checkpoint-every not passed through: %v %+v", err, got)
	}
	for tenant, name := range map[string]string{"../x": "job", "acme": "..", "a b": "job"} {
		if _, err := build(tenant, 0, url.Values{"name": {name}}); err == nil {
			t.Errorf("tenant %q name %q accepted", tenant, name)
		}
	}
	if spec, err := NodeSpecBuilder("", func(ws WireSpec) (sched.RunSpec, error) {
		return sched.RunSpec{CheckpointDir: ws.CheckpointDir}, nil
	})("acme", 0, url.Values{"name": {"job"}}); err != nil || spec.CheckpointDir != "" {
		t.Errorf("no root: dir %q, err %v; want no checkpoint", spec.CheckpointDir, err)
	}
}
