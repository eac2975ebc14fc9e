package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/stream"
)

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", resp.Request.URL, err)
	}
}

// TestFleetEventsOnResultPath submits a run through a real TCP worker and
// requires the hub to carry its full queued→running→done lifecycle —
// including the terminal event published on the router's result path.
func TestFleetEventsOnResultPath(t *testing.T) {
	hub := stream.NewHub(stream.Config{})
	defer hub.Close()
	mat := testMaterializer(t)
	center, addr := startCenter(t)
	r := testRouter(t, center, mat, func(c *Config) { c.Events = hub })
	w, cl := startWorker(t, addr, "w0", mat, 2)
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { w.Close() })
	waitReachable(t, r, 1)

	// Pace the regrids so the dispatch ack (and its running event) lands
	// before the worker's result does; an instant run may legitimately
	// jump queued→done when its result beats the ack through the mailbox.
	st, err := r.Submit(SubmitRequest{Tenant: "acme", Spec: WireSpec{RegridDelayMS: 5}})
	if err != nil {
		t.Fatal(err)
	}
	sub := hub.Subscribe(st.ID, 0) // history replay covers the submit event
	defer hub.Unsubscribe(sub)

	var states []string
	deadline := time.After(2 * time.Minute)
	for {
		select {
		case e := <-sub.C:
			if e.Type == stream.TypeState {
				states = append(states, e.State)
			}
		case <-deadline:
			t.Fatalf("timed out; states so far %v", states)
		}
		if len(states) > 0 && State(states[len(states)-1]).Terminal() {
			break
		}
	}
	want := []string{"queued", "running", "done"}
	if len(states) != len(want) {
		t.Fatalf("state events %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state events %v, want %v", states, want)
		}
	}
	if d := sub.Dropped(); d != 0 {
		t.Errorf("subscriber dropped %d events unexpectedly", d)
	}
}

// TestFleetHandlerPaginationAndEvents exercises the HTTP surface: paginated
// /sched/runs, the SSE mount, and the JSON 404 fallback.
func TestFleetHandlerPaginationAndEvents(t *testing.T) {
	hub := stream.NewHub(stream.Config{})
	defer hub.Close()
	mat := testMaterializer(t)
	center, addr := startCenter(t)
	r := testRouter(t, center, mat, func(c *Config) { c.Events = hub })
	w, cl := startWorker(t, addr, "w0", mat, 4)
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { w.Close() })
	waitReachable(t, r, 1)
	srv := httptest.NewServer(Handler(r, t.TempDir()))
	defer srv.Close()

	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		st, err := r.Submit(SubmitRequest{Tenant: "acme", Spec: WireSpec{}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range ids {
		if _, err := r.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	page := func(query string) []RunStatus {
		t.Helper()
		resp, err := http.Get(srv.URL + "/sched/runs" + query)
		if err != nil {
			t.Fatal(err)
		}
		var out []RunStatus
		decodeJSON(t, resp, &out)
		return out
	}
	first := page("?limit=3")
	if len(first) != 3 || first[0].ID != ids[0] {
		t.Fatalf("first page: %d records starting %q", len(first), first[0].ID)
	}
	rest := page("?after=" + first[len(first)-1].ID)
	if len(rest) != 2 || rest[0].ID != ids[3] {
		t.Fatalf("second page: %d records starting %q, want %q", len(rest), rest[0].ID, ids[3])
	}
	resp, err := http.Get(srv.URL + "/sched/runs?limit=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", resp.StatusCode)
	}

	// Long-poll catch-up over HTTP: the whole history should arrive at once.
	presp, err := http.Get(srv.URL + "/sched/events?run=" + ids[0] + "&poll=1&timeout=5s")
	if err != nil {
		t.Fatal(err)
	}
	var poll struct {
		Events []stream.Event `json:"events"`
	}
	decodeJSON(t, presp, &poll)
	terminalSeen := false
	for _, e := range poll.Events {
		if e.Type == stream.TypeState && State(e.State).Terminal() {
			terminalSeen = true
		}
	}
	if !terminalSeen {
		t.Errorf("long-poll catch-up for %s carried no terminal event: %+v", ids[0], poll.Events)
	}

	nresp, err := http.Get(srv.URL + "/sched/bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", nresp.StatusCode)
	}
	if ct := nresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("404 Content-Type %q, want application/json", ct)
	}
}
