package serve

// Black-box integration tests for the control plane: every test drives the
// service exclusively through its HTTP API (an httptest server mounted on
// Handler), exactly as an external client would, with the shared leak guard
// armed so that no lifecycle path may shed goroutines.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/serve/leaktest"
)

// waitDeadline bounds every poll loop. Generous: a stuck run fails slow,
// a healthy run passes fast.
const waitDeadline = 2 * time.Minute

// testClient wraps an httptest server around a fresh service. Cleanup
// stops the service first (runs exit, SSE streams drain) and the transport
// second — the order Close is designed for.
type testClient struct {
	t  *testing.T
	ts *httptest.Server
}

func newTestClient(t *testing.T) *testClient {
	t.Helper()
	leaktest.Check(t)
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		ts.Close()
	})
	return &testClient{t: t, ts: ts}
}

// do issues one request and returns status and body.
func (c *testClient) do(method, p string, body []byte) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.ts.URL+p, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.ts.Client().Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, p, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("%s %s: read body: %v", method, p, err)
	}
	return resp.StatusCode, b
}

// doJSON issues a request with a JSON body and decodes the JSON response.
func (c *testClient) doJSON(method, p string, body, out any) int {
	c.t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			c.t.Fatal(err)
		}
	}
	status, b := c.do(method, p, raw)
	if out != nil && len(b) > 0 {
		if err := json.Unmarshal(b, out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, p, b, err)
		}
	}
	return status
}

// create posts a spec and returns the new run's status document.
func (c *testClient) create(sp RunSpec) RunInfo {
	c.t.Helper()
	var inf RunInfo
	if st := c.doJSON("POST", "/runs", sp, &inf); st != http.StatusCreated {
		c.t.Fatalf("create run: status %d", st)
	}
	return inf
}

// post fires a lifecycle action and returns the fresh status.
func (c *testClient) post(p string) RunInfo {
	c.t.Helper()
	var inf RunInfo
	if st := c.doJSON("POST", p, nil, &inf); st != http.StatusOK {
		c.t.Fatalf("POST %s: status %d", p, st)
	}
	return inf
}

// info fetches a run's status document.
func (c *testClient) info(id string) RunInfo {
	c.t.Helper()
	var inf RunInfo
	if st := c.doJSON("GET", "/runs/"+id, nil, &inf); st != http.StatusOK {
		c.t.Fatalf("GET /runs/%s: status %d", id, st)
	}
	return inf
}

// waitState polls until the run reaches the wanted state, failing fast if
// it lands in failed instead.
func (c *testClient) waitState(id string, want State) RunInfo {
	c.t.Helper()
	deadline := time.Now().Add(waitDeadline)
	for {
		inf := c.info(id)
		if inf.State == want {
			return inf
		}
		if inf.State == StateFailed && want != StateFailed {
			c.t.Fatalf("run %s failed: %s", id, inf.Error)
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("run %s stuck in %s (day %d) waiting for %s", id, inf.State, inf.Day, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkpoint fetches the raw envelope stored at the given day.
func (c *testClient) checkpoint(id string, day int) []byte {
	c.t.Helper()
	st, b := c.do("GET", "/runs/"+id+"/checkpoint?day="+itoa(day), nil)
	if st != http.StatusOK {
		c.t.Fatalf("GET /runs/%s/checkpoint?day=%d: status %d: %s", id, day, st, b)
	}
	return b
}

// resultBytes fetches the raw result document — raw, because the
// equivalence tests compare results byte for byte.
func (c *testClient) resultBytes(id string) []byte {
	c.t.Helper()
	st, b := c.do("GET", "/runs/"+id+"/result", nil)
	if st != http.StatusOK {
		c.t.Fatalf("GET /runs/%s/result: status %d", id, st)
	}
	return b
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestLifecycle walks one run through the whole state machine over the
// API: created → stepped → paused → resumed → done → deleted, checking the
// status document at each station.
func TestLifecycle(t *testing.T) {
	c := newTestClient(t)

	inf := c.create(RunSpec{Days: 5, Seed: 3})
	if inf.ID != "r1" {
		t.Fatalf("first run ID = %q, want r1 (IDs are a deterministic counter)", inf.ID)
	}
	if inf.State != StateCreated || inf.Day != 0 || inf.Days != 5 {
		t.Fatalf("fresh run = %+v, want created at day 0 of 5", inf)
	}
	if inf.Policy != "baat" || inf.Weather != "mix" || inf.BatteryModel != "leadacid" {
		t.Fatalf("defaults not applied: %+v", inf)
	}

	c.post("/runs/r1/step?to=2")
	inf = c.waitState("r1", StatePaused)
	if inf.Day != 2 {
		t.Fatalf("after step to 2: day %d, want 2", inf.Day)
	}
	if !slices.Equal(inf.Checkpoints, []int{1, 2}) {
		t.Fatalf("checkpoints after day 2 = %v, want [1 2]", inf.Checkpoints)
	}

	c.post("/runs/r1/resume")
	inf = c.waitState("r1", StateDone)
	if inf.Day != 5 {
		t.Fatalf("done at day %d, want 5", inf.Day)
	}

	var res RunResult
	if st := c.doJSON("GET", "/runs/r1/result", nil, &res); st != http.StatusOK {
		t.Fatalf("result status %d", st)
	}
	if !res.Done || len(res.Days) != 5 || len(res.Nodes) != 6 {
		t.Fatalf("result done=%v days=%d nodes=%d, want done with 5 days and 6 nodes",
			res.Done, len(res.Days), len(res.Nodes))
	}
	if res.SoCTotal <= 0 {
		t.Fatalf("final SoC histogram is empty")
	}

	var lst struct {
		Runs []RunInfo `json:"runs"`
	}
	if st := c.doJSON("GET", "/runs", nil, &lst); st != http.StatusOK || len(lst.Runs) != 1 {
		t.Fatalf("list: status %d, %d runs, want 1", st, len(lst.Runs))
	}

	if st, _ := c.do("DELETE", "/runs/r1", nil); st != http.StatusNoContent {
		t.Fatalf("delete: status %d", st)
	}
	if st, _ := c.do("GET", "/runs/r1", nil); st != http.StatusNotFound {
		t.Fatalf("status after delete: %d, want 404", st)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events off a stream until a terminal done/error event,
// EOF, or the deadline.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var ev sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if ev.name != "" {
				events = append(events, ev)
				if ev.name == "done" || ev.name == "error" {
					return events
				}
				ev = sseEvent{}
			}
		}
	}
	return events
}

// TestSSEStream subscribes before the run starts and follows it to
// completion: every completed day arrives exactly once and in order, state
// transitions are announced, and the stream terminates with one done event
// carrying the final result. A second, late subscription replays the whole
// history rather than joining mid-stream.
func TestSSEStream(t *testing.T) {
	c := newTestClient(t)
	const days = 4
	inf := c.create(RunSpec{Days: days, Seed: 2})

	req, err := http.NewRequest("GET", c.ts.URL+"/runs/"+inf.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	c.post("/runs/" + inf.ID + "/start")
	events := readSSE(t, resp.Body)
	checkStreamEvents(t, events, days)

	// Late subscriber: the run is long done, yet the stream replays every
	// day before the terminal event.
	resp2, err := c.ts.Client().Get(c.ts.URL + "/runs/" + inf.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	checkStreamEvents(t, readSSE(t, resp2.Body), days)
}

// checkStreamEvents asserts the stream vocabulary: days 1..n in order,
// then exactly one terminal done event with the full result.
func checkStreamEvents(t *testing.T, events []sseEvent, days int) {
	t.Helper()
	var gotDays []int
	var done *RunResult
	for _, ev := range events {
		switch ev.name {
		case "day":
			var d struct{ Day int }
			if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
				t.Fatalf("day event %q: %v", ev.data, err)
			}
			gotDays = append(gotDays, d.Day)
		case "done":
			if done != nil {
				t.Fatal("two terminal done events on one stream")
			}
			done = new(RunResult)
			if err := json.Unmarshal([]byte(ev.data), done); err != nil {
				t.Fatalf("done event %q: %v", ev.data, err)
			}
		case "state":
		case "error":
			t.Fatalf("stream ended with error event: %s", ev.data)
		default:
			t.Fatalf("unknown stream event %q", ev.name)
		}
	}
	want := make([]int, days)
	for i := range want {
		want[i] = i + 1
	}
	if !slices.Equal(gotDays, want) {
		t.Fatalf("stream days = %v, want %v", gotDays, want)
	}
	if done == nil {
		t.Fatal("stream ended without a done event")
	}
	if !done.Done || len(done.Days) != days {
		t.Fatalf("terminal result done=%v days=%d, want done with %d days", done.Done, len(done.Days), days)
	}
}

// TestMutateMidRun pauses a run mid-flight, swaps policy and fault profile
// and sunshine, and checks that (a) the mutation report distinguishes
// applied from no-op, (b) the run completes under the new scenario, and
// (c) a fork from a pre-mutation checkpoint resurrects the original
// scenario — the spec snapshot, not the mutated one, and the original
// weather, so the fork finishes exactly as an unmutated twin does.
func TestMutateMidRun(t *testing.T) {
	c := newTestClient(t)
	inf := c.create(RunSpec{Days: 6, Seed: 4})
	id := inf.ID
	c.post("/runs/" + id + "/step?to=3")
	c.waitState(id, StatePaused)

	var mres struct {
		Applied []string `json:"applied"`
		Noop    []string `json:"noop"`
		Run     RunInfo  `json:"run"`
	}
	// Sunshine 0.1 redraws days 4–6, sunny at 0.5, as cloudy, rainy, cloudy.
	mut := Mutation{Policy: "ebuff", Sunshine: ptr(0.1), Faults: ptr("chaos")}
	if st := c.doJSON("POST", "/runs/"+id+"/mutate", mut, &mres); st != http.StatusOK {
		t.Fatalf("mutate: status %d", st)
	}
	if !slices.Equal(mres.Applied, []string{"policy", "sunshine", "faults"}) || len(mres.Noop) != 0 {
		t.Fatalf("mutation report applied=%v noop=%v", mres.Applied, mres.Noop)
	}
	if mres.Run.Policy != "ebuff" || mres.Run.Faults != "chaos" || mres.Run.Sunshine != 0.1 {
		t.Fatalf("mutated spec not reflected in status: %+v", mres.Run)
	}

	// Re-sending the same scenario is all no-ops — including via a policy
	// alias, which must canonicalize before comparing.
	mut = Mutation{Policy: "e-buff", Sunshine: ptr(0.1), Faults: ptr("chaos")}
	if st := c.doJSON("POST", "/runs/"+id+"/mutate", mut, &mres); st != http.StatusOK {
		t.Fatalf("no-op mutate: status %d", st)
	}
	if len(mres.Applied) != 0 || !slices.Equal(mres.Noop, []string{"policy", "sunshine", "faults"}) {
		t.Fatalf("no-op mutation report applied=%v noop=%v", mres.Applied, mres.Noop)
	}

	c.post("/runs/" + id + "/resume")
	if inf = c.waitState(id, StateDone); inf.Day != 6 {
		t.Fatalf("mutated run finished at day %d, want 6", inf.Day)
	}

	// Fork from day 2: before the mutation, so the child carries the
	// original baat/none scenario.
	var child RunInfo
	if st := c.doJSON("POST", "/runs/"+id+"/fork?day=2", nil, &child); st != http.StatusCreated {
		t.Fatalf("fork: status %d", st)
	}
	if child.Policy != "baat" || child.Faults != "none" || child.Sunshine != 0.5 {
		t.Fatalf("fork of pre-mutation checkpoint inherited mutated spec: %+v", child)
	}
	c.post("/runs/" + child.ID + "/resume")
	c.waitState(child.ID, StateDone)

	twin := c.create(RunSpec{Days: 6, Seed: 4})
	c.post("/runs/" + twin.ID + "/start")
	c.waitState(twin.ID, StateDone)
	if !bytes.Equal(c.resultBytes(child.ID), c.resultBytes(twin.ID)) {
		t.Error("fork of the pre-mutation checkpoint diverged from an unmutated twin: the sunshine redraw leaked into its weather")
	}
}

// TestMutatePolicyOptions drives the registry's option vocabulary through
// the mutate endpoint: an options-only mutation retunes the current policy,
// re-sending the identical spec is a no-op (name AND options compared),
// a rejected spec leaves the run untouched, and a swap without options
// resets the policy to its defaults.
func TestMutatePolicyOptions(t *testing.T) {
	c := newTestClient(t)
	inf := c.create(RunSpec{Days: 6, Seed: 9})
	id := inf.ID
	c.post("/runs/" + id + "/step?to=2")
	c.waitState(id, StatePaused)

	var mres struct {
		Applied []string `json:"applied"`
		Noop    []string `json:"noop"`
		Run     RunInfo  `json:"run"`
	}
	// Options-only: the policy name is omitted and defaults to the run's
	// current policy (baat), retuned with a deeper floor.
	mut := Mutation{PolicyOptions: map[string]string{"floor": "0.25"}}
	if st := c.doJSON("POST", "/runs/"+id+"/mutate", mut, &mres); st != http.StatusOK {
		t.Fatalf("options-only mutate: status %d", st)
	}
	if !slices.Equal(mres.Applied, []string{"policy"}) || len(mres.Noop) != 0 {
		t.Fatalf("options-only mutation report applied=%v noop=%v", mres.Applied, mres.Noop)
	}
	if mres.Run.Policy != "baat" || mres.Run.PolicyOptions["floor"] != "0.25" {
		t.Fatalf("retuned spec not reflected in status: %+v", mres.Run)
	}

	// The same spec again — this time with the name spelled out via an
	// alias — is a pure no-op: equality covers the options too.
	mut = Mutation{Policy: "BAAT", PolicyOptions: map[string]string{"floor": "0.25"}}
	if st := c.doJSON("POST", "/runs/"+id+"/mutate", mut, &mres); st != http.StatusOK {
		t.Fatalf("no-op mutate: status %d", st)
	}
	if len(mres.Applied) != 0 || !slices.Equal(mres.Noop, []string{"policy"}) {
		t.Fatalf("no-op mutation report applied=%v noop=%v", mres.Applied, mres.Noop)
	}

	// A spec the registry rejects (floor above trigger) must not disturb
	// the run: 400 now, and the previous retune stays live.
	if st, body := c.do("POST", "/runs/"+id+"/mutate", []byte(`{"policy_options": {"floor": "0.9"}}`)); st != http.StatusBadRequest {
		t.Fatalf("invalid retune: status %d, body %s", st, body)
	}
	if inf = c.info(id); inf.Policy != "baat" || inf.PolicyOptions["floor"] != "0.25" {
		t.Fatalf("rejected mutation disturbed the spec: %+v", inf)
	}

	// Swapping the name without options resets to the policy's defaults —
	// the old options do not leak onto the new policy.
	mut = Mutation{Policy: "baat-s"}
	mres.Run = RunInfo{} // a fresh target: omitted fields must read as absent
	if st := c.doJSON("POST", "/runs/"+id+"/mutate", mut, &mres); st != http.StatusOK {
		t.Fatalf("swap mutate: status %d", st)
	}
	if !slices.Equal(mres.Applied, []string{"policy"}) {
		t.Fatalf("swap mutation report applied=%v noop=%v", mres.Applied, mres.Noop)
	}
	if mres.Run.Policy != "baat-s" || len(mres.Run.PolicyOptions) != 0 {
		t.Fatalf("swap carried stale options: %+v", mres.Run)
	}
	if inf = c.info(id); inf.Policy != "baat-s" || len(inf.PolicyOptions) != 0 {
		t.Fatalf("status still reports stale options after the swap: %+v", inf)
	}

	// The run is still healthy: it completes under the swapped policy.
	c.post("/runs/" + id + "/resume")
	if inf = c.waitState(id, StateDone); inf.Day != 6 {
		t.Fatalf("mutated run finished at day %d, want 6", inf.Day)
	}
}
