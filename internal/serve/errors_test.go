package serve

// The API error contract, table-driven: every failure mode answers with
// the documented status code and a structured {"error": {code, message}}
// body whose code is stable enough for clients to switch on.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// errorBody decodes the structured error document, failing the test if the
// body is not one.
func errorBody(t *testing.T, body []byte) Error {
	t.Helper()
	var doc struct {
		Error Error `json:"error"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.Error.Code == "" {
		t.Fatalf("response is not a structured error document: %s", body)
	}
	return doc.Error
}

func TestErrorContract(t *testing.T) {
	cases := []struct {
		name string
		// setup prepares state and returns the request; most cases need
		// none.
		setup      func(t *testing.T, c *testClient) (method, path string, body string)
		wantStatus int
		wantCode   string
		// wantField, when set, must appear in the error message.
		wantField string
	}{
		{
			name: "get unknown run",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "GET", "/runs/zz", ""
			},
			wantStatus: http.StatusNotFound,
			wantCode:   CodeRunNotFound,
		},
		{
			name: "start unknown run",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs/zz/start", ""
			},
			wantStatus: http.StatusNotFound,
			wantCode:   CodeRunNotFound,
		},
		{
			name: "delete unknown run",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "DELETE", "/runs/zz", ""
			},
			wantStatus: http.StatusNotFound,
			wantCode:   CodeRunNotFound,
		},
		{
			name: "create with malformed json",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", "{not json"
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "create with unknown field",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"dayz": 5}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "create with unknown policy",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"policy": "overclock"}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "create with unknown policy option key",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"policy": "baat", "policy_options": {"bogus": "1"}}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "create with option on option-less policy",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"policy": "ebuff", "policy_options": {"floor": "0.2"}}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "create with malformed policy option value",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"policy": "baat", "policy_options": {"floor": "deep"}}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "create with out-of-range policy option value",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"policy": "baat", "policy_options": {"floor": "1.5"}}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "create with unknown weather",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"weather": "hail"}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "create with absurd horizon",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"days": 100000}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "create with an oversized fleet",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"nodes": 65537}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantField:  "nodes",
		},
		{
			name: "create with an oversized job batch",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"jobs_per_day": 65537}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantField:  "jobs_per_day",
		},
		{
			name: "create with too many workers",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"workers": 1000000}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantField:  "workers",
		},
		{
			name: "create with invalid sunshine",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "POST", "/runs", `{"sunshine": 1.5}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "fork at a day with no checkpoint",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				// Checkpointing disabled: the run completes but retains no
				// envelopes, so no day is forkable.
				inf := c.create(RunSpec{Days: 2, Seed: 1, CheckpointEvery: -1})
				c.post("/runs/" + inf.ID + "/start")
				c.waitState(inf.ID, StateDone)
				return "POST", "/runs/" + inf.ID + "/fork?day=1", ""
			},
			wantStatus: http.StatusConflict,
			wantCode:   CodeNoCheckpoint,
		},
		{
			name: "fork without a day",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 2, Seed: 1})
				return "POST", "/runs/" + inf.ID + "/fork", ""
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "step backwards",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 3, Seed: 1})
				return "POST", "/runs/" + inf.ID + "/step?to=0", ""
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "step beyond the horizon",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 3, Seed: 1})
				return "POST", "/runs/" + inf.ID + "/step?to=4", ""
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "pause before starting",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 3, Seed: 1})
				return "POST", "/runs/" + inf.ID + "/pause", ""
			},
			wantStatus: http.StatusConflict,
			wantCode:   CodeConflict,
		},
		{
			name: "start a finished run",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 1, Seed: 1})
				c.post("/runs/" + inf.ID + "/start")
				c.waitState(inf.ID, StateDone)
				return "POST", "/runs/" + inf.ID + "/start", ""
			},
			wantStatus: http.StatusConflict,
			wantCode:   CodeConflict,
		},
		{
			name: "mutate a finished run",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 1, Seed: 1})
				c.post("/runs/" + inf.ID + "/start")
				c.waitState(inf.ID, StateDone)
				return "POST", "/runs/" + inf.ID + "/mutate", `{"policy": "ebuff"}`
			},
			wantStatus: http.StatusConflict,
			wantCode:   CodeConflict,
		},
		{
			name: "mutate a deleted run",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 2, Seed: 1})
				if st, _ := c.do("DELETE", "/runs/"+inf.ID, nil); st != http.StatusNoContent {
					t.Fatalf("delete: status %d", st)
				}
				return "POST", "/runs/" + inf.ID + "/mutate", `{"policy": "ebuff"}`
			},
			wantStatus: http.StatusNotFound,
			wantCode:   CodeRunNotFound,
		},
		{
			name: "mutate nothing",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 2, Seed: 1})
				return "POST", "/runs/" + inf.ID + "/mutate", `{}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "mutate sunshine on fixed weather",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 2, Seed: 1, Weather: "sunny"})
				return "POST", "/runs/" + inf.ID + "/mutate", `{"sunshine": 0.7}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "mutate to an unknown fault profile",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 2, Seed: 1})
				return "POST", "/runs/" + inf.ID + "/mutate", `{"faults": "gremlins"}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "mutate to an unknown policy",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 2, Seed: 1})
				return "POST", "/runs/" + inf.ID + "/mutate", `{"policy": "overclock"}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "mutate with unknown policy option key",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 2, Seed: 1})
				return "POST", "/runs/" + inf.ID + "/mutate", `{"policy_options": {"bogus": "1"}}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "mutate with malformed policy option value",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				inf := c.create(RunSpec{Days: 2, Seed: 1})
				return "POST", "/runs/" + inf.ID + "/mutate", `{"policy_options": {"trigger": "high"}}`
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
		},
		{
			name: "checkpoint of an unknown run",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "GET", "/runs/zz/checkpoint?day=1", ""
			},
			wantStatus: http.StatusNotFound,
			wantCode:   CodeRunNotFound,
		},
		{
			name: "stream of an unknown run",
			setup: func(t *testing.T, c *testClient) (string, string, string) {
				return "GET", "/runs/zz/stream", ""
			},
			wantStatus: http.StatusNotFound,
			wantCode:   CodeRunNotFound,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestClient(t)
			method, path, body := tc.setup(t, c)
			var raw []byte
			if body != "" {
				raw = []byte(body)
			}
			status, respBody := c.do(method, path, raw)
			if status != tc.wantStatus {
				t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, status, tc.wantStatus, respBody)
			}
			apiErr := errorBody(t, respBody)
			if apiErr.Code != tc.wantCode {
				t.Fatalf("%s %s: error code %q, want %q (message %q)", method, path, apiErr.Code, tc.wantCode, apiErr.Message)
			}
			if strings.TrimSpace(apiErr.Message) == "" {
				t.Fatalf("%s %s: empty error message", method, path)
			}
			if !strings.Contains(apiErr.Message, tc.wantField) {
				t.Fatalf("%s %s: error message %q does not name %q", method, path, apiErr.Message, tc.wantField)
			}
		})
	}
}

// TestWorkersBound pins both edges of the workers bound: -1 (all CPUs)
// and maxWorkers normalize, and one step past either edge is rejected
// with an error naming the field.
func TestWorkersBound(t *testing.T) {
	for _, w := range []int{-1, maxWorkers} {
		if _, err := (RunSpec{Workers: w}).normalize(); err != nil {
			t.Errorf("workers %d rejected: %v", w, err)
		}
	}
	for _, w := range []int{-2, maxWorkers + 1} {
		_, err := (RunSpec{Workers: w}).normalize()
		if err == nil || !strings.Contains(err.Error(), "workers") {
			t.Errorf("workers %d: error %v, want one naming workers", w, err)
		}
	}
}
