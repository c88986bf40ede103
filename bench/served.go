package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/rng"
	"github.com/green-dc/baat/internal/serve"
	"github.com/green-dc/baat/internal/sim"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/workload"
)

// servedWorkload drives an in-process `baatsim serve` daemon over loopback
// HTTP with a closed loop of clients: each client sends its next request
// only when the previous reply has arrived. Every run checkpoints every day
// (the service default), so checkpoint encoding, JSON/HTTP and the fixed
// per-tick cost of a six-node prototype fleet dominate.
type servedWorkload struct {
	nodes   int
	days    int
	forkDay int
	clients int
	// minIters is how many iterations run however short --seconds is; the
	// digest covers their results.
	minIters int
}

var served = servedWorkload{nodes: 6, days: 60, forkDay: 30, clients: 2, minIters: 2}

// servedPolicies are cycled through by iteration number.
var servedPolicies = []string{"baat", "baat-f", "baat-h", "baat-s"}

// spec is the POST /runs body of iteration k.
func (w servedWorkload) spec(k int, seed int64) map[string]any {
	return map[string]any{
		"nodes": w.nodes, "days": w.days, "seed": w.runSeed(k, seed),
		"faults": "chaos", "accel": 10, "policy": servedPolicies[k%len(servedPolicies)],
	}
}

// runSeed derives iteration k's simulation seed from the workload seed.
func (servedWorkload) runSeed(k int, seed int64) int64 { return 1000*seed + int64(k) + 1 }

// nodeStepsPerDay is one hosted day of the service's one-minute ticks.
func (w servedWorkload) nodeStepsPerDay() int { return w.nodes * 24 * 60 }

// client is one closed-loop client; all clients share the counters.
type client struct {
	w    servedWorkload
	base string
	http *http.Client
	tr   *tracer
	st   *servedStats
}

// servedStats collects what the clients observe.
type servedStats struct {
	mu      sync.Mutex
	latency map[string][]float64 // route -> seconds
	errors  int
	// dayS holds, per hosted run (a run or a fork), the seconds per day from
	// the start or resume request to the "done" event. The stream batches
	// day events, so gaps between them say little.
	dayS []float64
	// rates holds, per iteration, the node-steps hosted per second and
	// when the iteration ended.
	rates     []rate
	hosted    int       // days hosted in all
	setup     []float64 // seconds per set-up repeat
	ckBytes   []float64
	attempted int
	problems  []string
	results   map[int][][]byte // digest iterations' result documents
}

type rate struct {
	perSecond float64
	end       time.Time
}

func (st *servedStats) fail(format string, args ...any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.problems = append(st.problems, fmt.Sprintf(format, args...))
}

// call makes one control-plane request and checks its status.
func (c *client) call(route, method, path string, body any, want int, parent int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	c.tr.record("serve."+route, parent, start, end)
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	c.st.attempted++
	c.st.latency[route] = append(c.st.latency[route], end.Sub(start).Seconds())
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if err != nil {
		c.st.errors++
		return nil, err
	}
	return data, nil
}

// follow opens run id's event stream, reads the replayed history (replayed
// days), sends the action that sets the run going, and reads live days until
// the terminal event. It returns the "done" event's result document.
func (c *client) follow(id, action string, replayed, live, parent int) ([]byte, error) {
	resp, err := c.http.Get(c.base + "/runs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.st.mu.Lock()
	c.st.attempted++
	c.st.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	next := func() (string, []byte, error) {
		var name string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				return name, []byte(strings.TrimPrefix(line, "data: ")), nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", nil, err
		}
		return "", nil, io.ErrUnexpectedEOF
	}
	for n := 0; ; {
		name, _, err := next()
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", id, err)
		}
		if name == "state" {
			if n != replayed {
				return nil, fmt.Errorf("stream %s: replayed %d days, want %d", id, n, replayed)
			}
			break
		}
		n++
	}
	sent := time.Now()
	if _, err := c.call(action, http.MethodPost, "/runs/"+id+"/"+action, nil, http.StatusOK, parent); err != nil {
		return nil, err
	}
	for days := 0; ; {
		name, data, err := next()
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", id, err)
		}
		switch name {
		case "day":
			days++
		case "error":
			return nil, fmt.Errorf("stream %s: run failed: %s", id, data)
		case "done":
			if days != live {
				return nil, fmt.Errorf("stream %s: %d live days, want %d", id, days, live)
			}
			c.st.mu.Lock()
			c.st.dayS = append(c.st.dayS, time.Since(sent).Seconds()/float64(days))
			c.st.hosted += days
			c.st.mu.Unlock()
			return data, nil
		}
	}
}

// iterate runs one closed-loop iteration: a run to its horizon, a fork from
// its midpoint under e-Buff, and both deleted.
func (c *client) iterate(k int, seed int64) error {
	w := c.w
	iterStart := time.Now()
	iter := c.tr.record("serve.iteration", -1, iterStart, iterStart)
	defer func() { c.tr.finish(iter, time.Now()) }()

	var info struct {
		ID string `json:"id"`
	}
	body, err := c.call("create", http.MethodPost, "/runs", w.spec(k, seed), http.StatusCreated, iter)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return err
	}
	id := info.ID
	done, err := c.follow(id, "start", 0, w.days, iter)
	if err != nil {
		return err
	}
	res, err := c.call("result", http.MethodGet, "/runs/"+id+"/result", nil, http.StatusOK, iter)
	if err != nil {
		return err
	}
	c.check(bytes.Equal(bytes.TrimSpace(res), done), "run %s: result differs from its done event", id)
	ck, err := c.call("checkpoint", http.MethodGet, fmt.Sprintf("/runs/%s/checkpoint?day=%d", id, w.forkDay), nil, http.StatusOK, iter)
	if err != nil {
		return err
	}
	body, err = c.call("fork", http.MethodPost, fmt.Sprintf("/runs/%s/fork?day=%d", id, w.forkDay), nil, http.StatusCreated, iter)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return err
	}
	child := info.ID
	if _, err := c.call("mutate", http.MethodPost, "/runs/"+child+"/mutate", map[string]string{"policy": "ebuff"}, http.StatusOK, iter); err != nil {
		return err
	}
	if _, err := c.follow(child, "resume", w.forkDay, w.days-w.forkDay, iter); err != nil {
		return err
	}
	childRes, err := c.call("result", http.MethodGet, "/runs/"+child+"/result", nil, http.StatusOK, iter)
	if err != nil {
		return err
	}
	var pr, fr serve.RunResult
	if err := json.Unmarshal(res, &pr); err != nil {
		return err
	}
	if err := json.Unmarshal(childRes, &fr); err != nil {
		return err
	}
	a, _ := json.Marshal(pr.Days[:w.forkDay])
	b, _ := json.Marshal(fr.Days[:min(w.forkDay, len(fr.Days))])
	c.check(bytes.Equal(a, b), "fork %s of %s: first %d days differ from the parent's", child, id, w.forkDay)
	for _, run := range []string{id, child} {
		if _, err := c.call("delete", http.MethodDelete, "/runs/"+run, nil, http.StatusNoContent, iter); err != nil {
			return err
		}
	}

	hosted := (2*w.days - w.forkDay) * w.nodeStepsPerDay()
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	end := time.Now()
	c.st.rates = append(c.st.rates, rate{float64(hosted) / end.Sub(iterStart).Seconds(), end})
	c.st.ckBytes = append(c.st.ckBytes, float64(len(ck)))
	if k < w.minIters {
		c.st.results[k] = [][]byte{res, childRes}
	}
	return nil
}

// check counts one correctness check.
func (c *client) check(ok bool, format string, args ...any) {
	c.st.mu.Lock()
	c.st.attempted++
	c.st.mu.Unlock()
	if !ok {
		c.st.fail(format, args...)
	}
}

// startServer starts a daemon on a loopback port, checks its health and
// creates one run on it, then deletes that run: the set-up a user waits for
// before the service can host work.
func startServer(w servedWorkload, seed int64, hc *http.Client) (*serve.Server, string, error) {
	srv := serve.NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	base := "http://" + addr
	do := func(method, path string, body []byte, want int) ([]byte, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != want {
			err = fmt.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
		return data, err
	}
	var info struct {
		ID string `json:"id"`
	}
	spec, err := json.Marshal(w.spec(0, seed))
	if err == nil {
		_, err = do(http.MethodGet, "/healthz", nil, http.StatusOK)
	}
	var created []byte
	if err == nil {
		created, err = do(http.MethodPost, "/runs", spec, http.StatusCreated)
	}
	if err == nil {
		err = json.Unmarshal(created, &info)
	}
	if err == nil {
		_, err = do(http.MethodDelete, "/runs/"+info.ID, nil, http.StatusNoContent)
	}
	if err != nil {
		srv.Close()
		return nil, "", fmt.Errorf("start server: %w", err)
	}
	return srv, base, nil
}

// runServed runs the served workload and measures it.
func runServed(w servedWorkload, p runParams) (*result, error) {
	var tr *tracer
	if p.trace {
		if tr = p.tracer; tr == nil {
			tr = newTracer(p.workload)
		}
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * w.clients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: time.Minute}

	r := &result{Workload: p.workload, EndToEnd: map[string]float64{}}
	srv, base, err := startServer(w, p.seed, hc)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	st := &servedStats{latency: map[string][]float64{}, results: map[int][][]byte{}}
	// setupRep starts a throw-away daemon on its own connections, as a user
	// would, and times it. A client runs one after each iteration, while the
	// other client's run keeps one CPU busy.
	setupRep := func() error {
		t := &http.Transport{}
		defer t.CloseIdleConnections()
		start := time.Now()
		s, _, err := startServer(w, p.seed, &http.Client{Transport: t, Timeout: time.Minute})
		if err != nil {
			return err
		}
		d := time.Since(start)
		st.mu.Lock()
		st.setup = append(st.setup, d.Seconds())
		st.mu.Unlock()
		return s.Close()
	}
	var next atomic.Int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	var exitMu sync.Mutex
	var firstExit time.Time // when the loop stopped running at full load
	for range w.clients {
		c := &client{w: w, base: base, http: hc, tr: tr, st: st}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				exitMu.Lock()
				if firstExit.IsZero() {
					firstExit = time.Now()
				}
				exitMu.Unlock()
			}()
			for {
				k := int(next.Add(1) - 1)
				if k >= w.minIters && time.Since(start).Seconds() >= p.seconds {
					return
				}
				if err := c.iterate(k, p.seed); err != nil {
					st.fail("iteration %d: %v", k, err)
					return
				}
				if err := setupRep(); err != nil {
					st.fail("set-up after iteration %d: %v", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	for len(st.setup) < minSetupReps {
		if err := setupRep(); err != nil {
			return nil, err
		}
	}

	r.Attempted, r.Failed, r.Problems = st.attempted, len(st.problems), st.problems
	h := sha256.New()
	for k := 0; k < w.minIters; k++ {
		docs, ok := st.results[k]
		if !ok {
			r.fail("iteration %d did not complete", k)
			continue
		}
		var res serve.RunResult
		if err := json.Unmarshal(docs[0], &res); err != nil {
			return nil, err
		}
		r.SimWork += res.Throughput
		for i, n := range res.Nodes {
			if (k == 0 && i == 0) || n.Health < r.MinHealth {
				r.MinHealth = n.Health
			}
		}
		for _, d := range docs {
			h.Write(d)
		}
	}
	r.Digest = hex.EncodeToString(h.Sum(nil))
	if st.hosted == 0 {
		return r, nil
	}
	// The hosting rate is the fastest iteration's, times the clients; only
	// iterations that ended while every client was still running count.
	var best float64
	for _, rt := range st.rates {
		if !rt.end.After(firstExit) {
			best = max(best, rt.perSecond)
		}
	}
	r.EndToEnd["setup_s"] = median(st.setup)
	r.EndToEnd["node_steps_per_s"] = float64(w.clients) * best
	r.EndToEnd["day_s_min"] = slices.Min(st.dayS)
	r.EndToEnd["allocs_per_day"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(st.hosted)
	if !p.trace {
		return r, nil
	}

	// The in-process probe replays iteration 0's run up to the fork day,
	// traced, for the layers the daemon hides behind HTTP.
	probe, err := runSim(w.probe(p.seed), runParams{workload: p.workload, seed: w.runSeed(0, p.seed), trace: true, tracer: tr})
	if err != nil {
		return nil, err
	}
	r.Layers = probe.Layers
	r.Attempted += probe.Attempted
	r.Failed += probe.Failed
	r.Problems = append(r.Problems, probe.Problems...)
	var all []float64
	for _, route := range serveRoutes {
		r.Layers["serve."+route+"_s_p50"] = median(st.latency[route])
		all = append(all, st.latency[route]...)
	}
	r.Layers["serve.calls"] = float64(len(all))
	r.Layers["serve.errors"] = float64(st.errors)
	r.Layers["serve.control_s_p50"] = percentile(all, 0.5)
	r.Layers["serve.control_s_p95"] = percentile(all, 0.95)
	r.Layers["serve.checkpoint_bytes"] = median(st.ckBytes)
	return r, nil
}

// probe is iteration 0's run as an in-process sim workload: the engine
// configuration the service builds from that RunSpec, over the first
// forkDay days of its weather.
func (w servedWorkload) probe(seed int64) simWorkload {
	runSeed := w.runSeed(0, seed)
	stream := rng.New(runSeed, rng.CLIWeather)
	loc := solar.Location{SunshineFraction: 0.5}
	weather := make([]solar.Weather, w.forkDay)
	for i := range weather {
		weather[i] = loc.DrawWeather(stream.Rand)
	}
	return simWorkload{
		nodes:   w.nodes,
		workers: 1,
		config: func(n int, seed int64) sim.Config {
			cfg := sim.DefaultConfig()
			cfg.Policy = core.PolicySpec{Name: servedPolicies[0]}
			cfg.Nodes = n
			cfg.Seed = seed
			cfg.JobsPerDay = 2
			cfg.Solar.Scale = 1.5
			cfg.Node.AgingConfig.AccelFactor = 10
			cfg.Services = workload.PrototypeServices()
			cfg.Faults, _ = faults.Profile("chaos", 0)
			return cfg
		},
		cycle:    weather,
		minTimed: w.forkDay,
	}
}
