package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/rng"
	"github.com/green-dc/baat/internal/sim"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
)

// State is a run's lifecycle phase. The machine:
//
//	created ──start/step──▶ running ──pause/target──▶ paused
//	                          │  ▲                      │
//	                          │  └──────resume/step─────┘
//	                          ├── horizon reached ──▶ done
//	                          └── engine error ─────▶ failed
//
// Delete and server shutdown stop a run in any state.
type State string

// The lifecycle states.
const (
	StateCreated State = "created"
	StateRunning State = "running"
	StatePaused  State = "paused"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Error is a structured API failure: an HTTP status, a stable machine-
// readable code, and a human message. Every handler failure marshals as
//
//	{"error": {"code": "...", "message": "..."}}
//
// so clients switch on Code, not on message prose.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Message }

// The error codes of the API contract (docs/SERVICE.md).
const (
	CodeBadRequest   = "bad_request"
	CodeRunNotFound  = "run_not_found"
	CodeConflict     = "conflict"
	CodeNoCheckpoint = "no_checkpoint"
	CodeInternal     = "internal"
)

// errf builds a structured API error.
func errf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// checkpointRecord pins one day-boundary envelope together with the spec
// and weather sequence that were in force when it was written. Forking
// rebuilds a simulator from the record's spec — not the parent's *current*
// spec, which later mutations may have moved — so the envelope's config
// hash always matches.
type checkpointRecord struct {
	data    []byte
	spec    RunSpec
	weather []solar.Weather
}

// finalSummary is the end-of-run fleet summary, computed once by the run
// goroutine when the horizon completes (it requires simulator access, which
// only that goroutine has).
type finalSummary struct {
	nodes         []sim.NodeSummary
	fleetLifetime time.Duration
	socCounts     []int64
	socTotal      int64
}

// Run is one hosted simulation: a Simulator owned by a single goroutine
// (the loop), a lifecycle state machine driven through the control plane,
// an in-memory checkpoint series, and a subscriber set for SSE streaming.
//
// Ownership discipline: only the loop goroutine touches the Simulator.
// Handlers read and write the bookkeeping fields under mu and communicate
// simulator work to the loop as queued closures (mutations) or state
// transitions (start/pause/step targets); the loop applies both between
// days, where the engine contract allows them.
type Run struct {
	// Immutable after construction.
	id         string
	forkedFrom string
	forkDay    int
	rec        *telemetry.Recorder
	telemetry  http.Handler

	mu   sync.Mutex
	cond *sync.Cond
	// spec is the live scenario; mutations rewrite its fields (always
	// replacing pointer fields, never writing through them, so checkpoint
	// records that copied the struct stay frozen). weather follows the same
	// rule: it is replaced, never written into, because checkpoint records
	// share it.
	spec    RunSpec
	s       *sim.Simulator
	weather []solar.Weather
	state   State
	// day counts completed days; target is where the loop stops (the
	// horizon after start/resume, an earlier day after step).
	day     int
	target  int
	runErr  error
	stopReq bool
	// pending holds mutation closures the loop applies before the next
	// day; reweather counts sunshine mutations to derive each redraw's
	// rng stream name.
	pending   []func(*sim.Simulator) error
	reweather int

	checkpoints map[int]checkpointRecord
	days        []sim.DayStats
	final       *finalSummary

	subs     map[chan struct{}]struct{}
	loopDone chan struct{}
}

// newRun builds a run from a normalized spec and starts its loop goroutine
// (idle until a start/step transition).
func newRun(id string, sp RunSpec) (*Run, error) {
	rec := telemetry.NewRecorder()
	s, err := buildSim(sp, rec)
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "invalid run spec: %v", err)
	}
	r := &Run{
		id:          id,
		rec:         rec,
		telemetry:   rec.Handler(),
		spec:        sp,
		s:           s,
		weather:     sp.WeatherSequence(),
		state:       StateCreated,
		checkpoints: make(map[int]checkpointRecord),
		subs:        make(map[chan struct{}]struct{}),
		loopDone:    make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	go r.loop()
	return r, nil
}

// newForkedRun builds a run resumed from a parent's checkpoint record. The
// child re-serializes its restored state as its own day-N checkpoint —
// which the fork test requires to be byte-identical to the parent's
// envelope, proving the restore lost nothing.
func newForkedRun(id, parentID string, day int, ck checkpointRecord) (*Run, error) {
	rec := telemetry.NewRecorder()
	s, err := buildSim(ck.spec, rec)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, CodeInternal, "fork: rebuild simulator: %v", err)
	}
	if err := s.ResumeFrom(bytes.NewReader(ck.data)); err != nil {
		return nil, errf(http.StatusInternalServerError, CodeInternal, "fork: %v", err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		return nil, errf(http.StatusInternalServerError, CodeInternal, "fork: %v", err)
	}
	r := &Run{
		id:          id,
		forkedFrom:  parentID,
		forkDay:     day,
		rec:         rec,
		telemetry:   rec.Handler(),
		spec:        ck.spec,
		s:           s,
		weather:     ck.weather,
		state:       StatePaused,
		day:         day,
		target:      day,
		checkpoints: make(map[int]checkpointRecord),
		days:        s.History(),
		subs:        make(map[chan struct{}]struct{}),
		loopDone:    make(chan struct{}),
	}
	r.checkpoints[day] = checkpointRecord{
		data:    append([]byte(nil), buf.Bytes()...),
		spec:    ck.spec,
		weather: ck.weather,
	}
	r.cond = sync.NewCond(&r.mu)
	go r.loop()
	return r, nil
}

// loop is the run goroutine: it owns the Simulator from birth to deletion.
// It sleeps whenever the run is not meant to advance, applies queued
// mutations and steps one day at a time while running, checkpoints on the
// configured cadence, and folds every outcome back into the bookkeeping
// fields under mu.
func (r *Run) loop() {
	defer close(r.loopDone)
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		for !r.stopReq && r.state != StateRunning {
			r.cond.Wait()
		}
		if r.stopReq {
			r.notifyLocked()
			return
		}
		horizon := len(r.weather)
		if r.day >= horizon {
			r.finishLocked()
			continue
		}
		if r.day >= min(r.target, horizon) {
			r.setStateLocked(StatePaused)
			continue
		}
		muts := r.pending
		r.pending = nil
		w := r.weather[r.day]
		s := r.s
		every := r.spec.CheckpointEvery
		r.mu.Unlock()

		// Simulator work happens outside the lock: the loop owns the
		// engine, and handlers must stay responsive during a day's physics.
		var ds sim.DayStats
		var ck []byte
		var err error
		for _, m := range muts {
			if err = m(s); err != nil {
				break
			}
		}
		if err == nil {
			ds, err = s.RunDay(w)
		}
		if err == nil && every > 0 && s.Day()%every == 0 {
			var buf bytes.Buffer
			if cerr := s.Checkpoint(&buf); cerr != nil {
				err = cerr
			} else {
				ck = append([]byte(nil), buf.Bytes()...)
			}
		}

		r.mu.Lock()
		if err != nil {
			r.runErr = err
			r.setStateLocked(StateFailed)
			continue
		}
		r.day++
		r.days = append(r.days, ds)
		if ck != nil {
			r.checkpoints[r.day] = checkpointRecord{
				data:    ck,
				spec:    r.spec,
				weather: r.weather,
			}
		}
		switch {
		case r.day >= len(r.weather):
			r.finishLocked()
		case r.day >= min(r.target, len(r.weather)) && r.state == StateRunning:
			r.setStateLocked(StatePaused)
		default:
			r.notifyLocked()
		}
	}
}

// finishLocked computes the end-of-run summary and moves to done. Called
// only by the loop (simulator access) with mu held.
func (r *Run) finishLocked() {
	if r.final == nil {
		// Run with no weather steps nothing; it only assembles the final
		// fleet summary from the simulator's current state.
		res, err := r.s.Run(nil)
		if err != nil {
			r.runErr = err
			r.setStateLocked(StateFailed)
			return
		}
		r.final = &finalSummary{
			nodes:         res.Nodes,
			fleetLifetime: res.FleetLifetime,
			socCounts:     res.SoCHistogram.Counts(),
			socTotal:      res.SoCHistogram.Total(),
		}
	}
	r.setStateLocked(StateDone)
}

// setStateLocked transitions the lifecycle state and wakes waiters and
// subscribers. mu must be held.
func (r *Run) setStateLocked(st State) {
	r.state = st
	r.notifyLocked()
}

// notifyLocked wakes the loop (cond) and nudges every SSE subscriber with
// a coalescing, never-blocking send. mu must be held.
func (r *Run) notifyLocked() {
	r.cond.Broadcast()
	for ch := range r.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// start moves a created or paused run toward the full horizon.
func (r *Run) start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case StateCreated, StatePaused:
		r.target = len(r.weather)
		r.setStateLocked(StateRunning)
		return nil
	case StateRunning:
		return errf(http.StatusConflict, CodeConflict, "run %s is already running", r.id)
	default:
		return errf(http.StatusConflict, CodeConflict, "run %s is %s and cannot start", r.id, r.state)
	}
}

// pause stops a running run at the next day boundary. Pausing a paused run
// is a no-op; pausing a run that never started (or already ended) is a
// conflict.
func (r *Run) pause() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case StateRunning, StatePaused:
		r.setStateLocked(StatePaused)
		return nil
	case StateCreated:
		return errf(http.StatusConflict, CodeConflict, "run %s has not started; POST /runs/%s/start first", r.id, r.id)
	default:
		return errf(http.StatusConflict, CodeConflict, "run %s is %s and cannot pause", r.id, r.state)
	}
}

// resume continues a paused run toward the full horizon. Resuming a
// running run is a no-op.
func (r *Run) resume() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case StatePaused, StateRunning:
		r.target = len(r.weather)
		r.setStateLocked(StateRunning)
		return nil
	case StateCreated:
		return errf(http.StatusConflict, CodeConflict, "run %s has not started; POST /runs/%s/start first", r.id, r.id)
	default:
		return errf(http.StatusConflict, CodeConflict, "run %s is %s and cannot resume", r.id, r.state)
	}
}

// stepTo runs a created or paused run up to (and including) the given day,
// then pauses.
func (r *Run) stepTo(day int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case StateCreated, StatePaused:
	case StateRunning:
		return errf(http.StatusConflict, CodeConflict, "run %s is already running; pause it before stepping", r.id)
	default:
		return errf(http.StatusConflict, CodeConflict, "run %s is %s and cannot step", r.id, r.state)
	}
	if day <= r.day {
		return errf(http.StatusBadRequest, CodeBadRequest, "run %s has already completed day %d; step target %d must be later", r.id, r.day, day)
	}
	if day > len(r.weather) {
		return errf(http.StatusBadRequest, CodeBadRequest, "step target %d is beyond the %d-day horizon", day, len(r.weather))
	}
	r.target = day
	r.setStateLocked(StateRunning)
	return nil
}

// mutate rewrites scenario knobs mid-flight. All requested changes are
// validated before any is applied, so a bad field leaves the run
// untouched. Changes that match the current spec are reported as no-ops
// and — by contract — have no effect whatsoever on the run's output.
func (r *Run) mutate(m Mutation) (applied, noops []string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StateDone || r.state == StateFailed {
		return nil, nil, errf(http.StatusConflict, CodeConflict, "run %s is %s and cannot mutate", r.id, r.state)
	}
	if m.Policy == "" && m.PolicyOptions == nil && m.Sunshine == nil && m.Faults == nil {
		return nil, nil, errf(http.StatusBadRequest, CodeBadRequest, "mutation names no knobs (policy, policy_options, sunshine, faults)")
	}

	// Validate everything first.
	var commit []func()
	if m.Policy != "" || m.PolicyOptions != nil {
		// Omitting the name retunes the current policy's options; an empty
		// options map resets the (possibly new) policy to its defaults.
		name := m.Policy
		if name == "" {
			name = r.spec.Policy
		}
		norm, perr := core.Normalize(core.PolicySpec{Name: name, Options: m.PolicyOptions})
		if perr != nil {
			return nil, nil, errf(http.StatusBadRequest, CodeBadRequest, "%v", perr)
		}
		if _, perr := core.Build(norm); perr != nil {
			return nil, nil, errf(http.StatusBadRequest, CodeBadRequest, "%v", perr)
		}
		if norm.Equal(r.spec.policySpec()) {
			noops = append(noops, "policy")
		} else {
			commit = append(commit, func() {
				r.spec.Policy = norm.Name
				r.spec.PolicyOptions = norm.Options
				// The engine re-validates the spec before touching the
				// running policy, so a race with registry state cannot
				// strand the run with a half-swapped scheme.
				r.pending = append(r.pending, func(s *sim.Simulator) error { return s.SetPolicy(norm) })
			})
			applied = append(applied, "policy")
		}
	}
	if m.Sunshine != nil {
		if r.spec.Weather != "mix" {
			return nil, nil, errf(http.StatusBadRequest, CodeBadRequest, "sunshine applies only to mix-weather runs (this run is %q)", r.spec.Weather)
		}
		v := *m.Sunshine
		if v == *r.spec.Sunshine {
			noops = append(noops, "sunshine")
		} else {
			loc := solar.Location{SunshineFraction: v}
			if lerr := loc.Validate(); lerr != nil {
				return nil, nil, errf(http.StatusBadRequest, CodeBadRequest, "%v", lerr)
			}
			commit = append(commit, func() {
				// Redraw the not-yet-started suffix from this mutation's own
				// named stream: deterministic given (seed, mutation count),
				// and the day currently in flight keeps the sky it started
				// under.
				r.reweather++
				stream := rng.New(r.spec.Seed, rng.ServeReweather(r.reweather))
				from := r.day
				if r.state == StateRunning {
					from++
				}
				weather := slices.Clone(r.weather)
				for i := from; i < len(weather); i++ {
					weather[i] = loc.DrawWeather(stream.Rand)
				}
				r.weather = weather
				r.spec.Sunshine = ptr(v)
			})
			applied = append(applied, "sunshine")
		}
	}
	if m.Faults != nil {
		name := strings.ToLower(strings.TrimSpace(*m.Faults))
		fcfg, ferr := faults.Profile(name, 0)
		if ferr != nil {
			return nil, nil, errf(http.StatusBadRequest, CodeBadRequest, "%v", ferr)
		}
		if name == r.spec.Faults {
			noops = append(noops, "faults")
		} else {
			commit = append(commit, func() {
				r.spec.Faults = name
				r.pending = append(r.pending, func(s *sim.Simulator) error { return s.SetFaults(fcfg) })
			})
			applied = append(applied, "faults")
		}
	}

	for _, c := range commit {
		c()
	}
	if len(applied) > 0 {
		r.notifyLocked()
	}
	return applied, noops, nil
}

// forkRecord returns the checkpoint record at the given day, for building
// a forked child.
func (r *Run) forkRecord(day int) (checkpointRecord, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ck, ok := r.checkpoints[day]
	if !ok {
		return checkpointRecord{}, errf(http.StatusConflict, CodeNoCheckpoint,
			"run %s holds no checkpoint at day %d (completed %d days, checkpoint cadence %d)",
			r.id, day, r.day, r.spec.CheckpointEvery)
	}
	return ck, nil
}

// checkpointBytes returns the serialized envelope stored at the given day.
func (r *Run) checkpointBytes(day int) ([]byte, error) {
	ck, err := r.forkRecord(day)
	if err != nil {
		return nil, err
	}
	return ck.data, nil
}

// stop asks the loop to exit and waits for it. Safe to call more than
// once; after stop returns, the run's goroutine is gone and its SSE
// subscribers have been woken for their final drain.
func (r *Run) stop() {
	r.mu.Lock()
	r.stopReq = true
	r.cond.Broadcast()
	r.mu.Unlock()
	<-r.loopDone
}

// subscribe registers an SSE wake channel. The returned cancel must be
// called when the subscriber leaves.
func (r *Run) subscribe() (ch chan struct{}, cancel func()) {
	ch = make(chan struct{}, 1)
	r.mu.Lock()
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	return ch, func() {
		r.mu.Lock()
		delete(r.subs, ch)
		r.mu.Unlock()
	}
}

// RunInfo is the status document of one run.
type RunInfo struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  State  `json:"state"`
	Day    int    `json:"day"`
	Days   int    `json:"days"`
	Policy string `json:"policy"`
	// PolicyOptions is present only when the run's policy carries non-default
	// option knobs, so existing status documents stay byte-identical.
	PolicyOptions map[string]string `json:"policy_options,omitempty"`
	Weather       string            `json:"weather"`
	Sunshine      float64           `json:"sunshine"`
	Faults        string            `json:"faults"`
	BatteryModel  string            `json:"battery_model"`
	Seed          int64             `json:"seed"`
	Nodes         int               `json:"nodes"`
	Workers       int               `json:"workers,omitempty"`
	ForkedFrom    string            `json:"forked_from,omitempty"`
	ForkDay       int               `json:"fork_day,omitempty"`
	Checkpoints   []int             `json:"checkpoints,omitempty"`
	Error         string            `json:"error,omitempty"`
}

// info snapshots the run's status.
func (r *Run) info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	inf := RunInfo{
		ID:            r.id,
		Name:          r.spec.Name,
		State:         r.state,
		Day:           r.day,
		Days:          len(r.weather),
		Policy:        r.spec.Policy,
		PolicyOptions: r.spec.PolicyOptions,
		Weather:       r.spec.Weather,
		Sunshine:      *r.spec.Sunshine,
		Faults:        r.spec.Faults,
		BatteryModel:  r.spec.BatteryModel,
		Seed:          r.spec.Seed,
		Nodes:         r.spec.Nodes,
		Workers:       r.spec.Workers,
		ForkedFrom:    r.forkedFrom,
		ForkDay:       r.forkDay,
	}
	if len(r.checkpoints) > 0 {
		inf.Checkpoints = make([]int, 0, len(r.checkpoints))
		for d := range r.checkpoints {
			inf.Checkpoints = append(inf.Checkpoints, d)
		}
		slices.Sort(inf.Checkpoints)
	}
	if r.runErr != nil {
		inf.Error = r.runErr.Error()
	}
	return inf
}

// RunResult is the (possibly partial) outcome document of one run. It
// deliberately carries no run ID: two runs with identical specs and
// identical histories marshal byte-identically, which is what the
// pause/resume- and fork-equivalence tests compare.
type RunResult struct {
	Policy          string            `json:"policy"`
	Done            bool              `json:"done"`
	Days            []sim.DayStats    `json:"days"`
	Throughput      float64           `json:"throughput"`
	FleetLifetimeNS int64             `json:"fleet_lifetime_ns,omitempty"`
	Nodes           []sim.NodeSummary `json:"nodes,omitempty"`
	SoCCounts       []int64           `json:"soc_counts,omitempty"`
	SoCTotal        int64             `json:"soc_total,omitempty"`
	Error           string            `json:"error,omitempty"`
}

// result snapshots the run's outcome so far: per-day stats always, the
// fleet summary once done.
func (r *Run) result() RunResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := RunResult{
		Policy: r.spec.Policy,
		Done:   r.state == StateDone,
		Days:   slices.Clone(r.days),
	}
	for _, d := range r.days {
		res.Throughput += d.Throughput
	}
	if r.final != nil {
		res.Nodes = slices.Clone(r.final.nodes)
		res.FleetLifetimeNS = int64(r.final.fleetLifetime)
		res.SoCCounts = slices.Clone(r.final.socCounts)
		res.SoCTotal = r.final.socTotal
	}
	if r.runErr != nil {
		res.Error = r.runErr.Error()
	}
	return res
}

// streamState is one SSE drain snapshot: the day stats the subscriber has
// not yet seen, the current lifecycle state, and the terminal error if any.
type streamState struct {
	days   []sim.DayStats
	state  State
	day    int
	errMsg string
}

// streamSnapshot copies everything an SSE subscriber needs past its
// high-water mark.
func (r *Run) streamSnapshot(sent int) streamState {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss := streamState{state: r.state, day: r.day}
	if sent < len(r.days) {
		ss.days = slices.Clone(r.days[sent:])
	}
	if r.runErr != nil {
		ss.errMsg = r.runErr.Error()
	}
	return ss
}
