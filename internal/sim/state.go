package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/fleet"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/signal"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

// CheckpointFormat versions the checkpoint envelope. It bumps whenever the
// serialized State shape changes incompatibly; ResumeFrom rejects any other
// version explicitly rather than guessing. Format 2 added the solar
// forecaster state and the policy's own controller state (StatefulPolicy);
// format 3 replaced each node's power-table history with its last reading;
// format 4 dropped state nothing reads: that last reading, the node tick
// counters, server uptime, VM pause and migration counters, the
// forecaster's day count and the metric series; format 5 reduced the SoC
// histogram to its seven counts and dropped state a rebuilt simulator
// already has: the manufacturing stream, which nothing draws after New,
// and the degraded-mode flags, which equal each restored node's
// MetricsSuspect(); format 6 dropped the aging tracker's two
// discharge-rate sums, which repeated its discharge Ah and its band-D Ah.
const CheckpointFormat = 6

// State is the serializable state of a Simulator: the full state of every
// node, the pending job queue, the position of every RNG stream drawn
// after construction, the fault injector's bookkeeping, and the engine's
// own clock and accounting. The Config is construction-time input; a
// snapshot restores only onto a simulator built from an equivalent Config
// (enforced by the checkpoint envelope's config hash), which already has
// everything New derived from it.
type State struct {
	own

	Nodes   []node.State `json:"nodes"`
	Pending []vm.State   `json:"pending"`

	WxRNG     []byte                  `json:"wx_rng"`
	PolicyRNG []byte                  `json:"policy_rng"`
	Generator workload.GeneratorState `json:"generator"`

	// Forecast is the solar forecaster feeding the policy signal plane: its
	// climatology, persistence anchor, noise batch, and rng substream all
	// round-trip so a resumed run forecasts exactly what the original would
	// have.
	Forecast signal.ForecasterState `json:"forecast"`
	// PolicyState is the controller's own serialized state when the active
	// policy implements core.StatefulPolicy (e.g. BAAT's DoD-goal
	// hysteresis, BAAT-f's forecast latch); absent for stateless policies.
	// Restore rejects a mismatch in either direction rather than resuming
	// with silently reset controller state.
	PolicyState []byte `json:"policy_state,omitempty"`

	Faults *faults.InjectorState `json:"faults,omitempty"`

	// SoCHist holds the seven Fig 19 bin counts. It is a slice, not a
	// fleet.SoCBins, so that Restore can reject a length other than seven:
	// decoding into an array would drop extra elements silently.
	SoCHist []int64 `json:"soc_hist"`

	// History carries the per-day stats of every completed day, so a
	// resumed run can report the whole horizon. Its length must equal Day:
	// exactly one entry per completed day.
	History []DayStats `json:"history,omitempty"`
}

// own is the part of State a Simulator holds live: its clock, completed
// days, VM counter, whether the services are placed, and when the first
// battery reached end of life.
type own struct {
	Clock     time.Duration `json:"clock"`
	Day       int           `json:"day"`
	VMCounter int           `json:"vm_counter"`
	PlacedSvc bool          `json:"placed_svc"`
	EOLAt     time.Duration `json:"eol_at"`
}

// envelope wraps a State with the format version and the hash of the
// configuration that produced it, so a checkpoint can never silently
// restore into a simulator built from a different world.
type envelope struct {
	Format     int    `json:"format"`
	ConfigHash string `json:"config_hash"`
	State      State  `json:"state"`
}

// ConfigHash returns the hex SHA-256 of the simulator's configuration in
// canonical JSON form, excluding the fields that must not pin a resume:
// Workers, ShardSize, and ParallelThreshold (performance knobs that never
// change results, so resume must not depend on them), telemetry handles
// (observation, not state), and BatteryOptions (opaque functions whose
// observable effect — per-pack capacity/resistance scales — serializes
// inside each node's battery state instead).
func (s *Simulator) ConfigHash() (string, error) {
	c := s.cfg
	c.Workers = 0
	// ShardSize and ParallelThreshold are performance knobs with the same
	// contract as Workers: they never change results, so a checkpoint must
	// restore into any of them (their zero values also marshal away via
	// omitempty, keeping hashes from before the knobs existed valid).
	c.ShardSize = 0
	c.ParallelThreshold = 0
	c.Telemetry = nil
	c.Node.Telemetry = nil
	c.Node.BatteryOptions = nil
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("sim: hash config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Snapshot captures the simulator's full state. It must not be called
// concurrently with Run/RunDay (the engine is single-threaded between
// ticks, so day boundaries are natural checkpoint sites). It can fail only
// when the active policy's own Snapshot does (core.StatefulPolicy).
func (s *Simulator) Snapshot() (State, error) {
	st := State{
		own:       s.st,
		Generator: s.gen.Snapshot(),
		SoCHist:   s.socBins.Counts(),
	}
	st.WxRNG, _ = s.wxRng.MarshalBinary() // never fails for PCG sources
	st.PolicyRNG, _ = s.policyRng.MarshalBinary()
	fst, err := s.forecast.Snapshot()
	if err != nil {
		return State{}, fmt.Errorf("sim: snapshot: forecaster: %w", err)
	}
	st.Forecast = fst
	if sp, ok := s.policy.(core.StatefulPolicy); ok {
		blob, err := sp.Snapshot()
		if err != nil {
			return State{}, fmt.Errorf("sim: snapshot: policy %s: %w", s.policy.Name(), err)
		}
		st.PolicyState = blob
	}
	for _, n := range s.nodes {
		st.Nodes = append(st.Nodes, n.Snapshot())
	}
	for _, v := range s.pending {
		st.Pending = append(st.Pending, v.Snapshot())
	}
	if s.inj != nil {
		ist := s.inj.Snapshot()
		st.Faults = &ist
	}
	if len(s.history) > 0 {
		st.History = append([]DayStats(nil), s.history...)
	}
	return st, nil
}

// Restore overwrites the simulator's state from a snapshot taken from a
// simulator built with an equivalent Config, under a controller freshly
// built from the policy spec. Validation is front-loaded, but the layers
// commit one by one, so a failure partway through can leave earlier layers
// (e.g. the first nodes) restored. ResumeFrom rolls such a failure back.
func (s *Simulator) Restore(st State) error {
	if st.Clock < 0 || st.EOLAt < 0 {
		return fmt.Errorf("sim: restore: negative clock (%v) or EOL time (%v)", st.Clock, st.EOLAt)
	}
	if st.Day < 0 || st.VMCounter < 0 {
		return fmt.Errorf("sim: restore: negative day (%d) or VM counter (%d)", st.Day, st.VMCounter)
	}
	if len(st.Nodes) != len(s.nodes) {
		return fmt.Errorf("sim: restore: snapshot has %d nodes, fleet has %d", len(st.Nodes), len(s.nodes))
	}
	if (st.Faults != nil) != (s.inj != nil) {
		return fmt.Errorf("sim: restore: snapshot and configuration disagree on fault injection")
	}
	if len(st.WxRNG) == 0 || len(st.PolicyRNG) == 0 {
		return fmt.Errorf("sim: restore: missing RNG stream state")
	}
	var bins fleet.SoCBins
	if len(st.SoCHist) != len(bins) {
		return fmt.Errorf("sim: restore: SoC histogram has %d bins, want %d", len(st.SoCHist), len(bins))
	}
	for i, c := range st.SoCHist {
		if c < 0 {
			return fmt.Errorf("sim: restore: negative SoC histogram count in bin %d", i)
		}
		bins[i] = c
	}
	if len(st.History) != st.Day {
		return fmt.Errorf("sim: restore: %d history entries for %d completed days", len(st.History), st.Day)
	}
	// The controller is rebuilt from the spec, as a resume into a new
	// simulator builds it, so whatever the running controller remembers
	// outside its checkpoint state (e-Buff's one fleet walk) starts over.
	// Controller state and policy statefulness must agree in both
	// directions: resuming a stateful policy without its state would
	// silently reset mid-run hysteresis, and a state blob for a stateless
	// policy means the snapshot came from a different controller.
	policy, err := core.Build(s.cfg.Policy)
	if err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	sp, stateful := policy.(core.StatefulPolicy)
	if stateful && len(st.PolicyState) == 0 {
		return fmt.Errorf("sim: restore: policy %s is stateful but the snapshot carries no policy state",
			policy.Name())
	}
	if !stateful && len(st.PolicyState) > 0 {
		return fmt.Errorf("sim: restore: snapshot carries policy state but policy %s is stateless",
			policy.Name())
	}
	if stateful {
		if err := sp.Restore(st.PolicyState); err != nil {
			return fmt.Errorf("sim: restore: policy %s: %w", policy.Name(), err)
		}
	}

	// Rebuild the pending queue first: vm.FromState validates each entry
	// without touching live state.
	pending := make([]*vm.VM, 0, len(st.Pending))
	for _, vst := range st.Pending {
		v, err := vm.FromState(vst)
		if err != nil {
			return fmt.Errorf("sim: restore: pending queue: %w", err)
		}
		pending = append(pending, v)
	}

	for i, n := range s.nodes {
		if err := n.Restore(st.Nodes[i]); err != nil {
			return fmt.Errorf("sim: restore: %w", err)
		}
	}
	if err := s.wxRng.UnmarshalBinary(st.WxRNG); err != nil {
		return fmt.Errorf("sim: restore: weather stream: %w", err)
	}
	if err := s.policyRng.UnmarshalBinary(st.PolicyRNG); err != nil {
		return fmt.Errorf("sim: restore: policy stream: %w", err)
	}
	if err := s.gen.Restore(st.Generator); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if err := s.forecast.Restore(st.Forecast); err != nil {
		return fmt.Errorf("sim: restore: forecaster: %w", err)
	}
	if s.inj != nil {
		if err := s.inj.Restore(*st.Faults); err != nil {
			return fmt.Errorf("sim: restore: %w", err)
		}
		for i, nd := range s.nodes {
			s.degraded[i] = nd.MetricsSuspect()
		}
	}

	s.policy = policy
	s.st = st.own
	s.socBins = bins
	s.pending = pending
	s.history = append(s.history[:0], st.History...)
	return nil
}

// Checkpoint writes the simulator's state to w as a versioned JSON
// envelope carrying the configuration hash. Call it between days (or
// before Run); the engine must not be mid-tick.
func (s *Simulator) Checkpoint(w io.Writer) error {
	hash, err := s.ConfigHash()
	if err != nil {
		return err
	}
	st, err := s.Snapshot()
	if err != nil {
		return err
	}
	env := envelope{Format: CheckpointFormat, ConfigHash: hash, State: st}
	if err := json.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	return nil
}

// ResumeFrom restores the simulator from a checkpoint previously written
// by Checkpoint. The receiver must be freshly built from a Config
// equivalent to the one that wrote the checkpoint (same hash; Workers and
// telemetry may differ). A format or configuration mismatch, or any
// corruption the layer validations catch, fails loudly and leaves the
// simulator in the state it had before the call.
func (s *Simulator) ResumeFrom(r io.Reader) error {
	var env envelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return fmt.Errorf("sim: resume: decode checkpoint: %w", err)
	}
	if env.Format != CheckpointFormat {
		return fmt.Errorf("sim: resume: checkpoint format %d, this build reads format %d",
			env.Format, CheckpointFormat)
	}
	hash, err := s.ConfigHash()
	if err != nil {
		return err
	}
	if env.ConfigHash != hash {
		return fmt.Errorf("sim: resume: checkpoint was written by a different configuration (hash %.12s, want %.12s)",
			env.ConfigHash, hash)
	}
	prior, err := s.Snapshot()
	if err != nil {
		return err
	}
	if err := s.Restore(env.State); err != nil {
		// The simulator's own snapshot is valid, so this cannot fail short
		// of a bug; report it with the cause if it does.
		return errors.Join(err, s.Restore(prior))
	}
	return nil
}

// RunWithCheckpoints is Run with a checkpoint emitted after every `every`
// completed days (and after the final day if it lands on the cadence).
// every <= 0 or a nil emit disables checkpointing, degenerating to Run.
// The emit callback receives the 1-based count of days completed so far
// in the simulator's lifetime (not just this call) and the serialized
// envelope; returning an error aborts the run.
func (s *Simulator) RunWithCheckpoints(weathers []solar.Weather, every int, emit func(day int, checkpoint []byte) error) (*Result, error) {
	res := &Result{
		Policy: s.policy.Name(),
		Days:   make([]DayStats, 0, len(weathers)),
	}
	var buf bytes.Buffer
	for _, w := range weathers {
		ds, err := s.RunDay(w)
		if err != nil {
			return nil, err
		}
		res.Days = append(res.Days, ds)
		res.Throughput += ds.Throughput
		if every > 0 && emit != nil && s.st.Day%every == 0 {
			buf.Reset()
			if err := s.Checkpoint(&buf); err != nil {
				return nil, err
			}
			if err := emit(s.st.Day, buf.Bytes()); err != nil {
				return nil, fmt.Errorf("sim: checkpoint after day %d: %w", s.st.Day, err)
			}
		}
	}
	s.finish(res)
	return res, nil
}
