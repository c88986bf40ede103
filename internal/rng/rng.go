// Package rng provides the simulation's named random-number substreams.
//
// Every stream of randomness in the reproduction derives from one run
// seed plus a stable stream name, replacing the ad-hoc seed offsets
// (seed+1, seed+2, … seed+13) that previously scattered across packages.
// Naming the streams gives the checkpoint envelope a single authoritative
// enumeration of the random state that exists, and the PCG source
// underneath round-trips through MarshalBinary, so a restored stream
// continues the exact sequence the snapshot interrupted — the property
// that makes resume-at-day-N byte-identical to an uninterrupted run.
package rng

import (
	"fmt"
	"math/rand/v2"
)

// Canonical stream names. Every substream derived anywhere in the tree is
// enumerated here; checkpoints identify streams by these names, and a new
// draw site must add its name rather than invent a seed offset.
const (
	// Manufacturing draws per-node capacity/resistance variation at
	// simulator construction (formerly seed+0).
	Manufacturing = "manufacturing"
	// Jobs drives batch-job arrival via workload.Generator (formerly
	// seed+1).
	Jobs = "jobs"
	// Weather shapes generated solar days and draws day conditions inside
	// the simulator (formerly seed+2).
	Weather = "weather"
	// Policy drives stochastic policy decisions such as migration-target
	// permutations (formerly seed+3).
	Policy = "policy"
	// Faults drives the deterministic fault injector (formerly seed+4).
	Faults = "faults"
	// CLIWeather draws a run spec's mix-weather day sequence (baatsim and
	// the serve daemon) and the golden-trace fixtures (formerly seed+7).
	CLIWeather = "cli-weather"
	// ExpLowSoC draws the low-SoC-duration experiment's weather sequence
	// (formerly seed+3 in experiments).
	ExpLowSoC = "experiments/low-soc-weather"
	// ExpSoCDist draws the SoC-distribution experiment's weather sequence
	// (formerly seed+5 in experiments).
	ExpSoCDist = "experiments/soc-dist-weather"
	// ExpBurnIn draws the shared pre-aging burn-in weather sequence for
	// single-day comparisons (formerly seed+11 in experiments).
	ExpBurnIn = "experiments/burn-in-weather"
	// ExpPlanned draws the planned-aging window experiment's weather
	// sequence (formerly seed+9 in experiments).
	ExpPlanned = "experiments/planned-weather"
	// ExpArchitecture draws the architecture-ablation weather sequence
	// (formerly seed+13 in experiments).
	ExpArchitecture = "experiments/architecture-weather"
	// ExpFidelity draws the battery-model fidelity experiment's weather
	// sequence (shared across tiers so every model replays the same days).
	ExpFidelity = "experiments/fidelity-weather"
	// ExpMixedFleet draws the mixed-chemistry fleet experiment's weather
	// sequence (shared across policies, §VI-B's matched-scenario method).
	ExpMixedFleet = "experiments/mixed-fleet-weather"
	// ExpDemandResponse draws the demand-response experiment's weather
	// sequence (shared by the reference and every discharge floor).
	ExpDemandResponse = "experiments/demand-response-weather"
	// SignalForecast drives the solar forecaster's noise draws
	// (internal/signal). The forecaster owns its substream so that adding
	// or querying forecasts never perturbs the weather, jobs, or policy
	// streams of an existing run.
	SignalForecast = "signal/solar-forecast"

	// reweatherPrefix namespaces the per-mutation weather-redraw streams
	// of a served run; see ServeReweather.
	reweatherPrefix = "serve/reweather/"
)

// ServeReweather returns the canonical stream name for the i-th mid-flight
// weather redraw of a served run (internal/serve). Each sunshine mutation
// draws the remaining weather suffix from its own named substream of the
// run seed, so a mutated run stays a pure function of (seed, mutation
// sequence) — forks and replays that apply the same mutations at the same
// days see the same skies.
func ServeReweather(i int) string {
	return fmt.Sprintf("%s%d", reweatherPrefix, i)
}

// Stream is a deterministic random-number stream derived from a (seed,
// name) pair. It embeds *rand.Rand (math/rand/v2) for drawing and keeps
// the underlying PCG source so the stream's exact position serializes.
type Stream struct {
	*rand.Rand
	src *rand.PCG
}

// New derives the named substream of seed. Distinct names yield
// independent sequences; the same (seed, name) pair always yields the
// same sequence, on every platform and in every process.
func New(seed int64, name string) *Stream {
	src := rand.NewPCG(uint64(seed), fnv1a(name))
	return &Stream{Rand: rand.New(src), src: src}
}

// MarshalBinary encodes the stream's exact position.
func (s *Stream) MarshalBinary() ([]byte, error) { return s.src.MarshalBinary() }

// UnmarshalBinary rewinds the stream to a previously marshaled position.
func (s *Stream) UnmarshalBinary(data []byte) error {
	if err := s.src.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("rng: restore stream: %w", err)
	}
	return nil
}

// fnv1a hashes a stream name with the 64-bit FNV-1a function. FNV is
// stable across processes and platforms (unlike hash/maphash), which is
// what lets a checkpoint written by one process restore in another.
func fnv1a(name string) uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}
