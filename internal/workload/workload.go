// Package workload models the six datacenter applications the BAAT
// prototype deploys (DSN'15 §V-B): three HiBench jobs (Nutch Indexing,
// K-Means Clustering, Word Count) and three CloudSuite applications
// (Software Testing, Web Serving, Data Analytics).
//
// Each workload is reduced to what BAAT consumes: a CPU-utilization profile
// over its run, a total work amount, and the Table 3 power/energy demand
// class that drives the weighted-aging placement (§IV-B). Long-running
// services (Web Serving) never complete; batch jobs finish when their work
// units are done.
package workload

import (
	"fmt"
	"math"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/rng"
)

// Kind identifies one of the six prototype workloads.
type Kind int

// The six workloads of §V-B.
const (
	NutchIndexing Kind = iota + 1
	KMeans
	WordCount
	SoftwareTesting
	WebServing
	DataAnalytics
)

// Kinds lists all workloads in paper order.
func Kinds() []Kind {
	return []Kind{NutchIndexing, KMeans, WordCount, SoftwareTesting, WebServing, DataAnalytics}
}

// String returns the workload name.
func (k Kind) String() string {
	switch k {
	case NutchIndexing:
		return "nutch-indexing"
	case KMeans:
		return "k-means"
	case WordCount:
		return "word-count"
	case SoftwareTesting:
		return "software-testing"
	case WebServing:
		return "web-serving"
	case DataAnalytics:
		return "data-analytics"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Profile describes a workload's resource behaviour — the "load power
// demand profiling" input of §IV-B-2a.
type Profile struct {
	Kind Kind

	// PeakUtilization is the CPU share the workload drives at its busiest
	// phase, in (0, 1].
	PeakUtilization float64

	// WorkUnits is the total work of a batch job in utilization-hours at
	// full frequency. Zero for services (they run forever).
	WorkUnits float64

	// Service marks long-running applications with no completion point.
	Service bool

	// Phases is the relative utilization shape over the run (each in
	// (0, 1], multiplied by PeakUtilization). Batch jobs walk phases by
	// progress; services cycle them by wall time.
	Phases []float64
}

// Profiles returns the built-in profile library. Utilization shapes are
// coarse but deliberately span the four Table 3 demand classes:
//
//	Nutch Indexing   — Large power, More energy (heavy, long indexing)
//	K-Means          — Large power, Less energy (intense but short iterations)
//	Word Count       — Small power, Less energy (light MapReduce)
//	Software Testing — Large power, More energy ("resource-hungry and
//	                   time-consuming", §V-B)
//	Web Serving      — Small power, More energy (long-running service)
//	Data Analytics   — Small power, More energy (sustained scan-heavy job)
func Profiles() map[Kind]Profile {
	kinds := Kinds()
	m := make(map[Kind]Profile, len(kinds))
	for _, k := range kinds {
		m[k], _ = builtin(k)
	}
	return m
}

// ProfileFor returns the built-in profile for a workload kind.
func ProfileFor(k Kind) (Profile, error) {
	p, ok := builtin(k)
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown kind %v", k)
	}
	return p, nil
}

// builtin builds the library profile of one kind, so a lookup pays for
// that profile alone rather than the whole library.
func builtin(k Kind) (Profile, bool) {
	switch k {
	case NutchIndexing:
		return Profile{
			Kind:            NutchIndexing,
			PeakUtilization: 0.9,
			WorkUnits:       3.5,
			Phases:          []float64{0.6, 0.9, 1.0, 1.0, 0.8, 0.5},
		}, true
	case KMeans:
		return Profile{
			Kind:            KMeans,
			PeakUtilization: 0.95,
			WorkUnits:       1.2,
			Phases:          []float64{1.0, 0.4, 1.0, 0.4, 1.0, 0.3},
		}, true
	case WordCount:
		return Profile{
			Kind:            WordCount,
			PeakUtilization: 0.45,
			WorkUnits:       0.8,
			Phases:          []float64{0.8, 1.0, 0.9, 0.6},
		}, true
	case SoftwareTesting:
		return Profile{
			Kind:            SoftwareTesting,
			PeakUtilization: 0.95,
			WorkUnits:       5.0,
			Phases:          []float64{0.9, 1.0, 1.0, 0.95, 1.0, 0.9},
		}, true
	case WebServing:
		return Profile{
			Kind:            WebServing,
			PeakUtilization: 0.5,
			Service:         true,
			Phases:          []float64{0.5, 0.7, 0.9, 1.0, 0.9, 0.8, 0.6, 0.5},
		}, true
	case DataAnalytics:
		return Profile{
			Kind:            DataAnalytics,
			PeakUtilization: 0.55,
			WorkUnits:       4.0,
			Phases:          []float64{0.7, 1.0, 0.9, 1.0, 0.8, 0.9},
		}, true
	}
	return Profile{}, false
}

// Validate checks a profile.
func (p Profile) Validate() error {
	if p.PeakUtilization <= 0 || p.PeakUtilization > 1 {
		return fmt.Errorf("workload %v: peak utilization must be in (0, 1], got %v", p.Kind, p.PeakUtilization)
	}
	if !p.Service && p.WorkUnits <= 0 {
		return fmt.Errorf("workload %v: batch job needs positive work units", p.Kind)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload %v: needs at least one phase", p.Kind)
	}
	for i, ph := range p.Phases {
		if ph <= 0 || ph > 1 {
			return fmt.Errorf("workload %v: phase %d must be in (0, 1], got %v", p.Kind, i, ph)
		}
	}
	return nil
}

// UtilizationAt returns the CPU utilization at a given progress point for
// batch jobs (progress in [0, 1]) or wall-clock phase position for services.
func (p Profile) UtilizationAt(pos float64) float64 {
	if len(p.Phases) == 0 {
		return p.PeakUtilization
	}
	// Modf's fractional part is Mod(pos, 1) bit for bit on finite input
	// (exact, with pos's sign), without Mod's loop over pos's magnitude.
	_, pos = math.Modf(pos)
	if pos < 0 {
		pos += 1
	}
	idx := int(pos * float64(len(p.Phases)))
	if idx >= len(p.Phases) {
		idx = len(p.Phases) - 1
	}
	return p.PeakUtilization * p.Phases[idx]
}

// DemandClass classifies the profile per Table 3 against a server whose
// full-utilization draw defines "peak": power is Large when the workload
// drives more than 50 % of server peak power; energy is More when total
// energy (utilization-hours) is above the library median.
func (p Profile) DemandClass() aging.DemandClass {
	const (
		largePowerUtil  = 0.5 // >50 % of peak power (§IV-B)
		moreEnergyUnits = 2.0 // utilization-hours; services always qualify
	)
	return aging.DemandClass{
		LargePower: p.PeakUtilization > largePowerUtil,
		MoreEnergy: p.Service || p.WorkUnits > moreEnergyUnits,
	}
}

// AsService converts a profile into a persistent service with the same
// utilization shape: it never completes and cycles its phases by wall time.
func (p Profile) AsService() Profile {
	p.Service = true
	p.WorkUnits = 0
	return p
}

// PrototypeServices returns the six workloads as persistent services, one
// per server — the prototype's static assignment ("we deploy and
// iteratively run the workloads hosted in virtual machines on our computing
// server nodes", §VI-B). The heterogeneous power demands create the
// per-node aging variation that hiding targets.
func PrototypeServices() []Profile {
	out := make([]Profile, 0, len(Kinds()))
	for _, k := range Kinds() {
		p, _ := ProfileFor(k) // built-ins always resolve
		out = append(out, p.AsService())
	}
	return out
}

// Generator produces arrival sequences of jobs for multi-day experiments.
// It owns its random stream, so its draw position snapshots and restores
// with the rest of the simulation state.
type Generator struct {
	rng   *rng.Stream
	kinds []Kind
}

// NewGenerator builds a job generator drawing uniformly from kinds (all six
// when kinds is empty). The stream should be dedicated to this generator:
// its position is part of the generator's serialized state.
func NewGenerator(stream *rng.Stream, kinds ...Kind) (*Generator, error) {
	if stream == nil {
		return nil, fmt.Errorf("workload: rng stream must not be nil")
	}
	if len(kinds) == 0 {
		kinds = Kinds()
	}
	for _, k := range kinds {
		if _, err := ProfileFor(k); err != nil {
			return nil, err
		}
	}
	return &Generator{rng: stream, kinds: append([]Kind(nil), kinds...)}, nil
}

// Next draws the next job's profile.
func (g *Generator) Next() Profile {
	k := g.kinds[g.rng.IntN(len(g.kinds))]
	p, _ := ProfileFor(k) // kinds validated at construction
	return p
}

// GeneratorState is the serializable state of a Generator: the exact
// position of its arrival stream. The kind set is construction-time input.
type GeneratorState struct {
	RNG []byte `json:"rng"`
}

// Snapshot captures the generator's stream position.
func (g *Generator) Snapshot() GeneratorState {
	b, _ := g.rng.MarshalBinary() // never fails for PCG sources
	return GeneratorState{RNG: b}
}

// Restore rewinds the generator's stream to a snapshot position.
func (g *Generator) Restore(st GeneratorState) error {
	if len(st.RNG) == 0 {
		return fmt.Errorf("workload: restore: empty rng state")
	}
	return g.rng.UnmarshalBinary(st.RNG)
}

// Batch draws n jobs.
func (g *Generator) Batch(n int) []Profile {
	out := make([]Profile, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.Next())
	}
	return out
}
