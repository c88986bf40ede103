package baat

import (
	"github.com/green-dc/baat/internal/cost"
	"github.com/green-dc/baat/internal/rng"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

// WorkloadKind identifies one of the six prototype workloads (§V-B).
type WorkloadKind = workload.Kind

// The six workloads: three HiBench jobs and three CloudSuite applications.
const (
	NutchIndexing   = workload.NutchIndexing
	KMeans          = workload.KMeans
	WordCount       = workload.WordCount
	SoftwareTesting = workload.SoftwareTesting
	WebServing      = workload.WebServing
	DataAnalytics   = workload.DataAnalytics
)

// WorkloadKinds lists the six workloads in paper order.
func WorkloadKinds() []WorkloadKind { return workload.Kinds() }

// WorkloadProfile describes a workload's utilization shape, total work, and
// Table 3 demand class.
type WorkloadProfile = workload.Profile

// WorkloadProfiles returns the built-in profile library.
func WorkloadProfiles() map[WorkloadKind]WorkloadProfile { return workload.Profiles() }

// WorkloadProfileFor returns the built-in profile for a workload kind.
func WorkloadProfileFor(k WorkloadKind) (WorkloadProfile, error) { return workload.ProfileFor(k) }

// PrototypeServices returns the six workloads as persistent services —
// the prototype's static per-server assignment (§V-B).
func PrototypeServices() []WorkloadProfile { return workload.PrototypeServices() }

// WorkloadGenerator produces job arrival sequences for multi-day runs.
type WorkloadGenerator = workload.Generator

// RandomStream is a named, serializable random substream (see NewStream).
type RandomStream = rng.Stream

// NewStream derives the named random substream of a seed. The same
// (seed, name) pair always yields the same sequence, and the stream's
// exact position round-trips through MarshalBinary/UnmarshalBinary.
func NewStream(seed int64, name string) *RandomStream { return rng.New(seed, name) }

// NewWorkloadGenerator builds a generator drawing uniformly from kinds
// (all six when empty).
func NewWorkloadGenerator(stream *RandomStream, kinds ...WorkloadKind) (*WorkloadGenerator, error) {
	return workload.NewGenerator(stream, kinds...)
}

// VM is one schedulable virtual machine.
type VM = vm.VM

// VMState is a VM lifecycle state.
type VMState = vm.Lifecycle

// VM lifecycle states.
const (
	VMRunning   = vm.Running
	VMPaused    = vm.Paused
	VMMigrating = vm.Migrating
	VMCompleted = vm.Completed
)

// DefaultMigrationTime is how long a live migration pauses a VM.
const DefaultMigrationTime = vm.DefaultMigrationTime

// NewVM creates a VM hosting the given workload profile.
func NewVM(id string, p WorkloadProfile) (*VM, error) { return vm.New(id, p) }

// MigrateVM moves a VM between nodes, charging the transfer pause (§IV-C).
var MigrateVM = coreMigrateVM

// CostModel carries the battery/server price book and planning horizon for
// the §VI-D economics (Figs 16–17).
type CostModel = cost.Model

// DefaultCostModel returns prototype-scale prices.
func DefaultCostModel() CostModel { return cost.DefaultModel() }
