package baat

import (
	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/units"
)

// Physical quantity types shared across the public API.
type (
	// Watt is electrical power in watts.
	Watt = units.Watt
	// WattHour is electrical energy in watt-hours.
	WattHour = units.WattHour
	// Ampere is electrical current in amperes (positive = discharge).
	Ampere = units.Ampere
	// AmpereHour is electrical charge in ampere-hours.
	AmpereHour = units.AmpereHour
	// Volt is electrical potential in volts.
	Volt = units.Volt
	// Celsius is temperature in degrees Celsius.
	Celsius = units.Celsius
)

// Battery is a battery pack of any model tier (lead-acid by default) with
// live electrical state and aging feedback; see docs/BATTERY_MODELS.md for
// the contract every tier honors and the conformance suite.
type Battery = battery.Pack

// BatterySpec describes a battery product as the manufacturer rates it.
type BatterySpec = battery.Spec

// BatteryOption customizes a Battery at construction.
type BatteryOption = battery.Option

// Degradation is the irreversible wear assessed for a battery.
type Degradation = battery.Degradation

// BatteryCounters are the cumulative usage counters the sensor table logs.
type BatteryCounters = battery.Counters

// EndOfLifeHealth is the capacity fraction below which a battery is at
// end-of-life (80 %, §II-B).
const EndOfLifeHealth = battery.EndOfLifeHealth

// DefaultBatterySpec returns the prototype's unit: 12 V 35 Ah sealed
// lead-acid.
func DefaultBatterySpec() BatterySpec { return battery.DefaultSpec() }

// ParallelBatterySpec returns the spec of n identical units in parallel
// (the prototype pairs two per server).
func ParallelBatterySpec(spec BatterySpec, n int) BatterySpec { return battery.Parallel(spec, n) }

// NewBattery constructs a battery pack of the tier the spec's Chemistry
// selects.
func NewBattery(spec BatterySpec, opts ...BatteryOption) (*Battery, error) {
	return battery.New(spec, opts...)
}

// WithInitialSoC sets a battery's starting state of charge.
func WithInitialSoC(soc float64) BatteryOption { return battery.WithInitialSoC(soc) }

// WithManufacturingVariation applies fixed per-unit deviation from the
// nameplate (§IV-B-1).
func WithManufacturingVariation(capScale, resScale float64) BatteryOption {
	return battery.WithManufacturingVariation(capScale, resScale)
}

// BatteryKind selects a battery model tier: the electrochemical lead-acid
// reference, the fast linear coulomb-counting tier, or the LFP chemistry.
type BatteryKind = battery.Kind

// The selectable battery model tiers.
const (
	// BatteryLeadAcid is the full electrochemical lead-acid reference
	// (OCV curve, Peukert capacity, thermal model, five aging mechanisms).
	BatteryLeadAcid = battery.KindLeadAcid
	// BatteryLinear is the fast linear coulomb-counting tier: constant
	// voltage, no Peukert/thermal model, single calibrated fade rate.
	BatteryLinear = battery.KindLinear
	// BatteryLFP is the LiFePO4 chemistry: flat OCV plateau, cycle +
	// calendar aging curves, deep-discharge tolerance.
	BatteryLFP = battery.KindLFP
)

// BatteryKinds lists the selectable battery model tiers.
func BatteryKinds() []BatteryKind { return battery.Kinds() }

// ParseBatteryKind parses a user-facing battery model name ("leadacid",
// "linear", "lfp", and common aliases such as "vrla" or "lifepo4").
func ParseBatteryKind(s string) (BatteryKind, error) { return battery.ParseKind(s) }

// DefaultBatterySpecFor returns the stock spec for a battery model tier
// (the prototype's paired VRLA bank, its linear twin, or the LFP retrofit).
func DefaultBatterySpecFor(k BatteryKind) (BatterySpec, error) { return battery.DefaultSpecFor(k) }

// DefaultLFPBatterySpec returns the LFP retrofit unit: 12.8 V 70 Ah
// LiFePO4 with a flat OCV plateau.
func DefaultLFPBatterySpec() BatterySpec { return battery.DefaultLFPSpec() }

// Metrics is a snapshot of the five aging metrics of §III: NAT, CF, PC,
// DDT, and DR.
type Metrics = aging.Metrics

// MetricsTracker accumulates the five aging metrics from sensor samples.
type MetricsTracker = aging.Tracker

// AgingSample is one sensor reading interval (Table 2).
type AgingSample = aging.Sample

// NewMetricsTracker creates a tracker for a battery with the given nominal
// life-long Ah throughput (the NAT denominator of Eq 1).
func NewMetricsTracker(lifetime AmpereHour) (*MetricsTracker, error) {
	return aging.NewTracker(lifetime)
}

// AgingModel integrates mechanism-level damage from operating conditions.
type AgingModel = aging.Model

// AgingModelConfig carries the damage-model rate constants.
type AgingModelConfig = aging.ModelConfig

// AgingMechanism identifies one of the five lead-acid aging processes.
type AgingMechanism = aging.Mechanism

// The five aging mechanisms of §II-B.
const (
	Corrosion      = aging.Corrosion
	Shedding       = aging.Shedding
	Sulphation     = aging.Sulphation
	WaterLoss      = aging.WaterLoss
	Stratification = aging.Stratification
)

// DefaultAgingModelConfig returns rates calibrated to the paper's measured
// six-month drift (Figs 3–5).
func DefaultAgingModelConfig() AgingModelConfig { return aging.DefaultModelConfig() }

// DefaultAgingModelConfigFor returns the stock damage-model constants for
// a battery model tier (the lead-acid mechanisms, the linear tier's single
// fade rate, or the LFP cycle + calendar curves).
func DefaultAgingModelConfigFor(k BatteryKind) (AgingModelConfig, error) {
	return aging.DefaultModelConfigFor(k)
}

// NewAgingModel creates a damage integrator for a battery of the given
// nominal capacity.
func NewAgingModel(cfg AgingModelConfig, capNom AmpereHour) (*AgingModel, error) {
	return aging.NewModel(cfg, capNom)
}

// DeepDischargeSoC is the 40 % state-of-charge line below which the paper
// counts deep discharge (Eq 5) and triggers slowdown (Fig 9).
const DeepDischargeSoC = aging.DeepDischargeSoC

// Manufacturer identifies a battery vendor from Fig 10.
type Manufacturer = aging.Manufacturer

// The three manufacturers of Fig 10.
const (
	Hoppecke = aging.Hoppecke
	Trojan   = aging.Trojan
	UPG      = aging.UPG
)

// Manufacturers lists the Fig 10 vendors.
func Manufacturers() []Manufacturer { return aging.Manufacturers() }

// CycleLife returns a vendor's rated cycle count at the given depth of
// discharge (Fig 10).
func CycleLife(m Manufacturer, dod float64) (float64, error) { return aging.CycleLife(m, dod) }

// DemandClass is the Table 3 power/energy classification of a workload.
type DemandClass = aging.DemandClass

// Sensitivity gives the Table 3 impact levels for ΔNAT/ΔCF/ΔPC.
type Sensitivity = aging.Sensitivity

// DemandSensitivity returns the Table 3 row for a demand class.
func DemandSensitivity(c DemandClass) Sensitivity { return aging.DemandSensitivity(c) }

// WeightedAging computes Eq 6: the sensitivity-weighted aging pressure of a
// battery's metrics. Larger means faster expected aging.
func WeightedAging(m Metrics, s Sensitivity) float64 { return aging.WeightedAging(m, s) }

// DoDGoal computes Eq 7: the depth of discharge that spends the remaining
// lifetime Ah budget evenly over the planned remaining cycles.
func DoDGoal(total, used AmpereHour, cyclePlan float64, capNom AmpereHour) (float64, error) {
	return aging.DoDGoal(total, used, cyclePlan, capNom)
}

// Node is one battery node: a server with its individual battery unit,
// sensor chain, and aging bookkeeping.
type Node = node.Node

// NodeConfig assembles one battery node.
type NodeConfig = node.Config

// DefaultNodeConfig returns a prototype-scale node configuration.
func DefaultNodeConfig() NodeConfig { return node.DefaultConfig() }

// NewNode assembles a battery node.
func NewNode(id string, cfg NodeConfig) (*Node, error) { return node.New(id, cfg) }
