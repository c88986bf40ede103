// Package node composes one battery node of the distributed energy-storage
// architecture: a server with its individual battery unit, the sensor chain
// reporting its Table 2 reading, and the aging bookkeeping the BAAT
// controller reads (DSN'15 Fig 7, per-server integration). The tracker
// folds each delivered sample into the aging metrics as it arrives, so the
// node keeps no reading or history log of its own.
//
// Each simulation tick the node routes power: solar feeds the server first,
// surplus charges the battery, and shortfall discharges the battery through
// the inverter. If neither solar nor battery (nor utility, when allowed)
// can carry the load, the server goes dark and its VMs checkpoint — the
// single-point-of-failure scenario of §VI-E.
package node

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/server"
	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/units"
)

// Config assembles one node.
type Config struct {
	BatterySpec battery.Spec
	ServerSpec  server.Spec
	AgingConfig aging.ModelConfig
	Losses      Losses

	// Ambient is the machine-room temperature.
	Ambient units.Celsius

	// TableCapacity is ignored: it bounded a power-table history the node
	// no longer keeps.
	//
	// Deprecated: nothing defaults, validates or reads it, and it stays out
	// of the configuration hash.
	TableCapacity int `json:"-"`

	// UtilityBackup allows falling back to grid power instead of going
	// dark when solar+battery cannot carry the load. The paper's green
	// experiments run without it during the solar window.
	UtilityBackup bool

	// SoCFloor is the state of charge below which the node refuses to
	// discharge its battery (on top of the pack's own voltage protection).
	// Policies adjust it at runtime (planned aging, §IV-D).
	SoCFloor float64

	// SensorQuarantine is how long the node's aging metrics stay flagged
	// untrustworthy after the sensor chain delivered an implausible sample
	// or went stale. While quarantined, MetricsSuspect reports true and
	// the BAAT policies fall back to conservative decisions. Zero selects
	// the DefaultSensorQuarantine.
	SensorQuarantine time.Duration

	// BatteryOptions customize the pack (manufacturing variation etc.).
	BatteryOptions []battery.Option

	// Telemetry instruments the node and its battery pack (dark ticks,
	// utility ticks, pack step counters). Nil leaves the node
	// un-instrumented at no cost.
	Telemetry *telemetry.Recorder
}

// DefaultConfig returns a prototype-scale node configuration.
func DefaultConfig() Config {
	return Config{
		// The prototype pairs two 12 V 35 Ah units per server (twelve
		// batteries behind six servers, Fig 11).
		BatterySpec: battery.Parallel(battery.DefaultSpec(), 2),
		ServerSpec:  server.DefaultSpec(),
		AgingConfig: aging.DefaultModelConfig(),
		Losses:      DefaultLosses(),
		Ambient:     25,
		SoCFloor:    0.05,
	}
}

// WithBatteryModel returns a copy of c re-based on the stock battery spec
// and aging constants for the given model tier, preserving the
// acceleration factor. Selecting the reference tier reproduces
// DefaultConfig's battery exactly, so -battery-model=leadacid is
// indistinguishable from — and checkpoint-hash-identical to — the
// default.
func (c Config) WithBatteryModel(k battery.Kind) (Config, error) {
	spec, err := battery.DefaultSpecFor(k)
	if err != nil {
		return Config{}, err
	}
	acfg, err := aging.DefaultModelConfigFor(k)
	if err != nil {
		return Config{}, err
	}
	acfg.AccelFactor = c.AgingConfig.AccelFactor
	c.BatterySpec = spec
	c.AgingConfig = acfg
	return c, nil
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.BatterySpec.Validate(); err != nil {
		return err
	}
	if err := c.ServerSpec.Validate(); err != nil {
		return err
	}
	if err := c.AgingConfig.Validate(); err != nil {
		return err
	}
	if bk, ak := c.BatterySpec.Chemistry.Normalize(), c.AgingConfig.Chemistry.Normalize(); bk != ak {
		return fmt.Errorf("node: battery spec chemistry %q does not match aging chemistry %q", bk, ak)
	}
	if err := c.Losses.Validate(); err != nil {
		return err
	}
	if c.SoCFloor < 0 || c.SoCFloor >= 1 {
		return fmt.Errorf("node: SoC floor must be in [0, 1), got %v", c.SoCFloor)
	}
	if c.SensorQuarantine < 0 {
		return fmt.Errorf("node: sensor quarantine must be non-negative, got %v", c.SensorQuarantine)
	}
	return nil
}

// DefaultSensorQuarantine is how long metrics stay suspect after a bad or
// stale sample when Config.SensorQuarantine is zero: two default control
// periods, so a recovered sensor is trusted again within a couple of
// control decisions rather than instantly.
const DefaultSensorQuarantine = 10 * time.Minute

// DefaultStaleAfter is how many consecutive lost samples quarantine the
// metrics.
const DefaultStaleAfter = 3

// Losses captures the conversion efficiencies along the power path of the
// prototype (DSN'15 Fig 11, module 4): the power switcher feeds the server
// from solar directly or from the battery through the DC-AC inverter, and
// charges the battery through the charger.
type Losses struct {
	// InverterEfficiency applies to battery → server AC delivery.
	InverterEfficiency float64
	// ChargerEfficiency applies to solar/utility → battery charging.
	ChargerEfficiency float64
	// SolarDirectEfficiency applies to solar → server direct feed.
	SolarDirectEfficiency float64
}

// DefaultLosses returns typical small-system conversion efficiencies.
func DefaultLosses() Losses {
	return Losses{
		InverterEfficiency:    0.90,
		ChargerEfficiency:     0.93,
		SolarDirectEfficiency: 0.95,
	}
}

// Validate checks that efficiencies are physical.
func (l Losses) Validate() error {
	for _, e := range []struct {
		name string
		v    float64
	}{
		{"inverter", l.InverterEfficiency},
		{"charger", l.ChargerEfficiency},
		{"solar-direct", l.SolarDirectEfficiency},
	} {
		if e.v <= 0 || e.v > 1 {
			return fmt.Errorf("node: %s efficiency must be in (0, 1], got %v", e.name, e.v)
		}
	}
	return nil
}

// Node is one server+battery unit. It holds its server, battery pack,
// aging tracker and damage model by value, so a fleet of nodes is one
// contiguous slice.
//
// A single Node is not safe for concurrent use, but distinct Nodes are
// fully independent: every field a Step/StepOffline touches (pack, server,
// tracker, model, sensor state) is owned by that node, and the only shared
// state — telemetry counters — is atomic. The simulator's parallel fleet
// stepping relies on this: stepping disjoint nodes from multiple
// goroutines is race-free and produces results identical to serial order.
type Node struct {
	id string

	// The parts of the Config the node reads after construction.
	losses        Losses
	ambient       units.Celsius
	utilityBackup bool

	// hrDt/hrVal memoize dt.Hours() for the per-tick energy integration
	// (Step validates dt > 0 first). A hit returns the identical division
	// result, so accumulated energies are bit-for-bit unchanged.
	hrDt  time.Duration
	hrVal float64

	// st is the node's own state in its checkpoint shape: Snapshot copies
	// it out, and Restore validates a snapshot and assigns it.
	st own

	// The parts, after the node's own per-tick fields so that a tick
	// walks the node front to back.
	srv     server.Server
	pack    battery.Pack
	tracker aging.Tracker
	model   aging.Model

	// quarantine is how long a sensor fault keeps the metrics suspect.
	quarantine time.Duration

	// Telemetry handles (nil no-ops unless Config.Telemetry was set).
	telDark       *telemetry.Counter
	telUtility    *telemetry.Counter
	telSensorBad  *telemetry.Counter
	telSensorLost *telemetry.Counter
}

// New assembles a node.
func New(id string, cfg Config) (*Node, error) {
	n := new(Node)
	if err := NewInto(n, id, cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// NewInto assembles a node in place, overwriting *n and initializing its
// parts in their fields. The resulting node is identical to one built by
// New.
func NewInto(n *Node, id string, cfg Config) error {
	if id == "" {
		return fmt.Errorf("node: id must not be empty")
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("node %s: %w", id, err)
	}
	quarantine := cfg.SensorQuarantine
	if quarantine == 0 {
		quarantine = DefaultSensorQuarantine
	}
	*n = Node{
		id:            id,
		losses:        cfg.Losses,
		ambient:       cfg.Ambient,
		utilityBackup: cfg.UtilityBackup,
		st:            own{SoCFloor: cfg.SoCFloor},
		quarantine:    quarantine,
		telDark:       cfg.Telemetry.Counter(telemetry.MetricNodeDarkTicks),
		telUtility:    cfg.Telemetry.Counter(telemetry.MetricNodeUtilityTicks),
		telSensorBad:  cfg.Telemetry.Counter(telemetry.MetricNodeSensorRejected),
		telSensorLost: cfg.Telemetry.Counter(telemetry.MetricNodeSensorMissed),
	}
	if err := server.NewInto(&n.srv, id+"/server", cfg.ServerSpec); err != nil {
		return err
	}
	// The battery's recorder option goes first so an explicit WithRecorder
	// in BatteryOptions can still override it.
	packOpts := append([]battery.Option{battery.WithRecorder(cfg.Telemetry)}, cfg.BatteryOptions...)
	if err := battery.NewInto(&n.pack, cfg.BatterySpec, packOpts...); err != nil {
		return err
	}
	if err := aging.NewTrackerInto(&n.tracker, cfg.BatterySpec.LifetimeThroughput); err != nil {
		return err
	}
	return aging.NewModelInto(&n.model, cfg.AgingConfig, cfg.BatterySpec.NominalCapacity)
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.id }

// Server exposes the compute side for VM placement and DVFS control.
func (n *Node) Server() *server.Server { return &n.srv }

// Battery exposes the battery pack for read-mostly inspection.
func (n *Node) Battery() *battery.Pack { return &n.pack }

// SoC returns the battery's state of charge in [0, 1].
func (n *Node) SoC() float64 { return n.pack.SoC() }

// Health returns the battery's remaining-capacity fraction.
func (n *Node) Health() float64 { return n.pack.Health() }

// Metrics returns the five aging metrics computed from the node's history.
func (n *Node) Metrics() aging.Metrics { return n.tracker.Metrics() }

// ResetMetrics clears the metric tracker while keeping the battery's
// accumulated damage. The evaluation uses this to measure one day's metric
// log on an already-aged battery (§VI-B runs each scheme for one recorded
// day at the "young" and "old" aging stages).
func (n *Node) ResetMetrics() { n.tracker.Reset() }

// AgingModel exposes the damage integrator (for lifetime prediction).
func (n *Node) AgingModel() *aging.Model { return &n.model }

// Clock returns accumulated simulated time.
func (n *Node) Clock() time.Duration { return n.st.Clock }

// SoCFloor returns the discharge floor currently enforced.
func (n *Node) SoCFloor() float64 { return n.st.SoCFloor }

// SetSoCFloor adjusts the discharge floor; planned aging sets it to
// 1 − DoD_goal (§IV-D).
func (n *Node) SetSoCFloor(f float64) error {
	if !(f >= 0 && f < 1) {
		return fmt.Errorf("node %s: SoC floor must be in [0, 1), got %v", n.id, f)
	}
	n.st.SoCFloor = f
	return nil
}

// SetSensorFault installs the sensor-chain corruption applied to the
// node's *reported* battery sample from the next step on (the aging model
// keeps observing the truth — damage physics are not fooled by a broken
// DAQ). The zero value restores a healthy sensor chain. The simulator
// resolves the fault deterministically before the parallel fan-out, so
// calling this from inside a step worker is not allowed.
func (n *Node) SetSensorFault(f faults.SensorFault) { n.st.Sensor = f }

// SensorFault returns the sensor-chain corruption currently applied (the
// zero value for a healthy chain).
func (n *Node) SensorFault() faults.SensorFault { return n.st.Sensor }

// SetUtilityAvailable gates the UtilityBackup path at runtime: during an
// injected utility brownout the node cannot fall back to grid power even
// when Config.UtilityBackup is set.
func (n *Node) SetUtilityAvailable(available bool) { n.st.UtilityDown = !available }

// UtilityAvailable reports whether the grid-backup path is currently
// usable (Config.UtilityBackup set and no brownout in effect).
func (n *Node) UtilityAvailable() bool { return n.utilityBackup && !n.st.UtilityDown }

// InjectBatteryWear books sudden, irreversible battery damage — a cell
// failure, not gradual wear — through the aging model so the pack and the
// damage ledger stay consistent.
func (n *Node) InjectBatteryWear(capFade, resGrowth, effLoss float64) {
	n.model.InjectDamage(capFade, resGrowth, effLoss)
	n.pack.ApplyDegradation(n.model.Degradation())
}

// MetricsSuspect reports whether the node's aging metrics are currently
// quarantined: the sensor chain recently delivered implausible samples or
// went stale, so DDT/DR/NAT readings may be garbage and the controller
// should fall back to conservative decisions.
func (n *Node) MetricsSuspect() bool { return n.st.Clock < n.st.SuspectUntil }

// SensorRejected returns how many samples the tracker rejected as
// implausible over the node's lifetime.
func (n *Node) SensorRejected() int { return n.st.Rejected }

// SensorDropped returns how many samples were lost before reaching the
// tracker over the node's lifetime.
func (n *Node) SensorDropped() int { return n.st.Dropped }

// Demand returns the power the node's server wants right now if powered
// (used by the bus allocator before Step). A node with no active VMs is
// scheduled off and demands nothing.
func (n *Node) Demand() units.Watt {
	if n.srv.ActiveVMCount() == 0 {
		return 0
	}
	if n.srv.Powered() {
		return n.srv.Power()
	}
	// A dark server still reports what it would draw if revived, so the
	// allocator can decide whether to bring it back.
	n.srv.SetPowered(true)
	d := n.srv.Power()
	n.srv.SetPowered(false)
	return d
}

// ChargeRequest returns the maximum solar power (at the bus, before charger
// loss) the battery could absorb this tick.
func (n *Node) ChargeRequest() units.Watt {
	mcp := n.pack.MaxChargePower()
	if mcp == 0 {
		return 0
	}
	return units.Watt(float64(mcp) / n.losses.ChargerEfficiency)
}

// hours returns dt.Hours() memoized on dt.
func (n *Node) hours(dt time.Duration) float64 {
	if dt != n.hrDt {
		n.hrDt, n.hrVal = dt, dt.Hours()
	}
	return n.hrVal
}

// batteryAvailable reports whether discharging is currently permitted.
func (n *Node) batteryAvailable() bool {
	return !n.pack.CutOff() && n.SoC() > n.st.SoCFloor
}

// Step advances the node by dt. solarForLoad is bus solar power granted for
// the server feed; solarForCharge is bus solar granted for battery charging.
// The node books what the tick did in its own accounting (Stats, the
// pack's counters, the aging tracker), so Step reports only failure.
func (n *Node) Step(dt time.Duration, solarForLoad, solarForCharge units.Watt) error {
	if dt <= 0 {
		return fmt.Errorf("node %s: step duration must be positive, got %v", n.id, dt)
	}
	if solarForLoad < 0 || solarForCharge < 0 {
		return fmt.Errorf("node %s: negative solar allocation (%v, %v)", n.id, solarForLoad, solarForCharge)
	}

	// A node with no active VMs is scheduled off: no idle burn, no
	// downtime accounting — the prototype only powers servers that host
	// work (§V-B). Any solar grant charges the battery.
	if n.srv.ActiveVMCount() == 0 {
		n.srv.SetPowered(false)
		return n.StepOffline(dt, solarForLoad+solarForCharge)
	}

	// Decide whether the server can run this tick. Recovery needs either
	// direct solar coverage or battery above floor with margin, giving a
	// little hysteresis against flapping.
	wasDown := !n.srv.Powered()
	n.srv.SetPowered(true)
	demand := n.srv.Power()

	solarDeliverable := units.Watt(float64(solarForLoad) * n.losses.SolarDirectEfficiency)
	deficit := demand - solarDeliverable
	canRecover := !wasDown || solarDeliverable >= demand || n.SoC() > n.st.SoCFloor+0.05

	run := true
	var batteryNeed, utility units.Watt
	if deficit > 0 {
		// Battery must bridge deficit through the inverter.
		batteryNeed = units.Watt(float64(deficit) / n.losses.InverterEfficiency)
		if !canRecover || !n.batteryAvailable() || n.pack.MaxDischargePower() < batteryNeed {
			if n.UtilityAvailable() {
				utility = deficit
				batteryNeed = 0
				n.telUtility.Inc()
			} else {
				run = false
			}
		}
	}

	// solarUsed is the bus solar consumed (load + charging). batteryPower,
	// the terminal power of a discharge, gates charging and resting below;
	// a discharge whose power rounds to zero still lets the pack charge,
	// so it stays a float rather than a flag.
	var solarUsed, batteryPower units.Watt
	var sr battery.StepResult
	var err error
	if run {
		solarUsed = solarForLoad
		if demand > 0 && solarDeliverable >= demand {
			// Solar alone carries the load; excess granted for the load is
			// returned (only what was needed is counted).
			solarUsed = units.Watt(float64(demand) / n.losses.SolarDirectEfficiency)
		}
		if batteryNeed > 0 {
			sr, err = n.pack.Discharge(batteryNeed, dt, n.ambient)
			if err != nil {
				return err
			}
			if sr.CutOff {
				// The pack tripped mid-step: treat the tick as dark.
				run = false
			} else {
				batteryPower = units.Watt(float64(sr.Voltage) * float64(sr.Current))
			}
		}
	}

	if !run {
		// Dark tick: server checkpoints; all granted solar charges the pack.
		n.srv.SetPowered(false)
		solarUsed = 0
		solarForCharge += solarForLoad
		n.telDark.Inc()
	}

	// Charging with the charge allocation (plus reclaimed load solar on a
	// dark tick).
	if solarForCharge > 0 && batteryPower == 0 {
		var charged units.Watt
		charged, err = n.charge(solarForCharge, dt, &sr)
		solarUsed += charged
	} else if batteryPower == 0 {
		err = n.pack.Rest(dt, n.ambient)
	}
	if err != nil {
		return err
	}

	// Advance compute and bookkeeping.
	n.srv.Step(dt)
	n.st.Clock += dt
	hrs := n.hours(dt)
	n.st.SolarWh += units.WattHour(float64(solarUsed) * hrs) // units.EnergyOver, memoized hours
	n.st.UtilityWh += units.WattHour(float64(utility) * hrs)
	return n.observe(dt, sr)
}

// StepOffline advances the node through a tick outside the operating
// window (the prototype shuts servers down after 18:30, §V-B): the server is
// off by schedule — not counted as downtime — while the battery charges from
// any solar grant or rests.
func (n *Node) StepOffline(dt time.Duration, solarForCharge units.Watt) error {
	if dt <= 0 {
		return fmt.Errorf("node %s: step duration must be positive, got %v", n.id, dt)
	}
	if solarForCharge < 0 {
		return fmt.Errorf("node %s: negative solar allocation %v", n.id, solarForCharge)
	}
	n.srv.SetPowered(false)

	var sr battery.StepResult
	var solarUsed units.Watt
	var err error
	if solarForCharge > 0 {
		solarUsed, err = n.charge(solarForCharge, dt, &sr)
	} else {
		err = n.pack.Rest(dt, n.ambient)
	}
	if err != nil {
		return err
	}

	n.st.Clock += dt
	n.st.SolarWh += units.WattHour(float64(solarUsed) * n.hours(dt)) // units.EnergyOver, memoized hours
	return n.observe(dt, sr)
}

// charge feeds bus solar through the charger into the pack. It returns the
// bus solar the pack accepted; when the pack took any charge it also
// replaces *sr with the charge step, the sample the aging books observe.
func (n *Node) charge(solar units.Watt, dt time.Duration, sr *battery.StepResult) (units.Watt, error) {
	cr, err := n.pack.Charge(units.Watt(float64(solar)*n.losses.ChargerEfficiency), dt, n.ambient)
	if err != nil || cr.Charge == 0 {
		return 0, err
	}
	*sr = cr
	accepted := -float64(cr.Energy()) / n.hours(dt) // battery-side watts
	return units.Watt(accepted / n.losses.ChargerEfficiency), nil
}

// observe closes out a step: the true battery sample feeds the damage
// model (physics cannot be fooled by a broken DAQ), while the sensor chain
// — possibly faulted — decides what the aging tracker gets to see.
// Implausible readings the tracker rejects and stale streaks quarantine the
// metrics instead of failing the step: a broken sensor is a fault symptom
// for the controller to degrade around, not a simulation error.
func (n *Node) observe(dt time.Duration, sr battery.StepResult) error {
	truth := aging.Sample{
		Dt:          dt,
		Current:     sr.Current,
		SoC:         n.SoC(),
		Temperature: n.pack.Temperature(),
	}

	reported, delivered := n.applySensor(truth)
	if !delivered {
		n.st.Dropped++
		n.st.Missed++
		n.telSensorLost.Inc()
		if n.st.Missed >= DefaultStaleAfter {
			n.st.SuspectUntil = n.st.Clock + n.quarantine
		}
	} else if err := n.tracker.Observe(reported); err != nil {
		// The tracker's input hardening caught an implausible sample:
		// immediate quarantine.
		n.st.Rejected++
		n.st.Missed++
		n.telSensorBad.Inc()
		n.st.SuspectUntil = n.st.Clock + n.quarantine
	} else {
		n.st.Missed = 0
		n.st.LastSample = reported
		n.st.HaveSample = true
	}

	if err := n.model.Observe(truth); err != nil {
		return err
	}
	n.pack.ApplyDegradation(n.model.Degradation())
	return nil
}

// applySensor corrupts the true sample per the installed sensor fault and
// reports whether a reading was delivered at all.
func (n *Node) applySensor(truth aging.Sample) (aging.Sample, bool) {
	switch n.st.Sensor.Mode {
	case faults.ModeDrop:
		return aging.Sample{}, false
	case faults.ModeNaN:
		s := truth
		s.Current = units.Ampere(math.NaN())
		return s, true
	case faults.ModeStuck:
		if n.st.HaveSample {
			s := n.st.LastSample
			s.Dt = truth.Dt
			return s, true
		}
		// A sensor frozen since power-on repeats its very first reading.
		return truth, true
	case faults.ModeNoise:
		s := truth
		// Relative noise on current with a 1 A absolute floor (so an idle
		// battery still reads noisy), plus small SoC and temperature
		// perturbations. The standard-normal draws were pre-resolved by
		// the injector, keeping this path deterministic under parallel
		// node stepping.
		base := math.Abs(float64(s.Current))
		if base < 1 {
			base = 1
		}
		s.Current += units.Ampere(n.st.Sensor.Sigma * n.st.Sensor.Noise[0] * base)
		s.SoC = units.Clamp01(s.SoC + 0.1*n.st.Sensor.Sigma*n.st.Sensor.Noise[1])
		s.Temperature += units.Celsius(10 * n.st.Sensor.Sigma * n.st.Sensor.Noise[2])
		return s, true
	default:
		return truth, true
	}
}

// Stats aggregates node-level accounting for experiments.
type Stats struct {
	SolarEnergy   units.WattHour
	UtilityEnergy units.WattHour
	Throughput    float64
	Downtime      time.Duration
	Health        float64
	SoC           float64
}

// Stats returns the node's accumulated accounting.
func (n *Node) Stats() Stats {
	return Stats{
		SolarEnergy:   n.st.SolarWh,
		UtilityEnergy: n.st.UtilityWh,
		Throughput:    n.srv.Throughput(),
		Downtime:      n.srv.Downtime(),
		Health:        n.Health(),
		SoC:           n.SoC(),
	}
}
