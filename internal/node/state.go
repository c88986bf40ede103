package node

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/server"
	"github.com/green-dc/baat/internal/units"
)

// SampleState is the serialized form of the last sensor sample a stuck
// sensor would replay.
type SampleState struct {
	Dt          time.Duration `json:"dt"`
	Current     units.Ampere  `json:"current"`
	SoC         float64       `json:"soc"`
	Temperature units.Celsius `json:"temperature"`
}

// SensorFaultState is the serialized form of the sensor corruption in
// effect at snapshot time. The injector re-resolves it every tick, but a
// node can also carry a manually installed fault that must survive resume.
type SensorFaultState struct {
	Mode  int        `json:"mode"`
	Sigma float64    `json:"sigma"`
	Noise [3]float64 `json:"noise"`
}

// State is the serializable state of a Node: the composed states of its
// battery pack, aging tracker, damage model and server, plus the node's
// own clock, accounting, and sensor-chain bookkeeping. The Config (specs, losses, quarantine policy) is
// construction-time input and is not serialized; a snapshot restores only
// onto a node built from the same Config.
type State struct {
	ID      string             `json:"id"`
	Pack    battery.State      `json:"pack"`
	Tracker aging.TrackerState `json:"tracker"`
	Model   aging.ModelState   `json:"model"`
	Server  server.State       `json:"server"`

	Clock    time.Duration `json:"clock"`
	SoCFloor float64       `json:"soc_floor"`

	UtilityWh units.WattHour `json:"utility_wh"`
	SolarWh   units.WattHour `json:"solar_wh"`

	Sensor       SensorFaultState `json:"sensor"`
	LastSample   SampleState      `json:"last_sample"`
	HaveSample   bool             `json:"have_sample"`
	Missed       int              `json:"missed"`
	Rejected     int              `json:"rejected"`
	Dropped      int              `json:"dropped"`
	SuspectUntil time.Duration    `json:"suspect_until"`
	UtilityDown  bool             `json:"utility_down"`
}

// Snapshot captures the node's full state.
func (n *Node) Snapshot() State {
	return State{
		ID:      n.id,
		Pack:    n.batt.Snapshot(),
		Tracker: n.tracker.Snapshot(),
		Model:   n.model.Snapshot(),
		Server:  n.srv.Snapshot(),

		Clock:    n.clock,
		SoCFloor: n.socFloor,

		UtilityWh: n.utilityWh,
		SolarWh:   n.solarWh,

		Sensor: SensorFaultState{
			Mode:  int(n.sensor.Mode),
			Sigma: n.sensor.Sigma,
			Noise: n.sensor.Noise,
		},
		LastSample: SampleState{
			Dt:          n.lastSample.Dt,
			Current:     n.lastSample.Current,
			SoC:         n.lastSample.SoC,
			Temperature: n.lastSample.Temperature,
		},
		HaveSample:   n.haveSample,
		Missed:       n.missed,
		Rejected:     n.rejected,
		Dropped:      n.dropped,
		SuspectUntil: n.suspectUntil,
		UtilityDown:  n.utilityDown,
	}
}

// Restore overwrites the node's state from a snapshot taken from a node
// built with the same Config. All sub-states are validated before anything
// is mutated, so a corrupt checkpoint leaves the node untouched.
func (n *Node) Restore(st State) error {
	if st.ID != n.id {
		return fmt.Errorf("node %s: restore: snapshot belongs to node %s", n.id, st.ID)
	}
	if st.Clock < 0 {
		return fmt.Errorf("node %s: restore: negative clock %v", n.id, st.Clock)
	}
	if st.SoCFloor < 0 || st.SoCFloor >= 1 || math.IsNaN(st.SoCFloor) {
		return fmt.Errorf("node %s: restore: SoC floor must be in [0, 1), got %v", n.id, st.SoCFloor)
	}
	for _, e := range []struct {
		name string
		v    float64
	}{
		{"utility energy", float64(st.UtilityWh)},
		{"solar energy", float64(st.SolarWh)},
	} {
		if math.IsNaN(e.v) || math.IsInf(e.v, 0) || e.v < 0 {
			return fmt.Errorf("node %s: restore: %s must be finite and non-negative, got %v", n.id, e.name, e.v)
		}
	}
	if st.Missed < 0 || st.Rejected < 0 || st.Dropped < 0 {
		return fmt.Errorf("node %s: restore: negative sensor counters", n.id)
	}
	if st.SuspectUntil < 0 {
		return fmt.Errorf("node %s: restore: negative quarantine deadline %v", n.id, st.SuspectUntil)
	}
	if m := faults.SensorMode(st.Sensor.Mode); m < faults.SensorOK || m > faults.ModeDrop {
		return fmt.Errorf("node %s: restore: unknown sensor mode %d", n.id, st.Sensor.Mode)
	}

	// Stage every sub-restore on scratch copies so a failure partway
	// through leaves the live node untouched. The battery stage works on a
	// value copy of whichever concrete tier backs the model.
	var commitBatt func()
	switch b := n.batt.(type) {
	case *battery.Pack:
		pack := *b
		if err := pack.Restore(st.Pack); err != nil {
			return fmt.Errorf("node %s: restore: %w", n.id, err)
		}
		commitBatt = func() { *b = pack }
	case *battery.Linear:
		lin := *b
		if err := lin.Restore(st.Pack); err != nil {
			return fmt.Errorf("node %s: restore: %w", n.id, err)
		}
		commitBatt = func() { *b = lin }
	default:
		return fmt.Errorf("node %s: restore: unknown battery model %T", n.id, n.batt)
	}
	tracker := *n.tracker
	if err := tracker.Restore(st.Tracker); err != nil {
		return fmt.Errorf("node %s: restore: %w", n.id, err)
	}
	model := *n.model
	if err := model.Restore(st.Model); err != nil {
		return fmt.Errorf("node %s: restore: %w", n.id, err)
	}
	if err := n.srv.Restore(st.Server); err != nil {
		return fmt.Errorf("node %s: restore: %w", n.id, err)
	}

	commitBatt()
	*n.tracker = tracker
	*n.model = model

	n.clock = st.Clock
	n.socFloor = st.SoCFloor
	n.utilityWh = st.UtilityWh
	n.solarWh = st.SolarWh

	n.sensor = faults.SensorFault{
		Mode:  faults.SensorMode(st.Sensor.Mode),
		Sigma: st.Sensor.Sigma,
		Noise: st.Sensor.Noise,
	}
	n.lastSample = aging.Sample{
		Dt:          st.LastSample.Dt,
		Current:     st.LastSample.Current,
		SoC:         st.LastSample.SoC,
		Temperature: st.LastSample.Temperature,
	}
	n.haveSample = st.HaveSample
	n.missed = st.Missed
	n.rejected = st.Rejected
	n.dropped = st.Dropped
	n.suspectUntil = st.SuspectUntil
	n.utilityDown = st.UtilityDown
	return nil
}
