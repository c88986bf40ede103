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

// State is the serializable state of a Node: the composed states of its
// battery pack, aging tracker, damage model and server, plus the node's
// own clock, accounting, and sensor-chain bookkeeping. The Config (specs,
// losses, quarantine policy) is construction-time input and is not
// serialized; a snapshot restores only onto a node built from the same
// Config.
type State struct {
	ID      string             `json:"id"`
	Pack    battery.State      `json:"pack"`
	Tracker aging.TrackerState `json:"tracker"`
	Model   aging.ModelState   `json:"model"`
	Server  server.State       `json:"server"`
	own
}

// own is the part of State a Node holds live; its battery, tracker, model
// and server hold the rest.
type own struct {
	Clock    time.Duration `json:"clock"`
	SoCFloor float64       `json:"soc_floor"`

	UtilityWh units.WattHour `json:"utility_wh"`
	SolarWh   units.WattHour `json:"solar_wh"`

	// Sensor is the corruption applied to the *reported* battery sample
	// this tick (the aging model always observes the truth). The injector
	// re-resolves it every tick, but a node can also carry a manually
	// installed fault that must survive resume.
	Sensor faults.SensorFault `json:"sensor"`
	// LastSample is the last sample the tracker accepted, which a stuck
	// sensor replays.
	LastSample aging.Sample `json:"last_sample"`
	HaveSample bool         `json:"have_sample"`
	// The suspect/quarantine bookkeeping that tells the controller when to
	// stop trusting the metrics.
	Missed       int           `json:"missed"`   // consecutive samples the tracker never received
	Rejected     int           `json:"rejected"` // total samples rejected as implausible
	Dropped      int           `json:"dropped"`  // total samples lost outright
	SuspectUntil time.Duration `json:"suspect_until"`

	// UtilityDown gates the UtilityBackup path (injected brownouts).
	UtilityDown bool `json:"utility_down"`
}

// Snapshot captures the node's full state.
func (n *Node) Snapshot() State {
	return State{
		ID:      n.id,
		Pack:    n.pack.Snapshot(),
		Tracker: n.tracker.Snapshot(),
		Model:   n.model.Snapshot(),
		Server:  n.srv.Snapshot(),
		own:     n.st,
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
	if m := st.Sensor.Mode; m < faults.SensorOK || m > faults.ModeDrop {
		return fmt.Errorf("node %s: restore: unknown sensor mode %d", n.id, st.Sensor.Mode)
	}

	// Stage every sub-restore on value copies so a failure partway through
	// leaves the live node untouched.
	pack := n.pack
	if err := pack.Restore(st.Pack); err != nil {
		return fmt.Errorf("node %s: restore: %w", n.id, err)
	}
	tracker := n.tracker
	if err := tracker.Restore(st.Tracker); err != nil {
		return fmt.Errorf("node %s: restore: %w", n.id, err)
	}
	model := n.model
	if err := model.Restore(st.Model); err != nil {
		return fmt.Errorf("node %s: restore: %w", n.id, err)
	}
	if err := n.srv.Restore(st.Server); err != nil {
		return fmt.Errorf("node %s: restore: %w", n.id, err)
	}

	n.pack = pack
	n.tracker = tracker
	n.model = model
	n.st = st.own
	return nil
}
