package telemetry

import (
	"sync"
	"time"
)

// EventType labels a structured controller event. The canonical types
// mirror the actuation and lifecycle moments the paper's evaluation
// counts; docs/OBSERVABILITY.md documents each.
type EventType string

// Canonical event types.
const (
	// EventMigration is one VM migration issued by a policy (Fig 8 hiding,
	// Fig 9 slowdown preferred action; §VI-F charges its cost).
	EventMigration EventType = "migration"
	// EventDVFSCap is one downward DVFS step on a server whose battery is
	// at risk (Fig 9's power-capping fallback).
	EventDVFSCap EventType = "dvfs_cap"
	// EventDVFSRestore is one upward DVFS step after the battery recovered
	// past the trigger plus hysteresis.
	EventDVFSRestore EventType = "dvfs_restore"
	// EventDoDTarget is a planned-aging DoD-goal adjustment (Eq 7, §IV-D).
	EventDoDTarget EventType = "dod_target"
	// EventBatteryEOL marks a battery crossing the 80 % health line
	// (§II-B end-of-life).
	EventBatteryEOL EventType = "battery_eol"
	// EventFaultInjected is one fault activation delivered by the
	// deterministic injector (docs/FAULTS.md).
	EventFaultInjected EventType = "fault_injected"
	// EventDegradedMode marks a node's aging metrics being quarantined:
	// the controller stops trusting them and falls back to conservative
	// placement and capped frequencies.
	EventDegradedMode EventType = "degraded_mode"
	// EventDegradedRecovered marks a quarantined node's metrics being
	// trusted again after the quarantine window elapsed cleanly.
	EventDegradedRecovered EventType = "degraded_recovered"
)

// Event is one structured telemetry event.
type Event struct {
	// Seq is the global append sequence number (monotonic, never reused),
	// so a reader can detect ring overwrites between dumps.
	Seq uint64 `json:"seq"`
	// At is the simulated time of the event, encoded in nanoseconds.
	At time.Duration `json:"at_ns"`
	// Type is the event type.
	Type EventType `json:"type"`
	// Node identifies the battery node involved, when there is one.
	Node string `json:"node,omitempty"`
	// Detail is a short free-form description ("vm-3 -> node-2").
	Detail string `json:"detail,omitempty"`
}

// DefaultTraceCapacity is the event-ring size NewRecorder uses.
const DefaultTraceCapacity = 4096

// Tracer is a fixed-capacity ring buffer of events. Writes are
// mutex-serialized — events are cold-path (a few per control period, not
// per tick) — and overwrite the oldest entry when full. The nil Tracer is
// valid and drops every event.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded
}

// NewTracer returns a tracer keeping the last capacity events
// (DefaultTraceCapacity when non-positive).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Record appends one event, assigning its sequence number.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Seq = t.next
	t.next++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[int(ev.Seq)%cap(t.buf)] = ev
	}
	t.mu.Unlock()
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	// Full ring: the oldest entry sits at the next write position.
	start := int(t.next) % cap(t.buf)
	out = append(out, t.buf[start:]...)
	return append(out, t.buf[:start]...)
}

// Total returns how many events were ever recorded, including those the
// ring has since overwritten.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Dropped returns how many events have been overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next - uint64(len(t.buf))
}
