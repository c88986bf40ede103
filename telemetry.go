package baat

import (
	"github.com/green-dc/baat/internal/telemetry"
)

// Recorder collects counters, gauges, histograms, and traced events from an
// instrumented run. A nil *Recorder is valid everywhere one is accepted and
// records nothing at effectively no cost; see SimConfig.Telemetry and
// ExperimentConfig.Telemetry.
type Recorder = telemetry.Recorder

// TelemetrySnapshot is a point-in-time copy of every registered metric and
// the traced event ring, as returned by Recorder.Snapshot.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryEvent is one traced controller event (a migration, a DVFS cap, a
// DoD target move, a battery end-of-life, a fault activation, a node
// entering or leaving degraded mode).
type TelemetryEvent = telemetry.Event

// TelemetryServer is a running /metrics + /events + pprof HTTP listener.
type TelemetryServer = telemetry.Server

// NewRecorder builds an empty telemetry recorder.
func NewRecorder() *Recorder { return telemetry.NewRecorder() }

// ServeTelemetry exposes the recorder on addr: Prometheus text at /metrics,
// the traced event ring as JSON at /events, and net/http/pprof under
// /debug/pprof/. Use addr ":0" to bind an ephemeral port and
// TelemetryServer.Addr to discover it.
func ServeTelemetry(rec *Recorder, addr string) (*TelemetryServer, error) {
	return rec.ListenAndServe(addr)
}
