package baat

import (
	"github.com/green-dc/baat/internal/serve"
)

// SimService hosts many concurrent simulations behind an HTTP/JSON control
// plane: create, start, pause, resume, step, mutate, fork, and delete runs;
// follow per-day results over SSE; scrape per-run telemetry. It is the
// engine of `baatsim serve`; docs/SERVICE.md documents the API and the run
// lifecycle.
type SimService = serve.Server

// SimServiceRunSpec is one simulation's scenario: the JSON body of POST
// /runs, where zero values take the defaults its WithDefaults fills, and
// what baatsim fills from its flags. Its SimConfig and WeatherSequence
// build the engine configuration and the weather for both.
type SimServiceRunSpec = serve.RunSpec

// SimServiceMutation is the JSON body of POST /runs/{id}/mutate: a
// mid-flight scenario change (policy swap, sunshine re-roll, fault-profile
// swap).
type SimServiceMutation = serve.Mutation

// NewSimService builds a service with no runs and no listener. Start it on
// an address, or mount Handler under an existing mux.
func NewSimService() *SimService { return serve.NewServer() }
