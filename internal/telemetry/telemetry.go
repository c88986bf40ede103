// Package telemetry is the observability layer of the BAAT reproduction:
// a lock-cheap registry of named counters, gauges, and fixed-bucket
// histograms, plus a ring-buffer tracer for structured controller events,
// exposed over HTTP in Prometheus text format alongside net/http/pprof.
//
// The paper's entire evaluation is built on six months of battery
// observation (DSN'15 Figs 3–10: NAT, CF, PC, DDT, DR drift, migration
// counts, DVFS caps); this package is the simulated analogue of that
// sensing pipeline. Policies, the simulation engine, and the battery model
// all record through a *Recorder so that an experiment can ask, e.g., how
// many migrations BAAT issued versus e-Buff on an identical trace — the
// §VI-B comparison — straight from counters instead of ad-hoc prints.
//
// # Design
//
// All hot-path operations are a nil check plus an atomic update:
//
//   - A nil *Recorder (the zero value of the field every config embeds) is
//     fully functional and records nothing, so un-instrumented runs pay
//     only a pointer test.
//   - Recorder.Counter/Gauge/Histogram return handles that are themselves
//     nil-safe; instrumented code captures them once at construction and
//     the per-tick cost is a single atomic add with no map lookup and no
//     allocation.
//   - The event tracer keeps the last N structured events (migration
//     issued, DVFS cap applied, DoD target adjusted, battery end-of-life,
//     fault injected, degraded mode entered or left) under a mutex; events
//     are cold-path by definition.
//
// Metric and event names are centralized in names.go and documented with
// units and paper-figure mappings in docs/OBSERVABILITY.md.
//
// # Serving
//
// Recorder.Handler returns an http.Handler with three endpoints:
//
//	/metrics      Prometheus text exposition of every registered metric
//	/events       JSON dump of the event ring (oldest first)
//	/debug/pprof  the standard runtime profiles
//
// cmd/baatsim and cmd/baatbench mount it behind -telemetry-addr.
package telemetry
