package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/vm"
)

// span is one traced interval, recorded from the benchmark's own code around
// a call into one of the simulator's modules.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"` // since the tracer was created
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the enclosing span, -1 for none
	// ChildNS is the part of the span that child spans and folded PlaceVM
	// calls cover; the span's self time is its duration minus ChildNS.
	ChildNS int64 `json:"child_ns"`
	// PlaceVM calls are too many to keep one span each (a stressed fleet
	// retries its whole backlog every control period), so they are counted
	// and timed on the span that encloses them.
	PlaceCalls int   `json:"place_vm_calls,omitempty"`
	PlaceNoCap int   `json:"place_vm_no_capacity,omitempty"`
	PlaceNS    int64 `json:"place_vm_ns,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. Nested spans (a simulated day and the policy
// calls inside it) use the open-span stack and must come from one goroutine;
// record takes an explicit parent and may be called from any goroutine. A nil
// tracer records nothing.
type tracer struct {
	id       string
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
	open  []int
}

// tracers maps a tracer's id to the tracer, so that a decorator policy the
// simulator builds from a spec of strings can find where to record.
var (
	tracers   sync.Map // id -> *tracer
	tracerIDs atomic.Int64
)

func newTracer(workload string) *tracer {
	t := &tracer{id: strconv.FormatInt(tracerIDs.Add(1), 10), workload: workload, epoch: time.Now()}
	tracers.Store(t.id, t)
	return t
}

// push opens a span nested in the innermost open one.
func (t *tracer) push(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Start: t.now(), End: -1, Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// pop closes the innermost open span, which must be id, and charges its
// duration to its parent.
func (t *tracer) pop(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = t.now()
	t.open = t.open[:len(t.open)-1]
	if s.Parent >= 0 {
		t.spans[s.Parent].ChildNS += s.End - s.Start
	}
}

// record appends a finished span with an explicit parent.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Workload: t.workload,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent})
	return len(t.spans) - 1
}

// finish sets the end of a span opened by record.
func (t *tracer) finish(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(end.Sub(t.epoch))
}

// foldPlace charges one PlaceVM call to the innermost open span.
func (t *tracer) foldPlace(d time.Duration, noCapacity bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.open) == 0 {
		return
	}
	s := &t.spans[t.open[len(t.open)-1]]
	s.PlaceCalls++
	s.PlaceNS += int64(d)
	s.ChildNS += int64(d)
	if noCapacity {
		s.PlaceNoCap++
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// timedPolicyName is the registry name of the decorator that times another
// policy's hooks. Its options name the decorated policy and the tracer.
const timedPolicyName = "bench-timed"

func init() {
	core.Register(timedPolicyName, core.Descriptor{
		Doc: "benchmark decorator: records spans around another policy's hooks",
		Options: map[string]string{
			"inner":  "registry name of the decorated policy",
			"tracer": "id of the benchmark tracer that records the spans",
		},
		Rank: 1 << 20,
		Build: func(spec core.PolicySpec) (core.Policy, error) {
			tr, ok := tracers.Load(spec.Options["tracer"])
			if !ok {
				return nil, fmt.Errorf("%s: no tracer %q", timedPolicyName, spec.Options["tracer"])
			}
			inner, err := core.Build(core.PolicySpec{Name: spec.Options["inner"]})
			if err != nil {
				return nil, err
			}
			p := &timedPolicy{inner: inner, tr: tr.(*tracer)}
			if sp, ok := inner.(core.StatefulPolicy); ok {
				return &timedStatefulPolicy{timedPolicy: p, state: sp}, nil
			}
			return p, nil
		},
	})
}

// timedSpec wraps a policy name in the decorator recording to tr.
func timedSpec(inner string, tr *tracer) core.PolicySpec {
	return core.PolicySpec{Name: timedPolicyName, Options: map[string]string{"inner": inner, "tracer": tr.id}}
}

// timedPolicy forwards every call to the decorated policy unchanged and
// records how long the hooks took.
type timedPolicy struct {
	inner core.Policy
	tr    *tracer
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) PlaceVM(ctx *core.Context, v *vm.VM) (*node.Node, error) {
	start := time.Now()
	n, err := p.inner.PlaceVM(ctx, v)
	p.tr.foldPlace(time.Since(start), errors.Is(err, core.ErrNoCapacity))
	return n, err
}

func (p *timedPolicy) Control(ctx *core.Context) error {
	id := p.tr.push("core.control")
	err := p.inner.Control(ctx)
	p.tr.pop(id)
	return err
}

// timedStatefulPolicy keeps the decorated policy's checkpoint state visible
// to the simulator.
type timedStatefulPolicy struct {
	*timedPolicy
	state core.StatefulPolicy
}

func (p *timedStatefulPolicy) Snapshot() ([]byte, error) { return p.state.Snapshot() }
func (p *timedStatefulPolicy) Restore(data []byte) error { return p.state.Restore(data) }
