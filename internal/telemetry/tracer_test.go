package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{At: time.Duration(i), Type: EventMigration})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(6 + i)
		if ev.Seq != wantSeq {
			t.Errorf("event %d seq = %d, want %d (oldest-first after wrap)", i, ev.Seq, wantSeq)
		}
		if ev.At != time.Duration(6+i) {
			t.Errorf("event %d at = %d, want %d", i, ev.At, 6+i)
		}
	}
	if got := tr.Total(); got != 10 {
		t.Errorf("total = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Event{Type: EventDVFSCap, Node: "node-1"})
	tr.Record(Event{Type: EventDVFSRestore, Node: "node-1"})
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("retained %d events, want 2", len(evs))
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Errorf("sequence numbers = %d,%d, want 0,1", evs[0].Seq, evs[1].Seq)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	if cap(tr.buf) != DefaultTraceCapacity {
		t.Errorf("capacity = %d, want %d", cap(tr.buf), DefaultTraceCapacity)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Event{Type: EventMigration})
				_ = tr.Events()
			}
		}()
	}
	wg.Wait()
	if got := tr.Total(); got != 8*500 {
		t.Errorf("total = %d, want %d", got, 8*500)
	}
	evs := tr.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("events not in sequence order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}
