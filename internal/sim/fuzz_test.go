package sim

// FuzzResume drives the checkpoint decoder (ResumeFrom) with mutated
// envelopes. The contract under fuzz: ResumeFrom never panics, and an
// input is either rejected with an error, leaving the simulator as it was,
// or accepted in a form that round-trips — the accepted state's
// checkpoint, resumed into a fresh simulator, checkpoints to the same
// bytes. The seeds are a fresh three-node chaos simulator's day-0 and
// day-1 checkpoints, written by the test itself so no multi-KB corpus file
// is committed.
//
// CI runs a 5-second smoke via check.sh; hunt longer locally with:
//
//	go test ./internal/sim -run=NONE -fuzz='^FuzzResume$' -fuzztime=5m -fuzzminimizetime=0
//
// Keep -fuzzminimizetime=0: with multi-KB inputs the default minimization
// of every new interesting input stalls the run at 0 execs/s.

import (
	"bytes"
	"testing"

	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/solar"
)

// fuzzResumeSim builds the three-node chaos simulator every fuzz input
// resumes into.
func fuzzResumeSim(tb testing.TB) *Simulator {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.Node.UtilityBackup = true
	fcfg, err := faults.Profile("chaos", 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Faults = fcfg
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func FuzzResume(f *testing.F) {
	src := fuzzResumeSim(f)
	for day := 0; day <= 1; day++ {
		if day > 0 {
			if _, err := src.RunDay(solar.Cloudy); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := src.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Every input resumes into an identical fresh simulator, so its
	// checkpoint is computed once.
	var pristine bytes.Buffer
	if err := fuzzResumeSim(f).Checkpoint(&pristine); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzResumeSim(t)
		if err := s.ResumeFrom(bytes.NewReader(data)); err != nil {
			var after bytes.Buffer
			if err := s.Checkpoint(&after); err != nil {
				t.Fatalf("simulator does not serialize after a rejected resume: %v", err)
			}
			if !bytes.Equal(pristine.Bytes(), after.Bytes()) {
				t.Fatalf("rejected resume (%v) changed the simulator", err)
			}
			return
		}
		var first bytes.Buffer
		if err := s.Checkpoint(&first); err != nil {
			t.Fatalf("accepted checkpoint does not re-serialize: %v", err)
		}
		again := fuzzResumeSim(t)
		if err := again.ResumeFrom(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("re-serialized checkpoint rejected: %v", err)
		}
		var second bytes.Buffer
		if err := again.Checkpoint(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("accepted checkpoint does not round-trip:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
