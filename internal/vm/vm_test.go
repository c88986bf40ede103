package vm

import (
	"testing"
	"time"

	"github.com/green-dc/baat/internal/workload"
)

func batchVM(t *testing.T) *VM {
	t.Helper()
	p, err := workload.ProfileFor(workload.KMeans)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New("vm-1", p)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func serviceVM(t *testing.T) *VM {
	t.Helper()
	p, err := workload.ProfileFor(workload.WebServing)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New("vm-svc", p)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewValidation(t *testing.T) {
	p, _ := workload.ProfileFor(workload.KMeans)
	if _, err := New("", p); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := New("x", workload.Profile{}); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestBatchRunsToCompletion(t *testing.T) {
	v := batchVM(t)
	total := v.Profile().WorkUnits
	var done float64
	for i := 0; i < 10000 && v.State() != Completed; i++ {
		done += v.Advance(time.Minute, 1.0)
	}
	if v.State() != Completed {
		t.Fatal("batch job never completed")
	}
	if diff := done - total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("work done = %v, want %v", done, total)
	}
	// A completed VM demands nothing and does no more work.
	if v.Utilization() != 0 {
		t.Error("completed VM still demands CPU")
	}
	if v.Advance(time.Minute, 1.0) != 0 {
		t.Error("completed VM still does work")
	}
}

func TestServiceNeverCompletes(t *testing.T) {
	v := serviceVM(t)
	var served float64
	for i := 0; i < 24*60; i++ { // a full day
		served += v.Advance(time.Minute, 1.0)
	}
	if v.State() != Running {
		t.Fatalf("service state = %v, want running", v.State())
	}
	if served <= 0 {
		t.Error("service produced no throughput")
	}
	if v.Progress() != 0 {
		t.Error("service should not track batch progress")
	}
}

func TestSlowerFrequencyMeansLessWork(t *testing.T) {
	fast := batchVM(t)
	slow := batchVM(t)
	var fastDone, slowDone float64
	for i := 0; i < 30; i++ {
		fastDone += fast.Advance(time.Minute, 1.0)
		slowDone += slow.Advance(time.Minute, 0.6)
	}
	if slowDone >= fastDone {
		t.Errorf("slow VM did %v work, fast did %v; DVFS should cost throughput", slowDone, fastDone)
	}
}

func TestPauseResume(t *testing.T) {
	v := batchVM(t)
	if err := v.Pause(); err != nil {
		t.Fatal(err)
	}
	if v.State() != Paused || v.Utilization() != 0 {
		t.Error("paused VM should be idle")
	}
	if v.Advance(time.Minute, 1.0) != 0 || v.Progress() != 0 {
		t.Error("paused VM did work")
	}
	if err := v.Pause(); err != nil {
		t.Error("re-pausing should be idempotent")
	}
	if err := v.Resume(); err != nil {
		t.Fatal(err)
	}
	if v.State() != Running {
		t.Error("resume did not restore running state")
	}
	if err := v.Resume(); err != nil {
		t.Error("re-resuming should be idempotent")
	}
}

func TestMigrationPausesWork(t *testing.T) {
	v := batchVM(t)
	if err := v.BeginMigration(DefaultMigrationTime); err != nil {
		t.Fatal(err)
	}
	if v.State() != Migrating {
		t.Fatalf("state = %v, want migrating", v.State())
	}
	// During migration: no work.
	if v.Advance(time.Minute, 1.0) != 0 {
		t.Error("migrating VM did work")
	}
	// Migration completes after the transfer time, having done no work.
	if v.Advance(time.Minute, 1.0) != 0 || v.Progress() != 0 {
		t.Error("migrating VM did work in its last transfer minute")
	}
	if v.State() != Running {
		t.Errorf("state after transfer = %v, want running", v.State())
	}
}

func TestMigrationStateErrors(t *testing.T) {
	v := batchVM(t)
	if err := v.BeginMigration(0); err == nil {
		t.Error("zero transfer time accepted")
	}
	if err := v.BeginMigration(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := v.BeginMigration(time.Minute); err == nil {
		t.Error("migrating a migrating VM accepted")
	}
	if err := v.Pause(); err == nil {
		t.Error("pausing a migrating VM accepted")
	}
	if err := v.Resume(); err == nil {
		t.Error("resuming a migrating VM accepted")
	}
}

func TestMigrateFromPaused(t *testing.T) {
	v := batchVM(t)
	if err := v.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := v.BeginMigration(time.Minute); err != nil {
		t.Errorf("migrating a paused VM should work: %v", err)
	}
}

func TestZeroSpeedAccruesPause(t *testing.T) {
	v := batchVM(t)
	if v.Advance(time.Minute, 0) != 0 || v.Progress() != 0 {
		t.Error("zero-speed advance did work")
	}
	// The lost minute is a pause, not a completion: the VM stays runnable
	// and does a full minute's work once its host is back.
	if v.State() != Running {
		t.Errorf("state after a zero-speed minute = %v, want running", v.State())
	}
	if fresh := batchVM(t); v.Advance(time.Minute, 1) != fresh.Advance(time.Minute, 1) {
		t.Error("a zero-speed minute changed the work of the next minute")
	}
}

func TestAdvanceNonPositiveDuration(t *testing.T) {
	v := batchVM(t)
	if v.Advance(0, 1) != 0 || v.Advance(-time.Minute, 1) != 0 {
		t.Error("non-positive durations should be no-ops")
	}
}

func TestStateString(t *testing.T) {
	for _, s := range []Lifecycle{Running, Paused, Migrating, Completed} {
		if s.String() == "" {
			t.Errorf("state %d has empty label", s)
		}
	}
	if Lifecycle(9).String() == "" {
		t.Error("unknown state should render")
	}
}
