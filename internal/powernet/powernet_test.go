package powernet

import (
	"testing"
)

func TestLossesValidate(t *testing.T) {
	if err := DefaultLosses().Validate(); err != nil {
		t.Fatalf("default losses invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Losses)
	}{
		{"zero inverter", func(l *Losses) { l.InverterEfficiency = 0 }},
		{"charger above one", func(l *Losses) { l.ChargerEfficiency = 1.1 }},
		{"negative solar", func(l *Losses) { l.SolarDirectEfficiency = -0.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			l := DefaultLosses()
			tt.mutate(&l)
			if err := l.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestSourceString(t *testing.T) {
	for _, s := range []Source{SourceNone, SourceSolar, SourceBattery, SourceUtility, SourceMixed} {
		if s.String() == "" {
			t.Errorf("source %d has empty label", s)
		}
	}
	if Source(42).String() == "" {
		t.Error("unknown source should render")
	}
}
