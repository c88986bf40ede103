package main

// Cross-flag validation: combinations that cannot mean what the user
// intended must die with a clear error before any simulator state exists,
// instead of silently overriding one flag with another or failing later
// with a config-hash mismatch. The scenario flags go through the run
// spec's normalization, which keeps an explicit zero and applies none of
// the serve daemon's size caps.

import (
	"strings"
	"testing"
)

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		// wantErr is a substring of the expected error; empty means the
		// combination is legal.
		wantErr string
		// check, when set, inspects the flags of a legal combination.
		check func(t *testing.T, f *cliFlags)
	}{
		{name: "defaults", args: nil},
		{name: "plain run", args: []string{"-policy", "ebuff", "-days", "3", "-weather", "cloudy"}},
		{name: "battery mix alone", args: []string{"-battery-mix", "leadacid=0.5,lfp=0.5"}},
		{name: "battery model alone", args: []string{"-battery-model", "lfp"}},
		{
			name:    "mix and model together",
			args:    []string{"-battery-mix", "lfp=1", "-battery-model", "lfp"},
			wantErr: "mutually exclusive",
		},
		{
			name:    "resume with until-eol",
			args:    []string{"-resume", "ck.json", "-until-eol"},
			wantErr: "-until-eol",
		},
		{
			name:    "until-eol with checkpointing",
			args:    []string{"-until-eol", "-checkpoint-every", "2", "-checkpoint", "ck.json"},
			wantErr: "fixed-days",
		},
		{
			name:    "checkpoint cadence without file",
			args:    []string{"-checkpoint-every", "2"},
			wantErr: "requires -checkpoint",
		},
		{
			name:    "checkpoint file without cadence",
			args:    []string{"-checkpoint", "ck.json"},
			wantErr: "requires -checkpoint-every",
		},
		{
			name:    "negative checkpoint cadence",
			args:    []string{"-checkpoint-every", "-3", "-checkpoint", "ck.json"},
			wantErr: "must be positive",
		},
		{
			name:    "telemetry hold without endpoint",
			args:    []string{"-telemetry-hold", "5s"},
			wantErr: "-telemetry-addr",
		},
		{name: "telemetry hold with endpoint", args: []string{"-telemetry-addr", ":0", "-telemetry-hold", "5s"}},
		{name: "checkpointed run", args: []string{"-days", "3", "-checkpoint-every", "3", "-checkpoint", "ck.json"}},
		{name: "resume run", args: []string{"-resume", "ck.json", "-days", "6"}},
		{name: "resume with battery mix", args: []string{"-resume", "ck.json", "-battery-mix", "lfp=1"}},
		{
			name: "seed zero stays zero",
			args: []string{"-seed", "0"},
			check: func(t *testing.T, f *cliFlags) {
				if f.spec.Seed != 0 {
					t.Errorf("-seed 0 parsed as seed %d", f.spec.Seed)
				}
			},
		},
		{name: "zero days", args: []string{"-days", "0"}, wantErr: "days must be positive"},
		{name: "zero nodes", args: []string{"-nodes", "0"}, wantErr: "nodes must be positive"},
		{name: "beyond the daemon's caps", args: []string{"-nodes", "70000", "-workers", "128", "-days", "4000", "-jobs", "70000"}},
		// An end-of-life run reads neither -days nor -weather, so neither
		// is checked; the -sunshine it draws its mix weather at is.
		{name: "until-eol ignores days and weather", args: []string{"-until-eol", "-days", "0", "-weather", "bogus"}},
		{name: "until-eol checks sunshine", args: []string{"-until-eol", "-weather", "sunny", "-sunshine", "2"}, wantErr: "sunshine fraction"},
		{
			name:    "stray positional argument",
			args:    []string{"server"},
			wantErr: "baatsim serve",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parseFlags(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFlags(%q) = %v, want success", tc.args, err)
				}
				if tc.check != nil {
					tc.check(t, f)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseFlags(%q) accepted an inconsistent combination", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseFlags(%q) = %q, want mention of %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsNonFinite: a NaN or infinite number on the command line
// fails before the run starts, with an error that names the value's
// check, instead of running, silently meaning "off", or failing later in
// the config hash or at the first checkpoint.
func TestRunRejectsNonFinite(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-battery-mix", "leadacid=NaN,lfp=NaN"}, "share 0: fraction"},
		{[]string{"-battery-mix", "leadacid=0.5,lfp=NaN"}, "share 1: fraction"},
		{[]string{"-weather", "mix", "-sunshine", "NaN"}, "sunshine fraction"},
		{[]string{"-accel", "NaN"}, "AccelFactor"},
		{[]string{"-accel", "+Inf"}, "AccelFactor"},
		{[]string{"-solar-scale", "NaN"}, "solar: scale"},
		{[]string{"-policy", "baat,floor=NaN"}, "option floor"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			// One node for one day keeps a wrongly accepted run short.
			err := run(append([]string{"-nodes", "1", "-days", "1"}, tc.args...))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want an error mentioning %q", tc.args, err, tc.wantErr)
			}
		})
	}
}
