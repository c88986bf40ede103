package core

// Contract tests for the policy registry: spec parsing and normalization,
// alias resolution, option-key and option-value validation, listing order,
// and the duplicate-registration panic. These pin the exact error and panic
// messages the control plane's error contract surfaces to clients.

import (
	"strings"
	"testing"
	"time"
)

func TestParsePolicySpec(t *testing.T) {
	tests := []struct {
		in   string
		want PolicySpec
	}{
		{"baat", PolicySpec{Name: "baat"}},
		{"ebuff", PolicySpec{Name: "ebuff"}},
		{"baat,floor=0.25", PolicySpec{Name: "baat", Options: map[string]string{"floor": "0.25"}}},
		{"baat, floor = 0.25 , trigger=0.4", PolicySpec{Name: "baat", Options: map[string]string{"floor": "0.25", "trigger": "0.4"}}},
		{"baat,,floor=0.25", PolicySpec{Name: "baat", Options: map[string]string{"floor": "0.25"}}},
	}
	for _, tt := range tests {
		got, err := ParsePolicySpec(tt.in)
		if err != nil {
			t.Errorf("ParsePolicySpec(%q): %v", tt.in, err)
			continue
		}
		if !got.Equal(tt.want) {
			t.Errorf("ParsePolicySpec(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
	for _, bad := range []string{"", " ", ",floor=0.25", "baat,floor", "baat,=0.25"} {
		if _, err := ParsePolicySpec(bad); err == nil {
			t.Errorf("ParsePolicySpec(%q) accepted", bad)
		}
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	sp := PolicySpec{Name: "baat", Options: map[string]string{"trigger": "0.4", "floor": "0.25"}}
	if got, want := sp.String(), "baat,floor=0.25,trigger=0.4"; got != want {
		t.Fatalf("String() = %q, want %q (sorted keys)", got, want)
	}
	back, err := ParsePolicySpec(sp.String())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(sp) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, sp)
	}
}

func TestNormalizeAliasesAndCase(t *testing.T) {
	for alias, canon := range map[string]string{
		"e-buff": "ebuff",
		"EBUFF":  "ebuff",
		"baats":  "baat-s",
		"baath":  "baat-h",
		"BAAT":   "baat",
		"baatf":  "baat-f",
		" baat ": "baat",
	} {
		norm, err := Normalize(PolicySpec{Name: alias})
		if err != nil {
			t.Errorf("Normalize(%q): %v", alias, err)
			continue
		}
		if norm.Name != canon {
			t.Errorf("Normalize(%q).Name = %q, want %q", alias, norm.Name, canon)
		}
	}
}

func TestNormalizeRejectsUnknownPolicy(t *testing.T) {
	_, err := Normalize(PolicySpec{Name: "spicy"})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown policy "spicy"`) || !strings.Contains(msg, "known:") {
		t.Errorf("error %q does not name the policy and the known set", msg)
	}
	// The known set is listed in Table 4 rank order.
	if !strings.Contains(msg, "ebuff | baat-s | baat-h | baat | baat-f") {
		t.Errorf("error %q does not list policies in rank order", msg)
	}
}

func TestNormalizeRejectsUnknownOptionKey(t *testing.T) {
	_, err := Normalize(PolicySpec{Name: "baat", Options: map[string]string{"depth": "0.5"}})
	if err == nil {
		t.Fatal("unknown option key accepted")
	}
	if !strings.Contains(err.Error(), `policy "baat" has no option "depth"`) {
		t.Errorf("error %q does not name the bad key", err)
	}
	// A policy with no options at all says so rather than listing nothing.
	_, err = Normalize(PolicySpec{Name: "ebuff", Options: map[string]string{"floor": "0.2"}})
	if err == nil {
		t.Fatal("option on option-less policy accepted")
	}
	if !strings.Contains(err.Error(), `policy "ebuff" takes no options`) {
		t.Errorf("error %q does not state ebuff takes no options", err)
	}
}

func TestBuildValidatesOptionValues(t *testing.T) {
	bad := []PolicySpec{
		{Name: "baat", Options: map[string]string{"floor": "1.5"}},
		{Name: "baat", Options: map[string]string{"floor": "zero"}},
		{Name: "baat", Options: map[string]string{"reserve-time": "2 bananas"}},
		{Name: "baat", Options: map[string]string{"planned-months": "-3"}},
		{Name: "baat", Options: map[string]string{"cycles-per-day": "2"}}, // needs planned-months
		{Name: "baat", Options: map[string]string{"floor": "0.5", "trigger": "0.4"}},
	}
	for _, sp := range bad {
		if _, err := Build(sp); err == nil {
			t.Errorf("Build(%v) accepted an invalid option value", sp)
		}
	}
	good := PolicySpec{Name: "baat", Options: map[string]string{
		"floor": "0.25", "trigger": "0.45", "hysteresis": "0.05",
		"reserve-time": "3m", "migration-time": "90s",
		"planned-months": "12", "cycles-per-day": "2",
	}}
	p, err := Build(good)
	if err != nil {
		t.Fatalf("Build(%v): %v", good, err)
	}
	if p.Name() != "BAAT" {
		t.Errorf("built policy names itself %q, want BAAT", p.Name())
	}
}

// TestBuildRejectsNonFinite: every option value that becomes a float must
// be a finite number in range, and the error must name the option. A
// range check written as x < lo || x > hi lets NaN through, and an
// out-of-range float-to-Duration conversion is implementation-defined.
func TestBuildRejectsNonFinite(t *testing.T) {
	cases := []struct {
		spec, wantErr string
	}{
		{"baat,floor=NaN", "option floor"},
		{"baat,trigger=NaN", "option trigger"},
		{"baat,ddt-threshold=NaN", "option ddt-threshold"},
		{"baat,hysteresis=NaN", "option hysteresis"},
		{"peak-shave,floor=NaN", "option floor"},
		{"baat-f,low-sun=NaN", "option low-sun"},
		{"baat-f,tighten=NaN", "option tighten"},
		{"baat,planned-months=6,cycles-per-day=NaN", "option cycles-per-day"},
		{"baat,planned-months=6,cycles-per-day=+Inf", "option cycles-per-day"},
		{"baat,planned-months=NaN", "option planned-months"},
		{"baat,planned-months=+Inf", "option planned-months"},
		{"baat,planned-months=1e300", "option planned-months"},
		{"baat,planned-months=3559", "option planned-months"},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			sp, err := ParsePolicySpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Build(sp)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Build(%q) = %v, want an error naming %q", tc.spec, err, tc.wantErr)
			}
		})
	}
}

func TestConfigFromOptionsAppliesValues(t *testing.T) {
	cfg, err := configFromOptions(map[string]string{
		"floor":          "0.2",
		"trigger":        "0.5",
		"reserve-time":   "4m",
		"migration-time": "30s",
		"planned-months": "6",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Slowdown.FloorSoC != 0.2 || cfg.Slowdown.TriggerSoC != 0.5 {
		t.Errorf("floor/trigger = %v/%v, want 0.2/0.5", cfg.Slowdown.FloorSoC, cfg.Slowdown.TriggerSoC)
	}
	if cfg.Slowdown.ReserveTime != 4*time.Minute || cfg.MigrationTime != 30*time.Second {
		t.Errorf("reserve/migration = %v/%v", cfg.Slowdown.ReserveTime, cfg.MigrationTime)
	}
	if !cfg.Planned.Enabled || cfg.Planned.ServiceLife != time.Duration(6*30*24)*time.Hour || cfg.Planned.CyclesPerDay != 1 {
		t.Errorf("planned = %+v, want enabled, 6 months, 1 cycle/day", cfg.Planned)
	}
}

func TestRegisteredListsTable4Order(t *testing.T) {
	infos := Registered()
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
	}
	want := []string{"ebuff", "baat-s", "baat-h", "baat", "baat-f"}
	if len(names) < len(want) {
		t.Fatalf("Registered() = %v, want at least %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Registered() order = %v, want prefix %v", names, want)
		}
	}
	for _, info := range infos {
		if info.Display == "" || info.Doc == "" {
			t.Errorf("policy %q registered without display name or doc", info.Name)
		}
	}
}

func TestDisplayName(t *testing.T) {
	for in, want := range map[string]string{
		"ebuff":  "e-Buff",
		"baat-s": "BAAT-s",
		"baat-h": "BAAT-h",
		"baat":   "BAAT",
		"baat-f": "BAAT-f",
		"e-buff": "e-Buff", // alias resolves
		"wat":    "wat",    // unknown passes through
	} {
		if got := DisplayName(in); got != want {
			t.Errorf("DisplayName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	mustPanic := func(wantSub string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("no panic (want one containing %q)", wantSub)
				return
			}
			if msg := r.(string); !strings.Contains(msg, wantSub) {
				t.Errorf("panic %q does not contain %q", msg, wantSub)
			}
		}()
		f()
	}
	dummy := Descriptor{
		Build: func(PolicySpec) (Policy, error) { return &eBuff{}, nil },
	}
	mustPanic(`core: policy "baat" already registered`, func() { Register("baat", dummy) })
	mustPanic(`already registered as an alias`, func() { Register("baats", dummy) })
	mustPanic("empty policy name", func() { Register("", dummy) })
	mustPanic("must be lowercase", func() { Register("BAAT2", dummy) })
	mustPanic("nil Build", func() { Register("nobuild", Descriptor{}) })
}
