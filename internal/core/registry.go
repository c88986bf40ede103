package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// PolicySpec is the single serializable identity of a management policy: a
// canonical registry name plus string-typed construction options. It is the
// value that travels through sim.Config (and therefore the checkpoint config
// hash), experiments.Config, serve.RunSpec, and the -policy command-line
// flags; building the live Policy from it always goes through Build.
type PolicySpec struct {
	Name    string            `json:"name"`
	Options map[string]string `json:"options,omitempty"`
}

// Clone returns a deep copy of the spec (the options map is not shared).
func (sp PolicySpec) Clone() PolicySpec {
	out := PolicySpec{Name: sp.Name}
	if len(sp.Options) > 0 {
		out.Options = make(map[string]string, len(sp.Options))
		for k, v := range sp.Options {
			out.Options[k] = v
		}
	}
	return out
}

// Equal reports whether two specs name the same policy with the same
// options. Both sides are compared as-is; normalize first when comparing
// user input against a stored canonical spec.
func (sp PolicySpec) Equal(other PolicySpec) bool {
	if sp.Name != other.Name || len(sp.Options) != len(other.Options) {
		return false
	}
	for k, v := range sp.Options {
		ov, ok := other.Options[k]
		if !ok || ov != v {
			return false
		}
	}
	return true
}

// String renders the spec in the -policy flag syntax: "name" or
// "name,key=value,...", options in sorted key order.
func (sp PolicySpec) String() string {
	if len(sp.Options) == 0 {
		return sp.Name
	}
	keys := sortedKeys(sp.Options)
	var b strings.Builder
	b.WriteString(sp.Name)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s=%s", k, sp.Options[k])
	}
	return b.String()
}

// ParsePolicySpec parses the -policy flag syntax "name[,key=value...]" into
// a (non-normalized) spec.
func ParsePolicySpec(s string) (PolicySpec, error) {
	parts := strings.Split(s, ",")
	sp := PolicySpec{Name: strings.TrimSpace(parts[0])}
	if sp.Name == "" {
		return PolicySpec{}, fmt.Errorf("core: empty policy name")
	}
	for _, part := range parts[1:] {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok || strings.TrimSpace(k) == "" {
			return PolicySpec{}, fmt.Errorf("core: malformed policy option %q (want key=value)", part)
		}
		if sp.Options == nil {
			sp.Options = map[string]string{}
		}
		sp.Options[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return sp, nil
}

// Descriptor describes one registered policy: how to build it and the
// metadata the listing and validation surfaces need.
type Descriptor struct {
	// Build constructs the policy from an already-normalized spec.
	Build func(spec PolicySpec) (Policy, error)
	// Doc is a one-line description for listings.
	Doc string
	// Options documents the accepted option keys (key -> doc). Normalize
	// rejects any option key absent from this map.
	Options map[string]string
	// Display is the human-facing name used in results and tables
	// (e.g. "e-Buff" for "ebuff").
	Display string
	// Aliases are alternate spellings resolved to the canonical name.
	Aliases []string
	// Rank orders listings (Table-4 order for the paper's four schemes);
	// lower ranks first, ties broken by name.
	Rank int
}

// Info is one row of the registry listing.
type Info struct {
	Name    string
	Display string
	Doc     string
	Aliases []string
	Options map[string]string
	Rank    int
}

var registryState struct {
	sync.RWMutex
	descriptors map[string]Descriptor
	aliases     map[string]string // alias -> canonical name
}

// Register adds a policy to the registry under its canonical name. It is
// meant to be called from init (or from a test); it panics on an empty or
// duplicate name, a clashing alias, or a nil Build, because a malformed
// registration is a programming error, not a runtime condition.
func Register(name string, d Descriptor) {
	if name == "" {
		panic("core: Register: empty policy name")
	}
	if name != strings.ToLower(name) {
		panic(fmt.Sprintf("core: Register: policy name %q must be lowercase", name))
	}
	if d.Build == nil {
		panic(fmt.Sprintf("core: Register: policy %q has a nil Build", name))
	}
	registryState.Lock()
	defer registryState.Unlock()
	if registryState.descriptors == nil {
		registryState.descriptors = map[string]Descriptor{}
		registryState.aliases = map[string]string{}
	}
	if _, dup := registryState.descriptors[name]; dup {
		panic(fmt.Sprintf("core: policy %q already registered", name))
	}
	if prev, dup := registryState.aliases[name]; dup {
		panic(fmt.Sprintf("core: policy %q already registered as an alias of %q", name, prev))
	}
	for _, a := range d.Aliases {
		if _, dup := registryState.descriptors[a]; dup {
			panic(fmt.Sprintf("core: alias %q of policy %q already registered as a policy", a, name))
		}
		if prev, dup := registryState.aliases[a]; dup {
			panic(fmt.Sprintf("core: alias %q of policy %q already registered (alias of %q)", a, name, prev))
		}
	}
	registryState.descriptors[name] = d
	for _, a := range d.Aliases {
		registryState.aliases[a] = name
	}
}

// lookup resolves a raw policy name (case-insensitive, aliases allowed) to
// its canonical name and descriptor.
func lookup(raw string) (string, Descriptor, error) {
	name := strings.ToLower(strings.TrimSpace(raw))
	if name == "" {
		return "", Descriptor{}, fmt.Errorf("core: empty policy name")
	}
	registryState.RLock()
	defer registryState.RUnlock()
	if canon, ok := registryState.aliases[name]; ok {
		name = canon
	}
	d, ok := registryState.descriptors[name]
	if !ok {
		return "", Descriptor{}, fmt.Errorf("core: unknown policy %q (known: %s)",
			raw, strings.Join(registeredNamesLocked(), " | "))
	}
	return name, d, nil
}

// registeredNamesLocked lists canonical names in rank order; the caller
// holds at least a read lock.
func registeredNamesLocked() []string {
	names := make([]string, 0, len(registryState.descriptors))
	for n := range registryState.descriptors {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ri := registryState.descriptors[names[i]].Rank
		rj := registryState.descriptors[names[j]].Rank
		if ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	return names
}

// Normalize canonicalizes a spec: the name is lowercased and alias-resolved,
// and every option key is validated against the policy's declared option
// set. Option values are validated by Build, not here.
func Normalize(spec PolicySpec) (PolicySpec, error) {
	name, d, err := lookup(spec.Name)
	if err != nil {
		return PolicySpec{}, err
	}
	norm := PolicySpec{Name: name}
	if len(spec.Options) > 0 {
		norm.Options = make(map[string]string, len(spec.Options))
		for _, k := range sortedKeys(spec.Options) {
			if _, ok := d.Options[k]; !ok {
				if len(d.Options) == 0 {
					return PolicySpec{}, fmt.Errorf("core: policy %q takes no options (got %q)", name, k)
				}
				return PolicySpec{}, fmt.Errorf("core: policy %q has no option %q (known: %s)",
					name, k, strings.Join(sortedKeys(d.Options), " | "))
			}
			norm.Options[k] = spec.Options[k]
		}
	}
	return norm, nil
}

// Build normalizes the spec and constructs the policy through its
// registered builder. This is the single construction path for every
// policy in the system.
func Build(spec PolicySpec) (Policy, error) {
	norm, err := Normalize(spec)
	if err != nil {
		return nil, err
	}
	_, d, err := lookup(norm.Name)
	if err != nil {
		return nil, err
	}
	return d.Build(norm)
}

// Registered lists every registered policy in rank order.
func Registered() []Info {
	registryState.RLock()
	defer registryState.RUnlock()
	names := registeredNamesLocked()
	out := make([]Info, 0, len(names))
	for _, n := range names {
		d := registryState.descriptors[n]
		info := Info{Name: n, Display: d.Display, Doc: d.Doc, Rank: d.Rank}
		info.Aliases = append(info.Aliases, d.Aliases...)
		sort.Strings(info.Aliases)
		if len(d.Options) > 0 {
			info.Options = make(map[string]string, len(d.Options))
			for k, v := range d.Options {
				info.Options[k] = v
			}
		}
		out = append(out, info)
	}
	return out
}

// DisplayName returns the human-facing name for a canonical policy name
// ("ebuff" -> "e-Buff"), or the input itself when unknown.
func DisplayName(name string) string {
	if canon, d, err := lookup(name); err == nil {
		if d.Display != "" {
			return d.Display
		}
		return canon
	}
	return name
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StatefulPolicy is the optional extension a policy implements when it
// carries controller state (hysteresis latches, regulation goals) that must
// survive checkpoint/resume. Snapshot must be deterministic — the simulator
// embeds the bytes in its versioned envelope and byte-compares resumed
// runs — and Restore must reject malformed or out-of-range state loudly.
type StatefulPolicy interface {
	Policy
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// Shared option vocabularies for the BAAT family. Each descriptor merges
// the sets it honors; Normalize enforces them per policy.

var slowdownOptionDocs = map[string]string{
	"floor":         "protective SoC floor in [0, trigger) (default 0.35)",
	"trigger":       "slowdown trigger SoC in (0, 1) (default 0.40)",
	"ddt-threshold": "deep-discharge-time fraction that arms the slowdown (default 0.15)",
	"hysteresis":    "SoC rise above trigger before caps lift (default 0.10)",
	"reserve-time":  "emergency reserve the current limit protects, e.g. 2m (default 2m)",
}

var migrationOptionDocs = map[string]string{
	"migration-time": "VM live-migration pause, e.g. 2m (default 2m)",
}

var plannedOptionDocs = map[string]string{
	"planned-months": "enable planned aging (Eq 7) with this battery service life in months",
	"cycles-per-day": "planned-aging cycle count per day (default 1; needs planned-months)",
}

func mergeOptionDocs(ms ...map[string]string) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// configFromOptions builds a core.Config from the shared BAAT-family option
// vocabulary, starting from DefaultConfig. Unknown keys are rejected (the
// caller should already have normalized the spec, so hitting one here means
// a descriptor declared an option this parser does not implement).
func configFromOptions(opts map[string]string) (Config, error) {
	cfg := DefaultConfig()
	for _, k := range sortedKeys(opts) {
		v := opts[k]
		var err error
		switch k {
		case "floor":
			cfg.Slowdown.FloorSoC, err = parseUnitFraction(v)
		case "trigger":
			cfg.Slowdown.TriggerSoC, err = parseUnitFraction(v)
		case "ddt-threshold":
			cfg.Slowdown.DDTThreshold, err = parseUnitFraction(v)
		case "hysteresis":
			cfg.Slowdown.Hysteresis, err = parseUnitFraction(v)
		case "reserve-time":
			cfg.Slowdown.ReserveTime, err = time.ParseDuration(v)
		case "migration-time":
			cfg.MigrationTime, err = time.ParseDuration(v)
		case "planned-months":
			var months float64
			months, err = strconv.ParseFloat(v, 64)
			// The bound keeps the service life inside time.Duration; an
			// out-of-range float-to-integer conversion is
			// implementation-defined.
			life := months * 30 * 24 * float64(time.Hour)
			if err == nil && !(life > 0 && life < math.MaxInt64) {
				err = fmt.Errorf("must be > 0 and below %.1f (the longest time.Duration)", math.MaxInt64/(30*24*float64(time.Hour)))
			}
			if err == nil {
				cfg.Planned.Enabled = true
				cfg.Planned.ServiceLife = time.Duration(life)
				if cfg.Planned.CyclesPerDay == 0 {
					cfg.Planned.CyclesPerDay = 1
				}
			}
		case "cycles-per-day":
			var cycles float64
			cycles, err = strconv.ParseFloat(v, 64)
			if err == nil && !(cycles > 0 && cycles <= math.MaxFloat64) {
				err = fmt.Errorf("must be positive and finite")
			}
			if err == nil {
				cfg.Planned.CyclesPerDay = cycles
			}
		default:
			return Config{}, fmt.Errorf("core: option %q not handled by the config parser", k)
		}
		if err != nil {
			return Config{}, fmt.Errorf("core: option %s=%q: %v", k, v, err)
		}
	}
	if cfg.Planned.CyclesPerDay != 0 && !cfg.Planned.Enabled {
		return Config{}, fmt.Errorf("core: option cycles-per-day requires planned-months")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

func parseUnitFraction(v string) (float64, error) {
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(x >= 0 && x <= 1) {
		return 0, fmt.Errorf("must be in [0, 1]")
	}
	return x, nil
}
