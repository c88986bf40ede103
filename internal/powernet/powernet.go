// Package powernet models the power-delivery path of the prototype
// (DSN'15 Fig 11, module 4): the power switcher that selects among solar,
// battery, and utility feeds, and the conversion losses of the charger and
// DC-AC inverter. The sensor chain's Table 2 samples go straight into each
// node's aging tracker, which folds them into its metrics as they arrive,
// so no reading or power-table row is kept.
package powernet

import "fmt"

// Source identifies a power feed the switcher can select.
type Source int

// Power sources the prototype's switch module arbitrates (§V-A-4).
const (
	SourceNone Source = iota
	SourceSolar
	SourceBattery
	SourceUtility
	SourceMixed // solar plus battery within one interval
)

// String returns the source name.
func (s Source) String() string {
	switch s {
	case SourceNone:
		return "none"
	case SourceSolar:
		return "solar"
	case SourceBattery:
		return "battery"
	case SourceUtility:
		return "utility"
	case SourceMixed:
		return "solar+battery"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Losses captures the conversion efficiencies along the power path.
type Losses struct {
	// InverterEfficiency applies to battery → server AC delivery.
	InverterEfficiency float64
	// ChargerEfficiency applies to solar/utility → battery charging.
	ChargerEfficiency float64
	// SolarDirectEfficiency applies to solar → server direct feed.
	SolarDirectEfficiency float64
}

// DefaultLosses returns typical small-system conversion efficiencies.
func DefaultLosses() Losses {
	return Losses{
		InverterEfficiency:    0.90,
		ChargerEfficiency:     0.93,
		SolarDirectEfficiency: 0.95,
	}
}

// Validate checks that efficiencies are physical.
func (l Losses) Validate() error {
	for _, e := range []struct {
		name string
		v    float64
	}{
		{"inverter", l.InverterEfficiency},
		{"charger", l.ChargerEfficiency},
		{"solar-direct", l.SolarDirectEfficiency},
	} {
		if e.v <= 0 || e.v > 1 {
			return fmt.Errorf("powernet: %s efficiency must be in (0, 1], got %v", e.name, e.v)
		}
	}
	return nil
}
