// Package powernet models the power-delivery path of the prototype
// (DSN'15 Fig 11, module 4): the power switcher that selects among solar,
// battery, and utility feeds, the conversion losses of the charger and
// DC-AC inverter, and the Reading the sensor chain (front sensors + DAQ)
// delivers as one row of the per-battery power table of Table 2. The
// aging tracker folds each sample into its metrics as it arrives, so a
// node keeps only its newest Reading, not the table's history.
package powernet

import (
	"fmt"
	"time"

	"github.com/green-dc/baat/internal/units"
)

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

// Quality flags how much a recorded reading can be trusted. The sensor
// chain (front sensor + DAQ) marks rows it delivered under a known fault —
// frozen, noisy, or flagged-invalid samples — so downstream consumers can
// weigh or discard them.
type Quality int

// Reading trust levels.
const (
	// QualityGood is a clean sample (the zero value).
	QualityGood Quality = iota
	// QualitySuspect is a delivered but corrupted sample (stuck or noisy
	// sensor): numerically plausible, not to be trusted.
	QualitySuspect
	// QualityBad is a sample the DAQ flagged invalid (non-finite or
	// implausible values); its numeric fields are sanitized placeholders.
	QualityBad
)

// String returns the quality label.
func (q Quality) String() string {
	switch q {
	case QualityGood:
		return "good"
	case QualitySuspect:
		return "suspect"
	case QualityBad:
		return "bad"
	default:
		return fmt.Sprintf("Quality(%d)", int(q))
	}
}

// Reading is one sensor-table row (Table 2): the data each battery's front
// sensor reports to the BAAT controller.
type Reading struct {
	// At is the simulation time of the sample.
	At time.Duration
	// Current is terminal current (positive = discharging).
	Current units.Ampere
	// Voltage is the terminal voltage under the sampled load.
	Voltage units.Volt
	// Temperature is the battery case temperature.
	Temperature units.Celsius
	// SoC is the state of charge the controller derives from voltage.
	SoC float64
	// Source is the feed powering the attached server this interval.
	Source Source
	// Quality flags how trustworthy the row is (QualityGood unless the
	// sensor chain was faulted when it was sampled).
	Quality Quality
}
