// Package units defines the typed physical and economic quantities used
// throughout the ttm-cas modeling framework.
//
// The chip-creation model of Ning et al. (ISCA '23) mixes several unit
// systems: calendar time in weeks, engineering effort in engineer-hours,
// silicon area in mm², wafer throughput in wafers per week, and money in
// USD. Distinct named types keep conversions explicit and prevent the
// classic modeling bug of adding engineer-hours to calendar weeks.
package units

import (
	"fmt"
	"math"
)

// Weeks is a span of calendar time measured in weeks. The paper reports
// all time-to-market values in calendar weeks.
type Weeks float64

// Hours is engineering or machine effort measured in hours.
type Hours float64

// HoursPerWeek is the conversion used when turning engineer-hours into
// calendar time for a single engineer: a standard 40-hour work week.
const HoursPerWeek = 40.0

// Weeks converts effort hours into calendar weeks assuming the given
// number of workers share the effort perfectly in parallel.
// A non-positive worker count is treated as a single worker.
func (h Hours) Weeks(workers int) Weeks {
	if workers <= 0 {
		workers = 1
	}
	return Weeks(float64(h) / (HoursPerWeek * float64(workers)))
}

// MM2 is silicon area in square millimeters.
type MM2 float64

// USD is money in United States dollars.
type USD float64

// Millions returns the value in millions of dollars, for reporting.
func (u USD) Millions() float64 { return float64(u) / 1e6 }

// Billions returns the value in billions of dollars, for reporting.
func (u USD) Billions() float64 { return float64(u) / 1e9 }

// Transistors is a transistor count. Designs in the paper range from
// tens of millions (Raven/PicoRV32 multicore tiles) to billions (A11,
// Zen 2), so a float64 representation is exact far beyond the range
// that matters and composes cleanly with the effort curves.
type Transistors float64

// Millions returns the count in millions of transistors.
func (t Transistors) Millions() float64 { return float64(t) / 1e6 }

// Billions returns the count in billions of transistors.
func (t Transistors) Billions() float64 { return float64(t) / 1e9 }

// WafersPerWeek is foundry throughput. Table 2 of the paper quotes
// kilo-wafers per month; KWPM converts from that convention using the
// average Gregorian month length of 365.25/12/7 weeks.
type WafersPerWeek float64

// WeeksPerMonth is the mean number of weeks in a month, used to convert
// the industry-standard "wafers per month" quotes into per-week rates.
const WeeksPerMonth = 365.25 / 12.0 / 7.0

// KWPM converts a throughput quoted in kilo-wafers per month (the unit
// of the paper's Table 2) into wafers per week.
func KWPM(kw float64) WafersPerWeek {
	return WafersPerWeek(kw * 1000.0 / WeeksPerMonth)
}

// KWPMValue reports the rate back in kilo-wafers per month for display.
func (r WafersPerWeek) KWPMValue() float64 {
	return float64(r) * WeeksPerMonth / 1000.0
}

// Wafers is a (possibly fractional, in expectation) count of wafers.
type Wafers float64

// DefectsPerCM2 is a fabrication defect density, the D0 parameter of the
// negative-binomial yield model.
type DefectsPerCM2 float64

// PerMM2 converts the defect density to defects per mm², matching die
// areas expressed in MM2.
func (d DefectsPerCM2) PerMM2() float64 { return float64(d) / 100.0 }

// MTrPerMM2 is a transistor density in millions of transistors per mm².
type MTrPerMM2 float64

// Area returns the silicon area required to place t transistors at this
// density. Density must be positive; a non-positive density yields +Inf
// area, which downstream code treats as an infeasible design point.
func (d MTrPerMM2) Area(t Transistors) MM2 {
	if d <= 0 {
		return MM2(math.Inf(1))
	}
	return MM2(t.Millions() / float64(d))
}

// Format helpers keep report code terse.

// FmtUSD renders dollars with automatic M/B scaling, e.g. "$6.8M".
func FmtUSD(u USD) string {
	switch v := float64(u); {
	case math.Abs(v) >= 1e9:
		return fmt.Sprintf("$%.2fB", v/1e9)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("$%.1fM", v/1e6)
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("$%.0fK", v/1e3)
	default:
		return fmt.Sprintf("$%.0f", v)
	}
}
