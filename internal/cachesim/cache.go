// Package cachesim is the cache-performance substrate for the paper's
// cache-sizing case study (Section 6.1). The paper drives its IPC model
// with published SPEC CPU2000 miss-rate tables (Cantin & Hill); those
// tables are not redistributable, so this package regenerates
// equivalent data from first principles: a trace-driven set-associative
// cache simulator, a synthetic workload generator with SPEC-like
// locality structure, and a simple in-order IPC model on top.
//
// Only the *shape* of the miss curves matters to the case study —
// monotone, diminishing-return miss rates versus capacity with a
// working-set knee — and that shape is a property of bounded working
// sets plus reuse, which the generator reproduces by construction.
package cachesim

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity; must be a power of two.
	SizeBytes int
	// LineBytes is the cache line size; zero means 64.
	LineBytes int
	// Ways is the set associativity; zero means 4.
	Ways int
}

// Defaults for unset fields.
const (
	DefaultLineBytes = 64
	DefaultWays      = 4
)

func (c Config) withDefaults() Config {
	if c.LineBytes == 0 {
		c.LineBytes = DefaultLineBytes
	}
	if c.Ways == 0 {
		c.Ways = DefaultWays
	}
	return c
}

// Validate checks the configuration's structural constraints.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.SizeBytes <= 0 || bits.OnesCount(uint(c.SizeBytes)) != 1 {
		return fmt.Errorf("cachesim: size %d must be a positive power of two", c.SizeBytes)
	}
	if c.LineBytes <= 0 || bits.OnesCount(uint(c.LineBytes)) != 1 {
		return fmt.Errorf("cachesim: line size %d must be a positive power of two", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cachesim: ways %d must be positive", c.Ways)
	}
	if c.SizeBytes < c.LineBytes*c.Ways {
		return fmt.Errorf("cachesim: size %d too small for %d ways of %d-byte lines",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	return nil
}

// Stats accumulates access counts.
type Stats struct {
	Accesses, Misses uint64
}

// MissRate returns misses/accesses, or 0 before any access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement. It tracks
// only tags (no data payload): the case study needs hit/miss behaviour,
// not contents.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	// tags[set*ways + way]; lru holds per-line recency counters
	// (smaller = older). A per-set clock avoids global counter
	// wraparound concerns for any realistic trace length.
	tags  []uint64
	valid []bool
	lru   []uint64
	clock []uint64
	stats Stats
}

// New builds a cache for the configuration.
func New(cfg Config) (*Cache, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*cfg.Ways),
		valid:     make([]bool, sets*cfg.Ways),
		lru:       make([]uint64, sets*cfg.Ways),
		clock:     make([]uint64, sets),
	}
	return c, nil
}

// Access references addr and returns true on a hit. Misses fill the
// line, evicting the LRU way.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	base := set * c.cfg.Ways
	c.stats.Accesses++
	c.clock[set]++
	tick := c.clock[set]

	victim, victimLRU := base, c.lru[base]
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.valid[i] && c.tags[i] == line {
			c.lru[i] = tick
			return true
		}
		if !c.valid[i] {
			// Prefer an invalid way as the victim outright.
			victim, victimLRU = i, 0
		} else if c.lru[i] < victimLRU {
			victim, victimLRU = i, c.lru[i]
		}
	}
	c.stats.Misses++
	c.tags[victim] = line
	c.valid[victim] = true
	c.lru[victim] = tick
	return false
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }
