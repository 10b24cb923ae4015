package predictor

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// TableConfig describes finite prediction-table geometry. The paper's main
// finite-table experiments use a 512-entry, 2-way set-associative stride
// table (Section 5.2).
type TableConfig struct {
	// Entries is the total entry count; must be a power of two.
	Entries int
	// Assoc is the set associativity; must divide Entries and be ≥ 1.
	Assoc int
}

// DefaultTableConfig is the paper's Section 5.2 configuration.
var DefaultTableConfig = TableConfig{Entries: 512, Assoc: 2}

// Validate checks the geometry.
func (c TableConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("predictor: entries %d must be a positive power of two", c.Entries)
	}
	if c.Assoc <= 0 || c.Entries%c.Assoc != 0 {
		return fmt.Errorf("predictor: associativity %d must be positive and divide entries %d", c.Assoc, c.Entries)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c TableConfig) Sets() int { return c.Entries / c.Assoc }

// Table is a finite set-associative prediction table indexed by the low bits
// of the instruction address, with the high bits as tag (figure 2.1 of the
// paper) and LRU replacement within each set.
type Table struct {
	kind Kind
	cfg  TableConfig
	// setMask, indexBits and assoc are the geometry resolved at
	// construction, so a lookup splits the address without a division.
	setMask   int64
	indexBits uint
	assoc     int
	entries   []Entry // sets laid out contiguously: set s occupies [s*assoc, (s+1)*assoc)
	clock     uint64
	valid     int
	// Evictions counts entries displaced by allocation, a measure of
	// table pressure (Section 5.2's pollution argument).
	Evictions int64
}

// NewTable creates an empty finite table.
func NewTable(kind Kind, cfg TableConfig) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	return &Table{
		kind:      kind,
		cfg:       cfg,
		setMask:   int64(sets - 1),
		indexBits: uint(bits.TrailingZeros(uint(sets))),
		assoc:     cfg.Assoc,
		entries:   make([]Entry, cfg.Entries),
	}, nil
}

// Kind implements Store.
func (t *Table) Kind() Kind { return t.kind }

// Len implements Store.
func (t *Table) Len() int { return t.valid }

// Config returns the table geometry.
func (t *Table) Config() TableConfig { return t.cfg }

// set returns the ways of addr's set and the tag addr carries in it.
func (t *Table) set(addr int64) (ways []Entry, tag int64) {
	base := int(addr&t.setMask) * t.assoc
	return t.entries[base : base+t.assoc], addr >> t.indexBits
}

// hit returns the entry tagged tag among ways, ticking the LRU clock, or
// nil on a miss (which leaves the clock alone).
func (t *Table) hit(ways []Entry, tag int64) *Entry {
	for i := range ways {
		if e := &ways[i]; e.valid && e.Tag == tag {
			t.clock++
			e.lru = t.clock
			return e
		}
	}
	return nil
}

// Lookup implements Store.
func (t *Table) Lookup(addr int64) *Entry {
	return t.hit(t.set(addr))
}

// Allocate implements Store: it victimizes the LRU way of the set.
func (t *Table) Allocate(addr int64, value isa.Word) *Entry {
	e, _ := t.Access(addr, value)
	return e
}

// Access looks addr up and, on a miss, allocates it with value in the LRU
// way of its set, searching the set once. It returns the entry and whether
// it was a hit: the prediction engine's one call per value record, equal
// to Lookup followed, on a miss, by Allocate.
func (t *Table) Access(addr int64, value isa.Word) (*Entry, bool) {
	ways, tag := t.set(addr)
	if e := t.hit(ways, tag); e != nil {
		return e, true
	}
	victim := &ways[0]
	for i := 1; i < len(ways); i++ {
		e := &ways[i]
		if !e.valid {
			victim = e
			break
		}
		if !victim.valid {
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	if victim.valid {
		t.Evictions++
	} else {
		t.valid++
	}
	t.clock++
	*victim = Entry{Tag: tag, LastVal: value, valid: true, lru: t.clock}
	return victim, false
}

// Reset invalidates every entry, preserving geometry.
func (t *Table) Reset() {
	for i := range t.entries {
		t.entries[i] = Entry{}
	}
	t.clock, t.valid, t.Evictions = 0, 0, 0
}
