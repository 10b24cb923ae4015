package predictor

import "repro/internal/isa"

// Infinite is an unbounded prediction table: every instruction gets a
// private entry that is never evicted. The paper uses infinite tables to
// isolate pure classification behaviour from table-capacity effects
// (Section 5.1), and the profiler measures per-instruction predictability
// with the same semantics.
//
// Instruction addresses are text-segment indices, so entries live in a
// dense slice indexed by address — no map hashing on the per-instruction
// path; addresses outside the dense range fall back to a sparse map.
// Pointers returned by Lookup and Allocate are invalidated by subsequent
// Allocate calls (the dense table may grow); callers must not hold an entry
// across an allocation.
type Infinite struct {
	kind   Kind
	dense  []Entry
	count  int
	sparse map[int64]*Entry
}

// maxDenseEntry bounds the dense table so a stray huge address cannot
// balloon memory; larger (or negative) addresses go to the sparse map.
const maxDenseEntry = 1 << 22

// NewInfinite creates an empty infinite table.
func NewInfinite(kind Kind) *Infinite {
	return &Infinite{kind: kind}
}

// Kind implements Store.
func (t *Infinite) Kind() Kind { return t.kind }

// Len implements Store.
func (t *Infinite) Len() int { return t.count }

// Lookup implements Store.
func (t *Infinite) Lookup(addr int64) *Entry {
	if uint64(addr) < uint64(len(t.dense)) {
		if e := &t.dense[addr]; e.valid {
			return e
		}
		return nil
	}
	return t.sparse[addr]
}

// Allocate implements Store.
func (t *Infinite) Allocate(addr int64, value isa.Word) *Entry {
	e, _ := t.Access(addr, value)
	return e
}

// Access looks addr up and, on a miss, allocates it with value. It returns
// the entry and whether it was a hit: the prediction engine's one call per
// value record, equal to Lookup followed, on a miss, by Allocate.
func (t *Infinite) Access(addr int64, value isa.Word) (*Entry, bool) {
	if uint64(addr) < uint64(len(t.dense)) {
		e := &t.dense[addr]
		if e.valid {
			return e, true
		}
		*e = Entry{Tag: addr, LastVal: value, valid: true}
		t.count++
		return e, false
	}
	if e, ok := t.sparse[addr]; ok {
		return e, true
	}
	return t.slowAllocate(addr, value), false
}

// slowAllocate inserts an address outside the dense table: it grows the
// table when addr is in the dense range, and uses the sparse map otherwise.
func (t *Infinite) slowAllocate(addr int64, value isa.Word) *Entry {
	if addr >= 0 && addr < maxDenseEntry {
		n := int64(1024)
		for n <= addr {
			n *= 2
		}
		grown := make([]Entry, n)
		copy(grown, t.dense)
		t.dense = grown
		e := &t.dense[addr]
		*e = Entry{Tag: addr, LastVal: value, valid: true}
		t.count++
		return e
	}
	if t.sparse == nil {
		t.sparse = make(map[int64]*Entry)
	}
	e := &Entry{Tag: addr, LastVal: value, valid: true}
	t.sparse[addr] = e
	t.count++
	return e
}

var (
	_ Store = (*Table)(nil)
	_ Store = (*Infinite)(nil)
)
