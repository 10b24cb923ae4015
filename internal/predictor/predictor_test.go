package predictor

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestEntryLastValuePrediction(t *testing.T) {
	e := &Entry{LastVal: 42}
	if v, nz := e.Predict(LastValue); v != 42 || nz {
		t.Errorf("Predict = %d,%v; want 42,false", v, nz)
	}
	e.Train(42)
	if e.StrideVal != 0 {
		t.Errorf("stride after repeat = %d, want 0", e.StrideVal)
	}
	if v, nz := e.Predict(Stride); v != 42 || nz {
		t.Errorf("zero-stride predict = %d,%v", v, nz)
	}
}

func TestEntryStridePrediction(t *testing.T) {
	e := &Entry{LastVal: 10}
	e.Train(13) // stride 3
	v, nz := e.Predict(Stride)
	if v != 16 || !nz {
		t.Errorf("Predict = %d,%v; want 16,true", v, nz)
	}
	// The last-value view of the same entry ignores the stride.
	if v, nz := e.Predict(LastValue); v != 13 || nz {
		t.Errorf("last-value view = %d,%v; want 13,false", v, nz)
	}
}

// TestStrideExactOnProgressions: property — after two training steps of any
// arithmetic progression, the stride predictor is exact forever.
func TestStrideExactOnProgressions(t *testing.T) {
	f := func(start, strideRaw int32, steps uint8) bool {
		stride := int64(strideRaw)
		e := &Entry{LastVal: int64(start)}
		v := int64(start)
		// one training step establishes the stride
		v += stride
		e.Train(v)
		for i := 0; i < int(steps%50)+1; i++ {
			v += stride
			pred, _ := e.Predict(Stride)
			if pred != v {
				return false
			}
			e.Train(v)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLastValueExactOnConstants: property — the last-value predictor is
// exact on any constant stream after one observation.
func TestLastValueExactOnConstants(t *testing.T) {
	f := func(v int64, steps uint8) bool {
		e := &Entry{LastVal: v}
		for i := 0; i < int(steps%20)+1; i++ {
			pred, nz := e.Predict(LastValue)
			if pred != v || nz {
				return false
			}
			e.Train(v)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableConfigValidate(t *testing.T) {
	good := []TableConfig{{512, 2}, {1, 1}, {1024, 4}, {64, 64}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []TableConfig{{0, 1}, {-4, 1}, {100, 2}, {512, 0}, {512, 3}, {512, -1}}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
}

func TestTableLookupMissAllocateHit(t *testing.T) {
	tb, err := NewTable(Stride, TableConfig{Entries: 8, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Lookup(100) != nil {
		t.Fatal("empty table hit")
	}
	e := tb.Allocate(100, 7)
	if e == nil || e.LastVal != 7 {
		t.Fatalf("allocate = %+v", e)
	}
	if tb.Lookup(100) != e {
		t.Error("lookup after allocate missed")
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
	// Allocating an existing address returns the same entry untouched.
	e.Train(9)
	if got := tb.Allocate(100, 0); got != e || got.LastVal != 9 {
		t.Error("re-allocate clobbered the entry")
	}
}

func TestTableTagDisambiguation(t *testing.T) {
	tb, _ := NewTable(LastValue, TableConfig{Entries: 8, Assoc: 2})
	// Addresses 4 sets apart map to the same set with different tags.
	a, b := int64(3), int64(3+4)
	tb.Allocate(a, 111)
	tb.Allocate(b, 222)
	if e := tb.Lookup(a); e == nil || e.LastVal != 111 {
		t.Errorf("lookup(a) = %+v", e)
	}
	if e := tb.Lookup(b); e == nil || e.LastVal != 222 {
		t.Errorf("lookup(b) = %+v", e)
	}
}

func TestTableLRUEviction(t *testing.T) {
	tb, _ := NewTable(Stride, TableConfig{Entries: 4, Assoc: 2})
	// Set 0 gets addresses 0, 2, 4 (2 sets → set = addr mod 2... with 2
	// sets, even addresses all land in set 0).
	tb.Allocate(0, 1)
	tb.Allocate(2, 2)
	tb.Lookup(0) // touch 0 → 2 is LRU
	tb.Allocate(4, 3)
	if tb.Lookup(2) != nil {
		t.Error("LRU entry 2 survived eviction")
	}
	if tb.Lookup(0) == nil || tb.Lookup(4) == nil {
		t.Error("MRU entries evicted")
	}
	if tb.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", tb.Evictions)
	}
}

// TestTableCapacityProperty: property — under arbitrary allocation streams
// the table never exceeds capacity and direct-mapped conflicts behave.
func TestTableCapacityProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		tb, err := NewTable(Stride, TableConfig{Entries: 16, Assoc: 4})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			tb.Allocate(int64(a), int64(a))
			if tb.Len() > 16 {
				return false
			}
			// An allocated address must be immediately findable.
			if tb.Lookup(int64(a)) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableReset(t *testing.T) {
	tb, _ := NewTable(Stride, TableConfig{Entries: 4, Assoc: 2})
	tb.Allocate(1, 1)
	tb.Allocate(3, 3)
	tb.Reset()
	if tb.Len() != 0 || tb.Lookup(1) != nil || tb.Evictions != 0 {
		t.Error("Reset left state behind")
	}
}

func TestInfinite(t *testing.T) {
	inf := NewInfinite(LastValue)
	if inf.Kind() != LastValue {
		t.Error("kind")
	}
	if inf.Lookup(5) != nil {
		t.Error("empty infinite table hit")
	}
	for i := int64(0); i < 10000; i++ {
		inf.Allocate(i, i)
	}
	if inf.Len() != 10000 {
		t.Errorf("Len = %d", inf.Len())
	}
	for i := int64(0); i < 10000; i++ {
		if e := inf.Lookup(i); e == nil || e.LastVal != i {
			t.Fatalf("entry %d missing or wrong", i)
		}
	}
	// No eviction ever: re-allocate returns the existing entry.
	e := inf.Lookup(3)
	if inf.Allocate(3, 99) != e {
		t.Error("infinite allocate replaced an entry")
	}
}

func TestHybridRouting(t *testing.T) {
	h, err := NewHybrid(DefaultHybridConfig)
	if err != nil {
		t.Fatal(err)
	}
	if h.TableFor(isa.DirStride) != h.StrideTable {
		t.Error("stride directive misrouted")
	}
	if h.TableFor(isa.DirLastValue) != h.LastTable {
		t.Error("last-value directive misrouted")
	}
	if h.TableFor(isa.DirNone) != nil {
		t.Error("untagged instruction routed to a table")
	}
	if h.StrideTable.Kind() != Stride || h.LastTable.Kind() != LastValue {
		t.Error("hybrid table kinds wrong")
	}
}

func TestHybridBadConfig(t *testing.T) {
	if _, err := NewHybrid(HybridConfig{StrideEntries: 100, StrideAssoc: 2, LastEntries: 512, LastAssoc: 2}); err == nil {
		t.Error("bad stride geometry accepted")
	}
	if _, err := NewHybrid(HybridConfig{StrideEntries: 128, StrideAssoc: 2, LastEntries: 0, LastAssoc: 2}); err == nil {
		t.Error("bad last-value geometry accepted")
	}
}

func TestInfiniteHybrid(t *testing.T) {
	h := NewInfiniteHybrid()
	h.TableFor(isa.DirStride).Allocate(1, 1)
	if h.StrideTable.Len() != 1 || h.LastTable.Len() != 0 {
		t.Error("infinite hybrid routing wrong")
	}
}

func TestKindString(t *testing.T) {
	if LastValue.String() != "last-value" || Stride.String() != "stride" {
		t.Error("kind names changed")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still print")
	}
}

// TestHandComputedLRUStream pins the replacement policy step by step on a
// 1-set 2-way table (every address maps to the one set, the address is the
// tag): a hit refreshes recency, an allocation of a present address is a
// hit that leaves the entry unchanged, and a miss into a full set evicts
// the least recently used way. The same stream on an Infinite table never
// evicts. Each row lists the entry the operation returns (0 = nil) and the
// table state after it.
func TestHandComputedLRUStream(t *testing.T) {
	type step struct {
		op        string // "lookup" or "alloc"
		addr, val int64
		wantVal   int64 // LastVal of the returned entry; 0 = nil
		tableLen  int
		evictions int64
		infLen    int
	}
	steps := []step{
		{"alloc", 10, 100, 100, 1, 0, 1}, // empty way
		{"alloc", 20, 200, 200, 2, 0, 2}, // second empty way
		{"lookup", 10, 0, 100, 2, 0, 2},  // 10 becomes MRU, 20 LRU
		{"alloc", 30, 300, 300, 2, 1, 3}, // evicts 20
		{"lookup", 20, 0, 0, 2, 1, 3},    // gone from the table, kept by Infinite
		{"lookup", 10, 0, 100, 2, 1, 3},  // 10 MRU again, 30 LRU
		{"alloc", 40, 400, 400, 2, 2, 4}, // evicts 30
		{"lookup", 30, 0, 0, 2, 2, 4},    // gone
		{"alloc", 10, 999, 100, 2, 2, 4}, // present: returned unchanged, now MRU
		{"alloc", 50, 500, 500, 2, 3, 5}, // evicts 40, not 10
		{"lookup", 40, 0, 0, 2, 3, 5},    // gone
		{"lookup", 10, 0, 100, 2, 3, 5},  // survived
		{"lookup", 50, 0, 500, 2, 3, 5},  // the newest
		{"alloc", 60, 600, 600, 2, 4, 6}, // evicts 10 (50 was touched last)
		{"lookup", 10, 0, 0, 2, 4, 6},    // gone
	}
	tb, err := NewTable(Stride, TableConfig{Entries: 2, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	inf := NewInfinite(Stride)
	for i, s := range steps {
		var got, infGot *Entry
		switch s.op {
		case "lookup":
			got, infGot = tb.Lookup(s.addr), inf.Lookup(s.addr)
		case "alloc":
			got, infGot = tb.Allocate(s.addr, s.val), inf.Allocate(s.addr, s.val)
		}
		gotVal := int64(0)
		if got != nil {
			gotVal = got.LastVal
		}
		if gotVal != s.wantVal {
			t.Errorf("step %d %s(%d): table entry LastVal %d, want %d", i, s.op, s.addr, gotVal, s.wantVal)
		}
		if tb.Len() != s.tableLen || tb.Evictions != s.evictions {
			t.Errorf("step %d %s(%d): table Len %d Evictions %d, want %d %d",
				i, s.op, s.addr, tb.Len(), tb.Evictions, s.tableLen, s.evictions)
		}
		if infGot == nil {
			t.Errorf("step %d %s(%d): Infinite lost the address", i, s.op, s.addr)
		}
		if inf.Len() != s.infLen {
			t.Errorf("step %d %s(%d): Infinite Len %d, want %d", i, s.op, s.addr, inf.Len(), s.infLen)
		}
	}
}
