package predictor

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// FCM is an order-k finite-context-method value predictor (the two-level
// scheme of Sazeides & Smith, contemporary with the paper): the first level
// records each instruction's recent value history, the second level maps
// (instruction, history) contexts to the value that followed last time.
//
// The paper's predictors are last-value and stride only; FCM is implemented
// here as an extension to test whether profile-guided classification remains
// attractive for context-based predictors — i.e., whether the instructions
// FCM captures beyond stride are still a stable, profile-detectable set.
// Both levels are unbounded, matching the infinite-table methodology of
// Section 5.1.
//
// Both levels are flat open-addressing tables. A context's key is the exact
// (instruction address, FNV-1a history hash) pair: each instruction owns
// its own second-level table keyed by the hash, so a prediction reads and
// replaces the stored value in one probe, and a slot costs 16 bytes (hash
// and value) — less per context than a Go map entry of the same key.
type FCM struct {
	order int
	insts []fcmInst
	// index maps an address to 1+its position in insts (0 = empty slot),
	// probed linearly from the address's Fibonacci hash; it is a power of
	// two in length and at most half full.
	index []int32
}

type fcmInst struct {
	addr    int64
	history [8]isa.Word // the most recent min(seen, order) values, oldest first
	seen    int
	// per-instruction statistics
	attempts int64
	correct  int64
	// ctx is the second level: (history hash, next value) slots, probed
	// linearly, a power of two in length and at most three-quarters full.
	// Hash 0 marks an empty slot, so the context whose hash is 0 is kept
	// in zero/hasZero instead.
	ctx     []fcmSlot
	n       int
	zero    isa.Word
	hasZero bool
}

type fcmSlot struct {
	hash  uint64
	value isa.Word
}

// NewFCM builds an order-k FCM predictor. Orders 1..8 are sensible; the
// classic configuration is order 4.
func NewFCM(order int) (*FCM, error) {
	if order < 1 || order > 8 {
		return nil, fmt.Errorf("predictor: FCM order %d outside [1,8]", order)
	}
	return &FCM{order: order, index: make([]int32, 64)}, nil
}

// Order returns the context depth.
func (f *FCM) Order() int { return f.order }

// Observe processes one dynamic value: it predicts from the current context
// (if the instruction's history is warm and the context was seen before),
// then trains both levels. It returns whether a prediction was attempted and
// whether it was correct.
func (f *FCM) Observe(addr int64, value isa.Word) (attempted, correct bool) {
	inst := f.inst(addr)
	k := f.order
	if inst.seen >= k {
		if pred, ok := inst.swap(hashHistory(inst.history[:k]), value); ok {
			attempted = true
			correct = pred == value
			inst.attempts++
			if correct {
				inst.correct++
			}
		}
		// Slide the history window.
		copy(inst.history[:k-1], inst.history[1:k])
		inst.history[k-1] = value
	} else {
		inst.history[inst.seen] = value
	}
	inst.seen++
	return attempted, correct
}

// fibHash spreads x over the top bits of a 64-bit word.
func fibHash(x uint64) uint64 { return x * 0x9E3779B97F4A7C15 }

// home returns the first probe position of hash h in a power-of-two table.
func home(h uint64, n int) int { return int(fibHash(h) >> (64 - bits.TrailingZeros(uint(n)))) }

// inst returns the first-level entry of addr, adding it on first sight.
func (f *FCM) inst(addr int64) *fcmInst {
	mask := len(f.index) - 1
	i := home(uint64(addr), len(f.index))
	for ; f.index[i] != 0; i = (i + 1) & mask {
		if in := &f.insts[f.index[i]-1]; in.addr == addr {
			return in
		}
	}
	f.insts = append(f.insts, fcmInst{addr: addr})
	f.index[i] = int32(len(f.insts))
	if 2*len(f.insts) > len(f.index) {
		f.index = make([]int32, 2*len(f.index))
		for j := range f.insts {
			p := home(uint64(f.insts[j].addr), len(f.index))
			for f.index[p] != 0 {
				p = (p + 1) & (len(f.index) - 1)
			}
			f.index[p] = int32(j + 1)
		}
	}
	return &f.insts[len(f.insts)-1]
}

// swap stores v as the value that followed context h and returns the value
// stored there before, if any.
func (in *fcmInst) swap(h uint64, v isa.Word) (old isa.Word, ok bool) {
	if h == 0 {
		old, ok = in.zero, in.hasZero
		in.zero, in.hasZero = v, true
		return old, ok
	}
	if in.ctx == nil {
		in.ctx = make([]fcmSlot, 2)
	}
	mask := len(in.ctx) - 1
	for i := home(h, len(in.ctx)); ; i = (i + 1) & mask {
		s := &in.ctx[i]
		if s.hash == h {
			old, s.value = s.value, v
			return old, true
		}
		if s.hash == 0 {
			*s = fcmSlot{h, v}
			break
		}
	}
	if in.n++; 4*in.n > 3*len(in.ctx) {
		old := in.ctx
		in.ctx = make([]fcmSlot, 2*len(old))
		for _, s := range old {
			if s.hash == 0 {
				continue
			}
			i := home(s.hash, len(in.ctx))
			for in.ctx[i].hash != 0 {
				i = (i + 1) & (len(in.ctx) - 1)
			}
			in.ctx[i] = s
		}
	}
	return 0, false
}

// hashHistory folds a value history into a 64-bit context identifier
// (FNV-1a over the raw words).
func hashHistory(h []isa.Word) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	acc := uint64(offset)
	for _, v := range h {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			acc ^= x & 0xff
			acc *= prime
			x >>= 8
		}
	}
	return acc
}

// FCMInstStat reports one instruction's FCM predictability.
type FCMInstStat struct {
	Addr     int64
	Attempts int64
	Correct  int64
}

// Accuracy is the per-instruction FCM prediction accuracy in percent.
func (s FCMInstStat) Accuracy() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return 100 * float64(s.Correct) / float64(s.Attempts)
}

// ForEachInst visits per-instruction FCM statistics in unspecified order.
func (f *FCM) ForEachInst(fn func(FCMInstStat)) {
	for i := range f.insts {
		in := &f.insts[i]
		fn(FCMInstStat{Addr: in.addr, Attempts: in.attempts, Correct: in.correct})
	}
}

// Totals aggregates attempts and correct predictions over all instructions.
func (f *FCM) Totals() (attempts, correct int64) {
	for i := range f.insts {
		attempts += f.insts[i].attempts
		correct += f.insts[i].correct
	}
	return attempts, correct
}
