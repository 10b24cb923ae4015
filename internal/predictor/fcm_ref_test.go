package predictor

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// refFCM is the map-based FCM the flat tables replaced, kept as the
// differential reference: one Go map per level, the history as a slice,
// and its own copy of the FNV-1a history hash, so a change to the
// production hash shows up as a difference.
type refFCM struct {
	order  int
	insts  map[int64]*refFCMInst
	values map[refFCMKey]isa.Word
}

type refFCMKey struct {
	addr int64
	hash uint64
}

type refFCMInst struct {
	history  []isa.Word // oldest first
	seen     int
	attempts int64
	correct  int64
}

func newRefFCM(order int) *refFCM {
	return &refFCM{order: order, insts: map[int64]*refFCMInst{}, values: map[refFCMKey]isa.Word{}}
}

func (f *refFCM) Observe(addr int64, value isa.Word) (attempted, correct bool) {
	inst, ok := f.insts[addr]
	if !ok {
		inst = &refFCMInst{history: make([]isa.Word, 0, f.order)}
		f.insts[addr] = inst
	}
	if inst.seen >= f.order {
		key := refFCMKey{addr: addr, hash: refHashHistory(inst.history)}
		if pred, ok := f.values[key]; ok {
			attempted = true
			correct = pred == value
			inst.attempts++
			if correct {
				inst.correct++
			}
		}
		f.values[key] = value
	}
	if len(inst.history) == f.order {
		copy(inst.history, inst.history[1:])
		inst.history[f.order-1] = value
	} else {
		inst.history = append(inst.history, value)
	}
	inst.seen++
	return attempted, correct
}

func refHashHistory(h []isa.Word) uint64 {
	acc := uint64(14695981039346656037)
	for _, v := range h {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			acc ^= x & 0xff
			acc *= 1099511628211
			x >>= 8
		}
	}
	return acc
}

// contexts lists f's second level as the reference keys it.
func (f *FCM) contexts() map[refFCMKey]isa.Word {
	out := map[refFCMKey]isa.Word{}
	for i := range f.insts {
		in := &f.insts[i]
		for _, s := range in.ctx {
			if s.hash != 0 {
				out[refFCMKey{in.addr, s.hash}] = s.value
			}
		}
		if in.hasZero {
			out[refFCMKey{in.addr, 0}] = in.zero
		}
	}
	return out
}

// fcmPair feeds one stream to the flat FCM and the reference and checks
// every Observe result as it goes.
type fcmPair struct {
	t    *testing.T
	flat *FCM
	ref  *refFCM
	bad  int
}

func newFCMPair(t *testing.T, order int) *fcmPair {
	f, err := NewFCM(order)
	if err != nil {
		t.Fatal(err)
	}
	return &fcmPair{t: t, flat: f, ref: newRefFCM(order)}
}

func (p *fcmPair) observe(addr int64, v isa.Word) {
	a1, c1 := p.flat.Observe(addr, v)
	a2, c2 := p.ref.Observe(addr, v)
	if (a1 != a2 || c1 != c2) && p.bad < 5 {
		p.bad++
		p.t.Errorf("Observe(%d, %d): flat (%v,%v), reference (%v,%v)", addr, v, a1, c1, a2, c2)
	}
}

// check compares the finished predictors: per-instruction attempts and
// correct counts, the ForEachInst address set, Totals, and every stored
// context.
func (p *fcmPair) check(name string) {
	t := p.t
	seen := map[int64]bool{}
	p.flat.ForEachInst(func(s FCMInstStat) {
		if seen[s.Addr] {
			t.Errorf("%s: ForEachInst visits %d twice", name, s.Addr)
		}
		seen[s.Addr] = true
		r, ok := p.ref.insts[s.Addr]
		if !ok {
			t.Errorf("%s: flat FCM has instruction %d, the reference does not", name, s.Addr)
			return
		}
		if s.Attempts != r.attempts || s.Correct != r.correct {
			t.Errorf("%s: inst %d: flat %d/%d, reference %d/%d", name, s.Addr, s.Correct, s.Attempts, r.correct, r.attempts)
		}
	})
	if len(seen) != len(p.ref.insts) {
		t.Errorf("%s: flat FCM visits %d instructions, the reference holds %d", name, len(seen), len(p.ref.insts))
	}
	var refAtt, refCorr int64
	for _, r := range p.ref.insts {
		refAtt += r.attempts
		refCorr += r.correct
	}
	if att, corr := p.flat.Totals(); att != refAtt || corr != refCorr {
		t.Errorf("%s: Totals flat %d/%d, reference %d/%d", name, corr, att, refCorr, refAtt)
	}
	ctx := p.flat.contexts()
	if len(ctx) != len(p.ref.values) {
		t.Errorf("%s: flat FCM stores %d contexts, the reference %d", name, len(ctx), len(p.ref.values))
	}
	for k, v := range p.ref.values {
		if got, ok := ctx[k]; !ok || got != v {
			t.Errorf("%s: context %+v: flat (%d, %v), reference %d", name, k, got, ok, v)
			break
		}
	}
}

// TestFCMMatchesMapReference drives the flat FCM and the map-based
// reference with seeded random streams at every order: negative, huge and
// repeated addresses; per-address cycles, so contexts recur and predictions
// hit; and noise, so they also miss and new contexts keep arriving.
func TestFCMMatchesMapReference(t *testing.T) {
	addrs := []int64{0, 1, -1, 7, -4096, 1 << 40, -(1 << 62), 1<<63 - 1, -1 << 63}
	for order := 1; order <= 8; order++ {
		p := newFCMPair(t, order)
		rng := uint64(order) * 0x9E3779B97F4A7C15
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return rng >> 11
		}
		steps := map[int64]int64{}
		for i := 0; i < 60000; i++ {
			var addr int64
			if r := next(); r%4 == 0 {
				addr = addrs[r/4%uint64(len(addrs))]
			} else {
				addr = int64(r%200) - 100 // many instructions: grows both levels
			}
			steps[addr]++
			var v isa.Word
			switch r := next(); r % 20 {
			case 0, 1:
				v = isa.Word(r / 20 % 4) // noise from a small alphabet
			case 2:
				v = isa.Word(r) - 1<<52 // a value never seen again
			default:
				v = isa.Word(steps[addr] % (2 + addr&3)) // a short per-address cycle
			}
			p.observe(addr, v)
		}
		name := fmt.Sprintf("order %d", order)
		p.check(name)
		if att, corr := p.flat.Totals(); corr == 0 || corr == att {
			t.Errorf("%s: %d of %d predictions correct; the stream must both hit and miss", name, corr, att)
		}
	}
}

// TestFCMMatchesMapReferenceOnBenchmarks runs both predictors over every
// primary benchmark's evaluation stream, the values ext:fcm observes.
func TestFCMMatchesMapReferenceOnBenchmarks(t *testing.T) {
	for _, bench := range workload.Names() {
		p := newFCMPair(t, 4)
		feed := trace.ConsumerFunc(func(r *trace.Record) {
			if r.HasDest {
				p.observe(r.Addr, r.Value)
			}
		})
		if _, err := workload.BuildAndRun(bench, workload.EvaluationInput(), feed); err != nil {
			t.Fatal(err)
		}
		p.check(bench)
	}
}
