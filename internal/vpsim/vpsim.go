// Package vpsim is the value-prediction simulation engine: it drives a
// prediction table (finite or infinite, single or hybrid) and a
// classification policy over a dynamic instruction stream and accumulates
// the outcome statistics the paper's Section 5 experiments report —
// correct/incorrect predictions split by whether the classifier chose to use
// them, allocation candidacy, and table pressure.
package vpsim

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// Outcome describes what happened to one dynamic value-producing
// instruction.
type Outcome uint8

const (
	// OutcomeNotCandidate: the classifier barred the instruction from the
	// prediction table (profile policy, untagged instruction).
	OutcomeNotCandidate Outcome = iota
	// OutcomeMiss: table miss; the instruction was (re)allocated and no
	// prediction was made.
	OutcomeMiss
	// OutcomeUsedCorrect: prediction taken and correct.
	OutcomeUsedCorrect
	// OutcomeUsedIncorrect: prediction taken and wrong — a value
	// misprediction, with its pipeline penalty.
	OutcomeUsedIncorrect
	// OutcomeUnusedCorrect: prediction withheld by the classifier but
	// would have been correct — a lost opportunity.
	OutcomeUnusedCorrect
	// OutcomeUnusedIncorrect: prediction withheld and would have been
	// wrong — a successfully filtered misprediction.
	OutcomeUnusedIncorrect
)

// Stats accumulates outcome counts over a run.
type Stats struct {
	// ValueInstructions counts dynamic instructions that wrote a computed
	// value to a destination register.
	ValueInstructions int64
	// Candidates counts those admitted to the table by the classifier.
	Candidates int64
	// Misses counts table misses (allocations).
	Misses int64
	// UsedCorrect..UnusedIncorrect are the four prediction outcomes.
	UsedCorrect     int64
	UsedIncorrect   int64
	UnusedCorrect   int64
	UnusedIncorrect int64
}

// Correct returns all correct predictions available at the table output.
func (s Stats) Correct() int64 { return s.UsedCorrect + s.UnusedCorrect }

// Incorrect returns all incorrect predictions at the table output.
func (s Stats) Incorrect() int64 { return s.UsedIncorrect + s.UnusedIncorrect }

// MispredClassAccuracy is the percentage of incorrect predictions the
// classifier filtered (figure 5.1's quantity).
func (s Stats) MispredClassAccuracy() float64 {
	return pct(s.UnusedIncorrect, s.Incorrect())
}

// CorrectClassAccuracy is the percentage of correct predictions the
// classifier let through (figure 5.2's quantity).
func (s Stats) CorrectClassAccuracy() float64 {
	return pct(s.UsedCorrect, s.Correct())
}

// PredictionAccuracy is correct-used predictions over taken predictions.
func (s Stats) PredictionAccuracy() float64 {
	return pct(s.UsedCorrect, s.UsedCorrect+s.UsedIncorrect)
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Engine ties a classification policy to one or two prediction tables.
// Construction resolves everything the policy and the routing decide per
// directive — which table (if any) serves it, that table's concrete type
// and prediction function, and the counter automaton — so the per-record
// path makes no interface or closure call.
type Engine struct {
	policy classify.Policy // for PolicyName only
	// slots routes a directive (capped at dirOther, see dirSlot) to its
	// table; an empty slot means the instruction is not a candidate.
	slots [dirOther + 1]slot
	// fsm selects saturating-counter classification with counter;
	// otherwise every prediction is used and no counter is kept (profile
	// classification).
	fsm     bool
	counter classify.SatCounter
	stats   Stats
	// outcomes is the column ConsumeBatch has filled and then ignores.
	outcomes []Outcome
}

// slot is one directive's resolved table: exactly one of tab and inf is
// set, or neither when the directive is not a candidate.
type slot struct {
	tab    *predictor.Table
	inf    *predictor.Infinite
	stride bool
}

// dirOther is the slot every directive value at or past it shares: the
// routing below never tells invalid directives apart.
const dirOther = isa.DirLastValue + 1

// dirSlot caps d to a slot index.
func dirSlot(d isa.Directive) isa.Directive { return min(d, dirOther) }

// resolve binds a store to a slot. A nil store yields the empty slot; a
// store of a type outside this package's two tables is a programming error.
func resolve(store predictor.Store) slot {
	switch t := store.(type) {
	case nil:
		return slot{}
	case *predictor.Table:
		return slot{tab: t, stride: t.Kind() == predictor.Stride}
	case *predictor.Infinite:
		return slot{inf: t, stride: t.Kind() == predictor.Stride}
	default:
		panic(fmt.Sprintf("vpsim: unsupported prediction store %T", store))
	}
}

// NewFSMEngine builds the hardware-only configuration of [9][10]: a single
// prediction table whose entries carry saturating counters; every
// value-producing instruction is admitted.
func NewFSMEngine(store predictor.Store, policy *classify.FSMPolicy) *Engine {
	e := &Engine{policy: policy, fsm: true, counter: policy.Counter}
	s := resolve(store)
	for d := range e.slots {
		e.slots[d] = s
	}
	return e
}

// NewProfileEngine builds the paper's proposal with a single shared table:
// only directive-tagged instructions are admitted, predictions are always
// taken. This is the configuration of the Section 5.2 experiments (same
// 512-entry stride table as the FSM baseline, for a fair comparison).
func NewProfileEngine(store predictor.Store) *Engine {
	e := &Engine{policy: classify.ProfilePolicy{}}
	s := resolve(store)
	for d := range e.slots {
		if isa.Directive(d) != isa.DirNone {
			e.slots[d] = s
		}
	}
	return e
}

// NewHybridEngine builds the profile-guided hybrid configuration of Sections
// 3.1 and 6: stride-tagged instructions go to the stride table, last-value-
// tagged instructions to the last-value table, untagged ones nowhere.
func NewHybridEngine(h *predictor.Hybrid) *Engine {
	e := &Engine{policy: classify.ProfilePolicy{}}
	for d := range e.slots {
		e.slots[d] = resolve(h.TableFor(isa.Directive(d)))
	}
	return e
}

// Stats returns the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// valueFlag is the one-record flags column Observe hands the kernel.
var valueFlag = [1]byte{trace.FlagHasDest}

// Observe processes one dynamic value-producing instruction and returns its
// outcome, through the column kernel on a one-record view.
func (e *Engine) Observe(addr int64, dir isa.Directive, value isa.Word) Outcome {
	addrs, dirs, vals := [1]int64{addr}, [1]isa.Directive{dir}, [1]int64{value}
	var out [1]Outcome
	e.observe(valueFlag[:], addrs[:], dirs[:], vals[:], out[:])
	return out[0]
}

// Consume implements trace.Consumer.
func (e *Engine) Consume(r *trace.Record) {
	if !r.HasDest {
		return
	}
	e.Observe(r.Addr, r.Dir, r.Value)
}

// ConsumeBatch implements trace.BatchConsumer: ObserveBatch into an
// engine-owned column whose outcomes only feed the statistics.
func (e *Engine) ConsumeBatch(b *trace.Batch) {
	if cap(e.outcomes) < b.N {
		e.outcomes = make([]Outcome, b.N)
	}
	e.ObserveBatch(b, e.outcomes[:b.N])
}

// ObserveBatch is the engine's column entry point: it runs every value
// record of b (those with trace.FlagHasDest) through the engine in stream
// order and writes record i's outcome to out[i], which must hold b.N
// entries. Records without a destination get OutcomeNotCandidate and are
// not counted. The Dir column carries any directive patch the replay
// applied, so FSM and profile policies both see exactly the scalar stream.
func (e *Engine) ObserveBatch(b *trace.Batch, out []Outcome) {
	n := b.N
	e.observe(b.Flags[:n], b.Addr[:n], b.Dir[:n], b.Value[:n], out[:n])
}

// observe is the engine: for each value record, route by directive,
// look the address up (allocating on a miss), predict, compare, decide
// use, train, and count the outcome.
func (e *Engine) observe(flags []byte, addrs []int64, dirs []isa.Directive, vals []int64, out []Outcome) {
	out, addrs, dirs, vals = out[:len(flags)], addrs[:len(flags)], dirs[:len(flags)], vals[:len(flags)]
	fsm, ctr := e.fsm, e.counter
	st := &e.stats
	for i, f := range flags {
		if f&trace.FlagHasDest == 0 {
			out[i] = OutcomeNotCandidate
			continue
		}
		st.ValueInstructions++
		addr, value := addrs[i], vals[i]
		s := &e.slots[dirSlot(dirs[i])]
		var ent *predictor.Entry
		var hit bool
		switch {
		case s.tab != nil:
			ent, hit = s.tab.Access(addr, value)
		case s.inf != nil:
			ent, hit = s.inf.Access(addr, value)
		default:
			out[i] = OutcomeNotCandidate
			continue
		}
		st.Candidates++
		if !hit {
			if fsm {
				ent.Counter = ctr.Initial
			}
			st.Misses++
			out[i] = OutcomeMiss
			continue
		}
		pred := ent.LastVal
		if s.stride {
			pred += ent.StrideVal
		}
		correct := pred == value
		used := true
		if fsm {
			used = ctr.Trust(ent.Counter)
			if correct {
				ent.Counter = ctr.OnCorrect(ent.Counter)
			} else {
				ent.Counter = ctr.OnIncorrect(ent.Counter)
			}
		}
		ent.Train(value)
		switch {
		case used && correct:
			st.UsedCorrect++
			out[i] = OutcomeUsedCorrect
		case used:
			st.UsedIncorrect++
			out[i] = OutcomeUsedIncorrect
		case correct:
			st.UnusedCorrect++
			out[i] = OutcomeUnusedCorrect
		default:
			st.UnusedIncorrect++
			out[i] = OutcomeUnusedIncorrect
		}
	}
}

// PolicyName reports the classification policy driving the engine.
func (e *Engine) PolicyName() string { return e.policy.Name() }

// String summarizes the statistics for logs and tools.
func (s Stats) String() string {
	return fmt.Sprintf(
		"value-insts=%d candidates=%d misses=%d used-correct=%d used-incorrect=%d unused-correct=%d unused-incorrect=%d",
		s.ValueInstructions, s.Candidates, s.Misses,
		s.UsedCorrect, s.UsedIncorrect, s.UnusedCorrect, s.UnusedIncorrect)
}
