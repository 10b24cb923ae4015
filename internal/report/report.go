// Package report defines the machine-readable result of one evaluate run —
// a program executed (or replayed) through a predictor/classifier
// configuration. The same struct backs vprun's -json output and the vpserve
// HTTP API, so scripted consumers see one schema whether they shell out to
// the CLI or talk to the daemon.
package report

import (
	"fmt"

	"repro/internal/annotate"
	"repro/internal/ilp"
	"repro/internal/vpsim"
)

// Predictor describes the prediction-table configuration of a run.
type Predictor struct {
	// Kind is "stride" or "lastvalue".
	Kind string `json:"kind"`
	// Entries is the table size; 0 means the infinite table.
	Entries int `json:"entries"`
	// Assoc is the table associativity (meaningless when Entries is 0).
	Assoc int `json:"assoc,omitempty"`
}

func (p Predictor) String() string {
	if p.Entries == 0 {
		return p.Kind + ", infinite table"
	}
	return fmt.Sprintf("%s, %d entries %d-way", p.Kind, p.Entries, p.Assoc)
}

// Annotation reports what the profile-guided annotation pass tagged (present
// only for profile-classified runs).
type Annotation struct {
	Profiled        int `json:"profiled"`
	TaggedStride    int `json:"tagged_stride"`
	TaggedLastValue int `json:"tagged_lastvalue"`
	Untagged        int `json:"untagged"`
}

// ILP reports the abstract-machine timing result (present when the run was
// timed through the ILP machine rather than only functionally simulated).
type ILP struct {
	Instructions int64   `json:"instructions"`
	Cycles       int64   `json:"cycles"`
	ILP          float64 `json:"ilp"`
	// BaseILP and SpeedupPct compare against the same trace with value
	// prediction disabled.
	BaseILP    float64 `json:"base_ilp,omitempty"`
	SpeedupPct float64 `json:"speedup_pct,omitempty"`
}

// Run is the result of one evaluate run.
type Run struct {
	Program     string `json:"program"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Input       string `json:"input,omitempty"`
	// Instructions is the dynamic instruction count of the run.
	Instructions int64 `json:"instructions"`

	Classifier string    `json:"classifier"`
	Threshold  float64   `json:"threshold,omitempty"`
	Predictor  Predictor `json:"predictor"`

	// Raw outcome counters (vpsim.Stats).
	ValueInstructions int64 `json:"value_instructions"`
	Candidates        int64 `json:"candidates"`
	Misses            int64 `json:"misses"`
	UsedCorrect       int64 `json:"used_correct"`
	UsedIncorrect     int64 `json:"used_incorrect"`
	UnusedCorrect     int64 `json:"unused_correct"`
	UnusedIncorrect   int64 `json:"unused_incorrect"`

	// Derived percentages.
	PredictionAccuracy   float64 `json:"prediction_accuracy_pct"`
	MispredClassAccuracy float64 `json:"mispred_class_accuracy_pct"`
	CorrectClassAccuracy float64 `json:"correct_class_accuracy_pct"`

	Annotation *Annotation `json:"annotation,omitempty"`
	ILP        *ILP        `json:"ilp,omitempty"`

	// Sweep holds the per-threshold runs of a multi-threshold evaluate
	// (one entry per requested threshold, in request order), all produced
	// from a single execution of the program. The top-level fields mirror
	// the first threshold's run for backward compatibility.
	// ReplayPassesSaved counts the passes over the program the single-pass
	// sweep avoided versus one pass per configuration.
	Sweep             []*Run `json:"sweep,omitempty"`
	ReplayPassesSaved int64  `json:"replay_passes_saved,omitempty"`
}

// SetStats fills the outcome counters and derived percentages from engine
// statistics.
func (r *Run) SetStats(st vpsim.Stats) {
	r.ValueInstructions = st.ValueInstructions
	r.Candidates = st.Candidates
	r.Misses = st.Misses
	r.UsedCorrect = st.UsedCorrect
	r.UsedIncorrect = st.UsedIncorrect
	r.UnusedCorrect = st.UnusedCorrect
	r.UnusedIncorrect = st.UnusedIncorrect
	r.PredictionAccuracy = st.PredictionAccuracy()
	r.MispredClassAccuracy = st.MispredClassAccuracy()
	r.CorrectClassAccuracy = st.CorrectClassAccuracy()
}

// SetAnnotation records the annotation-pass statistics.
func (r *Run) SetAnnotation(st annotate.Stats) {
	r.Annotation = &Annotation{
		Profiled:        st.Profiled,
		TaggedStride:    st.TaggedStride,
		TaggedLastValue: st.TaggedLastValue,
		Untagged:        st.Untagged,
	}
}

// SetILP records the timed result, optionally against a no-prediction
// baseline of the same trace.
func (r *Run) SetILP(res ilp.Result, base *ilp.Result) {
	out := &ILP{Instructions: res.Instructions, Cycles: res.Cycles, ILP: res.ILP()}
	if base != nil {
		out.BaseILP = base.ILP()
		out.SpeedupPct = res.SpeedupOver(*base)
	}
	r.ILP = out
}
