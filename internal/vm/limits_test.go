package vm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/faults"
	"repro/internal/program"
	"repro/internal/trace"
)

// straightLine builds a program of n-1 NOPs followed by HALT (n retired
// instructions total).
func straightLine(t *testing.T, n int) *program.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString("main:\n")
	for i := 0; i < n-1; i++ {
		b.WriteString(" nop\n")
	}
	b.WriteString(" halt\n")
	p, err := asm.Assemble("straight", b.String())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLimitsMaxSteps(t *testing.T) {
	const n = 10 // dynamic length of the straight-line program
	cases := []struct {
		name     string
		maxSteps int64
		wantErr  error
	}{
		{"zero is unlimited", 0, nil},
		{"limit above length", n + 1, nil},
		{"limit exactly at length", n, nil},
		{"limit one below length", n - 1, ErrFuelExhausted},
		{"limit of one", 1, ErrFuelExhausted},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := straightLine(t, n)
			m, err := New(p, Config{Limits: Limits{MaxSteps: c.maxSteps}})
			if err != nil {
				t.Fatal(err)
			}
			err = m.Run()
			if c.wantErr == nil {
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !m.Halted() || m.InstructionsRetired() != n {
					t.Fatalf("halted=%v retired=%d", m.Halted(), m.InstructionsRetired())
				}
				return
			}
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if m.Halted() {
				t.Fatal("machine reports halted after fuel exhaustion")
			}
			if got := m.InstructionsRetired(); got != c.maxSteps {
				t.Fatalf("retired %d instructions, want exactly MaxSteps=%d", got, c.maxSteps)
			}
		})
	}
}

func TestLimitsMaxStepsInfiniteLoop(t *testing.T) {
	p, err := asm.Assemble("spin", "main:\n jmp main\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, Config{Limits: Limits{MaxSteps: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("infinite loop: err = %v, want ErrFuelExhausted", err)
	}
}

func TestLimitsMaxMem(t *testing.T) {
	src := "main:\n halt\n.data\nbuf: .space 100\n"
	p, err := asm.Assemble("mem", src)
	if err != nil {
		t.Fatal(err)
	}
	dataWords := int64(len(p.Data))

	cases := []struct {
		name    string
		cfg     Config
		wantErr error
	}{
		{"zero is unlimited", Config{}, nil},
		{"default heap clamped to limit", Config{Limits: Limits{MaxMem: dataWords + 8}}, nil},
		{"limit exactly at data size", Config{Limits: Limits{MaxMem: dataWords}}, nil},
		{"data does not fit", Config{Limits: Limits{MaxMem: dataWords - 1}}, ErrMemLimit},
		{"explicit MemWords over limit", Config{MemWords: 4096, Limits: Limits{MaxMem: 1024}}, ErrMemLimit},
		{"explicit MemWords within limit", Config{MemWords: 512, Limits: Limits{MaxMem: 1024}}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(p, c.cfg)
			if c.wantErr != nil {
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("New err = %v, want %v", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if lim := c.cfg.Limits.MaxMem; lim > 0 && int64(len(m.mem)) > lim {
				t.Fatalf("memory %d words exceeds MaxMem %d", len(m.mem), lim)
			}
			if err := m.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
}

func TestLimitsMaxTraceEvents(t *testing.T) {
	const n = 10
	cases := []struct {
		name      string
		maxEvents int64
		consumers bool
		wantErr   error
	}{
		{"zero is unlimited", 0, true, nil},
		{"limit exactly at length", n, true, nil},
		{"limit below length", n - 1, true, ErrTraceLimit},
		{"no consumers means no events", n - 1, false, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := straightLine(t, n)
			m, err := New(p, Config{Limits: Limits{MaxTraceEvents: c.maxEvents}})
			if err != nil {
				t.Fatal(err)
			}
			var cnt trace.Counter
			if c.consumers {
				m.Attach(&cnt)
			}
			err = m.Run()
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if c.wantErr != nil && cnt.Records != c.maxEvents {
				t.Fatalf("consumer saw %d records, want exactly %d", cnt.Records, c.maxEvents)
			}
		})
	}
}

// TestLimitsPartialTraceReplays is the "limits hit mid-trace leave the
// Recorder unsealed-safe" edge case: a recording cut off by fuel exhaustion
// must still seal and replay the partial prefix bit-identically.
func TestLimitsPartialTraceReplays(t *testing.T) {
	src := "main:\n ldi r1, 0\nloop:\n addi r1, r1, 1\n jmp loop\n"
	p, err := asm.Assemble("loop", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, Config{Limits: Limits{MaxSteps: 501}})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	m.Attach(rec)
	if err := m.Run(); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("err = %v, want ErrFuelExhausted", err)
	}
	if rec.Len() != 501 {
		t.Fatalf("recorded %d records, want 501", rec.Len())
	}
	rec.Seal()
	var cnt trace.Counter
	rec.Replay(&cnt)
	if cnt.Records != 501 {
		t.Fatalf("replayed %d records, want 501", cnt.Records)
	}
	// Appending after the cut-off run is a contract violation once sealed.
	defer func() {
		if recover() == nil {
			t.Fatal("Consume on sealed partial recorder did not panic")
		}
	}()
	rec.Consume(&trace.Record{})
}

func TestStepFaultInjection(t *testing.T) {
	plan, err := faults.NewPlan(faults.Rule{Point: PointStep, Mode: faults.ModeError, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(plan)
	defer faults.Disable()

	p := straightLine(t, 10)
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var cnt trace.Counter
	m.Attach(&cnt)
	runErr := m.Run()
	if !errors.Is(runErr, faults.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", runErr)
	}
	if got := m.InstructionsRetired(); got != 4 {
		t.Fatalf("retired %d instructions before the 5th-step fault, want 4", got)
	}
	if cnt.Records != 4 {
		t.Fatalf("consumer received %d records, want the 4 retired", cnt.Records)
	}
	// Disarmed, the same program runs clean.
	faults.Disable()
	m2, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(); err != nil {
		t.Fatalf("disarmed run: %v", err)
	}
}
