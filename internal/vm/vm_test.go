package vm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// run assembles src, executes it to completion and returns the machine.
func run(t *testing.T, src string, consumers ...trace.Consumer) *Machine {
	t.Helper()
	p, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := New(p, Config{MemWords: 4096, MaxInstructions: 100000})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for _, c := range consumers {
		m.Attach(c)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

// TestIntALUSemantics exercises every integer ALU opcode with a checkable
// result left in a register.
func TestIntALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		reg  isa.Reg
		want int64
	}{
		{"add", "ldi r1, 7\n ldi r2, 5\n add r3, r1, r2\n halt", 3, 12},
		{"sub", "ldi r1, 7\n ldi r2, 5\n sub r3, r1, r2\n halt", 3, 2},
		{"mul", "ldi r1, -7\n ldi r2, 5\n mul r3, r1, r2\n halt", 3, -35},
		{"div", "ldi r1, 17\n ldi r2, 5\n div r3, r1, r2\n halt", 3, 3},
		{"div negative", "ldi r1, -17\n ldi r2, 5\n div r3, r1, r2\n halt", 3, -3},
		{"rem", "ldi r1, 17\n ldi r2, 5\n rem r3, r1, r2\n halt", 3, 2},
		{"and", "ldi r1, 12\n ldi r2, 10\n and r3, r1, r2\n halt", 3, 8},
		{"or", "ldi r1, 12\n ldi r2, 10\n or r3, r1, r2\n halt", 3, 14},
		{"xor", "ldi r1, 12\n ldi r2, 10\n xor r3, r1, r2\n halt", 3, 6},
		{"sll", "ldi r1, 3\n ldi r2, 4\n sll r3, r1, r2\n halt", 3, 48},
		{"srl", "ldi r1, -8\n ldi r2, 1\n srl r3, r1, r2\n halt", 3, int64(uint64(math.MaxUint64-7) >> 1)},
		{"sra", "ldi r1, -8\n ldi r2, 1\n sra r3, r1, r2\n halt", 3, -4},
		{"slt true", "ldi r1, -1\n ldi r2, 0\n slt r3, r1, r2\n halt", 3, 1},
		{"slt false", "ldi r1, 1\n ldi r2, 0\n slt r3, r1, r2\n halt", 3, 0},
		{"addi", "ldi r1, 7\n addi r3, r1, -9\n halt", 3, -2},
		{"muli", "ldi r1, 7\n muli r3, r1, 3\n halt", 3, 21},
		{"andi", "ldi r1, 12\n andi r3, r1, 10\n halt", 3, 8},
		{"ori", "ldi r1, 12\n ori r3, r1, 3\n halt", 3, 15},
		{"xori", "ldi r1, 12\n xori r3, r1, 10\n halt", 3, 6},
		{"slli", "ldi r1, 3\n slli r3, r1, 4\n halt", 3, 48},
		{"srli", "ldi r1, 64\n srli r3, r1, 3\n halt", 3, 8},
		{"srai", "ldi r1, -64\n srai r3, r1, 3\n halt", 3, -8},
		{"slti", "ldi r1, 3\n slti r3, r1, 4\n halt", 3, 1},
		{"shift masks to 63", "ldi r1, 1\n ldi r2, 64\n sll r3, r1, r2\n halt", 3, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := run(t, "main:\n"+c.src)
			if got := m.IntReg(c.reg); got != c.want {
				t.Errorf("r%d = %d, want %d", c.reg, got, c.want)
			}
		})
	}
}

func TestZeroRegisterIsImmutable(t *testing.T) {
	m := run(t, "main:\n ldi r0, 99\n addi r0, r0, 5\n add r1, r0, r0\n halt")
	if m.IntReg(isa.RegZero) != 0 || m.IntReg(1) != 0 {
		t.Errorf("zero register leaked a value: r0=%d r1=%d", m.IntReg(0), m.IntReg(1))
	}
}

func TestLoadStore(t *testing.T) {
	m := run(t, `
main:
	ldi r1, 100
	ldi r2, -55
	st r2, 3(r1)
	ld r3, 3(r1)
	halt`)
	if m.IntReg(3) != -55 {
		t.Errorf("loaded %d, want -55", m.IntReg(3))
	}
	v, err := m.Mem(103)
	if err != nil || v != -55 {
		t.Errorf("mem[103] = %d, %v", v, err)
	}
}

func TestFPSemantics(t *testing.T) {
	m := run(t, `
main:
	ldi r1, 9
	itof f1, r1
	fsqrt f2, f1
	ldi r2, 2
	itof f3, r2
	fadd f4, f2, f3
	fsub f5, f4, f3
	fmul f6, f4, f3
	fdiv f7, f6, f3
	fneg f8, f7
	fabs f9, f8
	fmov f10, f9
	ftoi r3, f10
	flt r4, f3, f4
	feq r5, f9, f10
	halt`)
	if got := m.FPReg(2); got != 3 {
		t.Errorf("sqrt(9) = %g", got)
	}
	if got := m.FPReg(4); got != 5 {
		t.Errorf("3+2 = %g", got)
	}
	if got := m.FPReg(5); got != 3 {
		t.Errorf("5-2 = %g", got)
	}
	if got := m.FPReg(7); got != 5 {
		t.Errorf("10/2 = %g", got)
	}
	if got := m.FPReg(8); got != -5 {
		t.Errorf("neg = %g", got)
	}
	if m.IntReg(3) != 5 || m.IntReg(4) != 1 || m.IntReg(5) != 1 {
		t.Errorf("ftoi/flt/feq = %d/%d/%d", m.IntReg(3), m.IntReg(4), m.IntReg(5))
	}
}

func TestFPMemoryRoundTrip(t *testing.T) {
	m := run(t, `
main:
	ldi r1, 7
	itof f1, r1
	fdiv f2, f1, f1   ; 1.0
	fadd f3, f1, f2   ; 8.0
	fst f3, 200(zero)
	fld f4, 200(zero)
	halt`)
	if got := m.FPReg(4); got != 8 {
		t.Errorf("fld after fst = %g, want 8", got)
	}
}

func TestBranchesAndCalls(t *testing.T) {
	m := run(t, `
main:
	ldi r1, 0
	ldi r2, 5
loop:
	jal ra, bump
	blt r1, r2, loop
	jmp end
	ldi r9, 99   ; skipped
end:
	halt
bump:
	addi r1, r1, 1
	jalr zero, ra`)
	if m.IntReg(1) != 5 {
		t.Errorf("loop counter = %d, want 5", m.IntReg(1))
	}
	if m.IntReg(9) != 0 {
		t.Error("jmp failed to skip")
	}
}

func TestBranchConditions(t *testing.T) {
	m := run(t, `
main:
	ldi r1, 3
	ldi r2, 3
	beq r1, r2, a
	ldi r10, 1
a:	bne r1, r2, b
	ldi r11, 1
b:	bge r1, r2, c
	ldi r12, 1
c:	halt`)
	if m.IntReg(10) != 0 {
		t.Error("beq not taken on equal values")
	}
	if m.IntReg(11) != 1 {
		t.Error("bne taken on equal values")
	}
	if m.IntReg(12) != 0 {
		t.Error("bge not taken on equal values")
	}
}

func TestDivByZeroFaults(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n ldi r1, 1\n div r2, r1, zero\n halt")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(p, Config{})
	if err := m.Run(); !errors.Is(err, ErrDivZero) {
		t.Errorf("err = %v, want ErrDivZero", err)
	}
}

func TestMemFaults(t *testing.T) {
	for name, src := range map[string]string{
		"load oob":   "main:\n ldi r1, 9999999\n ld r2, 0(r1)\n halt",
		"store oob":  "main:\n ldi r1, -1\n st r1, 0(r1)\n halt",
		"fload oob":  "main:\n ldi r1, 9999999\n fld f2, 0(r1)\n halt",
		"fstore oob": "main:\n ldi r1, -5\n fst f2, 0(r1)\n halt",
	} {
		p, err := asm.Assemble("t", src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, _ := New(p, Config{MemWords: 1024})
		if err := m.Run(); !errors.Is(err, ErrMemFault) {
			t.Errorf("%s: err = %v, want ErrMemFault", name, err)
		}
	}
}

func TestBudgetExhaustion(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n jmp main\n")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(p, Config{MaxInstructions: 100})
	if err := m.Run(); !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestJALRToBadAddressFaults(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n ldi r1, 1000\n jalr ra, r1\n halt")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(p, Config{})
	if err := m.Run(); !errors.Is(err, ErrPCFault) {
		t.Errorf("err = %v, want ErrPCFault", err)
	}
}

func TestConfigValidation(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n halt\n.data\nbuf:\n\t.space 100")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, Config{MemWords: 10}); err == nil {
		t.Error("memory smaller than initialized data accepted")
	}
}

// TestTraceRecords verifies the stream the analyzers depend on: addresses,
// destination values, phases, memory addresses and register reads.
func TestTraceRecords(t *testing.T) {
	var recs []trace.Record
	run(t, `
main:
	phase 1
	ldi r1, 5
	addi r2, r1, 3
	st r2, 100(zero)
	ld r3, 100(zero)
	add r0, r1, r2   ; writes to zero: no destination value
	beq r1, r1, done
done:
	halt`, trace.ConsumerFunc(func(r *trace.Record) {
		recs = append(recs, *r)
	}))

	if len(recs) != 8 { // includes the final halt
		t.Fatalf("got %d records, want 8", len(recs))
	}
	// phase 1
	if recs[0].Op != isa.OpPHASE || recs[0].Phase != 1 || recs[0].HasDest {
		t.Errorf("phase record = %+v", recs[0])
	}
	// ldi r1, 5
	if !recs[1].HasDest || recs[1].Value != 5 || recs[1].Dest != 1 || recs[1].Phase != 1 {
		t.Errorf("ldi record = %+v", recs[1])
	}
	// addi r2, r1, 3 reads r1
	if recs[2].Value != 8 || !recs[2].Reads[0].Valid || recs[2].Reads[0].Reg != 1 {
		t.Errorf("addi record = %+v", recs[2])
	}
	// st: memory address, no dest
	if recs[3].HasDest || !recs[3].HasMem || recs[3].MemAddr != 100 {
		t.Errorf("st record = %+v", recs[3])
	}
	// ld: memory address and dest
	if !recs[4].HasDest || recs[4].Value != 8 || !recs[4].HasMem || recs[4].MemAddr != 100 {
		t.Errorf("ld record = %+v", recs[4])
	}
	// add to r0: no dest
	if recs[5].HasDest {
		t.Errorf("write to r0 reported a destination: %+v", recs[5])
	}
	// taken branch
	if !recs[6].Taken {
		t.Errorf("beq record not taken: %+v", recs[6])
	}
	// sequence numbers are consecutive
	for i, r := range recs {
		if r.Seq != int64(i) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestFPTraceValueIsBitPattern(t *testing.T) {
	var got int64
	run(t, `
main:
	ldi r1, 3
	itof f1, r1
	halt`, trace.ConsumerFunc(func(r *trace.Record) {
		if r.Op == isa.OpITOF {
			got = r.Value
			if !r.DestFP {
				t.Error("itof record not marked FP")
			}
		}
	}))
	if got != int64(math.Float64bits(3.0)) {
		t.Errorf("FP trace value = %#x, want bits of 3.0", got)
	}
}

func TestStackPointerInitialized(t *testing.T) {
	m := run(t, "main:\n halt")
	if m.IntReg(isa.RegSP) == 0 {
		t.Error("sp not initialized to top of memory")
	}
}

func TestFTOISaturation(t *testing.T) {
	m := run(t, `
main:
	ldi r1, 1
	itof f1, r1
	ldi r2, 0
	itof f2, r2
	fdiv f3, f1, f2   ; +Inf
	ftoi r3, f3
	fneg f4, f3       ; -Inf
	ftoi r4, f4
	fdiv f5, f2, f2   ; NaN
	ftoi r5, f5
	halt`)
	if m.IntReg(3) != math.MaxInt64 {
		t.Errorf("ftoi(+Inf) = %d", m.IntReg(3))
	}
	if m.IntReg(4) != math.MinInt64 {
		t.Errorf("ftoi(-Inf) = %d", m.IntReg(4))
	}
	if m.IntReg(5) != 0 {
		t.Errorf("ftoi(NaN) = %d", m.IntReg(5))
	}
}
