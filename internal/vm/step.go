package vm

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/trace"
)

// The dispatch loop. Each retired instruction's record is written as
// destructured fields straight into the SoA staging columns of a trace
// chunk — about ten plain stores, with the packed operand-read and
// directive bytes precomputed per static instruction at predecode — and the
// budget/fuel/trace-limit checks are hoisted out of the per-step path to
// chunk-flush granularity: the inner loop runs to a precomputed stop bound
// (the nearest of the limits and the stage capacity), so each step checks
// nothing but the PC bound and the halt flag. Limit errors still fire at
// exactly the instruction that exceeds the limit. An armed fault plan caps
// the bound at one instruction so the vm.step point is evaluated before
// every instruction; with no plan armed the inner loop carries no hook.

// run executes until HALT or a limit, appending one column row per retired
// instruction and calling ca.FlushColumns whenever the stage fills. The
// caller flushes the partial tail.
func (m *Machine) run(ca trace.ColumnAppender, st *trace.RecordColumns, events int64) error {
	budget := m.cfg.MaxInstructions
	fuel := m.cfg.Limits.MaxSteps
	inject := faults.Active()
	for {
		if st.N == st.Cap() {
			st = ca.FlushColumns()
		}
		// The nearest point where a check must re-fire: a limit, or the
		// stage filling.
		stop := budget
		if fuel > 0 && fuel < stop {
			stop = fuel
		}
		if events > 0 && events < stop {
			stop = events
		}
		if room := m.seq + int64(st.Cap()-st.N); room < stop {
			stop = room
		}
		if inject && m.seq < stop {
			if err := faults.Inject(PointStep); err != nil {
				return fmt.Errorf("vm: step %d: %w", m.seq, err)
			}
			stop = m.seq + 1
		}
		for m.seq < stop {
			if uint64(m.pc) >= uint64(len(m.dec)) {
				return fmt.Errorf("%w: pc=%d text=[0,%d)", ErrPCFault, m.pc, len(m.dec))
			}
			if err := m.step(&m.dec[m.pc], st); err != nil {
				return err
			}
			if m.halted {
				return nil
			}
		}
		if m.seq >= budget {
			return fmt.Errorf("%w (%d instructions, pc=%d)", ErrBudget, m.seq, m.pc)
		}
		if fuel > 0 && m.seq >= fuel {
			return fmt.Errorf("%w: MaxSteps=%d reached at pc=%d", ErrFuelExhausted, fuel, m.pc)
		}
		if events > 0 && m.seq >= events {
			return fmt.Errorf("%w: MaxTraceEvents=%d reached at pc=%d", ErrTraceLimit, events, m.pc)
		}
	}
}

// step executes one pre-decoded instruction and appends its record fields
// to the staging columns. The caller has bounds-checked the PC and
// guaranteed stage room.
func (m *Machine) step(ins *decoded, st *trace.RecordColumns) error {
	nextPC := m.pc + 1
	rs1 := m.regs[ins.rs1]
	rs2 := m.regs[ins.rs2]

	// The record row under construction. setInt retires an integer
	// result (writes to the hard-wired zero register are discarded and
	// produce no observable value); setFP retires a floating-point result,
	// which the trace carries as its IEEE-754 bit pattern.
	var value, memAddr int64
	flags := ins.flagBase
	var dest byte
	rd := ins.rd

	setInt := func(v isa.Word) {
		if rd != isa.RegZero {
			m.regs[rd] = v
			flags |= 1
			dest = byte(rd)
			value = v
		}
	}
	setFP := func(v float64) {
		m.fregs[rd] = v
		flags |= 1 | 2
		dest = byte(rd)
		value = int64(math.Float64bits(v))
	}

	switch ins.op {
	case isa.OpADD:
		setInt(rs1 + rs2)
	case isa.OpSUB:
		setInt(rs1 - rs2)
	case isa.OpMUL:
		setInt(rs1 * rs2)
	case isa.OpDIV:
		if rs2 == 0 {
			return fmt.Errorf("%w at pc=%d", ErrDivZero, m.pc)
		}
		setInt(rs1 / rs2)
	case isa.OpREM:
		if rs2 == 0 {
			return fmt.Errorf("%w at pc=%d", ErrDivZero, m.pc)
		}
		setInt(rs1 % rs2)
	case isa.OpAND:
		setInt(rs1 & rs2)
	case isa.OpOR:
		setInt(rs1 | rs2)
	case isa.OpXOR:
		setInt(rs1 ^ rs2)
	case isa.OpSLL:
		setInt(rs1 << (uint64(rs2) & 63))
	case isa.OpSRL:
		setInt(int64(uint64(rs1) >> (uint64(rs2) & 63)))
	case isa.OpSRA:
		setInt(rs1 >> (uint64(rs2) & 63))
	case isa.OpSLT:
		setInt(boolWord(rs1 < rs2))

	case isa.OpADDI:
		setInt(rs1 + ins.imm)
	case isa.OpMULI:
		setInt(rs1 * ins.imm)
	case isa.OpANDI:
		setInt(rs1 & ins.imm)
	case isa.OpORI:
		setInt(rs1 | ins.imm)
	case isa.OpXORI:
		setInt(rs1 ^ ins.imm)
	case isa.OpSLLI:
		setInt(rs1 << (uint64(ins.imm) & 63))
	case isa.OpSRLI:
		setInt(int64(uint64(rs1) >> (uint64(ins.imm) & 63)))
	case isa.OpSRAI:
		setInt(rs1 >> (uint64(ins.imm) & 63))
	case isa.OpSLTI:
		setInt(boolWord(rs1 < ins.imm))

	case isa.OpLDI:
		setInt(ins.imm)

	case isa.OpLD:
		a := rs1 + ins.imm
		if uint64(a) >= uint64(len(m.mem)) {
			return fmt.Errorf("%w: load of %d at pc=%d (mem size %d)", ErrMemFault, a, m.pc, len(m.mem))
		}
		flags |= 8
		memAddr = a
		setInt(m.mem[a])
	case isa.OpST:
		a := rs1 + ins.imm
		if uint64(a) >= uint64(len(m.mem)) {
			return fmt.Errorf("%w: store to %d at pc=%d (mem size %d)", ErrMemFault, a, m.pc, len(m.mem))
		}
		m.mem[a] = rs2
		flags |= 8
		memAddr = a
		// Stores carry the stored value in the record (HasDest stays
		// false): the store-value-prediction extension profiles it.
		value = rs2
	case isa.OpFLD:
		a := rs1 + ins.imm
		if uint64(a) >= uint64(len(m.mem)) {
			return fmt.Errorf("%w: load of %d at pc=%d (mem size %d)", ErrMemFault, a, m.pc, len(m.mem))
		}
		flags |= 8
		memAddr = a
		setFP(math.Float64frombits(uint64(m.mem[a])))
	case isa.OpFST:
		a := rs1 + ins.imm
		if uint64(a) >= uint64(len(m.mem)) {
			return fmt.Errorf("%w: store to %d at pc=%d (mem size %d)", ErrMemFault, a, m.pc, len(m.mem))
		}
		v := int64(math.Float64bits(m.fregs[ins.rs2]))
		m.mem[a] = v
		flags |= 8
		memAddr = a
		value = v

	case isa.OpBEQ:
		if rs1 == rs2 {
			nextPC = ins.imm
			flags |= 4
		}
	case isa.OpBNE:
		if rs1 != rs2 {
			nextPC = ins.imm
			flags |= 4
		}
	case isa.OpBLT:
		if rs1 < rs2 {
			nextPC = ins.imm
			flags |= 4
		}
	case isa.OpBGE:
		if rs1 >= rs2 {
			nextPC = ins.imm
			flags |= 4
		}
	case isa.OpJMP:
		nextPC = ins.imm
		flags |= 4
	case isa.OpJAL:
		setInt(m.pc + 1)
		nextPC = ins.imm
		flags |= 4
	case isa.OpJALR:
		setInt(m.pc + 1)
		nextPC = rs1
		flags |= 4

	case isa.OpFADD:
		setFP(m.fregs[ins.rs1] + m.fregs[ins.rs2])
	case isa.OpFSUB:
		setFP(m.fregs[ins.rs1] - m.fregs[ins.rs2])
	case isa.OpFMUL:
		setFP(m.fregs[ins.rs1] * m.fregs[ins.rs2])
	case isa.OpFDIV:
		setFP(m.fregs[ins.rs1] / m.fregs[ins.rs2])
	case isa.OpFMOV:
		setFP(m.fregs[ins.rs1])
	case isa.OpFNEG:
		setFP(-m.fregs[ins.rs1])
	case isa.OpFABS:
		setFP(math.Abs(m.fregs[ins.rs1]))
	case isa.OpFSQRT:
		setFP(math.Sqrt(math.Abs(m.fregs[ins.rs1])))
	case isa.OpITOF:
		setFP(float64(rs1))
	case isa.OpFTOI:
		setInt(truncToInt(m.fregs[ins.rs1]))
	case isa.OpFLT:
		setInt(boolWord(m.fregs[ins.rs1] < m.fregs[ins.rs2]))
	case isa.OpFEQ:
		setInt(boolWord(m.fregs[ins.rs1] == m.fregs[ins.rs2]))

	case isa.OpNOP:
	case isa.OpHALT:
		m.halted = true
	case isa.OpPHASE:
		m.phase = int(ins.imm)

	default:
		return fmt.Errorf("vm: unimplemented opcode %s at pc=%d", ins.op, m.pc)
	}

	i := st.N
	st.Op[i] = byte(ins.op)
	st.Flags[i] = flags
	st.Dest[i] = dest
	st.Reads[2*i] = ins.r0
	st.Reads[2*i+1] = ins.r1
	st.Addr[i] = m.pc
	st.Value[i] = value
	st.Mem[i] = memAddr
	st.Phase[i] = int64(m.phase)
	st.Seq[i] = m.seq
	st.N = i + 1

	m.pc = nextPC
	m.seq++
	return nil
}
