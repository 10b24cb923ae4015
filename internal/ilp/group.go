package ilp

import "repro/internal/trace"

// groupKey is the GroupKey of a machine the group kernel can schedule:
// machines group only with the same Config at the same stream position.
type groupKey struct {
	cfg Config
	pos int64
}

// GroupKey implements trace.GroupConsumer. Machines with the in-order
// front end or a branch predictor return nil and always run alone.
func (m *Machine) GroupKey() any {
	if m.cfg.IssueWidth > 0 || m.branchPred != nil {
		return nil
	}
	return groupKey{m.cfg, m.count}
}

// ConsumeGroup implements trace.GroupConsumer: it runs the second phase of
// ConsumeBatch for every machine of group, each already prepared with b,
// in groups of at most three per loop.
func (*Machine) ConsumeGroup(b *trace.Batch, group []trace.GroupConsumer) {
	for len(group) > 0 {
		k := min(len(group), 3)
		if len(group) == 4 {
			k = 2
		}
		g := group[:k]
		group = group[k:]
		switch k {
		case 1:
			g[0].(*Machine).schedule(b)
		case 2:
			schedule2(b, g[0].(*Machine), g[1].(*Machine))
		case 3:
			schedule3(b, g[0].(*Machine), g[1].(*Machine), g[2].(*Machine))
		}
	}
}

// schedule2 and schedule3 are schedule for two and three machines of one
// groupKey, in one loop. Each record's read indices, load/store branch,
// destination slot and window slot are computed once. Every machine keeps
// its own dependence chain (register and memory readiness, outcome,
// retire ring and lastRetire) in locals of its own, so the out-of-order
// core overlaps the chains; the machines share nothing else that is
// written, which keeps each schedule exactly what schedule computes alone.
func schedule2(b *trace.Batch, m0, m1 *Machine) {
	n := b.N
	ops, flags, dests, reads, mems := b.Op[:n], b.Flags[:n], b.Dest[:n], b.Reads[:2*n], b.MemAddr[:n]
	latency, penalty := m0.cfg.Latency, m0.cfg.MispredictPenalty
	slot, w := m0.slot, len(m0.retire)
	o0, o1 := m0.outcomes[:n], m1.outcomes[:n]
	r0, r1 := &m0.ready, &m1.ready
	t0, t1 := &m0.mem, &m1.mem
	q0, q1 := m0.retire[:w], m1.retire[:w]
	l0, l1 := m0.lastRetire, m1.lastRetire
	for i, op := range ops {
		rd0, rd1 := reads[2*i], reads[2*i+1]
		a, c := rd0&0x7f&-(rd0>>7), rd1&0x7f&-(rd1>>7)
		e0, e1 := q0[slot], q1[slot]
		s0 := max(e0, r0[a], r0[c])
		s1 := max(e1, r1[a], r1[c])
		f := flags[i]
		if f&trace.FlagHasMem != 0 {
			ma := mems[i]
			if isStore[op] {
				t0.set(ma, s0+latency)
				t1.set(ma, s1+latency)
			} else {
				s0 = max(s0, t0.get(ma))
				s1 = max(s1, t1.get(ma))
			}
		}
		d := int(dests[i]&0x3f) | int(f&trace.FlagDestFP)<<5 | int(^f&trace.FlagHasDest)<<7
		if d == 0 {
			d = readySink
		}
		c0, c1 := s0+latency, s1+latency
		r0[d] = destReady(o0[i], c0, e0, penalty)
		r1[d] = destReady(o1[i], c1, e1, penalty)
		l0, l1 = max(c0, l0), max(c1, l1)
		q0[slot], q1[slot] = l0, l1
		if slot++; slot == w {
			slot = 0
		}
	}
	m0.lastRetire, m1.lastRetire = l0, l1
	for _, m := range [...]*Machine{m0, m1} {
		m.slot = slot
		m.count += int64(n)
	}
}

func schedule3(b *trace.Batch, m0, m1, m2 *Machine) {
	n := b.N
	ops, flags, dests, reads, mems := b.Op[:n], b.Flags[:n], b.Dest[:n], b.Reads[:2*n], b.MemAddr[:n]
	latency, penalty := m0.cfg.Latency, m0.cfg.MispredictPenalty
	slot, w := m0.slot, len(m0.retire)
	o0, o1, o2 := m0.outcomes[:n], m1.outcomes[:n], m2.outcomes[:n]
	r0, r1, r2 := &m0.ready, &m1.ready, &m2.ready
	t0, t1, t2 := &m0.mem, &m1.mem, &m2.mem
	q0, q1, q2 := m0.retire[:w], m1.retire[:w], m2.retire[:w]
	l0, l1, l2 := m0.lastRetire, m1.lastRetire, m2.lastRetire
	for i, op := range ops {
		rd0, rd1 := reads[2*i], reads[2*i+1]
		a, c := rd0&0x7f&-(rd0>>7), rd1&0x7f&-(rd1>>7)
		e0, e1, e2 := q0[slot], q1[slot], q2[slot]
		s0 := max(e0, r0[a], r0[c])
		s1 := max(e1, r1[a], r1[c])
		s2 := max(e2, r2[a], r2[c])
		f := flags[i]
		if f&trace.FlagHasMem != 0 {
			ma := mems[i]
			if isStore[op] {
				t0.set(ma, s0+latency)
				t1.set(ma, s1+latency)
				t2.set(ma, s2+latency)
			} else {
				s0 = max(s0, t0.get(ma))
				s1 = max(s1, t1.get(ma))
				s2 = max(s2, t2.get(ma))
			}
		}
		d := int(dests[i]&0x3f) | int(f&trace.FlagDestFP)<<5 | int(^f&trace.FlagHasDest)<<7
		if d == 0 {
			d = readySink
		}
		c0, c1, c2 := s0+latency, s1+latency, s2+latency
		r0[d] = destReady(o0[i], c0, e0, penalty)
		r1[d] = destReady(o1[i], c1, e1, penalty)
		r2[d] = destReady(o2[i], c2, e2, penalty)
		l0, l1, l2 = max(c0, l0), max(c1, l1), max(c2, l2)
		q0[slot], q1[slot], q2[slot] = l0, l1, l2
		if slot++; slot == w {
			slot = 0
		}
	}
	m0.lastRetire, m1.lastRetire, m2.lastRetire = l0, l1, l2
	for _, m := range [...]*Machine{m0, m1, m2} {
		m.slot = slot
		m.count += int64(n)
	}
}
