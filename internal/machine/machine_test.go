package machine

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(Config{P: 4, Alpha: 1, Beta: 0.5, FlopTime: 1})
	if m.P() != 4 {
		t.Fatalf("P = %d", m.P())
	}
	for i := 0; i < m.P(); i++ {
		if m.Clock(i) != 0 {
			t.Fatal("fresh machine clocks not zero")
		}
	}
	if m.Config().Beta != 0.5 {
		t.Fatal("config not preserved")
	}
}

func TestNewPanics(t *testing.T) {
	for _, cfg := range []Config{
		{P: 0},
		{P: 2, Alpha: -1},
		{P: 2, Beta: -0.1},
		{P: 2, FlopTime: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %+v", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestCompute(t *testing.T) {
	m := New(Config{P: 2, FlopTime: 2})
	m.Compute(0, 5)
	if m.Clock(0) != 10 {
		t.Fatalf("clock = %v, want 10", m.Clock(0))
	}
	if m.Clock(1) != 0 {
		t.Fatal("compute leaked to other processor")
	}
	if m.Stats().Flops != 5 {
		t.Fatalf("flops = %d", m.Stats().Flops)
	}
	m.ComputeAll(3)
	if m.Clock(1) != 6 {
		t.Fatalf("ComputeAll clock = %v", m.Clock(1))
	}
}

func TestSendSemantics(t *testing.T) {
	m := New(Config{P: 2, Alpha: 2, Beta: 0.5, FlopTime: 1})
	m.Compute(0, 4) // sender at t=4
	m.Send(0, 1, 10)
	// Departure at 4; sender occupied until 6; arrival 4 + 2 + 5 = 11.
	if m.Clock(0) != 6 {
		t.Fatalf("sender clock %v, want 6", m.Clock(0))
	}
	if m.Clock(1) != 11 {
		t.Fatalf("receiver clock %v, want 11", m.Clock(1))
	}
	st := m.Stats()
	if st.Messages != 1 || st.Words != 10 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSendToLateReceiver(t *testing.T) {
	m := New(Config{P: 2, Alpha: 1, Beta: 0, FlopTime: 1})
	m.Compute(1, 100) // receiver already busy until 100
	m.Send(0, 1, 1)
	if m.Clock(1) != 100 {
		t.Fatalf("receiver clock %v should stay at 100", m.Clock(1))
	}
}

func TestSendSelfIsFree(t *testing.T) {
	m := New(Config{P: 2, Alpha: 5, Beta: 5, FlopTime: 1})
	m.Send(1, 1, 100)
	if m.Clock(1) != 0 {
		t.Fatal("self-send should be free")
	}
	if m.Stats().Messages != 0 {
		t.Fatal("self-send counted as message")
	}
}

func TestExchange(t *testing.T) {
	m := New(Config{P: 2, Alpha: 3, Beta: 1, FlopTime: 1})
	m.Compute(0, 2)
	m.Compute(1, 7)
	m.Exchange(0, 1, 4)
	want := 7.0 + 3 + 4
	if m.Clock(0) != want || m.Clock(1) != want {
		t.Fatalf("exchange clocks %v %v, want %v", m.Clock(0), m.Clock(1), want)
	}
	if m.Stats().Messages != 2 || m.Stats().Words != 8 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

func TestAdvanceTo(t *testing.T) {
	m := New(DefaultConfig(2))
	m.AdvanceTo(0, 50)
	if m.Clock(0) != 50 {
		t.Fatal("AdvanceTo did not raise clock")
	}
	m.AdvanceTo(0, 10)
	if m.Clock(0) != 50 {
		t.Fatal("AdvanceTo lowered clock")
	}
}

func TestClocksCopy(t *testing.T) {
	m := New(DefaultConfig(3))
	cs := m.Clocks()
	cs[0] = 99
	if m.Clock(0) != 0 {
		t.Fatal("Clocks exposes internal storage")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(DefaultConfig(2))
	for _, f := range []func(){
		func() { m.Clock(2) },
		func() { m.Compute(-1, 1) },
		func() { m.Send(0, 5, 1) },
		func() { m.Compute(0, -1) },
		func() { m.Send(0, 1, -1) },
		func() { m.Exchange(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: clocks never decrease under any operation sequence.
func TestPropClocksMonotone(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(Config{P: 4, Alpha: 1, Beta: 0.25, FlopTime: 1})
		prev := m.Clocks()
		for _, op := range ops {
			a := int(op) % 4
			b := int(op>>2) % 4
			switch op % 3 {
			case 0:
				m.Compute(a, int(op)%7)
			case 1:
				m.Send(a, b, int(op)%5)
			case 2:
				m.Exchange(a, b, int(op)%5)
			}
			cur := m.Clocks()
			for i := range cur {
				if cur[i] < prev[i] {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSendPhaseParallelism(t *testing.T) {
	// Four disjoint messages posted together: every receiver sees one
	// latency, not a cascade.
	m := New(Config{P: 8, Alpha: 10, Beta: 1, FlopTime: 1})
	m.SendPhase([]Message{
		{From: 0, To: 1, Words: 2},
		{From: 2, To: 3, Words: 2},
		{From: 4, To: 5, Words: 2},
		{From: 6, To: 7, Words: 2},
	})
	for _, i := range []int{1, 3, 5, 7} {
		if m.Clock(i) != 12 {
			t.Fatalf("receiver %d clock %v, want 12", i, m.Clock(i))
		}
	}
	for _, i := range []int{0, 2, 4, 6} {
		if m.Clock(i) != 10 {
			t.Fatalf("sender %d clock %v, want 10 (one send overhead)", i, m.Clock(i))
		}
	}
}

func TestSendPhaseNoReceiveSendCascade(t *testing.T) {
	// A shift pattern 0->1->2->3: with posted sends, receiving must not
	// delay a processor's own send. All receivers end at alpha+beta.
	m := New(Config{P: 4, Alpha: 5, Beta: 0, FlopTime: 1})
	m.SendPhase([]Message{
		{From: 0, To: 1, Words: 0},
		{From: 1, To: 2, Words: 0},
		{From: 2, To: 3, Words: 0},
	})
	for _, i := range []int{1, 2, 3} {
		if m.Clock(i) != 5 {
			t.Fatalf("proc %d clock %v, want 5 (no cascade)", i, m.Clock(i))
		}
	}
}

func TestSendPhaseMultipleSendsSerializeAtSender(t *testing.T) {
	m := New(Config{P: 3, Alpha: 4, Beta: 0, FlopTime: 1})
	m.SendPhase([]Message{
		{From: 0, To: 1, Words: 0},
		{From: 0, To: 2, Words: 0},
	})
	if m.Clock(0) != 8 {
		t.Fatalf("sender clock %v, want 8 (two send overheads)", m.Clock(0))
	}
	if m.Clock(1) != 4 {
		t.Fatalf("first receiver clock %v, want 4", m.Clock(1))
	}
	// Second message departs after the first send's overhead (t=4) and
	// arrives one latency later.
	if m.Clock(2) != 8 {
		t.Fatalf("second receiver clock %v, want 8", m.Clock(2))
	}
}

func TestSendPhaseSelfMessageFree(t *testing.T) {
	m := New(DefaultConfig(2))
	m.SendPhase([]Message{{From: 1, To: 1, Words: 100}})
	if m.MaxClock() != 0 || m.Stats().Messages != 0 {
		t.Fatal("self message in phase should be free")
	}
}

func TestSendPhasePanicsOnBadMessage(t *testing.T) {
	m := New(DefaultConfig(2))
	for _, msgs := range [][]Message{
		{{From: 0, To: 5, Words: 1}},
		{{From: 0, To: 1, Words: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			m.SendPhase(msgs)
		}()
	}
}

func TestSendPhaseEmptyNoop(t *testing.T) {
	m := New(DefaultConfig(3))
	m.Compute(1, 7)
	m.SendPhase(nil)
	if m.Clock(1) != 7 || m.Clock(0) != 0 {
		t.Fatal("empty phase changed clocks")
	}
}

// allreduceTime is the parallel time of one words-wide allreduce on a
// fresh machine.
func allreduceTime(cfg Config, words int) float64 {
	m := New(cfg)
	m.Allreduce(words)
	return m.MaxClock()
}

// allreduceShape is the recursive-doubling schedule on p processors:
// its critical-path rounds and its message count. On a power of two,
// log2 P exchange rounds of 2 messages a pair; past it, one fold message
// in and one replay message out per extra processor, two rounds more on
// the critical path.
func allreduceShape(p int) (rounds, msgs int) {
	core := 1
	for core*2 <= p {
		core *= 2
		rounds++
	}
	msgs = core * rounds
	if tail := p - core; tail > 0 {
		rounds += 2
		msgs += 2 * tail
	}
	return rounds, msgs
}

// TestAllreduceRoundsAndMessages pins the one-word schedule for every
// shape of P — powers of two, a single extra processor, a tail nearly
// the size of the core — and checks that every processor leaves the
// allreduce: none ends past the critical path, each has paid at least
// the exchange rounds of the core.
func TestAllreduceRoundsAndMessages(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 7, 8, 12, 16, 31, 33} {
		rounds, msgs := allreduceShape(p)
		m := New(Config{P: p, Alpha: 1, Beta: 0.5, FlopTime: 0})
		m.Allreduce(1)
		if want := float64(rounds) * 1.5; m.MaxClock() != want {
			t.Fatalf("P=%d: time %v, want %v", p, m.MaxClock(), want)
		}
		if st := m.Stats(); st.Messages != msgs || st.Words != msgs {
			t.Fatalf("P=%d: stats %+v, want %d messages", p, st, msgs)
		}
		coreRounds := 0
		for 2<<coreRounds <= p {
			coreRounds++
		}
		for i, c := range m.Clocks() {
			if c < float64(coreRounds)*1.5 {
				t.Fatalf("P=%d proc %d left the allreduce at %v, before the core's rounds", p, i, c)
			}
		}
	}
}

// TestAllreduceBatchedWords: a w-word allreduce takes the one-word
// schedule's rounds and messages; words scale the beta term and the word
// count, never the rounds.
func TestAllreduceBatchedWords(t *testing.T) {
	for _, p := range []int{8, 13} {
		rounds, msgs := allreduceShape(p)
		for _, w := range []int{1, 5, 64} {
			m := New(Config{P: p, Alpha: 1, Beta: 0.5, FlopTime: 0})
			m.Allreduce(w)
			if want := float64(rounds) * (1 + 0.5*float64(w)); m.MaxClock() != want {
				t.Fatalf("P=%d w=%d: time %v, want %v", p, w, m.MaxClock(), want)
			}
			if st := m.Stats(); st.Messages != msgs || st.Words != w*msgs {
				t.Fatalf("P=%d w=%d: stats %+v, want %d messages of %d words", p, w, st, msgs, w)
			}
		}
	}
}

func TestAllreducePanicsOnBadArguments(t *testing.T) {
	m := New(DefaultConfig(4))
	m.Compute(1, 3)
	var h Handle
	for _, f := range []func(){
		func() { m.Allreduce(-1) },
		func() { m.IAllreduce(&h, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
	// A refused issue leaves the machine on its own clocks, not the
	// handle's copy.
	if m.Clock(1) != 3 || m.MaxClock() != 3 || m.Stats().Messages != 0 {
		t.Fatalf("refused allreduce changed the machine: clocks %v, stats %+v", m.Clocks(), m.Stats())
	}
	m.Compute(0, 2)
	if m.Clock(0) != 2 {
		t.Fatalf("machine lost its clocks after a refused issue: %v", m.Clocks())
	}
}

func TestAllreduceBatchingCheaperThanSeparate(t *testing.T) {
	// One 16-word allreduce must beat sixteen 1-word allreduces: the
	// latency term amortizes. This is why VRCG batches its base inner
	// products.
	p, w := 64, 16
	batched := New(DefaultConfig(p))
	batched.Allreduce(w)
	separate := New(DefaultConfig(p))
	for j := 0; j < w; j++ {
		separate.Allreduce(1)
	}
	if batched.MaxClock() >= separate.MaxClock() {
		t.Fatalf("batched %v not cheaper than separate %v", batched.MaxClock(), separate.MaxClock())
	}
}

func TestAllreduceLogTime(t *testing.T) {
	tcost := func(p int) float64 { return allreduceTime(DefaultConfig(p), 1) }
	// log2 ratio: 12/8 = 1.5; linear would be 16.
	if ratio := tcost(4096) / tcost(256); ratio > 2.5 {
		t.Fatalf("allreduce not logarithmic: ratio %.2f", ratio)
	}
}

// Property: allreduce completion time grows at most logarithmically:
// doubling P adds at most one round's cost.
func TestPropAllreduceLogRounds(t *testing.T) {
	f := func(e uint8) bool {
		exp := int(e)%8 + 2 // P = 4 .. 512
		p := 1 << exp
		t1 := allreduceTime(DefaultConfig(p), 1)
		t2 := allreduceTime(DefaultConfig(2*p), 1)
		perRound := t1 / float64(exp)
		return t2 <= t1+perRound*1.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestIAllreduceIssueIsolation: an issued allreduce runs on its own copy
// of the clocks — the primary clocks, whatever they held, do not move at
// issue — while its messages, words and additions add to the machine's
// stats at once.
func TestIAllreduceIssueIsolation(t *testing.T) {
	p := 6
	m := New(DefaultConfig(p))
	m.Compute(0, 5)
	before := m.Clocks()
	var h Handle
	m.IAllreduce(&h, 2)
	if got := m.Clocks(); !slices.Equal(got, before) {
		t.Fatalf("issue moved primary clocks: %v -> %v", before, got)
	}
	blocking := New(DefaultConfig(p))
	blocking.Allreduce(2)
	want := blocking.Stats()
	want.Flops += 5
	if m.Stats() != want {
		t.Fatalf("issued stats %+v, want %+v", m.Stats(), want)
	}
	if h.done[0] <= m.Clock(0) {
		t.Fatalf("handle completes at %v, not past the issuing clock %v", h.done[0], m.Clock(0))
	}
}

func TestIAllreduceOverlap(t *testing.T) {
	p := 16
	m := New(DefaultConfig(p))
	var h Handle
	m.IAllreduce(&h, 1)
	// Primary clocks untouched at issue.
	if m.MaxClock() != 0 {
		t.Fatalf("issue advanced primary clocks to %v", m.MaxClock())
	}
	// Overlapped local work longer than the reduction: wait is then free.
	m.ComputeAll(10000)
	before := m.Clocks()
	m.Wait(&h)
	after := m.Clocks()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("wait stalled proc %d despite overlap: %v -> %v", i, before[i], after[i])
		}
	}
}

func TestIAllreduceWaitStallsWithoutOverlap(t *testing.T) {
	// No local work: waiting must advance the clocks to where the
	// blocking form ends.
	p := 13
	m := New(DefaultConfig(p))
	var h Handle
	m.IAllreduce(&h, 3)
	m.Wait(&h)
	blocking := New(DefaultConfig(p))
	blocking.Allreduce(3)
	for i := 0; i < p; i++ {
		if m.Clock(i) != blocking.Clock(i) {
			t.Fatalf("proc %d: issued+wait %v, blocking %v", i, m.Clock(i), blocking.Clock(i))
		}
	}
}
