package simclock

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestChargeAccumulates(t *testing.T) {
	c := NewClock()
	c.Charge(PhaseConfirm, 10)
	c.Charge(PhaseConfirm, 5)
	c.Charge(PhaseSelect, 2)
	if got := c.PhaseMS(PhaseConfirm); got != 15 {
		t.Fatalf("PhaseMS(confirm) = %v, want 15", got)
	}
	if got := c.TotalMS(); got != 17 {
		t.Fatalf("TotalMS = %v, want 17", got)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	for _, ms := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("charge %v did not panic", ms)
				}
			}()
			NewClock().Charge(PhaseSelect, ms)
		}()
	}
}

func TestValidateRejectsNegativeAndNonFiniteCosts(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default model rejected: %v", err)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := Default()
		m.SelectPerFrameMS = bad
		if m.Validate() == nil {
			t.Fatalf("SelectPerFrameMS %v accepted", bad)
		}
	}
}

// TestDefaultCostsAreWholeTicks: every default cost is a whole number of
// the clock's ticks, so charging one never rounds.
func TestDefaultCostsAreWholeTicks(t *testing.T) {
	m := reflect.ValueOf(Default())
	for i := 0; i < m.NumField(); i++ {
		ms := m.Field(i).Float()
		if ticks := ms * ticksPerMS; ticks != math.Round(ticks) {
			t.Fatalf("%s = %v ms is %v ticks", m.Type().Field(i).Name, ms, ticks)
		}
	}
}

// clockBits is every value a clock reports, as float bits: TotalMS, each
// phase's PhaseMS and the Breakdown's MS and Share.
func clockBits(c *Clock) []uint64 {
	out := []uint64{math.Float64bits(c.TotalMS())}
	for _, ps := range c.Breakdown() {
		out = append(out, math.Float64bits(c.PhaseMS(ps.Phase)), math.Float64bits(ps.MS), math.Float64bits(ps.Share))
	}
	return out
}

type charge struct {
	ph Phase
	ms float64
}

// nonRoundCharges is a multiset of costs with no short binary expansion,
// whose float sum depends on the order it is taken in.
func nonRoundCharges() []charge {
	phases := []Phase{PhaseLabelSamples, PhaseTrainCMDN, PhasePopulateD0, PhaseConfirm}
	var out []charge
	for i, ms := range []float64{0.1, 0.2, 0.3, 0.47, 191.31, 17.47, 5.51, 2.9} {
		for j := 0; j < 25; j++ {
			out = append(out, charge{phases[(i+j)%len(phases)], ms})
		}
	}
	for n := 1; n <= 50; n++ {
		out = append(out, charge{PhaseSelect, float64(n) * 1e-4})
	}
	return out
}

// TestChargeOrderIndependent: one multiset of non-round charges, charged
// in 100 seeded orders and split across 8 goroutines, gives bit-identical
// TotalMS, PhaseMS and Breakdown every time.
func TestChargeOrderIndependent(t *testing.T) {
	charges := nonRoundCharges()
	ref := NewClock()
	for _, ch := range charges {
		ref.Charge(ch.ph, ch.ms)
	}
	want := clockBits(ref)
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 100; trial++ {
		rng.Shuffle(len(charges), func(i, j int) { charges[i], charges[j] = charges[j], charges[i] })
		serial := NewClock()
		for _, ch := range charges {
			serial.Charge(ch.ph, ch.ms)
		}
		if got := clockBits(serial); !slices.Equal(got, want) {
			t.Fatalf("order %d: clock bits %x, want %x", trial, got, want)
		}
		shared := NewClock()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := g; k < len(charges); k += 8 {
					shared.Charge(charges[k].ph, charges[k].ms)
				}
			}()
		}
		wg.Wait()
		if got := clockBits(shared); !slices.Equal(got, want) {
			t.Fatalf("order %d on 8 goroutines: clock bits %x, want %x", trial, got, want)
		}
	}
}

// TestChargeParallelMaxOrderIndependent: folding the same workers in
// every order gives the same clock bits and the same returned sum.
func TestChargeParallelMaxOrderIndependent(t *testing.T) {
	charges := nonRoundCharges()
	workers := make([]*Clock, 4)
	for w := range workers {
		workers[w] = NewClock()
		for k := w; k < len(charges); k += 3 {
			workers[w].Charge(charges[k].ph, charges[k].ms)
		}
	}
	var want []uint64
	var wantSum float64
	var permute func(int)
	permute = func(i int) {
		if i == len(workers) {
			c := NewClock()
			sum := c.ChargeParallelMax(workers)
			if want == nil {
				want, wantSum = clockBits(c), sum
			} else if got := clockBits(c); !slices.Equal(got, want) || math.Float64bits(sum) != math.Float64bits(wantSum) {
				t.Fatalf("workers folded in another order: bits %x sum %v, want %x sum %v", got, sum, want, wantSum)
			}
			return
		}
		for j := i; j < len(workers); j++ {
			workers[i], workers[j] = workers[j], workers[i]
			permute(i + 1)
			workers[i], workers[j] = workers[j], workers[i]
		}
	}
	permute(0)
}

func TestBreakdownSharesSumToOne(t *testing.T) {
	c := NewClock()
	c.Charge(PhaseLabelSamples, 100)
	c.Charge(PhaseTrainCMDN, 300)
	c.Charge(PhasePopulateD0, 500)
	c.Charge(PhaseConfirm, 100)
	sum := 0.0
	for _, ps := range c.Breakdown() {
		sum += ps.Share
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

func TestBreakdownEmptyClock(t *testing.T) {
	c := NewClock()
	if len(c.Breakdown()) != 0 {
		t.Fatal("empty clock should have empty breakdown")
	}
	if c.TotalMS() != 0 {
		t.Fatal("empty clock total should be 0")
	}
}

func TestBreakdownDeterministicOrder(t *testing.T) {
	c := NewClock()
	c.Charge(PhaseSelect, 1)
	c.Charge(PhaseConfirm, 1)
	c.Charge(PhaseLabelSamples, 1)
	b := c.Breakdown()
	for i := 1; i < len(b); i++ {
		if b[i-1].Phase >= b[i].Phase {
			t.Fatalf("breakdown not sorted: %v before %v", b[i-1].Phase, b[i].Phase)
		}
	}
}

func TestConcurrentCharge(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Charge(PhaseConfirm, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.TotalMS(); got != 8000 {
		t.Fatalf("concurrent total = %v, want 8000", got)
	}
}

func TestStringContainsPhases(t *testing.T) {
	c := NewClock()
	c.Charge(PhaseTrainCMDN, 5)
	s := c.String()
	if !strings.Contains(s, string(PhaseTrainCMDN)) {
		t.Fatalf("String() missing phase name: %q", s)
	}
}

func TestDefaultModelOrdering(t *testing.T) {
	m := Default()
	// The cost model must preserve the paper's cost ordering:
	// oracle >> tiny > decode > proxy > diff; HOG is oracle-scale.
	if !(m.OracleMS > m.TinyMS && m.TinyMS > m.DecodeMS && m.DecodeMS > m.ProxyMS && m.ProxyMS > m.DiffMS) {
		t.Fatalf("cost ordering violated: %+v", m)
	}
	if m.HOGMS < m.OracleMS {
		t.Fatalf("HOG should be oracle-scale or slower, got %v vs %v", m.HOGMS, m.OracleMS)
	}
	if m.OracleMS/m.ProxyMS < 20 {
		t.Fatalf("oracle/proxy ratio too small for specialization to pay off: %v", m.OracleMS/m.ProxyMS)
	}
}

func TestChargeParallelMaxBSP(t *testing.T) {
	w1 := NewClock()
	w1.Charge(PhaseLabelSamples, 100)
	w1.Charge(PhaseTrainCMDN, 50)
	w2 := NewClock()
	w2.Charge(PhaseLabelSamples, 80)
	w2.Charge(PhaseTrainCMDN, 70)
	w2.Charge(PhasePopulateD0, 10)

	c := NewClock()
	sum := c.ChargeParallelMax([]*Clock{w1, w2, nil})
	if sum != 310 {
		t.Fatalf("sum of worker totals = %v, want 310", sum)
	}
	if got := c.PhaseMS(PhaseLabelSamples); got != 100 {
		t.Fatalf("label phase = %v, want max 100", got)
	}
	if got := c.PhaseMS(PhaseTrainCMDN); got != 70 {
		t.Fatalf("train phase = %v, want max 70", got)
	}
	if got := c.PhaseMS(PhasePopulateD0); got != 10 {
		t.Fatalf("populate phase = %v, want 10", got)
	}
	if got := c.TotalMS(); got != 180 {
		t.Fatalf("BSP wall total = %v, want 180 (sum of per-phase maxima)", got)
	}
}

func TestChargeParallelMaxSingleWorkerEqualsSerial(t *testing.T) {
	w := NewClock()
	w.Charge(PhaseLabelSamples, 42)
	w.Charge(PhaseConfirm, 8)
	c := NewClock()
	sum := c.ChargeParallelMax([]*Clock{w})
	if sum != 50 || c.TotalMS() != 50 {
		t.Fatalf("single-worker merge: sum=%v total=%v, want 50/50", sum, c.TotalMS())
	}
}

func TestChargeParallelMaxEmpty(t *testing.T) {
	c := NewClock()
	if sum := c.ChargeParallelMax(nil); sum != 0 || c.TotalMS() != 0 {
		t.Fatal("empty merge must be a no-op")
	}
}

func TestBatchesCeilDivision(t *testing.T) {
	cases := []struct{ items, batch, want int }{
		{0, 8, 0}, {-3, 8, 0}, {1, 8, 1}, {8, 8, 1}, {9, 8, 2},
		{23, 8, 3}, {23, 1, 23}, {5, 0, 5}, {5, -2, 5},
	}
	for _, c := range cases {
		if got := Batches(c.items, c.batch); got != c.want {
			t.Fatalf("Batches(%d, %d) = %d, want %d", c.items, c.batch, got, c.want)
		}
	}
}

// TestPriceList pins each price under the default model to its value,
// and the predictors to the prices they sum.
func TestPriceList(t *testing.T) {
	m := Default()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"LabelMS", m.LabelMS(120, 200), 24720},
		{"PassMS", m.PassMS(1000, false), 6400},
		{"PassMS without the detector", m.PassMS(1000, true), 6000},
		{"InferMS", m.InferMS(600), 1800},
		{"ScoreMS on one lane", m.ScoreMS(23, 1, 200), 4600},
		{"ScoreMS on four lanes", m.ScoreMS(23, 4, 200), 1200},
		{"ScoreMS on no lanes", m.ScoreMS(23, 0, 200), 4600},
		{"TrainMS", m.TrainMS(660), 11880},
		{"LaunchOverheadMS", m.LaunchOverheadMS(3), 480},
		{"SelectMS", m.SelectMS(5000), 0.5},
		{"TopkProbMS", m.TopkProbMS(4), 0.004},
		{"depth-3 CascadeMS", m.CascadeMS(1000, 600, false), m.PassMS(1000, false) + m.InferMS(600)},
		{"depth-2 CascadeMS", m.CascadeMS(1000, 600, true), m.PassMS(1000, true) + m.InferMS(1000)},
		{"ConfirmMS", m.ConfirmMS(23, 3, 200), 4600 + m.LaunchOverheadMS(3)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// Under the default model the diff filter pays for itself whenever it
	// prunes frames: diffing everything is cheaper than proxy-scoring the
	// pruned share.
	if depth3, depth2 := m.CascadeMS(1000, 600, false), m.CascadeMS(1000, 600, true); depth3 >= depth2 {
		t.Fatalf("diff filter should win at 60%% retention: depth3 %v vs depth2 %v", depth3, depth2)
	}
}
