package simclock

import (
	"math"
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
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	NewClock().Charge(PhaseSelect, -1)
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

// TestConfirmMSMatchesCleanCharge pins the prediction helpers to the
// pricing rule the Phase 2 loop actually charges: per-frame inference
// plus one launch overhead per invocation.
func TestConfirmMSMatchesCleanCharge(t *testing.T) {
	m := Default()
	frames, batch := 23, 8
	launches := Batches(frames, batch)
	want := float64(frames)*m.OracleMS + float64(launches)*m.OracleCallMS
	if got := m.ConfirmMS(frames, launches, m.OracleMS); got != want {
		t.Fatalf("ConfirmMS = %v, want %v", got, want)
	}
	if got := m.LaunchOverheadMS(launches); got != float64(launches)*m.OracleCallMS {
		t.Fatalf("LaunchOverheadMS = %v", got)
	}
}

func TestCascadeMSDepths(t *testing.T) {
	m := Default()
	frames, retained := 1000, 600
	depth3 := m.CascadeMS(frames, retained, false)
	depth2 := m.CascadeMS(frames, retained, true)
	if want := 1000*m.DecodeMS + 1000*m.DiffMS + 600*m.ProxyMS; depth3 != want {
		t.Fatalf("depth-3 cascade = %v, want %v", depth3, want)
	}
	if want := 1000 * (m.DecodeMS + m.ProxyMS); depth2 != want {
		t.Fatalf("depth-2 cascade = %v, want %v", depth2, want)
	}
	// Under the default model the diff filter pays for itself whenever it
	// prunes frames: diffing everything is cheaper than proxy-scoring the
	// pruned share.
	if depth3 >= depth2 {
		t.Fatalf("diff filter should win at 60%% retention: depth3 %v vs depth2 %v", depth3, depth2)
	}
}

func TestLabelAndTrainMS(t *testing.T) {
	m := Default()
	if got, want := m.LabelMS(120, m.OracleMS), 120*(m.OracleMS+m.DecodeMS); got != want {
		t.Fatalf("LabelMS = %v, want %v", got, want)
	}
	if got, want := m.TrainMS(660), 660.0*m.ProxyTrainSampleMS; got != want {
		t.Fatalf("TrainMS = %v, want %v", got, want)
	}
}
