package phase1

import (
	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/workpool"
)

// Pass is Phase 1's pass-first order (see the package doc): the
// difference detector's one decode of every frame runs before the proxy
// exists, and keeps the features of every frame that training or
// inference will need — the planned samples and the retained frames —
// in a block of rows, row f holding frame f's cmdn.AppendFeatures
// vector. The proxy then trains on views of those rows, and Assemble
// predicts the retained frames from theirs.
type Pass struct {
	src   video.Source
	diff  diffdet.Result
	rows  []float64
	width int
	procs int
}

// RunPass decodes every frame of src once — the difference detector's
// clip pass, or a plain decode under DisableDiff — on up to opt.Procs
// workers, writing the features of each retained or planned frame into
// its row of block. block is reused when it holds NumFrames × FeatureSize
// values and replaced by a new one otherwise; Block returns whichever the
// pass wrote, for the caller to pass again. The pass's decode cost is
// charged to clock's PhasePopulateD0.
func RunPass(src video.Source, opt Options, plan SamplePlan, block []float64, clock *simclock.Clock) (*Pass, error) {
	opt = opt.withDefaults()
	n := src.NumFrames()
	w, h := src.Resolution()
	width := cmdn.FeatureSize(w, h)
	if cap(block) < n*width {
		block = make([]float64, n*width)
	}
	p := &Pass{src: src, rows: block[:n*width], width: width, procs: opt.Procs}
	write := func(i int, f video.Frame) {
		cmdn.AppendFeatures(p.row(i)[:0], f)
	}

	if opt.DisableDiff {
		workpool.ForEach(opt.Procs, n, func(_, i int) {
			f := src.Render(i)
			write(i, f)
			f.Release()
		})
		p.diff = keepAll(n, opt, clock)
		return p, nil
	}

	planned := make([]bool, n)
	for _, i := range plan.TrainIdx {
		planned[i] = true
	}
	for _, i := range plan.HoldIdx {
		planned[i] = true
	}
	diff, err := diffdet.RunVisit(src, opt.Diff, clock, opt.Cost, simclock.PhasePopulateD0, func() func(video.Frame, bool) {
		return func(f video.Frame, retained bool) {
			if retained || planned[f.Index] {
				write(f.Index, f)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	p.diff = diff
	return p, nil
}

// row is frame i's feature vector, capped so that no append can run
// into the next row.
func (p *Pass) row(i int) []float64 {
	return p.rows[i*p.width : (i+1)*p.width : (i+1)*p.width]
}

// Block returns the feature block the pass wrote, for reuse by the next
// RunPass. Its rows are overwritten then, so nothing read from this pass
// — its Samples' features among them — may be kept past that call
// without a copy.
func (p *Pass) Block() []float64 { return p.rows }

// Samples returns the labelled frames idx with their scores as CMDN
// samples whose features are views of the pass's rows: nothing is
// decoded or copied. The frames must be planned ones (RunPass's plan).
func (p *Pass) Samples(idx []int, scores []float64) []cmdn.Sample {
	out := make([]cmdn.Sample, len(idx))
	for k, i := range idx {
		out[k] = cmdn.Sample{Frame: i, X: p.row(i), Y: scores[k]}
	}
	return out
}

// Assemble packages the pass and a proxy trained on its samples into the
// State Phase 2 consumes, bit-identical to AssembleState's over the same
// proxy: it predicts every retained frame without a Phase 1 label from
// its row, on up to Procs inference clones of the proxy. Like
// AssembleState it charges nothing for the inference; Capture does.
func (p *Pass) Assemble(proxy *cmdn.Proxy, plan SamplePlan, trainScores, holdScores []float64) *State {
	labeled := labeledOf(plan, trainScores, holdScores)
	mixes := make([]uncertain.Mixture, len(p.diff.RepOf))
	clones := make([]*cmdn.Proxy, workpool.Procs(p.procs))
	workpool.ForEach(len(clones), len(p.diff.Retained), func(w, k int) {
		i := p.diff.Retained[k]
		if _, exact := labeled[i]; exact {
			return
		}
		if clones[w] == nil {
			clones[w] = proxy.CloneForInference()
		}
		mixes[i] = clones[w].Predict(p.row(i))
	})
	return newState(p.src, proxy, plan, p.diff, labeled, mixes, p.procs)
}
