package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// options is one invocation of the driver.
type options struct {
	Workload string
	Seed     uint64 // generates the schedule: op order, user assignment, Append cuts
	Seconds  int    // nominal length of the measured window
	Trace    bool
	TraceOut string
	Tiny     bool // smoke-test scale
	// Dir is where a workload makes its temporary directory (the durable
	// store's); the directory is removed when the run ends.
	Dir string
}

// opOut is what one op returned: its answers, the whole simulated
// charge of the op, and its error.
type opOut struct {
	Answers []answer
	SimMS   float64
	Err     error
}

// workload is one of the five benchmark workloads. A workload owns its
// inputs (all generated from options), its counting oracle wrapper and
// its ladder.
type workload interface {
	// procs is the Config.Procs the workload pins.
	procs() int
	// setup does everything that precedes the first timed op; teardown
	// releases it.
	setup() error
	teardown()
	// passes and opsPerPass fix the measured work. Both are functions
	// of options only, so counts repeat exactly.
	passes() int
	opsPerPass() int
	// run executes op i of pass p through the public API. A non-nil
	// recorder makes it a traced op.
	run(p, i int, rec *recorder) opOut
	// opID names the op that runs at position i of pass p: a number in
	// [0, opsPerPass) that is the same for the same work in every pass,
	// whatever order the seed put it in.
	opID(p, i int) int
	// oracleFrames is how many frames the oracle has scored since the
	// last setup began (set-up included, ground truth excluded).
	oracleFrames() float64
	// ladder replays the ops of pass p stage by stage through the
	// layers' exported functions, recording one span per stage. It
	// returns the replayed answers, one per op, and the layer counters
	// and probe timings only the workload can produce.
	ladder(p int, rec *recorder) ([]opOut, map[string]float64, error)
}

// newWorkload builds the named workload.
func newWorkload(o options) (workload, error) {
	switch o.Workload {
	case "oneshot_run":
		return newOneshot(o), nil
	case "query_cold":
		return newQueryCold(o), nil
	case "serve_shared":
		return newServeShared(o), nil
	case "eql_script":
		return newEQLScript(o), nil
	case "stream_follow":
		return newStreamFollow(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"oneshot_run", "query_cold", "serve_shared", "eql_script", "stream_follow"}

// report is everything one run measured, with the environment it ran
// in, so two reports can be checked for like-with-like before they are
// compared.
type report struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      bool     `json:"trace"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Procs      int      `json:"procs"`
	Passes     int      `json:"passes"`
	OpsPerPass int      `json:"ops_per_pass"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	// SetupS is everything before the first timed op, WindowS the
	// measured window with PassS its passes, TotalS the whole run: wall
	// clock, all of them. SetupStolenS and PassStolenS are the parts of
	// SetupS and PassS the host took from this machine (see stolenS); the
	// wall-clock metrics are of what is left.
	SetupS       float64   `json:"setup_s"`
	SetupStolenS float64   `json:"setup_stolen_s"`
	WindowS      float64   `json:"window_s"`
	PassS        []float64 `json:"pass_s"`
	PassStolenS  []float64 `json:"pass_stolen_s"`
	TotalS       float64   `json:"total_s"`
	Digest       string    `json:"digest"`
	// LatencyPctMS is the latency of the window's ops, all passes pooled,
	// at p5, p10, … p100: the op mix's cost modes.
	LatencyPctMS []float64          `json:"latency_pct_ms"`
	Ladder       string             `json:"ladder,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() result {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	return result{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   emit(defs, r.Metrics),
	}
}

// window is the outcome of a run of passes.
type window struct {
	outs  [][]opOut   // per pass, per position
	latMS [][]float64 // per pass, per position
	passS []float64   // wall time of each pass
	// stolenS is how much of each pass's wall time the host took from this
	// machine; nil in a window built by a test.
	stolenS []float64
	wallS   float64
	mem0    runtime.MemStats
	mem1    runtime.MemStats
}

// runPasses is the closed loop: one client goroutine, ops back to back.
// Answers are kept and checked after the window, so checking never
// lands inside a timed pass.
func runPasses(w workload, first, n int, rec *recorder) *window {
	win := &window{}
	runtime.ReadMemStats(&win.mem0)
	start := time.Now()
	for p := first; p < first+n; p++ {
		outs := make([]opOut, w.opsPerPass())
		lat := make([]float64, len(outs))
		steal0 := hostStealS()
		passStart := time.Now()
		for i := range outs {
			rec.setOp(p*len(outs) + i)
			t := time.Now()
			sp := rec.begin("driver", "op")
			outs[i] = w.run(p, i, rec)
			if rec != nil {
				rec.end(sp)
			}
			lat[i] = ms(time.Since(t))
		}
		win.passS = append(win.passS, time.Since(passStart).Seconds())
		win.stolenS = append(win.stolenS, (hostStealS()-steal0)/float64(w.procs()))
		win.outs = append(win.outs, outs)
		win.latMS = append(win.latMS, lat)
	}
	rec.setOp(-1)
	win.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&win.mem1)
	return win
}

func (win *window) ops() int {
	n := 0
	for _, outs := range win.outs {
		n += len(outs)
	}
	return n
}

// perPass is one statistic of every pass: what it made of the pass's
// wall time, the share of it the machine really had, and its ops'
// latencies.
func (win *window) perPass(stat func(passS, had float64, latMS []float64) float64) []float64 {
	out := make([]float64, len(win.latMS))
	for p, lat := range win.latMS {
		had := 1.0
		if p < len(win.stolenS) {
			had = unstolen(win.passS[p], win.stolenS[p]) / win.passS[p]
		}
		out[p] = stat(win.passS[p], had, lat)
	}
	return out
}

// The three wall-clock statistics are taken per pass and reported as the
// median over passes. A pass is the whole op list, sized to about half a
// second, so whatever the program does now and then — a GC cycle, a
// checkpoint every 64 WAL records, an eviction burst, an fsync that
// takes long — lands in every pass and is in every pass's numbers; the
// median over passes then drops the passes that ran while something else
// had the box.
//
// All three are of unstolen time. This machine is a guest on a shared
// host, and the host's scheduler takes its CPUs away for milliseconds at
// a time, in phases that last minutes: the same code then reads 15–50 %
// slower for as long as the phase lasts, whatever statistic is taken.
// The kernel counts that time (hostStealS), so a pass's wall time has it
// taken out, and the pass's latencies are scaled by the share that is
// left — a stolen millisecond lands on whichever op is running, in
// proportion to how long ops run.
func (win *window) opsPerS() float64 {
	return median(win.perPass(func(passS, had float64, lat []float64) float64 {
		return float64(len(lat)) / (passS * had)
	}))
}

func (win *window) latencyMS(q float64) float64 {
	return median(win.perPass(func(_, had float64, lat []float64) float64 { return percentile(lat, q) * had }))
}

func (win *window) allLatencies() []float64 {
	var all []float64
	for _, lat := range win.latMS {
		all = append(all, lat...)
	}
	return all
}

// byOp groups the window's latency samples by op identity.
func (win *window) byOp(w workload, first int) map[int][]float64 {
	out := make(map[int][]float64)
	for p, lat := range win.latMS {
		for i, l := range lat {
			id := w.opID(first+p, i)
			out[id] = append(out[id], l)
		}
	}
	return out
}

// runWorkload is one whole run of one workload.
func runWorkload(o options) (*report, error) {
	begin, steal0 := time.Now(), hostStealS()
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
		Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Procs: w.procs(),
		Passes: w.passes(), OpsPerPass: w.opsPerPass(),
		Metrics: make(map[string]float64),
	}

	defer w.teardown()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", o.Workload, err)
	}
	runtime.GC()
	rep.SetupS = time.Since(begin).Seconds()
	rep.SetupStolenS = (hostStealS() - steal0) / float64(w.procs())

	if o.Trace {
		err = tracedRun(w, o, rep)
	} else {
		untracedRun(w, rep)
	}
	rep.TotalS = time.Since(begin).Seconds()
	return rep, err
}

// untracedRun measures the end-to-end metrics with tracing off.
func untracedRun(w workload, rep *report) {
	win := runPasses(w, 0, w.passes(), nil)
	ops := float64(win.ops())
	frames := w.oracleFrames()
	rep.WindowS, rep.PassS, rep.PassStolenS = win.wallS, win.passS, win.stolenS
	verify(win, rep)

	m := rep.Metrics
	m["setup_s"] = unstolen(rep.SetupS, rep.SetupStolenS)
	m["ops_per_s"] = win.opsPerS()
	m["latency_p50_ms"] = win.latencyMS(0.50)
	m["latency_p90_ms"] = win.latencyMS(0.90)
	m["alloc_mb_per_op"] = float64(win.mem1.TotalAlloc-win.mem0.TotalAlloc) / 1e6 / ops
	m["oracle_frames_per_op"] = frames / ops
	rep.LatencyPctMS = pctSteps(win.allLatencies())
}

// pctSteps is a sample's nearest-rank percentiles at p5, p10, … p100.
func pctSteps(xs []float64) []float64 {
	out := make([]float64, 0, 20)
	for q := 5; q <= 100; q += 5 {
		out = append(out, percentile(xs, float64(q)/100))
	}
	return out
}

// verify checks every answer of a window, counts failed ops, and fills
// the metrics that come from the answers themselves: simulated cost,
// precision and the digest.
func verify(win *window, rep *report) {
	d := newDigest()
	var simMS, precision float64
	good, answers := 0, 0
	for p, outs := range win.outs {
		for i := range outs {
			out := &outs[i]
			rep.Attempted++
			err := out.Err
			for a := range out.Answers {
				if err == nil {
					err = out.Answers[a].check()
				}
			}
			if err != nil {
				rep.Failed++
				if len(rep.Failures) < 5 {
					rep.Failures = append(rep.Failures, fmt.Sprintf("pass %d op %d: %v", p, i, err))
				}
				continue
			}
			good++
			d.op(out)
			simMS += out.SimMS
			for a := range out.Answers {
				precision += out.Answers[a].precision()
				answers++
			}
		}
	}
	rep.Digest = d.String()
	rep.Metrics["sim_ms_per_op"] = ratio(simMS, float64(good))
	rep.Metrics["precision_at_k"] = ratio(precision, float64(answers))
}

// tracedRun is the separate run that yields the per-layer numbers: a
// fifth of the passes untraced, the same again with the span recorder
// on, then the ladder replay of the last traced pass.
func tracedRun(w workload, o options, rep *report) error {
	n := w.passes()
	plain := runPasses(w, 0, n, nil)
	rec := newRecorder()
	frames0 := w.oracleFrames()
	tracedWin := runPasses(w, n, n, rec)
	frames1 := w.oracleFrames()
	rep.WindowS = plain.wallS + tracedWin.wallS
	rep.PassS = append(plain.passS, tracedWin.passS...)
	rep.PassStolenS = append(plain.stolenS, tracedWin.stolenS...)
	rep.Passes = 2 * n
	verify(plain, rep)
	digest := rep.Digest
	verify(tracedWin, rep)
	rep.Digest = digest + "+" + rep.Digest
	opSpans := rec.totals(0)

	mark := rec.mark()
	louts, counters, err := w.ladder(2*n-1, rec)
	if err != nil {
		return fmt.Errorf("%s: ladder: %w", o.Workload, err)
	}
	// The ladder has to reproduce the op's answer, or the per-layer
	// numbers describe a different program: a mismatch is a failed op.
	last := tracedWin.outs[len(tracedWin.outs)-1]
	rep.Ladder = "reproduces the ops' answers"
	for i := range last {
		if i >= len(louts) {
			err = fmt.Errorf("ladder replayed %d of %d ops", len(louts), len(last))
		} else if last[i].Err == nil {
			err = sameAnswers(&last[i], &louts[i])
		}
		if err != nil {
			rep.Failed++
			rep.Ladder = fmt.Sprintf("op %d: %v", i, err)
			rep.Failures = append(rep.Failures, "ladder "+rep.Ladder)
			break
		}
	}
	lad := rec.totals(mark)
	if o.TraceOut != "" {
		if err := rec.writeChrome(o.TraceOut); err != nil {
			return err
		}
	}

	m := rep.Metrics
	ops := float64(tracedWin.ops())
	lops := float64(len(louts))
	all := append(plain.allLatencies(), tracedWin.allLatencies()...)
	rep.LatencyPctMS = pctSteps(all)
	m["driver.trace_overhead_share"] = tracedWin.latencyMS(0.50)/plain.latencyMS(0.50) - 1
	// Coverage compares the replayed pass with the same ops untraced: the
	// ladder's op spans against each op's median untraced sample.
	var untraced float64
	samples := plain.byOp(w, 0)
	for i := range louts {
		untraced += median(samples[w.opID(2*n-1, i)])
	}
	m["driver.ladder_coverage"] = ratio(sum(ladderOpMS(rec, mark)), untraced)
	m["driver.latency_p99_ms"] = percentile(all, 0.99)
	_, m["driver.latency_max_ms"] = minMax(all)
	m["driver.gc_cycles_per_op"] = float64(plain.mem1.NumGC-plain.mem0.NumGC) / float64(plain.ops())
	m["driver.gc_pause_ms_per_op"] = float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6 / float64(plain.ops())
	m["driver.allocs_per_op"] = float64(plain.mem1.Mallocs-plain.mem0.Mallocs) / float64(plain.ops())
	m["driver.peak_rss_mb"] = peakRSSMB()

	// Wrapper spans of the traced ops: what the program asked of the
	// video source and the oracle, per op.
	m["video.render_calls"] = float64(opSpans["video.render"].Count) / ops
	m["video.render_ms"] = ms(opSpans["video.render"].Dur) / ops
	m["vision.oracle_calls"] = float64(opSpans["vision.score"].Count) / ops
	m["vision.oracle_ms"] = ms(opSpans["vision.score"].Dur) / ops
	m["vision.oracle_frames"] = (frames1 - frames0) / ops
	m["vision.frames_per_call"] = ratio(m["vision.oracle_frames"], m["vision.oracle_calls"])

	// Ladder spans: one stage per layer boundary, self time per op.
	for name, key := range ladderSpans {
		m[name] = ms(lad[key].Self) / lops
	}
	for name, key := range ladderSpansUS {
		m[name] = us(lad[key].Self) / lops
	}
	// The top-K loop's own time: Execute, minus the oracle calls inside
	// it (its child spans), minus the relation build it starts with
	// (probed separately).
	m["engine.execute_ms"] = ms(lad["engine.execute"].Dur) / lops
	m["core.topk_self_ms"] = max(0, ms(lad["engine.execute"].Self)/lops-m["engine.relation_ms"]-m["windows.build_ms"])
	// AssembleState runs the difference detector inside itself.
	m["phase1.assemble_ms"] = max(0, m["phase1.assemble_ms"]-m["diffdet.run_ms"])
	// What only the workload can count or probe; its values win.
	for k, v := range counters {
		m[k] = v
	}
	return nil
}

// ladderSpans maps a per-layer metric to the ladder span whose self
// time it reports, in ms per replayed op.
var ladderSpans = map[string]string{
	"phase1.label_ms":      "phase1.label",
	"phase1.features_ms":   "phase1.samples",
	"phase1.assemble_ms":   "phase1.assemble",
	"cmdn.train_ms":        "cmdn.train",
	"cmdn.refresh_ms":      "cmdn.refresh",
	"diffdet.run_ms":       "diffdet.run",
	"windows.build_ms":     "windows.relation",
	"engine.relation_ms":   "engine.relation",
	"engine.sched_self_ms": "engine.submit_group",
	"engine.append_ms":     "engine.append",
	"stream.follow_ms":     "stream.follow",
	"eql.bind_ms":          "eql.bind",
	"eql.explain_ms":       "eql.explain",
}

// ladderSpansUS is the same in µs per replayed op.
var ladderSpansUS = map[string]string{
	"engine.plan_us":         "engine.plan",
	"labelstore.snapshot_us": "labelstore.snapshot",
	"labelstore.publish_us":  "labelstore.publish",
	"durable.append_us":      "durable.append",
	"eql.parse_us":           "eql.parse",
}

// ladderOpMS lists the durations of the ladder's per-op root spans.
func ladderOpMS(rec *recorder, from int) []float64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []float64
	for _, s := range rec.spans[from:] {
		if s.Layer == "driver" && s.Name == "ladder_op" {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// peakRSSMB reads the process's peak resident set from /proc; 0 where
// there is no /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostStealS reads the steal column of /proc/stat's first line: seconds
// (at the usual 100 ticks a second) that this machine's CPUs had work to
// run while the host ran another guest, all CPUs together. A CPU with
// nothing to run has nothing stolen, so a workload that keeps Procs CPUs
// busy loses about steal ÷ Procs of wall time. 0 where there is no
// /proc/stat or no hypervisor: the metrics are then plain wall clock.
func hostStealS() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

// unstolen is a wall time less the part of it the host took, and never
// less than a quarter of it: a span the counter says was mostly stolen is
// beyond correcting, and its run shows as the outlier it is.
func unstolen(wallS, stolenS float64) float64 {
	return max(wallS-stolenS, wallS/4)
}

// commit names the source revision: the VCS stamp when the toolchain
// embedded one, the checked-out HEAD when run from a git work tree, and
// "unknown" in an exported checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(".git/" + name)
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}
