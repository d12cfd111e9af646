package main

import (
	"fmt"
	"math"
	"sort"

	"nephele/internal/vclock"
)

// round is what one round of one workload measured.
type round struct {
	Mode mode
	// TracedPass marks a round of the traced pass; its plain rounds are what
	// the tracing overhead is measured against.
	TracedPass bool
	// SetupS, WallS (the summed timed segments) and CPUS are host seconds
	// as read.
	SetupS float64
	WallS  float64
	CPUS   float64
	Ops    int
	Failed int
	Virt   vclock.Duration
	Kinds  [nKinds]kindAcc
	// Primaries is how many primary ops the round sampled.
	Primaries int
	// Pattern digests the page numbers the seed drew.
	Pattern uint64
	// Values holds every metric the round can speak for, by catalogue name:
	// the end-to-end ones, the exact virtual ones and the layers'.
	Values map[string]float64
	Fails  []string
	// SelfVirt/SelfWall are a traced round's self times by layer.
	SelfVirt, SelfWall map[string]int64
	// SpanVirt totals virtual time by span name (dominance checks).
	SpanVirt, SpanWall map[string]int64
	rec                *recorder
}

// tailLabel names the percentile virt_tail_ms reads for n primary samples:
// the highest of p99/p90 that leaves at least ten samples beyond it, else
// the round maximum (virtual latencies are exact, so the maximum of a small
// sample is a fact, not an estimate).
func tailLabel(n int) string {
	switch {
	case n >= 1000:
		return "p99"
	case n >= 100:
		return "p90"
	default:
		return "max"
	}
}

func tailOf(sorted []int64) int64 {
	switch tailLabel(len(sorted)) {
	case "p99":
		return percentileSorted(sorted, 99)
	case "p90":
		return percentileSorted(sorted, 90)
	default:
		return percentileSorted(sorted, 100)
	}
}

// result closes the round's books.
func (e *env) result(runErr error) *round {
	if runErr != nil {
		e.fail("round aborted: %v", runErr)
	}
	if e.ops == 0 {
		e.ops = 1 // an aborted round attempted at least its first op
	}
	if e.failed > e.ops {
		e.failed = e.ops
	}
	r := &round{
		Mode: e.mode, SetupS: e.setup.Seconds(), WallS: e.wall.Seconds(), CPUS: e.cpu.Seconds(),
		Ops: e.ops, Failed: e.failed,
		Virt: e.virt, Kinds: e.kinds, Primaries: len(e.primary), Pattern: e.pattern, Values: e.layer, Fails: e.fails,
	}
	if e.mode == modeProbe {
		// A probe round speaks for its probes only: their traffic is in
		// every counter it could report.
		r.Values = e.probed
		return r
	}
	v := r.Values
	ops := float64(e.ops)
	if e.mode == modePlain && r.WallS > 0 {
		v["setup_s"] = r.SetupS
		v["wall_ops_per_s"] = ops / r.WallS
		v["cpu_us_per_op"] = r.CPUS * 1e6 / ops
		v["host_allocs_per_op"] = float64(e.mallocs) / ops
		v["host_kb_per_op"] = float64(e.bytes) / 1024 / ops
		v["host_live_mb"] = e.liveMB
		v["vclock.virt_us_per_wall_us"] = e.virt.Seconds() / r.WallS
	}

	sorted := append([]int64(nil), e.primary...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	v["virt_p50_ms"] = float64(percentileSorted(sorted, 50)) / 1e6
	v["virt_tail_ms"] = float64(tailOf(sorted)) / 1e6
	if e.virt > 0 {
		v["virt_ops_per_s"] = ops / e.virt.Seconds()
	}
	v["sim_kb_per_instance"] = e.simKB
	v["fail_ratio"] = float64(e.failed) / ops
	switch e.w.Ref {
	case refFirstOpMS:
		v["vclock.ref_err_pct"] = (float64(e.refVirt)/1e6 - e.w.RefValue) / e.w.RefValue * 100
	case refOpsPerVirt:
		v["vclock.ref_err_pct"] = (v["virt_ops_per_s"] - e.w.RefValue) / e.w.RefValue * 100
	}

	if e.rec != nil {
		r.SpanVirt, r.SpanWall = make(map[string]int64), make(map[string]int64)
		for name, st := range e.rec.byName() {
			sort.Slice(st.wallNS, func(i, j int) bool { return st.wallNS[i] < st.wallNS[j] })
			sort.Slice(st.virtNS, func(i, j int) bool { return st.virtNS[i] < st.virtNS[j] })
			for _, x := range st.wallNS {
				r.SpanWall[name] += x
			}
			for _, x := range st.virtNS {
				r.SpanVirt[name] += x
			}
			// The readings one span name can feed, where the catalogue
			// names them.
			wall, virt := float64(percentileSorted(st.wallNS, 50)), float64(percentileSorted(st.virtNS, 50))
			for _, rd := range []struct {
				suffix string
				val    float64
			}{
				{".wall_us", wall / 1e3}, {".virt_us", virt / 1e3}, {".wall_ns", wall}, {".virt_ns", virt},
				{".wall_p99_us", float64(percentileSorted(st.wallNS, 99)) / 1e3},
			} {
				if _, ok := defOf(name + rd.suffix); ok {
					v[name+rd.suffix] = rd.val
				}
			}
		}
		r.SelfVirt, r.SelfWall = e.rec.selfTimes()
		if e.mode == modeStaged {
			v["obs.spans_per_op"] = float64(len(e.rec.spans)) / ops
			r.rec = e.rec
		}
	}
	return r
}

// minTraceOverheadPct is the tracing overhead below which the report warns:
// tracing cannot make the program faster, so a clearly negative value means
// the traced rounds measured something else than the plain ones.
const minTraceOverheadPct = -5

// near reports whether two exact values agree within the relative
// tolerance tol (0: identical).
func near(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// differs compares everything about two rounds that must not depend on the
// host — op counts and virtual time by kind, failures — and describes the
// first difference, "" for none. Guest writes and the wait for a lazy
// child's streamer are folded together: which of the two pays for a page the
// streamer and a demand fault race for depends on host scheduling, their sum
// does not.
func (r *round) differs(o *round, tol float64) string {
	if r.Ops != o.Ops || r.Failed != o.Failed {
		return fmt.Sprintf("%d ops (%d failed) against %d (%d failed)", r.Ops, r.Failed, o.Ops, o.Failed)
	}
	fold := func(x *round) [nKinds]kindAcc {
		k := x.Kinds
		k[opWrite].N += k[opWaitStreamed].N
		k[opWrite].Virt += k[opWaitStreamed].Virt
		k[opWaitStreamed] = kindAcc{}
		return k
	}
	a, b := fold(r), fold(o)
	for k := range a {
		if a[k].N != b[k].N || !near(float64(a[k].Virt), float64(b[k].Virt), tol) {
			return fmt.Sprintf("%d %s ops in %v virtual against %d in %v", a[k].N, kindNames[k], a[k].Virt, b[k].N, b[k].Virt)
		}
	}
	if !near(float64(r.Virt), float64(o.Virt), tol) {
		return fmt.Sprintf("%v virtual in all against %v", r.Virt, o.Virt)
	}
	return ""
}

// stat is one metric's distribution over the rounds that reported it.
type stat struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Exact  bool    `json:"exact,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// summary is one workload's report over all its rounds.
type summary struct {
	Workload   string         `json:"workload"`
	Primary    string         `json:"primary_op"`
	Tail       string         `json:"virt_tail_percentile"`
	Rounds     map[string]int `json:"rounds"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Correct    bool           `json:"correct"`
	Problems   []string       `json:"problems,omitempty"`
	Warnings   []string       `json:"warnings,omitempty"`
	EndToEnd   []stat         `json:"end_to_end"`
	Exact      []stat         `json:"exact_end_to_end"`
	Layers     []stat         `json:"per_layer,omitempty"`
	LayerTable []layerRow     `json:"layer_table,omitempty"`
	Dominance  []string       `json:"dominance,omitempty"`
	Reference  string         `json:"reference"`
	RoundLog   []roundLog     `json:"round_log"`
	staged     *round
	rec        *recorder // the staged round kept for -trace-out
}

// roundLog is one round's host readings, in the order the rounds ran.
type roundLog struct {
	Mode   string  `json:"mode"`
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"timed_wall_s"`
	CPUS   float64 `json:"timed_cpu_s"`
}

// layerRow is one line of the outside-in layer table: the self time of the
// benchmark's spans in that layer, staged rounds, both clocks.
type layerRow struct {
	Layer   string  `json:"layer"`
	VirtMS  float64 `json:"virt_self_ms"`
	VirtPct float64 `json:"virt_pct"`
	WallMS  float64 `json:"wall_self_ms"`
	WallPct float64 `json:"wall_pct"`
}

// summarize folds a workload's rounds into its report and runs the
// cross-round checks: determinism (every round reports the same value for
// every exact metric) and conservation (plain, spanned and staged rounds ran
// the same ops in the same virtual time and moved the same counters — they
// are one program).
func summarize(w *workload, rounds []*round) *summary {
	s := &summary{Workload: w.Name, Primary: w.Primary, Rounds: make(map[string]int), Correct: true}
	byName := make(map[string][]float64)
	var first *round
	exactSeen := make(map[string]float64)
	exactFrom := make(map[string]mode)
	var cyclePlain, cycleSpanned float64 // timed wall of the traced pass's current cycle
	primaries := 0
	for _, r := range rounds {
		s.RoundLog = append(s.RoundLog, roundLog{r.Mode.String(), r.SetupS, r.WallS, r.CPUS})
		s.Rounds[r.Mode.String()]++
		s.Attempted += r.Ops
		s.Failed += r.Failed
		for _, f := range r.Fails {
			s.problem("%s round: %s", r.Mode, f)
		}
		if r.Mode == modeStaged {
			s.staged = r
		}
		if r.rec != nil {
			s.rec = r.rec
		}
		// The tracing overhead is taken cycle by cycle, from a plain, a
		// spanned and a staged round that ran back to back, so that a slow
		// minute lands on all three.
		switch {
		case !r.TracedPass:
		case r.Mode == modePlain:
			cyclePlain, cycleSpanned = r.WallS, 0
		case r.Mode == modeSpanned:
			cycleSpanned = r.WallS
		case r.Mode == modeStaged && cyclePlain > 0 && cycleSpanned > 0:
			byName["obs.trace_overhead_pct"] = append(byName["obs.trace_overhead_pct"],
				((cycleSpanned+r.WallS)/2/cyclePlain-1)*100)
			cyclePlain, cycleSpanned = 0, 0
		}
		for name, val := range r.Values {
			d, known := defOf(name)
			if !known {
				continue
			}
			byName[name] = append(byName[name], val)
			if d.Exact {
				if prev, seen := exactSeen[name]; seen && !near(prev, val, w.Jitter) {
					s.problem("%s is %v in a %s round and %v in a %s round: not deterministic", name, prev, exactFrom[name], val, r.Mode)
				} else if !seen {
					exactSeen[name], exactFrom[name] = val, r.Mode
				}
			}
		}
		if r.Mode == modeProbe {
			continue
		}
		primaries = r.Primaries
		if first == nil {
			first = r
		} else if diff := first.differs(r, w.Jitter); diff != "" {
			s.problem("conservation: a %s round and a %s round ran different scripts: %s", first.Mode, r.Mode, diff)
		}
	}
	if oh := byName["obs.trace_overhead_pct"]; len(oh) > 0 && median(oh) < minTraceOverheadPct {
		s.Warnings = append(s.Warnings, fmt.Sprintf("obs.trace_overhead_pct is %+.1f%%: the traced rounds ran faster than the plain rounds beside them, so this workload's traced wall times are not the untraced program's", median(oh)))
	}
	if cw, hw, sw := byName["core.clone.wall_us"], byName["hv.clone.wall_us"], byName["cloned.serve.wall_us"]; len(cw) > 0 && len(hw) > 0 && len(sw) > 0 {
		byName["core.glue_self_us"] = []float64{median(cw) - median(hw) - median(sw)}
	}
	s.Tail = tailLabel(primaries)
	if s.Failed > 0 {
		s.Correct = false
	}

	fold := func(defs []metricDef) []stat {
		var out []stat
		for _, d := range defs {
			xs := byName[d.Name]
			st := stat{Name: d.Name, Unit: d.Unit, N: len(xs), Exact: d.Exact, Bound: d.Bound}
			st.Q1, st.Median, st.Q3 = quartiles(xs)
			out = append(out, st)
		}
		return out
	}
	s.EndToEnd = fold(endToEnd)
	s.Exact = fold(exactEndToEnd)
	s.Layers = fold(perLayer)
	if w.Ref == refNone {
		s.Reference = "unvalidated: the paper gives no endpoint for this workload"
	} else {
		s.Reference = fmt.Sprintf("%s: error %+.1f%%", w.RefText, median(byName["vclock.ref_err_pct"]))
	}
	if s.staged != nil {
		s.layerTable()
		s.dominance(w)
	}
	return s
}

func (s *summary) problem(format string, args ...any) {
	s.Correct = false
	if len(s.Problems) < 12 {
		s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
	}
}

// layerTable charges the last staged round's time to layers by self time.
func (s *summary) layerTable() {
	r := s.staged
	var totV, totW int64
	layers := make([]string, 0, len(r.SelfVirt))
	for l := range r.SelfVirt {
		layers = append(layers, l)
		totV += r.SelfVirt[l]
		totW += r.SelfWall[l]
	}
	sort.Strings(layers)
	if totV != int64(r.Virt) {
		s.problem("layer self times sum to %d virtual ns, the ops' meters to %d: time was charged outside every span", totV, int64(r.Virt))
	}
	for _, l := range layers {
		row := layerRow{Layer: l, VirtMS: float64(r.SelfVirt[l]) / 1e6, WallMS: float64(r.SelfWall[l]) / 1e6}
		if totV > 0 {
			row.VirtPct = float64(r.SelfVirt[l]) / float64(totV) * 100
		}
		if totW > 0 {
			row.WallPct = float64(r.SelfWall[l]) / float64(totW) * 100
		}
		s.LayerTable = append(s.LayerTable, row)
	}
}

// dominance states, from the staged round's inclusive span totals, the
// share the issue said each workload's intended layer should hold.
func (s *summary) dominance(w *workload) {
	r := s.staged
	share := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den) * 100
	}
	add := func(format string, args ...any) { s.Dominance = append(s.Dominance, fmt.Sprintf(format, args...)) }
	timedWall := int64(r.WallS * 1e9)
	switch w.Name {
	case "clone-fanout":
		add("cloned.serve is %.1f%% of clone virtual time (target > 50%%)",
			share(r.SpanVirt["cloned.serve"], int64(r.Kinds[opClone].Virt)))
		mc := statOf(s.Layers, "mem.space_clone.wall_us").Median
		cc := statOf(s.Layers, "core.clone.wall_us").Median
		if cc > 0 {
			add("mem.space_clone is %.1f%% of core.clone wall (target < 5%%)", mc/cc*100)
		}
	case "clone-bigmem":
		work := r.SpanWall["hv.clone"] + r.SpanWall["guest.write"] + r.SpanWall["mem.wait_streamed"]
		down := r.SpanWall["toolstack.destroy"]
		rel := statOf(s.Layers, "mem.space_release.wall_us").Median * 1e3 * float64(r.Kinds[opDestroy].N)
		add("hv.clone + guest writes + mem.wait_streamed are %.1f%% of timed wall (target > 90%%); the child's teardown is another %.1f%%, %.0f%% of it mem.space_release (probe)",
			share(work, timedWall), share(down, timedWall), share(int64(rel), down))
	case "create-churn":
		add("toolstack.create is %.1f%% of boot virtual time (target > 80%%)",
			share(r.SpanVirt["toolstack.create"], int64(r.Kinds[opBoot].Virt)))
	case "remote-fanout":
		parts := r.SpanVirt["cluster.snapshot"] + r.SpanVirt["cluster.xfer"] + r.SpanVirt["cluster.materialize"]
		add("cluster.snapshot + xfer + materialize are %.2f%% of cluster.remote_clone virtual time (target 100%%)",
			share(parts, r.SpanVirt["cluster.remote_clone"]))
	case "fuzz-reset":
		it := statOf(s.Exact, "virt_p50_ms").Median * 1e3
		if it > 0 {
			add("hv.clone_reset is %.1f%% of one iteration's virtual time", statOf(s.Layers, "hv.clone_reset.virt_us").Median/it*100)
		}
	}
}

func statOf(stats []stat, name string) stat {
	for _, st := range stats {
		if st.Name == name {
			return st
		}
	}
	return stat{}
}
