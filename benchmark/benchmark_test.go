package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// quickRounds runs one -quick round of w per mode.
func quickRounds(w *workload, seed int64, modes ...mode) []*round {
	out := make([]*round, 0, len(modes))
	for _, md := range modes {
		r := runRound(w, seed, true, md)
		r.TracedPass = md != modePlain
		out = append(out, r)
	}
	return out
}

// TestSameSeedSameNumbers: two plain rounds on one seed agree on every exact
// metric and per-layer count; another seed draws other pages (or, for the
// fuzz campaign, other inputs) and still passes every output check.
func TestSameSeedSameNumbers(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rs := quickRounds(w, 1, modePlain, modePlain)
			a, b := rs[0], rs[1]
			if diff := a.differs(b, w.Jitter); diff != "" {
				t.Errorf("seed 1 twice: %s", diff)
			}
			for _, d := range tracedCatalogue() {
				va, okA := a.Values[d.Name]
				vb, okB := b.Values[d.Name]
				if okA != okB || (d.Exact && !near(va, vb, w.Jitter)) {
					t.Errorf("seed 1 twice: %s is %v (reported %v) and %v (reported %v)", d.Name, va, okA, vb, okB)
				}
			}
			other := quickRounds(w, 2, modePlain)[0]
			for _, r := range []*round{a, b, other} {
				if r.Failed != 0 {
					t.Errorf("%d of %d ops failed: %v", r.Failed, r.Ops, r.Fails)
				}
			}
			if other.Pattern == a.Pattern && other.Virt == a.Virt {
				t.Errorf("seed 2 drew the same pages (pattern %#x) and moved the same virtual time as seed 1", a.Pattern)
			}
		})
	}
}

// TestTracedFormsConserve: the spanned, staged and probe rounds run the same
// program as the plain one — same ops and virtual time per op type, same
// counters — every staged round's layer self times sum to the ops' meter
// total, and each workload's intended layer dominates.
func TestTracedFormsConserve(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rs := quickRounds(w, 1, modePlain, modeSpanned, modeStaged, modeProbe)
			s := summarize(w, rs)
			if !s.Correct || len(s.Problems) > 0 {
				t.Fatalf("not correct: %v", s.Problems)
			}
			staged := rs[2]
			var sum int64
			for _, v := range staged.SelfVirt {
				sum += v
			}
			if sum != int64(staged.Virt) {
				t.Errorf("layer self times sum to %d virtual ns, the meters to %d", sum, int64(staged.Virt))
			}
			if len(rs[3].Values) == 0 {
				t.Errorf("the probe round measured nothing")
			}
			share := func(part string, whole int64) float64 {
				return float64(staged.SpanVirt[part]) / float64(whole)
			}
			switch w.Name {
			case "clone-fanout":
				if got := share("cloned.serve", int64(staged.Kinds[opClone].Virt)); got <= 0.5 {
					t.Errorf("cloned.serve is %.2f of clone virtual time, want > 0.5", got)
				}
			case "create-churn":
				if got := share("toolstack.create", int64(staged.Kinds[opBoot].Virt)); got <= 0.8 {
					t.Errorf("toolstack.create is %.2f of boot virtual time, want > 0.8", got)
				}
			case "remote-fanout":
				parts := staged.SpanVirt["cluster.snapshot"] + staged.SpanVirt["cluster.xfer"] + staged.SpanVirt["cluster.materialize"]
				if whole := staged.SpanVirt["cluster.remote_clone"]; parts != whole || whole == 0 {
					t.Errorf("snapshot+xfer+materialize are %d virtual ns, cluster.remote_clone %d", parts, whole)
				}
			}
		})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest mirrors BENCHMARK.json, which is generated from the catalogues:
// TestManifestMatchesCatalogue prints the file afresh when it is stale.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWhy    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWhy{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range tracedCatalogue() {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

// TestManifestMatchesCatalogue: BENCHMARK.json is what the catalogues
// generate, and every name in it is well formed and used once.
func TestManifestMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, built manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	fresh, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fresh, &built); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, built) {
		t.Errorf("BENCHMARK.json is stale; it should read:\n%s", fresh)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is malformed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range built.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range built.EndToEnd {
		check(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Errorf("end_to_end lacks setup_s in seconds, lower is better")
	}
	for _, m := range built.PerLayer {
		check(m.Name)
	}
	if n := len(built.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

// TestDriverForm: the driver's command line yields, as the last line of
// standard output, one JSON object with exactly the contract's keys and
// every metric of the pass.
func TestDriverForm(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, tracedCatalogue()} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "fuzz-reset", "--seed", "7", "--seconds", "1", "--quick", "--trace", []string{"0", "1"}[trace]}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace %d: last line is not the result object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %d: result %s", trace, lines[len(lines)-1])
		}
		if len(got.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(got.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := got.Metrics[d.Name]
			if !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %d: metric %s missing or in the wrong unit: %+v", trace, d.Name, m)
			}
			if trace == 0 && ok && m.Value != nil && *m.Value <= 0 {
				t.Errorf("end-to-end metric %s is %v, must never be 0", d.Name, *m.Value)
			}
		}
	}
}

// TestQuartilesArePythons pins quartiles to statistics.quantiles(n=4).
func TestQuartilesArePythons(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{2, 1}) // Python extrapolates past a sample of two
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}
