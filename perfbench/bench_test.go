package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyOptions(t *testing.T, name string, trace bool) options {
	return options{workload: name, seed: 7, seconds: 0.05, trace: trace, out: t.TempDir(), tiny: true}
}

// TestEveryWorkloadEmitsBenchmarkMetrics runs each workload at tiny size,
// untraced and traced, and checks that the result carries exactly the
// metrics BENCHMARK.json names, with their units, and that the
// end-to-end ones are measured (never 0).
func TestEveryWorkloadEmitsBenchmarkMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		if _, ok := findWorkload(wl.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", wl.Name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, mode := range []struct {
				trace bool
				want  []struct{ Name, Unit string }
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				res, _, err := measure(w, tinyOptions(t, w.name, mode.trace), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", mode.trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json names %d", mode.trace, len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", mode.trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace=%v: metric %s in %q, BENCHMARK.json says %q", mode.trace, m.Name, got.Unit, m.Unit)
					case !mode.trace && got.Value <= 0:
						t.Errorf("metric %s = %v, want a measured positive value", m.Name, got.Value)
					}
				}
			}
		})
	}
}

// TestPlantedFailureCountedNotTimed plants one wrong payload byte (the
// ping-pong workloads) or one wrong checksum or sum (hpccg, churn) in the
// first unit and checks that it is counted as exactly one failure and
// that its sample is missing from the timings.
func TestPlantedFailureCountedNotTimed(t *testing.T) {
	_, _, nSmall, nLarge := ppSizes(true)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := &config{seed: 7, tiny: true, plant: true, work: t.TempDir(), log: io.Discard}
			prep := &samples{}
			unit, err := w.prepare(cfg, prep)
			if err != nil {
				t.Fatal(err)
			}
			if prep.failed != 0 {
				t.Fatalf("%d failures before the planted one", prep.failed)
			}
			s, _ := drive(0, 2, unit, nil)
			if s.failed != 1 {
				t.Fatalf("planted one failure, counted %d", s.failed)
			}
			switch w.name {
			case "pingpong", "wire":
				// Every session is timed as a whole; the planted round
				// trip is dropped from the latency samples only.
				if got, want := len(s.lat), len(s.solve)*nSmall-1; got != want {
					t.Errorf("%d latency samples, want %d", got, want)
				}
				if got, want := len(s.bw), len(s.solve)*nLarge; got != want {
					t.Errorf("%d bandwidth samples, want %d", got, want)
				}
			default:
				if got, want := len(s.solve), len(s.nativeSolve)-1; got != want {
					t.Errorf("%d timed SDR units, want %d (the planted one dropped)", got, want)
				}
			}
		})
	}
}

// TestResultLine checks the command's output contract: the result
// object is the last line, with exactly its four keys.
func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	report(&out, fingerprint{Workload: "pingpong", Seed: 3}, result{
		Correct: true, Attempted: 4, Metrics: map[string]metric{"setup_s": {0.25, "s"}},
	})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range obj {
		keys = append(keys, k)
	}
	if len(keys) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Errorf("result keys %v", keys)
	}
	if !strings.Contains(out.String(), `"seed":3`) {
		t.Errorf("stamp missing the seed:\n%s", out.String())
	}
}

// TestBadArguments checks that a run that cannot start prints no result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pingpong", "--trace", "2"},
		{"--workload", "pingpong", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestChurnPlan checks that the schedule is a function of the seed, that
// seeds differ, and that every seed kills the same number of times and
// re-executes the same number of victim steps.
func TestChurnPlan(t *testing.T) {
	a, b := planChurn(5, 100), planChurn(5, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	offsets := func(p churnPlan) int {
		sum := 0
		for s := range p.victim {
			sum += s % churnEvery
		}
		return sum
	}
	differ := false
	for seed := uint64(1); seed <= 20; seed++ {
		p := planChurn(seed, 100)
		if !reflect.DeepEqual(p.failures, a.failures) {
			differ = true
		}
		if len(p.victim) != 100 || len(p.failures) != 103 {
			t.Errorf("seed %d: %d victim kills, %d kills", seed, len(p.victim), len(p.failures))
		}
		if offsets(p) != offsets(a) {
			t.Errorf("seed %d: victim offsets sum to %d, seed 5 to %d", seed, offsets(p), offsets(a))
		}
		intervals := make(map[int]bool)
		for _, f := range p.failures {
			iv := f.AtStep / churnEvery
			if intervals[iv] || iv < 2 || f.AtStep%churnEvery == 0 || f.AtStep >= p.steps-churnEvery {
				t.Errorf("seed %d: kill at step %d breaks the one-kill-per-interval rule", seed, f.AtStep)
			}
			intervals[iv] = true
		}
		subA, subB, ex := p.failures[100], p.failures[101], p.exhaust
		if subA.AtStep > ex.AtStep || subB.AtStep > ex.AtStep {
			t.Errorf("seed %d: exhaustion before the substitutions", seed)
		}
		if !(subA.Rank == ex.Rank && subA.Rep != ex.Rep) && !(subB.Rank == ex.Rank && subB.Rep != ex.Rep) {
			t.Errorf("seed %d: exhaustion %+v does not follow a substitution of its rank", seed, ex)
		}
	}
	if !differ {
		t.Error("20 seeds, one schedule")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max %v", q)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Error("quantile sorted its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample")
	}
}
