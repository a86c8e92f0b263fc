// Command perfbench is the repository's benchmark: seeded closed-loop
// workloads that measure replicated (SDR, r=2) against native MPI in one
// process, check every output, and print the end-to-end metrics — or,
// with --trace 1, the per-layer metrics of a traced run.
//
//	go run . --workload pingpong --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the lines
// before it name each metric with its unit and stamp the host. See
// README.md for the workloads and the meaning of each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// shown are figures printed with the metrics but not part of the
	// result object.
	shown map[string]metric
}

// fingerprint stamps a result with what it was measured on and with.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		fp.Kernel = b.String()
	}
	return fp
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	repro    string
	// tiny and plant are set only by the benchmark's own tests (see
	// config).
	tiny, plant bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: pingpong | hpccg | churn | wire")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&o.repro, "repro", "", "run a known-defect repro instead: refork | replay-after-substitution")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for span traces and scratch state")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code: 0 when
// every correctness gate held, 1 when one failed (the result line still
// prints), 2 on bad arguments or set-up errors (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		return 2
	}
	if o.repro != "" {
		if err := os.MkdirAll(o.out, 0o755); err == nil {
			err = runRepro(o.repro, o.out, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		return 0
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	stamp := hostFingerprint()
	stamp.Workload, stamp.Seed, stamp.Trace = o.workload, o.seed, o.trace

	res, tracePath, err := measure(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	if tracePath != nil {
		p, err := tracePath(stamp)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "# spans %s\n", p)
	}
	report(stdout, stamp, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure prepares the workload, drives it for the budget and computes
// the metrics the run reports. With --trace 1 it also returns the writer
// of the span file.
func measure(w workload, o options, log io.Writer) (result, func(fingerprint) (string, error), error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, nil, err
	}
	work, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(work)
	cfg := &config{seed: o.seed, tiny: o.tiny, plant: o.plant, work: work, log: log}

	prep := &samples{}
	unit, err := w.prepare(cfg, prep)
	if err != nil {
		return result{}, nil, err
	}
	var tr *tracer
	minUnits := 1
	if o.trace {
		tr = newTracer()
		minUnits = 2
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	plain, traced := drive(budget, minUnits, unit, tr)

	failed := prep.failed + plain.failed + traced.failed
	res := result{
		Correct:   failed == 0,
		Attempted: prep.attempted + plain.attempted + traced.attempted,
		Failed:    failed,
	}
	if !o.trace {
		res.Metrics, res.shown = split(figures(plain))
		return res, nil, nil
	}
	res.Metrics = perLayer(tr, plain, traced)
	name := fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)
	return res, func(fp fingerprint) (string, error) { return tr.writeSpans(o.out, name, fp) }, nil
}

// gated are the end-to-end metrics of the result object: what a user of
// replicated MPI sees, in the two figures that stay steady from run to
// run on a shared 2-core host, so they can carry a regression bound. The
// other figures are printed alongside and reported by the traced run
// (README.md gives the measured spreads).
var gated = []string{"setup_s", "latency_us.p50"}

// figures computes every end-to-end figure from an untraced sample set.
func figures(s *samples) map[string]metric {
	return map[string]metric{
		"setup_s":               {median(s.setup), "s"},
		"solve_s":               {median(s.solve), "s"},
		"native_solve_s":        {median(s.nativeSolve), "s"},
		"latency_us.p50":        {median(s.lat), "us"},
		"native_latency_us.p50": {median(s.nativeLat), "us"},
		"latency_us.p90":        {quantile(s.lat, 0.90), "us"},
		"latency_us.p99":        {quantile(s.lat, 0.99), "us"},
		"bandwidth_MBps":        {median(s.bw), "MB/s"},
		"native_bandwidth_MBps": {median(s.nativeBW), "MB/s"},
	}
}

// split separates the gated metrics from the rest.
func split(all map[string]metric) (gatedOnes, rest map[string]metric) {
	gatedOnes, rest = make(map[string]metric), make(map[string]metric)
	for k, v := range all {
		rest[k] = v
	}
	for _, k := range gated {
		gatedOnes[k] = rest[k]
		delete(rest, k)
	}
	return gatedOnes, rest
}

// report prints the stamp, each metric by name with its unit, and the
// result line last.
func report(w io.Writer, stamp fingerprint, res result) {
	b, _ := json.Marshal(stamp)
	fmt.Fprintf(w, "# stamp %s\n", b)
	printMetrics(w, res.Metrics, "")
	printMetrics(w, res.shown, "  (not gated)")
	fmt.Fprintf(w, "# attempted %d failed %d fail_ratio %.6g\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted))
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

func printMetrics(w io.Writer, ms map[string]metric, note string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-34s %16.6f %s%s\n", n, ms[n].Value, ms[n].Unit, note)
	}
}
