// Command bench is the repository's one benchmark: four workloads that
// between them exercise every layer (wire, cluster, core, sim, serve,
// obs, flight), a fixed set of end-to-end metrics, and a traced pass
// that reports a per-layer budget. BENCHMARK.json at the repository
// root names the command, the metrics and their regression bounds;
// bench/README.md explains what each number means and which queued
// change should move it.
//
// It measures every layer from outside — by timing calls into public
// functions and reading public counters — and checks each run's outputs
// (packet conservation, job conservation, core invariants, result
// digests) before any number counts: a run whose check fails prints no
// result and exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runCtx is what a workload gets: the seed its inputs derive from, its
// measurement budget, and — in the traced pass — the span recorder.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil in the untraced pass
	sz      sizes
	outDir  string
}

// runResult is what a workload hands back once its output checks passed.
type runResult struct {
	attempted, failed int64
	values            map[string]float64
	notes             []string
}

func newRunResult() *runResult { return &runResult{values: map[string]float64{}} }

func (r *runResult) set(name string, v float64) { r.values[name] = v }

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workloadDef struct {
	name string
	run  func(*runCtx) (*runResult, error)
}

var workloads = []workloadDef{
	{"serve_skew", runSkew},
	{"serve_firehose", runFirehose},
	{"cluster_storm", runStorm},
	{"sim_sharded", runSim},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fingerprint identifies the machine and build a result came from.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Link       string  `json:"link"`
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
}

func machineFingerprint(workload string, seed uint64, seconds time.Duration, trace bool) fingerprint {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		CPU: cpuModel(), Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit, Seed: seed,
		// Every socket is the host's loopback interface; link rates are
		// not measured.
		Link:     "loopback-interface",
		Workload: workload, Trace: trace, Seconds: seconds.Seconds(),
	}
}

// cpuModel reads the CPU model name, best effort.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runOne runs one workload in this process and assembles its result
// line: every end-to-end metric in the untraced pass, every per-layer
// metric in the traced one.
func runOne(w *workloadDef, c *runCtx) (resultLine, *runResult, error) {
	trace := c.tr != nil
	res, err := w.run(c)
	if err != nil {
		return resultLine{}, nil, err
	}
	names := endToEnd
	if trace {
		names = perLayer
		if err := microLayers(c, res); err != nil {
			return resultLine{}, nil, err
		}
		path, err := c.tr.write(c.outDir, w.name)
		if err != nil {
			return resultLine{}, nil, fmt.Errorf("write spans: %w", err)
		}
		res.notef("spans written to %s", path)
	} else {
		res.set("peak_rss_mb", peakRSSMB())
	}
	line := resultLine{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range names {
		v, ok := res.values[m.name]
		if !ok && !trace {
			return resultLine{}, nil, fmt.Errorf("workload %s did not report %s", w.name, m.name)
		}
		// A per-layer metric a workload does not report is a layer not
		// on its path: it did no work there, and reads 0.
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if line.Attempted < 1 {
		return resultLine{}, nil, fmt.Errorf("workload %s attempted no operation", w.name)
	}
	return line, res, nil
}

func printHuman(w *workloadDef, fp fingerprint, line resultLine, res *runResult) {
	fpj, _ := json.Marshal(fp)
	fmt.Printf("fingerprint: %s\n", fpj)
	if fp.Cores == 1 {
		fmt.Println("cores: 1 — a 1-CPU capture cannot gate scaling; the Workers=N arm and sim.parallel_efficiency are omitted")
	}
	for _, n := range res.notes {
		fmt.Printf("  %s\n", n)
	}
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := line.Metrics[n]
		fmt.Printf("%-16s %-36s %16.6g %s\n", w.name, n, m.Value, m.Unit)
	}
	fmt.Printf("%-16s attempted %d, failed %d, failed_ratio %.6g\n", w.name, line.Attempted, line.Failed,
		float64(line.Failed)/float64(line.Attempted))
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: serve_skew, serve_firehose, cluster_storm, sim_sharded, or all")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 27, "measurement time per run, seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics, span files); 0 the end-to-end pass")
		outDir   = flag.String("out-dir", "bench/out", "directory the traced pass writes its span files to")
		selftest = flag.Bool("selftest", false, "doctor the benchmark's own accounting and require every output check to trip")
		compare  = flag.Bool("compare", false, "compare two collected result sets: -compare A.json B.json")
		collect  = flag.Int("collect", 0, "run the selected workloads this many times in child processes and write a result set to -out")
		varySeed = flag.Bool("vary-seed", false, "with -collect: run i uses seed+i instead of the same seed every time")
		out      = flag.String("out", "", "with -collect: the result-set file to write")
		spec     = flag.String("spec", "BENCHMARK.json", "the benchmark definition (metric bounds for -compare)")
	)
	flag.Parse()

	switch {
	case *selftest:
		if err := selfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: selftest:", err)
			os.Exit(1)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result-set files")
			os.Exit(2)
		}
		ok, err := compareSets(*spec, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: compare:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	var selected []string
	if *workload == "all" {
		for _, w := range workloads {
			selected = append(selected, w.name)
		}
	} else if findWorkload(*workload) != nil {
		selected = []string{*workload}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))

	if *collect > 0 || len(selected) > 1 {
		// One process per workload run, so peak_rss_mb is each
		// workload's own.
		runs := *collect
		if runs < 1 {
			runs = 1
		}
		set, err := collectSet(selected, *seed, *seconds, *trace, runs, *varySeed, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if *out != "" {
			if err := set.write(*out); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		set.printSummary(os.Stdout)
		return
	}

	w := findWorkload(selected[0])
	c := &runCtx{seed: *seed, seconds: dur, sz: fullSizes, outDir: *outDir}
	if *trace == 1 {
		c.tr = &tracer{}
	}
	line, res, err := runOne(w, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: output check failed or run broke: %v\n", w.name, err)
		os.Exit(1)
	}
	printHuman(w, machineFingerprint(w.name, *seed, dur, *trace == 1), line, res)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}
