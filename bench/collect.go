package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// A result set is what -collect writes and -compare reads: every run's
// result line with its fingerprint, plus the median and quartiles of
// each (workload, metric) pair.

type setRun struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Result      resultLine  `json:"result"`
}

type setSummary struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	N        int       `json:"n"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"iqr_over_median"`
	Values   []float64 `json:"values"`
}

type resultSet struct {
	Runs    []setRun     `json:"runs"`
	Summary []setSummary `json:"summary"`
}

// collectSet runs each workload `runs` times, each in a child process
// of this same binary so every run has its own peak RSS, and gathers
// the result lines.
func collectSet(names []string, seed uint64, seconds float64, trace, runs int, varySeed bool, outDir string) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	for i := 0; i < runs; i++ {
		s := seed
		if varySeed {
			s += uint64(i)
		}
		for _, name := range names {
			cmd := exec.Command(self,
				"-workload", name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-out-dir", outDir)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s (seed %d): %w", name, s, err)
			}
			run, err := parseRunOutput(stdout.String())
			if err != nil {
				return nil, fmt.Errorf("%s (seed %d): %w", name, s, err)
			}
			set.Runs = append(set.Runs, run)
			fmt.Fprintf(os.Stderr, "bench: run %d/%d %s seed %d done\n", i+1, runs, name, s)
			if runs == 1 {
				// A single pass is for reading: show the run's own report.
				os.Stdout.WriteString(stdout.String())
			}
		}
	}
	set.summarize()
	return set, nil
}

// parseRunOutput picks the fingerprint line and the final result line
// out of one run's standard output.
func parseRunOutput(out string) (setRun, error) {
	var run setRun
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) == 0 {
		return run, fmt.Errorf("no output")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
		return run, fmt.Errorf("last line is not a result: %w", err)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "fingerprint: "); ok {
			if err := json.Unmarshal([]byte(rest), &run.Fingerprint); err != nil {
				return run, fmt.Errorf("bad fingerprint line: %w", err)
			}
		}
	}
	return run, nil
}

func (s *resultSet) summarize() {
	type key struct{ workload, metric string }
	vals := map[key][]float64{}
	units := map[key]string{}
	for _, r := range s.Runs {
		for name, m := range r.Result.Metrics {
			k := key{r.Fingerprint.Workload, name}
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	s.Summary = s.Summary[:0]
	for k, v := range vals {
		q1, q3 := quartiles(v)
		s.Summary = append(s.Summary, setSummary{
			Workload: k.workload, Metric: k.metric, Unit: units[k], N: len(v),
			Median: median(v), Q1: q1, Q3: q3, Spread: spread(v), Values: v,
		})
	}
	sort.Slice(s.Summary, func(i, j int) bool {
		a, b := s.Summary[i], s.Summary[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return a.Metric < b.Metric
	})
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.summarize()
	return &s, nil
}

func (s *resultSet) printSummary(w io.Writer) {
	if len(s.Runs) < 2 {
		return
	}
	fmt.Fprintf(w, "%-16s %-36s %3s %14s %14s %14s %8s  %s\n", "workload", "metric", "n", "median", "q1", "q3", "iqr/med", "unit")
	for _, r := range s.Summary {
		fmt.Fprintf(w, "%-16s %-36s %3d %14.6g %14.6g %14.6g %8.4f  %s\n",
			r.Workload, r.Metric, r.N, r.Median, r.Q1, r.Q3, r.Spread, r.Unit)
	}
}

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict applies one end-to-end metric's bound to two samples: B is
// "worse" when its median is worse than A's by more than bound × A's
// median; when either side's own spread (IQR / median) is wider than
// the bound the row is "unresolved", not "same".
func verdict(a, b []float64, better string, bound float64) string {
	if spread(a) > bound || spread(b) > bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	worseBy := (mb - ma) / ma
	if better == "higher" {
		worseBy = (ma - mb) / ma
	}
	if worseBy > bound {
		return "worse"
	}
	return "same"
}

// compareSets prints a verdict per (end-to-end metric, workload) row and
// reports whether every row is "same".
func compareSets(specPath, pathA, pathB string, w io.Writer) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	find := func(s *resultSet, workload, metric string) *setSummary {
		for i := range s.Summary {
			if s.Summary[i].Workload == workload && s.Summary[i].Metric == metric {
				return &s.Summary[i]
			}
		}
		return nil
	}
	allSame := true
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			ra, rb := find(a, wl.name, m.Name), find(b, wl.name, m.Name)
			if ra == nil || rb == nil {
				continue
			}
			v := verdict(ra.Values, rb.Values, m.Better, m.Bound)
			if v != "same" {
				allSame = false
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %8.4f %8.4f %7.2f  %s\n",
				wl.name, m.Name, ra.Median, rb.Median, ra.Spread, rb.Spread, m.Bound, v)
		}
	}
	return allSame, nil
}
