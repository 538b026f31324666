package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// captureMetrics redirects the -metrics-dump output for one run.
func captureMetrics(t *testing.T, o options) map[string]any {
	t.Helper()
	var sb strings.Builder
	old := metricsOut
	metricsOut = &sb
	defer func() { metricsOut = old }()
	o.metricsDump = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("-metrics-dump output is not JSON: %v\n%s", err, sb.String())
	}
	return doc
}

func TestMetricsDumpNetsim(t *testing.T) {
	o := opts(16, 60, 2, "netsim", "global", "uniform")
	doc := captureMetrics(t, o)
	for _, key := range []string{
		`cluster_node_generated_total{node="0"}`, "netsim_msgs_total",
		"cluster_protocols_initiated_total", "netsim_final_load",
	} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("dump missing %q: %v", key, doc)
		}
	}
	gen := `cluster_node_generated_total{node="0"}`
	if v, ok := doc[gen].(float64); !ok || v <= 0 {
		t.Fatalf("%s = %v, want > 0", gen, doc[gen])
	}
	// Two runs against one registry: the final-load histogram holds one
	// sample per node per run.
	hist, ok := doc["netsim_final_load"].(map[string]any)
	if !ok {
		t.Fatalf("netsim_final_load is not a histogram object: %v", doc["netsim_final_load"])
	}
	if got := hist["count"].(float64); got != float64(2*16) {
		t.Fatalf("final-load samples = %v, want %d", got, 2*16)
	}
}

func TestMetricsDumpEngine(t *testing.T) {
	o := opts(16, 40, 2, "lm", "global", "uniform")
	o.every = 10
	doc := captureMetrics(t, o)
	if v, ok := doc["sim_runs_total"].(float64); !ok || v != 2 {
		t.Fatalf("sim_runs_total = %v, want 2", doc["sim_runs_total"])
	}
	if _, ok := doc["sim_balance_ops_total"]; !ok {
		t.Fatalf("dump missing sim_balance_ops_total: %v", doc)
	}
	if _, ok := doc["sim_final_load_vd"]; !ok {
		t.Fatalf("dump missing sim_final_load_vd: %v", doc)
	}
}
