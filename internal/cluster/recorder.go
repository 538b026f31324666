package cluster

import (
	"fmt"

	"lmbalance/internal/obs"
)

// NewRecorder builds the standard cluster time-series recorder over a
// registry and attaches it (obs.Registry.SetRecorder), so the /series
// endpoint and obs.Aggregate see it. ids are the node ids whose load
// gauges live in this registry — all of them in a shared-registry
// (spawn-mode) process, exactly one in a daemon process.
//
// Columns:
//
//	load{node="i"}   each node's instantaneous load gauge (base name
//	                 "load", so the aggregator's MergeSeries folds the
//	                 per-node columns of many processes together)
//	nodes_mean       mean of the per-node gauges at sample time
//	nodes_vd         the paper's variation density std/mean across the
//	                 per-node gauges — the *instantaneous* cluster
//	                 imbalance, the quantity §5 proves converges in t
//	load_mean/std/vd the cluster_load histogram's cumulative moments
//	                 (every load observed at every step so far)
//	abort_rate{reason="r"}  per-second abort rate, one column per reason
//	initiate_rate    per-second balancing initiations
//	complete_rate    per-second completed balancing operations
//
// The caller owns sampling: call Sample per workload tick or Start for
// wall-clock periods, and Stop before reading a final consistent view.
// A nil registry returns a nil (inert) recorder.
func NewRecorder(reg *obs.Registry, ids []int, capacity int) *obs.Recorder {
	if reg == nil {
		return nil
	}
	rec := obs.NewRecorder(capacity)
	gauges := make([]*obs.Gauge, len(ids))
	for i, id := range ids {
		g := reg.Gauge(LoadMetric(id))
		gauges[i] = g
		rec.GaugeColumn(fmt.Sprintf(`load{node="%d"}`, id), g)
	}
	spread := func() (mean, std, vd float64) {
		var sum, sumsq float64
		for _, g := range gauges {
			v := float64(g.Value())
			sum += v
			sumsq += v * v
		}
		return obs.Moments(float64(len(gauges)), sum, sumsq)
	}
	rec.Column("nodes_mean", func() float64 {
		mean, _, _ := spread()
		return mean
	})
	rec.Column("nodes_vd", func() float64 {
		_, _, vd := spread()
		return vd
	})
	rec.HistogramColumns("load", reg.Histogram("cluster_load", obs.LoadBuckets))
	for _, reason := range AbortReasons {
		rec.CounterRateColumn(fmt.Sprintf("abort_rate{reason=%q}", reason),
			reg.Counter(AbortMetric(reason)))
	}
	rec.CounterRateColumn("initiate_rate", reg.Counter("cluster_protocols_initiated_total"))
	rec.CounterRateColumn("complete_rate", reg.Counter("cluster_protocols_completed_total"))
	reg.SetRecorder(rec)
	return rec
}
