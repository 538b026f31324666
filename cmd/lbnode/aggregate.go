package main

import (
	"cmp"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"lmbalance/internal/obs"
	"lmbalance/internal/trace"
)

// runAggregate scrapes the upstream debug endpoints and reports the
// merged cluster view. With -debug-addr it serves the merged view live
// (every request re-scrapes) until interrupted; otherwise it is a one
// shot: scrape, print, exit.
func runAggregate(o options, w io.Writer, td *teardown) (bool, error) {
	var urls []string
	for _, u := range strings.Split(o.aggregate, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls = append(urls, strings.TrimRight(u, "/"))
	}
	if len(urls) == 0 {
		return false, fmt.Errorf("-aggregate lists no upstream URLs")
	}
	slo, err := parseSLOFlag(o)
	if err != nil {
		return false, err
	}
	if o.debugAddr != "" {
		opts := obs.AggOptions{Timeout: o.scrapeTimeout}
		if slo != nil {
			var onAlert func(obs.HealthDoc)
			if o.flightDir != "" {
				onAlert = snapshotUpstreams(urls, o.scrapeTimeout)
			}
			hp := &healthProxy{}
			startMonitor(o, w, *slo, urls, nil, onAlert, hp, "/health", td)
			opts.Extra = map[string]http.HandlerFunc{"/health": hp.handler}
		}
		srv, err := obs.ServeAggregatorOpts(o.debugAddr, urls, opts)
		if err != nil {
			return false, err
		}
		td.do(func() { srv.Close() })
		fmt.Fprintf(w, "aggregator endpoints at %s: /cluster /metrics /series /healthz (%d upstreams)\n",
			srv.URL(), len(urls))
		<-interrupt(o, td)
		return true, nil
	}
	v, err := obs.AggregateOpts(urls, obs.AggOptions{Timeout: o.scrapeTimeout})
	if err != nil {
		return false, err
	}
	tb := trace.NewTable(fmt.Sprintf("aggregated cluster view (%d upstreams)", len(urls)),
		"upstream", "status")
	for _, nd := range v.Nodes {
		status := "ok"
		if nd.Err != nil {
			status = nd.Err.Error()
		}
		tb.AddRow(nd.URL, status)
	}
	if err := tb.WriteText(w); err != nil {
		return false, err
	}
	dn, mean, std, vd := v.Dist(obs.LoadGaugeBase)
	fmt.Fprintf(w, "cluster load: %d nodes  mean %.2f  std %.2f  VD %.3f\n", dn, mean, std, vd)
	// Conservation, re-derived from the scrapes alone. Mid-run the
	// totals legitimately differ by the load in flight, so the check is
	// reported, not enforced.
	var loads, gens, cons float64
	var nGen, nCon int
	for name, val := range v.Metrics {
		switch {
		case strings.HasPrefix(name, "cluster_node_load{"):
			loads += val
		case strings.HasPrefix(name, "cluster_node_generated_total{"):
			gens, nGen = gens+val, nGen+1
		case strings.HasPrefix(name, "cluster_node_consumed_total{"):
			cons, nCon = cons+val, nCon+1
		}
	}
	if nGen > 0 && nCon > 0 {
		if diff := gens - cons - loads; diff == 0 {
			fmt.Fprintf(w, "conservation: EXACT (generated %.0f − consumed %.0f = held %.0f)\n", gens, cons, loads)
		} else {
			fmt.Fprintf(w, "conservation: %.0f in flight (generated %.0f − consumed %.0f vs held %.0f)\n",
				diff, gens, cons, loads)
		}
	}
	return true, nil
}

// snapshotUpstreams is the aggregator's OnAlert hook: the recorders
// live with the nodes, so on an alert it asks every upstream to cut
// its own incident artifact via /flightsnap. Unreachable upstreams are
// skipped — the dead node may be the incident; the others still
// preserve their evidence.
func snapshotUpstreams(urls []string, timeout time.Duration) func(obs.HealthDoc) {
	client := &http.Client{Timeout: cmp.Or(timeout, obs.DefaultScrapeTimeout)}
	return func(obs.HealthDoc) {
		for _, u := range urls {
			if resp, err := client.Get(u + "/flightsnap?reason=slo_alert"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
}
