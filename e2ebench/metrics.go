package main

import (
	"fmt"
	"sort"
)

// endToEnd are the metrics of an untraced run, reported by every workload.
// Metrics that exist on only one hot path (request latencies, max_ok_qps)
// or whose run-to-run spread is too wide to gate on (the tail
// percentiles) are printed beside them but are not part of this set.
var endToEnd = []string{"setup_s", "regrid_ms", "alloc_mb", "turnaround_p50_ms"}

// perLayer are the metrics of a traced run. A workload whose path does not
// go through a layer, or whose executor does not expose it, reports 0.
var perLayer = []string{
	"octant.classify_ms", "policy.select_ms",
	"partition.partition_ms", "partition.reuse_ratio", "partition.guard_share", "partition.guard_kept_share",
	"partition.commplan_ms", "partition.commplan_alloc_mb", "partition.migration_ms",
	"cluster.steps_ms",
	"checkpoint.save_ms", "checkpoint.bytes", "checkpoint.resume_ms",
	"core.unattributed_pct",
	"http.submit_us", "http.status_us", "fleet.materialize_us",
	"sched.queue_wait_p50_ms", "sched.queue_wait_p99_ms", "core.run_ms",
	"sched.refused_share", "sched.preemptions", "sched.share_ratio",
	"fleet.place_ms", "fleet.local_fallback_share",
	"stream.event_lag_ms", "loadgen.late_p99_ms",
}

// layerUnits gives each per-layer metric's unit, for the zero fill.
var layerUnits = map[string]string{
	"partition.reuse_ratio": "ratio", "partition.guard_share": "ratio", "partition.guard_kept_share": "ratio",
	"partition.commplan_alloc_mb": "MB", "checkpoint.bytes": "B", "core.unattributed_pct": "%",
	"http.submit_us": "us", "http.status_us": "us", "fleet.materialize_us": "us",
	"sched.refused_share": "ratio", "sched.preemptions": "count", "sched.share_ratio": "ratio",
	"fleet.local_fallback_share": "ratio",
}

func unitOf(name string) string {
	if u, ok := layerUnits[name]; ok {
		return u
	}
	return "ms"
}

// complete makes res report exactly the metric set of its mode: every
// end-to-end metric must have been measured; per-layer metrics of layers
// the workload does not exercise are reported as 0.
func complete(res *result, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
		for _, n := range perLayer {
			if _, ok := res.metrics[n]; !ok {
				res.set(n, 0, unitOf(n), "not measured on this workload")
			}
		}
	}
	for _, n := range want {
		if _, ok := res.metrics[n]; !ok {
			return fmt.Errorf("metric %s not measured", n)
		}
	}
	if len(res.metrics) != len(want) {
		var extra []string
		for n := range res.metrics {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics %v are not the declared set %v", extra, want)
	}
	return nil
}
