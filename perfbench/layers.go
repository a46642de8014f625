package main

import (
	"fmt"
	"sort"
	"strings"
)

// spanMetrics maps every layer span name to the per-layer metric its self
// time is reported as. A span with no entry here fails the traced run, so
// no layer's time can go unreported.
var spanMetrics = map[string]string{
	"topology.build":       "topology.build_s",
	"network.packet_setup": "network.packet_setup_s",
	"network.packet_run":   "network.packet_run_s",
	"network.fluid_setup":  "network.fluid_setup_s",
	"network.fluid_run":    "network.fluid_run_s",
	"algorithms.build":     "algorithms.build_s",
	"core.grow":            "core.grow_s",
	"core.score":           "core.score_s",
	"collective.lower":     "collective.lower_s",
	"collective.load":      "collective.load_s",
	"plancache.miss":       "plancache.miss_s",
	"plancache.store":      "plancache.store_s",
	"plancache.disk_get":   "plancache.disk_get_s",
	"plancache.mem_get":    "plancache.mem_get_s",
	"ni.compile":           "ni.compile_s",
	"training.iteration":   "training.self_s",
}

// derived per-layer metrics: counts, ratios, runtime and trace checks.
var derivedUnits = map[string]string{
	"network.packet_run_ns_per_wire_kib": "ns/KiB",
	"network.fluid_sims":                 "count",
	"network.fluid_run_ns_per_transfer":  "ns",
	"core.search_miss_share":             "ratio",
	"core.shard_replay_share":            "ratio",
	"collective.transfers":               "count",
	// CPU seconds of warm loads, summed over decode workers, from the
	// program's own DecodeNanos/VerifyNanos counters.
	"collective.decode_s":       "s",
	"collective.verify_s":       "s",
	"plancache.bytes_written":   "bytes",
	"plancache.bytes_read":      "bytes",
	"plancache.mem_hit_ns_p50":  "ns",
	"plancache.mem_hit_ns_p99":  "ns",
	"plancache.mem_hit_samples": "count",
	"ni.table_entries":          "count",
	"runtime.gc_cpu_share":      "ratio",
	"runtime.gc_pause_s":        "s",
	"runtime.heap_peak_mb":      "MB",
	"os.minor_faults":           "count",
	"trace.lane_s":              "s",
	"trace.other_s":             "s",
	"trace.unaccounted_share":   "ratio",
	"trace.overhead_share":      "ratio",
	"trace.traced_wall_s":       "s",
	"trace.untraced_wall_s":     "s",
}

// perLayerNames lists every metric a traced run reports, sorted.
func perLayerNames() []string {
	var out []string
	for _, m := range spanMetrics {
		out = append(out, m)
	}
	for m := range derivedUnits {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func perLayerUnit(name string) string {
	if u, ok := derivedUnits[name]; ok {
		return u
	}
	return "s"
}

// layerMetrics reduces one traced pass, whose peak live heap was
// livePeakMB, to its per-layer metrics. Metrics computed over the whole
// run (memory-hit percentiles, topology set-up, tracing overhead) are
// filled in by execute.
func layerMetrics(tr *tracer, before, after procSample, livePeakMB float64) (map[string]float64, error) {
	b, err := tr.breakdown()
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	var unknown []string
	for name, sec := range b.self {
		metric, ok := spanMetrics[name]
		if !ok {
			unknown = append(unknown, name)
			continue
		}
		m[metric] += sec
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("spans with no per-layer metric: %s", strings.Join(unknown, ", "))
	}
	c := tr.counts
	m["network.packet_run_ns_per_wire_kib"] = ratio(m["network.packet_run_s"]*1e9, c["network.packet_wire_kib"])
	m["network.fluid_sims"] = c["network.fluid_sims"]
	m["network.fluid_run_ns_per_transfer"] = ratio(m["network.fluid_run_s"]*1e9, c["network.fluid_transfers"])
	m["core.search_miss_share"] = ratio(c["core.search_misses"], c["core.searches"])
	m["core.shard_replay_share"] = ratio(c["core.shard_replays"], c["core.shard_turns"])
	m["collective.transfers"] = c["collective.transfers"]
	m["collective.decode_s"] = c["collective.decode_s"]
	m["collective.verify_s"] = c["collective.verify_s"]
	m["plancache.bytes_written"] = c["plancache.bytes_written"]
	m["plancache.bytes_read"] = c["plancache.bytes_read"]
	m["ni.table_entries"] = c["ni.table_entries"]
	m["runtime.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["runtime.gc_pause_s"] = float64(after.pauseNs-before.pauseNs) / 1e9
	m["runtime.heap_peak_mb"] = livePeakMB
	m["os.minor_faults"] = float64(after.minorFaults - before.minorFaults)
	m["trace.lane_s"] = b.laneSeconds
	m["trace.other_s"] = b.other
	m["trace.unaccounted_share"] = ratio(b.unaccounted, b.laneSeconds)
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
