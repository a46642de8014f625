package experiments

import (
	"fmt"
	"io"
	"time"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// TracedResult is one traced all-reduce run: the measurement plus the
// full event recording and streaming metrics, ready for Chrome-trace or
// CSV export.
type TracedResult struct {
	Point   AllReducePoint
	Sched   *collective.Schedule
	Meta    obs.TraceMeta
	Events  *obs.Recorder
	Metrics *obs.Metrics
}

// WriteChromeTrace exports the recording as Chrome-trace JSON for
// ui.perfetto.dev.
func (tr *TracedResult) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, tr.Meta, tr.Events.Events)
}

// TraceAllReduceOpts measures one (topology, algorithm, size) point like
// MeasureAllReduceOpts while recording every simulation event and
// streaming it into a metrics collector with binCycles-wide utilization
// bins. A non-nil fault plan injects engine-layer faults: they activate
// mid-flight during the traced run (EvLinkFault events land in the
// recording), without re-planning the schedule around them.
func TraceAllReduceOpts(topo *topology.Topology, alg AlgSpec, dataBytes int64, engine Engine, binCycles float64, plan *faults.Plan, opts algorithms.Options) (*TracedResult, error) {
	elems := int(dataBytes / collective.WordSize)
	if elems < 1 {
		return nil, fmt.Errorf("experiments: data size %d bytes is below one %d-byte element", dataBytes, collective.WordSize)
	}
	start := time.Now()
	s, err := algorithms.Build(topo, alg.Name, elems, opts)
	if err != nil {
		return nil, err
	}
	planned := time.Now()
	rec := &obs.Recorder{}
	met := obs.NewMetrics(binCycles)
	cfg := network.DefaultConfig()
	cfg.MessageBased = alg.Msg
	cfg.Faults = plan
	cfg.Tracer = obs.Tee(rec, met)
	res, err := engine.run(s, cfg)
	if err != nil {
		return nil, err
	}
	return &TracedResult{
		Point: AllReducePoint{
			Topology:      topo.Name(),
			Algorithm:     alg.Name,
			DataBytes:     dataBytes,
			Cycles:        uint64(res.Cycles),
			BandwidthGBps: res.BandwidthBytesPerCycle(dataBytes),
			WallNanos:     time.Since(start).Nanoseconds(),
			PlanNanos:     planned.Sub(start).Nanoseconds(),
		},
		Sched:   s,
		Meta:    network.TraceMetaFor(s, ""),
		Events:  rec,
		Metrics: met,
	}, nil
}
