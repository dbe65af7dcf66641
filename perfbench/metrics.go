package main

import (
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"strconv"
)

// metric is one reported number; the lists match BENCHMARK.json.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"run_s_per_mpkt", "s/Mpkt"},
	{"cpu_s_per_mpkt", "s/Mpkt"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metric{
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"run_wall_s", "s"},
	{"host.steal_s", "s"},
	{"host.ref_us", "us"},
	{"sim.events", "count"},
	{"sim.events_scheduled", "count"},
	{"sim.events_cancelled", "count"},
	{"sim.peak_pending", "count"},
	{"sim.event_slot_allocs", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.ns_per_event", "ns"},
	{"sim.epochs", "count"},
	{"sim.events_per_epoch", "count"},
	{"sim.shard_imbalance", "ratio"},
	{"sim.cpu_util", "ratio"},
	{"simnet.self_s", "s"},
	{"net.data_sent", "count"},
	{"net.acks_sent", "count"},
	{"net.events_per_packet", "ratio"},
	{"net.pool_reuse", "ratio"},
	{"net.max_queue_peak_kb", "kB"},
	{"net.queue_cap_peak", "count"},
	{"net.queue_shrinks", "count"},
	{"net.ecn_marks", "count"},
	{"net.pfc_pauses", "count"},
	{"net.drops", "count"},
	{"net.addflow_s", "s"},
	{"topo.build_s", "s"},
	{"topo.shardmap_s", "s"},
	{"workload.gen_s", "s"},
	{"workload.flows", "count"},
	{"cc.onack_calls", "count"},
	{"cc.onack_ns.hpcc", "ns"},
	{"cc.onack_ns.hpcc_vaisf", "ns"},
	{"cc.onack_ns.swift", "ns"},
	{"cc.onack_ns.swift_vaisf", "ns"},
	{"cc.self_share", "ratio"},
	{"cc.control_updates", "count"},
	{"core.vaisf_ns_per_ack.hpcc", "ns"},
	{"core.vaisf_ns_per_ack.swift", "ns"},
	{"tail_improvement_x", "x"},
	{"converge_us", "us"},
	{"long_p999_slowdown", "x"},
	{"metrics.collect_s", "s"},
	{"metrics.sampler_points", "count"},
	{"metrics.records", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead", "ratio"},
}

func (r *report) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":        r.setupS(),
		"run_s_per_mpkt": r.runSPerMpkt(),
		"cpu_s_per_mpkt": r.cpuSPerMpkt(),
		"peak_rss_mb":    r.peakRSS / 1e6,
	}
}

// perLayerValues reports a traced report: counts from its last pass,
// times as medians over its passes or means over its set-up rounds, and
// rates against the untraced run's run_s.
func (r *report) perLayerValues() map[string]float64 {
	v := map[string]float64{}
	res := r.last()
	runS, cpuS := r.untraced.rawRunS(), r.untraced.rawCPUS()
	v["run_s"], v["cpu_s"] = runS, cpuS
	v["run_wall_s"], v["host.steal_s"] = r.untraced.runWallS(), r.untraced.stealS()
	v["host.ref_us"] = r.untraced.refUs()
	var ev, sched, canc, allocs, epochs uint64
	var peak int
	var data, acks, gets, pallocs, capPeak, shrinks, ecn, pfc, drops, maxQ int64
	var calls, controls uint64
	var ccNs, collect float64
	var points, records int
	var imbalance float64
	for _, x := range res {
		ev += x.eng.Steps
		sched += x.eng.Scheduled
		canc += x.eng.Cancelled
		allocs += x.eng.EventAllocs
		peak = max(peak, x.eng.PeakPending)
		epochs += x.epochs
		data += x.net.DataSent
		acks += x.net.AcksSent
		gets += x.net.PoolGets
		pallocs += x.net.PoolAllocs
		capPeak = max(capPeak, x.net.QueueCapPeak)
		shrinks += x.net.QueueShrinks
		ecn += x.net.ECNMarks
		pfc += x.net.PFCPauses
		drops += x.net.Drops()
		maxQ = max(maxQ, x.net.MaxQueuePeak)
		calls += x.trace.calls
		controls += x.trace.controls
		ccNs += x.trace.nsPerCall() * float64(x.trace.calls)
		collect += x.collectWall.Seconds()
		points += x.samplerPts
		records += len(x.records)
		if n := len(x.shardSteps); n > 0 {
			var sum, top uint64
			for _, s := range x.shardSteps {
				sum += s
				top = max(top, s)
			}
			imbalance = max(imbalance, float64(top)*float64(n)/float64(sum))
		}
	}
	v["sim.events"] = float64(ev)
	v["sim.events_scheduled"] = float64(sched)
	v["sim.events_cancelled"] = float64(canc)
	v["sim.peak_pending"] = float64(peak)
	v["sim.event_slot_allocs"] = float64(allocs)
	v["sim.events_per_s"] = float64(ev) / runS
	v["sim.ns_per_event"] = runS * 1e9 / float64(ev)
	v["sim.epochs"] = float64(epochs)
	v["sim.events_per_epoch"] = 0
	if epochs > 0 {
		v["sim.events_per_epoch"] = float64(ev) / float64(epochs)
	}
	v["sim.shard_imbalance"] = imbalance
	threads := 1.0
	if r.w.shards > 1 {
		threads = float64(min(r.w.shards, workers))
	}
	v["sim.cpu_util"] = cpuS / (runS * threads)

	v["net.data_sent"] = float64(data)
	v["net.acks_sent"] = float64(acks)
	v["net.events_per_packet"] = float64(ev) / float64(data+acks)
	v["net.pool_reuse"] = 0
	if gets > 0 {
		v["net.pool_reuse"] = 1 - float64(pallocs)/float64(gets)
	}
	v["net.max_queue_peak_kb"] = float64(maxQ) / 1e3
	v["net.queue_cap_peak"] = float64(capPeak)
	v["net.queue_shrinks"] = float64(shrinks)
	v["net.ecn_marks"] = float64(ecn)
	v["net.pfc_pauses"] = float64(pfc)
	v["net.drops"] = float64(drops)

	var st setupTimes
	for _, s := range r.setups {
		st.gen += s.gen
		st.topo += s.topo
		st.shardmap += s.shardmap
		st.addflow += s.addflow
	}
	rounds := float64(len(r.setups))
	v["net.addflow_s"] = st.addflow.Seconds() / rounds
	v["topo.build_s"] = st.topo.Seconds() / rounds
	v["topo.shardmap_s"] = st.shardmap.Seconds() / rounds
	v["workload.gen_s"] = st.gen.Seconds() / rounds
	v["workload.flows"] = float64(r.flows)

	v["cc.onack_calls"] = float64(calls)
	for _, k := range allKeys {
		v["cc.onack_ns."+k] = 0
	}
	for _, x := range res {
		v["cc.onack_ns."+x.key] = x.trace.nsPerCall()
	}
	tracedRunS := r.passes[len(r.passes)-1].total(span.run).Seconds()
	v["cc.self_share"] = ccNs / 1e9 / tracedRunS
	// The engine and net cannot be told apart from outside: their joint
	// self time is what the traced pass spent outside timed cc and
	// metrics calls (sampler ticks and hooks included).
	v["simnet.self_s"] = tracedRunS - ccNs/1e9 - collect
	v["cc.control_updates"] = float64(controls)
	for _, base := range []string{"hpcc", "swift"} {
		d := 0.0
		if r.byKey(base) != nil && r.byKey(base+"_vaisf") != nil {
			d = v["cc.onack_ns."+base+"_vaisf"] - v["cc.onack_ns."+base]
		}
		v["core.vaisf_ns_per_ack."+base] = d
	}
	v["tail_improvement_x"] = r.tailImprovement()
	v["converge_us"] = r.convergeUs()
	v["long_p999_slowdown"] = r.byKey("hpcc").longP999

	v["metrics.collect_s"] = collect
	v["metrics.sampler_points"] = float64(points)
	v["metrics.records"] = float64(records)

	passes := float64(len(r.passes))
	v["runtime.alloc_mb"] = float64(r.rt1.allocBytes-r.rt0.allocBytes) / 1e6 / passes
	v["runtime.gc_cycles"] = float64(r.rt1.gcCycles-r.rt0.gcCycles-uint64(r.forcedGC)) / passes
	v["runtime.gc_cpu_s"] = (r.rt1.gcCPU - r.rt0.gcCPU) / passes
	v["runtime.heap_peak_mb"] = float64(r.rt1.heapSys) / 1e6
	// Both halves at the nominal host speed, so a change of the host's
	// speed between them does not read as tracing cost.
	v["trace.overhead"] = r.runS() / r.untraced.runS()
	return v
}

// checkGolden compares every variant's p99.9 slowdown-by-size series with
// the recorded fig10 figure, value for value; a mismatch fails the variant.
func (r *report) checkGolden(path string) {
	want, readErr := readSeries(path)
	for i := range r.last() {
		res := &r.last()[i]
		err := readErr
		if err == nil {
			err = compareSeries(want[res.label], res)
		}
		if err != nil {
			res.err = errors.Join(res.err, fmt.Errorf("golden %s: %w", path, err))
		}
	}
}

func compareSeries(want [][2]string, res *result) error {
	if len(want) != len(res.buckets) {
		return fmt.Errorf("%d points, want %d", len(res.buckets), len(want))
	}
	for i, b := range res.buckets {
		x, y := strconv.FormatFloat(float64(b.MaxSize), 'g', -1, 64), strconv.FormatFloat(b.Slowdown, 'g', -1, 64)
		if x != want[i][0] || y != want[i][1] {
			return fmt.Errorf("point %d is (%s, %s), want (%s, %s)", i, x, y, want[i][0], want[i][1])
		}
	}
	return nil
}

// readSeries loads a series,x,y CSV as written by exp.Result.WriteCSV.
func readSeries(path string) (map[string][][2]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: empty", path)
	}
	out := map[string][][2]string{}
	for _, row := range rows[1:] {
		if len(row) != 3 {
			return nil, fmt.Errorf("%s: row %v has %d fields", path, row, len(row))
		}
		out[row[0]] = append(out[row[0]], [2]string{row[1], row[2]})
	}
	return out, nil
}
