package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"faircc/internal/metrics"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// small shrinks each benchmark workload to test size, keeping its shape:
// a fat-tree with Poisson Hadoop traffic on the sequential engine, a
// staggered incast with samplers, and a 2-shard fat-tree on sim.Parallel.
var small = []scenario{
	{name: "fig10-medium", fatTree: topo.DefaultFatTree().Scaled(2, 2, 2),
		duration: 1 * sim.Millisecond, keys: allKeys},
	{name: "incast-96", senders: 8, flowSize: 2_000_000, keys: allKeys},
	{name: "fig10-large-2shard", fatTree: topo.DefaultFatTree().Scaled(2, 2, 2),
		duration: 1 * sim.Millisecond, shards: 2, keys: []string{"hpcc"}},
}

// runOnce runs every variant of w once and returns the built networks
// with their results.
func runOnce(t *testing.T, w *scenario, seed int64, traced bool) ([]*built, []result) {
	t.Helper()
	var st setupTimes
	in, err := w.generate(seed, &st)
	if err != nil {
		t.Fatal(err)
	}
	var bs []*built
	var rs []result
	for _, v := range in.vs {
		b := w.build(in, v, seed, traced, &st)
		r := b.run(in.lastStart, time.Time{})
		if r.err != nil || r.unfinished != 0 {
			t.Fatalf("%s %s: err=%v unfinished=%d", w.name, v.label, r.err, r.unfinished)
		}
		bs, rs = append(bs, b), append(rs, r)
	}
	return bs, rs
}

// TestDigestRepeats runs each shrunken workload twice, once traced: the
// event counts and finish digests must be identical, so tracing does not
// perturb the simulation either.
func TestDigestRepeats(t *testing.T) {
	for i := range small {
		w := &small[i]
		_, a := runOnce(t, w, 3, false)
		_, b := runOnce(t, w, 3, true)
		for j := range a {
			if a[j].eng.Steps != b[j].eng.Steps || a[j].digest != b[j].digest {
				t.Errorf("%s %s: events %d vs %d, digest %016x vs %016x", w.name, a[j].label,
					a[j].eng.Steps, b[j].eng.Steps, a[j].digest, b[j].digest)
			}
		}
		_, c := runOnce(t, w, 4, false)
		if c[0].digest == a[0].digest {
			t.Errorf("%s: seeds 3 and 4 gave the same finish digest", w.name)
		}
	}
}

// TestCountsMatchRunStats checks the benchmark's outside-in counts against
// the program's own run snapshot, and the traced OnAck count against the
// ACKs that reach congestion control: every ACK sent, minus dropped and
// duplicate ones, minus each flow's final ACK (which finishes the flow
// instead of calling OnAck).
func TestCountsMatchRunStats(t *testing.T) {
	for i := range small {
		w := &small[i]
		bs, rs := runOnce(t, w, 5, true)
		for j, b := range bs {
			r := rs[j]
			var rsnap metrics.RunStats
			if w.shards > 1 {
				if b.nw.Shards() != w.shards {
					t.Fatalf("%s: %d shards, want %d", w.name, b.nw.Shards(), w.shards)
				}
				rsnap = metrics.CollectSharded(b.nw, r.epochs)
				if r.epochs == 0 || len(r.shardSteps) != w.shards {
					t.Errorf("%s: epochs=%d shard steps=%v", w.name, r.epochs, r.shardSteps)
				}
			} else {
				rsnap = metrics.CollectRun(b.eng, b.nw)
			}
			got := []int64{int64(r.eng.Steps), int64(r.eng.Scheduled), int64(r.eng.Cancelled),
				int64(r.eng.PeakPending), int64(r.eng.EventAllocs), r.net.DataSent, r.net.AcksSent,
				r.net.PoolGets, r.net.PoolAllocs, r.net.ECNMarks, r.net.PFCPauses, r.net.QueueCapPeak,
				r.net.QueueShrinks, r.net.Drops()}
			want := []int64{int64(rsnap.Events), int64(rsnap.EventsScheduled), int64(rsnap.EventsCancelled),
				int64(rsnap.PeakPending), int64(rsnap.EventSlotAllocs), rsnap.DataSent, rsnap.AcksSent,
				rsnap.PoolGets, rsnap.PoolAllocs, rsnap.ECNMarks, rsnap.PFCPauses, rsnap.QueueCapPeak,
				rsnap.QueueShrinks, rsnap.DataDrops + rsnap.AckDrops}
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("%s %s: count %d is %d, RunStats says %d", w.name, r.label, k, got[k], want[k])
				}
			}
			onAck := r.net.AcksSent - r.net.AckDrops - r.net.DupAcks - int64(r.net.FlowsFinished)
			if int64(r.trace.calls) != onAck {
				t.Errorf("%s %s: %d OnAck calls, want %d", w.name, r.label, r.trace.calls, onAck)
			}
			if r.trace.timed == 0 || r.trace.controls != r.trace.calls {
				t.Errorf("%s %s: timed=%d controls=%d calls=%d", w.name, r.label,
					r.trace.timed, r.trace.controls, r.trace.calls)
			}
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric names and
// units in step with BENCHMARK.json, and meta.json describing each one.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		prog []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.json), len(c.prog))
		}
		for i, m := range c.prog {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i,
					c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}

	raw, err = os.ReadFile("meta.json")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Metrics map[string]struct{ Layer string }
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if n := len(endToEnd) + len(perLayer); len(meta.Metrics) != n {
		t.Errorf("meta.json describes %d metrics, the program reports %d", len(meta.Metrics), n)
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if meta.Metrics[m.name].Layer == "" {
			t.Errorf("meta.json gives no layer for %s", m.name)
		}
	}
}

// TestChunkSum checks how run times are taken over passes: each chunk's
// lower median (the smaller of two, the middle of three), a cut pass
// counting only for the chunks it finished, steal left out of run_s, and
// the scaling to the nominal host speed.
func TestChunkSum(t *testing.T) {
	ms := func(xs ...int) []span {
		s := make([]span, len(xs))
		for i, x := range xs {
			s[i] = span{wall: time.Duration(x) * time.Millisecond, cpu: time.Millisecond}
		}
		return s
	}
	stolen := ms(35)
	stolen[0].steal = 8 * time.Millisecond
	r := &report{
		passes: []pass{
			{results: []result{{chunks: ms(10, 20)}, {chunks: ms(30)}}},
			{results: []result{{chunks: ms(12, 18)}, {chunks: stolen}}},
		},
		cut: &pass{results: []result{{chunks: ms(11), cut: true}}},
	}
	// Chunks: (10, 12, 11) -> 11, (20, 18) -> 18, (30, 35-8) -> 27.
	if got, want := r.runS(), 0.056; math.Abs(got-want) > 1e-12 {
		t.Errorf("runS = %v, want %v", got, want)
	}
	if got, want := r.rawRunS(), 0.056; math.Abs(got-want) > 1e-12 {
		t.Errorf("rawRunS = %v, want %v", got, want)
	}
	// Wall with the steal left in: (30, 35) -> 30.
	if got, want := r.runWallS(), 0.059; math.Abs(got-want) > 1e-12 {
		t.Errorf("runWallS = %v, want %v", got, want)
	}
	if got, want := r.cpuS(), 0.003; math.Abs(got-want) > 1e-12 {
		t.Errorf("cpuS = %v, want %v", got, want)
	}
	if got := len(r.timed()[2].done()); got != 0 {
		t.Errorf("cut pass has %d finished runs, want 0", got)
	}
	// Scaled to the nominal host speed: a pass whose reference samples
	// took twice refNominal counts at half its time.
	for i := range r.passes[0].results {
		r.passes[0].results[i].refs = []time.Duration{2 * refNominal}
	}
	// Chunks: (5, 12, 11) -> 11, (10, 18) -> 10, (15, 27) -> 15.
	if got, want := r.runS(), 0.036; math.Abs(got-want) > 1e-12 {
		t.Errorf("scaled runS = %v, want %v", got, want)
	}
	if got, want := r.rawRunS(), 0.056; math.Abs(got-want) > 1e-12 {
		t.Errorf("rawRunS = %v, want %v", got, want)
	}
}
