package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"faircc/internal/cc"
	"faircc/internal/cc/hpcc"
	"faircc/internal/cc/swift"
	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
	"faircc/internal/workload"
)

// scenario is one benchmark input family. Fat-tree workloads carry Poisson
// Hadoop traffic at 50% load (the paper's Fig. 10); incast workloads are a
// staggered n-to-1 incast on a star (Figs. 5c/6c). The seed picks the
// traffic; the simulator only sees the generated flow specs.
type scenario struct {
	name string
	// Fat-tree workloads.
	fatTree  topo.FatTreeConfig
	duration sim.Time // Poisson arrival window
	shards   int      // > 1 runs sim.Parallel over FatTree.ShardMap(shards)
	// Incast workloads (fatTree left zero).
	senders  int
	flowSize int64
	// keys selects the protocol variants run back to back, in order.
	keys []string
}

func (w *scenario) incast() bool { return w.senders > 0 }

var allKeys = []string{"hpcc", "hpcc_vaisf", "swift", "swift_vaisf"}

// workloads are the benchmark's inputs; see BENCHMARK.json for why each
// one is there.
var workloads = []scenario{
	{name: "fig10-medium", fatTree: topo.DefaultFatTree().Scaled(2, 2, 8),
		duration: 5 * sim.Millisecond, keys: allKeys},
	// 16 MB flows instead of the figure's 1 MB, so the per-ACK work of a
	// long-lived 96-way fair share dominates and a pass lasts seconds.
	{name: "incast-96", senders: 96, flowSize: 16_000_000, keys: allKeys},
	{name: "fig10-large-2shard", fatTree: topo.DefaultFatTree(),
		duration: 1 * sim.Millisecond, shards: 2, keys: []string{"hpcc"}},
}

func findWorkload(name string) (scenario, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return scenario{}, fmt.Errorf("unknown workload %q", name)
}

// Link, traffic and figure constants, as in the paper's experiments.
const (
	hostRate    = 100e9
	linkDelay   = 1 * sim.Microsecond
	incastGroup = 2
	incastEvery = 20 * sim.Microsecond
	// horizon bounds sampler scheduling; runs stop once every flow is done.
	horizon = 200 * sim.Millisecond
	dcLoad  = 0.5
	longMin = 1_000_000 // ">1 MB" long flows
	tailPct = 99.9
)

// variant is one protocol under test. key names it in metric names.
type variant struct {
	label string
	key   string
	make  func() cc.Algorithm
}

// variants builds the protocols sized from the topology's minimum BDP, as
// the paper sizes VAI's token threshold. maxScalePkts is Swift's flow-
// scaling window: 100 packets on the fat-tree, 50 on the star.
func variants(keys []string, minBDP, maxScalePkts float64) []variant {
	minBDPDelay := sim.Time(minBDP * 8 * 1e12 / hostRate)
	all := map[string]variant{
		"hpcc": {"HPCC", "hpcc", func() cc.Algorithm { return hpcc.New(hpcc.DefaultConfig()) }},
		"hpcc_vaisf": {"HPCC VAI SF", "hpcc_vaisf", func() cc.Algorithm {
			return hpcc.New(hpcc.VAISFConfig(minBDP))
		}},
		"swift": {"Swift", "swift", func() cc.Algorithm {
			return swift.New(swift.DefaultConfig(maxScalePkts))
		}},
		"swift_vaisf": {"Swift VAI SF", "swift_vaisf", func() cc.Algorithm {
			return swift.New(swift.VAISFConfig(minBDPDelay))
		}},
	}
	vs := make([]variant, len(keys))
	for i, k := range keys {
		vs[i] = all[k]
	}
	return vs
}

// setupTimes splits set-up host time by the layer whose public functions
// did the work.
type setupTimes struct {
	gen, topo, shardmap, addflow time.Duration
}

func (s setupTimes) total() time.Duration { return s.gen + s.topo + s.shardmap + s.addflow }

// inputs is one pass's generated traffic and sized variants.
type inputs struct {
	specs     []net.FlowSpec
	vs        []variant
	lastStart sim.Time // incast: when the last flow joins
}

// generate makes a pass's inputs from the seed.
func (w *scenario) generate(seed int64, st *setupTimes) (*inputs, error) {
	in := &inputs{}
	t0 := time.Now()
	var minBDP float64
	var err error
	if w.incast() {
		minBDP, err = probeMinBDP(func(nw *net.Network) (int, int) {
			s := topo.NewStar(nw, w.senders+1, hostRate, linkDelay)
			return s.Hosts[0].NodeID(), s.Hosts[w.senders].NodeID()
		})
		in.vs = variants(w.keys, minBDP, 50)
	} else {
		minBDP, err = probeMinBDP(func(nw *net.Network) (int, int) {
			ft := topo.NewFatTree(nw, w.fatTree)
			return ft.Hosts[0].NodeID(), ft.Hosts[1].NodeID()
		})
		in.vs = variants(w.keys, minBDP, 100)
	}
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	st.topo += t1.Sub(t0)
	if w.incast() {
		in.specs, in.lastStart = incastSpecs(w.senders, w.flowSize, seed)
	} else {
		hosts := make([]int, w.fatTree.NumHosts())
		for i := range hosts {
			hosts[i] = i
		}
		in.specs = workload.Poisson(workload.PoissonConfig{
			Hosts:    hosts,
			Sizes:    workload.Hadoop(),
			Load:     dcLoad,
			LinkBps:  w.fatTree.HostBps,
			Duration: w.duration,
			Seed:     seed,
		})
	}
	st.gen += time.Since(t1)
	return in, nil
}

// probeMinBDP returns 0.8x the bandwidth-delay product of the shortest
// host-to-host path, the VAI token threshold the repository's experiments
// use (the paper rounds its 62.5 KB BDP down to "about 50KB").
func probeMinBDP(build func(*net.Network) (src, dst int)) (float64, error) {
	nw := net.New(sim.NewEngine(), 0)
	src, dst := build(nw)
	_, baseRTT, _, err := nw.ProbePath(net.FlowSpec{ID: 1, Src: src, Dst: dst, Size: 1})
	if err != nil {
		return 0, fmt.Errorf("probe min BDP: %w", err)
	}
	return 0.8 * hostRate / 8 * baseRTT.Seconds(), nil
}

// incastSpecs builds the staggered incast: two senders join every 20 us,
// host index senders is the receiver. The seed shuffles which host joins
// when and jitters each start by under 1 us.
func incastSpecs(senders int, size int64, seed int64) ([]net.FlowSpec, sim.Time) {
	r := rand.New(rand.NewSource(seed))
	srcs := r.Perm(senders)
	specs := workload.StaggeredIncast(srcs, senders, size, incastGroup, incastEvery, 0)
	var last sim.Time
	for i := range specs {
		specs[i].Start += sim.Time(r.Int63n(int64(sim.Microsecond)))
		last = max(last, specs[i].Start)
	}
	return specs, last
}

// built is one variant's network, ready to run.
type built struct {
	w     *scenario
	v     variant
	eng   *sim.Engine
	nw    *net.Network
	algos []*tracedAlgo // traced runs only
	jain  *metrics.Series
	queue *metrics.Series
}

// build assembles a variant's network from the layers' public
// constructors, timing each layer's share of set-up.
func (w *scenario) build(in *inputs, v variant, seed int64, traced bool, st *setupTimes) *built {
	b := &built{w: w, v: v, eng: sim.NewEngine()}
	t0 := time.Now()
	b.nw = net.New(b.eng, seed)
	var star *topo.Star
	var ft *topo.FatTree
	if w.incast() {
		star = topo.NewStar(b.nw, w.senders+1, hostRate, linkDelay)
	} else {
		ft = topo.NewFatTree(b.nw, w.fatTree)
	}
	t1 := time.Now()
	st.topo += t1.Sub(t0)
	if w.shards > 1 {
		assign, k := ft.ShardMap(w.shards)
		b.nw.Shard(assign, k)
	}
	t2 := time.Now()
	st.shardmap += t2.Sub(t1)
	for _, spec := range in.specs {
		algo := v.make()
		if traced {
			ta := newTracedAlgo(algo, spec.ID)
			b.algos = append(b.algos, ta)
			algo = ta
		}
		b.nw.AddFlow(spec, algo)
	}
	st.addflow += time.Since(t2)
	if traced {
		b.nw.Hooks.OnControl = countControl
	}
	if w.incast() {
		// Sample goodput so a fair share delivers ~10 packets per
		// interval, as the incast figures do.
		every := sim.Time(float64(w.senders) * float64(b.nw.MTU+b.nw.HeaderBytes) * 8 * 10 / hostRate * 1e12)
		every = max(every, 5*sim.Microsecond)
		b.jain = metrics.SampleJain(b.nw, v.label, every, 0, horizon)
		b.queue = metrics.SampleQueue(b.eng, star.HostPorts[w.senders], v.label, sim.Microsecond, 0, horizon)
	}
	return b
}

// result is what one variant run produced and how long it took.
type result struct {
	label, key  string
	flows       int
	dataPkts    int64 // data packets the flow sizes need: the work simulated
	unfinished  int
	err         error // conservation, drops, or the golden check
	eng         sim.EngineStats
	net         net.NetworkStats
	shardSteps  []uint64
	epochs      uint64
	records     []metrics.FlowRecord
	buckets     []metrics.SizeBucket
	longP999    float64 // p99.9 slowdown of >1 MB flows
	convergeUs  float64 // incast: smoothed Jain reaches 0.9 after the last join
	samplerPts  int
	digest      uint64
	chunks      []span          // first event to figure data computed, every chunkEvents events
	collectWall time.Duration   // the metrics calls in the last chunk
	refs        []time.Duration // reference kernel samples around and between the chunks
	cut         bool            // stopped at the deadline: only chunks are valid
	trace       algoTrace
}

// chunkEvents is how many events a sequential run executes between two
// clock reads (about 0.4 s). The same seed gives the same events, so chunk
// j of a variant is the same work in every pass, and each chunk's time can
// be taken as a median over the passes: a stall of the host that hits one
// pass's chunk is not counted. A sharded run is one chunk.
const chunkEvents = 1 << 21

// span is one stretch of a run: its wall time, the time the hypervisor
// stole from the run's CPUs in it, and the process CPU time.
type span struct{ wall, steal, cpu time.Duration }

// run is the wall time the run had its CPUs: wall minus steal.
func (s span) run() time.Duration { return s.wall - s.steal }

// run executes the simulation to completion and computes its figure data.
// A sequential run stops at the first chunk boundary after a non-zero
// cutAt and returns only its chunks, marked cut.
func (b *built) run(lastStart sim.Time, cutAt time.Time) result {
	r := result{label: b.v.label, key: b.v.key, flows: len(b.nw.Flows())}
	// A sequential run is pinned to one CPU and charged that CPU's steal.
	// The shard workers are not pinned and meet at a barrier every epoch,
	// so a worker whose CPU is stolen holds up the other: they are charged
	// the time in which any CPU was stolen (stolen with cpu -1), as is a
	// sequential run that cannot be pinned.
	stealCPU := -1
	if b.nw.Shards() == 1 {
		var unpin func()
		stealCPU, unpin = pinCPU()
		defer unpin()
	}
	r.refs = refSamples(r.refs, refBracket)
	lastCPU, lastSteal, lastWall := cpuTime(), stealTimes(), time.Now()
	if b.nw.Shards() > 1 {
		pr := b.nw.NewParallel()
		r.err = pr.Run()
		r.epochs = pr.Epochs()
		r.shardSteps = pr.ShardSteps()
	} else {
		var n uint64
		for !b.nw.AllFinished() && b.eng.Step() {
			if n++; n%chunkEvents == 0 {
				c, st, w := cpuTime(), stealTimes(), time.Now()
				d := w.Sub(lastWall)
				r.chunks = append(r.chunks, span{d, stolen(lastSteal, st, stealCPU, d), c - lastCPU})
				if !cutAt.IsZero() && w.After(cutAt) {
					r.cut = true
					return r
				}
				r.refs = append(r.refs, refSample())
				lastCPU, lastSteal, lastWall = cpuTime(), stealTimes(), time.Now()
			}
		}
	}
	c0 := time.Now()
	r.records = metrics.CollectFinished(b.nw)
	if !b.w.incast() {
		r.buckets = metrics.BucketBySize(r.records, 100, tailPct)
	}
	long, err := metrics.SlowdownAbove(r.records, longMin, tailPct)
	if b.jain != nil {
		r.convergeUs = smoothedReach(b.jain.Points, lastStart, 5, 0.9)
		r.samplerPts = len(b.jain.Points) + len(b.queue.Points)
	}
	cpu1, steal1, wall1 := cpuTime(), stealTimes(), time.Now()
	r.collectWall = wall1.Sub(c0)
	d := wall1.Sub(lastWall)
	r.chunks = append(r.chunks, span{d, stolen(lastSteal, steal1, stealCPU, d), cpu1 - lastCPU})
	r.refs = refSamples(r.refs, refBracket)
	r.longP999 = long

	for _, e := range b.nw.ShardEngines() {
		s := e.Stats()
		r.eng.Steps += s.Steps
		r.eng.Scheduled += s.Scheduled
		r.eng.Cancelled += s.Cancelled
		r.eng.PeakPending = max(r.eng.PeakPending, s.PeakPending)
		r.eng.EventAllocs += s.EventAllocs
	}
	r.net = b.nw.Stats()
	r.digest = finishDigest(b.nw.Flows())
	mtu := int64(b.nw.MTU)
	for _, f := range b.nw.Flows() {
		r.dataPkts += (f.Spec.Size + mtu - 1) / mtu
		if !f.Finished() {
			r.unfinished++
		}
	}
	r.trace = sumTrace(b.algos)
	r.err = errors.Join(r.err, b.check(err))
	if b.jain != nil && strings.HasSuffix(r.key, "_vaisf") && r.convergeUs < 0 {
		r.err = errors.Join(r.err, errors.New("VAI SF never reached a smoothed Jain index of 0.9"))
	}
	return r
}

// check applies the correctness gate every run must pass: all flows
// finished, byte conservation, and no drops in these lossless runs. A
// missing long-flow tail (sErr) is a failure too.
func (b *built) check(sErr error) error {
	var errs []error
	if !b.nw.AllFinished() {
		errs = append(errs, errors.New("flows did not finish"))
	}
	if err := b.nw.CheckConservation(); err != nil {
		errs = append(errs, err)
	}
	if d := b.nw.Stats().Drops(); d != 0 {
		errs = append(errs, fmt.Errorf("%d packets dropped in a lossless run", d))
	}
	if sErr != nil {
		errs = append(errs, sErr)
	}
	return errors.Join(errs...)
}

// smoothedReach returns the first sample time (us), at or after from, at
// which the window-sample moving average of the Jain index reaches
// threshold, or -1 if it never does. It is exp's convergence measure.
func smoothedReach(pts []metrics.Point, from sim.Time, window int, threshold float64) float64 {
	var post []metrics.Point
	for _, p := range pts {
		if p.T >= from {
			post = append(post, p)
		}
	}
	sum := 0.0
	for i, p := range post {
		sum += p.V
		n := window
		if i+1 < window {
			n = i + 1
		} else if i >= window {
			sum -= post[i-window].V
		}
		if sum/float64(n) >= threshold {
			return p.T.Microseconds()
		}
	}
	return -1
}

// finishDigest hashes the (flow ID, FinishedAt) pairs sorted by ID: equal
// digests mean every flow finished at the same simulated instant.
func finishDigest(flows []*net.Flow) uint64 {
	type rec struct {
		id int
		at sim.Time
	}
	recs := make([]rec, len(flows))
	for i, f := range flows {
		recs[i] = rec{f.Spec.ID, f.FinishedAt}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	h := fnv.New64a()
	var buf [16]byte
	for _, r := range recs {
		for k := 0; k < 8; k++ {
			buf[k] = byte(uint64(r.id) >> (8 * k))
			buf[8+k] = byte(uint64(r.at) >> (8 * k))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
