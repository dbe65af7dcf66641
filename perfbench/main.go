// Command perfbench is the repository benchmark. It builds each
// simulation itself from the layers' public functions (topo, workload,
// net, cc, sim, metrics), bypassing exp and par, so the time spent in
// each layer can be attributed from outside the program.
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench --workload fig10-medium --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it makes an untraced and then a traced run and reports
// the per-layer metrics, including the tracing overhead. The last line of
// standard output is a JSON object; the exit code is non-zero when any
// correctness check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Before measuring, a run builds every variant's network and drops it at
// least minSetupRounds times, and until setupBudget is spent (at most
// maxSetupRounds), so setup_s is a median of many rounds even where one
// round takes a millisecond.
const (
	minSetupRounds = 12
	maxSetupRounds = 500
	setupBudget    = 500 * time.Millisecond
)

// goldenCSV is the recorded Fig. 10 figure, relative to the repository
// root; fig10-medium at seed 1 must reproduce it exactly.
const goldenCSV = "results/fig10.csv"

// workers caps the Go scheduler: fig10-medium and incast-96 step one
// engine on one goroutine, and fig10-large-2shard runs 2 shard workers.
const workers = 2

func main() {
	workloadName := flag.String("workload", "", "workload to run: fig10-medium, incast-96 or fig10-large-2shard")
	seed := flag.Int64("seed", 1, "traffic seed")
	seconds := flag.Int("seconds", 40, "measure for about this many seconds: passes until it is spent, at least one whole pass")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, err := findWorkload(*workloadName)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fig10-medium|incast-96|fig10-large-2shard, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)

	var res *report
	budget := time.Duration(*seconds) * time.Second
	if *traced == 0 {
		res, err = measure(&w, *seed, budget, false)
	} else {
		var base *report
		base, err = measure(&w, *seed, budget/2, false)
		if err == nil {
			res, err = measure(&w, *seed, budget/2, true)
			if res != nil {
				res.untraced = base
				// Tracing must not perturb the simulation.
				checkSame(base.passes[0].results, res.passes[0].results)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if w.name == "fig10-medium" && *seed == 1 {
		res.checkGolden(goldenCSV)
	}
	res.printSummary(os.Stdout)

	out := output{Correct: res.failed() == 0, Attempted: res.attempted(), Failed: res.failed(),
		Metrics: map[string]metricValue{}}
	list, values := endToEnd, res.endToEndValues()
	if *traced == 1 {
		list, values = perLayer, res.perLayerValues()
	}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic("perfbench: no value for metric " + m.name)
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pass is one run of every variant of a workload, back to back. A cut
// pass ends with the variant run that the deadline cut short.
type pass struct {
	results []result
	setup   setupTimes
}

// done is the pass's variant runs that finished.
func (p pass) done() []result {
	if n := len(p.results); n > 0 && p.results[n-1].cut {
		return p.results[:n-1]
	}
	return p.results
}

// total sums f over the chunks of the pass's variant runs.
func (p pass) total(f func(span) time.Duration) (d time.Duration) {
	for _, r := range p.results {
		for _, c := range r.chunks {
			d += f(c)
		}
	}
	return d
}

func (p pass) dataPkts() (n int64) {
	for _, r := range p.results {
		n += r.dataPkts
	}
	return n
}

// report is everything measured in one call of measure.
type report struct {
	w        *scenario
	seed     int64
	traced   bool
	flows    int
	setups   []setupTimes // every round, passes included
	passes   []pass       // whole passes
	cut      *pass        // the pass cut at the deadline, if any
	rt0, rt1 runtimeSnap  // around the whole passes
	forcedGC int          // runtime.GC calls made between variants during the whole passes
	peakRSS  float64
	untraced *report // traced runs: the untraced run before it
}

// measure runs set-up-only rounds, then passes until the budget is spent
// (at least one whole pass). After the first pass, a sequential pass is cut
// at the deadline, at a chunk boundary: the chunks it finished still count
// in chunkSum, and the variant runs it finished are checked like any other.
// A sharded run is one chunk, so another sharded pass starts only if one
// as long as the last still fits.
func measure(w *scenario, seed int64, budget time.Duration, traced bool) (*report, error) {
	start := time.Now()
	deadline := start.Add(budget)
	rep := &report{w: w, seed: seed, traced: traced}
	for i := 0; i < maxSetupRounds && (i < minSetupRounds || time.Since(start) < setupBudget); i++ {
		var st setupTimes
		in, err := w.generate(seed, &st)
		if err != nil {
			return nil, err
		}
		for _, v := range in.vs {
			runtime.GC()
			w.build(in, v, seed, traced, &st)
		}
		rep.setups = append(rep.setups, st)
	}
	rep.rt0 = readRuntime()
	for {
		passStart := time.Now()
		var p pass
		in, err := w.generate(seed, &p.setup)
		if err != nil {
			return nil, err
		}
		rep.flows = len(in.specs)
		var cutAt time.Time
		if len(rep.passes) > 0 {
			cutAt = deadline
		}
		for _, v := range in.vs {
			// Start each variant from a collected heap, so garbage left
			// by the previous one is charged to neither its set-up nor
			// its run.
			runtime.GC()
			b := w.build(in, v, seed, traced, &p.setup)
			p.results = append(p.results, b.run(in.lastStart, cutAt))
			if p.results[len(p.results)-1].cut {
				rep.cut = &p
				break
			}
		}
		if rep.cut != nil {
			break
		}
		rep.setups = append(rep.setups, p.setup)
		rep.passes = append(rep.passes, p)
		rep.forcedGC += len(in.vs)
		rep.rt1 = readRuntime()
		now := time.Now()
		if !now.Before(deadline) || (w.shards > 1 && now.Add(now.Sub(passStart)).After(deadline)) {
			break
		}
	}
	rep.peakRSS = peakRSSBytes()
	rep.checkRepeats()
	return rep, nil
}

// checkRepeats fails a variant whose events or finish digest differ
// between passes: the same seed must give the same simulation.
func (r *report) checkRepeats() {
	for _, p := range r.timed()[1:] {
		checkSame(r.passes[0].results, p.done())
	}
}

// checkSame fails each result in got whose events or finish digest differ
// from the same variant's in ref.
func checkSame(ref, got []result) {
	for i := range got {
		a, b := ref[i], &got[i]
		if a.eng.Steps != b.eng.Steps || a.digest != b.digest {
			b.err = errors.Join(b.err, fmt.Errorf("not deterministic: events %d vs %d, digest %016x vs %016x",
				a.eng.Steps, b.eng.Steps, a.digest, b.digest))
		}
	}
}

// last is the final pass, whose counts every pass repeats.
func (r *report) last() []result { return r.passes[len(r.passes)-1].results }

func (r *report) byKey(key string) *result {
	res := r.last()
	for i := range res {
		if res[i].key == key {
			return &res[i]
		}
	}
	return nil
}

func (r *report) attempted() int {
	n := 0
	for _, p := range r.allPasses() {
		for _, res := range p.done() {
			n += res.flows
		}
	}
	return n
}

// failed counts unfinished flows, and every flow of a variant run that
// failed a check.
func (r *report) failed() int {
	n := 0
	for _, p := range r.allPasses() {
		for _, res := range p.done() {
			if res.err != nil {
				n += res.flows
			} else {
				n += res.unfinished
			}
		}
	}
	return n
}

// timed is the whole passes and the cut one.
func (r *report) timed() []pass {
	if r.cut != nil {
		return append(append([]pass{}, r.passes...), *r.cut)
	}
	return r.passes
}

// allPasses is timed, with the untraced run's passes first in a traced
// report.
func (r *report) allPasses() []pass {
	if r.untraced != nil {
		return append(r.untraced.timed(), r.timed()...)
	}
	return r.timed()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupS is the median set-up round at the nominal host speed, scaled by
// the reference samples of the passes that follow the rounds.
func (r *report) setupS() float64 {
	xs := make([]float64, len(r.setups))
	for i, s := range r.setups {
		xs[i] = s.total().Seconds()
	}
	return median(xs) * refScale(r.refs())
}

// scale is the factor that takes the pass's host times to the nominal
// host speed: refScale over every reference sample taken in the pass.
func (p pass) scale() float64 {
	var xs []time.Duration
	for _, r := range p.results {
		xs = append(xs, r.refs...)
	}
	return refScale(xs)
}

// refs is every reference sample taken in the timed passes.
func (r *report) refs() []time.Duration {
	var xs []time.Duration
	for _, p := range r.timed() {
		for _, res := range p.results {
			xs = append(xs, res.refs...)
		}
	}
	return xs
}

// chunkSum adds up, over every variant's chunks, the lower median over
// the passes of f(chunk) in seconds, each scaled to the nominal host speed
// by its pass's scale when scaled is set: the smaller time of two passes,
// the middle one of three. Every pass runs the same events (checkRepeats),
// so chunk j of a variant is the same work in each.
func (r *report) chunkSum(f func(span) time.Duration, scaled bool) float64 {
	timed := r.timed()
	scales := make([]float64, len(timed))
	for i, p := range timed {
		scales[i] = 1
		if scaled {
			scales[i] = p.scale()
		}
	}
	total := 0.0
	var xs []float64
	for i, ref := range r.passes[0].results {
		for j := range ref.chunks {
			xs = xs[:0]
			for k, p := range timed {
				if i < len(p.results) && j < len(p.results[i].chunks) {
					xs = append(xs, f(p.results[i].chunks[j]).Seconds()*scales[k])
				}
			}
			slices.Sort(xs)
			total += xs[(len(xs)-1)/2]
		}
	}
	return total
}

func wall(c span) time.Duration { return c.wall }

func cpu(c span) time.Duration { return c.cpu }

// runS is the time from the first event to the figure data of one pass,
// taken chunk by chunk over the passes (chunkSum) at the nominal host
// speed: wall time less the time the hypervisor stole from the run's
// CPUs, which a shared host hands out unevenly and which says nothing of
// the program.
func (r *report) runS() float64 { return r.chunkSum(span.run, true) }

// cpuS is the process CPU time over the same spans as runS, at the
// nominal host speed.
func (r *report) cpuS() float64 { return r.chunkSum(cpu, true) }

// rawRunS and rawCPUS are runS and cpuS as measured, not scaled.
func (r *report) rawRunS() float64 { return r.chunkSum(span.run, false) }

func (r *report) rawCPUS() float64 { return r.chunkSum(cpu, false) }

// runWallS is rawRunS with the stolen time left in.
func (r *report) runWallS() float64 { return r.chunkSum(wall, false) }

// stealS is the median over the whole passes of the time stolen from one
// pass's run.
func (r *report) stealS() float64 {
	xs := make([]float64, len(r.passes))
	for i, p := range r.passes {
		xs[i] = p.total(func(c span) time.Duration { return c.steal }).Seconds()
	}
	return median(xs)
}

// refUs is the median reference sample, in microseconds.
func (r *report) refUs() float64 {
	return float64(refNominal) / refScale(r.refs()) / 1e3
}

// mpkts is the million data packets one pass simulates. Poisson traffic
// volume varies by about 10% between seeds at fig10-medium; per packet,
// host time compares across seeds.
func (r *report) mpkts() float64 { return float64(r.passes[0].dataPkts()) / 1e6 }

func (r *report) runSPerMpkt() float64 { return r.runS() / r.mpkts() }

func (r *report) cpuSPerMpkt() float64 { return r.cpuS() / r.mpkts() }

// tailImprovement is the geometric mean, over HPCC and Swift, of the
// baseline's p99.9 slowdown of >1 MB flows divided by its VAI SF
// variant's; 0 when the workload runs no such pair.
func (r *report) tailImprovement() float64 {
	prod, n := 1.0, 0
	for _, base := range []string{"hpcc", "swift"} {
		b, v := r.byKey(base), r.byKey(base+"_vaisf")
		if b != nil && v != nil && v.longP999 > 0 {
			prod *= b.longP999 / v.longP999
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// convergeUs is the slowest VAI SF variant's convergence time (incast
// only; 0 elsewhere).
func (r *report) convergeUs() float64 {
	c := 0.0
	for _, res := range r.last() {
		if res.key == "hpcc_vaisf" || res.key == "swift_vaisf" {
			c = max(c, res.convergeUs)
		}
	}
	return c
}

func (r *report) printSummary(f *os.File) {
	name := r.w.name
	for _, res := range r.last() {
		fmt.Fprintf(f, "digest %s seed=%d %-13s events=%d finish_hash=%016x\n",
			name, r.seed, res.label, res.eng.Steps, res.digest)
	}
	for _, p := range r.allPasses() {
		for _, res := range p.done() {
			if res.err != nil {
				fmt.Fprintf(f, "FAIL %s %s: %v\n", name, res.label, res.err)
			}
		}
	}
	fmt.Fprintf(f, "%s seed=%d flows=%d passes=%d cut=%v traced=%v\n", name, r.seed, r.flows, len(r.passes), r.cut != nil, r.traced)
	for i, p := range r.passes {
		fmt.Fprintf(f, "  pass %d run_s %.4f s, wall %.4f s, host speed %.4f\n", i+1,
			p.total(span.run).Seconds(), p.total(wall).Seconds(), p.scale())
	}
	rows := []struct {
		name, unit string
		v          float64
	}{
		{"setup_s", "s", r.setupS()},
		{"run_s", "s", r.rawRunS()},
		{"run_wall_s", "s", r.runWallS()},
		{"host.steal_s", "s", r.stealS()},
		{"host.ref_us", "us", r.refUs()},
		{"cpu_s", "s", r.rawCPUS()},
		{"run_s_per_mpkt", "s/Mpkt", r.runSPerMpkt()},
		{"cpu_s_per_mpkt", "s/Mpkt", r.cpuSPerMpkt()},
		{"peak_rss_mb", "MB", r.peakRSS / 1e6},
		{"flows_failed_frac", "ratio", float64(r.failed()) / float64(r.attempted())},
		{"tail_improvement_x", "x", r.tailImprovement()},
		{"converge_us", "us", r.convergeUs()},
		{"long_p999_slowdown", "x", r.byKey("hpcc").longP999},
	}
	for _, row := range rows {
		fmt.Fprintf(f, "  %-20s %14.6g %s\n", row.name, row.v, row.unit)
	}
}
