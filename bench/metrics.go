package main

import (
	"sort"
	"time"

	"flos/internal/measure"
)

// metricDef names one metric. BENCHMARK.json repeats these lists (with the
// regression bounds of the end-to-end ones); a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of flosd sees, measured on the untraced
// subprocess run. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},          // graph generation + file write + flosd start until /healthz answers; median of the run's set-ups
	{"qps", "1/s", "higher"},           // correct operations completed per second, in the median one-second slice of the timed window
	{"p50_ms", "ms", "lower"},          // computed reads: every read the server answered with a search, not from its result cache
	{"tail_ms", "ms", "lower"},         // computed reads, at the workload's pinned percentile (spec.tailPct)
	{"php_p50_ms", "ms", "lower"},      // computed PHP reads
	{"rwr_p50_ms", "ms", "lower"},      // computed RWR reads
	{"rss_mb", "MiB", "lower"},         // resident set of the flosd process, median of samples through the window
	{"resp_kb_per_op", "KiB", "lower"}, // response body bytes per operation
}

// perLayer are the informational metrics: one layer each, no bound. Count
// metrics come from /metrics?format=json deltas around the timed window of
// the subprocess run, time metrics from the ladder of the traced pass. A
// metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"server.self_us", "us", "lower"},
	{"server.net_us", "us", "lower"},
	{"server.http_errors", "count", "lower"},
	{"obs.self_us", "us", "lower"},
	{"qserve.self_us", "us", "lower"},
	{"qserve.hit_us", "us", "lower"},
	{"qserve.cache_hit_ratio", "ratio", "higher"},
	{"qserve.cache_evictions", "count", "lower"},
	{"qserve.shed", "count", "lower"},
	{"qserve.mutate_self_us", "us", "lower"},
	{"qserve.invalidated_per_batch", "count", "lower"},
	{"qserve.retained_per_batch", "count", "higher"},
	{"qserve.recertify_hits", "count", "higher"},
	{"core.total_us", "us", "lower"},
	{"core.expand_us", "us", "lower"},
	{"core.certify_us", "us", "lower"},
	{"core.other_us", "us", "lower"},
	{"core.visited_per_query", "count", "lower"},
	{"core.iterations_per_query", "count", "lower"},
	{"core.allocs_per_query", "count", "lower"},
	{"kernel.solve_us", "us", "lower"},
	{"kernel.solve_frac", "ratio", "lower"},
	{"kernel.sweeps_per_query", "count", "lower"},
	{"kernel.ns_per_sweep", "ns", "lower"},
	{"diskgraph.self_us", "us", "lower"},
	{"diskgraph.self_frac", "ratio", "lower"},
	{"diskgraph.faults_per_query", "count", "lower"},
	{"diskgraph.page_hit_ratio", "ratio", "higher"},
	{"diskgraph.evictions", "count", "lower"},
	{"diskgraph.faults_deduped", "count", "higher"},
	{"diskgraph.us_per_fault", "us", "lower"},
	{"livegraph.self_us", "us", "lower"},
	{"livegraph.pin_ns", "ns", "lower"},
	{"livegraph.apply_us", "us", "lower"},
	{"livegraph.rows_cowed_per_batch", "count", "lower"},
	{"livegraph.snapshots_alive_end", "count", "lower"},
	{"setup.gen_s", "s", "lower"},
	{"setup.write_s", "s", "lower"},
	{"setup.load_s", "s", "lower"},
	{"runtime.gc_count", "count", "lower"},
	{"runtime.heap_mb_end", "MiB", "lower"},
	{"runtime.rss_peak_mb", "MiB", "lower"},
	{"trace.sum_over_wall", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	// End-to-end measurements that cannot carry a bound under the benchmark
	// contract: they do not exist on every workload, are 0 by construction,
	// or do not repeat across seeds (see README, "Demoted metrics").
	{"client.hit_p50_ms", "ms", "lower"},
	{"client.tht_p50_ms", "ms", "lower"},
	{"client.rwr_tail_ms", "ms", "lower"},
	{"client.mutate_p50_ms", "ms", "lower"},
	{"client.failed_frac", "ratio", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarizes, Beyond how many
	// of them lie beyond a reported percentile; both 0 where not meaningful.
	Samples int `json:"samples,omitempty"`
	Beyond  int `json:"beyond,omitempty"`
}

type metricSet map[string]metric

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("metric " + name + " is not in the catalogue")
}

func (set metricSet) setE2E(name string, v float64, samples, beyond int) {
	set[name] = metric{Value: v, Unit: unitOf(endToEnd, name), Samples: samples, Beyond: beyond}
}

func (set metricSet) setLayer(name string, v float64, samples int) {
	set[name] = metric{Value: v, Unit: unitOf(perLayer, name), Samples: samples}
}

func toMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func toUS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// latencies returns the sorted latencies (ms) of the window's operations that
// passed the gate and that keep selects.
func latencies(dr *driveResult, keep func(*opRecord) bool) []float64 {
	var out []float64
	for c := range dr.ops {
		for i := range dr.ops[c] {
			if rec := &dr.ops[c][i]; rec.failure == "" && keep(rec) {
				out = append(out, toMS(rec.latency))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// A read is computed when the server answered it with a search and a hit
// when the answer came from the result cache. Latency metrics are taken over
// computed reads: a hit is a 0.1 ms round trip whose length is set by how the
// scheduler hands two processes' threads around two cores, and its median
// moved 15% between runs of the same code.
func isRead(r *opRecord) bool     { return !r.req.Mutate }
func isComputed(r *opRecord) bool { return !r.req.Mutate && r.ans != nil && !r.ans.Cached }
func isHit(r *opRecord) bool      { return !r.req.Mutate && r.ans != nil && r.ans.Cached }
func isMutate(r *opRecord) bool   { return r.req.Mutate }

func computedOf(k measure.Kind) func(*opRecord) bool {
	return func(r *opRecord) bool { return isComputed(r) && r.req.Measure == k }
}

// sliceLen is the length of the slices throughput is taken over.
const sliceLen = time.Second

// throughput cuts the window into slices of sliceLen and returns the
// operations that passed the gate per second in the median slice. An
// operation in flight across a slice edge counts in each slice by the share
// of its duration that lies inside. The median slice, and not operations over
// elapsed time, because one pathological query (a seed in five draws an exact
// search of 3 s on mem-mixed-light) or one burst of interference on the host
// holds a client for seconds and would move the quotient by several percent.
func throughput(dr *driveResult) float64 {
	n := max(1, int(dr.window/sliceLen))
	length := dr.window.Seconds() / float64(n)
	done := make([]float64, n)
	for c := range dr.ops {
		for i := range dr.ops[c] {
			rec := &dr.ops[c][i]
			if rec.failure != "" || rec.latency <= 0 {
				continue
			}
			from, to := rec.at.Seconds(), (rec.at + rec.latency).Seconds()
			for s := int(from / length); s < n && float64(s)*length < to; s++ {
				inside := min(to, float64(s+1)*length) - max(from, float64(s)*length)
				done[s] += inside / (to - from)
			}
		}
	}
	return median(done) / length
}

// pctOrZero is percentile on a possibly empty sample; p = 0 (no percentile
// is supported) also reads 0.
func pctOrZero(sorted []float64, p float64) (value float64, beyond int) {
	if len(sorted) == 0 || p == 0 {
		return 0, 0
	}
	return percentile(sorted, p)
}

// opCounts are the operations of the timed window.
type opCounts struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func countOps(ops [][]opRecord, extraFailed int) opCounts {
	var c opCounts
	for i := range ops {
		for j := range ops[i] {
			c.Sent++
			if ops[i][j].failure != "" {
				c.Failed++
			}
		}
	}
	c.Sent += extraFailed
	c.Failed += extraFailed
	c.Succeeded = c.Sent - c.Failed
	return c
}

// clientMetrics computes everything the load generator itself observes: the
// end-to-end latency, throughput and wire metrics, and the demoted client.*
// ones.
func clientMetrics(sp *spec, dr *driveResult, counts opCounts) (e2e, layer metricSet) {
	e2e, layer = metricSet{}, metricSet{}
	p50 := func(xs []float64) float64 { v, _ := pctOrZero(xs, 0.50); return v }
	reads := latencies(dr, isComputed)
	e2e.setE2E("p50_ms", p50(reads), len(reads), 0)
	tail, beyond := pctOrZero(reads, sp.tailPct)
	e2e.setE2E("tail_ms", tail, len(reads), beyond)
	php, rwr, tht := latencies(dr, computedOf(measure.PHP)), latencies(dr, computedOf(measure.RWR)), latencies(dr, computedOf(measure.THT))
	e2e.setE2E("php_p50_ms", p50(php), len(php), 0)
	e2e.setE2E("rwr_p50_ms", p50(rwr), len(rwr), 0)
	e2e.setE2E("qps", throughput(dr), counts.Sent, 0)
	e2e.setE2E("rss_mb", median(dr.rssMB), len(dr.rssMB), 0)
	var bytes, httpErrors int
	for c := range dr.ops {
		for i := range dr.ops[c] {
			bytes += dr.ops[c][i].bytes
			if dr.ops[c][i].httpError {
				httpErrors++
			}
		}
	}
	e2e.setE2E("resp_kb_per_op", float64(bytes)/1024/float64(max(1, counts.Sent)), counts.Sent, 0)

	hits := latencies(dr, isHit)
	layer.setLayer("client.hit_p50_ms", p50(hits), len(hits))
	layer.setLayer("client.tht_p50_ms", p50(tht), len(tht))
	rwrTail, _ := pctOrZero(rwr, highestTail(len(rwr)))
	layer.setLayer("client.rwr_tail_ms", rwrTail, len(rwr))
	mut := latencies(dr, isMutate)
	layer.setLayer("client.mutate_p50_ms", p50(mut), len(mut))
	layer.setLayer("client.failed_frac", float64(counts.Failed)/float64(max(1, counts.Sent)), counts.Sent)
	layer.setLayer("server.http_errors", float64(httpErrors), counts.Sent)
	return e2e, layer
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrapeMetrics turns the /metrics deltas across the timed window into the
// count metrics of the serving layers.
func scrapeMetrics(dr *driveResult, layer metricSet) {
	b, a := dr.before, dr.after
	hits, misses := float64(a.CacheHits-b.CacheHits), float64(a.CacheMisses-b.CacheMisses)
	lookups := int(hits + misses)
	layer.setLayer("qserve.cache_hit_ratio", ratio(hits, hits+misses), lookups)
	layer.setLayer("qserve.cache_evictions", float64(a.CacheEvictions-b.CacheEvictions), lookups)
	layer.setLayer("qserve.shed", float64(a.QueriesShed-b.QueriesShed), lookups)
	layer.setLayer("runtime.gc_count", float64(a.Runtime.NumGC-b.Runtime.NumGC), 0)
	layer.setLayer("runtime.heap_mb_end", float64(a.Runtime.HeapAllocBytes)/(1<<20), 0)
	if a.Disk != nil && b.Disk != nil {
		ph, pf := float64(a.Disk.PageHits-b.Disk.PageHits), float64(a.Disk.PageFaults-b.Disk.PageFaults)
		layer.setLayer("diskgraph.page_hit_ratio", ratio(ph, ph+pf), int(ph+pf))
		layer.setLayer("diskgraph.evictions", float64(a.Disk.Evictions-b.Disk.Evictions), int(ph+pf))
		layer.setLayer("diskgraph.faults_deduped", float64(a.Disk.FaultsDeduped-b.Disk.FaultsDeduped), int(ph+pf))
	}
	if a.Live != nil && b.Live != nil {
		batches := float64(a.Live.OpsApplied - b.Live.OpsApplied) // one op per batch
		layer.setLayer("qserve.invalidated_per_batch", ratio(float64(a.Live.InvalidationsSurgical-b.Live.InvalidationsSurgical), batches), int(batches))
		layer.setLayer("qserve.retained_per_batch", ratio(float64(a.Live.CacheRetained-b.Live.CacheRetained), batches), int(batches))
		layer.setLayer("qserve.recertify_hits", float64(a.Live.RecertifyHits-b.Live.RecertifyHits), int(batches))
		layer.setLayer("livegraph.rows_cowed_per_batch", ratio(float64(a.Live.RowsCoWed-b.Live.RowsCoWed), batches), int(batches))
		layer.setLayer("livegraph.snapshots_alive_end", float64(a.Live.SnapshotsAlive), 0)
	}
}

// ladderMetrics turns the traced pass's samples into the time metrics of
// every layer. untracedP50 is the subprocess run's p50 over all reads, hits
// included, in ms.
func ladderMetrics(sp *spec, samples []ladderSample, pinNS, untracedP50 float64, layer metricSet) {
	type col = []float64
	var (
		wall                                       col // reads, top rung
		self                                       [numRungs]col
		missSelfQ, hitSelfQ, missBackend           col
		total, expand, solve, certify, other       col
		visited, iters, sweeps, allocs, faults     col
		mutQserve, mutApply                        col
		sumSolve, sumCore, sumBackend, sumMissWall float64
		sumFaults, sumSweeps                       float64
	)
	for _, s := range samples {
		st := selfTimes(s.rungs)
		if s.req.Mutate {
			mutQserve = append(mutQserve, toUS(st[layerQserve]))
			mutApply = append(mutApply, toUS(s.rungs[rungBackend]))
			continue
		}
		wall = append(wall, toUS(s.rungs[rungHTTP]))
		for i := range st {
			self[i] = append(self[i], toUS(st[i]))
		}
		if s.hit {
			hitSelfQ = append(hitSelfQ, toUS(st[layerQserve]))
			continue
		}
		missSelfQ = append(missSelfQ, toUS(st[layerQserve]))
		missBackend = append(missBackend, toUS(st[layerBackend]))
		t := toUS(s.rungs[rungMem])
		e, sv, c := float64(s.expandNS)/1e3, float64(s.solveNS)/1e3, float64(s.certifyNS)/1e3
		total, expand, solve, certify, other = append(total, t), append(expand, e), append(solve, sv), append(certify, c), append(other, t-e-sv-c)
		visited, iters = append(visited, float64(s.visited)), append(iters, float64(s.iterations))
		sweeps, allocs = append(sweeps, float64(s.sweeps)), append(allocs, float64(s.allocs))
		faults = append(faults, float64(s.faults))
		sumSolve, sumCore, sumSweeps = sumSolve+sv, sumCore+t, sumSweeps+float64(s.sweeps)
		sumBackend, sumMissWall, sumFaults = sumBackend+toUS(st[layerBackend]), sumMissWall+toUS(s.rungs[rungHTTP]), sumFaults+float64(s.faults)
	}
	set := func(name string, xs col) { layer.setLayer(name, median(xs), len(xs)) }
	// Work counts are reported over a fixed-length prefix of the sampled
	// misses, so that they do not depend on how many requests the traced
	// pass's time budget happened to fit.
	setCount := func(name string, xs col) {
		if sp.countPrefix > 0 && len(xs) > sp.countPrefix {
			xs = xs[:sp.countPrefix]
		}
		set(name, xs)
	}
	set("server.net_us", self[layerNet])
	set("obs.self_us", self[layerObs])
	set("server.self_us", self[layerServer])
	set("qserve.self_us", missSelfQ)
	set("qserve.hit_us", hitSelfQ)
	set("qserve.mutate_self_us", mutQserve)
	set("core.total_us", total)
	set("core.expand_us", expand)
	set("core.certify_us", certify)
	set("core.other_us", other)
	setCount("core.visited_per_query", visited)
	setCount("core.iterations_per_query", iters)
	set("core.allocs_per_query", allocs)
	set("kernel.solve_us", solve)
	setCount("kernel.sweeps_per_query", sweeps)
	layer.setLayer("kernel.solve_frac", ratio(sumSolve, sumCore), len(total))
	layer.setLayer("kernel.ns_per_sweep", ratio(sumSolve*1e3, sumSweeps), len(total))
	switch sp.backend {
	case backendStore:
		set("diskgraph.self_us", missBackend)
		setCount("diskgraph.faults_per_query", faults)
		layer.setLayer("diskgraph.self_frac", ratio(sumBackend, sumMissWall), len(missBackend))
		layer.setLayer("diskgraph.us_per_fault", ratio(sumBackend, sumFaults), len(missBackend))
	case backendLive:
		set("livegraph.self_us", missBackend)
		set("livegraph.apply_us", mutApply)
		layer.setLayer("livegraph.pin_ns", pinNS, 4096)
	}
	layer.setLayer("trace.sum_over_wall", sumOverWall(samples), len(wall))
	if untracedP50 > 0 {
		layer.setLayer("trace.overhead_frac", median(wall)/1e3/untracedP50-1, len(wall))
	}
}

// sumOverWall checks that the reported kind of number — a median of per-layer
// self times — can be read additively: within each class of reads (measure x
// hit or miss) it divides the sum of the layers' median self times by the
// median round trip, and returns the average over classes weighted by their
// size. Per request the self times sum to the round trip exactly; medians of
// a class do so only when no layer's self time is dominated by noise, and
// medians across classes (a 0.2 ms hit and a 3 ms miss) not at all, which is
// why the ratio is taken per class.
func sumOverWall(samples []ladderSample) float64 {
	type class struct {
		wall []float64
		self [numRungs][]float64
	}
	classes := map[string]*class{}
	reads := 0
	for _, s := range samples {
		if s.req.Mutate {
			continue
		}
		key := measureParam(s.req.Measure)
		if s.hit {
			key += "/hit"
		}
		c := classes[key]
		if c == nil {
			c = &class{}
			classes[key] = c
		}
		reads++
		c.wall = append(c.wall, toUS(s.rungs[rungHTTP]))
		for i, d := range selfTimes(s.rungs) {
			c.self[i] = append(c.self[i], toUS(d))
		}
	}
	var weighted float64
	for _, c := range classes {
		var sum float64
		for i := range c.self {
			sum += median(c.self[i])
		}
		weighted += ratio(sum, median(c.wall)) * float64(len(c.wall))
	}
	return ratio(weighted, float64(reads))
}

// fill gives every catalogue metric missing from set the value 0.
func fill(defs []metricDef, set metricSet) {
	for _, d := range defs {
		if _, ok := set[d.name]; !ok {
			set[d.name] = metric{Unit: d.unit}
		}
	}
}
