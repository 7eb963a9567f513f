package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"muzha"
)

// options are the inputs of one measurement.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tiny shrinks every workload's inputs so the self-tests can run
	// each one end to end in a few seconds.
	tiny bool
	// workDir holds the daemon's data directories.
	workDir string
}

// setupRepeats is how many times set-up runs in one measurement;
// setup_s is the median, so one slow repetition cannot move it.
const setupRepeats = 21

// Span op ids for work outside the timed closed loop.
const (
	opSetup  = -1
	opVerify = -2
)

// setupFunc builds a workload's inputs from the seed and starts its
// daemon, if it has one. Topology builds are recorded as "topo" spans
// under parent.
type setupFunc func(o options, tr *tracer, parent int) (instance, error)

// workloads are the benchmark's named workloads; README.md says why
// each was chosen.
var workloads = map[string]setupFunc{
	"paper-chains": setupPaperChains,
	"islands-1k":   setupIslands,
	"muzhad-mix":   setupMix,
}

// instance is one set-up workload.
type instance interface {
	// warmup runs one untimed op; verify checks its output again.
	warmup() error
	// phase drives the closed loop until d has passed and returns its
	// ops. Successive phases continue where the previous one stopped.
	phase(d time.Duration, tr *tracer) phaseResult
	// verify re-runs the warm-up op and the workload's sampled ops after
	// the timed phases and returns every mismatch found.
	verify(tr *tracer) []string
	// counts returns the Result-derived counts of the workload's
	// reference ops, the same set on every run of a seed.
	counts() layerCounts
	// service returns the daemon's counters; zero without a daemon.
	service() serviceStats
	close()
}

// opRecord is one op of a timed phase.
type opRecord struct {
	dur time.Duration
	// cold marks an op that ran the simulator; the others were served
	// from the daemon's result cache.
	cold   bool
	failed bool
	// cell is the op's config in a workload that repeats a fixed pass.
	cell int
}

// phaseResult is one timed phase of the closed loop.
type phaseResult struct {
	ops     []opRecord
	elapsed time.Duration
	// events counts the simulator events the phase's cold ops executed.
	events   uint64
	problems []string
	// cells is the size of the pass a sim workload repeats; 0 for the
	// mix, whose ops never repeat.
	cells int
}

func (p phaseResult) failures() int {
	n := 0
	for _, op := range p.ops {
		if op.failed {
			n++
		}
	}
	return n
}

// opsPerSecond counts completed ops; a failed op counts as attempted
// but not completed.
func (p phaseResult) opsPerSecond() float64 {
	return float64(len(p.ops)-p.failures()) / p.elapsed.Seconds()
}

// durationsMs returns the wall times of the phase's successful ops
// that match keep, in milliseconds. When the phase repeats a pass, each
// cell gives one time, the median over its runs: the percentiles then
// do not shift with the number of passes that fit into the phase.
func (p phaseResult) durationsMs(keep func(opRecord) bool) []float64 {
	byCell := make([][]float64, p.cells)
	var out []float64
	for _, op := range p.ops {
		switch {
		case op.failed || !keep(op):
		case p.cells > 0:
			byCell[op.cell] = append(byCell[op.cell], ms(op.dur))
		default:
			out = append(out, ms(op.dur))
		}
	}
	for _, xs := range byCell {
		if len(xs) > 0 {
			out = append(out, percentile(xs, 50))
		}
	}
	return out
}

// serviceStats are the daemon counters read from /v1/stats and the
// data directory.
type serviceStats struct {
	jobs, hits, rejected uint64
	cacheBytes           int64
	storeBytes           int64
}

// layerCounts sums Result-derived work counts over a set of runs.
type layerCounts struct {
	runs                              uint64
	events                            uint64
	segments, retx, timeouts          uint64
	macRetries, macDrops              uint64
	forwards, queueDrops, marks       uint64
	discoveries, rerrs, linkFailures  uint64
	invariantChecks, faultTransitions uint64
	goodputBps                        float64
	resultBytes                       uint64
}

func (c *layerCounts) add(r *muzha.Result, encoded int) {
	c.runs++
	c.events += r.Events
	for _, f := range r.Flows {
		c.segments += f.SegmentsSent
		c.retx += f.Retransmissions
		c.timeouts += f.Timeouts
	}
	for _, n := range r.Nodes {
		c.macRetries += n.MACRetries
		c.macDrops += n.MACDrops
		c.forwards += n.Forwarded
		c.queueDrops += n.QueueDrops
		c.marks += n.Marked
		c.discoveries += n.Discoveries
		c.rerrs += n.RERRSent
		c.linkFailures += n.LinkFailures
	}
	for _, iv := range r.Invariants {
		c.invariantChecks += iv.Checks
	}
	f := r.Faults
	c.faultTransitions += f.Crashes + f.Reboots + f.Blackouts + f.Restores + f.Partitions + f.Heals + f.BurstPhases
	c.goodputBps += r.AggregateThroughputBps()
	c.resultBytes += uint64(encoded)
}

// perRun divides a count by the number of runs.
func (c layerCounts) perRun(v float64) float64 {
	if c.runs == 0 {
		return 0
	}
	return v / float64(c.runs)
}

// report is everything one measurement prints.
type report struct {
	host      hostStamp
	endToEnd  metricList
	perLayer  metricList
	attempted int
	failed    int
	problems  []string
	table     string
	tracer    *tracer
}

// measure sets the workload up setupRepeats times, runs the warm-up op
// and the timed phase (twice with tracing), verifies the outputs and
// derives every metric.
func measure(setup setupFunc, o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var inst instance
	setups := make([]float64, setupRepeats)
	for i := range setups {
		if inst != nil {
			inst.close()
		}
		root := tr.start("setup", 0, opSetup)
		t0 := time.Now()
		var err error
		inst, err = setup(o, tr, root)
		setups[i] = time.Since(t0).Seconds()
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer inst.close()
	if err := inst.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}

	plain, plainHost, _ := timedPhase(inst, o.seconds, nil)
	rep := &report{tracer: tr, host: newHostStamp(plainHost)}
	phases := []phaseResult{plain}
	var traced phaseResult
	var tracedHost hostDelta
	var tracedRT runtimeDelta
	if o.trace {
		traced, tracedHost, tracedRT = timedPhase(inst, o.seconds, tr)
		phases = append(phases, traced)
	}
	for _, p := range phases {
		rep.attempted += len(p.ops)
		rep.failed += p.failures()
		rep.problems = append(rep.problems, p.problems...)
	}
	if rep.failed > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d of %d ops failed", rep.failed, rep.attempted))
	}
	rep.problems = append(rep.problems, inst.verify(tr)...)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	e := &rep.endToEnd
	e.add("ops_per_s", "1/s", plain.opsPerSecond())
	all := plain.durationsMs(func(opRecord) bool { return true })
	e.add("op_ms_p50", "ms", percentile(all, 50))
	e.add("op_ms_p99", "ms", percentile(all, 99))
	e.add("cold_ms_p50", "ms", percentile(plain.durationsMs(func(op opRecord) bool { return op.cold }), 50))
	e.add("peak_rss_mb", "MB", rss)
	e.add("setup_s", "s", percentile(setups, 50))

	if o.trace {
		rep.perLayer = perLayerMetrics(inst, plain, traced, tracedHost, tracedRT, tr)
		rep.table = layerTable(rep.perLayer) + spanTable(tr, plain, traced)
	}
	return rep, nil
}

// timedPhase runs one phase and samples the host and the Go runtime
// around it.
func timedPhase(inst instance, d time.Duration, tr *tracer) (phaseResult, hostDelta, runtimeDelta) {
	h0 := readHostCPU()
	r0 := readRuntime()
	var peak *heapPeak
	if tr != nil {
		peak = startHeapPeak()
	}
	p := inst.phase(d, tr)
	rt := readRuntime().since(r0)
	if peak != nil {
		rt.heapPeakBytes = peak.stop()
	}
	return p, readHostCPU().since(h0), rt
}

// perLayerMetrics derives the per-layer table: work counts from the
// reference Results and the daemon, times from the traced phase's spans.
func perLayerMetrics(inst instance, plain, traced phaseResult, host hostDelta, rt runtimeDelta, tr *tracer) metricList {
	var m metricList
	c := inst.counts()
	ops := float64(len(traced.ops))

	engine := tr.timedOrVerify("engine")
	var engineNs, engineEvents, parentNs float64
	for _, s := range engine {
		engineNs += float64(s.dur())
		engineEvents += float64(s.Events)
		parentNs += float64(tr.spans[s.Parent-1].dur())
	}
	m.add("sim.events_per_op", "count", c.perRun(float64(c.events)))
	m.add("sim.events_per_s", "1/s", float64(traced.events)/traced.elapsed.Seconds())
	m.add("sim.ns_per_event", "ns", ratio(engineNs, engineEvents))

	m.add("runtime.alloc_mb_per_op", "MB", ratio(rt.allocBytes/1e6, ops))
	m.add("runtime.allocs_per_op", "count", ratio(rt.allocObjects, ops))
	m.add("runtime.gc_cycles_per_op", "count", ratio(rt.gcCycles, ops))
	m.add("runtime.gc_cpu_share", "share", ratio(rt.gcCPU, rt.totalCPU))
	m.add("runtime.heap_peak_mb", "MB", rt.heapPeakBytes/1e6)

	m.add("engine.run_ms_p50", "ms", percentile(spanMs(engine), 50))
	m.add("engine.run_share", "share", ratio(engineNs, parentNs))

	m.add("mac.retries_per_op", "count", c.perRun(float64(c.macRetries)))
	m.add("mac.drops_per_op", "count", c.perRun(float64(c.macDrops)))
	m.add("mac.retries_per_forward", "ratio", ratio(float64(c.macRetries), float64(c.forwards)))
	m.add("queue.drops_per_op", "count", c.perRun(float64(c.queueDrops)))
	m.add("node.forwards_per_op", "count", c.perRun(float64(c.forwards)))
	m.add("node.marks_per_op", "count", c.perRun(float64(c.marks)))
	m.add("routing.discoveries_per_op", "count", c.perRun(float64(c.discoveries)))
	m.add("routing.rerr_per_op", "count", c.perRun(float64(c.rerrs)))
	m.add("routing.link_failures_per_op", "count", c.perRun(float64(c.linkFailures)))
	m.add("tcp.segments_per_op", "count", c.perRun(float64(c.segments)))
	m.add("tcp.retx_share", "share", ratio(float64(c.retx), float64(c.segments)))
	m.add("tcp.timeouts_per_op", "count", c.perRun(float64(c.timeouts)))
	m.add("tcp.goodput_kbps", "kbit/s", c.perRun(c.goodputBps/1e3))
	m.add("invariant.checks_per_op", "count", c.perRun(float64(c.invariantChecks)))
	m.add("fault.transitions_per_op", "count", c.perRun(float64(c.faultTransitions)))

	m.add("topo.build_ms", "ms", percentile(tr.childSumsMs("topo", "setup"), 50))
	m.add("result.encode_ms_p50", "ms", percentile(spanMs(tr.timedOrVerify("result")), 50))
	m.add("result.kb_per_op", "KB", c.perRun(float64(c.resultBytes)/1024))

	svc := inst.service()
	m.add("jobs.submit_ms_p50", "ms", percentile(spanMs(tr.timed("jobs.submit")), 50))
	m.add("jobs.wait_ms_p50", "ms", percentile(spanMs(tr.timed("jobs.wait")), 50))
	m.add("jobs.fetch_ms_p50", "ms", percentile(spanMs(tr.timed("jobs.fetch")), 50))
	m.add("jobs.hit_ms_p50", "ms", percentile(traced.durationsMs(func(op opRecord) bool { return !op.cold }), 50))
	m.add("jobs.hit_share", "share", ratio(float64(svc.hits), float64(svc.jobs)))
	m.add("jobs.rejected_per_job", "count", ratio(float64(svc.rejected), float64(svc.jobs)))
	m.add("jobs.cache_kb", "KB", float64(svc.cacheBytes)/1024)
	m.add("jobs.store_kb", "KB", float64(svc.storeBytes)/1024)

	m.add("host.steal_share", "share", host.stealShare())
	m.add("host.cpu_util", "share", host.busyShare())
	m.add("trace.overhead_share", "share", 1-ratio(traced.opsPerSecond(), plain.opsPerSecond()))
	return m
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metric
}

// metricList keeps the order metrics were added in, for the table.
type metricList []namedMetric

func (m *metricList) add(name, unit string, v float64) {
	*m = append(*m, namedMetric{name, metric{v, unit}})
}

func (m metricList) byName() map[string]metric {
	out := make(map[string]metric, len(m))
	for _, nm := range m {
		out[nm.name] = nm.metric
	}
	return out
}

// percentile interpolates linearly between the closest ranks, as
// numpy's default does; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// derive mixes a seed with an index path into an independent 63-bit
// seed (splitmix64 finalizer), so every input of a workload is a pure
// function of the workload seed.
func derive(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// layerMoves names, per layer, the end-to-end metrics a change to the
// layer should move and on which workload; README.md gives the reasons.
var layerMoves = map[string]string{
	"sim":       "ops_per_s on paper-chains and islands-1k; cold_ms_p50 on muzhad-mix",
	"runtime":   "ops_per_s on all three; peak_rss_mb on islands-1k",
	"engine":    "ops_per_s on islands-1k",
	"mac":       "sentinel: must not move on a perf change",
	"queue":     "sentinel",
	"node":      "sentinel",
	"routing":   "sentinel; flood cost shows as ops_per_s on islands-1k",
	"tcp":       "sentinel",
	"invariant": "sentinel",
	"fault":     "sentinel",
	"topo":      "setup_s on islands-1k",
	"result":    "cold_ms_p50 and jobs.hit_ms_p50 on muzhad-mix",
	"jobs":      "submit/fetch: op_ms_p50, jobs.hit_ms_p50; wait: cold_ms_p50, op_ms_p99 (muzhad-mix)",
	"host":      "none: noise from the host, not the program",
	"trace":     "none: the cost of the spans themselves",
}

// layerTable renders the per-layer metrics with the end-to-end metrics
// each should move.
func layerTable(m metricList) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %16s %-7s %s\n", "metric", "value", "unit", "moves")
	for _, nm := range m {
		layer, _, _ := strings.Cut(nm.name, ".")
		fmt.Fprintf(&b, "%-30s %16.6g %-7s %s\n", nm.name, nm.Value, nm.Unit, layerMoves[layer])
	}
	return b.String()
}

// spanTable renders the traced phase's spans per name with their self
// times, followed by the tracing overhead.
func spanTable(tr *tracer, plain, traced phaseResult) string {
	var b strings.Builder
	var opTotal float64
	for _, s := range tr.timed("op") {
		opTotal += ms(s.dur())
	}
	fmt.Fprintf(&b, "%-12s %7s %12s %12s %10s %10s\n", "span", "count", "total_ms", "self_ms", "self_share", "p50_ms")
	for _, name := range []string{"op", "engine", "result", "jobs.submit", "jobs.wait", "jobs.fetch"} {
		spans := tr.timed(name)
		if len(spans) == 0 {
			continue
		}
		var total, self float64
		for _, s := range spans {
			total += ms(s.dur())
			self += ms(tr.self(s))
		}
		fmt.Fprintf(&b, "%-12s %7d %12.1f %12.1f %10.4f %10.3f\n",
			name, len(spans), total, self, ratio(self, opTotal), percentile(spanMs(spans), 50))
	}
	for _, name := range []string{"setup", "topo", "verify", "engine", "result"} {
		spans := tr.outside(name)
		if len(spans) == 0 {
			continue
		}
		var total, self float64
		for _, s := range spans {
			total += ms(s.dur())
			self += ms(tr.self(s))
		}
		fmt.Fprintf(&b, "%-12s %7d %12.1f %12.1f %10s %10.3f  (outside the timed phase)\n",
			name, len(spans), total, self, "-", percentile(spanMs(spans), 50))
	}
	fmt.Fprintf(&b, "tracing overhead: traced %.4f ops/s vs untraced %.4f ops/s (%.2f%% slower)\n",
		traced.opsPerSecond(), plain.opsPerSecond(), 100*(1-ratio(traced.opsPerSecond(), plain.opsPerSecond())))
	return b.String()
}
