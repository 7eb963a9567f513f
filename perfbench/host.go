package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostStamp identifies the machine a measurement ran on. StealShare and
// CPUUtil cover the untraced timed phase.
type hostStamp struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	StealShare float64 `json:"steal_share"`
	CPUUtil    float64 `json:"cpu_util"`
}

func newHostStamp(d hostDelta) hostStamp {
	return hostStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		StealShare: d.stealShare(),
		CPUUtil:    d.busyShare(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in clock ticks:
// user nice system idle iowait irq softirq steal. It stays zero where
// /proc/stat does not exist.
type hostCPU [8]uint64

func readHostCPU() hostCPU {
	var c hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return c
	}
	for i := range c {
		c[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
	}
	return c
}

type hostDelta hostCPU

func (c hostCPU) since(prev hostCPU) hostDelta {
	var d hostDelta
	for i := range c {
		d[i] = c[i] - prev[i]
	}
	return d
}

func (d hostDelta) total() float64 {
	var t uint64
	for _, v := range d {
		t += v
	}
	return float64(t)
}

// stealShare is the share of the host's CPU time the hypervisor gave to
// other guests: noise from the host, not work of the program.
func (d hostDelta) stealShare() float64 { return ratio(float64(d[7]), d.total()) }

// busyShare is the share of the host's CPU time spent running code.
func (d hostDelta) busyShare() float64 {
	return ratio(float64(d[0]+d[1]+d[2]+d[5]+d[6]), d.total())
}

// runtimeSample reads the Go runtime counters the runtime layer reports.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU                    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3], v[4]}
}

// runtimeDelta is the runtime's work over one timed phase.
type runtimeDelta struct {
	runtimeSample
	heapPeakBytes float64
}

func (s runtimeSample) since(prev runtimeSample) runtimeDelta {
	return runtimeDelta{runtimeSample: runtimeSample{
		allocBytes:   s.allocBytes - prev.allocBytes,
		allocObjects: s.allocObjects - prev.allocObjects,
		gcCycles:     s.gcCycles - prev.gcCycles,
		gcCPU:        s.gcCPU - prev.gcCPU,
		totalCPU:     s.totalCPU - prev.totalCPU,
	}}
}

// heapPeak samples the live heap every few milliseconds during a traced
// phase and keeps the largest value seen.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in bytes.
func (h *heapPeak) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}

// peakRSSMB is the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
