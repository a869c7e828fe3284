package main

// Measurement helpers: order statistics, peak resident memory, and Go
// runtime counters taken around a pass.

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation
// (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqMean is the interquartile mean: the mean of xs after dropping the
// lowest and highest quarter (floor(len/4) values at each end). A
// pass's wall time can be bimodal, as when the straggler tail of a
// sweep lands one way or the other, and the median of a few bimodal
// samples flips between the modes; the interquartile mean averages
// them while still ignoring an outlying pass.
func iqMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	return mean(s[k : len(s)-k])
}

// resetPeakRSS restarts the kernel's resident high-water mark for this
// process, so each pass reports its own peak. It is best effort: where
// /proc/self/clear_refs is unavailable the mark keeps the process peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes reads the resident high-water mark (VmHWM), 0 if unknown.
func peakRSSBytes() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// rtSnap is a snapshot of the Go runtime counters a pass is charged.
type rtSnap struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU, totalCPU               float64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := rtSnap{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: uint64(ms.NumGC)}
	metrics.Read(rtSamples)
	if rtSamples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = rtSamples[0].Value.Float64()
	}
	if rtSamples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = rtSamples[1].Value.Float64()
	}
	return s
}

// rtDelta is what the runtime did between two snapshots.
type rtDelta struct {
	allocMB, mallocs, gcCycles, gcCPUFrac float64
}

func (a rtSnap) to(b rtSnap) rtDelta {
	d := rtDelta{
		allocMB:  float64(b.allocBytes-a.allocBytes) / (1 << 20),
		mallocs:  float64(b.mallocs - a.mallocs),
		gcCycles: float64(b.gcCycles - a.gcCycles),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// cpuSeconds is the CPU time this process has used, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat (0, 0 where unavailable): on a virtual machine, steal is
// time the hypervisor ran someone else on this machine's CPUs.
func stealTicks() (steal, total float64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, fld := range fields[1:] {
		x, err := strconv.ParseFloat(fld, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}
