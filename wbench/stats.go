package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeReps runs fn reps times and returns the median wall time.
func timeReps(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status, in MiB; 0 where procfs is unavailable.
func peakRSSMiB() float64 {
	kb := procStatusKB("VmHWM:")
	return kb / 1024
}

// resetPeakRSS restarts VmHWM at the current resident set, so that the
// next peakRSSMiB covers only what runs in between (memory still held
// from set-up counts, being resident). Without procfs it does nothing.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func procStatusKB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		parts := strings.Fields(line[len(field):])
		if len(parts) == 0 {
			return 0
		}
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return 0
		}
		return v
	}
	return 0
}

// llcMiB returns the size of the highest-level CPU cache the kernel
// reports for cpu0 (the figure lscpu prints), in MiB; 0 when unknown.
func llcMiB() float64 {
	bestLevel, best := 0, 0.0
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			continue
		}
		sz, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil || level < bestLevel {
			continue
		}
		s := strings.TrimSpace(string(sz))
		scale := 1.0 / (1 << 20) // a bare number is bytes
		switch {
		case strings.HasSuffix(s, "K"):
			scale, s = 1.0/(1<<10), strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			scale, s = 1, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			continue
		}
		bestLevel, best = level, v*scale
	}
	return best
}
