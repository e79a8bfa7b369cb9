package main

import "time"

// The host's speed drifts: on a shared virtual CPU a fixed kernel takes
// anywhere from 1× to 2.5× its best time, in stretches of tenths of a
// second to minutes, and over a set of runs the select workload's raw times
// spread by up to 30 %. Each select child therefore times a fixed
// calibration kernel (benchmark code, independent of the program under
// test) before, between and after its two requests, and the workload's
// result-line times are the raw medians scaled by calibrationRefS / the
// run's mean kernel time. A change to the program moves the scaled time; a
// slower host moves the raw time and the kernel alike. The raw medians stay
// in the record. Measured here, scaling narrowed the select spreads from
// 27–29 % to 9–12 % in a drifting stretch and from 8 % to 4–5 % in a calm
// one; on serve-mix and paper-quick it widened them, so those report raw
// times.

// calibrationRefS is the kernel time the scaled metrics are expressed at.
const calibrationRefS = 1.3e-3

// calibrationBurst is how many kernel timings one calibration point takes.
const calibrationBurst = 10

// speedometer collects one run's calibration kernel timings.
type speedometer struct {
	samples []float64
}

// sample times the kernel k times.
func (s *speedometer) sample(k int) {
	for i := 0; i < k; i++ {
		s.samples = append(s.samples, calibrate())
	}
}

// add appends timings taken in a child process.
func (s *speedometer) add(samples []float64) {
	s.samples = append(s.samples, samples...)
}

// factor is how much slower than the reference host this run's host was
// on average.
func (s *speedometer) factor() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range s.samples {
		sum += v
	}
	return sum / float64(len(s.samples)) / calibrationRefS
}

const calibrationN = 96

// calibrationBufs are the kernel's operands, allocated on first use so
// that calibrating adds no garbage to a measured child.
var calibrationBufs struct {
	a, b, c []float64
}

// calibrate times one 96×96 dense multiply-accumulate.
func calibrate() float64 {
	const n = calibrationN
	m := &calibrationBufs
	if m.a == nil {
		m.a, m.b, m.c = make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
		for i := range m.a {
			m.a[i] = float64(i%7) * 0.5
			m.b[i] = float64(i%5) * 0.25
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := m.a[i*n+k]
			row := m.c[i*n : i*n+n]
			for j, bkj := range m.b[k*n : k*n+n] {
				row[j] += aik * bkj
			}
		}
	}
	return time.Since(start).Seconds()
}

// setTimes records a run's result-line times.
func (r *report) setTimes(latencyMS, slowMS, setupS float64) {
	r.set("latency_ms", "ms", latencyMS)
	r.set("slow_ms", "ms", slowMS)
	r.set("setup_s", "s", setupS)
}

// scale records the calibration in the printed record and returns the
// factor to divide the run's times by.
func (r *report) scale(s *speedometer) float64 {
	f := s.factor()
	r.add("calibration.kernel_ms", "ms", 1000*f*calibrationRefS, summary{N: len(s.samples)})
	r.add("calibration.host_factor", "ratio", f, summary{N: len(s.samples)})
	return f
}
