package main

import (
	"time"

	"wavelethpc/internal/image"
)

// workloadEnv is one set-up workload: inputs, expected outputs and any
// running servers.
type workloadEnv interface {
	// run drives the workload's closed loop for about d (tracing into tr
	// when it is recording) and returns what it measured.
	run(d time.Duration, tr *tracer) *loopStats
	// payloadImages are the workload's input images, for the codec probes.
	payloadImages() []*image.Image
	close()
}

// loopStats is what one closed-loop run measured.
type loopStats struct {
	attempted, failed, wrong int
	firstErr                 error
	lat                      []float64 // ms per completed operation
	wall                     time.Duration
	// Megapixels decomposed and reconstructed by completed operations.
	fwdMpix, invMpix float64
	// Scene only: forward and inverse transform time, and every
	// completed transform call.
	fwdWall, invWall time.Duration
	calls            []call
	// issued lists the operation indices each caller sent, in order.
	issued [][]int
}

// call is one completed scene transform call; key is 2×case for a
// forward call and 2×case+1 for an inverse one.
type call struct {
	key      int
	mpix, ms float64
}

func newLoopStats(callers int) *loopStats {
	return &loopStats{issued: make([][]int, callers)}
}

// record counts one operation. err is a failed or refused call; check
// compares the output with the expected one. It reports whether the
// operation completed with a correct output.
func (st *loopStats) record(dt time.Duration, err error, check func() error) bool {
	st.attempted++
	if err == nil {
		if err = check(); err != nil {
			st.wrong++
		}
	}
	if err != nil {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
		return false
	}
	st.lat = append(st.lat, ms(dt))
	return true
}

func (st *loopStats) completed() int { return st.attempted - st.failed }

// merge folds another run's or caller's counts into st.
func (st *loopStats) merge(o *loopStats) {
	st.attempted += o.attempted
	st.failed += o.failed
	st.wrong += o.wrong
	if st.firstErr == nil {
		st.firstErr = o.firstErr
	}
	st.lat = append(st.lat, o.lat...)
	st.fwdMpix += o.fwdMpix
	st.invMpix += o.invMpix
	st.fwdWall += o.fwdWall
	st.invWall += o.invWall
	st.calls = append(st.calls, o.calls...)
	st.issued = append(st.issued, o.issued...)
}
