package shardnet

// fleet.go runs a coordinator together with a fixed fleet of workers in
// this process — the in-process sharded run over the simulated network,
// and the loopback TCP run. The fleet, not the coordinator, knows when no
// worker is left: a coordinator only sees connections, and a fleet whose
// first worker died before the second had dialed has no connection for a
// moment without being over.

import (
	"errors"
	"sync"
	"sync/atomic"
)

// errFleetGone aborts a run whose every worker has exited with slices
// still incomplete.
var errFleetGone = errors.New("shardnet: all workers disconnected with slices incomplete (rerun to resume from the journals)")

// RunFleet runs coord to completion alongside workers calls of runWorker,
// each one worker's whole life (typically RunWorker). When the last worker
// returns, the coordinator is aborted: a completed run has already
// stopped, and an incomplete one has no one left to finish it. Workers
// that return ErrWorkerKilled are counted in Stats.WorkersKilled. Other
// worker errors are expected noise when the run completed (a worker
// mid-reconnect when the listener closes gives up harmlessly); when the
// coordinator failed they are joined in for diagnosis.
func RunFleet(coord *Coordinator, workers int, runWorker func(i int) error) (*Stats, error) {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	var left atomic.Int32
	left.Store(int32(workers))
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runWorker(i)
			if left.Add(-1) == 0 {
				coord.Abort(errFleetGone)
			}
		}(i)
	}
	stats, err := coord.Run()
	wg.Wait()
	var werrs []error
	for _, e := range errs {
		if errors.Is(e, ErrWorkerKilled) {
			stats.WorkersKilled++
		} else if e != nil && err != nil {
			werrs = append(werrs, e)
		}
	}
	if err != nil {
		return stats, errors.Join(append([]error{err}, werrs...)...)
	}
	return stats, nil
}
