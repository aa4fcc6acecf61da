// Package prof drives the optional pprof captures behind the
// -cpuprofile and -memprofile flags of the command-line tools. Both
// commands share this one lifecycle so the profiles are written the same
// way: the CPU profile covers exactly the workload (not flag parsing),
// and the heap profile samples the live set after a forced GC so
// transient sweep buffers do not drown the structural allocations the
// profile is meant to expose.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Options selects the captures by output path; an empty path disables
// that capture.
type Options struct {
	// CPU is the CPU profile path, sampled over the whole workload.
	CPU string
	// Mem is the heap profile path, the live set written at stop.
	Mem string
}

// Start begins the selected captures. The returned stop function ends
// the CPU capture and writes the heap profile; it must run exactly once,
// after the workload — including on early exits, or the files would
// never be complete.
// Start never returns a nil stop alongside a nil error; on error it has
// already undone any captures it began.
func Start(o Options) (stop func() error, err error) {
	var cpuFile *os.File
	if o.CPU != "" {
		cpuFile, err = os.Create(o.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if o.Mem != "" {
			f, err := os.Create(o.Mem)
			if err != nil {
				return fmt.Errorf("heap profile: %w", err)
			}
			runtime.GC() // settle the live set before sampling
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("heap profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
