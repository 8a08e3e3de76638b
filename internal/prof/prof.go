// Package prof wires the runtime/pprof profilers into the CLIs: the
// -cpuprofile/-memprofile flags on cnfetsweep and cnfetdk produce the
// same artifact formats as `go test`'s flags, so `go tool pprof` reads
// them directly against the command binary.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Start begins CPU profiling to cpuPath (skipped when empty) and returns
// a stop function that finishes the CPU profile and writes an allocs
// (heap) profile to memPath (skipped when empty). The stop function is
// idempotent; call it before exiting — explicitly on os.Exit paths,
// since those bypass defers.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuF *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
		cpuF = f
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			if cpuF != nil {
				pprof.StopCPUProfile()
				if err := cpuF.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "prof: closing cpu profile:", err)
				}
			}
			if memPath == "" {
				return
			}
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "prof: writing heap profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "prof: closing heap profile:", err)
			}
		})
	}
	return stop, nil
}
